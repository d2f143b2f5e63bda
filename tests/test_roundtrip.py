"""Round trips through the JSON forms, and the T-duality involution.

Every to_json/from_json pair must give back an equal value after the
output has passed through real JSON text, and t_dual applied twice
must give back the model it started from."""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiraltorus.chiral_fm import CdoIsoClass, CdoMorphism, NondegClass, TdoIsoClass
from chiraltorus.exactlin import AltTensor, ExactScalar, RationalMatrix
from chiraltorus.fockq import LatticeModel, load_model, t_dual

from test_chiral_fm import fm_cases, sparse_tensors
from test_elimination import entries
from test_exactlin import gaussians
from test_sector_tables import models


def through_json(data):
    return json.loads(json.dumps(data))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return RationalMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@st.composite
def tensors(draw):
    k, n = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    return draw(sparse_tensors(k, n, draw(st.none() | st.integers(1, 3))))


class TestJsonRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(x=gaussians)
    def test_exact_scalar(self, x):
        assert ExactScalar.from_json(through_json(x.to_json())) == x

    @settings(max_examples=100, deadline=None)
    @given(m=matrices())
    def test_rational_matrix(self, m):
        assert RationalMatrix.from_json(through_json(m.to_json())) == m

    @settings(max_examples=100, deadline=None)
    @given(t=tensors())
    def test_alt_tensor(self, t):
        assert AltTensor.from_json(through_json(t.to_json())) == t

    @settings(max_examples=40, deadline=None)
    @given(case=fm_cases())
    def test_transform_classes(self, case):
        for obj in case:
            assert type(obj).from_json(through_json(obj.to_json())) == obj
        assert {type(obj) for obj in case} == {
            NondegClass, CdoIsoClass, TdoIsoClass, CdoMorphism}

    @settings(max_examples=100, deadline=None)
    @given(model=models())
    @example(model=LatticeModel(1, [["3"]], [["0"]], [["2"]], unit_exponent=0,
                                u_square=Fraction(1, 2)))
    def test_lattice_model(self, model):
        assert load_model(through_json(model.to_json())) == model


class TestTDuality:
    @settings(max_examples=60, deadline=None)
    @given(model=models())
    def test_involution(self, model):
        dual = t_dual(model)
        assert t_dual(dual) == model
        assert load_model(through_json(dual.to_json())) == dual
