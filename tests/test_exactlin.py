"""Exact linear algebra substrate: scalars, inverses, alternating tensors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraltorus.coisson import (
    BracketTable,
    DeltaExpansion,
    FourierClass,
    LocalDensity,
)
from chiraltorus.exactlin import (
    AltTensor,
    CoeffTable,
    DimensionMismatch,
    ExactScalar,
    Frozen,
    RationalMatrix,
    SingularMatrix,
    alt_pullback,
    invert,
)
from chiraltorus.fockq import (
    BiSeries,
    FockTruncation,
    QSeries,
    SparseOp,
    TwoSidedFock,
    UnitScalar,
    one_dim_model,
)
from chiraltorus.jetcalc import DiffPoly, Monomial, VariationalForm, parse_expr


def rand_scalar(rng, den=6):
    return ExactScalar(
        Fraction(rng.randint(-8, 8), rng.randint(1, den)),
        Fraction(rng.randint(-8, 8), rng.randint(1, den)),
    )


def rand_invertible(rng, n):
    # exact arithmetic: a singular draw is detected, not approximated away
    while True:
        m = RationalMatrix([[rand_scalar(rng) for _ in range(n)] for _ in range(n)])
        if not m.det().is_zero():
            return m


class TestExactScalar:
    def test_arithmetic_is_exact(self):
        a = ExactScalar(Fraction(1, 3), Fraction(1, 2))
        b = ExactScalar(Fraction(2, 5), Fraction(-1, 7))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (ExactScalar(1) / a) == ExactScalar(1)

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            ExactScalar(1) / ExactScalar(0)

    def test_powers(self):
        i = ExactScalar(0, 1)
        assert i ** 2 == ExactScalar(-1)
        assert i ** -1 == -i
        assert ExactScalar(Fraction(2, 3)) ** -2 == ExactScalar(Fraction(9, 4))

    def test_string_round_trip(self, seed=7):
        rng = random.Random(seed)
        for _ in range(50):
            x = rand_scalar(rng)
            assert ExactScalar.from_string(str(x)) == x

    def test_parse_forms(self):
        assert ExactScalar.from_string("3") == ExactScalar(3)
        assert ExactScalar.from_string("-3/4") == ExactScalar(Fraction(-3, 4))
        assert ExactScalar.from_string("1/2+3/4 i") == ExactScalar(
            Fraction(1, 2), Fraction(3, 4)
        )
        assert ExactScalar.from_string("1/2-3/4 i") == ExactScalar(
            Fraction(1, 2), Fraction(-3, 4)
        )
        assert ExactScalar.from_string("i") == ExactScalar(0, 1)
        assert ExactScalar.from_string("-i") == ExactScalar(0, -1)
        assert ExactScalar.from_string("2/3 i") == ExactScalar(0, Fraction(2, 3))

    @pytest.mark.parametrize("bad", [0.1, 1.0, 1j, True, False])
    def test_inexact_parts_are_refused(self, bad):
        with pytest.raises(TypeError):
            ExactScalar(bad)
        with pytest.raises(TypeError):
            ExactScalar(1, bad)
        with pytest.raises(TypeError):
            ExactScalar.coerce(bad)

    def test_arithmetic_results_stay_fractions(self):
        a = ExactScalar(Fraction(1, 3), 2)
        for x in (a + a, a - 1, a * a, a / 3, -a, a.conjugate(), a ** 3):
            assert type(x.re) is Fraction and type(x.im) is Fraction


class TestRationalMatrix:
    def test_identity_inverts_to_itself(self):
        m = RationalMatrix.identity(3)
        assert invert(m) == m

    def test_one_by_one_reciprocal(self):
        m = RationalMatrix([[2]])
        assert invert(m) == RationalMatrix([[Fraction(1, 2)]])

    def test_random_inverse_multiplies_back(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rand_invertible(rng, 4)
            assert m * invert(m) == RationalMatrix.identity(4)
            assert invert(m) * m == RationalMatrix.identity(4)

    def test_invert_is_an_involution(self):
        rng = random.Random(12)
        for _ in range(10):
            m = rand_invertible(rng, 3)
            assert invert(invert(m)) == m

    def test_singular_matrix_raises(self):
        m = RationalMatrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrix):
            invert(m)

    def test_det_multiplicative(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_invertible(rng, 3)
            b = rand_invertible(rng, 3)
            assert (a * b).det() == a.det() * b.det()

    def test_shape_errors(self):
        a = RationalMatrix([[1, 2]])
        b = RationalMatrix([[1, 2]])
        with pytest.raises(DimensionMismatch):
            a * b
        with pytest.raises(DimensionMismatch):
            a.det()

    def test_json_round_trip(self):
        m = RationalMatrix([["1/2+3/4 i", "0"], ["-2", "i"]])
        assert RationalMatrix.from_json(m.to_json()) == m


def brute_eval(t, vectors):
    """Independent evaluation of an alternating tensor on explicit vectors.

    Expands T = sum_J t_J e_{j1}* ^ ... ^ e_{jk}* against the wedge
    pairing (e_{j1}*^...^e_{jk}*)(v_1,...,v_k) = det(v_a[j_b]).  Shares
    no code with AltTensor.evaluate or alt_pullback.
    """
    k = t.degree
    total = ExactScalar(0)
    for key, coeff in t.coeffs.items():
        rows = [[vectors[a][j - 1] for j in key] for a in range(k)]
        if k == 2:
            d = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        else:
            d = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
        total = total + coeff * d
    return total


def rand_tensor(rng, k, n, valdim=None):
    from itertools import combinations

    coeffs = {}
    for key in combinations(range(1, n + 1), k):
        if valdim is None:
            coeffs[key] = rand_scalar(rng)
        else:
            coeffs[key] = [rand_scalar(rng) for _ in range(valdim)]
    return AltTensor(k, n, coeffs, valdim)


class TestAltTensor:
    def test_repeated_index_evaluates_to_zero(self):
        t = AltTensor(2, 3, {(1, 2): 5})
        assert t.evaluate((1, 1)) == ExactScalar(0)

    def test_antisymmetry_of_evaluation(self):
        t = AltTensor(2, 3, {(1, 2): 5, (2, 3): -7})
        assert t.evaluate((2, 1)) == -t.evaluate((1, 2))

    def test_degree_three_signs(self):
        t = AltTensor(3, 3, {(1, 2, 3): 1})
        assert t.evaluate((1, 2, 3)) == ExactScalar(1)
        assert t.evaluate((2, 1, 3)) == ExactScalar(-1)
        assert t.evaluate((2, 3, 1)) == ExactScalar(1)

    def test_key_validation(self):
        with pytest.raises(DimensionMismatch):
            AltTensor(2, 3, {(2, 1): 1})
        with pytest.raises(DimensionMismatch):
            AltTensor(2, 3, {(1, 4): 1})

    def test_identity_pullback_is_identity(self):
        rng = random.Random(21)
        t = rand_tensor(rng, 2, 3)
        assert alt_pullback(2, RationalMatrix.identity(3), t) == t

    def test_scaled_identity_degree_three(self):
        # t(e1/2, e2/2, e3/2) = 1/8
        t = AltTensor(3, 3, {(1, 2, 3): 1})
        mu = RationalMatrix.identity(3).scale(2)
        out = alt_pullback(3, mu, t)
        assert out.coeffs[(1, 2, 3)] == ExactScalar(Fraction(1, 8))

    def test_pullback_matches_brute_force(self):
        rng = random.Random(22)
        for k in (2, 3):
            for _ in range(8):
                n = rng.randint(k, 4)
                t = rand_tensor(rng, k, n)
                mu = rand_invertible(rng, n)
                out = alt_pullback(k, mu, t)
                inv = invert(mu)
                from itertools import combinations

                for idx in combinations(range(1, n + 1), k):
                    cols = [
                        [inv[(r, i - 1)] for r in range(n)] for i in idx
                    ]
                    expected = brute_eval(t, cols)
                    got = out.coeffs.get(idx, ExactScalar(0))
                    assert got == expected

    def test_functoriality(self):
        rng = random.Random(23)
        for k in (2, 3):
            for _ in range(6):
                n = rng.randint(k, 4)
                t = rand_tensor(rng, k, n)
                m1 = rand_invertible(rng, n)
                m2 = rand_invertible(rng, n)
                lhs = alt_pullback(k, m2, alt_pullback(k, m1, t))
                rhs = alt_pullback(k, m2 * m1, t)
                assert lhs == rhs

    def test_scaling_law(self):
        rng = random.Random(24)
        s = ExactScalar(Fraction(3, 2))
        for k in (2, 3):
            t = rand_tensor(rng, k, 4)
            mu = RationalMatrix.identity(4).scale(s)
            out = alt_pullback(k, mu, t)
            assert out == t.scale(s ** -k)

    def test_vector_valued_pullback_componentwise(self):
        rng = random.Random(25)
        n, m = 3, 3
        t = rand_tensor(rng, 2, n, valdim=m)
        mu = rand_invertible(rng, n)
        out = alt_pullback(2, mu, t)
        for c in range(m):
            comp = AltTensor(2, n, {k: v[c] for k, v in t.coeffs.items()})
            comp_out = alt_pullback(2, mu, comp)
            for key in out.coeffs:
                assert out.coeffs[key][c] == comp_out.coeffs.get(key, ExactScalar(0))

    def test_json_round_trip(self):
        rng = random.Random(26)
        t = rand_tensor(rng, 3, 4)
        assert AltTensor.from_json(t.to_json()) == t
        tv = rand_tensor(rng, 2, 3, valdim=3)
        assert AltTensor.from_json(tv.to_json()) == tv

    def test_dimension_checks(self):
        t = AltTensor(2, 3, {(1, 2): 1})
        with pytest.raises(DimensionMismatch):
            alt_pullback(3, RationalMatrix.identity(3), t)
        with pytest.raises(DimensionMismatch):
            alt_pullback(2, RationalMatrix.identity(4), t)
        with pytest.raises(SingularMatrix):
            alt_pullback(2, RationalMatrix([[1, 2], [2, 4]]).scale(1), AltTensor(2, 2, {(1, 2): 1}))


# ----------------------------------------------------------------------
# frozen types and the shared coefficient table
# ----------------------------------------------------------------------

def _fock():
    return FockTruncation(one_dim_model(), [0], 1)


# one instance of every frozen type, with an attribute to try to reassign
FROZEN_CASES = {
    "ExactScalar": (lambda: ExactScalar(1, 2), "re"),
    "RationalMatrix": (lambda: RationalMatrix.identity(2), "entries"),
    "AltTensor": (lambda: AltTensor(2, 2, {(1, 2): 1}), "coeffs"),
    "DiffPoly": (lambda: parse_expr("x1*p1"), "terms"),
    "VariationalForm": (
        lambda: VariationalForm({((), ("t", "s")): parse_expr("x1")}), "parts"),
    "LocalDensity": (lambda: LocalDensity("p1"), "poly"),
    "FourierClass": (lambda: FourierClass("p1"), "rep"),
    "DeltaExpansion": (lambda: DeltaExpansion({0: parse_expr("p1")}), "coeffs"),
    "BracketTable": (lambda: BracketTable(), "twist"),
    "UnitScalar": (lambda: UnitScalar.unit(1), "coeffs"),
    "LatticeModel": (lambda: one_dim_model(), "g"),
    "Sector": (lambda: one_dim_model().sector([1], [0]), "h"),
    "SparseOp": (lambda: SparseOp.identity(2), "table"),
    "FockTruncation": (_fock, "basis"),
    "TwoSidedFock": (lambda: TwoSidedFock(_fock(), _fock()), "plus"),
    "QSeries": (lambda: QSeries({0: 1}, 2), "cap"),
    "BiSeries": (lambda: BiSeries({(0, 0): 1}), "coeffs"),
}


def _frozen_classes(base=Frozen):
    for cls in base.__subclasses__():
        yield cls
        yield from _frozen_classes(cls)


def test_every_frozen_class_has_an_immutability_case():
    names = {cls.__name__ for cls in _frozen_classes()} - {"CoeffTable"}
    assert names == set(FROZEN_CASES)


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_immutability(name):
    make, attr = FROZEN_CASES[name]
    obj = make()
    before = getattr(obj, attr)
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        obj.new_attribute = 1
    assert getattr(obj, attr) is before


small_scalars = st.builds(
    ExactScalar,
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from([0, 0, 1, -1]),
)

TABLE_KEYS = {
    DiffPoly: st.builds(
        lambda m, i, b: Monomial(m, (), ((i, 0, b),)),
        st.integers(-1, 1), st.integers(1, 2), st.integers(0, 1),
    ),
    UnitScalar: st.integers(-2, 2),
    # equal exponents given as int and as Fraction must meet in one key
    BiSeries: st.tuples(
        st.sampled_from([0, Fraction(0), Fraction(1, 2), 1, Fraction(1)]),
        st.sampled_from([0, Fraction(0), Fraction(-1, 2)]),
    ),
}


def table_items(cls):
    return st.lists(st.tuples(TABLE_KEYS[cls], small_scalars), max_size=8)


def assert_pruned(x: CoeffTable):
    assert all(not v.is_zero() for v in x.coeffs.values())


@pytest.mark.parametrize("cls", list(TABLE_KEYS), ids=lambda c: c.__name__)
class TestCoeffTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_order_of_items_does_not_matter(self, cls, data):
        items = data.draw(table_items(cls))
        shuffled = data.draw(st.permutations(items))
        x, y = cls(items), cls(shuffled)
        assert x == y
        assert hash(x) == hash(y)
        assert x.coeffs == y.coeffs
        assert_pruned(x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_arithmetic_keeps_tables_pruned(self, cls, data):
        x = cls(data.draw(table_items(cls)))
        y = cls(data.draw(table_items(cls)))
        c = data.draw(small_scalars)
        assert (x + (-x)).coeffs == {}
        assert x - x == cls()
        assert (x - y) + y == x
        assert x + y == y + x
        for z in (x + y, x - y, -x, x.scale(c)):
            assert_pruned(z)
        assert x.scale(c).is_zero() == (c.is_zero() or x.is_zero())
        if cls is not BiSeries:
            assert_pruned(x * y)

