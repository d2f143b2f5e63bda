"""Lattice models, sectors, and truncated Fock quantization.

Derived quantities are checked against independent oracles defined at
the top: colored partition counts by brute multiset enumeration, the
vacuum Virasoro bracket by direct metric contraction, zero modes by the
weight formula, and the branch-exponent integers by raw coordinate
pairings.
"""

import json
import operator
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraltorus import exactlin, fockq
from chiraltorus.chiral_fm import CdoIsoClass
from chiraltorus.coisson import BracketTable
from chiraltorus.exactlin import (
    AltTensor,
    ChiraltorusError,
    DimensionMismatch,
    ExactScalar,
    InvariantError,
    RationalMatrix,
)
from chiraltorus.fockq import (
    BiSeries,
    CutoffExceeded,
    FockTruncation,
    FormalUnitValue,
    LatticeModel,
    ModelMismatch,
    NotAntisymmetric,
    NotInLattice,
    NotPositiveDefinite,
    QSeries,
    Sector,
    SingularLattice,
    SparseOp,
    UnitScalar,
    build_model,
    central_charge,
    character,
    chiral_sectors,
    colored_partition_counts,
    enumerate_sectors,
    ko_locality,
    load_model,
    one_dim_model,
    partition_function,
    spectrum_point,
    t_dual,
    vertex_exponents,
)
from chiraltorus.jetcalc import DiffPoly, gen_tau, gen_translation, torus_lagrangian

S = ExactScalar


def u_poly(d):
    return UnitScalar({e: S.coerce(c) for e, c in d.items()})


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def brute_colored_count(n, k):
    """Count multisets of (color, part) pairs summing to k, by explicit
    multiplicity recursion over the pair list."""
    pairs = [(c, p) for c in range(n) for p in range(1, k + 1)]

    def count(idx, remaining):
        if remaining == 0:
            return 1
        if idx == len(pairs):
            return 0
        _, p = pairs[idx]
        total = 0
        mult = 0
        while mult * p <= remaining:
            total += count(idx + 1, remaining - mult * p)
            mult += 1
        return total

    return count(0, k)


def vacuum_bracket_oracle(g: RationalMatrix) -> ExactScalar:
    """Value of ([L_2, L_-2] - 4 L_0) on the vacuum, derived by hand:
    L_-2 puts -g_{ij} a^i_-1 a^j_-1 on the vacuum, the m = 1 term of L_2
    contracts back with two Wick pairings of weight -1/2 g^{..} each, and
    every other term kills the state.  The result is the double trace
    (1/4)(g_{ij} g_{kl} g^{li} g^{kj} + g_{ij} g_{kl} g^{lj} g^{ki})."""
    n = g.rows
    ginv = g.inverse()
    t1 = S(0)
    t2 = S(0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    t1 = t1 + g[(i, j)] * g[(k, l)] * ginv[(l, i)] * ginv[(k, j)]
                    t2 = t2 + g[(i, j)] * g[(k, l)] * ginv[(l, j)] * ginv[(k, i)]
    return (t1 + t2) * S(Fraction(1, 4))


def zero_mode_oracle(ginv: RationalMatrix, weight, i):
    """Eigenvalue -1/2 g^{ik} a_k of the i-th zero mode."""
    out = S(0)
    for k in range(ginv.cols):
        out = out + ginv[(i - 1, k)] * S.coerce(weight[k])
    return out * S(Fraction(-1, 2))


def pairing_oracle(model, s1, s2):
    """<l1*, l2> + <l2*, l1> from raw coordinates.  The dual pairing
    matrix is the identity by construction, so this is a plain dot
    product of coordinate vectors."""
    d1 = sum(a * b for a, b in zip(s1.lstar_coords, s2.l_coords))
    d2 = sum(a * b for a, b in zip(s2.lstar_coords, s1.l_coords))
    return d1 + d2


G_OFFDIAG = RationalMatrix([["2", "1"], ["1", "2"]])
B_STANDARD = [["0", "1"], ["-1", "0"]]
ZERO2 = [["0", "0"], ["0", "0"]]


# ----------------------------------------------------------------------
# unit arithmetic
# ----------------------------------------------------------------------

class TestUnitScalar:
    def test_laurent_arithmetic(self):
        a = u_poly({1: 2, -1: "1/2"})
        b = u_poly({1: 1})
        assert a + b == u_poly({1: 3, -1: "1/2"})
        assert a * b == u_poly({2: 2, 0: "1/2"})
        assert a - a == UnitScalar()
        assert (a * UnitScalar()).is_zero()

    def test_exact_value_extraction(self):
        assert u_poly({0: "3/4"}).as_exact() == S("3/4")
        with pytest.raises(FormalUnitValue):
            u_poly({1: 1}).as_exact()

    def test_unit_product_is_rational(self):
        u = UnitScalar({1: 1})
        uinv = UnitScalar({-1: 1})
        assert (u * uinv).as_exact() == S(1)

    def test_canon_folds_declared_square(self):
        m = one_dim_model(2)  # u = 2, u^2 = 4
        assert m.canon(u_poly({2: 1})) == u_poly({0: 4})
        assert m.canon(u_poly({-1: 1})) == u_poly({1: "1/4"})
        assert m.canon(u_poly({-2: 8, 1: 1})) == u_poly({0: 2, 1: 1})

    def test_formal_model_does_not_fold(self):
        m = one_dim_model()
        x = u_poly({2: 1, -2: 1})
        assert m.canon(x) == x


# ----------------------------------------------------------------------
# model construction
# ----------------------------------------------------------------------

def _n2_model():
    return build_model(2, RationalMatrix.identity(2), ZERO2, RationalMatrix.identity(2))


# each argument that does not fit its model is refused, with the exit code
# of its class: a precondition failure (2), or a usage error (1) for the
# unit exponent, which only a model file can get wrong
@pytest.mark.parametrize("build,cls,message,code", [
    (lambda: LatticeModel(1, [["1 i"]], [[0]], [[1]]), NotPositiveDefinite,
     "metric must be real", 2),
    (lambda: LatticeModel(2, [[1]], [[0]], [[1]]), DimensionMismatch,
     "model matrices must be n x n", 2),
    (lambda: LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=2), ChiraltorusError,
     "unit exponent must be -1, 0, or 1", 1),
    (lambda: one_dim_model(0), SingularLattice, "scale must be positive", 2),
    (lambda: one_dim_model(1).sector([1, 0], [0]), DimensionMismatch,
     "expected 1 coordinates", 2),
    (lambda: FockTruncation(_n2_model(), [0], 2), DimensionMismatch,
     "weight covector has wrong length", 2),
    (lambda: FockTruncation(_n2_model(), [0, 0], 2).alpha(3, 1), DimensionMismatch,
     "no color 3", 2),
], ids=["complex-metric", "metric-not-n-by-n", "unit-exponent-2", "radius-0",
        "sector-coordinate-count", "fock-weight-length", "alpha-colour-3"])
def test_arguments_that_do_not_fit_the_model_are_refused(build, cls, message, code):
    with pytest.raises(cls, match=f"^{message}$") as info:
        build()
    assert type(info.value) is cls
    assert info.value.exit_code == code


class TestModelBuild:
    def test_identity_dual_is_identity(self):
        m = build_model(2, RationalMatrix.identity(2), ZERO2,
                        RationalMatrix.identity(2))
        assert m.LstarBasis == RationalMatrix.identity(2)

    def test_diagonal_dual(self):
        m = build_model(2, RationalMatrix.identity(2), ZERO2,
                        [["2", "0"], ["0", "3"]])
        assert m.LstarBasis == RationalMatrix([["1/2", "0"], ["0", "1/3"]])

    def test_dual_certificate_unimodular(self):
        bases = [
            [["1", "1"], ["0", "1"]],
            [["2", "1"], ["1", "1"]],
            [["1", "-3"], ["2", "5"]],
        ]
        for basis in bases:
            m = build_model(2, G_OFFDIAG, B_STANDARD, basis)
            pairing = m.pairing_matrix()
            for i in range(2):
                for j in range(2):
                    assert pairing[(i, j)].re.denominator == 1
            assert pairing.det() in (S(1), S(-1))

    def test_metric_validation(self):
        with pytest.raises(NotPositiveDefinite):
            build_model(2, [["1", "2"], ["2", "1"]], ZERO2,
                        RationalMatrix.identity(2))
        with pytest.raises(NotPositiveDefinite):
            build_model(2, [["1", "1"], ["2", "1"]], ZERO2,
                        RationalMatrix.identity(2))
        with pytest.raises(NotPositiveDefinite):
            build_model(1, [["-1"]], [["0"]], [["1"]])

    @settings(max_examples=40, deadline=None)
    @given(entries=st.lists(st.fractions(-3, 3, max_denominator=3), min_size=4,
                            max_size=4).filter(lambda e: e[1] != e[2]))
    def test_asymmetric_metric_refused_alike(self, entries):
        g = [entries[:2], entries[2:]]
        with pytest.raises(ChiraltorusError) as lattice:
            build_model(2, g, ZERO2, RationalMatrix.identity(2))
        with pytest.raises(ChiraltorusError) as lagrangian:
            torus_lagrangian(g)
        assert type(lattice.value) is type(lagrangian.value) is NotPositiveDefinite

    def test_b_field_validation(self):
        with pytest.raises(NotAntisymmetric):
            build_model(2, RationalMatrix.identity(2),
                        [["0", "1"], ["1", "0"]], RationalMatrix.identity(2))

    def test_singular_lattice(self):
        with pytest.raises(SingularLattice, match="^lattice generators are dependent$"):
            build_model(2, RationalMatrix.identity(2), ZERO2,
                        [["1", "2"], ["2", "4"]])

    # the basis is checked before the unit square
    @pytest.mark.parametrize("unit_exponent", [1, -1])
    def test_singular_basis_wins_over_a_zero_unit_square(self, unit_exponent):
        with pytest.raises(SingularLattice, match="^lattice generators are dependent$"):
            LatticeModel(1, [[1]], [[0]], [[0]], unit_exponent=unit_exponent, u_square=0)

    # Sylvester's criterion, the dual basis and g^{-1} take one elimination
    # each: inverting L^T also decides that the generators are independent
    @pytest.mark.parametrize("n,unit_exponent,u_square", [
        (2, 0, None), (1, 1, None), (1, -1, Fraction(4, 9))])
    def test_a_model_takes_three_eliminations(self, monkeypatch, n, unit_exponent, u_square):
        calls = []
        real = exactlin._bareiss
        for module in (exactlin, fockq):
            monkeypatch.setattr(module, "_bareiss", lambda *a: calls.append(1) or real(*a))
        basis = [["1", "1"], ["0", "2"]] if n == 2 else [["2/3"]]
        m = LatticeModel(n, G_OFFDIAG if n == 2 else [[3]], ZERO2 if n == 2 else [[0]],
                         basis, unit_exponent=unit_exponent, u_square=u_square)
        assert len(calls) == 3
        assert m.pairing_matrix() == RationalMatrix.identity(n)

    def test_self_dual_circle_pairing(self):
        m = one_dim_model(1)
        assert m.pairing_matrix() == RationalMatrix([["1"]])
        assert m.u_square == 1

    def test_one_dim_scale_stored_squared(self):
        m = one_dim_model("3/2")
        assert m.u_square == Fraction(9, 4)
        assert one_dim_model().u_square is None

    def test_zero_unit_square_refused(self):
        # dual vectors carry u^-1 = u / u^2, so a formal unit needs u^2 != 0
        for e in (-1, 1):
            with pytest.raises(SingularLattice, match="u_square must be nonzero"):
                LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=e, u_square=0)
        m = LatticeModel(1, [[1]], [[0]], [[2]], unit_exponent=0, u_square=0)
        # a_+ = -l*/2 + 2 l = 3/2 at l = l* = 1, so h = -1/4 (3/2)^2
        assert m.sector([1], [1]).h == u_poly({0: "-9/16"})

    def test_json_roundtrip(self):
        m1 = build_model(2, G_OFFDIAG, B_STANDARD, [["1", "1"], ["0", "1"]])
        assert load_model(json.loads(json.dumps(m1.to_json()))) == m1
        m2 = one_dim_model("2/3")
        assert load_model(json.loads(json.dumps(m2.to_json()))) == m2
        m3 = load_model({"radius_unit": "2/3"})
        assert m3 == m2
        assert load_model({"radius_unit": None}) == one_dim_model()

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, 1j])
    def test_inexact_model_numbers_are_refused(self, bad):
        # a float is already rounded: 0.1 would become a 2^-55 fraction
        with pytest.raises(TypeError, match="radius_unit must be an exact rational"):
            one_dim_model(bad)
        with pytest.raises(TypeError, match="radius_unit must be an exact rational"):
            load_model({"radius_unit": bad})
        data = dict(one_dim_model(1).to_json(), u_square=bad)
        with pytest.raises(TypeError, match="u_square must be an exact rational"):
            load_model(data)
        with pytest.raises(TypeError):
            load_model(dict(one_dim_model().to_json(), g=[[bad]]))
        assert load_model({"radius_unit": "1/10"}).u_square == Fraction(1, 100)

    @pytest.mark.parametrize("build", [
        lambda: one_dim_model("abc"),
        lambda: one_dim_model("0.5"),
        lambda: load_model({"radius_unit": "1e-1"}),
        lambda: LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=1, u_square="x"),
        lambda: LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=1, u_square="0.5"),
        lambda: LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=1, u_square="1+1 i"),
    ])
    def test_number_strings_take_the_entry_grammar(self, build):
        # as model entries do: p/q literals only, and a usage error (exit 1)
        with pytest.raises(ChiraltorusError) as info:
            build()
        assert info.value.exit_code == 1


# ----------------------------------------------------------------------
# sectors and weights
# ----------------------------------------------------------------------

def lattice_vectors(m, s) -> tuple:
    """(l, l*) of a sector from the model's bases: l = Lbasis l_coords u^e
    and l* = LstarBasis lstar_coords u^-e, e the unit exponent."""
    def vector(basis, coords, power):
        return [m.canon(UnitScalar({power: sum((basis[(i, j)] * c for j, c in enumerate(coords)),
                                               S(0))})) for i in range(m.n)]

    e = m.unit_exponent
    return vector(m.Lbasis, s.l_coords, e), vector(m.LstarBasis, s.lstar_coords, -e)


class TestSector:
    def test_weight_identities(self):
        models = [
            build_model(2, G_OFFDIAG, B_STANDARD, [["1", "1"], ["0", "1"]]),
            build_model(2, RationalMatrix.identity(2), ZERO2,
                        [["2", "0"], ["0", "3"]]),
            one_dim_model(),
            one_dim_model("5/2"),
        ]
        for m in models:
            for s in enumerate_sectors(m, 1):
                l, lstar = lattice_vectors(m, s)
                gl = [
                    sum((l[j] * m.g[(i, j)] for j in range(m.n)),
                        UnitScalar())
                    for i in range(m.n)
                ]
                bl = [
                    sum((l[j] * m.B[(j, i)] for j in range(m.n)),
                        UnitScalar())
                    for i in range(m.n)
                ]
                a_minus = m.a_minus_form.apply(s.coords)
                for i in range(m.n):
                    two_gl = m.canon(gl[i] + gl[i])
                    assert s.a_plus[i] - a_minus[i] == two_gl
                    both = m.canon(bl[i] - lstar[i] + bl[i] - lstar[i])
                    assert s.a_plus[i] + a_minus[i] == both

    def test_one_dim_chiral_labels(self):
        m = one_dim_model()
        s = Sector(m, [2], [3])
        # a+ = l - l* and a- = -(l + l*) with l = 2u, l* = 3/u
        assert s.a_plus == (u_poly({1: 2, -1: -3}),)
        assert m.a_minus_form.apply(s.coords) == (u_poly({1: -2, -1: -3}),)
        assert str(s) == "sector l=(2,) l*=(3,)"
        # equal sectors hash alike, through Frozen's hash of the value
        assert s == Sector(m, [2], [3]) and hash(s) == hash(Sector(m, [2], [3]))

    def test_formal_weights(self):
        m = one_dim_model()
        s = Sector(m, [2], [1])
        assert s.h == u_poly({2: -1, 0: 1, -2: "-1/4"})
        assert s.hbar == u_poly({2: -1, 0: -1, -2: "-1/4"})

    def test_self_dual_weights(self):
        m = one_dim_model(1)
        for mm in range(-2, 3):
            for ms in range(-2, 3):
                s = Sector(m, [mm], [ms])
                assert s.h == u_poly({0: Fraction(-(mm - ms) ** 2, 4)})
                assert s.hbar == u_poly({0: Fraction(-(mm + ms) ** 2, 4)})

    def test_weight_matches_measured_zero_mode_energy(self):
        # h is defined as the L_0 eigenvalue; check the definition against
        # the operator on a one-dimensional truncation.
        m = build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2))
        weight = (S(1), S("-3/2"))
        fock = FockTruncation(m, weight, 0)
        l0 = fock.virasoro(0)
        vac = fock.index[((), ())]
        measured = l0.column(vac).get(vac, S(0))
        quad = S(0)
        for i in range(2):
            for j in range(2):
                quad = quad + m.g_inv[(i, j)] * weight[i] * weight[j]
        assert measured == quad * S(Fraction(-1, 4))

    def test_sector_weight_equals_fock_energy(self):
        m = build_model(2, G_OFFDIAG, B_STANDARD, RationalMatrix.identity(2))
        for s in enumerate_sectors(m, 1)[:12]:
            weight = tuple(a.as_exact() for a in s.a_plus)
            fock = FockTruncation(m, weight, 0)
            l0 = fock.virasoro(0)
            vac = fock.index[((), ())]
            assert s.h.as_exact() == l0.column(vac).get(vac, S(0))

    def test_enumeration_deterministic(self):
        m = one_dim_model(1)
        keys = [s.key() for s in enumerate_sectors(m, 1)]
        assert keys == [
            ((-1,), (-1,)), ((-1,), (0,)), ((-1,), (1,)),
            ((0,), (-1,)), ((0,), (0,)), ((0,), (1,)),
            ((1,), (-1,)), ((1,), (0,)), ((1,), (1,)),
        ]
        assert enumerate_sectors(m, 0) == [Sector(m, [0], [0])]

    def test_vacuum_sector_weights_vanish(self):
        for m in (one_dim_model(), build_model(2, G_OFFDIAG, B_STANDARD,
                                               RationalMatrix.identity(2))):
            s = Sector(m, [0] * m.n, [0] * m.n)
            assert all(a.is_zero() for a in s.a_plus)
            assert all(a.is_zero() for a in m.a_minus_form.apply(s.coords))
            assert s.h.is_zero() and s.hbar.is_zero()

    def test_non_integer_coordinates_rejected(self):
        m = one_dim_model(1)
        with pytest.raises(NotInLattice):
            Sector(m, ["1/2"], [0])


class TestSpectrum:
    def test_vacuum_origin(self):
        m = build_model(2, G_OFFDIAG, B_STANDARD, RationalMatrix.identity(2))
        p_plus, p_minus = spectrum_point(m, [0, 0], [0, 0])
        assert all(v.is_zero() for v in p_plus + p_minus)

    def test_standard_b_field_point(self):
        # g = I, B = [[0,1],[-1,0]], l = e1, l* = 0: the covector B(l) is
        # the row (0, 1), so the pair is (-(e1+e2)/2, (e1-e2)/2).
        m = build_model(2, RationalMatrix.identity(2), B_STANDARD,
                        RationalMatrix.identity(2))
        p_plus, p_minus = spectrum_point(m, [1, 0], [0, 0])
        assert [v.as_exact() for v in p_plus] == [S("-1/2"), S("-1/2")]
        assert [v.as_exact() for v in p_minus] == [S("1/2"), S("-1/2")]

    def test_circle_formula(self):
        m = one_dim_model()
        for mm in range(-2, 3):
            for ms in range(-2, 3):
                p_plus, p_minus = spectrum_point(m, [mm], [ms])
                assert p_plus[0] == u_poly({1: Fraction(-mm, 2),
                                            -1: Fraction(ms, 2)})
                assert p_minus[0] == u_poly({1: Fraction(mm, 2),
                                             -1: Fraction(ms, 2)})

    def test_circle_display_pair(self):
        # The classical labels ((l - l*)/2, (l + l*)/2) arise from the
        # pair (-slot1, slot2): the first display operator carries the
        # opposite sign relative to the weight convention.
        m = one_dim_model()
        for a in range(-2, 3):
            for b in range(-2, 3):
                p_plus, p_minus = spectrum_point(m, [a], [b])
                assert -p_plus[0] == u_poly({1: Fraction(a, 2),
                                             -1: Fraction(-b, 2)})
                assert p_minus[0] == u_poly({1: Fraction(a, 2),
                                             -1: Fraction(b, 2)})

    def test_spectrum_respects_lattice(self):
        m = build_model(2, RationalMatrix.identity(2), ZERO2,
                        [["2", "0"], ["0", "3"]])
        with pytest.raises(NotInLattice):
            spectrum_point(m, ["1/2", 0], [0, 0])


# ----------------------------------------------------------------------
# Fock truncations
# ----------------------------------------------------------------------

class TestFock:
    def test_partition_count_oracle(self):
        assert colored_partition_counts(1, 6) == [1, 1, 2, 3, 5, 7, 11]
        for n in (1, 2, 3):
            for k in range(6):
                assert colored_partition_counts(n, 5)[k] == \
                    brute_colored_count(n, k)

    def test_zero_cutoff_is_one_dimensional(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        assert FockTruncation(m, [0], 0).dim == 1

    def test_level_dimensions(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [0], 3)
        assert fock.level_dimensions() == [1, 1, 2, 3]
        for n in (1, 2, 3):
            model = build_model(n, RationalMatrix.identity(n), [[0] * n] * n,
                                RationalMatrix.identity(n))
            for N in range(6):
                fock = FockTruncation(model, [0] * n, N)
                assert fock.level_dimensions() == colored_partition_counts(n, N)

    def test_truncations_of_one_size_share_the_basis(self):
        m1 = build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2))
        m2 = build_model(2, RationalMatrix.identity(2), B_STANDARD, [[1, 1], [0, 1]])
        a = FockTruncation(m1, [0, 0], 3)
        b = FockTruncation(m2, [S(1), S("1/2")], 3)
        assert a.basis is b.basis and a.index is b.index and a.levels is b.levels
        assert FockTruncation(m1, [0, 0], 2).basis != a.basis

    def test_shared_basis_is_read_only(self):
        fock = FockTruncation(one_dim_model(), [0], 2)
        other = FockTruncation(one_dim_model(1), [1], 2)
        with pytest.raises(TypeError):
            fock.index[((3,),)] = 0
        with pytest.raises(TypeError):
            del fock.index[((),)]
        with pytest.raises(AttributeError):
            fock.index.clear()
        assert type(fock.basis) is tuple and type(fock.levels) is tuple
        assert dict(other.index) == {((),): 0, ((1,),): 1, ((1, 1),): 2, ((2,),): 3}

    def test_zero_mode_eigenvalue(self):
        m = build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2))
        weight = (S("1/2"), S(-2))
        fock = FockTruncation(m, weight, 2)
        for i in (1, 2):
            op = fock.alpha(i, 0)
            expected = zero_mode_oracle(m.g_inv, weight, i)
            assert op == SparseOp.identity(fock.dim, expected)

    # at g = (1) and weight (2) the zero mode is h = -1, and L_0 acts on
    # level k by k - 1: the level-1 entry sums to 1/2 + 1/2 - 1 = 0 and is
    # left out of the table
    def test_virasoro_entry_that_sums_to_zero_is_absent(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [2], 2)
        assert fock.zero_modes == (S(-1),)
        assert fock.virasoro(0).table == {3: {3: S(1)}, 2: {2: S(1)}, 0: {0: S(-1)}}
        assert fock.index[((1,),)] == 1

    def test_sector_weight_covector_is_a_weight(self):
        m = build_model(1, [["2"]], [["0"]], [["1"]])
        a_plus = m.sector([1], [0]).a_plus
        assert all(type(a) is UnitScalar for a in a_plus)
        fock = FockTruncation(m, a_plus, 2)
        exact = FockTruncation(m, [a.as_exact() for a in a_plus], 2)
        assert fock.weight == exact.weight == (S(2),)
        assert fock.zero_modes == exact.zero_modes == (S("-1/2"),)
        numeric = build_model(2, G_OFFDIAG, B_STANDARD, RationalMatrix.identity(2))
        sector = numeric.sector([1, -1], [0, 2])
        for weight in (sector.a_plus, numeric.a_minus_form.apply(sector.coords)):
            fock = FockTruncation(numeric, weight, 1)
            assert fock.weight == tuple(a.as_exact() for a in weight)
        formal = one_dim_model()
        with pytest.raises(FormalUnitValue, match="unresolved unit powers") as info:
            FockTruncation(formal, formal.sector([1], [0]).a_plus, 2)
        assert info.value.exit_code == 2

    def test_creation_appends_parts(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [0], 3)
        vac = fock.index[((),)]
        col = fock.alpha(1, -2).column(vac)
        assert col == {fock.index[((2,),)]: S(1)}
        col2 = fock.alpha(1, -1).column(fock.index[((2,),)])
        assert col2 == {fock.index[((2, 1),)]: S(1)}

    def test_heisenberg_relations_guarded(self):
        m = build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2))
        fock = FockTruncation(m, [S("1/3"), S(0)], 4)
        for mm in range(-2, 3):
            for nn in range(-2, 3):
                guard = fock.vectors_up_to_level(4 - abs(mm) - abs(nn))
                for i in (1, 2):
                    for j in (1, 2):
                        comm = fock.alpha(i, mm).commutator(fock.alpha(j, nn))
                        if mm != 0 and mm == -nn:
                            value = S(Fraction(-mm, 2)) * m.g_inv[(i - 1, j - 1)]
                            expected = SparseOp.identity(fock.dim, value)
                        else:
                            expected = SparseOp.zero(fock.dim)
                        assert comm.agrees_on(expected, guard)

    def test_cutoff_errors(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [0], 2)
        with pytest.raises(CutoffExceeded):
            fock.alpha(1, 3)
        with pytest.raises(CutoffExceeded):
            fock.virasoro(-3)

    # each bad argument is refused before any work, as DiffPoly.jet
    # refuses a bad field index
    @pytest.mark.parametrize("build", [
        lambda m: FockTruncation(m, [0], True),
        lambda m: FockTruncation(m, [0], 2.0),
        lambda m: FockTruncation(m, [0], 2).alpha(True, 1),
        lambda m: FockTruncation(m, [0], 2).alpha(1, 1.0),
        lambda m: FockTruncation(m, [0], 2).alpha(1, False),
        lambda m: FockTruncation(m, [0], 2).virasoro(2.0),
        lambda m: FockTruncation(m, [0], 2).virasoro(True),
        lambda m: FockTruncation(m, [0], 1).alpha(1.0, 1),
        lambda m: central_charge(m, N=3.0),
        lambda m: FockTruncation(m, [0], 2).vectors_up_to_level(True),
        lambda m: FockTruncation(m, [0], 2).vectors_up_to_level(1.5),
        lambda m: FockTruncation(m, [0], 2).vectors_up_to_level("2"),
        lambda m: partition_function(m, True, 1),
        lambda m: partition_function(m, 1, True),
        lambda m: partition_function(m, 1.5, 1),
        lambda m: partition_function(m, 1, "2"),
        lambda m: ko_locality(m, True),
        lambda m: character(m, m.sector([0], [0]), True),
        lambda m: LatticeModel(True, [[1]], [[0]], [[1]]),
        lambda m: CdoIsoClass(True, AltTensor(3, 1), AltTensor(2, 1, valdim=1)),
        lambda m: colored_partition_counts(True, 2),
        lambda m: colored_partition_counts(1.5, 2),
        lambda m: DiffPoly.trig(1.5),
        lambda m: DiffPoly.jet(1, 0, 0) ** True,
        lambda m: BracketTable(twist={(1.0, 2, 3): "x1"}),
        lambda m: gen_tau(True),
        lambda m: gen_translation(2, True),
        lambda m: UnitScalar({1.5: 1}),
        lambda m: UnitScalar({True: 1}),
    ], ids=["N-bool", "N-float", "colour-bool", "mode-float", "mode-bool",
            "virasoro-float", "virasoro-bool", "colour-float", "central-N-float",
            "level-bool", "level-float", "level-str", "partition-cutoff-bool",
            "partition-order-bool", "partition-cutoff-float", "partition-order-str",
            "locality-cutoff-bool", "character-order-bool", "model-n-bool", "cdo-n-bool",
            "counts-n-bool", "counts-n-float", "trig-mode-float", "power-bool",
            "twist-index-float", "gen-tau-n-bool", "translation-index-bool",
            "unit-power-float", "unit-power-bool"])
    def test_bad_argument_types_are_refused(self, build):
        with pytest.raises(ChiraltorusError, match="must be an integer"):
            build(one_dim_model(1))

    # an index outside the fields was the zero generator
    @pytest.mark.parametrize("j", [0, 5])
    def test_translation_index_outside_the_fields_is_refused(self, j):
        with pytest.raises(ChiraltorusError, match=f"^field index {j} is outside 1..2$"):
            gen_translation(2, j)

    # a negative box or order was an empty box (a zero series, no pair)
    @pytest.mark.parametrize("build,what", [
        (lambda m: partition_function(m, 1, -1), "order"),
        (lambda m: partition_function(m, -1, 2), "cutoff"),
        (lambda m: ko_locality(m, -1), "cutoff"),
        (lambda m: enumerate_sectors(m, -2), "cutoff"),
        (lambda m: colored_partition_counts(1, -1), "order"),
        (lambda m: colored_partition_counts(-1, 2), "n"),
        (lambda m: DiffPoly.jet(1, -1, 0), "jet order"),
        (lambda m: DiffPoly.symbol("f", -1), "symbol order"),
    ], ids=["partition-order", "partition-cutoff", "locality-cutoff", "sectors-cutoff",
            "counts-order", "counts-n", "jet-order", "symbol-order"])
    def test_negative_box_and_order_are_refused(self, build, what):
        with pytest.raises(ChiraltorusError, match=f"^{what} must be nonnegative, got -"):
            build(one_dim_model(1))

    def test_operators_of_different_dimensions_do_not_combine(self):
        small = FockTruncation(one_dim_model(), [0], 1).alpha(1, -1)
        large = FockTruncation(one_dim_model(), [0], 3).alpha(1, -1)
        assert small.dim != large.dim
        for op in (operator.add, operator.sub, operator.matmul, SparseOp.commutator):
            with pytest.raises(DimensionMismatch, match="dimensions differ"):
                op(small, large)
            with pytest.raises(DimensionMismatch, match="dimensions differ"):
                op(large, small)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul,
                                    SparseOp.commutator])
    def test_foreign_operands_are_a_type_error(self, op):
        one = SparseOp.identity(2)
        for other in (1, S(1), RationalMatrix.identity(2)):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(one, other)
            if op is not SparseOp.commutator:
                with pytest.raises(TypeError, match="unsupported operand"):
                    op(other, one)
        if op is SparseOp.commutator:
            # a plain method: only its argument can be foreign, and it
            # raises rather than returning NotImplemented
            return
        # UnitScalar takes plain numbers in every operation, and nothing else
        u = UnitScalar({1: 1})
        for other in ("1/2", None, DiffPoly.jet(1, 0, 0)):
            for f in (op, operator.mul):
                with pytest.raises(TypeError):
                    f(u, other)
                with pytest.raises(TypeError):
                    f(other, u)

    def test_equal_operators_hash_equal(self):
        # built in another column order, through the coercing constructor
        op = SparseOp(3, {2: {0: 1}, 0: {1: "1/2", 2: 3}})
        same = SparseOp._trusted(dim=3, table={0: {2: S(3), 1: S("1/2")}, 2: {0: S(1)}})
        assert op == same and hash(op) == hash(same)
        assert len({op, same, SparseOp.zero(3)}) == 2

    def test_constructor_coerces_entries(self):
        op = SparseOp(2, {0: {0: 1, 1: "1/2"}, 1: {1: Fraction(0)}})
        assert op.table == {0: {0: S(1), 1: S("1/2")}}
        assert op == SparseOp._trusted(dim=2, table={0: {0: S(1), 1: S("1/2")}})
        assert SparseOp(0).dim == 0

    @pytest.mark.parametrize("dim, table", [
        (-1, None), (2.5, None), (True, None), (2.0, {}),
        (2, {True: {0: 1}}), (2, {0: {True: 1}}), (2, {0: {1.0: 1}}), (2, {"0": {0: 1}}),
    ])
    def test_bad_dimension_or_index_type_is_refused(self, dim, table):
        with pytest.raises(ChiraltorusError, match="operator (dimension|index)"):
            SparseOp(dim, table)

    @pytest.mark.parametrize("table", [{5: {0: 1}}, {0: {7: 1}}, {-1: {0: 1}}, {0: {2: 1}}])
    def test_indices_outside_the_basis_are_refused(self, table):
        with pytest.raises(DimensionMismatch, match="outside range"):
            SparseOp(2, {c: {r: S(v) for r, v in col.items()} for c, col in table.items()})


class TestVirasoro:
    def test_commutes_with_modes_as_required(self):
        # The normalization is pinned by [L_k, alpha_m] = -m alpha_{k+m}.
        m = build_model(1, [["2"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [S("1/2")], 4)
        for k in (-2, -1, 0, 1, 2):
            lk = fock.virasoro(k)
            for mm in (-2, -1, 1, 2):
                if abs(k + mm) > 4:
                    continue
                guard = fock.vectors_up_to_level(4 - abs(k) - abs(mm) - 1)
                comm = lk.commutator(fock.alpha(1, mm))
                expected = fock.alpha(1, k + mm).scale(S(-mm))
                assert comm.agrees_on(expected, guard)

    def test_sl2_bracket(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [S("2/3")], 3)
        comm = fock.virasoro(1).commutator(fock.virasoro(-1))
        expected = fock.virasoro(0).scale(S(2))
        guard = fock.vectors_up_to_level(1)
        assert comm.agrees_on(expected, guard)

    def test_witt_part_without_central_term(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        fock = FockTruncation(m, [S(1)], 5)
        for (j, k) in ((2, -1), (1, 1), (-1, -2), (2, 1)):
            comm = fock.virasoro(j).commutator(fock.virasoro(k))
            expected = fock.virasoro(j + k).scale(S(j - k))
            guard = fock.vectors_up_to_level(5 - abs(j) - abs(k) - 1)
            assert comm.agrees_on(expected, guard)

    def test_central_charge_oracle(self):
        metrics = [
            RationalMatrix([["1"]]),
            RationalMatrix([["7/3"]]),
            RationalMatrix.identity(2),
            G_OFFDIAG,
        ]
        for g in metrics:
            assert vacuum_bracket_oracle(g) == S(Fraction(g.rows, 2))

    def test_central_charge_refuses_an_off_diagonal_vacuum_column(self, monkeypatch):
        # only a broken operator can leave the vacuum column off the diagonal
        real = SparseOp.column
        monkeypatch.setattr(SparseOp, "column", lambda op, col: {**real(op, col), col + 1: S(1)})
        with pytest.raises(InvariantError,
                           match="^central measurement is not diagonal on the vacuum$") as info:
            central_charge(build_model(1, [["1"]], [["0"]], [["1"]]))
        assert type(info.value) is InvariantError
        assert info.value.exit_code == 3

    def test_central_charge_counts_bosons(self):
        m1 = build_model(1, [["5/4"]], [["0"]], [["1"]])
        assert central_charge(m1) == S(1)
        m2 = build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2))
        assert central_charge(m2) == S(2)

    def test_vacuum_bracket_matches_contraction(self):
        m = build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2))
        fock = FockTruncation(m, [0, 0], 3)
        op = fock.virasoro(2).commutator(fock.virasoro(-2)) \
            - fock.virasoro(0).scale(S(4))
        vac = fock.index[((), ())]
        assert op.column(vac) == {vac: vacuum_bracket_oracle(m.g)}


# ----------------------------------------------------------------------
# vertex exponents and locality
# ----------------------------------------------------------------------

class TestVertexKO:
    def test_circle_exponent_display(self):
        m = one_dim_model()
        for (m1, s1v, m2, s2v) in ((1, 0, 0, 1), (2, 1, 1, -1), (1, 1, 1, 1)):
            s1 = Sector(m, [m1], [s1v])
            s2 = Sector(m, [m2], [s2v])
            hol, antihol = vertex_exponents(s1, s2)
            lm1 = u_poly({1: m1, -1: -s1v})
            lm2 = u_poly({1: m2, -1: -s2v})
            lp1 = u_poly({1: m1, -1: s1v})
            lp2 = u_poly({1: m2, -1: s2v})
            assert hol == lm1 * lm2 * S("-1/2")
            assert antihol == lp1 * lp2 * S("-1/2")

    def test_difference_is_coordinate_pairing(self):
        m = build_model(2, G_OFFDIAG, B_STANDARD, [["1", "1"], ["0", "1"]])
        sectors = enumerate_sectors(m, 1)
        for s1 in sectors[::7]:
            for s2 in sectors[::5]:
                hol, antihol = vertex_exponents(s1, s2)
                assert (hol - antihol).as_exact() == S(pairing_oracle(m, s1, s2))

    def test_locality_report_integral(self):
        for m in (
            one_dim_model(),
            one_dim_model("4/7"),
            build_model(2, G_OFFDIAG, B_STANDARD, [["1", "1"], ["0", "1"]]),
            build_model(2, RationalMatrix.identity(2), ZERO2,
                        [["2", "0"], ["0", "3"]]),
        ):
            report = ko_locality(m, 1)
            assert report["all_integral"] is True
            assert len(report["pairs"]) == len(enumerate_sectors(m, 1)) ** 2
            json.dumps(report)

    def test_vacuum_row_vanishes(self):
        m = one_dim_model("3/2")
        vac = Sector(m, [0], [0])
        for s in enumerate_sectors(m, 1):
            hol, antihol = vertex_exponents(vac, s)
            assert hol.is_zero() and antihol.is_zero()

    def test_model_mismatch(self):
        s1 = Sector(one_dim_model(), [1], [0])
        s2 = Sector(one_dim_model(1), [1], [0])
        with pytest.raises(ModelMismatch):
            vertex_exponents(s1, s2)


# ----------------------------------------------------------------------
# T-duality
# ----------------------------------------------------------------------

class TestTDuality:
    def test_b_field_is_negated_and_the_dual_is_an_involution(self):
        m = build_model(2, RationalMatrix.identity(2), B_STANDARD,
                        RationalMatrix.identity(2))
        d = t_dual(m)
        assert (d.g, d.B) == (m.g, -m.B)
        assert t_dual(d) == m

    def test_circle_dual_swaps_lattices(self):
        m = one_dim_model()
        d = t_dual(m)
        assert d.Lbasis == m.LstarBasis
        assert d.unit_exponent == -1
        assert t_dual(d) == m

    def test_self_dual_fixed_point(self):
        m = one_dim_model(1)
        assert t_dual(m) == m
        m2 = build_model(2, RationalMatrix.identity(2), ZERO2,
                         RationalMatrix.identity(2))
        assert t_dual(m2) == m2

    def test_involution(self):
        models = [
            one_dim_model("2"),
            one_dim_model(),
            build_model(2, G_OFFDIAG, ZERO2, [["1", "1"], ["0", "1"]]),
        ]
        for m in models:
            assert t_dual(t_dual(m)) == m

    def test_dual_exchanges_metric_image_with_dual_lattice(self):
        m = build_model(2, G_OFFDIAG, ZERO2, [["1", "1"], ["0", "1"]])
        d = t_dual(m)
        assert m.g * d.Lbasis == m.LstarBasis
        assert d.LstarBasis == m.g * m.Lbasis

    def test_weight_multiset_invariance(self):
        models = [
            one_dim_model(),
            one_dim_model("2"),
            build_model(2, G_OFFDIAG, ZERO2, RationalMatrix.identity(2)),
        ]
        for m in models:
            d = t_dual(m)
            mine = Counter((s.h, s.hbar) for s in enumerate_sectors(m, 2))
            dual = Counter((s.h, s.hbar) for s in enumerate_sectors(d, 2))
            assert mine == dual

    def test_partition_function_invariance(self):
        m = one_dim_model("2")
        assert partition_function(m, 2, 2) == partition_function(t_dual(m), 2, 2)


# ----------------------------------------------------------------------
# chiral sectors
# ----------------------------------------------------------------------

class TestChiralSectors:
    def test_generic_circle_has_only_vacuum(self):
        m = one_dim_model()
        assert [s.key() for s in chiral_sectors(m, 3)] == [((0,), (0,))]

    def test_self_dual_circle_diagonal(self):
        m = one_dim_model(1)
        found = chiral_sectors(m, 2)
        assert sorted(s.key() for s in found) == \
            sorted(((k,), (-k,)) for k in range(-2, 3))
        for s in found:
            mm = s.l_coords[0]
            assert s.a_plus[0] == m.canon(u_poly({1: 2 * mm}))

    def test_self_dual_torus_labels_run_over_doubled_lattice(self):
        m = build_model(2, RationalMatrix.identity(2), ZERO2,
                        RationalMatrix.identity(2))
        found = chiral_sectors(m, 1)
        assert sorted(s.key() for s in found) == sorted(
            ((a, b), (-a, -b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
        )
        for s in found:
            assert [a.as_exact() for a in s.a_plus] == \
                [S(2 * c) for c in s.l_coords]

    def test_b_field_shifts_chiral_condition(self):
        m = build_model(2, RationalMatrix.identity(2), B_STANDARD,
                        RationalMatrix.identity(2))
        keys = {s.key() for s in chiral_sectors(m, 1)}
        # l = e1: l* must equal B(l) - g(l) = (0,1) - (1,0) = (-1,1).
        assert ((1, 0), (-1, 1)) in keys
        assert ((0, 0), (0, 0)) in keys


# ----------------------------------------------------------------------
# characters
# ----------------------------------------------------------------------

class TestCharacters:
    def test_qseries_truncation_consistency(self):
        a = QSeries({Fraction(-1, 2): 1, Fraction(1, 2): 2}, Fraction(5, 2))
        b = QSeries({0: 1, 1: 1, 2: 1, 3: 1}, 3)
        # a sum keeps the smaller cap
        total = a + b
        assert total == QSeries({"-1/2": 1, 0: 1, "1/2": 2, 1: 1, 2: 1}, 3)
        assert total.cap == Fraction(5, 2)

    def test_exponents_follow_the_literal_rule(self):
        assert QSeries({"1/2": 1, 1: 2}, "3/2") == QSeries({Fraction(1, 2): 1, 1: 2}, Fraction(3, 2))
        assert BiSeries({("1/2", -1): 1}) == BiSeries({(Fraction(1, 2), -1): 1})
        for bad in (0.1, True):
            with pytest.raises(TypeError, match="must be an exact rational"):
                QSeries({bad: 1}, 1)
            with pytest.raises(TypeError, match="must be an exact rational"):
                QSeries({0: 1}, bad)
            with pytest.raises(TypeError, match="must be an exact rational"):
                BiSeries({(0, bad): 1})
        for bad in ("0.1", "1e-1", "1_0", "\u0663"):
            with pytest.raises(ChiraltorusError, match="not a Gaussian rational literal"):
                QSeries({bad: 1}, 1)
            with pytest.raises(ChiraltorusError, match="not a Gaussian rational literal"):
                QSeries({0: 1}, bad)
            with pytest.raises(ChiraltorusError, match="not a Gaussian rational literal"):
                BiSeries({(bad, 0): 1})
        with pytest.raises(ChiraltorusError, match="must be real"):
            BiSeries({("1 i", 0): 1})

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_foreign_operands_are_a_type_error(self, op):
        series = QSeries({0: 1}, 1)
        for other in (1, S(1), BiSeries({(0, 0): 1})):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(series, other)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(other, series)

    @pytest.mark.parametrize("key", [(1, 2, 3), (1,), 5, "12"])
    def test_bi_series_key_must_be_a_pair(self, key):
        with pytest.raises(DimensionMismatch, match="not a pair of exponents"):
            BiSeries({key: 1})

    def test_vacuum_character(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        s = Sector(m, [0], [0])
        assert character(m, s, 3) == QSeries({0: 1, 1: 1, 2: 2, 3: 3}, 3)

    def test_shifted_character_leading_exponent(self):
        m = one_dim_model(1)
        s = Sector(m, [1], [-1])
        ch = character(m, s, 2)
        assert ch == QSeries({-1: 1, 0: 1, 1: 2}, 1)
        assert min(ch.coeffs) == Fraction(-1)

    def test_formal_model_has_no_character(self):
        m = one_dim_model()
        s = Sector(m, [1], [0])
        with pytest.raises(FormalUnitValue):
            character(m, s, 2)

    def test_sector_of_another_model_is_refused(self):
        # the one-boson tower on a two-boson sector was 1 + q + 2q^2
        m2 = load_model(json.loads(
            (Path(__file__).parent / "golden" / "lattice_model_n2.json").read_text()))
        m1 = one_dim_model(Fraction(3, 2))
        with pytest.raises(ModelMismatch, match="sector from a different model") as err:
            character(m1, m2.sector([0, 0], [0, 0]), 2)
        assert err.value.exit_code == 2
        assert character(m2, m2.sector([0, 0], [0, 0]), 2) == QSeries({0: 1, 1: 2, 2: 5}, 2)

    def test_complex_weight_has_no_partition_function(self):
        # L = 1 + i: sector (1, 0) has h = -1/2 i, which character refuses
        m = build_model(1, [["1"]], [["0"]], [["1+1 i"]])
        s = Sector(m, [1], [0])
        assert s.h.as_exact() == S(0, Fraction(-1, 2))
        with pytest.raises(FormalUnitValue, match="complex weight"):
            character(m, s, 1)
        with pytest.raises(FormalUnitValue, match="complex weight"):
            partition_function(m, 1, 1)
        # a filter that keeps only the real vacuum weight passes
        vacuum = m.sector([0], [0])
        assert partition_function(m, 1, 0, sector_filter=vacuum.__eq__) == \
            BiSeries({(0, 0): 1})

    def test_vacuum_partition_function(self):
        m = build_model(1, [["1"]], [["0"]], [["1"]])
        counts = colored_partition_counts(1, 3)
        expected = BiSeries({
            (k, kb): counts[k] * counts[kb]
            for k in range(4) for kb in range(4)
        })
        assert partition_function(m, 0, 3) == expected

    def test_self_dual_parity_split(self):
        # Sectors group by the common parity of l - l* and l + l*; the
        # even group contributes integer weight pairs, the odd group
        # weights in 3/4 + Z, and the partition function is exactly the
        # sum of the two grouped lattice sums.
        m = one_dim_model(1)
        for s in enumerate_sectors(m, 2):
            d = s.l_coords[0] - s.lstar_coords[0]
            t = s.l_coords[0] + s.lstar_coords[0]
            assert (d - t) % 2 == 0
        even = partition_function(
            m, 2, 2,
            sector_filter=lambda s: (s.l_coords[0] - s.lstar_coords[0]) % 2 == 0,
        )
        odd = partition_function(
            m, 2, 2,
            sector_filter=lambda s: (s.l_coords[0] - s.lstar_coords[0]) % 2 == 1,
        )
        full = partition_function(m, 2, 2)
        assert even + odd == full
        assert not set(even.coeffs) & set(odd.coeffs)
        for (e, eb) in even.coeffs:
            assert e.denominator == 1 and eb.denominator == 1
        for (e, eb) in odd.coeffs:
            assert e %  1 == Fraction(3, 4) and eb % 1 == Fraction(3, 4)

    def test_partition_function_json(self):
        m = one_dim_model(1)
        json.dumps(partition_function(m, 1, 1).to_json())
