"""Fourier-Mukai transform on CDO/TDO classes and its linear avatar."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraltorus.exactlin import (
    AltTensor,
    ChiraltorusError,
    DimensionMismatch,
    ExactScalar,
    RationalMatrix,
    SingularMatrix,
)
from chiraltorus.chiral_fm import (
    CdoIsoClass,
    CdoMorphism,
    NondegClass,
    TdoIsoClass,
    fm_cdo,
    fm_cdo_morphism,
    fm_linear,
    fm_linear_differential,
    fm_tdo,
    vertex_algebroid_pairing,
)

from test_elimination import (
    entries,
    nonzero,
    ref_alt_pullback,
    ref_apply,
    ref_inverse,
    ref_matmul,
)
from test_exactlin import rand_invertible, rand_scalar, rand_tensor

ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def rand_matrix(rng, n):
    return RationalMatrix([[rand_scalar(rng) for _ in range(n)] for _ in range(n)])


# dims below 3 carry no 3-tensor keys but the type still wants a 3-tensor
def make_cdo(rng, n):
    lam = rand_tensor(rng, 3, n) if n >= 3 else AltTensor(3, n, {})
    return CdoIsoClass(n, lam, rand_tensor(rng, 2, n, valdim=n))


class TestFmLinear:
    def test_identity(self):
        n = 3
        assert fm_linear(RationalMatrix.identity(n)) == RationalMatrix.identity(n).scale(-1)

    def test_one_by_one(self):
        assert fm_linear(RationalMatrix([[2]])) == RationalMatrix([[Fraction(-1, 2)]])

    def test_involution(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(1, 4)
            a = rand_invertible(rng, n)
            assert fm_linear(fm_linear(a)) == a

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            fm_linear(RationalMatrix([[1, 1], [1, 1]]))


def solve_any(rows, rhs):
    """A particular exact solution of rows * z = rhs (free variables 0)."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    nrow, ncol = len(m), len(m[0]) - 1
    pivots = []
    r = 0
    for c in range(ncol):
        pr = next((k for k in range(r, nrow) if not m[k][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for k in range(nrow):
            if k != r and not m[k][c].is_zero():
                f = m[k][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    for k in range(r, nrow):
        assert m[k][ncol].is_zero(), "inconsistent oracle system"
    z = [ZERO] * ncol
    for row_i, c in enumerate(pivots):
        z[c] = m[row_i][ncol]
    return z


def secant_interpolation_oracle(a, b):
    """Reconstruct d/de fm_linear(a + e*b) at e = 0 from fm_linear samples only.

    The secant S(e) = (fm_linear(a+e*b) - fm_linear(a))/e has entries
    p(e)/d(e) with deg p <= n-1, deg d <= n, d(0) = 1 after normalizing
    by det(a).  2n exact samples pin the rational function down, and
    p(0) is the derivative entry.  No code shared with
    fm_linear_differential.
    """
    n = a.rows
    f0 = fm_linear(a)
    eps_values = []
    samples = []
    k = 2
    while len(eps_values) < 2 * n:
        eps = ExactScalar(Fraction(1, k))
        k += 1
        try:
            fe = fm_linear(a + b.scale(eps))
        except SingularMatrix:
            continue
        eps_values.append(eps)
        samples.append((fe - f0).scale(ONE / eps))
    out = []
    for i in range(n):
        row_out = []
        for j in range(n):
            rows, rhs = [], []
            for eps, s in zip(eps_values, samples):
                sij = s[(i, j)]
                # unknowns p0..p_{n-1}, d1..d_n
                row = [eps ** t for t in range(n)]
                row += [-sij * eps ** t for t in range(1, n + 1)]
                rows.append(row)
                rhs.append(sij)
            z = solve_any(rows, rhs)
            row_out.append(z[0])
        out.append(row_out)
    return RationalMatrix(out)


class TestFmLinearDifferential:
    def test_identity_pair(self):
        n = 2
        i = RationalMatrix.identity(n)
        assert fm_linear_differential(i, i) == (i.scale(-1), i)

    def test_one_by_one(self):
        out = fm_linear_differential(RationalMatrix([[2]]), RationalMatrix([[3]]))
        assert out == (RationalMatrix([[Fraction(-1, 2)]]), RationalMatrix([[Fraction(3, 4)]]))

    def test_matches_secant_interpolation_oracle(self):
        rng = random.Random(32)
        for n in (1, 2, 3):
            for _ in range(3):
                a = rand_invertible(rng, n)
                b = rand_matrix(rng, n)
                _, db = fm_linear_differential(a, b)
                assert db == secant_interpolation_oracle(a, b)

    def test_chain_rule_round_trip(self):
        rng = random.Random(33)
        for _ in range(8):
            n = rng.randint(1, 3)
            a = rand_invertible(rng, n)
            b = rand_matrix(rng, n)
            a1, b1 = fm_linear_differential(a, b)
            assert fm_linear_differential(a1, b1) == (a, b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fm_linear_differential(RationalMatrix.identity(2), RationalMatrix([[1]]))


class TestVertexAlgebroidPairing:
    def test_zero_class(self):
        lam = AltTensor(3, 3, {})
        assert vertex_algebroid_pairing(lam, 1, 2) == (ZERO, ZERO, ZERO)

    def test_volume_form(self):
        lam = AltTensor(3, 3, {(1, 2, 3): 1})
        assert vertex_algebroid_pairing(lam, 1, 2) == (ZERO, ZERO, ONE)

    def test_repeated_argument(self):
        lam = AltTensor(3, 3, {(1, 2, 3): 1})
        assert vertex_algebroid_pairing(lam, 1, 1) == (ZERO, ZERO, ZERO)

    @pytest.mark.parametrize("x, y, err", [
        (1.5, 2, ChiraltorusError), (True, 2, ChiraltorusError),
        (0, 2, DimensionMismatch), (1, 4, DimensionMismatch),
    ])
    def test_bad_basis_index_refused(self, x, y, err):
        lam = AltTensor(3, 3, {(1, 2, 3): 1})
        with pytest.raises(err) as info:
            vertex_algebroid_pairing(lam, x, y)
        assert type(info.value) is err

    def test_skew(self):
        rng = random.Random(34)
        lam = rand_tensor(rng, 3, 4)
        for x in range(1, 5):
            for y in range(1, 5):
                cxy = vertex_algebroid_pairing(lam, x, y)
                cyx = vertex_algebroid_pairing(lam, y, x)
                assert all(p == -q for p, q in zip(cxy, cyx))


class TestFmCdo:
    def test_zero_class(self):
        mu = NondegClass(RationalMatrix.identity(3).scale(2))
        out = fm_cdo(mu, CdoIsoClass.zero(3))
        assert out == CdoIsoClass.zero(3)

    def test_hand_example_dim2(self):
        # mu = diag(1,2); nu(e1^e2) = f1 pulls back to nu'(f1^f2) = e1/2
        mu = NondegClass(RationalMatrix([[1, 0], [0, 2]]))
        nu = AltTensor(2, 2, {(1, 2): [1, 0]}, valdim=2)
        x = CdoIsoClass(2, AltTensor(3, 2, {}), nu)
        out = fm_cdo(mu, x)
        assert out.nu.coeffs[(1, 2)] == (ExactScalar(Fraction(1, 2)), ZERO)
        assert out.lam.is_zero()

    def test_involution(self):
        rng = random.Random(35)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = make_cdo(rng, n)
            mu = NondegClass(rand_invertible(rng, n))
            assert fm_cdo(mu.inverse_class(), fm_cdo(mu, x)) == x

    def test_scaling_grading(self):
        rng = random.Random(36)
        t = ExactScalar(Fraction(5, 3))
        for _ in range(5):
            x = make_cdo(rng, 3)
            mu = NondegClass(rand_invertible(rng, 3))
            base = fm_cdo(mu, x)
            scaled = fm_cdo(NondegClass(mu.mu.scale(t)), x)
            assert scaled.lam == base.lam.scale(t ** -3)
            assert scaled.nu == base.nu.scale(t ** -3)

    def test_singular_mu_rejected(self):
        with pytest.raises(SingularMatrix):
            NondegClass(RationalMatrix([[1, 2], [2, 4]]))

    def test_json_round_trip(self):
        rng = random.Random(37)
        x = make_cdo(rng, 3)
        assert CdoIsoClass.from_json(x.to_json()) == x


class TestFmCdoMorphism:
    def test_zero(self):
        mu = NondegClass(RationalMatrix.identity(3))
        out = fm_cdo_morphism(mu, CdoMorphism.identity(3))
        assert out.h.is_zero()

    def test_scaling(self):
        rng = random.Random(38)
        s = ExactScalar(Fraction(7, 2))
        m = CdoMorphism(rand_tensor(rng, 2, 3))
        mu = NondegClass(RationalMatrix.identity(3).scale(s))
        assert fm_cdo_morphism(mu, m).h == m.h.scale(s ** -2)

    def test_group_homomorphism(self):
        rng = random.Random(39)
        for _ in range(6):
            m1 = CdoMorphism(rand_tensor(rng, 2, 3))
            m2 = CdoMorphism(rand_tensor(rng, 2, 3))
            mu = NondegClass(rand_invertible(rng, 3))
            lhs = fm_cdo_morphism(mu, m1.compose(m2))
            rhs = fm_cdo_morphism(mu, m1).compose(fm_cdo_morphism(mu, m2))
            assert lhs == rhs

    def test_bijection(self):
        rng = random.Random(40)
        m = CdoMorphism(rand_tensor(rng, 2, 3))
        mu = NondegClass(rand_invertible(rng, 3))
        assert fm_cdo_morphism(mu.inverse_class(), fm_cdo_morphism(mu, m)) == m


class TestFmTdo:
    def test_mu_maps_to_its_inverse(self):
        rng = random.Random(41)
        for _ in range(6):
            n = rng.randint(2, 4)
            mu = NondegClass(rand_invertible(rng, n))
            x = TdoIsoClass(mu.mu, AltTensor(2, n, {}))
            out = fm_tdo(mu, x)
            assert out.c == mu.mu.inverse()
            # the negated transform realizes c |-> -c^{-1} here
            assert out.c.scale(-1) == fm_linear(mu.mu)

    def test_zero(self):
        mu = NondegClass(RationalMatrix.identity(3))
        assert fm_tdo(mu, TdoIsoClass.zero(3)) == TdoIsoClass.zero(3)

    def test_hand_example_dim2(self):
        mu = NondegClass(RationalMatrix([[1, 0], [0, 2]]))
        x = TdoIsoClass(RationalMatrix.identity(2), AltTensor(2, 2, {}))
        out = fm_tdo(mu, x)
        assert out.c == RationalMatrix([[1, 0], [0, Fraction(1, 4)]])

    def test_involution(self):
        rng = random.Random(42)
        for _ in range(6):
            n = rng.randint(2, 4)
            x = TdoIsoClass(rand_matrix(rng, n), rand_tensor(rng, 2, n))
            mu = NondegClass(rand_invertible(rng, n))
            assert fm_tdo(mu.inverse_class(), fm_tdo(mu, x)) == x

    def test_json_round_trip(self):
        rng = random.Random(43)
        x = TdoIsoClass(rand_matrix(rng, 3), rand_tensor(rng, 2, 3))
        assert TdoIsoClass.from_json(x.to_json()) == x
        mu = NondegClass(rand_invertible(rng, 3))
        assert NondegClass.from_json(mu.to_json()) == mu


# ----------------------------------------------------------------------
# the transforms against a reference that inverts mu on every use
# ----------------------------------------------------------------------

@st.composite
def nondeg_matrices(draw, n):
    """P L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal: every invertible matrix has this form."""
    low = [[ONE if i == j else draw(entries) if j < i else ZERO for j in range(n)]
           for i in range(n)]
    up = [[draw(nonzero) if i == j else draw(entries) if j > i else ZERO for j in range(n)]
          for i in range(n)]
    perm = draw(st.permutations(range(n)))
    lu = RationalMatrix(low) * RationalMatrix(up)
    return RationalMatrix([lu.entries[i] for i in perm])


@st.composite
def sparse_tensors(draw, k, n, valdim=None):
    # n = 2 has no 3-tensor keys; the type still wants a 3-tensor
    domain = list(combinations(range(1, n + 1), k))
    keys = draw(st.sets(st.sampled_from(domain))) if domain else set()
    if valdim is None:
        return AltTensor(k, n, {key: draw(entries) for key in keys})
    return AltTensor(k, n, {key: [draw(entries) for _ in range(valdim)] for key in keys},
                     valdim)


@st.composite
def fm_cases(draw):
    n = draw(st.integers(2, 5))
    mu = NondegClass(draw(nondeg_matrices(n)))
    cdo = CdoIsoClass(n, draw(sparse_tensors(3, n)), draw(sparse_tensors(2, n, valdim=n)))
    c = RationalMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])
    tdo = TdoIsoClass(c, draw(sparse_tensors(2, n)))
    return mu, cdo, tdo, CdoMorphism(draw(sparse_tensors(2, n)))


def both_ways(mu):
    """(class, matrix) along mu and along its inverse class; the matrix
    of the inverse class is built by the reference inverse."""
    return [(mu, mu.mu), (mu.inverse_class(), ref_inverse(mu.mu))]


class TestTransformsAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(case=fm_cases())
    def test_fm_cdo(self, case):
        mu, x, _, _ = case
        for along, m in both_ways(mu):
            inv = ref_inverse(m)
            nu = ref_alt_pullback(2, m, x.nu)
            want = CdoIsoClass(x.n, ref_alt_pullback(3, m, x.lam), AltTensor(
                2, x.n, {key: ref_apply(inv, col) for key, col in nu.coeffs.items()}, x.n))
            assert fm_cdo(along, x) == want

    @settings(max_examples=60, deadline=None)
    @given(case=fm_cases())
    def test_fm_tdo(self, case):
        mu, _, x, _ = case
        for along, m in both_ways(mu):
            inv = ref_inverse(m)
            want = TdoIsoClass(ref_matmul(ref_matmul(inv, x.c), inv),
                               ref_alt_pullback(2, m, x.omega))
            assert fm_tdo(along, x) == want

    @settings(max_examples=60, deadline=None)
    @given(case=fm_cases())
    def test_fm_cdo_morphism(self, case):
        mu, _, _, h = case
        for along, m in both_ways(mu):
            assert fm_cdo_morphism(along, h) == CdoMorphism(ref_alt_pullback(2, m, h.h))


class TestInverseClass:
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 5).flatmap(nondeg_matrices))
    def test_equals_class_of_explicit_inverse(self, m):
        got = NondegClass(m).inverse_class()
        want = NondegClass(m.inverse())
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert got.to_json() == want.to_json()

    def test_stored_inverse_is_not_a_constructor_argument(self):
        # an inverse handed in from outside would skip the
        # nondegeneracy check and mislead every transform
        with pytest.raises(TypeError):
            NondegClass(RationalMatrix([[1, 1], [1, 1]]), RationalMatrix.identity(2))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 5).flatmap(nondeg_matrices))
    def test_inverse_of_inverse_class_is_mu(self, m):
        mu = NondegClass(m)
        back = mu.inverse_class().inverse_class()
        assert back == mu
        assert repr(back) == repr(mu)


class TestClassValues:
    def test_printed_forms(self):
        assert repr(NondegClass(RationalMatrix.identity(2))) == "NondegClass(mu=[1, 0; 0, 1])"
        assert repr(CdoMorphism.identity(2)) == "CdoMorphism(h=0)"
        assert repr(CdoIsoClass.zero(2)) == "CdoIsoClass(n=2, lam=0, nu=0)"
        assert repr(TdoIsoClass.zero(1)) == "TdoIsoClass(c=[0], omega=0)"

    @pytest.mark.parametrize("build,message", [
        (lambda: CdoIsoClass(2, AltTensor(2, 2), AltTensor(2, 2, valdim=2)),
         "lambda must be a scalar 3-tensor on g"),
        (lambda: CdoIsoClass(2, AltTensor(3, 2), AltTensor(2, 2)),
         "nu must be a 2-tensor on g valued in dim n"),
        (lambda: CdoMorphism(AltTensor(3, 3)), "morphism data must be a scalar 2-tensor"),
        (lambda: TdoIsoClass(RationalMatrix([[1, 2]]), AltTensor(2, 2)), "c must be square"),
        (lambda: TdoIsoClass(RationalMatrix.identity(2), AltTensor(2, 3)),
         "omega must be a scalar 2-tensor of matching dim"),
        (lambda: NondegClass(RationalMatrix([[1, 2]])), "mu must be square"),
        (lambda: vertex_algebroid_pairing(AltTensor(2, 3), 1, 2), "pairing requires a 3-tensor"),
        (lambda: fm_cdo(NondegClass(RationalMatrix.identity(2)), CdoIsoClass.zero(3)),
         "mu and class dimensions differ"),
        (lambda: fm_cdo_morphism(NondegClass(RationalMatrix.identity(2)),
                                 CdoMorphism.identity(3)),
         "mu and morphism dimensions differ"),
        (lambda: fm_tdo(NondegClass(RationalMatrix.identity(2)), TdoIsoClass.zero(3)),
         "mu and class dimensions differ"),
    ], ids=["cdo-lambda", "cdo-nu", "morphism", "tdo-c", "tdo-omega", "nondeg-mu",
            "pairing", "fm-cdo", "fm-cdo-morphism", "fm-tdo"])
    def test_shapes_that_do_not_fit_are_refused(self, build, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            build()

    def test_equality_needs_the_same_type(self):
        assert CdoMorphism.identity(2) != AltTensor(2, 2)
        assert NondegClass(RationalMatrix.identity(2)) != RationalMatrix.identity(2)
