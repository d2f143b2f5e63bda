"""Exact linear algebra substrate: scalars, inverses, alternating tensors."""

import importlib
import operator
import pkgutil
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiraltorus
from chiraltorus.chiral_fm import CdoIsoClass, CdoMorphism, NondegClass, TdoIsoClass
from chiraltorus.coisson import (
    BracketTable,
    DeltaExpansion,
    FourierClass,
    LocalDensity,
)
from chiraltorus.exactlin import (
    AltTensor,
    ChiraltorusError,
    CoeffTable,
    DimensionMismatch,
    ExactScalar,
    Frozen,
    RationalMatrix,
    SingularMatrix,
    _integer_rows,
    _pullback_by_inverse,
    alt_pullback,
    compositions,
    signed_sort,
)
from chiraltorus.fockq import (
    BiSeries,
    FockTruncation,
    QSeries,
    SparseOp,
    UnitScalar,
    one_dim_model,
)
from chiraltorus.jetcalc import (
    DiffPoly,
    Monomial,
    VariationalForm,
    boson_circle_lagrangian,
    parse_expr,
)


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
        for n in (True, 1.0):
            with pytest.raises(TypeError, match="^exponent must be an integer$"):
                ExactScalar(2) ** n

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

    @pytest.mark.parametrize("text", ["٣/٤", "1+٢ i", "٣", "1/٢", "\u20031", "1\u00a0+2 i"])
    def test_only_ascii_digits_and_spaces_parse(self, text):
        with pytest.raises(ChiraltorusError, match="not a Gaussian rational literal"):
            ExactScalar.from_string(text)

    def test_a_string_is_never_equal(self):
        # a literal is parsed only where a value is built, never on comparison
        assert (ExactScalar(1) == "1") is False
        assert ExactScalar(1) != "1"

    def test_unknown_operands_reach_reflected_methods(self):
        two = ExactScalar(2)
        x1 = DiffPoly.jet(1, 0, 0)
        assert two * x1 == x1.scale(2)
        assert two + x1 == x1 + two
        assert two - x1 == DiffPoly.const(2) - x1
        u = UnitScalar({1: 1})
        assert two + u == UnitScalar({0: 2, 1: 1})
        assert two * u == UnitScalar({1: 2})
        assert two - u == 2 - u == UnitScalar({0: 2, 1: -1})
        assert two * RationalMatrix.identity(2) == RationalMatrix([[2, 0], [0, 2]])

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_float_operands_still_raise(self, op):
        with pytest.raises(TypeError):
            op(ExactScalar(1), 0.5)
        with pytest.raises(TypeError):
            op(0.5, ExactScalar(1))

    @pytest.mark.parametrize("bad", [0.1, 1.0, 1j, True, False])
    def test_inexact_parts_are_refused(self, bad):
        with pytest.raises(TypeError):
            ExactScalar(bad)
        with pytest.raises(TypeError):
            ExactScalar(1, bad)
        with pytest.raises(TypeError):
            ExactScalar.coerce(bad)

    @pytest.mark.parametrize("text", ["0.1", "1e3", "1_000", "\u0663/\u0664", " 1/2\u00a0"])
    def test_string_parts_follow_the_literal_grammar(self, text):
        with pytest.raises(ChiraltorusError, match="not a Gaussian rational literal"):
            ExactScalar(text)
        with pytest.raises(ChiraltorusError, match="not a Gaussian rational literal"):
            ExactScalar(1, text)
        with pytest.raises(ChiraltorusError):
            ExactScalar.coerce(text)

    def test_string_parts_are_read_as_literals(self):
        assert ExactScalar("3/4") == ExactScalar(Fraction(3, 4))
        assert ExactScalar(" -2 ", "1/3") == ExactScalar(-2, Fraction(1, 3))
        with pytest.raises(ChiraltorusError, match="must be real"):
            ExactScalar("1+2 i")

    @pytest.mark.parametrize("view", ["re", "im"])
    def test_parts_are_read_only(self, view):
        x = ExactScalar(Fraction(1, 3), 2)
        with pytest.raises(AttributeError, match="^ExactScalar is immutable$"):
            setattr(x, view, Fraction(5))
        assert (x.re, x.im) == (Fraction(1, 3), 2)

    def test_arithmetic_results_stay_fractions(self):
        a = ExactScalar(Fraction(1, 3), 2)
        for x in (a + a, a - 1, a * a, a / 3, -a, a ** 3):
            assert type(x.a) is int and type(x.b) is int and type(x.d) is int
            assert x.d > 0

    def test_plain_number_operands_are_coerced(self):
        x = ExactScalar(Fraction(1, 3), 2)
        assert x + 1 == 1 + x == ExactScalar(Fraction(4, 3), 2)
        assert x + Fraction(1, 2) == ExactScalar(Fraction(5, 6), 2)
        assert 1 - x == ExactScalar(Fraction(2, 3), -2)
        assert 2 / ExactScalar(0, 2) == ExactScalar(0, -1)
        assert Fraction(1, 2) / ExactScalar(2) == ExactScalar(Fraction(1, 4))

    def test_equality_with_ints_and_fractions(self):
        assert ExactScalar(3) == 3 and ExactScalar(3) != 4
        assert ExactScalar(3, 1) != 3 and ExactScalar(Fraction(3, 2)) != 1
        assert ExactScalar(Fraction(3, 2)) == Fraction(3, 2)
        assert ExactScalar(Fraction(3, 2), 1) != Fraction(3, 2)
        assert ExactScalar(2) != Fraction(2, 3)

    def test_a_complex_value_hashes_as_its_pair_of_parts(self):
        x = ExactScalar(Fraction(1, 3), -2)
        assert hash(x) == hash((Fraction(1, 3), Fraction(-2)))

    def test_truth_and_json_form(self):
        assert not ExactScalar(0) and ExactScalar(0, 1) and ExactScalar(Fraction(-1, 2))
        xs = [ExactScalar(1), ExactScalar(0, -3), ExactScalar(Fraction(-1, 2), Fraction(3, 4))]
        assert [x.to_json() for x in xs] == ["1", "0-3 i", "-1/2+3/4 i"]
        assert [ExactScalar.from_string(x) for x in ("1", "-3 i", "-1/2+3/4 i")] == xs


# ----------------------------------------------------------------------
# ExactScalar against a reference Q(i): a pair of Fractions
# ----------------------------------------------------------------------

class RefQi:
    """The reference Gaussian rational re + i*im, kept independent of
    ExactScalar: every operation is written out on two Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, ExactScalar):
            return RefQi(x.re, x.im)
        return RefQi(x)

    def pair(self):
        return (self.re, self.im)

    def __add__(self, o):
        return RefQi(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefQi(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return RefQi(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError
        return RefQi((self.re * o.re + self.im * o.im) / n,
                     (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, n):
        base = RefQi(1) / self if n < 0 else self
        out = RefQi(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))


def as_pair(x: ExactScalar):
    return (x.re, x.im)


def canonical_triple(r: RefQi):
    """(a, b, d) with (a + b*i)/d = r, d > 0 and gcd(a, b, d) = 1."""
    d = r.re.denominator * r.im.denominator // gcd(r.re.denominator, r.im.denominator)
    return (int(r.re * d), int(r.im * d), d)


# parts on a few denominators, so sums share or mix denominators and
# products cancel often; a third of the draws are real
rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
)
gaussians = st.one_of(
    st.builds(ExactScalar, rationals),
    st.builds(ExactScalar, rationals, rationals),
    st.builds(ExactScalar, st.just(0), rationals),
)
exact_operands = st.one_of(gaussians, st.integers(-12, 12), rationals)


class TestExactScalarAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(x=gaussians, y=exact_operands)
    def test_field_operations(self, x, y):
        rx, ry = RefQi.of(x), RefQi.of(y)
        assert as_pair(x + y) == (rx + ry).pair()
        assert as_pair(y + x) == (ry + rx).pair()
        assert as_pair(x - y) == (rx - ry).pair()
        assert as_pair(y - x) == (ry - rx).pair()
        assert as_pair(x * y) == (rx * ry).pair()
        assert as_pair(y * x) == (ry * rx).pair()
        if ry.pair() != (0, 0):
            assert as_pair(x / y) == (rx / ry).pair()
        if rx.pair() != (0, 0):
            assert as_pair(y / x) == (ry / rx).pair()
        for z in (x + y, y - x, x * y):
            assert isinstance(z, ExactScalar)

    @settings(max_examples=200, deadline=None)
    @given(x=gaussians, n=st.integers(-4, 4))
    def test_negation_and_powers(self, x, n):
        rx = RefQi.of(x)
        assert as_pair(-x) == (-rx.re, -rx.im)
        if rx.pair() == (0, 0) and n < 0:
            with pytest.raises(ZeroDivisionError):
                x ** n
        else:
            assert as_pair(x ** n) == (rx ** n).pair()

    @settings(max_examples=200, deadline=None)
    @given(x=gaussians, y=gaussians)
    def test_equality_and_truth(self, x, y):
        rx, ry = RefQi.of(x), RefQi.of(y)
        assert (x == y) == (rx.pair() == ry.pair())
        assert (x != y) == (rx.pair() != ry.pair())
        assert x.is_zero() == (rx.pair() == (0, 0))
        assert bool(x) == (rx.pair() != (0, 0))
        assert x.is_rational() == (rx.im == 0)

    @settings(max_examples=200, deadline=None)
    @given(x=gaussians, q=rationals)
    def test_equality_with_plain_numbers(self, x, q):
        rx = RefQi.of(x)
        assert (x == q) == (rx.pair() == (q, 0))
        assert (q == x) == (rx.pair() == (q, 0))
        assert ExactScalar(q) == q and q == ExactScalar(q)
        assert ExactScalar(q) != q + 1
        if q != 0:
            assert ExactScalar(0, q) != q and ExactScalar(q, q) != q

    @settings(max_examples=300, deadline=None)
    @given(x=gaussians)
    def test_string_round_trip_and_format(self, x):
        assert str(x) == str(RefQi.of(x))
        if x.is_rational():
            # the real form is printed from the triple, with no Fraction
            assert str(x) == str(x.re)
        assert repr(x) == str(x)
        assert x.to_json() == str(x)
        assert ExactScalar.from_string(str(x)) == x

    @settings(max_examples=300, deadline=None)
    @given(x=gaussians)
    def test_hash_matches_fraction_for_reals(self, x):
        rx = RefQi.of(x)
        assert hash(x) == hash(rx)
        if rx.im == 0:
            assert hash(x) == hash(rx.re)
            assert len({x, rx.re}) == 1
        else:
            assert hash(x) == hash((rx.re, rx.im))

    @settings(max_examples=300, deadline=None)
    @given(x=gaussians, y=exact_operands, n=st.integers(-3, 3))
    def test_stored_triple_is_canonical(self, x, y, n):
        results = [x, -x, x + y, y + x, x - y, y - x, x * y, y * x]
        if not ExactScalar.coerce(y).is_zero():
            results.append(x / y)
        if not x.is_zero():
            results += [y / x, x ** n]
        for z in results:
            assert all(type(v) is int for v in (z.a, z.b, z.d))
            assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
            assert (z.a, z.b, z.d) == canonical_triple(RefQi.of(z))

    @given(x=gaussians)
    @settings(max_examples=100, deadline=None)
    def test_division_by_zero_raises(self, x):
        for zero in (ExactScalar(0), 0, Fraction(0), ExactScalar(0, 0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                1 / x
            with pytest.raises(ZeroDivisionError):
                x ** -1


class TestRationalMatrix:
    def test_product_with_a_foreign_operand_is_not_implemented(self):
        m = RationalMatrix.identity(2)
        assert m.__mul__(object()) is NotImplemented
        assert m.__mul__([[1, 0], [0, 1]]) is NotImplemented
        with pytest.raises(TypeError):
            m * object()

    def test_identity_inverts_to_itself(self):
        m = RationalMatrix.identity(3)
        assert m.inverse() == m

    def test_one_by_one_reciprocal(self):
        m = RationalMatrix([[2]])
        assert m.inverse() == RationalMatrix([[Fraction(1, 2)]])

    def test_random_inverse_multiplies_back(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rand_invertible(rng, 4)
            assert m * m.inverse() == RationalMatrix.identity(4)
            assert m.inverse() * m == RationalMatrix.identity(4)

    def test_invert_is_an_involution(self):
        rng = random.Random(12)
        for _ in range(10):
            m = rand_invertible(rng, 3)
            # a fresh matrix of the same entries keeps no inverse, so the
            # second inverse is eliminated again rather than read back
            assert RationalMatrix(m.inverse().entries).inverse() == m

    def test_inverse_is_kept_both_ways(self):
        m = RationalMatrix([["1/2", "1+1/3 i"], ["3/4 i", "2"]])
        inv = m.inverse()
        assert m.inverse() is inv and inv.inverse() is m
        assert inv == RationalMatrix(inv.entries)

    def test_kept_inverse_leaves_the_value_alone(self):
        m = RationalMatrix([["1/2", "1+1/3 i"], ["3/4 i", "2"]])
        fresh = RationalMatrix(m.entries)
        before = (hash(m), repr(m), m.to_json())
        m.inverse()
        assert m == fresh and fresh == m
        assert (hash(m), repr(m), m.to_json()) == before == (
            hash(fresh), repr(fresh), fresh.to_json())

    def test_negation_and_products_keep_no_inverse(self):
        m = RationalMatrix([["2", "1"], ["1", "1"]])
        m.inverse()
        for out in (-m, m * RationalMatrix.identity(2), m.transpose(), m + m):
            assert getattr(out, "_inv", None) is None

    def test_singular_matrix_raises(self):
        m = RationalMatrix([[1, 2], [2, 4]])
        for _ in range(2):
            # every call eliminates and raises: a failed inverse is not kept
            with pytest.raises(SingularMatrix):
                m.inverse()
            assert getattr(m, "_inv", None) is None

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

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    @pytest.mark.parametrize("make", [lambda: RationalMatrix.identity(2),
                                      lambda: AltTensor(2, 2)])
    def test_foreign_operands_are_a_type_error(self, op, make):
        for other in (1, "1", None):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(make(), other)

    def test_json_round_trip(self):
        m = RationalMatrix([["1/2+3/4 i", "0"], ["-2", "i"]])
        assert RationalMatrix.from_json(m.to_json()) == m

    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4),
           inner=st.integers(1, 4), c=gaussians)
    def test_unchecked_builds_match_the_constructor(self, data, rows, cols, inner, c):
        # transpose, +, -, scale, * and inverse skip the constructor's
        # coercion; each must equal, in value and hash, the checked
        # matrix built from plain nested lists of the reference entries
        def grid(r, k):
            return data.draw(st.lists(st.lists(gaussians, min_size=k, max_size=k),
                                      min_size=r, max_size=r))

        a, b, p = grid(rows, cols), grid(rows, cols), grid(cols, inner)
        ma, mb, mp = RationalMatrix(a), RationalMatrix(b), RationalMatrix(p)
        cases = [
            (ma.transpose(), [[a[i][j] for i in range(rows)] for j in range(cols)]),
            (ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (-ma, [[-x for x in r] for r in a]),
            (ma.scale(c), [[c * x for x in r] for r in a]),
            (ma * c, [[c * x for x in r] for r in a]),
            (ma * mp, [[sum(a[i][t] * p[t][j] for t in range(cols))
                        for j in range(inner)] for i in range(rows)]),
        ]
        if rows == cols and not ma.det().is_zero():
            inv = ma.inverse()
            assert ma * inv == RationalMatrix.identity(rows)
            cases.append((inv, [list(r) for r in inv.entries]))
        for got, entries in cases:
            assert all(type(r) is tuple for r in got.entries), "rows must be tuples"
            assert all(type(x) is ExactScalar for r in got.entries for x in r)
            want = RationalMatrix(entries)
            assert got == want and hash(got) == hash(want)
            assert (got.rows, got.cols) == (want.rows, want.cols)


def brute_eval(t, vectors):
    """Independent evaluation of an alternating tensor on explicit vectors.

    Expands T = sum_J t_J e_{j1}* ^ ... ^ e_{jk}* against the wedge
    pairing (e_{j1}*^...^e_{jk}*)(v_1,...,v_k) = det(v_a[j_b]).  Shares
    no code with alt_pullback.
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


def _perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), by its cycle count."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestSignedSort:
    @settings(max_examples=200, deadline=None)
    @given(keys=st.one_of(
        st.lists(st.integers(-3, 3), max_size=6),
        st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1),
                           st.integers(0, 1)), max_size=5),
    ))
    def test_sign_is_the_parity_of_the_sorting_permutation(self, keys):
        sign, out = signed_sort(keys)
        if len(set(keys)) < len(keys):
            assert (sign, out) == (0, None)
        else:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            assert out == tuple(sorted(keys))
            assert sign == _perm_sign(order)

    def test_small_cases(self):
        assert signed_sort(()) == (1, ())
        assert signed_sort([2, 1]) == (-1, (1, 2))
        assert signed_sort((2, 3, 1)) == (1, (1, 2, 3))
        assert signed_sort((3, 1, 3)) == (0, None)


def _ref_compositions(total, parts):
    """The recursive enumeration: each first part, then the rest."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(total + 1)
            for rest in _ref_compositions(total - first, parts - 1)]


class TestCompositions:
    @settings(max_examples=100, deadline=None)
    @given(total=st.integers(0, 6), parts=st.integers(0, 6))
    def test_matches_the_recursive_enumeration(self, total, parts):
        assert list(compositions(total, parts)) == _ref_compositions(total, parts)

    def test_small_cases(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]


class TestAltTensor:
    def test_table_operations_keep_the_shape(self):
        t = AltTensor(2, 3, {(1, 2): [1, 2]}, valdim=2)
        ident = RationalMatrix.identity(3)
        for u in (-t, t.scale(3), t + t, t - t, alt_pullback(2, ident, t)):
            assert (u.degree, u.dim, u.valdim) == (2, 3, 2)
        assert alt_pullback(2, ident, t) == t
        with pytest.raises(DimensionMismatch):
            t + AltTensor(2, 4, {(1, 2): [1, 2]}, valdim=2)
        assert t != AltTensor(2, 4, {(1, 2): [1, 2]}, valdim=2)

    def test_key_validation(self):
        with pytest.raises(DimensionMismatch):
            AltTensor(2, 3, {(2, 1): 1})
        with pytest.raises(DimensionMismatch):
            AltTensor(2, 3, {(1, 4): 1})

    @pytest.mark.parametrize("idx, err, msg", [
        ((1.9, 2), ChiraltorusError, "tensor index must be an integer, got 1.9"),
        ((True, 2), ChiraltorusError, "tensor index must be an integer, got True"),
        ((0, 7), DimensionMismatch, "key (0, 7) out of range for dim 2"),
        ((1, 2, 1), DimensionMismatch, "key (1, 2, 1) has wrong length for degree 2"),
    ])
    def test_constructor_checks_indices(self, idx, err, msg):
        with pytest.raises(err, match=f"^{re.escape(msg)}$") as info:
            AltTensor(2, 2, {idx: 1})
        assert type(info.value) is err

    def test_identity_pullback_is_identity(self):
        rng = random.Random(21)
        t = rand_tensor(rng, 2, 3)
        assert alt_pullback(2, RationalMatrix.identity(3), t) == t

    @pytest.mark.parametrize("k,n,valdim", [(2, 1, None), (2, 1, 1), (3, 1, None),
                                            (3, 2, None), (3, 2, 2)])
    def test_pullback_with_no_keys_is_zero(self, k, n, valdim):
        # n = 1 has no row pair, and n = 2 no key of degree three
        mu = RationalMatrix([["1/2+1 i"]] if n == 1 else [["1", "2 i"], ["1/3", "1"]])
        out = alt_pullback(k, mu, AltTensor(k, n, {}, valdim))
        assert out == AltTensor(k, n, {}, valdim) and out.is_zero()
        assert (out.degree, out.dim, out.valdim) == (k, n, valdim)

    @pytest.mark.parametrize("k, key", [(2, (2, 4)), (3, (1, 3, 5))])
    def test_pullback_tabulates_only_the_row_pairs_its_keys_end_in(self, k, key):
        # one key at n = 5: one 2x2 minor table, not all C(5, 2) of them
        rng = random.Random(24)
        mu = rand_invertible(rng, 5)
        t = AltTensor(k, 5, {key: ExactScalar(Fraction(2, 3), -1)})
        view = (*_integer_rows(mu.inverse()), {})
        assert _pullback_by_inverse(view, t) == alt_pullback(k, mu, t)
        assert list(view[3]) == [key[-2:]]

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
                inv = mu.inverse()
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


# every matrix or tensor shape that does not fit is a precondition
# failure (exit 2) that names the shape
@pytest.mark.parametrize("build,message", [
    (lambda: RationalMatrix([]), "matrix must have at least one row and column"),
    (lambda: RationalMatrix([[1, 2], [3]]), "ragged rows"),
    (lambda: RationalMatrix([[1]]) + RationalMatrix([[1, 2]]), "matrix addition shape mismatch"),
    (lambda: RationalMatrix([[1, 2]]).apply([1]), "vector length does not match column count"),
    (lambda: RationalMatrix([[1, 2]]).inverse(), "inverse of a non-square matrix"),
    (lambda: AltTensor(4, 2), "tensor degree must be 2 or 3"),
    (lambda: AltTensor(2, 0), "tensor dim must be positive"),
    (lambda: AltTensor(2, 2, {(1, 2): [1]}, valdim=2), "value column has length 1, expected 2"),
    (lambda: alt_pullback(2, RationalMatrix([[1, 2]]), AltTensor(2, 2)),
     "pullback needs a square matrix"),
], ids=["matrix-empty", "matrix-ragged", "matrix-add", "matrix-apply", "matrix-inverse",
        "tensor-degree-4", "tensor-dim-0", "tensor-value-column", "pullback-not-square"])
def test_shapes_that_do_not_fit_are_refused(build, message):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is DimensionMismatch
    assert info.value.exit_code == 2


# ----------------------------------------------------------------------
# frozen types and the shared coefficient table
# ----------------------------------------------------------------------

def _fock():
    return FockTruncation(one_dim_model(), [0], 1)


# one instance of every frozen type, with an attribute to try to reassign
FROZEN_CASES = {
    # a stored slot: re and im are computed views, rebuilt on each read
    "ExactScalar": (lambda: ExactScalar(1, 2), "b"),
    "RationalMatrix": (lambda: RationalMatrix.identity(2), "entries"),
    "AltTensor": (lambda: AltTensor(2, 2, {(1, 2): 1}), "coeffs"),
    "DiffPoly": (lambda: parse_expr("x1*p1"), "terms"),
    "VariationalForm": (
        lambda: VariationalForm({((), ("t", "s")): parse_expr("x1")}), "coeffs"),
    "Lagrangian": (lambda: boson_circle_lagrangian(), "density"),
    "LocalDensity": (lambda: LocalDensity("p1"), "poly"),
    "FourierClass": (lambda: FourierClass("p1"), "rep"),
    "DeltaExpansion": (lambda: DeltaExpansion({0: parse_expr("p1")}), "coeffs"),
    "BracketTable": (lambda: BracketTable(), "twist"),
    "UnitScalar": (lambda: UnitScalar({1: 1}), "coeffs"),
    "LatticeModel": (lambda: one_dim_model(), "g"),
    "Sector": (lambda: one_dim_model().sector([1], [0]), "coords"),
    "IntegerForm": (lambda: one_dim_model().a_plus_form, "parts"),
    "SparseOp": (lambda: SparseOp.identity(2), "table"),
    "FockTruncation": (_fock, "basis"),
    "QSeries": (lambda: QSeries({0: 1}, 2), "cap"),
    "BiSeries": (lambda: BiSeries({(0, 0): 1}), "coeffs"),
    "NondegClass": (lambda: NondegClass(RationalMatrix.identity(2)), "mu"),
    "CdoIsoClass": (lambda: CdoIsoClass.zero(2), "lam"),
    "TdoIsoClass": (lambda: TdoIsoClass.zero(2), "c"),
    "CdoMorphism": (lambda: CdoMorphism.identity(2), "h"),
}


def _frozen_classes(base=Frozen):
    for cls in base.__subclasses__():
        yield cls
        yield from _frozen_classes(cls)


def test_every_frozen_class_has_an_immutability_case():
    names = {cls.__name__ for cls in _frozen_classes()} - {"CoeffTable"}
    assert names == set(FROZEN_CASES)


def test_every_cache_is_bounded():
    # no input can grow a cache without limit
    caches = {}
    for info in pkgutil.iter_modules(chiraltorus.__path__):
        module = importlib.import_module(f"chiraltorus.{info.name}")
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_info"):
                    caches[f"{module.__name__}.{name}"] = value.cache_info().maxsize
    assert {"chiraltorus.fockq._word_map", "chiraltorus.jetcalc._image_basis",
            "chiraltorus.jetcalc._mono_mul", "chiraltorus.jetcalc._d_terms"} <= set(caches)
    assert all(isinstance(bound, int) for bound in caches.values()), caches


def test_a_type_without_fields_compares_by_identity():
    fock = _fock()
    assert fock == fock and fock != _fock()
    assert hash(fock) == object.__hash__(fock)
    assert repr(fock).startswith("<chiraltorus.fockq.FockTruncation object at ")


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

def _alt_tensor(valdim, name):
    """An AltTensor constructor with the shape (degree 2, dim 3, valdim)
    bound, called like the other table types."""
    def make(coeffs=None):
        return AltTensor(2, 3, coeffs, valdim)
    make.__name__ = name
    return make


SCALAR_ALT = _alt_tensor(None, "AltTensor")
VECTOR_ALT = _alt_tensor(2, "AltTensorValued")

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
    SCALAR_ALT: st.sampled_from([(1, 2), (1, 3), (2, 3)]),
    VECTOR_ALT: st.sampled_from([(1, 2), (1, 3), (2, 3)]),
}
TABLE_VALUES = {VECTOR_ALT: st.lists(small_scalars, min_size=2, max_size=2)}
# table types without a product of two elements
NO_PRODUCT = (BiSeries, SCALAR_ALT, VECTOR_ALT)


# one fixed instance of every printed table form, with its exact text
PRINTED_FORMS = [
    (lambda: AltTensor(2, 3, {(2, 3): 3, (1, 2): "1/2", (1, 3): "-2+1 i"}),
     "(1/2) e1*e2* + (-2+1 i) e1*e3* + (3) e2*e3*"),
    (lambda: AltTensor(3, 3, {(1, 2, 3): ["1", "-1/3"]}, valdim=2),
     "(1, -1/3) e1*e2*e3*"),
    (lambda: AltTensor(2, 3, {(1, 3): [0, "1 i"], (1, 2): [2, 0]}, valdim=2),
     "(2, 0) e1*e2* + (0, 0+1 i) e1*e3*"),
    (lambda: UnitScalar({2: -1, 0: "1/2", 1: 1, -2: 3, -1: "1+1 i"}),
     "3*u^-2 + 1+1 i*u^-1 + 1/2 + u + -1*u^2"),
    (lambda: QSeries({Fraction(3, 2): "1/2", 0: 2, 1: 1, Fraction(-1, 8): 1,
                      3: 5}, 2),
     "q^-1/8 + 2 + q + 1/2*q^3/2"),
    (lambda: BiSeries({(0, Fraction(1, 2)): 1, (Fraction(-1, 4), 1): 3,
                       (1, 0): "-1 i"}),
     "3*q^-1/4*qb^1 + q^0*qb^1/2 + 0-1 i*q^1*qb^0"),
    (lambda: DeltaExpansion({0: parse_expr("p1"), 1: parse_expr("i*x1"),
                             2: parse_expr("x1*p1 - ds.x1")}),
     "(x1*p1 - ds.x1) ds.ds.delta + (i*x1) ds.delta + (p1) delta"),
    (lambda: VariationalForm({
        (((1, 0, 0),), ("s",)): parse_expr("p1"),
        ((), ()): parse_expr("x1"),
        (((1, 0, 1), (1, 0, 0)), ()): parse_expr("2"),
        ((), ("t", "s")): parse_expr("-dt.x1^2")}),
     "(x1) + (-dt.x1^2) dt^ds + (dt.x1) d[x1]^ds + (-2) d[x1]^d[ds.x1]"),
    # every coefficient shape poly_str prints: a bare +-1 is dropped
    # before factors, and a sign is read off the coefficient's own text
    (lambda: parse_expr("1 - x1 + x2"), "1 - x1 + x2"),
    (lambda: parse_expr("-1 + 2*x1") - parse_expr("x2^2"), "-1 + 2*x1 - x2^2"),
    (lambda: parse_expr("-x1 - 2*i*x2"), "-x1 - 2*i*x2"),
    (lambda: parse_expr("-i + 2*i*x1 - 3/2*i*e(-2)*f*x1^2"),
     "-3/2*i*e(-2)*f*x1^2 - i + 2*i*x1"),
    (lambda: parse_expr("2*i + (1/2-i)*x1 + (-1+2*i)*p1"), "2*i + (1/2-i)*x1 + (-1+2*i)*dt.x1"),
    (lambda: parse_expr("(1/2-i)"), "(1/2-i)"),
]


@pytest.mark.parametrize("make,text", PRINTED_FORMS, ids=[
    "AltTensor", "AltTensorValued3", "AltTensorValued2", "UnitScalar",
    "QSeries", "BiSeries", "DeltaExpansion", "VariationalForm", "DiffPolyUnits",
    "DiffPolyNegativeUnit", "DiffPolyLeadingMinus", "DiffPolyImaginary",
    "DiffPolyGaussian", "DiffPolyGaussianConstant"])
def test_printed_form(make, text):
    x = make()
    assert str(x) == text
    assert repr(x) == text


@pytest.mark.parametrize("zero", [
    QSeries({}, 1), DeltaExpansion(), VariationalForm()])
def test_empty_table_prints_zero(zero):
    assert str(zero) == repr(zero) == "0"


def test_table_equality_with_a_foreign_operand_is_not_implemented():
    # DiffPoly turns numbers into constants; anything else is foreign
    x1 = DiffPoly.jet(1, 0, 0)
    assert x1.__eq__("x1") is NotImplemented
    assert VariationalForm().__eq__(0) is NotImplemented
    assert x1 != "x1" and not VariationalForm() == 0


def table_items(cls):
    values = TABLE_VALUES.get(cls, small_scalars)
    return st.lists(st.tuples(TABLE_KEYS[cls], values), max_size=8)


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
        if cls not in NO_PRODUCT:
            assert_pruned(x * y)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_printed_form_is_its_repr(self, cls, data):
        x = cls(data.draw(table_items(cls)))
        assert repr(x) == str(x)
        assert (str(x) == "0") == x.is_zero()
        assert str(cls()) == "0"

