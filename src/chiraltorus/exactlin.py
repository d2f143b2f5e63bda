"""Gaussian-rational scalars, exact matrices, and the frozen coefficient
table every sparse exact type is built on, alternating tensors included;
signed_sort is the one sign rule of everything antisymmetric.

Every module downstream runs on these types.  Scalars are elements
(a + b*i)/d of Q(i), stored as three ints over one shared denominator in
the canonical form d > 0, gcd(a, b, d) = 1, so equality of any two
computed quantities is decidable and all tests are equality tests.

Scalar arithmetic normalises each result with one gcd.  The dense
kernels (matrix products, det, inverse and the pullback of alternating
tensors) instead write their inputs as Gaussian integers over one
common denominator, work in plain ints, and normalise each output
entry once.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from itertools import combinations
from operator import itemgetter, mul


class ChiraltorusError(ValueError):
    """Base of the package's errors; exit_code is the command line's exit
    status for it: 1 for a usage or parse error."""

    exit_code = 1


class PreconditionError(ChiraltorusError):
    """Well-formed input that is mathematically inadmissible for the
    requested operation."""

    exit_code = 2


class InvariantError(ChiraltorusError):
    """An internal consistency check failed: a library bug."""

    exit_code = 3


class SingularMatrix(PreconditionError):
    """Raised when an exact inverse is requested of a singular matrix."""


class DimensionMismatch(PreconditionError):
    """Raised when shapes of matrices/tensors do not line up."""


class NotPositiveDefinite(PreconditionError):
    """Metric fails symmetry or a leading principal minor test."""


class NotAntisymmetric(PreconditionError):
    """B-field is not antisymmetric."""


class Frozen:
    """Base of the package's immutable types: attributes are set once,
    while the instance is built, and never reassigned.

    A subclass that names the attributes making up its value in _fields
    compares and hashes by them and prints as Name(f1=..., f2=...);
    without _fields an instance is equal only to itself."""

    __slots__ = ()
    _fields = None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, **fields):
        """An instance around fields already checked and canonical, without __init__."""
        out = object.__new__(cls)
        out._set(**fields)
        return out

    def _value(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if self._fields is None or type(other) is not type(self):
            return object.__eq__(self, other)
        return self._value() == other._value()

    def __hash__(self):
        if self._fields is None:
            return object.__hash__(self)
        return hash(self._value())

    def __repr__(self):
        if self._fields is None:
            return object.__repr__(self)
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


_RAT = r"-?\d+(?:/\d+)?"
# re.ASCII: \d and \s would also match non-Latin digits and spaces
_SCALAR_RE = _re.compile(
    rf"^\s*({_RAT})\s*(?:([+-])\s*({_RAT})\s*\*?\s*i\s*)?$", _re.ASCII
)
_PURE_IM_RE = _re.compile(rf"^\s*(-?)\s*({_RAT})?\s*\*?\s*i\s*$", _re.ASCII)


_INEXACT = (float, complex, bool)
# operand types coerce accepts besides ExactScalar; arithmetic with any
# other type returns NotImplemented, so Python tries its reflected method
_COERCIBLE = (int, Fraction, str)
_new = object.__new__


class ExactScalar(Frozen):
    """An element (a + b*i)/d of Q(i), immutable and canonical.

    The value is held as three ints with d > 0 and gcd(a, b, d) = 1, so
    equal values are equal triples: == compares three ints, and every
    operation normalises its result with one gcd.  re and im are
    read-only Fraction views.  Division by zero raises ZeroDivisionError.
    Floats, complex numbers and bools are refused: a float is already
    rounded, and a bool is not a number.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, _INEXACT) or isinstance(im, _INEXACT):
            raise TypeError(f"ExactScalar needs exact parts, got {re!r} and {im!r}")
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            # over the lcm of two reduced denominators the triple is
            # already canonical
            p, q = _ratio(re)
            r, s = _ratio(im)
            d = q // gcd(q, s) * s
            a, b = p * (d // q), r * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- constructors ------------------------------------------------

    @staticmethod
    def coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x)
        if isinstance(x, str):
            return ExactScalar.from_string(x)
        raise TypeError(f"cannot coerce {x!r} to ExactScalar")

    @staticmethod
    def from_string(s: str) -> "ExactScalar":
        """Parse "p/q", "p/q+r/s i", "p/q-r/s i", or a pure "r/s i"."""
        try:
            m = _PURE_IM_RE.match(s)
            if m:
                mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
                return ExactScalar(0, -mag if m.group(1) == "-" else mag)
            m = _SCALAR_RE.match(s)
            if not m:
                raise ChiraltorusError(f"not a Gaussian rational literal: {s!r}")
            re_part = Fraction(m.group(1))
            if m.group(3) is None:
                return ExactScalar(re_part)
            im_part = Fraction(m.group(3))
        except ZeroDivisionError:
            raise ChiraltorusError(f"zero denominator in {s!r}") from None
        return ExactScalar(re_part, -im_part if m.group(2) == "-" else im_part)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactScalar:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = ExactScalar.coerce(other)
        d = self.d
        if d == other.d:
            return _reduced(self.a + other.a, self.b + other.b, d)
        e = other.d
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactScalar:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = ExactScalar.coerce(other)
        d = self.d
        if d == other.d:
            return _reduced(self.a - other.a, self.b - other.b, d)
        e = other.d
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        if not isinstance(other, _COERCIBLE):
            return NotImplemented
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = ExactScalar.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ExactScalar:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = ExactScalar.coerce(other)
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division of ExactScalar by zero")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        if not isinstance(other, _COERCIBLE):
            return NotImplemented
        return ExactScalar.coerce(other) / self

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __pow__(self, n: int):
        if type(n) is not int:
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (ONE / self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        return _triple(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def is_integer(self) -> bool:
        """True for a real integer; its value is then self.a."""
        return not self.b and self.d == 1

    # -- identity ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.d == other.denominator
                    and self.a == other.numerator)
        return NotImplemented

    def __hash__(self):
        # the hash of the equal Fraction (or int) for a real value, so
        # that ExactScalar, Fraction and int keys meet in one dict slot
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def sort_key(self):
        return (self.re, self.im)

    # -- display -----------------------------------------------------

    def __str__(self):
        if not self.b:
            # canonical, so a/d is already in lowest terms
            return f"{self.a}/{self.d}" if self.d != 1 else str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    __repr__ = __str__

    def to_json(self) -> str:
        return str(self)

    @staticmethod
    def from_json(s: str) -> "ExactScalar":
        return ExactScalar.from_string(s)


_set_a = ExactScalar.a.__set__
_set_b = ExactScalar.b.__set__
_set_d = ExactScalar.d.__set__


def _ratio(x) -> tuple:
    """Reduced (numerator, denominator) of an exact rational part."""
    if isinstance(x, int):
        return x, 1
    if not isinstance(x, Fraction):
        x = exact_fraction(x, "ExactScalar part")
    return x.numerator, x.denominator


def _triple(a: int, b: int, d: int) -> ExactScalar:
    """The scalar (a + b*i)/d from a triple that is already canonical,
    without the constructor's checks."""
    out = _new(ExactScalar)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _reduced(a: int, b: int, d: int) -> ExactScalar:
    """The scalar (a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def _over_common(xs) -> tuple:
    """The integer view (re, im, D) of a sequence of scalars: x_k =
    (re[k] + im[k]*i)/D for every k, D the lcm of their denominators."""
    D = lcm(*[x.d for x in xs])
    re = [x.a if x.d == D else x.a * (D // x.d) for x in xs]
    im = [x.b if x.d == D else x.b * (D // x.d) for x in xs]
    return re, im, D


def _dot(x, y) -> ExactScalar:
    """sum_k x_k y_k of two integer views of equal length, summed in ints
    and normalised once."""
    xr, xi, dx = x
    yr, yi, dy = y
    return _reduced(sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
                    sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)), dx * dy)


def _integer_rows(m) -> tuple:
    """The integer view (re rows, im rows, D) of a RationalMatrix: all
    its entries over the one common denominator D."""
    n = m.cols
    re, im, D = _over_common([x for row in m.entries for x in row])
    return ([re[i:i + n] for i in range(0, len(re), n)],
            [im[i:i + n] for i in range(0, len(im), n)], D)


def _bareiss(re, im):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the
    Gaussian-integer matrix [M | R] with rows re[i] + im[i]*i, M square.

    Column k pivots on the first unused row r that is nonzero there;
    every other row becomes (p * row - f * row_r) / q, p the pivot, f
    the row's entry in column k and q the previous pivot (1 at first),
    and drops column k.  The division is exact in Z[i]: every entry is a
    minor of the row-permuted [M | R], pivot k the leading minor of size
    k + 1 of M with its rows taken in order.  Returns (order, rows,
    pivots): order[k] the row that pivoted on column k and pivots[k] its
    pivot (re, im), both stopping at the first column without one, where
    det M = 0; rows what is left of each row.  A full order leaves row
    order[k] as q times row k of M^{-1} R, q = sign(order) det M the last
    pivot."""
    rows = list(zip(re, im))
    order, pivots, (qr, qi) = [], [], (1, 0)
    for _ in range(len(rows)):
        r = next((r for r, (a, b) in enumerate(rows) if r not in order and (a[0] or b[0])),
                 None)
        if r is None:
            break
        order.append(r)
        ar, ai = rows[r]
        pr, pi = ar[0], ai[0]
        ar, ai = rows[r] = ar[1:], ai[1:]
        norm = qr * qr + qi * qi
        for i, (br, bi) in enumerate(rows):
            if i != r:
                fr, fi = br[0], bi[0]
                xs = [(pr * x - pi * y - fr * u + fi * v, pr * y + pi * x - fr * v - fi * u)
                      for x, y, u, v in zip(br[1:], bi[1:], ar, ai)]
                rows[i] = ([(x * qr + y * qi) // norm for x, y in xs],
                           [(y * qr - x * qi) // norm for x, y in xs])
        qr, qi = pr, pi
        pivots.append((qr, qi))
    return order, rows, pivots


S = ExactScalar
ZERO = ExactScalar(0)
ONE = ExactScalar(1)
IMAG = ExactScalar(0, 1)
HALF = ExactScalar(Fraction(1, 2))


def exact_fraction(x, what: str) -> Fraction:
    """x as a Fraction: an int or a Fraction as it is, anything else by
    the one literal rule, which refuses floats, complex numbers and bools
    as ExactScalar does and reads a string as a real literal of its
    grammar; what names x in the error messages."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, _INEXACT):
        raise TypeError(f"{what} must be an exact rational, got {x!r}")
    try:
        value = ExactScalar.coerce(x)
    except ChiraltorusError as exc:
        raise ChiraltorusError(f"{what}: {exc}") from None
    if not value.is_rational():
        raise ChiraltorusError(f"{what} must be real, got {x!r}")
    return value.re


def _integer(x, what: str) -> int:
    """x itself when it is an int: the one integer rule, which refuses a
    bool, a float and every other type; what names x in the error."""
    if type(x) is not int:
        raise ChiraltorusError(f"{what} must be an integer, got {x!r}")
    return x


def _natural(x, what: str) -> int:
    """x itself when it is an int and not negative; anything else is refused."""
    if _integer(x, what) < 0:
        raise ChiraltorusError(f"{what} must be nonnegative, got {x}")
    return x


def signed_sort(keys) -> tuple:
    """(sign, sorted tuple) of a sequence of comparable keys, the sign
    being that of the permutation that sorts them; (0, None) when a key
    repeats, so that an alternating form vanishes there."""
    out = list(keys)
    sign = 1
    for i in range(1, len(out)):
        key = out[i]
        j = i
        while j and out[j - 1] > key:
            out[j] = out[j - 1]
            j -= 1
            sign = -sign
        if j and out[j - 1] == key:
            return 0, None
        out[j] = key
    return sign, tuple(out)


class RationalMatrix(Frozen):
    """A rows x cols matrix over ExactScalar, immutable after construction."""

    __slots__ = ("rows", "cols", "entries")
    _fields = ("entries",)

    def __init__(self, entries):
        if isinstance(entries, RationalMatrix):
            entries = entries.entries
        rows = tuple(tuple(ExactScalar.coerce(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows")
        self._set(rows=len(rows), cols=width, entries=rows)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(r: int, c: int) -> "RationalMatrix":
        return RationalMatrix([[ZERO] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return _matrix([x + y for x, y in zip(r, s)]
                       for r, s in zip(self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _matrix([-x for x in row] for row in self.entries)

    def scale(self, c) -> "RationalMatrix":
        c = ExactScalar.coerce(c)
        return _matrix([c * x for x in row] for row in self.entries)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [_over_common(col) for col in zip(*other.entries)]
        return _matrix([_dot(row, col) for col in cols]
                       for row in map(_over_common, self.entries))

    # a matrix on the left is handled by its own __mul__
    __rmul__ = __mul__

    def transpose(self) -> "RationalMatrix":
        return _matrix(zip(*self.entries))

    def apply(self, vec):
        """Matrix times column vector, vec a sequence of coercibles."""
        v = [ExactScalar.coerce(x) for x in vec]
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        v = _over_common(v)
        return tuple(_dot(_over_common(row), v) for row in self.entries)

    def det(self) -> ExactScalar:
        """The last pivot of _bareiss on D*A, signed by the pivot order,
        over D^n; 0 when a column has no pivot."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        re, im, D = _integer_rows(self)
        order, _, pivots = _bareiss(re, im)
        if len(order) < self.rows:
            return ZERO
        sign = signed_sort(order)[0]
        qr, qi = pivots[-1]
        return _reduced(sign * qr, sign * qi, D ** self.rows)

    def inverse(self) -> "RationalMatrix":
        """Exact inverse; raises SingularMatrix if det = 0.

        Gauss-Jordan by _bareiss on [D*A | D*I] leaves the row that
        pivots on column k as q X_k, one q for every row, with X_k row k
        of the inverse; each entry is normalised once."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        re, im, D = _integer_rows(self)
        order, rows, pivots = _bareiss([row + [D if j == i else 0 for j in range(n)]
                                        for i, row in enumerate(re)],
                                       [row + [0] * n for row in im])
        if len(order) < n:
            raise SingularMatrix("matrix has zero determinant")
        qr, qi = pivots[-1]
        norm = qr * qr + qi * qi
        # x/q = x conj(q) / |q|^2
        return _matrix([_reduced(x * qr + y * qi, y * qr - x * qi, norm)
                        for x, y in zip(*rows[r])] for r in order)

    def __str__(self):
        body = "; ".join(
            ", ".join(str(x) for x in row) for row in self.entries
        )
        return f"[{body}]"

    __repr__ = __str__

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.entries]

    @staticmethod
    def from_json(data) -> "RationalMatrix":
        return RationalMatrix(data)


def _matrix(rows) -> RationalMatrix:
    """A RationalMatrix around any iterable of rows of ExactScalars that
    are already rectangular and nonempty, each row stored as a tuple,
    without the constructor's coercion."""
    entries = tuple(map(tuple, rows))
    return RationalMatrix._trusted(rows=len(entries), cols=len(entries[0]), entries=entries)


def _torus_matrices(g, B=None) -> tuple:
    """The metric and B-field of a torus as n x n RationalMatrix, B zero
    when None: the one check that g is symmetric and B antisymmetric."""
    g = RationalMatrix(g)
    n = g.rows
    B = RationalMatrix.zeros(n, n) if B is None else RationalMatrix(B)
    if g.cols != n or (B.rows, B.cols) != (n, n):
        raise DimensionMismatch("model matrices must be n x n")
    if g.transpose() != g:
        raise NotPositiveDefinite("metric must be symmetric")
    if B.transpose() != -B:
        raise NotAntisymmetric("B must equal -B^T")
    return g, B


def add_into(table, key, value):
    """Accumulate value into table[key], keeping the table zero-pruned:
    a key whose sum is zero is removed.  Values need + and is_zero()."""
    cur = table.get(key)
    if cur is None:
        if not value.is_zero():
            table[key] = value
        return
    value = cur + value
    if value.is_zero():
        del table[key]
    else:
        table[key] = value


class CoeffTable(Frozen):
    """A frozen, zero-pruned table {key: coefficient} of exact values.

    This is the one representation of every sparse exact type in the
    package: canonical keys, no stored zero, so two equal elements have
    equal tables and equal hashes.  Subclasses adjust it through small
    hooks: _entry canonicalises one (key, value) pair of the public
    constructor, _operand turns the other operand of +, - and ==, on
    either side, into a table of the same type, _like rebuilds extra
    shape fields, and _term(key, value) prints one entry of the
    " + "-joined text form, whose order _terms sets.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        """Build from a mapping or an iterable of (key, value) pairs;
        repeated keys are summed and zero sums dropped."""
        table = {}
        items = coeffs.items() if isinstance(coeffs, dict) else (coeffs or ())
        for key, value in items:
            entry = self._entry(key, value)
            if entry is not None:
                add_into(table, *entry)
        object.__setattr__(self, "coeffs", table)

    def _entry(self, key, value):
        """The canonical (key, value) for one input pair, or None to drop it."""
        return key, ExactScalar.coerce(value)

    def _like(self, table):
        """A new table of this type around a table that is already
        canonical and zero-pruned, taken without copying or checking."""
        out = object.__new__(type(self))
        object.__setattr__(out, "coeffs", table)
        return out

    def _operand(self, other):
        return other if isinstance(other, type(self)) else NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            add_into(out, key, value)
        return self._like(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        c = ExactScalar.coerce(c)
        if c.is_zero():
            return self._like({})
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items(), key=itemgetter(0))))

    def _convolve(self, other, combine):
        """The product table: c1 * c2 summed at combine(k1, k2) over
        every pair of entries."""
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                add_into(out, combine(k1, k2), c1 * c2)
        return self._like(out)

    def _terms(self):
        return (self._term(key, self.coeffs[key]) for key in sorted(self.coeffs))

    def __str__(self):
        return " + ".join(self._terms()) or "0"

    def __repr__(self):
        return str(self)


class _Column(tuple):
    """The value of a vector-valued AltTensor entry: a tuple of scalars
    that adds and scales entrywise."""

    __slots__ = ()

    def __add__(self, other):
        return _Column(x + y for x, y in zip(self, other))

    def __mul__(self, c):
        return _Column(x * c for x in self)

    def __neg__(self):
        return _Column(-x for x in self)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self)


def _as_value(val, valdim):
    # scalar-valued entries stay bare ExactScalars; vector-valued ones
    # are length-valdim columns
    if valdim is None:
        return ExactScalar.coerce(val)
    if not isinstance(val, (list, tuple)):
        raise ChiraltorusError(f"vector-valued tensor entry must be a sequence, got {val!r}")
    col = _Column(ExactScalar.coerce(x) for x in val)
    if len(col) != valdim:
        raise DimensionMismatch(f"value column has length {len(col)}, expected {valdim}")
    return col


class AltTensor(CoeffTable):
    """An alternating k-tensor on an n-dimensional space.

    Coefficients live only on strictly increasing index tuples; the
    evaluation map extends them antisymmetrically, and any repeated
    index evaluates to exactly zero.  With valdim set, each key maps
    to a length-valdim column (a tensor valued in another space).
    Indices are 1-based, matching the way bases are written on paper.
    """

    __slots__ = ("degree", "dim", "valdim")
    _fields = ("degree", "dim", "valdim", "coeffs")

    def __init__(self, degree: int, dim: int, coeffs=None, valdim=None):
        _integer(degree, "tensor degree")
        _integer(dim, "tensor dim")
        if valdim is not None:
            _integer(valdim, "tensor valdim")
        if degree not in (2, 3):
            raise DimensionMismatch("tensor degree must be 2 or 3")
        if dim < 1:
            raise DimensionMismatch("tensor dim must be positive")
        self._set(degree=degree, dim=dim, valdim=valdim)
        super().__init__(coeffs)

    def _index(self, key) -> tuple:
        """key as a tuple of degree int indices in 1..dim, or an error."""
        key = tuple(_integer(i, "tensor index") for i in key)
        if len(key) != self.degree:
            raise DimensionMismatch(f"key {key} has wrong length for degree {self.degree}")
        if any(not (1 <= i <= self.dim) for i in key):
            raise DimensionMismatch(f"key {key} out of range for dim {self.dim}")
        return key

    def _entry(self, key, val):
        key = self._index(key)
        if any(a >= b for a, b in zip(key, key[1:])):
            raise DimensionMismatch(f"key {key} is not strictly increasing")
        return key, _as_value(val, self.valdim)

    def _like(self, table):
        out = super()._like(table)
        out._set(degree=self.degree, dim=self.dim, valdim=self.valdim)
        return out

    def evaluate(self, idx):
        """Value on an arbitrary index tuple, by antisymmetrization."""
        sign, key = signed_sort(self._index(idx))
        val = self.coeffs.get(key)  # key is None for a repeated index
        if val is None:
            return self._zero_value()
        return val if sign > 0 else -val

    def _zero_value(self):
        if self.valdim is None:
            return ZERO
        return _Column(ZERO for _ in range(self.valdim))

    __eq__ = Frozen.__eq__
    __hash__ = CoeffTable.__hash__

    def __add__(self, other):
        if not isinstance(other, AltTensor):
            return NotImplemented
        if (self.degree, self.dim, self.valdim) != (other.degree, other.dim, other.valdim):
            raise DimensionMismatch("tensor addition shape mismatch")
        return super().__add__(other)

    def _term(self, key, val):
        body = ", ".join(map(str, val)) if isinstance(val, tuple) else val
        return f"({body}) " + "".join(f"e{i}*" for i in key)

    def to_json(self):
        entries = []
        for key in sorted(self.coeffs):
            val = self.coeffs[key]
            if isinstance(val, tuple):
                jval = [x.to_json() for x in val]
            else:
                jval = val.to_json()
            entries.append({"idx": list(key), "val": jval})
        out = {"degree": self.degree, "dim": self.dim, "entries": entries}
        if self.valdim is not None:
            out["valdim"] = self.valdim
        return out

    @staticmethod
    def from_json(data) -> "AltTensor":
        coeffs = {tuple(e["idx"]): e["val"] for e in data["entries"]}
        return AltTensor(data["degree"], data["dim"], coeffs, data.get("valdim"))


def compositions(total: int, parts: int):
    """All tuples of parts nonnegative integers summing to total, in
    lexicographic order; one empty tuple for total = parts = 0.  Stars
    and bars: parts - 1 bars in total + parts - 1 slots, each part the
    stars before, between or after them; bar positions in lexicographic
    order give the parts in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        out = []
        prev = -1
        for bar in bars + (slots,):
            out.append(bar - prev - 1)
            prev = bar
        yield tuple(out)


def alt_pullback(k: int, mu: RationalMatrix, t: AltTensor) -> AltTensor:
    """Pull an alternating k-tensor back along the inverse of mu.

    result(w_1, ..., w_k) = t(mu^{-1} w_1, ..., mu^{-1} w_k).  The
    coefficient on an increasing tuple I is the sum over increasing
    tuples J of t_J times the (J, I) minor of mu^{-1} (k is 2 or 3).
    Value columns of a vector-valued tensor ride along untouched.
    """
    if mu.rows != mu.cols:
        raise DimensionMismatch("pullback needs a square matrix")
    if t.degree != k:
        raise DimensionMismatch(f"tensor degree {t.degree} does not match k={k}")
    if t.dim != mu.rows:
        raise DimensionMismatch("tensor dim does not match matrix size")
    return _pullback_by_inverse(mu.inverse(), t)


def _pullback_by_inverse(inv: RationalMatrix, t: AltTensor,
                         on_values: bool = False) -> AltTensor:
    """alt_pullback given inv = mu^{-1}, for a tensor t of matching dim
    and degree k = t.degree; with on_values, each value column is also
    sent through inv.

    inv is read as M/D and the values of t as integers over T, both
    Gaussian integers over a common denominator, so the coefficient on
    I is sum_J t_J M_{J,I} / (T D^k), M_{J,I} the (J, I) minor of M.
    The sums run in ints and each output entry is normalised once.
    Only the keys J of t are walked.  The 2x2 minors of a row pair are
    tabulated once over every column pair: for k = 2 they are the (J, I)
    minors, and for k = 3 each minor is the Laplace expansion along J's
    first row over the table of its last two rows, shared by every I and
    by every J that ends in the same pair.
    """
    n, k = inv.rows, t.degree
    mr, mi, D = _integer_rows(inv)
    width = t.valdim or 1
    values = t.coeffs.values()
    vr, vi, T = _over_common(
        [x for v in values for x in v] if t.valdim else list(values))
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    tables = {}
    acc = {}
    for pos, key in enumerate(t.coeffs):
        pair = key[-2:]
        m2 = tables.get(pair)
        if m2 is None:
            ar, ai, br, bi = mr[pair[0] - 1], mi[pair[0] - 1], mr[pair[1] - 1], mi[pair[1] - 1]
            m2 = tables[pair] = {
                (a, b): (ar[a] * br[b] - ai[a] * bi[b] - ar[b] * br[a] + ai[b] * bi[a],
                         ar[a] * bi[b] + ai[a] * br[b] - ar[b] * bi[a] - ai[b] * br[a])
                for a, b in pairs
            }
        if k == 2:
            minors = m2.items()
        else:
            tr, ti = mr[key[0] - 1], mi[key[0] - 1]
            minors = []
            for a, b, c in triples:
                x1, y1 = m2[b, c]
                x2, y2 = m2[a, c]
                x3, y3 = m2[a, b]
                minors.append(((a, b, c), (
                    tr[a] * x1 - ti[a] * y1 - tr[b] * x2 + ti[b] * y2 + tr[c] * x3 - ti[c] * y3,
                    tr[a] * y1 + ti[a] * x1 - tr[b] * y2 - ti[b] * x2 + tr[c] * y3 + ti[c] * x3)))
        ur = vr[pos * width:(pos + 1) * width]
        ui = vi[pos * width:(pos + 1) * width]
        for idx, (x, y) in minors:
            if not (x or y):
                continue
            cur = acc.get(idx)
            if cur is None:
                cur = acc[idx] = [0] * width, [0] * width
            cr, ci = cur
            for s in range(width):
                cr[s] += ur[s] * x - ui[s] * y
                ci[s] += ur[s] * y + ui[s] * x
    den = T * D ** k
    out = {}
    for idx, (cr, ci) in acc.items():
        if not (any(cr) or any(ci)):
            continue
        key = tuple(i + 1 for i in idx)
        if t.valdim is None:
            out[key] = _reduced(cr[0], ci[0], den)
        elif on_values:
            out[key] = _Column(_dot((r, i, D), (cr, ci, den)) for r, i in zip(mr, mi))
        else:
            out[key] = _Column(_reduced(x, y, den) for x, y in zip(cr, ci))
    return t._like(out)
