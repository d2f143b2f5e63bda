"""Gaussian-rational scalars, exact matrices, alternating tensors, and
the frozen coefficient table every sparse exact type is built on.

Every module downstream runs on these types.  Scalars are elements
(a + b*i)/d of Q(i), stored as three ints over one shared denominator in
the canonical form d > 0, gcd(a, b, d) = 1, so equality of any two
computed quantities is decidable and all tests are equality tests.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, prod
from itertools import combinations
from operator import itemgetter


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


class Frozen:
    """Base of the package's immutable types: attributes are set once,
    while the instance is built, and never reassigned."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^\s*({_RAT})\s*(?:([+-])\s*({_RAT})\s*\*?\s*i\s*)?$"
)
_PURE_IM_RE = _re.compile(rf"^\s*(-?)\s*({_RAT})?\s*\*?\s*i\s*$")


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
        if m.group(2) == "-":
            im_part = -im_part
        return ExactScalar(re_part, im_part)

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
        if not isinstance(n, int):
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

    def as_fraction(self) -> Fraction:
        if self.b:
            raise ChiraltorusError(f"{self} has a nonzero imaginary part")
        return Fraction(self.a, self.d)

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
            return str(self.re)
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
        x = Fraction(x)
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


S = ExactScalar
ZERO = ExactScalar(0)
ONE = ExactScalar(1)
IMAG = ExactScalar(0, 1)
HALF = ExactScalar(Fraction(1, 2))


def scalar(x) -> ExactScalar:
    """Shorthand coercion used throughout the package."""
    return ExactScalar.coerce(x)


def exact_fraction(x, what: str) -> Fraction:
    """x as a Fraction, refusing floats, complex numbers and bools as
    ExactScalar does; what names x in the error message."""
    if isinstance(x, _INEXACT):
        raise TypeError(f"{what} must be an exact rational, got {x!r}")
    return Fraction(x)


class RationalMatrix(Frozen):
    """A rows x cols matrix over ExactScalar, immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
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

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RationalMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalMatrix([[-x for x in row] for row in self.entries])

    def scale(self, c) -> "RationalMatrix":
        c = ExactScalar.coerce(c)
        return RationalMatrix(
            [[c * x for x in row] for row in self.entries]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return RationalMatrix(
            [
                [
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                        ZERO,
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        return NotImplemented

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def apply(self, vec):
        """Matrix times column vector, vec a sequence of coercibles."""
        v = [ExactScalar.coerce(x) for x in vec]
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(
            sum((self.entries[i][k] * v[k] for k in range(self.cols)), ZERO)
            for i in range(self.rows)
        )

    def _sparse_rows(self) -> list:
        return [{j: x for j, x in enumerate(row) if not x.is_zero()}
                for row in self.entries]

    def det(self) -> ExactScalar:
        """The sign of the pivot permutation times the product of the
        pivot values met on the way to echelon form; 0 when a row
        reduces to zero."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        leads = []

        def lowest(row):
            col = min(row)
            leads.append(row[col])
            return col

        basis = echelon(self._sparse_rows(), lowest)
        if len(basis) < self.rows:
            return ZERO
        return prod(leads, start=ExactScalar(_perm_sign(list(basis))))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse; raises SingularMatrix if det = 0.

        The echelon basis of [A | I], pivoting in A only, spans the rows
        (x A | x); reducing (e_j | 0) against it leaves (0 | -x) with
        x A = e_j, so row j of the inverse is minus that I part."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        rows = self._sparse_rows()
        for i, row in enumerate(rows):
            row[n + i] = ONE
        basis = echelon(rows, lambda row: col if (col := min(row)) < n else None)
        if len(basis) < n:
            raise SingularMatrix("matrix has zero determinant")
        out = []
        for j in range(n):
            rest = reduce_row({j: ONE}, basis)
            out.append([-rest[n + i] if n + i in rest else ZERO for i in range(n)])
        return RationalMatrix(out)

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


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square matrix; SingularMatrix when det = 0."""
    return m.inverse()


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


def echelon(rows, lead) -> dict:
    """Echelon basis {pivot: row scaled to 1 there} of the span of rows.

    Rows are zero-pruned dicts {column: ExactScalar} and are not
    modified.  Each row is reduced against the basis built so far; lead
    picks the pivot column of a nonzero remainder, or returns None when
    the remainder has no admissible column, and the row is then
    dropped.  There is no back-substitution: a basis row is zero at the
    pivots of the rows before it, which is all reduce_row needs.
    """
    basis = {}
    for row in rows:
        row = reduce_row(row, basis)
        if not row:
            continue
        col = lead(row)
        if col is None:
            continue
        inv = ONE / row[col]
        basis[col] = {k: v * inv for k, v in row.items()}
    return basis


def reduce_row(row, basis) -> dict:
    """row minus the combination of basis rows that is zero at every
    pivot, in one pass over the basis in the order it was built."""
    out = dict(row)
    for col, brow in basis.items():
        if col in out:
            c = -out[col]
            for k, v in brow.items():
                add_into(out, k, c * v)
    return out


class CoeffTable(Frozen):
    """A frozen, zero-pruned table {key: coefficient} of exact values.

    This is the one representation of every sparse exact type in the
    package: canonical keys, no stored zero, so two equal elements have
    equal tables and equal hashes.  Subclasses adjust it through small
    hooks: _entry canonicalises one (key, value) pair of the public
    constructor, _operand turns the right-hand side of +, - and == into
    a table of the same type, and _like rebuilds extra shape fields.
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

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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


class _Column(tuple):
    """The value of a vector-valued AltTensor entry: a tuple of scalars
    that adds and scales entrywise."""

    __slots__ = ()

    def __add__(self, other):
        return _Column(x + y for x, y in zip(self, other))

    def __mul__(self, c):
        return _Column(x * c for x in self)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self)


def _as_value(val, valdim):
    # scalar-valued entries stay bare ExactScalars; vector-valued ones
    # are length-valdim columns
    if valdim is None:
        return ExactScalar.coerce(val)
    if isinstance(val, (list, tuple)):
        col = _Column(ExactScalar.coerce(x) for x in val)
    else:
        raise DimensionMismatch("vector-valued tensor entry must be a sequence")
    if len(col) != valdim:
        raise DimensionMismatch(f"value column has length {len(col)}, expected {valdim}")
    return col


class AltTensor(Frozen):
    """An alternating k-tensor on an n-dimensional space.

    Coefficients live only on strictly increasing index tuples; the
    evaluation map extends them antisymmetrically, and any repeated
    index evaluates to exactly zero.  With valdim set, each key maps
    to a length-valdim column (a tensor valued in another space).
    Indices are 1-based, matching the way bases are written on paper.
    """

    __slots__ = ("degree", "dim", "valdim", "coeffs")

    def __init__(self, degree: int, dim: int, coeffs=None, valdim=None):
        if degree not in (2, 3):
            raise DimensionMismatch("tensor degree must be 2 or 3")
        if dim < 1:
            raise DimensionMismatch("tensor dim must be positive")
        table = {}
        for key, val in (coeffs or {}).items():
            key = tuple(int(i) for i in key)
            if len(key) != degree:
                raise DimensionMismatch(f"key {key} has wrong length for degree {degree}")
            if any(not (1 <= i <= dim) for i in key):
                raise DimensionMismatch(f"key {key} out of range for dim {dim}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise DimensionMismatch(f"key {key} is not strictly increasing")
            v = _as_value(val, valdim)
            if not v.is_zero():
                table[key] = v
        self._set(degree=degree, dim=dim, valdim=valdim, coeffs=table)

    def evaluate(self, idx):
        """Value on an arbitrary index tuple, by antisymmetrization."""
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.degree:
            raise DimensionMismatch("wrong number of arguments")
        if len(set(idx)) != len(idx):
            return self._zero_value()
        order = sorted(range(len(idx)), key=lambda p: idx[p])
        key = tuple(idx[p] for p in order)
        sign = _perm_sign(order)
        val = self.coeffs.get(key)
        if val is None:
            return self._zero_value()
        return val * ExactScalar(sign)

    def _zero_value(self):
        if self.valdim is None:
            return ZERO
        return _Column(ZERO for _ in range(self.valdim))

    def __eq__(self, other):
        if not isinstance(other, AltTensor):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.dim == other.dim
            and self.valdim == other.valdim
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.dim, self.valdim,
                     tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        if (self.degree, self.dim, self.valdim) != (other.degree, other.dim, other.valdim):
            raise DimensionMismatch("tensor addition shape mismatch")
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            add_into(out, key, val)
        return AltTensor(self.degree, self.dim, out, self.valdim)

    def __sub__(self, other):
        return self + other.scale(ExactScalar(-1))

    def __neg__(self):
        return self.scale(ExactScalar(-1))

    def scale(self, c) -> "AltTensor":
        c = ExactScalar.coerce(c)
        return AltTensor(
            self.degree,
            self.dim,
            {k: v * c for k, v in self.coeffs.items()},
            self.valdim,
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def map_values(self, fn) -> "AltTensor":
        """Apply fn to each value column (used to post-compose with a map)."""
        return AltTensor(
            self.degree,
            self.dim,
            {k: fn(v) for k, v in self.coeffs.items()},
            self.valdim,
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for key in sorted(self.coeffs):
            val = self.coeffs[key]
            label = "".join(f"e{i}*" for i in key)
            if isinstance(val, tuple):
                col = "(" + ", ".join(str(x) for x in val) + ")"
                bits.append(f"{col} {label}")
            else:
                bits.append(f"({val}) {label}")
        return " + ".join(bits)

    __repr__ = __str__

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


def _perm_sign(perm) -> int:
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


def compositions(total: int, parts: int):
    """All tuples of parts nonnegative integers summing to total, in
    lexicographic order; one empty tuple for total = parts = 0."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


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
    return _pullback_by_inverse(k, mu.inverse(), t)


def _pullback_by_inverse(k: int, inv: RationalMatrix, t: AltTensor) -> AltTensor:
    """alt_pullback given inv = mu^{-1}, for a k-tensor t of matching dim.

    Only the keys J of t are walked.  The 2x2 minors of a row pair are
    tabulated once over every column pair: for k = 2 they are the (J, I)
    minors, and for k = 3 each minor is the Laplace expansion along J's
    first row over the table of its last two rows, shared by every I and
    by every J that ends in the same pair.
    """
    rows = inv.entries
    cols = range(1, inv.rows + 1)
    tables = {}
    out = {}
    for key, val in t.coeffs.items():
        pair = key[-2:]
        m2 = tables.get(pair)
        if m2 is None:
            ra, rb = rows[pair[0] - 1], rows[pair[1] - 1]
            m2 = tables[pair] = {
                (a, b): ra[a - 1] * rb[b - 1] - ra[b - 1] * rb[a - 1]
                for a, b in combinations(cols, 2)
            }
        if k == 2:
            minors = m2.items()
        else:
            top = rows[key[0] - 1]
            minors = (
                ((a, b, c), top[a - 1] * m2[b, c] - top[b - 1] * m2[a, c]
                 + top[c - 1] * m2[a, b])
                for a, b, c in combinations(cols, 3)
            )
        for idx, minor in minors:
            if not minor.is_zero():
                add_into(out, idx, val * minor)
    return AltTensor(k, inv.rows, out, t.valdim)
