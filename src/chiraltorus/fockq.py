"""Lattice models, momentum/winding sectors, and truncated Fock modules.

A model is a torus R^n / L with an exact metric, an antisymmetric B-field,
and the dual lattice computed as the inverse transpose.  One-dimensional
models carry their scale as a formal unit u = 2 pi R: lattice vectors are
integer multiples of u, dual vectors of u^{-1}, and only even powers of u
ever reach an observable, so declaring a rational value for u^2 (or none
at all, the generic case) keeps every computation in exact arithmetic.

Sectors are labeled by (l, l*) in L + L*, with weight covectors
a_pm = -l* + B(l) +- g(l); every sector quantity is an integer form in
the coordinates, tabulated once per model (SectorTables).  Fock
truncations realize the mode algebra [alpha^i_m, alpha^j_n] =
-1/2 g^{ij} m delta_{m,-n} on colored partitions up to a level cutoff,
with Virasoro operators normalized by the commutation constraint
[L_k, alpha_m] = -m alpha_{k+m}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from itertools import product as iter_product
from math import lcm
from operator import mul

from .exactlin import (
    HALF,
    ONE,
    ZERO,
    ChiraltorusError,
    CoeffTable,
    DimensionMismatch,
    ExactScalar,
    Frozen,
    InvariantError,
    PreconditionError,
    RationalMatrix,
    S,
    _reduced,
    add_into,
    compositions,
    exact_fraction,
)


MINUS_HALF = -HALF


class NotPositiveDefinite(PreconditionError):
    """Metric fails symmetry or a leading principal minor test."""


class NotAntisymmetric(PreconditionError):
    """B-field is not antisymmetric."""


class SingularLattice(PreconditionError):
    """Lattice generators are linearly dependent."""


class NotInLattice(PreconditionError):
    """Coordinates are not integral."""


class CutoffExceeded(PreconditionError):
    """Requested mode lies outside the truncation."""


class ModelMismatch(PreconditionError):
    """Sectors belong to different models."""


class BFieldUnsupported(PreconditionError):
    """T-duality is only defined at B = 0."""


class FormalUnitValue(PreconditionError):
    """A numeric value was requested of a formal unit expression."""


# ----------------------------------------------------------------------
# the formal scale unit
# ----------------------------------------------------------------------

class UnitScalar(CoeffTable):
    """An exact Laurent polynomial in the formal unit u: a table
    {exponent: ExactScalar}."""

    __slots__ = ()

    @staticmethod
    def coerce(x) -> "UnitScalar":
        if isinstance(x, UnitScalar):
            return x
        return UnitScalar({0: S.coerce(x)})

    @staticmethod
    def unit(power: int = 1, coeff=1) -> "UnitScalar":
        return UnitScalar({power: S.coerce(coeff)})

    def _operand(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return UnitScalar.coerce(other)
        return super()._operand(other)

    __radd__ = CoeffTable.__add__

    def __mul__(self, other):
        other = UnitScalar.coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                add_into(out, e1 + e2, c1 * c2)
        return self._like(out)

    __rmul__ = __mul__

    def as_exact(self) -> ExactScalar:
        """The numeric value; defined only when no unit power remains."""
        if any(e != 0 for e in self.coeffs):
            raise FormalUnitValue(f"{self} carries unresolved unit powers")
        return self.coeffs.get(0, ZERO)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            head = str(c)
            if e != 0:
                upow = "u" if e == 1 else f"u^{e}"
                head = upow if c == ONE else f"{c}*{upow}"
            bits.append(head)
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}


# ----------------------------------------------------------------------
# lattice models
# ----------------------------------------------------------------------

def _check_positive_definite(g: RationalMatrix):
    n = g.rows
    for i in range(n):
        for j in range(n):
            if g[(i, j)] != g[(j, i)]:
                raise NotPositiveDefinite("metric must be symmetric")
            if not g[(i, j)].is_rational():
                raise NotPositiveDefinite("metric must be real")
    for k in range(1, n + 1):
        minor = RationalMatrix([[g[(i, j)] for j in range(k)] for i in range(k)])
        d = minor.det()
        if not d.is_rational() or d.a <= 0:
            raise NotPositiveDefinite(f"leading minor {k} is not positive")


class LatticeModel(Frozen):
    """Torus data (n, g, B, L) with the derived dual lattice."""

    __slots__ = ("n", "g", "B", "Lbasis", "LstarBasis", "g_inv",
                 "unit_exponent", "u_square", "__dict__")

    def __init__(self, n, g, B, Lbasis, unit_exponent=0, u_square=None):
        g = g if isinstance(g, RationalMatrix) else RationalMatrix(g)
        B = B if isinstance(B, RationalMatrix) else RationalMatrix(B)
        L = Lbasis if isinstance(Lbasis, RationalMatrix) else RationalMatrix(Lbasis)
        if g.rows != n or g.cols != n or B.rows != n or B.cols != n \
                or L.rows != n or L.cols != n:
            raise DimensionMismatch("model matrices must be n x n")
        if unit_exponent not in (-1, 0, 1):
            raise ChiraltorusError("unit exponent must be -1, 0, or 1")
        _check_positive_definite(g)
        if B.transpose() != B.scale(S(-1)):
            raise NotAntisymmetric("B must equal -B^T")
        if L.det().is_zero():
            raise SingularLattice("lattice generators are dependent")
        if u_square is not None:
            u_square = exact_fraction(u_square, "u_square")
            if unit_exponent and not u_square:
                raise SingularLattice("u_square must be nonzero: u^-1 = u / u^2")
            if unit_exponent == -1:
                # u^{-1} = u / u^2, so a declared unit square lets the basis
                # absorb the inverted unit; canonical form keeps exponent +1.
                L = L.scale(S(1 / u_square))
                unit_exponent = 1
        self._set(
            n=n,
            g=g,
            B=B,
            Lbasis=L,
            LstarBasis=L.transpose().inverse(),
            g_inv=g.inverse(),
            unit_exponent=unit_exponent,
            u_square=u_square,
        )

    # the SectorTables, built on first use
    tables = cached_property(lambda m: SectorTables(m))

    def __eq__(self, other):
        if not isinstance(other, LatticeModel):
            return NotImplemented
        return (
            self.n == other.n
            and self.g == other.g
            and self.B == other.B
            and self.Lbasis == other.Lbasis
            and self.unit_exponent == other.unit_exponent
            and self.u_square == other.u_square
        )

    def canon(self, x: UnitScalar) -> UnitScalar:
        """Fold u^2 to its declared rational value, if any."""
        if self.u_square is None:
            return x
        rho = S(self.u_square)
        return UnitScalar((e % 2, c * rho ** (e // 2)) for e, c in x.coeffs.items())

    def lattice_vector(self, coords) -> tuple:
        """Ambient vector of integer coordinates in Lbasis, carrying u^e."""
        coords = _as_integer_coords(coords, self.n)
        return self.tables.l.apply(coords + [0] * self.n)

    def dual_vector(self, coords) -> tuple:
        """Ambient covector of integer coordinates in LstarBasis, u^{-e}."""
        coords = _as_integer_coords(coords, self.n)
        return self.tables.lstar.apply([0] * self.n + coords)

    def pairing_matrix(self) -> RationalMatrix:
        """LstarBasis^T Lbasis; unimodular integer for a true dual pair."""
        return self.LstarBasis.transpose() * self.Lbasis

    def sector(self, l_coords, lstar_coords) -> "Sector":
        return Sector(self, l_coords, lstar_coords)

    def to_json(self):
        def mat(m):
            return [[str(m[(i, j)]) for j in range(m.cols)] for i in range(m.rows)]

        out = {"n": self.n, "g": mat(self.g), "B": mat(self.B),
               "L": mat(self.Lbasis)}
        if self.unit_exponent:
            out["unit_exponent"] = self.unit_exponent
            out["u_square"] = None if self.u_square is None else str(self.u_square)
        return out


def _as_integer_coords(coords, n):
    vals = [c if type(c) is int else S.coerce(c) for c in coords]
    if len(vals) != n:
        raise DimensionMismatch(f"expected {n} coordinates")
    for v in vals:
        if type(v) is not int and not v.is_integer():
            raise NotInLattice(f"coordinate {v} is not an integer")
    return [v if type(v) is int else v.a for v in vals]


def build_model(n, g, B, Lbasis) -> LatticeModel:
    return LatticeModel(n, g, B, Lbasis)


def one_dim_model(radius_unit=None) -> LatticeModel:
    """The circle of scale u = 2 pi R.  A rational argument declares the
    value of u (so u^2 becomes rational); None keeps the unit formal,
    the generic-radius case."""
    u_square = None
    if radius_unit is not None:
        r = exact_fraction(radius_unit, "radius_unit")
        if r <= 0:
            raise SingularLattice("scale must be positive")
        u_square = r * r
    return LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=1,
                        u_square=u_square)


def load_model(data) -> LatticeModel:
    """Model from its JSON form: either full matrices or the 1-d
    {"radius_unit": "p/q"} shorthand."""
    if "radius_unit" in data:
        return one_dim_model(data["radius_unit"])
    return LatticeModel(
        data["n"],
        [[S.coerce(x) for x in row] for row in data["g"]],
        [[S.coerce(x) for x in row] for row in data["B"]],
        [[S.coerce(x) for x in row] for row in data["L"]],
        unit_exponent=data.get("unit_exponent", 0),
        u_square=data.get("u_square"),
    )


# ----------------------------------------------------------------------
# sector tables
# ----------------------------------------------------------------------

_UNIT = UnitScalar()


def _unit_at(parts, x, den) -> UnitScalar:
    """sum_p u^p (re . x + i im . x) / den over integer rows (p, re, im)."""
    table = {}
    for p, re, im in parts:
        a = sum(map(mul, re, x))
        b = sum(map(mul, im, x)) if im else 0
        if a or b:
            table[p] = _reduced(a, b, den)
    return _UNIT._like(table)


def _row_times(x, rows) -> tuple:
    return tuple(sum(map(mul, x, col)) for col in zip(*rows))


class IntegerForm(Frozen):
    """A matrix over Q(i) in the coordinates x = (l, l*), folded through
    canon once and split by power of u into parts (power, re, im):
    integer matrices over one denominator den, im None when it vanishes.

    Column j carries u^e on the l block and u^-e on the l* block, e the
    model's unit exponent; the rows of a 2n x 2n matrix (a bilinear
    form) carry the same powers, the rows of an n x 2n one none."""

    __slots__ = ("rows", "den", "parts")

    def __init__(self, model, matrix: RationalMatrix):
        e, n, rho = model.unit_exponent, model.n, model.u_square
        signs = [1] * n + [-1] * n
        grids = {}
        for i, row in enumerate(matrix.entries):
            for j, x in enumerate(row):
                if x.is_zero():
                    continue
                p = e * (signs[j] + (signs[i] if matrix.rows > n else 0))
                if rho is not None:
                    # canon is a ring homomorphism: u^p -> rho^(p // 2) u^(p % 2)
                    x, p = x * S(rho) ** (p // 2), p % 2
                if p not in grids:
                    grids[p] = [[ZERO] * matrix.cols for _ in matrix.entries]
                grids[p][i][j] = x
        den = lcm(*(x.d for grid in grids.values() for row in grid for x in row))
        parts = []
        for p, grid in sorted(grids.items()):
            re = tuple(tuple(x.a * (den // x.d) for x in row) for row in grid)
            im = tuple(tuple(x.b * (den // x.d) for x in row) for row in grid)
            parts.append((p, re, im if any(map(any, im)) else None))
        self._set(rows=matrix.rows, den=den, parts=tuple(parts))

    def apply(self, x) -> tuple:
        """M x, one UnitScalar per row."""
        return tuple(
            _unit_at([(p, re[i], im and im[i]) for p, re, im in self.parts],
                     x, self.den)
            for i in range(self.rows))

    def times(self, x) -> tuple:
        """x^T M as integer parts, for at()."""
        return tuple((p, _row_times(x, re), im and _row_times(x, im))
                     for p, re, im in self.parts)

    def at(self, row, y) -> UnitScalar:
        """x^T M y from row = times(x)."""
        return _unit_at(row, y, self.den)

    def half_square(self, x) -> UnitScalar:
        """1/2 x^T M x."""
        return _unit_at(self.times(x), x, 2 * self.den)


def _hstack(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([a + b for a, b in zip(left.entries, right.entries)])


class SectorTables(Frozen):
    """Every sector quantity of a model as an integer form in the
    coordinates x = (l, l*) in Z^{2n}, each form built on first use.

    With P_pm = (B^T +- g) L, the weight covectors are a_pm = A_pm x for
    A_pm = [P_pm u^e | -L* u^{-e}], the momenta p_pm = -1/2 g^{-1} a_pm,
    and H_pm = -1/2 A_pm^T g^{-1} A_pm gives the branch exponents
    x1^T H_pm x2 and the weights 1/2 x^T H_pm x.
    """

    __slots__ = ("model", "__dict__")

    def __init__(self, model: LatticeModel):
        self._set(model=model)

    def _weight(self, sign) -> RationalMatrix:
        """A_pm without its powers of u: [P_pm | -L*]."""
        m = self.model
        return _hstack((m.B.transpose() + m.g.scale(sign)) * m.Lbasis, -m.LstarBasis)

    def _exponent(self, sign) -> RationalMatrix:
        """H_pm without its powers of u."""
        a = self._weight(sign)
        return a.transpose() * (self.model.g_inv * a) * MINUS_HALF

    l = cached_property(lambda t: IntegerForm(t.model, _hstack(
        t.model.Lbasis, RationalMatrix.zeros(t.model.n, t.model.n))))
    lstar = cached_property(lambda t: IntegerForm(t.model, _hstack(
        RationalMatrix.zeros(t.model.n, t.model.n), t.model.LstarBasis)))
    a_plus = cached_property(lambda t: IntegerForm(t.model, t._weight(1)))
    a_minus = cached_property(lambda t: IntegerForm(t.model, t._weight(-1)))
    p_plus = cached_property(lambda t: IntegerForm(
        t.model, t.model.g_inv * t._weight(1) * MINUS_HALF))
    p_minus = cached_property(lambda t: IntegerForm(
        t.model, t.model.g_inv * t._weight(-1) * MINUS_HALF))
    h_plus = cached_property(lambda t: IntegerForm(t.model, t._exponent(1)))
    h_minus = cached_property(lambda t: IntegerForm(t.model, t._exponent(-1)))
    # H_+ - H_-, so that hol - antihol costs one dot product
    h_difference = cached_property(lambda t: IntegerForm(
        t.model, t._exponent(1) - t._exponent(-1)))


# ----------------------------------------------------------------------
# sectors
# ----------------------------------------------------------------------

class Sector(Frozen):
    """A momentum/winding label (l, l*) with its weight covectors.

    a_plus = -l* + B(l) + g(l) and a_minus = -l* + B(l) - g(l), where
    B(l) is the covector l^T B.  Conformal weights are the measured
    zero-mode eigenvalues h = -1/4 g^{-1}(a, a) of the implemented
    Virasoro normalization.  The sector holds its integer coordinates;
    each quantity is read from the model's SectorTables when first asked
    for.
    """

    __slots__ = ("model", "l_coords", "lstar_coords", "coords", "__dict__")

    l = cached_property(lambda s: s.model.tables.l.apply(s.coords))
    lstar = cached_property(lambda s: s.model.tables.lstar.apply(s.coords))
    a_plus = cached_property(lambda s: s.model.tables.a_plus.apply(s.coords))
    a_minus = cached_property(lambda s: s.model.tables.a_minus.apply(s.coords))
    h = cached_property(lambda s: s.model.tables.h_plus.half_square(s.coords))
    hbar = cached_property(lambda s: s.model.tables.h_minus.half_square(s.coords))

    def __init__(self, model: LatticeModel, l_coords, lstar_coords):
        l_coords = tuple(_as_integer_coords(l_coords, model.n))
        lstar_coords = tuple(_as_integer_coords(lstar_coords, model.n))
        self._set(model=model, l_coords=l_coords, lstar_coords=lstar_coords,
                  coords=l_coords + lstar_coords)

    def one_dim_labels(self):
        """The chiral/antichiral module labels a_pm / 2 of a circle
        sector: (l - l*) / 2 and -(l + l*) / 2."""
        if self.model.n != 1:
            raise DimensionMismatch("labels specific to one dimension")
        return (self.a_plus[0] * HALF, self.a_minus[0] * HALF)

    def key(self):
        return (self.l_coords, self.lstar_coords)

    def __eq__(self, other):
        if not isinstance(other, Sector):
            return NotImplemented
        return self.model == other.model and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return f"sector l={self.l_coords} l*={self.lstar_coords}"

    __repr__ = __str__

    def to_json(self):
        return {
            "l": list(self.l_coords),
            "lstar": list(self.lstar_coords),
            "a_plus": [a.to_json() for a in self.a_plus],
            "a_minus": [a.to_json() for a in self.a_minus],
            "h": self.h.to_json(),
            "hbar": self.hbar.to_json(),
        }


def enumerate_sectors(model: LatticeModel, cutoff: int):
    """All sectors with coordinate sup-norm at most cutoff, in
    lexicographic order."""
    rng = range(-cutoff, cutoff + 1)
    out = []
    for lc in iter_product(rng, repeat=model.n):
        for sc in iter_product(rng, repeat=model.n):
            out.append(Sector(model, lc, sc))
    return out


def spectrum_point(model: LatticeModel, l_coords, lstar_coords):
    """Joint zero-mode spectrum of a sector: the vector pair
    (1/2(g^{-1}(l* - B(l)) - l), 1/2(g^{-1}(l* - B(l)) + l)), equal to
    (-1/2 g^{-1} a_plus, -1/2 g^{-1} a_minus)."""
    x = Sector(model, l_coords, lstar_coords).coords
    tables = model.tables
    return (tables.p_plus.apply(x), tables.p_minus.apply(x))


def vertex_exponents(s1: Sector, s2: Sector):
    """Branch exponents of the product of two sector vertex operators:
    hol = -1/2 g^{-1}(a1+, a2+), antihol = -1/2 g^{-1}(a1-, a2-).
    Their difference is <l1*, l2> + <l2*, l1>, an integer."""
    if s1.model != s2.model:
        raise ModelMismatch("sectors from different models")
    tables = s1.model.tables
    return tuple(h.at(h.times(s1.coords), s2.coords)
                 for h in (tables.h_plus, tables.h_minus))


def locality_pairs(model: LatticeModel, cutoff: int):
    """Every ordered pair of sectors within the cutoff with its branch
    exponents, as (s1, s2, hol, antihol, hol - antihol): one row
    x1^T H_pm per s1, then one dot product per s2."""
    tables = model.tables
    h_plus, h_minus, h_diff = tables.h_plus, tables.h_minus, tables.h_difference
    sectors = enumerate_sectors(model, cutoff)
    for s1 in sectors:
        x = s1.coords
        r_plus, r_minus, r_diff = h_plus.times(x), h_minus.times(x), h_diff.times(x)
        for s2 in sectors:
            y = s2.coords
            yield (s1, s2, h_plus.at(r_plus, y), h_minus.at(r_minus, y),
                   h_diff.at(r_diff, y).as_exact())


def ko_locality(model: LatticeModel, cutoff: int):
    """Exponent table over all sector pairs within the cutoff, checking
    that hol - antihol is an integer (single-valued correlator branch)."""
    rows = []
    all_integral = True
    for s1, s2, hol, antihol, diff in locality_pairs(model, cutoff):
        integral = diff.is_integer()
        all_integral = all_integral and integral
        rows.append({
            "l1": list(s1.l_coords), "lstar1": list(s1.lstar_coords),
            "l2": list(s2.l_coords), "lstar2": list(s2.lstar_coords),
            "hol": str(hol), "antihol": str(antihol),
            "difference": str(diff), "integral": integral,
        })
    return {"cutoff": cutoff, "all_integral": all_integral, "pairs": rows}


def t_dual(model: LatticeModel) -> LatticeModel:
    """The dual torus: same metric, lattice g^{-1}(L*), so the roles of
    g(L) and L* swap.  Defined only at B = 0."""
    if not all(
        model.B[(i, j)].is_zero()
        for i in range(model.n) for j in range(model.n)
    ):
        raise BFieldUnsupported("duality requires B = 0")
    new_basis = model.g_inv * model.LstarBasis
    return LatticeModel(model.n, model.g, model.B, new_basis,
                        unit_exponent=-model.unit_exponent,
                        u_square=model.u_square)


def chiral_sectors(model: LatticeModel, cutoff: int):
    """Sectors whose antichiral weight vanishes: l* = B(l) - g(l)."""
    return [
        s for s in enumerate_sectors(model, cutoff)
        if all(a.is_zero() for a in s.a_minus)
    ]


# ----------------------------------------------------------------------
# truncated Fock modules
# ----------------------------------------------------------------------

def _partitions_upto(total):
    """Partitions as descending tuples, grouped by size 0..total."""

    def parts_of(k, maxpart):
        if k == 0:
            yield ()
            return
        for first in range(min(k, maxpart), 0, -1):
            for rest in parts_of(k - first, first):
                yield (first,) + rest

    return [list(parts_of(k, k)) for k in range(total + 1)]


class SparseOp(Frozen):
    """A sparse exact operator on an indexed basis: column -> row -> coeff."""

    __slots__ = ("table", "dim")

    def __init__(self, dim, table=None):
        clean = {}
        for col, column in (table or {}).items():
            entries = {r: c for r, c in column.items() if not c.is_zero()}
            if entries:
                clean[col] = entries
        self._set(dim=dim, table=clean)

    @staticmethod
    def _trusted(dim, table):
        """An operator around nonempty, zero-pruned columns, taken
        without copying or re-checking."""
        out = object.__new__(SparseOp)
        out._set(dim=dim, table=table)
        return out

    @staticmethod
    def zero(dim):
        return SparseOp(dim)

    @staticmethod
    def identity(dim, scalar=1):
        c = S.coerce(scalar)
        return SparseOp(dim, {k: {k: c} for k in range(dim)})

    def column(self, col):
        return dict(self.table.get(col, {}))

    def __add__(self, other):
        # columns are never mutated once built, so untouched ones are shared
        out = dict(self.table)
        for c, col in other.table.items():
            tgt = dict(out.get(c, ()))
            for r, v in col.items():
                add_into(tgt, r, v)
            if tgt:
                out[c] = tgt
            else:
                out.pop(c, None)
        return SparseOp._trusted(self.dim, out)

    def __sub__(self, other):
        return self + other.scale(S(-1))

    def scale(self, c):
        c = S.coerce(c)
        if c.is_zero():
            return SparseOp(self.dim)
        return SparseOp._trusted(
            self.dim,
            {col: {r: c * v for r, v in column.items()}
             for col, column in self.table.items()},
        )

    def __matmul__(self, other):
        """self after other."""
        out = {}
        for col, column in other.table.items():
            acc = {}
            for mid, v in column.items():
                for r, w in self.table.get(mid, {}).items():
                    add_into(acc, r, v * w)
            if acc:
                out[col] = acc
        return SparseOp._trusted(self.dim, out)

    def commutator(self, other):
        return (self @ other) - (other @ self)

    def __eq__(self, other):
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    def __hash__(self):
        return hash((self.dim, tuple(sorted(
            (c, tuple(sorted(col.items()))) for c, col in self.table.items()
        ))))

    def agrees_on(self, other, cols) -> bool:
        return all(self.column(c) == other.column(c) for c in cols)


def _append_part(vec, i, part):
    """The partition state vec with one more part `part` in colour i."""
    return vec[:i] + (tuple(sorted(vec[i] + (part,), reverse=True)),) + vec[i + 1:]


def _remove_part(vec, i, part):
    """(vec with one part `part` taken from colour i, the multiplicity of
    that part in vec), or (None, 0) when colour i has no such part."""
    parts = vec[i]
    if part not in parts:
        return None, 0
    k = parts.index(part)
    return vec[:i] + (parts[:k] + parts[k + 1:],) + vec[i + 1:], parts.count(part)


class FockTruncation(Frozen):
    """Level-truncated highest-weight module over the mode algebra.

    Basis vectors are n-colored partitions applied to the weight vector;
    creation operators append parts, annihilation removes them with the
    -1/2 g^{ij} m coefficient, and the zero modes act by the scalars
    zero_modes = -1/2 g^{-1} w of the weight covector w.
    """

    __slots__ = ("model", "weight", "N", "basis", "index", "levels",
                 "zero_modes", "_alpha_cache")

    def __init__(self, model: LatticeModel, weight, N: int):
        if N < 0:
            raise ChiraltorusError("cutoff must be nonnegative")
        weight = tuple(S.coerce(w) for w in weight)
        if len(weight) != model.n:
            raise DimensionMismatch("weight covector has wrong length")
        per_level = _partitions_upto(N)
        basis, levels = [], []
        for total in range(N + 1):
            level_vectors = []
            for split in compositions(total, model.n):
                for combo in iter_product(*[per_level[k] for k in split]):
                    level_vectors.append(tuple(combo))
            basis.extend(sorted(level_vectors))
            levels.extend([total] * len(level_vectors))
        zero_modes = tuple(MINUS_HALF * x for x in model.g_inv.apply(weight))
        self._set(model=model, weight=weight, N=N, basis=tuple(basis),
                  index={v: k for k, v in enumerate(basis)},
                  levels=tuple(levels), zero_modes=zero_modes, _alpha_cache={})

    @property
    def dim(self):
        return len(self.basis)

    def level_dimensions(self):
        return [self.levels.count(k) for k in range(self.N + 1)]

    def vectors_up_to_level(self, k):
        return [i for i, level in enumerate(self.levels) if level <= k]

    def _operator(self, terms, k) -> SparseOp:
        """The operator sum c * edits over terms (c, edits) that each lower
        the level by k.  The edits (i, m) act in order on a column's
        partition state: m < 0 appends part -m to colour i, m > 0 removes
        a part m and multiplies c by its multiplicity.  A column whose
        image would lie above level N is left out."""
        terms = [(c, edits) for c, edits in terms if not c.is_zero()]
        table = {}
        for col, vec in enumerate(self.basis):
            if self.levels[col] - k > self.N:
                continue
            out = {}
            for c, edits in terms:
                new, mult = vec, 1
                for i, m in edits:
                    if m < 0:
                        new = _append_part(new, i, -m)
                    else:
                        new, count = _remove_part(new, i, m)
                        if not count:
                            break
                        mult *= count
                else:
                    add_into(out, self.index[new], c * mult if mult > 1 else c)
            if out:
                table[col] = out
        return SparseOp._trusted(self.dim, table)

    def alpha(self, i: int, m: int) -> SparseOp:
        """Mode operator alpha^i_m, 1-based color, |m| <= N."""
        if not 1 <= i <= self.model.n:
            raise DimensionMismatch(f"no color {i}")
        if abs(m) > self.N:
            raise CutoffExceeded(f"mode {m} outside cutoff {self.N}")
        key = (i, m)
        if key not in self._alpha_cache:
            if m < 0:
                terms = [(ONE, ((i - 1, m),))]
            elif m > 0:
                terms = [(MINUS_HALF * m * self.model.g_inv[(i - 1, j)], ((j, m),))
                         for j in range(self.model.n)]
            else:
                terms = [(self.zero_modes[i - 1], ())]
            self._alpha_cache[key] = self._operator(terms, m)
        return self._alpha_cache[key]

    def virasoro(self, k: int) -> SparseOp:
        """L_k = -sum_m :g_{ij} alpha^i_m alpha^j_{k-m}:, normalized so
        that [L_k, alpha^j_m] = -m alpha^j_{k+m} inside the truncation.

        Built column by column from the Sugawara formula with one index
        lowered, with no operator products.  With c_i(m) appending part m
        to colour i, a_i(m) removing one times its multiplicity and
        lambda = zero_modes, the term of mode m (p = m, q = k - m, swapped
        when p > 0 > q so that the annihilator acts first) is

            p, q < 0         -g_ij c_i(-p) c_j(-q)
            p < 0 < q        +1/2 q c_i(-p) a_i(q)
            p, q > 0         -1/4 pq g^{ab} a_a(p) a_b(q)
            r < 0, other 0   +1/2 w_i c_i(-r)
            r > 0, other 0   +1/2 r lambda_a a_a(r) = -1/4 r (g^{-1} w)_a a_a(r)
            p = q = 0        +1/2 w_i lambda_i = -1/4 w^T g^{-1} w

        The mixed term carries no metric: g_ij g^{jb} = delta_i^b exactly.
        Every term lowers the level by k, so the level-N cut of the
        truncated product is a cut on the final level alone."""
        if abs(k) > self.N:
            raise CutoffExceeded(f"mode {k} outside cutoff {self.N}")
        g, ginv = self.model.g, self.model.g_inv
        w, lam, colours = self.weight, self.zero_modes, range(self.model.n)
        terms = []
        for m in range(max(-self.N, k - self.N), min(self.N, k + self.N) + 1):
            p, q = m, k - m
            if p > 0 > q:
                p, q = q, p
            if p < 0 and q < 0:
                terms += [(-g[(i, j)], ((j, q), (i, p)))
                          for i in colours for j in colours]
            elif p < 0 < q:
                terms += [(HALF * q, ((i, q), (i, p))) for i in colours]
            elif p > 0 and q > 0:
                c = MINUS_HALF * HALF * (p * q)
                terms += [(c * ginv[(a, b)], ((b, q), (a, p)))
                          for a in colours for b in colours]
            elif p + q < 0:
                terms += [(HALF * w[i], ((i, p + q),)) for i in colours]
            elif p + q > 0:
                terms += [(HALF * (p + q) * lam[a], ((a, p + q),)) for a in colours]
            else:
                terms.append((HALF * sum(map(mul, w, lam), ZERO), ()))
        return self._operator(terms, k)


def build_fock(model: LatticeModel, weight, N: int) -> FockTruncation:
    return FockTruncation(model, weight, N)


def virasoro_mode(fock: FockTruncation, k: int) -> SparseOp:
    return fock.virasoro(k)


def central_charge(model: LatticeModel, N: int = 3) -> ExactScalar:
    """Measure c on the vacuum module: ([L_2, L_-2] - 4 L_0) acts there
    by c/2."""
    fock = FockTruncation(model, [0] * model.n, N)
    l2 = fock.virasoro(2)
    lm2 = fock.virasoro(-2)
    l0 = fock.virasoro(0)
    op = l2.commutator(lm2) - l0.scale(4)
    vac = fock.index[((),) * model.n]
    column = op.column(vac)
    value = column.get(vac, ZERO)
    if set(column) - {vac}:
        raise InvariantError("central measurement is not diagonal on the vacuum")
    return value + value


class TwoSidedFock(Frozen):
    """Product of a chiral and an antichiral truncation, for checking
    that the two mode families literally commute as matrices."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: FockTruncation, minus: FockTruncation):
        self._set(plus=plus, minus=minus)

    @property
    def dim(self):
        return self.plus.dim * self.minus.dim

    def _lift(self, op: SparseOp, side: str) -> SparseOp:
        dm = self.minus.dim
        table = {}
        if side == "+":
            for col, column in op.table.items():
                for other in range(dm):
                    table[col * dm + other] = {
                        r * dm + other: v for r, v in column.items()
                    }
        else:
            for base in range(self.plus.dim):
                for col, column in op.table.items():
                    table[base * dm + col] = {
                        base * dm + r: v for r, v in column.items()
                    }
        return SparseOp._trusted(self.dim, table)

    def alpha(self, i: int, m: int, side: str = "+") -> SparseOp:
        if side == "+":
            return self._lift(self.plus.alpha(i, m), "+")
        return self._lift(self.minus.alpha(i, m), "-")

    def virasoro(self, k: int, side: str = "+") -> SparseOp:
        if side == "+":
            return self._lift(self.plus.virasoro(k), "+")
        return self._lift(self.minus.virasoro(k), "-")


# ----------------------------------------------------------------------
# characters
# ----------------------------------------------------------------------

def colored_partition_counts(n: int, order: int):
    """Coefficients of prod_k (1 - q^k)^{-n} up to q^order."""
    counts = [1] + [0] * order
    for _ in range(n):
        for k in range(1, order + 1):
            for j in range(k, order + 1):
                counts[j] += counts[j - k]
    return counts


class QSeries(CoeffTable):
    """Truncated exact series in q with a rational leading exponent: a
    table {Fraction exponent: ExactScalar} holding no exponent above cap."""

    __slots__ = ("cap",)

    def __init__(self, coeffs, cap):
        self._set(cap=Fraction(cap))
        super().__init__(coeffs)

    def _entry(self, e, c):
        e = Fraction(e)
        return (e, S.coerce(c)) if e <= self.cap else None

    def _like(self, table):
        out = super()._like(table)
        out._set(cap=self.cap)
        return out

    def leading(self):
        return min(self.coeffs, default=None)

    def __add__(self, other):
        return QSeries(chain(self.coeffs.items(), other.coeffs.items()),
                       min(self.cap, other.cap))

    def __mul__(self, other):
        lead_s = self.leading()
        lead_o = other.leading()
        if lead_s is None or lead_o is None:
            return QSeries({}, min(self.cap, other.cap))
        cap = min(self.cap + lead_o, other.cap + lead_s)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= cap:
                    add_into(out, e, c1 * c2)
        return QSeries(out, cap)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            else:
                head = "q" if e == 1 else f"q^{e}"
                bits.append(head if c == ONE else f"{c}*{head}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}


def character(model: LatticeModel, sector: Sector, order: int) -> QSeries:
    """q^h times the oscillator tower prod (1-q^k)^{-n}, level-truncated."""
    h = sector.h.as_exact()
    if h.im != 0:
        raise FormalUnitValue("complex weight has no character exponent")
    counts = colored_partition_counts(model.n, order)
    return QSeries({h.re + k: counts[k] for k in range(order + 1)},
                   h.re + order)


class BiSeries(CoeffTable):
    """Truncated exact series in q and qbar: a table
    {(Fraction, Fraction): ExactScalar}."""

    __slots__ = ()

    def _entry(self, key, c):
        return (Fraction(key[0]), Fraction(key[1])), S.coerce(c)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (e, eb) in sorted(self.coeffs):
            c = self.coeffs[(e, eb)]
            head = f"q^{e}*qb^{eb}"
            bits.append(head if c == ONE else f"{c}*{head}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        return {f"{e}|{eb}": str(c) for (e, eb), c in sorted(self.coeffs.items())}


def partition_function(model: LatticeModel, cutoff: int, order: int,
                       sector_filter=None) -> BiSeries:
    """Sum of q^{h+k} qbar^{hbar+kbar} with colored-partition
    multiplicities, over enumerated sectors and oscillator levels up to
    order."""
    counts = colored_partition_counts(model.n, order)
    terms = []
    for s in enumerate_sectors(model, cutoff):
        if sector_filter is not None and not sector_filter(s):
            continue
        h = s.h.as_exact().re
        hbar = s.hbar.as_exact().re
        for k in range(order + 1):
            for kb in range(order + 1):
                terms.append(((h + k, hbar + kb), counts[k] * counts[kb]))
    return BiSeries(terms)
