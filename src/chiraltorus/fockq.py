"""Lattice models, momentum/winding sectors, and truncated Fock modules.

A model is a torus R^n / L with an exact metric, an antisymmetric B-field,
and the dual lattice computed as the inverse transpose.  One-dimensional
models carry their scale as a formal unit u = 2 pi R: lattice vectors are
integer multiples of u, dual vectors of u^{-1}, and only even powers of u
ever reach an observable, so declaring a rational value for u^2 (or none
at all, the generic case) keeps every computation in exact arithmetic.

Sectors are labeled by (l, l*) in L + L*, with weight covectors
a_pm = -l* + B(l) +- g(l); every sector quantity is an integer form in
the coordinates, built once per model and kept on the model.  Fock
truncations realize the mode algebra [alpha^i_m, alpha^j_n] =
-1/2 g^{ij} m delta_{m,-n} on colored partitions up to a level cutoff,
with Virasoro operators normalized by the commutation constraint
[L_k, alpha_m] = -m alpha_{k+m}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from itertools import product as iter_product
from math import lcm
from operator import add, mul
from types import MappingProxyType

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
    NotAntisymmetric,
    NotPositiveDefinite,
    PreconditionError,
    RationalMatrix,
    S,
    _bareiss,
    _integer,
    _integer_rows,
    _matrix,
    _natural,
    _over_common,
    _reduced,
    _torus_matrices,
    add_into,
    compositions,
    exact_fraction,
)


MINUS_HALF = -HALF


class SingularLattice(PreconditionError):
    """Lattice generators are linearly dependent."""


class NotInLattice(PreconditionError):
    """Coordinates are not integral."""


class CutoffExceeded(PreconditionError):
    """Requested mode lies outside the truncation."""


class ModelMismatch(PreconditionError):
    """Sectors belong to different models."""


class FormalUnitValue(PreconditionError):
    """A numeric value was requested of a formal unit expression."""


# ----------------------------------------------------------------------
# the formal scale unit
# ----------------------------------------------------------------------

def _power_term(var, e, c) -> str:
    """The printed term c var^e of a Laurent or q-series."""
    if e == 0:
        return str(c)
    head = var if e == 1 else f"{var}^{e}"
    return head if c == ONE else f"{c}*{head}"


def _power_json(series) -> dict:
    return {str(e): str(c) for e, c in sorted(series.coeffs.items())}


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

    def _entry(self, e, c):
        return _integer(e, "unit power"), S.coerce(c)

    def _operand(self, other):
        if isinstance(other, (UnitScalar, int, Fraction, ExactScalar)):
            return UnitScalar.coerce(other)
        return NotImplemented

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._convolve(other, add)

    __rmul__ = __mul__

    def as_exact(self) -> ExactScalar:
        """The numeric value; defined only when no unit power remains."""
        if any(e != 0 for e in self.coeffs):
            raise FormalUnitValue(f"{self} carries unresolved unit powers")
        return self.coeffs.get(0, ZERO)

    def _term(self, e, c):
        return _power_term("u", e, c)

    to_json = _power_json


# ----------------------------------------------------------------------
# lattice models
# ----------------------------------------------------------------------

def _check_positive_definite(g: RationalMatrix):
    """Sylvester's criterion from one elimination of D*g: while rows
    0..k pivot in turn, pivot k is D^(k+1) times the leading minor of
    size k + 1, and the first k where that fails names the minor."""
    if not all(x.is_rational() for row in g.entries for x in row):
        raise NotPositiveDefinite("metric must be real")
    re, im, _ = _integer_rows(g)
    order, _, pivots = _bareiss(re, im)
    for k in range(g.rows):
        if order[k:k + 1] != [k] or pivots[k][0] <= 0:
            raise NotPositiveDefinite(f"leading minor {k + 1} is not positive")


class LatticeModel(Frozen):
    """Torus data (n, g, B, L) with the derived dual lattice, and each
    sector quantity as an integer form in the coordinates x = (l, l*),
    built on first use: with P_pm = (B^T +- g) L, the weight covectors
    are a_pm = A_pm x for A_pm = [P_pm u^e | -L* u^{-e}], the momenta
    p_pm = M_pm x for M_pm = -1/2 g^{-1} A_pm, and H_pm = A_pm^T M_pm
    gives the branch exponents x1^T H_pm x2 and weights 1/2 x^T H_pm x."""

    __slots__ = ("n", "g", "B", "Lbasis", "LstarBasis", "g_inv",
                 "unit_exponent", "u_square", "__dict__")
    _fields = ("n", "g", "B", "Lbasis", "unit_exponent", "u_square")

    def __init__(self, n, g, B, Lbasis, unit_exponent=0, u_square=None):
        _integer(n, "model size n")
        g, B = _torus_matrices(g, B)
        L = RationalMatrix(Lbasis)
        if g.rows != n or L.rows != n or L.cols != n:
            raise DimensionMismatch("model matrices must be n x n")
        if _integer(unit_exponent, "unit exponent") not in (-1, 0, 1):
            raise ChiraltorusError("unit exponent must be -1, 0, or 1")
        _check_positive_definite(g)
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
            if not unit_exponent:
                # with no unit in the basis, u^2 reaches no observable
                u_square = None
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

    # (A_pm, M_pm, H_pm) without their powers of u, and the forms built from them
    plus_matrices = cached_property(lambda m: _weight_matrices(m, 1))
    minus_matrices = cached_property(lambda m: _weight_matrices(m, -1))
    l_form = cached_property(lambda m: IntegerForm(m, _hstack(
        m.Lbasis, RationalMatrix.zeros(m.n, m.n))))
    lstar_form = cached_property(lambda m: IntegerForm(m, _hstack(
        RationalMatrix.zeros(m.n, m.n), m.LstarBasis)))
    a_plus_form = cached_property(lambda m: IntegerForm(m, m.plus_matrices[0]))
    a_minus_form = cached_property(lambda m: IntegerForm(m, m.minus_matrices[0]))
    p_plus_form = cached_property(lambda m: IntegerForm(m, m.plus_matrices[1]))
    p_minus_form = cached_property(lambda m: IntegerForm(m, m.minus_matrices[1]))
    h_plus_form = cached_property(lambda m: IntegerForm(m, m.plus_matrices[2]))
    h_minus_form = cached_property(lambda m: IntegerForm(m, m.minus_matrices[2]))

    def certify_locality(self):
        """Check once per model that H_+ - H_- is the hyperbolic form
        [[0, I], [I, 0]], whose nonzero blocks carry no power of u, so that
        every hol - antihol = x1^T (H_+ - H_-) x2 is the integer <l1, l2*> +
        <l1*, l2>; raise InvariantError if not, and remember only a pass.
        It holds whenever B = -B^T and L* = L^{-T} (Narain's lattice)."""
        if "locality_certified" not in self.__dict__:
            rows = RationalMatrix.identity(2 * self.n).entries
            hyperbolic = _matrix(rows[self.n:] + rows[:self.n])
            if self.plus_matrices[2] - self.minus_matrices[2] != hyperbolic:
                raise InvariantError("H_+ - H_- is not the hyperbolic form")
            self._set(locality_certified=True)

    def canon(self, x: UnitScalar) -> UnitScalar:
        """Fold u^2 to its declared rational value, if any."""
        if self.u_square is None:
            return x
        rho = S(self.u_square)
        return UnitScalar((e % 2, c * rho ** (e // 2)) for e, c in x.coeffs.items())

    def pairing_matrix(self) -> RationalMatrix:
        """LstarBasis^T Lbasis; unimodular integer for a true dual pair."""
        return self.LstarBasis.transpose() * self.Lbasis

    def sector(self, l_coords, lstar_coords) -> "Sector":
        return Sector(self, l_coords, lstar_coords)

    def to_json(self):
        out = {"n": self.n, "g": self.g.to_json(), "B": self.B.to_json(),
               "L": self.Lbasis.to_json()}
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
        data["n"], data["g"], data["B"], data["L"],
        unit_exponent=data.get("unit_exponent", 0),
        u_square=data.get("u_square"),
    )


# ----------------------------------------------------------------------
# integer forms in the sector coordinates
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
    form) carry the same powers, the rows of an n x 2n one none.  Each
    row's own parts (power, re row, im row) are kept for apply."""

    __slots__ = ("_rows", "den", "parts")

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
        self._set(den=den, parts=tuple(parts), _rows=tuple(
            tuple((p, re[i], im and im[i]) for p, re, im in parts)
            for i in range(matrix.rows)))

    def apply(self, x) -> tuple:
        """M x, one UnitScalar per row."""
        return tuple(_unit_at(row, x, self.den) for row in self._rows)

    def times(self, x) -> tuple:
        """x^T M as integer parts, for at()."""
        return tuple((p, _row_times(x, re), im and _row_times(x, im))
                     for p, re, im in self.parts)

    def at(self, row, y) -> UnitScalar:
        """x^T M y from row = times(x)."""
        return _unit_at(row, y, self.den)

    def text(self, row, y, seen) -> str:
        """str(at(row, y)), keyed in seen by its integer sums, one (re, im)
        per power of u: equal sums print equal text, so each prints once."""
        key = tuple([(sum(map(mul, re, y)), im and sum(map(mul, im, y))) for _, re, im in row])
        return seen.get(key) or seen.setdefault(key, str(_unit_at(row, y, self.den)))

    def half_square(self, x) -> UnitScalar:
        """1/2 x^T M x."""
        return _unit_at(self.times(x), x, 2 * self.den)


def _hstack(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    return _matrix(a + b for a, b in zip(left.entries, right.entries))


def _weight_matrices(m: LatticeModel, sign) -> tuple:
    """(A_pm, M_pm, H_pm) for sign = +-1, without their powers of u."""
    a = _hstack((m.B.transpose() + m.g.scale(sign)) * m.Lbasis, -m.LstarBasis)
    p = m.g_inv * a * MINUS_HALF
    return a, p, a.transpose() * p


# ----------------------------------------------------------------------
# sectors
# ----------------------------------------------------------------------

class Sector(Frozen):
    """A momentum/winding label (l, l*) with its weight covectors.

    a_plus = -l* + B(l) + g(l) and a_minus = -l* + B(l) - g(l), where
    B(l) is the covector l^T B.  Conformal weights are the measured
    zero-mode eigenvalues h = -1/4 g^{-1}(a, a) of the implemented
    Virasoro normalization.  The sector holds only its integer
    coordinates; each quantity, the momenta p_pm included, is a view
    that applies the model's integer form of it on every read.
    """

    __slots__ = ("model", "l_coords", "lstar_coords", "coords")
    _fields = ("model", "l_coords", "lstar_coords")

    l = property(lambda s: s.model.l_form.apply(s.coords))
    lstar = property(lambda s: s.model.lstar_form.apply(s.coords))
    a_plus = property(lambda s: s.model.a_plus_form.apply(s.coords))
    a_minus = property(lambda s: s.model.a_minus_form.apply(s.coords))
    p_plus = property(lambda s: s.model.p_plus_form.apply(s.coords))
    p_minus = property(lambda s: s.model.p_minus_form.apply(s.coords))
    h = property(lambda s: s.model.h_plus_form.half_square(s.coords))
    hbar = property(lambda s: s.model.h_minus_form.half_square(s.coords))

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
    rng = range(-_natural(cutoff, "cutoff"), cutoff + 1)
    return [Sector(model, lc, sc) for lc in iter_product(rng, repeat=model.n)
            for sc in iter_product(rng, repeat=model.n)]


def spectrum_point(model: LatticeModel, l_coords, lstar_coords):
    """Joint zero-mode spectrum of a sector: the vector pair
    (1/2(g^{-1}(l* - B(l)) - l), 1/2(g^{-1}(l* - B(l)) + l)), equal to
    (-1/2 g^{-1} a_plus, -1/2 g^{-1} a_minus)."""
    s = Sector(model, l_coords, lstar_coords)
    return (s.p_plus, s.p_minus)


def vertex_exponents(s1: Sector, s2: Sector):
    """Branch exponents of the product of two sector vertex operators:
    hol = -1/2 g^{-1}(a1+, a2+), antihol = -1/2 g^{-1}(a1-, a2-).
    The model's locality certificate (LatticeModel.certify_locality)
    runs first, so their difference is the integer <l1*, l2> + <l2*, l1>."""
    model = s1.model
    if model != s2.model:
        raise ModelMismatch("sectors from different models")
    model.certify_locality()
    return tuple(h.at(h.times(s1.coords), s2.coords)
                 for h in (model.h_plus_form, model.h_minus_form))


def locality_pairs(model: LatticeModel, cutoff: int):
    """Every ordered pair of sectors within the cutoff with its branch
    exponents, as (s1, s2, hol, antihol, hol - antihol): locality_rows
    with the sectors as cells and each exponent read as a UnitScalar.
    The locality certificate runs first, so the difference is the int
    pairing <l1, l2*> + <l1*, l2>; hol and antihol are one dot product each."""
    return locality_rows(model, cutoff, lambda s: s, lambda form, row, y, seen: form.at(row, y))


def locality_rows(model: LatticeModel, cutoff: int, cells, exponent=IntegerForm.text):
    """Every locality pair from one walk of the box, as (cells(s1), cells(s2),
    hol, antihol, diff), each exponent read by exponent(form, row, y, seen),
    by default IntegerForm.text: printed once per distinct value in this call."""
    model.certify_locality()
    box = [(s.coords, s.lstar_coords + s.l_coords, cells(s))
           for s in enumerate_sectors(model, cutoff)]
    h_plus, h_minus, plus, minus = model.h_plus_form, model.h_minus_form, {}, {}
    for x, swapped, c1 in box:
        r_plus, r_minus = h_plus.times(x), h_minus.times(x)
        for y, _, c2 in box:
            yield (c1, c2, exponent(h_plus, r_plus, y, plus),
                   exponent(h_minus, r_minus, y, minus), sum(map(mul, swapped, y)))


def ko_locality(model: LatticeModel, cutoff: int):
    """Exponent table over all sector pairs within the cutoff, read from
    locality_rows; every hol - antihol is integral (a single-valued
    correlator branch) by the locality certificate that runs first."""
    rows = [{
        "l1": list(l1), "lstar1": list(lstar1),
        "l2": list(l2), "lstar2": list(lstar2),
        "hol": hol, "antihol": antihol,
        "difference": str(diff), "integral": True,
    } for (l1, lstar1), (l2, lstar2), hol, antihol, diff in locality_rows(
        model, cutoff, Sector.key)]
    return {"cutoff": cutoff, "all_integral": True, "pairs": rows}


def t_dual(model: LatticeModel) -> LatticeModel:
    """The dual torus: E = L^T (g + B) L goes to E^{-1}.  The metric is
    kept, B' = -B, and the lattice is (g - B)^{-1} L* = L E^{-T}, whose
    dual is (g + B) L; at B = 0 that is g^{-1}(L*), and g(L) and L* swap."""
    new_basis = (model.g - model.B).inverse() * model.LstarBasis
    return LatticeModel(model.n, model.g, -model.B, new_basis,
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
    _fields = ("dim", "table")

    def __init__(self, dim, table=None):
        _natural(dim, "operator dimension")
        clean = {}
        for col, column in (table or {}).items():
            for key in (col, *column):
                if _integer(key, "operator index") not in range(dim):
                    raise DimensionMismatch(
                        f"operator column {col} has an index outside range({dim})")
            entries = {r: c for r, c in ((r, S.coerce(c)) for r, c in column.items())
                       if not c.is_zero()}
            if entries:
                clean[col] = entries
        self._set(dim=dim, table=clean)

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
        if not isinstance(other, SparseOp):
            return NotImplemented
        self._check_dim(other)
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
        return SparseOp._trusted(dim=self.dim, table=out)

    def __sub__(self, other):
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self + other.scale(S(-1))

    def scale(self, c):
        c = S.coerce(c)
        if c.is_zero():
            return SparseOp(self.dim)
        return SparseOp._trusted(dim=self.dim, table={
            col: {r: c * v for r, v in column.items()}
            for col, column in self.table.items()})

    def __matmul__(self, other):
        """self after other."""
        if not isinstance(other, SparseOp):
            return NotImplemented
        self._check_dim(other)
        table = {}
        self._product_into(other, table)
        return SparseOp._trusted(dim=self.dim, table=table)

    def commutator(self, other):
        """[self, other] = self @ other - other @ self, both products
        summed into one table.  A plain method, so a foreign operand is a
        TypeError here and never NotImplemented."""
        if not isinstance(other, SparseOp):
            raise TypeError("unsupported operand type(s) for commutator: "
                            f"'SparseOp' and '{type(other).__name__}'")
        self._check_dim(other)
        table = {}
        self._product_into(other, table)
        other._product_into(self, table, negate=True)
        return SparseOp._trusted(dim=self.dim, table=table)

    def _check_dim(self, other):
        if other.dim != self.dim:
            raise DimensionMismatch(f"operator dimensions differ: {self.dim} and {other.dim}")

    def _product_into(self, right, table, negate=False, cols=None):
        """Add self @ right, negated if asked, into table, a zero-pruned
        {col: {row: ExactScalar}} whose columns are summed in place, so
        only this kernel may have built them; only right's columns cols
        are formed, all of them by default.  Each product is summed where
        it lands, and an entry is dropped when its sum cancels."""
        left, rights = self.table, right.table
        for col in rights if cols is None else cols:
            acc = table.get(col, {})
            for mid, v in rights.get(col, {}).items():
                image = left.get(mid)
                if image:
                    if negate:
                        v = -v
                    for r, w in image.items():
                        x = acc.get(r)
                        if x is None:
                            acc[r] = v * w
                        elif (x := x + v * w).is_zero():
                            del acc[r]
                        else:
                            acc[r] = x
            if acc:
                table[col] = acc
            else:
                table.pop(col, None)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(
            (c, tuple(sorted(col.items()))) for c, col in self.table.items()
        ))))

    def agrees_on(self, other, cols) -> bool:
        return all(self.column(c) == other.column(c) for c in cols)


def _edited(vec, edits):
    """(the partition state vec after the edits (i, m) in order, the
    product of the multiplicities of the parts they removed), or (None, 0)
    when a removal finds no part: m < 0 appends part -m to colour i, and
    m > 0 removes one part m from it."""
    mult = 1
    for i, m in edits:
        parts = vec[i]
        if m < 0:
            parts = tuple(sorted(parts + (-m,), reverse=True))
        else:
            count = parts.count(m)
            if not count:
                return None, 0
            mult *= count
            k = parts.index(m)
            parts = parts[:k] + parts[k + 1:]
        vec = vec[:i] + (parts,) + vec[i + 1:]
    return vec, mult


@lru_cache(maxsize=32)
def _fock_basis(n: int, N: int) -> tuple:
    """(basis, index, levels) of the n-coloured partitions up to level N,
    level by level and sorted within a level.  Every truncation of one
    (n, N) shares them, so all three are immutable: index is a read-only
    view of {vector: position}."""
    per_level = _partitions_upto(N)
    basis, levels = [], []
    for total in range(N + 1):
        level_vectors = [tuple(combo) for split in compositions(total, n)
                         for combo in iter_product(*[per_level[k] for k in split])]
        basis.extend(sorted(level_vectors))
        levels.extend([total] * len(level_vectors))
    return (tuple(basis), MappingProxyType({v: k for k, v in enumerate(basis)}),
            tuple(levels))


@lru_cache(maxsize=1024)
def _word_map(n: int, N: int, edits: tuple) -> tuple:
    """The hits (col, row, multiplicity) of the word edits on the basis of
    _fock_basis(n, N): row is the column's state after _edited, and a
    column whose image lies above level N, or that lacks a part to
    remove, has none.  Every truncation of one (n, N) shares the map,
    which carries no coefficient."""
    basis, index, levels = _fock_basis(n, N)
    # the word lowers the level by the sum of its modes
    top, hits = N + sum(m for _, m in edits), []
    for col, vec in enumerate(basis):
        if levels[col] > top:
            break
        new, mult = _edited(vec, edits)
        if mult:
            hits.append((col, index[new], mult))
    return tuple(hits)


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
        _natural(N, "cutoff")
        weight = tuple(S.coerce(w) for w in weight)
        if len(weight) != model.n:
            raise DimensionMismatch("weight covector has wrong length")
        basis, index, levels = _fock_basis(model.n, N)
        zero_modes = tuple(MINUS_HALF * x for x in model.g_inv.apply(weight))
        self._set(model=model, weight=weight, N=N, basis=basis, index=index,
                  levels=levels, zero_modes=zero_modes, _alpha_cache={})

    @property
    def dim(self):
        return len(self.basis)

    def level_dimensions(self):
        return [self.levels.count(k) for k in range(self.N + 1)]

    def vectors_up_to_level(self, k):
        k = _integer(k, "level")
        return [i for i, level in enumerate(self.levels) if level <= k]

    def _operator(self, terms) -> SparseOp:
        """The operator sum c * edits over terms (c, edits), edits acting
        in order on a column's partition state as in _edited.  A column
        whose image would lie above level N is left out.

        Coefficients are put over one common denominator first, and equal
        words are merged as integer pairs [re, im], a pair of creations or
        of annihilations sorted since they commute; a word whose sum is
        zero is dropped.  Each word's hits come from _word_map, which every
        truncation of this (n, N) shares, so every entry is summed in ints
        and each distinct sum is normalised once."""
        re, im, den = _over_common([c for c, _ in terms])
        words = {}
        for (_, edits), a, b in zip(terms, re, im):
            if len(edits) == 2 and (edits[0][1] < 0) == (edits[1][1] < 0):
                edits = tuple(sorted(edits))
            ab = words.get(edits)
            if ab is None:
                words[edits] = [a, b]
            else:
                ab[0] += a
                ab[1] += b
        n, acc = self.model.n, {}
        for edits, (a, b) in words.items():
            if not (a or b):
                continue
            for col, row, mult in _word_map(n, self.N, edits):
                x, y = acc.get((col, row), (0, 0))
                acc[col, row] = x + a * mult, y + b * mult
        scalars, table = {}, {}
        for (col, row), xy in acc.items():
            if xy != (0, 0):
                if xy not in scalars:
                    scalars[xy] = _reduced(*xy, den)
                table.setdefault(col, {})[row] = scalars[xy]
        return SparseOp._trusted(dim=self.dim, table=table)

    def alpha(self, i: int, m: int) -> SparseOp:
        """Mode operator alpha^i_m, 1-based color, |m| <= N."""
        if not 1 <= _integer(i, "colour") <= self.model.n:
            raise DimensionMismatch(f"no color {i}")
        if abs(_integer(m, "mode")) > self.N:
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
            self._alpha_cache[key] = self._operator(terms)
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
        if abs(_integer(k, "mode")) > self.N:
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
        return self._operator(terms)


def central_charge(model: LatticeModel, N: int = 3) -> ExactScalar:
    """Measure c on the vacuum module: ([L_2, L_-2] - 4 L_0) acts there
    by c/2.  Only the vacuum column of that operator is built, through
    the product kernel of SparseOp, and any entry off its diagonal is an
    InvariantError."""
    fock = FockTruncation(model, [0] * model.n, N)
    l2, lm2, l0 = fock.virasoro(2), fock.virasoro(-2), fock.virasoro(0)
    vac = fock.index[((),) * model.n]
    # only the vacuum column is formed: [L_2, L_-2] there, then L_0 applied
    # to -4 times the vacuum
    table, cols = {}, (vac,)
    l2._product_into(lm2, table, cols=cols)
    lm2._product_into(l2, table, negate=True, cols=cols)
    l0._product_into(SparseOp._trusted(dim=fock.dim, table={vac: {vac: S(-4)}}),
                     table, cols=cols)
    column = SparseOp._trusted(dim=fock.dim, table=table).column(vac)
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

    def _lift(self, side: str, op_of) -> SparseOp:
        if side not in ("+", "-"):
            raise ChiraltorusError(f"side must be '+' or '-', got {side!r}")
        op = op_of(self.plus if side == "+" else self.minus)
        # basis (a, b) -> a * dim_minus + b: a "+" operator moves a with
        # stride dim_minus, a "-" operator moves b with stride 1
        dm = self.minus.dim
        stride, offsets = (dm, range(dm)) if side == "+" else (1, range(0, self.dim, dm))
        return SparseOp._trusted(dim=self.dim, table={
            col * stride + o: {r * stride + o: v for r, v in column.items()}
            for col, column in op.table.items() for o in offsets})

    def alpha(self, i: int, m: int, side: str = "+") -> SparseOp:
        return self._lift(side, lambda fock: fock.alpha(i, m))

    def virasoro(self, k: int, side: str = "+") -> SparseOp:
        return self._lift(side, lambda fock: fock.virasoro(k))


# ----------------------------------------------------------------------
# characters
# ----------------------------------------------------------------------

def colored_partition_counts(n: int, order: int):
    """Coefficients of prod_k (1 - q^k)^{-n} up to q^order."""
    counts = [1] + [0] * _natural(order, "order")
    for _ in range(_natural(n, "n")):
        for k in range(1, order + 1):
            for j in range(k, order + 1):
                counts[j] += counts[j - k]
    return counts


class QSeries(CoeffTable):
    """Truncated exact series in q with a rational leading exponent: a
    table {Fraction exponent: ExactScalar} holding no exponent above cap."""

    __slots__ = ("cap",)

    def __init__(self, coeffs, cap):
        self._set(cap=exact_fraction(cap, "series cap"))
        super().__init__(coeffs)

    def _entry(self, e, c):
        e = exact_fraction(e, "series exponent")
        return (e, S.coerce(c)) if e <= self.cap else None

    def _like(self, table):
        out = super()._like(table)
        out._set(cap=self.cap)
        return out

    def leading(self):
        return min(self.coeffs, default=None)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries(chain(self.coeffs.items(), other.coeffs.items()),
                       min(self.cap, other.cap))

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        lead_s = self.leading()
        lead_o = other.leading()
        if lead_s is None or lead_o is None:
            return QSeries({}, min(self.cap, other.cap))
        # the constructor's _entry drops the terms above the new cap
        cap = min(self.cap + lead_o, other.cap + lead_s)
        return QSeries(self._convolve(other, add).coeffs, cap)

    def _term(self, e, c):
        return _power_term("q", e, c)

    to_json = _power_json


def _q_exponent(weight: UnitScalar) -> ExactScalar:
    """A sector weight as a real q-exponent: refused if formal or complex."""
    h = weight.as_exact()
    if h.b:
        raise FormalUnitValue("complex weight has no character exponent")
    return h


def character(model: LatticeModel, sector: Sector, order: int) -> QSeries:
    """q^h times the oscillator tower prod (1-q^k)^{-n}, level-truncated."""
    if sector.model != model:
        raise ModelMismatch("sector from a different model")
    h = _q_exponent(sector.h).re
    counts = colored_partition_counts(model.n, order)
    return QSeries({h + k: counts[k] for k in range(order + 1)}, h + order)


class BiSeries(CoeffTable):
    """Truncated exact series in q and qbar: a table
    {(Fraction, Fraction): ExactScalar}."""

    __slots__ = ()

    def _entry(self, key, c):
        if type(key) is not tuple or len(key) != 2:
            raise DimensionMismatch(f"series key {key!r} is not a pair of exponents")
        return tuple(exact_fraction(e, "series exponent") for e in key), S.coerce(c)

    def _term(self, key, c):
        head = "q^{}*qb^{}".format(*key)
        return head if c == ONE else f"{c}*{head}"

    def to_json(self):
        return {f"{e}|{eb}": str(c) for (e, eb), c in sorted(self.coeffs.items())}


def partition_function(model: LatticeModel, cutoff: int, order: int,
                       sector_filter=None) -> BiSeries:
    """Sum of q^{h+k} qbar^{hbar+kbar} with colored-partition multiplicities,
    over enumerated sectors and oscillator levels up to order, summed as
    ints at exponent numerators over D, the lcm of the weight denominators;
    built in the order of those int keys, over D > 0 that of the exponent
    pairs, so each rendering's sort finds its keys already in order."""
    counts = colored_partition_counts(model.n, order)
    weights, _, D = _over_common([
        w for s in enumerate_sectors(model, cutoff)
        if sector_filter is None or sector_filter(s)
        for w in (_q_exponent(s.h), _q_exponent(s.hbar))])
    sums = {}
    for e, eb in zip(weights[::2], weights[1::2]):
        for k in range(order + 1):
            for kb in range(order + 1):
                key = (e + k * D, eb + kb * D)
                sums[key] = sums.get(key, 0) + counts[k] * counts[kb]
    return BiSeries()._like({(Fraction(e, D), Fraction(eb, D)): S(c)
                             for (e, eb), c in sorted(sums.items())})
