"""Lattice models, momentum/winding sectors, and truncated Fock modules.

A model is a torus R^n / L with an exact metric, an antisymmetric B-field,
and the dual lattice computed as the inverse transpose.  One-dimensional
models carry their scale as a formal unit u = 2 pi R: lattice vectors are
integer multiples of u, dual vectors of u^{-1}, and only even powers of u
ever reach an observable, so declaring a rational value for u^2 (or none
at all, the generic case) keeps every computation in exact arithmetic.

Sectors are labeled by (l, l*) in L + L*, with weight covectors
a_pm = -l* + B(l) +- g(l).  Fock truncations realize the mode algebra
[alpha^i_m, alpha^j_n] = -1/2 g^{ij} m delta_{m,-n} on colored partitions
up to a level cutoff, with Virasoro operators normalized by the
commutation constraint [L_k, alpha_m] = -m alpha_{k+m}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from itertools import product as iter_product

from .exactlin import (
    HALF,
    ONE,
    ZERO,
    CoeffTable,
    DimensionMismatch,
    ExactScalar,
    Frozen,
    RationalMatrix,
    S,
    add_into,
    compositions,
)


class NotPositiveDefinite(ValueError):
    """Metric fails symmetry or a leading principal minor test."""


class NotAntisymmetric(ValueError):
    """B-field is not antisymmetric."""


class SingularLattice(ValueError):
    """Lattice generators are linearly dependent."""


class NotInLattice(ValueError):
    """Coordinates are not integral."""


class CutoffExceeded(ValueError):
    """Requested mode lies outside the truncation."""


class ModelMismatch(ValueError):
    """Sectors belong to different models."""


class BFieldUnsupported(ValueError):
    """T-duality is only defined at B = 0."""


class FormalUnitValue(ValueError):
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


def _uvec(values) -> tuple:
    return tuple(UnitScalar.coerce(v) for v in values)


def _mat_uvec(m: RationalMatrix, v: tuple) -> tuple:
    return tuple(
        sum((v[j] * m[(i, j)] for j in range(m.cols)), UnitScalar())
        for i in range(m.rows)
    )


def _udot(a: tuple, b: tuple) -> UnitScalar:
    return sum((x * y for x, y in zip(a, b)), UnitScalar())


# ----------------------------------------------------------------------
# lattice models
# ----------------------------------------------------------------------

def _check_positive_definite(g: RationalMatrix):
    n = g.rows
    for i in range(n):
        for j in range(n):
            if g[(i, j)] != g[(j, i)]:
                raise NotPositiveDefinite("metric must be symmetric")
            if g[(i, j)].im != 0:
                raise NotPositiveDefinite("metric must be real")
    for k in range(1, n + 1):
        minor = RationalMatrix([[g[(i, j)] for j in range(k)] for i in range(k)])
        d = minor.det()
        if d.re <= 0 or d.im != 0:
            raise NotPositiveDefinite(f"leading minor {k} is not positive")


class LatticeModel(Frozen):
    """Torus data (n, g, B, L) with the derived dual lattice."""

    __slots__ = ("n", "g", "B", "Lbasis", "LstarBasis", "g_inv",
                 "unit_exponent", "u_square")

    def __init__(self, n, g, B, Lbasis, unit_exponent=0, u_square=None):
        g = g if isinstance(g, RationalMatrix) else RationalMatrix(g)
        B = B if isinstance(B, RationalMatrix) else RationalMatrix(B)
        L = Lbasis if isinstance(Lbasis, RationalMatrix) else RationalMatrix(Lbasis)
        if g.rows != n or g.cols != n or B.rows != n or B.cols != n \
                or L.rows != n or L.cols != n:
            raise DimensionMismatch("model matrices must be n x n")
        if unit_exponent not in (-1, 0, 1):
            raise ValueError("unit exponent must be -1, 0, or 1")
        _check_positive_definite(g)
        if B.transpose() != B.scale(S(-1)):
            raise NotAntisymmetric("B must equal -B^T")
        if L.det().is_zero():
            raise SingularLattice("lattice generators are dependent")
        if u_square is not None and unit_exponent == -1:
            # u^{-1} = u / u^2, so a declared unit square lets the basis
            # absorb the inverted unit; canonical form keeps exponent +1.
            L = L.scale(S(Fraction(1, 1) / Fraction(u_square)))
            unit_exponent = 1
        self._set(
            n=n,
            g=g,
            B=B,
            Lbasis=L,
            LstarBasis=L.transpose().inverse(),
            g_inv=g.inverse(),
            unit_exponent=unit_exponent,
            u_square=None if u_square is None else Fraction(u_square),
        )

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
        raw = _mat_uvec(self.Lbasis, _uvec(coords))
        u = UnitScalar.unit(self.unit_exponent) if self.unit_exponent else UnitScalar.coerce(1)
        return tuple(self.canon(v * u) for v in raw)

    def dual_vector(self, coords) -> tuple:
        """Ambient covector of integer coordinates in LstarBasis, u^{-e}."""
        coords = _as_integer_coords(coords, self.n)
        raw = _mat_uvec(self.LstarBasis, _uvec(coords))
        u = UnitScalar.unit(-self.unit_exponent) if self.unit_exponent else UnitScalar.coerce(1)
        return tuple(self.canon(v * u) for v in raw)

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
    vals = [S.coerce(c) for c in coords]
    if len(vals) != n:
        raise DimensionMismatch(f"expected {n} coordinates")
    out = []
    for v in vals:
        if v.im != 0 or v.re.denominator != 1:
            raise NotInLattice(f"coordinate {v} is not an integer")
        out.append(int(v.re))
    return out


def build_model(n, g, B, Lbasis) -> LatticeModel:
    return LatticeModel(n, g, B, Lbasis)


def one_dim_model(radius_unit=None) -> LatticeModel:
    """The circle of scale u = 2 pi R.  A rational argument declares the
    value of u (so u^2 becomes rational); None keeps the unit formal,
    the generic-radius case."""
    u_square = None
    if radius_unit is not None:
        r = Fraction(radius_unit)
        if r <= 0:
            raise SingularLattice("scale must be positive")
        u_square = r * r
    return LatticeModel(1, [[1]], [[0]], [[1]], unit_exponent=1,
                        u_square=u_square)


def load_model(data) -> LatticeModel:
    """Model from its JSON form: either full matrices or the 1-d
    {"radius_unit": "p/q"} shorthand."""
    if "radius_unit" in data:
        r = data["radius_unit"]
        return one_dim_model(None if r is None else Fraction(r))
    return LatticeModel(
        data["n"],
        [[S.coerce(x) for x in row] for row in data["g"]],
        [[S.coerce(x) for x in row] for row in data["B"]],
        [[S.coerce(x) for x in row] for row in data["L"]],
        unit_exponent=data.get("unit_exponent", 0),
        u_square=None if data.get("u_square") is None else Fraction(data["u_square"]),
    )


# ----------------------------------------------------------------------
# sectors
# ----------------------------------------------------------------------

class Sector(Frozen):
    """A momentum/winding label (l, l*) with its weight covectors.

    a_plus = -l* + B(l) + g(l) and a_minus = -l* + B(l) - g(l), where
    B(l) is the covector l^T B.  Conformal weights are the measured
    zero-mode eigenvalues h = -1/4 g^{-1}(a, a) of the implemented
    Virasoro normalization.
    """

    __slots__ = ("model", "l_coords", "lstar_coords", "l", "lstar",
                 "a_plus", "a_minus", "h", "hbar")

    def __init__(self, model: LatticeModel, l_coords, lstar_coords):
        l_coords = tuple(_as_integer_coords(l_coords, model.n))
        lstar_coords = tuple(_as_integer_coords(lstar_coords, model.n))
        l = model.lattice_vector(l_coords)
        lstar = model.dual_vector(lstar_coords)
        gl = _mat_uvec(model.g, l)
        bl = _mat_uvec(model.B.transpose(), l)   # covector l^T B
        a_plus = tuple(
            model.canon(-lstar[i] + bl[i] + gl[i]) for i in range(model.n)
        )
        a_minus = tuple(
            model.canon(-lstar[i] + bl[i] - gl[i]) for i in range(model.n)
        )
        self._set(model=model, l_coords=l_coords, lstar_coords=lstar_coords,
                  l=l, lstar=lstar, a_plus=a_plus, a_minus=a_minus)
        self._set(h=self._weight(a_plus), hbar=self._weight(a_minus))

    def _weight(self, a) -> UnitScalar:
        quad = _udot(a, _mat_uvec(self.model.g_inv, a))
        return self.model.canon(quad * S(Fraction(-1, 4)))

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
    s = Sector(model, l_coords, lstar_coords)
    minus_half = S(Fraction(-1, 2))
    p_plus = tuple(
        model.canon(v * minus_half) for v in _mat_uvec(model.g_inv, s.a_plus)
    )
    p_minus = tuple(
        model.canon(v * minus_half) for v in _mat_uvec(model.g_inv, s.a_minus)
    )
    return (p_plus, p_minus)


def vertex_exponents(s1: Sector, s2: Sector):
    """Branch exponents of the product of two sector vertex operators:
    hol = -1/2 g^{-1}(a1+, a2+), antihol = -1/2 g^{-1}(a1-, a2-).
    Their difference is <l1*, l2> + <l2*, l1>, an integer."""
    if s1.model != s2.model:
        raise ModelMismatch("sectors from different models")
    m = s1.model
    minus_half = S(Fraction(-1, 2))
    hol = m.canon(_udot(s1.a_plus, _mat_uvec(m.g_inv, s2.a_plus)) * minus_half)
    antihol = m.canon(_udot(s1.a_minus, _mat_uvec(m.g_inv, s2.a_minus)) * minus_half)
    return (hol, antihol)


def ko_locality(model: LatticeModel, cutoff: int):
    """Exponent table over all sector pairs within the cutoff, checking
    that hol - antihol is an integer (single-valued correlator branch)."""
    sectors = enumerate_sectors(model, cutoff)
    rows = []
    all_integral = True
    for s1 in sectors:
        for s2 in sectors:
            hol, antihol = vertex_exponents(s1, s2)
            diff = (hol - antihol).as_exact()
            integral = diff.im == 0 and diff.re.denominator == 1
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
    def zero(dim):
        return SparseOp(dim)

    @staticmethod
    def identity(dim, scalar=1):
        c = S.coerce(scalar)
        return SparseOp(dim, {k: {k: c} for k in range(dim)})

    def column(self, col):
        return dict(self.table.get(col, {}))

    def __add__(self, other):
        out = {c: dict(col) for c, col in self.table.items()}
        for c, col in other.table.items():
            tgt = out.setdefault(c, {})
            for r, v in col.items():
                add_into(tgt, r, v)
        return SparseOp(self.dim, out)

    def __sub__(self, other):
        return self + other.scale(S(-1))

    def scale(self, c):
        c = S.coerce(c)
        return SparseOp(
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
            out[col] = acc
        return SparseOp(self.dim, out)

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


class FockTruncation(Frozen):
    """Level-truncated highest-weight module over the mode algebra.

    Basis vectors are n-colored partitions applied to the weight vector;
    creation operators append parts, annihilation removes them with the
    -1/2 g^{ij} m coefficient, and the zero modes act by the scalar
    -1/2 g^{-1}(dx^i, a).
    """

    __slots__ = ("model", "weight", "N", "basis", "index", "_alpha_cache")

    def __init__(self, model: LatticeModel, weight, N: int):
        if N < 0:
            raise ValueError("cutoff must be nonnegative")
        weight = tuple(S.coerce(w) for w in weight)
        if len(weight) != model.n:
            raise DimensionMismatch("weight covector has wrong length")
        per_level = _partitions_upto(N)
        basis = []
        for total in range(N + 1):
            level_vectors = []
            for split in compositions(total, model.n):
                for combo in iter_product(*[per_level[k] for k in split]):
                    level_vectors.append(tuple(combo))
            basis.extend(sorted(level_vectors))
        self._set(model=model, weight=weight, N=N, basis=tuple(basis),
                  index={v: k for k, v in enumerate(basis)}, _alpha_cache={})

    @property
    def dim(self):
        return len(self.basis)

    @staticmethod
    def level(vector) -> int:
        return sum(sum(p) for p in vector)

    def level_dimensions(self):
        dims = [0] * (self.N + 1)
        for v in self.basis:
            dims[self.level(v)] += 1
        return dims

    def vectors_up_to_level(self, k):
        return [i for i, v in enumerate(self.basis) if self.level(v) <= k]

    def alpha(self, i: int, m: int) -> SparseOp:
        """Mode operator alpha^i_m, 1-based color, |m| <= N."""
        if not 1 <= i <= self.model.n:
            raise DimensionMismatch(f"no color {i}")
        if abs(m) > self.N:
            raise CutoffExceeded(f"mode {m} outside cutoff {self.N}")
        key = (i, m)
        if key in self._alpha_cache:
            return self._alpha_cache[key]
        ginv = self.model.g_inv
        table = {}
        for col, vec in enumerate(self.basis):
            out = {}
            if m == 0:
                lam = ZERO
                for k in range(self.model.n):
                    lam = lam + ginv[(i - 1, k)] * self.weight[k]
                lam = -HALF * lam
                if not lam.is_zero():
                    out[col] = lam
            elif m < 0:
                parts = list(vec[i - 1])
                parts.append(-m)
                parts.sort(reverse=True)
                new = vec[:i - 1] + (tuple(parts),) + vec[i:]
                if self.level(new) <= self.N:
                    out[self.index[new]] = ONE
            else:
                for j in range(1, self.model.n + 1):
                    gij = ginv[(i - 1, j - 1)]
                    if gij.is_zero():
                        continue
                    count = vec[j - 1].count(m)
                    if count == 0:
                        continue
                    parts = list(vec[j - 1])
                    parts.remove(m)
                    new = vec[:j - 1] + (tuple(parts),) + vec[j:]
                    add_into(out, self.index[new], -HALF * gij * S(m) * S(count))
            if out:
                table[col] = out
        op = SparseOp(self.dim, table)
        self._alpha_cache[key] = op
        return op

    def virasoro(self, k: int) -> SparseOp:
        """L_k = -sum_m :g_{ij} alpha^i_m alpha^j_{k-m}:, normalized so
        that [L_k, alpha^j_m] = -m alpha^j_{k+m} inside the truncation."""
        if abs(k) > self.N:
            raise CutoffExceeded(f"mode {k} outside cutoff {self.N}")
        g = self.model.g
        total = SparseOp.zero(self.dim)
        for m in range(-self.N, self.N + 1):
            if abs(k - m) > self.N:
                continue
            p, q = m, k - m
            if p > 0 and q < 0:
                p, q = q, p
            for i in range(1, self.model.n + 1):
                for j in range(1, self.model.n + 1):
                    gij = g[(i - 1, j - 1)]
                    if gij.is_zero():
                        continue
                    term = (self.alpha(i, p) @ self.alpha(j, q)).scale(-gij)
                    total = total + term
        return total


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
        raise ValueError("central measurement is not diagonal on the vacuum")
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
        return SparseOp(self.dim, table)

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
    h = model.canon(sector.h).as_exact()
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
        h = model.canon(s.h).as_exact().re
        hbar = model.canon(s.hbar).as_exact().re
        for k in range(order + 1):
            for kb in range(order + 1):
                terms.append(((h + k, hbar + kb), counts[k] * counts[kb]))
    return BiSeries(terms)
