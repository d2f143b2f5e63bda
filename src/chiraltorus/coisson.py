"""The coisson bracket on circle densities and its Fourier-mode Lie algebra.

Works in the sigma-jet ring of the time-zero phase space: fields x^i and
momenta p_i with their sigma-derivatives, trig factors e^{im sigma}, and
circle test symbols phi/psi.  A jet key (i, 0, b) is d_sigma^b x^i and
(i, 1, b) is d_sigma^b p_i; tau-orders above one never appear here.

The bracket of two densities is a finite delta-distribution expansion
sum_k c_k(sigma') d_sigma^k delta(sigma - sigma'); integrating the first
slot keeps c_0, and reducing modulo total sigma-derivatives lands in the
Lie algebra of Fourier components, where all the structure constants of
the free boson live.
"""

from __future__ import annotations

from math import comb

from .exactlin import (
    HALF,
    IMAG,
    ONE,
    ZERO,
    ChiraltorusError,
    CoeffTable,
    Frozen,
    PreconditionError,
    RationalMatrix,
    S,
    compositions,
    echelon,
    reduce_row,
)
from .jetcalc import (
    DiffPoly,
    Monomial,
    SYMBOL_KINDS,
    parse_expr,
    poly_str,
    poly_to_tree,
    substitute_jets,
)


class UnknownFamily(ChiraltorusError):
    """Raised for a generator family name outside the supported list."""


class NotADensity(PreconditionError):
    """Raised when an expression leaves the sigma-jet ring."""


def as_density(obj) -> DiffPoly:
    """Coerce to a DiffPoly and check it lives in the sigma-jet ring:
    jets with tau-order 0 (x) or 1 (p) only, and only circle-valued
    coefficient symbols."""
    if isinstance(obj, LocalDensity):
        return obj.poly
    if isinstance(obj, FourierClass):
        return obj.rep
    if isinstance(obj, str):
        obj = parse_expr(obj)
    if not isinstance(obj, DiffPoly):
        raise NotADensity(f"cannot interpret {obj!r} as a density")
    for mono in obj.coeffs:
        for (i, a, b) in mono.jets:
            if a > 1:
                raise NotADensity("densities carry x- and p-jets only (tau-order 0 or 1)")
        for (name, _) in mono.syms:
            if SYMBOL_KINDS[name] != "sigma":
                raise NotADensity(
                    f"symbol {name!r} is not a circle function; use phi or psi"
                )
    return obj


class LocalDensity(Frozen):
    """A density u(x, p, d_sigma x, ...) dsigma on the circle."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        self._set(poly=as_density(poly))

    def __add__(self, other):
        return LocalDensity(self.poly + as_density(other))

    def __sub__(self, other):
        return LocalDensity(self.poly - as_density(other))

    def __neg__(self):
        return LocalDensity(-self.poly)

    def scale(self, c):
        return LocalDensity(self.poly.scale(c))

    def __mul__(self, other):
        return LocalDensity(self.poly * as_density(other))

    def __eq__(self, other):
        if isinstance(other, LocalDensity):
            return self.poly == other.poly
        if isinstance(other, DiffPoly):
            return self.poly == other
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return poly_str(self.poly, style="xp")

    __repr__ = __str__


# ----------------------------------------------------------------------
# grading of the sigma-jet ring: the tau-order is a generator label,
# so only the sigma-order and symbol orders count as weight
# ----------------------------------------------------------------------

def xp_weight(mono: Monomial) -> int:
    return sum(b for (_, _, b) in mono.jets) + sum(o for (_, o) in mono.syms)


def xp_content(mono: Monomial):
    return (
        mono.mode,
        tuple(sorted((i, a) for (i, a, _) in mono.jets)),
        tuple(sorted(n for (n, _) in mono.syms)),
    )


def xp_enumerate(content, weight):
    """All sigma-jet monomials of the given content and weight."""
    mode, slots, names = content
    out = set()
    for comp in compositions(weight, len(slots) + len(names)):
        jets = tuple(
            sorted((i, a, comp[k]) for k, (i, a) in enumerate(slots))
        )
        syms = tuple(sorted(zip(names, comp[len(slots):])))
        out.add(Monomial(mode, syms, jets))
    return sorted(out)


def _order_key(mono: Monomial):
    return (xp_weight(mono), mono)


def _reduced_image_basis(content, max_weight):
    """Echelon basis of { D_sigma(monomial) } for the content block,
    pivoting on the leading monomial in the graded order.  Leading terms
    of D_sigma images always sit one weight up, so reduction of a target
    never escalates its weight: the normal form is window-stable."""
    images = (DiffPoly({mono: ONE}).D("s").coeffs
              for w in range(max_weight + 1) for mono in xp_enumerate(content, w))
    return echelon(images, lambda row: max(row, key=_order_key))


def normal_form(density) -> DiffPoly:
    """Canonical representative modulo im(D_sigma) on the sigma-jet ring:
    in each content block, the remainder with no pivot monomial."""
    poly = as_density(density)
    blocks = {}
    for mono, coeff in poly.coeffs.items():
        blocks.setdefault(xp_content(mono), {})[mono] = coeff
    out = {}
    for content in sorted(blocks):
        target = blocks[content]
        top = max(xp_weight(m) for m in target)
        out.update(reduce_row(target, _reduced_image_basis(content, top)))
    return poly._like(out)


class FourierClass(Frozen):
    """The class of a density modulo total sigma-derivatives: the Fourier
    component functional integral(density dsigma)."""

    __slots__ = ("rep",)

    def __init__(self, density):
        self._set(rep=normal_form(density))

    @staticmethod
    def zero() -> "FourierClass":
        return FourierClass(DiffPoly.zero())

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __add__(self, other):
        return FourierClass(self.rep + as_density(other))

    def __sub__(self, other):
        return FourierClass(self.rep - as_density(other))

    def __neg__(self):
        return FourierClass(-self.rep)

    def scale(self, c):
        return FourierClass(self.rep.scale(c))

    def __eq__(self, other):
        if isinstance(other, FourierClass):
            return self.rep == other.rep
        if isinstance(other, (DiffPoly, LocalDensity, str)):
            return self.rep == normal_form(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.rep)

    def __str__(self):
        return "[" + poly_str(self.rep, style="xp") + "]"

    __repr__ = __str__


# ----------------------------------------------------------------------
# delta-distribution expansions
# ----------------------------------------------------------------------

class DeltaExpansion(CoeffTable):
    """sum_k c_k(sigma') d_sigma^k delta(sigma - sigma'), c_k densities:
    a table {k: DiffPoly}."""

    __slots__ = ()

    def _entry(self, k, poly):
        return k, as_density(poly)

    @staticmethod
    def zero() -> "DeltaExpansion":
        return DeltaExpansion()

    def coefficient(self, k: int) -> DiffPoly:
        return self.coeffs.get(k, DiffPoly.zero())

    def d_sigma(self) -> "DeltaExpansion":
        """Derivative in the first slot: shifts every delta-order up."""
        return self._like({k + 1: p for k, p in self.coeffs.items()})

    def d_sigma_prime(self) -> "DeltaExpansion":
        """Derivative in the second slot: Leibniz on the coefficient plus
        d_sigma' delta = -d_sigma delta."""
        items = []
        for k, p in self.coeffs.items():
            items += [(k, p.D("s")), (k + 1, -p)]
        return DeltaExpansion(items)

    def transport(self, poly: DiffPoly) -> "DeltaExpansion":
        """Multiply by a first-slot function F(sigma) and rewrite at the
        diagonal: F(sigma) d^k delta = sum_j binom(k,j) (-1)^j
        F^(j)(sigma') d^(k-j) delta."""
        poly = as_density(poly)
        derivs = [poly]
        top = max(self.coeffs, default=0)
        for _ in range(top):
            derivs.append(derivs[-1].D("s"))
        items = []
        for k, c in self.coeffs.items():
            for j in range(k + 1):
                sign = S(comb(k, j)) if j % 2 == 0 else S(-comb(k, j))
                items.append((k - j, (derivs[j] * c).scale(sign)))
        return DeltaExpansion(items)

    def mul_second_slot(self, poly: DiffPoly) -> "DeltaExpansion":
        poly = as_density(poly)
        return DeltaExpansion({k: p * poly for k, p in self.coeffs.items()})

    def integrate_first_slot(self) -> DiffPoly:
        """integral over sigma: only the k = 0 coefficient survives."""
        return self.coefficient(0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs, reverse=True):
            head = "delta" if k == 0 else ("ds." * k + "delta")
            bits.append(f"({poly_str(self.coeffs[k], style='xp')}) {head}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        return {str(k): poly_to_tree(p) for k, p in sorted(self.coeffs.items())}


# ----------------------------------------------------------------------
# bracket tables
# ----------------------------------------------------------------------

class BracketTable(Frozen):
    """Generator brackets {p_i(sigma), x^j(sigma')} = scale * delta_i^j
    delta(sigma - sigma'), optionally twisted by a 3-form with polynomial
    coefficients: {p_i(sigma), p_j(sigma')} = sum_k h_ijk d_sigma x^k
    evaluated at sigma'.

    The twist is entered on strictly increasing index triples and
    extended by full antisymmetry, which makes the required (i, j)
    antisymmetry automatic.
    """

    __slots__ = ("scale", "twist")

    def __init__(self, scale=1, twist=None):
        scale = S.coerce(scale)
        table = {}
        for key, val in (twist or {}).items():
            i, j, k = key
            if not (0 < i < j < k):
                raise ChiraltorusError("twist keys must be strictly increasing triples")
            poly = parse_expr(val) if isinstance(val, str) else val
            for mono in poly.coeffs:
                if any((a, b) != (0, 0) for (_, a, b) in mono.jets) or mono.syms or mono.mode:
                    raise ChiraltorusError("twist coefficients must be polynomials in bare x")
            if not poly.is_zero():
                table[(i, j, k)] = poly
        self._set(scale=scale, twist=table)

    def twist_coefficient(self, i: int, j: int, k: int) -> DiffPoly:
        """h_ijk with full antisymmetry from the increasing-triple table."""
        trip = (i, j, k)
        if len(set(trip)) < 3:
            return DiffPoly.zero()
        order = tuple(sorted(trip))
        base = self.twist.get(order)
        if base is None:
            return DiffPoly.zero()
        perm = tuple(sorted(range(3), key=lambda t: trip[t]))
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        return base if inversions % 2 == 0 else -base

    def momentum_momentum(self, i: int, j: int) -> DiffPoly:
        """{p_i(sigma), p_j(sigma')} coefficient at sigma'."""
        out = DiffPoly.zero()
        ks = {k for (a, b, k2) in self.twist for k in (a, b, k2)}
        for k in ks:
            h = self.twist_coefficient(i, j, k)
            if not h.is_zero():
                out = out + h * DiffPoly.jet(k, 0, 1)
        return out

    def base_bracket(self, gen_a, gen_b) -> DeltaExpansion:
        """The bracket of two ring generators; gen = (field index, kind)
        with kind 0 for x and 1 for p."""
        (i, a), (j, b) = gen_a, gen_b
        if a == 1 and b == 0:
            if i != j:
                return DeltaExpansion.zero()
            return DeltaExpansion({0: DiffPoly.const(self.scale)})
        if a == 0 and b == 1:
            if i != j:
                return DeltaExpansion.zero()
            return DeltaExpansion({0: DiffPoly.const(-self.scale)})
        if a == 1 and b == 1:
            return DeltaExpansion({0: self.momentum_momentum(i, j)})
        return DeltaExpansion.zero()


def boson_table(twist=None) -> BracketTable:
    """The free-boson table on the time-zero slice.

    With the canonical momentum p = i g(d_tau x) + B(d_sigma x) the scale
    is -1: this is the single convention under which every displayed
    structure constant of the mode algebra comes out right, e.g.
    {i d_z x(sigma) dsigma, i d_z x(sigma') dsigma'} = (1/2) d_sigma delta.
    """
    return BracketTable(scale=-1, twist=twist)


# ----------------------------------------------------------------------
# the bracket calculus
# ----------------------------------------------------------------------

def density_bracket(a, b, table: BracketTable) -> DeltaExpansion:
    """{a(sigma) dsigma, b(sigma') dsigma'} by bilinearity and Leibniz,
    with {d_sigma^m u(sigma), d_sigma^n v(sigma')} expanded through slot
    derivatives of the generator bracket."""
    A = as_density(a)
    B = as_density(b)
    out = DeltaExpansion.zero()
    for mono_a, ca in A.coeffs.items():
        for mono_b, cb in B.coeffs.items():
            for pos_a, (ia, aa, ba) in enumerate(mono_a.jets):
                for pos_b, (ib, ab, bb) in enumerate(mono_b.jets):
                    base = table.base_bracket((ia, aa), (ib, ab))
                    if base.is_zero():
                        continue
                    for _ in range(ba):
                        base = base.d_sigma()
                    for _ in range(bb):
                        base = base.d_sigma_prime()
                    rest_b = mono_b.jets[:pos_b] + mono_b.jets[pos_b + 1:]
                    cof_b = DiffPoly({Monomial(mono_b.mode, mono_b.syms, rest_b): cb})
                    base = base.mul_second_slot(cof_b)
                    rest_a = mono_a.jets[:pos_a] + mono_a.jets[pos_a + 1:]
                    cof_a = DiffPoly({Monomial(mono_a.mode, mono_a.syms, rest_a): ca})
                    out = out + base.transport(cof_a)
    return out


def fourier_bracket(a, b, table: BracketTable) -> FourierClass:
    """The Lie bracket of Fourier-component functionals:
    {integral a, integral b} as a class modulo im(D_sigma).

    Well defined on classes: a first-slot total derivative shifts every
    delta order up, so nothing survives the sigma-integration, and a
    second-slot total derivative integrates away in the class.
    """
    expansion = density_bracket(as_density(a), as_density(b), table)
    return FourierClass(expansion.integrate_first_slot())


def hamiltonian_flow(H, a, table: BracketTable) -> LocalDensity:
    """{integral H, a(sigma')} as a density in sigma'."""
    expansion = density_bracket(as_density(H), as_density(a), table)
    return LocalDensity(expansion.integrate_first_slot())


def jacobi_residual(table: BracketTable, a, b, c) -> FourierClass:
    """Cyclic sum {{a,b},c} + {{b,c},a} + {{c,a},b} on Fourier classes;
    zero certifies the Jacobi identity for the sampled triple."""
    def fb(u, v):
        return fourier_bracket(u, v, table)

    r1 = fb(fb(a, b), c)
    r2 = fb(fb(b, c), a)
    r3 = fb(fb(c, a), b)
    return r1 + r2.rep + r3.rep


def b_shift(density, alpha_rows) -> DiffPoly:
    """The substitution p_j -> p_j + alpha_ji d_sigma x^i for an
    antisymmetric constant matrix: an automorphism of the untwisted
    bracket."""
    poly = as_density(density)
    alpha = [[S.coerce(x) for x in row] for row in alpha_rows]
    n = len(alpha)
    if any(len(row) != n for row in alpha):
        raise ChiraltorusError("shift matrix must be square")
    mapping = {}
    for j in range(1, n + 1):
        rep = DiffPoly.jet(j, 1, 0)
        for i in range(1, n + 1):
            if not alpha[j - 1][i - 1].is_zero():
                rep = rep + DiffPoly.jet(i, 0, 1).scale(alpha[j - 1][i - 1])
        mapping[(j, 1)] = rep
    return substitute_jets(poly, mapping)


# ----------------------------------------------------------------------
# model densities and mode families
# ----------------------------------------------------------------------

def from_tau_jets(poly: DiffPoly, g_rows=None, b_rows=None) -> DiffPoly:
    """Rewrite a time-zero density from tau-jets to momenta: substitutes
    d_tau x^j = -i g^{jk} (p_k - b_kl d_sigma x^l) per the Legendre map
    p = i g(d_tau x) + B(d_sigma x)."""
    fields = poly.field_indices()
    n = max(fields, default=1)
    if g_rows is None:
        g_rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    ginv = RationalMatrix(g_rows).inverse()
    n = ginv.rows
    if b_rows is None:
        b = [[ZERO] * n for _ in range(n)]
    else:
        b = [[S.coerce(x) for x in row] for row in b_rows]
    mapping = {}
    for j in range(1, n + 1):
        rep = DiffPoly.zero()
        for k in range(1, n + 1):
            gk = ginv[(j - 1, k - 1)]
            if gk.is_zero():
                continue
            rep = rep + DiffPoly.jet(k, 1, 0).scale(-IMAG * gk)
            for l in range(1, n + 1):
                if not b[k - 1][l - 1].is_zero():
                    rep = rep + DiffPoly.jet(l, 0, 1).scale(IMAG * gk * b[k - 1][l - 1])
        mapping[(j, 1)] = rep
    return substitute_jets(poly, mapping)


def dz_density(i: int = 1, g_rows=None, b_rows=None) -> DiffPoly:
    """d_z x^i on the time-zero slice, in x and p."""
    from .jetcalc import dz_jet

    return from_tau_jets(dz_jet(i), g_rows, b_rows)


def dzb_density(i: int = 1, g_rows=None, b_rows=None) -> DiffPoly:
    """d_zbar x^i on the time-zero slice, in x and p."""
    from .jetcalc import dzb_jet

    return from_tau_jets(dzb_jet(i), g_rows, b_rows)


FAMILIES = ("heis+", "heis-", "vir+", "vir-", "hamiltonian", "momentum", "winding")


def generator_density(family: str, mode: int = 0) -> LocalDensity:
    """Free-boson generator densities.

    heis+/heis-   i e^{im sigma} d_z x  /  i e^{im sigma} d_zbar x
    vir+/vir-     -i e^{im sigma} (d_z x)^2  /  (d_zbar x)^2
    hamiltonian   H = (i/2)(p^2 + (d_sigma x)^2), the energy density
    momentum      -p, the density of H_{delta/delta x}
    winding       d_sigma x

    The last three ignore the mode argument.
    """
    p = DiffPoly.jet(1, 1, 0)
    xprime = DiffPoly.jet(1, 0, 1)
    w_plus = (p + xprime).scale(HALF)       # i d_z x
    w_minus = (p - xprime).scale(HALF)      # i d_zbar x
    if family == "heis+":
        return LocalDensity(DiffPoly.trig(mode) * w_plus)
    if family == "heis-":
        return LocalDensity(DiffPoly.trig(mode) * w_minus)
    if family == "vir+":
        # -i e (d_z x)^2 = i e (i d_z x)^2
        return LocalDensity((DiffPoly.trig(mode) * w_plus * w_plus).scale(IMAG))
    if family == "vir-":
        return LocalDensity((DiffPoly.trig(mode) * w_minus * w_minus).scale(IMAG))
    if family == "hamiltonian":
        return LocalDensity((p * p + xprime * xprime).scale(IMAG * HALF))
    if family == "momentum":
        return LocalDensity(-p)
    if family == "winding":
        return LocalDensity(xprime)
    raise UnknownFamily(f"unknown generator family {family!r}")


def mode_structure_constants(families, m: int, n: int, table: BracketTable | None = None):
    """All pairwise fourier_brackets of the named families, the first
    argument at mode m, the second at mode n."""
    if table is None:
        table = boson_table()
    gens = {}
    for fam in families:
        gens[fam] = (generator_density(fam, m), generator_density(fam, n))
    out = {}
    for fam_a in families:
        for fam_b in families:
            out[(fam_a, fam_b)] = fourier_bracket(
                gens[fam_a][0], gens[fam_b][1], table
            )
    return out
