"""The coisson bracket on circle densities and its Fourier-mode Lie algebra.

Works in the sigma-jet ring of the time-zero phase space: fields x^i and
momenta p_i with their sigma-derivatives, trig factors e^{im sigma}, and
circle test symbols phi/psi.  A jet key (i, 0, b) is d_sigma^b x^i and
(i, 1, b) is d_sigma^b p_i; tau-orders above one never appear here.

The generator table is ultralocal, {u_A(sigma), u_B(sigma')} =
K_AB(sigma') delta(sigma - sigma'), so every bracket follows from one
Euler operator delta/delta u_A = sum_n (-D_sigma)^n d/d u_A^(n) by the
master formula of Barakat, De Sole and Kac:

    {a_lambda b} = sum_{A,B,n} d b/d u_B^(n) (D_sigma - lambda)^n
                   [K_AB sum_m (lambda - D_sigma)^m d a/d u_A^(m)],

whose lambda^k coefficient is the coefficient of d_sigma^k delta in the
bracket of the densities.  At lambda = 0 it gives the Lie bracket of
Fourier components, {integral a, integral b} = integral sum_AB
(delta a/delta u_A) K_AB (delta b/delta u_B), a class modulo total
sigma-derivatives; the Euler operator kills those, so classes need no
normal form until the end.
"""

from __future__ import annotations

from math import comb, lcm

from .exactlin import (
    HALF,
    IMAG,
    ChiraltorusError,
    CoeffTable,
    DimensionMismatch,
    Frozen,
    PreconditionError,
    RationalMatrix,
    S,
    _integer,
    _natural,
    _over_common,
    _reduced,
    _torus_matrices,
    add_into,
    reduce_row,
    signed_sort,
)
from .jetcalc import (
    DiffPoly,
    Monomial,
    SYMBOL_KINDS,
    _D_RULES,
    _blocks,
    _image_basis,
    _jet_factors,
    _jet_rows,
    _mono_mul,
    block_weight,
    dz_jet,
    dzb_jet,
    gen_sigma,
    gen_tau,
    parse_expr,
    poly_str,
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

    __slots__ = _fields = ("poly",)

    def __init__(self, poly):
        self._set(poly=as_density(poly))

    def __str__(self):
        return poly_str(self.poly, style="xp")

    __repr__ = __str__


def normal_form(density) -> DiffPoly:
    """Canonical representative modulo im(D_sigma) on the sigma-jet ring:
    in each content block, the remainder with no pivot monomial.  The
    tau-order is a generator label there, so only sigma- and symbol
    orders count as weight.  A row D_sigma(m) leads at weight(m) + 1 and
    D_sigma is injective on the block (above weight 0 with no trig mode),
    so no row from the target's top weight pivots at or below it; with
    no trig mode a row is homogeneous, so weight w needs weight w - 1."""
    poly = as_density(density)
    out = {}
    for content, target in _blocks(poly, "s"):
        weights = {block_weight(m, "s") for m in target}
        layers = (range(max(max(weights), 1)) if content[0]
                  else sorted(w - 1 for w in weights if w))
        _, basis = _image_basis(content, tuple(layers), "s", True)
        out.update(reduce_row(target, basis))
    return poly._like(out)


class FourierClass(Frozen):
    """The class of a density modulo total sigma-derivatives: the Fourier
    component functional integral(density dsigma)."""

    __slots__ = _fields = ("rep",)

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

    def __str__(self):
        return "[" + poly_str(self.rep, style="xp") + "]"

    __repr__ = __str__


# ----------------------------------------------------------------------
# delta-distribution expansions
# ----------------------------------------------------------------------

class DeltaExpansion(CoeffTable):
    """sum_k c_k(sigma') d_sigma^k delta(sigma - sigma'), c_k densities:
    a table {k: DiffPoly}, read as the lambda-polynomial sum_k c_k lambda^k."""

    __slots__ = ()

    def _entry(self, k, poly):
        return k, as_density(poly)

    @staticmethod
    def zero() -> "DeltaExpansion":
        return DeltaExpansion()

    def _terms(self):
        for k in sorted(self.coeffs, reverse=True):
            yield f"({poly_str(self.coeffs[k], style='xp')}) " + "ds." * k + "delta"


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

    __slots__ = ("scale", "twist", "_momenta", "_den")

    def __init__(self, scale=1, twist=None):
        scale = S.coerce(scale)
        table = {}
        for key, val in (twist or {}).items():
            if not isinstance(key, tuple) or len(key) != 3:
                raise ChiraltorusError(f"twist key must be three indices, got {key!r}")
            i, j, k = (_integer(x, "twist index") for x in key)
            if not (0 < i < j < k):
                raise ChiraltorusError("twist keys must be strictly increasing triples")
            poly = parse_expr(val) if isinstance(val, str) else val
            if not isinstance(poly, DiffPoly):
                raise ChiraltorusError(f"twist value must be a string or a DiffPoly, got {val!r}")
            for mono in poly.coeffs:
                if any((a, b) != (0, 0) for (_, a, b) in mono.jets) or mono.syms or mono.mode:
                    raise ChiraltorusError("twist coefficients must be polynomials in bare x")
            if not poly.is_zero():
                table[(i, j, k)] = poly
        # every K_AB coefficient is +-scale or +-a twist coefficient, so _den
        # is their common denominator; _momenta keeps each {p_i, p_j} the
        # bracket calculus has asked for
        self._set(scale=scale, twist=table, _momenta={}, _den=lcm(scale.d, *(
            c.d for poly in table.values() for c in poly.coeffs.values())))

    def twist_coefficient(self, i: int, j: int, k: int) -> DiffPoly:
        """h_ijk with full antisymmetry from the increasing-triple table."""
        sign, order = signed_sort((i, j, k))
        base = self.twist.get(order)  # order is None for a repeated index
        if base is None:
            return DiffPoly.zero()
        return base if sign > 0 else -base

    def momentum_momentum(self, i: int, j: int) -> DiffPoly:
        """{p_i(sigma), p_j(sigma')} coefficient at sigma', built on the
        first call for (i, j)."""
        out = self._momenta.get((i, j))
        if out is None:
            ks = {k for triple in self.twist for k in triple}
            out = self._momenta[i, j] = sum(
                (self.twist_coefficient(i, j, k) * DiffPoly.jet(k, 0, 1) for k in ks),
                DiffPoly.zero())
        return out

    def base_bracket(self, slot_a, slot_b) -> DiffPoly:
        """K_AB in {u_A(sigma), u_B(sigma')} = K_AB(sigma') delta(sigma -
        sigma') for two ring generators; a slot is (field index, kind)
        with kind 0 for x and 1 for p."""
        (i, a), (j, b) = slot_a, slot_b
        if a != b:
            return DiffPoly.const(self.scale if a else -self.scale) if i == j else DiffPoly.zero()
        return self.momentum_momentum(i, j) if a else DiffPoly.zero()


def boson_table(twist=None) -> BracketTable:
    """The free-boson table on the time-zero slice.

    With the canonical momentum p = i g(d_tau x) + B(d_sigma x) the scale
    is -1: this is the single convention under which every displayed
    structure constant of the mode algebra comes out right, e.g.
    {i d_z x(sigma) dsigma, i d_z x(sigma') dsigma'} = (1/2) d_sigma delta.
    """
    return BracketTable(scale=-1, twist=twist)


# ----------------------------------------------------------------------
# the bracket calculus: one Euler operator under every bracket, run on
# integer tables {Monomial: (re, im)} of Gaussian-integer numerators over
# one denominator per polynomial, and reduced once per output coefficient
# ----------------------------------------------------------------------

def _slot_partials(poly: DiffPoly):
    """{(i, kind): {m: d poly / d u^(m)}} over the jets u^(m) of poly,
    where u^(m) is d_sigma^m x^i for kind 0 and d_sigma^m p_i for kind 1."""
    out = {}
    for (i, kind, m), part in poly.partials().items():
        out.setdefault((i, kind), {})[m] = part
    return out


def _integer_view(poly: DiffPoly) -> tuple:
    """(table, D): poly as numerators (re, im) over D, the lcm of its
    coefficients' denominators."""
    re, im, D = _over_common(list(poly.coeffs.values()))
    return dict(zip(poly.coeffs, zip(re, im))), D


def _as_poly(table, D) -> DiffPoly:
    """The DiffPoly of an integer table over D, one _reduced per coefficient."""
    return DiffPoly._trusted(coeffs={m: _reduced(x, y, D) for m, (x, y) in table.items()
                                     if x or y})


def _add(table, mono, x, y):
    """Add x + y*i into table[mono], kept as a mutable [re, im]."""
    cur = table.get(mono)
    if cur is None:
        table[mono] = [x, y]
    else:
        cur[0] += x
        cur[1] += y


def _minus_d_sigma(table, out):
    """Add -D_sigma of an integer table into out: each symbol's rule is
    read off jetcalc's _D_RULES, a Gaussian integer."""
    for mono, (x, y) in table.items():
        mode, syms, jets = mono
        if mode:
            _add(out, mono, y * mode, -x * mode)
        for k, (name, order) in enumerate(syms):
            f = _D_RULES[SYMBOL_KINDS[name], "s"]
            moved = tuple(sorted(syms[:k] + ((name, order + 1),) + syms[k + 1:]))
            _add(out, Monomial(mode, moved, jets), y * f.b - x * f.a, -x * f.b - y * f.a)
        for k, (i, a, b) in enumerate(jets):
            moved = tuple(sorted(jets[:k] + ((i, a, b + 1),) + jets[k + 1:]))
            _add(out, Monomial(mode, syms, moved), -x, -y)


def _euler(view, k: int = 0) -> tuple:
    """({(i, kind): table}, D): the lambda^k coefficient of sum_m (lambda
    - D_sigma)^m d/d u^(m) of an integer view, slot by slot over its own
    D, zero entries and slots left out."""
    table, D = view
    slots = {}  # {slot: {m: d/d u^(m)}}: distinct monomials leave distinct rests
    for mono, (x, y) in table.items():
        for (i, kind, m), count, rest in _jet_factors(mono):
            slots.setdefault((i, kind), {}).setdefault(m, {})[rest] = [x * count, y * count]
    out = {}
    for slot, parts in slots.items():
        acc = {}
        for m in range(max(parts), k - 1, -1):  # Horner in -D_sigma
            c = comb(m, k)
            step = parts.get(m, {})
            if c != 1:
                step = {rest: [x * c, y * c] for rest, (x, y) in step.items()}
            _minus_d_sigma(acc, step)
            acc = step
        acc = {m: v for m, v in acc.items() if v[0] or v[1]}
        if acc:
            out[slot] = acc
    return out, D


def _pair(ea, eb, table: BracketTable, out: dict) -> tuple:
    """(out, Da * Db * L): sum_AB (delta a/delta u_A) K_AB (delta b/delta
    u_B) added into the integer table out from the Euler operators of a
    and b, L being the common denominator of the K_AB; a slot pair with
    K_AB = 0 adds nothing."""
    (va, da), (vb, db) = ea, eb
    L = table._den
    for sa, ta in va.items():
        for sb, tb in vb.items():
            for mk, c in table.base_bracket(sa, sb).coeffs.items():
                s = L // c.d
                kx, ky = c.a * s, c.b * s
                for ma, (ax, ay) in ta.items():
                    m = _mono_mul(ma, mk)
                    px, py = ax * kx - ay * ky, ax * ky + ay * kx
                    for mb, (bx, by) in tb.items():
                        _add(out, _mono_mul(m, mb), px * bx - py * by, px * by + py * bx)
    return out, da * db * L


def variational_derivative(poly, k: int = 0) -> dict:
    """The coefficient of lambda^k in sum_m (lambda - D_sigma)^m d poly /
    d u^(m), slot by slot: {(i, kind): DiffPoly}, zero slots left out.

    At k = 0 this is the Euler operator delta/delta u = sum_m (-D_sigma)^m
    d/d u^(m), which kills every total sigma-derivative, trig modes and
    circle symbols included."""
    k = _natural(k, "k")
    slots, D = _euler(_integer_view(as_density(poly)), k)
    return {slot: _as_poly(table, D) for slot, table in slots.items()}


def density_bracket(a, b, table: BracketTable) -> DeltaExpansion:
    """{a(sigma) dsigma, b(sigma') dsigma'} = sum_k c_k(sigma') d_sigma^k
    delta(sigma - sigma'), where c_k is the lambda^k coefficient of
    {a_lambda b} = sum_{B,n} d b/d u_B^(n) (D_sigma - lambda)^n {a_lambda u_B}
    and {a_lambda u_B} = sum_A K_AB sum_m (lambda - D_sigma)^m d a/d u_A^(m)."""
    a = as_density(a)
    top = max((m for mono in a.coeffs for (_, _, m) in mono.jets), default=0)
    va = [variational_derivative(a, k) for k in range(top + 1)]
    out = {}
    for slot_b, parts in _slot_partials(as_density(b)).items():
        w = {}  # {a_lambda u_B} as {k: lambda^k coefficient}
        for k, v in enumerate(va):
            for slot_a, vk in v.items():
                add_into(w, k, table.base_bracket(slot_a, slot_b) * vk)
        for n in range(max(parts) + 1):
            if n:  # w becomes (D_sigma - lambda)^n {a_lambda u_B}
                step = {}
                for k, c in w.items():
                    add_into(step, k, c.D("s"))
                    add_into(step, k + 1, -c)
                w = step
            if n in parts:
                for k, c in w.items():
                    add_into(out, k, parts[n] * c)
    return DeltaExpansion(out)


def _pairing(a, b, table: BracketTable) -> DiffPoly:
    """sum_AB (delta a/delta u_A) K_AB (delta b/delta u_B): a density
    whose class is {integral a, integral b}."""
    ea, eb = (_euler(_integer_view(as_density(u))) for u in (a, b))
    return _as_poly(*_pair(ea, eb, table, {}))


def fourier_bracket(a, b, table: BracketTable) -> FourierClass:
    """The Lie bracket of Fourier-component functionals:
    {integral a, integral b} as a class modulo im(D_sigma).

    Well defined on classes: the Euler operator kills total derivatives.
    """
    return FourierClass(_pairing(a, b, table))


def hamiltonian_flow(H, a, table: BracketTable) -> LocalDensity:
    """{integral H, a(sigma')} as a density in sigma': the delta
    coefficient sum_{B,n} d a/d u_B^(n) D_sigma^n (sum_A delta H/delta u_A K_AB)."""
    return LocalDensity(density_bracket(H, a, table).coeffs.get(0, DiffPoly.zero()))


def jacobi_residual(table: BracketTable, a, b, c) -> FourierClass:
    """Cyclic sum {{a,b},c} + {{b,c},a} + {{c,a},b} on Fourier classes;
    zero certifies the Jacobi identity for the sampled triple.

    The Euler operators of a, b and c are taken once each.  The inner
    brackets stay unreduced integer tables: the outer Euler operator is
    linear and sees only their classes.  The three cyclic terms are
    summed over one denominator, each coefficient is reduced once, and
    one normal form of the sum decides the residual."""
    ea, eb, ec = (_euler(_integer_view(as_density(u))) for u in (a, b, c))
    out = {}
    for u, v, w in ((ea, eb, ec), (eb, ec, ea), (ec, ea, eb)):
        _, D = _pair(_euler(_pair(u, v, table, {})), w, table, out)  # D = Da Db Dc L^2
    return FourierClass(_as_poly(out, D))


def b_shift(density, alpha_rows) -> DiffPoly:
    """The substitution p_j -> p_j + alpha_ji d_sigma x^i for an
    antisymmetric constant matrix: an automorphism of the untwisted
    bracket."""
    poly = as_density(density)
    alpha = RationalMatrix(alpha_rows)
    if alpha.rows != alpha.cols:
        raise DimensionMismatch("shift matrix must be square")
    top = max((i for mono in poly.coeffs for (i, a, _) in mono.jets if a), default=0)
    if top > alpha.rows:
        raise DimensionMismatch(f"momentum index {top} exceeds the shift matrix size {alpha.rows}")
    shift = _jet_rows(alpha.entries, gen_sigma(alpha.rows))
    return substitute_jets(poly, {
        (j, 1): p + s for j, (p, s) in enumerate(zip(gen_tau(alpha.rows), shift), 1)})


# ----------------------------------------------------------------------
# model densities and mode families
# ----------------------------------------------------------------------

def from_tau_jets(poly: DiffPoly, g_rows=None, b_rows=None) -> DiffPoly:
    """Rewrite a time-zero density from tau-jets to momenta: substitutes
    d_tau x^j = -i g^{jk} (p_k - b_kl d_sigma x^l) per the Legendre map
    p = i g(d_tau x) + B(d_sigma x); g is the identity when None, of
    the size of the highest field index."""
    top = max(poly.field_indices(), default=1)
    g, b = _torus_matrices(RationalMatrix.identity(top) if g_rows is None else g_rows,
                           b_rows)
    n = g.rows
    if top > n:
        raise DimensionMismatch(f"field index {top} exceeds the metric size {n}")
    p, xprime = gen_tau(n), gen_sigma(n)
    velocity = _jet_rows(g.inverse().scale(-IMAG).entries,
                         [pk - bk for pk, bk in zip(p, _jet_rows(b.entries, xprime))])
    return as_density(substitute_jets(poly, {(j, 1): v for j, v in enumerate(velocity, 1)}))


def dz_density(i: int = 1, g_rows=None, b_rows=None) -> DiffPoly:
    """d_z x^i on the time-zero slice, in x and p."""
    return from_tau_jets(dz_jet(i), g_rows, b_rows)


def dzb_density(i: int = 1, g_rows=None, b_rows=None) -> DiffPoly:
    """d_zbar x^i on the time-zero slice, in x and p."""
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
    gens = {fam: (generator_density(fam, m), generator_density(fam, n)) for fam in families}
    return {(fa, fb): fourier_bracket(gens[fa][0], gens[fb][1], table)
            for fa in families for fb in families}
