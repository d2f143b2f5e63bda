"""Variational calculus on jets of maps from the cylinder to a torus.

The ring of functions on the jet space is modeled by DiffPoly: exact
linear combinations of monomials, each monomial a product of jet
variables dtau^a dsigma^b x^i, coefficient symbols (holomorphic f,
antiholomorphic g, circle functions phi/psi, a trig factor e^{im sigma}),
with Gaussian-rational coefficients.  On top of it sits the variational
bicomplex: forms with vertical (delta x) and horizontal (dtau, dsigma)
factors, the two supercommuting differentials, contraction with and
prolongation of evolutionary vector fields, and the Noether machinery
that turns a symmetry of a first-order Lagrangian into a conserved
current with an on-shell certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .exactlin import (
    HALF,
    IMAG,
    ONE,
    ZERO,
    ChiraltorusError,
    CoeffTable,
    ExactScalar,
    InvariantError,
    PreconditionError,
    RationalMatrix,
    S,
    add_into,
    compositions,
    echelon,
    reduce_row,
)


class NotFirstOrder(PreconditionError):
    """Raised when a Lagrangian density contains jets of order above one."""


class NotASymmetry(PreconditionError):
    """Raised when x-hat L is not a total derivative on the candidate space."""


class NonLinearEL(PreconditionError):
    """Raised when the Euler-Lagrange system is not the flat wave system."""


# symbol kinds fix how total derivatives act on coefficient functions:
#   hol     f(z):      D_tau f = f',  D_sigma f =  i f'
#   antihol g(zbar):   D_tau g = g',  D_sigma g = -i g'
#   sigma   phi(sigma): D_tau phi = 0, D_sigma phi = phi'
SYMBOL_KINDS = {"f": "hol", "g": "antihol", "phi": "sigma", "psi": "sigma"}

_D_RULES = {
    ("hol", "t"): ONE,
    ("hol", "s"): IMAG,
    ("antihol", "t"): ONE,
    ("antihol", "s"): -IMAG,
    ("sigma", "t"): None,
    ("sigma", "s"): ONE,
}


class Monomial(NamedTuple):
    mode: int                  # trig factor e^{i*mode*sigma}
    syms: tuple                # sorted ((name, order), ...)
    jets: tuple                # sorted ((i, a, b), ...)


UNIT_MONO = Monomial(0, (), ())


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return Monomial(
        m1.mode + m2.mode,
        tuple(sorted(m1.syms + m2.syms)),
        tuple(sorted(m1.jets + m2.jets)),
    )


def monomial_weight(m: Monomial) -> int:
    return sum(a + b for (_, a, b) in m.jets) + sum(o for (_, o) in m.syms)


def monomial_content(m: Monomial):
    """The data preserved by total derivatives: trig mode, field index
    multiset, symbol name multiset."""
    return (m.mode, tuple(sorted(i for (i, _, _) in m.jets)),
            tuple(sorted(n for (n, _) in m.syms)))


class DiffPoly(CoeffTable):
    """An exact polynomial in jet variables and coefficient symbols:
    a table {Monomial: ExactScalar}."""

    __slots__ = ()

    terms = property(lambda self: self.coeffs, doc="Read-only alias of coeffs.")

    def _operand(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return DiffPoly.const(other)
        return super()._operand(other)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def const(c) -> "DiffPoly":
        return DiffPoly({UNIT_MONO: S.coerce(c)})

    @staticmethod
    def jet(i: int, a: int, b: int, coeff=1) -> "DiffPoly":
        return DiffPoly({Monomial(0, (), ((i, a, b),)): S.coerce(coeff)})

    @staticmethod
    def symbol(name: str, order: int = 0) -> "DiffPoly":
        if name not in SYMBOL_KINDS:
            raise ChiraltorusError(f"unknown symbol {name!r}")
        return DiffPoly({Monomial(0, ((name, order),), ()): ONE})

    @staticmethod
    def trig(m: int) -> "DiffPoly":
        return DiffPoly({Monomial(m, (), ()): ONE})

    # -- ring operations ---------------------------------------------

    __radd__ = CoeffTable.__add__

    def __rsub__(self, other):
        return DiffPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                add_into(out, _mono_mul(m1, m2), c1 * c2)
        return self._like(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ChiraltorusError("polynomial powers must be nonnegative integers")
        out = DiffPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------

    def D(self, direction: str) -> "DiffPoly":
        """Total derivative D_tau (direction 't') or D_sigma ('s')."""
        if direction not in ("t", "s"):
            raise ChiraltorusError("direction must be 't' or 's'")
        out = {}
        for mono, coeff in self.coeffs.items():
            if direction == "s" and mono.mode != 0:
                add_into(out, mono, coeff * IMAG * S(mono.mode))
            for k, (name, order) in enumerate(mono.syms):
                factor = _D_RULES[(SYMBOL_KINDS[name], direction)]
                if factor is None:
                    continue
                syms = list(mono.syms)
                syms[k] = (name, order + 1)
                add_into(out, Monomial(mono.mode, tuple(sorted(syms)), mono.jets),
                         coeff * factor)
            for k, (i, a, b) in enumerate(mono.jets):
                jets = list(mono.jets)
                jets[k] = (i, a + 1, b) if direction == "t" else (i, a, b + 1)
                add_into(out, Monomial(mono.mode, mono.syms, tuple(sorted(jets))), coeff)
        return self._like(out)

    def partial(self, key) -> "DiffPoly":
        """Partial derivative with respect to the jet variable key=(i,a,b)."""
        key = tuple(key)
        out = {}
        for mono, coeff in self.coeffs.items():
            mult = mono.jets.count(key)
            if not mult:
                continue
            jets = list(mono.jets)
            jets.remove(key)
            add_into(out, Monomial(mono.mode, mono.syms, tuple(jets)), coeff * S(mult))
        return self._like(out)

    def jet_support(self):
        keys = set()
        for mono in self.coeffs:
            keys.update(mono.jets)
        return sorted(keys)

    def max_jet_order(self) -> int:
        return max((a + b for mono in self.coeffs for (_, a, b) in mono.jets), default=0)

    def field_indices(self):
        return sorted({i for mono in self.coeffs for (i, _, _) in mono.jets})

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


_DIRECTIONS = {"t": "t", "tau": "t", "τ": "t", "s": "s", "sigma": "s", "σ": "s"}


def total_derivative(direction: str, poly: DiffPoly) -> DiffPoly:
    """D_tau or D_sigma as a free function; accepts 't'/'tau' and 's'/'sigma'."""
    if direction not in _DIRECTIONS:
        raise ChiraltorusError(f"unknown direction {direction!r}")
    return poly.D(_DIRECTIONS[direction])


def substitute_jets(poly: DiffPoly, mapping) -> DiffPoly:
    """Replace whole field slots: for (i, a) in mapping, every jet
    (i, a, b) becomes D_sigma^b applied to mapping[(i, a)].

    Used for changes of generators like p_j -> p_j + alpha_{ji} d_sigma x^i.
    """
    cache = {}

    def replacement(i, a, b):
        base = mapping[(i, a)]
        key = (i, a, b)
        if key not in cache:
            cur = base
            for _ in range(b):
                cur = cur.D("s")
            cache[key] = cur
        return cache[key]

    out = DiffPoly()
    for mono, coeff in poly.coeffs.items():
        acc = DiffPoly({Monomial(mono.mode, mono.syms, ()): coeff})
        for (i, a, b) in mono.jets:
            if (i, a) in mapping:
                acc = acc * replacement(i, a, b)
            else:
                acc = acc * DiffPoly.jet(i, a, b)
        out = out + acc
    return out


# ----------------------------------------------------------------------
# pretty printing and parsing
# ----------------------------------------------------------------------

def _coeff_str(c: ExactScalar):
    """Render a coefficient in the grammar the parser accepts."""
    if c.is_rational():
        return str(c)
    re, im = c.re, c.im
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    return f"({re}{sign}{imag})"


def _jet_str(i, a, b, style):
    if style == "xp" and a == 1:
        return "ds." * b + f"p{i}"
    return "dt." * a + "ds." * b + f"x{i}"


def _mono_str(mono: Monomial, style: str):
    parts = []
    if mono.mode != 0:
        parts.append(f"e({mono.mode})")
    run = []
    for name, order in mono.syms:
        run.append(name + "p" * order)
    for (i, a, b) in mono.jets:
        run.append(_jet_str(i, a, b, style))
    grouped = []
    k = 0
    while k < len(run):
        j = k
        while j < len(run) and run[j] == run[k]:
            j += 1
        grouped.append(run[k] if j - k == 1 else f"{run[k]}^{j - k}")
        k = j
    return parts + grouped


def poly_str(poly: DiffPoly, style: str = "tau") -> str:
    """Deterministic text form; parses back with parse_expr."""
    if poly.is_zero():
        return "0"
    bits = []
    for mono in sorted(poly.coeffs):
        coeff = poly.coeffs[mono]
        factors = _mono_str(mono, style)
        neg = False
        if coeff == S(-1) and factors:
            body = "*".join(factors)
            neg = True
        elif coeff == ONE and factors:
            body = "*".join(factors)
        else:
            cs = _coeff_str(coeff)
            if cs.startswith("-") and not cs.startswith("(-"):
                neg = True
                cs = cs[1:]
            body = "*".join([cs] + factors)
        if not bits:
            bits.append(("-" if neg else "") + body)
        else:
            bits.append(("- " if neg else "+ ") + body)
    return " ".join(bits)


def poly_to_tree(poly: DiffPoly):
    """JSON expression tree: canonical sum of monomials."""
    terms = []
    for mono in sorted(poly.coeffs):
        terms.append(
            {
                "coeff": poly.coeffs[mono].to_json(),
                "trig": mono.mode,
                "symbols": [[n, o] for (n, o) in mono.syms],
                "jets": [[i, a, b] for (i, a, b) in mono.jets],
            }
        )
    return {"terms": terms}


def tree_to_poly(data) -> DiffPoly:
    out = {}
    for t in data["terms"]:
        mono = Monomial(
            t.get("trig", 0),
            tuple(sorted((n, o) for n, o in t.get("symbols", []))),
            tuple(sorted((i, a, b) for i, a, b in t.get("jets", []))),
        )
        out[mono] = S.from_string(t["coeff"])
    return DiffPoly(out)


_TOKEN_CHARS = set("+-*^().,/ \t\n")


def _tokenize(text: str):
    toks = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch in " \t\n":
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[k:j]))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[k:j]))
            k = j
            continue
        if ch in "+-*^()./":
            toks.append((ch, ch))
            k += 1
            continue
        raise ChiraltorusError(f"unexpected character {ch!r} in expression")
    toks.append(("end", ""))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ChiraltorusError(f"expected {kind!r}, got {tok[1]!r}")
        return tok

    def parse(self) -> DiffPoly:
        out = self.expr()
        if self.peek()[0] != "end":
            raise ChiraltorusError(f"trailing input near {self.peek()[1]!r}")
        return out

    def expr(self):
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while self.peek()[0] == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self):
        if self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            val = self.factor()
            return val if op == "+" else -val
        base = self.primary()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            base = base ** int(tok[1])
        return base

    def rational(self, first):
        num = int(first)
        if self.peek()[0] == "/":
            self.next()
            den = int(self.expect("num")[1])
            return Fraction(num, den)
        return Fraction(num)

    def primary(self):
        kind, val = self.next()
        if kind == "(":
            out = self.expr()
            self.expect(")")
            return out
        if kind == "num":
            return DiffPoly.const(self.rational(val))
        if kind != "name":
            raise ChiraltorusError(f"unexpected token {val!r}")
        return self.name_atom(val)

    def name_atom(self, name):
        if name == "i":
            return DiffPoly.const(IMAG)
        if name == "e":
            self.expect("(")
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            m = int(self.expect("num")[1]) * sign
            self.expect(")")
            return DiffPoly.trig(m)
        if name in ("dt", "ds", "dz", "dzb"):
            self.expect(".")
            inner_kind, inner = self.next()
            if inner_kind != "name":
                raise ChiraltorusError("derivative prefix must be applied to a jet variable")
            target = self.name_atom(inner)
            return _apply_prefix(name, target)
        if name.startswith("x") and name[1:].isdigit():
            return DiffPoly.jet(int(name[1:]), 0, 0)
        if name.startswith("p") and name[1:].isdigit():
            return DiffPoly.jet(int(name[1:]), 1, 0)
        for base in ("phi", "psi", "f", "g"):
            if name.startswith(base):
                rest = name[len(base):]
                if rest == "" or set(rest) == {"p"}:
                    return DiffPoly.symbol(base, len(rest))
        raise ChiraltorusError(f"unknown name {name!r} in expression")


def _apply_prefix(prefix, target: DiffPoly) -> DiffPoly:
    if prefix == "dt":
        return target.D("t")
    if prefix == "ds":
        return target.D("s")
    if prefix == "dz":
        return (target.D("t") - target.D("s").scale(IMAG)).scale(HALF)
    return (target.D("t") + target.D("s").scale(IMAG)).scale(HALF)


def parse_expr(text: str) -> DiffPoly:
    """Parse the expression grammar: jets x1, dt.x1, ds.ds.x1, momenta
    p1, symbols f/fp/g/gp/phi/psi, trig e(m), i, rationals, + - * ^,
    and the light-cone sugar dz.x1 / dzb.x1."""
    return _Parser(text).parse()


def dz_jet(i: int) -> DiffPoly:
    """The jet polynomial for d_z x^i = (d_tau x^i - i d_sigma x^i)/2."""
    return (DiffPoly.jet(i, 1, 0) - DiffPoly.jet(i, 0, 1).scale(IMAG)).scale(HALF)


def dzb_jet(i: int) -> DiffPoly:
    """The jet polynomial for d_zbar x^i = (d_tau x^i + i d_sigma x^i)/2."""
    return (DiffPoly.jet(i, 1, 0) + DiffPoly.jet(i, 0, 1).scale(IMAG)).scale(HALF)


# ----------------------------------------------------------------------
# variational bicomplex
# ----------------------------------------------------------------------

def _canon_vkeys(keys):
    keys = list(keys)
    if len(set(keys)) != len(keys):
        return 0, None
    sign = 1
    for i in range(len(keys)):
        for j in range(len(keys) - 1 - i):
            if keys[j] > keys[j + 1]:
                keys[j], keys[j + 1] = keys[j + 1], keys[j]
                sign = -sign
    return sign, tuple(keys)


_H_ORDER = {(): 0, ("t",): 1, ("s",): 1, ("t", "s"): 2}


def _insert_h(c, hkeys):
    """Wedge dc onto the left of the horizontal factor; canonical order (t, s)."""
    if c in hkeys:
        return 0, None
    if hkeys == ():
        return 1, (c,)
    if hkeys == ("t",):
        # ds ^ dt = -dt ^ ds
        return -1, ("t", "s")
    if hkeys == ("s",):
        return 1, ("t", "s")
    return 0, None


class VariationalForm(CoeffTable):
    """A form of the variational bicomplex with polynomial coefficients.

    Stored as a table {(vkeys, hkeys): DiffPoly}: the component
    P * delta u_{J1} ^ ... ^ delta u_{Jv} ^ h with vkeys strictly
    increasing (delta factors anticommute) and h one of (), (t,), (s,),
    (t, s).  The constructor sorts vkeys with the matching sign and drops
    components with a repeated delta factor.
    """

    __slots__ = ()

    parts = property(lambda self: self.coeffs, doc="Read-only alias of coeffs.")

    def _entry(self, key, poly):
        vkeys, hkeys = key
        vkeys = tuple(tuple(k) for k in vkeys)
        hkeys = tuple(hkeys)
        if hkeys not in _H_ORDER:
            raise ChiraltorusError(f"bad horizontal factor {hkeys!r}")
        sign, canon = _canon_vkeys(vkeys)
        if sign == 0:
            return None
        return (canon, hkeys), (poly if sign == 1 else -poly)

    @staticmethod
    def zero() -> "VariationalForm":
        return VariationalForm()

    def component(self, vkeys, hkeys) -> DiffPoly:
        vkeys = tuple(tuple(k) for k in vkeys)
        return self.coeffs.get((vkeys, tuple(hkeys)), DiffPoly.zero())

    def mul_poly(self, poly: DiffPoly) -> "VariationalForm":
        out = {}
        for k, v in self.coeffs.items():
            prod = v * poly
            if not prod.is_zero():
                out[k] = prod
        return self._like(out)

    # -- the two differentials -----------------------------------------

    def horizontal_differential(self) -> "VariationalForm":
        """d = dtau ^ D_tau + dsigma ^ D_sigma, dc wedged from the left."""
        items = []
        for (vkeys, hkeys), poly in self.coeffs.items():
            v = len(vkeys)
            for c in ("t", "s"):
                hsign, newh = _insert_h(c, hkeys)
                if hsign == 0:
                    continue
                total_sign = S(hsign) if v % 2 == 0 else S(-hsign)
                items.append(((vkeys, newh), poly.D(c).scale(total_sign)))
                for k, (i, a, b) in enumerate(vkeys):
                    bumped = list(vkeys)
                    bumped[k] = (i, a + 1, b) if c == "t" else (i, a, b + 1)
                    items.append(((bumped, newh), poly.scale(total_sign)))
        return VariationalForm(items)

    def vertical_differential(self) -> "VariationalForm":
        """delta = sum_J delta u_J ^ d/du_J, the new factor wedged leftmost."""
        items = []
        for (vkeys, hkeys), poly in self.coeffs.items():
            for key in poly.jet_support():
                items.append((((key,) + vkeys, hkeys), poly.partial(key)))
        return VariationalForm(items)

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (vkeys, hkeys) in sorted(self.coeffs, key=lambda kv: (len(kv[0]), kv)):
            poly = self.coeffs[(vkeys, hkeys)]
            label = "^".join(
                [f"d[{_jet_str(i, a, b, 'tau')}]" for (i, a, b) in vkeys]
                + [{"t": "dt", "s": "ds"}[c] for c in hkeys]
            )
            body = f"({poly_str(poly)})"
            bits.append(f"{body} {label}".strip())
        return " + ".join(bits)

    __repr__ = __str__


class EvolutionaryField:
    """The prolongation x-hat of a generator (F_1, ..., F_n):
    x-hat(d^a_tau d^b_sigma x^i) = D_tau^a D_sigma^b F_i."""

    def __init__(self, components):
        self.components = [c if isinstance(c, DiffPoly) else DiffPoly.const(c)
                           for c in components]
        self._cache = {}

    def on_jet(self, key) -> DiffPoly:
        i, a, b = key
        if i > len(self.components):
            raise ChiraltorusError(f"no generator component for field {i}")
        if key not in self._cache:
            cur = self.components[i - 1]
            for _ in range(a):
                cur = cur.D("t")
            for _ in range(b):
                cur = cur.D("s")
            self._cache[key] = cur
        return self._cache[key]

    def apply_poly(self, poly: DiffPoly) -> DiffPoly:
        out = DiffPoly.zero()
        for key in poly.jet_support():
            dpoly = poly.partial(key)
            if not dpoly.is_zero():
                out = out + dpoly * self.on_jet(key)
        return out


def prolong(generator, target):
    """Apply the evolutionary vector field of the generator.

    On a DiffPoly this is the derivation x-hat; on a VariationalForm it
    also pushes through the vertical factors via delta(x-hat u_J).
    """
    field = generator if isinstance(generator, EvolutionaryField) else EvolutionaryField(generator)
    if isinstance(target, DiffPoly):
        return field.apply_poly(target)
    items = []
    for (vkeys, hkeys), poly in target.coeffs.items():
        items.append(((vkeys, hkeys), field.apply_poly(poly)))
        for k, key in enumerate(vkeys):
            w = field.on_jet(key)
            for new_key in w.jet_support():
                newv = list(vkeys)
                newv[k] = new_key
                items.append(((newv, hkeys), poly * w.partial(new_key)))
    return VariationalForm(items)


def contract(generator, form: VariationalForm) -> VariationalForm:
    """Interior product iota_{x-hat}: odd derivation, delta u_J |-> x-hat(u_J)."""
    field = generator if isinstance(generator, EvolutionaryField) else EvolutionaryField(generator)
    items = []
    for (vkeys, hkeys), poly in form.coeffs.items():
        for k, key in enumerate(vkeys):
            rest = vkeys[:k] + vkeys[k + 1:]
            sgn = ONE if k % 2 == 0 else S(-1)
            items.append(((rest, hkeys), (poly * field.on_jet(key)).scale(sgn)))
    return VariationalForm(items)


# ----------------------------------------------------------------------
# Lagrangians, Euler-Lagrange, Noether
# ----------------------------------------------------------------------

class Lagrangian:
    """A first-order Lagrangian density; the form is density * dtau^dsigma."""

    def __init__(self, density: DiffPoly, n: int | None = None):
        if density.max_jet_order() > 1:
            raise NotFirstOrder("Lagrangian density must be first order in jets")
        fields = density.field_indices()
        self.n = n if n is not None else (fields[-1] if fields else 1)
        if fields and fields[-1] > self.n:
            raise ChiraltorusError("field index exceeds declared number of fields")
        self.density = density

    def form(self) -> VariationalForm:
        return VariationalForm({((), ("t", "s")): self.density})


def euler_lagrange(L: Lagrangian):
    """E_i = dl/dx^i - D_tau dl/d(u_tau^i) - D_sigma dl/d(u_sigma^i)."""
    out = []
    for i in range(1, L.n + 1):
        e = (
            L.density.partial((i, 0, 0))
            - L.density.partial((i, 1, 0)).D("t")
            - L.density.partial((i, 0, 1)).D("s")
        )
        out.append(e)
    return out


def variational_one_form(L: Lagrangian) -> VariationalForm:
    """gamma = sum_i dl/d(u_tau^i) delta x^i ^ dsigma
                 - dl/d(u_sigma^i) delta x^i ^ dtau."""
    items = []
    for i in range(1, L.n + 1):
        items.append(((((i, 0, 0),), ("s",)), L.density.partial((i, 1, 0))))
        items.append(((((i, 0, 0),), ("t",)), -L.density.partial((i, 0, 1))))
    return VariationalForm(items)


def enumerate_monomials(content, weight, forbid_bare=False):
    """All monomials of the given content and total weight.

    Weight = sum of jet orders (a+b) plus symbol orders; content fixes
    the trig mode, the multiset of field indices, and the symbol names.
    """
    mode, fields, names = content
    out = set()
    for comp in compositions(weight, len(fields) + len(names)):
        jet_orders = comp[: len(fields)]
        sym_orders = comp[len(fields):]
        if forbid_bare and any(o == 0 for o in jet_orders):
            continue
        syms = tuple(sorted(zip(names, sym_orders)))
        for split in product(*[range(o + 1) for o in jet_orders]):
            jets = tuple(
                sorted((fields[k], split[k], jet_orders[k] - split[k])
                       for k in range(len(fields)))
            )
            out.add(Monomial(mode, syms, jets))
    return sorted(out)


def _solve_in_span(columns, target: DiffPoly):
    """Exact coefficients c with sum c_k columns[k] = target, or None.

    Column k becomes a row tagged with the int key k beside its Monomial
    keys.  A column in the span of the ones before it gets no pivot, so
    its coefficient, a free variable, is 0.  What reducing the target
    leaves is minus the solution on the tags, and untagged only when the
    target is outside the span.
    """
    rows = [{**col.coeffs, k: ONE} for k, col in enumerate(columns)]
    basis = echelon(rows, lambda row: min(
        (key for key in row if type(key) is not int), default=None))
    rest = reduce_row(target.coeffs, basis)
    if any(type(key) is not int for key in rest):
        return None
    return [-rest[k] if k in rest else ZERO for k in range(len(columns))]


def _solve_total_derivative(q: DiffPoly):
    """Find (P, Q) with q = D_tau Q - D_sigma P by graded peeling.

    Candidates live in the same content class as q with weight one
    lower (weight equal as well when a nonzero trig mode lets D_sigma
    act without raising the weight).  A first pass excludes bare-x
    factors, which removes the gauge freedom for the
    translation-invariant densities this solver is used on; the full
    candidate set is the fallback.
    """
    if q.is_zero():
        return DiffPoly.zero(), DiffPoly.zero()
    blocks = {}
    for mono, coeff in q.coeffs.items():
        blocks.setdefault(monomial_content(mono), {})[mono] = coeff
    P = DiffPoly.zero()
    Q = DiffPoly.zero()
    for content in sorted(blocks):
        target = DiffPoly(blocks[content])
        weights = sorted({monomial_weight(m) for m in target.coeffs})
        solved = None
        for forbid_bare in (True, False):
            cands = []
            seen = set()
            for w in weights:
                wants = [w - 1] if content[0] == 0 else [w - 1, w]
                for cw in wants:
                    if cw < 0:
                        continue
                    for mono in enumerate_monomials(content, cw, forbid_bare):
                        if mono not in seen:
                            seen.add(mono)
                            cands.append(mono)
            if not cands:
                continue
            cand_polys = [DiffPoly({m: ONE}) for m in cands]
            columns = [cp.D("t") for cp in cand_polys]
            columns += [cp.D("s").scale(S(-1)) for cp in cand_polys]
            sol = _solve_in_span(columns, target)
            if sol is not None:
                for k, cp in enumerate(cand_polys):
                    if not sol[k].is_zero():
                        Q = Q + cp.scale(sol[k])
                    if not sol[len(cands) + k].is_zero():
                        P = P + cp.scale(sol[len(cands) + k])
                solved = True
                break
        if not solved:
            raise NotASymmetry(
                f"no total-derivative representation in content block {content}"
            )
    return P, Q


def wave_reduce_poly(poly: DiffPoly) -> DiffPoly:
    """Rewrite every jet with a >= 2 via d_tau^2 x = -d_sigma^2 x."""
    out = {}
    for mono, coeff in poly.coeffs.items():
        sign = 1
        jets = []
        for (i, a, b) in mono.jets:
            k = a // 2
            if k % 2 == 1:
                sign = -sign
            jets.append((i, a % 2, b + 2 * k))
        mono2 = Monomial(mono.mode, mono.syms, tuple(sorted(jets)))
        add_into(out, mono2, coeff if sign == 1 else -coeff)
    return poly._like(out)


def _validate_wave_model(L: Lagrangian):
    """The on-shell rewrite is valid only when E_i = sum_j M_ij
    (d_tau^2 + d_sigma^2) x^j with one invertible constant M."""
    els = euler_lagrange(L)
    n = L.n
    m_tt = [[ZERO] * n for _ in range(n)]
    m_ss = [[ZERO] * n for _ in range(n)]
    for row, e in enumerate(els):
        for mono, coeff in e.coeffs.items():
            if mono.mode != 0 or mono.syms or len(mono.jets) != 1:
                raise NonLinearEL("Euler-Lagrange system is not constant-coefficient linear")
            (j, a, b) = mono.jets[0]
            if (a, b) == (2, 0):
                m_tt[row][j - 1] = coeff
            elif (a, b) == (0, 2):
                m_ss[row][j - 1] = coeff
            else:
                raise NonLinearEL("Euler-Lagrange system is not the flat wave system")
    if m_tt != m_ss:
        raise NonLinearEL("d_tau^2 and d_sigma^2 blocks differ")
    if RationalMatrix(m_tt).det().is_zero():
        raise NonLinearEL("wave operator coefficient matrix is singular")


def noether(L: Lagrangian, generator) -> VariationalForm:
    """Noether current of a symmetry: alpha - iota_{x-hat} gamma.

    Solves x-hat(L) = d(alpha) by graded peeling and certifies that the
    returned current is closed on shell (the horizontal differential
    reduces to zero under the wave rewrite).
    """
    field = generator if isinstance(generator, EvolutionaryField) else EvolutionaryField(generator)
    q = field.apply_poly(L.density)
    P, Q = _solve_total_derivative(q)
    check = Q.D("t") - P.D("s")
    if not (check - q).is_zero():
        raise InvariantError("internal: peel produced an incorrect representation")
    alpha = VariationalForm({((), ("t",)): P, ((), ("s",)): Q})
    current = alpha - contract(field, variational_one_form(L))
    _validate_wave_model(L)
    d_current = current.horizontal_differential()
    residual = wave_reduce_poly(d_current.component((), ("t", "s")))
    if not residual.is_zero():
        raise NotASymmetry("on-shell certificate failed for the computed current")
    return current


def restrict_to_sol0(expr, L: Lagrangian | None = None):
    """Restrict to the time-zero solution slice: drop dtau components and
    rewrite d_tau^2 x^i -> -d_sigma^2 x^i until every jet has a <= 1.

    When a Lagrangian is supplied, its Euler-Lagrange system is checked
    to actually be the flat wave system (NonLinearEL otherwise).
    """
    if L is not None:
        _validate_wave_model(L)
    if isinstance(expr, DiffPoly):
        return wave_reduce_poly(expr)
    items = []
    for (vkeys, hkeys), poly in expr.coeffs.items():
        if "t" in hkeys:
            continue
        sign = 1
        newv = []
        for (i, a, b) in vkeys:
            k = a // 2
            if k % 2 == 1:
                sign = -sign
            newv.append((i, a % 2, b + 2 * k))
        reduced = wave_reduce_poly(poly if sign == 1 else poly.scale(S(-1)))
        items.append(((newv, hkeys), reduced))
    return VariationalForm(items)


# ----------------------------------------------------------------------
# model builders and standard generators
# ----------------------------------------------------------------------

def boson_circle_lagrangian() -> Lagrangian:
    """l = (i/2)((d_tau x)^2 + (d_sigma x)^2) for one field."""
    ut = DiffPoly.jet(1, 1, 0)
    us = DiffPoly.jet(1, 0, 1)
    return Lagrangian((ut * ut + us * us).scale(IMAG * HALF), n=1)


def torus_lagrangian(g_rows, b_rows=None) -> Lagrangian:
    """l = (i/2) g(u_tau, u_tau) + (i/2) g(u_sigma, u_sigma) - B(u_tau, u_sigma).

    g symmetric, B antisymmetric.  The B-term sign is fixed so that
    dl/d(u_tau^j) equals the canonical momentum i g(u_tau)_j - (b u_sigma)_j,
    matching the displayed variational 1-form; B then drops out of the
    Euler-Lagrange system.
    """
    g = [[S.coerce(x) for x in row] for row in g_rows]
    n = len(g)
    if any(len(row) != n for row in g):
        raise ChiraltorusError("metric must be square")
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
        raise ChiraltorusError("metric must be symmetric")
    if b_rows is None:
        b = [[ZERO] * n for _ in range(n)]
    else:
        b = [[S.coerce(x) for x in row] for row in b_rows]
        if len(b) != n or any(len(row) != n for row in b):
            raise ChiraltorusError("B-field shape must match the metric")
        if any(b[i][j] != -b[j][i] for i in range(n) for j in range(n)):
            raise ChiraltorusError("B-field must be antisymmetric")
    density = DiffPoly.zero()
    for i in range(n):
        for j in range(n):
            if not g[i][j].is_zero():
                gij = IMAG * HALF * g[i][j]
                density = density + DiffPoly.jet(i + 1, 1, 0) * DiffPoly.jet(j + 1, 1, 0) * gij
                density = density + DiffPoly.jet(i + 1, 0, 1) * DiffPoly.jet(j + 1, 0, 1) * gij
            if not b[i][j].is_zero():
                density = density - DiffPoly.jet(i + 1, 1, 0) * DiffPoly.jet(j + 1, 0, 1) * b[i][j]
    return Lagrangian(density, n=n)


def gen_tau(n: int):
    """The generator of tau-translations: F_i = d_tau x^i."""
    return [DiffPoly.jet(i, 1, 0) for i in range(1, n + 1)]


def gen_sigma(n: int):
    """The generator of sigma-translations: F_i = d_sigma x^i."""
    return [DiffPoly.jet(i, 0, 1) for i in range(1, n + 1)]


def gen_translation(n: int, j: int):
    """The target translation delta/delta x^j: F_i = delta_ij."""
    return [DiffPoly.const(1 if i == j else 0) for i in range(1, n + 1)]


def gen_conformal(n: int, holomorphic: bool = True, with_symbol: bool = True):
    """The conformal generator f(z) d_z (or g(zbar) d_zbar): F_i = f * d_z x^i."""
    out = []
    for i in range(1, n + 1):
        base = dz_jet(i) if holomorphic else dzb_jet(i)
        if with_symbol:
            base = DiffPoly.symbol("f" if holomorphic else "g") * base
        out.append(base)
    return out
