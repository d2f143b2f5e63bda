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

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import gcd, lcm
from typing import NamedTuple

from .exactlin import (
    HALF,
    IMAG,
    ONE,
    ZERO,
    ChiraltorusError,
    CoeffTable,
    ExactScalar,
    Frozen,
    InvariantError,
    PreconditionError,
    RationalMatrix,
    S,
    _integer,
    _natural,
    _reduced,
    _torus_matrices,
    compositions,
    signed_sort,
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

# the factor (re, im) a symbol's total derivative carries, None for zero
_D_RULES = {
    ("hol", "t"): (1, 0),
    ("hol", "s"): (0, 1),
    ("antihol", "t"): (1, 0),
    ("antihol", "s"): (0, -1),
    ("sigma", "t"): None,
    ("sigma", "s"): (1, 0),
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


def _jet_factors(mono: Monomial):
    """(key, count, rest) for each distinct jet key of mono: its power
    count and mono with one factor key taken out, so that d mono / d key
    is count * rest."""
    jets = mono.jets
    for key in dict.fromkeys(jets):
        k = jets.index(key)
        yield key, jets.count(key), Monomial(mono.mode, mono.syms, jets[:k] + jets[k + 1:])


def _jet_key(i, a, b) -> tuple:
    """The key (i, a, b) of dtau^a dsigma^b x^i: ints, field index i >= 1."""
    if _integer(i, "field index") < 1:
        raise ChiraltorusError(f"field index {i} is below 1")
    return i, _natural(a, "jet order"), _natural(b, "jet order")


# ----------------------------------------------------------------------
# integer tables {Monomial: [re, im]}: Gaussian-integer numerators over
# one denominator, the view that the bracket calculus of coisson and the
# Noether path compute in, each output coefficient reduced once
# ----------------------------------------------------------------------

def _over(coeffs, D) -> dict:
    """The numerators {key: (re, im)} of a coefficient table {key:
    ExactScalar} over D, a multiple of every denominator."""
    return {m: (c.a * (D // c.d), c.b * (D // c.d)) for m, c in coeffs.items()}


def _integer_views(tables) -> tuple:
    """([table, ...], D): each coefficient table over D, the lcm of all
    their denominators."""
    D = lcm(*[c.d for table in tables for c in table.values()])
    return [_over(table, D) for table in tables], D


def _integer_view(coeffs) -> tuple:
    """(table, D): one coefficient table over the lcm D of its denominators."""
    D = lcm(*[c.d for c in coeffs.values()])
    return _over(coeffs, D), D


def _as_poly(table, D) -> "DiffPoly":
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


def _mul_into(out, ta, tb, c: int = 1):
    """Add c times the product of two integer tables into out."""
    for ma, (ax, ay) in ta.items():
        ax, ay = ax * c, ay * c
        for mb, (bx, by) in tb.items():
            _add(out, _mono_mul(ma, mb), ax * bx - ay * by, ax * by + ay * bx)


def _total_d(table, direction: str, out, sign: int = 1):
    """Add sign times the total derivative D_tau (direction 't') or
    D_sigma ('s') of an integer table into out: a trig factor e(m) gives
    i*m under D_sigma, a symbol the Gaussian integer of its _D_RULES entry,
    and a jet its order raised along the direction."""
    tau = direction == "t"
    for mono, (x, y) in table.items():
        if sign != 1:
            x, y = sign * x, sign * y
        mode, syms, jets = mono
        if mode and not tau:
            _add(out, mono, -y * mode, x * mode)
        for k, (name, order) in enumerate(syms):
            f = _D_RULES[SYMBOL_KINDS[name], direction]
            if f is not None:
                fa, fb = f
                moved = tuple(sorted(syms[:k] + ((name, order + 1),) + syms[k + 1:]))
                _add(out, Monomial(mode, moved, jets), x * fa - y * fb, x * fb + y * fa)
        for k, (i, a, b) in enumerate(jets):
            jet = (i, a + 1, b) if tau else (i, a, b + 1)
            _add(out, Monomial(mode, syms, tuple(sorted(jets[:k] + (jet,) + jets[k + 1:]))),
                 x, y)


# the largest exponent a DiffPoly power takes, "^" of the expression
# grammar included; a larger one is refused before any multiplication
MAX_EXPONENT = 64


class DiffPoly(CoeffTable):
    """An exact polynomial in jet variables and coefficient symbols:
    a table {Monomial: ExactScalar}."""

    __slots__ = ()

    terms = property(lambda self: self.coeffs, doc="Read-only alias of coeffs.")

    def _entry(self, mono, value):
        # a raw key passes the rules of DiffPoly.jet, DiffPoly.symbol and
        # DiffPoly.trig, and is canonical: equal monomials must be equal keys
        if not isinstance(mono, Monomial):
            raise ChiraltorusError(f"a DiffPoly key must be a Monomial, got {mono!r}")
        mode, syms, jets = mono
        _integer(mode, "mode")
        for jet in jets:
            _jet_key(*jet)
        for name, order in syms:
            if name not in SYMBOL_KINDS:
                raise ChiraltorusError(f"unknown symbol {name!r}")
            _natural(order, "symbol order")
        for what, factors in (("jets", jets), ("symbols", syms)):
            if factors != tuple(sorted(factors)):
                raise ChiraltorusError(f"monomial {what} must be sorted, got {factors!r}")
        return mono, S.coerce(value)

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
        return DiffPoly({UNIT_MONO: c})

    @staticmethod
    def jet(i: int, a: int, b: int) -> "DiffPoly":
        return DiffPoly({Monomial(0, (), ((i, a, b),)): ONE})

    @staticmethod
    def symbol(name: str, order: int = 0) -> "DiffPoly":
        if name not in SYMBOL_KINDS:
            raise ChiraltorusError(f"unknown symbol {name!r}")
        return DiffPoly({Monomial(0, ((name, _natural(order, "symbol order")),), ()): ONE})

    @staticmethod
    def trig(m: int) -> "DiffPoly":
        return DiffPoly({Monomial(_integer(m, "mode"), (), ()): ONE})

    # -- ring operations ---------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._convolve(other, _mono_mul)

    # the ring is commutative, and __mul__ already scales by numbers
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if _natural(n, "exponent") > MAX_EXPONENT:
            raise ChiraltorusError(f"exponent {n} is above the limit {MAX_EXPONENT}")
        out = DiffPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------

    def D(self, direction: str) -> "DiffPoly":
        """Total derivative D_tau (direction 't') or D_sigma ('s')."""
        if direction not in ("t", "s"):
            raise ChiraltorusError("direction must be 't' or 's'")
        table, D = _integer_view(self.coeffs)
        out = {}
        _total_d(table, direction, out)
        return _as_poly(out, D)

    def partials(self) -> dict:
        """{key: d self / d key, never zero} over the jet variables key =
        (i, a, b) of self, in sorted order, from one pass: taking one
        factor key out of distinct monomials leaves distinct monomials."""
        out = {}
        for mono, coeff in self.coeffs.items():
            for key, count, rest in _jet_factors(mono):
                out.setdefault(key, {})[rest] = coeff * S(count)
        return {key: self._like(out[key]) for key in sorted(out)}

    def partial(self, key) -> "DiffPoly":
        """Partial derivative with respect to the jet variable key=(i,a,b)."""
        return self.partials().get(tuple(key)) or DiffPoly()

    def max_jet_order(self) -> int:
        return max((a + b for mono in self.coeffs for (_, a, b) in mono.jets), default=0)

    def field_indices(self):
        return sorted({i for mono in self.coeffs for (i, _, _) in mono.jets})

    def __str__(self):
        return poly_str(self)


def substitute_jets(poly: DiffPoly, mapping) -> DiffPoly:
    """Replace whole field slots: for (i, a) in mapping, every jet
    (i, a, b) becomes D_sigma^b applied to mapping[(i, a)].

    Used for changes of generators like p_j -> p_j + alpha_{ji} d_sigma x^i.
    """
    towers = {slot: [image] for slot, image in mapping.items()}  # D_sigma^b at b
    out = DiffPoly()
    for mono, coeff in poly.coeffs.items():
        acc = DiffPoly({Monomial(mono.mode, mono.syms, ()): coeff})
        for i, a, b in mono.jets:
            tower = towers.get((i, a))
            while tower is not None and len(tower) <= b:
                tower.append(tower[-1].D("s"))
            acc = acc * (DiffPoly.jet(i, a, b) if tower is None else tower[b])
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
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"({re}{'+' if im > 0 else '-'}{imag})"


def _jet_str(i, a, b, style):
    if style == "xp" and a == 1:
        return "ds." * b + f"p{i}"
    return "dt." * a + "ds." * b + f"x{i}"


def _mono_str(mono: Monomial, style: str):
    """The factors of a monomial, equal neighbours grouped as powers."""
    run = [name + "p" * order for name, order in mono.syms]
    run += [_jet_str(i, a, b, style) for (i, a, b) in mono.jets]
    parts = [f"e({mono.mode})"] if mono.mode != 0 else []
    for factor, equal in groupby(run):
        k = len(list(equal))
        parts.append(factor if k == 1 else f"{factor}^{k}")
    return parts


def poly_str(poly: DiffPoly, style: str = "tau") -> str:
    """Deterministic text form; parses back with parse_expr."""
    if poly.is_zero():
        return "0"
    bits = []
    for mono in sorted(poly.coeffs):
        factors = _mono_str(mono, style)
        # a sign leads the text of a negative rational or imaginary
        # coefficient; a parenthesised one keeps its own
        cs = _coeff_str(poly.coeffs[mono])
        neg = cs.startswith("-")
        cs = cs.removeprefix("-")
        body = "*".join(factors if cs == "1" and factors else [cs] + factors)
        sign = ("- " if neg else "+ ") if bits else ("-" if neg else "")
        bits.append(sign + body)
    return " ".join(bits)


# the expression grammar is ASCII: any other character is refused
_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()./])"
    r"|[ \t\n]+|(?P<bad>.)", re.DOTALL)
# jets x<i> and momenta p<i> with field indices from 1, then the
# coefficient symbols with one p per derivative
_ATOM_RE = re.compile(r"([xp])([1-9][0-9]*)|(phi|psi|f|g)(p*)")


def _tokenize(text: str):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ChiraltorusError(f"unexpected character {m[0]!r} in expression")
        if kind is not None:
            toks.append((m[0] if kind == "op" else kind, m[0]))
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
            base = base ** int(self.expect("num")[1])
        return base

    def rational(self, first):
        num = int(first)
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("num")[1]
            if not int(den):
                raise ChiraltorusError(f"zero denominator in '{first}/{den}'")
            return Fraction(num, int(den))
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
        m = _ATOM_RE.fullmatch(name)
        if m is None:
            raise ChiraltorusError(f"unknown name {name!r} in expression")
        if m[1]:
            return DiffPoly.jet(int(m[2]), int(m[1] == "p"), 0)
        return DiffPoly.symbol(m[3], len(m[4]))


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
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ChiraltorusError("nesting is too deep") from None


def dz_jet(i: int) -> DiffPoly:
    """The jet polynomial for d_z x^i = (d_tau x^i - i d_sigma x^i)/2."""
    return _apply_prefix("dz", DiffPoly.jet(i, 0, 0))


def dzb_jet(i: int) -> DiffPoly:
    """The jet polynomial for d_zbar x^i = (d_tau x^i + i d_sigma x^i)/2."""
    return _apply_prefix("dzb", DiffPoly.jet(i, 0, 0))


# ----------------------------------------------------------------------
# variational bicomplex
# ----------------------------------------------------------------------

# the admissible horizontal factors, each in the canonical order (t, s)
_H_KEYS = ((), ("t",), ("s",), ("t", "s"))


def _insert_h(c, hkeys):
    """Wedge dc onto the left of the horizontal factor: (sign, factor)
    sorted to the order (t, s), or (0, None) when dc is already there."""
    sign, ranks = signed_sort("ts".index(h) for h in (c,) + hkeys)
    if sign == 0:
        return 0, None
    return sign, tuple("ts"[r] for r in ranks)


class VariationalForm(CoeffTable):
    """A form of the variational bicomplex with polynomial coefficients.

    Stored as a table {(vkeys, hkeys): DiffPoly}: the component
    P * delta u_{J1} ^ ... ^ delta u_{Jv} ^ h with vkeys strictly
    increasing (delta factors anticommute) and h one of (), (t,), (s,),
    (t, s).  The constructor sorts vkeys with the matching sign and drops
    components with a repeated delta factor.
    """

    __slots__ = ()

    def _entry(self, key, poly):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ChiraltorusError(
                f"form key must be a pair (delta factors, horizontal factor), got {key!r}")
        vkeys, hkeys = key
        if not isinstance(vkeys, (tuple, list)):
            raise ChiraltorusError(f"delta factors must be a tuple of keys, got {vkeys!r}")
        for k in vkeys:
            if not (isinstance(k, tuple) and len(k) == 3):
                raise ChiraltorusError(f"delta-factor key must be three indices, got {k!r}")
        vkeys = tuple(_jet_key(*k) for k in vkeys)
        if hkeys not in _H_KEYS:
            raise ChiraltorusError(f"bad horizontal factor {hkeys!r}")
        sign, canon = signed_sort(vkeys)
        if sign == 0:
            return None
        return (canon, hkeys), (poly if sign == 1 else -poly)

    def component(self, vkeys, hkeys) -> DiffPoly:
        vkeys = tuple(tuple(k) for k in vkeys)
        return self.coeffs.get((vkeys, tuple(hkeys)), DiffPoly.zero())

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
            for key, part in poly.partials().items():
                items.append((((key,) + vkeys, hkeys), part))
        return VariationalForm(items)

    def _terms(self):
        for vkeys, hkeys in sorted(self.coeffs, key=lambda kv: (len(kv[0]), kv)):
            label = "^".join(
                [f"d[{_jet_str(i, a, b, 'tau')}]" for (i, a, b) in vkeys]
                + [{"t": "dt", "s": "ds"}[c] for c in hkeys]
            )
            yield f"({poly_str(self.coeffs[(vkeys, hkeys)])}) {label}".strip()


def _component(generator, i) -> DiffPoly:
    """F_i of the generator (F_1, ..., F_n) as a DiffPoly; a field index
    outside 1..n is refused."""
    if not 1 <= i <= len(generator):
        raise ChiraltorusError(f"no generator component for field {i}")
    image = generator[i - 1]
    return image if isinstance(image, DiffPoly) else DiffPoly.const(image)


def _jet_image(generator, key) -> DiffPoly:
    """x-hat(d^a_tau d^b_sigma x^i) = D_tau^a D_sigma^b F_i for the
    generator (F_1, ..., F_n), climbed in a loop: D_sigma b times from
    F_i, then D_tau a times (total derivatives commute)."""
    i, a, b = key
    image = _component(generator, i)
    for d in "s" * b + "t" * a:
        image = image.D(d)
    return image


def prolong(generator, target):
    """Apply the evolutionary vector field of the generator.

    On a DiffPoly this is the derivation x-hat; on a VariationalForm it
    also pushes through the vertical factors via delta(x-hat u_J).
    """
    if isinstance(target, DiffPoly):
        return sum((part * _jet_image(generator, key) for key, part in target.partials().items()),
                   DiffPoly.zero())
    if not isinstance(target, VariationalForm):
        raise TypeError(f"cannot prolong a {type(target).__name__}: "
                        "expected DiffPoly or VariationalForm")
    items = []
    for (vkeys, hkeys), poly in target.coeffs.items():
        items.append(((vkeys, hkeys), prolong(generator, poly)))
        for k, key in enumerate(vkeys):
            for new_key, part in _jet_image(generator, key).partials().items():
                newv = list(vkeys)
                newv[k] = new_key
                items.append(((newv, hkeys), poly * part))
    return VariationalForm(items)


def contract(generator, form: VariationalForm) -> VariationalForm:
    """Interior product iota_{x-hat}: odd derivation, delta u_J |-> x-hat(u_J)."""
    if not isinstance(form, VariationalForm):
        raise TypeError(f"cannot contract a {type(form).__name__}: expected VariationalForm")
    items = []
    for (vkeys, hkeys), poly in form.coeffs.items():
        for k, key in enumerate(vkeys):
            rest = vkeys[:k] + vkeys[k + 1:]
            sgn = ONE if k % 2 == 0 else S(-1)
            items.append(((rest, hkeys), (poly * _jet_image(generator, key)).scale(sgn)))
    return VariationalForm(items)


# ----------------------------------------------------------------------
# Lagrangians, Euler-Lagrange, Noether
# ----------------------------------------------------------------------

class Lagrangian(Frozen):
    """A first-order Lagrangian density in the fields 1..n; the form is
    density * dtau^dsigma.  Immutable, so its one-form and wave-model
    check are computed once (in the instance dict: no __slots__)."""

    def __init__(self, density: DiffPoly, n: int | None = None):
        if density.max_jet_order() > 1:
            raise NotFirstOrder("Lagrangian density must be first order in jets")
        fields = density.field_indices()
        if n is None:
            n = fields[-1] if fields else 1
        elif isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ChiraltorusError(f"number of fields must be a positive int, got {n!r}")
        if fields and fields[-1] > n:
            raise ChiraltorusError("field index exceeds declared number of fields")
        self._set(n=n, density=density)

    def form(self) -> VariationalForm:
        return VariationalForm({((), ("t", "s")): self.density})

    @cached_property
    def gamma(self) -> VariationalForm:
        """The variational one-form, as variational_one_form gives it."""
        return variational_one_form(self)

    @cached_property
    def _partial_view(self) -> tuple:
        """({jet: integer table of dl/d jet}, D): every partial of the
        density, in sorted order, over one denominator, for noether."""
        parts = self.density.partials()
        tables, D = _integer_views([part.coeffs for part in parts.values()])
        return dict(zip(parts, tables)), D

    @cached_property
    def _wave_fault(self) -> str | None:
        """None when E_i = sum_j M_ij (d_tau^2 + d_sigma^2) x^j with one
        invertible constant M, the one case where the on-shell rewrite is
        valid; otherwise why not."""
        n = self.n
        blocks = {(2, 0): [[ZERO] * n for _ in range(n)], (0, 2): [[ZERO] * n for _ in range(n)]}
        for row, e in enumerate(euler_lagrange(self)):
            for mono, coeff in e.coeffs.items():
                if mono.mode != 0 or mono.syms or len(mono.jets) != 1:
                    return "Euler-Lagrange system is not constant-coefficient linear"
                (j, a, b) = mono.jets[0]
                if (a, b) not in blocks:
                    return "Euler-Lagrange system is not the flat wave system"
                blocks[(a, b)][row][j - 1] = coeff
        if blocks[(2, 0)] != blocks[(0, 2)]:
            return "d_tau^2 and d_sigma^2 blocks differ"
        if RationalMatrix(blocks[(2, 0)]).det().is_zero():
            return "wave operator coefficient matrix is singular"
        return None


def _first_order_partials(L: Lagrangian) -> list:
    """[(dl/dx^i, dl/d(u_tau^i), dl/d(u_sigma^i)) for i = 1..n], read off
    one partials() pass."""
    d = L.density.partials()
    return [tuple(d.get((i, a, b), DiffPoly.zero()) for a, b in ((0, 0), (1, 0), (0, 1)))
            for i in range(1, L.n + 1)]


def euler_lagrange(L: Lagrangian):
    """E_i = dl/dx^i - D_tau dl/d(u_tau^i) - D_sigma dl/d(u_sigma^i)."""
    return [x - t.D("t") - s.D("s") for x, t, s in _first_order_partials(L)]


def variational_one_form(L: Lagrangian) -> VariationalForm:
    """gamma = sum_i dl/d(u_tau^i) delta x^i ^ dsigma
                 - dl/d(u_sigma^i) delta x^i ^ dtau."""
    items = []
    for i, (_, t, s) in enumerate(_first_order_partials(L), 1):
        items.append(((((i, 0, 0),), ("s",)), t))
        items.append(((((i, 0, 0),), ("t",)), -s))
    return VariationalForm(items)


# ----------------------------------------------------------------------
# the quotient of a content block by the images of total derivatives:
# normal_form reduces modulo im D_sigma on the sigma-jet ring (dirs "s"),
# the Noether peel solves q = D_tau Q - D_sigma P (dirs "ts")
# ----------------------------------------------------------------------

def block_content(mono: Monomial, dirs: str):
    """The data the total derivatives along dirs ("s" or "ts") preserve:
    the trig mode, each jet with its orders along dirs cleared, and the
    symbol names."""
    clear_tau = "t" in dirs
    jets = sorted((i, 0 if clear_tau else a, 0) for (i, a, _) in mono.jets)
    return mono.mode, tuple(jets), tuple(n for (n, _) in mono.syms)


def block_weight(mono: Monomial, dirs: str) -> int:
    """The jet orders along dirs plus the symbol orders."""
    tau = "t" in dirs
    return (sum(b + (a if tau else 0) for (_, a, b) in mono.jets)
            + sum(o for (_, o) in mono.syms))


def enumerate_monomials(content, weight, dirs):
    """All monomials of the block_content and block_weight given.

    Each composition of the weight into len(dirs)*f + s parts, read as
    (tau orders if "t" is in dirs, sigma orders, symbol orders) over the
    f jets and s symbols of the content, gives one monomial; repeated
    jets give some monomial more than once, and the set keeps one.
    """
    mode, jets, names = content
    f = len(jets)
    t = f if "t" in dirs else 0
    out = set()
    for comp in compositions(weight, t + f + len(names)):
        taus = comp[:t] or (0,) * f
        out.add(Monomial(
            mode, tuple(sorted(zip(names, comp[t + f:]))),
            tuple(sorted((i, a + da, b) for (i, a, _), da, b in zip(jets, taus, comp[t:])))))
    return sorted(out)


def _bare(mono: Monomial) -> bool:
    """True when some jet of the monomial is an undifferentiated x."""
    return any(a + b == 0 for (_, a, b) in mono.jets)


def _blocks(table, dirs: str):
    """[(content, {mono: coeff})] of an integer table by block_content,
    sorted."""
    blocks = {}
    for mono, coeff in table.items():
        blocks.setdefault(block_content(mono, dirs), {})[mono] = coeff
    return sorted(blocks.items())


# bounded: a basis holds up to hundreds of monomials, and each caller asks
# only for the weights that can pivot on its target's terms.  The seed-401
# mode_algebra list makes 13,065 calls on 564 keys, 4,480 of them from the
# Noether peel on 18 keys; 361 of its 925 misses rebuild an evicted basis,
# 0.02-0.03 s of 1.5-1.9 s of item time, where a bound of 1,024 would
# leave only the 564 first builds (2-vCPU host, Python 3.11)
@lru_cache(maxsize=256)
def _image_basis(content, weights, dirs, bare):
    """(candidates, echelon basis of their total-derivative images),
    shared between calls: no caller may mutate them.

    The candidates are the block's monomials at the weights, bare-x ones
    only when bare is true.  Row j * len(candidates) + k is D_{dirs[j]}
    of candidate k, tagged with that int when dirs has two directions,
    so that reducing a target in the span leaves minus its solution on
    the tags.  Each row is reduced by _reduce_table against the rows
    before it and pivots on the leading monomial of what is left, in the
    graded order (block_weight, monomial), so reducing a target never
    raises its weight; a remainder with no monomial is dropped.  A basis
    row is {pivot: (table, d)}: the row scaled to 1 at its pivot, as
    numerators over d in lowest terms, the pivot's entry being (d, 0).
    """
    cands = tuple(m for w in weights for m in enumerate_monomials(content, w, dirs)
                  if bare or not _bare(m))
    basis = {}
    for j, d in enumerate(dirs):
        for k, m in enumerate(cands):
            row = {}
            _total_d({m: (1, 0)}, d, row)
            if len(dirs) > 1:
                row[j * len(cands) + k] = [1, 0]
            rest, _ = _reduce_table(row, 1, basis)
            col = max((key for key, (x, y) in rest.items() if (x or y) and type(key) is not int),
                      key=lambda mono: (block_weight(mono, dirs), mono), default=None)
            if col is None:
                continue
            u, v = rest[col]  # times (u - iv) / (u^2 + v^2): 1 at the pivot
            n = u * u + v * v
            rest = {key: (x * u + y * v, y * u - x * v) for key, (x, y) in rest.items() if x or y}
            g = gcd(n, *(z for pair in rest.values() for z in pair))
            basis[col] = ({key: (x // g, y // g) for key, (x, y) in rest.items()}, n // g)
    return cands, basis


def _reduce_table(target, D, basis) -> tuple:
    """(rest, D'): the integer table target over D minus the combination
    of the integer basis rows that clears every pivot, in one pass over
    the basis in the order it was built; D' is D times the denominator
    of each row whose pivot the pass meets.  rest may hold zero entries."""
    out = {m: [x, y] for m, (x, y) in target.items()}
    for col, (row, d) in basis.items():
        cur = out.get(col)
        if cur is None or not (cur[0] or cur[1]):
            continue
        u, v = cur
        if d != 1:
            for entry in out.values():
                entry[0] *= d
                entry[1] *= d
            D *= d
        for k, (x, y) in row.items():
            _add(out, k, v * y - u * x, -u * y - v * x)
    return out, D


def _peel(q, D) -> tuple:
    """(P, Q, D'): integer tables over one D', a multiple of D, with
    q / D = D_tau Q - D_sigma P for an integer table q, by graded peeling.

    Candidates live in the same content block as q with weight one
    lower (weight equal as well when a nonzero trig mode lets D_sigma
    act without raising the weight).  The candidates without bare-x
    factors are tried first, which removes the gauge freedom for the
    translation-invariant densities this solver is used on; the full
    candidate list is the fallback.  The tags of what reduction leaves
    are minus the coefficients of D_tau Q and D_sigma P.
    """
    solved = []
    for content, target in _blocks(q, "ts"):
        shifts = (1,) if content[0] == 0 else (1, 0)
        weights = tuple(sorted({w for m in target for d in shifts
                                if (w := block_weight(m, "ts") - d) >= 0}))
        for bare in (False, True):
            cands, basis = _image_basis(content, weights, "ts", bare)
            rest, d = _reduce_table(target, D, basis)
            if all(type(key) is int for key, (x, y) in rest.items() if x or y):
                break
        else:
            raise NotASymmetry(
                f"no total-derivative representation in content block {content}"
            )
        solved.append((cands, rest, d))
    top = lcm(D, *(d for _, _, d in solved))
    P, Q = {}, {}
    for cands, rest, d in solved:
        n, s = len(cands), top // d
        for k, m in enumerate(cands):
            x, y = rest.get(k, (0, 0))
            if x or y:
                Q[m] = [-x * s, -y * s]
            x, y = rest.get(n + k, (0, 0))
            if x or y:
                P[m] = [x * s, y * s]
    return P, Q, top


def _wave_jets(jets):
    """(sign, jets) after rewriting each jet with a >= 2 by
    d_tau^2 x = -d_sigma^2 x; the jets keep their order."""
    sign = 1
    out = []
    for (i, a, b) in jets:
        k = a // 2
        if k % 2 == 1:
            sign = -sign
        out.append((i, a % 2, b + 2 * k))
    return sign, out


def _wave_table(table) -> dict:
    """The integer table with every jet of a >= 2 rewritten by
    d_tau^2 x = -d_sigma^2 x; it may hold zero entries."""
    out = {}
    for mono, (x, y) in table.items():
        sign, jets = _wave_jets(mono.jets)
        _add(out, Monomial(mono.mode, mono.syms, tuple(sorted(jets))), sign * x, sign * y)
    return out


def wave_reduce_poly(poly: DiffPoly) -> DiffPoly:
    """Rewrite every jet with a >= 2 via d_tau^2 x = -d_sigma^2 x."""
    table, D = _integer_view(poly.coeffs)
    return _as_poly(_wave_table(table), D)


def noether(L: Lagrangian, generator) -> VariationalForm:
    """Noether current of a symmetry: alpha - iota_{x-hat} gamma.

    Runs on integer tables: the generator's F_i over one denominator per
    call, the partials of L over one per Lagrangian, and q = x-hat(L)
    summed in ints from each jet image D_tau^a D_sigma^b F_i.  Solves
    q = D_tau Q - D_sigma P by graded peeling and checks it exactly; the
    current is t dtau + s dsigma with t = P + sum_i dl/d(u_sigma^i) F_i
    and s = Q - sum_i dl/d(u_tau^i) F_i, each coefficient reduced once,
    and it is certified closed on shell: D_tau s - D_sigma t reduces to
    zero under the wave rewrite.  By the Noether identity
    d(alpha - iota_{x-hat} gamma) = sum_i F_i E_i, which the wave rewrite
    sends to zero once the peel is exact, so a failed check is a library
    bug and raises InvariantError.
    """
    parts, DL = L._partial_view
    fields = sorted({i for (i, _, _) in parts})
    comps, DF = _integer_views([_component(generator, i).coeffs for i in fields])
    F = dict(zip(fields, comps))
    q = {}
    for (i, a, b), part in parts.items():
        image = F[i]
        for d in "s" * b + "t" * a:
            image, prev = {}, image
            _total_d(prev, d, image)
        _mul_into(q, part, image)
    D = DL * DF
    q = {m: v for m, v in q.items() if v[0] or v[1]}
    P, Q, top = _peel(q, D)
    M = top // D
    check = {}
    _total_d(Q, "t", check)
    _total_d(P, "s", check, -1)
    for m, (x, y) in q.items():
        _add(check, m, -x * M, -y * M)
    if any(x or y for x, y in check.values()):
        raise InvariantError("internal: peel produced an incorrect representation")
    t, s = P, Q
    for i in fields:
        _mul_into(t, parts.get((i, 0, 1), {}), F[i], M)
        _mul_into(s, parts.get((i, 1, 0), {}), F[i], -M)
    if L._wave_fault:
        raise NonLinearEL(L._wave_fault)
    d_current = {}
    _total_d(s, "t", d_current)
    _total_d(t, "s", d_current, -1)
    if any(x or y for x, y in _wave_table(d_current).values()):
        raise InvariantError("internal: on-shell certificate failed for the computed current")
    current = ((("t",), _as_poly(t, top)), (("s",), _as_poly(s, top)))
    return VariationalForm._trusted(coeffs={((), h): poly for h, poly in current
                                            if not poly.is_zero()})


def restrict_to_sol0(expr, L: Lagrangian | None = None):
    """Restrict to the time-zero solution slice: drop dtau components and
    rewrite d_tau^2 x^i -> -d_sigma^2 x^i until every jet has a <= 1.

    When a Lagrangian is supplied, its Euler-Lagrange system is checked
    to actually be the flat wave system (NonLinearEL otherwise).
    """
    if L is not None and L._wave_fault:
        raise NonLinearEL(L._wave_fault)
    if isinstance(expr, DiffPoly):
        return wave_reduce_poly(expr)
    items = []
    for (vkeys, hkeys), poly in expr.coeffs.items():
        if "t" in hkeys:
            continue
        sign, newv = _wave_jets(vkeys)
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


def _jet_rows(rows, jets) -> list:
    """The rows applied to a vector of jet polynomials: sum_k c_k jets[k]
    for each row c, its entries scalars or polynomials, zeros skipped."""
    return [sum((c * v for c, v in zip(row, jets) if not c.is_zero()), DiffPoly.zero())
            for row in rows]


def torus_lagrangian(g_rows, b_rows=None) -> Lagrangian:
    """l = (i/2) g(u_tau, u_tau) + (i/2) g(u_sigma, u_sigma) - B(u_tau, u_sigma).

    g symmetric, B antisymmetric.  The B-term sign is fixed so that
    dl/d(u_tau^j) equals the canonical momentum i g(u_tau)_j - (b u_sigma)_j,
    matching the displayed variational 1-form; B then drops out of the
    Euler-Lagrange system.
    """
    g, b = _torus_matrices(g_rows, b_rows)
    ut, us = gen_tau(g.rows), gen_sigma(g.rows)
    # a one-row application pairs two vectors: g(u, u) over both
    # directions, then B(u_tau, u_sigma)
    (kinetic,) = _jet_rows([_jet_rows(g.entries, ut) + _jet_rows(g.entries, us)], ut + us)
    (twist,) = _jet_rows([_jet_rows(b.entries, us)], ut)
    return Lagrangian(kinetic.scale(IMAG * HALF) - twist, n=g.rows)


def gen_tau(n: int):
    """The generator of tau-translations: F_i = d_tau x^i."""
    return [DiffPoly.jet(i, 1, 0) for i in range(1, _natural(n, "number of fields") + 1)]


def gen_sigma(n: int):
    """The generator of sigma-translations: F_i = d_sigma x^i."""
    return [DiffPoly.jet(i, 0, 1) for i in range(1, _natural(n, "number of fields") + 1)]


def gen_translation(n: int, j: int):
    """The target translation delta/delta x^j: F_i = delta_ij."""
    n = _natural(n, "number of fields")
    if not 1 <= _integer(j, "field index") <= n:
        raise ChiraltorusError(f"field index {j} is outside 1..{n}")
    return [DiffPoly.const(1 if i == j else 0) for i in range(1, n + 1)]


def gen_conformal(n: int, holomorphic: bool = True, with_symbol: bool = True):
    """The conformal generator f(z) d_z (or g(zbar) d_zbar): F_i = f * d_z x^i."""
    out = []
    for i in range(1, _natural(n, "number of fields") + 1):
        base = dz_jet(i) if holomorphic else dzb_jet(i)
        if with_symbol:
            base = DiffPoly.symbol("f" if holomorphic else "g") * base
        out.append(base)
    return out
