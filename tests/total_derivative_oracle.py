"""The ExactScalar total derivative, kept as the reference path for
DiffPoly.D and the integer kernel jetcalc._total_d behind it.

The library writes a polynomial over one denominator and differentiates
its Gaussian-integer numerators.  This module walks the monomials one
ExactScalar operation at a time, from its own copy of the symbol rules,
so that no oracle built on it shares the library's kernel:

    hol     f(z):       D_tau f = f',  D_sigma f =  i f'
    antihol g(zbar):    D_tau g = g',  D_sigma g = -i g'
    sigma   phi(sigma): D_tau phi = 0, D_sigma phi = phi'

and a trig factor e(m) gives i*m under D_sigma.
"""

from chiraltorus.exactlin import IMAG, ONE, S, add_into
from chiraltorus.jetcalc import SYMBOL_KINDS, DiffPoly, Monomial

RULES = {
    ("hol", "t"): ONE,
    ("hol", "s"): IMAG,
    ("antihol", "t"): ONE,
    ("antihol", "s"): -IMAG,
    ("sigma", "t"): None,
    ("sigma", "s"): ONE,
}


def total_derivative(poly: DiffPoly, direction: str) -> DiffPoly:
    """D_tau (direction 't') or D_sigma ('s') of poly."""
    out = {}
    for mono, coeff in poly.coeffs.items():
        if direction == "s" and mono.mode != 0:
            add_into(out, mono, coeff * IMAG * S(mono.mode))
        for k, (name, order) in enumerate(mono.syms):
            factor = RULES[(SYMBOL_KINDS[name], direction)]
            if factor is None:
                continue
            syms = list(mono.syms)
            syms[k] = (name, order + 1)
            add_into(out, Monomial(mono.mode, tuple(sorted(syms)), mono.jets), coeff * factor)
        for k, (i, a, b) in enumerate(mono.jets):
            jets = list(mono.jets)
            jets[k] = (i, a + 1, b) if direction == "t" else (i, a, b + 1)
            add_into(out, Monomial(mono.mode, mono.syms, tuple(sorted(jets))), coeff)
    return DiffPoly(out)
