"""The delta-expansion slot calculus, kept as the reference path for the
bracket calculus in chiraltorus.coisson.

An expansion sum_k c_k(sigma') d_sigma^k delta(sigma - sigma') is a
DeltaExpansion {k: c_k}.  The functions below act on it as the
distribution it stands for: derivatives in either slot, multiplication by
a function of either slot, and integration over the first slot.
slot_bracket expands {a(sigma) dsigma, b(sigma') dsigma'} from the
generator table by bilinearity and Leibniz, one jet pair at a time; the
library computes the same expansion from one Euler operator.
"""

from math import comb

from chiraltorus.coisson import DeltaExpansion, FourierClass, LocalDensity, as_density
from chiraltorus.exactlin import S
from chiraltorus.jetcalc import DiffPoly, Monomial

from total_derivative_oracle import total_derivative


def coefficient(E: DeltaExpansion, k: int) -> DiffPoly:
    return E.coeffs.get(k, DiffPoly.zero())


def d_sigma(E: DeltaExpansion) -> DeltaExpansion:
    """Derivative in the first slot: shifts every delta-order up."""
    return DeltaExpansion({k + 1: p for k, p in E.coeffs.items()})


def d_sigma_prime(E: DeltaExpansion) -> DeltaExpansion:
    """Derivative in the second slot: Leibniz on the coefficient plus
    d_sigma' delta = -d_sigma delta."""
    items = []
    for k, p in E.coeffs.items():
        items += [(k, total_derivative(p, "s")), (k + 1, -p)]
    return DeltaExpansion(items)


def transport(E: DeltaExpansion, poly: DiffPoly) -> DeltaExpansion:
    """Multiply by a first-slot function F(sigma) and rewrite at the
    diagonal: F(sigma) d^k delta = sum_j binom(k,j) (-1)^j
    F^(j)(sigma') d^(k-j) delta."""
    poly = as_density(poly)
    derivs = [poly]
    for _ in range(max(E.coeffs, default=0)):
        derivs.append(total_derivative(derivs[-1], "s"))
    items = []
    for k, c in E.coeffs.items():
        for j in range(k + 1):
            sign = S(comb(k, j)) if j % 2 == 0 else S(-comb(k, j))
            items.append((k - j, (derivs[j] * c).scale(sign)))
    return DeltaExpansion(items)


def mul_second_slot(E: DeltaExpansion, poly: DiffPoly) -> DeltaExpansion:
    poly = as_density(poly)
    return DeltaExpansion({k: p * poly for k, p in E.coeffs.items()})


def integrate_first_slot(E: DeltaExpansion) -> DiffPoly:
    """integral over sigma: only the k = 0 coefficient survives."""
    return coefficient(E, 0)


def _cofactor(mono: Monomial, coeff, pos: int) -> DiffPoly:
    rest = mono.jets[:pos] + mono.jets[pos + 1:]
    return DiffPoly({Monomial(mono.mode, mono.syms, rest): coeff})


def slot_bracket(a, b, table) -> DeltaExpansion:
    """{a(sigma) dsigma, b(sigma') dsigma'} with each
    {d_sigma^m u(sigma), d_sigma^n v(sigma')} expanded through slot
    derivatives of the generator bracket K_uv(sigma') delta."""
    A = as_density(a)
    B = as_density(b)
    out = DeltaExpansion.zero()
    for mono_a, ca in A.coeffs.items():
        for mono_b, cb in B.coeffs.items():
            for pos_a, (ia, aa, ba) in enumerate(mono_a.jets):
                for pos_b, (ib, ab, bb) in enumerate(mono_b.jets):
                    base = DeltaExpansion({0: table.base_bracket((ia, aa), (ib, ab))})
                    if base.is_zero():
                        continue
                    for _ in range(ba):
                        base = d_sigma(base)
                    for _ in range(bb):
                        base = d_sigma_prime(base)
                    base = mul_second_slot(base, _cofactor(mono_b, cb, pos_b))
                    out = out + transport(base, _cofactor(mono_a, ca, pos_a))
    return out


def slot_fourier_bracket(a, b, table) -> FourierClass:
    return FourierClass(integrate_first_slot(slot_bracket(a, b, table)))


def slot_flow(H, a, table) -> LocalDensity:
    return LocalDensity(integrate_first_slot(slot_bracket(H, a, table)))


def slot_jacobi_residual(table, a, b, c) -> FourierClass:
    """The cyclic sum with every inner bracket taken to its class first."""
    def fb(u, v):
        return slot_fourier_bracket(u, v, table)

    return fb(fb(a, b), c) + fb(fb(b, c), a).rep + fb(fb(c, a), b).rep
