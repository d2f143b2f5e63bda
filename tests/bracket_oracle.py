"""The ExactScalar bracket calculus, kept as the reference path for the
integer kernel of chiraltorus.coisson.

variational_derivative runs the Horner loop in -D_sigma on DiffPolys,
through total_derivative_oracle, so every coefficient operation is one
ExactScalar operation with its own gcd; _pairing multiplies and sums
whole DiffPolys; jacobi_residual takes all six Euler operators of its
inner brackets' arguments afresh and reduces each inner bracket before
the outer one.  Nothing is shared or
deferred, so each coefficient of the library's integer tables can be
checked against a plain sum of scalars.
"""

from math import comb

from chiraltorus.coisson import FourierClass, as_density
from chiraltorus.jetcalc import DiffPoly

from total_derivative_oracle import total_derivative


def _slot_partials(poly: DiffPoly):
    """{(i, kind): {m: d poly / d u^(m)}} over the jets u^(m) of poly,
    where u^(m) is d_sigma^m x^i for kind 0 and d_sigma^m p_i for kind 1."""
    out = {}
    for (i, kind, m), part in poly.partials().items():
        out.setdefault((i, kind), {})[m] = part
    return out


def variational_derivative(poly, k: int = 0) -> dict:
    """The coefficient of lambda^k in sum_m (lambda - D_sigma)^m d poly /
    d u^(m), slot by slot: {(i, kind): DiffPoly}, zero slots left out."""
    out = {}
    for slot, parts in _slot_partials(as_density(poly)).items():
        acc = DiffPoly.zero()
        for m in range(max(parts), k - 1, -1):  # Horner in -D_sigma
            part = parts.get(m, DiffPoly.zero())
            acc = (part.scale(comb(m, k)) if k else part) - total_derivative(acc, "s")
        if not acc.is_zero():
            out[slot] = acc
    return out


def _pairing(a, b, table) -> DiffPoly:
    """sum_AB (delta a/delta u_A) K_AB (delta b/delta u_B)."""
    db = variational_derivative(b)
    return sum((va * table.base_bracket(slot_a, slot_b) * vb
                for slot_a, va in variational_derivative(a).items()
                for slot_b, vb in db.items()), DiffPoly.zero())


def jacobi_residual(table, a, b, c) -> FourierClass:
    """Cyclic sum {{a,b},c} + {{b,c},a} + {{c,a},b} on Fourier classes."""
    def br(u, v):
        return _pairing(u, v, table)

    return FourierClass(br(br(a, b), c) + br(br(b, c), a) + br(br(c, a), b))
