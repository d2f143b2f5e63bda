"""The Noether current on ExactScalar polynomials, kept as the reference
path for chiraltorus.jetcalc.noether.

The library runs noether on integer tables: it converts the generator's
components and the Lagrangian's partials once, sums x-hat(L) in ints,
peels it against integer basis rows and builds the current directly as
t = P + sum_i dl/d(u_sigma^i) F_i and s = Q - sum_i dl/d(u_tau^i) F_i.
This module takes the long way through the public bicomplex operations:
x-hat(L) by prolong, the peel by peel_oracle and its identity through
total_derivative_oracle, the current as alpha - iota_{x-hat} gamma by
contract, and the on-shell certificate from horizontal_differential and
wave_reduce_poly.  Its checks and refusals come in the order the
library's do: a missing generator component while prolonging,
NotASymmetry from the peel, the peel identity, NonLinearEL, then the
certificate.  peel_oracle names a failing content block in its own
format, so a NotASymmetry message differs from the library's.
"""

from chiraltorus.exactlin import InvariantError
from chiraltorus.jetcalc import (
    DiffPoly,
    Lagrangian,
    VariationalForm,
    contract,
    prolong,
    restrict_to_sol0,
    wave_reduce_poly,
)

import peel_oracle
from total_derivative_oracle import total_derivative


def noether(L: Lagrangian, generator) -> VariationalForm:
    q = prolong(generator, L.density)
    P, Q = peel_oracle.solve_total_derivative(q)
    if total_derivative(Q, "t") - total_derivative(P, "s") != q:
        raise InvariantError("internal: peel produced an incorrect representation")
    alpha = VariationalForm({((), ("t",)): P, ((), ("s",)): Q})
    current = alpha - contract(generator, L.gamma)
    restrict_to_sol0(DiffPoly.zero(), L)  # NonLinearEL off the flat wave system
    d_current = current.horizontal_differential()
    if not wave_reduce_poly(d_current.component((), ("t", "s"))).is_zero():
        raise InvariantError("internal: on-shell certificate failed for the computed current")
    return current
