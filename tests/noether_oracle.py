"""The Noether current on ExactScalar polynomials, kept as the reference
path for chiraltorus.jetcalc.noether.

The library runs noether on integer tables: it converts the generator's
components and the Lagrangian's partials once, sums x-hat(L) in ints,
peels it against integer basis rows and builds the current directly as
t = P + sum_i dl/d(u_sigma^i) F_i and s = Q - sum_i dl/d(u_tau^i) F_i.
This module takes the long way through the ExactScalar bicomplex
operations, which live here and not in the library: x-hat(L) by prolong,
the peel by peel_oracle and its identity through
total_derivative_oracle, the current as alpha - iota_{x-hat} gamma by
contract, and the on-shell certificate from horizontal_differential and
wave_reduce_poly.  vertical_differential and lagrangian_form complete the
bicomplex for the identities that tests/test_jetcalc.py checks.  Its
checks and refusals come in the order the library's do: a missing
generator component while prolonging, NotASymmetry from the peel, the
peel identity, NonLinearEL, then the certificate.  peel_oracle names a
failing content block in its own format, so a NotASymmetry message
differs from the library's.
"""

from chiraltorus.exactlin import ONE, InvariantError, S
from chiraltorus.jetcalc import (
    DiffPoly,
    Lagrangian,
    VariationalForm,
    _component,
    restrict_to_sol0,
    variational_one_form,
    wave_reduce_poly,
)

import peel_oracle
from total_derivative_oracle import total_derivative


def lagrangian_form(L: Lagrangian) -> VariationalForm:
    """The Lagrangian as a top form: density * dtau ^ dsigma."""
    return VariationalForm({((), ("t", "s")): L.density})


def vertical_differential(form: VariationalForm) -> VariationalForm:
    """delta = sum_J delta u_J ^ d/du_J, the new factor wedged leftmost."""
    items = []
    for (vkeys, hkeys), poly in form.coeffs.items():
        for key, part in poly.partials().items():
            items.append((((key,) + vkeys, hkeys), part))
    return VariationalForm(items)


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


def noether(L: Lagrangian, generator) -> VariationalForm:
    q = prolong(generator, L.density)
    P, Q = peel_oracle.solve_total_derivative(q)
    if total_derivative(Q, "t") - total_derivative(P, "s") != q:
        raise InvariantError("internal: peel produced an incorrect representation")
    alpha = VariationalForm({((), ("t",)): P, ((), ("s",)): Q})
    current = alpha - contract(generator, variational_one_form(L))
    restrict_to_sol0(DiffPoly.zero(), L)  # NonLinearEL off the flat wave system
    d_current = current.horizontal_differential()
    if not wave_reduce_poly(d_current.component((), ("t", "s"))).is_zero():
        raise InvariantError("internal: on-shell certificate failed for the computed current")
    return current
