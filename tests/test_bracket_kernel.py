"""The integer bracket kernel against the ExactScalar path it replaced.

chiraltorus.coisson runs the Euler operator, the pairing and the Jacobi
residual on tables of Gaussian-integer numerators over one denominator
and reduces each output coefficient once; tests/bracket_oracle.py does
every coefficient operation as one ExactScalar operation.  Both must give
equal results with equal hashes, and every coefficient the kernel returns
must be a canonical triple.  The densities carry trig modes and phi/psi
symbols, and the tables cover no twist, a constant twist, a closed
polynomial twist and the non-closed twist x4.
"""

from math import gcd

import pytest
from hypothesis import given, settings

import bracket_oracle as oracle
from chiraltorus.coisson import _pairing, boson_table, jacobi_residual
from test_coisson import densities, euler

TABLES = {
    "untwisted": boson_table(),
    "constant": boson_table(twist={(1, 2, 3): "1"}),
    "polynomial": boson_table(twist={(1, 2, 4): "x4*x1"}),
    "open": boson_table(twist={(1, 2, 3): "x4"}),
}


def same(got, want):
    """got == want with equal hashes, every coefficient of got canonical."""
    assert got == want
    assert hash(got) == hash(want)
    for c in got.coeffs.values():
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1


@settings(max_examples=80, deadline=None)
@given(a=densities(3, 3))
def test_euler_operator_at_every_order(a):
    top = max((m for mono in a.coeffs for (_, _, m) in mono.jets), default=0)
    for k in range(top + 2):
        got, want = euler(a, k), oracle.variational_derivative(a, k)
        assert got.keys() == want.keys()
        for slot in got:
            same(got[slot], want[slot])


@pytest.mark.parametrize("name", sorted(TABLES))
class TestAgainstTheOracle:
    @settings(max_examples=40, deadline=None)
    @given(a=densities(), b=densities())
    def test_pairing(self, name, a, b):
        same(_pairing(a, b, TABLES[name]), oracle._pairing(a, b, TABLES[name]))

    @settings(max_examples=12, deadline=None)
    @given(a=densities(2, 2), b=densities(2, 2), c=densities(2, 2))
    def test_jacobi_residual(self, name, a, b, c):
        table = TABLES[name]
        got, want = jacobi_residual(table, a, b, c), oracle.jacobi_residual(table, a, b, c)
        assert hash(got) == hash(want)
        same(got.rep, want.rep)

