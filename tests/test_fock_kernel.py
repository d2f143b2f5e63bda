"""The grouped integer Fock kernel against the per-term kernel it replaced.

FockTruncation._operator merges equal words, applies each first edit once
per column and sums every row in integers over one denominator;
tests/fock_oracle.py walks every term on its own with one ExactScalar sum
per hit.  Both must give the same operators entry for entry.  The weights
are nonzero Gaussian rationals with nonzero imaginary parts, so the
zero-mode terms and the imaginary integer sums, which the vacuum module
never reaches, are exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import fock_oracle
from chiraltorus.exactlin import ExactScalar
from chiraltorus.fockq import FockTruncation, LatticeModel
from test_sector_tables import metrics, small
from test_sugawara import same

S = ExactScalar

# the largest cutoff drawn for each n, so the property stays quick
MAX_N = {1: 5, 2: 3, 3: 2}

complex_weight = st.builds(S, small, small.filter(bool))


@st.composite
def truncations(draw):
    n = draw(st.integers(1, 3))
    zero = [[0] * n for _ in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    model = LatticeModel(n, draw(metrics(n)), zero, ident)
    weight = [draw(complex_weight) for _ in range(n)]
    return FockTruncation(model, weight, draw(st.integers(0, MAX_N[n])))


@settings(max_examples=80, deadline=None)
@given(truncations())
def test_kernel_equals_the_per_term_oracle(fock):
    for k in range(-fock.N, fock.N + 1):
        same(fock.virasoro(k), fock_oracle.virasoro(fock, k))
        for i in range(1, fock.model.n + 1):
            same(fock.alpha(i, k), fock_oracle.alpha(fock, i, k))

