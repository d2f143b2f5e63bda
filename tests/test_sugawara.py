"""Virasoro modes from the Sugawara kernel against the operator-product
path they replaced.

The reference oracles below are that path as it was: alpha^i_m built
column by column with its own partition edits, and L_k summed from the
n^2 sparse products -g_ij alpha^i_p @ alpha^j_q per mode m, each product
truncated at level N.  The kernel writes every column of L_k directly,
with the metric already contracted against the inverse metric of the
annihilators, so both sides must agree exactly: as operators and as the
sorted listing of (column, row, str(value)).  Random models cover
n = 1-3 with non-integer rational metrics and zero, rational or
Gaussian-rational weights, every |k| <= N for N up to 5 (bounded by n).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraltorus.exactlin import ExactScalar, add_into
from chiraltorus.fockq import (
    CutoffExceeded,
    FockTruncation,
    LatticeModel,
    SparseOp,
)
from test_sector_tables import metrics, small

S = ExactScalar
HALF = S(Fraction(1, 2))
ZERO = S(0)
ONE = S(1)

# the largest cutoff drawn for each n, so the suite stays quick
MAX_N = {1: 5, 2: 4, 3: 3}


# ----------------------------------------------------------------------
# reference oracles: the operator-product path
# ----------------------------------------------------------------------

def ref_level(vector) -> int:
    return sum(sum(p) for p in vector)


def ref_alpha(fock, i: int, m: int) -> SparseOp:
    """alpha^i_m as it was built before the kernel: every column edits
    its partitions by list surgery, and the zero mode is summed per
    column."""
    ginv = fock.model.g_inv
    table = {}
    for col, vec in enumerate(fock.basis):
        out = {}
        if m == 0:
            lam = ZERO
            for k in range(fock.model.n):
                lam = lam + ginv[(i - 1, k)] * fock.weight[k]
            lam = -HALF * lam
            if not lam.is_zero():
                out[col] = lam
        elif m < 0:
            parts = list(vec[i - 1])
            parts.append(-m)
            parts.sort(reverse=True)
            new = vec[:i - 1] + (tuple(parts),) + vec[i:]
            if ref_level(new) <= fock.N:
                out[fock.index[new]] = ONE
        else:
            for j in range(1, fock.model.n + 1):
                gij = ginv[(i - 1, j - 1)]
                if gij.is_zero():
                    continue
                count = vec[j - 1].count(m)
                if count == 0:
                    continue
                parts = list(vec[j - 1])
                parts.remove(m)
                new = vec[:j - 1] + (tuple(parts),) + vec[j:]
                add_into(out, fock.index[new], -HALF * gij * S(m) * S(count))
        if out:
            table[col] = out
    return SparseOp(fock.dim, table)


def ref_virasoro(fock, k: int) -> SparseOp:
    """L_k = -sum_m g_ij alpha^i_p @ alpha^j_q with p = m, q = k - m,
    swapped when p > 0 > q."""
    g, n = fock.model.g, fock.model.n
    alphas = {}

    def alpha(i, m):
        if (i, m) not in alphas:
            alphas[(i, m)] = ref_alpha(fock, i, m)
        return alphas[(i, m)]

    total = SparseOp.zero(fock.dim)
    for m in range(-fock.N, fock.N + 1):
        if abs(k - m) > fock.N:
            continue
        p, q = m, k - m
        if p > 0 and q < 0:
            p, q = q, p
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                gij = g[(i - 1, j - 1)]
                if gij.is_zero():
                    continue
                total = total + (alpha(i, p) @ alpha(j, q)).scale(-gij)
    return total


def same(got: SparseOp, want: SparseOp):
    """Equal operators, and equal sorted (column, row, str) listings."""
    assert got == want

    def listing(op):
        return sorted((col, row, str(v)) for col, column in op.table.items()
                      for row, v in column.items())

    assert listing(got) == listing(want)


# ----------------------------------------------------------------------
# random truncations
# ----------------------------------------------------------------------

gaussian = st.builds(S, small, small)


@st.composite
def weights(draw, n):
    kind = draw(st.sampled_from(("zero", "rational", "gaussian")))
    if kind == "zero":
        return [0] * n
    entry = st.builds(S, small) if kind == "rational" else gaussian
    return [draw(entry) for _ in range(n)]


@st.composite
def truncations(draw):
    n = draw(st.integers(1, 3))
    g = draw(metrics(n))
    zero = [[0] * n for _ in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    model = LatticeModel(n, g, zero, ident)
    N = draw(st.integers(0, MAX_N[n]))
    return FockTruncation(model, draw(weights(n)), N)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

class TestSugawaraKernel:
    @settings(max_examples=80, deadline=None)
    @given(truncations())
    def test_virasoro_equals_the_product_path(self, fock):
        for k in range(-fock.N, fock.N + 1):
            same(fock.virasoro(k), ref_virasoro(fock, k))

    @settings(max_examples=60, deadline=None)
    @given(truncations())
    def test_alpha_equals_the_reference(self, fock):
        for i in range(1, fock.model.n + 1):
            for m in range(-fock.N, fock.N + 1):
                same(fock.alpha(i, m), ref_alpha(fock, i, m))

    @settings(max_examples=30, deadline=None)
    @given(truncations())
    def test_levels_are_the_part_sums(self, fock):
        assert fock.levels == tuple(ref_level(v) for v in fock.basis)
        for k in range(-1, fock.N + 2):
            assert fock.vectors_up_to_level(k) == [
                c for c, v in enumerate(fock.basis) if ref_level(v) <= k]

    @settings(max_examples=30, deadline=None)
    @given(truncations())
    def test_modes_beyond_the_cutoff_are_refused(self, fock):
        for k in (fock.N + 1, -fock.N - 1):
            with pytest.raises(CutoffExceeded):
                fock.virasoro(k)
