"""The integer Fock kernel against the per-term kernel it replaced.

FockTruncation._operator merges equal words, takes each word's hits
(column, row, multiplicity) from a map shared by every truncation of one
(n, N), and sums every entry in integers over one denominator;
tests/fock_oracle.py walks every term on its own with one ExactScalar sum
per hit.  Both must give the same operators entry for entry.  The weights
are nonzero Gaussian rationals with nonzero imaginary parts, so the
zero-mode terms and the imaginary integer sums, which the vacuum module
never reaches, are exercised.  Truncations that share maps are built side
by side with different metrics, weights and cutoffs, so a map that kept a
coefficient or a cutoff of the truncation that built it would show.

SparseOp sums both products of a commutator into one table, and
central_charge forms only the vacuum column of [L_2, L_-2] - 4 L_0;
fock_oracle keeps the whole products, their difference and the
full-matrix reading, and both must agree entry for entry.
"""

from fractions import Fraction
from functools import partial
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_oracle
from chiraltorus.exactlin import ExactScalar
from chiraltorus.fockq import (
    FockTruncation,
    LatticeModel,
    SparseOp,
    _word_map,
    central_charge,
)
from test_sector_tables import metrics, small
from test_sugawara import same

S = ExactScalar

# the largest cutoff drawn for each n, so the property stays quick
MAX_N = {1: 5, 2: 3, 3: 2}

complex_weight = st.builds(S, small, small.filter(bool))


def model_of(g):
    n = len(g)
    zero = [[0] * n for _ in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return LatticeModel(n, g, zero, ident)


@st.composite
def truncations(draw):
    n = draw(st.integers(1, 3))
    model = model_of(draw(metrics(n)))
    weight = [draw(complex_weight) for _ in range(n)]
    return FockTruncation(model, weight, draw(st.integers(0, MAX_N[n])))


@st.composite
def sharing_truncations(draw):
    """Three truncations of one n: two at one cutoff N whose metrics and
    weights differ, and one at another cutoff."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, MAX_N[n]))
    other = draw(st.integers(0, MAX_N[n]).filter(lambda M: M != N))
    g1, g2, g3 = (draw(metrics(n)) for _ in range(3))
    w1, w2, w3 = ([draw(complex_weight) for _ in range(n)] for _ in range(3))
    if g2 == g1:
        g2[0][0] += 1
    if w2 == w1:
        w2[0] += 1
    return (FockTruncation(model_of(g1), w1, N), FockTruncation(model_of(g2), w2, N),
            FockTruncation(model_of(g3), w3, other))


def calls(fock):
    """(library call, oracle call) for every virasoro and alpha of fock."""
    out = []
    for k in range(-fock.N, fock.N + 1):
        out.append((partial(fock.virasoro, k), partial(fock_oracle.virasoro, fock, k)))
        out += [(partial(fock.alpha, i, k), partial(fock_oracle.alpha, fock, i, k))
                for i in range(1, fock.model.n + 1)]
    return out


@settings(max_examples=80, deadline=None)
@given(truncations())
def test_kernel_equals_the_per_term_oracle(fock):
    for k in range(-fock.N, fock.N + 1):
        same(fock.virasoro(k), fock_oracle.virasoro(fock, k))
        for i in range(1, fock.model.n + 1):
            same(fock.alpha(i, k), fock_oracle.alpha(fock, i, k))


@settings(max_examples=30, deadline=None)
@given(sharing_truncations())
def test_truncations_share_maps_but_not_coefficients(focks):
    _word_map.cache_clear()
    # one call of each truncation in turn: a map the first builds is read
    # next by the second, of another metric and weight, while the third,
    # at another cutoff, must build its own
    for turn in zip_longest(*map(calls, focks)):
        for call, oracle in filter(None, turn):
            same(call(), oracle())
    assert _word_map.cache_info().hits


# the (n, N) of every FockTruncation in the fock_modes benchmark workload
@pytest.mark.parametrize("g", [
    [[Fraction(5, 2)]],
    [[2, Fraction(1, 2)], [Fraction(1, 2), 3]],
    [[3, 1, 0], [1, 2, Fraction(-1, 2)], [0, Fraction(-1, 2), Fraction(7, 3)]],
], ids=["n1-N7", "n2-N5", "n3-N4"])
@pytest.mark.parametrize("weight", ["vacuum", "complex"])
def test_workload_shapes_equal_the_per_term_oracle(g, weight):
    n = len(g)
    w = [0] * n if weight == "vacuum" else [S(Fraction(k, 2), 1 - k) for k in range(n)]
    fock = FockTruncation(model_of(g), w, {1: 7, 2: 5, 3: 4}[n])
    for call, oracle in calls(fock):
        same(call(), oracle())


# entries whose sums cancel exactly, on the real and the imaginary axis
entries = st.sampled_from([S(1), S(-1), S(Fraction(1, 2)), S(Fraction(-1, 2)),
                           S(0, 1), S(0, -1), S(Fraction(1, 3), -2)])


@st.composite
def operators(draw, dim, support):
    """An operator of dimension dim whose columns and rows lie in support."""
    if not support:
        return SparseOp(dim)
    index = st.sampled_from(support)
    return SparseOp(dim, draw(st.dictionaries(
        index, st.dictionaries(index, entries, max_size=len(support)),
        max_size=len(support))))


@st.composite
def operator_pairs(draw):
    """(a, b, kind): b is drawn on its own ("free"), is a itself ("equal"),
    is a polynomial in a ("commuting"), or lives on basis vectors that a
    never touches ("disjoint"); in the last three [a, b] is zero."""
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["free", "equal", "commuting", "disjoint"]))
    if kind == "disjoint":
        k = draw(st.integers(0, dim))
        return (draw(operators(dim, range(k))), draw(operators(dim, range(k, dim))),
                kind)
    a = draw(operators(dim, range(dim)))
    if kind == "free":
        b = draw(operators(dim, range(dim)))
    elif kind == "equal":
        b = a
    else:
        b = (fock_oracle.product(a, a).scale(draw(entries)) + a
             + SparseOp.identity(dim, draw(entries)))
    return a, b, kind


@settings(max_examples=150, deadline=None)
@given(operator_pairs())
def test_commutator_equals_two_products_and_a_difference(pair):
    a, b, kind = pair
    same(a @ b, fock_oracle.product(a, b))
    same(a.commutator(b), fock_oracle.commutator(a, b))
    if kind != "free":
        assert a.commutator(b) == SparseOp.zero(a.dim)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(metrics(n), st.integers(2, 4))))
def test_central_charge_equals_the_full_matrix_reading(drawn):
    g, N = drawn
    model = model_of(g)
    c = central_charge(model, N)
    assert c == fock_oracle.central_charge(model, N)
    assert c == S(model.n)
