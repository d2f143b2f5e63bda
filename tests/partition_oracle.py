"""The BiSeries(terms) path of partition_function, kept as the reference
for the library's sum over one integer denominator.

Every (sector, k, kbar) term goes into the public BiSeries constructor
as a pair of Fraction exponents with its multiplicity, so the
constructor's own canonicalising and summing decides each coefficient.
"""

from chiraltorus.fockq import (
    BiSeries,
    FormalUnitValue,
    colored_partition_counts,
    enumerate_sectors,
)


def q_exponent(weight):
    h = weight.as_exact()
    if h.im != 0:
        raise FormalUnitValue("complex weight has no character exponent")
    return h.re


def partition_function(model, cutoff, order, sector_filter=None):
    counts = colored_partition_counts(model.n, order)
    terms = []
    for s in enumerate_sectors(model, cutoff):
        if sector_filter is not None and not sector_filter(s):
            continue
        h, hbar = q_exponent(s.h), q_exponent(s.hbar)
        for k in range(order + 1):
            for kb in range(order + 1):
                terms.append(((h + k, hbar + kb), counts[k] * counts[kb]))
    return BiSeries(terms)
