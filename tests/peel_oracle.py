"""The two-pass Noether peel, kept as the reference path for the
total-derivative solver in chiraltorus.jetcalc.

enumerate_monomials distributes the weight over jets and symbols first
and then splits each jet order into (a, b); with forbid_bare it skips
every distribution that leaves a jet of order zero.  solve_total_derivative
enumerates the candidates of each content block twice, first without
bare-x factors and then with them, deduplicating across weights with a
seen set.  The library enumerates each block once, from one composition
per monomial, and filters the bare candidates out of that one list.
"""

from itertools import product

from chiraltorus.exactlin import ONE, S, compositions
from chiraltorus.jetcalc import (
    DiffPoly,
    Monomial,
    NotASymmetry,
    _solve_in_span,
    monomial_content,
    monomial_weight,
)


def enumerate_monomials(content, weight, forbid_bare=False):
    mode, fields, names = content
    out = set()
    for comp in compositions(weight, len(fields) + len(names)):
        jet_orders = comp[: len(fields)]
        sym_orders = comp[len(fields):]
        if forbid_bare and any(o == 0 for o in jet_orders):
            continue
        syms = tuple(sorted(zip(names, sym_orders)))
        for split in product(*[range(o + 1) for o in jet_orders]):
            jets = tuple(
                sorted((fields[k], split[k], jet_orders[k] - split[k])
                       for k in range(len(fields)))
            )
            out.add(Monomial(mode, syms, jets))
    return sorted(out)


def solve_total_derivative(q: DiffPoly):
    """(P, Q) with q = D_tau Q - D_sigma P, or NotASymmetry."""
    if q.is_zero():
        return DiffPoly.zero(), DiffPoly.zero()
    blocks = {}
    for mono, coeff in q.coeffs.items():
        blocks.setdefault(monomial_content(mono), {})[mono] = coeff
    P = DiffPoly.zero()
    Q = DiffPoly.zero()
    for content in sorted(blocks):
        target = DiffPoly(blocks[content])
        weights = sorted({monomial_weight(m) for m in target.coeffs})
        solved = None
        for forbid_bare in (True, False):
            cands = []
            seen = set()
            for w in weights:
                wants = [w - 1] if content[0] == 0 else [w - 1, w]
                for cw in wants:
                    if cw < 0:
                        continue
                    for mono in enumerate_monomials(content, cw, forbid_bare):
                        if mono not in seen:
                            seen.add(mono)
                            cands.append(mono)
            if not cands:
                continue
            cand_polys = [DiffPoly({m: ONE}) for m in cands]
            columns = [cp.D("t") for cp in cand_polys]
            columns += [cp.D("s").scale(S(-1)) for cp in cand_polys]
            sol = _solve_in_span(columns, target)
            if sol is not None:
                for k, cp in enumerate(cand_polys):
                    if not sol[k].is_zero():
                        Q = Q + cp.scale(sol[k])
                    if not sol[len(cands) + k].is_zero():
                        P = P + cp.scale(sol[len(cands) + k])
                solved = True
                break
        if not solved:
            raise NotASymmetry(
                f"no total-derivative representation in content block {content}"
            )
    return P, Q
