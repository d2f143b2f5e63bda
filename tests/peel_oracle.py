"""The two-pass Noether peel, kept as the reference path for the
total-derivative solver in chiraltorus.jetcalc.

enumerate_monomials distributes the weight over jets and symbols first
and then splits each jet order into (a, b); with forbid_bare it skips
every distribution that leaves a jet of order zero.  solve_total_derivative
enumerates the candidates of each content block twice, first without
bare-x factors and then with them, deduplicating across weights with a
seen set, and solves each system from scratch with _solve_in_span, which
pivots on the least monomial.  Its columns come from total_derivative_oracle
and its elimination from echelon and reduce_row below, over ExactScalar, one
normalised scalar per step.  The library enumerates each block once, from
one composition per monomial, caches the echelon basis of each candidate
pool in Gaussian integers and pivots on the leading monomial in the graded
order.

A content here is (mode, field index multiset, symbol names), and the
weight of a monomial is the sum of its jet and symbol orders.
"""

from itertools import product

from chiraltorus.exactlin import ONE, ZERO, S, add_into, compositions
from chiraltorus.jetcalc import DiffPoly, Monomial, NotASymmetry

from total_derivative_oracle import total_derivative


def echelon(rows, lead) -> dict:
    """Echelon basis {pivot: row scaled to 1 there} of the span of rows.

    Rows are zero-pruned dicts {column: ExactScalar} and are not
    modified.  Each row is reduced against the basis built so far; lead
    picks the pivot column of a nonzero remainder, or returns None when
    the remainder has no admissible column, and the row is then
    dropped.  There is no back-substitution: a basis row is zero at the
    pivots of the rows before it, which is all reduce_row needs.
    """
    basis = {}
    for row in rows:
        row = reduce_row(row, basis)
        if not row:
            continue
        col = lead(row)
        if col is None:
            continue
        inv = ONE / row[col]
        basis[col] = {k: v * inv for k, v in row.items()}
    return basis


def reduce_row(row, basis) -> dict:
    """row minus the combination of basis rows that is zero at every
    pivot, in one pass over the basis in the order it was built."""
    out = dict(row)
    for col, brow in basis.items():
        if col in out:
            c = -out[col]
            for k, v in brow.items():
                add_into(out, k, c * v)
    return out


def monomial_weight(m: Monomial) -> int:
    return sum(a + b for (_, a, b) in m.jets) + sum(o for (_, o) in m.syms)


def monomial_content(m: Monomial):
    return (m.mode, tuple(sorted(i for (i, _, _) in m.jets)),
            tuple(sorted(n for (n, _) in m.syms)))


def _solve_in_span(columns, target: DiffPoly):
    """Exact coefficients c with sum c_k columns[k] = target, or None.

    Column k becomes a row tagged with the int key k beside its Monomial
    keys.  A column in the span of the ones before it gets no pivot, so
    its coefficient, a free variable, is 0.  What reducing the target
    leaves is minus the solution on the tags, and untagged only when the
    target is outside the span.
    """
    rows = [{**col.coeffs, k: ONE} for k, col in enumerate(columns)]
    basis = echelon(rows, lambda row: min(
        (key for key in row if type(key) is not int), default=None))
    rest = reduce_row(target.coeffs, basis)
    if any(type(key) is not int for key in rest):
        return None
    return [-rest[k] if k in rest else ZERO for k in range(len(columns))]


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
            columns = [total_derivative(cp, "t") for cp in cand_polys]
            columns += [total_derivative(cp, "s").scale(S(-1)) for cp in cand_polys]
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
