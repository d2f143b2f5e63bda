"""The per-term Fock kernel, kept as the reference path for
FockTruncation._operator, and the full-matrix paths that SparseOp's
product kernel replaced in commutator and central_charge.

alpha and virasoro list the same terms (coefficient, edits) as the
library, and operator walks every column once per term: it applies each
term's edits in turn, multiplies the coefficient by the multiplicity of
every part removed, and adds the product into the column with one
ExactScalar sum per hit.  No word is merged, no first edit is shared and
no sum is deferred, so each entry of the library's grouped integer kernel
can be checked against a plain sum of scalars.

product forms every entry of a product as a sum over the whole basis;
commutator is the two products and a difference, as SparseOp formed it
before the products were summed into one table; central_charge builds
the whole operator [L_2, L_-2] - 4 L_0 from the per-term Virasoro modes
and reads its vacuum column.
"""

from fractions import Fraction
from operator import mul

from chiraltorus.exactlin import ExactScalar, InvariantError, add_into
from chiraltorus.fockq import FockTruncation, SparseOp

S = ExactScalar
HALF = S(Fraction(1, 2))
MINUS_HALF = -HALF
ONE = S(1)
ZERO = S(0)


def append_part(vec, i, part):
    """The partition state vec with one more part `part` in colour i."""
    return vec[:i] + (tuple(sorted(vec[i] + (part,), reverse=True)),) + vec[i + 1:]


def remove_part(vec, i, part):
    """(vec with one part `part` taken from colour i, the multiplicity of
    that part in vec), or (None, 0) when colour i has no such part."""
    parts = vec[i]
    if part not in parts:
        return None, 0
    k = parts.index(part)
    return vec[:i] + (parts[:k] + parts[k + 1:],) + vec[i + 1:], parts.count(part)


def operator(fock, terms, k) -> SparseOp:
    """sum c * edits over terms that each lower the level by k, one term
    at a time per column; a column whose image lies above level N is left
    out."""
    terms = [(c, edits) for c, edits in terms if not c.is_zero()]
    table = {}
    for col, vec in enumerate(fock.basis):
        if fock.levels[col] - k > fock.N:
            continue
        out = {}
        for c, edits in terms:
            new, mult = vec, 1
            for i, m in edits:
                if m < 0:
                    new = append_part(new, i, -m)
                else:
                    new, count = remove_part(new, i, m)
                    if not count:
                        break
                    mult *= count
            else:
                add_into(out, fock.index[new], c * mult if mult > 1 else c)
        if out:
            table[col] = out
    return SparseOp(fock.dim, table)


def alpha(fock, i: int, m: int) -> SparseOp:
    """alpha^i_m: one creation, n weighted annihilations, or the zero
    mode as a scalar."""
    if m < 0:
        terms = [(ONE, ((i - 1, m),))]
    elif m > 0:
        terms = [(MINUS_HALF * m * fock.model.g_inv[(i - 1, j)], ((j, m),))
                 for j in range(fock.model.n)]
    else:
        terms = [(fock.zero_modes[i - 1], ())]
    return operator(fock, terms, m)


def virasoro(fock, k: int) -> SparseOp:
    """L_k from the Sugawara terms of FockTruncation.virasoro, one term
    per colour pair and mode."""
    g, ginv = fock.model.g, fock.model.g_inv
    w, lam, colours = fock.weight, fock.zero_modes, range(fock.model.n)
    terms = []
    for m in range(max(-fock.N, k - fock.N), min(fock.N, k + fock.N) + 1):
        p, q = m, k - m
        if p > 0 > q:
            p, q = q, p
        if p < 0 and q < 0:
            terms += [(-g[(i, j)], ((j, q), (i, p))) for i in colours for j in colours]
        elif p < 0 < q:
            terms += [(HALF * q, ((i, q), (i, p))) for i in colours]
        elif p > 0 and q > 0:
            c = MINUS_HALF * HALF * (p * q)
            terms += [(c * ginv[(a, b)], ((b, q), (a, p)))
                      for a in colours for b in colours]
        elif p + q < 0:
            terms += [(HALF * w[i], ((i, p + q),)) for i in colours]
        elif p + q > 0:
            terms += [(HALF * (p + q) * lam[a], ((a, p + q),)) for a in colours]
        else:
            terms.append((HALF * sum(map(mul, w, lam), ZERO), ()))
    return operator(fock, terms, k)


def product(left, right) -> SparseOp:
    """left after right, entry by entry: the (row, col) entry is the sum
    of left[row, m] * right[m, col] over every m of the basis."""
    dim = left.dim

    def entry(op, row, col):
        return op.table.get(col, {}).get(row, ZERO)

    return SparseOp(dim, {col: {row: sum((entry(left, row, m) * entry(right, m, col)
                                          for m in range(dim)), ZERO)
                                for row in range(dim)}
                          for col in range(dim)})


def commutator(a, b) -> SparseOp:
    """[a, b] as two whole products and a difference."""
    return (a @ b) - (b @ a)


def central_charge(model, N: int) -> ExactScalar:
    """c read off the vacuum column of the whole operator [L_2, L_-2] -
    4 L_0, which acts by c/2 there; InvariantError when that column has
    an entry off the diagonal."""
    fock = FockTruncation(model, [0] * model.n, N)
    op = commutator(virasoro(fock, 2), virasoro(fock, -2)) - virasoro(fock, 0).scale(4)
    vac = fock.index[((),) * model.n]
    column = op.column(vac)
    if set(column) - {vac}:
        raise InvariantError("central measurement is not diagonal on the vacuum")
    return column.get(vac, ZERO) * 2
