"""The four workloads: seeded item lists over the public chiraltorus API.

An item has three parts.  `call` is the user's work and the only part
that is timed or profiled.  `verify` checks the result exactly and
raises `CheckFailed`.  `render` turns the result into text for the
frozen output digest.

Each list is built from whole rounds.  A round is a fixed sequence of
item kinds whose contents are drawn from the seed, so every seed gives
the same mix and any prefix of a run holds nearly the same proportions.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction
from functools import partial
from pathlib import Path

from chiraltorus import (
    DiffPoly,
    FockTruncation,
    FourierClass,
    RationalMatrix,
    SparseOp,
    boson_table,
    build_model,
    central_charge,
    fm_cdo,
    fm_linear,
    fm_tdo,
    fourier_bracket,
    gen_conformal,
    gen_sigma,
    gen_tau,
    gen_translation,
    generator_density,
    jacobi_residual,
    load_model,
    noether,
    parse_expr,
    poly_str,
    t_dual,
)
from chiraltorus import cli
from chiraltorus.exactlin import ExactScalar
from chiraltorus.jetcalc import wave_reduce_poly

import inputs

S = ExactScalar
ZERO = S(0)
HALF = S(Fraction(1, 2))


class CheckFailed(Exception):
    """An item's output differs from the exact expected value."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


# seeded models or Lagrangians drawn per dimension; enough that a run
# averages over many metrics rather than riding on a few
POOL = 16


class Item:
    __slots__ = ("kind", "call", "verify", "render")

    def __init__(self, kind, call, verify, render):
        self.kind = kind
        self.call = call
        self.verify = verify
        self.render = render


# ----------------------------------------------------------------------
# fm_transform
# ----------------------------------------------------------------------

# two of each of n=2 and n=3, four of n=4, two of n=5: the median falls
# inside the n=4 items and the 90th percentile inside the n=5 items
FM_ROUND = (2, 4, 3, 5, 4, 2, 4, 3, 5, 4)


def _tensor_entries(t):
    return len(t.coeffs) * (t.valdim or 1)


def _fm_call(mu, cdo, tdo, tr):
    inv = mu.inverse_class()
    with tr.span("chiral_fm.fm_cdo"):
        cdo_out = fm_cdo(mu, cdo)
        cdo_back = fm_cdo(inv, cdo_out)
    with tr.span("chiral_fm.fm_tdo"):
        tdo_out = fm_tdo(mu, tdo)
        tdo_back = fm_tdo(inv, tdo_out)
    with tr.span("chiral_fm.fm_linear"):
        lin = fm_linear(mu.mu)
        lin_back = fm_linear(lin)
    if tr.on:
        tr.count("chiral_fm.tensor_entries",
                 _tensor_entries(cdo_out.lam) + _tensor_entries(cdo_out.nu)
                 + _tensor_entries(tdo_out.omega))
    return cdo_out, cdo_back, tdo_out, tdo_back, lin, lin_back


def _fm_verify(mu, cdo, tdo, res):
    _, cdo_back, _, tdo_back, lin, lin_back = res
    check(cdo_back == cdo, "fm_cdo round trip")
    check(tdo_back == tdo, "fm_tdo round trip")
    check(lin_back == mu.mu, "fm_linear involution")
    check(mu.mu * lin == RationalMatrix.identity(mu.n).scale(-1), "fm_linear is -mu^(-1)")


def _fm_render(res):
    cdo_out, _, tdo_out, _, lin, _ = res
    return json.dumps({"cdo": cdo_out.to_json(), "tdo": tdo_out.to_json(),
                       "linear": lin.to_json()}, sort_keys=True)


def build_fm_transform(rng, rounds, workdir):
    items = []
    for _ in range(rounds):
        for n in FM_ROUND:
            mu = inputs.nondeg_class(rng, n)
            cdo = inputs.cdo_class(rng, n)
            tdo = inputs.tdo_class(rng, n)
            items.append(Item(f"fm.n{n}", partial(_fm_call, mu, cdo, tdo),
                              partial(_fm_verify, mu, cdo, tdo), _fm_render))
    return items


# ----------------------------------------------------------------------
# mode_algebra
# ----------------------------------------------------------------------

TABLE = boson_table()
CONST_TWIST = boson_table(twist={(1, 2, 3): "1"})
# a non-closed twist: Jacobi fails with an exactly known residual
OPEN_TWIST = boson_table(twist={(1, 2, 3): "x4"})

CROSS_PAIRS = (("heis+", "heis-"), ("vir+", "vir-"),
               ("vir+", "heis-"), ("vir-", "heis+"))


def _grid_expected(fa, fb, m, n):
    """Closed-form structure constant of the mode grid, as a density."""
    k = m + n
    if (fa, fb) == ("heis+", "heis+"):
        return DiffPoly.const(S(0, -m) * HALF) if k == 0 else DiffPoly.zero()
    if (fa, fb) == ("heis-", "heis-"):
        return DiffPoly.const(S(0, m) * HALF) if k == 0 else DiffPoly.zero()
    if (fa, fb) == ("vir+", "vir+"):
        return generator_density("vir+", k).poly.scale(m - n)
    if (fa, fb) == ("vir-", "vir-"):
        return generator_density("vir-", k).poly.scale(n - m)
    if (fa, fb) == ("vir+", "heis+"):
        return generator_density("heis+", k).poly.scale(-n)
    if (fa, fb) == ("vir-", "heis-"):
        return generator_density("heis-", k).poly.scale(n)
    return DiffPoly.zero()  # opposite chiralities commute


def _count_bracket(tr, out):
    tr.count("coisson.result_terms", len(out.rep.terms))
    tr.count("coisson.brackets")
    if out.is_zero():
        tr.count("coisson.zero_brackets")


def _grid_call(a, b, tr):
    with tr.span("coisson.fourier_bracket"):
        out = fourier_bracket(a, b, TABLE)
    if tr.on:
        _count_bracket(tr, out)
    return out


def _grid_verify(fa, fb, m, n, out):
    check(out == FourierClass(_grid_expected(fa, fb, m, n)),
          f"structure constant {fa}({m}) {fb}({n})")


def _jacobi_call(table, a, b, c, tr):
    with tr.span("coisson.jacobi_residual"):
        out = jacobi_residual(table, a, b, c)
    if tr.on:
        _count_bracket(tr, out)
    return out


def _jacobi_verify(out):
    check(out.is_zero(), "Jacobi residual is zero")


def _obstruction_verify(total, out):
    want = FourierClass((DiffPoly.trig(total) * parse_expr("x4")).scale(S(0, total)))
    check(out == want and not out.is_zero(), "exact twist obstruction")


def _noether_call(lag, gen, tr):
    with tr.span("jetcalc.noether"):
        return noether(lag, gen)


def _noether_verify(current):
    # the current is closed on the wave equation: d(current) reduces to 0
    d = current.horizontal_differential().component((), ("t", "s"))
    check(not current.component((), ("s",)).is_zero(), "nonzero Noether charge")
    check(wave_reduce_poly(d).is_zero(), "Noether current certificate")


def _current_render(current):
    return (poly_str(current.component((), ("t",))) + " | "
            + poly_str(current.component((), ("s",))))


NOETHER_GENERATORS = ("dt", "ds", "x", "conformal", "anticonformal")
# every (n, generator) pair in turn, so each seed gets the same mix
NOETHER_CYCLE = tuple(itertools.product((1, 2, 3), NOETHER_GENERATORS))


def _generator(rng, n, kind):
    if kind == "dt":
        return kind, gen_tau(n)
    if kind == "ds":
        return kind, gen_sigma(n)
    if kind == "x":
        j = rng.randint(1, n)
        return f"x{j}", gen_translation(n, j)
    return kind, gen_conformal(n, holomorphic=kind == "conformal")


# G: a grid bracket of the named pair, X: an opposite-chirality pair,
# J: untwisted Jacobi triple, T: constant-twist triple,
# O: non-closed-twist obstruction, N: a Noether current.
# The median falls among the cheap brackets and Jacobi triples.  Six
# Noether items per round put the 90th percentile inside the heavy
# (n >= 2) currents, clear of the vir-vir brackets around 12-15 ms;
# with four it sat on the gap between the two and moved 10 % by seed.
MODE_ROUND = (
    ("G", "heis+", "heis+"), ("J",), ("N",), ("G", "vir+", "heis+"),
    ("J",), ("T",), ("G", "vir+", "vir+"), ("N",), ("G", "heis-", "heis-"),
    ("J",), ("X",), ("N",), ("O",), ("G", "heis-", "heis-"), ("J",), ("N",),
    ("G", "vir-", "heis-"), ("T",), ("G", "heis+", "heis+"), ("J",),
    ("G", "vir-", "vir-"), ("N",), ("X",), ("N",),
)


def build_mode_algebra(rng, rounds, workdir):
    # grid densities are shared between items; Lagrangians come from a
    # seeded pool per dimension
    grid = {(fam, m): generator_density(fam, m)
            for fam in ("heis+", "heis-", "vir+", "vir-") for m in range(-6, 7)}
    lagrangians = {n: [inputs.torus_lagrangian_for(rng, n) for _ in range(POOL)]
                   for n in (1, 2, 3)}
    items = []
    noethers = 0
    for _ in range(rounds):
        for spec in MODE_ROUND:
            tag = spec[0]
            if tag in ("G", "X"):
                fa, fb = spec[1:] if tag == "G" else rng.choice(CROSS_PAIRS)
                m, n = rng.randint(-6, 6), rng.randint(-6, 6)
                a, b = grid[(fa, m)], grid[(fb, n)]
                items.append(Item("bracket", partial(_grid_call, a, b),
                                  partial(_grid_verify, fa, fb, m, n), str))
            elif tag in ("J", "T"):
                table, nfields, order = (TABLE, 2, 1) if tag == "J" else (CONST_TWIST, 3, 0)
                a, b, c = (inputs.density(rng, nfields, order) for _ in range(3))
                items.append(Item("jacobi", partial(_jacobi_call, table, a, b, c),
                                  _jacobi_verify, str))
            elif tag == "O":
                while True:
                    modes = [rng.randint(-3, 3) for _ in range(3)]
                    if sum(modes) != 0:
                        break
                a, b, c = (DiffPoly.trig(m) * parse_expr(f"p{i}")
                           for i, m in enumerate(modes, 1))
                items.append(Item("obstruction",
                                  partial(_jacobi_call, OPEN_TWIST, a, b, c),
                                  partial(_obstruction_verify, sum(modes)), str))
            else:
                n, kind = NOETHER_CYCLE[noethers % len(NOETHER_CYCLE)]
                noethers += 1
                lag = rng.choice(lagrangians[n])
                name, gen = _generator(rng, n, kind)
                items.append(Item(f"noether.{name}", partial(_noether_call, lag, gen),
                                  _noether_verify, _current_render))
    return items


# ----------------------------------------------------------------------
# lattice_cli
# ----------------------------------------------------------------------

FORMATS = {
    "spectrum": ("json", "csv", "text"),
    "states": ("csv", "text", "json"),
    "locality": ("text", "json", "csv"),
    "chiral": ("json", "text", "csv"),
    "character": ("json", "text"),
    "tdual": ("text", "json"),
}

# (subcommand, n, cutoff, level or order, one-sector character), in four
# cost tiers: eight tiny calls; four `states` calls of one size around
# 25 ms that hold the median; five around 0.1-0.25 s; three around
# 0.5-0.8 s that hold the 90th percentile.  Neither percentile sits on a
# gap between tiers.
LATTICE_ROUND = (
    ("tdual", 1, 0, 0, False),
    ("states", 1, 3, 8, False),
    ("character", 2, 0, 6, True),
    ("locality", 1, 2, 0, False),
    ("states", 1, 1, 4, False),
    ("tdual", 2, 0, 0, False),
    ("states", 1, 3, 8, False),
    ("locality", 1, 3, 0, False),
    ("character", 3, 0, 6, True),
    ("states", 2, 1, 4, False),
    ("chiral", 1, 2, 0, False),
    ("states", 1, 3, 8, False),
    ("chiral", 2, 2, 0, False),
    ("tdual", 3, 0, 0, False),
    ("chiral", 2, 1, 0, False),
    ("character", 1, 0, 6, True),
    ("states", 1, 3, 8, False),
    ("spectrum", 2, 1, 0, False),
    ("locality", 1, 3, 0, False),
    ("character", 2, 1, 3, False),
)


def colored_partition_counts(n, order):
    """Coefficients of prod_k (1 - q^k)^(-n) up to q^order."""
    counts = [1] + [0] * order
    for _ in range(n):
        for k in range(1, order + 1):
            for j in range(k, order + 1):
                counts[j] += counts[j - k]
    return counts


def _box(n, cutoff):
    """Sector labels (l, l*) of the box, in the library's lexicographic order."""
    rng = range(-cutoff, cutoff + 1)
    labels = list(itertools.product(rng, repeat=n))
    return [(lc, sc) for lc in labels for sc in labels]


def _cli_call(sub, argv, fmt, sectors, pairs, tr):
    out, err = io.StringIO(), io.StringIO()
    with tr.span(f"cli.{sub}"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if tr.on:
        tr.count("cli.bytes_out", len(text.encode()))
        tr.count("fockq.sectors_requested", sectors)
        tr.count("fockq.sector_pairs", pairs)
        if sub == "chiral":
            tr.count("fockq.chiral_scanned", sectors)
            found = (len(json.loads(text)["sectors"]) if fmt == "json"
                     else len(_table_rows(text, fmt)))
            tr.count("fockq.chiral_found", found)
    return code, text, err.getvalue()


def _table_rows(text, fmt):
    lines = text.splitlines()
    return lines[1:] if fmt == "csv" else lines


def _verify_sectors(n, cutoff, fmt, text):
    """spectrum: one row per box sector, in order."""
    box = _box(n, cutoff)
    if fmt == "json":
        rows = json.loads(text)["sectors"]
        got = [(tuple(r["l"]), tuple(r["lstar"])) for r in rows]
        check(got == box, "spectrum rows cover the box in order")
    else:
        check(len(_table_rows(text, fmt)) == len(box), "spectrum row count")


def _verify_states(n, cutoff, level, fmt, text):
    box = _box(n, cutoff)
    if fmt == "json":
        data = json.loads(text)
        check(data["level_counts"] == colored_partition_counts(n, level),
              "oscillator level counts")
        got = [(tuple(s["l"]), tuple(s["lstar"])) for s in data["sectors"]]
        check(got == box, "states cover the box in order")
    elif fmt == "text":
        lines = text.splitlines()
        check(lines[0] == f"oscillator level counts: {colored_partition_counts(n, level)}",
              "oscillator level counts")
        check(len(lines) == len(box) + 1, "states row count")
    else:
        check(len(_table_rows(text, fmt)) == len(box), "states row count")


def _pairing(l1, ls1, l2, ls2):
    # the coordinate dual pairing is the identity, so the pairing
    # <l1*, l2> + <l2*, l1> is a dot product of coordinates
    return sum(a * b for a, b in zip(ls1, l2)) + sum(a * b for a, b in zip(ls2, l1))


def _coords(text):
    return tuple(int(x) for x in text.split())


def _verify_locality(n, cutoff, fmt, text):
    pairs = len(_box(n, cutoff)) ** 2
    if fmt == "text":
        check(text.splitlines()[1:] == [f"pairs checked: {pairs}",
                                        "all exponent differences integral: yes"],
              "locality verdict")
        return
    if fmt == "json":
        report = json.loads(text)
        check(report["all_integral"] is True, "all_integral")
        rows = [(r["l1"], r["lstar1"], r["l2"], r["lstar2"], r["difference"],
                 r["integral"]) for r in report["pairs"]]
    else:
        rows = [(_coords(a), _coords(b), _coords(c), _coords(d), diff, flag == "yes")
                for a, b, c, d, _, _, diff, flag in
                (line.split(",") for line in _table_rows(text, fmt))]
    check(len(rows) == pairs, "locality pair count")
    for l1, ls1, l2, ls2, diff, integral in rows:
        check(integral and Fraction(diff) == _pairing(l1, ls1, l2, ls2),
              "exponent difference equals the coordinate pairing")


def _verify_chiral(n, fmt, text):
    vac = (0,) * n
    if fmt == "json":
        labels = [(tuple(r["l"]), tuple(r["lstar"])) for r in json.loads(text)["sectors"]]
    elif fmt == "csv":
        labels = [(_coords(row[0]), _coords(row[1]))
                  for row in (line.split(",") for line in _table_rows(text, fmt))]
    else:
        labels = [(vac, vac)] if f"l={vac} l*={vac} " in text else []
    check((vac, vac) in labels, "vacuum sector is chiral")


def _series_total(text):
    """Sum of the coefficients of a printed QSeries or BiSeries, whose
    terms read "c*q^e", "q^e" (c = 1) or a bare constant."""
    return sum(1 if bit.startswith("q") else Fraction(bit.split("*")[0])
               for bit in text.strip().split(" + "))


def _verify_character(n, cutoff, order, one, fmt, text):
    counts = colored_partition_counts(n, order)
    if fmt == "text":
        total = _series_total(text)
    else:
        total = sum(Fraction(c) for c in json.loads(text)["series"].values())
    if one:
        check(total == sum(counts), "character coefficients sum")
    else:
        # every box sector contributes (sum of counts)^2 to the total
        check(total == len(_box(n, cutoff)) * sum(counts) ** 2,
              "partition function coefficients sum")


def _verify_tdual(model_path, fmt, text):
    dual = load_model(json.loads(text))
    with open(model_path, encoding="utf-8") as fh:
        original = load_model(json.load(fh))
    check(t_dual(dual) == original, "t_dual involution")


def _lattice_verify(sub, n, cutoff, extra, one, fmt, model_path, res):
    code, text, err = res
    check(code == 0, f"{sub} exit code {code}: {err.strip()}")
    if sub == "spectrum":
        _verify_sectors(n, cutoff, fmt, text)
    elif sub == "states":
        _verify_states(n, cutoff, extra, fmt, text)
    elif sub == "locality":
        _verify_locality(n, cutoff, fmt, text)
    elif sub == "chiral":
        _verify_chiral(n, fmt, text)
    elif sub == "character":
        _verify_character(n, cutoff, extra, one, fmt, text)
    else:
        _verify_tdual(model_path, fmt, text)


def _lattice_render(res):
    return res[1]


def build_lattice_cli(rng, rounds, workdir):
    """One model file per call, so no call can reuse another's work."""
    items = []
    for r in range(rounds):
        for k, (sub, n, cutoff, extra, one) in enumerate(LATTICE_ROUND):
            with_b = sub != "tdual" and (r + k) % 2 == 1   # duality needs B = 0
            path = Path(workdir) / f"model_{len(items):05d}.json"
            path.write_text(json.dumps(inputs.lattice_model_json(rng, n, with_b)),
                            encoding="utf-8")
            fmt = FORMATS[sub][(r + k) % len(FORMATS[sub])]
            argv = [sub, "--model", str(path), "--format", fmt]
            if sub in ("spectrum", "states", "locality", "chiral"):
                argv += ["--cutoff", str(cutoff)]
            if sub == "states":
                argv += ["--level", str(extra)]
            if sub == "character":
                argv += ["--order", str(extra)]
                if one:
                    # "--l=-1,2": a separate "-1,2" would parse as a flag
                    for flag in ("--l", "--lstar"):
                        coords = ",".join(str(rng.randint(-2, 2)) for _ in range(n))
                        argv.append(f"{flag}={coords}")
                else:
                    argv += ["--cutoff", str(cutoff)]
            # sectors the call asks for, and the pairs locality checks
            sectors = 1 if one else 0 if sub == "tdual" else len(_box(n, cutoff))
            pairs = sectors ** 2 if sub == "locality" else 0
            items.append(Item(
                f"cli.{sub}", partial(_cli_call, sub, argv, fmt, sectors, pairs),
                partial(_lattice_verify, sub, n, cutoff, extra, one, fmt, str(path)),
                _lattice_render,
            ))
    return items


# ----------------------------------------------------------------------
# fock_modes
# ----------------------------------------------------------------------

FOCK_LEVEL = {1: 7, 2: 5, 3: 4}

# C: oscillator commutators, V: a Virasoro bracket, Z: central charge;
# the three n=3 Virasoro brackets are the slowest tier and hold the
# 90th percentile
FOCK_ROUND = (
    ("C", 1), ("V", 1), ("C", 2), ("Z", 2), ("V", 3), ("C", 3), ("V", 2),
    ("C", 1), ("Z", 1), ("V", 1), ("C", 2), ("V", 3), ("Z", 3), ("C", 3),
    ("V", 2), ("C", 1), ("Z", 2), ("V", 1), ("C", 2), ("V", 3),
)


def _count_op(tr, op):
    tr.count("fockq.op_nonzeros", sum(len(col) for col in op.table.values()))


def _comm_call(model, n, level, m, k, tr):
    fock = FockTruncation(model, [0] * n, level)
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            with tr.span("fockq.commutator"):
                out[(i, j)] = fock.alpha(i, m).commutator(fock.alpha(j, k))
    if tr.on:
        tr.count("fockq.fock_dim", fock.dim)
        for op in out.values():
            _count_op(tr, op)
    return fock, out


def _comm_verify(model, m, k, res):
    # [a^i_m, a^j_k] = -1/2 g^{ij} m delta_{m,-k} on the guard subspace
    fock, out = res
    guard = fock.vectors_up_to_level(fock.N - abs(m) - abs(k))
    for (i, j), op in out.items():
        coeff = model.g_inv[(i - 1, j - 1)] * S(m) * S(Fraction(-1, 2)) \
            if m + k == 0 else ZERO
        check(op.agrees_on(SparseOp.identity(fock.dim, coeff), guard),
              f"oscillator commutator ({i},{m}) ({j},{k})")


def _vir_call(model, n, level, j, k, tr):
    fock = FockTruncation(model, [0] * n, level)
    with tr.span("fockq.virasoro"):
        lj, lk, ljk = fock.virasoro(j), fock.virasoro(k), fock.virasoro(j + k)
    with tr.span("fockq.commutator"):
        comm = lj.commutator(lk)
    if tr.on:
        tr.count("fockq.fock_dim", fock.dim)
        for op in (lj, lk, ljk, comm):
            _count_op(tr, op)
    return fock, comm, ljk


def _vir_verify(n, j, k, res):
    # [L_j, L_k] = (j-k) L_{j+k} + (n/12)(j^3 - j) delta_{j,-k}
    fock, comm, ljk = res
    central = S(Fraction(n, 12)) * S(j ** 3 - j) if j + k == 0 else ZERO
    want = ljk.scale(S(j - k)) + SparseOp.identity(fock.dim, central)
    guard = fock.vectors_up_to_level(fock.N - abs(j) - abs(k) - 1)
    check(comm.agrees_on(want, guard), f"Virasoro bracket ({j},{k})")


def _central_call(model, tr):
    with tr.span("fockq.central_charge"):
        return central_charge(model, N=3)


def _central_verify(n, c):
    check(c == S(n), "central charge equals the number of bosons")


def _fock_render(res):
    fock, *ops = res
    if isinstance(ops[0], dict):
        ops = [ops[0][key] for key in sorted(ops[0])]
    return ";".join(
        ",".join(f"{col}:{row}:{v}" for col in sorted(op.table)
                 for row, v in sorted(op.table[col].items()))
        for op in ops
    )


def _metric_model(rng, n):
    rows = inputs.metric_rows(rng, n)
    zero = [["0"] * n for _ in range(n)]
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return build_model(n, rows, zero, ident)


def build_fock_modes(rng, rounds, workdir):
    models = {n: [_metric_model(rng, n) for _ in range(POOL)] for n in (1, 2, 3)}
    # a Virasoro item's cost depends mostly on (j, k), so each n runs
    # through all of its admissible pairs in a seeded order
    vir_pairs = {}
    for n, level in FOCK_LEVEL.items():
        pairs = [(j, k) for j in range(-3, 4) for k in range(-3, 4)
                 if abs(j) + abs(k) <= level - 1]
        rng.shuffle(pairs)
        vir_pairs[n] = itertools.cycle(pairs)
    items = []
    for _ in range(rounds):
        for tag, n in FOCK_ROUND:
            model = rng.choice(models[n])
            level = FOCK_LEVEL[n]
            if tag == "C":
                while True:
                    m, k = rng.randint(-level, level), rng.randint(-level, level)
                    if abs(m) + abs(k) <= level:
                        break
                items.append(Item("fock.commutator",
                                  partial(_comm_call, model, n, level, m, k),
                                  partial(_comm_verify, model, m, k), _fock_render))
            elif tag == "V":
                j, k = next(vir_pairs[n])
                items.append(Item("fock.virasoro",
                                  partial(_vir_call, model, n, level, j, k),
                                  partial(_vir_verify, n, j, k), _fock_render))
            else:
                items.append(Item("fock.central_charge", partial(_central_call, model),
                                  partial(_central_verify, n), str))
    return items


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

class Workload:
    """A build function, the number of rounds a run gets, and the fixed item
    count of the traced passes (a whole number of rounds)."""

    def __init__(self, build, rounds, traced_rounds):
        self.build = build
        self.rounds = rounds
        self.traced_rounds = traced_rounds


WORKLOADS = {
    "fm_transform": Workload(build_fm_transform, 40, 3),
    "mode_algebra": Workload(build_mode_algebra, 280, 20),
    "lattice_cli": Workload(build_lattice_cli, 24, 2),
    "fock_modes": Workload(build_fock_modes, 60, 3),
}
