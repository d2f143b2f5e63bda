"""Command line front end.

One binary, subcommand dispatch, no interactive mode.  Output is
byte-deterministic for fixed inputs: JSON is emitted with sorted keys
and a fixed indent, CSV with a fixed field order and "\n" line ends.

Exit codes: 0 success, 1 parse or validation error (with the offending
source named), 2 mathematical precondition violation (singular matrix,
generator that is not a symmetry, lattice and truncation errors), 3 a
failed internal invariant (a library bug).  The code is carried by the
exception class: every package error is a ChiraltorusError whose
exit_code main reports.
"""

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from functools import cache

from fractions import Fraction

from .exactlin import ChiraltorusError, ExactScalar, RationalMatrix, exact_fraction
from .chiral_fm import (
    CdoIsoClass,
    NondegClass,
    TdoIsoClass,
    fm_cdo,
    fm_linear,
    fm_tdo,
)
from .jetcalc import (
    boson_circle_lagrangian,
    gen_conformal,
    gen_sigma,
    gen_tau,
    gen_translation,
    noether,
    poly_str,
    torus_lagrangian,
)
from .coisson import (
    FAMILIES,
    BracketTable,
    as_density,
    fourier_bracket,
    generator_density,
    jacobi_residual,
)
from .fockq import (
    character,
    chiral_sectors,
    colored_partition_counts,
    enumerate_sectors,
    load_model,
    locality_rows,
    one_dim_model,
    partition_function,
    t_dual,
)


FORMATS = ("json", "csv", "text")

# csv is a flat-table format; only the tabular reports support it
CSV_SUBCOMMANDS = ("spectrum", "states", "locality", "chiral")


# ----------------------------------------------------------------------
# input handling
# ----------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ChiraltorusError(f"{path}: {exc.strerror or exc}") from None


def _load_json(path: str | None):
    """JSON from the file at path, or from stdin when path is None."""
    if path is None:
        source, text = "stdin", sys.stdin.read()
    else:
        source, text = path, _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChiraltorusError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ChiraltorusError(f"{source}: nesting is too deep") from None


@contextmanager
def _source(prefix: str):
    """Name the input a usage error came from, a KeyError as the field
    it misses; errors with another exit code pass through unchanged."""
    try:
        yield
    except KeyError as exc:
        raise ChiraltorusError(f"{prefix}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        if getattr(exc, "exit_code", 1) != 1:
            raise
        raise ChiraltorusError(f"{prefix}: {exc}") from None


def _expressions(cfg: argparse.Namespace, count: int):
    """Positional expressions, with "-" (or none at all) read from stdin
    one per nonempty line; every stdin line left unread counts toward
    the total."""
    exprs = list(cfg.exprs)
    if not exprs or "-" in exprs:
        lines = [ln.strip() for ln in sys.stdin.read().splitlines()]
        it = iter([ln for ln in lines if ln])
        try:
            exprs = [next(it) if e == "-" else e for e in exprs]
        except StopIteration:
            raise ChiraltorusError("stdin: not enough expression lines") from None
        exprs += it
    if len(exprs) != count:
        raise ChiraltorusError(
            f"expected {count} expression(s), got {len(exprs)}"
        )
    return exprs


def _density(text: str):
    """An expression in the x/p grammar, or a named mode family such as
    vir+:2 or hamiltonian."""
    head, sep, tail = text.partition(":")
    if head in FAMILIES:
        mode = 0
        if sep:
            try:
                mode = int(tail)
            except ValueError:
                raise ChiraltorusError(f"{text!r}: mode must be an integer") from None
        return generator_density(head, mode)
    with _source(f"expression {text!r}"):
        return as_density(text)


def _rational(text: str, flag: str) -> Fraction:
    try:
        return exact_fraction(text, flag)
    except ChiraltorusError:
        raise ChiraltorusError(f"--{flag}: {text!r} is not a rational") from None


def _coords(text: str, what: str):
    return [_rational(piece, what) for piece in text.split(",")]


def _model_from(cfg: argparse.Namespace):
    if cfg.radius_unit is not None:
        return one_dim_model(_rational(cfg.radius_unit, "radius-unit"))
    if cfg.model is None:
        raise ChiraltorusError("a model is required: pass --model or --radius-unit")
    data = _load_json(cfg.model)
    with _source(cfg.model):
        return load_model(data)


def _matrix_arg(text: str, flag: str):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChiraltorusError(f"--{flag}: {exc.msg}") from None
    except RecursionError:
        raise ChiraltorusError(f"--{flag}: nesting is too deep") from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ChiraltorusError(f"--{flag}: expected a list of rows")
    return rows


# ----------------------------------------------------------------------
# output rendering
# ----------------------------------------------------------------------

def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def dump_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _object_report(fmt: str, obj) -> str:
    """A JSON object: one sorted-key line for text, else indented."""
    if fmt == "text":
        return dump_text([json.dumps(obj, sort_keys=True)])
    return dump_json(obj)


def _class_report(fmt: str, key: str, cls) -> str:
    """A FourierClass: its printed class for text, else {key: rep, is_zero}."""
    if fmt == "text":
        return dump_text([str(cls)])
    return dump_json({key: poly_str(cls.rep, style="xp"), "is_zero": cls.is_zero()})


# ----------------------------------------------------------------------
# subcommand runners; each returns the full output string
# ----------------------------------------------------------------------

def run_fm(cfg: argparse.Namespace) -> str:
    if cfg.mu is None:
        raise ChiraltorusError("fm requires --mu")
    mu_data = _load_json(cfg.mu)
    with _source(cfg.mu):
        rows = mu_data["mu"] if isinstance(mu_data, dict) else mu_data
        mu = NondegClass(RationalMatrix.from_json(rows))

    path = None if cfg.input == "-" else cfg.input
    data = _load_json(path)
    with _source(path or "stdin"):
        if cfg.kind == "cdo":
            result = fm_cdo(mu, CdoIsoClass.from_json(data)).to_json()
        elif cfg.kind == "tdo":
            result = fm_tdo(mu, TdoIsoClass.from_json(data)).to_json()
        else:
            result = fm_linear(RationalMatrix.from_json(data)).to_json()
    return _object_report(cfg.format, result)


def _build_generator(name: str, n: int):
    if name == "dt":
        return gen_tau(n)
    if name == "ds":
        return gen_sigma(n)
    if name == "conformal":
        return gen_conformal(n)
    if name == "anticonformal":
        return gen_conformal(n, holomorphic=False)
    if name.startswith("x"):
        try:
            j = int(name[1:])
        except ValueError:
            j = 0
        if 1 <= j <= n:
            return gen_translation(n, j)
        raise ChiraltorusError(f"--generator: index in {name!r} out of range 1..{n}")
    raise ChiraltorusError(
        f"--generator: unknown generator {name!r} "
        "(dt, ds, x<j>, conformal, anticonformal)"
    )


def run_noether(cfg: argparse.Namespace) -> str:
    if cfg.lagrangian == "circle":
        L = boson_circle_lagrangian()
        n = 1
    else:
        if cfg.metric is None:
            raise ChiraltorusError("--lagrangian torus requires --metric")
        g_rows = _matrix_arg(cfg.metric, "metric")
        b_rows = None
        if cfg.bfield is not None:
            b_rows = _matrix_arg(cfg.bfield, "bfield")
        with _source("--metric/--bfield"):
            L = torus_lagrangian(g_rows, b_rows)
        n = L.n
    field = _build_generator(cfg.generator, n)
    current = noether(L, field)
    dt_part = poly_str(current.component((), ("t",)))
    ds_part = poly_str(current.component((), ("s",)))
    if cfg.format == "text":
        return dump_text([
            f"current dt: {dt_part}",
            f"current ds: {ds_part}",
            f"charge integrand: {ds_part}",
        ])
    return dump_json({
        "lagrangian": cfg.lagrangian,
        "generator": cfg.generator,
        "current": {"dt": dt_part, "ds": ds_part},
        "charge_integrand": ds_part,
    })


def run_bracket(cfg: argparse.Namespace) -> str:
    a_text, b_text = _expressions(cfg, 2)
    table = BracketTable(scale=cfg.scale)
    return _class_report(cfg.format, "bracket",
                         fourier_bracket(_density(a_text), _density(b_text), table))


def _twist_table(path: str):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ChiraltorusError(f"{path}: twist table must be an object")
    twist = {}
    for key, val in data.items():
        parts = [p.strip() for p in key.split(",")]
        try:
            trip = tuple(int(p) for p in parts)
        except ValueError:
            raise ChiraltorusError(
                f"{path}: twist key {key!r} is not an index triple"
            ) from None
        if len(trip) != 3:
            raise ChiraltorusError(f"{path}: twist key {key!r} is not a triple")
        if not isinstance(val, str):
            raise ChiraltorusError(f"{path}: twist value for {key!r} must be a string")
        twist[trip] = val
    return twist


def run_jacobi(cfg: argparse.Namespace) -> str:
    twist = _twist_table(cfg.twist) if cfg.twist is not None else None
    a_text, b_text, c_text = _expressions(cfg, 3)
    with _source("--twist"):
        table = BracketTable(scale=cfg.scale, twist=twist)
    return _class_report(cfg.format, "residual", jacobi_residual(
        table, _density(a_text), _density(b_text), _density(c_text)))


def _join(values, sep=", ") -> str:
    return sep.join(map(str, values))


def _label(s) -> str:
    return f"l={s.l_coords} l*={s.lstar_coords}"


def run_spectrum(cfg: argparse.Namespace) -> str:
    model = _model_from(cfg)
    points = [(s, s.p_plus, s.p_minus) for s in enumerate_sectors(model, cfg.cutoff)]
    if cfg.format == "csv":
        return dump_csv(["l", "lstar", "p_plus", "p_minus"], (
            [_join(s.l_coords, " "), _join(s.lstar_coords, " "),
             _join(p_plus, "; "), _join(p_minus, "; ")]
            for s, p_plus, p_minus in points))
    if cfg.format == "text":
        return dump_text(
            f"{_label(s)}  p+=({_join(p_plus)})  p-=({_join(p_minus)})"
            for s, p_plus, p_minus in points)
    return dump_json({"cutoff": cfg.cutoff, "sectors": [
        {"l": list(s.l_coords), "lstar": list(s.lstar_coords),
         "p_plus": list(map(str, p_plus)), "p_minus": list(map(str, p_minus))}
        for s, p_plus, p_minus in points]})


def run_states(cfg: argparse.Namespace) -> str:
    model = _model_from(cfg)
    sectors = enumerate_sectors(model, cfg.cutoff)
    counts = colored_partition_counts(model.n, cfg.level)
    if cfg.format == "csv":
        return dump_csv(["l", "lstar", "a_plus", "a_minus", "h", "hbar"], (
            [_join(s.l_coords, " "), _join(s.lstar_coords, " "),
             _join(s.a_plus, "; "), _join(s.a_minus, "; "), str(s.h), str(s.hbar)]
            for s in sectors))
    if cfg.format == "text":
        return dump_text([f"oscillator level counts: {counts}"] + [
            f"{_label(s)}  h={s.h}  hbar={s.hbar}" for s in sectors])
    return dump_json({
        "cutoff": cfg.cutoff,
        "level_counts": counts,
        "sectors": [s.to_json() for s in sectors],
    })


# one row template per format over the cells l1, lstar1, l2, lstar2 (a
# sector's coordinates joined by the format's separator), hol, antihol and
# the difference, ASCII that neither csv.writer nor json.dumps escapes; the
# json row is a ko_locality pair under json.dumps(sort_keys=True, indent=2)
_LOCALITY_JSON = (
    '    {{\n      "antihol": "{5}",\n      "difference": "{6}",\n      "hol": "{4}",\n'
    '      "integral": true,\n      "l1": [\n        {0}\n      ],\n'
    '      "l2": [\n        {2}\n      ],\n      "lstar1": [\n        {1}\n      ],\n'
    '      "lstar2": [\n        {3}\n      ]\n    }}')
_LOCALITY_CSV = "{0},{1},{2},{3},{4},{5},{6},yes\n"


def _locality_rows(model, cutoff, sep, row):
    """The row template filled for every locality pair, each sector's cells joined once."""
    return [row.format(*c1, *c2, hol, antihol, diff)
            for c1, c2, hol, antihol, diff in locality_rows(
                model, cutoff, lambda s: (_join(s.l_coords, sep), _join(s.lstar_coords, sep)))]


def run_locality(cfg: argparse.Namespace) -> str:
    model = _model_from(cfg)
    if cfg.format == "json":
        rows = _locality_rows(model, cfg.cutoff, ",\n        ", _LOCALITY_JSON)
        return ('{\n  "all_integral": true,\n  "cutoff": %d,\n  "pairs": [\n%s\n  ]\n}\n'
                % (cfg.cutoff, ",\n".join(rows)))
    if cfg.format == "csv":
        rows = _locality_rows(model, cfg.cutoff, " ", _LOCALITY_CSV)
        return "l1,lstar1,l2,lstar2,hol,antihol,difference,integral\n" + "".join(rows)
    # the certificate decides every pair of the (2c+1)^{2n}-sector box
    model.certify_locality()
    return dump_text([
        f"cutoff: {cfg.cutoff}",
        f"pairs checked: {(2 * cfg.cutoff + 1) ** (4 * model.n)}",
        "all exponent differences integral: yes",
    ])


def run_tdual(cfg: argparse.Namespace) -> str:
    return _object_report(cfg.format, t_dual(_model_from(cfg)).to_json())


def run_chiral(cfg: argparse.Namespace) -> str:
    model = _model_from(cfg)
    found = chiral_sectors(model, cfg.cutoff)
    if cfg.format == "csv":
        return dump_csv(["l", "lstar", "a_plus", "h"], (
            [_join(s.l_coords, " "), _join(s.lstar_coords, " "),
             _join(s.a_plus, "; "), str(s.h)]
            for s in found))
    if cfg.format == "text":
        return dump_text(
            f"{_label(s)}  a+=({_join(s.a_plus)})  h={s.h}" for s in found)
    return dump_json({"cutoff": cfg.cutoff, "sectors": [
        {"l": list(s.l_coords), "lstar": list(s.lstar_coords),
         "a_plus": list(map(str, s.a_plus)), "h": str(s.h)}
        for s in found]})


def run_character(cfg: argparse.Namespace) -> str:
    model = _model_from(cfg)
    if cfg.l is not None or cfg.lstar is not None:
        zero = [0] * model.n
        l_coords = _coords(cfg.l, "l") if cfg.l is not None else zero
        lstar_coords = _coords(cfg.lstar, "lstar") if cfg.lstar is not None else zero
        series = character(model, model.sector(l_coords, lstar_coords), cfg.order)
        payload = {"kind": "character", "l": list(map(str, l_coords)),
                   "lstar": list(map(str, lstar_coords))}
    else:
        series = partition_function(model, cfg.cutoff, cfg.order)
        payload = {"kind": "partition_function", "cutoff": cfg.cutoff}
    if cfg.format == "text":
        return dump_text([str(series)])
    return dump_json({**payload, "order": cfg.order, "series": series.to_json()})


RUNNERS = {
    "fm": run_fm,
    "noether": run_noether,
    "bracket": run_bracket,
    "jacobi": run_jacobi,
    "spectrum": run_spectrum,
    "states": run_states,
    "locality": run_locality,
    "tdual": run_tdual,
    "chiral": run_chiral,
    "character": run_character,
}


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ChiraltorusError
    # so that parse failures uniformly report status 1
    def error(self, message):
        raise ChiraltorusError(message)


def _add_common(sub, *, model=False, cutoff=False, level=False,
                order=False, sign=False):
    sub.add_argument("--format", default="json")
    sub.add_argument("--out")
    if model:
        sub.add_argument("--model")
        sub.add_argument("--radius-unit")
    if cutoff:
        sub.add_argument("--cutoff", type=int, default=0)
    if level:
        sub.add_argument("--level", type=int, default=0)
    if order:
        sub.add_argument("--order", type=int, default=0)
    if sign:
        sub.add_argument("--sign-convention", default="-1", dest="sign")


@cache
def build_parser() -> _Parser:
    """The command line's one schema: every flag and its default."""
    parser = _Parser(prog="chiraltorus", add_help=True)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    fm = subs.add_parser("fm", help="Fourier-Mukai transform on classes")
    fm.add_argument("--kind", default="cdo")
    fm.add_argument("--mu")
    fm.add_argument("--input")
    _add_common(fm)

    no = subs.add_parser("noether", help="Noether current of a symmetry")
    no.add_argument("--lagrangian", default="circle")
    no.add_argument("--metric")
    no.add_argument("--bfield")
    no.add_argument("--generator", default="dt")
    _add_common(no)

    br = subs.add_parser("bracket", help="bracket of two Fourier classes")
    br.add_argument("exprs", nargs="*")
    _add_common(br, sign=True)

    ja = subs.add_parser("jacobi", help="cyclic Jacobi residual")
    ja.add_argument("exprs", nargs="*")
    ja.add_argument("--twist")
    _add_common(ja, sign=True)

    for name in ("spectrum", "states", "locality", "chiral"):
        sub = subs.add_parser(name)
        _add_common(sub, model=True, cutoff=True, level=name == "states")

    td = subs.add_parser("tdual", help="dual torus model")
    _add_common(td, model=True)

    ch = subs.add_parser("character", help="graded character or partition function")
    ch.add_argument("--l")
    ch.add_argument("--lstar")
    _add_common(ch, model=True, cutoff=True, order=True)

    return parser


def _check(args: argparse.Namespace) -> None:
    """Refuse a parsed invocation before any runner reads input; parses
    --sign-convention into args.scale."""
    if args.format not in FORMATS:
        raise ChiraltorusError(f"--format must be one of {', '.join(FORMATS)}")
    for name in ("cutoff", "level", "order"):
        if getattr(args, name, 0) < 0:
            raise ChiraltorusError(f"--{name} must be a nonnegative integer")
    if getattr(args, "kind", "cdo") not in ("cdo", "tdo", "linear"):
        raise ChiraltorusError("--kind must be cdo, tdo or linear")
    if getattr(args, "lagrangian", "circle") not in ("circle", "torus"):
        raise ChiraltorusError("--lagrangian must be circle or torus")
    if hasattr(args, "sign"):
        try:
            args.scale = ExactScalar.from_string(args.sign)
        except ValueError as exc:
            raise ChiraltorusError(f"--sign-convention: {exc}") from None
        if args.scale.is_zero():
            raise ChiraltorusError("--sign-convention must be nonzero")
    if args.format == "csv" and args.subcommand not in CSV_SUBCOMMANDS:
        raise ChiraltorusError(f"csv output is not available for {args.subcommand!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check(args)
        output = RUNNERS[args.subcommand](args)
        if args.out is None:
            sys.stdout.write(output)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(output)
            except OSError as exc:
                raise ChiraltorusError(f"{args.out}: {exc.strerror or exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
