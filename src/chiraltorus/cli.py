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
from dataclasses import dataclass, fields
from functools import cache

from fractions import Fraction

from .exactlin import ChiraltorusError, ExactScalar, RationalMatrix
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
    ko_locality,
    load_model,
    locality_pairs,
    one_dim_model,
    partition_function,
    spectrum_point,
    t_dual,
)


# parse or validation failure: the exit-1 class of the package's errors
CliError = ChiraltorusError

SUBCOMMANDS = (
    "fm",
    "noether",
    "bracket",
    "jacobi",
    "spectrum",
    "states",
    "locality",
    "tdual",
    "chiral",
    "character",
)

FORMATS = ("json", "csv", "text")

# csv is a flat-table format; only the tabular reports support it
CSV_SUBCOMMANDS = ("spectrum", "states", "locality", "chiral")


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one subcommand plus its inputs and knobs."""

    subcommand: str
    model: str | None = None
    mu: str | None = None
    input: str | None = None
    twist: str | None = None
    out: str | None = None
    kind: str = "cdo"
    lagrangian: str = "circle"
    metric: str | None = None
    bfield: str | None = None
    generator: str = "dt"
    exprs: tuple = ()
    l: str | None = None
    lstar: str | None = None
    radius_unit: str | None = None
    cutoff: int = 0
    level: int = 0
    order: int = 0
    format: str = "json"
    sign: str = "-1"

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise CliError(f"unknown subcommand {self.subcommand!r}")
        if self.format not in FORMATS:
            raise CliError(f"--format must be one of {', '.join(FORMATS)}")
        for name in ("cutoff", "level", "order"):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                raise CliError(f"--{name} must be a nonnegative integer")
        if self.kind not in ("cdo", "tdo", "linear"):
            raise CliError("--kind must be cdo, tdo or linear")
        if self.lagrangian not in ("circle", "torus"):
            raise CliError("--lagrangian must be circle or torus")
        try:
            scale = ExactScalar.from_string(self.sign)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"--sign-convention: {exc}") from None
        if scale.is_zero():
            raise CliError("--sign-convention must be nonzero")
        object.__setattr__(self, "exprs", tuple(self.exprs))
        if self.format == "csv" and self.subcommand not in CSV_SUBCOMMANDS:
            raise CliError(
                f"csv output is not available for {self.subcommand!r}"
            )

    @staticmethod
    def from_dict(data) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        extra = sorted(set(data) - known)
        if extra:
            raise CliError(f"unknown configuration keys: {', '.join(extra)}")
        return RunConfig(**data)

    def bracket_scale(self):
        return ExactScalar.from_string(self.sign)


# ----------------------------------------------------------------------
# input handling
# ----------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None


def _load_json(path: str | None):
    """JSON from the file at path, or from stdin when path is None."""
    if path is None:
        source, text = "stdin", sys.stdin.read()
    else:
        source, text = path, _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


@contextmanager
def _source(prefix: str):
    """Name the input a usage error came from; errors with another exit
    code pass through unchanged."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        if getattr(exc, "exit_code", 1) != 1:
            raise
        raise CliError(f"{prefix}: {exc}") from None


def _take(data, key, where):
    if not isinstance(data, dict) or key not in data:
        raise CliError(f"{where}: missing field {key!r}")
    return data[key]


def _expressions(cfg: RunConfig, count: int):
    """Positional expressions, with "-" (or none at all) read from stdin
    one per nonempty line."""
    exprs = list(cfg.exprs)
    if not exprs or "-" in exprs:
        lines = [ln.strip() for ln in sys.stdin.read().splitlines()]
        lines = [ln for ln in lines if ln]
        if not exprs:
            exprs = lines
        else:
            it = iter(lines)
            try:
                exprs = [next(it) if e == "-" else e for e in exprs]
            except StopIteration:
                raise CliError("stdin: not enough expression lines") from None
    if len(exprs) != count:
        raise CliError(
            f"expected {count} expression(s), got {len(exprs)}"
        )
    return exprs


def _density(text: str):
    """An expression in the x/p grammar, or a named mode family such as
    vir+:2 or hamiltonian."""
    head, sep, tail = text.partition(":")
    if head in ("heis+", "heis-", "vir+", "vir-",
                "hamiltonian", "momentum", "winding"):
        mode = 0
        if sep:
            try:
                mode = int(tail)
            except ValueError:
                raise CliError(f"{text!r}: mode must be an integer") from None
        return generator_density(head, mode)
    with _source(f"expression {text!r}"):
        return as_density(text)


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--{flag}: {text!r} is not a rational") from None


def _coords(text: str, what: str):
    return [_rational(piece.strip(), what) for piece in text.split(",")]


def _model_from(cfg: RunConfig):
    if cfg.radius_unit is not None:
        return one_dim_model(_rational(cfg.radius_unit, "radius-unit"))
    if cfg.model is None:
        raise CliError("a model is required: pass --model or --radius-unit")
    data = _load_json(cfg.model)
    with _source(cfg.model):
        return load_model(data)


def _matrix_arg(text: str, flag: str):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"--{flag}: {exc.msg}") from None
    if not isinstance(rows, list):
        raise CliError(f"--{flag}: expected a list of rows")
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


# ----------------------------------------------------------------------
# subcommand runners; each returns the full output string
# ----------------------------------------------------------------------

def run_fm(cfg: RunConfig) -> str:
    if cfg.mu is None:
        raise CliError("fm requires --mu")
    mu_data = _load_json(cfg.mu)
    if isinstance(mu_data, dict):
        mu_rows = _take(mu_data, "mu", cfg.mu)
    else:
        mu_rows = mu_data
    with _source(cfg.mu):
        mu = NondegClass(RationalMatrix.from_json(mu_rows))

    path = None if cfg.input == "-" else cfg.input
    data = _load_json(path)
    with _source(path or "stdin"):
        if cfg.kind == "cdo":
            result = fm_cdo(mu, CdoIsoClass.from_json(data)).to_json()
        elif cfg.kind == "tdo":
            result = fm_tdo(mu, TdoIsoClass.from_json(data)).to_json()
        else:
            result = fm_linear(RationalMatrix.from_json(data)).to_json()

    if cfg.format == "text":
        return dump_text([json.dumps(result, sort_keys=True)])
    return dump_json(result)


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
        raise CliError(f"--generator: index in {name!r} out of range 1..{n}")
    raise CliError(
        f"--generator: unknown generator {name!r} "
        "(dt, ds, x<j>, conformal, anticonformal)"
    )


def run_noether(cfg: RunConfig) -> str:
    if cfg.lagrangian == "circle":
        L = boson_circle_lagrangian()
        n = 1
    else:
        if cfg.metric is None:
            raise CliError("--lagrangian torus requires --metric")
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


def run_bracket(cfg: RunConfig) -> str:
    a_text, b_text = _expressions(cfg, 2)
    table = BracketTable(scale=cfg.bracket_scale())
    result = fourier_bracket(_density(a_text), _density(b_text), table)
    rep = poly_str(result.rep, style="xp")
    if cfg.format == "text":
        return dump_text([f"[{rep}]"])
    return dump_json({"bracket": rep, "is_zero": result.is_zero()})


def _twist_table(path: str):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(f"{path}: twist table must be an object")
    twist = {}
    for key, val in data.items():
        parts = [p.strip() for p in key.split(",")]
        try:
            trip = tuple(int(p) for p in parts)
        except ValueError:
            raise CliError(
                f"{path}: twist key {key!r} is not an index triple"
            ) from None
        if len(trip) != 3:
            raise CliError(f"{path}: twist key {key!r} is not a triple")
        if not isinstance(val, str):
            raise CliError(f"{path}: twist value for {key!r} must be a string")
        twist[trip] = val
    return twist


def run_jacobi(cfg: RunConfig) -> str:
    twist = _twist_table(cfg.twist) if cfg.twist is not None else None
    a_text, b_text, c_text = _expressions(cfg, 3)
    with _source("--twist"):
        table = BracketTable(scale=cfg.bracket_scale(), twist=twist)
    residual = jacobi_residual(
        table, _density(a_text), _density(b_text), _density(c_text)
    )
    rep = poly_str(residual.rep, style="xp")
    if cfg.format == "text":
        return dump_text([f"[{rep}]"])
    return dump_json({"residual": rep, "is_zero": residual.is_zero()})


def run_spectrum(cfg: RunConfig) -> str:
    model = _model_from(cfg)
    rows = []
    for s in enumerate_sectors(model, cfg.cutoff):
        p_plus, p_minus = spectrum_point(model, s.l_coords, s.lstar_coords)
        rows.append({
            "l": list(s.l_coords),
            "lstar": list(s.lstar_coords),
            "p_plus": [str(x) for x in p_plus],
            "p_minus": [str(x) for x in p_minus],
        })
    if cfg.format == "csv":
        header = ["l", "lstar", "p_plus", "p_minus"]
        table = [
            [
                " ".join(str(x) for x in r["l"]),
                " ".join(str(x) for x in r["lstar"]),
                "; ".join(r["p_plus"]),
                "; ".join(r["p_minus"]),
            ]
            for r in rows
        ]
        return dump_csv(header, table)
    if cfg.format == "text":
        lines = []
        for r in rows:
            lines.append(
                f"l={tuple(r['l'])} l*={tuple(r['lstar'])}  "
                f"p+=({', '.join(r['p_plus'])})  "
                f"p-=({', '.join(r['p_minus'])})"
            )
        return dump_text(lines)
    return dump_json({"cutoff": cfg.cutoff, "sectors": rows})


def run_states(cfg: RunConfig) -> str:
    model = _model_from(cfg)
    sectors = enumerate_sectors(model, cfg.cutoff)
    counts = colored_partition_counts(model.n, cfg.level)
    if cfg.format == "csv":
        header = ["l", "lstar", "a_plus", "a_minus", "h", "hbar"]
        table = [
            [
                " ".join(str(x) for x in s.l_coords),
                " ".join(str(x) for x in s.lstar_coords),
                "; ".join(str(x) for x in s.a_plus),
                "; ".join(str(x) for x in s.a_minus),
                str(s.h),
                str(s.hbar),
            ]
            for s in sectors
        ]
        return dump_csv(header, table)
    if cfg.format == "text":
        lines = [f"oscillator level counts: {counts}"]
        for s in sectors:
            lines.append(
                f"l={tuple(s.l_coords)} l*={tuple(s.lstar_coords)}  "
                f"h={s.h}  hbar={s.hbar}"
            )
        return dump_text(lines)
    return dump_json({
        "cutoff": cfg.cutoff,
        "level_counts": counts,
        "sectors": [s.to_json() for s in sectors],
    })


def run_locality(cfg: RunConfig) -> str:
    model = _model_from(cfg)
    if cfg.format == "text":
        # the summary needs only the count and the verdict: stream the pairs
        count = integral = 0
        for *_, diff in locality_pairs(model, cfg.cutoff):
            count, integral = count + 1, integral + diff.is_integer()
        verdict = "yes" if integral == count else "no"
        return dump_text([
            f"cutoff: {cfg.cutoff}",
            f"pairs checked: {count}",
            f"all exponent differences integral: {verdict}",
        ])
    report = ko_locality(model, cfg.cutoff)
    if cfg.format == "csv":
        header = [
            "l1", "lstar1", "l2", "lstar2",
            "hol", "antihol", "difference", "integral",
        ]
        table = [
            [
                " ".join(str(x) for x in p["l1"]),
                " ".join(str(x) for x in p["lstar1"]),
                " ".join(str(x) for x in p["l2"]),
                " ".join(str(x) for x in p["lstar2"]),
                p["hol"], p["antihol"], p["difference"],
                "yes" if p["integral"] else "no",
            ]
            for p in report["pairs"]
        ]
        return dump_csv(header, table)
    return dump_json(report)


def run_tdual(cfg: RunConfig) -> str:
    model = _model_from(cfg)
    dual = t_dual(model)
    out = dual.to_json()
    if cfg.format == "text":
        return dump_text([json.dumps(out, sort_keys=True)])
    return dump_json(out)


def run_chiral(cfg: RunConfig) -> str:
    model = _model_from(cfg)
    found = chiral_sectors(model, cfg.cutoff)
    rows = [
        {
            "l": list(s.l_coords),
            "lstar": list(s.lstar_coords),
            "a_plus": [str(x) for x in s.a_plus],
            "h": str(s.h),
        }
        for s in found
    ]
    if cfg.format == "csv":
        header = ["l", "lstar", "a_plus", "h"]
        table = [
            [
                " ".join(str(x) for x in r["l"]),
                " ".join(str(x) for x in r["lstar"]),
                "; ".join(r["a_plus"]),
                r["h"],
            ]
            for r in rows
        ]
        return dump_csv(header, table)
    if cfg.format == "text":
        lines = [
            f"l={tuple(r['l'])} l*={tuple(r['lstar'])}  "
            f"a+=({', '.join(r['a_plus'])})  h={r['h']}"
            for r in rows
        ]
        return dump_text(lines)
    return dump_json({"cutoff": cfg.cutoff, "sectors": rows})


def run_character(cfg: RunConfig) -> str:
    model = _model_from(cfg)
    if cfg.l is not None or cfg.lstar is not None:
        l_coords = _coords(cfg.l, "l") if cfg.l is not None else [0] * model.n
        lstar_coords = (
            _coords(cfg.lstar, "lstar")
            if cfg.lstar is not None else [0] * model.n
        )
        sector = model.sector(l_coords, lstar_coords)
        series = character(model, sector, cfg.order)
        payload = {
            "kind": "character",
            "l": [str(x) for x in l_coords],
            "lstar": [str(x) for x in lstar_coords],
            "order": cfg.order,
            "series": series.to_json(),
        }
        if cfg.format == "text":
            return dump_text([str(series)])
        return dump_json(payload)
    series = partition_function(model, cfg.cutoff, cfg.order)
    payload = {
        "kind": "partition_function",
        "cutoff": cfg.cutoff,
        "order": cfg.order,
        "series": series.to_json(),
    }
    if cfg.format == "text":
        return dump_text([str(series)])
    return dump_json(payload)


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
    # argparse exits with status 2 on bad flags; route through CliError
    # so that parse failures uniformly report status 1
    def error(self, message):
        raise CliError(message)


def _add_common(sub, *, model=False, cutoff=False, level=False,
                order=False, sign=False):
    sub.add_argument("--format", default="json")
    sub.add_argument("--out", default=None)
    if model:
        sub.add_argument("--model", default=None)
        sub.add_argument("--radius-unit", default=None, dest="radius_unit")
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
    parser = _Parser(prog="chiraltorus", add_help=True)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    fm = subs.add_parser("fm", help="Fourier-Mukai transform on classes")
    fm.add_argument("--kind", default="cdo")
    fm.add_argument("--mu", default=None)
    fm.add_argument("--input", default=None)
    _add_common(fm)

    no = subs.add_parser("noether", help="Noether current of a symmetry")
    no.add_argument("--lagrangian", default="circle")
    no.add_argument("--metric", default=None)
    no.add_argument("--bfield", default=None)
    no.add_argument("--generator", default="dt")
    _add_common(no)

    br = subs.add_parser("bracket", help="bracket of two Fourier classes")
    br.add_argument("exprs", nargs="*", default=[])
    _add_common(br, sign=True)

    ja = subs.add_parser("jacobi", help="cyclic Jacobi residual")
    ja.add_argument("exprs", nargs="*", default=[])
    ja.add_argument("--twist", default=None)
    _add_common(ja, sign=True)

    for name, want_level in (
        ("spectrum", False),
        ("states", True),
        ("locality", False),
        ("chiral", False),
    ):
        sub = subs.add_parser(name)
        _add_common(sub, model=True, cutoff=True, level=want_level)

    td = subs.add_parser("tdual", help="dual torus model")
    _add_common(td, model=True)

    ch = subs.add_parser("character", help="graded character or partition function")
    ch.add_argument("--l", default=None, dest="l")
    ch.add_argument("--lstar", default=None, dest="lstar")
    _add_common(ch, model=True, cutoff=True, order=True)

    return parser


def config_from_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    # flags a subcommand does not define are simply absent, and
    # None-valued optionals fall back to the RunConfig defaults
    data = {k: v for k, v in vars(ns).items() if v is not None}
    if "exprs" in data:
        data["exprs"] = tuple(data["exprs"])
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(
            list(sys.argv[1:]) if argv is None else list(argv)
        )
        output = RUNNERS[cfg.subcommand](cfg)
        if cfg.out is None:
            sys.stdout.write(output)
        else:
            try:
                with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(output)
            except OSError as exc:
                raise CliError(
                    f"{cfg.out}: {exc.strerror or exc}"
                ) from None
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
