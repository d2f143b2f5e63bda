"""Benchmark entry point for chiraltorus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (perfbench/worker.py), one at a
time, so process-lifetime state starts cold as it does for a user's
script or CLI call.

--trace 0 makes six set-up-only passes and one timed pass, and reports
the end-to-end metrics.  --trace 1 makes three passes over the same
fixed item count (untraced, with spans, under cProfile) and reports the
per-layer metrics.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics; the line before it
records the run's environment.  The exit code is 0 only when every item
passed its exact check.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

WORKLOAD_NAMES = ("fm_transform", "mode_algebra", "lattice_cli", "fock_modes")
DEFAULT_SEED = 0
SETUP_PASSES = 6
# every pass of a run must end within this many seconds of its start
RUN_BUDGET_S = 170
BUSY_SPANS = (
    "chiral_fm.fm_cdo", "chiral_fm.fm_tdo", "chiral_fm.fm_linear",
    "jetcalc.noether", "coisson.fourier_bracket", "coisson.jacobi_residual",
    "fockq.virasoro", "fockq.commutator", "fockq.central_charge",
    "cli.locality", "cli.spectrum", "cli.states", "cli.chiral",
    "cli.character", "cli.tdual",
)
COUNTS = ("chiral_fm.tensor_entries", "coisson.result_terms", "fockq.sector_pairs",
          "fockq.fock_dim", "fockq.op_nonzeros", "cli.bytes_out")


class PassFailed(Exception):
    pass


def run_pass(workload, seed, mode, deadline, seconds=0.0):
    """Launch one worker that must end by the monotonic deadline;
    return (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    # a fixed hash seed makes set and dict orders, and so the call
    # counts of the traced passes, repeat exactly
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{mode} pass ran past the {RUN_BUDGET_S} s budget") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - start
    result = json.loads(lines[-1]) if mode != "setup" else None
    return setup_s, result


def source_digest():
    """The checkout is not a git repository, so the measured code is
    identified by a digest of its sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline):
    setups = [run_pass(workload, seed, "setup", deadline)[0] for _ in range(SETUP_PASSES)]
    setup_s, res = run_pass(workload, seed, "timed", deadline, seconds)
    setups.append(setup_s)
    ok = res["attempted"] - res["failed"]

    def timing(lat):
        return {
            "items_per_s": metric(ok / sum(lat), "1/s"),
            "item_ms_p50": metric(statistics.median(lat) * 1000, "ms"),
            "item_ms_p90": metric(statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        }

    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        **timing(res["scaled_latencies"]),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    # unscaled wall-clock figures, for the record line
    res["raw"] = {k: v["value"] for k, v in timing(res["latencies"]).items()}
    res["raw"]["calibration_us_median"] = statistics.median(res["calibration_s"]) * 1e6
    return [res], metrics


def per_layer(workload, seed, deadline):
    _, plain = run_pass(workload, seed, "fixed", deadline)
    _, spans = run_pass(workload, seed, "spans", deadline)
    _, prof = run_pass(workload, seed, "profile", deadline)
    counts, busy = spans["counts"], spans["busy"]

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    metrics = {}
    for name, value in prof["layers"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = metric(value, unit)
    for name in BUSY_SPANS:
        metrics[f"{name}.busy_s"] = metric(busy.get(name, 0.0), "s")
    for name in COUNTS:
        metrics[name] = metric(counts.get(name, 0), "count")
    built = prof["layers"]["fockq.sectors_built"]
    yield_ = counts.get("fockq.sectors_requested", 0) / built if built else 0.0
    metrics["fockq.sector_yield"] = metric(yield_, "ratio")
    metrics["fockq.chiral_ratio"] = metric(ratio("fockq.chiral_found", "fockq.chiral_scanned"), "ratio")
    metrics["coisson.zero_ratio"] = metric(ratio("coisson.zero_brackets", "coisson.brackets"), "ratio")
    metrics["trace_overhead"] = metric(sum(prof["latencies"]) / sum(plain["latencies"]), "ratio")
    attempted = plain["attempted"]
    metrics["fail_frac"] = metric(plain["failed"] / attempted, "ratio")
    digests = {p["digest"] for p in (plain, spans, prof)}
    if len(digests) != 1:
        plain["failures"].append("traced passes rendered different outputs")
        plain["failed"] += 1
    return [plain, spans, prof], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chiraltorus" / "__init__.py").is_file():
        print(f"error: no chiraltorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            passes, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except PassFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.seed == DEFAULT_SEED:
        want = json.loads(DIGESTS.read_text())[args.workload]
        got = passes[0]["digest"]
        if got is not None and got != want:
            failed += 1
            failures.append(f"output digest {got} differs from the frozen {want}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "source": source_digest(), "hashseed": 0,
        "unscaled": passes[0].get("raw"),
    }}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
