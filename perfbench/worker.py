"""One benchmark pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

MODE is one of
  setup    build the inputs, then exit
  timed    run items until S seconds have passed (untraced)
  fixed    run the traced item count, untraced
  spans    run the traced item count with spans and counters
  profile  run the traced item count under cProfile

The worker prints "READY <t>" once its inputs are built, t being the
system-wide monotonic clock, and then one JSON line with the result.
`run.py` launches it; it is not meant to be run by hand.
"""

import argparse
import bisect
import cProfile
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MODES = ("setup", "timed", "fixed", "spans", "profile")


# The host this benchmark was written on switches between a fast and a
# slow state that lasts seconds, about 1.5x apart, so raw run medians
# drift by a quarter from run to run.  A timed pass therefore also times a
# fixed Fraction loop at most every CALIBRATE_EVERY_S, and scales each
# item's latency by REFERENCE_CALIBRATION_S over the loop time measured
# around it: latencies read as milliseconds on a host whose loop takes
# REFERENCE_CALIBRATION_S.
CALIBRATE_EVERY_S = 0.1
REFERENCE_CALIBRATION_S = 250e-6


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _calibration_loop():
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(-1) ** i
    return acc


def calibrate():
    """Best of three timings of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def scaled_latencies(spans, samples):
    """Each (start, end) span scaled by the mean of the calibrations
    taken just before it starts and just after it ends."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        before = samples[bisect.bisect_right(times, start) - 1][1]
        after = samples[bisect.bisect_left(times, end)][1]
        out.append((end - start) * REFERENCE_CALIBRATION_S * 2 / (before + after))
    return out


def run_items(items, *, deadline, tracer, profiler, digest_items, calibrated=False):
    """Call, verify and (for the first digest_items) render each item.
    Only `call` is timed; a raise anywhere counts the item as failed."""
    failures, spans, samples = [], [], []
    digest = hashlib.sha256()
    for idx, item in enumerate(items):
        if deadline is not None and idx and time.perf_counter() >= deadline:
            break
        if calibrated and (not samples or time.perf_counter() - samples[-1][0] >= CALIBRATE_EVERY_S):
            samples.append((time.perf_counter(), calibrate()))
        start = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                # the item span is the parent of its entry-call spans
                with tracer.span(f"item.{item.kind}"):
                    res = item.call(tracer)
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception as exc:  # a library error fails the item, not the run
            spans.append((start, time.perf_counter()))
            failures.append(f"item {idx} ({item.kind}): {type(exc).__name__}: {exc}")
            continue
        spans.append((start, time.perf_counter()))
        try:
            item.verify(res)
            if idx < digest_items:
                digest.update(item.render(res).encode())
                digest.update(b"\n")
        except Exception as exc:  # CheckFailed, or a malformed output
            failures.append(f"item {idx} ({item.kind}): {type(exc).__name__}: {exc}")
    result = {
        "attempted": len(spans),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies": [end - start for start, end in spans],
        "digest": digest.hexdigest() if len(spans) >= digest_items else None,
    }
    if calibrated:
        samples.append((time.perf_counter(), calibrate()))
        result["scaled_latencies"] = scaled_latencies(spans, samples)
        result["calibration_s"] = [c for _, c in samples]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    import chiraltorus
    if Path(chiraltorus.__file__).resolve().parent != ROOT / "src" / "chiraltorus":
        sys.exit(f"chiraltorus imported from {chiraltorus.__file__}, not this checkout")
    import inputs
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rounds = wl.rounds if args.mode in ("setup", "timed") else wl.traced_rounds
        items = wl.build(inputs.make_rng(args.workload, args.seed), rounds, workdir)
        digest_items = len(items) // rounds * wl.traced_rounds
        print(f"READY {clock()!r}", flush=True)
        if args.mode == "setup":
            return 0

        tracer = tracing.Tracer() if args.mode == "spans" else tracing.NULL_TRACER
        profiler = cProfile.Profile() if args.mode == "profile" else None
        # the traced passes run their whole (traced_rounds) list
        deadline = time.perf_counter() + args.seconds if args.mode == "timed" else None
        result = run_items(items, deadline=deadline, tracer=tracer, profiler=profiler,
                           digest_items=digest_items, calibrated=args.mode == "timed")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.mode == "spans":
            result["busy"] = tracer.busy()
            result["counts"] = tracer.counts
            spans_out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            spans_out.write_text(json.dumps(tracer.dump()) + "\n")
        if profiler is not None:
            from chiraltorus.fockq import Sector
            result["layers"] = tracing.layer_profile(profiler, Sector.__init__.__code__)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
