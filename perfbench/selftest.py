"""Self-tests of the benchmark.

    python3 perfbench/selftest.py            # all checks, about four minutes
    python3 perfbench/selftest.py --freeze   # rewrite digests.json

Checks:
  * one round of each workload passes every exact check;
  * one seed gives the same outputs twice, and two seeds different ones;
  * every count metric repeats exactly across two traced runs of a seed;
  * in a directory holding only the benchmark, run.py fails without a result.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_METRICS = run.COUNTS + ("exactlin.fraction_new", "fockq.sectors_built") + tuple(
    f"{layer}.calls" for layer in tracing.LAYERS)

# the layers each workload must leave untouched
UNUSED_LAYERS = {
    "fm_transform": ("jetcalc.calls", "coisson.calls", "fockq.calls"),
    "mode_algebra": ("chiral_fm.calls", "fockq.calls"),
    "lattice_cli": ("jetcalc.calls", "coisson.calls", "chiral_fm.calls"),
    "fock_modes": ("fockq.sectors_built", "cli.calls"),
}


def one_round(name, seed, workdir):
    wl = WORKLOADS[name]
    items = wl.build(inputs.make_rng(name, seed), 1, workdir)
    return worker.run_items(items, deadline=None, tracer=tracing.NULL_TRACER,
                            profiler=None, digest_items=len(items))


def check_minimal_runs():
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench") as tmp:
        for name in WORKLOADS:
            first = one_round(name, 1, tmp)
            assert first["failed"] == 0, (name, first["failures"])
            again = one_round(name, 1, tmp)
            other = one_round(name, 2, tmp)
            assert again["digest"] == first["digest"], f"{name}: seed 1 not reproducible"
            assert other["digest"] != first["digest"], f"{name}: seeds 1 and 2 agree"
            print(f"ok  {name}: one round of {first['attempted']} items passes; "
                  "seeds reproduce and differ")


def traced_metrics(name, seed):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], (name, proc.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_traced_counts():
    for name in WORKLOADS:
        first, second = traced_metrics(name, 3), traced_metrics(name, 3)
        for key in COUNT_METRICS:
            assert first[key] == second[key], (name, key, first[key], second[key])
        for key in UNUSED_LAYERS[name]:
            assert first[key] == 0, (name, key, first[key])
        print(f"ok  {name}: {len(COUNT_METRICS)} counts repeat exactly; "
              f"{', '.join(UNUSED_LAYERS[name])} are 0")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fm_transform",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok  without the sources run.py exits {proc.returncode} and prints no result")


def freeze():
    digests = {}
    for name in WORKLOADS:
        _, res = run.run_pass(name, run.DEFAULT_SEED, "fixed",
                              time.monotonic() + run.RUN_BUDGET_S)
        assert res["failed"] == 0, (name, res["failures"])
        digests[name] = res["digest"]
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args()
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    if args.freeze:
        freeze()
        return 0
    check_minimal_runs()
    check_bare_directory()
    check_traced_counts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
