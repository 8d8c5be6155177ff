"""Benchmark of nimreg's vdp synthesis-and-certification pipeline.

One workload, one process:

    python3 perfbench/run.py --workload vdp-run --seed 0 --seconds 15 --trace 0

runs whole rounds of the workload until --seconds have passed, checks every
round's outputs, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, from rounds run
with nimreg's public functions wrapped (see tracing.py), alternating with
untraced rounds so that the tracing overhead is measured in the same run.

Without --workload every workload runs, untraced and then traced, each in a
fresh process, and every metric is printed by name and unit.

nimreg is imported from src/ at the root of the same checkout.  BLAS is
pinned to one thread (before numpy loads) so the load is one core's worth.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("vdp-run", "vdp-certify", "vdp-sweep")
SETUP_PROBES = 5

# set-up as users pay it: a fresh interpreter imports nimreg and builds the
# vdp benchmark, whose reference limit cycle is computed on first use
_SETUP_CODE = """
import time
t0 = time.perf_counter()
import nimreg
nimreg.get_benchmark("vdp")
print(repr(time.perf_counter() - t0))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds() -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = None if trace else setup_seconds()
    sys.path.insert(0, str(SRC))
    import nimreg
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    nimreg.get_benchmark("vdp")
    tracer.uninstall()

    walls = {False: [], True: []}
    attempted = failed = 0
    problems = []
    traced_phases = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        if traced:
            tracer.phase = f"round{i}"
            traced_phases.append(tracer.phase)
            tracer.install()
        try:
            rnd = workloads.run_round(name, seed, OUT / name)
        finally:
            tracer.uninstall()
        walls[traced].append(rnd.wall_s)
        attempted += rnd.attempted
        failed += rnd.failed
        problems += [f"round {i}: {p}" for p in rnd.problems]
        print(f"{name} round {i}{' (traced)' if traced else ''}: "
              f"{rnd.wall_s:.3f} s, {rnd.attempted} ops, {rnd.failed} failed",
              file=sys.stderr)
        i += 1
        # traced runs: an untraced warm-up round, then (traced, untraced) pairs
        whole = not trace or (i >= 3 and i % 2 == 1)
        if whole and time.perf_counter() - start >= seconds:
            break

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if trace:
        # the warm-up round pays first-touch costs the traced rounds do not
        metrics = tracer.metrics(traced_phases, walls[True], walls[False][1:])
        tracer.write(OUT / f"{name}-seed{seed}-trace.json",
                     {"workload": name, "seed": seed, "blas_threads": 1,
                      "traced_rounds": traced_phases,
                      "traced_wall_s": walls[True],
                      "untraced_wall_s": walls[False]})
        for target in tracer.missing:
            print(f"missing from nimreg, not traced: {target}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median(walls[False]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exited {done.returncode}")
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy loads here or in any child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "nimreg" / "__init__.py").is_file():
        print(f"error: no nimreg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
