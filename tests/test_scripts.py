"""The committed scripts run on the package as it stands, and the
benchmark's tracer still finds every function it wraps but the one the
package has dropped.

A tracer target that is moved or renamed reads 0 in every per-layer metric
with no warning, so signature changes are checked here, not in a benchmark
run."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gain_sweep_reruns_the_kappa_probe():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "gain_sweep.py"), "harmonic"],
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rate = re.search(r"rate at kappa\* = (\S+)\)", done.stdout).group(1)
    # the first row is the kappa* multiplier; its alpha is the search's rate
    row_alpha = re.search(r"^kappa = +\S+  alpha = (\S+)", done.stdout, re.M).group(1)
    assert row_alpha == rate, done.stdout


def test_step_cost_prints_every_field_with_a_hash():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "step_cost.py"),
                           "--steps", "20", "--repeats", "1"],
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    # 3 fields at 4 widths on rk4, and the closed loop on dopri5
    assert len(rows) == 13, done.stdout
    assert [row[-4:-2] for row in rows[-2:]] == [["rk4", "50"], ["dopri5", "4"]]
    for row in rows:
        assert float(row[-2]) > 0.0 and re.fullmatch(r"[0-9a-f]{16}", row[-1]), row


def test_benchmark_tracer_finds_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # fields are bound to the integrators' stage buffers now, so the
        # array right-hand side the tracer counts is gone: its dynsys.rhs.*
        # metrics read 0 until the tracer is refreshed (scripts/step_cost.py
        # measures the per-step cost meanwhile); every other target is found
        assert tracer.missing == ["dynsys.as_array_rhs"]
    finally:
        tracer.uninstall()
