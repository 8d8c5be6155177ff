"""The three vdp workloads: what one round runs, and the checks on its outputs.

A round is timed from its first call into nimreg until its outputs are
written; the checks run afterwards and are not timed.  Every check compares
against a value computed here with numpy, or against a property the method
must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nimreg
import nimreg.cli

# kappa* on vdp with poles (-1, -1): the first value find_kappa_star accepts
KAPPA_STAR = 63.45426002963295
# A valid, well-separated pole set that place_poles rejects today (its
# cluster-error postcondition, 1.085e-06, exceeds the fixed 1e-6 tolerance).
POLES_8 = (-3.0, -6.0, -8.0, -9.0, -10.0, -8.5, -8.25, -8.625)

RUN_HORIZON = 20.0
RUN_ARGS = ["run", "--benchmark", "vdp", "--method", "rk4",
            "--n-samples", "6", "--horizon", f"{RUN_HORIZON:g}"]
SWEEP_GRID = (130.0, 140.0, 160.0)
SWEEP_ARGS = ["sweep", "--benchmark", "vdp", "--param", "k",
              "--grid", ",".join(f"{k:g}" for k in SWEEP_GRID),
              "--kappa", repr(KAPPA_STAR), "--method", "dopri5",
              "--n-samples", "4", "--horizon", "60"]


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def run_round(name: str, seed: int, out_dir: Path) -> Round:
    execute, check = WORKLOADS[name]
    # a file left by an earlier round must not pass for this round's output
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    outcome = execute(seed, out_dir)
    wall = time.perf_counter() - t0
    attempted, failed, problems = check(outcome, out_dir)
    return Round(wall_s=wall, attempted=attempted, failed=failed,
                 problems=problems)


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return nimreg.cli.main(argv)


def _read_report(path: Path) -> dict:
    items = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


# vdp-run ------------------------------------------------------------------------


def execute_run(seed: int, out: Path):
    return _cli(RUN_ARGS + ["--seed", str(seed), "--out-dir", str(out)])


def check_run(code, out: Path):
    """One operation: the `nimreg run` invocation.  It failed when it wrote no
    report; everything it wrote is checked."""
    report_path = out / "vdp_regulation_report.txt"
    if not report_path.is_file():
        return 1, 1, []
    problems = []
    rep = _read_report(report_path)
    if code != 0:
        problems.append(f"nimreg run exited {code}")
    for key in ("verdict_practical", "verdict_asymptotic"):
        if rep.get(key) != "true":
            problems.append(f"{key} = {rep.get(key)}")
    bounds = [("t_bar", lambda v: v <= 30.0, "<= 30"),
              ("tail_sup_e", lambda v: v < 1e-4, "< 1e-4"),
              ("kappa_search_rate", lambda v: v >= 0.3, ">= 0.3"),
              ("residual_flow", lambda v: v < 1e-5, "< 1e-5"),
              ("residual_output", lambda v: v == 0.0, "== 0")]
    for key, ok, text in bounds:
        try:
            value = float(rep[key])
        except (KeyError, ValueError):
            problems.append(f"report has no numeric {key}")
            continue
        if not ok(value):
            problems.append(f"{key} = {value!r}, want {text}")

    csv_path = out / "vdp_regulation.csv"
    if not csv_path.is_file():
        return 1, 0, problems + ["no trajectory CSV"]
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    col = {name: data[:, i] for i, name in enumerate(header)}
    dt_out = float(rep.get("dt_out", "nan"))
    if data.shape[0] != round(RUN_HORIZON / dt_out) + 1 or col["t"][-1] != RUN_HORIZON:
        problems.append(f"CSV has {data.shape[0]} rows ending at t={col['t'][-1]}")
    # tau(z, w) = (-w1, -w2) for this plant: q(z, 0, w) = w1 and w1' = w2
    chi = np.hypot(col["xi_1"] + col["w_1"], col["xi_2"] + col["w_2"])
    gap = np.abs(col["chi_norm"] - chi)
    if np.any(gap > 1e-12 + 1e-9 * chi):
        problems.append(f"chi_norm differs from |xi - tau| by {gap.max():.3e}")
    k = float(rep["k"])
    if not np.array_equal(col["v"], -k * col["e"]):
        problems.append("v != -k e on some row")
    if not np.array_equal(col["u"], col["xi_1"] + col["v"]):
        problems.append("u != xi_1 + v on some row")
    if not np.all(np.isfinite(col["graph_dist"]) & (col["graph_dist"] >= 0.0)):
        problems.append("graph_dist column has a negative or non-finite value")
    return 1, 0, problems


# vdp-certify --------------------------------------------------------------------


class _Ops:
    """Runs named operations; one that raises a NimregError, or needs the
    result of one that did, counts as failed."""

    def __init__(self):
        self.results: dict = {}
        self.errors: dict = {}

    def run(self, name, fn, needs=()):
        missing = [n for n in needs if self.results.get(n) is None]
        if missing:
            self.errors[name] = f"needs {', '.join(missing)}"
            self.results[name] = None
            return None
        try:
            self.results[name] = fn()
        except nimreg.NimregError as exc:
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            self.results[name] = None
        return self.results[name]


@dataclass(eq=False)
class _Synthesis:
    est: object
    tau: object
    im: object


def _synthesize(bench, sets) -> _Synthesis:
    est = nimreg.estimate_attractor(bench.plant, bench.exo, sets,
                                    w0_sampler=bench.w0_sampler)
    tau = nimreg.build_tau(bench.plant, bench.exo, bench.d)
    box = nimreg.tau_image_box(tau, est)
    driver = nimreg.saturate(bench.f, box, tau.image_extent)
    return _Synthesis(est=est, tau=tau,
                      im=nimreg.InternalModel(d=bench.d, driver=driver))


def execute_certify(seed: int, out: Path):
    bench = nimreg.get_benchmark("vdp")
    plant, exo, w0 = bench.plant, bench.exo, bench.w0_sampler
    sets = bench.scenario_sets(n_samples=4, seed=seed)
    ops = _Ops()
    syn = ops.run("synthesis", lambda: _synthesize(bench, sets))
    ops.run("residuals", lambda: nimreg.verify_internal_model(syn.im, syn.tau, syn.est),
            needs=["synthesis"])
    for d in (1, 2, 3):
        ops.run(f"certificate-d{d}",
                lambda d=d: nimreg.design_gains(d, KAPPA_STAR, lipschitz=syn.im.driver.L),
                needs=["synthesis"])
    ops.run("certificate-d8",
            lambda: nimreg.design_gains(8, KAPPA_STAR, lipschitz=syn.im.driver.L,
                                        poles=POLES_8),
            needs=["synthesis"])
    matched = ops.run("matched-cloud", lambda: nimreg.estimate_attractor(
        plant, exo, sets, w0_sampler=w0, n_sources=20, transient_time=10.0,
        sample_time=50.0, dt_sample=0.1, resolution=None))
    fine = ops.run("fine-cloud", lambda: nimreg.estimate_attractor(
        plant, exo, sets, w0_sampler=w0, n_sources=1, transient_time=20.0,
        sample_time=8.0, resolution=1.5e-5))

    def gain():
        return ops.results["certificate-d2"].G

    ops.run("invariance", lambda: nimreg.graph_invariance_experiment(
        plant, exo, syn.im, syn.tau, matched, gain(), n_runs=20, horizon=10.0,
        tol=1e-5), needs=["synthesis", "certificate-d2", "matched-cloud"])
    ops.run("convergence", lambda: nimreg.graph_convergence_experiment(
        plant, exo, syn.im, syn.tau, fine, gain(), sets, w0_sampler=w0,
        n_runs=20, horizon=16.0, tol=1e-4, curve_est=syn.est),
        needs=["synthesis", "certificate-d2", "fine-cloud"])
    ops.run("perturbation", lambda: nimreg.perturbation_decay_experiment(
        plant, exo, syn.im, syn.tau, matched, gain(), n_runs=10, horizon=8.0,
        seed=seed), needs=["synthesis", "certificate-d2", "matched-cloud"])
    return ops


def _check_certificate(gd, poles, kappa) -> list:
    """Lyapunov residual, definiteness, spectrum and high-gain scaling,
    recomputed from G0 and P alone."""
    problems = []
    d = len(poles)
    A = np.eye(d, k=1)
    A[:, 0] -= gd.G0
    resid = float(np.linalg.norm(gd.P @ A + A.T @ gd.P + np.eye(d)))
    # check 02's 1e-10 holds for P of order 1; the d = 8 set's P is of order
    # 1e9 and a sound solve leaves a residual of order eps |P| (~1e-5 there)
    tol = max(1e-10, 1e3 * np.finfo(float).eps * np.linalg.norm(gd.P, 2))
    if not resid < tol:
        problems.append(f"d={d}: |PA + A'P + I| = {resid:.3e} >= {tol:.3e}")
    if not np.all(np.linalg.eigvalsh(gd.P) > 0.0):
        problems.append(f"d={d}: P is not positive definite")
    eig = np.sort_complex(np.linalg.eigvals(A))
    want = np.sort_complex(np.asarray(poles, dtype=complex))
    # repeated poles split like eps^(1/d) but keep their mean
    if np.max(np.abs(eig - want)) > 1e-4 or abs(eig.mean() - want.mean()) > 1e-8:
        problems.append(f"d={d}: eigenvalues of A - G0 Gamma miss the poles by "
                        f"{np.max(np.abs(eig - want)):.3e}")
    if not np.allclose(gd.G, kappa ** np.arange(1, d + 1) * gd.G0, rtol=1e-12, atol=0):
        problems.append(f"d={d}: G is not the kappa^(i+1) scaling of G0")
    return problems


def check_certify(ops: _Ops, out: Path):
    """Operations: synthesis, residuals, four gain certificates, two clouds
    and the three graph experiments.  Checks match acceptance checks 01-05."""
    r = ops.results
    problems = []
    if r["residuals"] is not None:
        ver = r["residuals"]
        if not (ver.residual_flow < 1e-5 and ver.residual_output == 0.0):
            problems.append(f"residuals flow={ver.residual_flow:.3e} "
                            f"output={ver.residual_output!r}")
    for d in (1, 2, 3):
        if r[f"certificate-d{d}"] is not None:
            problems += _check_certificate(r[f"certificate-d{d}"], [-1.0] * d,
                                           KAPPA_STAR)
    if r["certificate-d8"] is not None:
        problems += _check_certificate(r["certificate-d8"], POLES_8, KAPPA_STAR)
    if r["matched-cloud"] is not None:
        mc = r["matched-cloud"]
        if (mc.n_sources, mc.block_len) != (20, 501):
            problems.append(f"matched cloud has {mc.n_sources} x {mc.block_len} points")
    if r["invariance"] is not None:
        inv = r["invariance"]
        if not (inv.passed and inv.max_distance < 1e-5):
            problems.append(f"invariance max distance {inv.max_distance:.3e}")
    if r["convergence"] is not None:
        conv = r["convergence"]
        if not (conv.passed and conv.terminal_distance < 1e-4):
            problems.append(f"convergence terminal distance {conv.terminal_distance:.3e}"
                            f" ({conv.error})")
    if r["perturbation"] is not None:
        pert = r["perturbation"]
        # the slowest transverse mode is the plant's zero dynamics z' = -z + w1
        if not pert.passed or any(rate is None or abs(rate - 1.0) > 0.05
                                  for rate in pert.rates):
            problems.append(f"perturbation rates {pert.rates}")
    return len(r), len(ops.errors), problems


# vdp-sweep ----------------------------------------------------------------------


def execute_sweep(seed: int, out: Path):
    return _cli(SWEEP_ARGS + ["--seed", str(seed), "--out-dir", str(out)])


def check_sweep(code, out: Path):
    """One operation per grid point.  A point whose pipeline raised (its
    report says experiment = error) failed; every other point must pass."""
    attempted = len(SWEEP_GRID)
    agg = out / "sweep_k.csv"
    if not agg.is_file():
        return attempted, attempted, [f"nimreg sweep exited {code} without sweep_k.csv"]
    with agg.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems, failed = [], 0
    if [float(row["value"]) for row in rows] != list(SWEEP_GRID):
        problems.append(f"sweep_k.csv covers {[row['value'] for row in rows]}")
    for row in rows:
        k = float(row["value"])
        rep = _read_report(out / f"vdp_k_{k:g}_report.txt")
        if rep.get("experiment") == "error":
            failed += 1
            continue
        if row["passed"] != "true" or rep.get("method") != "dopri5":
            problems.append(f"k={k:g}: passed={row['passed']} method={rep.get('method')}")
        # poles (-1, -1) give G0 = (2, 1), so Gamma G = 2 kappa
        if abs(float(row["k_bar"]) - (k - 2.0 * KAPPA_STAR)) > 1e-9 * k:
            problems.append(f"k={k:g}: k_bar = {row['k_bar']}, want k - 2 kappa")
        if not float(row["tail_sup_e"]) < 1e-4:
            problems.append(f"k={k:g}: tail sup|e| = {row['tail_sup_e']}")
    return attempted, failed, problems


WORKLOADS = {
    "vdp-run": (execute_run, check_run),
    "vdp-certify": (execute_certify, check_certify),
    "vdp-sweep": (execute_sweep, check_sweep),
}
