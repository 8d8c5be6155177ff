"""Acceptance gate: one test per shipped guarantee, one summary line each.

Each body is timed against its runtime budget.  Session fixtures (clouds,
internal models, gain searches) are shared infrastructure and are warmed up
before the clock starts, except where the check explicitly covers a search.
"""

import dataclasses
import time

import numpy as np
import pytest

from _oracles import (closed_loop_field_eta, fd_along_flow, matched_pole_error,
                      tau_seed)
from conftest import record_acceptance

from nimreg import (
    ControllerConfig,
    design_gains,
    get_benchmark,
    regulation_experiment,
    run_closed_loop,
    verify_internal_model,
)
from nimreg.jets import lie_chain
from nimreg.analysis import (
    graph_convergence_experiment,
    graph_invariance_experiment,
    linear_baseline_experiment,
    perturbation_decay_experiment,
)
from nimreg.dynsys import as_array_rhs, sample_box, zero_dynamics_field
from nimreg.gain import place_poles, solve_lyapunov
from nimreg.integrators import rk4_fixed
from nimreg.cli import main as cli_main

BENCHMARKS = ("harmonic", "vdp", "static")


def _finish(label: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    in_time = elapsed < budget
    verdict = "PASS" if (ok and in_time) else "FAIL"
    line = f"{label}: {detail} [{elapsed:.1f}s/{budget:.0f}s] {verdict}"
    record_acceptance(line, label=label, verdict=verdict,
                      elapsed_s=round(elapsed, 3), budget_s=budget)
    assert ok, line
    assert in_time, line


def test_internal_model_residuals(stacks):
    for name in BENCHMARKS:
        stacks(name)
    t0 = time.perf_counter()
    ok, parts = True, []
    for name in BENCHMARKS:
        s = stacks(name)
        ver = verify_internal_model(s.im, s.tau, s.est)
        ok &= ver.residual_flow < 1e-5 and ver.residual_output == 0.0
        parts.append(f"{name} flow={ver.residual_flow:.2e} "
                     f"out={ver.residual_output!r}")
    _finish("01 internal-model residuals", ok, " | ".join(parts), t0, 10.0)


def test_observer_gain_certificates():
    t0 = time.perf_counter()
    ok, parts = True, []
    for d in (1, 2, 3):
        G0 = place_poles(d)
        A = np.eye(d, k=1)
        A[:, 0] -= G0
        P = solve_lyapunov(A)
        resid = float(np.linalg.norm(P @ A + A.T @ P + np.eye(d)))
        pole_err = matched_pole_error(G0, [-1.0] * d)
        ok &= resid < 1e-10
        ok &= bool(np.all(np.linalg.eigvalsh(P) > 0.0))
        ok &= pole_err <= 1e-8
        parts.append(f"d={d} resid={resid:.1e} poles={pole_err:.1e}")
    _finish("02 observer-gain certificates", ok, " | ".join(parts), t0, 1.0)


def test_graph_invariance(stacks, matched_clouds, kappa_stars):
    gains = {name: kappa_stars(name).design.G for name in ("harmonic", "vdp")}
    gains["static"] = design_gains(1, 1.5).G
    for name in BENCHMARKS:
        matched_clouds(name)
    t0 = time.perf_counter()
    ok, parts = True, []
    for name in BENCHMARKS:
        s = stacks(name)
        rep = graph_invariance_experiment(s.bench.plant, s.bench.exo, s.im,
                                          s.tau, matched_clouds(name),
                                          gains[name], n_runs=20,
                                          horizon=50.0, tol=1e-5)
        ok &= rep.passed and rep.max_distance < 1e-5
        parts.append(f"{name} max={rep.max_distance:.2e}")
    _finish("03 graph invariance from on-graph starts", ok,
            " | ".join(parts), t0, 30.0)


def test_graph_attractiveness(stacks, fine_clouds, kappa_stars):
    names = ("harmonic", "vdp")
    for name in names:
        fine_clouds(name)
        kappa_stars(name)
    t0 = time.perf_counter()
    ok, parts = True, []
    for name in names:
        s = stacks(name)
        ks = kappa_stars(name)
        rep = graph_convergence_experiment(
            s.bench.plant, s.bench.exo, s.im, s.tau, fine_clouds(name),
            ks.design.G, s.sets, w0_sampler=s.bench.w0_sampler, n_runs=50,
            horizon=40.0, tol=1e-4, curve_est=s.est)
        ok &= rep.passed
        # kappa* >= 2L|P| is not required; the comparison is part of the record
        parts.append(f"{name} terminal={rep.terminal_distance:.2e} "
                     f"kappa*={ks.kappa:.4g} vs bound {ks.kappa_lb:.4g}")
    _finish("04 graph attractiveness at kappa*", ok, " | ".join(parts),
            t0, 120.0)


def test_perturbation_decay_rates(stacks, matched_clouds, kappa_stars):
    names = [b for b in BENCHMARKS if get_benchmark(b).exp_attractive]
    for name in names:
        matched_clouds(name)
        kappa_stars(name)
    t0 = time.perf_counter()
    ok, parts = True, []
    for name in names:
        s = stacks(name)
        rep = perturbation_decay_experiment(
            s.bench.plant, s.bench.exo, s.im, s.tau, matched_clouds(name),
            kappa_stars(name).design.G)
        ok &= rep.passed
        rates = ", ".join(f"{r:.2f}" for r in rep.rates)
        parts.append(f"{name} rates=[{rates}]")
    _finish("05 perturbation decay rates", ok, " | ".join(parts), t0, 60.0)


@pytest.fixture(scope="module")
def vdp_regulation_run(stacks, kappa_stars, vdp_auto_k):
    """One 50-sample closed-loop run at auto gains, shared by the practical
    and asymptotic regulation checks."""
    s = stacks("vdp")
    cc = ControllerConfig(im=s.im, gd=kappa_stars("vdp").design, k=vdp_auto_k)
    t0 = time.perf_counter()
    rep = regulation_experiment(s, cc, eps=1e-2, horizon=100.0, fit_curves=False)
    return rep, time.perf_counter() - t0, cc.k


def test_practical_regulation_auto_gains(vdp_regulation_run):
    rep, elapsed, k = vdp_regulation_run
    ok = rep.t_bar is not None and rep.t_bar <= 30.0
    ok &= bool(rep.verdicts.get("practical"))
    detail = (f"vdp k={k:.4g} worst settle t_bar="
              f"{rep.t_bar if rep.t_bar is not None else 'never'} <= 30")
    _finish("06 practical regulation, auto gains", ok, detail,
            time.perf_counter() - elapsed, 120.0)


def test_asymptotic_regulation_tail(vdp_regulation_run):
    rep, elapsed, _ = vdp_regulation_run
    ok = rep.tail_sup_e < 1e-4
    detail = (f"vdp tail sup|e| over [80,100] = {rep.tail_sup_e:.2e} "
              f"(run shared with check 06)")
    _finish("07 asymptotic regulation tail", ok, detail,
            time.perf_counter() - elapsed, 60.0)


def test_linear_driver_baseline_split(stacks):
    for name in ("harmonic", "vdp"):
        stacks(name)
    t0 = time.perf_counter()
    reports = {}
    for name in ("harmonic", "vdp"):
        s = stacks(name)
        runs = dataclasses.replace(s, sets=dataclasses.replace(s.sets, n_samples=20))
        reports[name] = linear_baseline_experiment(runs, horizon=100.0)
    ok = reports["harmonic"].tail_sup_e < 1e-4
    ok &= reports["vdp"].tail_sup_e >= 1e-2
    detail = (f"harmonic tail={reports['harmonic'].tail_sup_e:.2e} (pass) | "
              f"vdp tail={reports['vdp'].tail_sup_e:.2e} (fail as required)")
    _finish("08 linear-driver baseline split", ok, detail, t0, 120.0)


def test_coordinate_change_equivalence(stacks):
    for name in BENCHMARKS:
        stacks(name)
    t0 = time.perf_counter()
    ok, parts = True, []
    for name in BENCHMARKS:
        s = stacks(name)
        kappa, k_bar = (1.5, 2.0) if name == "static" else (2.0, 5.0)
        gd = design_gains(s.im.d, kappa, lipschitz=s.im.driver.L)
        G = np.asarray(gd.G, dtype=float)
        cc = ControllerConfig(im=s.im, gd=gd, k=float(G[0]) + k_bar)
        rng = np.random.default_rng(11)
        z0 = sample_box(s.sets.z_box, 20, rng)
        e0 = sample_box(s.sets.e_interval, 20, rng)
        w0 = s.bench.w0_sampler(20, rng)
        xi0 = sample_box(s.im.driver.s_box, 20, rng)
        x_xi = np.concatenate([z0, e0, w0, xi0])
        x_eta = np.concatenate([z0, e0, w0, xi0 - G[:, None] * e0])
        kw = dict(h=1e-3, dt_out=0.05)
        t_xi = run_closed_loop(s.bench.plant, s.bench.exo, cc, x_xi,
                               (0.0, 10.0), **kw)
        eta_rhs = as_array_rhs(closed_loop_field_eta(s.bench.plant, s.bench.exo, cc))
        t_eta = rk4_fixed(eta_rhs, x_eta, (0.0, 10.0), **kw)
        slot = t_xi.meta["layout"].e
        gap = float(np.max(np.abs(t_xi.states[:, slot] - t_eta.states[:, slot])))
        ok &= gap < 1e-8
        parts.append(f"{name} max|e_xi-e_eta|={gap:.1e}")
    _finish("09 xi/eta coordinate equivalence", ok, " | ".join(parts), t0, 60.0)


def test_jet_chain_against_flow_oracle():
    t0 = time.perf_counter()
    ok, parts = True, []
    for name in BENCHMARKS:
        bench = get_benchmark(name)
        field = zero_dynamics_field(bench.plant, bench.exo)
        g = tau_seed(bench)
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-0.8, 0.8, size=bench.plant.n + bench.exo.r)
        chain = lie_chain(g, field, 4, x0)
        oracle = fd_along_flow(g, field, 4, x0)
        rel = float(np.max(np.abs(chain - oracle)
                           / np.maximum(np.abs(oracle), 1e-12)))
        ok &= rel < 1e-5
        parts.append(f"{name} rel={rel:.1e}")
    _finish("10 jet chains vs flow-derivative oracle", ok,
            " | ".join(parts), t0, 10.0)


def test_reproducible_csv_output(tmp_path):
    t0 = time.perf_counter()
    args = ["run", "--benchmark", "harmonic", "--kappa", "4", "--k", "12",
            "--horizon", "40", "--n-samples", "8", "--transient-time", "10",
            "--sample-time", "5", "--seed", "3"]
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(args + ["--out-dir", str(out)])
        outs.append((code, out))
    csv_a = (outs[0][1] / "harmonic_regulation.csv").read_bytes()
    csv_b = (outs[1][1] / "harmonic_regulation.csv").read_bytes()
    rep_a = (outs[0][1] / "harmonic_regulation_report.txt").read_bytes()
    rep_b = (outs[1][1] / "harmonic_regulation_report.txt").read_bytes()
    ok = outs[0][0] == 0 and outs[1][0] == 0
    ok &= csv_a == csv_b and rep_a == rep_b
    detail = (f"exit codes {outs[0][0]}/{outs[1][0]}, csv bytes "
              f"{'identical' if csv_a == csv_b else 'DIFFER'}, report bytes "
              f"{'identical' if rep_a == rep_b else 'DIFFER'}")
    _finish("11 byte-identical reruns", ok, detail, t0, 60.0)
