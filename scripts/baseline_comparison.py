"""Nonlinear internal model vs best-linear-fit driver, at matched gains.

For each benchmark the regulation experiment runs twice with identical mild
gains (kappa 2, k_bar 5): once with the saturated nonlinear driver and once
with its least-squares linear fit over the attractor cloud.  On the harmonic
benchmark the steady-state generator is genuinely linear, so both pass.  On
the van der Pol benchmark only the nonlinear driver reproduces the
feedforward and the linear comparator keeps a visible tail error.

Gains are deliberately mild: feedback attenuation of a feedforward mismatch
grows roughly like kappa^2 * k_bar, so at aggressive gains even a wrong
driver regulates to small practical error and the comparison says nothing.

    python3 scripts/baseline_comparison.py
"""

import argparse
import sys

import numpy as np

from nimreg import (
    ControllerConfig,
    design_gains,
    get_benchmark,
    linear_baseline_experiment,
    regulation_experiment,
    synthesize,
)
from nimreg.analysis import fit_linear_driver


def compare(name: str, kappa: float, k_bar: float, horizon: float, seed: int):
    bench = get_benchmark(name)
    syn = synthesize(bench, bench.scenario_sets(seed=seed))

    coef = fit_linear_driver(syn.tau, syn.est)
    gd = design_gains(bench.d, kappa,
                      lipschitz=max(syn.im.driver.L, float(np.linalg.norm(coef))))
    k = float(gd.G[0]) + k_bar

    cc = ControllerConfig(im=syn.im, gd=gd, k=k)
    nl = regulation_experiment(syn, cc, horizon=horizon)
    lin = linear_baseline_experiment(syn, gd, k, horizon=horizon)
    return nl, lin, coef


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kappa", type=float, default=2.0)
    ap.add_argument("--k-bar", type=float, default=5.0)
    ap.add_argument("--horizon", type=float, default=100.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"matched gains: kappa = {args.kappa}, k_bar = {args.k_bar}")
    print(f"{'benchmark':10s} {'driver':10s} {'tail sup|e|':>12s} "
          f"{'t_bar':>8s} {'asymptotic':>10s}")
    ok = True
    for name in ("harmonic", "vdp"):
        nl, lin, coef = compare(name, args.kappa, args.k_bar, args.horizon,
                                args.seed)
        for label, rep in (("nonlinear", nl), ("linear", lin)):
            t_bar = f"{rep.t_bar:.2f}" if rep.t_bar is not None else "none"
            print(f"{name:10s} {label:10s} {rep.tail_sup_e:12.3e} "
                  f"{t_bar:>8s} {str(rep.asymptotic):>10s}")
        print(f"{'':10s} linear fit coefficients: {coef}")
        bench = get_benchmark(name)
        ok &= nl.asymptotic
        ok &= lin.asymptotic == bench.linear_baseline_pass
    print("expected pattern reproduced" if ok else "UNEXPECTED verdict pattern")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
