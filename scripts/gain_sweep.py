"""Sweep the high-gain parameter and check the decay-rate trend.

Finds kappa* for the chosen benchmark, then reruns find_kappa_star's
tracking-error decay probe, on the same starts and horizon, at kappa*,
2 kappa* and 4 kappa*; the kappa* row repeats the search's rate.  The fitted
rate alpha should not degrade as kappa grows (it typically saturates once the
observer is much faster than the plant); a decrease bigger than the tolerance
is reported but does not abort, since the rate fit on a short window is noisy.

    python3 scripts/gain_sweep.py vdp
"""

import argparse
import sys

from nimreg import design_gains, find_kappa_star, get_benchmark, synthesize
from nimreg.analysis import tracking_error_decay


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("benchmark", choices=("harmonic", "vdp"))
    ap.add_argument("--multipliers", default="1,2,4")
    ap.add_argument("--rate-drop-tol", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    bench = get_benchmark(args.benchmark)
    syn = synthesize(bench, bench.scenario_sets(seed=args.seed))

    search = find_kappa_star(syn)
    kappa_star = search.kappa
    print(f"kappa* = {kappa_star:.6g} (lower bound 2L|P| = {search.kappa_lb:.6g}, "
          f"rate at kappa* = {search.rate:.4g})")

    rates = []
    for m in map(float, args.multipliers.split(",")):
        gd = design_gains(bench.d, m * kappa_star, lipschitz=syn.driver.L)
        fit = tracking_error_decay(syn, gd.G)
        rates.append(fit.alpha)
        print(f"kappa = {m * kappa_star:12.6g}  alpha = {fit.alpha:.4g}  "
              f"window = {fit.window}  residual = {fit.residual:.3g}")

    worst_drop = max(0.0, *(rates[i] - min(rates[i:]) for i in range(len(rates))))
    if worst_drop > args.rate_drop_tol * max(rates):
        print(f"warning: decay rate dropped by {worst_drop:.4g} along the grid")
    else:
        print("rate trend: non-degrading along the kappa grid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
