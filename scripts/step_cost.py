"""Cost per integrator step of the integrated fields on the vdp benchmark.

    python3 scripts/step_cost.py [--steps 2000] [--repeats 3] [--seed 0]

Prints microseconds per step, the best of --repeats runs in one process, for
the zero dynamics, the observer cascade and the closed loop on fixed-step
RK4 (h = 1e-3, dt_out = 0.01) at 1, 6, 20 and 50 columns, and for the closed
loop on dopri5 at 4 columns over a horizon of 0.03 * steps (per attempted
step).  Each row ends with a hash of the run's final state, so that two
checkouts can be compared bit for bit.  The controller is the synthesis of
the default run (synthesize over the benchmark's default scenario sets), at
kappa = 63.45 and k = 127.9, the vdp kappa* and automatic k of that run.
"""

import argparse
import hashlib
import time

import numpy as np

from nimreg import (ControllerConfig, design_gains, get_benchmark, run_closed_loop,
                    synthesize)
from nimreg.dynsys import zero_dynamics_rhs
from nimreg.integrators import rk4_fixed
from nimreg.sim import run_observer_cascade

KAPPA, K = 63.45, 127.9
H, DT_OUT = 1e-3, 0.01
WIDTHS = (1, 6, 20, 50)
DOPRI5_WIDTH = 4


def _controller(bench) -> ControllerConfig:
    im = synthesize(bench, bench.scenario_sets()).im
    return ControllerConfig(im=im, gd=design_gains(im.d, KAPPA, lipschitz=im.driver.L), k=K)


def _starts(bench, cc, width: int, seed: int):
    rng = np.random.default_rng(seed)
    sets = bench.scenario_sets()
    z0, w0, xi0, e0 = sets.sample(bench.exo, rng, width, w0_sampler=bench.w0_sampler,
                                  xi_box=cc.im.driver.s_box)
    return z0, w0, xi0, e0[None, :]


def _best(run, repeats: int):
    best, traj = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        traj = run()
        best = min(best, time.perf_counter() - t0)
    return best, traj


def _digest(state) -> str:
    return hashlib.sha256(np.ascontiguousarray(state).tobytes()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    bench = get_benchmark("vdp")
    plant, exo = bench.plant, bench.exo
    cc = _controller(bench)
    span = (0.0, args.steps * H)
    rk4 = dict(h=H, dt_out=DT_OUT)
    print(f"{'field':<14}{'method':<8}{'columns':>8}{'us/step':>10}  final-state hash")
    for width in WIDTHS:
        z0, w0, xi0, e0 = _starts(bench, cc, width, args.seed)
        runs = {
            "zero dynamics": lambda: rk4_fixed(zero_dynamics_rhs(plant, exo),
                                               np.concatenate([z0, w0]), span, **rk4),
            "cascade": lambda: run_observer_cascade(plant, exo, cc.im, cc.gd.G,
                                                    np.concatenate([z0, w0, xi0]), span, **rk4),
            "closed loop": lambda: run_closed_loop(plant, exo, cc,
                                                   np.concatenate([z0, e0, w0, xi0]), span, **rk4),
        }
        for name, run in runs.items():
            secs, traj = _best(run, args.repeats)
            us = 1e6 * secs / traj.meta["n_steps"]
            print(f"{name:<14}{'rk4':<8}{width:>8}{us:>10.1f}  {_digest(traj.final)}")
    z0, w0, xi0, e0 = _starts(bench, cc, DOPRI5_WIDTH, args.seed)
    secs, traj = _best(lambda: run_closed_loop(
        plant, exo, cc, np.concatenate([z0, e0, w0, xi0]), (0.0, 0.03 * args.steps),
        method="dopri5", dt_out=DT_OUT), args.repeats)
    us = 1e6 * secs / (traj.meta["n_steps"] + traj.meta["n_rejected"])
    print(f"{'closed loop':<14}{'dopri5':<8}{DOPRI5_WIDTH:>8}{us:>10.1f}  {_digest(traj.final)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
