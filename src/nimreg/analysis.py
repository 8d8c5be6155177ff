"""Attractor estimation, graph distances, decay fits, and the verification
experiments built on them.

The steady-state set of the zero dynamics is approximated by a point cloud:
trajectories from sampled initial conditions, transient discarded, optionally
densified by Hermite resampling and thinned on a spatial grid.  Two cloud
regimes matter downstream:

* matched clouds (resolution None) keep the raw retention grid of the
  fixed-step integrator.  An experiment that restarts from a retained sample
  with the same step and stride reproduces the (z, w) slots bit for bit, so
  graph distances measure controller error, not cloud coverage.
* thinned clouds (resolution r) cover the attractor with spacing about r and
  serve as geometric references for convergence thresholds.

Experiments return report objects; numeric failure is recorded as a failed
verdict with diagnostics rather than an exception wherever the failure is of
the claim, not of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dynsys import (ExosystemSpec, PlantSpec, ScenarioSets, inflate_box,
                     zero_dynamics_rhs)
from .errors import (BoundednessError, ConfigError, FitError, IntegrationError,
                     PreconditionError, SearchError)
from .integrators import DEFAULT_GUARD, Trajectory, _hermite, rk4_fixed
from .gain import design_gains
from .internal_model import InternalModel, TauChain, saturate
from .sim import ControllerConfig, run_closed_loop, run_observer_cascade

__all__ = [
    "AttractorEstimate",
    "estimate_attractor",
    "tau_image_box",
    "graph_distance",
    "DecayFit",
    "fit_decay",
    "tracking_error_decay",
    "GraphReport",
    "graph_invariance_experiment",
    "graph_convergence_experiment",
    "PerturbationReport",
    "perturbation_decay_experiment",
    "RunReport",
    "regulation_experiment",
    "fit_linear_driver",
    "linear_baseline_experiment",
    "auto_feedback_gain",
]


# attractor estimation --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AttractorEstimate:
    """Point-cloud approximation of the zero-dynamics steady-state set.

    points is (n+r, N).  For matched clouds block_len gives the retained
    samples per source and points are source-major, so column j*block_len + i
    is source j at the i-th retention time.
    """

    points: np.ndarray
    sources: np.ndarray
    sample_time: float
    h: float
    dt_sample: float
    block_len: int | None = None
    resolution: float | None = None

    @property
    def matched(self) -> bool:
        return self.block_len is not None

    @property
    def n_sources(self) -> int:
        return self.sources.shape[1]


# cell keys fold into one int64 while the ranges hold at most this many cells
_KEY_LIMIT = np.iinfo(np.int64).max


def _cell_keys(lo: np.ndarray, hi: np.ndarray):
    """The key function of the int64 cells lo..hi (inclusive, per axis): it
    maps an (m, B) grid of cell indices to B keys, equal for equal cells.
    While the ranges hold at most _KEY_LIMIT cells, a key is the cell's
    row-major index over them, one int64 (a cell outside raises
    ValueError); beyond that, it is the cell's m indices read as one
    8m-byte record."""
    dims = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    if math.prod(dims) <= _KEY_LIMIT:
        return lambda grid: np.ravel_multi_index(tuple(grid - lo[:, None]), dims)
    record = np.dtype((np.void, 8 * lo.size))
    return lambda grid: np.ascontiguousarray(grid.T).view(record).ravel()


def _first_cells(blocks, resolution: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The first point of every occupied cell of size resolution over the
    (m, B) blocks, in the order the blocks give them, in one pass with the
    key function of the fixed cell ranges lo..hi (_cell_keys).

    Per block: the first point of each run of equal consecutive keys, then
    the first point per key (np.unique), then the keys not in the sorted
    array seen of every earlier block's cells (np.searchsorted); those are
    inserted into seen, and their points kept.  Only key equality decides
    what is kept, and kept points are taken in block order, so int64 keys
    and record keys, which sort differently, keep the same points."""
    key = _cell_keys(lo, hi)
    seen = key(np.empty((lo.size, 0), dtype=np.int64))
    kept = [np.empty((lo.size, 0))]
    for dense in blocks:
        keys = key(np.floor(dense / resolution).astype(np.int64))
        run = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        cells, first = np.unique(keys[run], return_index=True)
        pos = np.searchsorted(seen, cells)
        new = pos == seen.size
        new[~new] = seen[pos[~new]] != cells[~new]
        seen = np.insert(seen, pos[new], cells[new])
        kept.append(dense[:, run[np.sort(first[new])]])
    del seen  # before the cloud's one copy
    return np.concatenate(kept, axis=1)


# dense Hermite-fill points per block
_FILL_POINTS = 2e5


def estimate_attractor(plant: PlantSpec, exo: ExosystemSpec, sets: ScenarioSets,
                       *, w0_sampler: Callable | None = None,
                       n_sources: int | None = None,
                       transient_time: float = 20.0, sample_time: float = 10.0,
                       h: float = 1e-3, dt_sample: float = 0.01,
                       resolution: float | None = 5e-4,
                       guard: float = DEFAULT_GUARD) -> AttractorEstimate:
    """Sample the zero-dynamics steady state from Z x W initial conditions,
    in (m, N) columns throughout.

    With resolution None the cloud is the retained samples, source-major.
    Otherwise cubic Hermite fill puts n_sub = max(1, ceil(2 v_max dt /
    resolution)) points in each retention interval dt, v_max the top
    zero-dynamics speed over the retained samples, and the cloud is the
    first fill point (by source, interval, then sub-position) to land in
    each occupied cell of size resolution.

    The fill is made in blocks of about _FILL_POINTS points and thinned in
    one pass (_first_cells) against cell-key ranges fixed before it starts.
    On an interval from y0 to y1 = y0 + dy with slopes f0, f1 the Hermite
    value moves from y0 by at most dt|f0| + |a| + |b| <= 5|dy| + 6 dt max|f|
    per axis (a, b as in integrators._hermite), so the retained samples'
    range widened by 5 max|dy| + 6 dt max|f|, and one cell for rounding,
    holds every fill point's cell.  The result is exact: a point's cell,
    floor(p / resolution), does not depend on the ranges, and a cell's
    first point overall is the first point in the earliest block that
    reaches it.  The cell keys are chosen once from the ranges
    (_cell_keys): one int64 per cell while the ranges hold at most 2^63 - 1
    cells, else each cell's m int64 indices read as one byte record.  The
    cloud does not depend on which runs: only key equality decides what is
    kept, and kept points are taken in block order.

    A resolution that is neither None nor finite and positive, a negative
    transient_time, and a thinned cloud with fewer than two retained
    samples per source raise ConfigError.  Integration failure is treated
    as evidence against the boundedness assumption and raised as
    BoundednessError.
    """
    if resolution is not None and not (math.isfinite(resolution) and resolution > 0):
        raise ConfigError(f"resolution must be finite and positive, got {resolution!r}")
    if not transient_time >= 0:
        raise ConfigError(f"transient_time must be non-negative, got {transient_time!r}")
    if n_sources is None:
        n_sources = sets.n_samples
    rng = np.random.default_rng(sets.seed)
    z0, w0, _, _ = sets.sample(exo, rng, n_sources, w0_sampler=w0_sampler)
    if z0.shape[0] != plant.n or w0.shape != (exo.r, n_sources):
        raise ConfigError("initial-condition sample has wrong dimensions")
    x0 = np.concatenate([z0, w0], axis=0)

    rhs = zero_dynamics_rhs(plant, exo)
    total = transient_time + sample_time
    try:
        traj = rk4_fixed(rhs, x0, (0.0, total), h=h, dt_out=dt_sample, guard=guard)
    except IntegrationError as exc:
        raise BoundednessError(
            "zero-dynamics trajectory exceeded the overflow guard; "
            "bounded-orbit assumption fails on this scenario",
            evidence={"t_fail": exc.t_fail}) from exc

    j0 = int(np.searchsorted(traj.t, transient_time - 1e-9))
    # (m, n_src, n_ret): source j's retained samples in time order
    y = np.ascontiguousarray(np.transpose(traj.states[j0:], (1, 2, 0)))
    m, _, n_ret = y.shape
    common = dict(sources=x0,
                  sample_time=sample_time, h=h, dt_sample=dt_sample)
    if resolution is None:
        return AttractorEstimate(points=y.reshape(m, -1), block_len=n_ret, **common)
    if n_ret < 2:
        raise ConfigError(f"sample_time {sample_time:g} retains {n_ret} sample(s) per "
                          "source; a thinned cloud needs at least 2")

    f = rhs(y.reshape(m, -1)).reshape(y.shape)
    v_max = float(np.max(np.sqrt(np.sum(f ** 2, axis=0))))
    dt = traj.t[1] - traj.t[0]
    n_sub = max(1, math.ceil(2.0 * v_max * dt / resolution))
    thetas = np.arange(n_sub) / n_sub
    chunk = max(1, int(_FILL_POINTS // n_sub))

    def blocks():
        for s in range(n_sources):
            for start in range(0, n_ret - 1, chunk):
                stop = min(start + chunk, n_ret - 1)
                a, b = slice(start, stop), slice(start + 1, stop + 1)
                # (m, intervals, n_sub): every interval at every sub-position
                yield _hermite(y[:, s, a, None], y[:, s, b, None],
                               f[:, s, a, None], f[:, s, b, None],
                               dt, thetas).reshape(m, -1)

    reach = (5.0 * np.max(np.abs(np.diff(y, axis=2)), axis=(1, 2), initial=0.0)
             + 6.0 * dt * np.max(np.abs(f), axis=(1, 2)))
    lo = np.floor((np.min(y, axis=(1, 2)) - reach) / resolution).astype(np.int64) - 1
    hi = np.floor((np.max(y, axis=(1, 2)) + reach) / resolution).astype(np.int64) + 1
    cloud = _first_cells(blocks(), resolution, lo, hi)
    return AttractorEstimate(points=cloud, resolution=resolution, **common)


# candidate pairs evaluated at once: keeps the work in cache
_PAIR_CHUNK = 32768
# sorted neighbours whose exact value bounds a query's search window
_SEED = 16
# columns tau sees at once (_nearest, _chi_norms): bounds the jets' temporaries
_TAU_BLOCK = 65536


def _nearest(queries: np.ndarray, points: np.ndarray, tail=None) -> np.ndarray:
    """Per query column q, the min over cloud columns p of

        |q[:m] - p| + |q[m:] - tail(p)|,

    m = points.shape[0]; without tail, queries has m rows and the sum is its
    first term.  tail maps (m, B) cloud columns to their (M - m, B) rows of
    the second block, column by column (as tau does).

    Exact projection search (Friedman, Baskett & Shustek, IEEE Trans.
    Computers 1975).  The cloud's columns are sorted once along its widest
    axis into one preallocated (M, N) reference array: its rows taken in
    that order, the tail rows evaluated over blocks of _TAU_BLOCK sorted
    columns, so no copy of the cloud or of its whole tail exists besides
    it.  A query's exact value at its _SEED sorted neighbours is an upper
    bound ub on its minimum.  The sum is at least the first term, which is
    at least the distance along the sorted axis, so every point farther
    than ub along it is worse than ub; the query takes the exact value over
    the points within ub, widened by a rounding margin.  A query with a
    non-finite slot reads its bound: inf, or NaN when a slot is NaN."""
    m, n_pts = points.shape
    axis = int(np.argmax(np.ptp(points, axis=1)))
    order = np.argsort(points[axis])
    refs = np.empty((queries.shape[0], n_pts))
    for row, out in zip(points, refs):
        np.take(row, order, out=out, mode="clip")
    del order
    if tail is not None:
        for a in range(0, n_pts, _TAU_BLOCK):
            refs[m:, a:a + _TAU_BLOCK] = tail(refs[:m, a:a + _TAU_BLOCK])
    key = refs[axis]
    cols = [0, m, queries.shape[0]] if tail is not None else [0, m]
    x = queries[axis]
    n_seed = min(_SEED, key.size)
    seed = np.clip(np.searchsorted(key, x) - n_seed // 2, 0, key.size - n_seed)
    ub = _ranges_min(queries, refs, seed, np.full(x.size, n_seed), cols)
    finite = np.isfinite(ub)
    # the projected difference can be off by the rounding of x - key, a few
    # ulps of |x| + ub: far inside this margin
    reach = np.where(finite, ub + 1e-12 * (ub + np.abs(x)), 0.0)
    lo = np.searchsorted(key, x - reach, "left")
    count = np.where(finite, np.searchsorted(key, x + reach, "right") - lo, 0)
    best = _ranges_min(queries, refs, lo, count, cols)
    return np.where(finite, best, ub)


def _ranges_min(queries, refs, first, count, cols):
    """Per query column i, the exact min over the refs columns
    first[i] <= j < first[i] + count[i] of the sum over the row blocks
    cols[b]:cols[b+1] of |queries[:, i] - refs[:, j]|; inf for a query with
    no columns.  Summed row by row within a block, then block by block: the
    order of the formula written out, so a value is that formula's value at
    the minimizing j, bit for bit."""
    ends_q = np.cumsum(count)
    best = np.full(count.size, np.inf)
    # groups of about _PAIR_CHUNK pairs, each starting at a query with pairs
    starts = np.unique(np.searchsorted(
        ends_q, np.arange(0, count.sum(), _PAIR_CHUNK), "right"))
    for a, b in zip(starts, [*starts[1:], count.size]):
        pq = count[a:b]
        has = pq > 0
        ends = np.cumsum(pq)
        pos = np.arange(ends[-1]) + np.repeat(first[a:b] - (ends - pq), pq)
        dist = None
        for c0, c1 in zip(cols[:-1], cols[1:]):
            acc = None
            for j in range(c0, c1):
                t = refs[j].take(pos)
                t -= np.repeat(queries[j, a:b], pq)
                t *= t
                acc = t if acc is None else np.add(acc, t, out=acc)
            np.sqrt(acc, out=acc)
            dist = acc if dist is None else np.add(dist, acc, out=dist)
        best[a:b][has] = np.minimum.reduceat(dist, (np.cumsum(pq) - pq)[has])
    return best


# tau image and graph distance ------------------------------------------------


_IMAGE_INFLATION = 0.25
_IMAGE_FLOOR = 1e-3


def _tau_image(tau: TauChain, est: AttractorEstimate):
    """(box, extent): extent bounds tau over the cloud; box, the driver's
    saturation box, grows each half-width of extent by _IMAGE_INFLATION, to
    at least _IMAGE_FLOOR."""
    vals = tau(est.points)
    extent = np.column_stack([vals.min(axis=1), vals.max(axis=1)])
    return inflate_box(extent, _IMAGE_INFLATION, _IMAGE_FLOOR), extent


def tau_image_box(tau: TauChain, est: AttractorEstimate) -> np.ndarray:
    """The saturation box of _tau_image, with the extent stored on tau as
    image_extent for perfbench/workloads.py; the package itself reads the
    box from the driver (s_box)."""
    box, extent = _tau_image(tau, est)
    tau.image_extent = extent
    return box


def graph_distance(tau: TauChain, est: AttractorEstimate, states):
    """Distance surrogate to the graph of tau over the cloud:

        min over cloud points p of |zw - p| + |xi - tau(p)|.

    states is an (n+r+d, Q) batch; any other shape raises ConfigError.  The
    minimum is exact and equals the formula evaluated at every cloud point,
    bit for bit: a point is skipped only when its distance along one (z, w)
    axis alone exceeds a value the query already has (_nearest).  tau is
    evaluated over blocks of the sorted cloud, straight into _nearest's
    reference array: jets work column by column, so the values are those of
    tau over the whole cloud, and the memory beyond the cloud is that array,
    the sort's indices and one block's jet temporaries."""
    X = np.asarray(states, dtype=float)
    m = est.points.shape[0] + tau.d
    if X.ndim != 2 or X.shape[0] != m:
        raise ConfigError(f"states must be an ({m}, Q) batch, got shape {X.shape}")
    return _nearest(X, est.points, tau)


# decay fitting ----------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit magnitude(t) ~ M * exp(-alpha t) * magnitude(0)."""

    M: float
    alpha: float
    window: tuple
    residual: float
    n_points: int


_FIT_MIN_POINTS = 10


def fit_decay(t: np.ndarray, magnitude: np.ndarray, *, floor: float,
              t_min: float | None = None) -> DecayFit:
    """Fit log magnitude against t by least squares on a window the data
    decides.

    The window starts at the first sample with t >= t_min (the first sample
    when t_min is None) and runs over the contiguous samples above floor; it
    ends before the first sample at or below floor.  Whatever comes back
    above the floor after that is noise and is not fitted.  The experiments
    take one of two floors: the integrator's noise floor for integrated
    norms (1e-9 on rk4, max(1e-9, 10 rtol) on dopri5; _noise_floor) and the
    cloud's coverage radius for graph distances (4 resolution, 1e-9 for a
    matched cloud; _coverage_floor).  Raises FitError when the window holds
    fewer than 10 samples.
    """
    t = np.asarray(t, dtype=float)
    mag = np.asarray(magnitude, dtype=float)
    start = 0 if t_min is None else int(np.searchsorted(t, t_min))
    settled = np.flatnonzero(~(mag[start:] > floor))
    stop = start + settled[0] if settled.size else t.size
    ts, ms = t[start:stop], mag[start:stop]
    if ts.size < _FIT_MIN_POINTS:
        raise FitError(f"only {ts.size} samples above floor {floor:g} in window, "
                       f"need {_FIT_MIN_POINTS}")
    logm = np.log(ms)
    A = np.column_stack([ts, np.ones_like(ts)])
    coef, *_ = np.linalg.lstsq(A, logm, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((A @ coef - logm) ** 2)))
    mag0 = max(float(mag[0]), floor)
    return DecayFit(M=float(np.exp(intercept)) / mag0, alpha=-slope,
                    window=(float(ts[0]), float(ts[-1])), residual=resid,
                    n_points=int(ts.size))


def _noise_floor(method: str = "rk4", rtol: float = 1e-9) -> float:
    """Level where an integrated norm turns into integration noise: 1e-9 on
    the fixed RK4 grid; on dopri5 the norm bottoms out near rtol instead."""
    return 1e-9 if method == "rk4" else max(1e-9, 10.0 * rtol)


def _coverage_floor(est: AttractorEstimate) -> float:
    """Level where a graph distance against est measures the cloud's
    coverage, not the trajectory: 4 grid cells on a thinned cloud; a matched
    cloud holds the trajectory's own samples and has no such radius."""
    return 4.0 * est.resolution if est.resolution else 1e-9


# shared helpers for experiments ------------------------------------------------


def _graph_states(traj: Trajectory, rows=slice(None)) -> np.ndarray:
    """Stack [z; w; xi] query columns for every (time, run) pair of the
    selected time rows of a batch trajectory; column t * batch + run."""
    layout = traj.meta["layout"]
    slots = np.r_[layout.z, layout.w, layout.xi]
    return traj.states[rows][:, slots, :].transpose(1, 0, 2).reshape(slots.size, -1)


def _distance_curve(tau: TauChain, est: AttractorEstimate, traj: Trajectory,
                    rows=slice(None)) -> np.ndarray:
    """Graph distances against est at the selected time rows of traj, shape
    (rows, batch)."""
    dist = graph_distance(tau, est, _graph_states(traj, rows))
    return dist.reshape(traj.t[rows].size, -1)


def _median_fit(t: np.ndarray, values: np.ndarray, **fit) -> DecayFit | None:
    """fit_decay of the median over runs (the columns of values), or None
    when too few samples clear the floor."""
    try:
        return fit_decay(t, np.median(values, axis=1), **fit)
    except FitError:
        return None


def _matched_starts(est: AttractorEstimate, horizon: float, n_runs: int) -> np.ndarray:
    """(z, w) starts of the first n_runs sources of a matched cloud, shape
    (n+r, n_runs).

    Restarted with the cloud's step and stride, these runs retrace retained
    samples slot for slot; that needs a matched cloud whose sample_time
    covers the horizon."""
    if not est.matched:
        raise PreconditionError("experiments from cloud starts need a matched cloud")
    if est.sample_time < horizon - 1e-9:
        raise PreconditionError("cloud sample_time is shorter than the horizon")
    if est.n_sources < n_runs:
        raise PreconditionError(f"cloud has {est.n_sources} sources, need {n_runs}")
    return est.points[:, np.arange(n_runs) * est.block_len]


def _chi_norms(tau: TauChain, traj: Trajectory) -> np.ndarray:
    """|xi - tau(z, w)| along a batch trajectory, shape (n_pts, batch), over
    blocks of max(1, _TAU_BLOCK // batch) time rows (jets work column by
    column, so the blocks do not change a value)."""
    layout, batch = traj.meta["layout"], traj.states.shape[2]
    nr = layout.n + layout.r
    step = max(1, _TAU_BLOCK // batch)
    norms = np.empty((traj.t.size, batch))
    for a in range(0, traj.t.size, step):
        q = _graph_states(traj, slice(a, a + step))
        chi = q[nr:] - tau(q[:nr])
        norms[a:a + step] = np.sqrt(np.sum(chi ** 2, axis=0)).reshape(-1, batch)
    return norms


_PROBE_RUNS = 20
_KAPPA_PROBE_HORIZON = 2.0


def tracking_error_decay(syn, G) -> DecayFit:
    """Median |chi| decay for the observer cascade of syn at gain G over
    _KAPPA_PROBE_HORIZON, from the kappa probe's starts: _PROBE_RUNS
    scenarios drawn at sets.seed + 3, with xi from the driver's saturation
    box."""
    bench = syn.bench
    rng = np.random.default_rng(syn.sets.seed + 3)
    z0, w0, xi0, _ = syn.sets.sample(bench.exo, rng, _PROBE_RUNS,
                                     w0_sampler=bench.w0_sampler,
                                     xi_box=syn.im.driver.s_box)
    x0 = np.concatenate([z0, w0, xi0], axis=0)
    traj = run_observer_cascade(bench.plant, bench.exo, syn.im, G, x0,
                                (0.0, _KAPPA_PROBE_HORIZON),
                                dt_out=_KAPPA_PROBE_HORIZON / 400.0)
    med = np.median(_chi_norms(syn.tau, traj), axis=1)
    return fit_decay(traj.t, med, floor=_noise_floor())


# experiments -------------------------------------------------------------------


@dataclass(frozen=True)
class GraphReport:
    max_distance: float
    terminal_distance: float
    tol: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.terminal_distance < self.tol


def graph_invariance_experiment(plant, exo, im, tau, est, G, *,
                                n_runs: int = 20, horizon: float = 50.0,
                                tol: float = 1e-5) -> GraphReport:
    """Start on the graph (xi0 = tau at cloud points) and track the distance.

    Needs a matched cloud with sample_time >= horizon so the queried states
    line up with retained samples; anything else measures cloud coverage."""
    zw0 = _matched_starts(est, horizon, n_runs)
    x0 = np.concatenate([zw0, tau(zw0)], axis=0)
    try:
        traj = run_observer_cascade(plant, exo, im, G, x0, (0.0, horizon),
                                    h=est.h, dt_out=est.dt_sample)
    except IntegrationError as exc:
        return GraphReport(max_distance=np.inf, terminal_distance=np.inf,
                           tol=tol, error=str(exc))
    dist = _distance_curve(tau, est, traj)
    return GraphReport(max_distance=float(np.max(dist)),
                       terminal_distance=float(np.max(dist[-1])),
                       tol=tol)


# distances are checked every head_dt over the first _HEAD_WINDOW seconds,
# where the fast transient lives, then once a second
_HEAD_WINDOW = 0.5
_HEAD_DT = 0.01


def _check_rows(t: np.ndarray, head_dt: float):
    """(rows, times): the check times up to t[-1] that the output grid t holds
    to rounding, and their rows; a time between grid points is dropped."""
    horizon = t[-1]
    head = np.arange(0.0, min(_HEAD_WINDOW, horizon) + 1e-12, head_dt)
    coarse = np.arange(np.ceil(_HEAD_WINDOW), horizon + 1e-12, 1.0)
    times = np.unique(np.concatenate([head, coarse, [horizon]]))
    rows = np.searchsorted(t, times - 1e-12)
    held = np.abs(t[rows] - times) <= 1e-9
    return rows[held], times[held]


def graph_convergence_experiment(plant, exo, im, tau, est, G, sets, *,
                                 w0_sampler=None, n_runs: int = 50,
                                 horizon: float = 40.0, tol: float = 1e-4,
                                 curve_est: AttractorEstimate | None = None) -> GraphReport:
    """Random starts in Z x W x Xi, with Xi the driver's saturation box
    im.driver.s_box; the distance to the graph must fall below tol by the
    end of the horizon in every run.

    The terminal threshold is checked against est, which must resolve the
    attractor below tol.  The decay curve does not need that resolution, so
    when curve_est is given the intermediate distances, and so max_distance,
    are computed against it instead; expect the curve to floor out near its
    coverage radius."""
    rng = np.random.default_rng(sets.seed + 1)
    z0, w0, xi0, _ = sets.sample(exo, rng, n_runs, w0_sampler=w0_sampler,
                                 xi_box=im.driver.s_box)
    x0 = np.concatenate([z0, w0, xi0], axis=0)
    try:
        traj = run_observer_cascade(plant, exo, im, G, x0, (0.0, horizon),
                                    dt_out=_HEAD_DT)
    except IntegrationError as exc:
        return GraphReport(max_distance=np.inf, terminal_distance=np.inf,
                           tol=tol, error=str(exc))
    rows, _ = _check_rows(traj.t, _HEAD_DT)
    ref = est if curve_est is None else curve_est
    dist = _distance_curve(tau, ref, traj, rows)
    terminal = _distance_curve(tau, est, traj, rows[-1:])
    return GraphReport(max_distance=float(np.max(dist)),
                       terminal_distance=float(np.max(terminal)), tol=tol)


_ALPHA_REQ = 0.5
_SPREAD_FACTOR = 2.0
_PERTURB_T_MIN = 1.0
# kick sizes, one decay rate each
_PERTURB_SIZES = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class PerturbationReport:
    """A decay rate per kick size, None where too few samples cleared the
    floor; error is the integration failure's message, or None."""

    rates: list
    error: str | None = None

    @property
    def passed(self) -> bool:
        if self.error is not None or any(r is None for r in self.rates):
            return False
        return (min(self.rates) >= _ALPHA_REQ
                and max(self.rates) <= _SPREAD_FACTOR * min(self.rates))


def perturbation_decay_experiment(plant, exo, im, tau, est, G, *,
                                  n_runs: int = 20, horizon: float = 15.0,
                                  seed: int = 0) -> PerturbationReport:
    """Local attractiveness probe: kick z and xi off the graph by the
    geometric sizes _PERTURB_SIZES and compare fitted decay rates of the
    graph distance.

    w stays on the admissible set; the perturbation lives in the transverse
    (z, xi) directions only.  A kick must stay inside the driver's
    saturation box im.driver.s_box.  Every size's n_runs kicked starts ride
    in one batch of len(_PERTURB_SIZES) * n_runs columns; each size's rate
    is fitted on its own column slice."""
    zw0 = _matched_starts(est, horizon, n_runs)
    s_box = im.driver.s_box
    half_width = 0.5 * (s_box[:, 1] - s_box[:, 0])
    if max(_PERTURB_SIZES) / 2.0 >= float(np.min(half_width)):
        raise PreconditionError(f"perturbation {max(_PERTURB_SIZES):g} exceeds "
                                "the xi sample box; out of scope")
    n = plant.n
    xi_base = tau(zw0)
    rng = np.random.default_rng(seed + 77)
    starts = []
    for size in _PERTURB_SIZES:
        u_z = rng.standard_normal((n, n_runs))
        u_z /= np.sqrt(np.sum(u_z ** 2, axis=0, keepdims=True))
        u_xi = rng.standard_normal((im.d, n_runs))
        u_xi /= np.sqrt(np.sum(u_xi ** 2, axis=0, keepdims=True))
        starts.append(np.concatenate([zw0[:n] + 0.5 * size * u_z, zw0[n:],
                                      xi_base + 0.5 * size * u_xi], axis=0))
    try:
        traj = run_observer_cascade(plant, exo, im, G, np.concatenate(starts, axis=1),
                                    (0.0, horizon), h=est.h, dt_out=est.dt_sample)
    except IntegrationError as exc:
        return PerturbationReport(rates=[None] * len(_PERTURB_SIZES), error=str(exc))
    dist = _distance_curve(tau, est, traj)
    # skip the fast observer mode; the floor scales with the kick
    fits = [_median_fit(traj.t, dist[:, i * n_runs:(i + 1) * n_runs],
                        t_min=_PERTURB_T_MIN, floor=size * 1e-3)
            for i, size in enumerate(_PERTURB_SIZES)]
    rates = [None if fit is None else fit.alpha for fit in fits]
    return PerturbationReport(rates=rates)


# regulation --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunReport:
    """Aggregated regulation metrics over a sampled scenario set, for the
    controller cc that ran.  The integrator's settings and step counts are
    in trajectory.meta; error is the integration failure's message, or
    None, and a failed run has no trajectory.  driver_coefficients is the
    linear baseline's fitted driver, None for any other run."""

    cc: ControllerConfig
    t_bar: float | None
    tail_sup_e: float
    asymptotic: bool
    fit_e: DecayFit | None = None
    fit_chi: DecayFit | None = None
    fit_dist: DecayFit | None = None
    trajectory: Trajectory | None = None
    error: str | None = None
    driver_coefficients: np.ndarray | None = None

    @property
    def practical(self) -> bool:
        return self.t_bar is not None

    @property
    def passed(self) -> bool:
        return self.practical and self.asymptotic


def _settle_time(t: np.ndarray, abs_e: np.ndarray, eps: float):
    """First time after which |e| stays within eps through the horizon, per
    run: t[0] for a run never over eps, NaN for one still over eps at the
    last sample, else the time after its last sample over eps."""
    over = abs_e > eps
    last = over.shape[0] - 1 - np.argmax(over[::-1], axis=0)
    return np.where(over.any(axis=0), np.append(t, np.nan)[last + 1], t[0])


# asymptotic regulation is judged on sup |e| over the last fifth of the horizon
_TAIL_START = 0.8


def _floored_fit(t: np.ndarray, values: np.ndarray, floor: float) -> DecayFit | None:
    """_median_fit, or None when its window runs to the last sample: the
    median never reached its floor, so the slope is no decay rate."""
    fit = _median_fit(t, values, floor=floor)
    return None if fit is None or fit.window[1] == t[-1] else fit


def regulation_experiment(syn, cc: ControllerConfig, *, eps: float = 1e-2,
                          eps_asym: float = 1e-4, horizon: float = 100.0,
                          h: float = 1e-3, dt_out: float = 0.01,
                          fit_curves: bool = True, guard: float = DEFAULT_GUARD,
                          method: str = "rk4", rtol: float = 1e-9,
                          atol: float = 1e-12) -> RunReport:
    """Close the loop of syn's plant under cc from syn.sets.n_samples
    sampled Z x W x Xi x E states, with Xi the driver's saturation box
    cc.im.driver.s_box, and measure practical (enter and stay in the eps
    tube) and asymptotic (tail below eps_asym) regulation.  Graph distances
    are fitted against syn.est.  A decay fit is None when its median never
    reached the floor.  An eps or eps_asym that is not finite and > 0 raises
    ConfigError."""
    for name, tol in (("eps", eps), ("eps_asym", eps_asym)):
        if not (0 < tol < math.inf):
            raise ConfigError(f"{name} must be finite and > 0, got {tol!r}")
    if cc.k_bar <= 0:
        raise PreconditionError(
            f"regulation needs k_bar > 0, got {cc.k_bar:g} (k too small for this gain)")
    bench, sets, tau = syn.bench, syn.sets, syn.tau
    rng = np.random.default_rng(sets.seed + 2)
    z0, w0, xi0, e0 = sets.sample(bench.exo, rng, sets.n_samples,
                                  w0_sampler=bench.w0_sampler,
                                  xi_box=cc.im.driver.s_box)
    x0 = np.concatenate([z0, e0[None, :], w0, xi0], axis=0)
    step = {"h": h} if method == "rk4" else {"rtol": rtol, "atol": atol}
    try:
        traj = run_closed_loop(bench.plant, bench.exo, cc, x0, (0.0, horizon),
                               method=method, dt_out=dt_out, guard=guard, **step)
    except IntegrationError as exc:
        return RunReport(cc=cc, t_bar=None, tail_sup_e=np.inf, asymptotic=False,
                         error=str(exc))

    layout = traj.meta["layout"]
    abs_e = np.abs(traj.states[:, layout.e, :])
    settle = _settle_time(traj.t, abs_e, eps)
    t_bar = None if np.any(np.isnan(settle)) else float(np.max(settle))
    tail_sup = float(np.max(abs_e[traj.t >= _TAIL_START * horizon - 1e-12]))
    fit_e = fit_chi = fit_dist = None
    if fit_curves:
        floor = _noise_floor(method, rtol)
        fit_e = _floored_fit(traj.t, abs_e, floor)
        fit_chi = _floored_fit(traj.t, _chi_norms(tau, traj), floor)
        rows, times = _check_rows(traj.t, 0.05)
        dvals = _distance_curve(tau, syn.est, traj, rows)
        fit_dist = _floored_fit(times, dvals, _coverage_floor(syn.est))
    return RunReport(cc=cc, t_bar=t_bar, tail_sup_e=tail_sup,
                     asymptotic=tail_sup < eps_asym, fit_e=fit_e,
                     fit_chi=fit_chi, fit_dist=fit_dist, trajectory=traj)


# linear baseline -----------------------------------------------------------------


def fit_linear_driver(tau: TauChain, est: AttractorEstimate) -> np.ndarray:
    """Least-squares coefficients a with d-th derivative of the feedforward
    approximated by -(a . tau) over the cloud."""
    rows = tau.chain(est.points, tau.d + 1)
    A = rows[: tau.d].T
    b = -rows[tau.d]
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    return coef


def linear_baseline_experiment(syn, gd=None, k: float | None = None,
                               **run) -> RunReport:
    """Swap syn's driver for its best linear fit over syn.est, saturated on
    the same box (syn.im.driver.s_box), and rerun regulation; the keywords
    (eps, horizon, method, dt_out, ...) go to regulation_experiment unchanged
    and default as there.

    Defaults to mild comparator gains (kappa 2, k_bar 5).  Feedback
    attenuation of a feedforward mismatch grows roughly like kappa^2 * k_bar,
    so at aggressive designed gains any driver regulates practically; the
    asymptotic verdict only reflects the internal-model property when the
    loop is too gentle to mask it.  Pass gd and k to compare at other gains,
    matched against a nonlinear run at the same values.
    """
    tau, est = syn.tau, syn.est
    coef = fit_linear_driver(tau, est)
    if gd is None:
        gd = design_gains(tau.d, 2.0, lipschitz=float(np.linalg.norm(coef)))
    if k is None:
        k = float(np.asarray(gd.G).ravel()[0]) + 5.0

    def f_lin(eta):
        acc = coef[0] * eta[0]
        for i in range(1, len(coef)):
            acc = acc + coef[i] * eta[i]
        return acc

    driver = saturate(f_lin, syn.im.driver.s_box)
    im_lin = InternalModel(d=tau.d, driver=driver)
    cc = ControllerConfig(im=im_lin, gd=gd, k=k)
    return replace(regulation_experiment(syn, cc, **run), driver_coefficients=coef)


# gain auto-selection ---------------------------------------------------------------


_T_TARGET = 30.0
_PROBE_HORIZON = 50.0
_N_PROBE = 8
_K_BAR_MAX = 256.0


def auto_feedback_gain(syn, gd, *, eps: float = 1e-2) -> float:
    """Double k_bar, up to _K_BAR_MAX, until a probe scenario settles well
    inside the target time _T_TARGET; returns the full gain k = Gamma G + k_bar.

    Each probe integrates _N_PROBE scenarios, drawn at sets.seed + 13, over
    _PROBE_HORIZON as one batch on dopri5 at the default tolerances.  The
    verdict is coarse (enter the eps tube by 0.75 _T_TARGET and stay there),
    so the fixed RK4 grid would buy nothing but about ten times more steps."""
    gamma_g = float(np.asarray(gd.G).ravel()[0])
    probe = replace(syn, sets=replace(syn.sets, n_samples=_N_PROBE,
                                      seed=syn.sets.seed + 13))
    tried = []
    k_bar = 1.0
    while k_bar <= _K_BAR_MAX:
        k = gamma_g + k_bar
        cc = ControllerConfig(im=syn.im, gd=gd, k=k)
        rep = regulation_experiment(probe, cc, eps=eps, horizon=_PROBE_HORIZON,
                                    fit_curves=False, method="dopri5")
        ok = (rep.t_bar is not None and rep.t_bar <= 0.75 * _T_TARGET
              and rep.tail_sup_e < eps)
        if ok:
            return k
        tried.append(f"k_bar={k_bar:g} (t_bar={rep.t_bar}, "
                     f"tail_sup_e={rep.tail_sup_e:.3e})")
        k_bar *= 2.0
    raise SearchError(f"no feedback gain with k_bar <= {_K_BAR_MAX:g} met the "
                      f"settling target {_T_TARGET:g}; tried {', '.join(tried) or 'none'}")
