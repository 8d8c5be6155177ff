"""Attractor clouds, the graph-distance surrogate, decay fits, experiments.

The graph-distance oracles evaluate the surrogate at every cloud point.  The
window search must reproduce them bit for bit: it drops a point only when
its distance along the sorted axis alone exceeds a value the query already
has, and it sums in the oracle's order.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimreg import (
    ControllerConfig,
    ExosystemSpec,
    PlantSpec,
    ScenarioSets,
    build_gain,
    build_tau,
    design_gains,
    estimate_attractor,
    find_kappa_star,
    fit_decay,
    fit_linear_driver,
    get_benchmark,
    graph_distance,
    linear_baseline_experiment,
    place_poles,
    regulation_experiment,
    saturate,
)
import nimreg.analysis
from nimreg.analysis import (
    AttractorEstimate,
    _cell_keys,
    _chi_norms,
    _first_cells,
    _nearest,
    _settle_time,
    auto_feedback_gain,
    graph_convergence_experiment,
    graph_invariance_experiment,
    perturbation_decay_experiment,
    tau_image_box,
    tracking_error_decay,
)
from nimreg.errors import (
    BoundednessError,
    ConfigError,
    FitError,
    IntegrationError,
    PreconditionError,
    SearchError,
)
from nimreg.integrators import Trajectory
from nimreg.sim import StateLayout

from _oracles import check_forward_invariance


# clouds -----------------------------------------------------------------------


def test_estimate_attractor_deterministic(stacks):
    s = stacks("harmonic")
    again = estimate_attractor(s.bench.plant, s.bench.exo, s.sets,
                               w0_sampler=s.bench.w0_sampler)
    assert np.array_equal(s.est.points, again.points)


def test_matched_cloud_structure(matched_clouds):
    est = matched_clouds("harmonic")
    assert est.matched
    assert est.block_len is not None
    assert est.n_sources == 20
    assert est.points.shape[1] == 20 * est.block_len


def test_thinned_cloud_covers_raw_samples():
    bench = get_benchmark("harmonic")
    sets = bench.scenario_sets(n_samples=4)
    kw = dict(w0_sampler=bench.w0_sampler, n_sources=4, transient_time=5.0,
              sample_time=3.0)
    resolution = 2e-3
    thinned = estimate_attractor(bench.plant, bench.exo, sets,
                                 resolution=resolution, **kw)
    raw = estimate_attractor(bench.plant, bench.exo, sets, resolution=None, **kw)
    # every raw sample sits within one grid-cell diagonal of a kept point
    gaps = _nearest(raw.points, thinned.points)
    assert float(np.max(gaps)) <= resolution * np.sqrt(3.0) + 1e-12


def test_chunked_cloud_equals_the_one_chunk_cloud(monkeypatch):
    # each thinned chunk merges into the running cloud, which keeps every
    # cell's first point in fill order: many chunks per source build the
    # one-chunk cloud exactly
    bench = get_benchmark("harmonic")
    sets = bench.scenario_sets(n_samples=3)
    kw = dict(w0_sampler=bench.w0_sampler, transient_time=5.0, sample_time=3.0,
              resolution=2e-3)
    fills = []
    original = nimreg.analysis._hermite

    def counting(*args):
        fills.append(None)
        return original(*args)

    monkeypatch.setattr(nimreg.analysis, "_hermite", counting)
    monkeypatch.setattr(nimreg.analysis, "_FILL_POINTS", 1e12)
    whole = estimate_attractor(bench.plant, bench.exo, sets, **kw)
    assert len(fills) == 3
    monkeypatch.setattr(nimreg.analysis, "_FILL_POINTS", 200)
    chunked = estimate_attractor(bench.plant, bench.exo, sets, **kw)
    assert len(fills) > 3 + 2 * 3
    assert np.array_equal(whole.points, chunked.points)


def _spy_key_kinds(monkeypatch):
    """Record the dtype kind of every block's cell keys: "i" for folded
    int64 keys, "V" for byte records."""
    kinds = []
    real = nimreg.analysis._cell_keys

    def spy(lo, hi):
        key = real(lo, hi)

        def keyed(grid):
            keys = key(grid)
            kinds.append(keys.dtype.kind)
            return keys

        return keyed

    monkeypatch.setattr(nimreg.analysis, "_cell_keys", spy)
    return kinds


def test_key_overflow_fallback_builds_the_streamed_cloud(monkeypatch):
    # past _KEY_LIMIT cells each block's keys are byte records, which sort
    # differently from folded int64 keys: the same one pass keeps the same
    # first points
    bench = get_benchmark("harmonic")
    sets = bench.scenario_sets(n_samples=3)
    kw = dict(w0_sampler=bench.w0_sampler, transient_time=5.0, sample_time=3.0,
              resolution=2e-3)
    kinds = _spy_key_kinds(monkeypatch)
    monkeypatch.setattr(nimreg.analysis, "_FILL_POINTS", 200)
    folded = estimate_attractor(bench.plant, bench.exo, sets, **kw)
    assert len(kinds) > 2 * 3 and set(kinds) == {"i"}
    kinds.clear()
    monkeypatch.setattr(nimreg.analysis, "_KEY_LIMIT", 1)
    records = estimate_attractor(bench.plant, bench.exo, sets, **kw)
    assert len(kinds) > 2 * 3 and set(kinds) == {"V"}
    assert np.array_equal(folded.points, records.points)


# the harmonic fine cloud: one source at resolution 1.5e-5, about 6e5 points
_FINE = dict(n_sources=1, transient_time=20.0, sample_time=8.0, resolution=1.5e-5)


def _traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced above the start while fn ran)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


def _assert_fine_cloud_peak_is_a_few_clouds_and_one_block():
    # kept points, their one concatenation and the sorted cell keys, plus one
    # 2e5-point dense block and its Hermite and key temporaries
    bench = get_benchmark("harmonic")
    est, peak = _traced_peak(lambda: estimate_attractor(
        bench.plant, bench.exo, bench.scenario_sets(),
        w0_sampler=bench.w0_sampler, **_FINE))
    m, n_pts = est.points.shape
    assert n_pts > 500_000
    block = m * 200_000 * 8
    assert peak < 3 * est.points.nbytes + 4 * block


def test_fine_cloud_peak_memory_is_a_few_clouds_and_one_block():
    _assert_fine_cloud_peak_is_a_few_clouds_and_one_block()


def test_fine_cloud_on_record_keys_keeps_the_folded_key_bound(monkeypatch):
    # sorted keys of 8m bytes in place of 8 still fit the same bound
    monkeypatch.setattr(nimreg.analysis, "_KEY_LIMIT", 1)
    kinds = _spy_key_kinds(monkeypatch)
    _assert_fine_cloud_peak_is_a_few_clouds_and_one_block()
    assert set(kinds) == {"V"}


def test_graph_distance_peak_memory_is_one_reference_array(stacks, fine_clouds):
    # the (n+r+d, N) sorted reference array and the sort's int64 indices,
    # plus 8 MB for one block of tau's jets and the window search
    s = stacks("harmonic")
    est = fine_clouds("harmonic")
    rng = np.random.default_rng(2)
    zw = est.points[:, rng.integers(0, est.points.shape[1], 20)]
    states = np.concatenate([zw, s.tau(zw)]) + 1e-5
    dist, peak = _traced_peak(lambda: graph_distance(s.tau, est, states))
    assert np.all(dist < 1e-4)
    rows, n_pts = states.shape[0], est.points.shape[1]
    assert n_pts > 500_000
    assert peak < rows * n_pts * 8 + 2 * n_pts * 8 + 8e6


def _vdp_batch(n_pts: int, batch: int):
    """(tau, a trajectory of n_pts x batch random vdp closed-loop states)."""
    bench = get_benchmark("vdp")
    tau = build_tau(bench.plant, bench.exo, bench.d)
    states = np.random.default_rng(6).uniform(-2.0, 2.0, (n_pts, 6, batch))
    layout = StateLayout(n=1, r=2, d=2, has_error=True)
    return tau, Trajectory(np.arange(n_pts) * 0.01, states, {"layout": layout})


def _chi_at_once(tau, traj):
    """|xi - tau(z, w)| over every (time, run) pair in one evaluation of tau."""
    x = traj.states.transpose(1, 0, 2)  # slots [z, e, w1, w2, xi1, xi2]
    zw, xi = x[[0, 2, 3]].reshape(3, -1), x[[4, 5]].reshape(2, -1)
    return np.sqrt(np.sum((xi - tau(zw)) ** 2, axis=0)).reshape(traj.t.size, -1)


@pytest.mark.parametrize("block", [2, 7, 64])
def test_chi_norms_blocks_leave_every_value(monkeypatch, block):
    # blocks of one time row (the batch is wider than the block), of two,
    # and one block for the whole trajectory
    tau, traj = _vdp_batch(11, 3)
    monkeypatch.setattr(nimreg.analysis, "_TAU_BLOCK", block)
    assert np.array_equal(_chi_norms(tau, traj), _chi_at_once(tau, traj))


def test_chi_norms_peak_memory_is_one_block():
    # the (n_pts, batch) output, plus one block's (z, w, xi) copies and tau's
    # jet temporaries: about 20 rows of _TAU_BLOCK columns
    tau, traj = _vdp_batch(10_001, 50)
    norms, peak = _traced_peak(lambda: _chi_norms(tau, traj))
    assert traj.states.shape[0] * traj.states.shape[2] > 7 * nimreg.analysis._TAU_BLOCK
    assert peak < norms.nbytes + 32 * nimreg.analysis._TAU_BLOCK * 8
    assert np.array_equal(norms, _chi_at_once(tau, traj))


def _thin_by_rows(points, resolution):
    """The first of the (N, m) points in each occupied cell, in input order,
    by np.unique over whole key rows: the reference for both key kinds."""
    keys = np.floor(points / resolution).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(idx)]


def _first_cells_in_blocks(points, resolution, n_blocks):
    """(_first_cells over the (m, N) points cut into n_blocks blocks, with the
    ranges of their own cells; the dtype kind of its cell keys)."""
    grid = np.floor(points / resolution).astype(np.int64)
    lo, hi = grid.min(axis=1), grid.max(axis=1)
    kind = _cell_keys(lo, hi)(grid).dtype.kind
    blocks = np.array_split(points, n_blocks, axis=1)
    return _first_cells(blocks, resolution, lo, hi), kind


@settings(max_examples=40, deadline=None)
@given(n=st.integers(6, 3000), m=st.integers(1, 6), width=st.integers(1, 300),
       log_res=st.floats(-3.0, 0.0), n_blocks=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_first_cells_on_both_key_kinds_match_row_unique(n, m, width, log_res,
                                                        n_blocks, seed):
    # at most 2 width + 2 cells per axis, so the keys fold, until _KEY_LIMIT
    # is cut to 0; the points of every third one repeated at the end put
    # cells of the first blocks into the last
    rng = np.random.default_rng(seed)
    resolution = 10.0 ** log_res
    cells = rng.integers(-width, width, size=(n, m)) + rng.uniform(size=(n, m))
    points = cells * resolution
    points = np.concatenate([points, points[::3]])
    expected = _thin_by_rows(points, resolution).T
    folded, kind = _first_cells_in_blocks(points.T, resolution, n_blocks)
    assert kind == "i"
    np.testing.assert_array_equal(folded, expected)
    with mock.patch.object(nimreg.analysis, "_KEY_LIMIT", 0):
        records, kind = _first_cells_in_blocks(points.T, resolution, n_blocks)
    assert kind == "V"
    np.testing.assert_array_equal(records, expected)


def test_first_cells_use_record_keys_when_the_cells_overflow_int64():
    rng = np.random.default_rng(3)
    points = rng.uniform(-1e5, 1e5, size=(500, 4))
    points = np.concatenate([points, points[::7]])
    resolution = 1e-6
    # per-axis key ranges of about 2e11: their product overflows int64
    cloud, kind = _first_cells_in_blocks(points.T, resolution, 3)
    assert kind == "V"
    assert cloud.shape == (4, 500)
    np.testing.assert_array_equal(cloud, _thin_by_rows(points, resolution).T)


def _stationary(n):
    """Zero dynamics at rest everywhere: z' = 0 in n axes, w' = 0."""
    plant = PlantSpec(n=n, f0=lambda z, w: tuple(0.0 * zi for zi in z),
                      f1=lambda z, e, w: (0.0,), q=lambda z, e, w: e)
    exo = ExosystemSpec(r=1, s=lambda w: (0.0 * w[0],), w_box=[[-1.0, 1.0]])
    return plant, exo


def test_stationary_zero_dynamics_cloud_is_the_thinned_sources():
    # zero speed everywhere: one sub-position per interval, and every
    # retained sample is its source
    plant, exo = _stationary(1)
    sets = ScenarioSets(z_box=[[-1.0, 1.0]], e_interval=[-0.1, 0.1], n_samples=30)
    resolution = 0.2
    est = estimate_attractor(plant, exo, sets, transient_time=1.0,
                             sample_time=0.5, resolution=resolution)
    np.testing.assert_array_equal(est.points,
                                  _thin_by_rows(est.sources.T, resolution).T)
    assert est.points.shape[1] < est.n_sources


def test_cloud_past_the_int64_cell_limit_is_the_thinned_sources():
    # four z axes of about 2e7 cells each: far past 2^63 cells, so the keys
    # are byte records with nothing patched
    plant, exo = _stationary(4)
    sets = ScenarioSets(z_box=[[-1e3, 1e3]] * 4, e_interval=[-0.1, 0.1],
                        n_samples=30)
    resolution = 1e-4
    est = estimate_attractor(plant, exo, sets, transient_time=1.0,
                             sample_time=0.5, resolution=resolution)
    assert np.prod(np.ptp(est.sources[:4], axis=1) / resolution) > 2.0 ** 63
    np.testing.assert_array_equal(est.points,
                                  _thin_by_rows(est.sources.T, resolution).T)


@pytest.mark.parametrize("bad", [
    dict(resolution=0.0), dict(resolution=-1e-3), dict(resolution=float("nan")),
    dict(resolution=float("inf")), dict(transient_time=-1.0),
    # one retained sample per source: nothing to fill between
    dict(transient_time=2.0, sample_time=1e-3),
])
def test_bad_cloud_settings_raise_config_error(bad):
    bench = get_benchmark("harmonic")
    kw = dict(w0_sampler=bench.w0_sampler, n_sources=2, transient_time=2.0,
              sample_time=1.0)
    with pytest.raises(ConfigError):
        estimate_attractor(bench.plant, bench.exo, bench.scenario_sets(),
                           **{**kw, **bad})


def test_estimate_attractor_raises_boundedness():
    plant = PlantSpec(n=1, f0=lambda z, w: (z[0] * z[0] + 1.0,),
                      f1=lambda z, e, w: (0.0,), q=lambda z, e, w: e)
    exo = ExosystemSpec(r=1, s=lambda w: (0.0,), w_box=[[0.0, 0.0]])
    sets = ScenarioSets(z_box=[[0.5, 1.0]], e_interval=[-0.1, 0.1], n_samples=4)
    with pytest.raises(BoundednessError) as err:
        estimate_attractor(plant, exo, sets, n_sources=4, transient_time=5.0,
                           sample_time=1.0, guard=1e3)
    assert err.value.evidence["t_fail"] is not None


def test_forward_invariance_harmonic(stacks):
    s = stacks("harmonic")
    worst = check_forward_invariance(s.est, s.bench.plant, s.bench.exo)
    assert worst < 1e-3


# graph distance ---------------------------------------------------------------


def _brute_surrogate(tau, est, state):
    pts = est.points
    tau_p = tau(pts)
    nr = pts.shape[0]
    zw, xi = state[:nr], state[nr:]
    best = np.inf
    for j in range(pts.shape[1]):
        val = (np.linalg.norm(zw - pts[:, j])
               + np.linalg.norm(xi - tau_p[:, j]))
        best = min(best, val)
    return best


def test_graph_distance_zero_on_graph_points(stacks):
    s = stacks("harmonic")
    for j in (0, 57, 1001):
        p = s.est.points[:, j % s.est.points.shape[1]]
        state = np.concatenate([p, s.tau(p[:, None])[:, 0]])
        assert graph_distance(s.tau, s.est, state) == 0.0


def test_graph_distance_matches_brute_force(stacks):
    s = stacks("harmonic")
    rng = np.random.default_rng(6)
    states = rng.uniform(-2, 2, size=(5, 12))
    fast = graph_distance(s.tau, s.est, states)
    for j in range(12):
        slow = _brute_surrogate(s.tau, s.est, states[:, j])
        assert slow - 1e-12 <= fast[j] < slow + 1e-12
        assert fast[j] >= 0.0


def _exact_graph_distance(tau, est, states):
    """The surrogate's per-block formula at every cloud point, vectorised."""
    pts = est.points
    nr = pts.shape[0]
    zw = np.sqrt(np.sum((states[:nr, :, None] - pts[:, None, :]) ** 2, axis=0))
    xi = np.sqrt(np.sum((states[nr:, :, None] - tau(pts)[:, None, :]) ** 2, axis=0))
    return np.min(zw + xi, axis=1)


def _cloud(points):
    return AttractorEstimate(points=points, sources=points[:, :1],
                             sample_time=0.0, h=1e-3,
                             dt_sample=1e-2)


def _draw_points(kind, n, rng):
    """(3, n) cloud: a closed curve, a Gaussian blob, one point, or n copies
    of one point (zero extent)."""
    center = rng.uniform(-2.0, 2.0, size=(3, 1))
    if kind == "curve":
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        amp = rng.uniform(0.1, 2.0, size=(3, 1))
        freq = rng.integers(1, 4, size=(3, 1))
        return center + amp * np.cos(freq * t + rng.uniform(0.0, 6.0, size=(3, 1)))
    if kind == "blob":
        return center + rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3.0, 0.5)
    return np.repeat(center, 1 if kind == "point" else n, axis=1)


def _draw_queries(tau, pts, n_q, rng):
    """Queries near cloud points at distances from 1e-10 to the cloud's
    size, some moved outside the cloud's key range in (z, w), and xi from
    on the graph to far off it."""
    base = pts[:, rng.integers(0, pts.shape[1], n_q)]
    size = max(float(np.max(np.ptp(pts, axis=1))), 1e-3)
    zw = base + rng.normal(size=base.shape) * size * 10.0 ** rng.uniform(-10.0, 0.0, n_q)
    outside = rng.uniform(size=n_q) < 0.2
    zw[:, outside] += (rng.choice([-1.0, 1.0], size=(3, int(outside.sum())))
                       * size * rng.uniform(2.0, 50.0, int(outside.sum())))
    off = np.where(rng.uniform(size=n_q) < 0.3, 0.0,
                   size * 10.0 ** rng.uniform(-10.0, 2.0, n_q))
    xi = tau(base) + rng.normal(size=(tau.d, n_q)) * off
    return np.concatenate([zw, xi])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["curve", "blob", "point", "flat"]),
       n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_graph_distance_is_exact(stacks, kind, n, seed):
    tau = stacks("harmonic").tau
    rng = np.random.default_rng(seed)
    est = _cloud(_draw_points(kind, n, rng))
    states = _draw_queries(tau, est.points, 40, rng)
    np.testing.assert_array_equal(graph_distance(tau, est, states),
                                  _exact_graph_distance(tau, est, states))


def test_window_search_gathers_few_pairs_near_the_graph(stacks, monkeypatch):
    # a query near the graph evaluates a few dozen pairs at most beyond its
    # 16-point seed; the one 1e3 off the graph in xi gathers the whole cloud
    tau = stacks("harmonic").tau
    rng = np.random.default_rng(11)
    est = _cloud(_draw_points("curve", 2000, rng))
    base = est.points[:, [3, 500, 1500]]
    zw = base + np.array([0.0, 1e-6, 1e-2])
    xi = tau(base) + np.array([[0.0, 1e-5, 1e3]])
    states = np.concatenate([zw, xi])
    gathered = []
    real = nimreg.analysis._ranges_min
    monkeypatch.setattr(nimreg.analysis, "_ranges_min",
                        lambda q, r, first, count, cols:
                        gathered.append(count.copy()) or real(q, r, first, count, cols))
    dist = graph_distance(tau, est, states)
    seed, window = gathered
    np.testing.assert_array_equal(seed, 16)
    assert np.all(window[:2] <= 36)
    assert window[2] == 2000
    np.testing.assert_array_equal(dist, _exact_graph_distance(tau, est, states))


def test_nearest_edge_cases():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(3, 50))

    def tail(p):
        return np.stack([p[0] * p[1], p[2] - p[0]])

    t = tail(r)
    q, x = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))
    q[0, 0] = np.nan                  # NaN on any axis of the first block
    x[1, 1] = np.nan                  # NaN in a later block
    q[2, 2] = np.inf
    x[0, 3] = -np.inf
    dist = _nearest(np.concatenate([q, x]), r, tail)
    assert np.isnan(dist[0]) and np.isnan(dist[1])
    assert dist[2] == np.inf and dist[3] == np.inf
    assert dist[4] == np.min(np.sqrt(np.sum((q[:, 4:] - r) ** 2, axis=0))
                             + np.sqrt(np.sum((x[:, 4:] - t) ** 2, axis=0)))
    assert _nearest(np.concatenate([q, x])[:, :0], r, tail).shape == (0,)


def test_graph_distance_bounds_euclidean_to_graph(stacks):
    # surrogate |zw-p| + |xi-tau(p)| dominates the Euclidean distance to the
    # graph restricted to the cloud
    s = stacks("harmonic")
    tau_p = s.tau(s.est.points)
    rng = np.random.default_rng(7)
    states = rng.uniform(-2, 2, size=(5, 8))
    fast = graph_distance(s.tau, s.est, states)
    nr = s.est.points.shape[0]
    for j in range(8):
        diff_zw = s.est.points - states[:nr, j:j + 1]
        diff_xi = tau_p - states[nr:, j:j + 1]
        euclid = np.sqrt(np.sum(diff_zw ** 2, axis=0) + np.sum(diff_xi ** 2, axis=0))
        assert np.min(euclid) <= fast[j] + 1e-12


def test_graph_distance_lipschitz_in_xi(stacks):
    s = stacks("harmonic")
    rng = np.random.default_rng(8)
    zw = rng.uniform(-1.5, 1.5, size=3)
    for _ in range(50):
        xi1 = rng.uniform(-2, 2, size=2)
        xi2 = rng.uniform(-2, 2, size=2)
        d1 = graph_distance(s.tau, s.est, np.concatenate([zw, xi1]))
        d2 = graph_distance(s.tau, s.est, np.concatenate([zw, xi2]))
        assert abs(d1 - d2) <= np.linalg.norm(xi1 - xi2) + 1e-12


def test_graph_distance_validates_slots(stacks):
    s = stacks("harmonic")
    from nimreg.errors import ConfigError
    with pytest.raises(ConfigError):
        graph_distance(s.tau, s.est, np.zeros(4))


# image boxes --------------------------------------------------------------------


def test_tau_image_box_strictly_contains_extent(stacks):
    s = stacks("harmonic")
    tau = build_tau(s.bench.plant, s.bench.exo, s.bench.d)
    box = tau_image_box(tau, s.est)
    assert np.all(box[:, 0] < tau.image_extent[:, 0])
    assert np.all(box[:, 1] > tau.image_extent[:, 1])
    # unit-circle exosystem: extent approaches [-1, 1] on each axis
    assert np.allclose(tau.image_extent, [[-1, 1], [-1, 1]], atol=5e-3)
    # the synthesized driver saturates outside the same box
    assert np.array_equal(s.im.driver.s_box, box)


def test_tau_image_box_floor_on_degenerate_image(stacks):
    s = stacks("static")
    assert np.allclose(s.im.driver.s_box, [[-1e-3, 1e-3]], atol=1e-15)


# decay fitting -------------------------------------------------------------------


def test_fit_decay_recovers_exponential():
    # M is the overshoot factor relative to magnitude(0), so a pure
    # exponential fits with M = 1 regardless of amplitude
    t = np.linspace(0, 10, 400)
    mag = 3.0 * np.exp(-0.7 * t)
    fit = fit_decay(t, mag, floor=1e-12)
    assert abs(fit.alpha - 0.7) < 1e-9
    assert abs(fit.M - 1.0) < 1e-9
    assert fit.n_points == 400


def test_fit_decay_floor_excludes_settled_tail():
    t = np.linspace(0, 40, 800)
    mag = np.maximum(np.exp(-2.0 * t), 1e-13)
    fit = fit_decay(t, mag, floor=1e-10)
    assert abs(fit.alpha - 2.0) < 1e-6
    assert fit.n_points < 800


@settings(max_examples=60, deadline=None)
@given(amp=st.floats(1e-3, 1e3), rate=st.floats(0.05, 50.0),
       decades=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_fit_decay_stops_at_first_floor_crossing(amp, rate, decades, seed):
    # an exponential down to the floor, then noise that comes back above it:
    # the window is the leading run above the floor and nothing after it
    floor = amp * 10.0 ** -decades
    t_cross = np.log(amp / floor) / rate
    t = np.linspace(0.0, 4.0 * t_cross, 201)
    mag = amp * np.exp(-rate * t)
    first = int(np.flatnonzero(mag <= floor)[0])
    rng = np.random.default_rng(seed)
    mag[first + 1:] = floor * rng.uniform(0.5, 10.0, t.size - first - 1)
    fit = fit_decay(t, mag, floor=floor)
    assert fit.alpha == pytest.approx(rate, rel=1e-6)
    assert fit.window[1] < t[first]
    assert fit.n_points == first


def test_fit_decay_needs_enough_points():
    t = np.linspace(0, 1, 30)
    mag = np.full(30, 1e-15)
    with pytest.raises(FitError):
        fit_decay(t, mag, floor=1e-9)


def test_fit_linear_driver_harmonic_is_identity_row(stacks):
    s = stacks("harmonic")
    coef = fit_linear_driver(s.tau, s.est)
    assert abs(coef[0] - 1.0) < 1e-9
    assert abs(coef[1]) < 1e-9


# experiment preconditions ---------------------------------------------------------


def _runs(syn, n_runs: int):
    """syn with n_runs scenarios, drawn from its own seed."""
    return replace(syn, sets=replace(syn.sets, n_samples=n_runs))


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(1, 30), n_runs=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_settle_time_matches_a_per_run_loop(n_t, n_runs, seed):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.1, 1.0, n_t))
    # mostly settled tails, with runs never over eps and runs over at the end
    abs_e = rng.uniform(0.0, 2.0, (n_t, n_runs)) * (rng.uniform(size=(n_t, 1)) < 0.5)
    expected = []
    for j in range(n_runs):
        over = np.flatnonzero(abs_e[:, j] > 1.0)
        if over.size == 0:
            expected.append(t[0])
        elif over[-1] == n_t - 1:
            expected.append(np.nan)
        else:
            expected.append(t[over[-1] + 1])
    np.testing.assert_array_equal(_settle_time(t, abs_e, 1.0), expected)


def test_failed_regulation_reports_the_error_without_a_trajectory(stacks):
    s = stacks("harmonic")
    gd = design_gains(2, 4.0, lipschitz=s.im.driver.L)
    cc = ControllerConfig(im=s.im, gd=gd, k=float(gd.G[0]) + 5.0)
    rep = regulation_experiment(_runs(s, 3), cc, horizon=5.0, guard=2.5)
    assert rep.error.startswith("state magnitude exceeded 2.5 at t=")
    assert rep.trajectory is None and not rep.passed


def test_invariance_requires_matched_cloud(stacks):
    s = stacks("harmonic")
    gd = design_gains(2, 2.0, lipschitz=s.im.driver.L)
    with pytest.raises(PreconditionError):
        graph_invariance_experiment(s.bench.plant, s.bench.exo, s.im, s.tau,
                                    s.est, gd.G)


def test_invariance_requires_long_enough_cloud(stacks, matched_clouds):
    s = stacks("harmonic")
    est = matched_clouds("harmonic")
    gd = design_gains(2, 2.0, lipschitz=s.im.driver.L)
    with pytest.raises(PreconditionError):
        graph_invariance_experiment(s.bench.plant, s.bench.exo, s.im, s.tau,
                                    est, gd.G, horizon=2 * est.sample_time)


def test_regulation_rejects_nonpositive_k_bar(stacks):
    s = stacks("static")
    gd = design_gains(1, 1.5, lipschitz=s.im.driver.L)
    cc = ControllerConfig(im=s.im, gd=gd, k=float(gd.G[0]))  # k_bar = 0
    with pytest.raises(PreconditionError):
        regulation_experiment(s, cc, horizon=1.0)


def test_perturbation_ladder_rejects_degenerate_xi_box(stacks):
    # static benchmark: tau image box is floored at 1e-3 half-width, so a
    # 1e-1 kick leaves the sampled region and is out of scope by contract
    s = stacks("static")
    est = estimate_attractor(s.bench.plant, s.bench.exo, s.sets,
                             w0_sampler=s.bench.w0_sampler, n_sources=20,
                             transient_time=5.0, sample_time=20.0,
                             dt_sample=0.1, resolution=None)
    gd = design_gains(1, 1.5, lipschitz=s.im.driver.L)
    with pytest.raises(PreconditionError):
        perturbation_decay_experiment(s.bench.plant, s.bench.exo, s.im, s.tau,
                                      est, gd.G, horizon=15.0)


def test_perturbation_runs_one_cascade(stacks, matched_clouds, kappa_stars,
                                      monkeypatch):
    import nimreg.analysis

    s = stacks("harmonic")
    est, G = matched_clouds("harmonic"), kappa_stars("harmonic").design.G
    widths = []
    original = nimreg.analysis.run_observer_cascade

    def recording(plant, exo, im, G, x0, *args, **kwargs):
        widths.append(np.shape(x0)[1])
        return original(plant, exo, im, G, x0, *args, **kwargs)

    monkeypatch.setattr(nimreg.analysis, "run_observer_cascade", recording)
    sizes = (1e-1, 1e-2, 1e-3)
    monkeypatch.setattr(nimreg.analysis, "_PERTURB_SIZES", sizes)
    rep = perturbation_decay_experiment(s.bench.plant, s.bench.exo, s.im, s.tau,
                                        est, G, n_runs=4, horizon=6.0)
    assert widths == [len(sizes) * 4]
    assert len(rep.rates) == len(sizes)


def test_perturbation_rate_independent_of_other_sizes(stacks, matched_clouds,
                                                      kappa_stars, monkeypatch):
    # a size's kicks are drawn first and its columns ride alone in their
    # slice of the batch, so a second size leaves its rate bit for bit
    s = stacks("harmonic")
    kw = dict(n_runs=4, horizon=6.0, seed=5)
    args = (s.bench.plant, s.bench.exo, s.im, s.tau, matched_clouds("harmonic"),
            kappa_stars("harmonic").design.G)
    monkeypatch.setattr(nimreg.analysis, "_PERTURB_SIZES", (1e-2,))
    alone = perturbation_decay_experiment(*args, **kw)
    monkeypatch.setattr(nimreg.analysis, "_PERTURB_SIZES", (1e-2, 1e-3))
    paired = perturbation_decay_experiment(*args, **kw)
    assert alone.rates[0] is not None
    assert repr(paired.rates[0]) == repr(alone.rates[0])


def test_perturbation_integration_failure_is_a_failed_verdict(stacks):
    # kappa = 1e4 puts an observer pole near -1e4, far past rk4's stability
    # limit at h = 1e-3: the kicked batch passes the guard within 0.1 s
    s = stacks("harmonic")
    est = estimate_attractor(s.bench.plant, s.bench.exo, s.sets,
                             w0_sampler=s.bench.w0_sampler, n_sources=2,
                             transient_time=5.0, sample_time=2.0,
                             dt_sample=0.1, resolution=None)
    rep = perturbation_decay_experiment(s.bench.plant, s.bench.exo, s.im, s.tau, est,
                                        build_gain(place_poles(2), 1e4),
                                        n_runs=2, horizon=2.0)
    assert rep.error.startswith("state magnitude exceeded 1e+09 at t=")
    assert rep.rates == [None] * len(nimreg.analysis._PERTURB_SIZES)
    assert not rep.passed


def test_invariance_integration_failure_is_a_failed_verdict(stacks, matched_clouds,
                                                             monkeypatch):
    s = stacks("harmonic")

    def diverging(*args, **kwargs):
        raise IntegrationError("state magnitude exceeded 1e+09 at t=0.5", t_fail=0.5)

    monkeypatch.setattr(nimreg.analysis, "run_observer_cascade", diverging)
    gd = design_gains(2, 2.0, lipschitz=s.im.driver.L)
    rep = graph_invariance_experiment(s.bench.plant, s.bench.exo, s.im, s.tau,
                                      matched_clouds("harmonic"), gd.G, horizon=5.0)
    assert rep.error == "state magnitude exceeded 1e+09 at t=0.5"
    assert rep.max_distance == rep.terminal_distance == np.inf
    assert not rep.passed


def test_auto_feedback_gain_exhaustion(stacks, monkeypatch):
    s = stacks("static")
    gd = design_gains(1, 1.5, lipschitz=s.im.driver.L)
    # below the first candidate, k_bar = 1: the search has nothing to try
    monkeypatch.setattr(nimreg.analysis, "_K_BAR_MAX", 0.5)
    with pytest.raises(SearchError, match="tried none"):
        auto_feedback_gain(s, gd)
    # no probe settles by a target this close: the message names every
    # k_bar tried, with its settle time and tail
    monkeypatch.setattr(nimreg.analysis, "_K_BAR_MAX", 2.0)
    monkeypatch.setattr(nimreg.analysis, "_T_TARGET", 1e-9)
    with pytest.raises(SearchError) as err:
        auto_feedback_gain(s, gd)
    assert "k_bar=1 (t_bar=" in str(err.value)
    assert "k_bar=2 (t_bar=" in str(err.value)
    assert "k_bar=4" not in str(err.value)


def test_regulation_dopri5_reports_steps_of_every_run(stacks, monkeypatch):
    import nimreg.sim

    s = stacks("harmonic")
    calls = []
    original = nimreg.sim.integrate

    def recording(rhs, x0, *args, **kwargs):
        traj = original(rhs, x0, *args, **kwargs)
        calls.append((np.shape(x0), dict(traj.meta)))
        return traj

    monkeypatch.setattr(nimreg.sim, "integrate", recording)
    gd = design_gains(2, 4.0, lipschitz=s.im.driver.L)
    cc = ControllerConfig(im=s.im, gd=gd, k=float(gd.G[0]) + 5.0)
    rep = regulation_experiment(_runs(s, 3), cc, horizon=5.0, fit_curves=False,
                                method="dopri5")
    # every run rides in one batch with one shared step sequence
    assert len(calls) == 1
    shape, meta = calls[0]
    assert shape[1:] == (3,)
    ran = rep.trajectory.meta
    assert ran["n_steps"] == meta["n_steps"] > 0
    assert ran["n_rejected"] == meta["n_rejected"]
    # the report records the settings that ran, not rk4's step
    assert ran["rtol"] == 1e-9 and ran["atol"] == 1e-12
    assert "h" not in ran


def test_auto_feedback_gain_probes_once_on_dopri5(stacks, kappa_stars,
                                                  monkeypatch):
    import nimreg.analysis

    s = stacks("harmonic")
    gd = kappa_stars("harmonic").design
    methods = []
    original = nimreg.analysis.regulation_experiment

    def recording(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return original(*args, **kwargs)

    monkeypatch.setattr(nimreg.analysis, "regulation_experiment", recording)
    k = auto_feedback_gain(s, gd)
    # the first candidate, k_bar = 1, settles: one batched adaptive probe
    assert methods == ["dopri5"]
    assert k == float(gd.G[0]) + 1.0


def test_regulation_dopri5_chi_rate_is_tolerance_independent(stacks,
                                                             kappa_stars):
    # below about 10 rtol the chi norm of an adaptive run is integration
    # noise; a fit that reaches into it reads a different rate per rtol
    s = stacks("vdp")
    cc = ControllerConfig(im=s.im, gd=kappa_stars("vdp").design, k=130.0)
    alphas = [
        regulation_experiment(_runs(s, 4), cc, horizon=60.0, method="dopri5",
                              rtol=rtol).fit_chi.alpha
        for rtol in (1e-9, 1e-10)]
    assert alphas[1] == pytest.approx(alphas[0], rel=0.02)


def test_regulation_fits_distances_only_at_held_check_times(stacks, monkeypatch):
    # the graph distance is checked every 0.05 s at first; an output grid of
    # 0.1 s holds every other one of those times, and the fit must see only
    # those, at their own times
    s = stacks("harmonic")
    fitted = []
    original = nimreg.analysis._median_fit

    def recording(t, values, **fit):
        fitted.append((np.array(t), np.array(values)))
        return original(t, values, **fit)

    monkeypatch.setattr(nimreg.analysis, "_median_fit", recording)
    gd = design_gains(2, 4.0, lipschitz=s.im.driver.L)
    cc = ControllerConfig(im=s.im, gd=gd, k=float(gd.G[0]) + 8.0)
    rep = regulation_experiment(_runs(s, 3), cc, horizon=6.0, dt_out=0.1)
    traj = rep.trajectory
    times, dvals = fitted[-1]
    rows = np.searchsorted(traj.t, times - 1e-12)
    assert np.max(np.abs(traj.t[rows] - times)) < 1e-9
    assert np.unique(rows).size == rows.size
    expect = nimreg.analysis._distance_curve(s.tau, s.est, traj, rows)
    assert np.array_equal(dvals, expect)
    assert times.tolist()[:7] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0])


def test_experiments_take_the_xi_box_from_the_driver(stacks, matched_clouds,
                                                     kappa_stars, monkeypatch):
    # a tau chain never given a box runs every experiment exactly as the
    # synthesized one: the xi starts come from im.driver.s_box alone
    s = stacks("harmonic")
    fresh = build_tau(s.bench.plant, s.bench.exo, s.bench.d)
    assert fresh.image_extent is None
    plant, exo, w0 = s.bench.plant, s.bench.exo, s.bench.w0_sampler
    gd = kappa_stars("harmonic").design
    monkeypatch.setattr(nimreg.analysis, "_PERTURB_SIZES", (1e-2, 1e-3))
    cc = ControllerConfig(im=s.im, gd=gd, k=float(gd.G[0]) + 5.0)
    runs = {
        "kappa": lambda tau: find_kappa_star(replace(s, tau=tau)),
        "regulation": lambda tau: regulation_experiment(
            replace(_runs(s, 3), tau=tau), cc, horizon=4.0),
        "convergence": lambda tau: graph_convergence_experiment(
            plant, exo, s.im, tau, s.est, gd.G, s.sets, w0_sampler=w0,
            n_runs=3, horizon=4.0, tol=1e-2),
        "perturbation": lambda tau: perturbation_decay_experiment(
            plant, exo, s.im, tau, matched_clouds("harmonic"), gd.G,
            n_runs=3, horizon=6.0),
    }
    for name, run in runs.items():
        assert repr(run(fresh)) == repr(run(s.tau)), name


def test_regulation_vdp_fits_tracking_error_rate(stacks, kappa_stars):
    # |e| falls below the rk4 noise floor within about half a second, so the
    # fit has to start at t = 0 to find a rate; e follows chi at about its rate
    s = stacks("vdp")
    cc = ControllerConfig(im=s.im, gd=kappa_stars("vdp").design, k=130.0)
    rep = regulation_experiment(_runs(s, 4), cc, horizon=20.0)
    assert rep.fit_e is not None
    assert rep.fit_e.alpha == pytest.approx(rep.fit_chi.alpha, rel=0.2)


def test_regulation_vdp_baseline_reports_no_rate(stacks):
    # the linear comparator leaves a tracking error that never reaches its
    # floor: every fit window would run to the last sample, so no slope is
    # reported as a decay rate
    s = stacks("vdp")
    rep = linear_baseline_experiment(_runs(s, 6), horizon=20.0)
    assert not rep.asymptotic
    assert (rep.fit_e, rep.fit_chi, rep.fit_dist) == (None, None, None)


def test_linear_baseline_saturates_on_the_synthesis_box(stacks, monkeypatch):
    # the driver box is derived once, in synthesize: the baseline takes it
    # from the synthesized driver and certifies its linear fit on it
    s = stacks("harmonic")

    def rederived(*args):
        raise AssertionError("the baseline evaluated the tau image again")

    monkeypatch.setattr(nimreg.analysis, "_tau_image", rederived)
    rep = linear_baseline_experiment(_runs(s, 2), horizon=1.0, fit_curves=False)
    coef = rep.driver_coefficients

    def f_lin(eta):
        acc = coef[0] * eta[0]
        for i in range(1, len(coef)):
            acc = acc + coef[i] * eta[i]
        return acc

    driver, again = rep.cc.im.driver, saturate(f_lin, s.im.driver.s_box)
    assert np.array_equal(driver.s_box, s.im.driver.s_box)
    assert (driver.C, driver.L) == (again.C, again.L)


# decay probe ------------------------------------------------------------------


def test_tracking_error_decay_harmonic(stacks):
    s = stacks("harmonic")
    gd = design_gains(2, 8.0, lipschitz=s.im.driver.L)
    assert tracking_error_decay(s, gd.G).alpha > 0.5
