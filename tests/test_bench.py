"""Benchmark registry and the Van der Pol reference cycle.

Cycle period and amplitude oracles are the standard high-accuracy values for
mu = 1: T = 6.6632868593231, max|x| = 2.0086198608748.
"""

import dataclasses

import numpy as np
import pytest

from nimreg import get_benchmark
from nimreg.bench import reference_cycle, registry
from nimreg.dynsys import component_rhs
from nimreg.errors import ConfigError
from nimreg.integrators import dopri5

VDP_PERIOD = 6.6632868593231
VDP_AMPLITUDE = 2.0086198608748


def test_registry_names():
    assert [b.name for b in registry()] == ["harmonic", "vdp", "static"]


def test_get_benchmark_unknown():
    with pytest.raises(ConfigError):
        get_benchmark("square")


def test_flags():
    assert get_benchmark("harmonic").linear_baseline_pass
    assert not get_benchmark("vdp").linear_baseline_pass
    assert not get_benchmark("static").exp_attractive
    assert get_benchmark("static").linear_baseline_pass


def test_vdp_cycle_period_and_amplitude():
    cycle = reference_cycle(1.0)
    assert abs(cycle.period - VDP_PERIOD) < 1e-4
    assert abs(np.max(np.abs(cycle.states[:, 0])) - VDP_AMPLITUDE) < 1e-4


def test_vdp_cycle_cached_per_mu():
    assert reference_cycle(1.0) is reference_cycle(1.0)
    assert reference_cycle(1.5) is not reference_cycle(1.0)


def test_vdp_cycle_record_is_frozen():
    # the cached record is shared by every caller and sets every later draw
    cycle = reference_cycle(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cycle.period = 1.0
    assert abs(reference_cycle(1.0).period - VDP_PERIOD) < 1e-4


def test_vdp_cycle_arrays_are_read_only():
    # the cached record is shared by every caller
    cycle = reference_cycle(1.0)
    for key in ("t", "states", "f"):
        with pytest.raises(ValueError):
            getattr(cycle, key)[0] = 0.0


def test_vdp_mu_changes_period():
    assert reference_cycle(1.5).period - reference_cycle(1.0).period > 0.1


def test_vdp_mu_threads_through():
    assert get_benchmark("vdp").mu == 1.0
    assert get_benchmark("vdp", mu=1.5).mu == 1.5


@pytest.mark.parametrize("name", ["harmonic", "static"])
def test_mu_belongs_to_vdp(name):
    with pytest.raises(ConfigError, match="mu applies to the vdp benchmark only"):
        get_benchmark(name, mu=1.5)


def test_vdp_sampler_points_lie_on_cycle():
    # a point sampled on the cycle must return to itself after one period
    bench = get_benchmark("vdp")
    rng = np.random.default_rng(3)
    w0 = bench.w0_sampler(8, rng)
    assert w0.shape == (2, 8)
    period = reference_cycle(1.0).period
    rhs = component_rhs(bench.exo.s, 2)
    for j in range(8):
        traj = dopri5(rhs, w0[:, j], (0.0, period), rtol=1e-11, atol=1e-13,
                      dt_out=period)
        assert np.max(np.abs(traj.final - w0[:, j])) < 1e-6


def test_harmonic_sampler_on_unit_circle():
    bench = get_benchmark("harmonic")
    rng = np.random.default_rng(4)
    w0 = bench.w0_sampler(100, rng)
    assert np.allclose(np.sum(w0 ** 2, axis=0), 1.0, atol=1e-12)


def test_harmonic_cloud_matches_steady_state(stacks):
    # zero dynamics z' = -z + w1 with w = (cos, -sin) settles on (w1 - w2)/2
    pts = stacks("harmonic").est.points
    z, w1, w2 = pts[0], pts[1], pts[2]
    assert np.max(np.abs(z - 0.5 * (w1 - w2))) < 1e-7


def test_static_sampler_and_sets():
    bench = get_benchmark("static")
    rng = np.random.default_rng(5)
    assert np.array_equal(bench.w0_sampler(4, rng), np.zeros((1, 4)))
    sets = bench.scenario_sets(n_samples=7, seed=2)
    assert sets.n_samples == 7
    assert sets.seed == 2
    assert sets.z_box.shape == (1, 2)
    assert sets.e_interval.shape == (1, 2)


def test_vdp_w_box_contains_cycle():
    bench = get_benchmark("vdp")
    cycle = reference_cycle(1.0)
    states = cycle.states
    assert np.all(states.min(axis=0) > bench.exo.w_box[:, 0])
    assert np.all(states.max(axis=0) < bench.exo.w_box[:, 1])
