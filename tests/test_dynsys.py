"""Boxes, system specs, and the canonical right-hand sides."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimreg import ExosystemSpec, PlantSpec, ScenarioSets, get_benchmark
from nimreg.dynsys import (
    as_box,
    component_rhs,
    inflate_box,
    sample_box,
    zero_dynamics_field,
    zero_dynamics_rhs,
)
from nimreg.integrators import dopri5, rk4_fixed
from nimreg.errors import ConfigError


def test_as_box_normalizes_single_interval():
    box = as_box([-1.0, 2.0])
    assert box.shape == (1, 2)
    assert box[0, 0] == -1.0 and box[0, 1] == 2.0


@pytest.mark.parametrize("bad", [
    [[0.0, 1.0, 2.0]],          # wrong width
    [[1.0, 0.0]],               # lower > upper
    [[0.0, np.inf]],            # non-finite
])
def test_as_box_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        as_box(bad)


def test_as_box_dimension_check():
    with pytest.raises(ConfigError):
        as_box([[0.0, 1.0]], dim=2)


finite_interval = st.tuples(
    st.floats(-100, 100), st.floats(0.001, 50)
).map(lambda p: (p[0], p[0] + p[1]))


@settings(max_examples=100, deadline=None)
@given(iv=finite_interval, factor=st.floats(0, 3), floor=st.floats(0, 1))
def test_inflate_box_contains_original_and_respects_floor(iv, factor, floor):
    box = as_box([iv])
    out = inflate_box(box, factor, floor=floor)
    assert out[0, 0] <= box[0, 0] + 1e-12 and out[0, 1] >= box[0, 1] - 1e-12
    assert out[0, 1] - out[0, 0] >= 2 * floor - 1e-12
    bigger = inflate_box(box, factor + 0.5, floor=floor)
    assert bigger[0, 0] <= out[0, 0] + 1e-12 and bigger[0, 1] >= out[0, 1] - 1e-12


def test_inflate_box_floors_degenerate_axis():
    out = inflate_box(np.array([[2.0, 2.0]]), 0.25, floor=1e-3)
    assert np.allclose(out, [[2.0 - 1e-3, 2.0 + 1e-3]])


def test_sample_box_within_bounds_and_deterministic():
    box = as_box([[-1.0, 1.0], [3.0, 4.0]])
    a = sample_box(box, 100, np.random.default_rng(5))
    b = sample_box(box, 100, np.random.default_rng(5))
    assert a.shape == (2, 100)
    assert np.array_equal(a, b)
    assert np.all(a >= box[:, :1]) and np.all(a <= box[:, 1:])


# specs -----------------------------------------------------------------------


def test_exosystem_spec_validates_box_rows():
    with pytest.raises(ConfigError):
        ExosystemSpec(r=2, s=lambda w: (w[1], -w[0]), w_box=[[-1.0, 1.0]])


def test_plant_spec_rejects_nonpositive_dim():
    with pytest.raises(ConfigError):
        PlantSpec(n=0, f0=lambda z, w: (), f1=lambda z, e, w: (), q=lambda z, e, w: 0.0)


def test_scenario_sets_e_interval_shapes():
    sets = ScenarioSets(z_box=[[-1, 1]], e_interval=[-0.5, 0.5])
    assert sets.e_interval.shape == (1, 2)
    with pytest.raises(ConfigError):
        ScenarioSets(z_box=[[-1, 1]], e_interval=[-0.5, 0.5], n_samples=0)


# right-hand sides --------------------------------------------------------------


def test_zero_dynamics_field_harmonic_values():
    bench = get_benchmark("harmonic")
    field = zero_dynamics_field(bench.plant, bench.exo)
    out = field([0.3, 0.8, -0.6])
    # z' = -z + w1, w' = (w2, -w1)
    assert np.allclose(out, [-0.3 + 0.8, -0.6, -0.8], atol=1e-15)


def test_component_rhs_batches_columns():
    bench = get_benchmark("harmonic")
    rhs = zero_dynamics_rhs(bench.plant, bench.exo)
    pts = np.array([[0.3, 0.1], [0.8, -0.2], [-0.6, 0.4]])
    out = rhs(pts)
    assert out.shape == pts.shape
    for j in range(2):
        assert np.allclose(out[:, j], rhs(pts[:, j]))


def _counting(field):
    calls = []

    def counted(*args):
        calls.append(1)
        return field(*args)

    return counted, calls


@pytest.mark.parametrize("integrator", [
    lambda rhs, x0: rk4_fixed(rhs, x0, (0.0, 1.0), h=1e-3),
    lambda rhs, x0: dopri5(rhs, x0, (0.0, 1.0), dt_out=0.1),
])
def test_wrong_component_count_raises_at_bind_time(integrator):
    # three components for a two-component state: the bind-time evaluation
    # raises, before the first step
    field, calls = _counting(lambda x: (x[1], -x[0], 0.0))
    with pytest.raises(ConfigError, match="returned 3 components, expected 2"):
        integrator(component_rhs(field, 2), np.ones((2, 4)))
    assert len(calls) == 1


def test_zero_dynamics_component_counts_checked_once():
    bench = get_benchmark("harmonic")
    f0, calls = _counting(lambda z, w: (-z[0] + w[0], 0.0))
    plant = PlantSpec(n=1, f0=f0, f1=bench.plant.f1, q=bench.plant.q)
    with pytest.raises(ConfigError, match="zero dynamics returned 4 components"):
        rk4_fixed(zero_dynamics_rhs(plant, bench.exo), np.ones((3, 2)), (0.0, 1.0))
    assert len(calls) == 1
    with pytest.raises(ConfigError, match="zero dynamics state has 2 components"):
        zero_dynamics_rhs(bench.plant, bench.exo)(np.ones((2, 5)))
