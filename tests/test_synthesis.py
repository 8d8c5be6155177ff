"""synthesize() against the same construction done primitive by primitive,
and the objects it shares between stages are immutable."""

import dataclasses

import numpy as np
import pytest

from nimreg import (
    AttractorEstimate,
    ControllerConfig,
    InternalModel,
    build_tau,
    design_gains,
    estimate_attractor,
    get_benchmark,
    saturate,
    synthesize,
    tau_image_box,
    verify_internal_model,
)
from nimreg.gain import KappaSearch


def test_synthesize_matches_primitives():
    static = get_benchmark("static")
    sets = static.scenario_sets(n_samples=6)
    cloud = dict(transient_time=5.0, sample_time=5.0)
    syn = synthesize(static, sets, **cloud)

    est = estimate_attractor(static.plant, static.exo, sets,
                             w0_sampler=static.w0_sampler, **cloud)
    tau = build_tau(static.plant, static.exo, static.d)
    box = tau_image_box(tau, est)
    driver = saturate(static.f, box, tau.image_extent)
    ver = verify_internal_model(InternalModel(d=static.d, driver=driver), tau, est)

    assert syn.bench is static and syn.sets is sets
    assert np.array_equal(syn.est.points, est.points)
    # the box lives on the driver only; tau stays as build_tau made it
    assert syn.tau.image_extent is None
    assert np.array_equal(syn.im.driver.s_box, box)
    assert (syn.im.driver.C, syn.im.driver.L) == (driver.C, driver.L)
    assert syn.im.d == static.d
    assert (syn.ver.residual_flow, syn.ver.residual_output) == \
        (ver.residual_flow, ver.residual_output)


def _shared_objects() -> dict:
    driver = saturate(lambda eta: eta[0], [[-2, 2]] * 2)
    im = InternalModel(d=2, driver=driver)
    gd = design_gains(2, 2.0, lipschitz=driver.L)
    pts = np.zeros((2, 1))
    return {
        "Benchmark": get_benchmark("static"),
        "SaturatedDriver": driver,
        "InternalModel": im,
        "GainDesign": gd,
        "KappaSearch": KappaSearch(kappa=2.0, rate=1.0, kappa_lb=gd.kappa_lb,
                                   history=[], design=gd),
        "ControllerConfig": ControllerConfig(im=im, gd=gd, k=9.0),
        "AttractorEstimate": AttractorEstimate(points=pts, sources=pts,
                                               sample_time=0.0,
                                               h=1e-3, dt_sample=1e-3),
    }


@pytest.mark.parametrize("name, field", [
    ("Benchmark", "mu"), ("SaturatedDriver", "s_box"), ("InternalModel", "driver"), ("GainDesign", "G"),
    ("KappaSearch", "kappa"), ("ControllerConfig", "k"), ("AttractorEstimate", "points"),
])
def test_shared_objects_are_frozen(name, field):
    obj = _shared_objects()[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))
