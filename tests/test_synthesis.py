"""synthesize() against the same construction done primitive by primitive."""

import numpy as np

from nimreg import (
    InternalModel,
    build_tau,
    estimate_attractor,
    get_benchmark,
    saturate,
    synthesize,
    tau_image_box,
    verify_internal_model,
)


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
    assert syn.tau.image_box is None and syn.tau.image_extent is None
    assert np.array_equal(syn.driver.s_box, box)
    assert (syn.driver.C, syn.driver.L) == (driver.C, driver.L)
    assert syn.im.d == static.d and syn.im.driver is syn.driver
    assert (syn.ver.residual_flow, syn.ver.residual_output) == \
        (ver.residual_flow, ver.residual_output)
