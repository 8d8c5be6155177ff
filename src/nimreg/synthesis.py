"""The regulator synthesis as one construction.

The steady-state set of the zero dynamics is sampled into a cloud, the
feedforward chain tau is evaluated over it, the driver is saturated outside
the inflated tau image, and the internal model built on that driver is
checked against its defining identities.  Every caller that needs these
pieces gets them from synthesize(), and the stages after it (the kappa and
k_bar searches, the kappa probe, regulation and the linear baseline) take
the Synthesis whole: plant, exosystem and w0 sampler from bench, scenarios
from sets, the graph-distance cloud from est.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis
from .bench import Benchmark
from .dynsys import ScenarioSets
from .internal_model import (ImVerification, InternalModel, TauChain,
                             build_tau, saturate, verify_internal_model)

__all__ = ["Synthesis", "synthesize"]


@dataclass(frozen=True, eq=False)
class Synthesis:
    """A benchmark's cloud, tau chain, internal model (with its saturated
    driver as im.driver) and identity residuals, all from one scenario set."""

    bench: Benchmark
    sets: ScenarioSets
    est: analysis.AttractorEstimate
    tau: TauChain
    im: InternalModel
    ver: ImVerification


def synthesize(bench: Benchmark, sets: ScenarioSets, *, d: int | None = None,
               **cloud) -> Synthesis:
    """Build the internal model for bench over the attractor sampled from sets.

    d defaults to the benchmark's chain order.  The remaining keywords
    (transient_time, sample_time, h, resolution, guard) go to
    analysis.estimate_attractor unchanged and default as there.
    """
    d = bench.d if d is None else d
    est = analysis.estimate_attractor(bench.plant, bench.exo, sets,
                                      w0_sampler=bench.w0_sampler, **cloud)
    tau = build_tau(bench.plant, bench.exo, d)
    driver = saturate(bench.f, *analysis._tau_image(tau, est))
    im = InternalModel(d=d, driver=driver)
    ver = verify_internal_model(im, tau, est)
    return Synthesis(bench=bench, sets=sets, est=est, tau=tau,
                     im=im, ver=ver)
