"""Nonlinear internal-model output regulation toolkit.

Synthesis: estimate the steady-state attractor, build the feedforward chain
tau, saturate the top-row driver, place observer poles and scale them by a
high-gain parameter, close the loop with error feedback.  Verification:
residual checks of the internal-model identities plus simulation experiments
for graph invariance, attractiveness, and output regulation.
"""

from .analysis import (
    AttractorEstimate,
    DecayFit,
    GraphReport,
    PerturbationReport,
    RunReport,
    auto_feedback_gain,
    estimate_attractor,
    fit_decay,
    fit_linear_driver,
    graph_convergence_experiment,
    graph_distance,
    graph_invariance_experiment,
    linear_baseline_experiment,
    perturbation_decay_experiment,
    regulation_experiment,
    tau_image_box,
)
from .bench import Benchmark, get_benchmark, registry
from .dynsys import ExosystemSpec, PlantSpec, ScenarioSets
from .errors import (
    BoundednessError,
    CapabilityError,
    ConfigError,
    FitError,
    IntegrationError,
    NimregError,
    PreconditionError,
    SearchError,
)
from .gain import (
    GainDesign,
    build_gain,
    design_gains,
    find_kappa_star,
    kappa_lower_bound,
    place_poles,
    solve_lyapunov,
)
from .internal_model import (
    InternalModel,
    SaturatedDriver,
    TauChain,
    build_tau,
    saturate,
    verify_internal_model,
)
from .sim import ControllerConfig, run_closed_loop
from .synthesis import Synthesis, synthesize

__version__ = "0.1.0"

__all__ = [
    "AttractorEstimate",
    "Benchmark",
    "BoundednessError",
    "CapabilityError",
    "ConfigError",
    "ControllerConfig",
    "DecayFit",
    "ExosystemSpec",
    "FitError",
    "GainDesign",
    "GraphReport",
    "IntegrationError",
    "InternalModel",
    "NimregError",
    "PerturbationReport",
    "PlantSpec",
    "PreconditionError",
    "RunReport",
    "SaturatedDriver",
    "ScenarioSets",
    "SearchError",
    "Synthesis",
    "TauChain",
    "auto_feedback_gain",
    "build_gain",
    "build_tau",
    "design_gains",
    "estimate_attractor",
    "find_kappa_star",
    "fit_decay",
    "fit_linear_driver",
    "get_benchmark",
    "graph_convergence_experiment",
    "graph_distance",
    "graph_invariance_experiment",
    "kappa_lower_bound",
    "linear_baseline_experiment",
    "perturbation_decay_experiment",
    "place_poles",
    "regulation_experiment",
    "registry",
    "run_closed_loop",
    "saturate",
    "solve_lyapunov",
    "synthesize",
    "tau_image_box",
    "verify_internal_model",
]
