"""Span tracing of nimreg's public functions, installed from outside the package.

`Tracer.install()` replaces each target function by a timing wrapper in every
loaded `nimreg` module that holds a reference to it (modules bind names with
`from .x import y`, so patching the defining module alone would miss most
calls).  `Tracer.uninstall()` puts the originals back.  Spans stay in memory,
each with its parent's id, and are written out once by `write()`.

Right-hand-side calls are too many to keep one span each: the wrapper around
`dynsys.as_array_rhs` counts them (calls, time, batch width) per phase and
charges their time to the enclosing span as child time, so self times stay
exact.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from statistics import median

# Counters taken from what a wrapped call returns (or, for the CSV writer,
# from the report it is handed); never from RunReport.integrator.
_COUNTERS = {
    "analysis.estimate_attractor": lambda args, r: {"points": r.points.shape[1]},
    "analysis.graph_distance": lambda args, r: {"queries": _size(r)},
    "integrators.rk4_fixed": lambda args, r: {
        "steps": r.meta.get("n_steps", 0),
        "col_steps": r.meta.get("n_steps", 0) * _width(r.states[0])},
    "integrators.dopri5": lambda args, r: {
        "accepted": r.meta.get("n_steps", 0),
        "rejected": r.meta.get("n_rejected", 0)},
    "gain.find_kappa_star": lambda args, r: {"probes": len(r.history)},
    "cli.write_trajectory_csv": lambda args, r: {"rows": _csv_rows(args[2])},
}

# Wrapped as spans; dynsys.as_array_rhs is handled separately.
TARGETS = (
    "bench.reference_cycle",
    "analysis.estimate_attractor",
    "analysis.graph_distance",
    "analysis.regulation_experiment",
    "analysis.auto_feedback_gain",
    "analysis.graph_invariance_experiment",
    "analysis.graph_convergence_experiment",
    "analysis.perturbation_decay_experiment",
    "integrators.rk4_fixed",
    "integrators.dopri5",
    "sim.run_closed_loop",
    "sim.run_observer_cascade",
    "gain.find_kappa_star",
    "internal_model.saturate",
    "internal_model.verify_internal_model",
    "jets.lie_chain",
    "cli.build_pipeline",
    "cli.write_trajectory_csv",
)
RHS_TARGET = "dynsys.as_array_rhs"

# Per-layer metrics: name -> (unit, better).  Every traced run reports all of
# them; a layer a workload never enters reads 0.
PER_LAYER = {
    "bench.reference_cycle.s": ("s", "lower"),
    "analysis.estimate_attractor.s": ("s", "lower"),
    "analysis.estimate_attractor.calls": ("count", "lower"),
    "analysis.estimate_attractor.points": ("count", "lower"),
    "analysis.graph_distance.s": ("s", "lower"),
    "analysis.graph_distance.queries": ("count", "lower"),
    "analysis.graph_distance.us_per_query": ("us", "lower"),
    "integrators.rk4_fixed.s": ("s", "lower"),
    "integrators.rk4_fixed.steps": ("count", "lower"),
    "integrators.rk4_fixed.col_steps": ("count", "lower"),
    "integrators.rk4_fixed.us_per_step": ("us", "lower"),
    "integrators.dopri5.s": ("s", "lower"),
    "integrators.dopri5.accepted": ("count", "lower"),
    "integrators.dopri5.rejected": ("count", "lower"),
    "integrators.dopri5.accept_ratio": ("ratio", "higher"),
    "dynsys.rhs.calls": ("count", "lower"),
    "dynsys.rhs.s": ("s", "lower"),
    "dynsys.rhs.mean_width": ("columns", "higher"),
    "dynsys.rhs.us_per_call": ("us", "lower"),
    "sim.run_closed_loop.s": ("s", "lower"),
    "sim.run_observer_cascade.s": ("s", "lower"),
    "gain.find_kappa_star.s": ("s", "lower"),
    "gain.find_kappa_star.probes": ("count", "lower"),
    "analysis.auto_feedback_gain.s": ("s", "lower"),
    "analysis.auto_feedback_gain.probes": ("count", "lower"),
    "analysis.regulation_experiment.self_s": ("s", "lower"),
    "analysis.graph_invariance_experiment.s": ("s", "lower"),
    "analysis.graph_convergence_experiment.s": ("s", "lower"),
    "analysis.perturbation_decay_experiment.s": ("s", "lower"),
    "internal_model.saturate.s": ("s", "lower"),
    "internal_model.verify_internal_model.s": ("s", "lower"),
    "jets.lie_chain.calls": ("count", "lower"),
    "jets.lie_chain.s": ("s", "lower"),
    "cli.build_pipeline.s": ("s", "lower"),
    "cli.write_trajectory_csv.s": ("s", "lower"),
    "cli.write_trajectory_csv.rows": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _width(state) -> int:
    return int(state.shape[1]) if state.ndim == 2 else 1


def _csv_rows(report) -> int:
    # the writer skips a trajectory that carries no state layout
    traj = report.trajectory
    if traj is None or traj.meta.get("layout") is None:
        return 0
    return int(traj.t.size)


@dataclass(eq=False)
class Span:
    id: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rhs: dict[str, list] = {}     # phase -> [calls, seconds, columns]
        self.missing: list[str] = []
        self.phase = "setup"
        self._open: list[Span] = []
        self._patches: list[tuple] = []

    # installation -----------------------------------------------------------

    def install(self) -> None:
        # resolve (and so import) every target before patching any, so no
        # module binds a wrapper by importing it mid-installation
        originals = {t: _resolve(t) for t in TARGETS + (RHS_TARGET,)}
        self.missing = [t for t, fn in originals.items() if fn is None]
        for target, original in originals.items():
            if original is None:
                continue
            if target == RHS_TARGET:
                wrapper = self._rhs_factory(original)
            else:
                wrapper = self._span_wrapper(target, original)
            self._replace(original, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches = []

    def _replace(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "nimreg"
                                      or modname.startswith("nimreg.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._patches.append((namespace, attr, original))

    # wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        count = _COUNTERS.get(name)
        clock = time.perf_counter
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = Span(id=len(spans), parent=open_[-1].id if open_ else None,
                        name=name, phase=self.phase, start=clock())
            spans.append(span)
            open_.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
                if open_:
                    open_[-1].child_s += span.duration
            if count is not None:
                span.counters = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rhs_factory(self, as_array_rhs):
        clock = time.perf_counter
        open_ = self._open

        def traced_as_array_rhs(field_fn):
            rhs = as_array_rhs(field_fn)
            acc = self.rhs.setdefault(self.phase, [0, 0.0, 0])

            def counted(x):
                t0 = clock()
                out = rhs(x)
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                acc[2] += x.shape[1] if x.ndim == 2 else 1
                if open_:
                    open_[-1].child_s += dt
                return out

            return counted

        traced_as_array_rhs.__wrapped__ = as_array_rhs
        return traced_as_array_rhs

    # reporting --------------------------------------------------------------

    def metrics(self, round_phases, traced_walls, untraced_walls) -> dict:
        """Per-layer figures per traced round; the reference cycle is built
        once per process, in the setup phase."""
        n = len(round_phases)
        spans = [s for s in self.spans if s.phase in round_phases]
        by_id = {s.id: s for s in self.spans}

        def of(name):
            return [s for s in spans if s.name == name]

        def total(name, attr="duration"):
            return sum(getattr(s, attr) for s in of(name)) / n

        def count(name, key):
            return sum(s.counters.get(key, 0) for s in of(name)) / n

        def ratio(num, den):
            return num / den if den else 0.0

        calls = secs = cols = 0
        for phase in round_phases:
            c, s, w = self.rhs.get(phase, (0, 0.0, 0))
            calls, secs, cols = calls + c, secs + s, cols + w
        probes = sum(1 for s in of("analysis.regulation_experiment")
                     if s.parent is not None
                     and by_id[s.parent].name == "analysis.auto_feedback_gain")
        gd_s = total("analysis.graph_distance")
        gd_q = count("analysis.graph_distance", "queries")
        rk_s = total("integrators.rk4_fixed")
        rk_steps = count("integrators.rk4_fixed", "steps")
        acc = count("integrators.dopri5", "accepted")
        rej = count("integrators.dopri5", "rejected")
        values = {
            "bench.reference_cycle.s": sum(
                s.duration for s in self.spans
                if s.name == "bench.reference_cycle" and s.phase == "setup"),
            "analysis.estimate_attractor.s": total("analysis.estimate_attractor"),
            "analysis.estimate_attractor.calls": len(of("analysis.estimate_attractor")) / n,
            "analysis.estimate_attractor.points": count("analysis.estimate_attractor", "points"),
            "analysis.graph_distance.s": gd_s,
            "analysis.graph_distance.queries": gd_q,
            "analysis.graph_distance.us_per_query": 1e6 * ratio(gd_s, gd_q),
            "integrators.rk4_fixed.s": rk_s,
            "integrators.rk4_fixed.steps": rk_steps,
            "integrators.rk4_fixed.col_steps": count("integrators.rk4_fixed", "col_steps"),
            "integrators.rk4_fixed.us_per_step": 1e6 * ratio(rk_s, rk_steps),
            "integrators.dopri5.s": total("integrators.dopri5"),
            "integrators.dopri5.accepted": acc,
            "integrators.dopri5.rejected": rej,
            "integrators.dopri5.accept_ratio": ratio(acc, acc + rej),
            "dynsys.rhs.calls": calls / n,
            "dynsys.rhs.s": secs / n,
            "dynsys.rhs.mean_width": ratio(cols, calls),
            "dynsys.rhs.us_per_call": 1e6 * ratio(secs, calls),
            "sim.run_closed_loop.s": total("sim.run_closed_loop"),
            "sim.run_observer_cascade.s": total("sim.run_observer_cascade"),
            "gain.find_kappa_star.s": total("gain.find_kappa_star"),
            "gain.find_kappa_star.probes": count("gain.find_kappa_star", "probes"),
            "analysis.auto_feedback_gain.s": total("analysis.auto_feedback_gain"),
            "analysis.auto_feedback_gain.probes": probes / n,
            "analysis.regulation_experiment.self_s":
                total("analysis.regulation_experiment", "self_s"),
            "analysis.graph_invariance_experiment.s":
                total("analysis.graph_invariance_experiment"),
            "analysis.graph_convergence_experiment.s":
                total("analysis.graph_convergence_experiment"),
            "analysis.perturbation_decay_experiment.s":
                total("analysis.perturbation_decay_experiment"),
            "internal_model.saturate.s": total("internal_model.saturate"),
            "internal_model.verify_internal_model.s":
                total("internal_model.verify_internal_model"),
            "jets.lie_chain.calls": len(of("jets.lie_chain")) / n,
            "jets.lie_chain.s": total("jets.lie_chain"),
            "cli.build_pipeline.s": total("cli.build_pipeline"),
            "cli.write_trajectory_csv.s": total("cli.write_trajectory_csv"),
            "cli.write_trajectory_csv.rows": count("cli.write_trajectory_csv", "rows"),
            "trace.overhead_s": median(traced_walls) - median(untraced_walls),
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}

    def write(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["missing"] = self.missing
        doc["rhs"] = {phase: {"calls": c, "s": s, "columns": w}
                      for phase, (c, s, w) in self.rhs.items()}
        doc["spans"] = [
            {"id": s.id, "parent": s.parent, "name": s.name, "phase": s.phase,
             "start": s.start, "end": s.end, "inclusive_s": s.duration,
             "self_s": s.self_s, **s.counters}
            for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")


def _resolve(target: str):
    """The function named module.attr inside nimreg, or None if absent."""
    modname, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(f"nimreg.{modname}")
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None
