"""Command-line interface.

Subcommands:
  run         full pipeline (attractor, internal model, gains, regulation)
  sweep       repeat run over a grid of one parameter
  benchmarks  list the registered benchmark systems
  verify      internal-model residual check per benchmark

Configuration is a flat key=value text file (`--config`) of RunConfig's
fields; each key is also exposed as a flag (verify takes the keys the
synthesis reads), and flags win over the file.  Exit code 0 means the
experiment passed, 1 means it ran and failed (the report is still written),
2 means the invocation or configuration was unusable.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis
from .bench import check_benchmark, get_benchmark, registry
from .errors import ConfigError, NimregError
from .gain import design_gains, find_kappa_star
from .integrators import DEFAULT_GUARD, INTEGRATORS
from .sim import ControllerConfig
from .synthesis import Synthesis, synthesize


@dataclass(frozen=True)
class RunConfig:
    """The settings of a run, each a config key and a flag.  A value parses
    by its field's annotation, and a field that may be None also takes
    "auto" (or "none"): the pipeline decides."""

    benchmark: str = "harmonic"
    d: int | None = None
    poles: tuple | None = None
    kappa: float | None = None
    k: float | None = None
    eps: float = 1e-2
    eps_asym: float = 1e-4
    horizon: float = 100.0
    method: str = "rk4"
    h: float = 1e-3
    rtol: float = 1e-9
    atol: float = 1e-12
    dt_out: float = 0.01
    n_samples: int = 50
    seed: int = 0
    out_dir: str = "out"
    baseline: bool = False
    transient_time: float = 20.0
    sample_time: float = 10.0
    resolution: float = 5e-4
    mu: float | None = None
    guard: float = DEFAULT_GUARD


# annotations stay strings here (postponed evaluation): "float", "int | None"
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, text: str):
    """Parse one config value by its RunConfig annotation; keys are the
    RunConfig fields, nothing else."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind, _, optional = _FIELD_TYPES[key].partition(" | ")
    text = text.strip()
    if optional and text.lower() in ("auto", "none"):
        return None
    try:
        if kind == "bool":
            if text.lower() not in _BOOLS:
                raise ValueError(f"not a boolean: {text!r}")
            return _BOOLS[text.lower()]
        if kind == "tuple":
            vals = tuple(float(p) for p in text.split(",") if p.strip())
            if not vals:
                raise ValueError("empty list")
            return vals
        value = _PARSERS[kind](text)
        if key == "method" and value not in INTEGRATORS:
            raise ValueError(f"unknown integrator {value!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        values[key.strip()] = _coerce(key.strip(), text)
    return values


def _given(args: argparse.Namespace) -> dict:
    """The keys set in the --config file or by a flag; flags win."""
    given = parse_config_file(args.config) if args.config else {}
    for name in _FIELD_TYPES:
        text = getattr(args, name, None)
        if text is not None:
            given[name] = _coerce(name, text)
    return given


def load_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**_given(args))


# pipeline ------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pipeline:
    cfg: RunConfig
    syn: Synthesis
    design: object
    k: float | None
    kappa_search: object | None


# every key _synthesis reads, and so every key verify takes: the benchmark,
# its scenario sets, then synthesize's keywords
_SYNTHESIS_KEYS = ("benchmark", "mu", "n_samples", "seed", "d", "transient_time",
                   "sample_time", "h", "resolution", "guard")


def _synthesis(cfg: RunConfig) -> Synthesis:
    keys = {key: getattr(cfg, key) for key in _SYNTHESIS_KEYS}
    bench = get_benchmark(keys.pop("benchmark"), mu=keys.pop("mu"))
    sets = bench.scenario_sets(n_samples=keys.pop("n_samples"), seed=keys.pop("seed"))
    return synthesize(bench, sets, **keys)


def build_pipeline(cfg: RunConfig, syn: Synthesis | None = None) -> Pipeline:
    """Synthesis (built from cfg unless given) plus gains.

    A given syn must come from a config that differs from cfg only in the
    gain keys.  In baseline mode gains stay None unless pinned in the config;
    the comparator picks its own mild defaults.
    """
    if syn is None:
        syn = _synthesis(cfg)
    design = search = k = None
    if cfg.kappa is not None:
        design = design_gains(syn.im.d, cfg.kappa, lipschitz=syn.im.driver.L,
                              poles=cfg.poles)
    elif not cfg.baseline:
        search = find_kappa_star(syn, poles=cfg.poles)
        design = search.design
    if cfg.k is not None:
        k = float(cfg.k)
    elif not cfg.baseline:
        k = analysis.auto_feedback_gain(syn, design, eps=cfg.eps)
    return Pipeline(cfg=cfg, syn=syn, design=design, k=k, kappa_search=search)


# output writers --------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(path: Path, items: dict) -> None:
    lines = [f"{key} = {_fmt(val)}" for key, val in items.items()]
    path.write_text("\n".join(lines) + "\n")


def write_trajectory_csv(path: Path, pipe: Pipeline, report) -> None:
    """The first run of the closed loop in the canonical column layout, with
    its |xi - tau(z, w)| and graph distance as the analysis computes them.

    A failed run writes no CSV, and a CSV left at path by an earlier run is
    removed, so it cannot pass for this run's output."""
    if report.error is not None:
        path.unlink(missing_ok=True)
        return
    traj = report.trajectory
    layout = traj.meta["layout"]
    states = traj.states[:, :, 0]
    run0 = replace(traj, states=traj.states[:, :, :1])  # run 0 as a batch
    e = states[:, layout.e]
    v = -report.cc.k * e
    z, w, xi = (states[:, part] for part in (layout.z, layout.w, layout.xi))
    u = xi[:, 0] + v
    chi = analysis._chi_norms(pipe.syn.tau, run0)[:, 0]
    gdist = analysis._distance_curve(pipe.syn.tau, pipe.syn.est, run0)[:, 0]
    header = (["t", "e", "u", "v"]
              + [f"z_{i + 1}" for i in range(z.shape[1])]
              + [f"w_{i + 1}" for i in range(w.shape[1])]
              + [f"xi_{i + 1}" for i in range(xi.shape[1])]
              + ["chi_norm", "graph_dist"])
    table = np.column_stack([traj.t, e, u, v, z, w, xi, chi, gdist])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) for x in row] for row in table)


def _report_items(pipe: Pipeline, report, experiment: str) -> dict:
    cfg, cc = pipe.cfg, report.cc
    items = {
        "benchmark": cfg.benchmark,
        "experiment": experiment,
        "d": pipe.syn.im.d,
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "method": cfg.method,
        "h": cfg.h,
        "dt_out": cfg.dt_out,
        # RK4 reports keep their bytes: the tolerances only say what ran on dopri5
        **({"rtol": cfg.rtol, "atol": cfg.atol} if cfg.method == "dopri5" else {}),
        "horizon": cfg.horizon,
        "eps": cfg.eps,
        "eps_asym": cfg.eps_asym,
        "kappa": float(cc.gd.kappa),
        "kappa_lb": float(cc.gd.kappa_lb),
        "k": float(cc.k),
        "k_bar": float(cc.k_bar),
        "C": float(cc.im.driver.C),
        "L": float(cc.im.driver.L),
        "residual_flow": pipe.syn.ver.residual_flow,
        "residual_output": pipe.syn.ver.residual_output,
        "tail_sup_e": report.tail_sup_e,
        "t_bar": report.t_bar,
        "alpha_e": report.fit_e.alpha if report.fit_e else None,
        "M_e": report.fit_e.M if report.fit_e else None,
        "alpha_e_residual": report.fit_e.residual if report.fit_e else None,
        "alpha_chi": report.fit_chi.alpha if report.fit_chi else None,
        "alpha_chi_residual": report.fit_chi.residual if report.fit_chi else None,
        "alpha_dist": report.fit_dist.alpha if report.fit_dist else None,
        "alpha_dist_residual": report.fit_dist.residual if report.fit_dist else None,
        "verdict_practical": report.practical,
        "verdict_asymptotic": report.asymptotic,
        "passed": report.passed,
    }
    if report.error is not None:
        items["integration_error"] = report.error
    if report.driver_coefficients is not None:
        items["driver_coefficients"] = np.array2string(report.driver_coefficients,
                                                       separator=",")
    if pipe.kappa_search is not None:
        items["kappa_search_rate"] = pipe.kappa_search.rate
    return items


# subcommands ----------------------------------------------------------------------


def _run_experiment(pipe: Pipeline):
    cfg, syn = pipe.cfg, pipe.syn
    # the run settings both experiments take, so a report's are what ran
    run = dict(eps=cfg.eps, eps_asym=cfg.eps_asym, horizon=cfg.horizon, h=cfg.h,
               dt_out=cfg.dt_out, method=cfg.method, rtol=cfg.rtol,
               atol=cfg.atol, guard=cfg.guard)
    if cfg.baseline:
        return analysis.linear_baseline_experiment(
            syn, pipe.design, pipe.k, **run), "linear-baseline"
    cc = ControllerConfig(im=syn.im, gd=pipe.design, k=pipe.k)
    return analysis.regulation_experiment(syn, cc, **run), "regulation"


def cmd_run(args) -> int:
    cfg = load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipe = build_pipeline(cfg)
    report, experiment = _run_experiment(pipe)
    stem = f"{cfg.benchmark}_{experiment.replace('-', '_')}"
    write_trajectory_csv(out / f"{stem}.csv", pipe, report)
    write_report(out / f"{stem}_report.txt", _report_items(pipe, report, experiment))
    status = "PASS" if report.passed else "FAIL"
    print(f"{cfg.benchmark} {experiment}: {status} "
          f"(tail_sup_e={report.tail_sup_e:.3e}, t_bar={_fmt(report.t_bar)})")
    print(f"report: {out / (stem + '_report.txt')}")
    return 0 if report.passed else 1


# report keys copied into each sweep_<param>.csv row, after param and value
_SWEEP_COLUMNS = ("kappa", "k", "k_bar", "tail_sup_e", "alpha_e", "t_bar")


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    param = args.param
    try:
        grid = [float(v) for v in (args.grid or "").split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid: {exc}") from exc
    if not grid:
        raise ConfigError("sweep grid is empty")
    # a bad benchmark name or mu stops the sweep before any point runs
    check_benchmark(cfg.benchmark, grid[0] if param == "mu" else cfg.mu)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    all_passed = True
    # only mu changes the benchmark; a kappa or k grid shares one synthesis,
    # and a k grid also shares the first point's kappa design and search
    syn = None
    shared = None
    for value in grid:
        cfg_i = replace(cfg, **{param: value})
        stem = f"{cfg.benchmark}_{param}_{value:g}"
        row = {"param": param, "value": value,
               **dict.fromkeys(_SWEEP_COLUMNS, ""), "passed": "false"}
        try:
            pipe = (build_pipeline(cfg_i, None if param == "mu" else syn)
                    if shared is None else replace(shared, cfg=cfg_i, k=value))
            syn = pipe.syn
            shared = pipe if param == "k" else None
            report, experiment = _run_experiment(pipe)
        except NimregError as exc:
            # a failed grid point must not sink the rest of the sweep
            write_report(out / f"{stem}_report.txt",
                         {"benchmark": cfg.benchmark, "experiment": "error",
                          param: value, "error": str(exc), "passed": "false"})
            print(f"{param}={value:g}: error: {exc}")
            rows.append(row)
            all_passed = False
            continue
        items = _report_items(pipe, report, experiment)
        write_report(out / f"{stem}_report.txt", items)
        row.update({key: "" if items[key] is None else items[key]
                    for key in _SWEEP_COLUMNS}, passed=_fmt(items["passed"]))
        rows.append(row)
        all_passed &= report.passed
        print(f"{param}={value:g}: tail_sup_e={report.tail_sup_e:.3e} "
              f"t_bar={_fmt(report.t_bar)} passed={report.passed}")
    agg = out / f"sweep_{param}.csv"
    with agg.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"aggregate: {agg}")
    return 0 if all_passed else 1


def cmd_benchmarks(args) -> int:
    for b in registry():
        print(f"{b.name:10s} n={b.plant.n} r={b.exo.r} d={b.d} "
              f"exp_attractive={b.exp_attractive} "
              f"linear_baseline_pass={b.linear_baseline_pass}  {b.notes}")
    return 0


def cmd_verify(args) -> int:
    given = _given(args)
    names = [given["benchmark"]] if "benchmark" in given else [b.name for b in registry()]
    ok = True
    for name in names:
        ver = _synthesis(RunConfig(**{**given, "benchmark": name})).ver
        ok &= ver.passed
        print(f"benchmark={name} residual_flow={ver.residual_flow!r} "
              f"residual_output={ver.residual_output!r} "
              f"passed={_fmt(ver.passed)}")
    return 0 if ok else 1


# entry point -----------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser, names=tuple(_FIELD_TYPES)) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    for name in names:
        flag = "--" + name.replace("_", "-")
        if name == "baseline":
            parser.add_argument(flag, action="store_const", const="true",
                                help="run the linear-driver comparator")
        else:
            parser.add_argument(flag, metavar="V", help=f"override config key {name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nimreg",
        description="internal-model regulator synthesis and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline on one benchmark")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run over a one-parameter grid")
    p_sweep.add_argument("--param", required=True, choices=("kappa", "k", "mu"))
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated parameter values")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bench = sub.add_parser("benchmarks", help="list benchmark systems")
    p_bench.set_defaults(fn=cmd_benchmarks)

    p_verify = sub.add_parser("verify", help="internal-model residual checks")
    _add_config_flags(p_verify, _SYNTHESIS_KEYS)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NimregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
