"""Shared fixtures: benchmark pipelines are expensive, so clouds, internal
models, and gain searches are built once per session and memoized by name."""

import json

import pytest

from nimreg import (
    Synthesis,
    auto_feedback_gain,
    estimate_attractor,
    find_kappa_star,
    get_benchmark,
    synthesize,
)


def _build_stack(name: str) -> Synthesis:
    bench = get_benchmark(name)
    return synthesize(bench, bench.scenario_sets())


@pytest.fixture(scope="session")
def stacks():
    memo = {}

    def get(name: str) -> Synthesis:
        if name not in memo:
            memo[name] = _build_stack(name)
        return memo[name]

    return get


@pytest.fixture(scope="session")
def matched_clouds(stacks):
    """Source-major clouds whose stored points are exact trajectory samples;
    initial conditions taken from them sit exactly on the graph of tau."""
    memo = {}

    def get(name: str):
        if name not in memo:
            s = stacks(name)
            memo[name] = estimate_attractor(
                s.bench.plant, s.bench.exo, s.sets,
                w0_sampler=s.bench.w0_sampler, n_sources=20,
                transient_time=25.0, sample_time=50.0, dt_sample=0.1,
                resolution=None)
        return memo[name]

    return get


@pytest.fixture(scope="session")
def fine_clouds(stacks):
    """Single-source, finely thinned clouds: coverage radius small enough to
    resolve graph distances at the 1e-4 terminal threshold."""
    memo = {}

    def get(name: str):
        if name not in memo:
            s = stacks(name)
            memo[name] = estimate_attractor(
                s.bench.plant, s.bench.exo, s.sets,
                w0_sampler=s.bench.w0_sampler, n_sources=1,
                transient_time=40.0, sample_time=8.0, resolution=1.5e-5)
        return memo[name]

    return get


@pytest.fixture(scope="session")
def kappa_stars(stacks):
    memo = {}

    def get(name: str):
        if name not in memo:
            memo[name] = find_kappa_star(stacks(name))
        return memo[name]

    return get


@pytest.fixture(scope="session")
def vdp_auto_k(stacks, kappa_stars):
    return auto_feedback_gain(stacks("vdp"), kappa_stars("vdp").design)


# acceptance summary plumbing -------------------------------------------------

_ACCEPTANCE_LINES = []
_ACCEPTANCE_TIMINGS = []


def record_acceptance(line: str, **timing) -> None:
    """Keep a check's summary line, and its label, verdict, elapsed time and
    budget for out/acceptance.json."""
    _ACCEPTANCE_LINES.append(line)
    _ACCEPTANCE_TIMINGS.append(timing)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    # machine-readable timings, so a check drifting toward its budget shows
    # before it fails
    path = config.rootpath / "out" / "acceptance.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(_ACCEPTANCE_TIMINGS, indent=1) + "\n")
