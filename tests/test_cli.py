"""Command-line interface: config parsing, exit codes, file outputs."""

import csv
from dataclasses import asdict

import pytest

from nimreg.cli import (
    RunConfig,
    _coerce,
    load_config,
    main,
    parse_config_file,
)
from nimreg.errors import ConfigError

CSV_PREFIX = ["t", "e", "u", "v"]


# config plumbing -----------------------------------------------------------------


def test_coerce_types():
    assert _coerce("kappa", "3.5") == 3.5
    assert _coerce("d", "3") == 3
    assert _coerce("baseline", "Yes") is True
    assert _coerce("baseline", "0") is False
    assert _coerce("poles", "-1.0, -2.0") == (-1.0, -2.0)
    assert _coerce("kappa", "auto") is None
    assert _coerce("method", "dopri5") == "dopri5"


def test_coerce_rejects():
    with pytest.raises(ConfigError):
        _coerce("speed", "1.0")  # unknown key
    with pytest.raises(ConfigError):
        _coerce("horizon", "fast")
    with pytest.raises(ConfigError):
        _coerce("method", "euler")
    with pytest.raises(ConfigError):
        _coerce("baseline", "maybe")


def test_parse_config_file_builds_run_config(tmp_path):
    cfg = RunConfig(benchmark="vdp", kappa=7.25, k=30.0, poles=(-1.5, -2.5),
                    horizon=55.0, baseline=True, seed=11)
    path = tmp_path / "run.cfg"
    path.write_text("benchmark = vdp\n"
                    "kappa = 7.25  # pinned\n"
                    "k = 30.0\n"
                    "poles = -1.5, -2.5\n"
                    "\n"
                    "horizon = 55\n"
                    "baseline = true\n"
                    "seed = 11\n")
    parsed = parse_config_file(str(path))
    rebuilt = RunConfig(**{**asdict(RunConfig()), **parsed})
    assert rebuilt == cfg


def test_parse_config_file_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("benchmark = vdp\njust a line\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(path))
    assert ":2" in str(err.value)


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("benchmark = vdp\nwat = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(path))
    assert "wat" in str(err.value)


def test_flags_override_file(tmp_path):
    from nimreg.cli import build_parser
    path = tmp_path / "base.cfg"
    path.write_text("benchmark = vdp\nkappa = 5\nhorizon = 60\n")
    args = build_parser().parse_args(
        ["run", "--config", str(path), "--kappa", "9", "--seed", "4"])
    cfg = load_config(args)
    assert cfg.benchmark == "vdp"
    assert cfg.kappa == 9.0  # flag wins
    assert cfg.horizon == 60.0  # file survives where no flag given
    assert cfg.seed == 4


# exit codes ------------------------------------------------------------------


def test_benchmarks_exits_zero(capsys):
    assert main(["benchmarks"]) == 0
    out = capsys.readouterr().out
    for name in ("harmonic", "vdp", "static"):
        assert name in out


def test_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 3\n")
    assert main(["run", "--config", str(path)]) == 2


def test_empty_sweep_grid_exits_two(tmp_path):
    assert main(["sweep", "--param", "kappa", "--grid", ",",
                 "--out-dir", str(tmp_path)]) == 2


def test_mu_sweep_requires_vdp(tmp_path):
    assert main(["sweep", "--param", "mu", "--grid", "0.5,1.0",
                 "--benchmark", "harmonic", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--resolution", "0"],
    ["verify", "--resolution", "-0.001"],
    ["verify", "--resolution", "nan"],
    ["verify", "--transient-time", "-1"],
    # one retained sample per source leaves nothing to thin
    ["run", "--sample-time", "0.001"],
    ["run", "--seed", "-1"],
    ["run", "--guard", "0"],
])
def test_bad_cloud_settings_exit_two(tmp_path, capsys, argv):
    extra = ["--out-dir", str(tmp_path)] if argv[0] == "run" else []
    assert main(argv + ["--benchmark", "harmonic"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# run outputs ----------------------------------------------------------------------

QUICK_STATIC = ["--benchmark", "static", "--kappa", "1.5", "--k", "2",
                "--horizon", "30", "--n-samples", "6",
                "--transient-time", "5", "--sample-time", "5"]

QUICK_HARMONIC = ["--benchmark", "harmonic", "--kappa", "4", "--k", "12",
                  "--horizon", "30", "--n-samples", "6",
                  "--transient-time", "10", "--sample-time", "5"]


def _run(tmp_path, extra):
    out = tmp_path / "out"
    code = main(["run", "--out-dir", str(out)] + extra)
    return code, out


def test_run_static_outputs(tmp_path, capsys):
    code, out = _run(tmp_path, QUICK_STATIC)
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    csv_path = out / "static_regulation.csv"
    report_path = out / "static_regulation_report.txt"
    assert csv_path.exists() and report_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:4] == CSV_PREFIX
    assert header == ["t", "e", "u", "v", "z_1", "w_1", "xi_1",
                      "chi_norm", "graph_dist"]
    # repr round trip: every cell reparses to the exact float
    for cell in rows[1][:4]:
        assert repr(float(cell)) == cell
    report = report_path.read_text()
    assert "passed = true" in report
    assert "benchmark = static" in report


# kappa pinned, k searched: the rerun goes through the adaptive k_bar probe
STATIC_AUTO_K = QUICK_STATIC[:4] + ["--k", "auto"] + QUICK_STATIC[6:]


@pytest.mark.parametrize("args", [QUICK_HARMONIC, STATIC_AUTO_K],
                         ids=["harmonic", "static-auto-k"])
def test_run_rerun_is_byte_identical(tmp_path, args):
    code1, out1 = _run(tmp_path / "a", args)
    code2, out2 = _run(tmp_path / "b", args)
    assert code1 == 0 and code2 == 0
    name = f"{args[1]}_regulation"
    assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
    assert (out1 / f"{name}_report.txt").read_bytes() == \
        (out2 / f"{name}_report.txt").read_bytes()


def test_report_names_the_dopri5_tolerances(tmp_path):
    # a dopri5 report says which tolerances ran; an RK4 report has no
    # tolerance lines
    code, out = _run(tmp_path / "dopri5", QUICK_STATIC + ["--method", "dopri5",
                                                          "--rtol", "1e-10"])
    lines = (out / "static_regulation_report.txt").read_text().splitlines()
    assert code == 0
    assert lines[lines.index("dt_out = 0.01") + 1:][:2] == ["rtol = 1e-10", "atol = 1e-12"]
    code, out = _run(tmp_path / "rk4", QUICK_STATIC)
    report = (out / "static_regulation_report.txt").read_text()
    assert code == 0 and "method = rk4" in report
    assert "rtol" not in report and "atol" not in report


def test_failed_run_removes_stale_csv(tmp_path):
    # the rerun trips the overflow guard in the closed loop, so it has no
    # trajectory to write; the first run's CSV must not survive beside its
    # failed report
    code1, out = _run(tmp_path, QUICK_HARMONIC)
    name = "harmonic_regulation"
    assert code1 == 0 and (out / f"{name}.csv").exists()
    code2, out = _run(tmp_path, QUICK_HARMONIC + ["--guard", "2.5"])
    assert code2 == 1
    report = (out / f"{name}_report.txt").read_text()
    assert "passed = false" in report
    assert "integration_error = state magnitude exceeded 2.5" in report
    assert not (out / f"{name}.csv").exists()


def test_baseline_runs_on_the_run_settings(tmp_path, monkeypatch):
    # the comparator integrates with the flags' method and output grid, and
    # its report and CSV say what ran
    import nimreg.sim

    ran = []
    original = nimreg.sim.integrate

    def recording(*args, **kwargs):
        ran.append((kwargs["method"], kwargs["dt_out"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(nimreg.sim, "integrate", recording)
    code, out = _run(tmp_path, ["--benchmark", "harmonic", "--baseline",
                                "--dt-out", "0.1", "--method", "dopri5",
                                "--horizon", "5", "--n-samples", "4",
                                "--transient-time", "5", "--sample-time", "5"])
    assert code in (0, 1)
    assert ran == [("dopri5", 0.1)]
    report = (out / "harmonic_linear_baseline_report.txt").read_text()
    assert "method = dopri5" in report and "dt_out = 0.1" in report
    with open(out / "harmonic_linear_baseline.csv", newline="") as fh:
        t = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    assert len(t) == 51
    assert max(abs(b - a - 0.1) for a, b in zip(t, t[1:])) < 1e-9


def test_failing_run_exits_one_with_report(tmp_path, capsys):
    # vdp baseline is the documented failure case; report still written
    out = tmp_path / "out"
    code = main(["run", "--benchmark", "vdp", "--baseline",
                 "--horizon", "60", "--n-samples", "6",
                 "--transient-time", "10", "--sample-time", "5",
                 "--out-dir", str(out)])
    assert code == 1
    report = (out / "vdp_linear_baseline_report.txt").read_text()
    assert "passed = false" in report
    assert "FAIL" in capsys.readouterr().out


def test_sweep_single_point_matches_run(tmp_path):
    run_out = tmp_path / "run"
    sweep_out = tmp_path / "sweep"
    assert main(["run", "--out-dir", str(run_out)] + QUICK_STATIC) == 0
    assert main(["sweep", "--param", "kappa", "--grid", "1.5",
                 "--out-dir", str(sweep_out)] + QUICK_STATIC) == 0
    run_report = (run_out / "static_regulation_report.txt").read_text()
    sweep_report = (sweep_out / "static_kappa_1.5_report.txt").read_text()
    assert sweep_report == run_report
    agg = (sweep_out / "sweep_kappa.csv").read_text().splitlines()
    assert agg[0] == "param,value,kappa,k,k_bar,tail_sup_e,alpha_e,t_bar,passed"
    assert len(agg) == 2
    assert agg[1].startswith("kappa,1.5,")
    assert agg[1].endswith(",true")


def test_sweep_tolerates_bad_point(tmp_path, capsys):
    # k = 1 sits below Gamma G = kappa = 1.5, so k_bar <= 0 fails that point;
    # the aggregate still covers every grid value and the sweep exits 1
    out = tmp_path / "out"
    code = main(["sweep", "--param", "k", "--grid", "1.0,3.5",
                 "--out-dir", str(out)] + QUICK_STATIC)
    assert code == 1
    agg = (out / "sweep_k.csv").read_text().splitlines()
    assert len(agg) == 3
    assert agg[1].endswith(",false")
    assert agg[2].endswith(",true")
    assert "error" in (out / "static_k_1_report.txt").read_text()


def test_sweep_over_gains_synthesizes_once(tmp_path, monkeypatch):
    import nimreg.analysis

    calls = []
    original = nimreg.analysis.estimate_attractor

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nimreg.analysis, "estimate_attractor", counted)
    main(["sweep", "--param", "k", "--grid", "1.0,3.5",
          "--out-dir", str(tmp_path)] + QUICK_STATIC)
    assert len(calls) == 1


def test_verify_subcommand(tmp_path, capsys):
    assert main(["verify", "--benchmark", "static"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("benchmark=static residual_flow=")
    assert "passed=true" in line


def test_usage_error_exits_two():
    # argparse handles missing required flags itself
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--param", "kappa"])
    assert err.value.code == 2


def test_sweep_over_k_searches_kappa_once(tmp_path, monkeypatch):
    import nimreg.cli

    calls = []
    original = nimreg.cli.find_kappa_star

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nimreg.cli, "find_kappa_star", counted)
    main(["sweep", "--param", "k", "--grid", "20,40", "--out-dir", str(tmp_path),
          "--benchmark", "harmonic", "--horizon", "30", "--n-samples", "6",
          "--transient-time", "10", "--sample-time", "5"])
    assert len(calls) == 1
    assert "kappa_search_rate" in (tmp_path / "harmonic_k_40_report.txt").read_text()


# the second run trips the overflow guard, so it has no fits at all
@pytest.mark.parametrize("args", [QUICK_HARMONIC, QUICK_HARMONIC + ["--guard", "2.5"]],
                         ids=["harmonic", "harmonic-diverged"])
def test_report_residual_lines_are_the_fit_residuals(tmp_path, monkeypatch, args):
    # each rate comes with the rms residual of its log-linear fit, so a rate
    # fitted to a tracking error that does not decay can be told apart
    import nimreg.cli

    reports = []
    original = nimreg.cli._run_experiment

    def recording(pipe):
        report, experiment = original(pipe)
        reports.append(report)
        return report, experiment

    monkeypatch.setattr(nimreg.cli, "_run_experiment", recording)
    main(["run", "--out-dir", str(tmp_path)] + args)
    (path,) = tmp_path.glob("*_report.txt")
    lines = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    (report,) = reports
    for key, fit in (("alpha_e", report.fit_e), ("alpha_chi", report.fit_chi),
                     ("alpha_dist", report.fit_dist)):
        assert lines[f"{key}_residual"] == ("none" if fit is None
                                            else repr(fit.residual)), key
