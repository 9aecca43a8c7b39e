import configparser
import dataclasses
import io
import json
import re
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

import rdesplit.cli as cli
from rdesplit import RoughDriver, SecondOrderMap
from rdesplit.cli import main

SMOOTH = """
[driver]
kind = smooth
d = 2
resolution = 256

[field]
preset = sine
scale = 0.8

[problem]
y0 = 0.1, -0.2
n_steps = 16

[experiment]
levels = 3
base_n = 4
"""

ZERO_FIELD = SMOOTH.replace("preset = sine", "preset = constant").replace(
    "scale = 0.8", "scale = 0.0") + "\n[z]\nkind = zero\n"

BLOWUP = SMOOTH.replace("preset = sine", "preset = linear").replace(
    "scale = 0.8", "scale = 1e8").replace("n_steps = 16", "n_steps = 64")


SYNTHETIC = SMOOTH.replace("kind = smooth", "kind = synthetic\nlevels = 8").replace(
    "resolution = 256", "alpha = 0.45")


def with_value(config_text, section, key, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config_text)
    parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def strict_json(path):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def run_cli(tmp_path, config_text, args, name="cfg.ini"):
    cfg = tmp_path / name
    cfg.write_text(config_text)
    out = tmp_path / "out"
    runner = CliRunner()
    return runner.invoke(main, args + ["--config", str(cfg), "--out", str(out)]), out


def test_solve_zero_field_constant_trajectory(tmp_path):
    result, out = run_cli(tmp_path, ZERO_FIELD, ["solve"])
    assert result.exit_code == 0, result.output
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "j,t,u1,u2,v1,v2"
    u_cols = {tuple(r.split(",")[2:4]) for r in rows[1:]}
    assert u_cols == {("0.1", "-0.2")}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["y_final"] == [0.1, -0.2]
    assert (out / "config.ini").exists()


def test_solve_with_oracle_reports_deviation(tmp_path):
    result, out = run_cli(tmp_path, SMOOTH, ["solve", "--oracle"])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["max_oracle_deviation"] < 1e-2


def test_malformed_config_exits_2(tmp_path):
    result, _ = run_cli(tmp_path, SMOOTH + "\n[field]\ntypo = 1\n", ["solve"])
    assert result.exit_code == 2
    result, _ = run_cli(tmp_path, "garbage", ["solve"])
    assert result.exit_code == 2


def test_missing_config_file_exits_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["solve", "--config", str(tmp_path / "no.ini"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_numeric_blowup_exits_3(tmp_path):
    result, _ = run_cli(tmp_path, BLOWUP, ["solve"])
    assert result.exit_code == 3
    # rates marches seeds 5, 6 and 7 together and names the one that failed
    text = SYNTHETIC.replace("preset = sine", "preset = linear").replace(
        "scale = 0.8", "scale = 1e8")
    result, out = run_cli(tmp_path, text, ["rates", "--kind", "sup",
                                           "--seed", "5"])
    assert result.exit_code == 3
    assert re.search(r"numeric failure: seed [567]: solve at N=\d+ failed: "
                     r"state left finite range at step \d+( in member \d)?$",
                     result.output.strip()), result.output
    assert not (out / "rates_summary.json").exists()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_compare_schemes_blowup_names_the_level(tmp_path):
    result, out = run_cli(tmp_path, BLOWUP, ["compare-schemes"])
    assert result.exit_code == 3
    assert re.search(r"numeric failure: (split|Milstein) solve at "
                     r"N=(64|128|256) failed: "
                     r"state left finite range at step \d+$",
                     result.output.strip()), result.output
    assert not (out / "compare.json").exists()


def nan_where(z, bad):
    """``z`` with NaN rows wherever ``bad(x, s, t)``."""

    def fn(x, s, t):
        return np.full(z.n, np.nan) if bad(x, s, t) else z(x, s, t)

    return SecondOrderMap(z.n, fn, name="nan-where")


@pytest.mark.parametrize("bad,named", [
    # NaN on the intervals that end after t = 0.75: both schemes fail at
    # step 13 of N = 16 first, and at equal steps split is named
    pytest.param(lambda x, s, t: t > 0.75,
                 "split solve at N=16 failed: "
                 "state left finite range at step 13", id="equal-steps"),
    # NaN at the initial state too, where a Milstein step evaluates Z and a
    # split step does not: Milstein fails at step 1, before split does
    pytest.param(lambda x, s, t: t > 0.75 or (x == [0.1, -0.2]).all(),
                 "Milstein solve at N=16 failed: "
                 "state left finite range at step 1", id="milstein-first"),
])
def test_compare_schemes_names_the_earliest_failure_over_both_schemes(
        tmp_path, monkeypatch, bad, named):
    build = cli.build_problem

    def build_problem(cfg, seed_override=None):
        problem, grid = build(cfg, seed_override)
        return dataclasses.replace(problem, z=nan_where(problem.z, bad)), grid

    monkeypatch.setattr(cli, "build_problem", build_problem)
    result, out = run_cli(tmp_path, SMOOTH, ["compare-schemes"])
    assert result.exit_code == 3
    assert result.output.strip() == f"numeric failure: {named}"
    assert not (out / "split.csv").exists()


def test_compare_schemes_queries_each_grid_once(tmp_path, monkeypatch):
    # split and Milstein members on one grid share its driver queries
    calls = Counter()
    for name in ("increment_many", "area_many"):
        def counted(self, ss, tt, name=name, query=getattr(RoughDriver, name)):
            calls[name] += 1
            return query(self, ss, tt)

        monkeypatch.setattr(RoughDriver, name, counted)
    result, _ = run_cli(tmp_path, SYNTHETIC, ["compare-schemes"])
    assert result.exit_code == 0, result.output
    assert calls == {"increment_many": 3, "area_many": 3}


def test_out_of_memory_exits_2(tmp_path, monkeypatch):
    def solve_split(*args):
        raise MemoryError("Unable to allocate 64.0 TiB for an array")

    monkeypatch.setattr(cli, "solve_split", solve_split)
    result, _ = run_cli(tmp_path, SMOOTH, ["solve"])
    assert result.exit_code == 2
    assert result.output.strip() == ("invalid run: out of memory: "
                                     "Unable to allocate 64.0 TiB for an array")


@pytest.mark.parametrize("key,message", [
    # rng.uniform cannot sample [y0 - box, y0 + box]
    pytest.param("experiment.box", "high - low range exceeds valid bounds",
                 id="experiment.box"),
    # the Lipschitz checker's distance ** (gamma - 2)
    pytest.param("field.gamma", "(34, 'Numerical result out of range')",
                 id="field.gamma"),
])
def test_check_z_overflow_exits_2(tmp_path, key, message):
    section, name = key.split(".")
    text = with_value(SMOOTH.replace("n_steps = 16", "n_steps = 8")
                      + "samples = 2\n", section, name, "1e308")
    result, out = run_cli(tmp_path, text, ["check-z"])
    assert result.exit_code == 2
    assert result.output == f"invalid run: overflow: {message}\n"
    assert not (out / "z_bound.json").exists()


@pytest.mark.parametrize("key", [
    "driver.alpha", "field.gamma", "field.scale", "problem.t_final",
    "problem.y0", "experiment.beta", "experiment.box",
])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_float_exits_2(tmp_path, key, bad):
    section, name = key.split(".")
    text = with_value(SMOOTH, section, name,
                      f"0.1, {bad}" if name == "y0" else bad)
    result, out = run_cli(tmp_path, text, ["rates", "--kind", "sup"])
    assert result.exit_code == 2, result.output
    assert not (out / "rates_summary.json").exists()


@pytest.mark.parametrize("args,outputs", [
    (["solve"], ["summary.json", "trajectory.csv"]),
    (["rates", "--kind", "sup"], ["rates_summary.json", "rates_seed5.csv"]),
])
def test_copied_config_reproduces_run_under_seed(tmp_path, args, outputs):
    result, out = run_cli(tmp_path, SYNTHETIC, args + ["--seed", "5"])
    assert result.exit_code == 0, result.output
    rerun = tmp_path / "rerun"
    result = CliRunner().invoke(main, args + ["--config", str(out / "config.ini"),
                                              "--out", str(rerun)])
    assert result.exit_code == 0, result.output
    for name in outputs:
        assert (rerun / name).read_bytes() == (out / name).read_bytes()


def test_relative_driver_path_resolves_against_the_config(tmp_path,
                                                         monkeypatch):
    from rdesplit import synth_midpoint_path

    data = tmp_path / "data"
    data.mkdir()
    with open(data / "path.csv", "w") as fh:
        synth_midpoint_path(3, 0.45, 6, 2).to_csv(fh)
    config = data / "cfg.ini"
    config.write_text(SMOOTH.replace("kind = smooth",
                                     "kind = file\npath = path.csv"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    result = CliRunner().invoke(main, ["solve", "--config", "../data/cfg.ini",
                                       "--out", "run"])
    assert result.exit_code == 0, result.output
    copied = elsewhere / "run" / "config.ini"
    assert f"path = {data / 'path.csv'}" in copied.read_text()
    # the copy names the driver file absolutely: it reruns from anywhere
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["solve", "--config", str(copied),
                                       "--out", "rerun"])
    assert result.exit_code == 0, result.output
    for name in ("summary.json", "trajectory.csv"):
        assert ((tmp_path / "rerun" / name).read_bytes()
                == (elsewhere / "run" / name).read_bytes())


def test_outputs_deterministic(tmp_path):
    r1, out1 = run_cli(tmp_path, SMOOTH, ["solve"])
    files1 = {p.name: p.read_bytes() for p in out1.iterdir()}
    r2, out2 = run_cli(tmp_path, SMOOTH, ["solve"])
    files2 = {p.name: p.read_bytes() for p in out2.iterdir()}
    assert r1.exit_code == r2.exit_code == 0
    assert files1 == files2


def test_rates_sup_smooth(tmp_path):
    result, out = run_cli(tmp_path, SMOOTH, ["rates", "--kind", "sup"])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "rates_summary.json").read_text())
    assert set(summary) == {"target", "slope", "slopes", "norm_kind", "seeds"}
    assert summary["target"] == pytest.approx(0.5)
    assert summary["seeds"] == [0]
    csv = (out / "rates_seed0.csv").read_text().splitlines()
    assert csv[0] == "level,N,h,diff,log2_diff"
    assert len(csv) == 4


def test_rates_exact_agreement_is_strict_json(tmp_path):
    result, out = run_cli(tmp_path, ZERO_FIELD, ["rates", "--kind", "sup"])
    assert result.exit_code == 0, result.output
    summary = strict_json(out / "rates_summary.json")
    assert summary["slope"] is None
    assert summary["exact_agreement"] is True


def test_rates_holder_synthetic_runs_three_seeds(tmp_path):
    text = SMOOTH.replace("kind = smooth", "kind = synthetic\nseed = 17\nlevels = 8")
    text = text.replace("resolution = 256", "alpha = 0.45")
    text = text.replace("base_n = 4", "base_n = 8\nbeta = 0.2\nseeds = 3")
    result, out = run_cli(tmp_path, text, ["rates", "--kind", "holder"])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "rates_summary.json").read_text())
    assert summary["seeds"] == [17, 18, 19]
    assert summary["norm_kind"] == "holder(0.2)"
    for s in (17, 18, 19):
        assert (out / f"rates_seed{s}.csv").exists()


def test_rates_rational_respects_divisibility(tmp_path):
    bad = SMOOTH.replace("base_n = 4", "base_n = 5")
    result, _ = run_cli(tmp_path, bad, ["rates", "--kind", "rational"])
    assert result.exit_code == 2
    result, out = run_cli(tmp_path, SMOOTH, ["rates", "--kind", "rational"])
    assert result.exit_code == 0, result.output


def test_check_z_writes_three_reports(tmp_path):
    result, out = run_cli(tmp_path, SMOOTH, ["check-z"])
    assert result.exit_code == 0, result.output
    for name, condition in (("z_bound.json", "z_bound"),
                            ("z_lipschitz.json", "z_lipschitz"),
                            ("z_cocycle.json", "z_cocycle")):
        payload = json.loads((out / name).read_text())
        assert payload["condition"] == condition
        assert np.isfinite(payload["max_ratio"])
        assert set(payload["witness"]) >= {"x", "s", "u", "t"}
        assert "box" in payload


def test_check_z_dimension_mismatch_exits_2(tmp_path):
    from rdesplit import SampledPath

    p = tmp_path / "path3.csv"
    path = SampledPath(np.linspace(0, 1, 4), np.arange(12.0).reshape(4, 3))
    with open(p, "w") as fh:
        path.to_csv(fh)
    text = SMOOTH.replace("kind = smooth", f"kind = file\npath = {p}")
    result, _ = run_cli(tmp_path, text, ["check-z"])  # config d=2, file d=3
    assert result.exit_code == 2


def test_check_z_zero_map_reports_zero_ratios(tmp_path):
    result, out = run_cli(tmp_path, ZERO_FIELD, ["check-z"])
    assert result.exit_code == 0, result.output
    for name in ("z_bound.json", "z_lipschitz.json", "z_cocycle.json"):
        assert json.loads((out / name).read_text())["max_ratio"] == 0.0


def test_davie_report(tmp_path):
    result, out = run_cli(tmp_path, SMOOTH, ["davie"])
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "davie.json").read_text())
    assert payload["n_steps"] == 16
    assert payload["k"] < payload["m"]
    assert payload["exponent"] == pytest.approx(1.5)


def test_compare_schemes(tmp_path):
    result, out = run_cli(tmp_path, SMOOTH, ["compare-schemes"])
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "compare.json").read_text())
    assert payload["levels"] == [16, 32, 64]
    assert len(payload["max_diffs"]) == 3
    assert payload["order"] >= 1.0
    assert (out / "split.csv").exists()
    assert (out / "milstein.csv").exists()


def test_compare_schemes_zero_z_exact(tmp_path):
    result, out = run_cli(tmp_path, ZERO_FIELD, ["compare-schemes"])
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "compare.json").read_text())
    assert payload["exact_agreement"]
    assert payload["max_diffs"] == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------- one march

def _reference_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _reference_rate_files(cfg, kind):
    """The files of ``rates --kind kind`` assembled from one ``solve_split``
    per seed and level."""
    from rdesplit import (Grid, RateReport, SampledPath, common_indices,
                          fit_rate, hoelder_seminorm, rates_summary,
                          solve_split)
    from rdesplit.config import build_problem
    from rdesplit.convergence_lab import quarter_times

    exp = cfg.experiment
    seeds = [cfg.driver.seed + i for i in range(exp.seeds)]
    files, reports = {}, []
    for seed in seeds:
        p = build_problem(cfg, seed)[0]

        def solve(N):
            return solve_split(p.driver, p.field, p.z, p.y0, Grid(p.T, N))

        gamma_alpha = min(p.field.gamma, 3.0) * p.alpha - 1.0
        if kind == "rational":
            Ns = [exp.base_n * 2**n for n in range(exp.levels)]
            diffs = []
            for N in Ns:
                ci, fi = common_indices(N, exp.q_num, exp.q_den)
                delta = (solve(N).u[ci]
                         - solve(N * exp.q_num // exp.q_den).u[fi])
                diffs.append(float(np.max(np.linalg.norm(delta, axis=1))))
            target, norm_kind = gamma_alpha, "sup"
        else:
            Ns = [exp.base_n * 2**n for n in range(exp.levels + 1)]
            trajs = [solve(N) for N in Ns]
            diffs = []
            for coarse, fine in zip(trajs, trajs[1:]):
                if kind == "sup":
                    delta = coarse.u - fine.u[::2]
                    diffs.append(float(np.max(np.linalg.norm(delta, axis=1))))
                    continue
                times = quarter_times(coarse.grid)
                delta = coarse.eval_joined(times) - fine.eval_joined(times)
                diffs.append(hoelder_seminorm(SampledPath(times, delta),
                                              exp.beta))
            Ns = Ns[:-1]
            if kind == "sup":
                target, norm_kind = gamma_alpha, "sup"
            else:
                target = min(p.alpha - exp.beta, gamma_alpha)
                norm_kind = f"holder({exp.beta})"
        report = RateReport(levels=Ns, hs=[p.T / N for N in Ns], diffs=diffs,
                            slope=fit_rate(Ns, diffs), target=target,
                            norm_kind=norm_kind)
        buf = io.StringIO()
        report.write_csv(buf)
        files[f"rates_seed{seed}.csv"] = buf.getvalue()
        reports.append(report)
    files["rates_summary.json"] = _reference_json(rates_summary(reports,
                                                                seeds))
    return files


def _reference_compare_files(cfg):
    """The files of ``compare-schemes`` assembled from one ``solve_split``
    and one ``solve_milstein`` per level."""
    from rdesplit import (Grid, fit_rate, solve_milstein, solve_split,
                          write_trajectory_csv)
    from rdesplit.config import build_problem

    p, grid = build_problem(cfg)
    args = (p.driver, p.field, p.z, p.y0)
    files, diffs = {}, []
    levels = [grid.N, 2 * grid.N, 4 * grid.N]
    for N in levels:
        split = solve_split(*args, Grid(grid.T, N))
        milstein = solve_milstein(*args, Grid(grid.T, N))
        diffs.append(float(np.max(np.linalg.norm(split.u - milstein.values,
                                                 axis=1))))
        if N == grid.N:
            for name, traj in (("split.csv", split),
                               ("milstein.csv", milstein)):
                buf = io.StringIO()
                write_trajectory_csv(traj, buf)
                files[name] = buf.getvalue()
    order = fit_rate(levels, diffs)
    files["compare.json"] = _reference_json({
        "levels": levels, "max_diffs": diffs,
        "order": None if order == float("inf") else order,
        "exact_agreement": order == float("inf")})
    return files


@pytest.mark.parametrize("args", [
    ["rates", "--kind", "sup"], ["rates", "--kind", "rational"],
    ["rates", "--kind", "holder"], ["compare-schemes"]])
def test_marched_commands_write_the_per_level_solves_files(tmp_path, args):
    # rates marches every level of every seed at once, and compare-schemes
    # all three levels of each scheme; the files must be those of one solve
    # per seed, level and scheme
    from rdesplit.config import ProblemConfig

    text = SYNTHETIC.replace("levels = 3", "levels = 3\nseeds = 3")
    result, out = run_cli(tmp_path, text, args)
    assert result.exit_code == 0, result.output
    cfg = ProblemConfig.parse(text)
    if args[0] == "rates":
        expected = _reference_rate_files(cfg, args[-1])
    else:
        expected = _reference_compare_files(cfg)
    expected["config.ini"] = cfg.emit()
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written) == sorted(expected)
    for name, content in expected.items():
        assert written[name] == content.encode("utf-8"), name
