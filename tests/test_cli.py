import configparser
import dataclasses
import io
import json
import re
import traceback
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import rdesplit.cli as cli
import rdesplit.config as config
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


def one_line_failure(result, pattern):
    """The run exited 3 with stdout empty and stderr the single line
    ``numeric failure: ...`` matching ``pattern``, no numpy warning before it."""
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert re.fullmatch(f"numeric failure: {pattern}\n", result.stderr), \
        result.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_blowup_exits_3(tmp_path):
    result, _ = run_cli(tmp_path, BLOWUP, ["solve"])
    one_line_failure(result, r"state left finite range at step \d+")
    # rates marches seeds 5, 6 and 7 together and names the one that failed
    text = SYNTHETIC.replace("preset = sine", "preset = linear").replace(
        "scale = 0.8", "scale = 1e8")
    result, out = run_cli(tmp_path, text, ["rates", "--kind", "sup",
                                           "--seed", "5"])
    one_line_failure(result, r"seed [567]: solve at N=\d+ failed: "
                             r"state left finite range at step \d+")
    assert not (out / "rates_summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compare_schemes_blowup_names_the_level(tmp_path):
    result, out = run_cli(tmp_path, BLOWUP, ["compare-schemes"])
    one_line_failure(result, r"(split|Milstein) solve at N=(64|128|256) "
                             r"failed: state left finite range at step \d+")
    assert not (out / "compare.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_blowup_exits_3_naming_its_step(tmp_path):
    # along x = 1000 t the linear field of seed 1 gives dY ≈ 346 Y dt.  The
    # split solve takes increments of 0.08 and ends near 3e305, while the
    # RK4 slopes 1000 f(Y) leave the float range once Y passes about 9e304
    (tmp_path / "path.csv").write_text("t,x1\n0,0\n1,1000\n")
    text = f"""
[driver]
kind = file
d = 1
path = {tmp_path / "path.csv"}

[field]
preset = linear
seed = 1

[problem]
y0 = 1e304
t_final = 0.01
n_steps = 128
"""
    result, out = run_cli(tmp_path, text, ["solve", "--oracle"])
    one_line_failure(result, "reference integration left finite range "
                             "at step 81")
    assert not (out / "summary.json").exists()
    result, out = run_cli(tmp_path, text, ["solve"])
    assert result.exit_code == 0, result.output


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


@pytest.fixture
def refuse_to_build(monkeypatch):
    """Make building any driver path or lift a test failure (exit 1).

    The driver cache is cleared on both sides, so that no driver an earlier
    test cached stands in for a build and none built here outlives the test.
    """
    def build(*args, **kwargs):
        raise AssertionError("a driver above the cap was built")

    config.clear_driver_cache()
    for name in ("smooth_path", "synth_midpoint_path", "lift_piecewise_linear"):
        monkeypatch.setattr(config, name, build)
    yield
    config.clear_driver_cache()


@pytest.mark.parametrize("text,what", [
    # 2^40 samples, 16 TiB of values: about levels = 30 the path alone
    # would exhaust the host's memory
    pytest.param(SYNTHETIC.replace("levels = 8", "levels = 40"),
                 "driver.levels = 40 at d = 2", id="levels"),
    pytest.param(SMOOTH.replace("resolution = 256", f"resolution = {2**40}"),
                 f"driver.resolution = {2**40} at d = 2", id="resolution"),
    # d² = 10^10 entries per segment
    pytest.param(SYNTHETIC.replace("d = 2", "d = 100000"),
                 "driver.levels = 8 at d = 100000", id="d"),
])
@pytest.mark.parametrize("args", [["solve"], ["rates", "--kind", "sup"]])
def test_driver_above_the_cap_exits_2_before_it_is_built(tmp_path,
                                                         refuse_to_build,
                                                         text, what, args):
    result, out = run_cli(tmp_path, text, args)
    assert result.exit_code == 2, result.output
    assert result.output == (f"invalid run: driver too large: {what} exceeds "
                             "the cap of 2^24 lift entries (segments × d², "
                             "MAX_LIFT_ENTRIES)\n")
    assert not (out / "config.ini").exists()


def test_driver_file_above_the_cap_exits_2_before_it_is_lifted(
        tmp_path, refuse_to_build):
    # one segment at d = 4097: 4097² = 2^24 + 8193 entries
    d = 4097
    (tmp_path / "path.csv").write_text(
        "t," + ",".join(f"x{a + 1}" for a in range(d)) + "\n"
        + "0" + ",0" * d + "\n" + "1" + ",1" * d + "\n")
    text = SMOOTH.replace("kind = smooth", f"kind = file\npath = path.csv")
    result, _ = run_cli(tmp_path, text.replace("d = 2", f"d = {d}"), ["solve"])
    assert result.exit_code == 2, result.output
    assert result.output == ("invalid run: driver too large: a driver file of "
                             f"1 segments at d = {d} exceeds the cap of 2^24 "
                             "lift entries (segments × d², MAX_LIFT_ENTRIES)\n")


def test_ragged_driver_file_exits_2_naming_the_file_and_the_line(tmp_path):
    # one short row among full ones
    (tmp_path / "path.csv").write_text("t,x1,x2\n0,0,0\n0.5,1\n1,1,1\n")
    text = SMOOTH.replace("kind = smooth", "kind = file\npath = path.csv")
    result, out = run_cli(tmp_path, text, ["solve"])
    assert result.exit_code == 2, result.output
    assert result.output == (f"invalid run: driver file {tmp_path / 'path.csv'}"
                             ": malformed path rows: line 3 has 2 fields, "
                             "the header has 3\n")
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("text, fault", [
    pytest.param("t\n0\n1\n", "values must have at least one component",
                 id="no-component"),
    pytest.param("t,x1,x2\n0,0,0\n", "need at least 2 samples to interpolate",
                 id="one-row"),
])
def test_unliftable_driver_file_exits_2_naming_the_file(tmp_path, text,
                                                         fault):
    (tmp_path / "path.csv").write_text(text)
    config_text = SMOOTH.replace("kind = smooth", "kind = file\npath = path.csv")
    result, out = run_cli(tmp_path, config_text, ["solve"])
    assert result.exit_code == 2, result.output
    assert result.output == (f"invalid run: driver file {tmp_path / 'path.csv'}"
                             f": {fault}\n")
    assert [p.name for p in out.iterdir()] == ["config.ini"]


def test_a_t_final_past_the_driver_span_names_a_driver_file(tmp_path):
    # a generated driver keeps the message without a file
    (tmp_path / "path.csv").write_text("t,x1,x2\n0,0,0\n0.5,1,1\n")
    text = SMOOTH.replace("kind = smooth", "kind = file\npath = path.csv")
    result, out = run_cli(tmp_path, text, ["solve"])
    assert result.exit_code == 2, result.output
    assert result.output == (f"invalid run: driver file {tmp_path / 'path.csv'}"
                             ": t_final=1.0 exceeds the driver span "
                             "[0.0, 0.5]\n")
    assert [p.name for p in out.iterdir()] == ["config.ini"]
    text = with_value(SMOOTH, "problem", "t_final", "2.0")
    result, _ = run_cli(tmp_path, text, ["solve"])
    assert result.exit_code == 2, result.output
    assert result.output == ("invalid run: t_final=2.0 exceeds the driver "
                             "span [0.0, 1.0]\n")


@pytest.mark.parametrize("args", [["solve"], ["solve", "--oracle"]],
                         ids=" ".join)
def test_a_t_final_within_the_span_slack_runs_the_reference_too(tmp_path,
                                                                args):
    # the slack is 1e-12 * max(1, T) for build_problem and the reference
    # alike: a t_final 8e-13 past a path ending at 5e-4 passes both checks
    from rdesplit import SampledPath

    times = np.linspace(0.0, 5e-4, 65)
    with open(tmp_path / "path.csv", "w") as fh:
        SampledPath(times, np.column_stack([np.sin(4e3 * times),
                                            np.cos(4e3 * times)])).to_csv(fh)
    text = with_value(SMOOTH.replace("kind = smooth",
                                     "kind = file\npath = path.csv"),
                      "problem", "t_final", repr(5e-4 + 8e-13))
    result, out = run_cli(tmp_path, text, args)
    assert result.exit_code == 0, result.output
    summary = strict_json(out / "summary.json")
    assert summary["t_final"] == 5e-4 + 8e-13
    assert ("max_oracle_deviation" in summary) == ("--oracle" in args)


@pytest.mark.parametrize("args", [
    ["solve"], ["solve", "--oracle"], ["davie"], ["check-z"],
    ["rates", "--kind", "sup"], ["rates", "--kind", "rational"],
    ["compare-schemes"]], ids=" ".join)
def test_driver_file_after_t0_exits_2_naming_the_file_and_span(tmp_path, args):
    # the run starts at t = 0: every command would fail at its first query
    (tmp_path / "path.csv").write_text("t,x1,x2\n0.5,0,0\n1.5,1,1\n")
    text = SMOOTH.replace("kind = smooth", "kind = file\npath = path.csv")
    result, out = run_cli(tmp_path, text, args)
    assert result.exit_code == 2, result.output
    assert result.output == (f"invalid run: driver file {tmp_path / 'path.csv'}"
                             ": path span [0.5, 1.5] starts after t = 0\n")
    assert [p.name for p in out.iterdir()] == ["config.ini"]


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


@pytest.mark.parametrize("text,message", [
    pytest.param(with_value(SMOOTH, "driver", "d", "0"),
                 "driver.d must be positive", id="driver.d"),
    pytest.param(with_value(SYNTHETIC, "driver", "levels", "0"),
                 "driver.levels must be >= 1", id="driver.levels"),
    pytest.param(with_value(SMOOTH, "driver", "resolution", "0"),
                 "driver.resolution must be >= 1", id="driver.resolution"),
    pytest.param(with_value(SMOOTH, "driver", "kind", "file"),
                 "driver.path is required for kind=file", id="driver.path"),
    pytest.param(with_value(SMOOTH, "field", "preset", "cubic"),
                 f"field.preset must be one of {config.FIELD_PRESETS}, "
                 "got 'cubic'", id="field.preset"),
    pytest.param(with_value(SMOOTH, "field", "gamma", "2.0"),
                 "field.gamma must exceed 2", id="field.gamma"),
    pytest.param(SMOOTH + "\n[z]\nkind = cubic\n",
                 f"z.kind must be one of {config.Z_KINDS}, got 'cubic'",
                 id="z.kind"),
    pytest.param(with_value(SMOOTH, "problem", "t_final", "0"),
                 "problem.t_final must be positive", id="problem.t_final"),
    pytest.param(with_value(SMOOTH, "problem", "n_steps", "0"),
                 "problem.n_steps must be >= 1", id="problem.n_steps"),
    pytest.param(with_value(SMOOTH, "experiment", "box", "0"),
                 "experiment.box must be positive", id="experiment.box"),
    pytest.param(SMOOTH.replace("kind = smooth\n", ""),
                 "missing required key driver.kind", id="driver.kind"),
    pytest.param(SMOOTH.replace("y0 = 0.1, -0.2\n", ""),
                 "missing required key problem.y0", id="problem.y0"),
    *[pytest.param(with_value(SMOOTH, "experiment", key, "0"),
                   f"experiment.{key} must be >= 1", id=f"experiment.{key}")
      for key in ("levels", "base_n", "seeds", "samples")],
    # a blank part would silently drop a state: n would change
    *[pytest.param(with_value(SMOOTH, "problem", "y0", raw),
                   f"bad value for problem.y0: {raw!r}", id=f"problem.y0={raw}")
      for raw in ("0.1, , -0.2", "0.1, -0.2,", ",0.1")],
    pytest.param(SMOOTH.replace("n_steps = 16", "n_steps = 16\nwibble = 3"),
                 "unknown key 'wibble' in [problem]", id="unknown-key"),
])
def test_invalid_config_value_exits_2_naming_it(tmp_path, text, message):
    result, out = run_cli(tmp_path, text, ["solve"])
    assert result.exit_code == 2, result.output
    assert result.output == f"invalid run: {message}\n"
    assert not (out / "config.ini").exists()


@pytest.mark.parametrize("args", [
    ["solve"], ["rates", "--kind", "sup"], ["check-z"], ["davie"],
    ["compare-schemes"]], ids=" ".join)
def test_every_command_copies_its_config_and_maps_failures_alike(tmp_path,
                                                                args):
    text = with_value(SMOOTH, "problem", "y0", "0.1, , -0.2")
    result, out = run_cli(tmp_path, text, args)
    assert result.exit_code == 2, result.output
    assert result.output == ("invalid run: bad value for problem.y0: "
                             "'0.1, , -0.2'\n")
    assert not out.exists()
    # an --out that names a file: the copy cannot be written
    out.write_text("")
    result, _ = run_cli(tmp_path, SMOOTH, args)
    assert result.exit_code == 2, result.output
    assert re.fullmatch(r"invalid run: .+\n", result.output), result.output
    assert str(out) in result.output
    out.unlink()
    result, out = run_cli(tmp_path, SMOOTH, args + ["--seed", "5"])
    assert result.exit_code == 0, result.output
    copy = configparser.ConfigParser(interpolation=None)
    copy.read(out / "config.ini")
    assert copy["driver"]["seed"] == "5"


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
    assert set(summary) == {"target", "slope", "slopes", "norm_kind", "seeds",
                            "exact_agreement"}
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


def test_rates_summary_keys_do_not_depend_on_the_data(tmp_path):
    keys = {}
    for name, text in (("exact", ZERO_FIELD), ("ordinary", SMOOTH)):
        (tmp_path / name).mkdir()
        result, out = run_cli(tmp_path / name, text, ["rates", "--kind", "sup"])
        assert result.exit_code == 0, result.output
        summary = strict_json(out / "rates_summary.json")
        assert summary["exact_agreement"] is (name == "exact")
        keys[name] = list(summary)
    assert keys["exact"] == keys["ordinary"]


# y0 = 1e200 along a smooth one-component driver: every state stays
# finite, but the squares of a difference of two trajectories overflow
HUGE = """
[driver]
kind = smooth
d = 1
alpha = 0.5
resolution = 1024

[field]
preset = linear
seed = 3

[problem]
y0 = 1e200
n_steps = 16

[experiment]
levels = 3
base_n = 16
seeds = 1
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["solve", "--oracle"], ["compare-schemes"], ["rates", "--kind", "sup"],
    ["rates", "--kind", "rational"], ["rates", "--kind", "holder"]],
    ids=" ".join)
def test_sup_norms_of_huge_finite_states_write_strict_json(tmp_path, args):
    result, out = run_cli(tmp_path, HUGE, args)
    assert result.exit_code == 0, result.output
    assert result.output == ""
    name = {"solve": "summary.json", "compare-schemes": "compare.json",
            "rates": "rates_summary.json"}[args[0]]
    strict_json(out / name)


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


def test_check_z_witness_keys_do_not_depend_on_the_data(tmp_path):
    # the zero map finds no bound or Lipschitz ratio above 0: those
    # witnesses keep every key of their condition, each null
    keys = {"z_bound.json": "xsut", "z_lipschitz.json": "xysut",
            "z_cocycle.json": "xsut"}
    for kind in ("canonical", "zero"):
        text = SMOOTH + f"\n[z]\nkind = {kind}\n"
        result, out = run_cli(tmp_path, text, ["check-z"], name=f"{kind}.ini")
        assert result.exit_code == 0, result.output
        for name, want in keys.items():
            witness = strict_json(out / name)["witness"]
            assert list(witness) == sorted(want), (kind, name)
    for name in ("z_bound.json", "z_lipschitz.json"):
        assert strict_json(out / name)["witness"] == dict.fromkeys(keys[name])


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


# ---------------------------------------------------------------- exit codes

FUZZ_COMMANDS = ([["solve"], ["solve", "--oracle"], ["check-z"], ["davie"],
                  ["compare-schemes"]]
                 + [["rates", "--kind", kind]
                    for kind in ("sup", "holder", "rational")])


def floats_text(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


# Every key with its valid raw values, sizes kept tiny: at most 6 levels,
# 16 steps, 64 path segments, 3 samples and 2 seeds.
FUZZ_KEYS = {
    "driver": {
        "kind": st.sampled_from(["smooth", "synthetic", "file"]),
        "d": st.sampled_from(["1", "2", "2"]),
        "alpha": floats_text(0.34, 0.5),
        "seed": st.integers(0, 50).map(str),
        "levels": st.integers(1, 6).map(str),
        "resolution": st.integers(1, 64).map(str),
        "path": st.just("path.csv"),
    },
    "field": {
        "preset": st.sampled_from(["constant", "linear", "sine"]),
        "gamma": floats_text(3.0, 5.0),
        "seed": st.integers(0, 50).map(str),
        # 1e8 blows a linear field up: exit 3
        "scale": st.sampled_from(["0.0", "0.5", "0.8", "1e8"]),
    },
    "z": {"kind": st.sampled_from(["canonical", "zero", "transposed",
                                   "rough-probe"])},
    "problem": {
        "y0": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(
            lambda y0: ", ".join(map(repr, y0))),
        "t_final": floats_text(0.05, 1.0),
        "n_steps": st.integers(1, 16).map(str),
    },
    "experiment": {
        "levels": st.integers(3, 6).map(str),
        "base_n": st.integers(4, 8).map(str),
        "beta": floats_text(0.05, 0.95),
        "q_num": st.integers(3, 5).map(str),
        "q_den": st.integers(2, 4).map(str),
        "seeds": st.integers(1, 2).map(str),
        "samples": st.integers(1, 3).map(str),
        "box": floats_text(0.1, 2.0),
    },
}
# Keys whose value sizes a run: an invalid value never makes it larger.
SIZE_KEYS = {("driver", "levels"), ("driver", "resolution"),
             ("problem", "n_steps"), ("experiment", "levels"),
             ("experiment", "base_n"), ("experiment", "seeds"),
             ("experiment", "samples")}
INVALID_SIZES = st.sampled_from(["0", "-1", "2.5", "x", ""])
INVALID_VALUES = st.sampled_from(["0", "-1", "0.3", "0.6", "2.0", "1e308",
                                  "nan", "inf", "-inf", "x", "", "1, 2"])


@st.composite
def fuzz_configs(draw):
    """INI text of a tiny config: all valid, or with invalid values, an
    unknown key or section, or a required section left out."""
    sections = {section: {key: draw(value) for key, value in keys.items()}
                for section, keys in FUZZ_KEYS.items()}
    for section, key in draw(st.lists(st.sampled_from(
            [(s, k) for s, keys in FUZZ_KEYS.items() for k in keys]),
            max_size=2)):
        sections[section][key] = draw(INVALID_SIZES if (section, key)
                                      in SIZE_KEYS else INVALID_VALUES)
    flaw = draw(st.sampled_from([None] * 6 + ["key", "section", "missing"]))
    if flaw == "key":
        sections["field"]["typo"] = "1"
    elif flaw == "section":
        sections["extra"] = {"key": "1"}
    elif flaw == "missing":
        del sections[draw(st.sampled_from(["driver", "problem"]))]
    return "".join(f"[{section}]\n"
                   + "".join(f"{key} = {value}\n"
                             for key, value in keys.items()) + "\n"
                   for section, keys in sections.items())


def assert_strict_outputs(out):
    """Every file in ``out`` is the copied config, strict JSON, or CSV with
    its documented header and rows as wide as the header."""
    from rdesplit.config import ProblemConfig

    if not out.exists():
        return
    n = None
    if (out / "config.ini").exists():
        n = len(ProblemConfig.parse((out / "config.ini").read_text())
                .problem.y0)
    for path in out.iterdir():
        if path.name == "config.ini":
            continue
        if path.suffix == ".json":
            strict_json(path)
            continue
        assert path.suffix == ".csv", path.name
        if re.fullmatch(r"rates_seed\d+\.csv", path.name):
            header = "level,N,h,diff,log2_diff"
        else:
            assert path.name in ("trajectory.csv", "split.csv",
                                 "milstein.csv"), path.name
            header = ",".join(["j", "t"] + [f"u{i + 1}" for i in range(n)]
                              + [f"v{i + 1}" for i in range(n)])
        rows = path.read_text().splitlines()
        assert rows[0] == header, path.name
        assert all(row.count(",") == header.count(",") for row in rows), \
            path.name


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@settings(max_examples=60, deadline=None)
@given(args=st.sampled_from(FUZZ_COMMANDS), text=fuzz_configs(),
       seed=st.one_of(st.none(), st.integers(0, 50)))
def test_every_command_exits_0_2_or_3_with_strict_outputs(
        tmp_path_factory, args, text, seed):
    from rdesplit import synth_midpoint_path

    work = tmp_path_factory.mktemp("fuzz")
    with open(work / "path.csv", "w") as fh:
        synth_midpoint_path(3, 0.45, 4, 2).to_csv(fh)
    if seed is not None:
        args = args + ["--seed", str(seed)]
    result, out = run_cli(work, text, args)
    assert result.exit_code in (0, 2, 3), "".join(
        traceback.format_exception(*result.exc_info))
    assert_strict_outputs(out)
