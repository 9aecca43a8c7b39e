import configparser
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

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
    assert set(summary) == {"target", "slope", "norm_kind", "seeds"}
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
