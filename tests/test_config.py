import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdesplit.config import (DRIVER_KINDS, FIELD_PRESETS, Z_KINDS, ConfigError,
                             DriverSpec, ExperimentSpec, FieldSpec,
                             ProblemConfig, SolveSpec, ZSpec, build_problem)

BASE = """
[driver]
kind = smooth
d = 2
resolution = 256

[field]
preset = sine
scale = 0.8

[problem]
y0 = 0.1, -0.2
t_final = 1.0
n_steps = 16
"""


def test_parse_minimal_config():
    cfg = ProblemConfig.parse(BASE)
    assert cfg.driver.kind == "smooth"
    assert cfg.problem.y0 == (0.1, -0.2)
    assert cfg.z.kind == "canonical"
    assert cfg.experiment.q_num == 3


def test_round_trip_is_identity_on_canonical_form():
    cfg = ProblemConfig.parse(BASE)
    text = cfg.emit()
    again = ProblemConfig.parse(text)
    assert again == cfg
    assert again.emit() == text


FULL = ProblemConfig(
    DriverSpec("file", d=3, alpha=0.45, seed=-7, levels=10, resolution=2048,
               path="/data/runs/path.csv"),
    FieldSpec("linear", gamma=2.5, seed=2, scale=0.1),
    ZSpec("transposed"),
    SolveSpec((0.1, -0.2, 1e-300), t_final=0.75, n_steps=12),
    ExperimentSpec(levels=5, base_n=32, beta=1 / 3, q_num=5, q_den=4, seeds=2,
                   samples=8, box=0.5))

FULL_TEXT = """[driver]
kind = file
d = 3
alpha = 0.45
seed = -7
levels = 10
resolution = 2048
path = /data/runs/path.csv

[field]
preset = linear
gamma = 2.5
seed = 2
scale = 0.1

[z]
kind = transposed

[problem]
y0 = 0.1, -0.2, 1e-300
t_final = 0.75
n_steps = 12

[experiment]
levels = 5
base_n = 32
beta = 0.3333333333333333
q_num = 5
q_den = 4
seeds = 2
samples = 8
box = 0.5

"""


def test_emit_pins_the_file_format():
    assert FULL.emit() == FULL_TEXT
    assert ProblemConfig.parse(FULL_TEXT) == FULL


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


counts = st.integers(1, 10**6)
ints = st.integers(-10**6, 10**6)
# INI values are stripped and end at a line break
paths = st.text(st.characters(exclude_categories=("C", "Z")) | st.just(" "),
                max_size=20).filter(lambda p: p == p.strip())


@st.composite
def valid_configs(draw):
    kind = draw(st.sampled_from(DRIVER_KINDS))
    driver = DriverSpec(
        kind, d=draw(counts), alpha=draw(finite(1 / 3, 0.5, exclude_min=True)),
        seed=draw(ints), levels=draw(counts if kind == "synthetic" else ints),
        resolution=draw(counts if kind == "smooth" else ints),
        path=draw(paths.filter(bool) if kind == "file"
                  else st.none() | paths))
    field = FieldSpec(draw(st.sampled_from(FIELD_PRESETS)),
                      gamma=draw(finite(2.0, exclude_min=True)),
                      seed=draw(ints), scale=draw(finite()))
    problem = SolveSpec(tuple(draw(st.lists(finite(), min_size=1, max_size=4))),
                        t_final=draw(finite(0.0, exclude_min=True)),
                        n_steps=draw(counts))
    experiment = ExperimentSpec(
        levels=draw(counts), base_n=draw(counts),
        beta=draw(finite(0.0, 1.0, exclude_min=True, exclude_max=True)),
        q_num=draw(ints), q_den=draw(ints), seeds=draw(counts),
        samples=draw(counts), box=draw(finite(0.0, exclude_min=True)))
    return ProblemConfig(driver, field, ZSpec(draw(st.sampled_from(Z_KINDS))),
                         problem, experiment)


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_round_trip_over_arbitrary_valid_configs(cfg):
    cfg.validate()
    text = cfg.emit()
    again = ProblemConfig.parse(text)
    assert again == cfg
    assert again.emit() == text


def test_file_driver_round_trip_keeps_path():
    text = BASE.replace("kind = smooth", "kind = file\npath = /tmp/p.csv")
    cfg = ProblemConfig.parse(text)
    assert cfg.driver.path == "/tmp/p.csv"
    assert ProblemConfig.parse(cfg.emit()) == cfg


def test_unknown_key_is_error():
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE + "\n[field]\nwibble = 3\n")
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE + "\n[nonsense]\nx = 1\n")


def test_missing_required_key_is_error():
    with pytest.raises(ConfigError):
        ProblemConfig.parse("[driver]\nkind = smooth\n")
    with pytest.raises(ConfigError):
        ProblemConfig.parse("[problem]\ny0 = 1.0\n")


def test_bad_values_are_errors():
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE.replace("n_steps = 16", "n_steps = zero"))
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE.replace("kind = smooth", "kind = brownian"))
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE.replace("[driver]", "[driver]\nalpha = 0.2"))
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE.replace("y0 = 0.1, -0.2", "y0 ="))
    with pytest.raises(ConfigError):
        ProblemConfig.parse(BASE + "\n[experiment]\nbeta = 1.5\n")
    with pytest.raises(ConfigError):
        ProblemConfig.parse("not ini at all")


def test_build_problem_smooth():
    cfg = ProblemConfig.parse(BASE)
    problem, grid = build_problem(cfg)
    assert problem.driver.dim == 2
    assert problem.field.n == 2
    assert grid.N == 16
    assert problem.path is not None


def test_build_problem_synthetic_seed_override():
    text = BASE.replace("kind = smooth", "kind = synthetic\nseed = 4\nlevels = 6")
    text = text.replace("resolution = 256", "alpha = 0.45")
    cfg = ProblemConfig.parse(text)
    a, _ = build_problem(cfg)
    b, _ = build_problem(cfg, seed_override=5)
    c, _ = build_problem(cfg, seed_override=5)
    assert not np.array_equal(a.path.values, b.path.values)
    assert np.array_equal(b.path.values, c.path.values)


def test_build_problem_file_driver(tmp_path):
    from rdesplit import SampledPath

    p = tmp_path / "path.csv"
    path = SampledPath(np.linspace(0, 1, 5), np.arange(10.0).reshape(5, 2))
    with open(p, "w") as fh:
        path.to_csv(fh)
    text = BASE.replace("kind = smooth", f"kind = file\npath = {p}")
    problem, _ = build_problem(ProblemConfig.parse(text))
    assert problem.driver.dim == 2
    assert np.array_equal(problem.path.values, path.values)


def test_build_problem_rejects_horizon_beyond_path():
    cfg = ProblemConfig.parse(BASE.replace("t_final = 1.0", "t_final = 2.0"))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_z_kind_variants_build():
    for kind in ("canonical", "zero", "transposed", "rough-probe"):
        cfg = ProblemConfig.parse(BASE + f"\n[z]\nkind = {kind}\n")
        problem, _ = build_problem(cfg)
        assert np.all(problem.z(problem.y0, 0.5, 0.5) == 0.0)
