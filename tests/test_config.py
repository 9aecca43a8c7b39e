from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import rdesplit.config as config
from rdesplit import SampledPath
from rdesplit.cli import main
from rdesplit.config import (DRIVER_KINDS, FIELD_PRESETS, MAX_LIFT_ENTRIES,
                             Z_KINDS, ConfigError, DriverSpec, ExperimentSpec,
                             FieldSpec, ProblemConfig, SolveSpec, ZSpec,
                             build_problem)

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
    # a generated driver stays under the cap of segments × d² lift entries;
    # a file driver is checked once it is read
    d = draw(counts if kind == "file" else st.integers(1, 2**11))
    segments = MAX_LIFT_ENTRIES // (d * d)
    driver = DriverSpec(
        kind, d=d, alpha=draw(finite(1 / 3, 0.5, exclude_min=True)),
        seed=draw(ints),
        levels=draw(st.integers(1, segments.bit_length() - 1)
                    if kind == "synthetic" else ints),
        resolution=draw(st.integers(1, segments) if kind == "smooth"
                        else ints),
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


def test_empty_y0_is_an_error():
    # no INI file reaches this check: the vector parser rejects "y0 =" first
    cfg = ProblemConfig.parse(BASE)
    cfg.problem.y0 = ()
    with pytest.raises(ConfigError, match="^problem.y0 must be nonempty$"):
        cfg.validate()


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


@pytest.mark.parametrize("kind,key,d,largest", [
    # 2^22 segments × 2² entries is the cap exactly
    ("smooth", "resolution", 2, 2**22),
    ("synthetic", "levels", 2, 22),
    # 9 × 2^20 entries is under the cap, 9 × 2^21 above it
    ("synthetic", "levels", 3, 20),
])
def test_driver_size_cap_is_segments_times_d_squared(kind, key, d, largest):
    text = BASE.replace("kind = smooth", f"kind = {kind}").replace(
        "resolution = 256", f"{key} = {{}}\nalpha = 0.45").replace(
        "d = 2", f"d = {d}")
    assert MAX_LIFT_ENTRIES == 2**24
    ProblemConfig.parse(text.format(largest))
    with pytest.raises(ConfigError, match=r"driver too large: .*2\^24 lift "
                       r"entries \(segments × d², MAX_LIFT_ENTRIES\)"):
        ProblemConfig.parse(text.format(largest + 1))


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


# ---------------------------------------------------------------- driver cache

SYNTHETIC = BASE.replace(
    "kind = smooth", "kind = synthetic\nseed = 4\nlevels = 6").replace(
    "resolution = 256", "alpha = 0.45")


@pytest.fixture
def driver_cache():
    """The driver cache, empty, and emptied again after the test: no test
    reads a driver an earlier one cached, or leaves one built under its
    patches."""
    config.clear_driver_cache()
    yield config._DRIVERS
    config.clear_driver_cache()


def count_builds(monkeypatch):
    """Count the calls of the driver builders build_problem looks up."""
    calls = Counter()
    for name in ("smooth_path", "synth_midpoint_path", "lift_piecewise_linear"):
        def counted(*args, _build=getattr(config, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(config, name, counted)
    return calls


def held_entries(cache):
    return sum((path.n_samples - 1) * path.d ** 2 for _, path in cache.values())


def test_generated_drivers_are_lifted_once(driver_cache, monkeypatch):
    calls = count_builds(monkeypatch)
    for text in (BASE, SYNTHETIC):
        cfg = ProblemConfig.parse(text)
        first, _ = build_problem(cfg)
        again, _ = build_problem(cfg)
        assert again.driver is first.driver and again.path is first.path
    assert calls == {"smooth_path": 1, "synth_midpoint_path": 1,
                     "lift_piecewise_linear": 2}


def test_the_cache_key_is_the_driver_spec(driver_cache):
    cfg = ProblemConfig.parse(SYNTHETIC)
    driver = build_problem(cfg)[0].driver
    # the effective seed is the key, however it is given; the field, Z and
    # problem sections are not part of it
    other = ProblemConfig.parse(SYNTHETIC.replace("seed = 4", "seed = 9")
                                .replace("scale = 0.8", "scale = 0.5")
                                .replace("n_steps = 16", "n_steps = 8")
                                + "\n[z]\nkind = zero\n")
    assert build_problem(other, seed_override=4)[0].driver is driver
    # (text, seed_override, the driver's alpha, d and sample count)
    variants = [
        (SYNTHETIC, 5, 0.45, 2, 65),
        (SYNTHETIC.replace("alpha = 0.45", "alpha = 0.4"), None, 0.4, 2, 65),
        (SYNTHETIC.replace("levels = 6", "levels = 7"), None, 0.45, 2, 129),
        (SYNTHETIC.replace("d = 2", "d = 3"), None, 0.45, 3, 65),
        (BASE, None, 0.5, 2, 257),
        (BASE.replace("resolution = 256", "resolution = 128"), None, 0.5, 2,
         129),
        (BASE.replace("resolution = 256", "resolution = 256\nalpha = 0.4"),
         None, 0.4, 2, 257),
        (BASE.replace("d = 2", "d = 3"), None, 0.5, 3, 257),
    ]
    drivers = [driver]
    for text, seed, alpha, d, samples in variants:
        problem, _ = build_problem(ProblemConfig.parse(text), seed)
        assert (problem.driver.alpha, problem.driver.dim,
                problem.path.n_samples) == (alpha, d, samples)
        drivers.append(problem.driver)
    assert len({id(d) for d in drivers}) == len(drivers) == len(driver_cache)
    # seed 5 given in the spec is the override's driver
    spec_seed = ProblemConfig.parse(SYNTHETIC.replace("seed = 4", "seed = 5"))
    assert build_problem(spec_seed)[0].driver is drivers[1]


def test_file_drivers_are_lifted_on_every_call(driver_cache, tmp_path,
                                               monkeypatch):
    calls = count_builds(monkeypatch)
    p = tmp_path / "path.csv"
    cfg = ProblemConfig.parse(BASE.replace("kind = smooth",
                                           f"kind = file\npath = {p}"))
    built = []
    for scale in (1.0, 2.0):
        with open(p, "w") as fh:
            SampledPath(np.linspace(0, 1, 5),
                        scale * np.arange(10.0).reshape(5, 2)).to_csv(fh)
        built.append(build_problem(cfg)[0])
    assert np.array_equal(built[1].path.values, 2.0 * built[0].path.values)
    assert built[1].driver is not built[0].driver
    assert calls == {"lift_piecewise_linear": 2}
    assert not driver_cache


def test_eviction_keeps_the_held_lift_entries_under_the_cap(driver_cache,
                                                            monkeypatch):
    # levels = 6 at d = 2 holds 2^6 × 4 = 256 entries, levels = 7 holds 512
    monkeypatch.setattr(config, "MAX_LIFT_ENTRIES", 1024)
    built = {}

    def build(seed, levels):
        text = SYNTHETIC.replace("levels = 6", f"levels = {levels}")
        built[seed] = build_problem(ProblemConfig.parse(text), seed)[0].driver
        assert held_entries(driver_cache) <= 1024
        return {id(driver) for driver, _ in driver_cache.values()}

    build(0, 6)
    build(1, 6)
    assert build(0, 6) == {id(built[0]), id(built[1])}
    # 1024 entries: the cap is reached, not exceeded
    assert build(2, 7) == {id(built[s]) for s in (0, 1, 2)}
    # seed 1 is the least recently used
    assert build(3, 6) == {id(built[s]) for s in (0, 2, 3)}
    assert build(4, 7) == {id(built[s]) for s in (3, 4)}
    assert held_entries(driver_cache) == 768
    # a levels = 8 driver (1024 entries) displaces every other
    assert build(5, 8) == {id(built[5])}


def test_a_second_run_in_one_process_writes_the_same_bytes(driver_cache,
                                                           tmp_path,
                                                           monkeypatch):
    calls = count_builds(monkeypatch)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SYNTHETIC + "\n[experiment]\nlevels = 3\nbase_n = 4\n")
    runs = []
    for run in range(2):
        outputs = {}
        for command in (["solve"], ["rates", "--kind", "sup"], ["davie"]):
            out = tmp_path / f"{command[0]}-{run}"
            result = CliRunner().invoke(
                main, command + ["--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.update({(command[0], f.name): f.read_bytes()
                            for f in sorted(out.iterdir())})
        runs.append(outputs)
        # the first run lifts the drivers of seeds 4, 5 and 6; the second
        # lifts none
        assert calls["lift_piecewise_linear"] == 3
    assert len(runs[0]) == 10
    assert runs[1] == runs[0]
