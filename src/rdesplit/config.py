"""Run configuration: a flat INI schema with strict key checking.

The spec dataclasses are the schema: each field of ``ProblemConfig`` is a
section, each field of a spec is a key in file order, a field without a
default is required (and so is its section), and the declared type picks
the key's codec in ``_CODECS``.  Unknown keys are errors rather than
warnings because a silently ignored typo corrupts an experiment.  ``emit``
produces the canonical form (fixed section and key order, full-precision
floats) and ``parse(emit(cfg))`` reproduces ``cfg`` exactly.
"""

import collections
import configparser
import functools
import io
import math
import os
import threading
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .convergence_lab import Problem
from .model import (canonical_z, constant_field, linear_field, rough_probe_z,
                    sine_field, transposed_z, zero_z)
from .rough_path import (Grid, SampledPath, lift_piecewise_linear, smooth_path,
                         synth_midpoint_path)

__all__ = ["ConfigError", "ProblemConfig", "build_problem"]


class ConfigError(ValueError):
    """Invalid, unknown or missing configuration content."""


DRIVER_KINDS = ("smooth", "synthetic", "file")
FIELD_PRESETS = ("constant", "linear", "sine")
Z_KINDS = ("canonical", "zero", "transposed", "rough-probe")

# Most entries, segments × d², of one (segments, d, d) table of a driver's
# lift: 128 MB of float64, and the lift holds two.  It admits every
# acceptance and bench driver (at most 2^14 segments at d <= 3) and 2^18
# segments at d = 2, and rejects a driver that would not fit in memory
# before any of it is allocated.
MAX_LIFT_ENTRIES = 2**24


def _check_driver_size(what: str, segments: int, d: int) -> None:
    if segments * d * d > MAX_LIFT_ENTRIES:
        raise ConfigError(
            f"driver too large: {what} at d = {d} exceeds the cap of "
            f"2^24 lift entries (segments × d², MAX_LIFT_ENTRIES)")


@dataclass
class DriverSpec:
    kind: str
    d: int = 2
    alpha: float = 0.5
    seed: int = 0
    levels: int = 12
    resolution: int = 16384
    path: str | None = None


@dataclass
class FieldSpec:
    preset: str = "sine"
    gamma: float = 3.0
    seed: int = 0
    scale: float = 1.0


@dataclass
class ZSpec:
    kind: str = "canonical"


@dataclass
class SolveSpec:
    y0: tuple
    t_final: float = 1.0
    n_steps: int = 256


@dataclass
class ExperimentSpec:
    levels: int = 4
    base_n: int = 16
    beta: float = 0.2
    q_num: int = 3
    q_den: int = 2
    seeds: int = 3
    samples: int = 16
    box: float = 1.0


@dataclass
class ProblemConfig:
    driver: DriverSpec
    field: FieldSpec
    z: ZSpec
    problem: SolveSpec
    experiment: ExperimentSpec

    @classmethod
    def parse(cls, text: str) -> "ProblemConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unparsable config: {exc}") from exc
        specs = {section.name: section.type for section in fields(cls)}
        for section in parser.sections():
            if section not in specs:
                raise ConfigError(f"unknown section [{section}]")
            known = [key.name for key in fields(specs[section])]
            for key in parser[section]:
                if key not in known:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        for section, spec in specs.items():
            required = any(key.default is MISSING for key in fields(spec))
            if section not in parser and required:
                raise ConfigError(f"missing required section [{section}]")
        cfg = cls(**{section: _read_section(parser, section, spec)
                     for section, spec in specs.items()})
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        """Parse a config file; a relative ``driver.path`` names a file
        relative to the config file's directory, not to the cwd, and is
        made absolute so that ``emit`` reproduces the run from anywhere."""
        with open(path, "r", encoding="utf-8") as fh:
            cfg = cls.parse(fh.read())
        if cfg.driver.path is not None:
            cfg.driver.path = os.path.abspath(
                os.path.join(os.path.dirname(path), cfg.driver.path))
        return cfg

    def validate(self) -> None:
        floats = [("driver.alpha", self.driver.alpha),
                  ("field.gamma", self.field.gamma),
                  ("field.scale", self.field.scale),
                  ("problem.t_final", self.problem.t_final),
                  ("experiment.beta", self.experiment.beta),
                  ("experiment.box", self.experiment.box)]
        floats += [(f"problem.y0[{i}]", v) for i, v in enumerate(self.problem.y0)]
        # float() accepts "nan" and "inf", and NaN passes every range check
        for name, value in floats:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        d = self.driver
        if d.kind not in DRIVER_KINDS:
            raise ConfigError(f"driver.kind must be one of {DRIVER_KINDS}, got {d.kind!r}")
        if not (1.0 / 3.0 < d.alpha <= 0.5):
            raise ConfigError(f"driver.alpha must lie in (1/3, 1/2], got {d.alpha}")
        if d.d < 1:
            raise ConfigError("driver.d must be positive")
        if d.kind == "synthetic":
            if d.levels < 1:
                raise ConfigError("driver.levels must be >= 1")
            # 2^levels segments; any levels past 24 exceeds the cap, and the
            # min keeps a huge levels from forming a huge power
            _check_driver_size(f"driver.levels = {d.levels}",
                               2 ** min(d.levels, 25), d.d)
        if d.kind == "smooth":
            if d.resolution < 1:
                raise ConfigError("driver.resolution must be >= 1")
            _check_driver_size(f"driver.resolution = {d.resolution}",
                               d.resolution, d.d)
        if d.kind == "file" and not d.path:
            raise ConfigError("driver.path is required for kind=file")
        if self.field.preset not in FIELD_PRESETS:
            raise ConfigError(
                f"field.preset must be one of {FIELD_PRESETS}, got {self.field.preset!r}")
        if self.field.gamma <= 2.0:
            raise ConfigError("field.gamma must exceed 2")
        if self.z.kind not in Z_KINDS:
            raise ConfigError(f"z.kind must be one of {Z_KINDS}, got {self.z.kind!r}")
        p = self.problem
        if p.t_final <= 0:
            raise ConfigError("problem.t_final must be positive")
        if p.n_steps < 1:
            raise ConfigError("problem.n_steps must be >= 1")
        if len(p.y0) < 1:
            raise ConfigError("problem.y0 must be nonempty")
        e = self.experiment
        if e.levels < 1 or e.base_n < 1 or e.seeds < 1 or e.samples < 1:
            raise ConfigError("experiment counts must be positive")
        if not (0.0 < e.beta < 1.0):
            raise ConfigError("experiment.beta must lie in (0, 1)")
        if e.box <= 0:
            raise ConfigError("experiment.box must be positive")

    def emit(self) -> str:
        buf = io.StringIO()
        for section in fields(self):
            buf.write(f"[{section.name}]\n")
            values = getattr(self, section.name)
            for key in fields(values):
                value = getattr(values, key.name)
                if value is not None:
                    buf.write(f"{key.name} = {_CODECS[key.type][1](value)}\n")
            buf.write("\n")
        return buf.getvalue()


def _parse_vector(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    return tuple(float(p) for p in parts)


def _format_vector(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


# declared type of a spec field -> (parse, format) of its INI value; the
# keys are annotation objects, so this module must not postpone the
# evaluation of annotations (``from __future__ import annotations``)
_CODECS = {
    str: (str, str),
    str | None: (str, str),
    int: (int, str),
    float: (float, repr),
    tuple: (_parse_vector, _format_vector),
}


def _read_section(parser, section: str, spec):
    """The ``spec`` instance a parsed section describes; absent keys take
    the field defaults."""
    values = {}
    for key in fields(spec):
        if section in parser and key.name in parser[section]:
            raw = parser[section][key.name]
            try:
                values[key.name] = _CODECS[key.type][0](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key.name}: {raw!r}") from exc
        elif key.default is MISSING:
            raise ConfigError(f"missing required key {section}.{key.name}")
    return spec(**values)


# The (driver, path) pairs _build_driver has lifted from generated specs,
# least recently used first, so that a process running several commands on
# one driver (a bench pass, a test suite, a notebook) lifts it once.
# Drivers are immutable (read-only path and lift tables), so sharing them
# is safe.  The least recently used are evicted until the held lift entries
# are at most MAX_LIFT_ENTRIES: the cache never keeps more than one largest
# admitted driver beyond what its callers hold.  The lock makes a lookup,
# and an insertion with its evictions, atomic; the build runs outside it.
_DRIVERS = collections.OrderedDict()
_DRIVERS_LOCK = threading.Lock()


def _lift_entries(path: SampledPath) -> int:
    return (path.n_samples - 1) * path.d * path.d


def clear_driver_cache() -> None:
    """Forget every cached driver."""
    with _DRIVERS_LOCK:
        _DRIVERS.clear()


def _build_driver(spec: DriverSpec, seed_override=None):
    if spec.kind == "file":
        # a file can change between commands: read and lift it every time
        try:
            with open(spec.path, "r", encoding="utf-8") as fh:
                path = SampledPath.from_csv(fh)
            _check_driver_size(f"a driver file of {path.n_samples - 1} "
                               "segments", path.n_samples - 1, path.d)
            return lift_piecewise_linear(path, alpha=spec.alpha), path
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"driver file {spec.path}: {exc}") from exc
    if spec.kind == "smooth":
        key = (spec.kind, spec.d, spec.alpha, spec.resolution)
    else:
        seed = spec.seed if seed_override is None else int(seed_override)
        key = (spec.kind, spec.d, spec.alpha, seed, spec.levels)
    with _DRIVERS_LOCK:
        if key in _DRIVERS:
            _DRIVERS.move_to_end(key)
            return _DRIVERS[key]
    if spec.kind == "smooth":
        path = smooth_path(spec.d, spec.resolution)
    else:
        path = synth_midpoint_path(seed, spec.alpha, spec.levels, spec.d)
    built = lift_piecewise_linear(path, alpha=spec.alpha), path
    with _DRIVERS_LOCK:
        _DRIVERS[key] = built
        _DRIVERS.move_to_end(key)
        held = sum(_lift_entries(p) for _, p in _DRIVERS.values())
        while held > MAX_LIFT_ENTRIES:
            _, (_, evicted) = _DRIVERS.popitem(last=False)
            held -= _lift_entries(evicted)
    return built


# One instance per distinct field: the problems of the seeds of one rate
# experiment then share their field object, which is what lets a march
# evaluate them as one stack.  Preset fields are immutable (read-only
# coefficient arrays), so sharing them is safe.
@functools.lru_cache(maxsize=16)
def _preset_field(preset: str, gamma: float, seed: int, scale: float, n: int,
                  d: int):
    if preset == "constant":
        rng = np.random.default_rng(seed)
        matrix = scale * (0.5 + 0.5 * rng.random((n, d)))
        return constant_field(matrix, gamma=gamma)
    if preset == "linear":
        rng = np.random.default_rng(seed)
        A = scale * rng.standard_normal((n, d, n))
        offset = scale * rng.standard_normal((n, d))
        return linear_field(A, offset=offset, gamma=gamma)
    return sine_field(n, d, seed=seed, amplitude=scale, gamma=gamma)


def _build_z(spec: ZSpec, field, driver):
    if spec.kind == "canonical":
        return canonical_z(field, driver)
    if spec.kind == "zero":
        return zero_z(field.n)
    if spec.kind == "transposed":
        return transposed_z(field, driver)
    return rough_probe_z(field.n, driver.alpha)


def build_problem(cfg: ProblemConfig, seed_override=None):
    """Construct the Problem and solve grid a configuration describes."""
    driver, path = _build_driver(cfg.driver, seed_override)
    if path.d != cfg.driver.d:
        raise ConfigError(
            f"driver dimension mismatch: config says d={cfg.driver.d}, "
            f"driver has d={path.d}")
    y0 = np.asarray(cfg.problem.y0, dtype=float)
    spec = cfg.field
    field = _preset_field(spec.preset, spec.gamma, spec.seed, spec.scale,
                          len(y0), driver.dim)
    z = _build_z(cfg.z, field, driver)
    span = f"[{path.times[0]}, {path.times[-1]}]"
    where = (f"driver file {cfg.driver.path}: " if cfg.driver.kind == "file"
             else "")
    # generated paths start at 0: only a file can start later
    if path.times[0] > 0.0:
        raise ConfigError(f"{where}path span {span} starts after t = 0")
    if cfg.problem.t_final > path.times[-1] + 1e-12:
        raise ConfigError(f"{where}t_final={cfg.problem.t_final} exceeds the "
                          f"driver span {span}")
    problem = Problem(driver=driver, field=field, z=z, y0=y0,
                      T=cfg.problem.t_final, path=path)
    grid = Grid(cfg.problem.t_final, cfg.problem.n_steps)
    return problem, grid
