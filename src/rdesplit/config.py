"""Run configuration: a flat INI schema with strict key checking.

Sections and keys are fixed; unknown keys are errors rather than warnings
because a silently ignored typo corrupts an experiment.  ``emit`` produces
the canonical form (fixed section and key order, full-precision floats) and
``parse(emit(cfg))`` reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

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

# canonical section -> ordered keys
_SCHEMA = {
    "driver": ("kind", "d", "alpha", "seed", "levels", "resolution", "path"),
    "field": ("preset", "gamma", "seed", "scale"),
    "z": ("kind",),
    "problem": ("y0", "t_final", "n_steps"),
    "experiment": ("levels", "base_n", "beta", "q_num", "q_den", "seeds",
                   "samples", "box"),
}


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
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        for required in ("driver", "problem"):
            if required not in parser:
                raise ConfigError(f"missing required section [{required}]")

        def get(section, key, cast, default):
            if section in parser and key in parser[section]:
                raw = parser[section][key]
                try:
                    return cast(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r}") from exc
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            return default

        driver = DriverSpec(
            kind=get("driver", "kind", str, _REQUIRED),
            d=get("driver", "d", int, 2),
            alpha=get("driver", "alpha", float, 0.5),
            seed=get("driver", "seed", int, 0),
            levels=get("driver", "levels", int, 12),
            resolution=get("driver", "resolution", int, 16384),
            path=get("driver", "path", str, None),
        )
        field = FieldSpec(
            preset=get("field", "preset", str, "sine"),
            gamma=get("field", "gamma", float, 3.0),
            seed=get("field", "seed", int, 0),
            scale=get("field", "scale", float, 1.0),
        )
        z = ZSpec(kind=get("z", "kind", str, "canonical"))
        problem = SolveSpec(
            y0=get("problem", "y0", _parse_vector, _REQUIRED),
            t_final=get("problem", "t_final", float, 1.0),
            n_steps=get("problem", "n_steps", int, 256),
        )
        experiment = ExperimentSpec(
            levels=get("experiment", "levels", int, 4),
            base_n=get("experiment", "base_n", int, 16),
            beta=get("experiment", "beta", float, 0.2),
            q_num=get("experiment", "q_num", int, 3),
            q_den=get("experiment", "q_den", int, 2),
            seeds=get("experiment", "seeds", int, 3),
            samples=get("experiment", "samples", int, 16),
            box=get("experiment", "box", float, 1.0),
        )
        cfg = cls(driver, field, z, problem, experiment)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

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
        if d.kind == "synthetic" and d.levels < 1:
            raise ConfigError("driver.levels must be >= 1")
        if d.kind == "smooth" and d.resolution < 1:
            raise ConfigError("driver.resolution must be >= 1")
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
        d = self.driver
        rows = {
            "driver": {
                "kind": d.kind,
                "d": d.d,
                "alpha": repr(d.alpha),
                "seed": d.seed,
                "levels": d.levels,
                "resolution": d.resolution,
            },
            "field": {
                "preset": self.field.preset,
                "gamma": repr(self.field.gamma),
                "seed": self.field.seed,
                "scale": repr(self.field.scale),
            },
            "z": {"kind": self.z.kind},
            "problem": {
                "y0": ", ".join(repr(float(v)) for v in self.problem.y0),
                "t_final": repr(self.problem.t_final),
                "n_steps": self.problem.n_steps,
            },
            "experiment": {
                "levels": self.experiment.levels,
                "base_n": self.experiment.base_n,
                "beta": repr(self.experiment.beta),
                "q_num": self.experiment.q_num,
                "q_den": self.experiment.q_den,
                "seeds": self.experiment.seeds,
                "samples": self.experiment.samples,
                "box": repr(self.experiment.box),
            },
        }
        if d.path is not None:
            rows["driver"]["path"] = d.path
        buf = io.StringIO()
        for section, keys in _SCHEMA.items():
            buf.write(f"[{section}]\n")
            for key in keys:
                if key in rows[section]:
                    buf.write(f"{key} = {rows[section][key]}\n")
            buf.write("\n")
        return buf.getvalue()


class _Required:
    pass


_REQUIRED = _Required()


def _parse_vector(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    return tuple(float(p) for p in parts)


def _build_driver(spec: DriverSpec, seed_override=None):
    seed = spec.seed if seed_override is None else int(seed_override)
    if spec.kind == "smooth":
        path = smooth_path(spec.d, spec.resolution)
    elif spec.kind == "synthetic":
        path = synth_midpoint_path(seed, spec.alpha, spec.levels, spec.d)
    else:
        with open(spec.path, "r", encoding="utf-8") as fh:
            path = SampledPath.from_csv(fh)
    return lift_piecewise_linear(path, alpha=spec.alpha), path


def _build_field(spec: FieldSpec, n: int, d: int):
    if spec.preset == "constant":
        rng = np.random.default_rng(spec.seed)
        matrix = spec.scale * (0.5 + 0.5 * rng.random((n, d)))
        return constant_field(matrix, gamma=spec.gamma)
    if spec.preset == "linear":
        rng = np.random.default_rng(spec.seed)
        A = spec.scale * rng.standard_normal((n, d, n))
        offset = spec.scale * rng.standard_normal((n, d))
        return linear_field(A, offset=offset, gamma=spec.gamma)
    return sine_field(n, d, seed=spec.seed, amplitude=spec.scale,
                      gamma=spec.gamma)


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
    field = _build_field(cfg.field, len(y0), driver.dim)
    z = _build_z(cfg.z, field, driver)
    if cfg.problem.t_final > path.times[-1] + 1e-12:
        raise ConfigError(
            f"t_final={cfg.problem.t_final} exceeds the driver span "
            f"[{path.times[0]}, {path.times[-1]}]")
    problem = Problem(driver=driver, field=field, z=z, y0=y0,
                      T=cfg.problem.t_final, path=path)
    grid = Grid(cfg.problem.t_final, cfg.problem.n_steps)
    return problem, grid
