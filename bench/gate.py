"""Output correctness gate, run outside the timed regions.

Three kinds of check; each raises ``GateError`` on the first failure:

* format: every JSON output parses strictly (NaN and Infinity rejected),
  CSV headers match and trajectory CSVs have N+1 data rows;
* invariants that hold at any seed: finite values, Davie pair count
  N(N+1)/2, checker sample counts, compare-schemes order >= 1 on smooth
  drivers (acceptance criterion 8);
* at the default seed, agreement with ``reference.json``, fixed values
  recorded once from the program at commit 5a0fccc (see README.md).

Reference tolerances: trajectory values (``y_final``) within 1e-13
relative, the bound a change of summation order may cost.  Quantities
formed from differences of trajectory values (slopes, gaps, Davie and
checker ratios, oracle deviation) within 1e-9 relative, since the
cancellation in them amplifies a 1e-13 state change by up to ~1e4 at these
sizes.  Counts and witness indices must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from rdesplit.rough_path import chen_defect_many

TRAJ_HEADER = "j,t,u1,u2,v1,v2"
RATES_HEADER = "level,N,h,diff,log2_diff"
STATE_RTOL = 1e-13
DERIVED_RTOL = 1e-9
STATE_KEYS = ("y_final",)
CHEN_TOL = 1e-12


class GateError(Exception):
    """An output failed a check."""


def _reject_constant(name):
    raise GateError(f"non-finite JSON constant {name}")


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def _finite(value, what):
    if isinstance(value, list):
        for v in value:
            _finite(v, what)
    elif not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise GateError(f"{what} is not a finite number: {value!r}")


def _expect(cond, message):
    if not cond:
        raise GateError(message)


def _check_csv(path: Path, header: str, rows: int):
    lines = path.read_text(encoding="utf-8").splitlines()
    _expect(lines and lines[0] == header,
            f"{path.name}: header {lines[:1]!r} != {header!r}")
    _expect(len(lines) - 1 == rows,
            f"{path.name}: {len(lines) - 1} data rows, expected {rows}")


def _solve(out, cfg, oracle):
    summary = load_json(out / "summary.json")
    n = cfg.problem.n_steps
    _expect(summary["n_steps"] == n, "summary n_steps mismatch")
    _finite(summary["y_final"], "y_final")
    _expect(len(summary["y_final"]) == 2, "y_final length")
    _check_csv(out / "trajectory.csv", TRAJ_HEADER, n + 1)
    values = {"y_final": summary["y_final"]}
    if oracle:
        dev = summary["max_oracle_deviation"]
        _finite(dev, "max_oracle_deviation")
        values["max_oracle_deviation"] = dev
    return values


def _rates(out, cfg):
    summary = load_json(out / "rates_summary.json")
    seeds = summary["seeds"]
    expected = cfg.experiment.seeds if cfg.driver.kind == "synthetic" else 1
    _expect(len(seeds) == expected, f"{len(seeds)} seeds, expected {expected}")
    _finite([summary["slope"], summary["target"]], "rate slope/target")
    for seed in seeds:
        _check_csv(out / f"rates_seed{seed}.csv", RATES_HEADER,
                   cfg.experiment.levels)
    return {"slope": summary["slope"]}


def _compare(out, cfg):
    report = load_json(out / "compare.json")
    n = cfg.problem.n_steps
    _expect(report["levels"] == [n, 2 * n, 4 * n], "compare levels")
    _finite(report["max_diffs"], "compare max_diffs")
    _expect(not report["exact_agreement"], "split and Milstein agree exactly")
    _finite(report["order"], "compare order")
    if cfg.driver.kind == "smooth":
        _expect(report["order"] >= 1.0,
                f"smooth-driver gap order {report['order']} < 1")
    _check_csv(out / "split.csv", TRAJ_HEADER, n + 1)
    _check_csv(out / "milstein.csv", TRAJ_HEADER, n + 1)
    return {"order": report["order"], "max_diffs": report["max_diffs"]}


def _davie(out, cfg):
    report = load_json(out / "davie.json")
    n = cfg.problem.n_steps
    _expect(report["n_steps"] == n, "davie n_steps mismatch")
    _expect(report["pairs"] == n * (n + 1) // 2,
            f"davie pairs {report['pairs']} != N(N+1)/2 = {n * (n + 1) // 2}")
    _finite(report["max_ratio"], "davie max_ratio")
    _expect(0 <= report["k"] < report["m"] <= n, "davie witness out of range")
    return {key: report[key] for key in ("max_ratio", "k", "m", "pairs")}


def _check_z(out, cfg):
    n = cfg.problem.n_steps
    samples = cfg.experiment.samples
    grid_pairs = samples * n * (n + 1) // 2
    values = {}
    for name in ("z_bound", "z_lipschitz", "z_cocycle"):
        report = load_json(out / f"{name}.json")
        _expect(report["condition"] == name, f"{name} condition field")
        _finite(report["max_ratio"], f"{name} max_ratio")
        if name == "z_cocycle":
            _expect(0 < report["samples"] <= samples * min(500, 10 * samples),
                    "z_cocycle sample count out of range")
        else:
            _expect(report["samples"] == grid_pairs,
                    f"{name} samples {report['samples']} != {grid_pairs}")
        values[f"{name}.max_ratio"] = report["max_ratio"]
        values[f"{name}.samples"] = report["samples"]
    return values


def check_chen(driver, seed: int, triples: int = 256):
    """Chen's relation on random sorted triples of the built driver's span."""
    rng = np.random.default_rng(seed)
    lo, hi = driver.span
    ss, uu, tt = np.sort(rng.uniform(lo, hi, (triples, 3)), axis=1).T
    worst = float(np.max(chen_defect_many(driver, ss, uu, tt)))
    _expect(worst <= CHEN_TOL, f"driver Chen defect {worst:.3e} > {CHEN_TOL}")


def check_outputs(command, out: Path, cfg) -> dict:
    """Check one command's output directory; returns its reference values."""
    verb = command.argv[0]
    if verb == "solve":
        return _solve(out, cfg, "--oracle" in command.argv)
    if verb == "rates":
        return _rates(out, cfg)
    if verb == "compare-schemes":
        return _compare(out, cfg)
    if verb == "davie":
        return _davie(out, cfg)
    return _check_z(out, cfg)


def _close(got, want, rtol):
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, int) and not isinstance(want, bool):
        return got == want
    return abs(got - want) <= rtol * abs(want)


def compare_reference(values: dict, reference: dict):
    """Raise GateError where a value differs from its recorded reference."""
    _expect(set(values) == set(reference),
            f"reference keys {sorted(reference)} != {sorted(values)}")
    for key, want in reference.items():
        rtol = STATE_RTOL if key in STATE_KEYS else DERIVED_RTOL
        _expect(_close(values[key], want, rtol),
                f"{key} = {values[key]!r}, reference {want!r}")
