"""Batch front-end: configure a problem, run solves and experiments, persist results.

Every command reads one config file, writes into one output directory
(including a copy of the config, so re-running the copy reproduces the
run), and exits 0 on success, 2 on validation failure (an allocation
that runs out of memory and a float overflow included), 3 on numeric
failure.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .config import ConfigError, ProblemConfig, build_problem
from .convergence_lab import (EXACT_AGREEMENT, _sup_rows, davie_defect,
                              dyadic_sup_rate, fit_rate, holder_rate,
                              rational_rate, rates_summary)
from .errors import NumericFailure
from .model import check_z_bound, check_z_cocycle, check_z_lipschitz
from .rough_path import Grid
from .splitting_solver import (solve_many, solve_ode_reference, solve_split,
                               write_trajectory_csv)
# not called here: bench/spans.py patches this module attribute
from .splitting_solver import solve_milstein  # noqa: F401

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _write_json(directory: Path, name: str, payload: dict) -> None:
    # strict JSON: encode fully before opening, so a NaN leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(directory / name, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


@click.group()
def main():
    """Splitting-scheme solver and experiment runner for rough differential equations."""


def _command(*options):
    """Register a command of ``main`` with the three shared options before
    ``options``.  The command runs as ``fn(cfg, out_dir, **extra)`` on the
    parsed config, with ``--seed`` applied and a copy written into ``--out``
    first, and its failures map to the exit codes."""
    shared = (
        click.option("--config", "config_path", required=True,
                     type=click.Path(exists=False), help="Config file (INI)."),
        click.option("--out", required=True, type=click.Path(),
                     help="Output directory for this run."),
        click.option("--seed", type=int, default=None,
                     help="Override the driver seed."))

    def register(fn):
        @functools.wraps(fn)
        def run(config_path, out, seed, **extra):
            try:
                cfg = ProblemConfig.from_file(config_path)
                if seed is not None:
                    cfg.driver.seed = seed
                out_dir = Path(out)
                out_dir.mkdir(parents=True, exist_ok=True)
                with open(out_dir / "config.ini", "w", encoding="utf-8") as fh:
                    fh.write(cfg.emit())
                fn(cfg, out_dir, **extra)
            except NumericFailure as exc:
                click.echo(f"numeric failure: {exc}", err=True)
                sys.exit(EXIT_NUMERIC)
            except (ConfigError, ValueError, OSError) as exc:
                click.echo(f"invalid run: {exc}", err=True)
                sys.exit(EXIT_VALIDATION)
            except (MemoryError, OverflowError) as exc:
                # numpy's failed allocations included: a run too large for
                # the memory or the float range is an invalid run, not a crash
                kind = ("out of memory" if isinstance(exc, MemoryError)
                        else "overflow")
                click.echo(f"invalid run: {kind}: {exc}", err=True)
                sys.exit(EXIT_VALIDATION)

        # click lists the options of the innermost decorator first
        for option in reversed(shared + options):
            run = option(run)
        # the name is the function's, underscores made dashes
        return main.command()(run)

    return register


@_command(click.option(
    "--oracle", is_flag=True,
    help="Also integrate the interpolant ODE (RK4, 64 substeps per step)."))
def solve(cfg, out_dir, oracle):
    """Run the split scheme once and write the trajectory."""
    problem, grid = build_problem(cfg)
    traj = solve_split(problem.driver, problem.field, problem.z, problem.y0, grid)
    with open(out_dir / "trajectory.csv", "w", encoding="utf-8") as fh:
        write_trajectory_csv(traj, fh)
    summary = {
        "n_steps": grid.N,
        "t_final": grid.T,
        "y_final": [float(v) for v in traj.u[-1]],
    }
    if oracle:
        reference = solve_ode_reference(problem.path, problem.field,
                                        problem.y0, grid, substeps=64)
        summary["max_oracle_deviation"] = _sup_rows(traj.u - reference)
    _write_json(out_dir, "summary.json", summary)


@_command(click.option(
    "--kind", type=click.Choice(["sup", "holder", "rational"]), required=True,
    help="Which rate experiment to run."))
def rates(cfg, out_dir, kind):
    """Measure a convergence rate across refining grids."""
    exp = cfg.experiment
    base_seed = cfg.driver.seed
    # a single rough sample path gives a noisy slope; deterministic drivers
    # need only one run
    if cfg.driver.kind == "synthetic":
        seeds = [base_seed + i for i in range(exp.seeds)]
    else:
        seeds = [base_seed]
    # one problem per seed; each level's solves of all seeds are one march
    problems = [build_problem(cfg, run_seed)[0] for run_seed in seeds]
    try:
        if kind == "sup":
            reports = dyadic_sup_rate(problems, exp.base_n, exp.levels)
        elif kind == "holder":
            reports = holder_rate(problems, exp.beta, exp.base_n, exp.levels)
        else:
            reports = rational_rate(problems, exp.q_num, exp.q_den, exp.base_n,
                                    exp.levels)
    except NumericFailure as exc:
        raise NumericFailure(f"seed {seeds[exc.member]}: {exc}", step=exc.step,
                             member=exc.member) from exc
    for run_seed, report in zip(seeds, reports):
        with open(out_dir / f"rates_seed{run_seed}.csv", "w", encoding="utf-8") as fh:
            report.write_csv(fh)
    _write_json(out_dir, "rates_summary.json", rates_summary(reports, seeds))


@_command()
def check_z(cfg, out_dir):
    """Estimate the three condition constants of the configured Z map."""
    problem, grid = build_problem(cfg)
    exp = cfg.experiment
    rng = np.random.default_rng(cfg.field.seed + 1)
    n = problem.field.n
    box = exp.box
    xs = problem.y0 + rng.uniform(-box, box, (exp.samples, n))
    pairs = list(zip(xs, problem.y0 + rng.uniform(-box, box, (exp.samples, n))))
    pts = grid.points
    n_triples = min(500, 10 * exp.samples)
    triples = np.sort(
        pts[rng.integers(0, len(pts), (n_triples, 3))], axis=1)
    alpha = problem.alpha
    box_spec = [float(v) for v in problem.y0 - box] + [float(v) for v in problem.y0 + box]

    bound = check_z_bound(problem.z, xs, grid, alpha)
    lipschitz = check_z_lipschitz(problem.z, pairs, grid, alpha,
                                  problem.field.gamma)
    cocycle = check_z_cocycle(problem.z, problem.field, problem.driver, xs,
                              triples, alpha)
    for report, name in ((bound, "z_bound.json"),
                         (lipschitz, "z_lipschitz.json"),
                         (cocycle, "z_cocycle.json")):
        _write_json(out_dir, name, {**report.to_json_dict(), "box": box_spec})


@_command()
def davie(cfg, out_dir):
    """Measure the Davie-solution defect of the split trajectory."""
    problem, grid = build_problem(cfg)
    traj = solve_split(problem.driver, problem.field, problem.z, problem.y0, grid)
    report = davie_defect(traj, problem.z)
    _write_json(out_dir, "davie.json", report.to_json_dict())


@_command()
def compare_schemes(cfg, out_dir):
    """Compare split and one-step (Milstein) trajectories over three doublings."""
    problem, grid = build_problem(cfg)
    levels = [grid.N, 2 * grid.N, 4 * grid.N]
    grids = [Grid(grid.T, N) for N in levels]
    # one march of both schemes over all three levels: the split members
    # first, so that at equal steps a split failure is named
    members = [(problem.driver, problem.field, problem.z, problem.y0)] * 6
    schemes = ["split"] * 3 + ["milstein"] * 3
    try:
        trajs = solve_many(members, grids * 2, schemes)
    except NumericFailure as exc:
        scheme = "split" if exc.member < 3 else "Milstein"
        raise NumericFailure(
            f"{scheme} solve at N={levels[exc.member % 3]} failed: {exc}",
            step=exc.step) from exc
    splits, milsteins = trajs[:3], trajs[3:]
    diffs = [_sup_rows(split.u - milstein.values)
             for split, milstein in zip(splits, milsteins)]
    with open(out_dir / "split.csv", "w", encoding="utf-8") as fh:
        write_trajectory_csv(splits[0], fh)
    with open(out_dir / "milstein.csv", "w", encoding="utf-8") as fh:
        write_trajectory_csv(milsteins[0], fh)
    order = fit_rate(levels, diffs)
    _write_json(out_dir, "compare.json", {
        "levels": levels,
        "max_diffs": diffs,
        "order": None if order == EXACT_AGREEMENT else order,
        "exact_agreement": order == EXACT_AGREEMENT,
    })


if __name__ == "__main__":
    main()
