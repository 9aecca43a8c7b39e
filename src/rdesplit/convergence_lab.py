r"""Rate experiments and the Davie-solution defect.

Measures how fast trajectories at refining step sizes approach each other
(sup norm at grid points, discrete C^beta seminorm of joined paths, and
rational step-ratio comparisons at common grid times) and how small the
one-step consistency residual

    J_{km} = Y_{t_k, t_m} - f(Y_{t_k}) X_{t_k, t_m} - Z(Y_{t_k})_{t_k, t_m}

stays relative to |t_m - t_k|^(gamma*alpha).  Rates are fitted by least
squares on log2 differences against the level index; exact agreement is
reported through a sentinel slope instead of a fit.  The Davie sweep takes
its base increments from one batch query and evaluates Z one row of pairs
at a time, never once per pair.  The Hölder experiment samples each joined
path with one array call of ``eval_joined`` and takes the seminorm over
blocks of sample pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import NumericFailure
from .model import (SecondOrderMap, VectorField, _chunks, _first_max, _matvec,
                    _powers, _row_norms)
from .rough_path import Grid, RoughDriver, SampledPath, hoelder_seminorm
from .splitting_solver import SplitTrajectory, solve_split

__all__ = [
    "EXACT_AGREEMENT",
    "Problem",
    "RateReport",
    "DavieReport",
    "fit_rate",
    "dyadic_sup_rate",
    "holder_rate",
    "rational_rate",
    "common_indices",
    "davie_defect",
]

# Sentinel slope for experiments whose differences vanish identically.
EXACT_AGREEMENT = float("inf")


@dataclass(frozen=True)
class Problem:
    """One solvable configuration: driver, coefficient, Z map and start."""

    driver: RoughDriver
    field: VectorField
    z: SecondOrderMap
    y0: np.ndarray
    T: float
    path: SampledPath | None = None

    @property
    def alpha(self) -> float:
        return self.driver.alpha

    @property
    def gamma_capped(self) -> float:
        # regularity above 3 buys nothing in the rate targets
        return min(self.field.gamma, 3.0)


@dataclass
class RateReport:
    """Per-level difference norms with the fitted and target exponents."""

    levels: list
    hs: list
    diffs: list
    slope: float
    target: float
    norm_kind: str
    meta: dict = dataclass_field(default_factory=dict)

    def write_csv(self, fileobj) -> None:
        fileobj.write("level,N,h,diff,log2_diff\n")
        for idx, (N, h, diff) in enumerate(zip(self.levels, self.hs, self.diffs)):
            log2 = repr(math.log2(diff)) if diff > 0 else ""
            fileobj.write(f"{idx},{N},{h!r},{diff!r},{log2}\n")

    def summary(self, seeds) -> dict:
        return {
            "target": self.target,
            "slope": self.slope,
            "norm_kind": self.norm_kind,
            "seeds": list(seeds),
        }


@dataclass
class DavieReport:
    """Worst ratio |J_{km}| / (t_m - t_k)^(gamma*alpha) over grid pairs."""

    h: float
    n_steps: int
    max_ratio: float
    k: int
    m: int
    exponent: float
    pairs: int

    def to_json_dict(self) -> dict:
        return {
            "h": self.h,
            "n_steps": self.n_steps,
            "max_ratio": self.max_ratio,
            "k": self.k,
            "m": self.m,
            "exponent": self.exponent,
            "pairs": self.pairs,
        }


def fit_rate(levels, diffs) -> float:
    """Least-squares slope of -log2(diffs) against the level index.

    All-zero differences short-circuit to the exact-agreement sentinel;
    mixing zero and nonzero differences makes the fit ill-posed.
    """
    diffs = [float(d) for d in diffs]
    if len(levels) != len(diffs):
        raise ValueError("levels and diffs must have equal length")
    if any(d < 0 for d in diffs):
        raise ValueError("differences must be nonnegative")
    zeros = sum(1 for d in diffs if d == 0.0)
    if zeros == len(diffs) and zeros > 0:
        return EXACT_AGREEMENT
    if zeros > 0:
        raise ValueError("mixed zero and nonzero differences: ill-posed fit")
    if len(diffs) < 2:
        raise ValueError("need at least 2 positive differences to fit")
    idx = np.arange(len(diffs), dtype=float)
    coeff = np.polyfit(idx, np.log2(diffs), 1)
    return float(-coeff[0])


def _solve_many(problem: Problem, Ns):
    trajs = []
    for N in Ns:
        try:
            trajs.append(solve_split(problem.driver, problem.field, problem.z,
                                     problem.y0, Grid(problem.T, N)))
        except NumericFailure as exc:
            raise NumericFailure(f"solve at N={N} failed: {exc}",
                                 step=exc.step) from exc
    return trajs


def _sup_rows(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(a - b, axis=1)))


def dyadic_sup_rate(problem: Problem, base_N: int, levels: int) -> RateReport:
    """Sup-norm differences between step-h and step-h/2 trajectories.

    Level n compares N*2^n against N*2^(n+1) steps at the coarse grid
    points only: interval midpoints of the joined paths carry the slower
    joined-path discrepancy (see the README note on cross-consistency with
    the rational-ratio experiment).  Target exponent: gamma*alpha - 1.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if base_N < 4:
        raise ValueError(f"base_N must be >= 4, got {base_N}")
    Ns = [base_N * 2**n for n in range(levels + 1)]
    trajs = _solve_many(problem, Ns)
    diffs = []
    for n in range(levels):
        diffs.append(_sup_rows(trajs[n].u, trajs[n + 1].u[::2]))
    slope = fit_rate(Ns[:levels], diffs)
    target = problem.gamma_capped * problem.alpha - 1.0
    return RateReport(
        levels=Ns[:levels],
        hs=[problem.T / N for N in Ns[:levels]],
        diffs=diffs,
        slope=slope,
        target=target,
        norm_kind="sup",
    )


def quarter_times(grid: Grid) -> np.ndarray:
    """Grid, half and quarter points of a grid, in increasing order."""
    pts = grid.points
    quarter = 0.25 * (pts[1:] - pts[:-1])
    blocks = pts[:-1, None] + quarter[:, None] * np.arange(4)[None, :]
    return np.append(blocks.ravel(), pts[-1])


def joined_samples(traj: SplitTrajectory, times) -> np.ndarray:
    """Joined-path values at the given times, shape (len(times), n)."""
    return traj.eval_joined(times)


def holder_rate(problem: Problem, beta: float, base_N: int,
                levels: int) -> RateReport:
    """Discrete C^beta seminorm of step-h minus step-h/2 joined paths.

    Differences are sampled at the quarter points of the coarse grid.
    Target exponent: min(alpha - beta, gamma*alpha - 1).
    """
    if not (0.0 < beta < problem.alpha):
        raise ValueError(
            f"beta must lie in (0, alpha) = (0, {problem.alpha}), got {beta}"
        )
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    if base_N < 4:
        raise ValueError(f"base_N must be >= 4, got {base_N}")
    Ns = [base_N * 2**n for n in range(levels + 1)]
    trajs = _solve_many(problem, Ns)
    diffs = []
    sup_diffs = []
    spacings = []
    for n in range(levels):
        times = quarter_times(trajs[n].grid)
        delta = joined_samples(trajs[n], times) - joined_samples(trajs[n + 1], times)
        sup_diffs.append(float(np.max(np.linalg.norm(delta, axis=1))))
        spacings.append(float(np.min(np.diff(times))))
        if np.all(delta == 0.0):
            diffs.append(0.0)
        else:
            diffs.append(hoelder_seminorm(SampledPath(times, delta), beta))
    slope = fit_rate(Ns[:levels], diffs)
    target = min(problem.alpha - beta, problem.gamma_capped * problem.alpha - 1.0)
    return RateReport(
        levels=Ns[:levels],
        hs=[problem.T / N for N in Ns[:levels]],
        diffs=diffs,
        slope=slope,
        target=target,
        norm_kind=f"holder({beta})",
        meta={"sup_diffs": sup_diffs, "min_spacings": spacings},
    )


def common_indices(n_coarse: int, q_num: int, q_den: int):
    """Indices where the step-h and step-h/q grids share a time.

    With q = q_num/q_den in lowest terms, j*h*q_den = j*q_num*(h/q), so the
    shared times are every q_den-th coarse point and every q_num-th fine
    point.
    """
    if n_coarse % q_den != 0:
        raise ValueError(f"coarse step count {n_coarse} not divisible by {q_den}")
    count = n_coarse // q_den
    coarse = [j * q_den for j in range(count + 1)]
    fine = [j * q_num for j in range(count + 1)]
    return coarse, fine


def rational_rate(problem: Problem, q_num: int, q_den: int, base_N: int,
                  levels: int) -> RateReport:
    """Sup difference of step-h and step-h/q trajectories at common times.

    Requires q = q_num/q_den in lowest terms with 1 < q < 2 (the dyadic
    experiment covers q = 2) and base_N divisible by q_den.  Target
    exponent: gamma*alpha - 1.
    """
    q_num, q_den = int(q_num), int(q_den)
    if q_den < 1 or q_num < 1:
        raise ValueError("ratio parts must be positive integers")
    if math.gcd(q_num, q_den) != 1:
        raise ValueError(f"{q_num}/{q_den} is not in lowest terms")
    if not (q_den < q_num < 2 * q_den):
        raise ValueError(f"ratio must lie strictly between 1 and 2, got {q_num}/{q_den}")
    if base_N % q_den != 0:
        raise ValueError(f"base_N={base_N} must be divisible by q_den={q_den}")
    if base_N < 4:
        raise ValueError(f"base_N must be >= 4, got {base_N}")
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    Ns = [base_N * 2**n for n in range(levels)]
    coarse_trajs = _solve_many(problem, Ns)
    fine_trajs = _solve_many(problem, [N * q_num // q_den for N in Ns])
    diffs = []
    for coarse, fine, N in zip(coarse_trajs, fine_trajs, Ns):
        ci, fi = common_indices(N, q_num, q_den)
        diffs.append(_sup_rows(coarse.u[ci], fine.u[fi]))
    slope = fit_rate(Ns, diffs)
    target = problem.gamma_capped * problem.alpha - 1.0
    return RateReport(
        levels=Ns,
        hs=[problem.T / N for N in Ns],
        diffs=diffs,
        slope=slope,
        target=target,
        norm_kind="sup",
        meta={"q": f"{q_num}/{q_den}"},
    )


def davie_defect(traj: SplitTrajectory, field: VectorField, z: SecondOrderMap,
                 driver: RoughDriver, gamma: float, alpha: float) -> DavieReport:
    """Worst normalised consistency residual of a computed trajectory.

    Evaluates J_{km} for all N(N+1)/2 grid pairs k < m at every N; the
    diagonal (J_{kk} = 0) is excluded.  The exponent is min(gamma, 3) * alpha.

    Row k is evaluated as arrays: Z over its pairs is one
    ``z.on_grid(t_k, t_{m>k}).every(u_k)`` call (per ``PAIR_BLOCK`` pairs
    on longer rows).  Ratios are bitwise those of a per-pair loop, and the
    witness is the first strict maximum in (k, m) order.
    """
    grid = traj.grid
    exponent = min(gamma, 3.0) * alpha
    times = grid.points
    u = traj.u
    base = driver.increment_many(np.full(len(times), times[0]), times)
    best = -1.0
    best_k = best_m = 0
    for k in range(grid.N):
        f_k = field(u[k])
        for cols in _chunks(k + 1, grid.N + 1):
            t_m = times[cols]
            z_row = z.on_grid(np.full(len(t_m), times[k]), t_m).every(u[k])
            residual = (u[cols] - u[k] - _matvec(f_k, base[cols] - base[k])
                        - z_row)
            ratio, j = _first_max(_row_norms(residual)
                                  / _powers(t_m - times[k], exponent))
            if ratio > best:
                best = ratio
                best_k, best_m = k, cols.start + j
    return DavieReport(
        h=grid.h,
        n_steps=grid.N,
        max_ratio=best,
        k=best_k,
        m=best_m,
        exponent=exponent,
        pairs=grid.N * (grid.N + 1) // 2,
    )
