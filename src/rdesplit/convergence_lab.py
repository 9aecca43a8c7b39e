r"""Rate experiments and the Davie-solution defect.

Measures how fast trajectories at refining step sizes approach each other
(sup norm at grid points, discrete C^beta seminorm of joined paths, and
rational step-ratio comparisons at common grid times) and how small the
one-step consistency residual

    J_{km} = Y_{t_k, t_m} - f(Y_{t_k}) X_{t_k, t_m} - Z(Y_{t_k})_{t_k, t_m}

stays relative to |t_m - t_k|^(gamma*alpha).  Rates are fitted by least
squares on log2 differences against the level index; exact agreement is
reported through a sentinel slope instead of a fit.  The rate experiments
take a list of problems sharing T (the seeds of a synthetic driver) and
solve the coarse and the fine level of every comparison for all of them
in one march, with one report per problem, bitwise that of the problem
run alone; the dyadic sup experiment is the step-ratio one at q = 2.
The Davie sweep measures a trajectory against a given map, with the
trajectory's own field and driver; it takes its base increments from
one batch query and evaluates Z one row of pairs at a time, never once
per pair.  On a lifted driver with its own area-linear map it first
screens the rows against increments and areas queried once about t_0
(Chen's relation), a block of rows in a few batched contractions, then
evaluates only the rows that may hold the maximum, with the same report.
The Hölder experiment samples each joined path with one array call of
``eval_joined`` and takes the seminorm over blocks of sample pairs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .errors import NumericFailure
from .model import (SecondOrderMap, VectorField, _AreaLinearZ, _chunks,
                    _first_max, _matvec, _powers, _row_norms, c_einsum)
from .rough_path import Grid, RoughDriver, SampledPath, hoelder_seminorm
from .splitting_solver import SplitTrajectory, solve_many
# not called here: bench/spans.py patches this module attribute
from .splitting_solver import solve_split  # noqa: F401

__all__ = [
    "EXACT_AGREEMENT",
    "Problem",
    "RateReport",
    "DavieReport",
    "fit_rate",
    "dyadic_sup_rate",
    "holder_rate",
    "rational_rate",
    "rates_summary",
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
        return asdict(self)


def fit_rate(levels, diffs) -> float:
    """Least-squares slope of -log2(diffs) against the level index.

    All-zero differences short-circuit to the exact-agreement sentinel;
    mixing zero and nonzero differences makes the fit ill-posed.
    """
    diffs = [float(d) for d in diffs]
    if len(levels) != len(diffs):
        raise ValueError("levels and diffs must have equal length")
    for d in diffs:
        if not math.isfinite(d):
            raise ValueError(f"differences must be finite, got {d}")
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


def _level_pairs(problems, coarse, fine):
    """Each problem's (coarse, fine) split trajectory pairs, one per level,
    from one march of every problem at every distinct N of ``coarse +
    fine``, each bitwise its own ``solve_split``.

    The N are marched in first-occurrence order.  A blow-up names the N
    and the problem (as ``member``) of the earliest failing step, the first
    N and then the lowest problem at equal steps.
    """
    if not problems:
        raise ValueError("need at least one problem")
    T = problems[0].T
    if any(p.T != T for p in problems):
        raise ValueError("problems of one rate experiment must share T")
    Ns = list(dict.fromkeys(coarse + fine))
    members = [(p.driver, p.field, p.z, p.y0) for p in problems]
    P = len(problems)
    try:
        trajs = solve_many(members * len(Ns),
                           [grid for grid in map(Grid, [T] * len(Ns), Ns)
                            for _ in problems], ["split"] * (P * len(Ns)))
    except NumericFailure as exc:
        level, k = divmod(exc.member, P)
        raise NumericFailure(f"solve at N={Ns[level]} failed: {exc}",
                             step=exc.step, member=k) from exc
    at = {N: trajs[i * P:(i + 1) * P] for i, N in enumerate(Ns)}
    return [[(at[c][k], at[f][k]) for c, f in zip(coarse, fine)]
            for k in range(P)]


def rates_summary(reports, seeds) -> dict:
    """The summary of one rate experiment run on several seeds.

    ``slopes`` holds each seed's slope, None where its differences vanish
    identically.  ``exact_agreement`` is true, with ``slope`` None, only
    when every seed agrees exactly; otherwise it is false and ``slope`` is
    the median of the finite slopes.  Target and norm kind are the last
    report's, as every seed shares them.
    """
    slopes = [None if r.slope == EXACT_AGREEMENT else r.slope for r in reports]
    finite = [s for s in slopes if s is not None]
    return {
        "target": reports[-1].target,
        "norm_kind": reports[-1].norm_kind,
        "seeds": list(seeds),
        "slopes": slopes,
        "slope": float(statistics.median(finite)) if finite else None,
        "exact_agreement": not finite,
    }


def _report(problem, Ns, diffs, target, norm_kind, **meta) -> RateReport:
    """One problem's report on the levels ``Ns``, with its step sizes and
    fitted slope."""
    return RateReport(levels=Ns, hs=[problem.T / N for N in Ns], diffs=diffs,
                      slope=fit_rate(Ns, diffs), target=target,
                      norm_kind=norm_kind, meta=meta)


def _sup_rows(delta: np.ndarray) -> float:
    """Largest Euclidean norm over the rows of a difference of paths; one
    reaching 2^500 is scaled by a power of two, as in ``hoelder_seminorm``."""
    top = float(np.abs(delta).max())
    if 2.0**500 <= top < math.inf:
        shift = math.frexp(top)[1]
        return float(np.ldexp(_sup_rows(np.ldexp(delta, -shift)), shift))
    return float(np.max(np.linalg.norm(delta, axis=1)))


def _coarse_levels(base_N: int, levels: int, least: int) -> list:
    """The coarse step counts base_N * 2^n, n < levels, of a rate experiment
    that needs at least ``least`` levels."""
    if levels < least:
        raise ValueError(f"need at least {least} levels, got {levels}")
    if base_N < 4:
        raise ValueError(f"base_N must be >= 4, got {base_N}")
    return [base_N * 2**n for n in range(levels)]


def _ratio_rate(problems, q_num: int, q_den: int, Ns, **meta) -> list:
    """Sup difference of step-h and step-h/q trajectories, q = q_num/q_den
    in lowest terms, at the times both grids share (``common_indices``):
    every q_den-th coarse point and every q_num-th fine point.  One report
    per problem on the coarse levels ``Ns``; target gamma*alpha - 1.
    """
    pairs = _level_pairs(problems, Ns, [N * q_num // q_den for N in Ns])
    # each level's (coarse, fine) rows as one index array, shared by the
    # problems
    shared = [np.array(common_indices(N, q_num, q_den)) for N in Ns]
    return [_report(problem, Ns,
                    [_sup_rows(coarse.u[ci] - fine.u[fi])
                     for (coarse, fine), (ci, fi) in zip(level_pairs, shared)],
                    problem.gamma_capped * problem.alpha - 1.0, "sup", **meta)
            for problem, level_pairs in zip(problems, pairs)]


def dyadic_sup_rate(problems, base_N: int, levels: int) -> list:
    """Sup-norm differences between step-h and step-h/2 trajectories.

    One report per problem (for instance the seeds of one synthetic
    driver); the problems share T and each level's solves are one march.
    Level n compares N*2^n against N*2^(n+1) steps at the coarse grid
    points only: interval midpoints of the joined paths carry the slower
    joined-path discrepancy (see the README note on cross-consistency with
    the rational-ratio experiment).  This is the rational comparison at
    q = 2/1.  Target exponent: gamma*alpha - 1.
    """
    return _ratio_rate(problems, 2, 1, _coarse_levels(base_N, levels, 3))


def quarter_times(grid: Grid) -> np.ndarray:
    """Grid, half and quarter points of a grid, in increasing order."""
    pts = grid.points
    quarter = 0.25 * (pts[1:] - pts[:-1])
    blocks = pts[:-1, None] + quarter[:, None] * np.arange(4)[None, :]
    return np.append(blocks.ravel(), pts[-1])


def joined_samples(traj: SplitTrajectory, times) -> np.ndarray:
    """Joined-path values at the given times, shape (len(times), n)."""
    return traj.eval_joined(times)


def holder_rate(problems, beta: float, base_N: int, levels: int) -> list:
    """Discrete C^beta seminorm of step-h minus step-h/2 joined paths.

    One report per problem, as in ``dyadic_sup_rate``.  Differences are
    sampled at the quarter points of the coarse grid.  Target exponent:
    min(alpha - beta, gamma*alpha - 1).
    """
    for problem in problems:
        if not (0.0 < beta < problem.alpha):
            raise ValueError(
                f"beta must lie in (0, alpha) = (0, {problem.alpha}), got {beta}"
            )
    Ns = _coarse_levels(base_N, levels, 2)
    reports = []
    for problem, pairs in zip(problems,
                              _level_pairs(problems, Ns, [2 * N for N in Ns])):
        diffs, sup_diffs, spacings = [], [], []
        for coarse, fine in pairs:
            times = quarter_times(coarse.grid)
            delta = joined_samples(coarse, times) - joined_samples(fine, times)
            sup_diffs.append(_sup_rows(delta))
            spacings.append(float(np.min(np.diff(times))))
            diffs.append(hoelder_seminorm(SampledPath(times, delta), beta))
        reports.append(_report(
            problem, Ns, diffs,
            min(problem.alpha - beta,
                problem.gamma_capped * problem.alpha - 1.0),
            f"holder({beta})", sup_diffs=sup_diffs, min_spacings=spacings))
    return reports


def common_indices(n_coarse: int, q_num: int, q_den: int):
    """Indices where the step-h and step-h/q grids share a time.

    With q = q_num/q_den in lowest terms, j*h*q_den = j*q_num*(h/q), so the
    shared times are every q_den-th coarse point and every q_num-th fine
    point.
    """
    if q_num < 1 or q_den < 1:
        raise ValueError("ratio parts must be positive integers")
    if n_coarse % q_den != 0:
        raise ValueError(f"coarse step count {n_coarse} not divisible by {q_den}")
    count = n_coarse // q_den
    return (list(range(0, n_coarse + 1, q_den)),
            list(range(0, count * q_num + 1, q_num)))


def rational_rate(problems, q_num: int, q_den: int, base_N: int,
                  levels: int) -> list:
    """Sup difference of step-h and step-h/q trajectories at common times.

    One report per problem, as in ``dyadic_sup_rate``.  Requires q = q_num/q_den in lowest terms with 1 < q < 2 (the dyadic
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
    return _ratio_rate(problems, q_num, q_den,
                       _coarse_levels(base_N, levels, 2), q=f"{q_num}/{q_den}")


def _row_form_maxima(u, x, areas, f, grad, z, times, exponent):
    r"""Each Davie row's largest ratio in the Chen-formed row form, and a
    bound on its distance from the exact row's largest ratio.

    With x_m = X_{t_0,t_m}, A_m = XX_{t_0,t_m} and Chen's relation
    XX_{t_k,t_m} = A_m - A_k - x_k ⊗ (x_m - x_k), an area-linear map with
    coefficient K (``coefficient_many``) gives, over m > k,

        J_{k,m} = Δu - P_k Δx - K(u_k) : ΔA,   P_k = f(u_k) - K(u_k)·x_k,

    so row k is the weights [I | -P_k | -K(u_k)] applied to the columns
    [u; x; A] at every m > k, less the same weights applied at k.  Rows
    are taken in blocks of PAIR_BLOCK // (N + 1) (at least one): a block
    k0..k1-1 is one matmul of its weights against the columns from k0 on,
    less each row's own column, one contraction for the squared norms and
    one power of the gaps, with the entries m <= k set to -inf before the
    maximum of each row.  So the screen holds a few arrays of at most
    PAIR_BLOCK (n + 1) entries at any N, and makes no area query and no Z
    contraction.  A row whose largest squared ratio overflows, as a ratio
    above about 1.3e154 does, is scored again as
    sqrt(Σ J²) / (t_m - t_k)^exponent, so it is finite where its exact
    ratios are.

    This sums in another order than the exact row.  Either form adds at
    most n d^2 + n + d terms per component (the exact contraction has
    n d^2), and the lift forms each area in about ten more rounded steps.
    ``size`` bounds what they add, over all components: |Δu|, |Δx| times
    |f| and |P|, and the largest area about t_0 and squared increment times
    Σ |∂_m f^i_b| |f^m_a|, taken term by term because the exact form
    rounds every term before the sum over m, which may cancel.  So each
    form is off by at most an ulp of ``size`` per step, in a norm that
    bounds the Euclidean one; 16 times as many ulps, over the row's
    smallest scale, that of its one-step pair, bound the gap between the
    two ratios.  A row that is not finite has a maximum that is not.
    """
    N, n, d = f.shape
    coeff = z.coefficient_many(f, grad)
    P = f - c_einsum("kiab,ka->kib", coeff, x[:N])
    columns = np.concatenate([u, x, areas.reshape(N + 1, d * d)], axis=1).T
    columns = np.ascontiguousarray(columns)
    weights = np.concatenate([np.broadcast_to(np.eye(n), (N, n, n)), -P,
                              -coeff.reshape(N, n, d * d)], axis=2)
    maxima = np.empty(N)
    for rows in _chunks(0, N, N + 1):
        k0, size = rows.start, rows.stop - rows.start
        # [k, :, m - k0] = the weights of row k applied at m >= k0
        residual = np.matmul(weights[rows], columns[:, k0:])
        own = np.arange(size)
        residual -= residual[own, :, own][:, :, None]
        # the entries m <= k, all in the block's leading square: a gap of 1
        # keeps their power finite, and -inf keeps them out of the maxima
        upto_k = np.tri(size, dtype=bool)
        gaps = times[k0:] - times[rows, None]
        gaps[:, :size][upto_k] = 1.0
        # np.power: the screen need not be bitwise the scalar pow
        ratios = c_einsum("kij,kij->kj", residual, residual)
        ratios /= np.power(gaps, 2 * exponent, out=gaps)
        ratios[:, :size][upto_k] = -np.inf
        maxima[rows] = np.sqrt(ratios.max(axis=1))
        # a squared ratio above about 1.3e154 overflows where the ratio
        # need not: such a row is scored again as norms over powers
        for j in np.flatnonzero(maxima[rows] == np.inf):
            k = k0 + j
            maxima[k] = np.max(_row_norms(residual[j, :, j + 1:].T)
                               / np.power(times[k + 1:] - times[k], exponent))

    def total(a):
        return np.abs(a).reshape(N, -1).sum(axis=1)

    mag_u, mag_x, mag_a = (np.max(np.abs(a)) for a in (u, x, areas))
    terms = c_einsum("kibm,kma->k", np.abs(grad), np.abs(f))
    size = 2.0 * (n * mag_u + mag_x * (total(f) + total(P))
                  + (mag_a + mag_x * mag_x) * terms)
    ulps = 16 * (n * d * d + n + d + 10) * np.finfo(float).eps
    return (maxima,
            ulps * size / _powers(times[1:] - times[:-1], exponent))


def davie_defect(traj: SplitTrajectory, z: SecondOrderMap) -> DavieReport:
    """Worst normalised consistency residual of a computed trajectory
    against the map ``z``.

    Evaluates J_{km} for all N(N+1)/2 grid pairs k < m at every N, with the
    trajectory's own field and driver; the diagonal (J_{kk} = 0) is
    excluded.  The exponent is min(gamma, 3) * alpha, with the field's
    gamma and the driver's alpha.

    Row k is evaluated as arrays: Z over its pairs is one
    ``z.on_grid(t_k, t_{m>k}).every(u_k)`` call (per ``PAIR_BLOCK`` pairs
    on longer rows).  Ratios are bitwise those of a per-pair loop, and the
    witness is the first strict maximum in (k, m) order.

    When ``z`` is area-linear on that field and driver and the driver is a
    lift (``lift_piecewise_linear``), every row is first screened in the
    Chen-formed row form of ``_row_form_maxima``, blocks of rows at a time,
    from one ``increment_many`` and one ``area_many`` query about t_0 and
    one stacked evaluation of f and ∇f, and only the rows that may hold the
    largest ratio within their rounding bounds (normally one) are
    evaluated as above.  The report is the same.
    """
    grid, field, driver = traj.grid, traj.field, traj.driver
    exponent = min(field.gamma, 3.0) * driver.alpha
    times = grid.points
    u = traj.u
    starts = np.full(len(times), times[0])
    base = driver.increment_many(starts, times)

    def row(k):
        """Row k's first strict maximum and its m."""
        f_k = field(u[k])
        best, best_m = -np.inf, k + 1
        for cols in _chunks(k + 1, grid.N + 1):
            t_m = times[cols]
            z_row = z.on_grid(np.full(len(t_m), times[k]), t_m).every(u[k])
            residual = (u[cols] - u[k] - _matvec(f_k, base[cols] - base[k])
                        - z_row)
            ratio, j = _first_max(_row_norms(residual)
                                  / _powers(t_m - times[k], exponent))
            if ratio > best:
                best, best_m = ratio, cols.start + j
        return best, best_m

    rows = range(grid.N)
    # the row form needs the map's own areas to satisfy Chen's relation
    if (isinstance(z, _AreaLinearZ) and z.field is field
            and z.driver is driver and driver._chen_exact):
        f, grad = field.value_and_gradient_many(u[:-1])
        maxima, bound = _row_form_maxima(u, base,
                                         driver.area_many(starts, times),
                                         f, grad, z, times, exponent)
        # a row whose maximum plus its bound falls below some row's maximum
        # less that row's bound cannot hold the largest ratio; NaN compares
        # false, so a row that is not finite is kept
        low = np.where(np.isfinite(maxima), maxima - bound, -np.inf)
        rows = np.flatnonzero(~(maxima + bound < np.max(low)))
    best = -1.0
    best_k = best_m = 0
    for k in map(int, rows):
        ratio, m = row(k)
        if ratio > best:
            best, best_k, best_m = ratio, k, m
    return DavieReport(
        h=grid.h,
        n_steps=grid.N,
        max_ratio=best,
        k=best_k,
        m=best_m,
        exponent=exponent,
        pairs=grid.N * (grid.N + 1) // 2,
    )
