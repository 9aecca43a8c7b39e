r"""Rough-path drivers: Hölder paths together with their iterated-integral lift.

A driver evaluates increments X_{s,t} in R^d and areas

    XX_{s,t} = \int_s^t X_{s,r} ⊗ dX_r  in  R^{d×d},

and carries a Hölder exponent label alpha in (1/3, 1/2].  Piecewise-linear
paths are lifted exactly (the area has a quadratic closed form on every
segment), so Chen's relation

    XX_{s,t} = XX_{s,u} + XX_{u,t} + X_{s,u} ⊗ X_{u,t}

holds to roundoff.  Synthetic rough paths are generated by midpoint
displacement with per-level amplitude 2^(-level*alpha) and lifted via their
piecewise-linear interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SampledPath",
    "RoughDriver",
    "lift_piecewise_linear",
    "synth_midpoint_path",
    "smooth_path",
    "scalar_driver",
    "chen_defect",
    "chen_defect_many",
    "hoelder_seminorm",
]

# Most entries one array of hoelder_seminorm holds (64 KB per array): a
# band of sample pairs, a band of block-pair bounds, or the sample pairs of
# a group of candidate block pairs.  Bands of model.PAIR_BLOCK = 2^16 pairs
# were no faster at 1025 samples and raised the peak RSS of a diagnostics
# bench run by 2 MB.
SEMINORM_BAND = 2**13
# Consecutive samples per block of hoelder_seminorm's branch and bound: a
# group of candidates is SEMINORM_BAND // SEMINORM_BLOCK**2 = 32 block pairs.
SEMINORM_BLOCK = 16


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] into N steps: t_j = j*h, h = T/N."""

    T: float
    N: int

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"step count must be a positive integer, got {self.N}")
        pts = np.linspace(0.0, self.T, self.N + 1)
        pts.flags.writeable = False
        object.__setattr__(self, "_points", pts)

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def points(self) -> np.ndarray:
        return self._points


class SampledPath:
    """A path in R^d known at finitely many strictly increasing times."""

    def __init__(self, times, values):
        times = np.ascontiguousarray(times, dtype=float)
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2:
            raise ValueError("times must be 1-d and values 2-d")
        if values.shape[1] < 1:
            raise ValueError("values must have at least one component")
        if len(times) != len(values):
            raise ValueError(
                f"length mismatch: {len(times)} times vs {len(values)} values"
            )
        if len(times) >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("times and values must be finite")
        times.flags.writeable = False
        values.flags.writeable = False
        self.times = times
        self.values = values

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def covers(self, T: float) -> bool:
        """Whether the path spans a run on [0, T]: it starts at or before 0
        and ends at or after T - 1e-12 * max(1, T).  ``build_problem`` and
        ``solve_ode_reference`` share this rule; the lift's query slack is
        wider, so a covering path answers every query on [0, T]."""
        return (self.times[0] <= 0.0
                and self.times[-1] >= T - 1e-12 * max(1.0, T))

    def to_csv(self, fileobj) -> None:
        """Write "t,x1,...,xd" rows with full-precision decimal floats."""
        header = "t," + ",".join(f"x{i + 1}" for i in range(self.d))
        fileobj.write(header + "\n")
        for t, row in zip(self.times, self.values):
            fileobj.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, fileobj) -> "SampledPath":
        # (line number, stripped text) of every nonblank line
        lines = [(k, ln.strip()) for k, ln in enumerate(fileobj, 1)
                 if ln.strip()]
        if not lines:
            raise ValueError("empty path file")
        header = lines[0][1].split(",")
        if header[0] != "t" or any(not c.startswith("x") for c in header[1:]):
            raise ValueError(f"unexpected path header: {lines[0][1]!r}")
        rows = []
        for k, ln in lines[1:]:
            row = ln.split(",")
            if len(row) != len(header):
                raise ValueError(
                    f"malformed path rows: line {k} has {len(row)} fields, "
                    f"the header has {len(header)}")
            rows.append([float(v) for v in row])
        if not rows:
            raise ValueError("malformed path rows: none under the header")
        arr = np.asarray(rows, dtype=float)
        return cls(arr[:, 0], arr[:, 1:])


class RoughDriver:
    """Evaluates increments and areas of a rough path on a time span.

    Immutable after construction; evaluators must be pure.  A driver has
    one form, its batch queries ``increment_many`` and ``area_many`` on
    paired arrays of times; ``increment(s, t)`` and ``area(s, t)`` are
    their one-row views.  A driver built from per-interval callables
    ``increment_fn`` and ``area_fn`` gets batch queries made from them
    once, here, that call them once per interval; ``has_batch`` tells
    whether both batch hooks were given.
    """

    # True only on the drivers lift_piecewise_linear builds: their areas
    # satisfy Chen's relation to roundoff, so the Davie sweep may form the
    # area of every grid pair from the areas about the start
    _chen_exact = False

    def __init__(self, dim, alpha, increment_fn=None, area_fn=None,
                 value_fn=None, span=(0.0, 1.0), increment_many_fn=None,
                 area_many_fn=None):
        if dim < 1 or int(dim) != dim:
            raise ValueError(f"dimension must be a positive integer, got {dim}")
        if not (1.0 / 3.0 < alpha <= 0.5):
            raise ValueError(f"alpha must lie in (1/3, 1/2], got {alpha}")
        if ((increment_many_fn is None and increment_fn is None)
                or (area_many_fn is None and area_fn is None)):
            raise ValueError("a driver needs an increment and an area "
                             "evaluator, per interval or batch")
        d = self.dim = int(dim)
        self.alpha = float(alpha)
        self.has_batch = (increment_many_fn is not None
                          and area_many_fn is not None)
        if increment_many_fn is None:
            def increment_many_fn(ss, tt):
                return np.reshape([increment_fn(s, t) for s, t in zip(ss, tt)],
                                  (-1, d))
        if area_many_fn is None:
            def area_many_fn(ss, tt):
                return np.reshape([area_fn(s, t) for s, t in zip(ss, tt)],
                                  (-1, d, d))
        self._value_fn = value_fn
        self._increment_many_fn = increment_many_fn
        self._area_many_fn = area_many_fn
        self.span = (float(span[0]), float(span[1]))

    def increment(self, s: float, t: float) -> np.ndarray:
        """X_{s,t} = X_t - X_s, shape (d,)."""
        return self.increment_many((s,), (t,))[0]

    def area(self, s: float, t: float) -> np.ndarray:
        """XX_{s,t}, shape (d, d), indexed [a, b] = ∫ X^a_{s,r} dX^b_r."""
        return self.area_many((s,), (t,))[0]

    def value(self, t: float) -> np.ndarray:
        """Base-point value X_t - X_{t0}; optional."""
        if self._value_fn is None:
            raise ValueError("driver has no base-point evaluator")
        return self._value_fn(t)

    def increment_many(self, ss, tt) -> np.ndarray:
        """X_{s,t} for paired query arrays, shape (K, d)."""
        return self._increment_many_fn(np.asarray(ss, float), np.asarray(tt, float))

    def area_many(self, ss, tt) -> np.ndarray:
        """XX_{s,t} for paired query arrays, shape (K, d, d)."""
        return self._area_many_fn(np.asarray(ss, float), np.asarray(tt, float))


class _PiecewiseLinearLift:
    """Closed-form increments and areas of a piecewise-linear interpolant.

    Per segment with endpoint step Δx the area contribution is
    (1/2) Δx ⊗ Δx; cumulative areas from t0 are precomputed so any query
    costs O(1).  Chen's relation then holds up to roundoff because every
    evaluation reduces to the algebraic combination of exact cumulative
    integrals.  The queries take arrays of times, one expression tree
    applied elementwise; a single query is a one-row array.

    The (m, d, d) tables are built on 1-d columns of the m - 1 segments,
    one pair (a, b) at a time, with the operations of the broadcast
    formulas in their order, so they are bitwise those formulas' tables.
    numpy's loop over a trailing (d, d) broadcast runs d entries at a
    time, and a CLI process lifts a 2^14-segment path: the broadcasts
    took 3-4 times as long at d = 2.  What a driver keeps is unchanged
    (1.7 MB at 2^14 segments, see below), and the build's peak is lower.
    """

    def __init__(self, path: SampledPath):
        self.times = path.times
        self.values = path.values
        m, d = self.values.shape
        # Every entry takes the IEEE operations of the broadcast formulas
        # (0.5 Δx_a) Δx_b + (x_a - x0_a) Δx_b, a running sum down the
        # segments (add.accumulate is sequential) and slope_a slope_b.
        self.slopes = np.empty((m - 1, d))
        dts = np.diff(self.times)
        steps = []
        for a in range(d):
            step = self.values[1:, a] - self.values[:-1, a]
            np.divide(step, dts, out=self.slopes[:, a])
            steps.append(step)
        del dts
        # XX_{t0, tau_i} accumulated over whole segments.  A rate experiment
        # holds the drivers of all its seeds at once, so a driver keeps
        # little beyond what its queries read: offsets from values[0] are
        # formed per query (a subtraction is cheaper than a gather).  At
        # 2^14 segments a driver with its path takes 1.7 MB.  The build
        # holds the steps, one offset column and a few column buffers;
        # offsets and half-steps of every component at once would raise
        # its peak above the broadcasts'.
        self.base_area = np.empty((m, d, d))
        self.base_area[0] = 0.0
        self.seg_outer = np.empty((m - 1, d, d))
        seg, cross = np.empty(m - 1), np.empty(m - 1)
        for a in range(d):
            half = 0.5 * steps[a]
            offset = self.values[:-1, a] - self.values[0, a]
            for b in range(d):
                np.multiply(half, steps[b], out=seg)
                seg += np.multiply(offset, steps[b], out=cross)
                np.cumsum(seg, out=self.base_area[1:, a, b])
                np.multiply(self.slopes[:, a], self.slopes[:, b],
                            out=self.seg_outer[:, a, b])
        # a driver may be shared (config caches generated drivers): no
        # caller may alter its tables under another, as for SampledPath
        for table in (self.slopes, self.base_area, self.seg_outer):
            table.flags.writeable = False
        self._lo = float(self.times[0])
        self._hi = float(self.times[-1])
        self._top = m - 2
        tol = 1e-9 * max(1.0, abs(self._hi - self._lo))
        self._floor = self._lo - tol
        self._ceil = self._hi + tol

    def locate_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        # fmin and fmax skip NaN (NaN passes) and cost one pass each, where
        # a comparison array and any() cost two
        if ts.size and (np.fmin.reduce(ts, axis=None) < self._floor
                        or np.fmax.reduce(ts, axis=None) > self._ceil):
            first = ts[(ts < self._floor) | (ts > self._ceil)][0]
            raise ValueError(f"query time {float(first)} outside path span "
                             f"[{self._lo}, {self._hi}]")
        idx = self.times.searchsorted(ts, side="right")
        idx -= 1
        np.maximum(idx, 0, out=idx)
        return np.minimum(idx, self._top, out=idx)

    def increment_many(self, ss, tt) -> np.ndarray:
        i = self.locate_many(ss)
        j = self.locate_many(tt)
        return (self.values[j] - self.values[i]
                + (tt - self.times[j])[:, None] * self.slopes[j]
                - (ss - self.times[i])[:, None] * self.slopes[i])

    def area_many(self, ss, tt) -> np.ndarray:
        i = self.locate_many(ss)
        j = self.locate_many(tt)
        ds = ss - self.times[i]
        dt = tt - self.times[j]
        v0, vi, vj = self.values[0], self.values[i], self.values[j]
        step_s = ds[:, None] * self.slopes[i]
        step_t = dt[:, None] * self.slopes[j]
        xs = vi + step_s
        xt = vj + step_t
        base = (self.base_area[j] - self.base_area[i]
                + (0.5 * dt * dt)[:, None, None] * self.seg_outer[j]
                - (0.5 * ds * ds)[:, None, None] * self.seg_outer[i]
                + (vj - v0)[:, :, None] * step_t[:, None, :]
                - (vi - v0)[:, :, None] * step_s[:, None, :])
        rel = xs - v0
        return base - rel[:, :, None] * (xt - xs)[:, None, :]


def lift_piecewise_linear(path: SampledPath, alpha: float = 0.5) -> RoughDriver:
    """Lift a sampled path to a rough driver via linear interpolation.

    The area is the exact iterated integral of the interpolant (quadratic
    closed form per segment, never quadrature), so Chen's relation holds to
    roundoff.  ``alpha`` is a user-supplied label: a finite sample has no
    intrinsic exponent; see :func:`hoelder_seminorm` for the empirical
    ratio.
    """
    if path.n_samples < 2:
        raise ValueError("need at least 2 samples to interpolate")
    lift = _PiecewiseLinearLift(path)
    driver = RoughDriver(path.d, alpha, span=(path.times[0], path.times[-1]),
                         increment_many_fn=lift.increment_many,
                         area_many_fn=lift.area_many)
    driver._chen_exact = True
    return driver


def synth_midpoint_path(seed: int, alpha: float, levels: int, d: int) -> SampledPath:
    """Midpoint-displacement path on [0, 1] with 2^levels + 1 samples.

    Each refinement level inserts midpoints displaced by centred Gaussian
    noise of amplitude 2^(-level*alpha); output is identical for identical
    seeds.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    vals = np.zeros((2, d))
    vals[1] = rng.standard_normal(d)
    for level in range(1, levels + 1):
        amp = 2.0 ** (-level * alpha)
        mids = 0.5 * (vals[:-1] + vals[1:])
        mids = mids + amp * rng.standard_normal(mids.shape)
        merged = np.empty((2 * len(vals) - 1, d))
        merged[::2] = vals
        merged[1::2] = mids
        vals = merged
    times = np.linspace(0.0, 1.0, 2**levels + 1)
    return SampledPath(times, vals)


def smooth_path(d: int = 2, segments: int = 16384, T: float = 1.0) -> SampledPath:
    """Deterministic smooth test path: staggered sine components, |x'| <= 1."""
    if d < 1 or segments < 1:
        raise ValueError("d and segments must be positive")
    times = np.linspace(0.0, T, segments + 1)
    values = np.empty((segments + 1, d))
    for a in range(d):
        k = 2.0 * np.pi * (a + 1) / T
        phase = 0.5 * np.pi * a / max(d - 1, 1)
        values[:, a] = np.sin(k * times + phase) / k
    return SampledPath(times, values)


def scalar_driver(fn, alpha: float = 0.5, span=(0.0, 1.0)) -> RoughDriver:
    """One-dimensional smooth driver with the exact area (1/2) X_{s,t}^2."""

    def increment(s, t):
        return np.array([fn(t) - fn(s)])

    def area(s, t):
        dx = fn(t) - fn(s)
        return np.array([[0.5 * dx * dx]])

    def value(t):
        return np.array([fn(t) - fn(span[0])])

    return RoughDriver(1, alpha, increment, area, value, span=span)


def chen_defect(driver: RoughDriver, s: float, u: float, t: float) -> float:
    """Max-entry norm of XX_{s,t} - XX_{s,u} - XX_{u,t} - X_{s,u} ⊗ X_{u,t}.

    Zero (to roundoff) for exactly lifted drivers; positive when the area
    is inconsistent with the increments.  The one triple of
    :func:`chen_defect_many`.
    """
    return float(chen_defect_many(driver, (s,), (u,), (t,))[0])


def _ordered_triples(ss, uu, tt):
    """The triples' s, u and t as float arrays; the first that does not
    satisfy s <= u <= t, NaN included, rejects them all."""
    ss, uu, tt = (np.asarray(a, dtype=float) for a in (ss, uu, tt))
    ordered = (ss <= uu) & (uu <= tt)
    if not ordered.all():
        k = int(np.argmin(ordered))
        raise ValueError("triple must satisfy s <= u <= t, got "
                         f"{(float(ss[k]), float(uu[k]), float(tt[k]))}")
    return ss, uu, tt


def chen_defect_many(driver: RoughDriver, ss, uu, tt) -> np.ndarray:
    """Chen defects for arrays of triples, shape (K,).

    An unordered triple rejects the whole call, named in the message.
    """
    ss, uu, tt = _ordered_triples(ss, uu, tt)
    left = driver.increment_many(ss, uu)
    right = driver.increment_many(uu, tt)
    defect = (driver.area_many(ss, tt)
              - driver.area_many(ss, uu)
              - driver.area_many(uu, tt)
              - left[:, :, None] * right[:, None, :])
    return np.abs(defect).max(axis=(1, 2))


def _lag_windows(a: np.ndarray, start: int, lags: int, count: int) -> np.ndarray:
    """View of the 1-d contiguous array ``a`` with [k, i] = a[start + k + i],
    shape (lags, count).

    Built on the buffer directly: ``sliding_window_view`` goes through
    ``as_strided``, which kept Python memory alive from call to call
    (numpy 2.4) and raised the peak RSS of long runs.
    """
    step = a.strides[0]
    return np.ndarray((lags, count), a.dtype, a, start * step, (step, step))


def _bands(count: int, first: int, stop: int):
    """(lag, width, lo, hi) of bands over the pairs (i, i + l) of ``count``
    items with ``first <= l < stop``: entry [k, r] of a band pairs item
    lo + r with item lo + r + lag + k, for k < width and r < hi - lo, at most
    ``SEMINORM_BAND`` entries.  Entries past the last item are padding.
    """
    lag = first
    while lag < stop:
        rows = count - lag
        width = min(max(SEMINORM_BAND // rows, 1), rows, stop - lag)
        for lo in range(0, rows, SEMINORM_BAND):
            yield lag, width, lo, min(lo + SEMINORM_BAND, rows)
        lag += width


def _prune_limit(best: float) -> float:
    """The block bound at or below which no pair of the block pair can
    exceed ``best``.

    Subtraction, squares, sums and sqrt round monotonically, so a bound's
    numerator is at least every covered pair's norm and its gap at most
    every covered time difference.  Only np.power may break monotonicity,
    by a few units in the last place, and the quotients then differ by as
    little; 1e-9 covers that.  Below 1e-300, where quotients may be
    subnormal and a last place is no longer relative, nothing is pruned.
    """
    return best * (1.0 - 1e-9) - 1e-300


def _max_ratio(t_late, t_early, late, early, beta: float) -> float:
    """Largest |x_late - x_early| / (t_late - t_early)^beta over broadcast
    arrays of times and of values, one array per component in ``late`` and
    ``early``: a difference per component, squares summed in component
    order, sqrt, np.power, then divide."""
    scale = t_late - t_early
    np.power(scale, beta, out=scale)
    norm = None
    for x_late, x_early in zip(late, early):
        diff = x_late - x_early
        np.multiply(diff, diff, out=diff)
        norm = diff if norm is None else np.add(norm, diff, out=norm)
    np.sqrt(norm, out=norm)
    np.divide(norm, scale, out=norm)
    return float(norm.max())


def hoelder_seminorm(path: SampledPath, beta: float) -> float:
    """Discrete C^beta seminorm: max over sample pairs of |X_{s,t}| / |t-s|^beta.

    Scales linearly in the values and, for spacings <= 1, is nondecreasing
    in beta.  An exact branch and bound over blocks of ``SEMINORM_BLOCK``
    consecutive samples.  Every pair in one block or in adjacent blocks is
    evaluated.  A block pair (I, J) two or more blocks apart is bounded from
    each block's per-component min and max by

        sqrt(sum_a max(hi_J - lo_I, hi_I - lo_J)^2) / (t_first(J) - t_last(I))^beta,

    and its pairs are evaluated only if the bound exceeds the largest ratio
    found so far, less the rounding margin of ``_prune_limit``.  The bounds
    are formed in bands of at most ``SEMINORM_BAND`` block pairs, farthest
    first, and the candidates of a band are evaluated by falling bound, at
    most ``SEMINORM_BAND`` sample pairs at a time.  Every evaluated ratio
    takes the arithmetic of the row norm ``np.linalg.norm(..., axis=1)``,
    summing the squared components in column order, so the result is
    bitwise the maximum of that arithmetic over every pair, and bitwise that
    norm's for d <= 2.  A path reaching 2^500, whose squares would
    overflow, is first scaled by a power of two and its seminorm back.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    m = path.n_samples
    if m < 2:
        raise ValueError("need at least 2 samples")
    top = float(np.abs(path.values).max())
    if top >= 2.0**500:
        # squared differences overflow from about 1.3e154: scale by a power
        # of two, which every rounding step of a ratio commutes with
        shift = math.frexp(top)[1]
        scaled = SampledPath(path.times, np.ldexp(path.values, -shift))
        return float(np.ldexp(hoelder_seminorm(scaled, beta), shift))
    block = SEMINORM_BLOCK
    blocks = -(-m // block)
    # padding samples at t = +inf up to two whole blocks past the last: a
    # pair with one has ratio 0 and never raises the maximum
    size = (blocks + 2) * block
    times = np.full(size, np.inf)
    times[:m] = path.times
    columns = np.zeros((path.d, size))
    columns[:, :m] = path.values.T
    best = 0.0
    # pairs in one block or in adjacent blocks: every lag below two blocks
    for lag, width, lo, hi in _bands(m, 1, min(m, 2 * block)):
        start = lo + lag
        best = max(best, _max_ratio(
            _lag_windows(times, start, width, hi - lo), times[lo:hi],
            [_lag_windows(col, start, width, hi - lo) for col in columns],
            columns[:, lo:hi], beta))
    if blocks < 3:
        return best
    # per-block first and last times and per-component min and max, NaN
    # past the last block so that a padding bound is never a candidate
    heads = np.arange(0, m, block)
    first = np.full(2 * blocks, np.nan)
    first[:blocks] = path.times[heads]
    last = np.maximum.reduceat(path.times, heads)
    low = np.full((path.d, 2 * blocks), np.nan)
    high = np.full((path.d, 2 * blocks), np.nan)
    low[:, :blocks] = np.minimum.reduceat(path.values, heads).T
    high[:, :blocks] = np.maximum.reduceat(path.values, heads).T
    tile_t = times.reshape(-1, block)
    tile_x = columns.reshape(path.d, -1, block)
    # block pairs per group: one at least, should SEMINORM_BAND be set below
    # a block pair's block**2 sample pairs
    group = max(SEMINORM_BAND // block**2, 1)
    for lag, width, lo, hi in reversed(list(_bands(blocks, 2, blocks))):
        start, rows = lo + lag, hi - lo
        gap = _lag_windows(first, start, width, rows) - last[lo:hi]
        np.power(gap, beta, out=gap)
        bound = None
        for lows, highs in zip(low, high):
            rise = _lag_windows(highs, start, width, rows) - lows[lo:hi]
            fall = highs[lo:hi] - _lag_windows(lows, start, width, rows)
            np.maximum(rise, fall, out=rise)
            np.multiply(rise, rise, out=rise)
            bound = rise if bound is None else np.add(bound, rise, out=bound)
        np.sqrt(bound, out=bound)
        np.divide(bound, gap, out=bound)
        bound = bound.ravel()
        limit = _prune_limit(best)
        order = np.flatnonzero(bound > limit)
        if len(order) > group:
            order = order[np.argsort(bound[order])[::-1]]
        for g in range(0, len(order), group):
            if bound[order[g]] <= limit:
                break
            k, r = np.divmod(order[g:g + group], rows)
            i = lo + r
            j = i + lag + k
            best = max(best, _max_ratio(
                tile_t[j, None, :], tile_t[i, :, None],
                tile_x[:, j, None, :], tile_x[:, i, :, None], beta))
            limit = _prune_limit(best)
    return best
