import io
import math
import re
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdesplit import (Grid, SampledPath, chen_defect, hoelder_seminorm,
                      lift_piecewise_linear, scalar_driver, smooth_path,
                      synth_midpoint_path)
from rdesplit import rough_path
from rdesplit.rough_path import chen_defect_many

from builders import with_area
from references import chen_defect as reference_chen_defect
from references import hoelder_band_loop, lift_area, lift_increment


def l_shaped_path():
    return SampledPath([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


def random_path(rng, segments, d):
    times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, segments - 1)]))
    return SampledPath(times, rng.standard_normal((segments + 1, d)))


# ---------------------------------------------------------------- grid

def test_uniform_grid_points():
    g = Grid(1.0, 4)
    assert np.allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.h == 0.25


def test_single_step_grid():
    g = Grid(2.0, 1)
    assert list(g.points) == [0.0, 2.0]


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Grid(1.0, 0)
    with pytest.raises(ValueError):
        Grid(0.0, 4)
    with pytest.raises(ValueError):
        Grid(-1.0, 4)


def test_grid_endpoints_exact():
    g = Grid(1.0, 63)
    assert g.points[0] == 0.0
    assert g.points[-1] == 1.0
    assert np.all(np.diff(g.points) > 0)


# ---------------------------------------------------------------- lift

def test_single_segment_area_is_half_outer():
    path = SampledPath([0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]])
    drv = lift_piecewise_linear(path)
    assert np.allclose(drv.increment(0, 1), [1.0, 2.0])
    assert np.allclose(drv.area(0, 1), [[0.5, 1.0], [1.0, 2.0]])


def test_constant_path_has_zero_increments_and_area():
    path = SampledPath([0.0, 0.3, 1.0], np.ones((3, 2)) * 4.2)
    drv = lift_piecewise_linear(path)
    assert np.all(drv.increment(0.1, 0.9) == 0.0)
    assert np.all(drv.area(0.05, 0.95) == 0.0)


def test_l_shaped_area_against_riemann_sum_oracle():
    # midpoint Riemann sum of \int X_{0,r} (x) dX_r over 10^6 subintervals
    path = l_shaped_path()
    drv = lift_piecewise_linear(path)
    M = 10**6
    ts = np.linspace(0.0, 1.0, M + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    xs = np.column_stack([np.interp(ts, path.times, path.values[:, k])
                          for k in range(path.d)])
    xm = np.column_stack([np.interp(mids, path.times, path.values[:, k])
                          for k in range(path.d)])
    oracle = np.einsum("ra,rb->ab", xm - xs[0], np.diff(xs, axis=0))
    area = drv.area(0.0, 1.0)
    assert np.max(np.abs(area - oracle)) <= 1e-6
    # off-diagonal asymmetry of the L-shaped path
    assert area[0, 1] == pytest.approx(1.0)
    assert area[1, 0] == pytest.approx(0.0)
    assert area[0, 0] == pytest.approx(0.5)
    assert area[1, 1] == pytest.approx(0.5)


def test_lift_needs_two_samples():
    with pytest.raises(ValueError):
        lift_piecewise_linear(SampledPath([0.0], [[1.0]]))


def test_lift_query_outside_span_rejected():
    drv = lift_piecewise_linear(l_shaped_path())
    with pytest.raises(ValueError):
        drv.increment(0.0, 1.5)


def test_batch_evaluators_match_scalar_bitwise():
    # the batch queries and their one-row views against the lift's
    # per-interval bisect formulas
    rng = np.random.default_rng(3)
    path = random_path(rng, 17, 3)
    drv = lift_piecewise_linear(path)
    lift = rough_path._PiecewiseLinearLift(path)
    qs = np.sort(rng.uniform(0, 1, (50, 2)), axis=1)
    areas = drv.area_many(qs[:, 0], qs[:, 1])
    incs = drv.increment_many(qs[:, 0], qs[:, 1])
    for k, (s, t) in enumerate(qs):
        for area in (areas[k], drv.area(s, t)):
            assert np.array_equal(area, lift_area(lift, s, t))
        for inc in (incs[k], drv.increment(s, t)):
            assert np.array_equal(inc, lift_increment(lift, s, t))


def test_lift_tables_are_read_only():
    # a built driver may be shared between callers: none may alter it
    rng = np.random.default_rng(5)
    drv = lift_piecewise_linear(random_path(rng, 17, 2))
    lift = drv._area_many_fn.__self__
    qs = np.sort(rng.uniform(0, 1, (20, 2)), axis=1)
    before = (drv.increment_many(qs[:, 0], qs[:, 1]).tobytes(),
              drv.area_many(qs[:, 0], qs[:, 1]).tobytes())
    for table in (lift.slopes, lift.base_area, lift.seg_outer, lift.times,
                  lift.values):
        with pytest.raises(ValueError, match="read-only"):
            table[0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            table.fill(0.0)
    assert (drv.increment_many(qs[:, 0], qs[:, 1]).tobytes(),
            drv.area_many(qs[:, 0], qs[:, 1]).tobytes()) == before


def test_chen_defect_many_matches_scalar():
    rng = np.random.default_rng(4)
    path = random_path(rng, 9, 2)
    lifted = lift_piecewise_linear(path)
    lift = rough_path._PiecewiseLinearLift(path)
    tri = np.sort(rng.uniform(0, 1, (40, 3)), axis=1)

    def g(t):
        return np.sin(3.0 * t) + t * t

    def g_increment(s, t):
        return np.array([g(t) - g(s)])

    def g_area(s, t):
        dx = g(t) - g(s)
        return np.array([[0.5 * dx * dx]])

    # (driver, its per-interval increment and area): the last two have no
    # batch hooks, so their batch queries call per interval, and the
    # scaled area makes the defects nonzero
    cases = ((lifted, partial(lift_increment, lift), partial(lift_area, lift)),
             (scalar_driver(g), g_increment, g_area),
             (with_area(lifted, lambda s, t: 2.0 * lifted.area(s, t)),
              partial(lift_increment, lift),
              lambda s, t: 2.0 * lift_area(lift, s, t)))
    for drv, increment, area in cases:
        batch = chen_defect_many(drv, tri[:, 0], tri[:, 1], tri[:, 2])
        reference = [reference_chen_defect(increment, area, *row)
                     for row in tri]
        assert np.array_equal(batch, reference)
        assert [chen_defect(drv, *row) for row in tri] == reference
        assert chen_defect_many(drv, [], [], []).shape == (0,)


def broadcast_tables(path):
    """The lift's tables by the (m, d, d) broadcast formulas."""
    dts = np.diff(path.times)
    steps = np.diff(path.values, axis=0)
    slopes = steps / dts[:, None]
    seg = 0.5 * steps[:, :, None] * steps[:, None, :]
    seg += (path.values[:-1] - path.values[0])[:, :, None] * steps[:, None, :]
    m, d = path.values.shape
    base = np.zeros((m, d, d))
    np.cumsum(seg, axis=0, out=base[1:])
    return slopes, base, slopes[:, :, None] * slopes[:, None, :]


def broadcast_locate(lift, ts):
    """The lift's segment indices by comparison arrays and ``np.clip``."""
    ts = np.asarray(ts, dtype=float)
    lo, hi = lift.times[0], lift.times[-1]
    tol = 1e-9 * max(1.0, abs(hi - lo))
    outside = (ts < lo - tol) | (ts > hi + tol)
    if outside.any():
        raise ValueError(f"query time {float(ts[outside][0])} outside path "
                         f"span [{lo}, {hi}]")
    idx = np.searchsorted(lift.times, ts, side="right") - 1
    return np.clip(idx, 0, lift._top)


@st.composite
def lift_paths(draw):
    """Paths of 2-300 samples in d = 1..4 at non-uniform, strictly
    increasing times, with values over several orders of magnitude."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.5, 1.0, m - 1) * 10.0 ** rng.integers(-3, 2, m - 1)
    start = draw(st.floats(-10.0, 10.0))
    times = start + np.concatenate([[0.0], np.cumsum(gaps)])
    scale = 10.0 ** rng.integers(-8, 9, (m, d))
    return SampledPath(times, scale * rng.standard_normal((m, d)))


@settings(max_examples=80, deadline=None)
@given(path=lift_paths())
def test_lift_tables_are_bitwise_the_broadcast_formulas(path):
    lift = rough_path._PiecewiseLinearLift(path)
    for got, want in zip((lift.slopes, lift.base_area, lift.seg_outer),
                         broadcast_tables(path)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def assert_locates_like_the_broadcast_formula(lift, ts):
    try:
        want = broadcast_locate(lift, ts)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            lift.locate_many(ts)
        assert str(err.value) == str(exc)
        return
    got = lift.locate_many(ts)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(path=lift_paths(), data=st.data())
def test_locate_many_is_the_broadcast_formula(path, data):
    lift = rough_path._PiecewiseLinearLift(path)
    lo, hi = path.times[0], path.times[-1]
    tol = 1e-9 * max(1.0, abs(hi - lo))
    edges = [lo, hi, lo - tol, hi + tol, np.nextafter(lo - tol, -np.inf),
             np.nextafter(hi + tol, np.inf), lo - 1.0, hi + 1.0,
             np.inf, -np.inf, np.nan]
    times = st.one_of(st.floats(lo, hi), st.sampled_from(edges),
                      st.sampled_from(path.times.tolist()))
    ts = np.array(data.draw(st.lists(times, max_size=40)), dtype=float)
    assert_locates_like_the_broadcast_formula(lift, ts)


@pytest.mark.parametrize("ts", [
    [], [np.nan], [np.nan, np.nan], [0.5, np.nan],
    # NaN next to a time out of range, on either side, still raises
    [np.nan, 1.5], [-0.5, np.nan], [np.nan, np.inf], [-np.inf, np.nan],
    [np.inf], [-np.inf], [0.0, 1.0], [-1e-9, 1.0 + 1e-9],
    [np.nextafter(-1e-9, -1.0)], [np.nextafter(1.0 + 1e-9, 2.0)],
])
def test_locate_many_edge_cases(ts):
    lift = rough_path._PiecewiseLinearLift(l_shaped_path())
    assert_locates_like_the_broadcast_formula(lift, np.array(ts, dtype=float))


def test_out_of_span_queries_name_the_first_offending_time():
    drv = lift_piecewise_linear(l_shaped_path())
    with pytest.raises(ValueError, match=r"^query time 1\.5 outside path "
                                         r"span \[0\.0, 1\.0\]$"):
        drv.increment(0.0, 1.5)
    # NaN passes; the first time out of range is named
    with pytest.raises(ValueError, match=r"^query time -0\.25 outside path "
                                         r"span \[0\.0, 1\.0\]$"):
        drv.area_many([0.2, np.nan, -0.25, 2.0], [0.5] * 4)
    with pytest.raises(ValueError, match=r"^triple must satisfy s <= u <= t, "
                                         r"got \(0\.5, 0\.2, 0\.8\)$"):
        chen_defect(drv, 0.5, 0.2, 0.8)


def test_lift_memory_peak_is_at_most_the_broadcast_builds():
    path = synth_midpoint_path(17, 0.45, 14, 2)
    tracemalloc.start()
    try:
        lift_piecewise_linear(path, alpha=0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (m, d, d) broadcast formulas peaked at 2,499,876 bytes here, 4.77
    # tables of 2^14 + 1 rows; holding every component's offsets and steps
    # at once as columns would peak higher
    assert peak <= 2_499_876


# ---------------------------------------------------------------- synthetic paths

def test_midpoint_path_deterministic():
    a = synth_midpoint_path(7, 0.45, 8, 2)
    b = synth_midpoint_path(7, 0.45, 8, 2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.times, b.times)


def test_midpoint_path_sample_count():
    p = synth_midpoint_path(0, 0.4, 1, 1)
    assert p.n_samples == 3
    p = synth_midpoint_path(0, 0.4, 5, 3)
    assert p.n_samples == 2**5 + 1


def test_midpoint_path_rejects_bad_alpha():
    with pytest.raises(ValueError):
        synth_midpoint_path(0, 0.0, 4, 1)
    with pytest.raises(ValueError):
        synth_midpoint_path(0, 1.0, 4, 1)
    with pytest.raises(ValueError):
        synth_midpoint_path(0, 0.4, 0, 1)


def test_midpoint_path_roughness_scales_with_exponent():
    # At a supercritical exponent the discrete Hölder ratio keeps growing
    # with depth; at a subcritical one it flattens out.
    alpha = 0.45
    plus, minus = [], []
    for lv in range(6, 13):
        p = synth_midpoint_path(7, alpha, lv, 2)
        plus.append(hoelder_seminorm(p, alpha + 0.05))
        minus.append(hoelder_seminorm(p, alpha - 0.05))
    assert all(b >= a for a, b in zip(plus, plus[1:]))
    assert plus[-1] / plus[0] > 1.8
    assert max(minus) / minus[0] < 1.6


# ---------------------------------------------------------------- chen defect

def test_chen_defect_zero_on_exact_lifts():
    rng = np.random.default_rng(11)
    for _ in range(5):
        drv = lift_piecewise_linear(random_path(rng, 12, 2))
        for _ in range(50):
            s, u, t = np.sort(rng.uniform(0, 1, 3))
            assert chen_defect(drv, s, u, t) <= 1e-12


def test_chen_defect_degenerate_triple():
    drv = lift_piecewise_linear(l_shaped_path())
    assert chen_defect(drv, 0.4, 0.4, 0.4) == 0.0


def test_chen_defect_rejects_unordered_times():
    drv = lift_piecewise_linear(l_shaped_path())
    with pytest.raises(ValueError):
        chen_defect(drv, 0.5, 0.2, 0.8)


@pytest.mark.parametrize("triple", [(np.nan, 0.5, 0.6), (0.1, np.nan, 0.6),
                                    (0.1, 0.5, np.nan)])
def test_nan_triples_are_rejected_by_name(triple):
    # one check for the Chen defect and the cocycle checker: NaN is not ordered
    from rdesplit import check_z_cocycle, sine_field, zero_z

    drv = lift_piecewise_linear(l_shaped_path())
    message = f"^triple must satisfy s <= u <= t, got {re.escape(str(triple))}$"
    with pytest.raises(ValueError, match=message):
        chen_defect_many(drv, *([v] for v in triple))
    field = sine_field(2, 2, seed=3)
    with pytest.raises(ValueError, match=message):
        check_z_cocycle(zero_z(2), field, drv, [np.zeros(2)],
                        [(0.0, 0.1, 0.2), triple], 0.5)


def test_chen_defect_of_zeroed_area_equals_outer_product():
    drv = lift_piecewise_linear(l_shaped_path())
    broken = with_area(drv, lambda s, t: np.zeros((2, 2)))
    s, u, t = 0.1, 0.45, 0.9
    expected = np.max(np.abs(np.outer(drv.increment(s, u), drv.increment(u, t))))
    assert chen_defect(broken, s, u, t) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=4, max_size=10),
    st.integers(0, 2**31),
)
def test_increment_additivity_and_area_scaling(raw, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(raw)[:, None]
    times = np.linspace(0.0, 1.0, len(values))
    path = SampledPath(times, values)
    drv = lift_piecewise_linear(path)
    doubled = lift_piecewise_linear(SampledPath(times, 2.0 * values))
    s, u, t = np.sort(rng.uniform(0, 1, 3))
    gap = drv.increment(s, t) - drv.increment(s, u) - drv.increment(u, t)
    assert np.max(np.abs(gap)) <= 1e-12
    assert chen_defect(drv, s, u, t) <= 1e-12 * (1.0 + np.max(np.abs(values)) ** 2)
    # replacing X by 2X multiplies the area by 4
    a, b = drv.area(s, t), doubled.area(s, t)
    assert np.allclose(b, 4.0 * a, rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------- seminorm

def test_hoelder_seminorm_linear_path():
    t = np.linspace(0.0, 1.0, 33)
    path = SampledPath(t, t)
    assert hoelder_seminorm(path, 0.5) == pytest.approx(1.0)


def test_hoelder_seminorm_constant_path():
    path = SampledPath(np.linspace(0, 1, 9), np.full((9, 2), 3.3))
    assert hoelder_seminorm(path, 0.4) == 0.0


def test_hoelder_seminorm_homogeneous():
    rng = np.random.default_rng(2)
    path = random_path(rng, 20, 2)
    twice = SampledPath(path.times, 2.0 * path.values)
    assert hoelder_seminorm(twice, 0.3) == pytest.approx(
        2.0 * hoelder_seminorm(path, 0.3))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.floats(0.1, 0.5), st.floats(0.05, 0.45))
def test_hoelder_seminorm_nondecreasing_in_beta(seed, beta1, gap):
    # spacing <= 1, so every per-pair ratio is nondecreasing in beta
    beta2 = min(beta1 + gap, 1.0)
    rng = np.random.default_rng(seed)
    path = random_path(rng, 10, 1)
    assert hoelder_seminorm(path, beta1) <= hoelder_seminorm(path, beta2) + 1e-12


def reference_hoelder(path, beta):
    """hoelder_seminorm as one numpy round per lag."""
    times, values = path.times, path.values
    best = 0.0
    for lag in range(1, path.n_samples):
        dx = np.linalg.norm(values[lag:] - values[:-lag], axis=1)
        ratio = np.max(dx / (times[lag:] - times[:-lag]) ** beta)
        if ratio > best:
            best = float(ratio)
    return best


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(2, 70), d=st.integers(1, 3),
       beta=st.floats(0.05, 1.0), block=st.sampled_from((1, 2, 3, 7, 64, 2**16)))
def test_hoelder_seminorm_matches_lag_loop(seed, m, d, beta, block):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 2.0, m))
    path = SampledPath(times, rng.standard_normal((m, d)))
    with mock.patch.object(rough_path, "SEMINORM_BAND", block):
        got = hoelder_seminorm(path, beta)
    expected = reference_hoelder(path, beta)
    if d <= 2:
        assert got == expected
    else:
        # three or more squared components are summed in another order
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def seminorm_peak_bytes(m):
    rng = np.random.default_rng(4)
    path = SampledPath(np.linspace(0.0, 1.0, m), rng.standard_normal((m, 2)))
    tracemalloc.start()
    try:
        hoelder_seminorm(path, 0.3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hoelder_seminorm_memory_is_bounded_in_the_sample_count():
    # bands of 2^13 pairs take about 0.5 MB; the 8.4M pairs at once would
    # take 67 MB per array
    assert seminorm_peak_bytes(4097) < 2e6


def test_hoelder_seminorm_memory_is_bounded_at_16385_samples():
    # 134M pairs, 525k block pairs: both are taken 2^13 at a time
    assert seminorm_peak_bytes(16385) < 2e6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31),
       m=st.one_of(st.integers(2, 70), st.integers(70, 1100)), d=st.integers(1, 3),
       beta=st.floats(0.05, 1.0), exponent=st.integers(-150, 150),
       walk=st.booleans())
def test_hoelder_seminorm_is_the_band_loop_bitwise(seed, m, d, beta, exponent,
                                                   walk):
    # non-uniform times; a walk puts the maximum at long lags, where most
    # block pairs are candidates, and noise at short ones, where most are
    # pruned
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 2.0, m))
    steps = rng.standard_normal((m, d))
    values = (np.cumsum(steps, axis=0) if walk else steps) * 10.0**exponent
    path = SampledPath(times, values)
    assert hoelder_seminorm(path, beta) == hoelder_band_loop(path, beta)


def staircase(m, d):
    """A falling staircase of rising teeth, one tooth per block, each
    component with its own sign, on [0, 3]: the pair of a block's last
    sample and a far block's first attains that block pair's bound, and the
    pair of sample ``SEMINORM_BLOCK - 1`` and ``staircase_top(m)`` the
    maximum."""
    block = rough_path.SEMINORM_BLOCK
    k = np.arange(m)
    teeth = -(k // block) + 0.5 * (k % block) / (block - 1)
    return SampledPath(np.linspace(0.0, 3.0, m),
                       np.outer(teeth, (-1.0) ** np.arange(d)))


def staircase_top(m):
    """The first sample of the staircase's last block."""
    return (m - 1) // rough_path.SEMINORM_BLOCK * rough_path.SEMINORM_BLOCK


@pytest.mark.parametrize("m", [300, 1025])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hoelder_seminorm_bounds_cover_the_maximum(m, d):
    # a pruning limit held just under the maximum from the start prunes
    # every block pair but the ones whose bound covers it: the staircase's
    # bounds are tight, so a bound any lower loses the maximum
    path = staircase(m, d)
    top = hoelder_band_loop(path, 0.4)
    with mock.patch.object(rough_path, "_prune_limit",
                           lambda best: max(best, top) * (1.0 - 1e-9)):
        assert hoelder_seminorm(path, 0.4) == top


def fixed_seminorm_paths(m, d):
    """(name, path, pair that attains the maximum or None) for paths whose
    maximum sits where pruning could miss it."""
    rng = np.random.default_rng(m + d)
    times = np.linspace(0.0, 3.0, m)
    noise = 1e-3 * rng.standard_normal((m, d))
    line = np.outer(times, np.arange(1, d + 1))
    spike = noise.copy()
    spike[m // 2] += 5.0
    step = noise.copy()
    step[37:] += 4.0  # samples 36 and 37 share the block of samples 32-47
    return [
        ("tight bounds", staircase(m, d),
         (rough_path.SEMINORM_BLOCK - 1, staircase_top(m))),
        ("constant", SampledPath(times, np.full((m, d), 3.3)), None),
        ("spike", SampledPath(times, spike), None),
        ("linear", SampledPath(times, line), (0, m - 1)),
        ("largest lag", SampledPath(times, 10.0 * line + noise), (0, m - 1)),
        ("inside one block", SampledPath(times, step), (36, 37)),
    ]


@pytest.mark.parametrize("m", [300, 1025])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hoelder_seminorm_fixed_paths_are_the_band_loop_bitwise(m, d):
    beta = 0.4
    for name, path, pair in fixed_seminorm_paths(m, d):
        got = hoelder_seminorm(path, beta)
        assert got == hoelder_band_loop(path, beta), name
        if pair is not None:
            s, t = pair
            at_pair = hoelder_band_loop(
                SampledPath(path.times[[s, t]], path.values[[s, t]]), beta)
            assert got == at_pair, name
        if name == "constant":
            assert got == 0.0


def test_hoelder_seminorm_prunes_far_block_pairs():
    # white noise peaks at lag 1, so every block pair two or more blocks
    # apart is pruned: only the lags below two blocks are evaluated
    rng = np.random.default_rng(6)
    m = 4097
    path = SampledPath(np.linspace(0.0, 1.0, m), rng.standard_normal((m, 2)))
    evaluated = []

    def counting(t_late, t_early, *rest):
        evaluated.append(np.broadcast(t_late, t_early).size)
        return max_ratio(t_late, t_early, *rest)

    max_ratio = rough_path._max_ratio
    with mock.patch.object(rough_path, "_max_ratio", counting):
        got = hoelder_seminorm(path, 0.3)
    assert got == hoelder_band_loop(path, 0.3)
    assert sum(evaluated) <= 2 * rough_path.SEMINORM_BLOCK * m


def test_numpy_power_is_one_function_on_every_layout():
    # hoelder_seminorm and its band-loop reference raise differently placed
    # and shaped time gaps to beta; their bits agree only because np.power
    # gives each entry the same result wherever it sits in an array
    rng = np.random.default_rng(0)
    gaps = rng.uniform(1e-6, 3e3, 4099)
    for beta in (0.05, 0.3, 0.45, 0.5, 0.99, 1.0):
        whole = np.power(gaps, beta)
        for part in (slice(1, None), slice(3, -5), slice(None, None, 3),
                     slice(2, None, 7)):
            assert np.array_equal(np.power(gaps[part], beta), whole[part])
        square = whole[:4096].reshape(64, 64)
        assert np.array_equal(np.power(gaps[:4096].reshape(64, 64).T, beta),
                              square.T)
        for k in range(0, 4099, 97):
            assert np.power(gaps[k], beta) == whole[k]
            assert np.power(np.float64(gaps[k]), beta) == whole[k]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hoelder_seminorm_of_a_huge_path_is_the_scaled_band_loop():
    # squared differences of values near 1e155 overflow: the path is scaled
    # by 2^-k before squaring and its seminorm by 2^k after, bitwise
    times = np.linspace(0.0, 1.0, 100)
    noise = np.random.default_rng(3).standard_normal((100, 2))
    path = SampledPath(times, noise * 1e155)
    shift = math.frexp(float(np.max(np.abs(path.values))))[1]
    scaled = SampledPath(times, np.ldexp(path.values, -shift))
    got = hoelder_seminorm(path, 0.3)
    assert got == np.ldexp(hoelder_band_loop(scaled, 0.3), shift)
    assert got == pytest.approx(
        1e5 * hoelder_seminorm(SampledPath(times, noise * 1e150), 0.3),
        rel=1e-12)


def test_hoelder_seminorm_validation():
    path = l_shaped_path()
    with pytest.raises(ValueError):
        hoelder_seminorm(path, 0.0)
    with pytest.raises(ValueError):
        hoelder_seminorm(path, 1.5)
    with pytest.raises(ValueError):
        hoelder_seminorm(SampledPath([0.0], [[1.0, 2.0]]), 0.5)


# ---------------------------------------------------------------- smooth preset, scalar driver

def test_smooth_path_derivative_bounded():
    p = smooth_path(d=2, segments=4096)
    slopes = np.diff(p.values, axis=0) / np.diff(p.times)[:, None]
    assert np.max(np.abs(slopes)) <= 1.0 + 1e-6


def test_scalar_driver_area_is_half_square():
    drv = scalar_driver(lambda t: 0.1 * t)
    assert drv.increment(0.0, 1.0)[0] == pytest.approx(0.1)
    assert drv.area(0.0, 1.0)[0, 0] == pytest.approx(0.005)
    assert chen_defect(drv, 0.0, 0.3, 1.0) <= 1e-15


def test_driver_alpha_label_validated():
    with pytest.raises(ValueError):
        lift_piecewise_linear(l_shaped_path(), alpha=0.2)
    with pytest.raises(ValueError):
        lift_piecewise_linear(l_shaped_path(), alpha=0.7)


# ---------------------------------------------------------------- csv

def test_sampled_path_csv_round_trip():
    rng = np.random.default_rng(8)
    path = random_path(rng, 6, 3)
    buf = io.StringIO()
    path.to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1,x2,x3"
    back = SampledPath.from_csv(io.StringIO(text))
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)


def test_sampled_path_csv_rejects_garbage():
    with pytest.raises(ValueError):
        SampledPath.from_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ValueError):
        SampledPath.from_csv(io.StringIO(""))
    # rows wider or narrower than the header, all of them or one (a ragged
    # file); lines are counted in the file, blank ones included
    for text, line, width, header in (
            ("t,x1\n0,1,2\n1,2,3\n", 2, 3, 2),
            ("t,x1,x2\n0,1\n1,2\n", 2, 2, 3),
            ("t,x1,x2\n0,1,2\n\n0.5,1\n1,2,3\n", 4, 2, 3),
            ("t,x1,x2\n0,1,2\n0.5,1,2,3\n", 3, 4, 3)):
        with pytest.raises(ValueError, match=(
                f"^malformed path rows: line {line} has {width} fields, "
                f"the header has {header}$")):
            SampledPath.from_csv(io.StringIO(text))
    with pytest.raises(ValueError,
                       match="^malformed path rows: none under the header$"):
        SampledPath.from_csv(io.StringIO("t,x1,x2\n"))


def test_sampled_path_validation():
    for times, values in ((np.zeros((2, 1)), np.zeros((2, 1))),
                          (np.zeros(2), np.zeros((2, 1, 1)))):
        with pytest.raises(ValueError,
                           match="^times must be 1-d and values 2-d$"):
            SampledPath(times, values)
    with pytest.raises(ValueError):
        SampledPath([0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        SampledPath([0.0, 1.0], [[1.0]])
    with pytest.raises(ValueError):
        SampledPath([0.0, 1.0], [[np.nan], [1.0]])
    with pytest.raises(ValueError,
                       match="^values must have at least one component$"):
        SampledPath([0.0, 1.0], np.zeros((2, 0)))


def test_path_builders_and_drivers_reject_bad_dimensions():
    with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
        synth_midpoint_path(0, 0.45, 4, 0)
    for d, segments in ((0, 8), (2, 0)):
        with pytest.raises(ValueError,
                           match="^d and segments must be positive$"):
            smooth_path(d=d, segments=segments)
    for dim in (0, 1.5):
        with pytest.raises(ValueError, match="^dimension must be a positive "
                                             f"integer, got {dim}$"):
            rough_path.RoughDriver(dim, 0.5, lambda s, t: 0, lambda s, t: 0)


def test_driver_needs_an_increment_and_an_area_evaluator():
    with pytest.raises(ValueError, match="increment and an area"):
        rough_path.RoughDriver(2, 0.5, area_fn=lambda s, t: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="increment and an area"):
        rough_path.RoughDriver(2, 0.5, increment_many_fn=lambda ss, tt: ss)
    drv = rough_path.RoughDriver(1, 0.5, lambda s, t: 0, lambda s, t: 0)
    with pytest.raises(ValueError, match="^driver has no base-point evaluator$"):
        drv.value(0.5)
