import io
import tracemalloc
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
    rng = np.random.default_rng(3)
    drv = lift_piecewise_linear(random_path(rng, 17, 3))
    qs = np.sort(rng.uniform(0, 1, (50, 2)), axis=1)
    areas = drv.area_many(qs[:, 0], qs[:, 1])
    incs = drv.increment_many(qs[:, 0], qs[:, 1])
    for k, (s, t) in enumerate(qs):
        assert np.array_equal(areas[k], drv.area(s, t))
        assert np.array_equal(incs[k], drv.increment(s, t))


def test_chen_defect_many_matches_scalar():
    rng = np.random.default_rng(4)
    lifted = lift_piecewise_linear(random_path(rng, 9, 2))
    tri = np.sort(rng.uniform(0, 1, (40, 3)), axis=1)
    # the last two have no batch hooks: their batch queries fall back to
    # scalar ones, and the scaled area makes the defects nonzero
    drivers = (lifted,
               scalar_driver(lambda t: np.sin(3.0 * t) + t * t),
               with_area(lifted, lambda s, t: 2.0 * lifted.area(s, t)))
    for drv in drivers:
        batch = chen_defect_many(drv, tri[:, 0], tri[:, 1], tri[:, 2])
        scalar = np.array([chen_defect(drv, *row) for row in tri])
        assert np.array_equal(batch, scalar)
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
    if np.any(ts < lo - tol) or np.any(ts > hi + tol):
        raise ValueError(f"query times outside path span [{lo}, {hi}]")
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


def test_hoelder_seminorm_memory_is_bounded_in_the_sample_count():
    rng = np.random.default_rng(4)
    path = SampledPath(np.linspace(0.0, 1.0, 4097), rng.standard_normal((4097, 2)))
    tracemalloc.start()
    try:
        hoelder_seminorm(path, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # bands of 2^13 pairs take about 0.5 MB; the 8.4M pairs at once would
    # take 67 MB per array
    assert peak < 2e6


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


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath([0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        SampledPath([0.0, 1.0], [[1.0]])
    with pytest.raises(ValueError):
        SampledPath([0.0, 1.0], [[np.nan], [1.0]])
