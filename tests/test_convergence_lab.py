import dataclasses
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rdesplit import (EXACT_AGREEMENT, Grid, NumericFailure, Problem,
                      RateReport, RoughDriver, SecondOrderMap, canonical_z,
                      check_z_bound, check_z_cocycle, check_z_lipschitz,
                      common_indices, constant_field, convention_defect_max,
                      davie_defect, dyadic_sup_rate, fit_rate, holder_rate,
                      lift_piecewise_linear, rates_summary, rational_rate,
                      sine_field, smooth_path, solve_split,
                      synth_midpoint_path, transposed_z, zero_z)
from rdesplit import model
from rdesplit.convergence_lab import _row_form_maxima, _sup_rows, quarter_times

from builders import (DRIVER_KINDS, FIELD_KINDS, Z_KINDS, build_driver,
                      build_field, build_z, steep_field)
from references import davie_row_form_loop

Y0 = np.array([0.1, -0.2])


def smooth_problem(segments=2**12):
    path = smooth_path(d=2, segments=segments)
    driver = lift_piecewise_linear(path, alpha=0.5)
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    return Problem(driver=driver, field=field, z=canonical_z(field, driver),
                   y0=Y0, T=1.0, path=path)


def synthetic_problem(seed=17, levels=12):
    path = synth_midpoint_path(seed, 0.45, levels, 2)
    driver = lift_piecewise_linear(path, alpha=0.45)
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    return Problem(driver=driver, field=field, z=canonical_z(field, driver),
                   y0=Y0, T=1.0, path=path)


def zero_problem():
    path = smooth_path(d=2, segments=64)
    driver = lift_piecewise_linear(path, alpha=0.5)
    field = constant_field(np.zeros((2, 2)))
    return Problem(driver=driver, field=field, z=zero_z(2), y0=Y0, T=1.0,
                   path=path)


# ---------------------------------------------------------------- fit_rate

def test_fit_rate_exact_halving():
    assert fit_rate([16, 32, 64], [0.1, 0.05, 0.025]) == pytest.approx(1.0)


def test_fit_rate_all_zero_sentinel():
    assert fit_rate([16, 32, 64], [0.0, 0.0, 0.0]) == EXACT_AGREEMENT
    assert math.isinf(EXACT_AGREEMENT)


def test_fit_rate_least_squares_value():
    # closed form for three equally spaced points: (y0 - y2) / 2
    expected = (math.log2(0.1) - math.log2(0.026)) / 2.0
    assert fit_rate([1, 2, 3], [0.1, 0.05, 0.026]) == pytest.approx(expected)
    assert expected == pytest.approx(0.97, abs=0.01)


def test_fit_rate_scale_invariant():
    diffs = [0.3, 0.17, 0.08, 0.05]
    a = fit_rate(range(4), diffs)
    b = fit_rate(range(4), [7.7 * d for d in diffs])
    assert a == pytest.approx(b, rel=1e-12)


def test_fit_rate_mixed_zero_rejected():
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [0.1, 0.0, 0.05])


def test_fit_rate_needs_two_points():
    with pytest.raises(ValueError):
        fit_rate([1], [0.1])
    with pytest.raises(ValueError):
        fit_rate([1, 2], [0.1])  # length mismatch


# ---------------------------------------------------------------- sup norm

rows = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e3),
                       st.floats(-1e3, -1e-100)), min_size=n, max_size=n),
    min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(delta=rows, shift=st.integers(-600, 499))
def test_sup_rows_below_two_to_the_500_keeps_the_row_norm_bits(delta, shift):
    delta = np.ldexp(np.array(delta), shift)
    assume(np.abs(delta).max() < 2.0**500)
    assert (_sup_rows(delta)
            == float(np.max(np.linalg.norm(delta, axis=1))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(delta=rows, shift=st.integers(500, 1000))
def test_sup_rows_of_a_huge_finite_difference_is_the_scaled_norm(delta,
                                                                 shift):
    # the row norm squares the entries and overflows from about 1.3e154;
    # scaled by a power of two, the norm is that of the unscaled rows
    delta = np.array(delta)
    assume(np.abs(delta).max() >= 1.0)
    assert (_sup_rows(np.ldexp(delta, shift))
            == float(np.ldexp(_sup_rows(delta), shift)))


# ---------------------------------------------------------------- dyadic

def test_dyadic_zero_field_exact_agreement():
    [report] = dyadic_sup_rate([zero_problem()], 4, 3)
    assert all(d == 0.0 for d in report.diffs)
    assert report.slope == EXACT_AGREEMENT


def test_dyadic_smooth_slope_and_target():
    [report] = dyadic_sup_rate([smooth_problem()], 16, 3)
    assert report.target == pytest.approx(0.5)
    assert report.slope >= 0.35
    assert report.norm_kind == "sup"


def test_dyadic_validation():
    with pytest.raises(ValueError, match="^need at least 3 levels, got 2$"):
        dyadic_sup_rate([smooth_problem()], 16, 2)
    with pytest.raises(ValueError, match="^base_N must be >= 4, got 2$"):
        dyadic_sup_rate([smooth_problem()], 2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dyadic_propagates_numeric_failure_with_level():
    from rdesplit import VectorField

    field = VectorField(
        1, 1,
        lambda x: np.array([[x[0] ** 3]]),
        lambda x: np.array([[[3.0 * x[0] ** 2]]]),
        gamma=3.0, name="cubic",
    )
    path = smooth_path(d=1, segments=256)
    driver = lift_piecewise_linear(path, alpha=0.5)
    problem = Problem(driver=driver, field=field, z=zero_z(1),
                      y0=np.array([40.0]), T=1.0, path=path)
    with pytest.raises(NumericFailure) as err:
        dyadic_sup_rate([problem], 4, 3)
    assert "N=" in str(err.value)


def _cubic_problem(driver):
    from rdesplit import VectorField

    field = VectorField(
        1, 1,
        lambda x: np.array([[x[0] ** 3]]),
        lambda x: np.array([[[3.0 * x[0] ** 2]]]),
        gamma=3.0, name="cubic",
    )
    return Problem(driver=driver, field=field, z=zero_z(1),
                   y0=np.array([1.0]), T=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("experiment,K,Ns", [
    pytest.param(lambda ps: dyadic_sup_rate(ps, 8, 3), 8, [8, 16, 32, 64],
                 id="dyadic"),
    # coarse levels 8 and 16, fine levels 12 and 24
    pytest.param(lambda ps: rational_rate(ps, 3, 2, 8, 2), 6,
                 [8, 16, 12, 24], id="rational"),
])
def test_rate_failure_names_the_earliest_failing_level(experiment, K, Ns):
    # an oscillation of frequency K that the N = 8 grid does not see: a
    # finer level blows up at an earlier step than the first level does
    from rdesplit import scalar_driver

    rough = _cubic_problem(scalar_driver(
        lambda t: 8.0 * t + 5.0 * (1.0 - np.cos(2.0 * K * np.pi * t))))
    steps = []
    for N in Ns:
        with pytest.raises(NumericFailure) as err:
            solve_split(rough.driver, rough.field, rough.z, rough.y0,
                        Grid(1.0, N))
        steps.append(err.value.step)
    step, N = min(zip(steps, Ns))
    assert steps.count(step) == 1 and N != Ns[0]
    mild = _cubic_problem(scalar_driver(lambda t: 0.01 * t))
    with pytest.raises(NumericFailure) as err:
        experiment([mild, rough])
    assert str(err.value) == (f"solve at N={N} failed: state left finite "
                              f"range at step {step}")
    assert (err.value.step, err.value.member) == (step, 1)


def test_dyadic_telescoping_triangle_inequality():
    # sup|Y^h - Y^{h/4}| <= sup|Y^h - Y^{h/2}| + sup|Y^{h/2} - Y^{h/4}|
    # at the shared evaluation times (coarse grid points)
    prob = smooth_problem()
    trajs = [solve_split(prob.driver, prob.field, prob.z, prob.y0, Grid(1.0, N))
             for N in (16, 32, 64)]
    u16, u32, u64 = trajs[0].u, trajs[1].u, trajs[2].u
    d_02 = np.max(np.linalg.norm(u16 - u64[::4], axis=1))
    d_01 = np.max(np.linalg.norm(u16 - u32[::2], axis=1))
    d_12 = np.max(np.linalg.norm(u32 - u64[::2], axis=1))
    assert d_02 <= d_01 + d_12 + 1e-15


def test_rate_report_csv():
    import io

    [report] = dyadic_sup_rate([smooth_problem()], 16, 3)
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "level,N,h,diff,log2_diff"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[1] == "16"
    assert float(cells[3]) == report.diffs[0]
    summary = rates_summary([report], [0])
    assert set(summary) == {"target", "slope", "slopes", "norm_kind", "seeds",
                            "exact_agreement"}
    assert summary["exact_agreement"] is False
    assert summary["slopes"] == [report.slope] == [summary["slope"]]


def test_rates_summary_agrees_exactly_only_when_every_seed_does():
    def summary(*slopes):
        reports = [RateReport(levels=[16, 32], hs=[1 / 16, 1 / 32],
                              diffs=[0.1, 0.05], slope=slope, target=0.35,
                              norm_kind="sup") for slope in slopes]
        return rates_summary(reports, list(range(len(slopes))))

    # one exact seed of two: the median of all slopes would be inf
    mixed = summary(EXACT_AGREEMENT, 1.0)
    assert mixed["slope"] == 1.0 and mixed["slopes"] == [None, 1.0]
    assert mixed["exact_agreement"] is False
    assert summary(0.25, EXACT_AGREEMENT, 0.75)["slope"] == 0.5
    assert summary(0.4, 0.2, 0.3)["slope"] == 0.3
    exact = summary(EXACT_AGREEMENT, EXACT_AGREEMENT)
    assert exact["slope"] is None and exact["exact_agreement"] is True
    assert exact["slopes"] == [None, None]
    assert exact["seeds"] == [0, 1] and exact["target"] == 0.35
    json.dumps(mixed, allow_nan=False)


# ---------------------------------------------------------------- holder

def test_holder_zero_field():
    [report] = holder_rate([zero_problem()], 0.2, 4, 2)
    assert all(d == 0.0 for d in report.diffs)
    assert report.slope == EXACT_AGREEMENT


def test_holder_beta_must_be_below_alpha():
    with pytest.raises(ValueError):
        holder_rate([smooth_problem()], 0.6, 16, 3)
    with pytest.raises(ValueError):
        holder_rate([smooth_problem()], 0.0, 16, 3)


def test_holder_target_is_min_of_exponents():
    prob = synthetic_problem()
    [report] = holder_rate([prob], 0.2, 8, 2)
    assert report.target == pytest.approx(min(0.45 - 0.2, 3 * 0.45 - 1.0))
    assert report.norm_kind == "holder(0.2)"
    assert all(d > 0 for d in report.diffs)


def test_quarter_times_structure():
    grid = Grid(1.0, 4)
    times = quarter_times(grid)
    assert len(times) == 17
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.allclose(np.diff(times), 1 / 16)
    for j in range(5):
        assert times[4 * j] == grid.points[j]


# ---------------------------------------------------------------- rational

def test_common_indices_three_halves():
    coarse, fine = common_indices(6, 3, 2)
    assert coarse == [0, 2, 4, 6]
    assert fine == [0, 3, 6, 9]


def test_rational_rejects_q_equal_two():
    with pytest.raises(ValueError):
        rational_rate([smooth_problem()], 2, 1, 16, 3)


def test_rational_rejects_non_lowest_terms_and_range():
    prob = smooth_problem()
    with pytest.raises(ValueError):
        rational_rate([prob], 6, 4, 16, 3)
    with pytest.raises(ValueError):
        rational_rate([prob], 5, 2, 16, 3)
    with pytest.raises(ValueError):
        rational_rate([prob], 3, 2, 15, 3)  # base_N not divisible by q_den


def test_rational_zero_field():
    [report] = rational_rate([zero_problem()], 3, 2, 4, 2)
    assert all(d == 0.0 for d in report.diffs)


def test_rational_slope_close_to_dyadic_on_smooth():
    prob = smooth_problem()
    [dyadic] = dyadic_sup_rate([prob], 16, 4)
    [rational] = rational_rate([prob], 3, 2, 16, 4)
    assert abs(rational.slope - dyadic.slope) <= 0.2
    assert rational.target == dyadic.target
    assert (dyadic.meta, rational.meta) == ({}, {"q": "3/2"})


def test_rate_size_and_ratio_checks_name_the_fault():
    ps = [smooth_problem()]
    ratio_parts = "ratio parts must be positive integers"
    cases = [
        (holder_rate, (ps, 0.2, 16, 1), "need at least 2 levels, got 1"),
        (holder_rate, (ps, 0.2, 2, 3), "base_N must be >= 4, got 2"),
        (rational_rate, (ps, 3, 2, 16, 1), "need at least 2 levels, got 1"),
        (rational_rate, (ps, 3, 2, 2, 3), "base_N must be >= 4, got 2"),
        (rational_rate, (ps, 0, 1, 16, 3), ratio_parts),
        (rational_rate, (ps, 3, 0, 16, 3), ratio_parts),
        (rational_rate, (ps, -3, -2, 16, 3), ratio_parts),
        (fit_rate, ([1, 2], [0.1, -0.1]), "differences must be nonnegative"),
        # NaN passes the sign check and an infinite difference fits as NaN
        (fit_rate, ([0, 1, 2], [1.0, math.nan, 0.5]),
         "differences must be finite, got nan"),
        (fit_rate, ([0, 1, 2], [1.0, math.inf, 0.5]),
         "differences must be finite, got inf"),
        (common_indices, (7, 3, 2), "coarse step count 7 not divisible by 2"),
        (common_indices, (6, 3, 0), ratio_parts),
        (common_indices, (6, -3, 2), ratio_parts),
    ]
    for fn, args, message in cases:
        with pytest.raises(ValueError) as err:
            fn(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("experiment", [
    pytest.param(lambda ps: dyadic_sup_rate(ps, 4, 3), id="dyadic"),
    pytest.param(lambda ps: holder_rate(ps, 0.2, 4, 2), id="holder"),
    pytest.param(lambda ps: rational_rate(ps, 3, 2, 4, 2), id="rational"),
])
def test_rate_experiments_need_problems_of_one_T(experiment):
    with pytest.raises(ValueError, match="^need at least one problem$"):
        experiment([])
    prob = zero_problem()
    with pytest.raises(ValueError,
                       match="^problems of one rate experiment must share T$"):
        experiment([prob, dataclasses.replace(prob, T=0.5)])


# ---------------------------------------------------------------- davie

def test_davie_zero_problem():
    prob = zero_problem()
    traj = solve_split(prob.driver, prob.field, prob.z, prob.y0, Grid(1.0, 16))
    report = davie_defect(traj, prob.z)
    assert report.max_ratio == 0.0
    assert report.pairs == 16 * 17 // 2
    assert report.k < report.m  # diagonal excluded


def test_davie_adjacent_pairs_identity():
    # J_{k,k+1} telescopes to Z(v_{k+1}) - Z(u_k) over the step interval
    prob = smooth_problem(segments=512)
    grid = Grid(1.0, 32)
    traj = solve_split(prob.driver, prob.field, prob.z, prob.y0, grid)
    pts = grid.points
    for k in range(grid.N):
        s, t = pts[k], pts[k + 1]
        j_direct = (traj.u[k + 1] - traj.u[k]
                    - prob.field(traj.u[k]) @ prob.driver.increment(s, t)
                    - prob.z(traj.u[k], s, t))
        identity = prob.z(traj.v[k], s, t) - prob.z(traj.u[k], s, t)
        assert np.max(np.abs(j_direct - identity)) <= 1e-12


def test_davie_max_reproducible_from_trajectory():
    prob = synthetic_problem()
    grid = Grid(1.0, 64)
    traj = solve_split(prob.driver, prob.field, prob.z, prob.y0, grid)
    report = davie_defect(traj, prob.z)
    pts = grid.points
    k, m = report.k, report.m
    residual = (traj.u[m] - traj.u[k]
                - prob.field(traj.u[k]) @ prob.driver.increment(pts[k], pts[m])
                - prob.z(traj.u[k], pts[k], pts[m]))
    ratio = np.linalg.norm(residual) / (pts[m] - pts[k]) ** report.exponent
    assert ratio == pytest.approx(report.max_ratio, rel=1e-12)


def test_davie_exponent_caps_gamma_at_three():
    prob = smooth_problem(segments=256)
    field = sine_field(2, 2, seed=1, amplitude=0.8, gamma=5.0)
    z = canonical_z(field, prob.driver)
    traj = solve_split(prob.driver, field, z, prob.y0, Grid(1.0, 8))
    report = davie_defect(traj, z)
    assert report.exponent == pytest.approx(1.5)


@pytest.mark.parametrize("d", [1, 2])
def test_davie_sweeps_every_pair_above_4096_steps(d):
    # a strided sweep never visits the one-step pairs where the worst
    # defect sits; d = n = 2 is the acceptance setup
    path = synth_midpoint_path(3, 0.45, 12, d)
    driver = lift_piecewise_linear(path, alpha=0.45)
    field = sine_field(d, d, seed=1, amplitude=0.8)
    z = canonical_z(field, driver)
    grid = Grid(1.0, 4097)
    traj = solve_split(driver, field, z, Y0[:d], grid)
    report = davie_defect(traj, z)
    assert report.pairs == 4097 * 4098 // 2
    k, m = report.k, report.m
    assert m == k + 1
    pts = grid.points
    residual = (traj.u[m] - traj.u[k]
                - field(traj.u[k]) @ driver.increment(pts[k], pts[m])
                - z(traj.u[k], pts[k], pts[m]))
    ratio = np.linalg.norm(residual) / (pts[m] - pts[k]) ** report.exponent
    assert ratio == pytest.approx(report.max_ratio, rel=1e-12)


def test_davie_uniform_in_h_on_smooth():
    prob = smooth_problem()
    ratios = []
    for N in (32, 64, 128):
        traj = solve_split(prob.driver, prob.field, prob.z, prob.y0,
                           Grid(1.0, N))
        ratios.append(davie_defect(traj, prob.z).max_ratio)
    assert max(ratios) / min(ratios) <= 2.0


def reference_davie(traj, field, z, driver, exponent):
    """davie_defect as a per-pair loop: (max, k, m, pairs)."""
    pts = traj.grid.points
    u = traj.u
    base = [driver.increment(pts[0], t) for t in pts]
    best, best_k, best_m, pairs = -1.0, 0, 0, 0
    for k in range(traj.grid.N):
        f_k = field(u[k])
        for m in range(k + 1, traj.grid.N + 1):
            residual = (u[m] - u[k] - f_k @ (base[m] - base[k])
                        - z(u[k], pts[k], pts[m]))
            ratio = (float(np.linalg.norm(residual))
                     / (pts[m] - pts[k]) ** exponent)
            pairs += 1
            if ratio > best:
                best, best_k, best_m = ratio, k, m
    return best, best_k, best_m, pairs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), N=st.integers(1, 40),
       driver_kind=st.sampled_from(DRIVER_KINDS),
       field_kind=st.sampled_from(FIELD_KINDS),
       z_kind=st.sampled_from(Z_KINDS))
def test_davie_matches_per_pair_reference_loop(seed, N, driver_kind,
                                               field_kind, z_kind):
    driver = build_driver(driver_kind, seed)
    field = build_field(field_kind, seed, driver.dim)
    z = build_z(z_kind, field, driver)
    # a NaN map cannot be solved with; its residuals are still measured
    solve_z = zero_z(2) if z_kind == "nan-probe" else z
    try:
        traj = solve_split(driver, field, solve_z, Y0, Grid(1.0, N))
    except NumericFailure:
        assume(False)
    exponent = 3.0 * driver.alpha
    report = davie_defect(traj, z)
    best, k, m, pairs = reference_davie(traj, field, z, driver, exponent)
    assert report.max_ratio == pytest.approx(best, rel=1e-12, abs=0.0)
    assert (report.k, report.m, report.pairs) == (k, m, pairs)


def steep_case(seed, N, n, d, kind, slope, transpose):
    """A lift, a steep field, its own area-linear map and their trajectory."""
    path = (synth_midpoint_path(seed, 0.45, 8, d) if seed % 2
            else smooth_path(d=d, segments=256))
    driver = lift_piecewise_linear(path, alpha=0.45)
    field = steep_field(kind, seed, n, d, slope)
    z = (transposed_z if transpose else canonical_z)(field, driver)
    y0 = np.random.default_rng(seed).uniform(-0.1, 0.1, n)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            traj = solve_split(driver, field, z, y0, Grid(1.0, N))
    except NumericFailure:
        assume(False)
    return driver, field, z, traj


STEEP = dict(seed=st.integers(0, 2**16), N=st.integers(1, 30),
             n=st.integers(2, 3), d=st.integers(1, 2),
             kind=st.sampled_from(["linear", "sine", "cancelling"]),
             decades=st.integers(1, 6), transpose=st.booleans())


def steep_slope(kind, decades):
    # a steep linear field grows like exp(slope X): its slope stays small
    return 10.0 ** (min(decades, 2) if kind == "linear" else decades)


@settings(max_examples=40, deadline=None)
@given(**STEEP)
def test_davie_matches_per_pair_reference_loop_on_steep_fields(
        seed, N, n, d, kind, decades, transpose):
    driver, field, z, traj = steep_case(seed, N, n, d, kind,
                                        steep_slope(kind, decades), transpose)
    with np.errstate(over="ignore", invalid="ignore"):
        report = davie_defect(traj, z)
        best, k, m, pairs = reference_davie(traj, field, z, driver,
                                            3.0 * driver.alpha)
    assert report.max_ratio == pytest.approx(best, rel=1e-12, abs=0.0)
    assert (report.k, report.m, report.pairs) == (k, m, pairs)


@settings(max_examples=40, deadline=None)
@given(**STEEP)
# a bound built from |K| after the sum over m falls 17 times short here
@example(seed=26333, N=17, n=2, d=1, kind="cancelling", decades=6,
         transpose=True)
# three rows' squared ratios overflow, their exact ratios do not
@example(seed=875, N=30, n=2, d=2, kind="linear", decades=6, transpose=True)
def test_davie_row_form_bound_covers_every_rows_gap(seed, N, n, d, kind,
                                                    decades, transpose):
    # a row is screened out by its bound, so the bound must hold on every
    # row, not only on the witness
    driver, field, z, traj = steep_case(seed, N, n, d, kind,
                                        steep_slope(kind, decades), transpose)
    pts = traj.grid.points
    u = traj.u
    exponent = 3.0 * driver.alpha
    starts = np.zeros(N + 1)
    f, grad = field.value_and_gradient_many(u[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        maxima, bound = _row_form_maxima(
            u, driver.increment_many(starts, pts),
            driver.area_many(starts, pts), f, grad, z, pts, exponent)
    # the exact rows as reference_davie forms them
    base = [driver.increment(pts[0], t) for t in pts]
    for k in range(N):
        f_k = field(u[k])
        with np.errstate(over="ignore", invalid="ignore"):
            exact = max(float(np.linalg.norm(u[m] - u[k]
                                             - f_k @ (base[m] - base[k])
                                             - z(u[k], pts[k], pts[m])))
                        / (pts[m] - pts[k]) ** exponent
                        for m in range(k + 1, N + 1))
        if np.isfinite(exact):
            assert abs(maxima[k] - exact) <= bound[k]


def row_form_inputs(driver, field, z, traj):
    """The arguments of ``_row_form_maxima`` as ``davie_defect`` forms them."""
    pts, u = traj.grid.points, traj.u
    starts = np.zeros(len(pts))
    f, grad = field.value_and_gradient_many(u[:-1])
    return (u, driver.increment_many(starts, pts),
            driver.area_many(starts, pts), f, grad, z, pts,
            3.0 * driver.alpha)


def exact_row_maxima(driver, field, z, traj, exponent):
    """Each row's largest exact ratio, formed as ``davie_defect``'s exact
    rows form it (bitwise a per-pair loop), one Z row per k."""
    pts, u, N = traj.grid.points, traj.u, traj.grid.N
    base = driver.increment_many(np.zeros(N + 1), pts)
    out = np.empty(N)
    for k in range(N):
        t_m = pts[k + 1:]
        z_row = z.on_grid(np.full(N - k, pts[k]), t_m).every(u[k])
        residual = (u[k + 1:] - u[k]
                    - model._matvec(field(u[k]), base[k + 1:] - base[k])
                    - z_row)
        out[k] = np.max(model._row_norms(residual)
                        / model._powers(t_m - pts[k], exponent))
    return out


@settings(max_examples=40, deadline=None)
@given(**{**STEEP, "N": st.integers(1, 150)})
# every row's squares overflow
@example(seed=9, N=64, n=3, d=2, kind="linear", decades=2, transpose=False)
# three rows' squared ratios overflow, their exact ratios do not: the
# screen scores them again as norms over powers
@example(seed=875, N=30, n=2, d=2, kind="linear", decades=6, transpose=True)
def test_blocked_davie_screen_keeps_the_report_and_the_bound_at_every_block(
        seed, N, n, d, kind, decades, transpose):
    # the screen takes rows in blocks of PAIR_BLOCK // (N + 1): one row, 7
    # rows (the last block ragged unless 7 divides N) and all N rows
    driver, field, z, traj = steep_case(seed, N, n, d, kind,
                                        steep_slope(kind, decades), transpose)
    args = row_form_inputs(driver, field, z, traj)
    with np.errstate(over="ignore", invalid="ignore"):
        report = davie_defect(traj, z)
        loop = davie_row_form_loop(*args)
        exact = exact_row_maxima(driver, field, z, traj, args[-1])
    for rows in (1, 7, N):
        with pytest.MonkeyPatch.context() as patch, \
                np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(model, "PAIR_BLOCK", rows * (N + 1))
            maxima, bound = _row_form_maxima(*args)
            assert davie_defect(traj, z) == report
        # a row scored finite lies within its bound of the exact row; one
        # scored inf or NaN is kept
        finite = np.isfinite(maxima) & np.isfinite(exact)
        assert np.all(np.abs(maxima[finite] - exact[finite]) <= bound[finite])
        # the per-row loop is a reference for the maxima within the bound,
        # and a row that is not finite there stays not finite
        finite = np.isfinite(loop)
        assert np.all(np.abs(maxima[finite] - loop[finite]) <= bound[finite])
        assert not np.any(np.isfinite(maxima[~finite]))


def test_davie_screen_memory_is_bounded_by_its_blocks():
    # an unblocked screen holds N (N + 1) (n + 1) floats, 100 MB here
    path = synth_midpoint_path(17, 0.45, 12, 2)
    driver = lift_piecewise_linear(path, alpha=0.45)
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    z = canonical_z(field, driver)
    traj = solve_split(driver, field, z, Y0, Grid(1.0, 2048))
    args = row_form_inputs(driver, field, z, traj)
    tracemalloc.start()
    try:
        _row_form_maxima(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * model.PAIR_BLOCK * (2 + 1) * 8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(1, 3), N=st.integers(1, 64),
       smooth=st.booleans())
def test_chen_formed_row_areas_are_the_lifts_own(seed, d, N, smooth):
    # the Davie row form takes XX_{k,m} = A_m - A_k - x_k ⊗ (x_m - x_k)
    # from the areas and increments about t_0
    path = (smooth_path(d=d, segments=256) if smooth
            else synth_midpoint_path(seed, 0.45, 8, d))
    driver = lift_piecewise_linear(path, alpha=0.45)
    pts = Grid(1.0, N).points
    x = driver.increment_many(np.zeros(N + 1), pts)
    A = driver.area_many(np.zeros(N + 1), pts)
    k, m = np.triu_indices(N + 1, 1)
    step = x[m] - x[k]
    chen = A[m] - A[k] - x[k][:, :, None] * step[:, None, :]
    own = driver.area_many(pts[k], pts[m])

    def norm(a):
        return np.linalg.norm(a.reshape(len(a), -1), axis=1)

    # relative to the largest area and squared increment about t_0 along
    # the path, the sizes both forms are built from: a pair's own area can
    # be far smaller, as where the path returns to its value at t_k
    along = driver.area_many(np.zeros(path.n_samples), path.times)
    size = max(norm(along).max(),
               (norm(path.values - path.values[0]) ** 2).max())
    assert np.all(norm(chen - own) <= 1e-12 * size)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), N=st.integers(3, 24),
       kind=st.sampled_from(["lift", "scaled-area", "scalar"]))
def test_davie_screens_rows_only_on_a_lift_with_its_own_map(seed, N, kind):
    driver = build_driver("scalar" if kind == "scalar" else "synthetic", seed)
    field = build_field("sine", seed, driver.dim)
    z = build_z("scaled-area" if kind == "scaled-area" else "canonical",
                field, driver)
    traj = solve_split(driver, field, z, Y0, Grid(1.0, N))
    left_ends = []
    area_many = z.driver.area_many

    def counted(ss, tt):
        left_ends.append((float(ss[0]), len(ss)))
        return area_many(ss, tt)

    z.driver.area_many = counted
    davie_defect(traj, z)
    rows = sum(1 for s, _ in left_ends if s != 0.0)
    if kind == "lift":
        # the areas about t_0 at every grid point, then the kept rows only
        assert left_ends[0] == (0.0, N + 1)
        assert rows < N - 1
    else:
        # one query per row k >= 1, no query about t_0 at every grid point
        assert rows == N - 1
        assert (0.0, N + 1) not in left_ends


def test_diagnostics_query_a_batch_driver_in_capped_blocks(monkeypatch):
    lifted = lift_piecewise_linear(smooth_path(d=2, segments=256))
    rows = Counter()

    def counted(name, fn):
        def wrapper(*args):
            rows[name] = max(rows[name], len(args[0]) if "many" in name else 1)
            return fn(*args)
        return wrapper

    driver = RoughDriver(
        2, 0.5, counted("increment", lifted.increment),
        counted("area", lifted.area), span=lifted.span,
        increment_many_fn=counted("increment_many", lifted.increment_many),
        area_many_fn=counted("area_many", lifted.area_many))
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    z = canonical_z(field, driver)
    grid = Grid(1.0, 12)
    traj = solve_split(driver, field, z, Y0, grid)
    rng = np.random.default_rng(3)
    xs = list(rng.uniform(-1.0, 1.0, (3, 2)))
    pts = grid.points
    triples = np.sort(pts[rng.integers(0, len(pts), (20, 3))], axis=1)

    def run():
        rows.clear()
        reports = [
            check_z_bound(z, xs, grid, 0.5),
            check_z_lipschitz(z, list(zip(xs, xs[::-1])), grid, 0.5, 3.0),
            check_z_cocycle(z, field, driver, xs, triples, 0.5),
            davie_defect(traj, z),
        ]
        defect = convention_defect_max(z, field, driver, xs[0], grid)
        return [r.to_json_dict() for r in reports], defect

    whole = run()
    assert set(rows) == {"increment_many", "area_many"}  # no scalar query
    assert rows["area_many"] <= model.PAIR_BLOCK
    monkeypatch.setattr(model, "PAIR_BLOCK", 7)
    blocked = run()
    assert set(rows) == {"increment_many", "area_many"}
    assert rows["area_many"] <= 7
    assert blocked == whole


@pytest.mark.parametrize("z_kind", ["canonical", "transposed", "zero",
                                    "rough-probe"])
def test_diagnostics_call_no_map_per_pair_for_any_cli_z_kind(monkeypatch,
                                                              z_kind):
    calls = Counter()

    def counted(call):
        def wrapper(self, x, s, t):
            calls[self.name] += 1
            return call(self, x, s, t)
        return wrapper

    # every map kind takes z(x, s, t) from the base class
    monkeypatch.setattr(SecondOrderMap, "__call__",
                        counted(SecondOrderMap.__call__))
    driver = build_driver("synthetic", 5)
    field = build_field("sine", 5, 2)
    z = build_z(z_kind, field, driver)
    grid = Grid(1.0, 12)
    traj = solve_split(driver, field, canonical_z(field, driver), Y0, grid)
    rng = np.random.default_rng(3)
    xs = list(rng.uniform(-1.0, 1.0, (3, 2)))
    pts = grid.points
    triples = np.sort(pts[rng.integers(0, len(pts), (20, 3))], axis=1)

    def run():
        reports = [
            check_z_bound(z, xs, grid, 0.45),
            check_z_lipschitz(z, list(zip(xs, xs[::-1])), grid, 0.45, 3.0),
            check_z_cocycle(z, field, driver, xs, triples, 0.45),
            davie_defect(traj, z),
        ]
        defect = convention_defect_max(z, field, driver, xs[0], grid)
        return [r.to_json_dict() for r in reports], defect

    calls.clear()  # the solve's own calls
    whole = run()
    monkeypatch.setattr(model, "PAIR_BLOCK", 7)
    assert run() == whole
    assert not calls
    z(xs[0], 0.0, 0.5)  # the wrapper sees a per-pair call
    assert calls == {z.name: 1}


def test_holder_rate_makes_no_scalar_driver_query_on_a_batch_driver():
    lifted = lift_piecewise_linear(synth_midpoint_path(5, 0.45, 10, 2),
                                   alpha=0.45)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    driver = RoughDriver(
        2, 0.45, counted("increment", lifted.increment),
        counted("area", lifted.area), span=lifted.span,
        increment_many_fn=counted("increment_many", lifted.increment_many),
        area_many_fn=counted("area_many", lifted.area_many))
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    problem = Problem(driver=driver, field=field, z=canonical_z(field, driver),
                      y0=Y0, T=1.0)
    [report] = holder_rate([problem], 0.2, 8, 3)
    # one increment_many and one area_many per solve (4) and per joined
    # sample set (2 per level)
    assert calls == {"increment_many": 10, "area_many": 10}
    lifted_problem = Problem(driver=lifted, field=field,
                             z=canonical_z(field, lifted), y0=Y0, T=1.0)
    assert holder_rate([lifted_problem], 0.2, 8, 3) == [report]
