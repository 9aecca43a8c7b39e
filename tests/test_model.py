import ast
import dataclasses
import gc
import json
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdesplit import (Grid, RoughDriver, SampledPath, VectorField, canonical_z,
                      check_z_bound, check_z_cocycle, check_z_lipschitz,
                      constant_field, convention_defect_max, davie_defect,
                      lift_piecewise_linear, linear_field, rough_probe_z,
                      scalar_driver, sine_field, solve_split,
                      synth_midpoint_path, transposed_z, validate_gradient,
                      zero_z)
from rdesplit import model, rough_path
from rdesplit.model import _Z_SUBSCRIPTS, SecondOrderMap, c_einsum, stack_grids

from builders import (DRIVER_KINDS, FIELD_KINDS, Z_KINDS, build_driver,
                      build_field, build_z, field_forms, with_area)
from references import area_linear_z, lift_area, lift_increment


def l_driver():
    path = SampledPath([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    return lift_piecewise_linear(path)


def sample_points(rng, n, count=20, box=1.5):
    return rng.uniform(-box, box, (count, n))


# ---------------------------------------------------------------- fields

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    fields = [
        constant_field(rng.standard_normal((2, 3))),
        linear_field(rng.standard_normal((2, 2, 2)),
                     offset=rng.standard_normal((2, 2))),
        sine_field(3, 2, seed=5, amplitude=0.9),
    ]
    for field in fields:
        xs = sample_points(rng, field.n, count=100)
        assert validate_gradient(field, xs) <= 1e-5


def test_field_validation():
    with pytest.raises(ValueError):
        constant_field(np.zeros(3))
    with pytest.raises(ValueError):
        linear_field(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        VectorField(2, 2, lambda x: x, lambda x: x, gamma=2.0)
    for n, d in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            VectorField(n, d, lambda x: x, lambda x: x)
    with pytest.raises(ValueError, match=re.escape(
            "tensor must be (n, d, n), got (2, 1, 3)")):
        linear_field(np.zeros((2, 1, 3)))
    with pytest.raises(ValueError, match=re.escape(
            "offset must be (n, d), got (1, 2)")):
        linear_field(np.zeros((2, 1, 2)), offset=np.zeros((1, 2)))
    # a field needs a gradient and values, per state or stacked
    for forms in ({}, {"fn": lambda x: x},
                  {"value_many_fn": lambda xs: xs}):
        with pytest.raises(ValueError, match="fn and grad_fn"):
            VectorField(2, 2, **forms)


@pytest.mark.parametrize("key", ["gamma", "sup_f", "sup_grad"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_field_rejects_non_finite_parameters(key, bad):
    # NaN passes "gamma <= 2" unnoticed, since every comparison with it is False
    with pytest.raises(ValueError, match=key):
        VectorField(2, 2, lambda x: x, lambda x: x, **{key: bad})


def test_presets_keep_their_names_and_the_hessian_error_names_the_field():
    assert constant_field(np.ones((2, 2))).name == "constant"
    assert linear_field(np.ones((2, 2, 2))).name == "linear"
    assert sine_field(2, 2).name == "sine"
    field = VectorField(2, 2, lambda x: x, lambda x: x, sup_f=1.0,
                        sup_grad=2.0, name="mine")
    assert field.name == "mine"
    with pytest.raises(ValueError, match="'mine'"):
        field.hessian(np.zeros(2))


def same_bits(got, expected):
    """Equal shapes and bit patterns (NaN payloads and signed zeros too)."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       K=st.one_of(st.integers(0, 9),
                   st.sampled_from((64, 333, model.TILE_ROWS,
                                    model.TILE_ROWS + 1))),
       d=st.integers(1, 3), field_kind=st.sampled_from(FIELD_KINDS))
@example(seed=1, K=2, d=2, field_kind="sine")
@example(seed=2, K=7, d=3, field_kind="sine")
@example(seed=3, K=64, d=2, field_kind="sine")
@example(seed=4, K=333, d=1, field_kind="sine")
@example(seed=5, K=model.TILE_ROWS, d=3, field_kind="sine")
@example(seed=6, K=model.TILE_ROWS + 1, d=2, field_kind="sine")
def test_stacked_field_rows_are_the_single_state_calls(seed, K, d, field_kind):
    # the sine preset combines a stack of up to TILE_ROWS states with the
    # first rows of its coefficient tiles: stacks of K, K + 1 and K states
    # again, each through both hooks, carry nothing from call to call
    field = build_field(field_kind, seed, d)
    fn, grad_fn = field_forms(field_kind, seed, d)
    rng = np.random.default_rng(seed)
    for length in (K, K + 1, K):
        xs = rng.uniform(-3.0, 3.0, (length, 2))
        f_want = np.reshape([fn(x) for x in xs], (length, 2, d))
        values = field.value_many(xs)
        f_many, grad_many = field.value_and_gradient_many(xs)
        same_bits(values, f_want)
        same_bits(f_many, f_want)
        same_bits(grad_many, np.reshape([grad_fn(x) for x in xs],
                                        (length, 2, d, 2)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16), n=st.integers(1, 3),
       d=st.integers(1, 3), field_kind=st.sampled_from(FIELD_KINDS))
def test_values_hook_is_the_fused_hooks_values(data, seed, n, d, field_kind):
    # a march takes the transport stage's f from value_many and Z's f from
    # value_and_gradient_many: a Milstein step is bitwise u + f(u)X + Z(u)
    # only while the two agree on every state
    field = build_field(field_kind, seed, d, n=n)
    xs = data.draw(arrays(float, st.tuples(st.integers(1, 8), st.just(n)),
                          elements=st.floats(-1e3, 1e3)))
    same_bits(field.value_many(xs), field.value_and_gradient_many(xs)[0])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), K=st.integers(1, 6), n=st.integers(1, 3),
       d=st.integers(1, 3), field_kind=st.sampled_from(FIELD_KINDS),
       transpose=st.booleans(), data=st.data())
def test_stacks_and_one_row_views_are_the_single_state_formulas(
        seed, K, n, d, field_kind, transpose, data):
    # every object defines one stacked or batch form; its rows and its
    # one-row views (field(x), driver.area(s, t), z(x, s, t), ...) must be
    # the single-state formulas they replaced, kept in ``references``
    rng = np.random.default_rng(seed)
    field = build_field(field_kind, seed, d, n=n)
    fn, grad_fn = field_forms(field_kind, seed, d, n=n)
    xs = rng.uniform(-3.0, 3.0, (K, n))
    values = field.value_many(xs)
    f_many, grad_many = field.value_and_gradient_many(xs)
    for k, x in enumerate(xs):
        for got in (values[k], f_many[k], field(x)):
            same_bits(got, fn(x))
        for got in (grad_many[k], field.gradient(x)):
            same_bits(got, grad_fn(x))

    # the lift, queried at the span ends, within the tolerance outside
    # them and at its sample times
    path = synth_midpoint_path(seed, 0.45, 5, d)
    lift = rough_path._PiecewiseLinearLift(path)
    driver = lift_piecewise_linear(path, alpha=0.45)
    edges = [0.0, 1.0, -1e-9, 1.0 + 1e-9, -5e-10, 1.0 + 5e-10]
    times = st.one_of(st.floats(0.0, 1.0),
                      st.sampled_from(edges + path.times.tolist()))
    ss, tt = (np.array(data.draw(st.lists(times, min_size=K, max_size=K)))
              for _ in range(2))
    incs = [lift_increment(lift, s, t) for s, t in zip(ss, tt)]
    areas = [lift_area(lift, s, t) for s, t in zip(ss, tt)]
    # the same lift through the per-interval adapter
    plain = RoughDriver(d, 0.45, lambda s, t: lift_increment(lift, s, t),
                        lambda s, t: lift_area(lift, s, t))
    assert driver.has_batch and not plain.has_batch
    for drv in (driver, plain):
        same_bits(drv.increment_many(ss, tt), np.reshape(incs, (K, d)))
        same_bits(drv.area_many(ss, tt), np.reshape(areas, (K, d, d)))
        for s, t, inc, area in zip(ss, tt, incs, areas):
            same_bits(drv.increment(s, t), inc)
            same_bits(drv.area(s, t), area)

    # the area-linear map on the lift, and the same formula as a map given
    # by a per-pair callable
    z = (transposed_z if transpose else canonical_z)(field, driver)
    zs = [area_linear_z(fn(x), grad_fn(x), area, transpose)
          for x, area in zip(xs, areas)]
    opaque = SecondOrderMap(n, lambda x, s, t: area_linear_z(
        fn(x), grad_fn(x), lift_area(lift, s, t), transpose))
    for x, s, t, want in zip(xs, ss, tt, zs):
        same_bits(z(x, s, t), want)
        same_bits(opaque(x, s, t), want)
    for zmap in (opaque, z):
        same_bits(zmap.on_grid(ss, tt).rows(xs, 0, K), np.reshape(zs, (K, n)))

    # a scalar driver: per-interval callables of a one-dimensional path
    def g(t):
        return np.sin(3.0 * t) + t * t

    scalar = scalar_driver(g)
    for s, t in zip(ss, tt):
        same_bits(scalar.increment(s, t), np.array([g(t) - g(s)]))
        dx = g(t) - g(s)
        same_bits(scalar.area(s, t), np.array([[0.5 * dx * dx]]))


# ---------------------------------------------------------------- canonical Z

def test_canonical_z_vanishes_for_constant_field():
    drv = l_driver()
    field = constant_field([[1.0, 2.0], [0.5, -1.0]])
    z = canonical_z(field, drv)
    assert np.all(z(np.array([0.3, 0.4]), 0.1, 0.9) == 0.0)


def test_canonical_z_scalar_linear_field():
    # f(y) = y in one dimension over a smooth driver: Z(x)_{s,t} = x/2 X^2
    drv = scalar_driver(lambda t: 0.1 * t)
    field = linear_field(np.ones((1, 1, 1)))
    z = canonical_z(field, drv)
    x = np.array([1.1])
    assert z(x, 0.0, 1.0)[0] == pytest.approx(1.1 * 0.5 * 0.01)


def test_canonical_z_matches_triple_loop_contraction():
    rng = np.random.default_rng(9)
    drv = l_driver()
    field = linear_field(rng.standard_normal((2, 2, 2)),
                         offset=rng.standard_normal((2, 2)))
    z = canonical_z(field, drv)
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        s, t = np.sort(rng.uniform(0, 1, 2))
        area = drv.area(s, t)
        f = field(x)
        grad = field.gradient(x)
        expected = np.zeros(2)
        for i in range(2):
            for m in range(2):
                for a in range(2):
                    for b in range(2):
                        expected[i] += grad[i, b, m] * f[m, a] * area[a, b]
        assert np.allclose(z(x, s, t), expected, rtol=1e-12)


def test_canonical_z_dimension_and_pairing_checks():
    drv = l_driver()
    with pytest.raises(ValueError):
        canonical_z(constant_field(np.ones((2, 3))), drv)
    path = SampledPath([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    rough = lift_piecewise_linear(path, alpha=0.4)
    with pytest.raises(ValueError):
        canonical_z(sine_field(2, 2, gamma=2.2), rough)  # gamma <= 1/alpha


def test_z_vanishes_on_diagonal():
    drv = l_driver()
    field = sine_field(2, 2, seed=2)
    rng = np.random.default_rng(3)
    for z in (canonical_z(field, drv), transposed_z(field, drv),
              zero_z(2), rough_probe_z(2, 0.5)):
        for t in rng.uniform(0, 1, 5):
            x = rng.uniform(-1, 1, 2)
            assert np.all(z(x, t, t) == 0.0)


def test_canonical_z_linear_in_area():
    drv = l_driver()
    scaled = with_area(drv, lambda s, t: 2.0 * drv.area(s, t))
    field = sine_field(2, 2, seed=2)
    z1 = canonical_z(field, drv)
    z2 = canonical_z(field, scaled)
    x = np.array([0.2, -0.7])
    assert np.array_equal(z2(x, 0.1, 0.8), 2.0 * z1(x, 0.1, 0.8))


def test_area_linear_maps_release_their_driver_without_cycle_collection():
    # a build per command must not hold the driver's path arrays until the
    # cyclic collector happens to run
    gc.disable()
    try:
        for make in (canonical_z, transposed_z):
            drv = l_driver()
            ref = weakref.ref(drv)
            z = make(sine_field(2, 2, seed=2), drv)
            z.on_grid([0.0, 0.5], [0.5, 1.0])
            del drv, z
            assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- convention pinning

def test_convention_pinning_on_exact_lift():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = canonical_z(field, drv)
    grid = Grid(1.0, 16)
    rng = np.random.default_rng(4)
    for x in sample_points(rng, 2, count=3):
        defect, _ = convention_defect_max(z, field, drv, x, grid)
        assert defect <= 1e-10


def test_transposed_indices_fail_convention_on_asymmetric_area():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    good = canonical_z(field, drv)
    bad = transposed_z(field, drv)
    grid = Grid(1.0, 16)
    x = np.array([0.3, -0.2])
    d_good, _ = convention_defect_max(good, field, drv, x, grid)
    d_bad, witness = convention_defect_max(bad, field, drv, x, grid)
    assert d_bad > 1e-3 > d_good
    # the witness reproduces the reported defect
    s, u, t = witness
    dz = bad(x, s, t) - bad(x, s, u) - bad(x, u, t)
    quad = np.einsum("ibm,m,b->i", field.gradient(x),
                     field(x) @ drv.increment(s, u), drv.increment(u, t))
    assert np.max(np.abs(dz - quad)) == pytest.approx(d_bad, rel=1e-12)


def reference_convention_defect(z, field, driver, x, pts):
    """convention_defect_max over the full (m, m, m) triple tensor, with one
    argmax: (max_defect, (s, u, t))."""
    m = len(pts)
    base = np.array([driver.increment(pts[0], t) for t in pts])
    incr = base[None, :, :] - base[:, None, :]
    zmat = np.zeros((m, m, z.n))
    for i in range(m):
        for j in range(i + 1, m):
            zmat[i, j] = z(x, pts[i], pts[j])
    d_z = zmat[:, None, :, :] - zmat[:, :, None, :] - zmat[None, :, :, :]
    quad = np.einsum("nbq,qa,ija,jkb->ijkn", field.gradient(x), field(x),
                     incr, incr)
    defect = np.abs(d_z - quad).max(axis=-1)
    ii, jj, kk = np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                             indexing="ij")
    defect = np.where((ii <= jj) & (jj <= kk), defect, -np.inf)
    i, j, k = np.unravel_index(int(np.argmax(defect)), defect.shape)
    return float(defect[i, j, k]), (float(pts[i]), float(pts[j]), float(pts[k]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), N=st.integers(1, 12),
       driver_kind=st.sampled_from(DRIVER_KINDS),
       field_kind=st.sampled_from(FIELD_KINDS),
       z_kind=st.sampled_from(Z_KINDS))
def test_convention_defect_matches_full_tensor_reference(seed, N, driver_kind,
                                                         field_kind, z_kind):
    driver = build_driver(driver_kind, seed)
    field = build_field(field_kind, seed, driver.dim)
    z = build_z(z_kind, field, driver)
    grid = Grid(1.0, N)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
    defect, witness = convention_defect_max(z, field, driver, x, grid)
    expected, expected_witness = reference_convention_defect(
        z, field, driver, x, grid.points)
    # bitwise, NaN included (the nan-probe map): the first NaN wins
    assert np.array_equal(defect, expected, equal_nan=True)
    assert witness == expected_witness


def test_convention_defect_memory_grows_like_m_squared():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = transposed_z(field, drv)
    tracemalloc.start()
    try:
        convention_defect_max(z, field, drv, np.array([0.3, -0.2]),
                              Grid(1.0, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (m, m, m, n) tensors of all triples at once took 20 MB at m = 65
    assert peak < 4e6


def test_transposed_cocycle_report_exceeds_canonical():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    grid = Grid(1.0, 8)
    pts = grid.points
    triples = [(pts[i], pts[j], pts[k])
               for i in range(9) for j in range(i, 9) for k in range(j, 9)]
    xs = [np.array([0.3, -0.2]), np.array([0.0, 0.5])]
    rep_c = check_z_cocycle(canonical_z(field, drv), field, drv, xs, triples, 0.5)
    rep_t = check_z_cocycle(transposed_z(field, drv), field, drv, xs, triples, 0.5)
    assert rep_t.max_ratio > rep_c.max_ratio


# ---------------------------------------------------------------- checkers

def test_check_z_bound_zero_map():
    rep = check_z_bound(zero_z(2), [np.zeros(2)], Grid(1.0, 8), 0.5)
    assert rep.max_ratio == 0.0
    assert rep.samples == 8 * 9 // 2


def test_check_z_bound_empty_samples_rejected():
    with pytest.raises(ValueError):
        check_z_bound(zero_z(2), [], Grid(1.0, 8), 0.5)


def test_check_z_bound_canonical_below_constant_product():
    # |Z| <= ||grad f|| ||f|| ||XX|| n d^2 entrywise, so the reported ratio
    # is bounded by the product of separately measured constants
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = canonical_z(field, drv)
    grid = Grid(1.0, 16)
    rng = np.random.default_rng(5)
    xs = sample_points(rng, 2, count=10)
    rep = check_z_bound(z, xs, grid, 0.5)
    pts = grid.points
    area_const = max(
        np.max(np.abs(drv.area(pts[i], pts[j]))) / (pts[j] - pts[i])
        for i in range(len(pts) - 1) for j in range(i + 1, len(pts)))
    sup_f = max(np.max(np.abs(field(x))) for x in xs)
    sup_g = max(np.max(np.abs(field.gradient(x))) for x in xs)
    n, d = field.n, field.d
    bound = np.sqrt(n) * n * d * d * sup_f * sup_g * area_const
    assert 0.0 < rep.max_ratio <= bound * (1 + 1e-9)


def test_rough_probe_flagged_with_exact_growth():
    probe = rough_probe_z(2, 0.5)
    xs = [np.zeros(2)]
    r1 = check_z_bound(probe, xs, Grid(1.0, 16), 0.5)
    r2 = check_z_bound(probe, xs, Grid(1.0, 32), 0.5)
    # max ratio is h^(-alpha), attained at the smallest pair distance
    assert r1.max_ratio == pytest.approx(16.0**0.5)
    assert r2.max_ratio / r1.max_ratio == pytest.approx(2.0**0.5, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0),
       alpha=st.floats(0.05, 1.0), scale=st.floats(0.1, 10.0))
def test_rough_probe_is_the_scalar_power(s, t, alpha, scale):
    # one formula serves grids and single calls: it must keep the bits of
    # the scalar pow
    value = rough_probe_z(2, alpha, scale)(np.zeros(2), s, t)
    assert value.tolist() == [scale * abs(t - s) ** alpha, 0.0]


def test_check_z_lipschitz_zero_map():
    pairs = [(np.zeros(2), np.ones(2))]
    rep = check_z_lipschitz(zero_z(2), pairs, Grid(1.0, 4), 0.5, 3.0)
    assert rep.max_ratio == 0.0


def test_check_z_lipschitz_recovers_lipschitz_constant():
    # Z(x)_{s,t} = g(x) |t-s|^(2 alpha) with Lipschitz g and gamma = 3:
    # the ratio reduces to |g(x)-g(y)|/|x-y| on every pair
    def g(x):
        return np.array([np.sin(x[0]), 0.5 * np.cos(x[1])])

    z = SecondOrderMap(2, lambda x, s, t: g(x) * (t - s), name="gtimes")
    rng = np.random.default_rng(6)
    pairs = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(30)]
    rep = check_z_lipschitz(z, pairs, Grid(1.0, 4), 0.5, 3.0)
    direct = max(np.linalg.norm(g(x) - g(y)) / np.linalg.norm(x - y)
                 for x, y in pairs)
    assert rep.max_ratio == pytest.approx(direct, rel=0.1)


def test_check_z_lipschitz_skips_equal_pairs():
    x = np.ones(2)
    pairs = [(x, x.copy())]
    with pytest.raises(ValueError):
        check_z_lipschitz(zero_z(2), pairs, Grid(1.0, 4), 0.5, 3.0)


def test_canonical_checks_stable_under_refinement():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = canonical_z(field, drv)
    rng = np.random.default_rng(7)
    xs = sample_points(rng, 2, count=6)
    pairs = [(a, b) for a, b in zip(xs[:3], xs[3:])]
    for checker in ("bound", "lipschitz"):
        vals = []
        for N in (16, 32):
            grid = Grid(1.0, N)
            if checker == "bound":
                rep = check_z_bound(z, xs, grid, 0.5)
            else:
                rep = check_z_lipschitz(z, pairs, grid, 0.5, 3.0)
            vals.append(rep.max_ratio)
        assert vals[1] == pytest.approx(vals[0], rel=0.2)


def test_check_z_cocycle_zero_problem():
    drv = l_driver()
    field = constant_field(np.zeros((2, 2)))
    rep = check_z_cocycle(zero_z(2), field, drv, [np.zeros(2)],
                          [(0.0, 0.25, 0.5)], 0.5)
    assert rep.max_ratio == 0.0


def test_check_z_cocycle_canonical_equals_gradient_term():
    # over an exact lift the Chen cross term cancels, leaving the
    # grad f * Z * X correction as the whole numerator
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = canonical_z(field, drv)
    x = np.array([0.1, 0.4])
    s, u, t = 0.0, 0.25, 0.75
    rep = check_z_cocycle(z, field, drv, [x], [(s, u, t)], 0.5)
    corr = np.einsum("ibm,m,b->i", field.gradient(x), z(x, s, u),
                     drv.increment(u, t))
    assert rep.max_ratio == pytest.approx(
        np.linalg.norm(corr) / (t - s) ** 1.5, rel=1e-10)


def test_check_z_cocycle_rejects_unordered_triples():
    drv = l_driver()
    field = sine_field(2, 2, seed=3)
    z = canonical_z(field, drv)
    with pytest.raises(ValueError):
        check_z_cocycle(z, field, drv, [np.zeros(2)], [(0.5, 0.2, 0.8)], 0.5)


def test_check_z_cocycle_rejects_an_empty_sample_set():
    field = sine_field(2, 2, seed=3)
    with pytest.raises(ValueError, match="^empty sample set$"):
        check_z_cocycle(zero_z(2), field, l_driver(), [], [(0.0, 0.1, 0.2)],
                        0.5)


def test_relaxed_exponent_overrides():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, gamma=2.5)
    z = canonical_z(field, drv)
    xs = [np.zeros(2)]
    grid = Grid(0.5, 8)  # pair distances < 1, so the exponent matters
    default = check_z_bound(z, xs, grid, 0.5)
    relaxed = check_z_bound(z, xs, grid, 0.5, exponent=(2.5 - 1.0) * 0.5)
    assert relaxed.max_ratio == pytest.approx(
        reference_bound(z, xs, grid.points, 0.75)[0], rel=1e-12)
    assert relaxed.max_ratio != default.max_ratio


def test_check_report_witness_reproduces_maximum():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = canonical_z(field, drv)
    rng = np.random.default_rng(8)
    xs = sample_points(rng, 2, count=5)
    rep = check_z_bound(z, xs, Grid(1.0, 12), 0.5)
    w = rep.witness
    re_ratio = (np.linalg.norm(z(np.array(w["x"]), w["s"], w["t"]))
                / (w["t"] - w["s"]) ** 1.0)
    assert re_ratio == pytest.approx(rep.max_ratio, rel=1e-12)


def test_check_report_json_schema():
    drv = l_driver()
    field = sine_field(2, 2, seed=3)
    rep = check_z_bound(canonical_z(field, drv), [np.zeros(2)], Grid(1.0, 4), 0.5)
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert set(payload) == {"condition", "max_ratio", "samples", "witness"}
    assert set(payload["witness"]) == {"x", "s", "u", "t"}
    assert payload["condition"] == "z_bound"
    assert payload["witness"]["u"] is None


def test_reports_hold_what_they_write():
    # a field that no JSON payload carries is dead weight on the report
    drv = l_driver()
    field = sine_field(2, 2, seed=3)
    z = canonical_z(field, drv)
    grid = Grid(1.0, 4)
    xs = [np.zeros(2), np.ones(2)]
    reports = [
        check_z_bound(z, xs, grid, 0.5),
        check_z_lipschitz(z, [(xs[0], xs[1])], grid, 0.5, 3.0),
        check_z_cocycle(z, field, drv, xs, [(0.0, 0.5, 1.0)], 0.5),
        davie_defect(solve_split(drv, field, z, np.zeros(2), grid), z),
    ]
    for report in reports:
        assert ({f.name for f in dataclasses.fields(report)}
                == set(report.to_json_dict()))


# ---------------------------------------------------------------- batched checkers

def grid_pairs(pts):
    for i in range(len(pts) - 1):
        for j in range(i + 1, len(pts)):
            yield pts[i], pts[j]


def reference_bound(z, xs, pts, expo):
    """check_z_bound as a per-pair loop: (max, (x, s, t), samples)."""
    best, witness, count = 0.0, (None, None, None), 0
    for x in xs:
        for s, t in grid_pairs(pts):
            ratio = float(np.linalg.norm(z(x, s, t))) / (t - s) ** expo
            count += 1
            if ratio > best:
                best, witness = ratio, (x, float(s), float(t))
    return best, witness, count


def reference_lipschitz(z, x_pairs, pts, expo_t, expo_x):
    best, witness, count = 0.0, (None, None, None, None), 0
    for x, y in x_pairs:
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        for s, t in grid_pairs(pts):
            num = float(np.linalg.norm(z(x, s, t) - z(y, s, t)))
            ratio = num / (dist**expo_x * (t - s) ** expo_t)
            count += 1
            if ratio > best:
                best, witness = ratio, (x, y, float(s), float(t))
    return best, witness, count


def reference_cocycle(z, field, driver, xs, triples, expo):
    best, witness, count = 0.0, (None, None, None, None), 0
    for x in xs:
        f_x, grad_x = field(x), field.gradient(x)
        for s, u, t in triples:
            if t == s:
                continue
            x_su = driver.increment(s, u)
            x_ut = driver.increment(u, t)
            z_su = z(x, s, u)
            d_z = z(x, s, t) - z_su - z(x, u, t)
            quad = np.einsum("ibm,m,b->i", grad_x, f_x @ x_su, x_ut)
            corr = np.einsum("ibm,m,b->i", grad_x, z_su, x_ut)
            ratio = float(np.linalg.norm(d_z - quad - corr)) / (t - s) ** expo
            count += 1
            if ratio > best:
                best, witness = ratio, (x, float(s), float(u), float(t))
    return best, witness, count


def same_witness(witness, keys, expected):
    """The report's JSON witness holds the reference's ``expected`` under
    ``keys`` and ``u`` null for the pair checks: the same keys, all null,
    where the check found no ratio above 0."""
    want = {"u": None}
    want.update((key, e.tolist() if isinstance(e, np.ndarray) else e)
                for key, e in zip(keys, expected))
    assert witness == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), N=st.integers(1, 20),
       states=st.integers(1, 3),
       driver_kind=st.sampled_from(DRIVER_KINDS),
       field_kind=st.sampled_from(FIELD_KINDS),
       z_kind=st.sampled_from(Z_KINDS))
def test_checkers_match_per_pair_reference_loops(seed, N, states, driver_kind,
                                                 field_kind, z_kind):
    driver = build_driver(driver_kind, seed)
    field = build_field(field_kind, seed, driver.dim)
    z = build_z(z_kind, field, driver)
    grid = Grid(1.0, N)
    pts = grid.points
    rng = np.random.default_rng(seed)
    xs = list(rng.uniform(-1.0, 1.0, (states, 2)))
    x_pairs = [(x, x.copy()) for x in xs[:1]]  # one degenerate pair, skipped
    x_pairs += list(zip(xs, rng.uniform(-1.0, 1.0, (states, 2))))
    # repeated grid indices give triples with s == u, u == t and s == t
    triples = np.sort(pts[rng.integers(0, N + 1, (12, 3))], axis=1)
    triples = np.vstack([triples, [[pts[0]] * 3, [pts[0], pts[0], pts[-1]]]])
    alpha = driver.alpha

    rep = check_z_bound(z, xs, grid, alpha)
    best, witness, count = reference_bound(z, xs, pts, 2.0 * alpha)
    assert rep.max_ratio == pytest.approx(best, rel=1e-12, abs=0.0)
    same_witness(rep.witness, "xst", witness)
    assert rep.samples == count

    rep = check_z_lipschitz(z, x_pairs, grid, alpha, 3.0)
    best, witness, count = reference_lipschitz(z, x_pairs, pts, 2.0 * alpha,
                                               1.0)
    assert rep.max_ratio == pytest.approx(best, rel=1e-12, abs=0.0)
    same_witness(rep.witness, "xyst", witness)
    assert rep.samples == count

    rep = check_z_cocycle(z, field, driver, xs, triples, alpha)
    best, witness, count = reference_cocycle(z, field, driver, xs, triples,
                                             3.0 * alpha)
    assert rep.max_ratio == pytest.approx(best, rel=1e-12, abs=0.0)
    same_witness(rep.witness, "xsut", witness)
    assert rep.samples == count


def test_bound_ratio_is_exact_for_a_map_on_its_budget():
    # |Z| = |t-s|^(2 alpha) meets the bound with equality on every pair, so
    # every ratio is exactly 1 and the witness is the first pair; a batched
    # power that rounds differently from the scalar one would break the tie
    alpha = 0.45
    z = SecondOrderMap(2, lambda x, s, t: np.array([abs(t - s) ** (2 * alpha), 0.0]))
    rep = check_z_bound(z, [np.zeros(2), np.ones(2)], Grid(1.0, 64), alpha)
    assert rep.max_ratio == 1.0
    assert rep.witness == {"x": [0.0, 0.0], "s": 0.0, "u": None,
                           "t": 1.0 / 64}


def test_cocycle_validates_every_triple_before_evaluating():
    calls = []
    z = SecondOrderMap(2, lambda x, s, t: calls.append((s, t)) or np.zeros(2))
    field = sine_field(2, 2, seed=3)
    triples = [(0.0, 0.25, 0.5), (0.5, 0.2, 0.8)]
    with pytest.raises(ValueError, match="s <= u <= t"):
        check_z_cocycle(z, field, l_driver(), [np.zeros(2)], triples, 0.5)
    assert calls == []


def test_grid_z_every_matches_per_interval_calls():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    ss = np.array([0.0, 0.1, 0.3, 0.5, 0.9])
    tt = np.array([0.0, 0.7, 0.8, 1.0, 0.95])
    x = np.array([0.3, -0.4])
    for z in (canonical_z(field, drv), transposed_z(field, drv), zero_z(2),
              rough_probe_z(2, 0.5)):
        grid_z = z.on_grid(ss, tt)
        expected = np.array([z(x, s, t) for s, t in zip(ss, tt)])
        assert np.array_equal(grid_z.every(x), expected)
        assert grid_z.every(x).shape == (len(ss), 2)
    assert zero_z(2).on_grid([], []).every(x).shape == (0, 2)


def step_major_layout(lengths):
    """The march's layout of arrays of ``lengths``, longest first: row
    starts[j] + p holds row j of array p.  Returns (layout, starts)."""
    stepping = [sum(length > j for length in lengths)
                for j in range(lengths[0])]
    starts = np.concatenate(([0], np.cumsum(stepping))).astype(int)

    def layout(arrays):
        arrays = list(arrays)
        out = np.empty((starts[-1],) + arrays[0].shape[1:], arrays[0].dtype)
        for p, a in enumerate(arrays):
            out[starts[:len(a)] + p] = a
        return out

    return layout, starts


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16),
       members=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(Z_KINDS)),
                        min_size=1, max_size=3),
       driver_kind=st.sampled_from(DRIVER_KINDS),
       field_kind=st.sampled_from(FIELD_KINDS), shared=st.booleans(),
       n=st.integers(1, 3), d=st.integers(1, 3),
       lo=st.integers(0, 12), width=st.integers(0, 12))
# a mixed stack: an area-linear map, a map that does not read the state and
# an opaque map, each row through its own map's grid
@example(seed=3, members=[(9, "canonical"), (7, "zero"), (5, "nan-probe")],
         driver_kind="synthetic", field_kind="sine", shared=True, n=2, d=2,
         lo=2, width=4)
# n = 1, d = 2, where einsum sums a one-row stack in another order: a grid
# of eight intervals with one-interval windows, and one-interval grids,
# alone and stacked
@example(seed=5, members=[(8, "canonical")], driver_kind="synthetic",
         field_kind="sine", shared=True, n=1, d=2, lo=3, width=1)
@example(seed=7, members=[(1, "transposed"), (1, "rough-probe")],
         driver_kind="smooth", field_kind="callable", shared=True, n=1, d=2,
         lo=0, width=1)
def test_grid_z_rows_and_every_are_the_single_state_calls(
        seed, members, driver_kind, field_kind, shared, n, d, lo, width):
    # each member is a map on its own driver and intervals; with ``shared``
    # every map is on one field object
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.5, 1.5, n)
    field = None
    grids, xss, expected, at_x0 = [], [], [], []
    for p, (K, z_kind) in enumerate(sorted(members, key=lambda m: -m[0])):
        driver = build_driver(driver_kind, seed + p, d)
        if field is None or not shared:
            field = build_field(field_kind, seed + p, driver.dim, n=n)
        z = build_z(z_kind, field, driver)
        # long intervals too, where the NaN map is NaN; s == t gives Z = 0
        ss, tt = np.sort(rng.uniform(0.0, 1.0, (2, K)), axis=0)
        tt[: K // 4] = ss[: K // 4]
        xs = rng.uniform(-1.5, 1.5, (K, n))
        grid_z = z.on_grid(ss, tt)
        rows = np.reshape([z(x, s, t) for x, s, t in zip(xs, ss, tt)],
                          (K, n))
        every = np.reshape([z(x0, s, t) for s, t in zip(ss, tt)], (K, n))
        # the whole grid, the window of intervals lo, lo + 1, ..., one
        # interval at the last index and an empty window, at a stack of
        # states and at one state for every interval
        start = min(lo, K)
        stop = min(start + width, K)
        for a, b in ((0, K), (start, stop), (max(K - 1, 0), K),
                     (start, start)):
            same_bits(grid_z.rows(xs[a:b], a, b), rows[a:b])
            same_bits(grid_z.rows(x0[None], a, b), every[a:b])
        same_bits(grid_z.every(x0), every)
        # a grid of one interval
        if K:
            same_bits(z.on_grid(ss[-1:], tt[-1:]).every(x0), every[-1:])
        grids.append(grid_z)
        xss.append(xs)
        expected.append(rows)
        at_x0.append(every)
    # the members' grids that have intervals as one, step by step as a
    # march lays them out: every window's rows are those of their own maps
    P = sum(1 for g in grids if len(g))
    if not P:
        return
    layout, starts = step_major_layout([len(g) for g in grids[:P]])
    stacked = stack_grids(grids[:P], layout)
    xs, rows = layout(xss[:P]), layout(expected[:P])
    R = len(rows)
    same_bits(stacked.rows(xs, 0, R), rows)
    same_bits(stacked.every(x0), layout(at_x0[:P]))
    same_bits(stacked.rows(xs[R - 1:], R - 1, R), rows[R - 1:])
    for start, stop in zip(starts[:-1], starts[1:]):
        same_bits(stacked.rows(xs[start:stop], start, stop), rows[start:stop])


def einsum_subscripts():
    """Every subscript string a module of the package passes to the bound
    kernel ``c_einsum``: a literal, or a name defined in ``model``."""
    found = set()
    for path in Path(model.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "c_einsum"):
                first = node.args[0]
                found.add(first.value if isinstance(first, ast.Constant)
                          else getattr(model, first.id))
    return sorted(found)


EINSUM_SUBSCRIPTS = einsum_subscripts()


def test_every_einsum_site_is_seen():
    # the sine preset's forms, the area-linear maps, the cocycle and
    # convention-defect contractions and the Davie row form
    assert len(EINSUM_SUBSCRIPTS) == 8 and _Z_SUBSCRIPTS in EINSUM_SUBSCRIPTS


@pytest.mark.parametrize("subscripts", EINSUM_SUBSCRIPTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_bound_kernel_is_numpys_einsum(subscripts, data):
    terms = subscripts.split("->")[0].split(",")
    size = {label: data.draw(st.integers(1, 4), label)
            for label in sorted(set("".join(terms)))}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), "seed"))
    operands = []
    for term in terms:
        shape = [size[label] for label in term]
        # a one-state stack: its leading axis broadcasts against the others
        if len(term) > 1 and data.draw(st.booleans(), f"{term} one row"):
            shape[0] = 1
        # the transposed map's areas: a swapaxes view, which einsum sums in
        # the order of its strides
        if len(term) > 1 and data.draw(st.booleans(), f"{term} swapped"):
            a = rng.standard_normal(shape[:-2] + shape[:-3:-1])
            a = a.swapaxes(-1, -2)
        else:
            a = rng.standard_normal(shape)
        # terms of many sizes: another summation order would show
        operands.append(a * 10.0 ** rng.integers(-8, 9, a.shape))
    same_bits(c_einsum(subscripts, *operands),
              np.einsum(subscripts, *operands))


def per_pair_z(field, driver, transpose, x, s, t):
    """Area-linear Z of one state over one interval: the reference of every
    evaluation path of the canonical and transposed maps."""
    return area_linear_z(field(x), field.gradient(x), driver.area(s, t),
                         transpose)


def area_linear_case(seed, K, n, d, field_kind, transpose):
    """(field, driver, map, ss, tt, xs) with state dimension n, driver
    dimension d and K intervals, a quarter of them empty."""
    driver = lift_piecewise_linear(synth_midpoint_path(seed, 0.45, 6, d),
                                   alpha=0.45)
    field = build_field(field_kind, seed, d, n=n)
    z = (transposed_z if transpose else canonical_z)(field, driver)
    rng = np.random.default_rng(seed)
    ss, tt = np.sort(rng.uniform(0.0, 1.0, (2, K)), axis=0)
    tt[: K // 4] = ss[: K // 4]
    return field, driver, z, ss, tt, rng.uniform(-1.5, 1.5, (K, n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), K=st.integers(1, 12),
       n=st.integers(1, 3), d=st.integers(1, 3),
       field_kind=st.sampled_from(FIELD_KINDS), transpose=st.booleans())
def test_area_linear_call_is_the_per_pair_contraction(seed, K, n, d,
                                                      field_kind, transpose):
    field, driver, z, ss, tt, xs = area_linear_case(seed, K, n, d,
                                                    field_kind, transpose)
    for x, s, t in zip(xs, ss, tt):
        same_bits(z(x, s, t), per_pair_z(field, driver, transpose, x, s, t))


# With n = 1 and d = 2, numpy's einsum sums a stack of two or more rows in
# another order than a one-row stack: the one-interval grids of z(x, s, t)
# and the one-interval windows take the longer stack's order.
@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), K=st.integers(0, 12),
       field_kind=st.sampled_from(FIELD_KINDS), transpose=st.booleans())
def test_area_linear_grid_rows_are_the_per_pair_contraction(n, d, seed, K,
                                                            field_kind,
                                                            transpose):
    field, driver, z, ss, tt, xs = area_linear_case(seed, K, n, d,
                                                    field_kind, transpose)
    grid_z = z.on_grid(ss, tt)
    at_rows = np.reshape([per_pair_z(field, driver, transpose, x, s, t)
                          for x, s, t in zip(xs, ss, tt)], (K, n))
    same_bits(grid_z.rows(xs, 0, K), at_rows)
    x0 = np.zeros(n) if K == 0 else xs[0]
    every_rows = np.reshape([per_pair_z(field, driver, transpose, x0, s, t)
                             for s, t in zip(ss, tt)], (K, n))
    same_bits(grid_z.every(x0), every_rows)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), K=st.integers(0, 12),
       n=st.integers(1, 3), d=st.integers(1, 3),
       field_kind=st.sampled_from(FIELD_KINDS), transpose=st.booleans())
def test_area_linear_coefficient_contracts_the_drivers_raw_areas(
        seed, K, n, d, field_kind, transpose):
    field, driver, z, ss, tt, xs = area_linear_case(seed, K, n, d,
                                                    field_kind, transpose)
    f_x, grad_x = field.value_and_gradient_many(xs)
    coeff = z.coefficient_many(f_x, grad_x)
    assert coeff.shape == (K, n, d, d)
    areas = driver.area_many(ss, tt)
    # another order of summation: equal to a few ulps of the terms' sizes,
    # taken before the sum over m that forms K
    gap = (np.einsum("kiab,kab->ki", coeff, areas)
           - z.on_grid(ss, tt).rows(xs, 0, K))
    sizes = np.einsum(_Z_SUBSCRIPTS, np.abs(grad_x), np.abs(f_x),
                      z.oriented(np.abs(areas)))
    assert np.all(np.abs(gap) <= 1e-14 * sizes)
