import gc
import json
import weakref

import numpy as np
import pytest

from rdesplit import (Grid, SampledPath, VectorField, canonical_z,
                      check_z_bound, check_z_cocycle, check_z_lipschitz,
                      constant_field, convention_defect_max,
                      lift_piecewise_linear, linear_field, rough_probe_z,
                      scalar_driver, sine_field, transposed_z,
                      validate_gradient, zero_z)
from rdesplit.model import SecondOrderMap


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


def test_sine_field_hessian_matches_finite_differences():
    field = sine_field(2, 2, seed=1)
    rng = np.random.default_rng(1)
    step = 1e-5
    for x in sample_points(rng, 2, count=10):
        hess = field.hessian(x)
        for m in range(2):
            e = np.zeros(2)
            e[m] = step
            fd = (field.gradient(x + e) - field.gradient(x - e)) / (2 * step)
            assert np.max(np.abs(fd - hess[:, :, :, m])) <= 1e-4


def test_field_validation():
    with pytest.raises(ValueError):
        constant_field(np.zeros(3))
    with pytest.raises(ValueError):
        linear_field(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        VectorField(2, 2, lambda x: x, lambda x: x, gamma=2.0)


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
    scaled = drv.with_area(lambda s, t: 2.0 * drv.area(s, t))
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
    quad = field.gradient_product(x, field(x) @ drv.increment(s, u),
                                  drv.increment(u, t))
    assert np.max(np.abs(dz - quad)) == pytest.approx(d_bad, rel=1e-12)


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


def test_relaxed_exponent_overrides():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, gamma=2.5)
    z = canonical_z(field, drv)
    xs = [np.zeros(2)]
    grid = Grid(0.5, 8)  # pair distances < 1, so the exponent matters
    default = check_z_bound(z, xs, grid, 0.5)
    relaxed = check_z_bound(z, xs, grid, 0.5, exponent=(2.5 - 1.0) * 0.5)
    assert relaxed.exponents["time"] == pytest.approx(0.75)
    assert relaxed.max_ratio != default.max_ratio


def test_check_report_witness_reproduces_maximum():
    drv = l_driver()
    field = sine_field(2, 2, seed=3, amplitude=0.8)
    z = canonical_z(field, drv)
    rng = np.random.default_rng(8)
    xs = sample_points(rng, 2, count=5)
    rep = check_z_bound(z, xs, Grid(1.0, 12), 0.5)
    re_ratio = (np.linalg.norm(z(rep.witness_x, rep.witness_s, rep.witness_t))
                / (rep.witness_t - rep.witness_s) ** 1.0)
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
