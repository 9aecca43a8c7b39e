import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rdesplit import (Grid, NumericFailure, RoughDriver, SampledPath,
                      VectorField, canonical_z, constant_field,
                      hoelder_seminorm, lift_piecewise_linear, linear_field,
                      scalar_driver, sine_field, smooth_path, solve_many,
                      solve_milstein, solve_ode_reference, solve_split,
                      synth_midpoint_path, transposed_z, write_trajectory_csv,
                      zero_z)
from rdesplit import model, splitting_solver
from rdesplit.convergence_lab import joined_samples, quarter_times
from rdesplit.splitting_solver import (CSV_BLOCK, SCHEMES, MilsteinTrajectory,
                                       SplitTrajectory, _march)

from builders import (DRIVER_KINDS, FIELD_KINDS, Z_KINDS, build_driver,
                      build_field, build_z, coordinate_changed,
                      midpoints_inserted, with_area)
from references import trajectory_csv_joined

Y0 = np.array([0.1, -0.2])


def reference_split(driver, field, z, y0, grid):
    """The split scheme as a per-interval loop of scalar driver and Z queries."""
    pts = grid.points
    u, v = [np.asarray(y0, dtype=float)], []
    # a blow-up is reported by the finite check below, as in the solver
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.N):
            s, t = pts[j], pts[j + 1]
            vj = u[-1] + field(u[-1]) @ driver.increment(s, t)
            u_next = vj + z(vj, s, t)
            if not np.isfinite(u_next).all():
                raise NumericFailure("reference split left finite range",
                                     step=j + 1)
            v.append(vj)
            u.append(u_next)
    return np.array(u), np.array(v)


def reference_milstein(driver, field, z, y0, grid):
    """The Milstein scheme as a per-interval loop of scalar queries."""
    pts = grid.points
    values = [np.asarray(y0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.N):
            s, t = pts[j], pts[j + 1]
            y = values[-1]
            y_next = y + field(y) @ driver.increment(s, t) + z(y, s, t)
            if not np.isfinite(y_next).all():
                raise NumericFailure("reference Milstein left finite range",
                                     step=j + 1)
            values.append(y_next)
    return np.array(values)


REFERENCES = {"split": reference_split, "milstein": reference_milstein}


def scheme_sets(M):
    """Every member split, every member Milstein, and the schemes in turn."""
    return (["split"] * M, ["milstein"] * M,
            [SCHEMES[k % 2] for k in range(M)])


def smooth_setup(segments=2**12, field_seed=1):
    path = smooth_path(d=2, segments=segments)
    driver = lift_piecewise_linear(path, alpha=0.5)
    field = sine_field(2, 2, seed=field_seed, amplitude=0.8)
    return path, driver, field, canonical_z(field, driver)


# ---------------------------------------------------------------- one split step
# One-interval solves: (v, u_next) are traj.v[0] and traj.u[1].

def test_split_step_zero_field_first_stage_identity():
    _, driver, _, z = smooth_setup(segments=64)
    field = constant_field(np.zeros((2, 2)))
    u = np.array([0.4, 0.6])
    traj = solve_split(driver, field, z, u, Grid(0.25, 1))
    assert np.array_equal(traj.v[0], u)
    assert np.allclose(traj.u[1], u + z(u, 0.0, 0.25))


def test_split_step_zero_z_is_euler():
    drv = scalar_driver(lambda t: 0.3 * t)
    field = constant_field([[1.0]])
    traj = solve_split(drv, field, zero_z(1), np.array([0.0]), Grid(1.0, 1))
    assert traj.v[0, 0] == pytest.approx(0.3)
    assert traj.u[1, 0] == pytest.approx(0.3)


def test_split_step_scalar_linear_against_exponential_flow():
    # f(y) = y over X(t) = 0.1 t: one step from 1 lands at 1.1055 while the
    # exact flow gives exp(0.1); the one-step defect is O(h^{3 alpha})
    drv = scalar_driver(lambda t: 0.1 * t)
    field = linear_field(np.ones((1, 1, 1)))
    z = canonical_z(field, drv)
    traj = solve_split(drv, field, z, np.array([1.0]), Grid(1.0, 1))
    assert traj.v[0, 0] == pytest.approx(1.1, abs=1e-14)
    assert traj.u[1, 0] == pytest.approx(1.1055, abs=1e-14)
    assert abs(traj.u[1, 0] - np.exp(0.1)) < 5e-4


def test_split_step_validation():
    # a non-finite start fails before the first step
    _, driver, field, z = smooth_setup(segments=64)
    with pytest.raises(NumericFailure, match="non-finite initial state") as err:
        solve_split(driver, field, z, np.array([np.inf, 0.0]), Grid(0.5, 1))
    assert err.value.step == 0


def test_milstein_one_step_differs_by_z_argument_shift():
    drv = scalar_driver(lambda t: 0.1 * t)
    field = linear_field(np.ones((1, 1, 1)))
    z = canonical_z(field, drv)
    grid = Grid(1.0, 1)
    mil = solve_milstein(drv, field, z, np.array([1.0]), grid)
    assert mil.values[-1, 0] == pytest.approx(1.105, abs=1e-14)
    split = solve_split(drv, field, z, np.array([1.0]), grid)
    assert split.u[-1, 0] == pytest.approx(1.1055, abs=1e-14)


# ---------------------------------------------------------------- solve_split

def test_solve_split_single_step_is_the_reference_loop():
    _, driver, field, z = smooth_setup(segments=64)
    grid = Grid(1.0, 1)
    traj = solve_split(driver, field, z, Y0, grid)
    u, v = reference_split(driver, field, z, Y0, grid)
    same_bits(traj.u, u)
    same_bits(traj.v, v)


def test_solve_split_zero_problem_constant():
    _, driver, _, _ = smooth_setup(segments=64)
    field = constant_field(np.zeros((2, 2)))
    traj = solve_split(driver, field, zero_z(2), Y0, Grid(1.0, 16))
    assert np.all(traj.u == Y0)


def test_trajectory_invariants_recompute():
    _, driver, field, z = smooth_setup(segments=256)
    grid = Grid(1.0, 32)
    traj = solve_split(driver, field, z, Y0, grid)
    pts = grid.points
    for j in range(grid.N):
        v = traj.u[j] + field(traj.u[j]) @ driver.increment(pts[j], pts[j + 1])
        assert np.max(np.abs(v - traj.v[j])) <= 1e-12
        u_next = traj.v[j] + z(traj.v[j], pts[j], pts[j + 1])
        assert np.max(np.abs(u_next - traj.u[j + 1])) <= 1e-12


def test_milstein_invariant_recomputes():
    _, driver, field, z = smooth_setup(segments=256)
    grid = Grid(1.0, 16)
    traj = solve_milstein(driver, field, z, Y0, grid)
    pts = grid.points
    for j in range(grid.N):
        y = (traj.values[j] + field(traj.values[j]) @ driver.increment(pts[j], pts[j + 1])
             + z(traj.values[j], pts[j], pts[j + 1]))
        assert np.max(np.abs(y - traj.values[j + 1])) <= 1e-12


def test_solve_deterministic():
    _, driver, field, z = smooth_setup(segments=256)
    a = solve_split(driver, field, z, Y0, Grid(1.0, 64))
    b = solve_split(driver, field, z, Y0, Grid(1.0, 64))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)


def test_euler_degeneration_split_equals_milstein():
    _, driver, field, _ = smooth_setup(segments=256)
    z = zero_z(2)
    grid = Grid(1.0, 64)
    split = solve_split(driver, field, z, Y0, grid)
    mil = solve_milstein(driver, field, z, Y0, grid)
    assert np.max(np.abs(split.u - mil.values)) <= 1e-12


def cubic_field():
    # cubic growth pushes the state over the float range in a few steps
    return VectorField(
        1, 1,
        lambda x: np.array([[x[0] ** 3]]),
        lambda x: np.array([[[3.0 * x[0] ** 2]]]),
        gamma=3.0, name="cubic",
    )


def failure_step(solve, *args):
    with pytest.raises(NumericFailure) as err:
        solve(*args)
    return err.value.step


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_raises_numeric_failure_with_step():
    field = cubic_field()
    drv = scalar_driver(lambda t: t)
    for z, expected in ((zero_z(1), 10), (canonical_z(field, drv), 5)):
        args = (drv, field, z, np.array([4.0]), Grid(1.0, 64))
        assert failure_step(reference_split, *args) == expected
        assert failure_step(solve_split, *args) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_milstein_blow_up_raises_numeric_failure_with_step():
    field = cubic_field()
    drv = scalar_driver(lambda t: t)
    for z, expected in ((zero_z(1), 10), (canonical_z(field, drv), 7)):
        args = (drv, field, z, np.array([4.0]), Grid(1.0, 64))
        assert failure_step(reference_milstein, *args) == expected
        assert failure_step(solve_milstein, *args) == expected


def math_cubic_field():
    # the cubic field through math.cos, which raises on an infinite state
    # where numpy would return NaN
    return VectorField(
        1, 1,
        lambda x: np.array([[x[0] ** 3 + 0.0 * math.cos(x[0])]]),
        lambda x: np.array([[[3.0 * x[0] ** 2]]]),
        gamma=3.0, name="math-cubic",
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocked_finite_check_reports_the_first_failing_step(monkeypatch,
                                                             block):
    monkeypatch.setattr(splitting_solver, "FINITE_BLOCK", block)
    drv = scalar_driver(lambda t: t)
    field = cubic_field()
    cases = [
        # the cases of the blow-up tests above: steps 10, 5 and 7
        (field, zero_z(1), 4.0, Grid(1.0, 64)),
        (field, canonical_z(field, drv), 4.0, Grid(1.0, 64)),
        # past the first block of 64 steps (66 to 74), and past several
        # (258 to 268)
        (field, zero_z(1), 2.0, Grid(1.0, 512)),
        (field, canonical_z(field, drv), 2.0, Grid(1.0, 512)),
        (field, canonical_z(field, drv), 1.0, Grid(1.0, 512)),
        # a field that raises on the infinite state carried on in its block
        (math_cubic_field(), zero_z(1), 2.0, Grid(1.0, 512)),
    ]
    for field, z, y0, grid in cases:
        for solve, reference in ((solve_split, reference_split),
                                 (solve_milstein, reference_milstein)):
            args = (drv, field, z, np.array([y0]), grid)
            expected = failure_step(reference, *args)
            assert failure_step(solve, *args) == expected
            # the same blow-up on the last step of a grid
            last = (drv, field, z, np.array([y0]),
                    Grid(grid.T * expected / grid.N, expected))
            assert failure_step(reference, *last) == expected
            assert failure_step(solve, *last) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_failure_names_the_failing_member():
    field = cubic_field()
    steep = scalar_driver(lambda t: t)
    mild = scalar_driver(lambda t: 0.01 * t)
    grid = Grid(1.0, 64)
    y0 = np.array([4.0])
    members = [(mild, field, canonical_z(field, mild), y0),
               (steep, field, canonical_z(field, steep), y0)]
    solve_split(*members[0], grid)  # the mild member alone stays finite
    for schemes in scheme_sets(2):
        with pytest.raises(NumericFailure) as err:
            _march(members, [grid] * len(members), schemes)
        # the member is carried on the exception, not in the message
        assert err.value.member == 1 and "member" not in str(err.value)
        assert err.value.step == failure_step(REFERENCES[schemes[1]],
                                              *members[1], grid)
    # a single solve names member 0 without mentioning members
    with pytest.raises(NumericFailure) as err:
        solve_split(*members[1], grid)
    assert err.value.member == 0 and "member" not in str(err.value)


def test_non_finite_initial_state_is_numeric_failure():
    _, driver, field, z = smooth_setup(segments=64)
    with pytest.raises(NumericFailure):
        solve_split(driver, field, z, np.array([np.nan, 0.0]), Grid(1.0, 4))


def test_dimension_mismatch_rejected():
    _, driver, _, _ = smooth_setup(segments=64)
    field = sine_field(3, 2, seed=1)
    z = canonical_z(field, driver)
    with pytest.raises(ValueError):
        solve_split(driver, field, z, Y0, Grid(1.0, 4))  # y0 has wrong length


# ---------------------------------------------------------------- batch stepping

def _outcome(solve, *args):
    """(result, None), or (None, failing step) on NumericFailure."""
    try:
        return solve(*args), None
    except NumericFailure as exc:
        return None, exc.step


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), N=st.integers(1, 64),
       driver_kind=st.sampled_from(DRIVER_KINDS),
       field_kind=st.sampled_from(FIELD_KINDS),
       z_kind=st.sampled_from(("canonical", "transposed", "zero",
                               "rough-probe", "scaled-area")))
def test_solves_match_scalar_reference_loop_bitwise(seed, N, driver_kind,
                                                    field_kind, z_kind):
    driver = build_driver(driver_kind, seed)
    field = build_field(field_kind, seed, driver.dim)
    z = build_z(z_kind, field, driver)
    args = (driver, field, z, Y0, Grid(1.0, N))
    split, split_failed = _outcome(solve_split, *args)
    ref, ref_failed = _outcome(reference_split, *args)
    assert split_failed == ref_failed
    if ref is not None:
        assert np.array_equal(split.u, ref[0])
        assert np.array_equal(split.v, ref[1])
    milstein, milstein_failed = _outcome(solve_milstein, *args)
    ref, ref_failed = _outcome(reference_milstein, *args)
    assert milstein_failed == ref_failed
    if ref is not None:
        assert np.array_equal(milstein.values, ref)


def _reference_outcome(reference, member, grid):
    """The reference values (u, v) or (values, None), or the failing step."""
    values, step = _outcome(reference, *member, grid)
    if step is not None:
        return None, step
    return (values if isinstance(values, tuple) else (values, None)), None


# The driver kinds of each driver dimension: the members of one march share
# one field shape (n, d).
DRIVERS_BY_DIMENSION = (("synthetic", "smooth"), ("scalar",))


def march_specs(driver_kinds):
    """1 to 4 members as (driver kind, map kind, seed, N, scheme), on
    drivers of one dimension drawn from ``driver_kinds``."""
    dimensions = [tuple(k for k in kinds if k in driver_kinds)
                  for kinds in DRIVERS_BY_DIMENSION]
    return st.sampled_from([kinds for kinds in dimensions if kinds]).flatmap(
        lambda kinds: st.lists(
            st.tuples(st.sampled_from(kinds),
                      st.sampled_from(("canonical", "scaled-area",
                                       "transposed", "zero", "rough-probe",
                                       "nan-probe", "late-nan")),
                      st.integers(0, 2**16), st.integers(1, 40),
                      st.sampled_from(SCHEMES)),
            min_size=1, max_size=4))


def assert_march_outcomes(specs, field_kind, shared, n=2):
    """A march of the members ``specs``, each on its own grid and with its
    own scheme, with state dimension n: bitwise their reference loops, or
    the first failure over both schemes.  With ``shared``, every member
    holds one field object."""
    members = []
    y0 = np.resize(Y0, n)
    for k, (driver_kind, z_kind, seed, *_) in enumerate(specs):
        driver = build_driver(driver_kind, seed)
        if shared and members:
            field = members[0][1]
        else:
            field = build_field(field_kind, 0 if shared else seed,
                                driver.dim, n=n)
        members.append((driver, field, build_z(z_kind, field, driver),
                        y0 + 0.125 * k))
    grids = [Grid(1.0, N) for *_, N, _ in specs]
    schemes = [scheme for *_, scheme in specs]
    expected = [_reference_outcome(REFERENCES[scheme], m, grid)
                for m, grid, scheme in zip(members, grids, schemes)]
    failures = [(step, k) for k, (_, step) in enumerate(expected)
                if step is not None]
    try:
        u, v = _march(members, grids, schemes)
    except NumericFailure as exc:
        assert (exc.step, exc.member) == min(failures)
        return
    assert not failures
    for k, ((ref_u, ref_v), _) in enumerate(expected):
        same_bits(u[k], ref_u)
        if ref_v is None:
            assert v[k] is None
        else:
            same_bits(v[k], ref_v)


@settings(max_examples=80, deadline=None)
@given(specs=march_specs(DRIVER_KINDS),
       field_kind=st.sampled_from(FIELD_KINDS), shared=st.booleans())
# one shared preset field and area-linear maps: the stacked path, on one
# grid and on three, with one scheme and with both
@example(specs=[("synthetic", "canonical", 1, 9, "split"),
                ("synthetic", "scaled-area", 2, 9, "split"),
                ("smooth", "canonical", 3, 9, "split")],
         field_kind="sine", shared=True)
@example(specs=[("synthetic", "canonical", 1, 9, "milstein"),
                ("synthetic", "scaled-area", 2, 9, "milstein"),
                ("smooth", "canonical", 3, 9, "milstein")],
         field_kind="sine", shared=True)
@example(specs=[("synthetic", "canonical", 1, 9, "split"),
                ("synthetic", "canonical", 2, 36, "milstein"),
                ("smooth", "canonical", 3, 18, "split")],
         field_kind="sine", shared=True)
@example(specs=[("synthetic", "transposed", 1, 5, "milstein"),
                ("smooth", "transposed", 2, 40, "split"),
                ("synthetic", "transposed", 3, 5, "split"),
                ("smooth", "transposed", 4, 17, "milstein")],
         field_kind="linear", shared=True)
@example(specs=[("scalar", "canonical", 1, 5, "split"),
                ("scalar", "scaled-area", 2, 5, "milstein")],
         field_kind="linear", shared=True)
# the layout of compare-schemes: both schemes on one driver at N, 2N and 4N,
# sharing each grid's increment and area queries
@example(specs=[("smooth", "canonical", 1, N, scheme)
                for scheme in SCHEMES for N in (5, 10, 20)],
         field_kind="sine", shared=True)
# maps that do not read the state: one array of rows
@example(specs=[("synthetic", "zero", 1, 3, "split"),
                ("smooth", "rough-probe", 2, 31, "milstein"),
                ("synthetic", "rough-probe", 3, 12, "split")],
         field_kind="sine", shared=True)
# a plain-callable field per member and a NaN map: per-row rows
@example(specs=[("synthetic", "nan-probe", 1, 2, "split"),
                ("smooth", "canonical", 2, 2, "milstein")],
         field_kind="callable", shared=False)
@example(specs=[("synthetic", "nan-probe", 1, 7, "milstein"),
                ("synthetic", "canonical", 2, 1, "split"),
                ("smooth", "nan-probe", 3, 2, "split")],
         field_kind="callable", shared=False)
# a short member finishes before a longer one fails at step 7
@example(specs=[("scalar", "canonical", 1, 2, "milstein"),
                ("scalar", "late-nan", 2, 8, "split")],
         field_kind="sine", shared=True)
# members on different grids fail at the same step (4): the lower one is
# named, though the longer grid marches first, whatever their schemes
@example(specs=[("scalar", "late-nan", 1, 4, "split"),
                ("scalar", "late-nan", 2, 5, "split")],
         field_kind="linear", shared=False)
@example(specs=[("scalar", "late-nan", 1, 4, "milstein"),
                ("scalar", "late-nan", 2, 5, "split")],
         field_kind="linear", shared=False)
# a Milstein member fails at step 4, before a split member listed first
# fails at step 7: the earliest step is named, not the first scheme
@example(specs=[("scalar", "late-nan", 1, 8, "split"),
                ("scalar", "late-nan", 2, 4, "milstein")],
         field_kind="linear", shared=False)
def test_every_member_of_a_march_is_its_reference_loop(specs, field_kind,
                                                       shared):
    assert_march_outcomes(specs, field_kind, shared)


@pytest.mark.parametrize("n,driver_kinds", [(1, DRIVER_KINDS),
                                             (3, DRIVER_KINDS)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_march_members_of_another_state_dimension_are_their_reference_loops(
        n, driver_kinds, data):
    assert_march_outcomes(data.draw(march_specs(driver_kinds)),
                          data.draw(st.sampled_from(FIELD_KINDS)),
                          data.draw(st.booleans()), n=n)


# With n = 1 and d = 2, numpy's einsum sums a stack of two or more Z rows
# in another order than a one-row stack, so a single step's one-interval
# window is contracted as a two-row stack.  Fields built from plain
# callables stack too, and so do members on different grids while two or
# more of them step.
@pytest.mark.parametrize("field_kind,Ns", [
    pytest.param("sine", (32,) * 4, id="sine"),
    pytest.param("callable", (32,) * 4, id="callable"),
    pytest.param("sine", (8, 16, 32), id="sine-mixed-grids"),
])
def test_stacked_march_with_one_state_and_two_driver_dimensions(field_kind,
                                                                Ns):
    for scheme in SCHEMES:
        assert_march_outcomes([("synthetic", "canonical", seed, N, scheme)
                               for seed, N in enumerate(Ns)], field_kind,
                              True, n=1)


def assert_reference_loops(members, grid):
    """Split, Milstein and mixed marches of ``members``, bitwise their
    reference loops."""
    for schemes in scheme_sets(len(members)):
        u, v = _march(members, [grid] * len(members), schemes)
        for k, (member, scheme) in enumerate(zip(members, schemes)):
            expected = REFERENCES[scheme](*member, grid)
            if scheme == "milstein":
                same_bits(u[k], expected)
                assert v[k] is None
            else:
                same_bits(u[k], expected[0])
                same_bits(v[k], expected[1])


def test_maps_on_the_first_members_field_do_not_stack_other_fields():
    # every map is area-linear on member 0's field, but member 1 has its own
    # field and driver: its drift must use them, and the stacked drift of a
    # shared field must not be taken, while Z, on the maps' one field, may
    # be one contraction
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    driver = build_driver("synthetic", 1)
    z = canonical_z(field, driver)
    members = [(driver, field, z, Y0),
               (build_driver("synthetic", 2), build_field("sine", 2, 2), z,
                Y0 + 0.125),
               (build_driver("synthetic", 3), field, z, Y0 - 0.125)]
    assert_reference_loops(members, Grid(1.0, 12))


@pytest.mark.parametrize("n,d", [(3, 2), (2, 1)])
def test_members_of_another_field_shape_are_rejected(n, d):
    # a member whose field has another (n, d) than member 0's is rejected
    # before the driver is queried
    def unqueried(*args):
        raise AssertionError("driver queried")

    drivers = [RoughDriver(dim, 0.5, unqueried, unqueried,
                           increment_many_fn=unqueried,
                           area_many_fn=unqueried) for dim in (2, d)]
    fields = [sine_field(2, 2, seed=1), sine_field(n, d, seed=2)]
    members = [(driver, field, zero_z(field.n), np.zeros(field.n))
               for driver, field in zip(drivers, fields)]
    with pytest.raises(ValueError, match=rf"\(2, 2\) and \({n}, {d}\)"):
        solve_many(members, [Grid(1.0, 4)] * 2, list(SCHEMES))


def test_maps_on_another_field_than_the_shared_one_are_not_stacked():
    # the members share one field, but every map is built on another: the
    # maps' own field must give Z
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    other = sine_field(2, 2, seed=2, amplitude=0.8)
    members = []
    for k in range(2):
        driver = build_driver("synthetic", k)
        members.append((driver, field, canonical_z(other, driver),
                        Y0 + 0.125 * k))
    assert_reference_loops(members, Grid(1.0, 12))


@pytest.mark.parametrize("makes,stacks", [
    ((transposed_z,) * 4, True),
    ((canonical_z, transposed_z, transposed_z, canonical_z), False),
])
def test_maps_of_one_kind_on_a_shared_field_stack(makes, stacks):
    sine = sine_field(2, 2, seed=1, amplitude=0.8)
    calls = Counter()

    def counted(name, fn):
        def wrapper(xs):
            calls[name, len(xs)] += 1
            return fn(xs)
        return wrapper

    # the stacked hooks of the preset, counted
    field = VectorField(
        2, 2, sine.__call__, sine.gradient, gamma=sine.gamma,
        value_and_grad_many_fn=counted("fused", sine.value_and_gradient_many),
        value_many_fn=counted("values", sine.value_many))
    members = []
    for seed, make in enumerate(makes):
        driver = build_driver("synthetic", seed)
        members.append((driver, field, make(field, driver), Y0 + 0.125 * seed))
    N = 16
    grid = Grid(1.0, N)
    for schemes in scheme_sets(len(members)):
        calls.clear()
        _march(members, [grid] * len(members), schemes)
        # either scheme takes f from the values hook and Z from the fused
        # one, so a Milstein step evaluates f twice
        if stacks:
            # one stacked evaluation of all four members per stage and step
            expected = {("values", 4): N, ("fused", 4): N}
        else:
            # einsum sums canonical and transposed areas in different
            # orders, so a mix is contracted one member row at a time
            expected = {("values", 4): N, ("fused", 1): 4 * N}
        assert calls == expected
    assert_reference_loops(members, grid)


def test_maps_that_do_not_read_the_state_are_not_called_per_step(
        monkeypatch):
    calls = Counter()
    call = model._TimeOnlyZ.__call__

    def counted(self, x, s, t):
        calls[self.name] += 1
        return call(self, x, s, t)

    monkeypatch.setattr(model._TimeOnlyZ, "__call__", counted)
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    members = []
    for seed, kind in enumerate(["zero", "rough-probe"] * 2):
        driver = build_driver("synthetic", seed)
        members.append((driver, field, build_z(kind, field, driver),
                        Y0 + 0.125 * seed))
    for schemes in scheme_sets(len(members)):
        _march(members, [Grid(1.0, 16)] * len(members), schemes)
    assert not calls
    assert_reference_loops(members, Grid(1.0, 16))


def test_sixty_four_stacked_members_are_their_reference_loops():
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    members = []
    for seed in range(64):
        driver = build_driver("synthetic", seed)
        members.append((driver, field, canonical_z(field, driver), Y0))
    assert_reference_loops(members, Grid(1.0, 24))


def test_solves_query_a_batch_driver_once_per_solve():
    lifted = lift_piecewise_linear(smooth_path(d=2, segments=256))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    driver = RoughDriver(
        2, 0.5, counted("increment", lifted.increment),
        counted("area", lifted.area), span=lifted.span,
        increment_many_fn=counted("increment_many", lifted.increment_many),
        area_many_fn=counted("area_many", lifted.area_many))
    field = sine_field(2, 2, seed=1, amplitude=0.8)
    z = canonical_z(field, driver)
    solve_split(driver, field, z, Y0, Grid(1.0, 32))
    solve_milstein(driver, field, z, Y0, Grid(1.0, 32))
    assert calls == {"increment_many": 2, "area_many": 2}
    # members on one driver and one grid share a query, whatever their
    # schemes; equal grids count as one grid
    calls.clear()
    grids = [Grid(1.0, 32), Grid(1.0, 64), Grid(1.0, 32)]
    trajs = solve_many([(driver, field, z, Y0)] * 3, grids,
                       ["split", "split", "milstein"])
    assert calls == {"increment_many": 2, "area_many": 2}
    same_bits(trajs[0].u, solve_split(driver, field, z, Y0, grids[0]).u)
    same_bits(trajs[2].values,
              solve_milstein(driver, field, z, Y0, grids[2]).values)


def test_solve_many_needs_a_grid_and_a_known_scheme_per_member():
    _, driver, field, z = smooth_setup(segments=64)
    member, grid = (driver, field, z, Y0), Grid(1.0, 4)
    cases = [
        (([], [], []), "need at least one member"),
        (([member] * 2, [grid], ["split"] * 2),
         "2 members need as many grids, got 1"),
        (([member] * 2, [grid] * 2, ["split"] * 3),
         "2 members need as many schemes, got 3"),
        (([member], [grid], ["euler"]),
         f"scheme must be one of {SCHEMES}, got 'euler'"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            solve_many(*args)
        assert str(err.value) == message


# ---------------------------------------------------------------- joined path

def test_eval_joined_matches_grid_and_half_points():
    _, driver, field, z = smooth_setup(segments=256)
    grid = Grid(1.0, 16)
    traj = solve_split(driver, field, z, Y0, grid)
    pts = grid.points
    for j in range(grid.N + 1):
        assert np.array_equal(traj.eval_joined(pts[j]), traj.u[j])
    for j in range(grid.N):
        half = pts[j] + 0.5 * grid.h
        assert np.allclose(traj.eval_joined(half), traj.v[j], rtol=0, atol=1e-15)


def test_eval_joined_first_half_formula_constant_field():
    # constant coefficient: first half-interval moves along c X at double speed
    _, driver, _, _ = smooth_setup(segments=256)
    c = np.array([[1.0, 2.0], [0.5, -1.0]])
    field = constant_field(c)
    z = zero_z(2)
    grid = Grid(1.0, 8)
    traj = solve_split(driver, field, z, Y0, grid)
    j = 3
    t = grid.points[j] + grid.h / 4.0
    expected = traj.u[j] + c @ driver.increment(grid.points[j],
                                                grid.points[j] + grid.h / 2.0)
    assert np.allclose(traj.eval_joined(t), expected, rtol=1e-14)


def test_eval_joined_rejects_out_of_range():
    _, driver, field, z = smooth_setup(segments=64)
    traj = solve_split(driver, field, z, Y0, Grid(1.0, 4))
    with pytest.raises(ValueError):
        traj.eval_joined(-0.1)
    with pytest.raises(ValueError):
        traj.eval_joined(1.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_eval_joined_rejects_non_finite_times(bad):
    # NaN passes both range comparisons, so it needs its own test
    _, driver, field, z = smooth_setup(segments=64)
    traj = solve_split(driver, field, z, Y0, Grid(1.0, 4))
    with pytest.raises(ValueError, match="outside"):
        traj.eval_joined(bad)
    # one bad entry rejects the whole array
    with pytest.raises(ValueError, match="outside"):
        traj.eval_joined(np.array([0.0, 0.3, bad, 1.0]))


def reference_joined(traj, t):
    """The joined path at one time, with scalar driver and Z queries."""
    pts = traj.grid.points
    T = traj.grid.T
    t = min(max(t, 0.0), T)
    j = int(np.searchsorted(pts, t, side="right")) - 1
    j = min(max(j, 0), traj.grid.N - 1)
    left, right = pts[j], pts[j + 1]
    local = t - left
    half = 0.5 * (right - left)
    if local <= half:
        return traj.u[j] + traj.field(traj.u[j]) @ traj.driver.increment(
            left, left + 2.0 * local)
    return traj.v[j] + traj.z(traj.v[j], left, left + 2.0 * (local - half))


def same_bits(got, expected):
    """Equal shapes and bit patterns (NaN payloads and signed zeros too)."""
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), N=st.integers(1, 40),
       driver_kind=st.sampled_from(DRIVER_KINDS + ("with-area",)),
       field_kind=st.sampled_from(FIELD_KINDS),
       z_kind=st.sampled_from(Z_KINDS))
# N = 1: second halves reach past length 0.4, where the NaN map is NaN
@example(seed=0, N=1, driver_kind="synthetic", field_kind="sine",
         z_kind="nan-probe")
def test_eval_joined_matches_per_time_reference_bitwise(seed, N, driver_kind,
                                                        field_kind, z_kind):
    if driver_kind == "with-area":
        # a lifted path without batch hooks: batch queries fall back to
        # scalar ones
        lifted = build_driver("synthetic", seed)
        driver = with_area(lifted, lifted.area)
    else:
        driver = build_driver(driver_kind, seed)
    field = build_field(field_kind, seed, driver.dim)
    z = build_z(z_kind, field, driver)
    grid = Grid(1.0, N)
    try:
        # a NaN map cannot be solved with; the joined path still uses it
        traj = solve_split(driver, field,
                           zero_z(2) if z_kind == "nan-probe" else z, Y0, grid)
    except NumericFailure:
        assume(False)
    traj = dataclasses.replace(traj, z=z)
    tol = 1e-12 * grid.T
    times = np.concatenate([
        quarter_times(grid),  # grid, quarter and half points, in order
        [-0.5 * tol, grid.T + 0.5 * tol, -0.0],
        np.random.default_rng(seed).uniform(0.0, grid.T, 16),
    ])
    expected = np.array([reference_joined(traj, t) for t in times.tolist()])
    same_bits(traj.eval_joined(times), expected)
    same_bits(joined_samples(traj, times), expected)
    same_bits(traj.eval_joined(times[::-1]), expected[::-1])
    same_bits(traj.eval_joined(times[:0]), expected[:0])
    for t in times[[0, 1, 2, -1]].tolist():
        same_bits(traj.eval_joined(t), reference_joined(traj, t))


def test_joined_path_hoelder_bounded_under_refinement():
    path, driver, field, z = smooth_setup(segments=2**12)
    seminorms = []
    for N in (16, 32, 64, 128):
        grid = Grid(1.0, N)
        traj = solve_split(driver, field, z, Y0, grid)
        times = quarter_times(grid)
        sample = SampledPath(times, joined_samples(traj, times))
        seminorms.append(hoelder_seminorm(sample, driver.alpha))
    assert max(seminorms) / min(seminorms) <= 2.0


# ------------------------------------------------- the equation's structure
# Checks that need no reference of the same arithmetic: the same equation
# written in other driver coordinates or on refined segments has the same
# solution, and around a closed loop only the canonical map moves the
# solution by the right bracket term.

# Largest gap between two solves of one equation, in ulp(max|u|).  The
# gaps are rounding amplified by the flow: 2,000 probe draws of the
# strategy below stayed under 170 ulp but once, at 580 (sine field,
# N = 36).  A wrong formula moves u by about 1e-3, some 1e12 ulp.
SAME_EQUATION_ULPS = 4096

SAME_EQUATION = dict(seed=st.integers(0, 2**16), N=st.integers(4, 64),
                     kind=st.sampled_from(["constant", "linear", "sine",
                                           "callable"]))


def assert_same_solutions(driver, field, other_driver, other_field, y0,
                          grid):
    """Both schemes, with the canonical and the transposed map, solve to
    within SAME_EQUATION_ULPS of each other on the two setups."""
    for solve in (solve_split, solve_milstein):
        for make_z in (canonical_z, transposed_z):
            u, other = (grid_values(solve(drv, f, make_z(f, drv), y0, grid))
                        for drv, f in ((driver, field),
                                       (other_driver, other_field)))
            gap = np.max(np.abs(other - u))
            assert gap <= SAME_EQUATION_ULPS * np.spacing(np.max(np.abs(u))), (
                solve.__name__, make_z.__name__, gap)


def grid_values(traj):
    """The grid values of a split or a Milstein trajectory."""
    return traj.u if isinstance(traj, SplitTrajectory) else traj.values


@settings(max_examples=25, deadline=None)
@given(**SAME_EQUATION)
def test_a_linear_change_of_driver_coordinates_keeps_the_solution(seed, N,
                                                                  kind):
    # X' = M X and f' = f M⁻¹ give f' X' = f X and ∇f' f' 𝕏' = ∇f f 𝕏
    rng = np.random.default_rng(seed)
    # M = U S Vᵀ with singular values in [0.5, 2]: condition number <= 4
    (u_mat, _), (v_mat, _) = (np.linalg.qr(rng.standard_normal((2, 2)))
                              for _ in range(2))
    M = u_mat @ np.diag(rng.uniform(0.5, 2.0, 2)) @ v_mat.T
    path = synth_midpoint_path(seed, 0.45, 8, 2)
    field = build_field(kind, seed, 2)
    assert_same_solutions(
        lift_piecewise_linear(path, alpha=0.45), field,
        lift_piecewise_linear(SampledPath(path.times, path.values @ M.T),
                              alpha=0.45),
        coordinate_changed(field, M), rng.uniform(-1.0, 1.0, 2),
        Grid(1.0, N))


@settings(max_examples=25, deadline=None)
@given(**SAME_EQUATION)
def test_inserting_every_segments_midpoint_keeps_the_solution(seed, N, kind):
    # the piecewise-linear path is unchanged, and so are the grid's
    # increments and areas
    rng = np.random.default_rng(seed)
    path = synth_midpoint_path(seed, 0.45, 8, 2)
    field = build_field(kind, seed, 2)
    assert_same_solutions(
        lift_piecewise_linear(path, alpha=0.45), field,
        lift_piecewise_linear(midpoints_inserted(path), alpha=0.45), field,
        rng.uniform(-1.0, 1.0, 2), Grid(1.0, N))


def square_loop(eps):
    """A closed square of side ``eps``, one side per quarter of [0, 1]: no
    increment, Lévy area eps²."""
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    return SampledPath(np.linspace(0.0, 1.0, 5), eps * np.array(corners))


@pytest.mark.parametrize("kind, seed, y0", [
    pytest.param("sine", 1, (0.1, -0.2), id="sine"),
    pytest.param("linear", 11, (0.7, 0.4), id="linear"),
])
def test_one_split_step_around_a_loop_takes_the_bracket_of_the_canonical_map(
        kind, seed, y0):
    # around the loop the solution moves by the Lie bracket [f_1, f_2]
    # times the area, to leading order.  The canonical map carries that
    # term, so one step errs by O(eps³), 8x less per halving of eps.  The
    # zero map leaves it out and the transposed map flips its sign: O(eps²),
    # 4x less per halving
    field = build_field(kind, seed, 2)
    grid = Grid(1.0, 1)
    errors = {"canonical": [], "zero": [], "transposed": []}
    for eps in (0.2, 0.1, 0.05):
        path = square_loop(eps)
        driver = lift_piecewise_linear(path)
        # 1,024 RK4 substeps on each side of the square: aligned with it
        truth = solve_ode_reference(path, field, y0, grid, substeps=4096)[-1]
        for name, z in (("canonical", canonical_z(field, driver)),
                        ("zero", zero_z(2)),
                        ("transposed", transposed_z(field, driver))):
            u = solve_split(driver, field, z, y0, grid).u[-1]
            errors[name].append(np.max(np.abs(u - truth)))
    falls = {name: np.divide(e[:-1], e[1:]) for name, e in errors.items()}
    assert (falls["canonical"] >= 6.0).all(), falls
    assert (falls["zero"] <= 5.0).all(), falls
    assert (falls["transposed"] <= 5.0).all(), falls


# ---------------------------------------------------------------- reference ODE

def test_ode_reference_exponential_flow():
    # dY = Y x'(t) dt with x = 0.5 t: exact solution exp(0.5 t)
    path = SampledPath(np.linspace(0, 1, 2), [[0.0], [0.5]])
    field = linear_field(np.ones((1, 1, 1)))
    grid = Grid(1.0, 8)
    ref = solve_ode_reference(path, field, np.array([1.0]), grid, substeps=64)
    assert ref[-1, 0] == pytest.approx(np.exp(0.5), rel=1e-12)


def test_split_converges_to_ode_reference():
    path, driver, field, z = smooth_setup(segments=2**12)
    grid = Grid(1.0, 2**9)
    ref = solve_ode_reference(path, field, Y0, grid, substeps=8)
    errs = []
    for N in (2**7, 2**8, 2**9):
        traj = solve_split(driver, field, z, Y0, Grid(1.0, N))
        stride = 2**9 // N
        errs.append(np.max(np.linalg.norm(traj.u - ref[::stride], axis=1)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_ode_reference_refuses_a_path_that_ends_early_or_starts_late():
    # the span rule of build_problem: a slack of 1e-12 * max(1, T) at the end
    field = linear_field(np.ones((1, 1, 1)))
    for times in ([0.0, 1.0 - 2e-12], [0.0, 0.5], [1e-9, 1.0]):
        path = SampledPath(times, np.zeros((2, 1)))
        assert not path.covers(1.0)
        with pytest.raises(ValueError,
                           match="^path does not cover the grid span$"):
            solve_ode_reference(path, field, np.array([1.0]), Grid(1.0, 4))
    for T, end in ((1.0, 1.0 - 5e-13), (100.0, 100.0 - 5e-11)):
        path = SampledPath([0.0, end], np.zeros((2, 1)))
        assert path.covers(T)
        assert solve_ode_reference(path, field, np.array([1.0]),
                                   Grid(T, 4)).shape == (5, 1)


def test_ode_reference_validation():
    path = SampledPath(np.linspace(0, 0.5, 3), np.zeros((3, 1)))
    field = linear_field(np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        solve_ode_reference(path, field, np.array([1.0]), Grid(1.0, 4))
    path2 = SampledPath(np.linspace(0, 1, 3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        solve_ode_reference(path2, field, np.array([1.0]), Grid(1.0, 4), substeps=0)
    # the grid rows hold the state: another shape would be broadcast into them
    with pytest.raises(ValueError, match="initial state must have shape"):
        solve_ode_reference(path2, linear_field(np.ones((2, 1, 2))), [1.0],
                            Grid(1.0, 4))



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ode_reference_blowup_names_its_step_and_stops():
    # dY = 1000 Y dt: the RK4 states trail e^{1000 t} a little and leave the
    # float range in the interval ending at grid row 181 of 256
    path = SampledPath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    linear = linear_field(np.full((1, 1, 1), 1000.0))
    calls = Counter()

    def fn(x):
        calls["f"] += 1
        return linear(x)

    field = VectorField(1, 1, fn, linear.gradient)
    with pytest.raises(NumericFailure, match=r"at step 181$") as info:
        solve_ode_reference(path, field, np.array([1.0]), Grid(1.0, 256),
                            substeps=4)
    assert info.value.step == 181
    # it stops at the end of the block of grid rows holding the failure
    block_end = 3 * splitting_solver.FINITE_BLOCK
    assert calls["f"] == 4 * 4 * block_end


def test_ode_reference_rejects_a_non_finite_start_before_stepping():
    field = linear_field(np.ones((1, 1, 1)))
    path = SampledPath(np.linspace(0, 1, 3), np.zeros((3, 1)))
    with pytest.raises(NumericFailure, match=r"at step 0$") as info:
        solve_ode_reference(path, field, np.array([np.nan]), Grid(1.0, 4))
    assert info.value.step == 0


def reference_rk4(path, fn, y0, grid, substeps):
    """RK4 along the interpolant as a per-substep loop: one slope per
    substep, taken at its midpoint, and ``fn(y) @ w`` per stage."""
    total = grid.N * substeps
    dt = grid.T / total
    mids = (np.arange(total) + 0.5) * dt
    seg = np.clip(np.searchsorted(path.times, mids, side="right") - 1,
                  0, path.n_samples - 2)
    slopes = (np.diff(path.values, axis=0)
              / np.diff(path.times)[:, None])[seg]
    y = np.asarray(y0, dtype=float)
    out = [y]
    for m in range(total):
        w = slopes[m]
        k1 = fn(y) @ w
        k2 = fn(y + (0.5 * dt) * k1) @ w
        k3 = fn(y + (0.5 * dt) * k2) @ w
        k4 = fn(y + dt * k3) @ w
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (m + 1) % substeps == 0:
            out.append(y)
    return np.array(out)


def oracle_fields(kind, seed, n, d):
    """(field, its formula with ``np.einsum``) of one kind."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        C = rng.standard_normal((n, d))
        return constant_field(C), lambda x: C
    if kind == "linear":
        A = 0.5 * rng.standard_normal((n, d, n))
        b = rng.standard_normal((n, d))
        return linear_field(A, offset=b), lambda x: b + A @ x
    # the sine preset's coefficients, drawn as ``sine_field`` draws them
    amplitude, frequency = 0.8, 1.5
    coeffs = np.random.default_rng(seed)
    amp = amplitude * (0.5 + 0.5 * coeffs.random((n, d)))
    W = frequency * coeffs.standard_normal((n, d, n))
    phi = 2.0 * np.pi * coeffs.random((n, d))

    def sine(x):
        return amp * np.sin(np.einsum("iam,m->ia", W, x) + phi)

    if kind == "sine":
        return sine_field(n, d, seed=seed, amplitude=amplitude,
                          frequency=frequency), sine
    return VectorField(n, d, sine, lambda x: np.zeros((n, d, n))), sine


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["constant", "linear", "sine", "callable"]),
       n=st.integers(1, 3), d=st.integers(1, 3), N=st.integers(1, 6),
       substeps=st.integers(1, 5), segments=st.integers(1, 12),
       aligned=st.booleans(), T=st.sampled_from([0.25, 1.0, 3.0]))
def test_ode_reference_is_the_per_substep_loop_bitwise(seed, kind, n, d, N,
                                                       substeps, segments,
                                                       aligned, T):
    field, fn = oracle_fields(kind, seed, n, d)
    rng = np.random.default_rng(seed + 1)
    if aligned:
        # the path's sample times are substep boundaries
        times = np.linspace(0.0, T, N * substeps + 1)
    else:
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, T,
                                                           segments - 1)),
                                [T]))
        assume(np.all(np.diff(times) > 0))
    path = SampledPath(times, rng.standard_normal((len(times), d)))
    y0 = rng.standard_normal(n)
    grid = Grid(T, N)
    expected = reference_rk4(path, fn, y0, grid, substeps)
    # a short segment inside a long substep is a steep slope for all of it
    assume(np.isfinite(expected).all())
    same_bits(solve_ode_reference(path, field, y0, grid, substeps=substeps),
              expected)


def sweep_heights(mp):
    """Patch the RK4 reference's sweep to record the number of windows each
    sweep stacks; returns that list."""
    heights = []
    sweep = splitting_solver._rk4_sweep

    def counted(f, dt, slopes, substeps, edges, y, out, check):
        heights.append(len(y))
        return sweep(f, dt, slopes, substeps, edges, y, out, check)

    mp.setattr(splitting_solver, "_rk4_sweep", counted)
    return heights


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["constant", "linear", "sine"]),
       n=st.integers(1, 3), d=st.integers(1, 3), N=st.integers(2, 24),
       windows=st.integers(2, 9), substeps=st.integers(1, 4),
       rough=st.booleans())
@example(seed=3, kind="sine", n=2, d=2, N=23, windows=4, substeps=3,
         rough=True)
@example(seed=3, kind="sine", n=2, d=2, N=23, windows=4, substeps=3,
         rough=False)
def test_windowed_reference_is_the_per_substep_loop_bitwise(seed, kind, n, d,
                                                            N, windows,
                                                            substeps, rough):
    # windows forced on every driver: on rough paths the starts jitter in
    # their last bits and the frontier advances about one window per sweep
    field, fn = oracle_fields(kind, seed, n, d)
    rng = np.random.default_rng(seed + 1)
    if rough:
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 7)),
                                [1.0]))
        assume(np.all(np.diff(times) > 0))
        path = SampledPath(times, rng.standard_normal((len(times), d)))
    else:
        # one segment per substep, and no window the path leaves unmoved
        times = np.linspace(0.0, 1.0, N * substeps + 1)
        waves = np.sin(3.0 * np.outer(times, range(1, d + 1)))
        path = SampledPath(times, times[:, None] + 0.3 * waves)
    y0 = 0.5 * rng.standard_normal(n)
    grid = Grid(1.0, N)
    expected = reference_rk4(path, fn, y0, grid, substeps)
    assume(np.isfinite(expected).all())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting_solver, "REFERENCE_WINDOWS", windows)
        mp.setattr(splitting_solver, "PROBE_LIMIT", np.inf)
        heights = sweep_heights(mp)
        got = solve_ode_reference(path, field, y0, grid, substeps=substeps)
    same_bits(got, expected)
    K = min(windows, N)
    assert heights[0] == K and len(heights) <= K


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_windowed_reference_blowup_names_the_sequential_step(monkeypatch):
    # dY = 20 Y dt from 1e300: the states leave the float range at grid row
    # 183 of 256, past the first sweep's frontier
    path = SampledPath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    field = linear_field(np.full((1, 1, 1), 20.0))
    y0, grid = np.array([1e300]), Grid(1.0, 256)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = reference_rk4(path, lambda x: 20.0 * x[:, None], y0, grid, 4)
    step = int(np.argmax(~np.isfinite(rows).all(axis=1)))
    assert step == 183
    heights = sweep_heights(monkeypatch)
    for windows in (splitting_solver.REFERENCE_WINDOWS, 1):
        monkeypatch.setattr(splitting_solver, "REFERENCE_WINDOWS", windows)
        heights.clear()
        with pytest.raises(NumericFailure, match=f"at step {step}$") as info:
            solve_ode_reference(path, field, y0, grid, substeps=4)
        assert info.value.step == step and heights[0] == windows


def strict_sine(n, d, seed):
    """The sine preset with stacked hooks that reject a non-finite state."""
    sine, _ = oracle_fields("sine", seed, n, d)

    def strict(hook):
        def call(xs):
            if not np.isfinite(xs).all():
                raise ValueError("non-finite state")
            return hook(xs)
        return call

    return VectorField(n, d, value_many_fn=strict(sine._value_many_fn),
                       value_and_grad_many_fn=strict(
                           sine._value_and_grad_many_fn))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strict, wrong, first", [(False, 5, 64),
                                                  (False, 62, 64),
                                                  (True, 5, 1),
                                                  (True, 62, 64)])
def test_a_wrong_non_finite_prediction_raises_nothing(monkeypatch, strict,
                                                      wrong, first):
    # the coarse solver predicts inf for the end of window ``wrong``: the
    # starts after it are non-finite.  A field that rejects them raises in
    # the next prediction, and the reference declines the windows, or in a
    # sweep, and the rest runs as one window.  None of it shows
    coarse = splitting_solver._coarse_solver

    def wrong_coarse(*args):
        G = coarse(*args)

        def predict(y, lo, hi):
            return np.full_like(y, np.inf) if lo == wrong else G(y, lo, hi)

        return predict

    monkeypatch.setattr(splitting_solver, "_coarse_solver", wrong_coarse)
    field, fn = oracle_fields("sine", 1, 2, 2)
    if strict:
        field = strict_sine(2, 2, 1)
    path, grid = smooth_path(d=2, segments=512), Grid(1.0, 128)
    heights = sweep_heights(monkeypatch)
    got = solve_ode_reference(path, field, Y0, grid, substeps=4)
    same_bits(got, reference_rk4(path, fn, Y0, grid, 4))
    assert heights[0] == first and len(heights) <= 64
    if strict:
        assert heights[-1] == 1


class Refusal(Exception):
    """A field's own error, raised at a finite state."""


def refusing_field(limit):
    """f = 1 (n = d = 1), called per state, refusing states above ``limit``."""
    def fn(x):
        if x[0] > limit:
            raise Refusal(f"state {x[0]} above {limit}")
        return np.ones((1, 1))

    return VectorField(1, 1, fn, lambda x: np.zeros((1, 1, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_field_error_at_a_finite_state_leaves_the_march_unchanged(scheme):
    # u_j = j / 64 along X_t = t: the field refuses the state of step 33
    field = refusing_field(0.5)
    drv = scalar_driver(lambda t: t)
    with pytest.raises(Refusal, match=r"^state 0.515625 above 0.5$"):
        _march([(drv, field, zero_z(1), np.zeros(1))], [Grid(1.0, 64)],
               [scheme])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_field_error_at_a_finite_state_leaves_the_reference_unchanged(
        monkeypatch):
    # a field called per state runs as one window; y(t) = t crosses 0.5
    path = SampledPath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    heights = sweep_heights(monkeypatch)
    with pytest.raises(Refusal, match=r"above 0.5$"):
        solve_ode_reference(path, refusing_field(0.5), np.zeros(1),
                            Grid(1.0, 64), substeps=4)
    assert heights == [1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_field_error_in_the_frontier_window_leaves_the_reference_unchanged(
        monkeypatch):
    # the field refuses the initial state, the frontier window's start, once
    # the probe has taken the windows: the stacked sweep raises, the rest
    # runs as one window from the frontier, which raises the same error
    sine, _ = oracle_fields("sine", 1, 2, 2)
    armed = []
    windows = splitting_solver._windows

    def arm(*args):
        taken = windows(*args)
        armed.append(True)
        return taken

    def refusing(hook):
        def call(xs):
            if armed and (xs == Y0).all(axis=1).any():
                raise Refusal("initial state refused")
            return hook(xs)
        return call

    field = VectorField(2, 2, value_many_fn=refusing(sine._value_many_fn),
                        value_and_grad_many_fn=refusing(
                            sine._value_and_grad_many_fn))
    monkeypatch.setattr(splitting_solver, "_windows", arm)
    heights = sweep_heights(monkeypatch)
    with pytest.raises(Refusal, match="^initial state refused$"):
        solve_ode_reference(smooth_path(d=2, segments=512), field, Y0,
                            Grid(1.0, 128), substeps=4)
    assert heights == [64, 1]


def refused_sweeps(mp, refuse=None):
    """``sweep_heights``, and the number of field hook calls of each sweep;
    the hook raises Refusal at the ``refuse = (sweep, call)`` pair, both
    counted from 1.  Returns the two lists."""
    heights, calls = sweep_heights(mp), []
    counted = splitting_solver._rk4_sweep

    def refusing(f, *args):
        calls.append(0)

        def hook(xs):
            calls[-1] += 1
            if (len(calls), calls[-1]) == refuse:
                raise Refusal(f"call {calls[-1]} of sweep {len(calls)}")
            return f(xs)

        return counted(hook, *args)

    mp.setattr(splitting_solver, "_rk4_sweep", refusing)
    return heights, calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_field_error_past_the_first_sweep_leaves_the_reference_unchanged():
    # the second sweep stacks windows 1 to 63 of 2 intervals each; the
    # refused call makes the rest run as one window from window 1
    field, _ = oracle_fields("sine", 1, 2, 2)
    path, grid = smooth_path(d=2, segments=512), Grid(1.0, 128)
    expected = solve_ode_reference(path, field, Y0, grid, substeps=4)
    with pytest.MonkeyPatch.context() as mp:
        heights, _ = refused_sweeps(mp, refuse=(2, 5))
        got = solve_ode_reference(path, field, Y0, grid, substeps=4)
    same_bits(got, expected)
    assert heights == [64, 63, 1]


@settings(max_examples=40, deadline=None)
@given(N=st.integers(2, 40), windows=st.integers(2, 9), data=st.data())
def test_a_field_error_in_a_later_sweep_leaves_the_reference_unchanged(
        N, windows, data):
    # a refusal in a sweep of several windows makes the rest run as one
    # window from the frontier; in a sweep of the frontier window alone it
    # is the sequential loop's own error
    field, _ = oracle_fields("sine", 1, 2, 2)
    path, grid = smooth_path(d=2, segments=512), Grid(1.0, N)

    def reference(refuse=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitting_solver, "REFERENCE_WINDOWS", windows)
            mp.setattr(splitting_solver, "PROBE_LIMIT", np.inf)
            heights, calls = refused_sweeps(mp, refuse)
            try:
                return solve_ode_reference(path, field, Y0, grid,
                                           substeps=2), heights, calls
            except Refusal:
                return None, heights, calls

    expected, plain, calls = reference()
    assume(len(plain) >= 2)
    sweep = data.draw(st.integers(2, len(plain)), label="sweep")
    call = data.draw(st.integers(1, calls[sweep - 1]), label="call")
    got, heights, _ = reference(refuse=(sweep, call))
    if plain[sweep - 1] == 1:
        assert got is None and heights == plain[:sweep]
    else:
        same_bits(got, expected)
        assert heights == plain[:sweep] + [1]


def test_the_probe_takes_windows_only_where_they_pay():
    # criterion 3's smooth reference runs as 64 windows; the synthetic
    # alpha = 0.45 driver of the acceptance suite and the bench, and a
    # field called per state, run one window, the latter without a call
    def windows(path, field, N, substeps):
        grid = Grid(1.0, N)
        slopes, dt = splitting_solver._substep_slopes(path, grid, substeps)
        edges = splitting_solver._windows(field, Y0, slopes, dt, N,
                                          substeps)[0]
        return len(edges) - 1

    field = sine_field(2, 2, seed=1, amplitude=0.8, gamma=3.0)
    assert windows(smooth_path(d=2, segments=2**14), field, 2**12, 4) == 64
    rough = synth_midpoint_path(17, 0.45, 14, 2)
    for N in (64, 256):
        assert windows(rough, field, N, 64) == 1
    calls = Counter()

    def fn(x):
        calls["f"] += 1
        return field(x)

    per_row = VectorField(2, 2, fn, field.gradient)
    assert windows(smooth_path(d=2, segments=2**14), per_row, 2**12, 4) == 1
    assert not calls


@pytest.mark.parametrize("kind", ["constant", "linear", "sine"])
def test_stacked_rk4_rows_are_the_one_row_stage(kind):
    # the windows rest on numpy's kernels summing a row of an (m, n, d)
    # stack times (m, d, 1) slopes as they sum a one-row stack
    substeps = 2
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            field, _ = oracle_fields(kind, n + 3 * d, n, d)
            f = field._value_many_fn
            rng = np.random.default_rng(10 * n + d)
            for m in (1, 2, 7, 64, 333):
                y = rng.standard_normal((m, n))
                # m windows of one interval each
                slopes = rng.standard_normal((m * substeps, d))
                edges = np.arange(m + 1)
                stacked = np.zeros((m + 1, n))
                splitting_solver._rk4_sweep(f, 0.01, slopes, substeps, edges,
                                            y, stacked, lambda i0, i1: None)
                one = np.zeros((m + 1, n))
                for p in range(m):
                    splitting_solver._rk4_sweep(
                        f, 0.01, slopes, substeps, edges[p:p + 2],
                        y[p:p + 1], one, lambda i0, i1: None)
                same_bits(stacked, one)


def test_stacked_marches_and_windowed_references_fit_the_sine_tiles():
    # the stacked loops' saving rests on the sine preset's coefficient
    # tiles, which cover stacks of up to TILE_ROWS states: compare-schemes'
    # six-member march and criterion 3's windowed reference stack no more
    def recorded(field):
        lengths = []
        for name in ("_value_many_fn", "_value_and_grad_many_fn"):
            def record(xs, hook=getattr(field, name)):
                lengths.append(len(xs))
                return hook(xs)
            setattr(field, name, record)
        return field, lengths

    field, march = recorded(sine_field(2, 2, seed=1, amplitude=0.8,
                                       gamma=3.0))
    driver = build_driver("synthetic", 17)
    members = [(driver, field, canonical_z(field, driver), Y0)] * 6
    solve_many(members, [Grid(1.0, N) for N in (16, 32, 64)] * 2,
               ["split"] * 3 + ["milstein"] * 3)
    field, windows = recorded(sine_field(2, 2, seed=1, amplitude=0.8,
                                         gamma=3.0))
    solve_ode_reference(smooth_path(d=2, segments=2**14), field, Y0,
                        Grid(1.0, 2**12), substeps=4)
    for lengths in (march, windows):
        assert 1 < max(lengths) <= model.TILE_ROWS


# ---------------------------------------------------------------- csv

def test_trajectory_csv_layout():
    _, driver, field, z = smooth_setup(segments=64)
    traj = solve_split(driver, field, z, Y0, Grid(1.0, 4))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "j,t,u1,u2,v1,v2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == "" and first[-2] == ""
    second = lines[2].split(",")
    assert float(second[-2]) == traj.v[0][0]
    assert float(second[-1]) == traj.v[0][1]


def reference_csv(u, v, grid):
    """The trajectory CSV formatted one cell at a time."""
    n = u.shape[1]
    lines = ["j,t," + ",".join(f"u{i + 1}" for i in range(n)) + ","
             + ",".join(f"v{i + 1}" for i in range(n))]
    for j, t in enumerate(grid.points):
        cells = [str(j), repr(float(t))] + [repr(float(x)) for x in u[j]]
        if j == 0 or v is None:
            cells += [""] * n
        else:
            cells += [repr(float(x)) for x in v[j - 1]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 7])
def test_trajectory_csv_blocks_are_the_per_cell_rows(monkeypatch, N):
    # rows are written in blocks of CSV_BLOCK: N = 2 to 7 end on, just
    # before and just after a block edge
    monkeypatch.setattr(splitting_solver, "CSV_BLOCK", 3)
    _, driver, field, z = smooth_setup(segments=64)
    grid = Grid(1.0, N)
    split = solve_split(driver, field, z, Y0, grid)
    milstein = solve_milstein(driver, field, z, Y0, grid)
    for traj, u, v in ((split, split.u, split.v),
                       (milstein, milstein.values, None)):
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue() == reference_csv(u, v, grid)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       N=st.one_of(st.integers(1, 24),
                   st.integers(CSV_BLOCK - 2, 2 * CSV_BLOCK + 2)),
       T=st.floats(1e-6, 1e6), specials=st.integers(0, 12))
def test_trajectory_csv_is_the_joined_cells_for_any_values(seed, n, N, T,
                                                           specials):
    # values over the whole exponent range, with signed zeros, NaN,
    # infinities and subnormals at random cells
    rng = np.random.default_rng(seed)
    grid = Grid(T, N)
    u, v = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            for shape in ((N + 1, n), (N, n)))
    odd = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310])
    for a in (u, v):
        a.flat[rng.integers(0, a.size, specials)] = rng.choice(odd, specials)
    for traj, v_cols in ((SplitTrajectory(grid, u, v, None, None, None), v),
                         (MilsteinTrajectory(grid, u), None)):
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue() == trajectory_csv_joined(u, v_cols, grid.points,
                                                       CSV_BLOCK)


def test_milstein_csv_has_empty_v_columns():
    _, driver, field, z = smooth_setup(segments=64)
    mil = solve_milstein(driver, field, z, Y0, Grid(1.0, 2))
    buf = io.StringIO()
    write_trajectory_csv(mil, buf)
    rows = [ln.split(",") for ln in buf.getvalue().splitlines()[1:]]
    assert all(row[-1] == "" and row[-2] == "" for row in rows)
