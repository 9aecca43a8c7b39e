"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (run with ``-s`` to
see them live) and enforces its runtime budget.  Everything is
deterministic: fixed preset paths, fixed seeds.
"""

import statistics
import time

import numpy as np
import pytest

from rdesplit import (Grid, Problem, SampledPath, canonical_z, chen_defect,
                      check_z_bound, check_z_cocycle, check_z_lipschitz,
                      common_indices, convention_defect_max, davie_defect,
                      dyadic_sup_rate, fit_rate, holder_rate,
                      lift_piecewise_linear, rational_rate, rough_probe_z,
                      sine_field, smooth_path, solve_milstein,
                      solve_ode_reference, solve_split, synth_midpoint_path,
                      transposed_z, zero_z)
from rdesplit.rough_path import chen_defect_many

Y0 = np.array([0.1, -0.2])
FIELD = sine_field(2, 2, seed=1, amplitude=0.8, gamma=3.0)
SYNTH_SEED = 17
SYNTH_ALPHA = 0.45
SYNTH_LEVELS = 14


def smooth_preset():
    path = smooth_path(d=2, segments=2**14)
    driver = lift_piecewise_linear(path, alpha=0.5)
    return Problem(driver=driver, field=FIELD, z=canonical_z(FIELD, driver),
                   y0=Y0, T=1.0, path=path)


def synthetic_preset(seed=SYNTH_SEED):
    path = synth_midpoint_path(seed, SYNTH_ALPHA, SYNTH_LEVELS, 2)
    driver = lift_piecewise_linear(path, alpha=SYNTH_ALPHA)
    return Problem(driver=driver, field=FIELD, z=canonical_z(FIELD, driver),
                   y0=Y0, T=1.0, path=path)


def report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} "
          f"({detail}; {elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_1_chen_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        d = 1 + i % 3
        segments = 2 + int(rng.integers(0, 63))
        times = np.sort(np.concatenate([[0.0, 1.0],
                                        rng.uniform(0, 1, segments - 1)]))
        path = SampledPath(times, rng.standard_normal((segments + 1, d)))
        driver = lift_piecewise_linear(path)
        triples = np.sort(rng.uniform(0, 1, (1000, 3)), axis=1)
        defects = chen_defect_many(driver, triples[:, 0], triples[:, 1],
                                   triples[:, 2])
        worst = max(worst, float(defects.max()))
        # spot-check the scalar operation against the batch sweep
        for k in range(3):
            assert chen_defect(driver, *triples[k]) == defects[k]
    elapsed = time.perf_counter() - start
    report(1, "chen exactness", worst <= 1e-10,
           f"worst defect {worst:.2e} over 100 lifts x 1000 triples",
           elapsed, 5.0)


def test_criterion_2_convention_pinning():
    start = time.perf_counter()
    path = SampledPath([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    driver = lift_piecewise_linear(path)
    grid = Grid(1.0, 63)  # 64 grid points
    good = canonical_z(FIELD, driver)
    bad = transposed_z(FIELD, driver)
    xs = [np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 1.0])]
    worst_good = max(convention_defect_max(good, FIELD, driver, x, grid)[0]
                     for x in xs)
    worst_bad = max(convention_defect_max(bad, FIELD, driver, x, grid)[0]
                    for x in xs)
    elapsed = time.perf_counter() - start
    report(2, "convention pinning",
           worst_good <= 1e-10 and worst_bad > 1e-3,
           f"canonical {worst_good:.2e} <= 1e-10, transposed {worst_bad:.2e} > 1e-3",
           elapsed, 5.0)


def test_criterion_3_smooth_driver_oracle():
    start = time.perf_counter()
    prob = smooth_preset()
    fine_grid = Grid(1.0, 2**12)
    # one RK4 reference at substep h/64 of the coarsest level (2^-14),
    # recorded on the finest grid; accurate far below the measured errors
    reference = solve_ode_reference(prob.path, prob.field, prob.y0,
                                    fine_grid, substeps=4)
    deviations = []
    for k in range(8, 13):
        traj = solve_split(prob.driver, prob.field, prob.z, prob.y0,
                           Grid(1.0, 2**k))
        stride = 2**12 // 2**k
        deviations.append(float(np.max(
            np.linalg.norm(traj.u - reference[::stride], axis=1))))
    monotone = all(b < a for a, b in zip(deviations, deviations[1:]))
    elapsed = time.perf_counter() - start
    report(3, "smooth-driver oracle",
           monotone and deviations[-1] <= 1e-3,
           f"deviations {['%.2e' % d for d in deviations]} monotone, "
           f"final {deviations[-1]:.2e} <= 1e-3",
           elapsed, 10.0)


def test_criterion_4_dyadic_rates():
    start = time.perf_counter()
    [smooth_report] = dyadic_sup_rate([smooth_preset()], 16, 5)
    ok_smooth = (smooth_report.target == pytest.approx(0.5)
                 and smooth_report.slope >= 0.35)
    slopes = []
    seeds = (SYNTH_SEED, SYNTH_SEED + 1, SYNTH_SEED + 2)
    for r in dyadic_sup_rate([synthetic_preset(seed) for seed in seeds], 16, 5):
        assert r.target == pytest.approx(3.0 * SYNTH_ALPHA - 1.0)
        slopes.append(r.slope)
    median = statistics.median(slopes)
    elapsed = time.perf_counter() - start
    report(4, "dyadic sup rate",
           ok_smooth and median >= 0.15,
           f"smooth slope {smooth_report.slope:.3f} >= 0.35 (target 0.5), "
           f"synthetic median {median:.3f} >= 0.15 (target 0.35)",
           elapsed, 60.0)


def test_criterion_5_holder_rate():
    start = time.perf_counter()
    beta = 0.2
    slopes = []
    consistent = True
    seeds = (SYNTH_SEED, SYNTH_SEED + 1, SYNTH_SEED + 2)
    for r in holder_rate([synthetic_preset(seed) for seed in seeds], beta, 32, 7):
        assert r.target == pytest.approx(0.25)
        slopes.append(r.slope)
        # a C^beta difference can never exceed twice the sup difference
        # scaled by the largest pairwise |t-s|^(-beta)
        for diff, sup, spacing in zip(r.diffs, r.meta["sup_diffs"],
                                      r.meta["min_spacings"]):
            if diff > 2.0 * sup * spacing ** (-beta) * (1 + 1e-9):
                consistent = False
    median = statistics.median(slopes)
    elapsed = time.perf_counter() - start
    report(5, "C^beta rate",
           median >= 0.10 and consistent,
           f"median slope {median:.3f} >= 0.10 (target 0.25), "
           f"sup-bound consistency {consistent}",
           elapsed, 60.0)


def test_criterion_6_rational_ratio():
    start = time.perf_counter()
    indices_ok = common_indices(6, 3, 2) == ([0, 2, 4, 6], [0, 3, 6, 9])
    prob = smooth_preset()
    [dyadic] = dyadic_sup_rate([prob], 16, 5)
    [rational] = rational_rate([prob], 3, 2, 16, 5)
    gap = abs(rational.slope - dyadic.slope)
    elapsed = time.perf_counter() - start
    report(6, "rational step ratio",
           indices_ok and gap <= 0.2,
           f"|{rational.slope:.3f} - {dyadic.slope:.3f}| = {gap:.3f} <= 0.2, "
           f"common indices {indices_ok}",
           elapsed, 60.0)


def test_criterion_7_davie_defect_stability():
    start = time.perf_counter()
    details = []
    ok = True
    for name, prob in (("smooth", smooth_preset()),
                       ("synthetic", synthetic_preset())):
        ratios = []
        for k in (6, 7, 8):
            traj = solve_split(prob.driver, prob.field, prob.z, prob.y0,
                               Grid(1.0, 2**k))
            rep = davie_defect(traj, prob.field, prob.z, prob.driver,
                               prob.field.gamma, prob.alpha)
            ratios.append(rep.max_ratio)
        factor = max(ratios) / min(ratios)
        ok = ok and factor <= 2.0
        details.append(f"{name} factor {factor:.2f}")
    elapsed = time.perf_counter() - start
    report(7, "Davie defect", ok, ", ".join(details) + " (<= 2)", elapsed, 30.0)


def test_criterion_8_scheme_gap():
    start = time.perf_counter()
    prob = smooth_preset()
    levels = [2**k for k in (6, 7, 8, 9)]
    gaps = []
    for N in levels:
        grid = Grid(1.0, N)
        split = solve_split(prob.driver, prob.field, prob.z, prob.y0, grid)
        milstein = solve_milstein(prob.driver, prob.field, prob.z, prob.y0,
                                  grid)
        gaps.append(float(np.max(np.linalg.norm(split.u - milstein.values,
                                                axis=1))))
    order = fit_rate(levels, gaps)
    z = zero_z(2)
    grid = Grid(1.0, 2**7)
    coincide = float(np.max(np.abs(
        solve_split(prob.driver, prob.field, z, prob.y0, grid).u
        - solve_milstein(prob.driver, prob.field, z, prob.y0, grid).values)))
    elapsed = time.perf_counter() - start
    report(8, "scheme gap",
           order >= 1.0 and coincide <= 1e-12,
           f"gap order {order:.2f} >= 1, zero-Z coincidence {coincide:.1e}",
           elapsed, 10.0)


def test_criterion_9_z_condition_suite():
    start = time.perf_counter()
    prob = smooth_preset()
    rng = np.random.default_rng(5)
    xs = Y0 + rng.uniform(-1, 1, (8, 2))
    ys = Y0 + rng.uniform(-1, 1, (8, 2))
    pairs = list(zip(xs, ys))
    stable = True
    details = []
    for label in ("bound", "lipschitz", "cocycle"):
        ratios = []
        for N in (16, 32, 64):
            grid = Grid(1.0, N)
            if label == "bound":
                rep = check_z_bound(prob.z, xs, grid, prob.alpha)
            elif label == "lipschitz":
                rep = check_z_lipschitz(prob.z, pairs, grid, prob.alpha,
                                        prob.field.gamma)
            else:
                pts = grid.points
                triples = np.sort(pts[rng.integers(0, len(pts), (300, 3))],
                                  axis=1)
                rep = check_z_cocycle(prob.z, prob.field, prob.driver, xs,
                                      triples, prob.alpha)
            assert np.isfinite(rep.max_ratio)
            ratios.append(rep.max_ratio)
        jumps = [ratios[i + 1] / ratios[i] for i in range(2)]
        stable = stable and all(abs(j - 1.0) <= 0.2 for j in jumps)
        details.append(f"{label} {ratios[-1]:.4f} (steps {jumps[0]:.2f}, {jumps[1]:.2f})")
    probe = rough_probe_z(2, prob.alpha)
    g1 = check_z_bound(probe, xs[:2], Grid(1.0, 32), prob.alpha).max_ratio
    g2 = check_z_bound(probe, xs[:2], Grid(1.0, 64), prob.alpha).max_ratio
    growth = g2 / g1
    probe_ok = abs(growth / 2**prob.alpha - 1.0) <= 0.3
    elapsed = time.perf_counter() - start
    report(9, "Z-condition suite",
           stable and probe_ok,
           "; ".join(details) + f"; probe growth {growth:.3f} ~ 2^alpha",
           elapsed, 30.0)
