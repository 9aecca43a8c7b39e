r"""Two-stage splitting scheme for dY = f(Y) dX and its one-step reference.

Per interval [t_j, t_{j+1}] the split update is

    v_{j+1} = u_j + f(u_j) X_{t_j, t_{j+1}}      (transport stage)
    u_{j+1} = v_{j+1} + Z(v_{j+1})_{t_j, t_{j+1}}   (second-order stage)

with the continuous-time trajectory obtained by running each stage at twice
the rate over half of the interval.  The reference one-step map is the
second-order Euler (Milstein) update y -> y + f(y) X + Z(y).

Both schemes run on one stepping loop over fixed grids, so every X_{s,t}
and XX_{s,t} they need is known before the loop starts.  The loop has a
leading member axis: one Python step advances M problems (driver, field,
Z, start), each on its own grid, for instance every seed and level of one
rate experiment, and a single solve is the march of one member.  Members
are ordered longest grid first, so those still stepping are always a
prefix of the stack, which is cut only where a member finishes.  The
increments come from one ``increment_many`` query per member and are held
step by step, one row per member and step.  Members that share one field
evaluate it as one stack of states, and when its maps are all canonical or all
transposed, one stacked evaluation per stage feeds one contraction of the
areas of every map's own driver (one ``area_many`` query each).  Maps
that do not read the state (zero and rough-probe) give the Z rows of every
interval as one array before the loop; other members fall back to one
call per member row.  A driver without batch hooks is queried once per
interval.  The arithmetic of each step is that of the per-interval scalar
queries, so every member's trajectory is bitwise that of a loop calling
``increment`` and ``z(x, s, t)`` step by step (but for stacked Z with
n = 1 and d = 2, see ``model``).

The joined path is evaluated the same way on an array of times: the
states u_j and v_{j+1} of all requested times form one stack each, for
one stacked field evaluation and one ``GridZ.at`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .model import (SecondOrderMap, VectorField, _AreaLinearZ, _TimeOnlyZ,
                    _Z_SUBSCRIPTS, _check_pairing, _matvec)
from .rough_path import Grid, RoughDriver, SampledPath

__all__ = [
    "SplitTrajectory",
    "MilsteinTrajectory",
    "split_step",
    "solve_split",
    "solve_split_many",
    "solve_milstein",
    "solve_milstein_many",
    "write_trajectory_csv",
    "solve_ode_reference",
]


@dataclass
class SplitTrajectory:
    """Grid values u_j, stage-1 endpoints v_{j+1}, and the joined evaluator.

    ``u`` has shape (N+1, n) with u_0 the initial condition; ``v`` has shape
    (N, n) and v[j] is the stage-1 endpoint of interval j (the value of the
    joined path at the interval midpoint).
    """

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    driver: RoughDriver
    field: VectorField
    z: SecondOrderMap

    def eval_joined(self, t) -> np.ndarray:
        """Joined twice-speed trajectory at a time or an array of times in [0, T].

        Continuous at grid points (equals u_j there) and equal to v_{j+1}
        at interval midpoints.  A scalar time gives shape (n,), an array of
        K times shape (K, n); one time that is not finite or lies outside
        [0, T] rejects the whole call.  All times on first half-intervals
        share one ``increment_many`` query and one stacked field
        evaluation, all times on second halves one ``on_grid(...).at``
        call; rows are bitwise those of the per-time formula.
        """
        ts = np.asarray(t, dtype=float)
        pts = self.grid.points
        T = self.grid.T
        tol = 1e-12 * max(1.0, T)
        flat = ts.reshape(-1)
        # NaN passes both range comparisons, so finiteness is tested first
        bad = ~np.isfinite(flat) | (flat < -tol) | (flat > T + tol)
        if bad.any():
            raise ValueError(f"time {flat[bad][0]} outside [0, {T}]")
        flat = np.clip(flat, 0.0, T)
        j = np.clip(np.searchsorted(pts, flat, side="right") - 1,
                    0, self.grid.N - 1)
        left, right = pts[j], pts[j + 1]
        local = flat - left
        half = 0.5 * (right - left)
        first = local <= half
        out = np.empty((len(flat), self.field.n))
        # first half of interval j, l = t - t_j: u_j + f(u_j) X_{t_j, t_j + 2l}
        u, s = self.u[j[first]], left[first]
        inc = self.driver.increment_many(s, s + 2.0 * local[first])
        out[first] = u + _matvec(self.field.value_many(u), inc)
        # second half: v_{j+1} + Z(v_{j+1})_{t_j, t_j + 2(l - h/2)}
        second = ~first
        v, s = self.v[j[second]], left[second]
        z_on = self.z.on_grid(s, s + 2.0 * (local[second] - half[second]))
        out[second] = v + z_on.at(v)
        return out.reshape(ts.shape + (self.field.n,))


@dataclass
class MilsteinTrajectory:
    """Grid values of the one-step second-order Euler scheme."""

    grid: Grid
    values: np.ndarray
    driver: RoughDriver
    field: VectorField
    z: SecondOrderMap


def split_step(u, s: float, t: float, field: VectorField, z: SecondOrderMap,
               driver: RoughDriver):
    """One split interval: returns (stage-1 endpoint v, interval value u_next)."""
    if not s < t:
        raise ValueError(f"need s < t, got s={s}, t={t}")
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise NumericFailure("non-finite state entering split step")
    v = u + field(u) @ driver.increment(s, t)
    return v, v + z(v, s, t)


# Steps run between two finite-state checks.  The first non-finite row of a
# block is the failing step for any field or map: every stage adds to the
# state it starts from, and IEEE addition keeps a non-finite entry
# non-finite.
FINITE_BLOCK = 64


def _run_view(rows, run):
    """A step-major array's rows on the steps of one run, shape
    (steps, members, ...)."""
    m, j0, j1, span = run
    return rows[span].reshape((j1 - j0, m) + rows.shape[1:])


def _member_stages(members, intervals, step_major):
    """Stage evaluators of M members, member k on the intervals
    ``intervals[k]`` = (ss, tt), longest first.

    Returns ``stages(run)``.  A run (m, j0, j1, span) is steps j0 to j1 - 1,
    on which the first m members step; ``step_major`` lays per-member
    arrays out step by step, so that a run's rows are the one block
    ``span``.  For a run, ``stages`` gives ``drift(y, i)``, the rows
    f_k(y[k]) X^k over step j0 + i, ``z_at(y, i)``, the rows Z_k(y[k])
    over it, and ``both(y, i)``, the pair of them, for an (m, n) stack of
    states y.  Members that share one field evaluate it as one stack, and
    when every map is area-linear on that field, all canonical or all
    transposed, its stacked form feeds one contraction of the members'
    areas.  When no map reads the state, the Z rows of every interval are
    one array.  Otherwise each member is evaluated on its own row, with its
    own field and map.  Either way row k is bitwise member k's single-state
    evaluation (but for n = 1, d = 2).
    """
    drivers, fields, zs, y0s = zip(*members)
    field = fields[0]
    incs = (driver.increment_many(ss, tt)
            for driver, (ss, tt) in zip(drivers, intervals))
    # hooks bound once: a wrapper call per step costs more than a small stack
    stacked = all(f is field for f in fields)
    if stacked:
        value_many = field._value_many_fn
        incs = step_major(incs)[..., None]

        def drift_on(run):
            inc = _run_view(incs, run)

            def drift(y, i):
                return np.matmul(value_many(y), inc[i])[..., 0]

            return drift
    else:
        incs = list(incs)

        def drift_on(run):
            m, j0, j1, _ = run
            inc = [a[j0:j1] for a in incs[:m]]

            def drift(y, i):
                return np.array([f(x) @ a[i]
                                 for f, x, a in zip(fields, y, inc)])

            return drift

    z0 = zs[0]
    if stacked and all(isinstance(z, _AreaLinearZ) and z.field is field
                       and z.transpose == z0.transpose for z in zs):
        value_and_grad_many = field._value_and_grad_many_fn
        areas = step_major(z.driver.area_many(ss, tt)
                           for z, (ss, tt) in zip(zs, intervals))

        def stages(run):
            inc = _run_view(incs, run)
            # einsum sums in the order of the areas' strides: one kind of
            # map only
            area = z0.oriented(_run_view(areas, run))

            def z_at(y, i):
                f_y, grad_y = value_and_grad_many(y)
                return np.einsum(_Z_SUBSCRIPTS, grad_y, f_y, area[i])

            def both(y, i):
                # the field is the map's own: evaluate it once for both stages
                f_y, grad_y = value_and_grad_many(y)
                return (np.matmul(f_y, inc[i])[..., 0],
                        np.einsum(_Z_SUBSCRIPTS, grad_y, f_y, area[i]))

            return drift_on(run), z_at, both

        return stages

    if all(isinstance(z, _TimeOnlyZ) for z in zs):
        # no map reads the state: every interval's rows in one array
        rows = step_major(z.on_grid(ss, tt).every(y0)
                          for z, y0, (ss, tt) in zip(zs, y0s, intervals))

        def z_on(run):
            block = _run_view(rows, run)
            return lambda y, i: block[i]
    else:
        intervals = [(ss.tolist(), tt.tolist()) for ss, tt in intervals]

        def z_on(run):
            m, j0, j1, _ = run
            spans = [(ss[j0:j1], tt[j0:j1]) for ss, tt in intervals[:m]]

            def z_at(y, i):
                return np.array([z(x, ss[i], tt[i])
                                 for z, x, (ss, tt) in zip(zs, y, spans)])

            return z_at

    def stages(run):
        drift, z_at = drift_on(run), z_on(run)
        return drift, z_at, lambda y, i: (drift(y, i), z_at(y, i))

    return stages


def _failure_message(step: int, member=None) -> str:
    message = (f"state left finite range at step {step}" if step
               else "non-finite initial state")
    return message if member is None else f"{message} in member {member}"


def _check_finite(values, starts, order, lo: int, hi: int) -> None:
    """Raise NumericFailure at the first non-finite state at steps lo..hi-1.

    Step i's states are rows starts[i] to starts[i+1] of ``values``, row
    starts[i] + p that of member order[p]; the lowest member wins a tie.
    """
    block = values[starts[lo]:starts[hi]]
    if np.isfinite(block).all():
        return
    bad = starts[lo] + np.flatnonzero(~np.isfinite(block).all(axis=1))
    step = int(np.searchsorted(starts, bad[0], side="right")) - 1
    member = min(order[p] for p in bad[bad < starts[step + 1]] - starts[step])
    raise NumericFailure(
        _failure_message(step, member if len(order) > 1 else None),
        step=step, member=member)


def _march(members, grids, milstein: bool):
    """Advance M members (driver, field, z, y0), member k over ``grids[k]``,
    together.

    One Python step advances every member whose grid has steps left, as a
    stack of states.  The members are ordered longest grid first, so those
    still stepping are always the first m, and the stack is sliced only
    at the steps where m falls; on one shared grid it never is.  The
    increments and Z on every member's intervals are set up once, with
    batch queries where the drivers have them, and held step by step: one
    row per member and step, Σ N_k rows in all.  Each step is the split
    update (transport, then Z at the stage-1 endpoint) or, with
    ``milstein``, the one-step second-order Euler update.  Every member is
    bitwise its own single-member march.  Returns, per member in the given
    order, the grid values, shape (N_k+1, n), and the split stage-1
    endpoints, shape (N_k, n), or None for Milstein.

    The states are checked every ``FINITE_BLOCK`` steps; a member that left
    the finite range raises NumericFailure with the first failing step and
    the member's index (the lowest member at equal steps).
    """
    if not members:
        raise ValueError("need at least one member")
    if len(grids) != len(members):
        raise ValueError(f"{len(members)} members need as many grids, "
                         f"got {len(grids)}")
    M = len(members)
    n = members[0][1].n
    y0s = []
    for driver, field, _, y0 in members:
        _check_pairing(field, driver)
        if field.n != n:
            raise ValueError(f"member fields have state dimensions {n} and {field.n}")
        y0 = np.asarray(y0, dtype=float)
        if y0.shape != (n,):
            raise ValueError(f"initial state must have shape ({n},), got {y0.shape}")
        y0s.append(y0)
    # longest grid first; the sort is stable, so equal grids keep their order
    order = sorted(range(M), key=lambda k: -grids[k].N)
    Ns = [grids[k].N for k in order]
    # rows of a step-major array: step j holds the members with N_k > j,
    # at rows starts[j] to starts[j+1]
    stepping = M - np.searchsorted(Ns[::-1], np.arange(Ns[0]), side="right")
    starts = np.concatenate(([0], np.cumsum(stepping)))
    runs, j0 = [], 0
    for m in range(M, 0, -1):
        j1 = Ns[m - 1]
        if j1 > j0:
            runs.append((m, j0, j1, slice(starts[j0], starts[j1])))
            j0 = j1

    def step_major(arrays):
        """The per-member arrays (N_k, ...), longest first, as one array
        whose rows starts[j] + p are row j of member p."""
        out = None
        for p, a in enumerate(arrays):
            if out is None:
                out = np.empty((starts[-1],) + a.shape[1:], a.dtype)
            out[starts[:len(a)] + p] = a
        return out

    stages = _member_stages([members[k] for k in order],
                            [(grids[k].points[:-1], grids[k].points[1:])
                             for k in order], step_major)
    # the states after step j follow the M initial states step by step
    values = np.empty((M + starts[-1], n))
    values[:M] = [y0s[k] for k in order]
    after = np.concatenate(([0], M + starts))
    _check_finite(values, after, order, 0, 1)
    mid = None if milstein else np.empty((starts[-1], n))
    state = values[:M]
    for run in runs:
        m, j0, j1, _ = run
        if m < len(state):
            state = state[:m]
        drift, z_at, both = stages(run)
        out = _run_view(values[M:], run)
        mids = None if milstein else _run_view(mid, run)
        for lo in range(0, j1 - j0, FINITE_BLOCK):
            hi = min(lo + FINITE_BLOCK, j1 - j0)
            try:
                for i in range(lo, hi):
                    if milstein:
                        f_x, z_x = both(state, i)
                        state = state + f_x + z_x
                    else:
                        v = mids[i] = state + drift(state, i)
                        state = v + z_at(v, i)
                    out[i] = state
            except Exception:
                # a field or map may reject the non-finite state that a
                # failed member carries on to the end of its block
                _check_finite(values, after, order, j0 + lo + 1, j0 + i + 1)
                raise
            _check_finite(values, after, order, j0 + lo + 1, j0 + hi + 1)
    # the stages hold every increment and area: free them before the copies
    del stages, drift, z_at, both
    us, vs = [None] * M, [None] * M
    for p, (k, N) in enumerate(zip(order, Ns)):
        us[k] = values[after[:N + 1] + p]
        if not milstein:
            vs[k] = mid[starts[:N] + p]
    return us, None if milstein else vs


def solve_split_many(members, grids) -> list:
    """``solve_split`` of every (driver, field, z, y0) member, member k on
    ``grids[k]``.

    The members are marched together, one Python step for all of them
    that still have steps left, and each trajectory is bitwise its own
    ``solve_split``.  Members that share one preset field and area-linear
    maps on it (the seeds and levels of one rate experiment) are evaluated
    as stacks.
    """
    u, v = _march(members, grids, milstein=False)
    return [SplitTrajectory(grid, u[k], v[k], driver, field, z)
            for k, ((driver, field, z, _), grid)
            in enumerate(zip(members, grids))]


def solve_milstein_many(members, grids) -> list:
    """``solve_milstein`` of every member, marched as in ``solve_split_many``."""
    values, _ = _march(members, grids, milstein=True)
    return [MilsteinTrajectory(grid, values[k], driver, field, z)
            for k, ((driver, field, z, _), grid)
            in enumerate(zip(members, grids))]


def solve_split(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                y0, grid: Grid) -> SplitTrajectory:
    """Iterate the split update over the grid; deterministic in its inputs."""
    return solve_split_many([(driver, field, z, y0)], [grid])[0]


def solve_milstein(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                   y0, grid: Grid) -> MilsteinTrajectory:
    """Second-order Euler reference: y_{j+1} = y_j + f(y_j) X + Z(y_j)."""
    return solve_milstein_many([(driver, field, z, y0)], [grid])[0]


def write_trajectory_csv(traj, fileobj) -> None:
    """Write grid rows "j,t,u1..un,v1..vn"; v columns are empty at j = 0.

    Milstein trajectories get the same layout with all v columns empty.
    """
    if isinstance(traj, MilsteinTrajectory):
        u, v = traj.values, None
    else:
        u, v = traj.u, traj.v
    n = u.shape[1]
    header = ("j,t," + ",".join(f"u{i + 1}" for i in range(n)) + ","
              + ",".join(f"v{i + 1}" for i in range(n)))
    fileobj.write(header + "\n")
    pts = traj.grid.points
    for j in range(len(pts)):
        cells = [str(j), repr(float(pts[j]))]
        cells += [repr(float(x)) for x in u[j]]
        if j == 0 or v is None:
            cells += [""] * n
        else:
            cells += [repr(float(x)) for x in v[j - 1]]
        fileobj.write(",".join(cells) + "\n")


def solve_ode_reference(path: SampledPath, field: VectorField, y0,
                        grid: Grid, substeps: int = 64) -> np.ndarray:
    """Fixed-step RK4 reference for dY = f(Y) x'(t) dt along the interpolant.

    Runs ``substeps`` fourth-order steps per grid interval; the slope of the
    piecewise-linear path is sampled at each substep midpoint, so when
    substep boundaries align with the path's sample times every stage sees
    the exact segment slope.  Returns values at the grid points, shape
    (N+1, n).
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    y0 = np.asarray(y0, dtype=float)
    if path.times[0] > 0.0 or path.times[-1] < grid.T - 1e-9 * grid.T:
        raise ValueError("path does not cover the grid span")
    total = grid.N * substeps
    dt = grid.T / total
    mids = (np.arange(total) + 0.5) * dt
    seg = np.clip(np.searchsorted(path.times, mids, side="right") - 1,
                  0, path.n_samples - 2)
    dts = np.diff(path.times)
    slopes = (np.diff(path.values, axis=0) / dts[:, None])[seg]
    out = np.empty((grid.N + 1, field.n))
    out[0] = y0
    y = y0
    # the hook bound once: every stage state is already a float array
    f = field._fn
    sixth = dt / 6.0
    for m in range(total):
        w = slopes[m]
        k1 = f(y) @ w
        k2 = f(y + (0.5 * dt) * k1) @ w
        k3 = f(y + (0.5 * dt) * k2) @ w
        k4 = f(y + dt * k3) @ w
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (m + 1) % substeps == 0:
            out[(m + 1) // substeps] = y
    if not np.isfinite(out).all():
        raise NumericFailure("reference integration left finite range")
    return out
