r"""Two-stage splitting scheme for dY = f(Y) dX and its one-step reference.

Per interval [t_j, t_{j+1}] the split update is

    v_{j+1} = u_j + f(u_j) X_{t_j, t_{j+1}}      (transport stage)
    u_{j+1} = v_{j+1} + Z(v_{j+1})_{t_j, t_{j+1}}   (second-order stage)

with the continuous-time trajectory obtained by running each stage at twice
the rate over half of the interval.  The reference one-step map is the
second-order Euler (Milstein) update y -> y + f(y) X + Z(y).

Both schemes run on one stepping loop over fixed grids, so every X_{s,t}
and XX_{s,t} they need is known before the loop starts.  A Milstein step
(u + f(u) X) + Z(u) is the split step with Z taken at the state the step
starts from instead of at the stage-1 endpoint, so one step formula serves
both.  The loop has a leading member axis: one Python step advances M
problems (driver, field, Z, start) whose fields share one shape (n, d),
each on its own grid and with its own scheme, for instance every seed and
level of one rate experiment, or both schemes at the three levels of
``compare-schemes``, and a single solve is the march of one member.
Members are ordered longest grid first, so those still stepping are always
a prefix of the stack, which is cut only where a member finishes.  The increments come from one ``increment_many`` query
per distinct driver and grid and are held step by step, one row per
member and step; each step's drift is one matmul of them with the field
rows.  Members that share one field evaluate it as one stack of states,
and when its maps are all canonical or all transposed, one stacked
evaluation per stage feeds one contraction of the areas of every map's own
driver (one ``area_many`` query per distinct driver and grid).  Maps that
do not read the state (zero and rough-probe) give the Z rows of every
interval as one array before the loop; distinct field objects and other
maps fall back to one call per member row.  A driver without batch hooks
is queried once per interval.  The arithmetic of each step is that of the
per-interval scalar queries, so every member's trajectory is bitwise that
of a loop calling ``increment`` and ``z(x, s, t)`` step by step (but for
stacked Z with n = 1 and d = 2, see ``model``).

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
    "solve_many",
    "solve_split",
    "solve_milstein",
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


# Steps run between two finite-state checks.  The first non-finite row of a
# block is the failing step for any field or map: every stage adds to the
# state it starts from, and IEEE addition keeps a non-finite entry
# non-finite.
FINITE_BLOCK = 64

# The per-member schemes of a march: the split update and the one-step
# second-order Euler (Milstein) update.
SCHEMES = ("split", "milstein")


def _run_view(rows, run):
    """A step-major array's rows on the steps of one run, shape
    (steps, members, ...)."""
    m, j0, j1, span = run
    return rows[span].reshape((j1 - j0, m) + rows.shape[1:])


def _member_stages(members, grids, step_major):
    """Stage evaluators of M members, member k on ``grids[k]``, longest
    first.

    Returns ``stages(run)``.  A run (m, j0, j1, span) is steps j0 to j1 - 1,
    on which the first m members step; ``step_major`` lays per-member
    arrays out step by step, so that a run's rows are the one block
    ``span``.  For a run, ``stages`` gives ``drift(y, i)``, the rows
    f_k(y[k]) X^k over step j0 + i, and ``z_at(y, i)``, the rows Z_k(y[k])
    over it, for an (m, n) stack of states y.  Members with the same driver
    object and grid share one ``increment_many`` query, and maps with the
    same driver and grid one ``area_many`` query.  A step's drift is one
    matmul of its increments with the field rows, one stacked evaluation
    of a field that every member shares, or one call per row of members
    that hold distinct field objects.  When every map is area-linear on a
    shared field, all canonical or all transposed, its stacked form feeds
    one contraction of the members' areas.  When no map reads the state,
    the Z rows of every interval are one array.  Otherwise each map is
    called on its own row.  Either way row k is bitwise member k's
    single-state evaluation (but for n = 1, d = 2).
    """
    drivers, fields, zs, y0s = zip(*members)
    field = fields[0]
    intervals = [(grid.points[:-1], grid.points[1:]) for grid in grids]

    def queries(name, owners):
        """``owner.name(ss, tt)`` on every member's intervals, one call per
        distinct (owner, grid)."""
        memo = {}
        for owner, grid, (ss, tt) in zip(owners, grids, intervals):
            key = id(owner), grid
            if key not in memo:
                memo[key] = getattr(owner, name)(ss, tt)
            yield memo[key]

    incs = step_major(queries("increment_many", drivers))[..., None]
    # hooks bound once: a wrapper call per step costs more than a small stack
    stacked = all(f is field for f in fields)
    if stacked:
        values = field._value_many_fn
    else:
        def values(y):
            return np.array([f(x) for f, x in zip(fields, y)])

    def drift_on(run):
        inc = _run_view(incs, run)
        return lambda y, i: np.matmul(values(y), inc[i])[..., 0]

    z0 = zs[0]
    if stacked and all(isinstance(z, _AreaLinearZ) and z.field is field
                       and z.transpose == z0.transpose for z in zs):
        value_and_grad_many = field._value_and_grad_many_fn
        areas = step_major(queries("area_many", [z.driver for z in zs]))

        def z_on(run):
            # einsum sums in the order of the areas' strides: one kind of
            # map only
            area = z0.oriented(_run_view(areas, run))

            def z_at(y, i):
                f_y, grad_y = value_and_grad_many(y)
                return np.einsum(_Z_SUBSCRIPTS, grad_y, f_y, area[i])

            return z_at
    elif all(isinstance(z, _TimeOnlyZ) for z in zs):
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

    return lambda run: (drift_on(run), z_on(run))


def _z_point(at_start):
    """``point(state, v)``: the rows at which Z is evaluated, the state a
    step starts from where ``at_start`` holds (Milstein) and the stage-1
    endpoint v elsewhere (split)."""
    if not at_start.any():
        return lambda state, v: v
    if at_start.all():
        return lambda state, v: state
    at_start = at_start[:, None]
    return lambda state, v: np.where(at_start, state, v)


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
    raise NumericFailure(f"state left finite range at step {step}" if step
                         else "non-finite initial state",
                         step=step, member=member)


def _march(members, grids, schemes):
    """Advance M members (driver, field, z, y0), member k over ``grids[k]``
    with the scheme ``schemes[k]``, "split" or "milstein", together.

    One Python step advances every member whose grid has steps left, as a
    stack of states.  The members are ordered longest grid first, so those
    still stepping are always the first m, and the stack is sliced only
    at the steps where m falls; on one shared grid it never is.  The
    increments and Z on every member's intervals are set up once, with
    batch queries where the drivers have them, and held step by step: one
    row per member and step, Σ N_k rows in all.  Every row takes the
    transport stage v = u + f(u) X and adds Z at a point w: the split
    update takes w = v, the one-step second-order Euler (Milstein) update
    w = u, since (u + f(u) X) + Z(u) is its u + f(u) X + Z(u).  Every
    member is bitwise its own single-member march.  Returns, per member in
    the given order, the grid values, shape (N_k+1, n), and the split
    stage-1 endpoints, shape (N_k, n), or None for a Milstein member.

    The states are checked every ``FINITE_BLOCK`` steps; a member that left
    the finite range raises NumericFailure with the first failing step and
    the member's index (the lowest member at equal steps).
    """
    if not members:
        raise ValueError("need at least one member")
    M = len(members)
    for name, given in (("grids", grids), ("schemes", schemes)):
        if len(given) != M:
            raise ValueError(f"{M} members need as many {name}, "
                             f"got {len(given)}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    n = members[0][1].n
    shape = n, members[0][1].d
    y0s = []
    for driver, field, _, y0 in members:
        _check_pairing(field, driver)
        if (field.n, field.d) != shape:
            raise ValueError(f"member fields have shapes (n, d) = {shape} "
                             f"and {(field.n, field.d)}")
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
                            [grids[k] for k in order], step_major)
    at_start = np.array([schemes[k] == "milstein" for k in order])
    # the states after step j follow the M initial states step by step
    values = np.empty((M + starts[-1], n))
    values[:M] = [y0s[k] for k in order]
    after = np.concatenate(([0], M + starts))
    _check_finite(values, after, order, 0, 1)
    mid = np.empty((starts[-1], n))
    state = values[:M]
    for run in runs:
        m, j0, j1, _ = run
        if m < len(state):
            state = state[:m]
        drift, z_at = stages(run)
        point = _z_point(at_start[:m])
        out, mids = _run_view(values[M:], run), _run_view(mid, run)
        for lo in range(0, j1 - j0, FINITE_BLOCK):
            hi = min(lo + FINITE_BLOCK, j1 - j0)
            try:
                for i in range(lo, hi):
                    v = mids[i] = state + drift(state, i)
                    state = v + z_at(point(state, v), i)
                    out[i] = state
            except Exception:
                # a field or map may reject the non-finite state that a
                # failed member carries on to the end of its block
                _check_finite(values, after, order, j0 + lo + 1, j0 + i + 1)
                raise
            _check_finite(values, after, order, j0 + lo + 1, j0 + hi + 1)
    # the stages hold every increment and area: free them before the copies
    del stages, drift, z_at
    us, vs = [None] * M, [None] * M
    for p, (k, N) in enumerate(zip(order, Ns)):
        us[k] = values[after[:N + 1] + p]
        if schemes[k] == "split":
            vs[k] = mid[starts[:N] + p]
    return us, vs


def solve_many(members, grids, schemes) -> list:
    """Solve every (driver, field, z, y0) member, member k on ``grids[k]``
    with the scheme ``schemes[k]``: a ``SplitTrajectory`` for "split", a
    ``MilsteinTrajectory`` for "milstein".  Every member's field has one
    shape (n, d).

    The members are marched together, one Python step for all of them
    that still have steps left, and each trajectory is bitwise its own
    ``solve_split`` or ``solve_milstein``.  Members that share one preset
    field and area-linear maps on it (the seeds and levels of one rate
    experiment, or both schemes of ``compare-schemes``) are evaluated as
    stacks.
    """
    us, vs = _march(members, grids, schemes)
    return [SplitTrajectory(grid, u, v, driver, field, z) if v is not None
            else MilsteinTrajectory(grid, u)
            for (driver, field, z, _), grid, u, v
            in zip(members, grids, us, vs)]


def solve_split(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                y0, grid: Grid) -> SplitTrajectory:
    """Iterate the split update over the grid; deterministic in its inputs."""
    return solve_many([(driver, field, z, y0)], [grid], ["split"])[0]


def solve_milstein(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                   y0, grid: Grid) -> MilsteinTrajectory:
    """Second-order Euler reference: y_{j+1} = y_j + f(y_j) X + Z(y_j)."""
    return solve_many([(driver, field, z, y0)], [grid], ["milstein"])[0]


# Rows of a trajectory CSV formatted per write: the text of a whole long
# trajectory, held at once, would raise a solve's peak memory.
CSV_BLOCK = 512


def write_trajectory_csv(traj, fileobj) -> None:
    """Write grid rows "j,t,u1..un,v1..vn"; v columns are empty at j = 0.

    Milstein trajectories get the same layout with all v columns empty.
    """
    if isinstance(traj, MilsteinTrajectory):
        u, v = traj.values, None
    else:
        u, v = traj.u, traj.v
    n = u.shape[1]
    fileobj.write("j,t," + ",".join(f"u{i + 1}" for i in range(n)) + ","
                  + ",".join(f"v{i + 1}" for i in range(n)) + "\n")
    # the cells are Python floats from tolist(), whose str is repr(float(x)),
    # and empty strings for the empty v columns
    blank = [""] * n
    pts = traj.grid.points
    for lo in range(0, len(pts), CSV_BLOCK):
        hi = lo + CSV_BLOCK
        us = u[lo:hi].tolist()
        if v is None:
            vs = [blank] * len(us)
        else:
            vs = [blank] * (lo == 0) + v[max(lo - 1, 0):hi - 1].tolist()
        fileobj.write("".join(
            ",".join(map(str, [j, t, *u_j, *v_j])) + "\n"
            for j, t, u_j, v_j in zip(range(lo, hi), pts[lo:hi].tolist(),
                                      us, vs)))


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
