r"""Two-stage splitting scheme for dY = f(Y) dX and its one-step reference.

Per interval [t_j, t_{j+1}] the split update is

    v_{j+1} = u_j + f(u_j) X_{t_j, t_{j+1}}      (transport stage)
    u_{j+1} = v_{j+1} + Z(v_{j+1})_{t_j, t_{j+1}}   (second-order stage)

with the continuous-time trajectory obtained by running each stage at twice
the rate over half of the interval.  The reference one-step map is the
second-order Euler (Milstein) update y -> y + f(y) X + Z(y).

Both schemes run on one stepping loop over a fixed grid, so every X_{s,t}
and XX_{s,t} they need is known before the loop starts.  The loop has a
leading member axis: one Python step advances M problems (driver, field,
Z, start) on the same grid, for instance the seeds of one rate level, and
a single solve is the march of one member.  The increments come from one
``increment_many`` query per member.  Members that share one preset field
evaluate it as an (M, n) stack, and area-linear maps on that field take
the areas of all intervals from one ``area_many`` query on each map's own
driver and contract them for all members in one einsum; other members
fall back to one call per member row.  A driver without batch hooks is
queried once per interval.  The arithmetic of each step is that of the
per-interval scalar queries, so every member's trajectory is bitwise that
of a loop calling ``increment`` and ``z(x, s, t)`` step by step.

The joined path is evaluated the same way on an array of times: the
states u_j and v_{j+1} of all requested times form one stack each, for
one stacked field evaluation and one ``GridZ.at`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .model import (SecondOrderMap, VectorField, _AreaLinearZ, _check_pairing,
                    _matvec)
from .rough_path import Grid, RoughDriver, SampledPath

__all__ = [
    "SplitTrajectory",
    "MilsteinTrajectory",
    "split_step",
    "solve_split",
    "solve_split_many",
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


def _member_stages(members, ss, tt):
    """Stage evaluators of M members on the intervals [ss[j], tt[j]].

    Returns ``drift(y, j)``, the rows f_k(y[k]) X^k_{j}, ``z_at(y, j)``,
    the rows Z_k(y[k]) over interval j, and ``both(y, j)``, the pair of
    them, for an (M, n) stack of states y.  Members that share one field
    with stacked hooks evaluate it in one array expression, and
    area-linear maps of one pairing on that field contract every member's
    areas (N, M, d, d) in one einsum.  Otherwise each member is evaluated
    on its own row, with its own field, driver and map.  Either way row k
    is bitwise member k's single-state evaluation.
    """
    drivers, fields, zs, _ = zip(*members)
    field = fields[0]
    incs = [driver.increment_many(ss, tt) for driver in drivers]
    stacked = (field._value_many_fn is not None
               and all(f is field for f in fields))
    if stacked:
        value_many = field._value_many_fn
        incs = np.stack(incs, axis=1)[..., None]

        def drift(y, j):
            return np.matmul(value_many(y), incs[j])[..., 0]
    else:
        def drift(y, j):
            return np.array([f(x) @ inc[j]
                             for f, x, inc in zip(fields, y, incs)])

    z0 = zs[0]
    if (stacked and field._value_and_grad_many_fn is not None
            and all(isinstance(z, _AreaLinearZ) and z.field is field
                    and z._at_subscripts == z0._at_subscripts for z in zs)):
        value_and_grad_many = field._value_and_grad_many_fn
        areas = np.stack([z.driver.area_many(ss, tt) for z in zs], axis=1)
        subscripts = z0._at_subscripts

        def z_at(y, j):
            f_y, grad_y = value_and_grad_many(y)
            return np.einsum(subscripts, grad_y, f_y, areas[j])

        def both(y, j):
            # the field is the map's own: evaluate it once for both stages
            f_y, grad_y = value_and_grad_many(y)
            return (np.matmul(f_y, incs[j])[..., 0],
                    np.einsum(subscripts, grad_y, f_y, areas[j]))

        return drift, z_at, both

    grid_zs = [z.on_grid(ss, tt) for z in zs]

    def z_at(y, j):
        return np.array([z_on(x, j) for z_on, x in zip(grid_zs, y)])

    return drift, z_at, lambda y, j: (drift(y, j), z_at(y, j))


def _check_finite(values: np.ndarray, lo: int, hi: int) -> None:
    """Raise NumericFailure at the first non-finite state among rows lo..hi-1
    of ``values`` (steps, M, n); the lowest member wins a tie."""
    block = values[lo:hi]
    if np.isfinite(block).all():
        return
    row, member = np.argwhere(~np.isfinite(block).all(axis=2))[0]
    step = lo + int(row)
    message = (f"state left finite range at step {step}" if step
               else "non-finite initial state")
    if values.shape[1] > 1:
        message += f" in member {member}"
    raise NumericFailure(message, step=step, member=int(member))


def _march(members, grid: Grid, milstein: bool):
    """Advance M members (driver, field, z, y0) over one grid together.

    One Python step advances every member, as an (M, n) stack of states;
    the increments and Z on the grid intervals are set up once, with batch
    queries where the drivers have them.  Each step is the split update
    (transport, then Z at the stage-1 endpoint) or, with ``milstein``, the
    one-step second-order Euler update.  Every member is bitwise its own
    single-member march.  Returns the grid values, shape (M, N+1, n), and
    the split stage-1 endpoints, shape (M, N, n), or None for Milstein.

    The states are checked every ``FINITE_BLOCK`` steps; a member that left
    the finite range raises NumericFailure with the first failing step and
    the member's index (the lowest member at equal steps).
    """
    if not members:
        raise ValueError("need at least one member")
    n = members[0][1].n
    values = np.empty((grid.N + 1, len(members), n))
    for k, (driver, field, _, y0) in enumerate(members):
        _check_pairing(field, driver)
        if field.n != n:
            raise ValueError(f"member fields have state dimensions {n} and {field.n}")
        y0 = np.asarray(y0, dtype=float)
        if y0.shape != (n,):
            raise ValueError(f"initial state must have shape ({n},), got {y0.shape}")
        values[0, k] = y0
    _check_finite(values, 0, 1)
    drift, z_at, both = _member_stages(members, grid.points[:-1],
                                       grid.points[1:])
    mid = None if milstein else np.empty((grid.N, len(members), n))
    state = values[0]
    for lo in range(0, grid.N, FINITE_BLOCK):
        hi = min(lo + FINITE_BLOCK, grid.N)
        try:
            for j in range(lo, hi):
                if milstein:
                    f_x, z_x = both(state, j)
                    state = state + f_x + z_x
                else:
                    v = mid[j] = state + drift(state, j)
                    state = v + z_at(v, j)
                values[j + 1] = state
        except Exception:
            # a field or map may reject the non-finite state that a failed
            # member carries on to the end of its block
            _check_finite(values, lo + 1, j + 1)
            raise
        _check_finite(values, lo + 1, hi + 1)
    u = np.ascontiguousarray(values.transpose(1, 0, 2))
    return u, None if milstein else np.ascontiguousarray(mid.transpose(1, 0, 2))


def solve_split_many(members, grid: Grid) -> list:
    """``solve_split`` of every (driver, field, z, y0) member on one grid.

    The members are marched together, one Python step for all of them,
    and each trajectory is bitwise its own ``solve_split``.  Members that
    share one preset field and area-linear maps on it (the seeds of one
    rate level) are evaluated as stacks.
    """
    u, v = _march(members, grid, milstein=False)
    return [SplitTrajectory(grid, u[k], v[k], driver, field, z)
            for k, (driver, field, z, _) in enumerate(members)]


def solve_split(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                y0, grid: Grid) -> SplitTrajectory:
    """Iterate the split update over the grid; deterministic in its inputs."""
    return solve_split_many([(driver, field, z, y0)], grid)[0]


def solve_milstein(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                   y0, grid: Grid) -> MilsteinTrajectory:
    """Second-order Euler reference: y_{j+1} = y_j + f(y_j) X + Z(y_j)."""
    values, _ = _march([(driver, field, z, y0)], grid, milstein=True)
    return MilsteinTrajectory(grid, values[0], driver, field, z)


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
    f = field
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
