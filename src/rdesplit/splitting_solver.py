r"""Two-stage splitting scheme for dY = f(Y) dX and its one-step reference.

Per interval [t_j, t_{j+1}] the split update is

    v_{j+1} = u_j + f(u_j) X_{t_j, t_{j+1}}      (transport stage)
    u_{j+1} = v_{j+1} + Z(v_{j+1})_{t_j, t_{j+1}}   (second-order stage)

with the continuous-time trajectory obtained by running each stage at twice
the rate over half of the interval.  The reference one-step map is the
second-order Euler (Milstein) update y -> y + f(y) X + Z(y).

Both schemes run on one stepping loop over a fixed grid, so every X_{s,t}
and XX_{s,t} they need is known before the loop starts.  The increments
come from one ``increment_many`` query per solve, and Z is evaluated
through ``SecondOrderMap.on_grid``: maps linear in the area take the areas
of all intervals from one ``area_many`` query on the map's own driver.  A
driver without batch hooks is queried once per interval instead.  The
arithmetic of each step is that of the per-interval scalar queries, so
trajectories are bitwise those of a loop calling ``increment`` and
``z(x, s, t)`` step by step.

The joined path is evaluated the same way on an array of times: the
states u_j and v_{j+1} of all requested times form one stack each, for
one stacked field evaluation and one ``GridZ.at`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .model import GridZ, SecondOrderMap, VectorField, _check_pairing, _matvec
from .rough_path import Grid, RoughDriver, SampledPath

__all__ = [
    "SplitTrajectory",
    "MilsteinTrajectory",
    "split_step",
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
    driver: RoughDriver
    field: VectorField
    z: SecondOrderMap


def _split_update(u, inc, field: VectorField, z_on: GridZ, j: int):
    """The split step over interval j: (stage-1 endpoint v, next value)."""
    v = u + field(u) @ inc
    return v, v + z_on(v, j)


def split_step(u, s: float, t: float, field: VectorField, z: SecondOrderMap,
               driver: RoughDriver):
    """One split interval: returns (stage-1 endpoint v, interval value u_next)."""
    if not s < t:
        raise ValueError(f"need s < t, got s={s}, t={t}")
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise NumericFailure("non-finite state entering split step")
    return _split_update(u, driver.increment(s, t), field, z.on_grid([s], [t]), 0)


def _march(driver: RoughDriver, field: VectorField, z: SecondOrderMap, y0,
           grid: Grid, update) -> np.ndarray:
    """Validate the inputs, then iterate ``update`` over the grid intervals.

    ``update(state, X_j, z_on, j)`` returns the state at t_{j+1}; ``z_on``
    is ``z`` on the grid intervals.  The increments and ``z_on`` are set up
    once per solve, with batch queries where the driver has them.  Returns
    the grid values, shape (N+1, n).
    """
    _check_pairing(field, driver)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (field.n,):
        raise ValueError(f"initial state must have shape ({field.n},), got {y0.shape}")
    if not np.isfinite(y0).all():
        raise NumericFailure("non-finite initial state", step=0)
    ss, tt = grid.points[:-1], grid.points[1:]
    incs = driver.increment_many(ss, tt)
    z_on = z.on_grid(ss, tt)
    values = np.empty((grid.N + 1, field.n))
    values[0] = y0
    state = y0
    for j in range(grid.N):
        state = update(state, incs[j], z_on, j)
        if not np.isfinite(state).all():
            raise NumericFailure(f"state left finite range at step {j + 1}",
                                 step=j + 1)
        values[j + 1] = state
    return values


def solve_split(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                y0, grid: Grid) -> SplitTrajectory:
    """Iterate the split update over the grid; deterministic in its inputs."""
    v = np.empty((grid.N, field.n))

    def update(u, inc, z_on, j):
        v[j], u_next = _split_update(u, inc, field, z_on, j)
        return u_next

    u = _march(driver, field, z, y0, grid, update)
    return SplitTrajectory(grid, u, v, driver, field, z)


def solve_milstein(driver: RoughDriver, field: VectorField, z: SecondOrderMap,
                   y0, grid: Grid) -> MilsteinTrajectory:
    """Second-order Euler reference: y_{j+1} = y_j + f(y_j) X + Z(y_j)."""

    def update(y, inc, z_on, j):
        f_y, z_y = z_on.with_field(field, y, j)
        return y + f_y @ inc + z_y

    values = _march(driver, field, z, y0, grid, update)
    return MilsteinTrajectory(grid, values, driver, field, z)


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
