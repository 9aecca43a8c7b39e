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
a prefix of the stack, and every per-member array is held step-major: step
j's rows are one window, starts[j] to starts[j+1], of one member each.
The increments come from one ``increment_many`` query per distinct driver
and grid, and each step's drift is one matmul of its window with the field
rows.  Members that share one field evaluate it as one stack of states.
Z is evaluated by ``model`` alone: every map's ``on_grid`` form (one per
distinct map object and grid) is stacked into one ``GridZ`` by
``model.stack_grids``, and each step takes the rows of its window.  A
driver built from per-interval callables is queried once per interval.
A single query, ``increment(s, t)`` or ``z(x, s, t)``, is the one row of
the same batch form, so every member's trajectory is bitwise that of a
loop calling them step by step.

The joined path is evaluated the same way on an array of times: the
states u_j and v_{j+1} of all requested times form one stack each, for
one stacked field evaluation and one ``GridZ.rows`` call.

A step, and a substep of the RK4 reference ``solve_ode_reference``, is a
few numpy calls on arrays of n entries, so its cost is their call
overhead.  Both loops call numpy's compiled einsum kernel through the
fields and maps (``model.c_einsum``), write stages in place where the
rounding allows, and bind their hooks once.  With d = n = 2 and the sine
field, a one-member canonical solve takes about 16 us per step and the
RK4 reference, run as one window, about 25 us per substep, in the
benchmark's reference seconds.  On a smooth driver the reference runs as
a stack of up to 64 time windows instead, each substep of a sweep
advancing every window, and its rows stay bitwise those of the one
window: 16,384 substeps (N = 256) take 0.15-0.17 s rather than 0.42 s.
A stacked step or substep also pays numpy's loops per row, so the sine
preset combines a stack of up to ``model.TILE_ROWS`` states with
coefficient tiles rather than broadcasting them row by row
(``model.sine_field``): that takes about 13 % off ``compare-schemes``'
six-member march and 11-13 % off the windowed reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .model import (SecondOrderMap, VectorField, _check_pairing, _matvec,
                    canonical_z_rows, stack_grids)
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
        evaluation, all times on second halves one ``on_grid(...).rows``
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
        out[second] = v + z_on.rows(v, 0, len(v))
        return out.reshape(ts.shape + (self.field.n,))


@dataclass
class MilsteinTrajectory:
    """Grid values of the one-step second-order Euler scheme."""

    grid: Grid
    values: np.ndarray


# Steps, or grid intervals of the RK4 reference, run between two
# finite-state checks.  The first non-finite row of a block is the failing
# step for any field or map: every stage adds to the state it starts from,
# and IEEE addition keeps a non-finite entry non-finite.
FINITE_BLOCK = 64

# The per-member schemes of a march: the split update and the one-step
# second-order Euler (Milstein) update.
SCHEMES = ("split", "milstein")


def _member_stages(members, grids, layout):
    """The stages of M members, member k on ``grids[k]``, longest first,
    with per-member arrays laid out step-major by ``layout``.

    Returns (values, incs, z_rows): ``values(y)``, the field rows f_k(y[k])
    of an (m, n) stack of states, one stacked call of a field that every
    member shares or one call per row; ``incs``, the step-major increments;
    and ``z_rows(y, lo, hi)``, the Z rows of the members on step-major rows
    lo to hi - 1, from ``model.stack_grids``.  Members with one driver object
    and grid share one ``increment_many`` query, and members with one map
    object and grid one ``on_grid`` form, so one ``area_many`` query.
    """
    drivers, fields, zs, _ = zip(*members)
    field = fields[0]

    def queries(name, owners):
        """``owner.name(ss, tt)`` on every member's intervals, one call per
        distinct (owner, grid)."""
        memo = {}
        for owner, grid in zip(owners, grids):
            key = id(owner), grid
            if key not in memo:
                memo[key] = getattr(owner, name)(grid.points[:-1],
                                                 grid.points[1:])
            yield memo[key]

    incs = layout(queries("increment_many", drivers))[..., None]
    # the hook bound once: a wrapper call per step outweighs a small stack
    if all(f is field for f in fields):
        values = field._value_many_fn
    else:
        def values(y):
            return np.array([f(x) for f, x in zip(fields, y)])
    z_rows = stack_grids(list(queries("on_grid", zs)), layout).rows
    return values, incs, z_rows


def _z_point(at_start):
    """``point(state, v)``: the rows at which Z is evaluated, the state a
    step starts from where ``at_start`` holds (Milstein) and the stage-1
    endpoint v elsewhere (split)."""
    if not at_start.any():
        return lambda state, v: v
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


def solve_many(members, grids, schemes) -> list:
    """Solve every (driver, field, z, y0) member, member k on ``grids[k]``
    with the scheme ``schemes[k]``: a ``SplitTrajectory`` for "split", a
    ``MilsteinTrajectory`` for "milstein".  Every member's field has one
    shape (n, d).

    One Python step advances every member whose grid has steps left, as a
    stack of states.  The members are ordered longest grid first, so those
    still stepping are always the first m, and the stack is cut only at the
    steps where m falls; on one shared grid it never is.  The increments
    and the Z forms of every member's intervals are set up once, with batch
    queries where the drivers have them, and laid out step-major: one row
    per member and step, Σ N_k rows in all, step j's rows the window
    starts[j] to starts[j+1].  Every row takes the transport stage
    v = u + f(u) X and adds Z at a point w: the split update takes w = v,
    the Milstein update w = u, since (u + f(u) X) + Z(u) is its
    u + f(u) X + Z(u).  Every trajectory is bitwise its own ``solve_split``
    or ``solve_milstein``.  Members that share one preset field and
    area-linear maps on it (the seeds and levels of one rate experiment, or
    both schemes of ``compare-schemes``) are evaluated as stacks.

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

    def step_major(arrays):
        """The per-member arrays (N_k, ...), longest first, as one array
        whose rows starts[j] + p are row j of member p."""
        out = None
        for p, a in enumerate(arrays):
            if out is None:
                out = np.empty((starts[-1],) + a.shape[1:], a.dtype)
            out[starts[:len(a)] + p] = a
        return out

    values_at, incs, z_rows = _member_stages([members[k] for k in order],
                                             [grids[k] for k in order],
                                             step_major)
    at_start = np.array([schemes[k] == "milstein" for k in order])
    # the states after step j follow the M initial states step by step
    values = np.empty((M + starts[-1], n))
    values[:M] = [y0s[k] for k in order]
    after = np.concatenate(([0], M + starts))
    _check_finite(values, after, order, 0, 1)
    out, mid = values[M:], np.empty((starts[-1], n))
    state, point = values[:M], _z_point(at_start)
    bounds = starts.tolist()
    # a blow-up is reported by the finite checks, as NumericFailure, so
    # numpy's warnings on the non-finite states are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, Ns[0], FINITE_BLOCK):
            j1 = min(j0 + FINITE_BLOCK, Ns[0])
            try:
                for j in range(j0, j1):
                    lo, hi = bounds[j], bounds[j + 1]
                    if hi - lo < len(state):
                        state = state[:hi - lo]
                        point = _z_point(at_start[:hi - lo])
                    # each stage written in place: no copy of a fresh stack
                    v = np.add(state, np.matmul(values_at(state),
                                                incs[lo:hi])[..., 0],
                               out=mid[lo:hi])
                    state = np.add(v, z_rows(point(state, v), lo, hi),
                                   out=out[lo:hi])
            except Exception:
                # a field or map may reject the non-finite state that a
                # failed member carries on to the end of its block
                _check_finite(values, after, order, j0 + 1, j + 1)
                raise
            _check_finite(values, after, order, j0 + 1, j1 + 1)
    # the stages hold every increment and area: free them before the copies
    del incs, z_rows
    trajs = [None] * M
    for p, (k, N) in enumerate(zip(order, Ns)):
        u = values[after[:N + 1] + p]
        trajs[k] = (SplitTrajectory(grids[k], u, mid[starts[:N] + p],
                                    *members[k][:3]) if schemes[k] == "split"
                    else MilsteinTrajectory(grids[k], u))
    return trajs


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
    # one % format per block: %r of a Python float from tolist() is its
    # str, and %d of a float j < 2^53 that of int j; row 0 and every
    # Milstein row leave the v columns empty
    pts = traj.grid.points
    blank = "%d" + ",%r" * (n + 1) + "," * n + "\n"
    if v is None:
        row, start = blank, 0
    else:
        fileobj.write(blank % (0, float(pts[0]), *u[0].tolist()))
        row, start = "%d" + ",%r" * (2 * n + 1) + "\n", 1
    for lo in range(start, len(pts), CSV_BLOCK):
        hi = min(lo + CSV_BLOCK, len(pts))
        cells = [np.arange(lo, hi, dtype=float), pts[lo:hi], u[lo:hi]]
        if v is not None:
            cells.append(v[lo - 1:hi - 1])
        block = np.column_stack(cells)
        fileobj.write(row * (hi - lo) % tuple(block.ravel().tolist()))


# The RK4 reference integrates up to REFERENCE_WINDOWS time windows of
# whole grid intervals as one stack, with COARSE_STEPS split steps per window
# as the coarse solver of its parareal iteration, when COARSE_STEPS and
# twice as many coarse steps from y0 differ by less than PROBE_LIMIT of every
# window's move (see solve_ode_reference).
REFERENCE_WINDOWS = 64
COARSE_STEPS = 2
PROBE_LIMIT = 1e-2


def _substep_slopes(path: SampledPath, grid: Grid, substeps: int):
    """(slopes, dt): the path's slope under the midpoint of each of the
    N * substeps RK4 substeps, shape (N * substeps, d), and their length."""
    total = grid.N * substeps
    dt = grid.T / total
    mids = (np.arange(total) + 0.5) * dt
    seg = np.clip(np.searchsorted(path.times, mids, side="right") - 1,
                  0, path.n_samples - 2)
    dts = np.diff(path.times)
    return (np.diff(path.values, axis=0) / dts[:, None])[seg], dt


def _substep_lift(slopes, dt: float, at):
    """(walk, lift): the substep path, the piecewise-linear path that the
    RK4 substeps integrate, and its iterated integrals from 0, at the
    substep boundaries ``at``, shapes (len(at), d) and (len(at), d, d).

    The sums run one component at a time, so they hold about two copies of
    one column of ``slopes`` beside the path.
    """
    total, d = slopes.shape
    walk = np.zeros((total + 1, d))
    np.cumsum(slopes, axis=0, out=walk[1:])
    lift = np.empty((len(at), d, d))
    column = np.zeros(total + 1)
    for a in range(d):
        for b in range(d):
            # a segment entered at w adds (w + s / 2)^a s^b
            term = slopes[:, a] * -0.5
            term += walk[1:, a]
            term *= slopes[:, b]
            np.cumsum(term, out=column[1:])
            lift[:, a, b] = column[at]
    return dt * walk[at], dt * dt * lift


def _coarse_solver(field: VectorField, walk, lift, bounds):
    """G(y, lo, hi): the windows lo to hi - 1 from an (hi - lo, n) stack of
    states, window k taking one split step (canonical Z) from each column
    of ``bounds[k]`` to the next, indices into the substep path ``walk``
    and its iterated integrals ``lift`` (see ``_substep_lift``).

    It moves the iteration count only, never a row of the reference.
    """
    s, e = bounds[:, :-1], bounds[:, 1:]
    X = walk[e] - walk[s]
    XX = lift[e] - lift[s] - walk[s][..., :, None] * X[..., None, :]
    X = X[..., None]
    value = field._value_many_fn

    def G(y, lo: int, hi: int) -> np.ndarray:
        for j in range(bounds.shape[1] - 1):
            v = y + np.matmul(value(y), X[lo:hi, j])[..., 0]
            y = v + canonical_z_rows(field, v, XX[lo:hi, j])
        return y

    return G


def _windows(field: VectorField, y0, slopes, dt: float, N: int,
             substeps: int):
    """(edges, starts, guesses, G): the grid-interval edges of up to
    REFERENCE_WINDOWS windows of whole intervals, their first starts from
    the coarse solver G, and G of each start.  One window, from y0, where
    windows would not pay.

    They pay only for a field whose hooks evaluate a stack in one call and
    where COARSE_STEPS and twice as many split steps from y0 agree on
    every window to PROBE_LIMIT of its move: on rough drivers the starts
    jitter in their last bits long after they agree to 1e-14, and the
    frontier then advances one window per sweep, at more than the
    sequential cost.  A probe or prediction that raises declines too.
    """
    K = min(REFERENCE_WINDOWS, N)
    q, r = divmod(N, K)
    # the longer windows first, so those of a sweep's last interval lead
    edges = np.concatenate(([0], np.cumsum([q + 1] * r + [q] * (K - r))))
    starts = np.empty((K, len(y0)))
    guesses = np.empty_like(starts)
    starts[0] = y0
    if K == 1 or not field._stacked:
        return edges[[0, -1]], starts[:1], guesses[:1], None
    spans = edges * substeps
    parts = 2 * COARSE_STEPS
    at = (spans[:-1, None] + (np.diff(spans)[:, None]
                              * np.arange(parts)) // parts).ravel()
    walk, lift = _substep_lift(slopes, dt, np.append(at, spans[-1]))
    # window k's boundaries, as indices into walk and lift
    bounds = parts * np.arange(K)[:, None] + np.arange(parts + 1)
    try:
        y = np.repeat(y0[None], K, axis=0)
        fine = _coarse_solver(field, walk, lift, bounds)(y, 0, K)
        G = _coarse_solver(field, walk, lift, bounds[:, ::2])
        gap = np.abs(G(y, 0, K) - fine).max(axis=1)
        move = np.abs(fine - y0).max(axis=1)
        # a non-finite probe fails the comparison
        pays = (gap < PROBE_LIMIT * move).all()
        for k in range(K - 1 if pays else 0):
            guesses[k] = G(starts[k:k + 1], k, k + 1)[0]
            starts[k + 1] = guesses[k]
    except Exception:
        pays = False
    if not pays:
        return edges[[0, -1]], starts[:1], guesses[:1], None
    return edges, starts, guesses, G


def _check_rows(out, lo: int, hi: int) -> None:
    """Raise NumericFailure at the first non-finite grid row lo..hi-1 of the
    reference ``out``."""
    bad = ~np.isfinite(out[lo:hi]).all(axis=1)
    if bad.any():
        step = int(lo + np.argmax(bad))
        raise NumericFailure("reference integration left finite range "
                             f"at step {step}", step=step)


def _rk4_sweep(f, dt: float, slopes, substeps: int, edges, y, out) -> None:
    """RK4 on an (m, n) stack of window starts ``y``: window p runs the
    grid intervals ``edges[p]`` to ``edges[p + 1] - 1``, the windows
    longest first.  Substep s of interval j takes the slope
    ``slopes[substeps * j + s]``, shape (d,), and interval j ends at row
    j + 1 of ``out``.  Each step of the sweep, one interval of every
    window still running, gathers their slopes in one index.

    The rows window 0 reached are checked (``_check_rows``) after every
    ``FINITE_BLOCK`` intervals and, before the exception goes on, when a
    field call raised; the other windows' rows are not.
    """
    matmul, add, multiply = np.matmul, np.add, np.multiply
    half, sixth = 0.5 * dt, dt / 6.0
    lengths = np.diff(edges)
    live = (lengths[:, None] > np.arange(lengths[0])).sum(axis=0).tolist()
    at = np.arange(substeps)[:, None]
    # the stage slopes go into (m, n, 1) buffers, read through (m, n) views
    # made once: a fresh view per stage costs about 5 % of a one-window
    # substep
    slots = np.empty((4,) + y.shape + (1,))
    for i0 in range(0, lengths[0], FINITE_BLOCK):
        i1 = min(i0 + FINITE_BLOCK, lengths[0])
        try:
            for i in range(i0, i1):
                m = live[i]
                if i == 0 or m < len(y):
                    y = y[:m]
                    k1s, k2s, k3s, k4s = slots[:, :m]
                    k1, k2, k3, k4 = slots[:, :m, :, 0]
                    first = edges[:m]
                for w in slopes[substeps * (first + i) + at][..., None]:
                    matmul(f(y), w, k1s)
                    matmul(f(add(y, multiply(half, k1))), w, k2s)
                    matmul(f(add(y, multiply(half, k2))), w, k3s)
                    matmul(f(add(y, multiply(dt, k3))), w, k4s)
                    y = add(y, multiply(sixth,
                                        k1 + 2.0 * k2 + 2.0 * k3 + k4))
                out[first + i + 1] = y
        except Exception:
            # a field may reject the non-finite state of an earlier row
            _check_rows(out, edges[0] + i0 + 1, edges[0] + i + 1)
            raise
        _check_rows(out, edges[0] + i0 + 1, edges[0] + i1 + 1)


def _correct(out, ends, starts, guesses, G, lo: int) -> int:
    """Parareal update of window starts lo + 1 on, after a sweep from
    ``starts`` that reached the rows ``out[ends[k]]`` at window ends;
    returns the first start that changed bitwise, len(starts) if none did.

    After a changed start k, start k + 1 is F(U_k) + (G(U_k) - G(U_k^old)),
    with F the sweep and ``guesses[k]`` = G(U_k^old); after an unchanged
    one it is F(U_k) itself, so every start up to the first changed one
    continues the sequential chain.
    """
    first = len(starts)
    new = out[ends[lo]]
    for k in range(lo + 1, len(starts)):
        if new.tobytes() == starts[k].tobytes():
            new = out[ends[k]]
            continue
        first = min(first, k)
        starts[k] = new
        g = G(starts[k:k + 1], k, k + 1)[0]
        new = out[ends[k]] + (g - guesses[k])
        guesses[k] = g
    return first


def solve_ode_reference(path: SampledPath, field: VectorField, y0,
                        grid: Grid, substeps: int = 64) -> np.ndarray:
    """Fixed-step RK4 reference for dY = f(Y) x'(t) dt along the interpolant.

    Runs ``substeps`` fourth-order steps per grid interval; the slope of the
    piecewise-linear path is sampled at each substep midpoint, so when
    substep boundaries align with the path's sample times every stage sees
    the exact segment slope.  Returns values at the grid points, shape
    (N+1, n), bitwise those of one RK4 loop over every substep.

    Known defect: nothing checks that alignment.  A substep spanning several
    path segments takes one slope, so the ODE runs along another path: at
    N = 64 on a 2^14-segment synthetic path (4 segments per substep) that
    path lies up to 4.89 away from the driver's, whose largest entry is 1.46.

    The substeps run as one sweep over a stack of time windows, each a run
    of whole grid intervals (parareal: Lions, Maday and Turinici 2001,
    with COARSE_STEPS split steps per window as its coarse solver): up to
    ``REFERENCE_WINDOWS`` of them where ``_windows`` finds that they pay,
    else one window, which is the sequential loop.  Each sweep integrates
    every window from its start, and a coarse sweep corrects the starts.
    A start k + 1 whose predecessor did not change is the fine end of
    window k unchanged, so every window before the first start that
    changed holds the sequential rows bitwise.  Later sweeps begin at that
    frontier, which moves by at least one window per sweep, and the
    iteration stops once no start changes, after at most K sweeps.

    Only rows below the frontier are checked: a state that left the finite
    range there raises NumericFailure with the first non-finite grid row as
    its step, the row of the sequential loop.  The frontier window is
    checked every ``FINITE_BLOCK`` grid intervals, so with one window no
    later block is integrated.  A non-finite value past the frontier
    raises nothing.  A field that raises in a sweep of several windows,
    whichever sweep it is, makes the rest of the grid run as one window
    from the frontier, which raises only what the sequential loop would.
    """
    if int(substeps) != substeps or substeps < 1:
        raise ValueError(f"substeps must be a positive integer, got {substeps}")
    substeps = int(substeps)
    if field.d != path.d:
        raise ValueError(f"field driver-dimension {field.d} != path "
                         f"dimension {path.d}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (field.n,):
        raise ValueError(f"initial state must have shape ({field.n},), "
                         f"got {y0.shape}")
    if not path.covers(grid.T):
        raise ValueError("path does not cover the grid span")
    slopes, dt = _substep_slopes(path, grid, substeps)
    out = np.empty((grid.N + 1, field.n))
    out[0] = y0
    _check_rows(out, 0, 1)
    f = field._value_many_fn
    # as in the march, _check_rows reports a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        edges, starts, guesses, G = _windows(field, y0, slopes, dt, grid.N,
                                             substeps)
        lo = 0
        while lo < len(starts):
            try:
                _rk4_sweep(f, dt, slopes, substeps, edges[lo:], starts[lo:],
                           out)
                hi = _correct(out, edges[1:], starts, guesses, G, lo)
            except NumericFailure:
                raise
            except Exception:
                if len(starts) - lo == 1:
                    raise
                # a window past the frontier raised: the rest as one window
                edges, starts, lo = edges[[lo, -1]], starts[lo:lo + 1], 0
                continue
            _check_rows(out, edges[lo + 1] + 1, edges[hi] + 1)
            lo = hi
    return out
