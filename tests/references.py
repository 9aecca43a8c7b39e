"""Single-state formulas and exhaustive loops kept as bitwise references.

The package defines each field, driver and map by one stacked or batch
form, with single calls as its one-row views.  The per-state and
per-interval formulas below are the ones those views replaced; a test that
compares a stack with them compares two programs, not one with itself.
Likewise ``hoelder_band_loop`` evaluates every sample pair that
``rough_path.hoelder_seminorm`` prunes, ``davie_row_form_loop`` screens
the Davie rows one at a time where ``convergence_lab._row_form_maxima``
takes blocks of rows, and ``trajectory_csv_joined`` joins each CSV row
from its cells where ``write_trajectory_csv`` formats a block at once.
"""

from bisect import bisect_right

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rdesplit.model import _Z_SUBSCRIPTS, c_einsum


def sine_coefficients(n, d, seed=0, amplitude=1.0, frequency=1.0):
    """(amp, W, phi) of ``sine_field(n, d, seed, amplitude, frequency)``."""
    rng = np.random.default_rng(seed)
    amp = amplitude * (0.5 + 0.5 * rng.random((n, d)))
    W = frequency * rng.standard_normal((n, d, n))
    phi = 2.0 * np.pi * rng.random((n, d))
    return amp, W, phi


def sine_forms(n, d, seed=0, amplitude=1.0, frequency=1.0):
    """(fn, grad_fn) of the sine preset at one state."""
    amp, W, phi = sine_coefficients(n, d, seed, amplitude, frequency)

    def fn(x):
        arg = np.einsum("iam,m->ia", W, x)
        arg += phi
        np.sin(arg, out=arg)
        arg *= amp
        return arg

    def grad_fn(x):
        core = amp * np.cos(np.einsum("iam,m->ia", W, x) + phi)
        return core[:, :, None] * W

    return fn, grad_fn


def linear_forms(A, offset):
    """(fn, grad_fn) of ``linear_field(A, offset)`` at one state."""
    A, b = np.asarray(A, dtype=float), np.asarray(offset, dtype=float)
    return (lambda x: b + A @ x), (lambda x: A)


def constant_forms(C):
    """(fn, grad_fn) of ``constant_field(C)`` at one state."""
    C = np.asarray(C, dtype=float)
    zero_grad = np.zeros(C.shape + (C.shape[0],))
    return (lambda x: C), (lambda x: zero_grad)


def _locate(lift, t):
    """The lift's segment of one time by bisection, out of span rejected."""
    times = lift.times.tolist()
    lo, hi = times[0], times[-1]
    tol = 1e-9 * max(1.0, abs(hi - lo))
    if t < lo - tol or t > hi + tol:
        raise ValueError(f"query time {t} outside path span [{lo}, {hi}]")
    i = bisect_right(times, t) - 1
    return min(max(i, 0), len(times) - 2)


def lift_increment(lift, s, t):
    """X_{s,t} of a ``rough_path._PiecewiseLinearLift`` at one interval."""
    i, j = _locate(lift, s), _locate(lift, t)
    times = lift.times.tolist()
    return (lift.values[j] - lift.values[i]
            + (t - times[j]) * lift.slopes[j]
            - (s - times[i]) * lift.slopes[i])


def lift_area(lift, s, t):
    """XX_{s,t} of a ``rough_path._PiecewiseLinearLift`` at one interval."""
    i, j = _locate(lift, s), _locate(lift, t)
    times = lift.times.tolist()
    ds = s - times[i]
    dt = t - times[j]
    v0, vi, vj = lift.values[0], lift.values[i], lift.values[j]
    step_s = ds * lift.slopes[i]
    step_t = dt * lift.slopes[j]
    xs = vi + step_s
    xt = vj + step_t
    base = (lift.base_area[j] - lift.base_area[i]
            + (0.5 * dt * dt) * lift.seg_outer[j]
            - (0.5 * ds * ds) * lift.seg_outer[i]
            + (vj - v0)[:, None] * step_t[None, :]
            - (vi - v0)[:, None] * step_s[None, :])
    rel = xs - v0
    return base - rel[:, None] * (xt - xs)[None, :]


def area_linear_z(f_x, grad_x, area, transpose):
    """Z of the canonical (or transposed) map at one state and interval,
    from f, ∇f and the raw area there: row 0 of one contraction against a
    two-row stack of areas, which einsum sums in the order of every longer
    stack (a one-row stack differs at n = 1, d = 2)."""
    areas = np.stack([area, np.zeros_like(area)])
    if transpose:
        areas = areas.swapaxes(-1, -2)
    return np.einsum(_Z_SUBSCRIPTS, grad_x[None], f_x[None], areas)[0]


def chen_defect(increment, area, s, u, t):
    """The Chen defect of one triple from per-interval ``increment`` and
    ``area``."""
    left = increment(s, u)
    right = increment(u, t)
    defect = (area(s, t) - area(s, u) - area(u, t)
              - left[:, None] * right[None, :])
    return float(np.max(np.abs(defect)))


def hoelder_band_loop(path, beta, band=2**13):
    """``hoelder_seminorm`` as one evaluation of every sample pair, in bands
    of consecutive lags of at most ``band`` entries, each ratio formed by a
    difference per column, squares summed in column order, sqrt,
    np.power, then divide."""
    m = path.n_samples
    # m padding samples at t = +inf: a band entry past the last sample has
    # ratio 0 and never raises the maximum
    times = np.concatenate([path.times, np.full(m, np.inf)])
    columns = np.concatenate([path.values, np.zeros((m, path.d))]).T.copy()

    def windows(a, start, lags, count):
        # [k, i] = a[start + k + i]
        return sliding_window_view(a, count)[start:start + lags]

    best = 0.0
    lag = 1
    while lag < m:
        rows = m - lag
        width = min(max(band // rows, 1), rows)
        for lo in range(0, rows, band):
            hi = min(lo + band, rows)
            start = lo + lag
            scale = windows(times, start, width, hi - lo) - times[lo:hi]
            np.power(scale, beta, out=scale)
            norm = None
            for col in columns:
                diff = windows(col, start, width, hi - lo) - col[lo:hi]
                np.multiply(diff, diff, out=diff)
                norm = diff if norm is None else np.add(norm, diff, out=norm)
            np.sqrt(norm, out=norm)
            np.divide(norm, scale, out=norm)
            best = max(best, float(norm.max()))
        lag += width
    return best


def davie_row_form_loop(u, x, areas, f, grad, z, times, exponent):
    """The row-form maxima of ``_row_form_maxima``, one row at a time: the
    weights [I | -P_k | -K(u_k)] of row k applied to the columns [u; x; A]
    at every m > k less the same weights applied at k, as two matmuls.  A
    row whose largest squared ratio overflows is scored again as norms over
    powers, as there."""
    N, n, d = f.shape
    coeff = z.coefficient_many(f, grad)
    P = f - c_einsum("kiab,ka->kib", coeff, x[:N])
    columns = np.concatenate([u, x, areas.reshape(N + 1, d * d)], axis=1).T
    columns = np.ascontiguousarray(columns)
    weights = np.concatenate([np.broadcast_to(np.eye(n), (N, n, n)), -P,
                              -coeff.reshape(N, n, d * d)], axis=2)
    maxima = np.empty(N)
    for k in range(N):
        w = weights[k]
        residual = w @ columns[:, k + 1:]
        residual -= w @ columns[:, k:k + 1]
        norms = c_einsum("ij,ij->j", residual, residual)
        gaps = times[k + 1:] - times[k]
        maxima[k] = np.sqrt(np.max(norms / np.power(gaps, 2 * exponent)))
        if maxima[k] == np.inf:
            maxima[k] = np.max(np.sqrt(norms) / np.power(gaps, exponent))
    return maxima


def trajectory_csv_joined(u, v, points, block):
    """The trajectory CSV with each row joined from its cells' ``str``,
    ``block`` rows per write; ``v`` is None for the Milstein layout."""
    n = u.shape[1]
    out = ["j,t," + ",".join(f"u{i + 1}" for i in range(n)) + ","
           + ",".join(f"v{i + 1}" for i in range(n)) + "\n"]
    blank = [""] * n
    for lo in range(0, len(points), block):
        hi = lo + block
        us = u[lo:hi].tolist()
        if v is None:
            vs = [blank] * len(us)
        else:
            vs = [blank] * (lo == 0) + v[max(lo - 1, 0):hi - 1].tolist()
        out.append("".join(
            ",".join(map(str, [j, t, *u_j, *v_j])) + "\n"
            for j, t, u_j, v_j in zip(range(lo, hi), points[lo:hi].tolist(),
                                      us, vs)))
    return "".join(out)
