"""Drivers, fields and Z maps shared by the property tests."""

import numpy as np

from rdesplit import (RoughDriver, SampledPath, SecondOrderMap, VectorField,
                      canonical_z, constant_field, lift_piecewise_linear,
                      linear_field, rough_probe_z, scalar_driver, sine_field,
                      smooth_path, synth_midpoint_path, transposed_z, zero_z)

from references import constant_forms, linear_forms, sine_forms

SMOOTH_DRIVER = lift_piecewise_linear(smooth_path(d=2, segments=256))


def build_driver(kind, seed, d=2):
    """A driver of dimension ``d``; the scalar kind has dimension 1."""
    if kind == "synthetic":
        return lift_piecewise_linear(synth_midpoint_path(seed, 0.45, 8, d),
                                     alpha=0.45)
    if kind == "smooth":
        return (SMOOTH_DRIVER if d == 2 else
                lift_piecewise_linear(smooth_path(d=d, segments=256)))
    # no batch hooks: solves and diagnostics fall back to per-interval queries
    return scalar_driver(lambda t: np.sin(3.0 * t) + t * t)


def with_area(driver, area_fn):
    """``driver`` with its area replaced and no batch hooks, so its batch
    queries fall back to one scalar query per interval."""
    return RoughDriver(driver.dim, driver.alpha, driver.increment, area_fn,
                       driver.value, span=driver.span)


def coordinate_changed(field, M):
    """f'(y) = f(y) M⁻¹ as a field of stacked hooks.

    Driven by X' = M X it is the same equation: f' X' = f X, and on the
    lift's areas M 𝕏 Mᵀ the canonical and transposed maps of f' are those
    of f, term by term.
    """
    inverse = np.linalg.inv(M)

    def value_and_grad_many_fn(xs):
        f, grad = field.value_and_gradient_many(xs)
        return f @ inverse, np.einsum("kibm,ba->kiam", grad, inverse)

    return VectorField(field.n, field.d, gamma=field.gamma,
                       name=f"{field.name}-changed",
                       value_and_grad_many_fn=value_and_grad_many_fn)


def midpoints_inserted(path):
    """``path`` with every segment's midpoint inserted: the same
    piecewise-linear path on twice the segments."""
    times = np.empty(2 * path.n_samples - 1)
    values = np.empty((len(times), path.d))
    times[::2], values[::2] = path.times, path.values
    times[1::2] = 0.5 * (path.times[:-1] + path.times[1:])
    values[1::2] = 0.5 * (path.values[:-1] + path.values[1:])
    return SampledPath(times, values)


def _field_parameters(kind, seed, d, n):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return (0.5 + 0.5 * rng.random((n, d)),)
    if kind == "linear":
        return (0.5 * rng.standard_normal((n, d, n)),
                0.5 * rng.standard_normal((n, d)))
    return ()


def build_field(kind, seed, d, n=2):
    params = _field_parameters(kind, seed, d, n)
    if kind == "constant":
        return constant_field(*params)
    if kind == "linear":
        return linear_field(params[0], offset=params[1])
    if kind == "callable":
        # plain per-state callables: stacked evaluations call them per row
        return VectorField(n, d, *field_forms("sine", seed, d, n))
    return sine_field(n, d, seed=seed, amplitude=0.8)


def field_forms(kind, seed, d, n=2):
    """(fn, grad_fn): the single-state formulas of ``build_field(kind,
    seed, d, n)``, kept in the tests as its bitwise reference."""
    params = _field_parameters(kind, seed, d, n)
    if kind == "constant":
        return constant_forms(*params)
    if kind == "linear":
        return linear_forms(*params)
    return sine_forms(n, d, seed=seed, amplitude=0.8)


def steep_field(kind, seed, n, d, slope):
    """A field whose gradient grows with ``slope``.

    "cancelling" needs n >= 2: f^i_a = v_i (beta_a + c_a slope <w, y>) with
    w ⊥ v, plus a generic linear part of size 1/slope.  The terms
    ∂_m f^i_b f^m_a of Z grow like slope^2 while their sum over m stays
    O(1), so Z is formed from terms far larger than itself.
    """
    rng = np.random.default_rng(seed)
    if kind == "sine":
        return sine_field(n, d, seed=seed, amplitude=0.8, frequency=slope)
    if kind == "linear":
        return linear_field(slope * rng.standard_normal((n, d, n)),
                            offset=rng.standard_normal((n, d)))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = rng.standard_normal(n)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    c = rng.uniform(-1.0, 1.0, d)
    tensor = (slope * np.einsum("a,i,m->iam", c, v, w)
              + rng.standard_normal((n, d, n)) / slope)
    return linear_field(tensor,
                        offset=np.outer(v, rng.uniform(-1.0, 1.0, d)))


def nan_probe_z(n):
    """NaN on the longer intervals: a NaN ratio must never be the maximum."""

    def fn(x, s, t):
        return np.full(n, np.nan) if t - s > 0.4 else (t - s) * np.cos(x)

    return SecondOrderMap(n, fn, name="nan-probe")


def late_nan_z(n):
    """NaN on the intervals that end after t = 0.75: a march blows up at a
    step that grows with its N."""

    def fn(x, s, t):
        return np.full(n, np.nan) if t > 0.75 else (t - s) * np.cos(x)

    return SecondOrderMap(n, fn, name="late-nan")


def build_z(kind, field, driver):
    if kind == "canonical":
        return canonical_z(field, driver)
    if kind == "transposed":
        return transposed_z(field, driver)
    if kind == "zero":
        return zero_z(field.n)
    if kind == "rough-probe":
        return rough_probe_z(field.n, driver.alpha)
    if kind == "nan-probe":
        return nan_probe_z(field.n)
    if kind == "late-nan":
        return late_nan_z(field.n)
    # the map's own driver differs from the solve's: its areas must be used,
    # and a driver made by with_area has no batch hooks
    return canonical_z(field, with_area(driver,
                                        lambda s, t: 2.0 * driver.area(s, t)))


DRIVER_KINDS = ("synthetic", "smooth", "scalar")
FIELD_KINDS = ("constant", "linear", "sine", "callable")
Z_KINDS = ("canonical", "transposed", "zero", "rough-probe", "nan-probe",
           "scaled-area")
