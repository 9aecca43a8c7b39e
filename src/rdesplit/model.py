r"""Coefficient fields f: R^n -> R^{n×d} and the second-order map Z.

The canonical second-order map contracts f, its gradient and the driver
area as

    Z(x)^i_{s,t} = Σ_{m,a,b} ∂_m f^i_b(x) · f^m_a(x) · XX^{ab}_{s,t},

the unique pairing whose coboundary over an exactly lifted driver reduces
to ∇f(x) f(x) X_{s,u} ⊗ X_{u,t}.  The checkers are samplers, not provers:
they report empirical constants with a worst-case witness, since the
underlying conditions quantify over continua.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .rough_path import Grid, RoughDriver

__all__ = [
    "VectorField",
    "SecondOrderMap",
    "GridZ",
    "CheckReport",
    "constant_field",
    "linear_field",
    "sine_field",
    "canonical_z",
    "transposed_z",
    "zero_z",
    "rough_probe_z",
    "validate_gradient",
    "check_z_bound",
    "check_z_lipschitz",
    "check_z_cocycle",
    "convention_defect_max",
]


class VectorField:
    """f: R^n -> R^{n×d} with an analytic gradient tensor.

    gradient(x) has shape (n, d, n) with [i, a, m] = ∂f^i_a/∂x_m.  The
    declared regularity ``gamma`` and the optional entrywise sup bounds are
    user-supplied metadata (validated numerically, never enforced
    symbolically).  ``value_and_grad_fn`` optionally returns
    (fn(x), grad_fn(x)) from one evaluation, bitwise equal to the separate
    calls, for fields whose value and gradient share work.
    """

    def __init__(self, n, d, fn, grad_fn, hess_fn=None, gamma=3.0,
                 sup_f=None, sup_grad=None, name="custom",
                 value_and_grad_fn=None):
        if n < 1 or d < 1:
            raise ValueError("dimensions must be positive")
        if gamma <= 2.0:
            raise ValueError(f"declared regularity gamma must exceed 2, got {gamma}")
        self.n = int(n)
        self.d = int(d)
        self._fn = fn
        self._grad_fn = grad_fn
        self._hess_fn = hess_fn
        self._value_and_grad_fn = value_and_grad_fn
        self.gamma = float(gamma)
        self.sup_f = sup_f
        self.sup_grad = sup_grad
        self.name = name

    def __call__(self, x) -> np.ndarray:
        return self._fn(np.asarray(x, dtype=float))

    def gradient(self, x) -> np.ndarray:
        return self._grad_fn(np.asarray(x, dtype=float))

    def value_and_gradient(self, x):
        """(f(x), ∇f(x)), from one fused evaluation when the field has one."""
        x = np.asarray(x, dtype=float)
        if self._value_and_grad_fn is None:
            return self._fn(x), self._grad_fn(x)
        return self._value_and_grad_fn(x)

    @property
    def has_hessian(self) -> bool:
        return self._hess_fn is not None

    def hessian(self, x) -> np.ndarray:
        if self._hess_fn is None:
            raise ValueError(f"field {self.name!r} has no Hessian evaluator")
        return self._hess_fn(np.asarray(x, dtype=float))

    def gradient_product(self, x, u, w, grad=None) -> np.ndarray:
        """(∇f(x) u) w with components Σ_{m,b} ∂_m f^i_b u^m w^b."""
        if grad is None:
            grad = self.gradient(x)
        return np.einsum("ibm,m,b->i", grad, u, w)


def constant_field(matrix, gamma: float = 3.0) -> VectorField:
    """Constant coefficient f(y) = C; the gradient vanishes identically."""
    C = np.array(matrix, dtype=float)
    if C.ndim != 2:
        raise ValueError("constant field needs an (n, d) matrix")
    n, d = C.shape
    C.flags.writeable = False
    zero_grad = np.zeros((n, d, n))
    zero_grad.flags.writeable = False
    return VectorField(
        n, d,
        lambda x: C,
        lambda x: zero_grad,
        hess_fn=lambda x: np.zeros((n, d, n, n)),
        gamma=gamma,
        sup_f=float(np.max(np.abs(C))),
        sup_grad=0.0,
        name="constant",
    )


def linear_field(A, offset=None, gamma: float = 3.0) -> VectorField:
    """Affine coefficient f(y)[i,a] = offset[i,a] + Σ_m A[i,a,m] y[m].

    Not globally bounded; the declared sup bounds stand in for behaviour on
    the working box.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 3:
        raise ValueError("linear field needs an (n, d, n) tensor")
    n, d, n2 = A.shape
    if n2 != n:
        raise ValueError(f"tensor must be (n, d, n), got {A.shape}")
    b = np.zeros((n, d)) if offset is None else np.array(offset, dtype=float)
    if b.shape != (n, d):
        raise ValueError(f"offset must be (n, d), got {b.shape}")
    A.flags.writeable = False
    b.flags.writeable = False
    return VectorField(
        n, d,
        lambda x: b + A @ x,
        lambda x: A,
        hess_fn=lambda x: np.zeros((n, d, n, n)),
        gamma=gamma,
        sup_grad=float(np.max(np.abs(A))),
        name="linear",
    )


def sine_field(n: int, d: int, seed: int = 0, amplitude: float = 1.0,
               frequency: float = 1.0, gamma: float = 3.0) -> VectorField:
    """Bounded smooth coefficient f(y)[i,a] = amp[i,a] sin(<w[i,a], y> + phi[i,a]).

    Genuinely C^2 with bounded derivatives of all orders; coefficients are
    deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    amp = amplitude * (0.5 + 0.5 * rng.random((n, d)))
    W = frequency * rng.standard_normal((n, d, n))
    phi = 2.0 * np.pi * rng.random((n, d))
    for arr in (amp, W, phi):
        arr.flags.writeable = False

    def fn(x):
        return amp * np.sin(np.einsum("iam,m->ia", W, x) + phi)

    def grad_fn(x):
        core = amp * np.cos(np.einsum("iam,m->ia", W, x) + phi)
        return core[:, :, None] * W

    def value_and_grad_fn(x):
        arg = np.einsum("iam,m->ia", W, x) + phi
        return amp * np.sin(arg), (amp * np.cos(arg))[:, :, None] * W

    def hess_fn(x):
        core = -amp * np.sin(np.einsum("iam,m->ia", W, x) + phi)
        return core[:, :, None, None] * W[:, :, :, None] * W[:, :, None, :]

    return VectorField(
        n, d, fn, grad_fn, hess_fn=hess_fn, gamma=gamma,
        sup_f=float(np.max(np.abs(amp))),
        sup_grad=float(np.max(np.abs(amp[:, :, None] * W))),
        name="sine", value_and_grad_fn=value_and_grad_fn,
    )


def validate_gradient(field: VectorField, xs, step: float = 1e-6) -> float:
    """Max scale-relative deviation of central finite differences from gradient(x).

    The deviation at each sample is normalised by max(1, ||∇f(x)||_inf).
    """
    worst = 0.0
    for x in xs:
        x = np.asarray(x, dtype=float)
        grad = field.gradient(x)
        fd = np.empty_like(grad)
        for m in range(field.n):
            e = np.zeros(field.n)
            e[m] = step
            fd[:, :, m] = (field(x + e) - field(x - e)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(grad))))
        worst = max(worst, float(np.max(np.abs(fd - grad))) / scale)
    return worst


class SecondOrderMap:
    """The map (x, s, t) -> Z(x)_{s,t} in R^n with its claimed exponents.

    ``time_exponent`` is the claimed |t-s| budget and ``space_exponent``
    the claimed |x-y| budget of the Lipschitz-type condition.  Z(x)_{t,t}
    must vanish for every x.
    """

    def __init__(self, n, fn, time_exponent=None, space_exponent=None, name="z"):
        self.n = int(n)
        self._fn = fn
        self.time_exponent = time_exponent
        self.space_exponent = space_exponent
        self.name = name

    def __call__(self, x, s: float, t: float) -> np.ndarray:
        return self._fn(np.asarray(x, dtype=float), float(s), float(t))

    def on_grid(self, ss, tt) -> "GridZ":
        """This map on the fixed intervals [ss[j], tt[j]], evaluated by index j."""
        return GridZ(self, ss, tt)


class GridZ:
    """A second-order map restricted to fixed intervals, evaluated by index.

    The general form calls the map once per evaluation with the interval's
    endpoints; area-linear maps replace it with areas fetched up front.
    """

    def __init__(self, z: SecondOrderMap, ss, tt):
        self._z = z
        self._ss = np.asarray(ss, dtype=float).tolist()
        self._tt = np.asarray(tt, dtype=float).tolist()

    def __call__(self, x, j: int) -> np.ndarray:
        """Z(x) over interval j."""
        return self._z(x, self._ss[j], self._tt[j])

    def with_field(self, field: VectorField, x, j: int):
        """(field(x), Z(x) over interval j)."""
        return field(x), self(x, j)


class _AreaLinearZ(SecondOrderMap):
    """Z(x)^i_{s,t} = Σ_{m,a,b} ∂_m f^i_b(x) f^m_a(x) XX_{s,t}, with the area
    indices paired by ``subscripts``; areas come from the map's own driver.
    """

    def __init__(self, field: VectorField, driver: RoughDriver, subscripts: str,
                 name: str):
        # no fn: __call__ is overridden, and a bound method stored on the
        # instance would be a reference cycle keeping the driver alive until
        # the cyclic collector runs
        super().__init__(field.n, None, time_exponent=2.0 * driver.alpha,
                         space_exponent=field.gamma - 2.0, name=name)
        self.field = field
        self.driver = driver
        self._subscripts = subscripts

    def __call__(self, x, s: float, t: float) -> np.ndarray:
        f_x, grad_x = self.field.value_and_gradient(x)
        return self.contract(f_x, grad_x, self.driver.area(float(s), float(t)))

    def contract(self, f_x, grad_x, area) -> np.ndarray:
        return np.einsum(self._subscripts, grad_x, f_x, area)

    def on_grid(self, ss, tt) -> "GridZ":
        return _AreaGridZ(self, self.driver.area_many(ss, tt))


class _AreaGridZ(GridZ):
    """An area-linear map with the areas of all intervals from one batch query."""

    def __init__(self, z: _AreaLinearZ, areas: np.ndarray):
        self._z = z
        self._areas = areas

    def __call__(self, x, j: int) -> np.ndarray:
        f_x, grad_x = self._z.field.value_and_gradient(x)
        return self._z.contract(f_x, grad_x, self._areas[j])

    def with_field(self, field: VectorField, x, j: int):
        if field is not self._z.field:
            return super().with_field(field, x, j)
        # the solve's field is the map's own: evaluate it once for both
        f_x, grad_x = field.value_and_gradient(x)
        return f_x, self._z.contract(f_x, grad_x, self._areas[j])


def _check_pairing(field: VectorField, driver: RoughDriver) -> None:
    if field.d != driver.dim:
        raise ValueError(
            f"field driver-dimension {field.d} != driver dimension {driver.dim}"
        )
    if field.gamma * driver.alpha <= 1.0:
        raise ValueError(
            f"regularity too low: gamma={field.gamma} must exceed "
            f"1/alpha={1.0 / driver.alpha:.6g}"
        )


def canonical_z(field: VectorField, driver: RoughDriver) -> SecondOrderMap:
    """The product contraction of f, ∇f and the driver area.

    Z(x)^i_{s,t} = Σ_{m,a,b} ∂_m f^i_b(x) f^m_a(x) XX^{ab}_{s,t}; linear in
    the area, and Z(x)_{t,t} = 0 since XX_{t,t} = 0.
    """
    _check_pairing(field, driver)
    return _AreaLinearZ(field, driver, "ibm,ma,ab->i", "canonical")


def transposed_z(field: VectorField, driver: RoughDriver) -> SecondOrderMap:
    """Deliberately wrong index pairing: contracts the transposed area.

    Coincides with the canonical map only when the area is symmetric; on a
    driver with genuine Lévy area its coboundary fails the cocycle
    comparison.  Test preset.
    """
    _check_pairing(field, driver)
    return _AreaLinearZ(field, driver, "ibm,ma,ba->i", "transposed")


def zero_z(n: int) -> SecondOrderMap:
    """Z identically zero (degenerates the split scheme to explicit Euler)."""
    zero = np.zeros(n)
    zero.flags.writeable = False
    return SecondOrderMap(n, lambda x, s, t: zero, time_exponent=np.inf,
                          space_exponent=np.inf, name="zero")


def rough_probe_z(n: int, alpha: float, scale: float = 1.0) -> SecondOrderMap:
    """Z(x)_{s,t} = scale * |t-s|^alpha e_1: too rough for the 2*alpha budget.

    Its bound-check ratio grows like h^(-alpha) under grid refinement,
    which is what the checker is meant to flag.  Test preset.
    """

    def fn(x, s, t):
        out = np.zeros(n)
        out[0] = scale * abs(t - s) ** alpha
        return out

    return SecondOrderMap(n, fn, time_exponent=alpha, space_exponent=np.inf,
                          name="rough-probe")


@dataclass
class CheckReport:
    """Empirical maximum of a sampled condition ratio with its witness."""

    condition: str
    max_ratio: float
    samples: int
    witness_x: np.ndarray | None = None
    witness_y: np.ndarray | None = None
    witness_s: float | None = None
    witness_u: float | None = None
    witness_t: float | None = None
    box: tuple | None = None
    exponents: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        witness = {
            "x": None if self.witness_x is None else [float(v) for v in self.witness_x],
            "s": self.witness_s,
            "u": self.witness_u,
            "t": self.witness_t,
        }
        if self.witness_y is not None:
            witness["y"] = [float(v) for v in self.witness_y]
        out = {
            "condition": self.condition,
            "max_ratio": self.max_ratio,
            "samples": self.samples,
            "witness": witness,
        }
        if self.box is not None:
            out["box"] = list(self.box)
        return out


def _grid_pairs(grid: Grid):
    pts = grid.points
    for i in range(len(pts) - 1):
        for j in range(i + 1, len(pts)):
            yield pts[i], pts[j]


def check_z_bound(z: SecondOrderMap, xs, grid: Grid, alpha: float,
                  exponent: float | None = None) -> CheckReport:
    """Empirical constant of |Z(x)_{s,t}| <= C |t-s|^exponent over grid pairs.

    ``exponent`` defaults to 2*alpha; pass (gamma-1)*alpha for the relaxed
    budget.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs:
        raise ValueError("empty sample set")
    if grid.N < 1:
        raise ValueError("grid must have at least 2 points")
    expo = 2.0 * alpha if exponent is None else float(exponent)
    report = CheckReport("z_bound", 0.0, 0, exponents={"time": expo})
    count = 0
    for x in xs:
        for s, t in _grid_pairs(grid):
            ratio = float(np.linalg.norm(z(x, s, t))) / (t - s) ** expo
            count += 1
            if ratio > report.max_ratio:
                report.max_ratio = ratio
                report.witness_x = x
                report.witness_s = float(s)
                report.witness_t = float(t)
    report.samples = count
    return report


def check_z_lipschitz(z: SecondOrderMap, x_pairs, grid: Grid, alpha: float,
                      gamma: float, exponent: float | None = None,
                      space_exponent: float | None = None) -> CheckReport:
    """Empirical constant of |Z(x)-Z(y)| <= C |x-y|^(gamma-2) |t-s|^(2 alpha).

    Pairs with x == y are skipped; if every pair is degenerate the check is
    ill-posed.
    """
    expo_t = 2.0 * alpha if exponent is None else float(exponent)
    expo_x = gamma - 2.0 if space_exponent is None else float(space_exponent)
    report = CheckReport("z_lipschitz", 0.0, 0,
                         exponents={"time": expo_t, "space": expo_x})
    count = 0
    for x, y in x_pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        for s, t in _grid_pairs(grid):
            num = float(np.linalg.norm(z(x, s, t) - z(y, s, t)))
            ratio = num / (dist**expo_x * (t - s) ** expo_t)
            count += 1
            if ratio > report.max_ratio:
                report.max_ratio = ratio
                report.witness_x = x
                report.witness_y = y
                report.witness_s = float(s)
                report.witness_t = float(t)
    if count == 0:
        raise ValueError("all sample pairs degenerate (x == y)")
    report.samples = count
    return report


def check_z_cocycle(z: SecondOrderMap, field: VectorField, driver: RoughDriver,
                    xs, triples, alpha: float,
                    exponent: float | None = None) -> CheckReport:
    """Empirical constant of the cocycle comparison over sampled triples.

    Measures |δZ(x)_{s,u,t} - ∇f(x)f(x) X_{s,u} ⊗ X_{u,t}
    - ∇f(x) Z(x)_{s,u} X_{u,t}| / |t-s|^exponent with exponent defaulting
    to 3*alpha (gamma*alpha for the relaxed budget).  For the canonical map
    over an exact lift the first discrepancy vanishes by Chen's relation.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs:
        raise ValueError("empty sample set")
    expo = 3.0 * alpha if exponent is None else float(exponent)
    report = CheckReport("z_cocycle", 0.0, 0, exponents={"time": expo})
    count = 0
    for x in xs:
        f_x = field(x)
        grad_x = field.gradient(x)
        for s, u, t in triples:
            if not (s <= u <= t):
                raise ValueError(f"triple must satisfy s <= u <= t, got {(s, u, t)}")
            if t == s:
                continue
            x_su = driver.increment(s, u)
            x_ut = driver.increment(u, t)
            z_su = z(x, s, u)
            d_z = z(x, s, t) - z_su - z(x, u, t)
            quad = field.gradient_product(x, f_x @ x_su, x_ut, grad=grad_x)
            corr = np.einsum("ibm,m,b->i", grad_x, z_su, x_ut)
            ratio = float(np.linalg.norm(d_z - quad - corr)) / (t - s) ** expo
            count += 1
            if ratio > report.max_ratio:
                report.max_ratio = ratio
                report.witness_x = x
                report.witness_s = float(s)
                report.witness_u = float(u)
                report.witness_t = float(t)
    report.samples = count
    return report


def convention_defect_max(z: SecondOrderMap, field: VectorField,
                          driver: RoughDriver, x, grid: Grid):
    """Max over all grid triples s <= u <= t of |δZ - ∇f f X_{s,u} ⊗ X_{u,t}|.

    This is the index-convention pin: it vanishes (to roundoff) exactly when
    the coboundary of Z reproduces the Chen cross term.  Evaluates Z once
    per grid pair and combines triples vectorised.

    Returns (max_defect, (s, u, t)).
    """
    x = np.asarray(x, dtype=float)
    pts = grid.points
    m = len(pts)
    base = np.array([driver.increment(pts[0], p) for p in pts])
    incr = base[None, :, :] - base[:, None, :]  # (m, m, d)
    zmat = np.zeros((m, m, z.n))
    for i in range(m):
        for j in range(i + 1, m):
            zmat[i, j] = z(x, pts[i], pts[j])
    # δZ[i,j,k] = Z[i,k] - Z[i,j] - Z[j,k] on i <= j <= k
    d_z = zmat[:, None, :, :] - zmat[:, :, None, :] - zmat[None, :, :, :]
    quad = np.einsum("nbq,qa,ija,jkb->ijkn", field.gradient(x), field(x),
                     incr, incr)
    defect = np.abs(d_z - quad).max(axis=-1)
    ii, jj, kk = np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                             indexing="ij")
    mask = (ii <= jj) & (jj <= kk)
    defect = np.where(mask, defect, -np.inf)
    flat = int(np.argmax(defect))
    i, j, k = np.unravel_index(flat, defect.shape)
    return float(defect[i, j, k]), (float(pts[i]), float(pts[j]), float(pts[k]))
