r"""Coefficient fields f: R^n -> R^{n×d} and the second-order map Z.

The canonical second-order map contracts f, its gradient and the driver
area as

    Z(x)^i_{s,t} = Σ_{m,a,b} ∂_m f^i_b(x) · f^m_a(x) · XX^{ab}_{s,t},

the unique pairing whose coboundary over an exactly lifted driver reduces
to ∇f(x) f(x) X_{s,u} ⊗ X_{u,t}.  The checkers are samplers, not provers:
they report empirical constants with a worst-case witness, since the
underlying conditions quantify over continua.

The checkers and ``convention_defect_max`` evaluate Z on blocks of at most
``PAIR_BLOCK`` intervals at once (``on_grid(ss, tt).every(x)``), the grid
pairs coming from one walk, ``_grid_pairs``, which the bound and
Lipschitz checks share as one pair check: the areas of a block come
from one batch query and do not depend on x.  Their ratios are bitwise
those of a loop calling ``z(x, s, t)`` once per pair, and so are their
witnesses: the first strict maximum in (state, s, t) order.  A
``CheckReport`` holds just what it writes, its witness already in JSON
form.

Every field and map has one form, on a leading state axis, and its single
calls are one-row views of it: a field is evaluated on a (K, n) stack of
states, ``field(x)`` being row 0 of a one-state stack, and a map on fixed
intervals, ``on_grid(ss, tt)``, with ``z(x, s, t)`` the one row of a
one-interval grid.  A grid form has one evaluation method,
``rows(xs, lo, hi)``: Z on intervals lo to hi - 1, at a (hi - lo, n)
stack of states or at one (1, n) state for every interval; ``every(x)``
is its view on the whole grid.  The canonical and transposed maps
contract a window in one einsum (a window of one interval as row 0 of a
two-row stack, see ``_AreaGridZ``), the zero and rough-probe maps give
one array for every state and other maps are called per row, so a row is
bitwise the same however many intervals its window holds.
``stack_grids`` joins the grid forms of several maps into one, which a
march reads window by window.

The sine preset combines a stack of up to ``TILE_ROWS`` states, such as
a march's member stack or the RK4 reference's window stack, with
coefficient tiles rather than numpy's row-by-row broadcasts
(``sine_field``), and its rows are bitwise the same.

Every einsum of the package calls numpy's compiled kernel, bound here once
as ``c_einsum``: ``np.einsum`` without ``optimize`` is that same call
behind a Python wrapper and a dispatcher, which cost about 1.3 us of a
3 us call on the small operands of a march step, an RK4 stage or a Davie
row, so the kernel gives bitwise the same numbers for less.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
# numpy's compiled einsum kernel (see above), exported under a private
# name only, in ``numpy._core`` since numpy 2
from numpy._core.multiarray import c_einsum

from .rough_path import Grid, RoughDriver, _ordered_triples

__all__ = [
    "VectorField",
    "SecondOrderMap",
    "GridZ",
    "stack_grids",
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

# Most intervals one batched Z evaluation covers: bounds the (K, d, d)
# areas and (K, n) values a checker or the Davie sweep holds at once.
PAIR_BLOCK = 2**16

# Longest stack the sine preset combines with tiled coefficients (see
# ``sine_field``).  Each sine field holds its tiles, (2 + n) n d floats per
# row (16 KB at n = d = 2), and their views for every length, about 67 KB
# more, which take about 0.15 ms to make.  The benchmark's marches and RK4
# sweeps stack at most 64 rows (the reference's windows; a three-seed rate
# march stacks up to 36).
TILE_ROWS = 128


class VectorField:
    """f: R^n -> R^{n×d} with an analytic gradient tensor.

    gradient(x) has shape (n, d, n) with [i, a, m] = ∂f^i_a/∂x_m.  The
    declared regularity ``gamma`` and the optional entrywise sup bounds are
    user-supplied metadata (validated numerically, never enforced
    symbolically).

    A field has one form, stacked on a (K, n) stack of states:
    ``value_and_grad_many_fn`` returns (f, ∇f) of every row and
    ``value_many_fn`` f alone.  ``field(x)`` and ``field.gradient(x)`` are
    their one-row views.  The presets supply the hooks as broadcasting
    expressions; a missing hook is derived here once, the values from the
    fused hook, or, for a field built from per-state callables ``fn`` and
    ``grad_fn``, both as one call of them per row.
    """

    def __init__(self, n, d, fn=None, grad_fn=None, hess_fn=None, gamma=3.0,
                 sup_f=None, sup_grad=None, name="custom",
                 value_and_grad_many_fn=None, value_many_fn=None):
        if n < 1 or d < 1:
            raise ValueError("dimensions must be positive")
        if value_and_grad_many_fn is None and (
                grad_fn is None or (fn is None and value_many_fn is None)):
            raise ValueError("a field needs fn and grad_fn or its stacked "
                             "hooks")
        # NaN passes every range check, so finiteness is tested first
        if not math.isfinite(gamma) or gamma <= 2.0:
            raise ValueError(
                f"declared regularity gamma must be finite and exceed 2, got {gamma}")
        for key, bound in (("sup_f", sup_f), ("sup_grad", sup_grad)):
            if bound is not None and not math.isfinite(bound):
                raise ValueError(f"{key} must be finite, got {bound}")
        n = self.n = int(n)
        d = self.d = int(d)
        # whether one hook call evaluates a whole stack: the RK4 reference
        # stacks time windows only then
        self._stacked = value_and_grad_many_fn is not None
        if value_and_grad_many_fn is None:
            if value_many_fn is None:
                def value_many_fn(xs):
                    return np.reshape([fn(x) for x in xs], (len(xs), n, d))

            def value_and_grad_many_fn(xs):
                return value_many_fn(xs), np.reshape([grad_fn(x) for x in xs],
                                                     (len(xs), n, d, n))
        elif value_many_fn is None:
            def value_many_fn(xs):
                return value_and_grad_many_fn(xs)[0]
        self._hess_fn = hess_fn
        self._value_and_grad_many_fn = value_and_grad_many_fn
        self._value_many_fn = value_many_fn
        self.gamma = float(gamma)
        self.sup_f = sup_f
        self.sup_grad = sup_grad
        self.name = name

    def __call__(self, x) -> np.ndarray:
        """f(x), shape (n, d): row 0 of the values of a one-state stack."""
        return self._value_many_fn(np.asarray(x, dtype=float)[None])[0]

    def gradient(self, x) -> np.ndarray:
        """∇f(x), shape (n, d, n): row 0 of the gradients of a one-state
        stack."""
        return self._value_and_grad_many_fn(
            np.asarray(x, dtype=float)[None])[1][0]

    def value_many(self, xs) -> np.ndarray:
        """f at every row of a (K, n) stack of states, shape (K, n, d)."""
        return self._value_many_fn(np.asarray(xs, dtype=float))

    def value_and_gradient_many(self, xs):
        """(f, ∇f) at every row of a (K, n) stack of states, shapes
        (K, n, d) and (K, n, d, n)."""
        return self._value_and_grad_many_fn(np.asarray(xs, dtype=float))

    @property
    def has_hessian(self) -> bool:
        return self._hess_fn is not None

    def hessian(self, x) -> np.ndarray:
        if self._hess_fn is None:
            raise ValueError(f"field {self.name!r} has no Hessian evaluator")
        return self._hess_fn(np.asarray(x, dtype=float))


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
        gamma=gamma,
        sup_f=float(np.max(np.abs(C))),
        sup_grad=0.0,
        name="constant",
        value_and_grad_many_fn=lambda xs: (
            np.broadcast_to(C, (len(xs), n, d)),
            np.broadcast_to(zero_grad, (len(xs), n, d, n))),
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
        gamma=gamma,
        sup_grad=float(np.max(np.abs(A))),
        name="linear",
        value_and_grad_many_fn=lambda xs: (
            b + _matvec(A, xs[:, None, :]),
            np.broadcast_to(A, (len(xs), n, d, n))),
    )


def sine_field(n: int, d: int, seed: int = 0, amplitude: float = 1.0,
               frequency: float = 1.0, gamma: float = 3.0) -> VectorField:
    """Bounded smooth coefficient f(y)[i,a] = amp[i,a] sin(<w[i,a], y> + phi[i,a]).

    Genuinely C^2 with bounded derivatives of all orders; coefficients are
    deterministic in the seed.

    The hooks combine a (K, n, d) stack with phi and amp and a
    (K, n, d, n) one with W.  numpy broadcasts a leading axis of length 1
    n d entries at a time per row, so a stack of 2 to ``TILE_ROWS``
    states takes the first K rows of coefficient tiles instead, over
    which numpy's loops run whole.  A one-state stack and a stack above
    ``TILE_ROWS`` states take the one-row coefficients.  The tiles and their views for every
    length are made with the field, so a call picks its coefficients by
    one list index (slicing three tiles would cost about 0.8 us a call)
    and allocates nothing.  Every entry takes the same IEEE operation
    either way, so each row is bitwise the same.
    """
    rng = np.random.default_rng(seed)
    amp = amplitude * (0.5 + 0.5 * rng.random((n, d)))
    W = frequency * rng.standard_normal((n, d, n))
    phi = 2.0 * np.pi * rng.random((n, d))
    for arr in (amp, W, phi):
        arr.flags.writeable = False

    # the stacked forms give the coefficients a leading axis of length 1:
    # numpy combines arrays of equal rank faster, and a single-member solve
    # evaluates a one-state stack on every step
    one_row = phi[None], amp[None], W[None]
    tiles = tuple(np.repeat(c, TILE_ROWS, axis=0) for c in one_row)
    for tile in tiles:
        tile.flags.writeable = False
    # views[k]: the coefficients for a stack of k <= TILE_ROWS states, the
    # first k rows of the tiles from k = 2 on; the hooks test 1 < k so that
    # a one-state stack takes the one-row arrays without indexing
    views = [one_row] * 2 + [tuple(tile[:k] for tile in tiles)
                             for k in range(2, TILE_ROWS + 1)]

    def value_and_grad_many_fn(xs):
        k = len(xs)
        phi_k, amp_k, W_k = views[k] if 1 < k <= TILE_ROWS else one_row
        arg = c_einsum("iam,km->kia", W, xs) + phi_k
        return amp_k * np.sin(arg), (amp_k * np.cos(arg))[..., None] * W_k

    # the values alone save a cos per transport stage and an RK4 stage;
    # one buffer for the whole formula
    def value_many_fn(xs):
        k = len(xs)
        phi_k, amp_k, _ = views[k] if 1 < k <= TILE_ROWS else one_row
        arg = c_einsum("iam,km->kia", W, xs)
        arg += phi_k
        np.sin(arg, out=arg)
        arg *= amp_k
        return arg

    return VectorField(
        n, d, gamma=gamma,
        sup_f=float(np.max(np.abs(amp))),
        sup_grad=float(np.max(np.abs(amp[:, :, None] * W))),
        name="sine", value_and_grad_many_fn=value_and_grad_many_fn,
        value_many_fn=value_many_fn,
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

    A map has one form, ``on_grid``; a map given by a callable
    ``fn(x, s, t)`` is called once per row of it.  ``z(x, s, t)`` is the
    one row of a one-interval grid.
    """

    def __init__(self, n, fn, time_exponent=None, space_exponent=None, name="z"):
        self.n = int(n)
        self._fn = fn
        self.time_exponent = time_exponent
        self.space_exponent = space_exponent
        self.name = name

    def __call__(self, x, s: float, t: float) -> np.ndarray:
        """Z(x)_{s,t}, shape (n,)."""
        return self.on_grid((s,), (t,)).every(x)[0]

    def on_grid(self, ss, tt) -> "GridZ":
        """This map on the fixed intervals [ss[j], tt[j]], evaluated by index j."""
        return GridZ(self, ss, tt)


class GridZ:
    """A second-order map restricted to fixed intervals, evaluated by index.

    ``rows`` is a grid form's one evaluation method.  The general form
    calls the map's ``fn`` once per row with the interval's endpoints;
    area-linear maps replace it with areas fetched up front, and maps that
    do not read the state with rows computed up front.
    """

    def __init__(self, z: SecondOrderMap, ss, tt):
        self._z = z
        self._ss = np.asarray(ss, dtype=float).tolist()
        self._tt = np.asarray(tt, dtype=float).tolist()

    def __len__(self) -> int:
        return len(self._ss)

    def every(self, x) -> np.ndarray:
        """Z(x) over every interval, shape (K, n)."""
        return self.rows(np.asarray(x, dtype=float)[None], 0, len(self))

    def rows(self, xs, lo: int, hi: int) -> np.ndarray:
        """Z over intervals lo to hi - 1, shape (hi - lo, n): row k at
        ``xs[k]`` of a (hi - lo, n) stack of states, or at the one state of
        a (1, n) stack for every k."""
        fn = self._z._fn
        if len(xs) == 1:
            xs = [xs[0]] * (hi - lo)
        values = [fn(x, s, t)
                  for x, s, t in zip(xs, self._ss[lo:hi], self._tt[lo:hi])]
        return np.array(values, dtype=float).reshape(hi - lo, self._z.n)


# Σ_{m,a,b} ∂_m f^i_b f^m_a XX^{ab} over a leading axis k of states and areas
# (a one-state stack broadcasts): the one contraction of every area-linear map
_Z_SUBSCRIPTS = "kibm,kma,kab->ki"


class _AreaLinearZ(SecondOrderMap):
    """Z(x)^i_{s,t} = Σ_{m,a,b} ∂_m f^i_b(x) f^m_a(x) XX^{ab}_{s,t}, on the
    areas of the map's own driver, transposed if ``transpose``.
    """

    def __init__(self, field: VectorField, driver: RoughDriver,
                 transpose: bool, name: str):
        # no fn: on_grid is overridden, and a bound method stored on the
        # instance would be a reference cycle keeping the driver alive until
        # the cyclic collector runs
        super().__init__(field.n, None, time_exponent=2.0 * driver.alpha,
                         space_exponent=field.gamma - 2.0, name=name)
        self.field = field
        self.driver = driver
        self.transpose = transpose

    def coefficient_many(self, f_x, grad_x) -> np.ndarray:
        """K(x) at every row of a stack of states, shape (K, n, d, d), from
        (f, ∇f) there as ``field.value_and_gradient_many`` returns them,
        with Z(x)^i_{s,t} = Σ_{a,b} K(x)^i_{ab} XX^{ab}_{s,t} on the raw
        areas of the map's driver: K^i_{ab} = Σ_m ∂_m f^i_b f^m_a, with a
        and b swapped for the transposed map.  Contracting K sums in another
        order than ``on_grid``, so the two agree to roundoff only."""
        return self.oriented(c_einsum("kibm,kma->kiab", grad_x, f_x))

    def oriented(self, areas: np.ndarray) -> np.ndarray:
        """A (..., d, d) stack of driver areas as this map contracts them."""
        return areas.swapaxes(-1, -2) if self.transpose else areas

    def on_grid(self, ss, tt) -> "GridZ":
        return _AreaGridZ(self, self.driver.area_many(ss, tt))


class _AreaGridZ(GridZ):
    """Area-linear maps on one field and of one orientation, with the raw
    areas of all intervals fetched up front: row k contracts the areas of
    interval k, whichever driver they came from, as ``z`` orients them.

    A window of one interval is contracted against two area rows, its own
    and the next, and keeps row 0: einsum sums a one-row stack in another
    order than a longer one at n = 1 and d = 2.  The areas are held with
    one zero row after the last interval for that purpose.
    """

    def __init__(self, z: _AreaLinearZ, areas: np.ndarray):
        self._z = z
        padded = np.concatenate([areas, np.zeros((1,) + areas.shape[1:])])
        self._raw = padded[:-1]
        # einsum sums in the order of the areas' strides, so the transposed
        # areas stay a view: rows are then bitwise ``z(x, s, t)``
        self._areas = z.oriented(padded)
        # the hook bound once: a march takes rows on every step
        self._value_and_grad = z.field._value_and_grad_many_fn

    def __len__(self) -> int:
        return len(self._raw)

    def rows(self, xs, lo: int, hi: int) -> np.ndarray:
        f_x, grad_x = self._value_and_grad(xs)
        return c_einsum(_Z_SUBSCRIPTS, grad_x, f_x,
                        self._areas[lo:hi + (hi - lo == 1)])[:hi - lo]


def canonical_z_rows(field: VectorField, xs, areas) -> np.ndarray:
    """Z(x_k)^i = Σ_{m,a,b} ∂_m f^i_b(x_k) f^m_a(x_k) XX_k^{ab} at every
    row of a (K, n) stack of states on a (K, d, d) stack of areas, shape
    (K, n): the canonical map on areas that no driver holds, such as those
    of the path the RK4 reference integrates."""
    f_x, grad_x = field._value_and_grad_many_fn(xs)
    return c_einsum(_Z_SUBSCRIPTS, grad_x, f_x, areas)


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
    return _AreaLinearZ(field, driver, False, "canonical")


def transposed_z(field: VectorField, driver: RoughDriver) -> SecondOrderMap:
    """Deliberately wrong index pairing: contracts the transposed area.

    Coincides with the canonical map only when the area is symmetric; on a
    driver with genuine Lévy area its coboundary fails the cocycle
    comparison.  Test preset.
    """
    _check_pairing(field, driver)
    return _AreaLinearZ(field, driver, True, "transposed")


class _TimeOnlyZ(SecondOrderMap):
    """A map that does not depend on the state, given by one formula: its
    rows ``rows_fn(ss, tt)`` over the intervals [ss[j], tt[j]], shape
    (K, n).  On a grid they are one array shared by every state."""

    def __init__(self, n, rows_fn, time_exponent, name):
        super().__init__(n, None, time_exponent=time_exponent,
                         space_exponent=np.inf, name=name)
        self._rows_fn = rows_fn

    def on_grid(self, ss, tt) -> "GridZ":
        rows = self._rows_fn(np.asarray(ss, dtype=float),
                             np.asarray(tt, dtype=float))
        rows.flags.writeable = False
        return _TimeGridZ(rows)


class _TimeGridZ(GridZ):
    """A state-independent map on fixed intervals: the same rows for every
    state."""

    def __init__(self, rows: np.ndarray):
        self._values = rows

    def __len__(self) -> int:
        return len(self._values)

    def rows(self, xs, lo: int, hi: int) -> np.ndarray:
        return self._values[lo:hi]


class _StackedGridZ(GridZ):
    """Grid forms of several maps as one: row r is row ``steps[r]`` of
    ``grids[members[r]]``, evaluated through that grid alone."""

    def __init__(self, grids, members, steps):
        self._grids = grids
        self._members = members.tolist()
        self._steps = steps.tolist()

    def __len__(self) -> int:
        return len(self._steps)

    def rows(self, xs, lo: int, hi: int) -> np.ndarray:
        if len(xs) == 1:
            xs = [xs[0]] * (hi - lo)
        return np.array([self._grids[p].rows(x[None], j, j + 1)[0]
                         for x, p, j in zip(xs, self._members[lo:hi],
                                            self._steps[lo:hi])])


def stack_grids(grids, layout) -> GridZ:
    """The grid forms of several maps as one ``GridZ``, laid out by
    ``layout``, which maps one array per grid to one array of all rows.

    Area-linear maps on one field object and of one orientation become one
    contraction over their raw areas, maps that do not read the state one
    array of rows; any other mix evaluates each row through its own grid.
    """
    first = grids[0]
    if all(isinstance(g, _AreaGridZ) and g._z.field is first._z.field
           and g._z.transpose == first._z.transpose for g in grids):
        return _AreaGridZ(first._z, layout(g._raw for g in grids))
    if all(isinstance(g, _TimeGridZ) for g in grids):
        return _TimeGridZ(layout(g._values for g in grids))
    return _StackedGridZ(
        grids, layout(np.full(len(g), p) for p, g in enumerate(grids)),
        layout(np.arange(len(g)) for g in grids))


def zero_z(n: int) -> SecondOrderMap:
    """Z identically zero (degenerates the split scheme to explicit Euler)."""
    return _TimeOnlyZ(n, lambda ss, tt: np.zeros((len(ss), n)),
                      time_exponent=np.inf, name="zero")


def rough_probe_z(n: int, alpha: float, scale: float = 1.0) -> SecondOrderMap:
    """Z(x)_{s,t} = scale * |t-s|^alpha e_1: too rough for the 2*alpha budget.

    Its bound-check ratio grows like h^(-alpha) under grid refinement,
    which is what the checker is meant to flag.  Test preset.
    """

    def rows_fn(ss, tt):
        out = np.zeros((len(ss), n))
        out[:, 0] = scale * _powers(np.abs(tt - ss), alpha)
        return out

    return _TimeOnlyZ(n, rows_fn, time_exponent=alpha, name="rough-probe")


@dataclass
class CheckReport:
    """Empirical maximum of a sampled condition ratio with its witness.

    A report holds exactly what ``to_json_dict`` writes.  ``witness`` is
    the sample attaining ``max_ratio`` first, in JSON form: the state
    ``x``, the times ``s``, ``u`` and ``t`` (``u`` null for the two pair
    checks) and, for the Lipschitz check, the second state ``y``.  Its
    keys are the condition's whatever the data: every one is null when no
    ratio exceeds 0.
    """

    condition: str
    max_ratio: float
    samples: int
    witness: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def _chunks(start: int, stop: int, width: int = 1):
    """Slices covering range(start, stop), each of at most PAIR_BLOCK //
    width entries (at least one): at most PAIR_BLOCK pairs when each entry
    stands for ``width`` of them."""
    step = max(1, PAIR_BLOCK // width)
    return (slice(lo, min(lo + step, stop)) for lo in range(start, stop, step))


def _grid_pairs(z: SecondOrderMap, pts: np.ndarray):
    """The pairs pts[i] < pts[j] (i < j) in row order, in blocks of at most
    PAIR_BLOCK: each block as its index arrays (ii, jj) and the grid form
    ``z.on_grid(pts[ii], pts[jj])``."""
    m = len(pts)
    rows = np.arange(m - 1)
    starts = rows * (m - 1) - rows * (rows - 1) // 2  # flat index of (i, i+1)
    for block in _chunks(0, m * (m - 1) // 2):
        flat = np.arange(block.start, block.stop)
        ii = np.searchsorted(starts, flat, side="right") - 1
        jj = flat - starts[ii] + ii + 1
        yield ii, jj, z.on_grid(pts[ii], pts[jj])


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v, bitwise np.linalg.norm of each row."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _powers(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent elementwise, bitwise the scalar ``**``.

    numpy's ``power`` may take a SIMD path that differs in the last bit,
    which would move a witness between near-tied pairs; ``float_power``
    evaluates the scalar pow per element.
    """
    return np.float_power(base, exponent)


def _first_max(ratios: np.ndarray):
    """(largest ratio, first index attaining it); a NaN ratio never wins."""
    ratios = np.where(np.isnan(ratios), -np.inf, ratios)
    j = int(np.argmax(ratios))
    return float(ratios[j]), j


def _worst(per_state, keys) -> tuple:
    """The first strict maximum over states in order, as (ratio, witness).

    ``per_state`` holds each state's own first strict maximum, (0.0, None)
    where no ratio exceeds 0, so this is the first strict maximum of the
    whole (state, interval) sequence: ``max`` keeps the first of equal
    ratios.  With no ratio above 0 the witness holds every one of the
    condition's ``keys`` as None.
    """
    ratio, witness = max(per_state, key=lambda best: best[0])
    return ratio, witness or dict.fromkeys(keys)


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[k] @ vecs[k] for every k (mats may be one shared matrix),
    bitwise the single matrix-vector products."""
    return np.matmul(mats, vecs[..., None])[..., 0]


def _pair_check(condition: str, z: SecondOrderMap, samples, grid: Grid,
                expo: float) -> CheckReport:
    """Empirical constant of |Z(x) - Σ Z(y)|_{s,t} <= c C |t-s|^expo over
    the grid pairs, one ratio per (sample, pair).

    Each sample is (x, ys, c, entries): the state x, the states ys whose Z
    it subtracts, its own scale c and its witness entries in JSON form,
    which precede ``s``, ``u`` (null) and ``t`` in its witness.
    """
    pts = grid.points
    best = [(0.0, None)] * len(samples)
    for ii, jj, grid_z in _grid_pairs(z, pts):
        ss, tt = pts[ii], pts[jj]
        scale = _powers(tt - ss, expo)
        for q, (x, ys, c, entries) in enumerate(samples):
            rows = grid_z.every(x)
            for y in ys:
                rows = rows - grid_z.every(y)
            ratio, j = _first_max(_row_norms(rows) / (c * scale))
            if ratio > best[q][0]:
                best[q] = (ratio, {**entries, "s": float(ss[j]), "u": None,
                                   "t": float(tt[j])})
    max_ratio, witness = _worst(best, [*samples[0][3], "s", "u", "t"])
    return CheckReport(condition, max_ratio,
                       len(samples) * grid.N * (grid.N + 1) // 2, witness)


def check_z_bound(z: SecondOrderMap, xs, grid: Grid, alpha: float,
                  exponent: float | None = None) -> CheckReport:
    """Empirical constant of |Z(x)_{s,t}| <= C |t-s|^exponent over grid pairs.

    ``exponent`` defaults to 2*alpha; pass (gamma-1)*alpha for the relaxed
    budget.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs:
        raise ValueError("empty sample set")
    expo = 2.0 * alpha if exponent is None else float(exponent)
    return _pair_check("z_bound", z, [(x, (), 1.0, {"x": x.tolist()})
                                      for x in xs], grid, expo)


def check_z_lipschitz(z: SecondOrderMap, x_pairs, grid: Grid, alpha: float,
                      gamma: float) -> CheckReport:
    """Empirical constant of |Z(x)-Z(y)| <= C |x-y|^(gamma-2) |t-s|^(2 alpha).

    Pairs with x == y are skipped; if every pair is degenerate the check is
    ill-posed.
    """
    expo_x = gamma - 2.0
    samples = []
    for x, y in x_pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dist = float(np.linalg.norm(x - y))
        if dist != 0.0:
            samples.append((x, (y,), dist**expo_x,
                            {"x": x.tolist(), "y": y.tolist()}))
    if not samples:
        raise ValueError("all sample pairs degenerate (x == y)")
    return _pair_check("z_lipschitz", z, samples, grid, 2.0 * alpha)


def check_z_cocycle(z: SecondOrderMap, field: VectorField, driver: RoughDriver,
                    xs, triples, alpha: float) -> CheckReport:
    """Empirical constant of the cocycle comparison over sampled triples.

    Measures |δZ(x)_{s,u,t} - ∇f(x)f(x) X_{s,u} ⊗ X_{u,t}
    - ∇f(x) Z(x)_{s,u} X_{u,t}| / |t-s|^(3 alpha).  For the canonical map
    over an exact lift the first discrepancy vanishes by Chen's relation.
    Every triple is validated before any evaluation; triples with s == t
    are skipped.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs:
        raise ValueError("empty sample set")
    expo = 3.0 * alpha
    triples = np.asarray(triples, dtype=float).reshape(-1, 3)
    _ordered_triples(*triples.T)
    triples = triples[triples[:, 2] != triples[:, 0]]
    f_xs, grad_xs = field.value_and_gradient_many(xs)
    states = list(zip(xs, f_xs, grad_xs))
    best = [(0.0, None)] * len(xs)
    # three intervals per triple go into one batched Z
    for block in _chunks(0, len(triples), 3):
        ss, uu, tt = triples[block].T
        x_su = driver.increment_many(ss, uu)
        x_ut = driver.increment_many(uu, tt)
        grid_z = z.on_grid(np.concatenate([ss, ss, uu]),
                           np.concatenate([uu, tt, tt]))
        scale = _powers(tt - ss, expo)
        for q, (x, f_x, grad_x) in enumerate(states):
            z_su, z_st, z_ut = np.split(grid_z.every(x), 3)
            d_z = z_st - z_su - z_ut
            quad = c_einsum("ibm,km,kb->ki", grad_x, _matvec(f_x, x_su), x_ut)
            corr = c_einsum("ibm,km,kb->ki", grad_x, z_su, x_ut)
            ratio, j = _first_max(_row_norms(d_z - quad - corr) / scale)
            if ratio > best[q][0]:
                best[q] = (ratio, {"x": x.tolist(), "s": float(ss[j]),
                                   "u": float(uu[j]), "t": float(tt[j])})
    max_ratio, witness = _worst(best, ["x", "s", "u", "t"])
    return CheckReport("z_cocycle", max_ratio, len(xs) * len(triples),
                       witness)


def convention_defect_max(z: SecondOrderMap, field: VectorField,
                          driver: RoughDriver, x, grid: Grid):
    """Max over all grid triples s <= u <= t of |δZ - ∇f f X_{s,u} ⊗ X_{u,t}|.

    This is the index-convention pin: it vanishes (to roundoff) exactly when
    the coboundary of Z reproduces the Chen cross term.  Fills the pair
    matrix of Z through batched ``on_grid(...).every(x)`` calls, then
    combines the triples of one left end s at a time, so memory grows like
    m^2 in the number m of grid points.  The witness is the first maximum
    in (s, u, t) order; a NaN defect wins, as in one ``argmax`` over all
    triples.

    Returns (max_defect, (s, u, t)).
    """
    x = np.asarray(x, dtype=float)
    pts = grid.points
    m = len(pts)
    base = driver.increment_many(np.full(m, pts[0]), pts)
    incr = base[None, :, :] - base[:, None, :]  # (m, m, d)
    zmat = np.zeros((m, m, z.n))
    for ii, jj, grid_z in _grid_pairs(z, pts):
        zmat[ii, jj] = grid_z.every(x)
    (f_x,), (grad_x,) = field.value_and_gradient_many(x[None])
    best, witness = -np.inf, (0, 0, 0)
    for i in range(m):
        # δZ[j,k] = Z[i,k] - Z[i,j] - Z[j,k] over i <= j, k; then k >= j
        d_z = zmat[i, None, i:] - zmat[i, i:, None] - zmat[i:, i:]
        quad = c_einsum("nbq,qa,ja,jkb->jkn", grad_x, f_x, incr[i, i:],
                        incr[i:, i:])
        defect = np.abs(d_z - quad).max(axis=-1)
        defect[np.tri(m - i, k=-1, dtype=bool)] = -np.inf
        flat = int(np.argmax(defect))
        value = defect.flat[flat]
        if value > best or (np.isnan(value) and not np.isnan(best)):
            best = value
            witness = (i, i + flat // (m - i), i + flat % (m - i))
    i, j, k = witness
    return float(best), (float(pts[i]), float(pts[j]), float(pts[k]))
