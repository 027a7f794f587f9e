"""Discrete paths with fixed endpoints and the constant-charge constraint.

Curves are piecewise linear on the uniform grid s_i = i/N over [0, 1].
Functionals are midpoint-rule quadratures over the segments.  The
constant-charge constraint is enforced by eliminating the interior t-nodes:
in adapted coordinates the charge reads N = omega(y_dot) + d(y) - t_dot per
segment, so prescribing a constant value and integrating t_dot cumulatively
is an exact, closed-form projection (the constraint ODE has no homogeneous
term because nothing depends on t).  One cumulative construction
(`_cumulative_nodes`) integrates a per-segment rate less its mean into
nodes with pinned endpoints: `project_to_N` applies it to omega + d, and
`tangent_split` and `lift_spatial_variation` to the negated linearized
charge of a variation.  One per-segment pairing of a nodal field with
per-segment coefficients (`segment_pairing`) gives both the linearized
charge, as the pairing with the charge coefficients (A, B) of
`linearized_charge_coeffs` and w = -1, and the integrand of a directional
derivative.  The descent's gradient has the coefficients already, so
`lift_spatial_variation` takes them; `tangent_split` evaluates them.

Paths and fields are value-like records; every operation returns a new
record.  A `DiscretePath` copies and checks its nodes once, when it is
built, unless it takes over its arrays (`DiscretePath._own`).  A
`PathState` is a path with one evaluation of a model on it, which every
consumer of the path reads.  The kernels follow the rules set out in the
arrival module.

Paths are stored as plain-text node tables, one row ``s y_1..y_m t`` per
node with 17 significant digits, so `load_path` reads back the saved bits;
`save_path` formats them with the exact kernel `_format_17g`.
"""
from __future__ import annotations

import functools
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstraintViolationError, UnsupportedModelError
from .models import Point, StationaryModel, _row_dot, chart_E, chart_L, omega_coeffs

# A path counts as lying on the constraint manifold when the charge profile
# deviates from its mean by at most this relative tolerance (double-precision
# accumulation over <= 1e4 segments).
CONSTRAINT_RTOL = 1e-9


@dataclass(frozen=True)
class DiscretePath:
    """Nodal curve (y_i, t_i), i = 0..N, with fixed endpoints.

    `periods` carries the slice identifications (0 = aperiodic coordinate)
    so segment differences can be unwrapped to the nearest representative.
    """

    y: np.ndarray  # (N+1, m)
    t: np.ndarray  # (N+1,)
    periods: Optional[tuple[float, ...]] = None

    def __init__(self, y, t, periods=None):
        y = np.array(y, dtype=float)
        t = np.array(t, dtype=float)
        if y.ndim != 2 or t.ndim != 1 or y.shape[0] != t.shape[0] or y.shape[0] < 2:
            raise ValueError("path needs matching (N+1, m) y-nodes and (N+1,) t-nodes")
        if not (np.isfinite(y).all() and np.isfinite(t).all()):
            raise ValueError("path nodes must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(
            self, "periods", tuple(float(p) for p in periods) if periods else None
        )

    @classmethod
    def _own(cls, y, t, periods) -> "DiscretePath":
        """A path over arrays the caller gives up: float (N+1, m) y-nodes,
        (N+1,) t-nodes already checked finite and `periods` as a path holds
        them.  Nothing is copied; only the y-nodes are checked finite.

        A line-search trial (solve._trial) forms its y-nodes in a new array
        and shares its iterate's t-nodes; a random seed
        (solve._perturbed_path) forms both.  Every other path copies and
        checks its nodes in the constructor."""
        if not np.isfinite(y).all():
            raise ValueError("path nodes must be finite")
        path = object.__new__(cls)
        object.__setattr__(path, "y", y)
        object.__setattr__(path, "t", t)
        object.__setattr__(path, "periods", periods)
        return path

    @property
    def segments(self) -> int:
        return self.y.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class TangentField:
    """Nodal variation field vanishing at both endpoints."""

    y: np.ndarray  # (N+1, m)
    t: np.ndarray  # (N+1,)

    def __init__(self, y, t):
        y = np.array(y, dtype=float)
        t = np.array(t, dtype=float)
        y[0] = 0.0
        y[-1] = 0.0
        t[0] = 0.0
        t[-1] = 0.0
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)


class PathState(DiscretePath):
    """A path with one evaluation of `model` on it; immutable like the path.

    Holds the segment midpoints and velocities (`mid_y`, `vel_y`, `vel_t`),
    the one-form values `omega` = omega(mid_y, vel_y), the quadratures
    `Q_bar` (charge) and `E_val` (energy), `noether_dev`, the max deviation
    of the charge profile (omega - tau) + d from its mean, and
    `constraint_dev`, that deviation over the constraint tolerance
    CONSTRAINT_RTOL * (1 + |mean|), <= 1 on the constraint manifold.  The
    energy and charge profiles are reduced to these numbers and not kept.
    t_pm follow from Q_bar and E_val in O(1), so no arrival evaluation is
    stored: it depends on kappa.

    A path is evaluated once per model.  Every consumer (arrival times, the
    constraint check, the tangent split, the lift, a record's two
    certificates) reads the state that `path_state` gives it, which is a
    state of the same model as it is, or else one new evaluation.  So the
    descent evaluates each iterate and trial once, where `project_to_N`
    builds its state, and a record's geodesic once.  Derivatives are not
    part of a state: a gradient evaluates them once, passes them explicitly
    (arrival._arrival_form, linearized_charge_coeffs) and drops the
    per-segment partials once assembled (arrival._restricted_gradient), so
    a state never holds (N, m) partials.

    Built by `path_state` and `project_to_N`, which pass every value: the
    t-nodes `t` (those of `path`, or the projected ones), `mid_y` and `vel_y`
    of the y-nodes, `vel_t` of the t-nodes, and `omega` and `d` =
    d_offset(mid_y) evaluated there.  No geometry is computed here; this is
    the one place the charge profile is formed and reduced, and only the
    energy is evaluated.  The state shares the y-nodes and periods of
    `path`, which a `DiscretePath` already holds as a private, checked
    copy; nothing is copied or checked here.  `charge_of` is a state with
    this one's charge profile (a static model's trial; see project_to_N):
    Q_bar, noether_dev and constraint_dev are read from it, and `d` is
    not used.
    """

    def __init__(self, model, path, t, mid_y, vel_y, vel_t, omega, d, charge_of=None):
        object.__setattr__(self, "y", path.y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "periods", path.periods)
        n = self.segments
        if charge_of is None:
            # The charge quadrature of omega - tau, then the charge profile
            # (omega - tau) + d and, once the energy has been checked finite,
            # its max deviation from its mean, written over the profile.
            q = np.subtract(omega, vel_t)
            q_bar = float(np.add.reduce(q) / n)
            q += d
            energy = chart_E(model, mid_y, vel_y, vel_t, omega=omega)
            mean = float(np.add.reduce(q) / n)
            q -= mean
            noether_dev = float(np.maximum.reduce(np.abs(q, out=q)))
            constraint_dev = noether_dev / (CONSTRAINT_RTOL * (1.0 + abs(mean)))
        else:
            energy = chart_E(model, mid_y, vel_y, vel_t, omega=omega)
            q_bar = charge_of.Q_bar
            noether_dev = charge_of.noether_dev
            constraint_dev = charge_of.constraint_dev
        fields = {
            "model": model,
            "mid_y": mid_y,
            "vel_y": vel_y,
            "vel_t": vel_t,
            "omega": omega,
            "Q_bar": q_bar,
            "E_val": float(np.add.reduce(energy) / n),
            "noether_dev": noether_dev,
            "constraint_dev": constraint_dev,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def path_state(model: StationaryModel, path: DiscretePath) -> PathState:
    """`path` evaluated under `model`; a state of that same model is returned as is.

    A new state is built from one `segment_geometry` of `path` and one
    evaluation of omega and d at its midpoints, and shares the arrays of
    `path`.
    """
    if isinstance(path, PathState) and path.model is model:
        return path
    mid_y, vel_y, vel_t = segment_geometry(path)
    omega = model.omega(mid_y, vel_y)
    return PathState(model, path, path.t, mid_y, vel_y, vel_t, omega, model.d_offset(mid_y))


# ---------------------------------------------------------------------------
# segment geometry
# ---------------------------------------------------------------------------

def unwrap_periodic(dy, periods) -> np.ndarray:
    """Nearest representative of slice displacements modulo the periods.

    `dy` is a float array of displacements along its last axis, reduced in
    place and returned; every caller passes a fresh difference array.  A
    zero period marks an aperiodic coordinate, which passes through
    unchanged.
    """
    if periods:
        for j, p in enumerate(periods):
            if p:
                dy[..., j] -= p * (dy[..., j] / p).round()
    return dy


def _spatial_geometry(path: DiscretePath):
    """(mid_y, vel_y) of segment_geometry: the spatial half, which is all
    that a model evaluation of the y-nodes needs."""
    y = path.y
    dy = unwrap_periodic(y[1:] - y[:-1], path.periods)
    mid_y = np.multiply(dy, 0.5)
    mid_y += y[:-1]
    dy *= y.shape[0] - 1
    return mid_y, dy


def _segment_rate(t, n) -> np.ndarray:
    """Difference quotients (t[1:] - t[:-1]) * n of nodal values."""
    rate = np.subtract(t[1:], t[:-1])
    rate *= n
    return rate


def segment_geometry(path: DiscretePath):
    """Spatial midpoints and velocities for all segments.

    Returns (mid_y, vel_y, vel_t) with shapes (N, m), (N, m), (N,).
    Periodic coordinates use the nearest-representative difference, and the
    midpoint sits on the corresponding unwrapped segment.  No t-midpoint is
    formed: nothing depends on the t coordinate.  This is the geometry of a
    plain path's state (path_state); `project_to_N` forms the spatial half
    before its t-nodes exist.
    """
    mid_y, vel_y = _spatial_geometry(path)
    return mid_y, vel_y, _segment_rate(path.t, path.segments)


def segment_pairing(path: DiscretePath, delta: TangentField, P, V, w) -> np.ndarray:
    """Per-segment pairing P . dmid_y + V . dvel_y + w * dvel_t of a nodal field.

    (dmid_y, dvel_y, dvel_t) are the spatial midpoint values and difference
    quotients of `delta`; nothing depends on the t coordinate, so its
    midpoints are never needed.  With per-segment partials (P, V, w) of a
    functional this is the integrand of its directional derivative; with
    the charge coefficients (A, B) and w = -1 it is the linearized charge.
    The descent never calls it, so it is the plain expression; its row dots
    are a row-wise kernel (models._row_dot).
    """
    n = path.segments
    dy = delta.y
    return (
        _row_dot(P, 0.5 * (dy[:-1] + dy[1:]))
        + _row_dot(V, n * (dy[1:] - dy[:-1]))
        + w * _segment_rate(delta.t, n)
    )


# ---------------------------------------------------------------------------
# functionals by quadrature
# ---------------------------------------------------------------------------

def action(model: StationaryModel, path: DiscretePath) -> float:
    mid_y, vel_y, vel_t = segment_geometry(path)
    return float(np.sum(chart_L(model, mid_y, vel_y, vel_t)) / path.segments)


def require_on_constraint(model: StationaryModel, path: DiscretePath):
    """ConstraintViolationError unless the path's charge deviation is within
    the constraint tolerance (PathState.constraint_dev <= 1)."""
    dev = path_state(model, path).constraint_dev
    if dev > 1.0:
        raise ConstraintViolationError(
            f"path charge deviation {dev:.3g}x the constraint tolerance; "
            "project_to_N it first"
        )


# ---------------------------------------------------------------------------
# constraint projection and tangent splitting
# ---------------------------------------------------------------------------

def _cumulative_nodes(rate, first, last) -> np.ndarray:
    """Nodes x_0 = first, x_i = first + sum_{k<i} (rate_k - c) / n, x_n = last.

    c = mean(rate) - (last - first) makes the increments (rate_k - c) / n
    add up to last - first, so x_n = last in exact arithmetic; it is set to
    `last` so that it holds bitwise.  Every step, the cumulative sum
    included, is written into the result: no (N,) temporary is made.
    """
    n = rate.shape[0]
    c = float(np.add.reduce(rate) / n) - (last - first)
    x = np.empty(n + 1)
    x[0] = first
    tail = x[1:]
    np.subtract(rate, c, out=tail)
    tail.cumsum(out=tail)
    tail /= n
    tail += first
    x[-1] = last
    return x


def project_to_N(
    model: StationaryModel, path: DiscretePath, _origin: Optional[PathState] = None
) -> PathState:
    """Replace the interior t-nodes so the charge profile is exactly constant.

    The y-nodes and both endpoint t-values are preserved bitwise.  With the
    symmetry field aligned to the t coordinate the constraint ODE loses its
    homogeneous term, so the projected profile is the closed form
    t_dot_i = omega_i + d_i - c with c fixed by the endpoint condition.
    The construction depends only on the y-data and the t-endpoints, which
    makes the projection exactly idempotent.  The result is the state of the
    projected path: omega and d depend on the y-nodes only, so the values
    computed here serve it as well.  The state shares the y-nodes of `path`
    (already a checked copy); only the new t-nodes are checked, which are
    non-finite exactly when omega or d is somewhere on the path.  This is
    the one entry of every projection, line-search trials included.

    A static model (StationaryModel.static: no omega, d constant) has one
    value of omega + d on every segment, whatever the y-nodes are, so every
    projected path of one descent has the t-nodes of its seed.  A full
    projection of a static model raises UnsupportedModelError where omega +
    d is not one value, so a model whose flag is wrong fails on its first
    projection.  `_origin`, which only solve._trial passes, is the projected
    state of `model` whose t-nodes `path` shares.  For a static model the
    full projection of `path` would form exactly the t-part of `_origin`
    (the same constant rate, the same two ends), so the state takes its
    t-nodes, `vel_t`, omega and charge values from `_origin` and evaluates
    only the spatial geometry and the energy; omega and d are not called.
    Any other model projects in full.
    """
    mid_y, vel_y = _spatial_geometry(path)
    if _origin is not None and model.static:
        return PathState(
            model, path, _origin.t, mid_y, vel_y, _origin.vel_t, _origin.omega, None,
            charge_of=_origin,
        )
    om = model.omega(mid_y, vel_y)
    d = model.d_offset(mid_y)
    rate = om + d
    if model.static and not (rate == rate[0]).all():
        raise UnsupportedModelError(
            f"model {model.name!r} is flagged static, but omega + d is not "
            "constant along the path"
        )
    t = _cumulative_nodes(rate, path.t[0], path.t[-1])
    # The rate is released before the state is built, as the expression's
    # temporary was.
    del rate
    if not np.isfinite(t).all():
        raise ValueError("path nodes must be finite")
    return PathState(model, path, t, mid_y, vel_y, _segment_rate(t, path.segments), om, d)


def linearized_charge_coeffs(
    model: StationaryModel, path: DiscretePath, domega_dy=None, w=None
):
    """Per-segment coefficients (A, B) of the linearized charge condition.

    A variation (dy, dt) changes the segment charge by
    A_i . dy_mid_i + B_i . dy_vel_i - dt_vel_i, with A the position
    sensitivity of omega + d and B the one-form coefficients of omega.
    `domega_dy` and `w` (= omega_coeffs at the midpoints) may be passed when
    already evaluated at this path; B is then `w` itself.  A static model
    has +0.0 arrays, whose adjoint arrival._restricted_gradient skips.
    """
    state = path_state(model, path)
    if domega_dy is None:
        domega_dy = model.domega_dy(state.mid_y, state.vel_y)
    a = domega_dy + model.dd_dy(state.mid_y)
    b = omega_coeffs(model, state.mid_y) if w is None else w
    return a, b


def tangent_split(model: StationaryModel, path: DiscretePath, delta: TangentField):
    """Split a variation into a constraint-tangent part and a symmetry part.

    Returns (xi, mu) with delta = xi + mu * K nodewise, mu vanishing at the
    endpoints, and xi satisfying the linearized constant-charge condition
    across segments: mu is the cumulative construction of project_to_N on
    the rate -h, h the linearized charge of delta.  A path off the
    constraint raises ConstraintViolationError before the coefficients of
    linearized_charge_coeffs are evaluated.
    """
    state = path_state(model, path)
    require_on_constraint(model, state)
    mu = _symmetry_part(state, delta, linearized_charge_coeffs(model, state))
    return TangentField(delta.y, delta.t - mu), mu


def _symmetry_part(state, delta, coeffs) -> np.ndarray:
    """mu of tangent_split: the cumulative construction on the rate -h, h
    the linearized charge of delta, its pairing with the charge
    coefficients coeffs = (A, B) and w = -1."""
    h = segment_pairing(state, delta, *coeffs, -1.0)
    return _cumulative_nodes(np.negative(h, out=h), 0.0, 0.0)


class _LiftedField(TangentField):
    """The field of lift_spatial_variation, whose t-part is formed on first read.

    `y` is the lift's copy of the spatial variation.  `t` is tangent_split's
    t-part of the field (y, 0), 0.0 - mu, computed once when it is first
    read; the state and the charge coefficients it needs are held until
    then and dropped after.  The descent reads only `y` and the gradient's
    norm (the projection rebuilds every t-node), so its gradients never
    form the t-part.  Once the benchmark stops tracing the lift, this class
    gives way to arrival_gradient returning u and its norm.
    """

    def __init__(self, y, state, coeffs):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_split", (state, coeffs))

    @functools.cached_property
    def t(self) -> np.ndarray:
        state, coeffs = self._split
        field = TangentField(self.y, np.zeros(state.segments + 1))
        mu = _symmetry_part(state, field, coeffs)
        object.__delattr__(self, "_split")
        return np.subtract(0.0, mu, out=mu)


def lift_spatial_variation(
    model: StationaryModel, path: DiscretePath, dy: np.ndarray, coeffs
) -> TangentField:
    """Unique constraint-tangent field over a spatial nodal variation.

    The constraint manifold is a graph over the spatial nodes, so every
    interior spatial variation lifts to exactly one tangent field.  `coeffs`
    is (A, B) of linearized_charge_coeffs at this path, which the caller
    has already evaluated.  `dy` is copied once; the lifted field
    (`_LiftedField`) shares that copy.  The path is checked on the
    constraint here.
    """
    y = np.array(dy, dtype=float)
    y[0] = 0.0
    y[-1] = 0.0
    state = path_state(model, path)
    require_on_constraint(model, state)
    return _LiftedField(y, state, coeffs)


# ---------------------------------------------------------------------------
# flow map
# ---------------------------------------------------------------------------

def apply_flow(path: DiscretePath, t: float) -> DiscretePath:
    """Carry the path along the symmetry flow: node i moves by t * s_i in t.

    The final endpoint moves by exactly t; the charge profile drops by
    exactly t on every segment.
    """
    n = path.segments
    s = np.arange(n + 1) / n
    return DiscretePath(path.y, path.t + float(t) * s, path.periods)


# ---------------------------------------------------------------------------
# construction and bookkeeping
# ---------------------------------------------------------------------------

def straight_path(
    p: Point,
    q: Point,
    n_segments: int,
    periods: Optional[Sequence[float]] = None,
    extra_wraps: Optional[Sequence[int]] = None,
) -> DiscretePath:
    """Straight-line interpolant from p to q in (y, t).

    `extra_wraps` adds whole periods to the displacement of periodic
    coordinates, selecting a homotopy class on a cylinder.
    """
    return DiscretePath(*_straight_nodes(p, q, n_segments, periods, extra_wraps), periods)


def _straight_nodes(p, q, n_segments, periods=None, extra_wraps=None):
    """The y- and t-nodes of straight_path, as new arrays.

    A non-finite endpoint raises ValueError before any arithmetic (0.0 * inf
    at the first node would warn first); the nodes built from finite
    endpoints are not checked, so the caller's check catches an overflow.
    """
    if not np.isfinite((p.t, q.t, *p.y, *q.y)).all():
        raise ValueError("path nodes must be finite")
    s = np.arange(n_segments + 1) / n_segments
    disp = q.y - p.y
    if extra_wraps is not None and periods:
        for j, (k, per) in enumerate(zip(extra_wraps, periods)):
            if per and k:
                disp = disp.copy()
                disp[j] += k * per
    # p.y + s * disp, one multiply-add per column
    y = np.empty((n_segments + 1, disp.size))
    for j in range(disp.size):
        np.multiply(s, disp[j], out=y[:, j])
        y[:, j] += p.y[j]
    return y, p.t + s * (q.t - p.t)


def winding(path: DiscretePath) -> tuple[int, ...]:
    """Homotopy class per coordinate: net wraps of the unwrapped lift.

    Counted relative to the nearest representative of the endpoint
    displacement; zero for aperiodic coordinates.
    """
    w = [0] * path.dim
    if not path.periods:
        return tuple(w)
    total = np.sum(unwrap_periodic(np.diff(path.y, axis=0), path.periods), axis=0)
    base = unwrap_periodic(path.y[-1] - path.y[0], path.periods)
    for j, p in enumerate(path.periods):
        if p:
            w[j] = int(np.round((total[j] - base[j]) / p))
    return tuple(w)


def resample(path: DiscretePath, n_segments: int) -> DiscretePath:
    """Linear resample of the unwrapped lift onto a new uniform grid."""
    s_old = np.linspace(0.0, 1.0, path.segments + 1)
    s_new = np.linspace(0.0, 1.0, n_segments + 1)
    dy = unwrap_periodic(np.diff(path.y, axis=0), path.periods)
    lift = np.vstack([path.y[0], path.y[0] + np.cumsum(dy, axis=0)])
    y = np.stack([np.interp(s_new, s_old, lift[:, j]) for j in range(path.dim)], axis=1)
    t = np.interp(s_new, s_old, path.t)
    return DiscretePath(y, t, path.periods)


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------

# Node rows formatted per write in `save_path`: large enough that the
# per-block overhead vanishes, small enough that the temporaries of one
# block stay at a few MB.
_SAVE_BLOCK_ROWS = 4096

# Bytes per value in `_format_17g`: the longest "%.17g" text of a double
# (24, as in "-1.7976931348623157e+308") and its separator.
_WIDTH = 25
# Veltkamp's splitting constant for doubles, 2**27 + 1.
_SPLITTER = 134217729.0


@functools.cache
def _format_tables():
    """The tables of `_format_17g`, built on its first call.

    10**p for p = 0..20 (each an exact double); the four digit characters
    of every 4-digit group, as a (4, 10000) array; the trailing decimal
    zeros of every group (4 for 0); and the value masks, whose row
    a * _WIDTH + b is True on the columns a..b.
    """
    group = np.arange(10_000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10])
    zeros = sum(group % 10**j == 0 for j in range(1, 5))
    col = np.arange(_WIDTH)
    masks = (col[:, None, None] <= col) & (col <= col[None, :, None])
    return (
        10.0 ** np.arange(21),
        (digits + ord("0")).astype(np.uint8),
        zeros,
        masks.reshape(-1, _WIDTH),
    )


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and a * b = p + e exactly, elementwise:
    Dekker's TwoProduct (Numer. Math. 18 (1971) 224) with Veltkamp's
    split, exact while no product or split overflows or underflows."""
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _format_17g(values: np.ndarray, sep: int) -> tuple[np.ndarray, np.ndarray]:
    """The text ``"%.17g" % v`` of each double v of a 1-D array, followed by
    the byte `sep`, as two (n, _WIDTH) arrays (chars, mask): the text of
    value i is chars[i][mask[i]], so chars[mask].tobytes() is all of them
    in order.

    Values with v == 0 or 1e-4 <= |v| < 1e17 are the fixed notation of
    ``%.17g``; they are formatted here, exactly.  With k = floor(log10 |v|)
    and p = 16 - k in [0, 20], 10**p is a double, and `_two_product` gives
    |v| * 10**p = hi + lo exactly, with hi a double in [1e16, 1e17], so an
    integer.  The 17-digit significand q is hi + lo rounded half to even,
    which needs no margin and no approximation.  k is checked on that
    exact value: where log10 rounds across a power of ten, the value falls
    outside [1e16, 1e17) and k moves by one, so the digits do not depend
    on the platform's log10.  q never rounds up to 10**17, which would
    raise the exponent: that takes |v| within 5e-18 relative below a power
    of ten, and the double just below each of 1e-3..1e17 lies farther (the
    tests check each one).  So k is the exponent of ``%.17g``, and the
    text is the padded fixed-point string "0000" + the 17 digits of q with
    the point after k + 4 characters, from the last of the padding zeros
    that stays before the point (k < 0) or else the first digit, to the
    last nonzero digit after the point, with no point if there is none;
    the sign goes before it.  The characters lie in a
    column-major (_WIDTH, n) array, one row per position, so every step
    runs down whole rows; the digits come from a table of 4-digit groups.

    Every other value (exponent notation, non-finite values) is formatted
    by ``"%.17g" % v`` itself.  `solve._fmt` stays the scalar form for the
    record fields and CSV cells; a test pins it and the kernel equal.
    """
    pow10, group_digits, group_zeros, masks = _format_tables()
    n = values.shape[0]
    a = np.abs(values)
    zero = a == 0.0
    fast = ((a >= 1e-4) & (a < 1e17)) | zero
    x = np.where(fast & ~zero, a, 1.0)
    k = np.clip(np.floor(np.log10(x)), -4, 16).astype(np.int64)
    hi, lo = _two_product(x, pow10[16 - k])
    while True:
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        wrong = np.flatnonzero(low | high)
        if not wrong.size:
            break
        k[wrong] += np.where(high[wrong], 1, -1)
        hi[wrong], lo[wrong] = _two_product(x[wrong], pow10[16 - k[wrong]])
    # Round hi + lo half to even; floor(lo) + 0.5 is exact, as |lo| <= 8.
    floor = np.floor(lo)
    half = floor + 0.5
    q = hi.astype(np.int64) + floor.astype(np.int64)
    q += (lo > half) | ((lo == half) & ((q & 1) == 1))
    q[zero] = 0
    k[zero] = 0

    # The padded string: four '0' rows, then the digits of q.
    padded = np.empty((21, n), np.uint8)
    padded[:4] = ord("0")
    lead, rest = np.divmod(q, 10**16)
    np.add(lead, ord("0"), out=padded[4], casting="unsafe")
    g1, rest = np.divmod(rest, 10**12)
    g2, g4 = np.divmod(rest, 10**4)
    g2, g3 = np.divmod(g2, 10**4)
    for j, g in enumerate((g1, g2, g3, g4)):
        np.take(group_digits, g, axis=1, out=padded[5 + 4 * j:9 + 4 * j])
    zeros = group_zeros[g4]
    trailing = g4 == 0
    for g in (g3, g2, g1):
        zeros += trailing * group_zeros[g]
        trailing &= g == 0

    # Row 1 + c of `text` is character c of the padded string with the
    # point inserted after character k + 4; row 0 holds a sign.
    text = np.empty((_WIDTH, n), np.uint8)
    text[1] = padded[0]
    after = (k + 4 < np.arange(1, 21)[:, None]).view(np.uint8)
    body = text[2:22]
    np.subtract(padded[:-1], padded[1:], out=body)
    body *= after
    body += padded[1:]
    text[22] = padded[20]
    flat = text.reshape(-1)
    col = np.arange(n)
    flat[(k + 6) * n + col] = ord(".")
    skip = 4 + np.minimum(k, 0)
    neg = np.flatnonzero(np.signbit(values))
    flat[skip[neg] * n + neg] = ord("-")
    start = skip + 1
    start[neg] -= 1
    fraction = np.maximum(16 - zeros - k, 0)
    end = k + 6 + (fraction > 0) + fraction
    flat[end * n + col] = sep

    slow = np.flatnonzero(~fast)
    if slow.size:
        chars = np.array(
            ["%.17g" % v for v in values[slow].tolist()], dtype="S24"
        ).view(np.uint8).reshape(-1, 24)
        size = np.count_nonzero(chars, axis=1)
        text[:24, slow] = chars.T
        flat[size * n + slow] = sep
        start[slow] = 0
        end[slow] = size
    return np.ascontiguousarray(text.T), masks.take(start * _WIDTH + end, axis=0)


def save_path(path: DiscretePath, filename: str, *also):
    """Write the node table: one row per node, columns s, y_1..y_m, t.

    Values are printed with 17 significant digits so the table round-trips
    bit-exactly.  Each further argument is a (path, filename) pair written
    the same way in the same pass; its y-nodes (bit for bit) and periods
    must be those of `path`, as those of a record's geodesic are, or
    ValueError is raised before any file is opened.

    The columns [i/n, y] are built once and written in blocks of
    `_SAVE_BLOCK_ROWS` rows.  `_format_17g` formats the s and y values of a
    block once and each path's t-values once; each file's block is their
    rows, joined by one boolean compress.  Its text is that of ``"%.17g"
    % v``, so the bytes of each file are those of formatting each value of
    each row with ``"%.17g" % v``: ``np.arange(n + 1) / n`` equals ``i / n``
    bitwise, and ``"%.17g"`` of a float64 equals that of the same Python
    float.
    """
    for other, name in also:
        if (
            other.periods != path.periods
            or other.y.shape != path.y.shape
            or other.y.tobytes() != path.y.tobytes()
        ):
            raise ValueError(
                f"{name}: y-nodes and periods differ from those of {filename}"
            )
    n = path.segments
    cols = path.dim + 1
    sy = np.empty((n + 1, cols))
    sy[:, 0] = np.arange(n + 1) / n
    sy[:, 1:] = path.y
    header = "# s " + " ".join(f"y{j+1}" for j in range(path.dim)) + " t\n"
    if path.periods:
        header = "# periods %s\n" % " ".join("%.17g" % p for p in path.periods) + header
    with ExitStack() as stack:
        files = [(p.t, stack.enter_context(open(name, "w")))
                 for p, name in ((path, filename),) + also]
        for _, fh in files:
            fh.write(header)
        for start in range(0, n + 1, _SAVE_BLOCK_ROWS):
            block = sy[start:start + _SAVE_BLOCK_ROWS]
            rows = block.shape[0]
            chars = np.empty((rows, cols + 1, _WIDTH), np.uint8)
            mask = np.empty((rows, cols + 1, _WIDTH), bool)
            shared_chars, shared_mask = _format_17g(block.reshape(-1), ord(" "))
            chars[:, :cols] = shared_chars.reshape(rows, cols, _WIDTH)
            mask[:, :cols] = shared_mask.reshape(rows, cols, _WIDTH)
            for t, fh in files:
                chars[:, cols], mask[:, cols] = _format_17g(t[start:start + rows], ord("\n"))
                fh.write(chars[mask].tobytes().decode("ascii"))


def load_path(filename: str) -> DiscretePath:
    """Read a node table written by `save_path`, bit-exactly."""
    periods = None
    with open(filename) as fh:
        line = fh.readline()
        while line.startswith("#"):
            if line.startswith("# periods"):
                periods = [float(x) for x in line.split()[2:]]
            line = fh.readline()
        fh.seek(0)
        data = np.loadtxt(fh, comments="#", ndmin=2)
    return DiscretePath(data[:, 1:-1], data[:, -1], periods)
