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
`tangent_split` to the negated linearized charge of a variation.  One
per-segment pairing of a nodal field with per-segment coefficients
(`segment_pairing`) gives both the linearized charge and the integrand of
a directional derivative.

Paths and fields are value-like records; every operation returns a new
record, so concurrent multi-start workers never share mutable state.

A `PathState` is a path together with one evaluation of a model on it: the
segment geometry, the one-form values, the charge and energy quadratures
and the constraint deviation.  It has one constructor, which takes every
value; `path_state` and `project_to_N` evaluate them.  `project_to_N`
returns a state, so every
consumer of a projected path (arrival times, constraint check, tangent
split, lift) reads these values instead of evaluating the model again.  A
plain `DiscretePath` passed to a consumer is evaluated once on entry
(`path_state`).  Derivatives of the charge are not part of the state: they
are computed per gradient and passed explicitly (see
`linearized_charge_coeffs`).

A `DiscretePath` copies and checks its nodes once, when it is built.  A
state shares the y-array (and periods) of the path it evaluates or
projects instead of copying it again; `project_to_N` checks only the new
t-nodes it computes, and evaluates only the spatial half of the segment
geometry, which is all that omega and d need.  The per-iteration kernels
call ufuncs and array methods directly (np.add.reduce(x) / n for np.mean,
a[1:] - a[:-1] for np.diff, x.cumsum() for np.cumsum), which are the same
operations in the same order as the numpy wrappers, and write into their
own results with `out=` and in-place operators rather than into new
temporaries; they never write an array a caller passed in.  The same
operations in the same order, with the operands of a sum or product at
most swapped, give the same bits, so every value is bitwise what the plain
expressions give.  No kernel loops over m inside each row of an (N, m)
array: the row dots of `segment_pairing` run down whole columns
(models._row_dot) and form their products in a buffer the kernel already
holds.  One exception is a row dot of m >= 3 columns, which is einsum's,
because the columns would sum in another order; the other, the column sum
of m = 1 column in arrival._h1_solve, is numpy's pairwise reduce.

Paths are stored as plain-text node tables, one row ``s y_1..y_m t`` per
node with 17 significant digits, so `load_path` reads back the saved bits.
`save_path` formats the table in fixed blocks of rows, the s and y columns
once into a template with a hole for t, which each path sharing those
columns fills with its own t; its bytes are exactly those of formatting
every value with ``"%.17g"``, row by row.
"""
from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstraintViolationError
from .models import (
    Point,
    StationaryModel,
    TangentVector,
    _row_dot,
    chart_E,
    chart_L,
    chart_N,
    omega_coeffs,
)

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

    @classmethod
    def _own(cls, y, t) -> "TangentField":
        """A field over arrays the caller gives up, with endpoints already
        +0.0: nothing is copied or reset."""
        field = object.__new__(cls)
        object.__setattr__(field, "y", y)
        object.__setattr__(field, "t", t)
        return field


@dataclass(frozen=True)
class NoetherProfile:
    """Per-segment conserved-charge values with mean and max deviation."""

    values: np.ndarray
    mean: float
    max_deviation: float

    @classmethod
    def of(cls, values: np.ndarray) -> "NoetherProfile":
        mean = float(np.add.reduce(values, axis=None) / values.size)
        dev = np.maximum.reduce(np.abs(values - mean), axis=None)
        return cls(values, mean, float(dev))

    @property
    def scaled_deviation(self) -> float:
        """Max deviation over the constraint tolerance; <= 1 means on-manifold."""
        return self.max_deviation / (CONSTRAINT_RTOL * (1.0 + abs(self.mean)))


class PathState(DiscretePath):
    """A path with one evaluation of `model` on it; immutable like the path.

    Holds the segment midpoints and velocities (`mid_y`, `vel_y`, `vel_t`),
    the one-form values `omega` = omega(mid_y, vel_y), the quadratures
    `Q_bar` (charge) and `E_val` (energy), and `constraint_dev`, the scaled
    deviation of the charge profile.  The energy and charge profiles are
    reduced to these numbers and not kept.  t_pm follow from Q_bar and E_val
    in O(1), so no arrival evaluation is stored: it depends on kappa.

    Built by `path_state` and `project_to_N`, which pass every value: the
    t-nodes `t` (those of `path`, or the projected ones), `mid_y` and `vel_y`
    of the y-nodes, and `omega` and `d` = d_offset(mid_y) evaluated there.
    The state shares the y-nodes and periods of `path`, which a
    `DiscretePath` already holds as a private, checked copy; nothing is
    copied or checked here.
    """

    def __init__(self, model, path, t, mid_y, vel_y, omega, d):
        object.__setattr__(self, "y", path.y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "periods", path.periods)
        n = self.segments
        vel_t = _segment_rate(t, n)
        # Q_functional, energy_integral and the charge profile of noether_values
        # (chart_N = omega - tau + d), from the values above.
        q = np.subtract(omega, vel_t)
        q_bar = float(np.add.reduce(q) / n)
        q += d
        energy = chart_E(model, mid_y, vel_y, vel_t, omega=omega)
        fields = {
            "model": model,
            "mid_y": mid_y,
            "vel_y": vel_y,
            "vel_t": vel_t,
            "omega": omega,
            "Q_bar": q_bar,
            "E_val": float(np.add.reduce(energy) / n),
            "constraint_dev": NoetherProfile.of(q).scaled_deviation,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def path_state(model: StationaryModel, path: DiscretePath) -> PathState:
    """`path` evaluated under `model`; a state of that same model is returned as is.

    A new state shares the arrays of `path`.
    """
    if isinstance(path, PathState) and path.model is model:
        return path
    mid_y, vel_y = _spatial_geometry(path)
    omega = model.omega(mid_y, vel_y)
    return PathState(model, path, path.t, mid_y, vel_y, omega, model.d_offset(mid_y))


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
    """Midpoints and velocities for all segments.

    Returns (mid_y, mid_t, vel_y, vel_t) with shapes (N, m), (N,), (N, m),
    (N,).  Periodic coordinates use the nearest-representative difference,
    and the midpoint sits on the corresponding unwrapped segment.
    """
    t = path.t
    mid_y, vel_y = _spatial_geometry(path)
    mid_t = np.add(t[:-1], t[1:])
    mid_t *= 0.5
    return mid_y, mid_t, vel_y, _segment_rate(t, path.segments)


def velocity(path: DiscretePath, i: int) -> TangentVector:
    """Difference-quotient velocity of segment i (1-based, 1 <= i <= N)."""
    if not 1 <= i <= path.segments:
        raise IndexError(f"segment index {i} out of range 1..{path.segments}")
    _, _, vel_y, vel_t = segment_geometry(path)
    return TangentVector(vel_y[i - 1], vel_t[i - 1])


def midpoint(path: DiscretePath, i: int) -> Point:
    if not 1 <= i <= path.segments:
        raise IndexError(f"segment index {i} out of range 1..{path.segments}")
    mid_y, mid_t, _, _ = segment_geometry(path)
    return Point(mid_y[i - 1], mid_t[i - 1])


def segment_pairing(path: DiscretePath, delta: TangentField, P, V, w) -> np.ndarray:
    """Per-segment pairing P . dmid_y + V . dvel_y + w * dvel_t of a nodal field.

    (dmid_y, dvel_y, dvel_t) are the spatial midpoint values and difference
    quotients of `delta`; nothing depends on the t coordinate, so its
    midpoints are never needed.  With per-segment partials (P, V, w) of a
    functional this is the integrand of its directional derivative; with
    the charge coefficients (A, B) and w = -1 it is the linearized charge.
    """
    n = path.segments
    dy = delta.y
    # One (N, m) buffer holds the midpoint values, then the quotients; each
    # row dot forms its column products in the buffer's first column.
    buf = np.add(dy[:-1], dy[1:])
    buf *= 0.5
    h = _row_dot(P, buf, buf[:, 0])
    np.subtract(dy[1:], dy[:-1], out=buf)
    buf *= n
    h += _row_dot(V, buf, buf[:, 0])
    vel_t = _segment_rate(delta.t, n)
    vel_t *= w  # w = -1 then costs no (N,) temporary
    h += vel_t
    return h


# ---------------------------------------------------------------------------
# functionals by quadrature
# ---------------------------------------------------------------------------

def action(model: StationaryModel, path: DiscretePath) -> float:
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    return float(np.sum(chart_L(model, mid_y, vel_y, vel_t)) / path.segments)


def energy_integral(model: StationaryModel, path: DiscretePath) -> float:
    return path_state(model, path).E_val


def noether_values(model: StationaryModel, path: DiscretePath) -> NoetherProfile:
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    return NoetherProfile.of(chart_N(model, mid_y, vel_y, vel_t))


def constraint_deviation(model: StationaryModel, path: DiscretePath) -> float:
    """Charge deviation scaled by the constraint tolerance; <= 1 means on-manifold."""
    return path_state(model, path).constraint_dev


def require_on_constraint(model: StationaryModel, path: DiscretePath):
    dev = constraint_deviation(model, path)
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


def project_to_N(model: StationaryModel, path: DiscretePath) -> PathState:
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
    non-finite exactly when omega or d is somewhere on the path.
    """
    mid_y, vel_y = _spatial_geometry(path)
    om = model.omega(mid_y, vel_y)
    d = model.d_offset(mid_y)
    t = _cumulative_nodes(om + d, path.t[0], path.t[-1])
    if not np.isfinite(t).all():
        raise ValueError("path nodes must be finite")
    return PathState(model, path, t, mid_y, vel_y, om, d)


def linearized_charge_coeffs(
    model: StationaryModel, path: DiscretePath, domega_dy=None, w=None
):
    """Per-segment coefficients (A, B) of the linearized charge condition.

    A variation (dy, dt) changes the segment charge by
    A_i . dy_mid_i + B_i . dy_vel_i - dt_vel_i, with A the position
    sensitivity of omega + d and B the one-form coefficients of omega.
    `domega_dy` and `w` (= omega_coeffs at the midpoints) may be passed when
    already evaluated at this path; B is then `w` itself.
    """
    state = path_state(model, path)
    if domega_dy is None:
        domega_dy = model.domega_dy(state.mid_y, state.vel_y)
    a = domega_dy + model.dd_dy(state.mid_y)
    b = omega_coeffs(model, state.mid_y) if w is None else w
    return a, b


def linearized_charge(
    model: StationaryModel, path: DiscretePath, delta: TangentField, coeffs=None
) -> np.ndarray:
    """Per-segment first-order change h of the charge under the variation delta.

    The variation is tangent to the constraint manifold exactly when h is
    constant across segments.  `coeffs` is (A, B) of linearized_charge_coeffs
    at this path, computed here when not given.
    """
    a, b = coeffs if coeffs is not None else linearized_charge_coeffs(model, path)
    return segment_pairing(path, delta, a, b, -1.0)


def tangent_split(
    model: StationaryModel, path: DiscretePath, delta: TangentField, coeffs=None
):
    """Split a variation into a constraint-tangent part and a symmetry part.

    Returns (xi, mu) with delta = xi + mu * K nodewise, mu vanishing at the
    endpoints, and xi satisfying the linearized constant-charge condition
    across segments: mu is the cumulative construction of project_to_N on
    the rate -h, h the linearized charge.  `coeffs` as in linearized_charge.
    """
    mu = _symmetry_part(model, path, delta, coeffs)
    # delta.y and delta.t have +0.0 endpoints and mu does too, so xi shares
    # delta.y and owns delta.t - mu as they are.
    xi = TangentField._own(delta.y, delta.t - mu)
    return xi, mu


def _symmetry_part(model, path, delta, coeffs) -> np.ndarray:
    """mu of tangent_split: the cumulative construction on the rate -h."""
    state = path_state(model, path)
    require_on_constraint(model, state)
    h = linearized_charge(model, state, delta, coeffs)
    return _cumulative_nodes(np.negative(h, out=h), 0.0, 0.0)


def lift_spatial_variation(
    model: StationaryModel, path: DiscretePath, dy: np.ndarray, coeffs=None
) -> TangentField:
    """Unique constraint-tangent field over a spatial nodal variation.

    The constraint manifold is a graph over the spatial nodes, so every
    interior spatial variation lifts to exactly one tangent field.  `coeffs`
    as in linearized_charge.  `dy` is copied once; the lifted field shares
    that copy.  Its t-part is tangent_split's 0.0 - mu, written over mu.
    """
    y = np.array(dy, dtype=float)
    y[0] = 0.0
    y[-1] = 0.0
    zero = np.zeros(y.shape[0])
    mu = _symmetry_part(model, path, TangentField._own(y, zero), coeffs)
    return TangentField._own(y, np.subtract(zero, mu, out=mu))


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
    s = np.arange(n_segments + 1) / n_segments
    disp = q.y - p.y
    if extra_wraps is not None and periods:
        for j, (k, per) in enumerate(zip(extra_wraps, periods)):
            if per and k:
                disp = disp.copy()
                disp[j] += k * per
    y = p.y[None, :] + s[:, None] * disp[None, :]
    t = p.t + s * (q.t - p.t)
    return DiscretePath(y, t, periods)


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
# per-block overhead vanishes, small enough that the formatted text of one
# block stays at a few hundred kB.
_SAVE_BLOCK_ROWS = 4096


def save_path(path: DiscretePath, filename: str, *also):
    """Write the node table: one row per node, columns s, y_1..y_m, t.

    Values are printed with 17 significant digits so the table round-trips
    bit-exactly.  Each further argument is a (path, filename) pair written
    the same way in the same pass; its y-nodes (bit for bit) and periods
    must be those of `path`, as those of a record's geodesic are, or
    ValueError is raised before any file is opened.

    The columns [i/n, y] are built once and written in blocks of
    `_SAVE_BLOCK_ROWS` rows, in two stages.  The first formats the s and y
    values of a block once into a row template that leaves a ``%.17g``
    hole for t; the second fills the holes with each path's t-values, one
    `%`-format per block and file.  A formatted number holds no ``%``, so
    the template's only holes are those for t.  The bytes of each file are
    those of formatting each value of each row with ``"%.17g" % v``:
    ``np.arange(n + 1) / n`` equals ``i / n`` bitwise, and ``"%.17g"`` of a
    float64 equals that of the same Python float.
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
    sy = np.empty((n + 1, path.dim + 1))
    sy[:, 0] = np.arange(n + 1) / n
    sy[:, 1:] = path.y
    row = "%.17g " * sy.shape[1] + "%%.17g\n"
    header = "# s " + " ".join(f"y{j+1}" for j in range(path.dim)) + " t\n"
    if path.periods:
        header = "# periods %s\n" % " ".join("%.17g" % p for p in path.periods) + header
    with ExitStack() as stack:
        files = [(p.t, stack.enter_context(open(name, "w")))
                 for p, name in ((path, filename),) + also]
        for _, fh in files:
            fh.write(header)
        for start in range(0, n + 1, _SAVE_BLOCK_ROWS):
            stop = start + _SAVE_BLOCK_ROWS
            block = sy[start:stop]
            template = (row * block.shape[0]) % tuple(block.ravel().tolist())
            for t, fh in files:
                fh.write(template % tuple(t[start:stop].tolist()))


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
