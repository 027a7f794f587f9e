"""Discrete paths with fixed endpoints and the constant-charge constraint.

Curves are piecewise linear on the uniform grid s_i = i/N over [0, 1].
Functionals are midpoint-rule quadratures over the segments.  The
constant-charge constraint is enforced by eliminating the interior t-nodes:
in adapted coordinates the charge reads N = omega(y_dot) + d(y) - t_dot per
segment, so prescribing a constant value and integrating t_dot cumulatively
is an exact, closed-form projection (the constraint ODE has no homogeneous
term because nothing depends on t).

Paths and fields are value-like records; every operation returns a new
record, so concurrent multi-start workers never share mutable state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstraintViolationError
from .models import (
    Point,
    StationaryModel,
    TangentVector,
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
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(t))):
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

    @property
    def p(self) -> Point:
        return Point(self.y[0], self.t[0])

    @property
    def q(self) -> Point:
        return Point(self.y[-1], self.t[-1])


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
    def zero(cls, path: DiscretePath) -> "TangentField":
        return cls(np.zeros_like(path.y), np.zeros_like(path.t))


@dataclass(frozen=True)
class NoetherProfile:
    """Per-segment conserved-charge values with mean and max deviation."""

    values: np.ndarray
    mean: float
    max_deviation: float


# ---------------------------------------------------------------------------
# segment geometry
# ---------------------------------------------------------------------------

def unwrap_periodic(dy, periods) -> np.ndarray:
    """Nearest representative of slice displacements modulo the periods.

    `dy` holds displacements along its last axis; a zero period marks an
    aperiodic coordinate, which passes through unchanged.
    """
    if periods:
        dy = np.array(dy, dtype=float)
        for j, p in enumerate(periods):
            if p:
                dy[..., j] -= p * np.round(dy[..., j] / p)
    return dy


def segment_geometry(path: DiscretePath):
    """Midpoints and velocities for all segments.

    Returns (mid_y, mid_t, vel_y, vel_t) with shapes (N, m), (N,), (N, m),
    (N,).  Periodic coordinates use the nearest-representative difference,
    and the midpoint sits on the corresponding unwrapped segment.
    """
    n = path.segments
    dy = unwrap_periodic(np.diff(path.y, axis=0), path.periods)
    mid_y = path.y[:-1] + 0.5 * dy
    mid_t = 0.5 * (path.t[:-1] + path.t[1:])
    vel_y = dy * n
    vel_t = np.diff(path.t) * n
    return mid_y, mid_t, vel_y, vel_t


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


def field_segment_data(path: DiscretePath, delta: TangentField):
    """Midpoint values and difference quotients of a nodal field."""
    n = path.segments
    mid_y = 0.5 * (delta.y[:-1] + delta.y[1:])
    mid_t = 0.5 * (delta.t[:-1] + delta.t[1:])
    vel_y = np.diff(delta.y, axis=0) * n
    vel_t = np.diff(delta.t) * n
    return mid_y, mid_t, vel_y, vel_t


# ---------------------------------------------------------------------------
# functionals by quadrature
# ---------------------------------------------------------------------------

def action(model: StationaryModel, path: DiscretePath) -> float:
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    return float(np.sum(chart_L(model, mid_y, vel_y, vel_t)) / path.segments)


def energy_integral(model: StationaryModel, path: DiscretePath) -> float:
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    return float(np.sum(chart_E(model, mid_y, vel_y, vel_t)) / path.segments)


def noether_values(model: StationaryModel, path: DiscretePath) -> NoetherProfile:
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    values = chart_N(model, mid_y, vel_y, vel_t)
    mean = float(np.mean(values))
    return NoetherProfile(values, mean, float(np.max(np.abs(values - mean))))


def constraint_deviation(model: StationaryModel, path: DiscretePath) -> float:
    """Charge deviation scaled by the constraint tolerance; <= 1 means on-manifold."""
    prof = noether_values(model, path)
    return prof.max_deviation / (CONSTRAINT_RTOL * (1.0 + abs(prof.mean)))


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

def project_to_N(model: StationaryModel, path: DiscretePath) -> DiscretePath:
    """Replace the interior t-nodes so the charge profile is exactly constant.

    The y-nodes and both endpoint t-values are preserved bitwise.  With the
    symmetry field aligned to the t coordinate the constraint ODE loses its
    homogeneous term, so the projected profile is the closed form
    t_dot_i = omega_i + d_i - c with c fixed by the endpoint condition.
    The construction depends only on the y-data and the t-endpoints, which
    makes the projection exactly idempotent.
    """
    n = path.segments
    mid_y, _, vel_y, _ = segment_geometry(path)
    r = model.omega(mid_y, vel_y) + model.d_offset(mid_y)
    c = float(np.mean(r)) - (path.t[-1] - path.t[0])
    tdot = r - c
    t_new = np.empty_like(path.t)
    t_new[0] = path.t[0]
    t_new[1:] = path.t[0] + np.cumsum(tdot) / n
    t_new[-1] = path.t[-1]
    return DiscretePath(path.y, t_new, path.periods)


def linearized_charge_coeffs(model: StationaryModel, path: DiscretePath):
    """Per-segment coefficients (A, B) of the linearized charge condition.

    A variation (dy, dt) changes the segment charge by
    A_i . dy_mid_i + B_i . dy_vel_i - dt_vel_i, with A the position
    sensitivity of omega + d and B the one-form coefficients of omega.
    """
    mid_y, _, vel_y, _ = segment_geometry(path)
    a = model.domega_dy(mid_y, vel_y) + model.dd_dy(mid_y)
    b = omega_coeffs(model, mid_y)
    return a, b


def linearized_charge(
    model: StationaryModel, path: DiscretePath, delta: TangentField
) -> np.ndarray:
    """Per-segment first-order change h of the charge under the variation delta.

    The variation is tangent to the constraint manifold exactly when h is
    constant across segments.
    """
    a, b = linearized_charge_coeffs(model, path)
    dmid_y, _, dvel_y, dvel_t = field_segment_data(path, delta)
    return (
        np.einsum("ij,ij->i", a, dmid_y)
        + np.einsum("ij,ij->i", b, dvel_y)
        - dvel_t
    )


def tangent_split(
    model: StationaryModel, path: DiscretePath, delta: TangentField
):
    """Split a variation into a constraint-tangent part and a symmetry part.

    Returns (xi, mu) with delta = xi + mu * K nodewise, mu vanishing at the
    endpoints, and xi satisfying the linearized constant-charge condition
    across segments.  The same cumulative construction as project_to_N
    applies, on the linearized charge.
    """
    require_on_constraint(model, path)
    n = path.segments
    h = linearized_charge(model, path, delta)
    c = float(np.mean(h))
    mu = np.empty_like(path.t)
    mu[0] = 0.0
    mu[1:] = np.cumsum(c - h) / n
    mu[-1] = 0.0
    xi = TangentField(delta.y, delta.t - mu)
    return xi, mu


def lift_spatial_variation(
    model: StationaryModel, path: DiscretePath, dy: np.ndarray
) -> TangentField:
    """Unique constraint-tangent field over a spatial nodal variation.

    The constraint manifold is a graph over the spatial nodes, so every
    interior spatial variation lifts to exactly one tangent field.
    """
    field = TangentField(dy, np.zeros(dy.shape[0]))
    xi, _ = tangent_split(model, path, field)
    return xi


# ---------------------------------------------------------------------------
# inner product and flow map
# ---------------------------------------------------------------------------

def h1_inner(path: DiscretePath, d1: TangentField, d2: TangentField) -> float:
    """First-derivative inner product sum_i <d1_dot, d2_dot> / N.

    Symmetric and positive definite on endpoint-vanishing fields; used as
    the preconditioner metric for gradient descent.
    """
    n = path.segments
    a_y = np.diff(d1.y, axis=0)
    b_y = np.diff(d2.y, axis=0)
    a_t = np.diff(d1.t)
    b_t = np.diff(d2.t)
    return float(n * (np.sum(a_y * b_y) + np.sum(a_t * b_t)))


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

def save_path(path: DiscretePath, filename: str):
    """Write the node table: one row per node, columns s, y_1..y_m, t.

    Values are printed with 17 significant digits so the table round-trips
    bit-exactly.
    """
    n = path.segments
    with open(filename, "w") as fh:
        if path.periods:
            fh.write("# periods %s\n" % " ".join("%.17g" % p for p in path.periods))
        fh.write("# s " + " ".join(f"y{j+1}" for j in range(path.dim)) + " t\n")
        for i in range(n + 1):
            row = [i / n, *path.y[i], path.t[i]]
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def load_path(filename: str) -> DiscretePath:
    periods = None
    rows = []
    with open(filename) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# periods"):
                periods = [float(x) for x in line.split()[2:]]
            elif not line or line.startswith("#"):
                continue
            else:
                rows.append([float(x) for x in line.split()])
    data = np.asarray(rows)
    return DiscretePath(data[:, 1:-1], data[:, -1], periods)
