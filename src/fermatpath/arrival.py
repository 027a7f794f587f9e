"""Arrival-time functionals on the constraint manifold and their variations.

For a constrained path z the two flow parameters carrying it to the energy
level kappa are

    t_pm(z) = Qbar(z) +- sqrt(Qbar(z)^2 + 2 * (E(z) - kappa))

where Qbar is the charge functional (the constant charge for linear-charge
models, the integral of the charge one-form in the affine case) and E the
energy functional.  Critical points of t_plus restricted to the constraint
manifold are exactly the future-directed fixed-energy trajectories after
flowing by t_plus; the criticality defect is measured against the identity
that relates the arrival-time differential to the difference between the
energy and action variations (plus an offset-functional correction when the
charge is affine).

All variational quantities are midpoint-rule discretizations over segments,
shared between the directional derivatives, the descent gradient, and the
criticality residual so that algebraic identities survive in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, ConstraintViolationError, UnsupportedModelError
from .models import StationaryModel, chart_L, chart_partials, chart_partials_gap
from .paths import (
    DiscretePath,
    TangentField,
    action,
    energy_integral,
    field_segment_data,
    lift_spatial_variation,
    linearized_charge,
    linearized_charge_coeffs,
    require_on_constraint,
    segment_geometry,
    unwrap_periodic,
)


@dataclass(frozen=True)
class ArrivalEvaluation:
    """Both arrival branches plus the ingredients of the defining quadratic.

    Root identities: t_plus + t_minus = 2 * Q_bar and
    t_plus * t_minus = 2 * (kappa - E_val).
    """

    t_plus: float
    t_minus: float
    S: float
    Q_bar: float
    E_val: float
    kappa: float
    branch_valid: bool


@dataclass(frozen=True)
class FunctionalGradient:
    """H1-preconditioned gradient restricted to the constraint tangent space."""

    field: TangentField
    norm: float


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------

def Q_functional(model: StationaryModel, path: DiscretePath) -> float:
    """Quadrature of the charge one-form along the path.

    Equals the constant charge for linear-charge paths on the constraint
    manifold; stays meaningful (as the integral) in the affine case.
    """
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    return float(np.sum(model.omega(mid_y, vel_y) - vel_t) / path.segments)


def D_functional(model: StationaryModel, path: DiscretePath) -> float:
    """Quadrature of the charge offset d along the path."""
    mid_y, _, _, _ = segment_geometry(path)
    return float(np.sum(model.d_offset(mid_y)) / path.segments)


def kappa_admissible_bound(model: StationaryModel) -> Optional[float]:
    """Analytic admissibility bound when one is known (0 for 2-homogeneous fibers)."""
    return 0.0 if model.homogeneous else None


def require_admissible(kappa: float, bound: Optional[float]):
    """Raise AdmissibilityError when kappa exceeds the bound beyond round-off.

    A bound of None means none is known, and every kappa passes.
    """
    if bound is not None and kappa > bound + 1e-12 * (1.0 + abs(bound)):
        raise AdmissibilityError(
            f"kappa={kappa:g} exceeds admissible bound {bound:.17g}"
        )


def arrival_times(
    model: StationaryModel,
    path: DiscretePath,
    kappa: float,
    *,
    check_constraint: bool = True,
    kappa_bound: Optional[float] = None,
) -> ArrivalEvaluation:
    """Solve E(F^t z) = kappa for the two flow parameters t.

    Requires the path to satisfy the constant-charge tolerance and kappa to
    be admissible (checked against `kappa_bound` when supplied, against the
    analytic bound for 2-homogeneous fibers, trusted otherwise).  A negative
    discriminant beyond the floor means kappa is inadmissible or the path
    degenerates onto a flow line.
    """
    if check_constraint:
        require_on_constraint(model, path)
    require_admissible(
        kappa, kappa_bound if kappa_bound is not None else kappa_admissible_bound(model)
    )
    q_bar = Q_functional(model, path)
    e_val = energy_integral(model, path)
    s_sq = q_bar * q_bar + 2.0 * (e_val - kappa)
    eps = 1e-12 * (1.0 + abs(e_val))
    if s_sq < -eps:
        raise AdmissibilityError(
            f"negative discriminant {s_sq:g}: kappa too large or degenerate path"
        )
    s = math.sqrt(max(s_sq, 0.0))
    return ArrivalEvaluation(
        t_plus=q_bar + s,
        t_minus=q_bar - s,
        S=s,
        Q_bar=q_bar,
        E_val=e_val,
        kappa=kappa,
        branch_valid=bool(s_sq > eps),
    )


def H_functional(model: StationaryModel, path: DiscretePath, t: float) -> float:
    """Action of the path with velocities shifted by t along the symmetry field.

    Cross-checked against the exact splitting H = action + t * Nbar - t^2/2
    (Nbar the charge quadrature; equal to Qbar for linear-charge models).
    """
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    t = float(t)
    value = float(np.sum(chart_L(model, mid_y, vel_y, vel_t + t)) / path.segments)
    n_bar = Q_functional(model, path) + D_functional(model, path)
    split = action(model, path) + t * n_bar - 0.5 * t * t
    if abs(value - split) > 1e-10 * (1.0 + abs(value)):
        raise RuntimeError(
            f"flow-shift splitting identity violated: {value!r} vs {split!r}"
        )
    return value


# ---------------------------------------------------------------------------
# discrete first variations
# ---------------------------------------------------------------------------

def _functional_partials(model, path, kind):
    """Per-segment partials (P, V, w) of one of the base functionals."""
    mid_y, _, vel_y, vel_t = segment_geometry(path)
    if kind == "gap":  # partials of (E - L); exact zeros for Lorentz-Finsler
        return chart_partials_gap(model, mid_y, vel_y, vel_t)
    return chart_partials(model, mid_y, vel_y, vel_t, kind)


def _directional_value(path, delta, P, V, w):
    dmid_y, _, dvel_y, dvel_t = field_segment_data(path, delta)
    total = (
        np.einsum("ij,ij->i", P, dmid_y)
        + np.einsum("ij,ij->i", V, dvel_y)
        + w * dvel_t
    )
    return float(np.sum(total) / path.segments)


def _require_tangent(model, path, delta):
    h = linearized_charge(model, path, delta)
    scale = 1.0 + float(np.max(np.abs(h))) if h.size else 1.0
    if float(np.max(np.abs(h - np.mean(h)))) > 1e-7 * scale:
        raise ConstraintViolationError(
            "variation is not tangent to the constraint manifold; "
            "pass it through tangent_split first"
        )


def _arrival_partials(model, path, arr: ArrivalEvaluation, branch: str):
    """Per-segment partials of t_plus or t_minus by the chain rule."""
    if not arr.branch_valid:
        raise AdmissibilityError("arrival branch degenerate: discriminant at the floor")
    sign = 1.0 if branch == "plus" else -1.0
    coef_q = 1.0 + sign * arr.Q_bar / arr.S
    coef_e = sign / arr.S
    PQ, VQ, wQ = _functional_partials(model, path, "Q")
    PE, VE, wE = _functional_partials(model, path, "E")
    return (
        coef_q * PQ + coef_e * PE,
        coef_q * VQ + coef_e * VE,
        coef_q * wQ + coef_e * wE,
    )


def dt_plus(model, path, kappa, delta: TangentField) -> float:
    """Directional derivative of t_plus along a constraint-tangent variation."""
    arr = arrival_times(model, path, kappa)
    _require_tangent(model, path, delta)
    P, V, w = _arrival_partials(model, path, arr, "plus")
    return _directional_value(path, delta, P, V, w)


def dt_minus(model, path, kappa, delta: TangentField) -> float:
    arr = arrival_times(model, path, kappa)
    _require_tangent(model, path, delta)
    P, V, w = _arrival_partials(model, path, arr, "minus")
    return _directional_value(path, delta, P, V, w)


# ---------------------------------------------------------------------------
# H1-preconditioned gradients on the constraint tangent space
# ---------------------------------------------------------------------------

def _assemble_nodal(path, P, V, w):
    """Nodal gradient of a functional given per-segment partials.

    Segment i couples nodes i and i+1 through the midpoint average and the
    difference quotient; endpoints stay zero (fixed boundary conditions).
    """
    n = path.segments
    g_y = np.zeros_like(path.y)
    g_t = np.zeros_like(path.t)
    g_y[1:n] = (P[:-1] + P[1:]) / (2.0 * n) + (V[:-1] - V[1:])
    g_t[1:n] = w[:-1] - w[1:]
    return g_y, g_t


def _lift_adjoint(model, path, g_t):
    """Pull a t-nodal gradient back through the constraint lift.

    The lift sends a spatial variation to the unique t-profile keeping the
    linearized charge constant; its adjoint turns the t-part of a gradient
    into an equivalent spatial-segment functional, assembled nodally.
    """
    n = path.segments
    a, b = linearized_charge_coeffs(model, path)
    # G_i = sum of g_t over nodes past segment i; H recenters and rescales.
    g_int = g_t[1:n]
    G = np.zeros(n)
    G[:-1] = np.cumsum(g_int[::-1])[::-1]
    H = (G - np.mean(G)) / n
    Pp = (n * H)[:, None] * a
    Vp = (n * H)[:, None] * b
    g_y, _ = _assemble_nodal(path, Pp, Vp, np.zeros(n))
    return g_y


def _h1_solve(path, g_red):
    """Solve the H1 stiffness system n * tridiag(-1, 2, -1) u = g on the interior.

    With u_0 = u_n = 0 and the differences d_i = u_i - u_{i-1} (i = 1..n),
    row i reads n * (d_i - d_{i+1}) = g_i, so d_i = d_1 - G_i / n with
    G_i = sum_{k<i} g_k over interior rows (G_1 = 0).  The boundary
    condition sum_i d_i = u_n - u_0 = 0 fixes d_1 = mean(G) / n, hence
    d_i = (mean(G) - G_i) / n and u = cumsum(d): two cumulative sums, O(n).
    """
    n = path.segments
    G = np.zeros((n,) + g_red.shape[1:])
    np.cumsum(g_red[1:n], axis=0, out=G[1:])
    u = np.zeros_like(g_red)
    np.cumsum((np.mean(G, axis=0) - G[:-1]) / n, axis=0, out=u[1:n])
    return u


def _restricted_gradient(model, path, P, V, w) -> FunctionalGradient:
    """H1 representer of a functional restricted to the constraint tangent space.

    Assembles the nodal gradient, reduces the t-part onto the spatial
    coordinates through the lift adjoint, preconditions with the tridiagonal
    H1 solve, and lifts the result back to a constraint-tangent field.  The
    returned norm is the dual norm of the restricted functional.
    """
    g_y, g_t = _assemble_nodal(path, P, V, w)
    g_red = g_y + _lift_adjoint(model, path, g_t)
    u = _h1_solve(path, g_red)
    norm_sq = float(np.sum(g_red * u))
    field = lift_spatial_variation(model, path, u)
    return FunctionalGradient(field=field, norm=math.sqrt(max(norm_sq, 0.0)))


def arrival_gradient(model, path, kappa, branch: str = "plus") -> FunctionalGradient:
    """Descent gradient of the arrival time on the constraint manifold."""
    arr = arrival_times(model, path, kappa)
    P, V, w = _arrival_partials(model, path, arr, branch)
    return _restricted_gradient(model, path, P, V, w)


def criticality_residual(model, path, kappa, branch: str = "plus") -> float:
    """Dual-norm defect of the arrival-time criticality identity.

    Measures dt_pm minus its characterization through the energy/action
    variation gap (with the arrival-weighted offset correction in the affine
    case) over the constraint tangent space.  For Lorentz-Finsler models the
    gap contributes exact zeros, so the residual reduces to the plain
    gradient norm of the arrival time.
    """
    arr = arrival_times(model, path, kappa)
    P, V, w = _arrival_partials(model, path, arr, branch)
    Pg, Vg, wg = _functional_partials(model, path, "gap")
    PD, VD, wD = _functional_partials(model, path, "D")
    if branch == "plus":
        # residual = dt_plus - (dE - dL - t_plus * dD) / S
        cg, cd = -1.0 / arr.S, arr.t_plus / arr.S
    else:
        # residual = dt_minus - (dL - dE + t_minus * dD) / S
        cg, cd = 1.0 / arr.S, -arr.t_minus / arr.S
    grad = _restricted_gradient(
        model, path, P + cg * Pg + cd * PD, V + cg * Vg + cd * VD, w + cg * wg + cd * wD
    )
    return grad.norm


# ---------------------------------------------------------------------------
# optical arrival length
# ---------------------------------------------------------------------------

def randers_arrival(model: StationaryModel, spatial_nodes, periods=None) -> float:
    """Optical (drift + root) length of a spatial path.

    For a 2-homogeneous linear-charge model this is the arrival time of the
    lightlike lift of the path: quadrature of
    omega(y_dot) + sqrt(omega(y_dot)^2 + 2 L0(y, y_dot)).
    """
    if not (model.homogeneous and model.linear_charge):
        raise UnsupportedModelError(
            "optical arrival length needs a 2-homogeneous fiber and linear charge"
        )
    y = np.asarray(spatial_nodes, dtype=float)
    n = y.shape[0] - 1
    dy = unwrap_periodic(
        np.diff(y, axis=0), periods if periods is not None else model.periods
    )
    mid = y[:-1] + 0.5 * dy
    vel = dy * n
    om = model.omega(mid, vel)
    rad = om * om + 2.0 * model.L0(mid, vel)
    if np.any(rad < 0.0):
        raise UnsupportedModelError("optical metric undefined: negative radicand")
    return float(np.sum(om + np.sqrt(rad)) / n)
