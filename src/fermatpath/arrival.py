"""Arrival-time functionals on the constraint manifold and their variations.

For a constrained path z the two flow parameters carrying it to the energy
level kappa are

    t_pm(z) = Qbar(z) +- sqrt(Qbar(z)^2 + 2 * (E(z) - kappa))

where Qbar is the charge functional (the constant charge for linear-charge
models, the integral of the charge one-form in the affine case) and E the
energy functional.  `arrival_times` returns both roots; every variation
here is that of t_plus alone, and no kernel carries a branch sign
(solve.minimize_arrival runs the minus branch as the reversed problem).

The trajectory equation is theta = 0: a constrained path carried by the
flow to t_plus is a future-directed fixed-energy trajectory where the
defect theta of the identity relating the arrival-time differential to
the difference between the energy and action variations (plus an
offset-functional correction when the charge is affine) vanishes,

    theta = dt_plus - (dE - dL - t_plus dD) / S.

For a 2-homogeneous L with linear charge the added terms are exact zeros,
so theta = dt_plus bit for bit and the equation is dt = 0, Fermat's
principle in a stationary spacetime (Perlick, Class. Quantum Grav. 7
(1990) 1319).  The descent of solve.minimize_arrival solves dt_plus = 0,
which is theta = 0 only in that case (models.StationaryModel.fermat); for
any other model a descent that reaches dt_plus = 0 checks theta there and
is not converged where theta is not 0 (solve._descend).

All variational quantities are midpoint-rule discretizations over segments.
The arrival one-form is assembled in one place, `_arrival_form`, except
for a static model's gradient, whose form is dE0 / S (`_static_form`).
`arrival_gradient` returns its H1 representer (`_restricted_gradient`),
`criticality_residual` the dual norm of the representer of theta, and
`dt_plus` pairs the form with a variation (paths.segment_pairing).  Each
evaluates the model once per path, through its state (paths.PathState).

The kernels, here and in paths, write into their own results: each
intermediate is computed into an array the kernel has made (with `out=` or
an in-place operator) instead of into a new temporary, and an array is
overwritten only when nothing reads it afterwards.  A kernel's own arrays
are allocated with np.empty, and only the rows that no operation writes
(the fixed endpoints, and the empty sum at one end of a cumulative sum)
are set to zero.  Arrays a caller passes in, and the values a model's
evaluators return, are never written.  Each kernel performs the same
operations in the same order as the plain expression it replaces, with the
operands of a sum or product at most swapped, which IEEE arithmetic leaves
unchanged, so every value keeps its bits, signed zeros included
(tests/test_kernels.py holds the expressions as references).  Ufuncs and
array methods are called for the numpy wrappers that run them
(np.add.reduce(x) / n for np.mean, a[1:] - a[:-1] for np.diff, x.cumsum()
for np.cumsum): the same operations in the same order.  This keeps the
fine-grid heap steady: fewer (N, m) temporaries are made and freed per
gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, ConstraintViolationError, UnsupportedModelError
from .models import (
    StationaryModel,
    _COLUMN_LOOP_MIN_ROWS,
    _row_scale,
    chart_L,
    chart_partials,
    chart_partials_gap,
    omega_coeffs,
)
from .paths import (
    DiscretePath,
    TangentField,
    _spatial_geometry,
    lift_spatial_variation,
    linearized_charge_coeffs,
    path_state,
    require_on_constraint,
    segment_geometry,
    segment_pairing,
)


@dataclass(frozen=True)
class ArrivalEvaluation:
    """Both arrival branches plus the ingredients of the defining quadratic.

    Root identities: t_plus + t_minus = 2 * Q_bar and
    t_plus * t_minus = 2 * (kappa - E_val).
    """

    S: float
    Q_bar: float
    E_val: float
    kappa: float
    branch_valid: bool

    @property
    def t_plus(self) -> float:
        return self.Q_bar + self.S

    @property
    def t_minus(self) -> float:
        return self.Q_bar - self.S


@dataclass(frozen=True)
class FunctionalGradient:
    """H1-preconditioned gradient restricted to the constraint tangent space."""

    field: TangentField
    norm: float


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------

def D_functional(model: StationaryModel, path: DiscretePath) -> float:
    """Quadrature of the charge offset d along the path."""
    mid_y, _, _ = segment_geometry(path)
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
    model: StationaryModel, path: DiscretePath, kappa: float
) -> ArrivalEvaluation:
    """Solve E(F^t z) = kappa for the two flow parameters t.

    Requires the path to satisfy the constant-charge tolerance and kappa to
    be admissible (checked against the analytic bound for 2-homogeneous
    fibers, trusted otherwise).  A negative discriminant beyond the floor
    means kappa is inadmissible or the path degenerates onto a flow line.
    """
    state = path_state(model, path)
    require_on_constraint(model, state)
    require_admissible(kappa, kappa_admissible_bound(model))
    q_bar = state.Q_bar
    e_val = state.E_val
    s_sq = q_bar * q_bar + 2.0 * (e_val - kappa)
    eps = 1e-12 * (1.0 + abs(e_val))
    if s_sq < -eps:
        raise AdmissibilityError(
            f"negative discriminant {s_sq:g}: kappa too large or degenerate path"
        )
    s = math.sqrt(max(s_sq, 0.0))
    return ArrivalEvaluation(
        S=s,
        Q_bar=q_bar,
        E_val=e_val,
        kappa=kappa,
        branch_valid=bool(s_sq > eps),
    )


def H_functional(model: StationaryModel, path: DiscretePath, t: float) -> float:
    """Action of the path with velocities shifted by t along the symmetry field.

    It splits exactly as H = action + t * Nbar - t^2/2, Nbar the charge
    quadrature plus D_functional (equal to Qbar for linear-charge models).
    """
    mid_y, vel_y, vel_t = segment_geometry(path)
    return float(np.sum(chart_L(model, mid_y, vel_y, vel_t + float(t))) / path.segments)


# ---------------------------------------------------------------------------
# discrete first variations
# ---------------------------------------------------------------------------

def _arrival_partials(arr: ArrivalEvaluation, domega_dy, w, E):
    """Per-segment partials of t_plus by the chain rule, coef_q * dQ +
    coef_e * E from the partials dQ = (domega_dy, w, -1) of the charge and
    E of the energy.  The sums are written over E, which the caller gives
    up; domega_dy and the omega coefficients w are only read.  The tau-part
    subtracts coef_q, which is adding coef_q * -1 bit for bit.
    """
    coef_q = 1.0 + arr.Q_bar / arr.S
    coef_e = 1.0 / arr.S
    P, V, wt = E
    for e_part, q_part in ((P, domega_dy), (V, w)):
        e_part *= coef_e
        e_part += coef_q * q_part
    wt *= coef_e
    wt -= coef_q
    return E


def _valid_arrival(model, path, kappa):
    """(state, arrival) at a path whose plus branch is not degenerate."""
    state = path_state(model, path)
    arr = arrival_times(model, state, kappa)
    if not arr.branch_valid:
        raise AdmissibilityError("arrival branch degenerate: discriminant at the floor")
    return state, arr


def _arrival_form(model, path, kappa, critical: bool = False):
    """The arrival one-form at a path: (state, [P, V, w], (A, B)).

    [P, V, w] are the per-segment partials of t_plus, in a list that
    `_restricted_gradient` can take over, and (A, B) the
    linearized-charge coefficients at the state.  domega_dy and the omega
    coefficients are evaluated once and serve both.  With `critical` the
    partials are those of the criticality defect theta instead,
    dt_plus - (dE - dL - t_plus * dD) / S, whose gap E - L takes the E
    partials, omega, domega_dy and the omega coefficients of the same
    form.  For Lorentz-Finsler models the partials of the gap and of the
    offset functional D are exact zeros, so the defect has the dual norm of
    dt_plus bit for bit.
    """
    state, arr = _valid_arrival(model, path, kappa)
    args = (model, state.mid_y, state.vel_y, state.vel_t)
    given = {
        "omega": state.omega,
        "domega_dy": model.domega_dy(state.mid_y, state.vel_y),
        "w": omega_coeffs(model, state.mid_y),
    }
    E = chart_partials(*args, "E", **given)
    gap = chart_partials_gap(*args, E, **given) if critical else None
    P, V, wt = _arrival_partials(arr, given["domega_dy"], given["w"], E)
    coeffs = linearized_charge_coeffs(model, state, given["domega_dy"], given["w"])
    if critical:
        # P + cg * gap + cd * D, in that order, over P and the gap.
        cg, cd = -1.0 / arr.S, arr.t_plus / arr.S
        for part, g_part, d_part in zip((P, V, wt), gap, chart_partials(*args, "D")):
            g_part *= cg
            part += g_part
            part += cd * d_part
    return state, [P, V, wt], coeffs


def _static_form(model, path, kappa):
    """The arrival one-form of a static model (models.StationaryModel.static)
    for its gradient: (state, [P, V, None], (A, B)).

    The charge omega + d - tau of a static model has no spatial partials,
    so t_plus sees the spatial nodes only through the fiber energy and its
    spatial partials are P = coef_e * dE0_dy and V = coef_e * dE0_dnu, with
    coef_e = 1 / S: dE0 / S, Fermat's principle in its optical form.  The
    tau-part is not formed, since `_restricted_gradient` reads it only
    for the lift adjoint, which a static state skips.  (A, B) are those of
    paths.linearized_charge_coeffs, which the lifted field needs.

    These are the bits of `_arrival_form`'s gradient.  There P is
    (tau * domega_dy + dE0_dy) * coef_e + coef_q * domega_dy (V the same
    with the omega coefficients), and both are arrays of zeros, of either
    sign (a time reversal of wrapped zero evaluators gives -0.0).  Adding a
    zero to a nonzero value leaves it, and adding a zero to a zero gives a
    zero, so each entry of P is that of coef_e * dE0_dy but for the sign
    of a zero.  A sum or difference of two values that differ so from two
    others differs from theirs at most in the sign of a zero, and so does
    its quotient by 2n: so does the spatial assembly.  The `+ 0.0` of a
    static state in `_restricted_gradient` then turns every zero of the
    assembly into +0.0, and the reduced gradients agree bit for bit.
    """
    state, arr = _valid_arrival(model, path, kappa)
    coef_e = 1.0 / arr.S
    P = np.multiply(coef_e, model.dE0_dy(state.mid_y, state.vel_y))
    V = np.multiply(coef_e, model.dE0_dnu(state.mid_y, state.vel_y))
    return state, [P, V, None], linearized_charge_coeffs(model, state)


def dt_plus(model, path, kappa, delta: TangentField) -> float:
    """Directional derivative of t_plus along a constraint-tangent variation."""
    state, (P, V, w), coeffs = _arrival_form(model, path, kappa)
    h = segment_pairing(state, delta, *coeffs, -1.0)
    scale = 1.0 + float(np.max(np.abs(h))) if h.size else 1.0
    if float(np.max(np.abs(h - np.mean(h)))) > 1e-7 * scale:
        raise ConstraintViolationError(
            "variation is not tangent to the constraint manifold; "
            "pass it through tangent_split first"
        )
    return float(np.sum(segment_pairing(state, delta, P, V, w)) / state.segments)


# ---------------------------------------------------------------------------
# H1-preconditioned gradients on the constraint tangent space
# ---------------------------------------------------------------------------

def _assemble_y(path, P, V, weight=None):
    """Spatial nodal gradient of a functional given per-segment partials.

    Segment i couples nodes i and i+1 through the midpoint average and the
    difference quotient; endpoints stay zero (fixed boundary conditions).
    With an (N,) `weight` the partials are weight[:, None] * P and
    weight[:, None] * V, formed one after the other in one buffer.
    """
    n = path.segments
    g_y = np.empty(path.y.shape)
    g_y[0] = 0.0
    g_y[n] = 0.0
    inner = g_y[1:n]
    if weight is not None:
        P = _row_scale(weight, P)
    np.add(P[:-1], P[1:], out=inner)
    inner /= 2.0 * n
    if weight is not None:
        V = _row_scale(weight, V, out=P)
    inner += np.subtract(V[:-1], V[1:])
    return g_y


def _lift_adjoint(path, g_int, coeffs):
    """Pull the t-part of a nodal gradient back through the constraint lift.

    `g_int` holds the t-gradient at the interior nodes 1..n-1.  The lift
    sends a spatial variation to the unique t-profile keeping the
    linearized charge constant; its adjoint turns the t-part of a gradient
    into an equivalent spatial-segment functional, assembled nodally.
    `coeffs` is (A, B) of linearized_charge_coeffs at the path.
    """
    n = path.segments
    a, b = coeffs
    # G_i = sum of g_t over nodes past segment i; H = (G - mean(G)) / n
    # recenters and rescales, and n * H weights the coefficients.  All three
    # are written over G.
    G = np.empty(n)
    G[-1] = 0.0
    g_int[::-1].cumsum(out=G[:-1][::-1])
    # np.add.reduce / n is np.mean, bit for bit.
    G -= np.add.reduce(G) / n
    G /= n
    G *= n
    return _assemble_y(path, a, b, G)


def _complex_column(x, out=None) -> bool:
    """Whether x, and `out` of x's shape when given, are C-contiguous
    (k, 2) float64 arrays, which view as one complex128 column.  A complex
    sum or difference is one IEEE addition or subtraction per component,
    so an operation on the column gives each float column its own bits,
    signed zeros included."""
    return (
        x.ndim == 2 and x.shape[1] == 2
        and x.dtype == np.float64 and x.flags.c_contiguous
        and (out is None or (out.dtype == np.float64 and out.flags.c_contiguous))
    )


def _column_cumsum(x, out) -> np.ndarray:
    """x.cumsum(axis=0, out=out), bit for bit; a row-wise kernel (see the
    section in models).

    When x and `out` view as complex columns (`_complex_column`) of
    models._COLUMN_LOOP_MIN_ROWS rows or more, that column is scanned: a
    scan adds its rows one by one, so each float column gets the bits of
    its own scan.  The complex scan takes about half the time (206 against
    397 us at k = 5e4), but is the slower at 200 rows (5.4 against 4.9 us);
    the two cross near 400 rows.  Every other shape calls the scan itself.
    """
    if _complex_column(x, out) and x.shape[0] >= _COLUMN_LOOP_MIN_ROWS:
        x.view(np.complex128).cumsum(axis=0, out=out.view(np.complex128))
        return out
    return x.cumsum(axis=0, out=out)


def _column_sum(G, scratch) -> np.ndarray:
    """np.add.reduce(G, axis=0) as a new array, bit for bit, for (N,) or
    (N, m) G; a row-wise kernel (see the section in models).

    For m >= 2 the reduce adds the rows one by one to +0.0; a cumulative
    sum down the columns (`_column_cumsum`, written into `scratch` of G's
    shape) adds them one by one too, and its last row is the sum.  It
    starts from the first row instead of +0.0, which differs only on a
    column of -0.0 alone: adding +0.0 turns that sum into the reduce's +0.0
    and leaves every other sum as it is.  For m = 1 and for (N,) G, and on
    fewer than models._COLUMN_LOOP_MIN_ROWS rows, the reduce is called.
    """
    if G.ndim == 1 or G.shape[1] == 1 or G.shape[0] < _COLUMN_LOOP_MIN_ROWS:
        return np.add.reduce(G, axis=0)
    _column_cumsum(G, scratch)
    return np.add(scratch[-1], 0.0)


def _h1_solve(path, g_red):
    """Solve the H1 stiffness system n * tridiag(-1, 2, -1) u = g on the interior.

    With u_0 = u_n = 0 and the differences d_i = u_i - u_{i-1} (i = 1..n),
    row i reads n * (d_i - d_{i+1}) = g_i, so d_i = d_1 - G_i / n with
    G_i = sum_{k<i} g_k over interior rows (G_1 = 0).  The boundary
    condition sum_i d_i = u_n - u_0 = 0 fixes d_1 = mean(G) / n, hence
    d_i = (mean(G) - G_i) / n and u = cumsum(d): two cumulative sums, O(n).

    The two cumulative sums and the column sum of mean(G) are scans down
    (N, m) arrays, run by `_column_cumsum`.  For m = 2 the G_i view as a
    complex column (`_complex_column`), and mean(G) - G_i is one complex
    subtraction down it, at every N: broadcast over the (N, 2) rows it
    would run N inner loops of two elements.  The complex form is the
    faster from about 130 rows on (1.5 against 1.9 us at 199 rows, 2.1
    against 12 at 2000, 21 against 280 at 5e4), and 0.55 us slower at 2
    rows (timeit, one CPU of a shared 2-vCPU host).
    """
    n = path.segments
    G = np.empty((n,) + g_red.shape[1:])
    G[0] = 0.0
    _column_cumsum(g_red[1:n], G[1:])
    # Rows 1..n of u are the scratch of the column sum before they take
    # the solution (u_n = 0); (mean(G) - G_i) / n is written over the G_i
    # it replaces, then summed into u.
    u = np.empty(g_red.shape)
    u[0] = 0.0
    mean = _column_sum(G, u[1:])
    mean /= n
    u[n] = 0.0
    d = G[:-1]
    if _complex_column(d):
        column = d.view(np.complex128)
        np.subtract(mean.view(np.complex128), column, out=column)
    else:
        np.subtract(mean, d, out=d)
    d /= n
    _column_cumsum(d, u[1:n])
    return u


def _restricted_gradient(state, partials, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """H1 representer of a functional restricted to the constraint tangent space.

    Per gradient it does this work and no more: the spatial nodal assembly
    of the partials; the lift adjoint, which reads the t-part of the nodal
    gradient at the interior nodes only and assembles only a spatial part;
    and the H1 solve (two cumulative sums).  Returns (u, gu): u the spatial
    nodal representer, and the nodal products of the reduced gradient with
    u, whose sum is the squared dual norm of the restricted functional
    (`_dual_norm`).  `coeffs` is (A, B) of linearized_charge_coeffs at the
    state.

    `partials` is the list [P, V, w] of per-segment partials that a form
    returns, and the call takes it over: it empties the list, so the
    partials end once the spatial assembly and the interior t-difference
    have read them, before the lift adjoint and the H1 solve allocate.

    For a static model (models.StationaryModel.static: no omega, d
    constant) the lift adjoint is neither formed nor read, and neither is
    w (`_static_form` gives None).  Its A and B are +0.0 arrays, the sums
    and values of zero evaluators, and adding its lift adjoint is adding
    +0.0, bit for bit, for every finite G of `_lift_adjoint`.  The
    adjoint's endpoint rows are +0.0, and an interior
    entry is (G_{i-1} A + G_i A) / (2n) + (G_{i-1} B - G_i B).  A sum of two
    zeros is -0.0 only when both are.  The first term is -0.0 only when
    G_i * 0.0 is -0.0, that is when G_i carries the sign bit (negative or
    -0.0); the second only when G_i * 0.0 is +0.0.  The two exclude each
    other, so the adjoint is a +0.0 array; the same holds for A = B = -0.0.
    G is finite, since a valid branch has S > 0.  So a static state adds
    0.0 instead, which turns a -0.0 of the assembly into +0.0 as adding the
    adjoint does.
    """
    P, V, w = partials
    partials.clear()
    g_red = _assemble_y(state, P, V)
    # The t-part of the nodal gradient, w_{i-1} - w_i, is needed only at
    # the interior nodes, where the lift adjoint reads it.
    g_t = None if state.model.static else np.subtract(w[:-1], w[1:])
    del P, V, w
    if g_t is None:
        g_red += 0.0
    else:
        g_red += _lift_adjoint(state, g_t, coeffs)
        del g_t
    u = _h1_solve(state, g_red)
    g_red *= u  # g_red is needed past the solve only for the norm
    return u, g_red


def _dual_norm(gu) -> float:
    return math.sqrt(max(float(np.add.reduce(gu, axis=None)), 0.0))


def arrival_gradient(model, path, kappa) -> FunctionalGradient:
    """Descent gradient of t_plus on the constraint manifold: the H1
    representer of the arrival one-form, lifted to a tangent field
    (paths.lift_spatial_variation).  A static model's form is dE0 / S
    (`_static_form`)."""
    form = _static_form if model.static else _arrival_form
    state, partials, coeffs = form(model, path, kappa)
    u, gu = _restricted_gradient(state, partials, coeffs)
    # The partials ended inside _restricted_gradient, once assembled, so
    # the lift allocates its copy of u beside the state, (A, B), u and gu
    # alone.  gu is summed after the lift, so its (N, m) block is still
    # held while the lift allocates.  Freed before, it lets glibc trim the
    # heap top: a warmed in-process multi_start of the fine-grid problem
    # (glibc defaults) took 17k-42k minor page faults instead of 12k, over
    # six harnesses that differ only in working directory and bytecode
    # caching (2-vCPU x86-64 host).
    field = lift_spatial_variation(model, state, u, coeffs)
    return FunctionalGradient(field, _dual_norm(gu))


def criticality_residual(model, path, kappa) -> float:
    """Dual norm of theta, the defect of the arrival-time criticality identity.

    Measures dt_plus minus its characterization through the energy/action
    variation gap (with the arrival-weighted offset correction in the affine
    case) over the constraint tangent space.  For Lorentz-Finsler models the
    gap contributes exact zeros, so the residual equals the gradient norm of
    t_plus bit for bit.
    """
    state, partials, coeffs = _arrival_form(model, path, kappa, critical=True)
    return _dual_norm(_restricted_gradient(state, partials, coeffs)[1])


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
    path = DiscretePath(
        spatial_nodes, np.zeros(len(spatial_nodes)),
        periods if periods is not None else model.periods,
    )
    mid, vel = _spatial_geometry(path)
    om = model.omega(mid, vel)
    rad = om * om + 2.0 * model.L0(mid, vel)
    if np.any(rad < 0.0):
        raise UnsupportedModelError("optical metric undefined: negative radicand")
    return float(np.sum(om + np.sqrt(rad)) / path.segments)
