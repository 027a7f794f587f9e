"""Per-iteration kernels against their plain numpy formulas, bit for bit.

The kernels of `paths`, `arrival` and `models` call ufuncs and array
methods directly (np.add.reduce / n for np.mean, a[1:] - a[:-1] for
np.diff, x.cumsum() for np.cumsum) and write into their own results with
`out=` and in-place operators; a projected state shares the y-nodes of its
path.  The references below are the plain expressions: they spell each
kernel out with np.diff, np.mean, np.sum and np.cumsum, build every
intermediate as a new array and copy every input, and the kernels must
agree with them to the last bit, signed zeros included, also when the
arrays they allocate with np.empty start as NaN, and a descent whose
trials own their y-nodes must give the records of one that builds each
trial as a new path, a static model's gradients, of dE0 / S without the
lift adjoint, the bits of the full arrival form's with it, and a static
model's trial states, which take the t-part of their iterate, the bits
of a full projection.  The projection and a line-search trial must still reject
non-finite nodes, a full projection a static flag that omega + d belies,
a seed a non-finite endpoint or an overflowing displacement before any
arithmetic, and the in-place kernels must keep the peak allocation of
one gradient, one projection and one trial below what the expression
forms needed.
"""
import configparser
import dataclasses
import itertools
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.errors import UnsupportedModelError
from fermatpath.arrival import (
    _assemble_y,
    _column_cumsum,
    _column_sum,
    _dual_norm,
    _h1_solve,
    _lift_adjoint,
    _restricted_gradient,
    arrival_gradient,
    arrival_times,
    criticality_residual,
    dt_plus,
)
from fermatpath.models import (
    _COLUMN_LOOP_MIN_ROWS,
    _basis_coeffs,
    _row_dot,
    _row_scale,
    chart_E,
    chart_E0,
    chart_partials,
    omega_coeffs,
    parse_polynomial,
    time_reversed,
)
from fermatpath.paths import (
    CONSTRAINT_RTOL,
    TangentField,
    _cumulative_nodes,
    lift_spatial_variation,
    linearized_charge_coeffs,
    path_state,
    segment_geometry,
    segment_pairing,
    tangent_split,
)

from fermatpath import arrival, paths, solve
from fermatpath.solve import conservation_check

from conftest import (
    BENCH_POLYNOMIAL_MODEL,
    BUILTIN_SPECS,
    POTENTIAL,
    endpoints_for,
    peak_bytes,
    reflected,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the rest of the suite needs only numpy and pytest
    st = None


def bits(*arrays):
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays)


# The built-in models, a y-dependent offset d and the potential model.
KERNEL_SPECS = BUILTIN_SPECS + ["affine-field(flat, 0.3 y1)", "potential"]


def model_for(spec):
    return POTENTIAL if spec == "potential" else fp.get_model(spec)


def signed_zero_fields(rng, shape):
    """Arrays of +0.0, of -0.0, and of random values mixed with both zeros."""
    mixed = rng.standard_normal(shape)
    pick = rng.integers(0, 3, shape)
    mixed[pick == 1] = 0.0
    mixed[pick == 2] = -0.0
    return [np.zeros(shape), -np.zeros(shape), mixed]


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def ref_unwrap(dy, periods):
    dy = np.array(dy, dtype=float)
    for j, p in enumerate(periods or ()):
        if p:
            dy[..., j] -= p * np.round(dy[..., j] / p)
    return dy


def ref_segment_geometry(y, t, periods):
    n = y.shape[0] - 1
    dy = ref_unwrap(np.diff(y, axis=0), periods)
    mid_y = y[:-1] + 0.5 * dy
    return mid_y, dy * n, np.diff(t) * n


def ref_cumulative_nodes(rate, first, last):
    n = rate.shape[0]
    c = float(np.mean(rate)) - (last - first)
    x = np.empty(n + 1)
    x[0] = first
    x[1:] = first + np.cumsum(rate - c) / n
    x[-1] = last
    return x


def ref_chart_E(model, y, nu, tau, om):
    return chart_E0(model, y, nu) + om * tau - 0.5 * tau * tau


def ref_chart_partials(model, y, nu, tau, kind, om, dom, coeffs):
    if kind == "Q":
        return dom, coeffs, -np.ones_like(tau)
    if kind == "E":
        dE0y, dE0n = model.dE0_dy(y, nu), model.dE0_dnu(y, nu)
        return dE0y + tau[:, None] * dom, dE0n + tau[:, None] * coeffs, om - tau
    P = model.dL0_dy(y, nu) + tau[:, None] * (dom + model.dd_dy(y))
    V = model.dL0_dnu(y, nu) + tau[:, None] * coeffs
    return P, V, om + model.d_offset(y) - tau


def ref_charge_deviation(model, mid_y, vel_y, vel_t):
    """Max deviation of the charge profile (omega - tau) + d from its mean,
    and that deviation over the constraint tolerance."""
    profile = model.omega(mid_y, vel_y) - vel_t + model.d_offset(mid_y)
    mean = float(np.mean(profile))
    dev = float(np.max(np.abs(profile - mean)))
    return dev, dev / (CONSTRAINT_RTOL * (1.0 + abs(mean)))


def ref_conservation_check(model, path, kappa):
    """energy_dev and noether_dev of a record, from the segment geometry of
    its geodesic."""
    mid_y, vel_y, vel_t = segment_geometry(path)
    energy_dev = float(np.max(np.abs(chart_E(model, mid_y, vel_y, vel_t) - kappa)))
    return energy_dev, ref_charge_deviation(model, mid_y, vel_y, vel_t)[0]


def ref_el_residual(model, path):
    """el_residual as the plain expression: the segment geometry, the L
    partials at the midpoints and at the interior nodes, each dL/dv row
    with its tau component and each dL/dx row with a zero one appended, and
    the max row norm."""
    n = path.segments
    mid_y, vel_y, vel_t = segment_geometry(path)
    _, V, w = chart_partials(model, mid_y, vel_y, vel_t, "L")
    dv = np.concatenate([V, w[:, None]], axis=1)
    node_y = path.y[1:n]
    avg_vy = 0.5 * (vel_y[:-1] + vel_y[1:])
    avg_vt = 0.5 * (vel_t[:-1] + vel_t[1:])
    P_node, _, _ = chart_partials(model, node_y, avg_vy, avg_vt, "L")
    dx = np.concatenate([P_node, np.zeros((n - 1, 1))], axis=1)
    res = n * (dv[1:] - dv[:-1]) - dx
    return float(np.max(np.linalg.norm(res, axis=1))) if n > 1 else 0.0


def ref_project(model, y, t, periods):
    """t-nodes, Q_bar, E_val and the charge deviation, unscaled and scaled,
    of the projected path."""
    n = y.shape[0] - 1
    mid_y, vel_y, _ = ref_segment_geometry(y, t, periods)
    om = model.omega(mid_y, vel_y)
    d = model.d_offset(mid_y)
    t_new = ref_cumulative_nodes(om + d, t[0], t[-1])
    vel_t = np.diff(t_new) * n
    q_bar = float(np.sum(om - vel_t) / n)
    e_val = float(np.sum(ref_chart_E(model, mid_y, vel_y, vel_t, om)) / n)
    dev, scaled = ref_charge_deviation(model, mid_y, vel_y, vel_t)
    state = dict(mid_y=mid_y, vel_y=vel_y, vel_t=vel_t, omega=om)
    return t_new, q_bar, e_val, dev, scaled, state


def ref_h1_solve(g):
    n = g.shape[0] - 1
    G = np.zeros((n,) + g.shape[1:])
    np.cumsum(g[1:n], axis=0, out=G[1:])
    u = np.zeros_like(g)
    np.cumsum((np.mean(G, axis=0) - G[:-1]) / n, axis=0, out=u[1:n])
    return u


def ref_assemble(n, shape, P, V):
    g = np.zeros(shape)
    g[1:n] = (P[:-1] + P[1:]) / (2.0 * n) + (V[:-1] - V[1:])
    return g


def ref_lift_adjoint(n, shape, g_int, a, b):
    G = np.zeros(n)
    G[:-1] = np.cumsum(g_int[::-1])[::-1]
    H = (G - np.mean(G)) / n
    return ref_assemble(n, shape, (n * H)[:, None] * a, (n * H)[:, None] * b)


def ref_segment_pairing(n, P, V, w, dy, dt):
    dmid_y = 0.5 * (dy[:-1] + dy[1:])
    return (
        np.einsum("ij,ij->i", P, dmid_y)
        + np.einsum("ij,ij->i", V, np.diff(dy, axis=0) * n)
        + (np.diff(dt) * n) * w
    )


def ref_restricted_gradient(y, P, V, wt, a, b):
    """(norm, field.y, field.t) as the full nodal assembly computes them."""
    n = y.shape[0] - 1
    g_y = ref_assemble(n, y.shape, P, V)
    g_t = np.zeros(n + 1)
    g_t[1:n] = wt[:-1] - wt[1:]
    # lift adjoint, assembled with a zero t-part
    g_red = g_y + ref_lift_adjoint(n, y.shape, g_t[1:n], a, b)
    u = ref_h1_solve(g_red)
    norm = math.sqrt(max(float(np.sum(g_red * u)), 0.0))
    # lift of u: tangent split of the field (u, 0)
    dy = np.array(u)
    dy[0] = dy[-1] = 0.0
    dt = np.zeros(n + 1)
    dmid_y = 0.5 * (dy[:-1] + dy[1:])
    h = (
        np.einsum("ij,ij->i", a, dmid_y)
        + np.einsum("ij,ij->i", b, np.diff(dy, axis=0) * n)
        - np.diff(dt) * n
    )
    mu = np.empty(n + 1)
    mu[0] = 0.0
    mu[1:] = np.cumsum(float(np.mean(h)) - h) / n
    mu[-1] = 0.0
    xi_t = dt - mu
    xi_t[0] = xi_t[-1] = 0.0
    return norm, np.array(dy), xi_t


def ref_tangent_split(n, a, b, dy, dt):
    """(xi.y, xi.t, mu) of the tangent split of the field (dy, dt)."""
    dmid_y = 0.5 * (dy[:-1] + dy[1:])
    h = (
        np.einsum("ij,ij->i", a, dmid_y)
        + np.einsum("ij,ij->i", b, np.diff(dy, axis=0) * n)
        - np.diff(dt) * n
    )
    mu = np.empty(n + 1)
    mu[0] = 0.0
    mu[1:] = np.cumsum(float(np.mean(h)) - h) / n
    mu[-1] = 0.0
    return np.array(dy), dt - mu, mu


def ref_dt(n, P, V, wt, dy, dt):
    dmid_y = 0.5 * (dy[:-1] + dy[1:])
    total = (
        np.einsum("ij,ij->i", P, dmid_y)
        + np.einsum("ij,ij->i", V, np.diff(dy, axis=0) * n)
        + wt * (np.diff(dt) * n)
    )
    return float(np.sum(total) / n)


def ref_arrival_form(model, state, arr, sigma, critical=False):
    """((P, V, wt), (A, B)) of the arrival form, from freshly evaluated
    partials; with `critical`, those of the criticality defect."""
    mid_y, vel_y, vel_t, om = (state[k] for k in ("mid_y", "vel_y", "vel_t", "omega"))
    dom = model.domega_dy(mid_y, vel_y)
    w = omega_coeffs(model, mid_y)
    args = (model, mid_y, vel_y, vel_t)
    PQ, VQ, wQ = ref_chart_partials(*args, "Q", om, dom, w)
    PE, VE, wE = ref_chart_partials(*args, "E", om, dom, w)
    coef_q = 1.0 + sigma * arr.Q_bar / arr.S
    coef_e = sigma / arr.S
    P, V, wt = coef_q * PQ + coef_e * PE, coef_q * VQ + coef_e * VE, coef_q * wQ + coef_e * wE
    if critical:
        if model.homogeneous and model.linear_charge:
            Pg, Vg, wg = np.zeros_like(vel_y), np.zeros_like(vel_y), np.zeros_like(vel_t)
        else:
            PL, VL, wL = ref_chart_partials(*args, "L", om, dom, w)
            Pg, Vg, wg = PE - PL, VE - VL, wE - wL
        PD, VD, wD = model.dd_dy(mid_y), np.zeros_like(vel_y), np.zeros_like(vel_t)
        cg, cd = -sigma / arr.S, sigma * (arr.Q_bar + sigma * arr.S) / arr.S
        P, V, wt = P + cg * Pg + cd * PD, V + cg * Vg + cd * VD, wt + cg * wg + cd * wD
    return (P, V, wt), (dom + model.dd_dy(mid_y), w)


def ref_arrival_gradient(model, y, state, arr, sigma):
    (P, V, wt), (a, b) = ref_arrival_form(model, state, arr, sigma)
    return ref_restricted_gradient(y, P, V, wt, a, b)


# ---------------------------------------------------------------------------
# bitwise agreement
# ---------------------------------------------------------------------------

def random_nodes(model, n, rng):
    """Endpoint-fixed nodes: straight lift, Fourier bumps and node noise of a
    random scale (large enough on a cylinder to wrap segments)."""
    p, q = endpoints_for(model)
    s = np.arange(n + 1) / n
    y = p.y[None, :] + s[:, None] * (q.y - p.y)[None, :]
    for j in range(model.dim):
        for k in range(1, 4):
            y[:, j] += 0.3 / k * rng.standard_normal() * np.sin(k * np.pi * s)
    scale = rng.choice([0.0, 1e-3, 0.5, 5.0])
    y[1:-1] += scale * rng.standard_normal((n - 1, model.dim))
    t = p.t + s * (q.t - p.t) + 0.3 * rng.standard_normal(n + 1)
    t[0], t[-1] = p.t, q.t
    if rng.random() < 0.25:
        y[1:-1, 0] = -0.0  # signed zeros on the nodes
    return y, t


def check_kernels_match_references(spec, n, seed):
    model = model_for(spec)
    rng = np.random.default_rng(seed)
    y, t = random_nodes(model, n, rng)
    path = fp.DiscretePath(y, t, model.periods)

    assert bits(*segment_geometry(path)) == bits(*ref_segment_geometry(y, t, model.periods))

    t_new, q_bar, e_val, dev, scaled, state = ref_project(model, y, t, model.periods)
    proj = fp.project_to_N(model, path)
    assert bits(proj.y, proj.t) == bits(y, t_new)
    assert bits(proj.Q_bar, proj.E_val, proj.noether_dev, proj.constraint_dev) == bits(
        q_bar, e_val, dev, scaled
    )

    for shape in ((n + 1,), (n + 1, model.dim)):
        g = rng.standard_normal(shape)
        g[0] = g[-1] = 0.0
        assert bits(_h1_solve(path, g)) == bits(ref_h1_solve(g))

    if dev > 1.0:  # off the constraint manifold at round-off: no gradient
        return
    # Admissible for every model, with a discriminant well above its floor.
    kappa = -1.0 - abs(e_val)
    arr = arrival_times(model, proj, kappa)
    coeffs = linearized_charge_coeffs(model, proj)
    # The minus branch (sigma = -1.0 in the references) is the plus branch of
    # the reflected nodes under the time-reversed model, where they are
    # projected already.  Its representer is the reference's with the
    # y-part negated; the y-endpoints stay +0.0.
    reversed_model = time_reversed(model)
    reversed_proj = fp.project_to_N(reversed_model, reflected(proj))
    assert bits(reversed_proj.t) == bits(0.0 - proj.t)
    for sigma, at_model, at_proj in (
        (1.0, model, proj), (-1.0, reversed_model, reversed_proj)
    ):
        grad = arrival_gradient(at_model, at_proj, kappa)
        norm, ref_y, ref_t = ref_arrival_gradient(model, y, state, arr, sigma)
        want_y = sigma * ref_y
        want_y[0] = want_y[-1] = 0.0
        assert bits(grad.norm, grad.field.y, grad.field.t) == bits(norm, want_y, ref_t)
        # dt along the gradient field pairs the same partials with it.
        partials, _ = ref_arrival_form(model, state, arr, sigma)
        assert bits(dt_plus(at_model, at_proj, kappa, grad.field)) == bits(
            ref_dt(n, *partials, ref_y, ref_t)
        )
        # A fresh plain path with the same nodes gives the same bits too.
        plain = fp.DiscretePath(at_proj.y, at_proj.t, at_proj.periods)
        again = arrival_gradient(at_model, plain, kappa)
        assert bits(again.norm, again.field.y, again.field.t) == bits(norm, want_y, ref_t)

    # The tangent split, on a random field and on fields of signed zeros.
    m = model.dim
    fields = [(rng.standard_normal((n + 1, m)), rng.standard_normal(n + 1))]
    for sign in (1.0, -1.0):
        fields.append((sign * np.zeros((n + 1, m)), sign * np.zeros(n + 1)))
    for dy, dt in fields:
        dy[0] = dy[-1] = 0.0
        dt[0] = dt[-1] = 0.0
        xi, mu = tangent_split(model, proj, TangentField(dy, dt))
        assert bits(xi.y, xi.t, mu) == bits(*ref_tangent_split(n, *coeffs, dy, dt))

    # On a projected path the t-part of the arrival gradient nearly cancels,
    # so random partials drive the lift adjoint with O(1) values.
    P, V, wt = rng.standard_normal((n, m)), rng.standard_normal((n, m)), rng.standard_normal(n)
    u, gu = _restricted_gradient(proj, [P, V, wt], coeffs)
    field = lift_spatial_variation(model, proj, u, coeffs)
    assert bits(_dual_norm(gu), field.y, field.t) == bits(
        *ref_restricted_gradient(y, P, V, wt, *coeffs)
    )

    # The criticality defect: the same form plus the gap and offset partials,
    # the gap from the form's own E partials.
    for sigma, at_model, at_proj in (
        (1.0, model, proj), (-1.0, reversed_model, reversed_proj)
    ):
        (P, V, wt), (a, b) = ref_arrival_form(model, state, arr, sigma, critical=True)
        assert bits(criticality_residual(at_model, at_proj, kappa)) == bits(
            ref_restricted_gradient(y, P, V, wt, a, b)[0]
        )

    # The chart kernels at the state, evaluating omega, domega_dy and the
    # omega coefficients themselves or taking them as given.
    mid_y, vel_y, vel_t, om = (state[k] for k in ("mid_y", "vel_y", "vel_t", "omega"))
    dom, w = model.domega_dy(mid_y, vel_y), omega_coeffs(model, mid_y)
    assert bits(chart_E(model, mid_y, vel_y, vel_t)) == bits(
        ref_chart_E(model, mid_y, vel_y, vel_t, om)
    )
    for kind in ("E", "L"):
        ref = ref_chart_partials(model, mid_y, vel_y, vel_t, kind, om, dom, w)
        assert bits(*chart_partials(model, mid_y, vel_y, vel_t, kind)) == bits(*ref)
        given = chart_partials(
            model, mid_y, vel_y, vel_t, kind, omega=om, domega_dy=dom, w=w
        )
        assert bits(*given) == bits(*ref)

    # The low-level kernels on fields of signed zeros and on random values
    # mixed with zeros of both signs.
    a, b = coeffs
    for zy, zs, zn, zv in zip(
        signed_zero_fields(rng, (n, m)),
        signed_zero_fields(rng, (n,)),
        signed_zero_fields(rng, (n + 1, m)),
        signed_zero_fields(rng, (n + 1,)),
    ):
        assert bits(_assemble_y(proj, zy, zy[::-1])) == bits(
            ref_assemble(n, y.shape, zy, zy[::-1])
        )
        assert bits(_assemble_y(proj, a, b, zs)) == bits(
            ref_assemble(n, y.shape, zs[:, None] * a, zs[:, None] * b)
        )
        assert bits(_lift_adjoint(proj, zs[:-1], coeffs)) == bits(
            ref_lift_adjoint(n, y.shape, zs[:-1], a, b)
        )
        for g in (zn, zv):
            g = g.copy()
            g[0] = g[-1] = 0.0
            assert bits(_h1_solve(proj, g)) == bits(ref_h1_solve(g))
        for first, last in ((0.0, 0.0), (-0.0, -0.0), (zv[0], zv[-1])):
            assert bits(_cumulative_nodes(zs, first, last)) == bits(
                ref_cumulative_nodes(zs.copy(), first, last)
            )
        field = TangentField(zn, zv)
        for weight in (-1.0, zs):
            assert bits(segment_pairing(proj, field, zy, zy[::-1], weight)) == bits(
                ref_segment_pairing(n, zy, zy[::-1], weight, field.y, field.t)
            )
        lifted = lift_spatial_variation(model, proj, zn, coeffs)
        dy = zn.copy()
        dy[0] = dy[-1] = 0.0
        assert bits(lifted.y, lifted.t) == bits(
            *ref_tangent_split(n, a, b, dy, np.zeros(n + 1))[:2]
        )


@pytest.mark.parametrize("spec", KERNEL_SPECS)
@pytest.mark.parametrize("n", [2, 3, 200, _COLUMN_LOOP_MIN_ROWS + 100])
def test_kernels_match_references_fixed(spec, n):
    check_kernels_match_references(spec, n, 17 * n)


if st is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(KERNEL_SPECS),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_match_references(spec, n, seed):
        """Every kernel agrees bitwise with its reference on random nodes."""
        check_kernels_match_references(spec, n, seed)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_kernels_match_references():
        pass


class _NaNEmpty:
    """numpy, except that np.empty returns NaN-filled arrays: a row of an
    empty array that a kernel neither writes nor zeros shows as a NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)


@pytest.mark.parametrize("spec", ["randers-rot(0.3)", "cylinder(1)", "potential"])
@pytest.mark.parametrize("n", [2, 3, _COLUMN_LOOP_MIN_ROWS + 100])
def test_kernels_set_every_row_of_their_empty_arrays(monkeypatch, spec, n):
    """The kernels allocate with np.empty and zero only the rows no
    operation writes; over NaN-filled empty arrays they still match their
    references, so no row is left as it was allocated."""
    monkeypatch.setattr(arrival, "np", _NaNEmpty())
    monkeypatch.setattr(paths, "np", _NaNEmpty())
    check_kernels_match_references(spec, n, 17 * n)


@pytest.mark.parametrize("spec", BUILTIN_SPECS + ["potential"])
@pytest.mark.parametrize("n", [3, 200, _COLUMN_LOOP_MIN_ROWS + 100])
def test_record_residuals_match_the_profile_formulas(spec, n):
    """The state's charge deviations and conservation_check, which reads a
    record's residuals off its geodesic's state, equal the profile formulas
    of segment_geometry, on a projected path and on its flow to t_plus."""
    model = model_for(spec)
    kappa = -3.5 if spec == "potential" else -0.5
    y, t = random_nodes(model, n, np.random.default_rng(n))
    proj = fp.project_to_N(model, fp.DiscretePath(y, t, model.periods))
    geodesic = fp.apply_flow(proj, arrival_times(model, proj, kappa).t_plus)
    for path in (proj, geodesic):
        state = path_state(model, path)
        mid_y, vel_y, vel_t = segment_geometry(path)
        assert (state.noether_dev, state.constraint_dev) == ref_charge_deviation(
            model, mid_y, vel_y, vel_t
        )
        assert conservation_check(model, path, kappa) == ref_conservation_check(
            model, path, kappa
        )


def check_el_residual_matches_reference(model, path, kappa):
    """el_residual of the geodesic of a projected path, passed plain and as
    its state, against the plain expression, bit for bit."""
    geodesic = fp.apply_flow(path, arrival_times(model, path, kappa).t_plus)
    expected = bits(ref_el_residual(model, geodesic))
    assert bits(solve.el_residual(model, geodesic)) == expected
    assert bits(solve.el_residual(model, path_state(model, geodesic))) == expected


# flat(7) has residual rows of 8 entries, which take the np.linalg.norm
# fallback.
@pytest.mark.parametrize("spec", KERNEL_SPECS + ["flat(3)", "flat(7)"])
@pytest.mark.parametrize("n", [1, 2, 3, 200])
def test_el_residual_matches_the_expression(spec, n):
    model = model_for(spec)
    y, t = random_nodes(model, n, np.random.default_rng(31 * n + 1))
    proj = fp.project_to_N(model, fp.DiscretePath(y, t, model.periods))
    check_el_residual_matches_reference(model, proj, -3.5 if spec == "potential" else -0.5)


@pytest.mark.parametrize("spec", ["flat(7)", "flat(8)"])
def test_el_residual_of_wide_rows_matches_the_expression(spec):
    """Two segments have one residual row, so el_residual is its norm.  Rows
    of 8 and 9 entries, which numpy sums pairwise, give the bits of
    np.linalg.norm on every one of these paths; a sum left to right
    differs from it on some of them."""
    model = model_for(spec)
    for seed in range(24):
        y, t = random_nodes(model, 2, np.random.default_rng(seed))
        proj = fp.project_to_N(model, fp.DiscretePath(y, t, model.periods))
        check_el_residual_matches_reference(model, proj, -0.5)


def test_el_residual_matches_the_expression_fine_grid():
    """The fine-grid problem's random seed at N = 5e4."""
    model = fp.get_model("randers-rot(0.3)")
    p, q = fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.7], 0.2)
    seed = solve.seed_path(model, p, q, 50_000, "random", np.random.default_rng(0))
    check_el_residual_matches_reference(model, seed, -0.5)


# ---------------------------------------------------------------------------
# the row-wise helpers against the expressions they replace
# ---------------------------------------------------------------------------

def row_fields(rng, shape):
    """signed_zero_fields, a field of values spread over 16 decades (where
    summation order shows in the last bits), and one whose first column is
    -0.0 alone, over random values mixed with zeros of both signs."""
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    zero_col = signed_zero_fields(rng, shape)[2]
    zero_col[:, 0] = -0.0
    return signed_zero_fields(rng, shape) + [wide, zero_col]


def check_row_helpers(n, m, seed):
    rng = np.random.default_rng(seed)
    fields = row_fields(rng, (n, m))
    for s in signed_zero_fields(rng, (n,)) + [rng.standard_normal(n)]:
        for X in fields:
            expected = bits(s[:, None] * X)
            assert bits(_row_scale(s, X)) == expected
            over = X.copy()
            assert bits(_row_scale(s, over, out=over)) == expected
    for A in fields:
        for B in fields:
            expected = bits(np.einsum("ij,ij->i", A, B))
            assert bits(_row_dot(A, B)) == expected
    for G in fields + [X[:, 0].copy() for X in fields]:
        assert bits(_column_sum(G, np.empty(G.shape))) == bits(np.add.reduce(G, axis=0))


# m = 3 at n = 1000 is a case where einsum sums in another order than the
# columns, and m = 1 at n = 1000 one where the reduce sums pairwise, so they
# fail without the einsum and reduce fallbacks.  Below
# _COLUMN_LOOP_MIN_ROWS rows the three helpers evaluate the plain expressions.
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 9, _COLUMN_LOOP_MIN_ROWS - 1, 1000])
def test_row_helpers_match_expressions_fixed(n, m):
    assert _COLUMN_LOOP_MIN_ROWS <= 1000  # else n = 1000 misses the column loops
    check_row_helpers(n, m, 5 * n + m)


if st is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2000),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_helpers_match_expressions(n, m, seed):
        """Row scaling, row dot and column sum agree bitwise with
        s[:, None] * X, np.einsum("ij,ij->i", A, B) and
        np.add.reduce(G, axis=0)."""
        check_row_helpers(n, m, seed)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_row_helpers_match_expressions():
        pass


# The complex-column scan at the rows where it starts, and at the fine grid.
SCAN_ROWS = [1, 2, _COLUMN_LOOP_MIN_ROWS - 1, _COLUMN_LOOP_MIN_ROWS,
             _COLUMN_LOOP_MIN_ROWS + 1, 50_000]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("rows", SCAN_ROWS)
def test_column_cumsum_matches_cumsum(rows, m):
    """_column_cumsum writes the bits of x.cumsum(axis=0) into `out` and
    returns it, for (rows, m) and (rows,) x; at m = 2 the column sum,
    which scans through it, keeps the bits of np.add.reduce(G, axis=0)."""
    rng = np.random.default_rng(7 * rows + m)
    fields = row_fields(rng, (rows, m))
    for x in fields + [X[:, 0].copy() for X in fields]:
        out = np.empty(x.shape)
        assert _column_cumsum(x, out) is out
        assert bits(out) == bits(x.cumsum(axis=0))
        assert bits(_column_sum(x, np.empty(x.shape))) == bits(np.add.reduce(x, axis=0))


@pytest.mark.parametrize("rows", [_COLUMN_LOOP_MIN_ROWS, 1000])
def test_column_cumsum_of_strided_arrays_is_the_plain_scan(rows):
    """A row slice, a column slice and F-ordered arrays, as input or as
    output, are not one complex column: the kernel falls back to the plain
    scan and keeps its bits."""
    rng = np.random.default_rng(rows)
    for x in row_fields(rng, (2 * rows, 3)):
        for given in [x[::2, :2], x[:rows, :2], np.asfortranarray(x[::2, :2])]:
            expected = bits(given.cumsum(axis=0))
            for out in [np.empty((rows, 2)), np.empty((2 * rows, 2))[::2],
                        np.empty((rows, 2), order="F")]:
                assert bits(_column_cumsum(given, out)) == expected


# ---------------------------------------------------------------------------
# seeding and model expressions against the forms they replace
# ---------------------------------------------------------------------------

def ref_straight_path(p, q, n, periods, extra_wraps=None):
    s = np.arange(n + 1) / n
    disp = q.y - p.y
    if extra_wraps is not None and periods:
        disp = disp.copy()
        for j, (k, per) in enumerate(zip(extra_wraps, periods)):
            if per and k:
                disp[j] += k * per
    y = p.y[None, :] + s[:, None] * disp[None, :]
    return y, p.t + s * (q.t - p.t)


def ref_perturbed_path(p, q, n, periods, rng):
    y, t = ref_straight_path(p, q, n, periods)
    amp = 0.25 * (float(np.linalg.norm(q.y - p.y)) or 1.0)
    s = np.arange(n + 1) / n
    for j in range(y.shape[1]):
        for k in range(1, 4):
            y[:, j] += amp / k * rng.standard_normal() * np.sin(k * np.pi * s)
    return y, t


def ref_randers_rot_domega_dy(b, nu):
    return b * np.stack([nu[:, 1], -nu[:, 0]], axis=1)


def seeding_cases():
    """Endpoint pairs on the plane, the cylinder and in three dimensions,
    with zeros of both signs, and one pair without spatial displacement."""
    plane = {
        "generic": (fp.Point([0.1, 0.1], 0.0), fp.Point([1.1, 0.8], 0.2)),
        "signed-zeros": (fp.Point([-0.0, 0.3], -0.0), fp.Point([0.0, -1.7], 0.5)),
        "no-displacement": (fp.Point([0.2, -0.0], 0.1), fp.Point([0.2, -0.0], -0.3)),
    }
    cases = [
        pytest.param(spec, p, q, id=f"{spec}-{name}")
        for spec in ("flat", "cylinder(1)") for name, (p, q) in plane.items()
    ]
    three = (fp.Point([0.1, -0.0, 2.5], 0.0), fp.Point([-3.0, 0.0, 2.5e-9], 1.0))
    return cases + [pytest.param("flat(3)", *three, id="flat(3)-signed-zeros")]


@pytest.mark.parametrize("n", [1, 2, 200, 1000])
@pytest.mark.parametrize("spec, p, q", seeding_cases())
def test_seed_paths_match_the_expressions(spec, p, q, n):
    """straight_path, with and without extra wraps, and _perturbed_path,
    with the same generator state, have the bits of the broadcast
    expressions, and the perturbed path draws as many normals."""
    periods = fp.get_model(spec).periods
    m = p.y.size
    for wraps in [None, [0] * m, [0, 2] + [0] * (m - 2), [0, -1] + [0] * (m - 2)]:
        path = paths.straight_path(p, q, n, periods, wraps)
        assert bits(path.y, path.t) == bits(*ref_straight_path(p, q, n, periods, wraps))
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    path = solve._perturbed_path(p, q, n, periods, rng)
    assert bits(path.y, path.t) == bits(*ref_perturbed_path(p, q, n, periods, ref_rng))
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("n", [200, 50_000])
@pytest.mark.parametrize("spec, p, q", seeding_cases())
def test_perturbed_path_builds_its_nodes_once(monkeypatch, spec, p, q, n):
    """The random seed bumps the straight lift's nodes and takes them over:
    it keeps the bits and the draws of the broadcast expressions (which a
    construction that copied the nodes three times had, by the test
    above), and builds no path through DiscretePath's copying
    constructor."""
    periods = fp.get_model(spec).periods
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    ref_y, ref_t = ref_perturbed_path(p, q, n, periods, ref_rng)
    built = []
    init = fp.DiscretePath.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fp.DiscretePath, "__init__", counting_init)
    path = solve._perturbed_path(p, q, n, periods, rng)
    assert built == []
    assert type(path) is fp.DiscretePath
    assert path.periods == (tuple(periods) if periods else None)
    assert bits(path.y, path.t) == bits(ref_y, ref_t)
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_perturbed_path_rejects_non_finite_t_nodes(value):
    """The random seed rejects a non-finite endpoint t, as a path built
    from it would, before any arithmetic: 0.0 * inf at the first node
    would be a NaN that numpy warns of, which -W error turns into a
    failure."""
    rng = np.random.default_rng(0)
    p = fp.Point([0.0, 0.0], value)
    with pytest.raises(ValueError, match="path nodes must be finite"):
        solve._perturbed_path(p, Q, 20, None, rng)
    with pytest.raises(ValueError, match="path nodes must be finite"):
        fp.straight_path(p, Q, 20)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_minimize_arrival_rejects_a_non_finite_endpoint_t(value):
    """minimize_arrival raises ValueError for an endpoint t that is not
    finite, from a winding or a random seed on either branch, and numpy
    warns of nothing first."""
    model = fp.get_model("flat")
    bad_p = fp.Point([0.0, 0.0], value), Q
    bad_q = fp.Point([0.0, 0.0], 0.0), fp.Point(Q.y, value)
    cases = itertools.product((bad_p, bad_q), (0, "random"), ("plus", "minus"))
    for (p, q), init, branch in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="path nodes must be finite"):
                fp.minimize_arrival(
                    model, p, q, -0.5, init, fp.SolverOptions(N=20), branch=branch
                )


ENDPOINT_CASES = [
    ("non-finite", fp.Point([0.0, np.inf], 0.0), fp.Point([1.0, 0.7], 0.2)),
    ("non-finite", fp.Point([0.0, 0.0], 0.0), fp.Point([np.nan, 0.7], 0.2)),
    ("non-finite", fp.Point([-np.inf, 0.0], 0.0), fp.Point([np.inf, 0.7], 0.2)),
    ("overflow", fp.Point([-1e308, 0.0], 0.0), fp.Point([1e308, 0.7], 0.2)),
    ("overflow", fp.Point([0.0, 1e308], 0.0), fp.Point([1.0, -1e308], 0.2)),
    ("overflow", fp.Point([0.0, 0.0], -1e308), fp.Point([1.0, 0.7], 1e308)),
]


@pytest.mark.parametrize("spec", ["flat", "cylinder(1)"])
@pytest.mark.parametrize("kind, p, q", ENDPOINT_CASES, ids=lambda x: x if isinstance(x, str) else "")
def test_minimize_arrival_rejects_endpoints_of_no_finite_displacement(spec, kind, p, q):
    """A non-finite endpoint y, and a finite pair whose displacement
    overflows (in y or t), raise ValueError on a euclidean and on a
    periodic slice, from a winding or a random seed on either branch, and
    numpy warns of nothing first: reducing inf modulo a period would warn
    of inf - inf, and the subtraction of such a pair of an overflow."""
    model = fp.get_model(spec)
    for init, branch in itertools.product((0, "random"), ("plus", "minus")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="path nodes must be finite"):
                fp.minimize_arrival(
                    model, p, q, -0.5, init, fp.SolverOptions(N=20), branch=branch
                )


@pytest.mark.parametrize("b", ["0.3", "-1.25", "0", "-0"])
def test_randers_rot_domega_dy_matches_the_expression(b):
    """The column products of randers-rot's domega_dy have the bits of
    b * stack([nu2, -nu1]), and its time reversal those of the negation."""
    model = fp.get_model(f"randers-rot({b})")
    reversed_model = time_reversed(model)
    rng = np.random.default_rng(3)
    for nu in row_fields(rng, (500, 2)):
        y = rng.standard_normal(nu.shape)
        expected = ref_randers_rot_domega_dy(float(b), nu)
        assert bits(model.domega_dy(y, nu)) == bits(expected)
        assert bits(reversed_model.domega_dy(y, nu)) == bits(-expected)


# ---------------------------------------------------------------------------
# polynomial plans against the term-by-term evaluation
# ---------------------------------------------------------------------------

def ref_polynomial(poly, y, nu=None):
    """Term by term: coef times each non-zero column power x[:, j] ** p, y
    factors before nu factors (none without nu), summed into zeros in term
    order, a constant term as a full array."""
    n = y.shape[0]
    out = np.zeros(n)
    for t in poly.terms:
        v = None
        for x, pows in ((y, t.y_pow), (nu, t.nu_pow)):
            if x is None:
                continue
            for j, p in enumerate(pows):
                if p:
                    f = x[:, j] ** p
                    v = t.coef * f if v is None else v * f
        out += np.full(n, t.coef) if v is None else v
    return out


def ref_grad_eval(poly, var, y, nu=None):
    """Each derivative polynomial evaluated term by term into its column."""
    out = np.zeros((y.shape[0], poly.dim))
    for j in range(poly.dim):
        out[:, j] = ref_polynomial(poly.deriv(var, j), y, nu)
    return out


PLAN_POLYNOMIALS = [
    # constants, powers 1, 2 and >= 3, repeated factors and like terms
    (2, "1.5 - 0.7 y1 nu2^3 + 2 y2^2 + 0.25 nu1 y2^2 nu1 - 3 y1^4 nu1 nu2 + y2 - 4"),
    (2, "0.5 nu1^2 + 0.5 nu2^2 + 3 - 0.3 y1^2 + 0.1 y2 nu1^2 + 0.1 y2 nu1^2"),
    (2, "-nu1 + 1e-3 nu2^5 y1^3 y2^7"),
    (1, "2 nu1^2 y1^3 - y1 + 0.5"),
    (3, "0.3 y1 nu2 - 0.2 y2 nu1 + 0.1 y3^3 nu3 + y1 y2 y3 nu1 nu2 nu3 - 7"),
    (2, "0"),
]


def plan_polynomials():
    polys = [parse_polynomial(text, dim) for dim, text in PLAN_POLYNOMIALS]
    cp = configparser.ConfigParser()
    cp.read(BENCH_POLYNOMIAL_MODEL)
    for key in ("L0", "omega"):
        polys.append(parse_polynomial(cp.get("model", key), 2))
    return polys + [p.energy() for p in polys]


def plan_fields(rng, shape):
    """signed_zero_fields, values spread over six decades and negative
    values, each y paired with each nu."""
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
    return signed_zero_fields(rng, shape) + [wide, -np.abs(wide)]


@pytest.mark.parametrize("n", [1, 7, 500])
def test_polynomial_plan_matches_term_by_term(n):
    """__call__ and grad_eval run a plan over one power table: a power of
    1 is the column itself, the factors multiply in place and the terms
    add straight into the result.  Every bit is that of the term-by-term
    evaluation, signed zeros included, with nu and without it."""
    rng = np.random.default_rng(n)
    for poly in plan_polynomials():
        fields = plan_fields(rng, (n, poly.dim))
        for y in fields:
            for nu in fields + [None]:
                args = (y,) if nu is None else (y, nu)
                assert bits(poly(*args)) == bits(ref_polynomial(poly, y, nu))
                for var in ("y", "nu"):
                    assert bits(poly.grad_eval(var, *args)) == bits(
                        ref_grad_eval(poly, var, y, nu)
                    )


def omega_w_models():
    models = [fp.get_model(spec) for spec in BUILTIN_SPECS + [
        "flat(3)", "randers-const(0.5,-0)", "randers-const(-0,-0,0.2)",
        "affine-field(randers-rot(0.2), 0.3 y1)",
    ]]
    return models + [POTENTIAL, fp.load_custom_model(BENCH_POLYNOMIAL_MODEL)]


@pytest.mark.parametrize("model", omega_w_models(), ids=lambda m: m.name)
def test_omega_w_matches_basis_evaluation(model):
    """The settled omega coefficients have the bits of omega evaluated on
    the basis vectors, on rows with zero coordinates of both signs too:
    for a polynomial omega they are its nu-gradient, evaluated without nu."""
    rng = np.random.default_rng(17)
    for y in plan_fields(rng, (50, model.dim)):
        assert bits(model.omega_w(y)) == bits(_basis_coeffs(model.omega, y))
        assert bits(omega_coeffs(model, y)) == bits(model.omega_w(y))


# ---------------------------------------------------------------------------
# peak allocation on the fine grid
# ---------------------------------------------------------------------------

def test_fine_grid_peak_allocation():
    """At N = 5e4 on randers-rot(0.3), the peak allocation of one projection,
    of one gradient and of one line-search trial counts (N, 2) arrays.  The
    expression forms of the kernels peaked at 7 and 12.5 of them for the
    projection and the gradient, the in-place kernels at 6 and 10.  With
    no zero t-part in the lift and one temporary for tau^2 / 2, the
    gradient peaked at 9.5, and with its per-segment partials freed before
    the lift adjoint and the H1 solve it peaks at 7; a trial that copied
    its y-nodes into a new path peaked at 8.5, one that owns them at 7."""
    n = 50_000
    model = fp.get_model("randers-rot(0.3)")
    p, q = fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.7], 0.2)
    s = np.arange(n + 1) / n
    y = p.y[None, :] + s[:, None] * (q.y - p.y)[None, :]
    y[:, 0] += 0.2 * np.sin(np.pi * s)
    y[:, 1] -= 0.1 * np.sin(2 * np.pi * s)
    path = fp.DiscretePath(y, p.t + s * (q.t - p.t))
    state = fp.project_to_N(model, path)
    unit = n * 2 * 8
    assert peak_bytes(lambda: fp.project_to_N(model, path)) < 6.5 * unit
    assert peak_bytes(lambda: arrival_gradient(model, state, -0.5)) < 7.5 * unit
    u = arrival_gradient(model, state, -0.5).field.y

    def trial():
        arrival_times(model, solve._trial(model, state, u, 1.0), -0.5)

    assert peak_bytes(trial) < 7.5 * unit


def test_fine_grid_solve_peak_per_node():
    """A solve of the fine-grid problem at N = 2e4 from the random seed
    holds only the arrays it still reads: a peak of about 200 bytes per
    node (25 doubles), at a line-search trial.  It was 336, at the record's
    el_residual, while the seed's state lived through the whole solve, the
    previous representer through each gradient, the per-segment partials
    through the lift adjoint and the H1 solve, and el_residual formed every
    L partial at the midpoints and the nodes."""
    n = 20_000
    model = fp.get_model("randers-rot(0.3)")
    p, q = fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.7], 0.2)
    opts = fp.SolverOptions(N=n)
    peak = peak_bytes(lambda: fp.minimize_arrival(model, p, q, -0.5, "random", opts))
    assert peak <= 240 * n


# ---------------------------------------------------------------------------
# the descent against the trial expression
# ---------------------------------------------------------------------------

def ref_descend(model, p, q, kappa, init, opts, rng):
    """solve._descend with each trial built by the plain expression: the
    y-nodes y - step * u copied into a new DiscretePath with a copy of the
    iterate's t-nodes, then projected.  A model that is not `fermat` stops
    at grad_tol only where its theta is at grad_tol too."""
    path = solve.seed_path(model, p, q, opts.N, init, rng)
    arr = arrival_times(model, path, kappa)
    f_val, trial, stagnant, stop_reason = arr.t_plus, solve.FIRST_STEP, 0, "max_iters"
    for iters in range(1, opts.max_iters + 1):
        grad = arrival_gradient(model, path, kappa)
        if grad.norm <= opts.grad_tol:
            critical = model.fermat or criticality_residual(model, path, kappa) <= opts.grad_tol
            return path, arr, iters - 1, "grad_tol" if critical else "not_critical"
        slope = grad.norm * grad.norm
        step = trial
        for _ in range(60):
            cand = fp.project_to_N(
                model, fp.DiscretePath(path.y - step * grad.field.y, path.t, path.periods)
            )
            try:
                arr_new = arrival_times(model, cand, kappa)
            except fp.AdmissibilityError:
                step *= solve.STEP_SHRINK
                continue
            f_new = arr_new.t_plus
            if f_new <= f_val - solve.SUFFICIENT_DECREASE * step * slope:
                break
            step *= solve.STEP_SHRINK
        else:
            return path, arr, iters, "line_search_stall"
        stagnant = stagnant + 1 if f_val - f_new <= 1e-16 * (1.0 + abs(f_val)) else 0
        path, arr, f_val = cand, arr_new, f_new
        trial = min(solve.FIRST_STEP, step / solve.STEP_SHRINK)
        if stagnant >= 50:
            return path, arr, iters, "stagnant"
    return path, arr, iters, stop_reason


def record_bits(rec):
    """Every output of a record: its text form (17 digits, so every float
    round-trips, signed zeros included), the bits of its paths and the stop
    reason."""
    return (
        solve.record_to_json(rec),
        bits(rec.z_star.y, rec.z_star.t, rec.geodesic.y, rec.geodesic.t),
        rec.stop_reason,
    )


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("n", [2, 3, 400])
@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_descent_matches_the_copying_trial(monkeypatch, spec, n, branch):
    """Trials that own their y-nodes give the records of trials built as new
    paths, bit for bit, iteration counts included."""
    model = fp.get_model(spec)
    p, q = endpoints_for(model)
    opts = fp.SolverOptions(N=n)
    rec = fp.minimize_arrival(model, p, q, -0.5, "random", opts, branch=branch)
    monkeypatch.setattr(solve, "_descend", ref_descend)
    ref = fp.minimize_arrival(model, p, q, -0.5, "random", opts, branch=branch)
    assert record_bits(rec) == record_bits(ref)


# ---------------------------------------------------------------------------
# static models: gradients of dE0 / S that skip the lift adjoint
# ---------------------------------------------------------------------------

# Static models, one of them with a constant offset, on either side of the
# column-loop threshold.
STATIC_SPECS = ["flat", "cylinder(1)", "flat(3)", "affine(cylinder(1), 0.5)"]
STATIC_ROWS = [50, 500]
STATIC_MODEL_FILE = str(Path(__file__).parent / "data" / "golden" / "static.model.ini")


def spec_model(spec):
    """The model of a spec, or the static golden model file, whose dE0_dy
    is not zero, for "static.model.ini"."""
    return fp.load_custom_model(STATIC_MODEL_FILE) if spec.endswith(".ini") else fp.get_model(spec)


def general(model):
    """The model with the static flag cleared: its gradients form the full
    arrival form and add the lift adjoint."""
    return dataclasses.replace(model, static=False)


def evaluator_wrapped(model):
    """The model with its charge evaluators wrapped as a tracer wraps them:
    its time reversal negates the wrapped zeros into -0.0."""
    fields = ("omega", "domega_dy", "omega_w", "d_offset", "dd_dy")
    return dataclasses.replace(
        model, **{k: (lambda f: lambda *args: f(*args))(getattr(model, k)) for k in fields}
    )


def sign_variants(model):
    """A model, its time reversal, its evaluator-wrapped copy and that
    copy's time reversal: for a static model, charge evaluators of +0.0
    and of -0.0 (SIGN_VARIANT_ZEROS)."""
    return [
        at_model
        for copy in (model, evaluator_wrapped(model))
        for at_model in (copy, time_reversed(copy))
    ]


# The zero of a static model's charge coefficients (A, B), for each of its
# sign_variants: time_reversed keeps a static model's own zero evaluators
# and negates wrapped ones.
SIGN_VARIANT_ZEROS = (0.0, 0.0, 0.0, -0.0)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", STATIC_ROWS)
def test_static_lift_adjoint_adds_plus_zero(n, m, zero):
    """With A = B = +0.0, a static model's coefficients (or both -0.0, a
    time reversal of wrapped zero evaluators), adding the lift adjoint to a
    reduced gradient is adding 0.0, bit for bit: for t-gradients and
    weights G of random values over 16 decades mixed with zeros of both
    signs, and reduced gradients with such zeros too."""
    assert STATIC_ROWS[0] < _COLUMN_LOOP_MIN_ROWS < STATIC_ROWS[1]
    rng = np.random.default_rng(10 * n + m)
    path = fp.DiscretePath(np.zeros((n + 1, m)), np.zeros(n + 1))
    coeffs = (np.full((n, m), zero), np.full((n, m), zero))
    for g_red in row_fields(rng, (n + 1, m)):
        want = bits(g_red + 0.0)
        for g_int in row_fields(rng, (n - 1, 1)):
            adjoint = _lift_adjoint(path, g_int[:, 0], coeffs)
            assert bits(g_red + adjoint) == want
        for G in row_fields(rng, (n, 1)):
            assert bits(g_red + _assemble_y(path, *coeffs, G[:, 0])) == want


def static_gradient_nodes(model, n, rng):
    """random_nodes; the same nodes with their last y-column held at its
    first value, so that its velocities, and with them the dE0_dnu column
    of each fiber here, are exact zeros; and with their first y-column
    zeros of random sign (an aperiodic column on every model here), whose
    velocities and dE0_dnu column are zeros of both signs."""
    y, t = random_nodes(model, n, rng)
    constant, signed_zeros = y.copy(), y.copy()
    constant[:, -1] = y[0, -1]
    signed_zeros[:, 0] = rng.choice([0.0, -0.0], n + 1)
    return [(y, t), (constant, t), (signed_zeros, t)]


@pytest.mark.parametrize("n", [2] + STATIC_ROWS)
@pytest.mark.parametrize("spec", STATIC_SPECS + ["static.model.ini"])
def test_static_restricted_gradient_matches_the_lift_adjoint(spec, n):
    """A static state's gradient, from dE0 / S without the lift adjoint,
    has the bits of the same state's full arrival form with the lift
    adjoint formed: for random partials, and for the arrival gradient (its
    u, norm and lifted field) and criticality residual of the state on both
    branches, with charge evaluators of +0.0 and of -0.0.  The charge
    coefficients A and B are (N, m) arrays of one zero, the one each
    variant gives, as the `+ 0.0` of _restricted_gradient needs; the two
    forms' spatial partials are equal, up to the sign of a zero."""
    rng = np.random.default_rng(n)
    for at_model, zero in zip(sign_variants(spec_model(spec)), SIGN_VARIANT_ZEROS):
        assert at_model.static
        m = at_model.dim
        zeros = np.full((n, m), zero)
        for y, t in static_gradient_nodes(at_model, n, rng):
            path = fp.DiscretePath(y, t, at_model.periods)
            proj = fp.project_to_N(at_model, path)
            slow = fp.project_to_N(general(at_model), path)
            coeffs = linearized_charge_coeffs(at_model, proj)
            assert [c.shape for c in coeffs] == [(n, m), (n, m)]
            assert bits(*coeffs) == bits(zeros, zeros)
            for P, V in zip(row_fields(rng, (n, m)), row_fields(rng, (n, m))):
                wt = rng.standard_normal(n)
                assert bits(*_restricted_gradient(proj, [P, V, wt], coeffs)) == bits(
                    *_restricted_gradient(slow, [P, V, wt], coeffs)
                )
            kappa = -1.0 - abs(proj.E_val)
            state, (P, V, wt), coeffs = arrival._static_form(at_model, proj, kappa)
            ref_state, (ref_P, ref_V, ref_wt), ref_coeffs = arrival._arrival_form(
                general(at_model), slow, kappa
            )
            assert wt is None
            assert np.array_equal(P, ref_P) and np.array_equal(V, ref_V)
            assert bits(*coeffs) == bits(*ref_coeffs)
            assert bits(*_restricted_gradient(state, [P, V, wt], coeffs)) == bits(
                *_restricted_gradient(ref_state, [ref_P, ref_V, ref_wt], ref_coeffs)
            )
            fast = arrival_gradient(at_model, proj, kappa)
            ref = arrival_gradient(general(at_model), slow, kappa)
            assert bits(fast.norm, fast.field.y, fast.field.t) == bits(
                ref.norm, ref.field.y, ref.field.t
            )
            assert bits(criticality_residual(at_model, proj, kappa)) == bits(
                criticality_residual(general(at_model), slow, kappa)
            )


def test_static_gradient_forms_no_energy_partials(monkeypatch):
    """A static model's gradient neither evaluates chart_partials nor runs
    the chain rule of _arrival_partials; the gradient of one that is not
    static does both."""

    def refuse(*args, **kwargs):
        raise AssertionError("E-partial algebra")

    monkeypatch.setattr(arrival, "chart_partials", refuse)
    monkeypatch.setattr(arrival, "_arrival_partials", refuse)
    rng = np.random.default_rng(5)
    statics = [
        at_model
        for spec in STATIC_SPECS + ["static.model.ini"]
        for at_model in sign_variants(spec_model(spec))
    ]
    others = [general(spec_model(spec)) for spec in STATIC_SPECS] + [
        model_for(spec) for spec in ("randers-rot(0.3)", "affine-field(flat, 0.3 y1)", "potential")
    ]
    for model in statics + others:
        y, t = random_nodes(model, 50, rng)
        proj = fp.project_to_N(model, fp.DiscretePath(y, t, model.periods))
        kappa = -1.0 - abs(proj.E_val)
        if model.static:
            assert arrival_gradient(model, proj, kappa).norm > 0.0
        else:
            with pytest.raises(AssertionError, match="E-partial algebra"):
                arrival_gradient(model, proj, kappa)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("n", STATIC_ROWS)
@pytest.mark.parametrize("spec", STATIC_SPECS + ["static.model.ini"])
def test_static_descent_matches_the_lift_adjoint(spec, n, branch):
    """Descents from random seeds on a static model give the records of the
    same model with its full arrival forms and lift adjoints formed, bit for
    bit, iteration counts included."""
    model = spec_model(spec)
    p, q = endpoints_for(model)
    opts = fp.SolverOptions(N=n)
    for seed in range(3):
        rec, ref = (
            fp.minimize_arrival(
                at_model, p, q, -0.5, "random", opts,
                branch=branch, rng=np.random.default_rng(seed),
            )
            for at_model in (model, general(model))
        )
        assert rec.iters > 0
        assert record_bits(rec) == record_bits(ref)


# ---------------------------------------------------------------------------
# a static model's trials take the t-part of their iterate
# ---------------------------------------------------------------------------

def trial_models():
    """The static models (STATIC_SPECS and the static golden model file)
    and three that are not, each with its time reversal and the
    evaluator-wrapped copies of both."""
    bases = [spec_model(spec) for spec in STATIC_SPECS + ["static.model.ini"]]
    bases += [model_for(spec) for spec in ("randers-rot(0.3)", "affine-field(flat, 0.3 y1)", "potential")]
    return [at_model for base in bases for at_model in sign_variants(base)]


def state_fields(state):
    """Every field of a state: its model and periods as they are, the bits
    of its arrays and numbers."""
    fields = dict(vars(state))
    model, periods = fields.pop("model"), fields.pop("periods")
    return model, periods, {k: bits(v) for k, v in sorted(fields.items())}


@pytest.mark.parametrize("n", [2, 200, 500])
def test_trial_state_is_that_of_the_full_projection(n):
    """Every field of a line-search trial's state, over a chain of trials
    each moving from the last, has the bits of project_to_N of a new path
    with the trial's y-nodes and its iterate's t-nodes.  A static model's
    trial shares its iterate's t-nodes; any other model projects anew."""
    rng = np.random.default_rng(n)
    for model in trial_models():
        y, t = random_nodes(model, n, rng)
        state = fp.project_to_N(model, fp.DiscretePath(y, t, model.periods))
        for step in (1.0, 0.5, 1e-3):
            u = rng.choice([1e-3, 0.1, 1.0]) * rng.standard_normal(y.shape)
            u[0] = u[-1] = 0.0
            trial = solve._trial(model, state, u, step)
            full = fp.project_to_N(model, fp.DiscretePath(trial.y, state.t, model.periods))
            assert state_fields(trial) == state_fields(full)
            assert (trial.t is state.t) is model.static
            state = trial


def counting(model, counts):
    """The model with omega and d_offset counting their calls in `counts`."""

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)
        return call

    return dataclasses.replace(
        model, **{k: counted(k, getattr(model, k)) for k in ("omega", "d_offset")}
    )


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("spec, per_trial", [
    ("cylinder(1)", 0),
    ("affine(cylinder(1), 0.5)", 0),
    ("static.model.ini", 0),
    ("randers-rot(0.3)", 1),
    ("affine-field(flat, 0.3 y1)", 1),
])
def test_trial_evaluator_counts(monkeypatch, spec, per_trial, branch):
    """A static descent calls omega and d_offset only for its seed and its
    certification, the same number of times whatever its iterations; a
    model that is not static calls each once more per line-search
    trial."""
    counts = Counter()
    model = counting(spec_model(spec), counts)
    in_trials = Counter()
    original = solve._trial

    def counted_trial(*args):
        before = counts.copy()
        cand = original(*args)
        in_trials["trials"] += 1
        in_trials.update(counts - before)
        return cand

    monkeypatch.setattr(solve, "_trial", counted_trial)
    p, q = endpoints_for(model)
    outside = set()
    for seed in range(3):
        counts.clear()
        in_trials.clear()
        rec = fp.minimize_arrival(
            model, p, q, -0.5, "random", fp.SolverOptions(N=50),
            branch=branch, rng=np.random.default_rng(seed),
        )
        trials = in_trials["trials"]
        assert rec.iters > 0 and trials >= rec.iters
        assert in_trials["omega"] == in_trials["d_offset"] == per_trial * trials
        outside.add(tuple(counts[k] - in_trials[k] for k in ("omega", "d_offset")))
    assert len(outside) == 1


def test_misflagged_static_model_is_refused():
    """A replace that gives a static model an omega, or a y-dependent d,
    but keeps the flag set is refused by the first full projection of a
    path where omega + d is not one value: UnsupportedModelError, before
    any trial could take a wrong t-part, also from minimize_arrival."""
    misflagged = [
        dataclasses.replace(fp.get_model("randers-rot(0.3)"), static=True),
        dataclasses.replace(
            fp.get_model("cylinder(1)"), omega=fp.get_model("randers-const(0.5,0)").omega
        ),
        dataclasses.replace(fp.get_model("affine-field(flat, 0.3 y1)"), static=True),
    ]
    rng = np.random.default_rng(4)
    for model in misflagged:
        assert model.static
        y, t = random_nodes(model, 20, rng)
        for at_model in (model, time_reversed(model)):
            with pytest.raises(UnsupportedModelError, match="flagged static"):
                fp.project_to_N(at_model, fp.DiscretePath(y, t, model.periods))
        p, q = endpoints_for(model)
        with pytest.raises(UnsupportedModelError, match="flagged static"):
            fp.minimize_arrival(model, p, q, -0.5, "random", fp.SolverOptions(N=20))


# ---------------------------------------------------------------------------
# the leaner projection keeps its checks
# ---------------------------------------------------------------------------

P = fp.Point([0.0, 0.0], 0.0)
Q = fp.Point([1.0, 0.7], 0.2)


def drift_with_hole(bad):
    """randers-rot(0.3) whose omega is NaN where bad(y) holds."""
    def omega(y, nu):
        value = 0.3 * (-y[:, 1] * nu[:, 0] + y[:, 0] * nu[:, 1])
        return np.where(bad(y), np.nan, value)

    def L0(y, nu):
        return 0.5 * np.einsum("ij,ij->i", nu, nu)

    return fp.build_model(2, L0, omega=omega, homogeneous=True, name="holed")


def test_projection_rejects_non_finite_omega():
    model = drift_with_hole(lambda y: y[:, 0] > 0.5)
    with pytest.raises(ValueError, match="path nodes must be finite"):
        fp.project_to_N(model, fp.straight_path(P, Q, 10))
    with pytest.raises(ValueError, match="path nodes must be finite"):
        fp.minimize_arrival(model, P, Q, -0.5)


def test_line_search_trial_rejects_non_finite_omega():
    """The straight seed lies where omega is finite; the descent bends the
    path to one side of it, where omega is NaN, so a trial's projection
    raises."""
    model = drift_with_hole(lambda y: y[:, 1] - 0.7 * y[:, 0] > 0.01)
    seed = fp.project_to_N(model, fp.straight_path(P, Q, 20))
    assert np.isfinite(seed.t).all()
    with pytest.raises(ValueError, match="path nodes must be finite"):
        fp.minimize_arrival(model, P, Q, -0.5, opts=fp.SolverOptions(N=20))
    # Without the hole the same descent converges.
    rot = fp.get_model("randers-rot(0.3)")
    assert fp.minimize_arrival(rot, P, Q, -0.5, opts=fp.SolverOptions(N=20)).converged


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_line_search_trial_rejects_non_finite_y_node(monkeypatch, value):
    """A trial owns the y-nodes it forms instead of building a path that
    copies and checks them, and still refuses a non-finite one: a gradient
    field holding an inf or a NaN makes the first trial's y-node non-finite.
    On the flat model omega is zero wherever y is, so the projection keeps
    its t-nodes finite and only the check of the y-nodes raises this error
    (unchecked, the trial's energy raises ModelEvaluationError)."""
    original = solve.arrival_gradient

    def holed(*args):
        grad = original(*args)
        grad.field.y[5, 1] = value
        return grad

    monkeypatch.setattr(solve, "arrival_gradient", holed)
    flat = fp.get_model("flat")
    with pytest.raises(ValueError, match="path nodes must be finite"):
        fp.minimize_arrival(flat, P, Q, -0.5, "random", fp.SolverOptions(N=20))


@pytest.mark.parametrize("where", ["y", "t"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_path_with_non_finite_node_is_rejected(where, value):
    y = np.array([[0.0, 0.0], [0.5, 0.3], [1.0, 0.7]])
    t = np.array([0.0, 0.1, 0.2])
    if where == "y":
        y[1, 1] = value
    else:
        t[1] = value
    with pytest.raises(ValueError, match="path nodes must be finite"):
        fp.DiscretePath(y, t)


def test_projected_state_shares_its_y_nodes():
    """A state shares the checked y-array of the path it projects; the path
    itself holds a private copy of its inputs."""
    model = fp.get_model("randers-rot(0.3)")
    y = np.array([[0.0, 0.0], [0.5, 0.3], [1.0, 0.7]])
    path = fp.DiscretePath(y, [0.0, 0.1, 0.2])
    assert path.y is not y
    state = fp.project_to_N(model, path)
    assert state.y is path.y and state.periods == path.periods
    assert path_state(model, path).y is path.y
