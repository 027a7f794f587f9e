"""Per-iteration kernels against their plain numpy formulas, bit for bit.

The kernels of `paths`, `arrival` and `models` call ufuncs and array
methods directly (np.add.reduce / n for np.mean, a[1:] - a[:-1] for
np.diff, x.cumsum() for np.cumsum) and write into their own results with
`out=` and in-place operators; a projected state shares the y-nodes of its
path.  The references below are the plain expressions: they spell each
kernel out with np.diff, np.mean, np.sum and np.cumsum, build every
intermediate as a new array and copy every input, and the kernels must
agree with them to the last bit, signed zeros included.  The projection
must still reject non-finite nodes, and the in-place kernels must keep the
peak allocation of one gradient and one projection below what the
expression forms needed.
"""
import configparser
import math
import tracemalloc

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.arrival import (
    _assemble_y,
    _column_sum,
    _dual_norm,
    _h1_solve,
    _lift_adjoint,
    _restricted_gradient,
    arrival_gradient,
    arrival_times,
    branch_sign,
    criticality_residual,
    dt_minus,
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

from conftest import BENCH_POLYNOMIAL_MODEL, BUILTIN_SPECS, POTENTIAL, endpoints_for

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
    mid_t = 0.5 * (t[:-1] + t[1:])
    return mid_y, mid_t, dy * n, np.diff(t) * n


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


def ref_project(model, y, t, periods):
    """t-nodes, Q_bar, E_val and constraint deviation of the projected path."""
    n = y.shape[0] - 1
    mid_y, _, vel_y, _ = ref_segment_geometry(y, t, periods)
    om = model.omega(mid_y, vel_y)
    d = model.d_offset(mid_y)
    t_new = ref_cumulative_nodes(om + d, t[0], t[-1])
    vel_t = np.diff(t_new) * n
    q_bar = float(np.sum(om - vel_t) / n)
    e_val = float(np.sum(ref_chart_E(model, mid_y, vel_y, vel_t, om)) / n)
    profile = om - vel_t + d
    mean = float(np.mean(profile))
    dev = float(np.max(np.abs(profile - mean)))
    scaled = dev / (CONSTRAINT_RTOL * (1.0 + abs(mean)))
    state = dict(mid_y=mid_y, vel_y=vel_y, vel_t=vel_t, omega=om)
    return t_new, q_bar, e_val, scaled, state


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
        cg, cd = -sigma / arr.S, sigma * arr.time(sigma) / arr.S
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

    t_new, q_bar, e_val, dev, state = ref_project(model, y, t, model.periods)
    proj = fp.project_to_N(model, path)
    assert bits(proj.y, proj.t) == bits(y, t_new)
    assert bits(proj.Q_bar, proj.E_val, proj.constraint_dev) == bits(q_bar, e_val, dev)

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
    for branch in ("plus", "minus"):
        grad = arrival_gradient(model, proj, kappa, branch)
        norm, ref_y, ref_t = ref_arrival_gradient(model, y, state, arr, branch_sign(branch))
        assert bits(grad.norm, grad.field.y, grad.field.t) == bits(norm, ref_y, ref_t)
        # dt along the gradient field pairs the same partials with it.
        partials, _ = ref_arrival_form(model, state, arr, branch_sign(branch))
        dt_fn = dt_plus if branch == "plus" else dt_minus
        assert bits(dt_fn(model, proj, kappa, grad.field)) == bits(
            ref_dt(n, *partials, grad.field.y, grad.field.t)
        )
        # A fresh plain path with the same nodes gives the same bits too.
        plain = fp.DiscretePath(proj.y, proj.t, proj.periods)
        again = arrival_gradient(model, plain, kappa, branch)
        assert bits(again.norm, again.field.y, again.field.t) == bits(norm, ref_y, ref_t)

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
    u, gu = _restricted_gradient(proj, P, V, wt, coeffs)
    field = lift_spatial_variation(model, proj, u, coeffs)
    assert bits(_dual_norm(gu), field.y, field.t) == bits(
        *ref_restricted_gradient(y, P, V, wt, *coeffs)
    )

    # The criticality defect: the same form plus the gap and offset partials,
    # the gap from the form's own E partials.
    for branch in ("plus", "minus"):
        (P, V, wt), (a, b) = ref_arrival_form(
            model, state, arr, branch_sign(branch), critical=True
        )
        assert bits(criticality_residual(model, proj, kappa, branch)) == bits(
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
@pytest.mark.parametrize("n", [2, 3, 200])
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
            given_up = B.copy()  # the products may be formed in B[:, 0]
            assert bits(_row_dot(A, given_up, given_up[:, 0])) == expected
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

def _peak_bytes(fn):
    """Peak traced allocation of one call of fn beyond what was live before."""
    fn()  # a first call settles one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fine_grid_peak_allocation():
    """At N = 5e4 on randers-rot(0.3), the peak allocation of one projection
    and of one gradient counts (N, 2) arrays: the expression forms of the
    kernels peaked at 7 and 12.5 of them, the in-place kernels at 6 and 10."""
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
    assert _peak_bytes(lambda: fp.project_to_N(model, path)) < 6.5 * unit
    assert _peak_bytes(lambda: arrival_gradient(model, state, -0.5)) < 11 * unit


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
