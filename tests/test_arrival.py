"""Arrival-time functionals: root identities, the defining flow property,
directional derivatives against finite differences, criticality residuals,
and the optical arrival length."""
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import fermatpath as fp
from fermatpath import arrival
from fermatpath.arrival import (
    D_functional,
    FunctionalGradient,
    H_functional,
    _h1_solve,
    arrival_gradient,
    dt_plus,
)
from fermatpath.models import chart_E, time_reversed
from fermatpath.paths import (
    CONSTRAINT_RTOL,
    TangentField,
    action,
    path_state,
    segment_geometry,
    tangent_split,
)

from conftest import (
    BUILTIN_SPECS,
    OFFSET_FIBER,
    endpoints_for,
    on_branch,
    reflected,
    smooth_field,
    smooth_path,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the rest of the suite needs only numpy and pytest
    st = None


FLAT = fp.get_model("flat")
RANDERS = fp.get_model("randers-const(0.5,0)")


def straight(p, q, n=100):
    return fp.straight_path(fp.Point(*p), fp.Point(*q), n)


# ---------------------------------------------------------------------------
# charge and offset functionals
# ---------------------------------------------------------------------------

def test_D_functional_zero_for_linear():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert D_functional(FLAT, z) == 0.0


def test_D_functional_constant_offset():
    model = fp.get_model("affine(flat, 2.5)")
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert D_functional(model, z) == pytest.approx(2.5, rel=1e-14)


def test_Q_functional_straight_time():
    z = straight(([0, 0], 0.0), ([3, 4], 1.0))
    assert path_state(FLAT, z).Q_bar == pytest.approx(-1.0, rel=1e-13)


# ---------------------------------------------------------------------------
# arrival times
# ---------------------------------------------------------------------------

def test_arrival_flat_lightlike():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    arr = fp.arrival_times(FLAT, z, 0.0)
    assert arr.t_plus == pytest.approx(5.0, rel=1e-14)
    assert arr.t_minus == pytest.approx(-5.0, rel=1e-14)
    assert arr.branch_valid


def test_arrival_flat_timelike():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    arr = fp.arrival_times(FLAT, z, -0.5)
    assert arr.t_plus == pytest.approx(math.sqrt(26.0), rel=1e-14)


def test_arrival_rejects_inadmissible_kappa():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    with pytest.raises(fp.AdmissibilityError):
        fp.arrival_times(FLAT, z, 0.1)


def test_arrival_rejects_unconstrained_path():
    n = 50
    s = np.arange(n + 1) / n
    z = fp.DiscretePath(np.stack([s * 3, s * 4], axis=1), s**2)
    with pytest.raises(fp.ConstraintViolationError):
        fp.arrival_times(FLAT, z, 0.0)


def test_root_identities(builtin_model):
    rng = np.random.default_rng(20)
    p, q = endpoints_for(builtin_model)
    for kappa in (0.0, -0.5, -2.0):
        z = smooth_path(builtin_model, p, q, 48, rng)
        arr = fp.arrival_times(builtin_model, z, kappa)
        scale = 1.0 + abs(arr.Q_bar) + abs(arr.E_val)
        assert abs(arr.t_plus + arr.t_minus - 2 * arr.Q_bar) < 1e-10 * scale
        assert abs(arr.t_plus * arr.t_minus - 2 * (kappa - arr.E_val)) < 1e-10 * scale


def test_defining_property(builtin_model):
    """Flowing by either arrival parameter lands on the energy level."""
    rng = np.random.default_rng(21)
    p, q = endpoints_for(builtin_model)
    z = smooth_path(builtin_model, p, q, 48, rng)
    for kappa in (0.0, -1.0):
        arr = fp.arrival_times(builtin_model, z, kappa)
        for t in (arr.t_plus, arr.t_minus):
            e = path_state(builtin_model, fp.apply_flow(z, t)).E_val
            assert abs(e - kappa) < 1e-8 * (1.0 + abs(kappa))


# ---------------------------------------------------------------------------
# the shifted-action functional
# ---------------------------------------------------------------------------

def test_H_at_zero_is_action():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert H_functional(FLAT, z, 0.0) == action(FLAT, z)


def test_H_flat_lightlike_shift():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert H_functional(FLAT, z, 5.0) == pytest.approx(0.0, abs=1e-12)


def test_H_affine_two_route(builtin_model):
    """Direct quadrature against the exact splitting through the charge
    quadrature (the affine case shifts through Q + d)."""
    rng = np.random.default_rng(22)
    p, q = endpoints_for(builtin_model)
    z = smooth_path(builtin_model, p, q, 40, rng)
    nbar = path_state(builtin_model, z).Q_bar + D_functional(builtin_model, z)
    for t in (-2.0, 0.7, 3.1):
        direct = H_functional(builtin_model, z, t)
        split = action(builtin_model, z) + t * nbar - 0.5 * t * t
        assert direct == pytest.approx(split, rel=1e-10)


# ---------------------------------------------------------------------------
# directional derivatives
# ---------------------------------------------------------------------------

def test_dt_zero_variation():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    zero = TangentField(np.zeros_like(z.y), np.zeros_like(z.t))
    assert dt_plus(FLAT, z, 0.0, zero) == 0.0


def test_dt_vanishes_on_flat_minimizer():
    rng = np.random.default_rng(23)
    z = straight(([0, 0], 0.0), ([3, 4], 0.0), 80)
    xi, _ = tangent_split(FLAT, z, smooth_field(2, 80, rng))
    assert abs(dt_plus(FLAT, z, 0.0, xi)) < 1e-6


def test_dt_requires_tangent_variation():
    rng = np.random.default_rng(24)
    model = fp.get_model("randers-rot(0.3)")
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 40, rng)
    delta = smooth_field(2, 40, rng)  # not split: generically not tangent
    with pytest.raises(fp.ConstraintViolationError):
        dt_plus(model, z, 0.0, delta)


@pytest.mark.parametrize("branch", ["plus", "minus"], ids=["dt_plus", "dt_minus"])
def test_dt_checks_the_branch_before_tangency(branch):
    """At kappa = E + Q^2 / 2 the discriminant is at its floor: the arrival
    form refuses the degenerate branch before the variation is looked at.
    The minus branch is dt_plus of the time-reversed problem, whose
    discriminant is the same."""
    model = fp.load_custom_model(OFFSET_FIBER)  # no analytic kappa bound
    rng = np.random.default_rng(24)
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 40, rng)
    kappa = z.E_val + 0.5 * z.Q_bar * z.Q_bar
    assert not fp.arrival_times(model, z, kappa).branch_valid
    delta = smooth_field(2, 40, rng)  # not tangent either
    if branch == "minus":
        delta = reflected(delta)
    with pytest.raises(fp.AdmissibilityError, match="branch degenerate"):
        dt_plus(*on_branch(model, z, branch), kappa, delta)


def test_arrival_times_reject_a_negative_discriminant():
    """Past kappa = E + Q^2 / 2 the quadratic has no real root: a model
    without an analytic bound admits kappa, and the path is refused."""
    model = fp.load_custom_model(OFFSET_FIBER)
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 40, np.random.default_rng(24))
    kappa = z.E_val + 0.5 * z.Q_bar * z.Q_bar + 1.0
    with pytest.raises(fp.AdmissibilityError, match="negative discriminant -2"):
        fp.arrival_times(model, z, kappa)


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_dt_matches_projected_finite_differences(builtin_model, branch):
    rng = np.random.default_rng(25)
    p, q = endpoints_for(builtin_model)
    kappa = -0.4
    for _ in range(5):
        z = smooth_path(builtin_model, p, q, 60, rng)
        delta = smooth_field(builtin_model.dim, 60, rng)
        xi, _ = tangent_split(builtin_model, z, delta)
        if branch == "plus":
            an = dt_plus(builtin_model, z, kappa, xi)
        else:
            # t_minus(z) = -t_plus(reflected z) under the reversed model.
            an = -dt_plus(*on_branch(builtin_model, z, branch), kappa, reflected(xi))
        h = 1e-5

        def t_of(side):
            moved = fp.DiscretePath(
                z.y + side * h * delta.y, z.t + side * h * delta.t, z.periods
            )
            arr = fp.arrival_times(
                builtin_model, fp.project_to_N(builtin_model, moved), kappa
            )
            return arr.t_plus if branch == "plus" else arr.t_minus

        fd = (t_of(+1) - t_of(-1)) / (2 * h)
        assert abs(an - fd) < 1e-5 * max(abs(an), abs(fd), 1e-12)


def test_gradient_field_is_tangent_and_consistent():
    model = fp.get_model("randers-rot(0.3)")
    rng = np.random.default_rng(26)
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 50, rng)
    g = arrival_gradient(model, z, -0.2)
    # the field is its own split (already tangent)
    xi, mu = tangent_split(model, z, g.field)
    assert np.allclose(mu, 0.0, atol=1e-12)
    # dt along the gradient field equals the squared dual norm
    val = dt_plus(model, z, -0.2, g.field)
    assert val == pytest.approx(g.norm**2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 10, 1000])
@pytest.mark.parametrize("cols", [None, 2])
def test_h1_solve_matches_dense_solve(n, cols):
    rng = np.random.default_rng(n)
    shape = (n + 1,) if cols is None else (n + 1, cols)
    g = rng.standard_normal(shape)
    g[0] = g[-1] = 0.0
    A = n * (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1))
    path = fp.straight_path(fp.Point([0.0], 0.0), fp.Point([1.0], 0.0), n)
    u = _h1_solve(path, g)
    assert u.shape == g.shape
    assert np.all(u[0] == 0.0) and np.all(u[-1] == 0.0)
    expected = np.linalg.solve(A, g[1:n])
    atol = 1e-12 * np.max(np.abs(expected))
    assert np.allclose(u[1:n], expected, rtol=1e-10, atol=atol)


# ---------------------------------------------------------------------------
# criticality residual
# ---------------------------------------------------------------------------

def test_residual_equals_gradient_norm_for_lorentz_finsler():
    """theta = dt: the gap and offset partials are exact zeros, so the
    criticality residual is the arrival gradient's norm to the last bit."""
    models = [fp.get_model(s) for s in BUILTIN_SPECS]
    models = [m for m in models if m.homogeneous and m.linear_charge]
    assert len(models) == 4
    rng = np.random.default_rng(27)
    for model in models:
        p, q = endpoints_for(model)
        for branch in ("plus", "minus"):
            for n in (3, 40):
                z = smooth_path(model, p, q, n, rng)
                res = fp.criticality_residual(*on_branch(model, z, branch), -0.3)
                norm = arrival_gradient(*on_branch(model, z, branch), -0.3).norm
                assert res == norm, (model.name, branch, n)
                assert res > 0.0


@pytest.mark.parametrize("spec", ["randers-rot(0.3)", "affine-field(flat, 0.3 y1)"])
def test_residual_builds_no_tangent_field(monkeypatch, spec):
    """The criticality residual reads the dual norm of its representer and
    never lifts it to a tangent field."""
    model = fp.get_model(spec)
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 40, np.random.default_rng(5))
    expected = [
        fp.criticality_residual(*on_branch(model, z, b), -0.5) for b in ("plus", "minus")
    ]

    def refuse(*args):
        raise AssertionError("the residual lifted its representer")

    monkeypatch.setattr(arrival, "lift_spatial_variation", refuse)
    assert [
        fp.criticality_residual(*on_branch(model, z, b), -0.5) for b in ("plus", "minus")
    ] == expected
    with pytest.raises(AssertionError, match="lifted"):
        arrival_gradient(model, z, -0.5)


def counting(model):
    """`model` with every evaluator wrapped in a call counter."""
    calls = Counter()

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    names = ("L0", "dL0_dy", "dL0_dnu", "omega", "domega_dy", "omega_w", "d_offset",
             "dd_dy", "dE0_dy", "dE0_dnu")
    wrapped = {k: wrap(k, getattr(model, k)) for k in names if getattr(model, k)}
    return dataclasses.replace(model, **wrapped), calls


# One evaluation of the arrival form: domega_dy, the omega coefficients
# omega_w (no omega call: the coefficients are settled when the model is
# built), the E0 partials (for a 2-homogeneous fiber the functions dL0_dy
# and dL0_dnu, called as the model's dE0_dy and dE0_dnu), and dd_dy for the
# charge coefficients.
ONE_FORM = {"domega_dy": 1, "omega_w": 1, "dE0_dy": 1, "dE0_dnu": 1, "dd_dy": 1}


@pytest.mark.parametrize(
    "spec, residual",
    [
        # The form plus dd_dy of the offset partials; the gap is exact zeros.
        ("randers-rot(0.3)", {**ONE_FORM, "dd_dy": 2}),
        # The gap takes the form's E partials, omega, domega_dy and omega
        # coefficients; its L partials add the fiber partials, d_offset and
        # dd_dy, and the offset partials a third dd_dy.
        ("affine-field(flat, 0.3 y1)",
         {**ONE_FORM, "dL0_dy": 1, "dL0_dnu": 1, "dd_dy": 3, "d_offset": 1}),
    ],
)
def test_one_form_evaluates_the_model_once(spec, residual):
    """The gradient, dt and the criticality residual assemble one arrival
    form, and a state passes its own evaluation through: each call makes
    the evaluator calls of one form and no more."""
    model, calls = counting(fp.get_model(spec))
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 200, np.random.default_rng(31))
    field = arrival_gradient(model, z, -0.5).field
    for fn, budget in (
        (lambda: arrival_gradient(model, z, -0.5), ONE_FORM),
        (lambda: dt_plus(model, z, -0.5, field), ONE_FORM),
        (lambda: fp.criticality_residual(model, z, -0.5), residual),
    ):
        calls.clear()
        fn()
        assert dict(calls) == budget


def test_residual_constant_offset_matches_linear_formula():
    """Constant d: the offset-functional correction assembles to exact zeros,
    so the residual coincides with the base model's."""
    base = fp.get_model("flat")
    affine = fp.get_model("affine(flat, 2.0)")
    rng = np.random.default_rng(28)
    p, q = endpoints_for(base)
    zb = smooth_path(base, p, q, 40, rng)
    za = fp.project_to_N(affine, zb)
    assert np.allclose(za.t, zb.t, atol=1e-13)
    rb = fp.criticality_residual(base, zb, -0.1)
    ra = fp.criticality_residual(affine, za, -0.1)
    assert ra == pytest.approx(rb, rel=1e-12)


def test_residual_small_at_converged_minimizer():
    model = fp.get_model("randers-rot(0.3)")
    p, q = fp.Point([1.0, 0.0], 0.0), fp.Point([-0.2, 1.1], 0.0)
    rec = fp.minimize_arrival(model, p, q, 0.0, opts=fp.SolverOptions(N=100))
    assert rec.converged
    res = fp.criticality_residual(model, rec.z_star, 0.0)
    assert res < 1e-4


# ---------------------------------------------------------------------------
# optical arrival length
# ---------------------------------------------------------------------------

def test_randers_arrival_flat_is_length():
    nodes = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert fp.randers_arrival(FLAT, nodes) == pytest.approx(5.0, rel=1e-14)


def test_arrival_time_of_sign_is_the_branch_bitwise(builtin_model):
    """t_plus and t_minus have the bits of Q_bar +- S, and t_minus is
    -t_plus of the reflected path under the time-reversed model."""
    p, q = endpoints_for(builtin_model)
    path = smooth_path(builtin_model, p, q, 40, np.random.default_rng(3))
    arr = fp.arrival_times(builtin_model, path, -0.5)
    for branch, t in (("plus", arr.Q_bar + arr.S), ("minus", arr.Q_bar - arr.S)):
        got = arr.t_plus if branch == "plus" else arr.t_minus
        assert np.float64(got).view(np.uint64) == np.float64(t).view(np.uint64)
        t_plus = fp.arrival_times(*on_branch(builtin_model, path, branch), -0.5).t_plus
        got = t_plus if branch == "plus" else -t_plus
        assert np.float64(got).view(np.uint64) == np.float64(t).view(np.uint64)


def test_randers_arrival_drift_asymmetry():
    forward = fp.randers_arrival(RANDERS, np.array([[0.0, 0.0], [1.0, 0.0]]))
    backward = fp.randers_arrival(RANDERS, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert forward == pytest.approx(0.5 + math.sqrt(1.25), rel=1e-12)
    assert backward == pytest.approx(-0.5 + math.sqrt(1.25), rel=1e-12)


def test_randers_arrival_rejects_affine_and_inhomogeneous():
    with pytest.raises(fp.UnsupportedModelError):
        fp.randers_arrival(fp.get_model("affine(flat, 1.0)"), np.zeros((2, 2)))
    model = fp.load_custom_model(OFFSET_FIBER)
    with pytest.raises(fp.UnsupportedModelError):
        fp.randers_arrival(model, np.zeros((2, 2)))


def _constant_charge_speed_resample(model, y, passes=4):
    """Reparametrize a spatial polyline so sqrt(omega^2 + 2 L0) is uniform.

    The cone lift of such a path has constant charge, so it already sits on
    the constraint manifold and the projection leaves it untouched.
    """
    for _ in range(passes):
        n = y.shape[0] - 1
        dy = np.diff(y, axis=0)
        mid = y[:-1] + 0.5 * dy
        vel = dy * n
        om = model.omega(mid, vel)
        ell = np.sqrt(om**2 + 2 * model.L0(mid, vel)) / n
        cum = np.concatenate([[0.0], np.cumsum(ell)])
        cum /= cum[-1]
        s_new = np.linspace(0.0, 1.0, n + 1)
        y = np.stack([np.interp(s_new, cum, y[:, j]) for j in range(y.shape[1])], axis=1)
    return y


@pytest.mark.parametrize("spec", ["flat", "randers-const(0.5,0)", "randers-rot(0.3)"])
def test_lightlike_lift_reproduces_optical_length(spec):
    """Lift a constant-optical-speed spatial path through the cone equality,
    pull the endpoint back with the flow, project, and read off the
    lightlike arrival: it equals the optical length of the spatial path."""
    model = fp.get_model(spec)
    n = 200
    s = np.arange(n + 1) / n
    y = np.stack([0.2 + 0.8 * s, 0.1 + s - 0.3 * np.sin(np.pi * s)], axis=1)
    y = _constant_charge_speed_resample(model, y)
    length = fp.randers_arrival(model, y)
    dy = np.diff(y, axis=0)
    mid = y[:-1] + 0.5 * dy
    vel = dy * n
    om = model.omega(mid, vel)
    tdot = om + np.sqrt(om**2 + 2 * model.L0(mid, vel))
    t_lift = np.concatenate([[0.0], np.cumsum(tdot) / n]) - length * s
    z = fp.project_to_N(model, fp.DiscretePath(y, t_lift))
    arr = fp.arrival_times(model, z, 0.0)
    assert arr.t_plus == pytest.approx(length, rel=1e-8)


# ---------------------------------------------------------------------------
# evaluation state against a plain path
# ---------------------------------------------------------------------------

def _outcome(fn):
    """A result, or the type and text of the error it raised."""
    try:
        return fn()
    except (fp.AdmissibilityError, fp.ConstraintViolationError) as exc:
        return (type(exc), str(exc))


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _check_state_matches_plain_path(spec, n, seed, branch):
    model = fp.get_model(spec)
    rng = np.random.default_rng(seed)
    p, q = endpoints_for(model)
    if branch == "minus":  # the plus branch of the time-reversed problem
        model, p, q = time_reversed(model), reflected(p), reflected(q)
    state = smooth_path(model, p, q, n, rng)
    plain = fp.DiscretePath(state.y, state.t, state.periods)
    delta = smooth_field(model.dim, n, rng)
    kappa = -0.5
    # The cached numbers against direct evaluation of the model.
    mid_y, vel_y, vel_t = segment_geometry(plain)
    assert state.Q_bar == float(np.sum(model.omega(mid_y, vel_y) - vel_t) / n)
    assert state.E_val == float(np.sum(chart_E(model, mid_y, vel_y, vel_t)) / n)
    charge = model.omega(mid_y, vel_y) - vel_t + model.d_offset(mid_y)
    mean = float(np.mean(charge))
    assert state.noether_dev == float(np.max(np.abs(charge - mean)))
    assert state.constraint_dev == state.noether_dev / (CONSTRAINT_RTOL * (1.0 + abs(mean)))
    results = []
    for z in (state, plain):
        arr = _outcome(lambda: fp.arrival_times(model, z, kappa))
        grad = _outcome(lambda: arrival_gradient(model, z, kappa))
        if isinstance(grad, FunctionalGradient):
            grad = (grad.norm, _bits(grad.field.y, grad.field.t))
        xi, mu = tangent_split(model, z, delta)
        results.append((arr, grad, _bits(xi.y, xi.t, mu)))
    assert results[0] == results[1]


if st is not None:

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(BUILTIN_SPECS),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        branch=st.sampled_from(["plus", "minus"]),
    )
    def test_state_and_plain_path_agree_bitwise(spec, n, seed, branch):
        """The state project_to_N returns and a fresh path with the same nodes
        give bit-identical arrival times, gradients and tangent splits, and
        the state's cached quadratures match direct evaluation."""
        _check_state_matches_plain_path(spec, n, seed, branch)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_state_and_plain_path_agree_bitwise():
        pass


def test_state_is_evaluated_afresh_under_another_model():
    """A state carries the values of the model that built it; another model
    evaluates the same nodes itself."""
    randers = fp.get_model("randers-rot(0.3)")
    rng = np.random.default_rng(40)
    p, q = endpoints_for(FLAT)
    state = smooth_path(FLAT, p, q, 50, rng)
    plain = fp.DiscretePath(state.y, state.t, state.periods)
    assert path_state(FLAT, state).Q_bar == path_state(FLAT, plain).Q_bar
    assert path_state(randers, state).Q_bar == path_state(randers, plain).Q_bar
    assert path_state(randers, state).Q_bar != path_state(FLAT, state).Q_bar
    assert path_state(randers, state).E_val == path_state(randers, plain).E_val
