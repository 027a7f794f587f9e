"""Arrival-time functionals: root identities, the defining flow property,
directional derivatives against finite differences, criticality residuals,
and the optical arrival length."""
import math

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.arrival import _h1_solve, arrival_gradient

from conftest import endpoints_for, smooth_field, smooth_path


FLAT = fp.get_model("flat")
RANDERS = fp.get_model("randers-const(0.5,0)")


def straight(p, q, n=100):
    return fp.straight_path(fp.Point(*p), fp.Point(*q), n)


# ---------------------------------------------------------------------------
# charge and offset functionals
# ---------------------------------------------------------------------------

def test_D_functional_zero_for_linear():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert fp.D_functional(FLAT, z) == 0.0


def test_D_functional_constant_offset():
    model = fp.get_model("affine(flat, 2.5)")
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert fp.D_functional(model, z) == pytest.approx(2.5, rel=1e-14)


def test_Q_functional_straight_time():
    z = straight(([0, 0], 0.0), ([3, 4], 1.0))
    assert fp.Q_functional(FLAT, z) == pytest.approx(-1.0, rel=1e-13)


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
            e = fp.energy_integral(builtin_model, fp.apply_flow(z, t))
            assert abs(e - kappa) < 1e-8 * (1.0 + abs(kappa))


# ---------------------------------------------------------------------------
# the shifted-action functional
# ---------------------------------------------------------------------------

def test_H_at_zero_is_action():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert fp.H_functional(FLAT, z, 0.0) == fp.action(FLAT, z)


def test_H_flat_lightlike_shift():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    assert fp.H_functional(FLAT, z, 5.0) == pytest.approx(0.0, abs=1e-12)


def test_H_affine_two_route(builtin_model):
    """Direct quadrature against the exact splitting through the charge
    quadrature (the affine case shifts through Q + d)."""
    rng = np.random.default_rng(22)
    p, q = endpoints_for(builtin_model)
    z = smooth_path(builtin_model, p, q, 40, rng)
    nbar = fp.Q_functional(builtin_model, z) + fp.D_functional(builtin_model, z)
    for t in (-2.0, 0.7, 3.1):
        direct = fp.H_functional(builtin_model, z, t)
        split = fp.action(builtin_model, z) + t * nbar - 0.5 * t * t
        assert direct == pytest.approx(split, rel=1e-10)


# ---------------------------------------------------------------------------
# directional derivatives
# ---------------------------------------------------------------------------

def test_dt_zero_variation():
    z = straight(([0, 0], 0.0), ([3, 4], 0.0))
    zero = fp.TangentField(np.zeros_like(z.y), np.zeros_like(z.t))
    assert fp.dt_plus(FLAT, z, 0.0, zero) == 0.0


def test_dt_vanishes_on_flat_minimizer():
    rng = np.random.default_rng(23)
    z = straight(([0, 0], 0.0), ([3, 4], 0.0), 80)
    xi, _ = fp.tangent_split(FLAT, z, smooth_field(2, 80, rng))
    assert abs(fp.dt_plus(FLAT, z, 0.0, xi)) < 1e-6


def test_dt_requires_tangent_variation():
    rng = np.random.default_rng(24)
    model = fp.get_model("randers-rot(0.3)")
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 40, rng)
    delta = smooth_field(2, 40, rng)  # not split: generically not tangent
    with pytest.raises(fp.ConstraintViolationError):
        fp.dt_plus(model, z, 0.0, delta)


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_dt_matches_projected_finite_differences(builtin_model, branch):
    rng = np.random.default_rng(25)
    p, q = endpoints_for(builtin_model)
    kappa = -0.4
    dt_fn = fp.dt_plus if branch == "plus" else fp.dt_minus
    for _ in range(5):
        z = smooth_path(builtin_model, p, q, 60, rng)
        delta = smooth_field(builtin_model.dim, 60, rng)
        xi, _ = fp.tangent_split(builtin_model, z, delta)
        an = dt_fn(builtin_model, z, kappa, xi)
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
    g = arrival_gradient(model, z, -0.2, "plus")
    # the field is its own split (already tangent)
    xi, mu = fp.tangent_split(model, z, g.field)
    assert np.allclose(mu, 0.0, atol=1e-12)
    # dt along the gradient field equals the squared dual norm
    val = fp.dt_plus(model, z, -0.2, g.field)
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
    model = fp.get_model("randers-rot(0.3)")
    rng = np.random.default_rng(27)
    p, q = endpoints_for(model)
    for branch in ("plus", "minus"):
        z = smooth_path(model, p, q, 40, rng)
        res = fp.criticality_residual(model, z, -0.3, branch)
        norm = arrival_gradient(model, z, -0.3, branch).norm
        assert abs(res - norm) < 1e-12
        assert res > 0.0


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
    rb = fp.criticality_residual(base, zb, -0.1, "plus")
    ra = fp.criticality_residual(affine, za, -0.1, "plus")
    assert ra == pytest.approx(rb, rel=1e-12)


def test_residual_small_at_converged_minimizer():
    model = fp.get_model("randers-rot(0.3)")
    p, q = fp.Point([1.0, 0.0], 0.0), fp.Point([-0.2, 1.1], 0.0)
    rec = fp.minimize_arrival(model, p, q, 0.0, opts=fp.SolverOptions(N=100))
    assert rec.converged
    res = fp.criticality_residual(model, rec.z_star, 0.0, "plus")
    assert res < 1e-4


# ---------------------------------------------------------------------------
# optical arrival length
# ---------------------------------------------------------------------------

def test_randers_arrival_flat_is_length():
    nodes = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert fp.randers_arrival(FLAT, nodes) == pytest.approx(5.0, rel=1e-14)


def test_randers_arrival_drift_asymmetry():
    forward = fp.randers_arrival(RANDERS, np.array([[0.0, 0.0], [1.0, 0.0]]))
    backward = fp.randers_arrival(RANDERS, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert forward == pytest.approx(0.5 + math.sqrt(1.25), rel=1e-12)
    assert backward == pytest.approx(-0.5 + math.sqrt(1.25), rel=1e-12)


def test_randers_arrival_rejects_affine_and_inhomogeneous():
    with pytest.raises(fp.UnsupportedModelError):
        fp.randers_arrival(fp.get_model("affine(flat, 1.0)"), np.zeros((2, 2)))
    model = fp.load_custom_model("tests/data/offset_fiber.ini")
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
