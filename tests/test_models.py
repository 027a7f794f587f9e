"""Pointwise model evaluation: chart formulas, flow-shift identities,
charge linearity, causal cone, sampled assumption checks, and the registry."""
import dataclasses
import inspect
import math

import numpy as np
import pytest

import fermatpath as fp
from fermatpath import models
from fermatpath.models import (
    TangentVector,
    chart_E,
    chart_L,
    chart_Lc,
    chart_partials,
    chart_Q,
    cylinder_model,
    is_causal,
    omega_coeffs,
    parse_polynomial,
    polynomial_model,
    time_reversed,
)

from conftest import OFFSET_FIBER, POTENTIAL, endpoints_for


FLAT = fp.get_model("flat")
RANDERS = fp.get_model("randers-const(0.5,0)")
ORIGIN = fp.Point([0.0, 0.0], 0.0)


def vec(nu, tau):
    return TangentVector(nu, tau)


def one_row(x, v):
    """The chart point x and vector v as a batch of one row: (y, nu, tau)."""
    return x.y[None, :], v.nu[None, :], np.array([v.tau])


def L(model, x, v):
    return float(chart_L(model, *one_row(x, v))[0])


def E(model, x, v):
    return float(chart_E(model, *one_row(x, v))[0])


def Q(model, x, v):
    return float(chart_Q(model, *one_row(x, v))[0])


def N(model, x, v):
    """The charge with its offset, Q + d."""
    y, nu, tau = one_row(x, v)
    return float((chart_Q(model, y, nu, tau) + model.d_offset(y))[0])


def Lc(model, x, v):
    return float(chart_Lc(model, *one_row(x, v))[0])


# ---------------------------------------------------------------------------
# evaluation examples
# ---------------------------------------------------------------------------

def test_eval_L_flat_fiber_term():
    assert L(FLAT, ORIGIN, vec([3, 4], 0.0)) == 12.5


def test_eval_L_flat_pure_time():
    assert L(FLAT, ORIGIN, vec([0, 0], 2.0)) == -2.0


def test_eval_L_randers_hand_value():
    # 1/2 + 0.5 - 1/2
    assert L(RANDERS, ORIGIN, vec([1, 0], 1.0)) == pytest.approx(0.5, abs=1e-15)


def test_eval_E_flat_homogeneous_shortcut():
    assert E(FLAT, ORIGIN, vec([3, 4], 0.0)) == 12.5


def test_eval_E_zero_velocity_is_minus_L0():
    model = fp.load_custom_model(OFFSET_FIBER)
    x = fp.Point([0.3, -0.2], 0.0)
    e0 = E(model, x, vec([0, 0], 0.0))
    l0 = L(model, x, vec([0, 0], 0.0))
    assert e0 == pytest.approx(-l0, rel=1e-12)


def test_eval_E_ignores_offset():
    base = RANDERS
    affine = fp.get_model("affine(randers-const(0.5,0), 7.0)")
    v = vec([0.4, -1.1], 0.8)
    assert E(affine, ORIGIN, v) == E(base, ORIGIN, v)


def test_eval_Q_zero_spatial():
    assert Q(FLAT, ORIGIN, vec([0, 0], 1.7)) == -1.7


def test_Q_of_symmetry_field_is_minus_one(builtin_model):
    x = fp.Point(np.full(builtin_model.dim, 0.3), 0.0)
    k = vec(np.zeros(builtin_model.dim), 1.0)
    assert Q(builtin_model, x, k) == -1.0


def test_eval_N_affine_hand_value():
    model = fp.get_model("affine(randers-const(0.5,0), 2.0)")
    assert N(model, ORIGIN, vec([1, 0], 0.0)) == 2.5


def test_eval_Lc_examples():
    assert Lc(FLAT, ORIGIN, vec([0, 0], 1.0)) == 0.5
    assert Lc(FLAT, ORIGIN, vec([1, 0], 0.0)) == 0.5
    assert Lc(RANDERS, ORIGIN, vec([1, 0], 1.0)) == pytest.approx(0.75, abs=1e-15)


def test_q_linearity(builtin_model):
    rng = np.random.default_rng(0)
    m = builtin_model.dim
    for _ in range(25):
        y = rng.standard_normal(m)
        x = fp.Point(y, 0.0)
        n1, n2 = rng.standard_normal(m), rng.standard_normal(m)
        a, b = rng.standard_normal(2)
        lhs = Q(builtin_model, x, vec(a * n1 + b * n2, 0.0))
        rhs = a * Q(builtin_model, x, vec(n1, 0.0)) + b * Q(
            builtin_model, x, vec(n2, 0.0)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_homogeneity_of_fiber(builtin_model):
    if not builtin_model.homogeneous:
        pytest.skip("non-homogeneous fiber")
    rng = np.random.default_rng(1)
    m = builtin_model.dim
    for _ in range(25):
        y = rng.standard_normal((1, m))
        nu = rng.standard_normal((1, m))
        lam = float(np.exp(rng.uniform(-2, 2)))
        l1 = float(builtin_model.L0(y, lam * nu)[0])
        l2 = lam**2 * float(builtin_model.L0(y, nu)[0])
        assert l1 == pytest.approx(l2, rel=1e-9)


def test_action_equals_energy_pointwise_for_lorentz_finsler(builtin_model):
    if not (builtin_model.homogeneous and builtin_model.linear_charge):
        pytest.skip("needs 2-homogeneous L with linear charge")
    rng = np.random.default_rng(2)
    m = builtin_model.dim
    for _ in range(25):
        x = fp.Point(rng.standard_normal(m), rng.standard_normal())
        v = vec(rng.standard_normal(m), rng.standard_normal())
        lv = L(builtin_model, x, v)
        ev = E(builtin_model, x, v)
        assert abs(lv - ev) <= 1e-10 * (1.0 + abs(ev))


# ---------------------------------------------------------------------------
# flow shift
# ---------------------------------------------------------------------------

def shifted_by_flow(v, t):
    """v + t K for the symmetry field K = (0, 1): (nu, tau) -> (nu, tau + t)."""
    return vec(v.nu, v.tau + t)


def test_shift_identity_at_zero():
    x = fp.Point([0.3, -0.2], 0.0)
    v = vec([1.0, 2.0], 3.0)
    w = shifted_by_flow(v, 0.0)
    for model in (FLAT, RANDERS):
        assert L(model, x, w) == L(model, x, v) and E(model, x, w) == E(model, x, v)


def test_shift_flat_energy_value():
    shifted = shifted_by_flow(vec([0, 0], 0.0), 1.0)
    assert E(FLAT, ORIGIN, shifted) == -0.5


def test_shift_randers_action_value():
    shifted = shifted_by_flow(vec([1, 0], 0.0), 2.0)
    assert L(RANDERS, ORIGIN, shifted) == pytest.approx(-0.5, abs=1e-15)


def test_flow_shift_identities(builtin_model):
    """E and L shift by t*Q - t^2/2 (N in place of Q for L when the charge
    is affine)."""
    rng = np.random.default_rng(3)
    m = builtin_model.dim
    for _ in range(40):
        x = fp.Point(rng.standard_normal(m), rng.standard_normal())
        v = vec(rng.standard_normal(m), rng.standard_normal())
        t = float(rng.standard_normal())
        shifted = shifted_by_flow(v, t)
        e0 = E(builtin_model, x, v)
        q0 = Q(builtin_model, x, v)
        n0 = N(builtin_model, x, v)
        e1 = E(builtin_model, x, shifted)
        l1 = L(builtin_model, x, shifted)
        l0 = L(builtin_model, x, v)
        assert abs(e1 - e0 - t * q0 + 0.5 * t * t) < 1e-10 * (1.0 + abs(e1))
        assert abs(l1 - l0 - t * n0 + 0.5 * t * t) < 1e-10 * (1.0 + abs(l1))


# ---------------------------------------------------------------------------
# causal cone
# ---------------------------------------------------------------------------

def test_is_causal_flat_boundary_and_below():
    assert is_causal(FLAT, ORIGIN, vec([1, 0], 1.0))
    assert not is_causal(FLAT, ORIGIN, vec([1, 0], 0.5))


def test_is_causal_randers_value():
    assert is_causal(RANDERS, ORIGIN, vec([1, 0], 2.0))


def test_is_causal_rejects_non_homogeneous():
    model = fp.load_custom_model(OFFSET_FIBER)
    with pytest.raises(fp.UnsupportedModelError):
        is_causal(model, fp.Point([0, 0], 0.0), vec([1, 0], 5.0))
    # A homogeneous fiber with a charge offset: L = L0 + (omega + d) tau -
    # tau^2 / 2 is not 2-homogeneous, so it has no cone (here L = 2 > 0).
    with pytest.raises(fp.UnsupportedModelError):
        is_causal(fp.get_model("affine(flat, 2.0)"), fp.Point([0, 0], 0.0), vec([1, 0], 1.0))


def test_cone_consistency(builtin_model):
    """Inside the cone: L <= 0 and Q <= 0 (up to scale-relative slack)."""
    if not builtin_model.homogeneous:
        pytest.skip("cone needs a 2-homogeneous fiber")
    if not builtin_model.linear_charge:
        pytest.skip("cone inequality stated for the linear charge")
    rng = np.random.default_rng(4)
    m = builtin_model.dim
    for _ in range(40):
        x = fp.Point(rng.standard_normal(m), 0.0)
        nu = rng.standard_normal(m)
        om = float(builtin_model.omega(x.y[None, :], nu[None, :])[0])
        l0 = float(builtin_model.L0(x.y[None, :], nu[None, :])[0])
        tau = om + math.sqrt(om * om + 2 * l0) + abs(rng.standard_normal())
        v = vec(nu, tau)
        assert is_causal(builtin_model, x, v)
        vsq = float(nu @ nu) + tau * tau
        assert L(builtin_model, x, v) <= 1e-12 * (1.0 + vsq)
        assert Q(builtin_model, x, v) <= 1e-12


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_analytic_derivatives_match_finite_differences(builtin_model):
    rng = np.random.default_rng(5)
    m = builtin_model.dim
    y = rng.standard_normal((20, m))
    nu = rng.standard_normal((20, m)) + 0.5
    h = 1e-5
    for j in range(m):
        yp, ym = y.copy(), y.copy()
        yp[:, j] += h
        ym[:, j] -= h
        fd = (builtin_model.L0(yp, nu) - builtin_model.L0(ym, nu)) / (2 * h)
        an = builtin_model.dL0_dy(y, nu)[:, j]
        assert np.allclose(an, fd, rtol=1e-6, atol=1e-8)
        nup, num = nu.copy(), nu.copy()
        nup[:, j] += h
        num[:, j] -= h
        fd = (builtin_model.L0(y, nup) - builtin_model.L0(y, num)) / (2 * h)
        an = builtin_model.dL0_dnu(y, nu)[:, j]
        assert np.allclose(an, fd, rtol=1e-6, atol=1e-8)
        fd = (builtin_model.omega(yp, nu) - builtin_model.omega(ym, nu)) / (2 * h)
        an = builtin_model.domega_dy(y, nu)[:, j]
        assert np.allclose(an, fd, rtol=1e-6, atol=1e-8)


def test_finite_difference_fallback_matches_analytic():
    """A model built from bare evaluators gets usable FD derivatives."""
    bare = fp.build_model(
        2,
        L0=lambda y, nu: 0.5 * np.einsum("ij,ij->i", nu, nu),
        omega=lambda y, nu: 0.5 * nu[:, 0],
        homogeneous=True,
    )
    rng = np.random.default_rng(6)
    y = rng.standard_normal((10, 2))
    nu = rng.standard_normal((10, 2))
    assert np.allclose(bare.dL0_dnu(y, nu), nu, rtol=1e-6, atol=1e-8)
    assert np.allclose(bare.dL0_dy(y, nu), 0.0, atol=1e-8)


# Not 2-homogeneous, with a y-dependent fiber, one-form and offset.
TWIN = {
    "L0": "0.5 nu1^2 + 0.5 nu2^2 + 3 - 0.3 y1^2 + 0.1 y2 nu1^2",
    "omega": "0.2 nu1 + 0.1 y2 nu2",
    "d": "0.1 y1 + 0.05 y2^2",
}


def twin_models():
    """A polynomial model with exact derivatives, and the same functions
    given to build_model bare, so that every derivative is a central
    difference: the E0 partials of an inhomogeneous fiber and dd_dy too."""
    L0, omega, d = (parse_polynomial(TWIN[k], 2) for k in ("L0", "omega", "d"))
    exact = polynomial_model(2, L0, omega, d)
    bare = fp.build_model(2, L0, omega, lambda y: d(y))
    return exact, bare


def test_builtin_E0_partials_are_the_L0_partials(builtin_model):
    """E0 = L0 for a 2-homogeneous fiber: its E0 partials are the L0 ones."""
    assert builtin_model.homogeneous
    assert builtin_model.dE0_dy is builtin_model.dL0_dy
    assert builtin_model.dE0_dnu is builtin_model.dL0_dnu


def test_finite_difference_partials_match_the_polynomial_twin():
    """The bare E0 partials difference an E0 that holds the differenced
    dL0_dnu, so they agree to about 1e-6, the others to about 1e-11."""
    exact, bare = twin_models()
    rng = np.random.default_rng(9)
    y = rng.standard_normal((20, 2))
    nu = rng.standard_normal((20, 2))
    tau = rng.standard_normal(20)
    for name in ("dE0_dy", "dE0_dnu", "dL0_dy", "dL0_dnu", "domega_dy"):
        assert np.allclose(
            getattr(bare, name)(y, nu), getattr(exact, name)(y, nu), rtol=0, atol=1e-5
        ), name
    assert np.allclose(bare.dd_dy(y), exact.dd_dy(y), rtol=0, atol=1e-9)
    for kind in ("E", "L", "D"):
        for a, b in zip(chart_partials(bare, y, nu, tau, kind),
                        chart_partials(exact, y, nu, tau, kind)):
            assert np.allclose(a, b, rtol=0, atol=1e-5), kind


def test_finite_difference_model_solves_like_the_polynomial_twin():
    """The differences are noisy at about 1e-7 in the gradient, so the
    descent stops at a looser tolerance; t_plus agrees all the same.  The
    twins are not Fermat models, so both descents reach dt = 0 and stop as
    "not_critical": their minimizer of t_plus is not a trajectory."""
    exact, bare = twin_models()
    assert not (exact.fermat or bare.fermat)
    p, q = fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.5], 0.0)
    opts = fp.SolverOptions(N=40, grad_tol=1e-5)
    got, want = (fp.minimize_arrival(m, p, q, -3.5, opts=opts) for m in (bare, exact))
    assert got.stop_reason == want.stop_reason == "not_critical"
    assert got.t_plus == pytest.approx(want.t_plus, abs=1e-6)


def test_finite_difference_model_stagnates_at_the_default_tolerance():
    """At the default grad_tol the differenced E0 partials hold the bare
    twin's gradient at about 9e-7: the record says it stagnated, while the
    exact twin reaches dt = 0, where theta is not 0 ("not_critical")."""
    exact, bare = twin_models()
    p, q = fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.5], 0.0)
    opts = fp.SolverOptions(N=40)
    got, want = (fp.minimize_arrival(m, p, q, -3.5, opts=opts) for m in (bare, exact))
    assert (got.stop_reason, got.converged) == ("stagnant", False)
    assert (want.stop_reason, want.converged) == ("not_critical", False)


def test_chart_partials_against_finite_differences():
    model = fp.get_model("affine-field(randers-rot(0.3), 0.2 y1 y2)")
    rng = np.random.default_rng(7)
    y = rng.standard_normal((5, 2))
    nu = rng.standard_normal((5, 2))
    tau = rng.standard_normal(5)
    h = 1e-6
    from fermatpath.models import chart_E, chart_L

    for kind, fn in (("L", chart_L), ("E", chart_E)):
        P, V, w = chart_partials(model, y, nu, tau, kind)
        fd_w = (fn(model, y, nu, tau + h) - fn(model, y, nu, tau - h)) / (2 * h)
        assert np.allclose(w, fd_w, rtol=1e-6, atol=1e-8)
        for j in range(2):
            yp, ym = y.copy(), y.copy()
            yp[:, j] += h
            ym[:, j] -= h
            assert np.allclose(
                P[:, j], (fn(model, yp, nu, tau) - fn(model, ym, nu, tau)) / (2 * h),
                rtol=1e-5, atol=1e-7,
            )
            np_, nm = nu.copy(), nu.copy()
            np_[:, j] += h
            nm[:, j] -= h
            assert np.allclose(
                V[:, j], (fn(model, y, np_, tau) - fn(model, y, nm, tau)) / (2 * h),
                rtol=1e-5, atol=1e-7,
            )


def test_omega_coeffs_reproduce_omega():
    model = fp.get_model("randers-rot(0.3)")
    rng = np.random.default_rng(8)
    y = rng.standard_normal((10, 2))
    nu = rng.standard_normal((10, 2))
    w = omega_coeffs(model, y)
    assert np.allclose(np.einsum("ij,ij->i", w, nu), model.omega(y, nu), rtol=1e-14)


@pytest.mark.parametrize(
    "model",
    [fp.get_model(s) for s in ("flat", "randers-rot(0.3)", "affine-field(randers-rot(0.2), 0.3 y1)")]
    + [POTENTIAL, fp.load_custom_model(OFFSET_FIBER)],
    ids=lambda m: m.name,
)
def test_time_reversed_negates_omega_and_d_exactly(model):
    """omega, d and their derivatives come back negated bit for bit (zero
    evaluators are kept as they are); everything else is the model's own,
    and the energy at -tau is the energy at tau, bit for bit."""
    rev = time_reversed(model)
    rng = np.random.default_rng(11)
    y, nu = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
    tau = rng.standard_normal(50)
    for name in ("omega", "domega_dy", "omega_w", "d_offset", "dd_dy"):
        fn, fn_rev = getattr(model, name), getattr(rev, name)
        args = (y,) if name in ("omega_w", "d_offset", "dd_dy") else (y, nu)
        if fn in (models._zeros, models._zeros_grad):
            assert fn_rev is fn
        else:
            assert fn_rev(*args).tobytes() == (-fn(*args)).tobytes()
    for name in ("L0", "dL0_dy", "dL0_dnu", "dE0_dy", "dE0_dnu"):
        assert getattr(rev, name) is getattr(model, name)
    for name in ("dim", "homogeneous", "periods", "linear_charge", "static", "fermat", "name"):
        assert getattr(rev, name) == getattr(model, name)
    assert models.chart_E(rev, y, nu, -tau).tobytes() == models.chart_E(model, y, nu, tau).tobytes()


@pytest.mark.parametrize("spec, static", [
    ("flat", True),
    ("flat(3)", True),
    ("cylinder(1)", True),
    ("affine(cylinder(1), 0.5)", True),
    ("affine(flat, 0)", True),
    ("randers-rot(0.3)", False),
    ("randers-const(0.5,0)", False),
    ("affine(randers-rot(0.3), 0.5)", False),
    ("affine-field(cylinder(1), 0.3 y1)", False),
    ("affine-field(flat, 0.2 + 0.1 y2^2)", False),
])
def test_static_flag_is_read_off_omega_and_d(spec, static):
    """A model is static when it has no omega and its offset d has no
    y-dependent term, and its time reversal keeps the flag.  A static
    model's charge coefficients are +0.0 on either branch."""
    model = fp.get_model(spec)
    assert model.static is static
    assert time_reversed(model).static is static
    if static:
        y, nu = np.random.default_rng(2).standard_normal((2, 30, model.dim))
        for at_model in (model, time_reversed(model)):
            a = at_model.domega_dy(y, nu) + at_model.dd_dy(y)
            assert a.tobytes() == at_model.omega_w(y).tobytes() == np.zeros(y.shape).tobytes()


@pytest.mark.parametrize("spec, fermat", [
    ("flat", True),
    ("cylinder(1)", True),
    ("randers-const(0.5,0)", True),
    ("randers-rot(0.3)", True),
    ("affine(flat, 2.0)", True),
    ("affine(randers-rot(0.3), 1.5)", True),
    ("affine-field(flat, 0.3 y1)", False),
    ("affine-field(flat, 0.2 + 0.1 y2^2)", False),
    ("affine-field(randers-rot(0.3), 0.1 y1 + 0.05 y2^2)", False),
])
def test_fermat_flag_is_read_off_L0_and_d(spec, fermat):
    """A model is `fermat` when its L0 is 2-homogeneous and its offset d has
    no y-dependent term; its time reversal keeps the flag."""
    model = fp.get_model(spec)
    assert model.fermat is fermat
    assert time_reversed(model).fermat is fermat


@pytest.mark.parametrize("body, fermat", [
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2\n", True),
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2 + 0.1 y1 nu2^2\nomega = 0.2 y2 nu1\n", True),
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2 + 3 - 0.3 y1^2\nomega = 0.2 nu1\n", False),
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2\nd = 0.1 y1\n", False),
])
def test_fermat_flag_of_model_files(tmp_path, body, fermat):
    model = fp.load_custom_model(write_model(tmp_path, "[model]\ndim = 2\n" + body))
    assert model.fermat is fermat


@pytest.mark.parametrize("body, static", [
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2\n", True),
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2\nomega = 0\nd = 0\n", True),
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2 + 3\nomega = 0.2 nu1\n", False),
    ("L0 = 0.5 nu1^2 + 0.5 nu2^2\nd = 0.1 y1\n", False),
])
def test_static_flag_of_model_files(tmp_path, body, static):
    model = fp.load_custom_model(write_model(tmp_path, "[model]\ndim = 2\n" + body))
    assert model.static is static


def test_static_flag_survives_wrapped_evaluators():
    """Evaluators replaced by wrappers of the same functions (as a tracer
    does) keep the flag, and so does the time reversal, which then negates
    the wrapped zeros: its charge coefficients are -0.0 arrays, of one sign
    as those the lift adjoint can be skipped for."""
    model = fp.get_model("cylinder(1)")
    fields = ("omega", "domega_dy", "omega_w", "d_offset", "dd_dy")
    wrapped = dataclasses.replace(
        model, **{k: (lambda f: lambda *args: f(*args))(getattr(model, k)) for k in fields}
    )
    assert wrapped.static and time_reversed(wrapped).static
    rev = time_reversed(wrapped)
    y, nu = np.random.default_rng(3).standard_normal((2, 30, 2))
    a = rev.domega_dy(y, nu) + rev.dd_dy(y)
    assert a.tobytes() == rev.omega_w(y).tobytes() == (-np.zeros(y.shape)).tobytes()


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

def test_validate_flat():
    rep = fp.validate_assumptions(FLAT, [(-2, 2), (-2, 2)], 500, rng_seed=0)
    assert rep.qk_check and rep.growth_ok
    assert rep.convexity_margin >= 1.0 - 1e-9
    assert rep.supL0_at_zero == 0.0
    assert rep.kappa_admissible_bound == 0.0
    assert rep.cone_samples == 500


@pytest.mark.parametrize("spec", [
    "affine(flat, 2.0)",
    "affine(randers-rot(0.3), 2)",
    "affine-field(flat, 0.1 y1 + 0.05 y2^2)",
])
def test_validate_counts_no_cone_samples_for_affine_models(spec):
    rep = fp.validate_assumptions(fp.get_model(spec), [(-2, 2), (-2, 2)], 500, rng_seed=0)
    assert rep.cone_samples == 0


@pytest.mark.parametrize("base", ["flat", "randers-rot(0.3)"])
def test_zero_offset_affine_model_keeps_the_cone(base):
    """affine(base, 0) has no offset terms, so its charge stays linear: it
    samples the base's cone and shares the base's causal verdicts."""
    model, zero = fp.get_model(base), fp.get_model(f"affine({base}, 0)")
    assert zero.linear_charge
    region = [(-2, 2), (-2, 2)]
    assert (
        fp.validate_assumptions(zero, region, 500, rng_seed=0).cone_samples
        == fp.validate_assumptions(model, region, 500, rng_seed=0).cone_samples
        == 500
    )
    for tau in (0.5, 1.0, 2.0):
        v = vec([1, 0], tau)
        assert is_causal(zero, ORIGIN, v) == is_causal(model, ORIGIN, v)
    nodes = np.array([[0.0, 0.0], [1.0, 0.5]])
    assert fp.randers_arrival(zero, nodes) == fp.randers_arrival(model, nodes)


def test_validate_randers_margin_positive():
    rep = fp.validate_assumptions(RANDERS, [(-2, 2), (-2, 2)], 500, rng_seed=1)
    assert rep.convexity_margin > 0.0


def test_validate_offset_fiber_bound():
    model = fp.load_custom_model(OFFSET_FIBER)
    rep = fp.validate_assumptions(model, [(-1, 1), (-1, 1)], 300, rng_seed=2)
    assert rep.supL0_at_zero == pytest.approx(3.0, rel=1e-12)
    assert rep.kappa_admissible_bound == pytest.approx(-3.0, rel=1e-12)
    assert rep.kappa_admissible_bound == -rep.supL0_at_zero


def test_validate_evaluates_the_omega_coefficients_once_per_role(monkeypatch):
    """The convexity quotients of both velocity samples share one evaluation
    of the omega coefficients; the L partials of the growth check make the
    other."""
    calls = []

    def counted(model, y):
        calls.append(len(y))
        return omega_coeffs(model, y)

    monkeypatch.setattr(models, "omega_coeffs", counted)
    fp.validate_assumptions(fp.get_model("randers-rot(0.3)"), [(-1, 1), (-1, 1)], 50)
    assert calls == [50, 50]


def test_validate_rejects_empty_region():
    with pytest.raises(ValueError):
        fp.validate_assumptions(FLAT, [(1, -1), (-1, 1)], 10)
    with pytest.raises(ValueError):
        fp.validate_assumptions(FLAT, [(-1, 1), (-1, 1)], 0)


# ---------------------------------------------------------------------------
# registry and custom definitions
# ---------------------------------------------------------------------------

def test_registry_names_resolve():
    for spec in [
        "flat",
        "flat(3)",
        "randers-const(0.5, 0)",
        "randers-rot(0.3)",
        "cylinder(1)",
        "affine(flat, 2.0)",
        "affine-field(flat, 0.1 y1)",
    ]:
        model = fp.get_model(spec)
        assert model.dim >= 2


def test_registry_rejects_unknown():
    with pytest.raises(fp.ScenarioError):
        fp.get_model("schwarzschild")


@pytest.mark.parametrize(
    "spec", ["randers-rot(0.3, 9)", "cylinder(1, 2)", "flat(2, 7)", "affine(flat, 2, 5)"]
)
def test_registry_rejects_extra_arguments(spec):
    with pytest.raises(fp.ScenarioError, match="does not take"):
        fp.get_model(spec)


def test_registry_has_no_custom_head():
    """A model file is named one way: load_custom_model or [model] file."""
    with pytest.raises(fp.ScenarioError, match="unknown model 'custom'"):
        fp.get_model(f"custom({OFFSET_FIBER})")


@pytest.mark.parametrize("dim", [0, -1])
def test_model_dimension_must_be_positive(dim):
    with pytest.raises(ValueError, match="model dimension must be at least 1"):
        fp.build_model(dim, L0=lambda y, nu: np.zeros(len(y)))
    with pytest.raises(fp.ScenarioError, match="model dimension must be at least 1"):
        fp.get_model(f"flat({dim})")


def test_model_file_dimension_zero_is_rejected(tmp_path):
    f = write_model(tmp_path, "[model]\ndim = 0\nL0 = 3\n")
    with pytest.raises(ValueError, match="model dimension must be at least 1, not 0"):
        fp.load_custom_model(f)


def test_cylinder_periods():
    model = fp.get_model("cylinder(1)")
    assert model.periods == (0.0, 2 * math.pi)
    assert model.topology.startswith("cylinder")
    assert FLAT.topology == "euclidean"


@pytest.mark.parametrize(
    "build",
    [
        lambda: fp.build_model(2, L0=lambda y, nu: np.zeros(len(y)), periods=(0.0, -1.0)),
        lambda: fp.build_model(2, L0=lambda y, nu: np.zeros(len(y)), periods=(math.inf, 0.0)),
        lambda: cylinder_model(-1.0),
        lambda: cylinder_model(0.0),
    ],
)
def test_negative_period_and_radius_are_refused(build):
    """A negative period would flip the sign of a winding class; a period of
    0 means aperiodic and is no cylinder."""
    with pytest.raises(ValueError, match="a (period|cylinder radius) must be"):
        build()


def test_affine_field_offset_values():
    model = fp.get_model("affine-field(flat, 0.1 y1 + 0.05 y2^2)")
    y = np.array([[1.0, 2.0]])
    assert model.d_offset(y)[0] == pytest.approx(0.1 + 0.2, rel=1e-14)
    assert np.allclose(model.dd_dy(y), [[0.1, 0.2]])
    assert not model.linear_charge


def test_custom_model_file_roundtrip():
    model = fp.load_custom_model(OFFSET_FIBER)
    assert model.dim == 2
    assert not model.homogeneous
    x = fp.Point([0.0, 0.0], 0.0)
    # L0 = 1/2 |nu|^2 + 3 at zero velocity
    assert L(model, x, TangentVector([0, 0], 0.0)) == 3.0


def write_model(tmp_path, body):
    f = tmp_path / "model.ini"
    f.write_text(body)
    return str(f)


def test_homogeneity_is_read_off_L0(tmp_path):
    assert "homogeneous" not in inspect.signature(polynomial_model).parameters
    f = write_model(tmp_path, "[model]\ndim = 2\nL0 = 0.5 nu1^2 + 0.5 nu2^2 + 0.1 y1 nu1 nu2\n")
    assert fp.load_custom_model(f).homogeneous


@pytest.mark.parametrize(
    "extra, message",
    [
        ("homogeneous = true\n", "unknown key [model] homogeneous"),
        ("omgea = 0.2 nu1\n", "unknown key [model] omgea"),
        ("[fiber]\nomega = 0.2 nu1\n", "unknown section [fiber]"),
    ],
)
def test_model_file_rejects_unknown_keys(tmp_path, extra, message):
    f = write_model(tmp_path, "[model]\ndim = 2\nL0 = 0.5 nu1^2 + 0.5 nu2^2 + 3\n" + extra)
    with pytest.raises(fp.ScenarioError) as info:
        fp.load_custom_model(f)
    assert str(info.value) == f"{f}: {message}"


@pytest.mark.parametrize(
    "omega, d, message",
    [
        ("0.3 y1 nu2 + 0.5", "0", "omega: every term must have degree 1 in nu, not 0"),
        ("0.3 y1 nu1^2", "0", "omega: every term must have degree 1 in nu, not 2"),
        ("0.2 nu1", "0.1 y1 + nu2", "d: every term must have degree 0 in nu, not 1"),
    ],
)
def test_polynomial_model_rejects_terms_of_the_wrong_nu_degree(omega, d, message):
    """omega = 0.3 y1 nu2 + 0.5 is 0.62 at y = (0.2, 0.1), nu = (1, 2), but
    its nu-gradient w = (0, 0.06) gives w . nu = 0.12 and its basis values
    w . nu = 1.62: omega must be linear in nu, and d free of it."""
    L0 = parse_polynomial("0.5 nu1^2 + 0.5 nu2^2", 2)
    with pytest.raises(fp.ScenarioError) as info:
        polynomial_model(2, L0, parse_polynomial(omega, 2), parse_polynomial(d, 2))
    assert str(info.value) == message
    with pytest.raises(fp.ScenarioError, match="^d: every term must have degree 0"):
        fp.get_model("affine-field(flat, 0.1 nu1)")


def test_validation_flags_a_charge_of_the_symmetry_field_other_than_minus_one():
    """A one-form with a nu-free part, which a model file cannot give, makes
    Q(x, K) = omega(y, 0) - 1 differ from -1."""
    L0, _, dL0_dnu = models._flat_parts(2)
    model = fp.build_model(
        2, L0, omega=lambda y, nu: nu[:, 0] + 1.0, dL0_dnu=dL0_dnu, homogeneous=True
    )
    rep = fp.validate_assumptions(model, [(-1, 1), (-1, 1)], 50)
    assert not rep.qk_check


def test_polynomial_parser_rejects_garbage():
    with pytest.raises(fp.ScenarioError):
        fp.get_model("affine-field(flat, 0.1 z9)")


def test_non_finite_evaluator_raises():
    model = fp.build_model(
        1,
        L0=lambda y, nu: np.where(np.abs(y[:, 0]) > 1, np.inf, 0.5 * nu[:, 0] ** 2),
        homogeneous=False,
    )
    with pytest.raises(fp.ModelEvaluationError):
        L(model, fp.Point([2.0], 0.0), TangentVector([1.0], 0.0))


def test_endpoints_helper_sanity(builtin_model):
    p, q = endpoints_for(builtin_model)
    assert p.y.shape == (builtin_model.dim,)
    assert not np.allclose(p.y, q.y)
