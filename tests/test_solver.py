"""Descent solver: closed-form reproductions, multi-start and winding
classes, certification residuals, branch consistency, seeding, and the
evaluator-call budget of one iteration."""
import dataclasses
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

import fermatpath as fp
from fermatpath import paths, solve
from fermatpath.arrival import arrival_gradient
from fermatpath.models import time_reversed
from fermatpath.paths import path_state, winding
from fermatpath.solve import DUPLICATE_TOL, conservation_check, el_residual, seed_path

from conftest import (
    BENCH_POLYNOMIAL_MODEL,
    BUILTIN_SPECS,
    DATA,
    OFFSET_FIBER,
    POTENTIAL,
    endpoints_for,
    on_branch,
    reflected,
    smooth_path,
)


FLAT = fp.get_model("flat")
P0 = fp.Point([0.0, 0.0], 0.0)
Q34 = fp.Point([3.0, 4.0], 0.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_flat_lightlike_minimizer():
    rec = fp.minimize_arrival(FLAT, P0, Q34, 0.0)
    assert rec.converged
    assert rec.t_plus == pytest.approx(5.0, abs=1e-6)
    assert rec.el_residual < 1e-4
    assert rec.energy_dev < 1e-6
    # the reconstructed trajectory ends at the flowed endpoint
    assert rec.geodesic.t[-1] == pytest.approx(rec.t_plus, rel=1e-12)
    assert np.allclose(rec.geodesic.y[-1], Q34.y)


def test_flat_timelike_minimizer():
    rec = fp.minimize_arrival(FLAT, P0, Q34, -0.5)
    assert rec.t_plus == pytest.approx(math.sqrt(26.0), abs=1e-6)


def test_randers_drift_asymmetry():
    model = fp.get_model("randers-const(0.5,0)")
    a = fp.Point([0.0, 0.0], 0.0)
    b = fp.Point([1.0, 0.0], 0.0)
    with_drift = fp.minimize_arrival(model, a, b, 0.0)
    against = fp.minimize_arrival(model, b, a, 0.0)
    assert with_drift.t_plus == pytest.approx(0.5 + math.sqrt(1.25), abs=1e-6)
    assert against.t_plus == pytest.approx(-0.5 + math.sqrt(1.25), abs=1e-6)
    # lift correspondence with the straight spatial segment
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert with_drift.t_plus == pytest.approx(
        fp.randers_arrival(model, seg), rel=1e-8
    )


def test_kappa_inadmissible_raises():
    with pytest.raises(fp.AdmissibilityError):
        fp.minimize_arrival(FLAT, P0, Q34, 0.25)


def test_degenerate_endpoints_raise():
    with pytest.raises(ValueError):
        fp.minimize_arrival(FLAT, P0, fp.Point([0.0, 0.0], 3.0), 0.0)
    cyl = fp.get_model("cylinder(1)")
    with pytest.raises(ValueError):
        fp.minimize_arrival(
            cyl, P0, fp.Point([0.0, 2.0 * math.pi], 1.0), 0.0
        )


# ---------------------------------------------------------------------------
# multi-start and winding classes
# ---------------------------------------------------------------------------

def test_cylinder_winding_arrival_times():
    model = fp.get_model("cylinder(1)")
    p = fp.Point([0.0, 0.0], 0.0)
    q = fp.Point([1.0, 1.0], 0.0)
    records = fp.multi_start(model, p, q, 0.0, seeds=[-2, -1, 0, 1, 2])
    assert len(records) == 5
    times = [r.t_plus for r in records]
    assert times == sorted(times)
    for rec in records:
        k = rec.winding[1]
        exact = math.sqrt(1.0 + (1.0 + 2.0 * math.pi * k) ** 2)
        assert rec.converged
        assert rec.t_plus == pytest.approx(exact, abs=1e-5)
    # arrival grows with |k| past the minimizer
    by_k = {r.winding[1]: r.t_plus for r in records}
    assert by_k[0] < by_k[-1] < by_k[1] < by_k[-2] < by_k[2]


def test_flat_random_seeds_merge():
    records = fp.multi_start(FLAT, P0, Q34, 0.0, seeds=["random"] * 8)
    assert len(records) == 1
    assert records[0].t_plus == pytest.approx(5.0, abs=1e-6)


def test_seed_independence_spread():
    records = []
    for idx in range(8):
        rng = np.random.default_rng((99, idx))
        records.append(
            fp.minimize_arrival(FLAT, P0, Q34, 0.0, "random", rng=rng)
        )
    times = [r.t_plus for r in records]
    assert max(times) - min(times) < 1e-6


def test_multi_start_keeps_converged_over_unconverged_duplicate():
    """A converged record beats an unconverged duplicate even when the
    duplicate has the smaller EL residual; the residual breaks ties only."""
    model = fp.get_model("randers-rot(0.3)")
    p, q = fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.7], 0.2)
    opts = fp.SolverOptions(N=200, max_iters=20)
    seeds = [0] + ["random"] * 6
    solo = [
        fp.minimize_arrival(model, p, q, -0.5, spec, opts, rng=np.random.default_rng((0, i)))
        for i, spec in enumerate(seeds)
    ]
    assert solo[0].converged
    # The scenario has what the rule decides: unconverged duplicates of the
    # converged record with smaller residuals.
    assert any(
        not r.converged
        and abs(r.t_plus - solo[0].t_plus) <= DUPLICATE_TOL
        and r.el_residual < solo[0].el_residual
        for r in solo[1:]
    )
    records = fp.multi_start(model, p, q, -0.5, seeds, opts)
    assert [(r.seed, r.converged) for r in records if r.winding == (0, 0)] == [("0", True)]


def test_multi_start_collects_seed_failures():
    # endpoint on the same flow line fails in minimize_arrival per seed;
    # a None-ish bad seed spec does not kill the whole run
    model = fp.get_model("cylinder(1)")
    p = fp.Point([0.0, 0.0], 0.0)
    q = fp.Point([1.0, 1.0], 0.0)
    records = fp.multi_start(model, p, q, 0.0, seeds=[0, "not-a-seed"])
    assert len(records) == 1


def test_multi_start_logs_model_evaluation_failure(caplog):
    # L0 is infinite for y1 > 0.5, which every path from P0 to (1, 0) crosses
    model = fp.build_model(
        2,
        L0=lambda y, nu: 0.5 * np.einsum("ij,ij->i", nu, nu)
        + np.where(y[:, 0] > 0.5, np.inf, 0.0),
        homogeneous=True,
    )
    q = fp.Point([1.0, 0.0], 0.0)
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        records = fp.multi_start(model, P0, q, 0.0, seeds=[0, "random"])
    assert records == []
    assert sum("failed" in r.getMessage() for r in caplog.records) == 2


def test_two_segment_grid_converges():
    model = fp.get_model("randers-rot(0.3)")
    rec = fp.minimize_arrival(
        model, P0, fp.Point([1.0, 0.7], 0.2), -0.5, opts=fp.SolverOptions(N=2)
    )
    assert rec.converged
    assert rec.z_star.segments == 2


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_el_residual_straight_line_exact():
    # dyadic grid keeps the straight nodes exactly collinear
    z = fp.straight_path(P0, fp.Point([3.0, 4.0], 2.0), 128)
    assert el_residual(FLAT, z) < 1e-12


def test_el_residual_parabolic_path():
    n = 64
    s = np.arange(n + 1) / n
    y = np.stack([s * (1 - s), np.zeros(n + 1)], axis=1)
    z = fp.DiscretePath(y, np.zeros(n + 1))
    # second derivative of s(1-s) is -2; no force balances it
    assert el_residual(FLAT, z) == pytest.approx(2.0, rel=1e-9)


def test_el_residual_refines_at_second_order():
    model = fp.get_model("randers-rot(0.3)")
    p = fp.Point([1.0, 0.0], 0.0)
    q = fp.Point([-0.2, 1.1], 0.0)
    res = {}
    for n in (100, 200):
        opts = fp.SolverOptions(N=n, grad_tol=1e-8, max_iters=20000)
        rec = fp.minimize_arrival(model, p, q, 0.0, opts=opts)
        assert rec.converged
        res[n] = rec.el_residual
    assert res[200] < 1e-4
    assert math.log2(res[100] / res[200]) >= 1.9


def test_conservation_on_flat_lightlike():
    rec = fp.minimize_arrival(FLAT, P0, Q34, 0.0)
    energy_dev, noether_dev = conservation_check(FLAT, rec.geodesic, 0.0)
    assert energy_dev < 1e-12
    assert noether_dev < 1e-12


def test_conservation_on_randers_rot():
    model = fp.get_model("randers-rot(0.3)")
    rec = fp.minimize_arrival(
        model,
        fp.Point([1.0, 0.0], 0.0),
        fp.Point([-0.2, 1.1], 0.0),
        0.0,
        opts=fp.SolverOptions(N=200, grad_tol=1e-8, max_iters=20000),
    )
    assert rec.converged
    assert rec.energy_dev < 1e-4
    assert rec.noether_dev < 1e-9


def test_certification_chain():
    model = fp.get_model("randers-rot(0.3)")
    kappa = -0.7
    opts = fp.SolverOptions(N=150, grad_tol=1e-8, max_iters=20000)
    rec = fp.minimize_arrival(
        model, fp.Point([1.0, 0.0], 0.0), fp.Point([-0.2, 1.1], 0.3), kappa, opts=opts
    )
    assert rec.converged
    arr = rec.arrival
    scale = 1.0 + abs(arr.Q_bar) + abs(arr.E_val)
    assert abs(arr.t_plus + arr.t_minus - 2 * arr.Q_bar) < 1e-10 * scale
    assert abs(arr.t_plus * arr.t_minus - 2 * (kappa - arr.E_val)) < 1e-10 * scale
    e_geo = path_state(model, rec.geodesic).E_val
    assert abs(e_geo - kappa) < 1e-6 * (1.0 + abs(kappa))
    assert rec.el_residual < 10 * opts.grad_tol * opts.N
    assert rec.noether_dev < 1e-9
    g = arrival_gradient(model, rec.z_star, kappa)
    assert g.norm <= opts.grad_tol


def test_non_convergence_reported():
    model = fp.get_model("randers-rot(0.3)")
    opts = fp.SolverOptions(N=100, grad_tol=1e-15, max_iters=3)
    rec = fp.minimize_arrival(
        model, fp.Point([1.0, 0.0], 0.0), fp.Point([-0.2, 1.1], 0.0), 0.0,
        "random", opts=opts,
    )
    assert not rec.converged
    assert rec.iters == 3
    assert rec.stop_reason == "max_iters"


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def test_minus_branch_reverses_plus():
    """On drift-free models the latest past arrival of the reversed problem
    mirrors the future arrival of the forward one."""
    fwd = fp.minimize_arrival(FLAT, P0, Q34, 0.0)
    rev = fp.minimize_arrival(FLAT, Q34, P0, 0.0, branch="minus")
    assert rev.converged
    assert rev.arrival.t_minus == pytest.approx(-fwd.t_plus, abs=1e-8)
    fwd2 = fp.minimize_arrival(FLAT, P0, Q34, -1.0)
    rev2 = fp.minimize_arrival(FLAT, Q34, P0, -1.0, branch="minus")
    assert rev2.arrival.t_minus == pytest.approx(-fwd2.t_plus, abs=1e-8)


REFLECTION_CASES = [
    pytest.param(fp.get_model(spec), -0.5, id=spec)
    for spec in (
        "flat", "flat(3)", "cylinder(1)", "randers-rot(0.3)", "randers-const(0.2,-0.1)",
        "affine(cylinder(1), 0.5)", "affine-field(flat, 0.3 y1)",
        "affine-field(randers-rot(0.3), 0.1 y1 + 0.05 y2^2)",
    )
] + [
    pytest.param(fp.load_custom_model(str(DATA / "golden" / name)), -0.5, id=name)
    for name in ("polynomial.model.ini", "static.model.ini")
] + [pytest.param(POTENTIAL, -3.5, id="potential")]


@pytest.mark.parametrize("init", [0, 1, "random"])
@pytest.mark.parametrize("model, kappa", REFLECTION_CASES)
def test_minus_record_is_the_reflected_plus_record(model, kappa, init):
    """A minus record is, bit for bit, the plus record of the reversed
    problem (the time-reversed model, the reflected endpoints, the same rng)
    reflected back: the t-nodes of its paths and its Q_bar are 0.0 minus
    those of the plus record, and every other field, the certificates
    included, is equal."""
    def bits(*values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]

    p, q = endpoints_for(model)
    opts = fp.SolverOptions(N=40)
    minus = fp.minimize_arrival(
        model, p, q, kappa, init, opts, branch="minus", rng=np.random.default_rng(0)
    )
    plus = fp.minimize_arrival(
        time_reversed(model), reflected(p), reflected(q), kappa, init, opts,
        rng=np.random.default_rng(0),
    )
    for mine, theirs in ((minus.z_star, plus.z_star), (minus.geodesic, plus.geodesic)):
        assert bits(mine.y, mine.t) == bits(theirs.y, 0.0 - theirs.t)
    a, b = minus.arrival, plus.arrival
    assert bits(a.Q_bar, a.S, a.E_val, a.kappa) == bits(0.0 - b.Q_bar, b.S, b.E_val, b.kappa)
    assert a.branch_valid == b.branch_valid
    fields = ("el_residual", "energy_dev", "noether_dev")
    assert bits(*(getattr(minus, f) for f in fields)) == bits(*(getattr(plus, f) for f in fields))
    fields = ("winding", "iters", "stop_reason", "seed")
    assert [getattr(minus, f) for f in fields] == [getattr(plus, f) for f in fields]


@pytest.mark.parametrize("branch", ["Plus", "MINUS", "minus ", ""])
def test_bad_branch_raises_in_every_entry_point(branch):
    """A misspelled branch is an error, not a silent run of the other one.
    The solver entry points are the only ones that take a branch."""
    calls = (
        lambda: fp.minimize_arrival(FLAT, P0, Q34, 0.0, branch=branch),
        # Raised before the per-seed try, not logged as failed seeds.
        lambda: fp.multi_start(FLAT, P0, Q34, 0.0, [0, "random"], branch=branch),
    )
    for call in calls:
        with pytest.raises(ValueError, match="branch must be 'plus' or 'minus'"):
            call()


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_seed_path_windings_project():
    model = fp.get_model("cylinder(1)")
    p = fp.Point([0.0, 0.0], 0.0)
    q = fp.Point([1.0, 1.0], 0.0)
    z = seed_path(model, p, q, 50, 2)
    assert winding(z) == (0, 2)
    assert z.noether_dev < 1e-12


def test_seed_path_accepts_existing_path():
    rng = np.random.default_rng(31)
    z0 = smooth_path(FLAT, P0, Q34, 64, rng)
    z = seed_path(FLAT, P0, Q34, 200, z0)
    assert z.segments == 200
    assert np.allclose(z.y[0], P0.y) and np.allclose(z.y[-1], Q34.y)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        fp.SolverOptions(max_iters=0)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"grad_tol": math.inf}, "grad_tol must be positive and finite"),
        ({"grad_tol": math.nan}, "grad_tol must be positive and finite"),
        ({"grad_tol": -1e-7}, "grad_tol must be positive and finite"),
        ({"rng_seed": -1}, "rng_seed must be at least 0"),
    ],
)
def test_solver_options_reject_non_finite_tolerance_and_negative_seed(kw, message):
    with pytest.raises(ValueError, match=message):
        fp.SolverOptions(**kw)


# ---------------------------------------------------------------------------
# descent exits
# ---------------------------------------------------------------------------

Q_OFF = fp.Point([1.0, 0.7], 0.2)


def test_line_search_backtracks_and_converges(monkeypatch):
    """A strong drift makes full steps overshoot: the line search shrinks
    some of them (102 trials over 81 iterations) and the descent converges."""
    calls = []
    original = solve.arrival_times

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solve, "arrival_times", counted)
    model = fp.get_model("randers-rot(2)")
    opts = fp.SolverOptions(N=200)
    rec = fp.minimize_arrival(model, P0, Q_OFF, -0.5, "random", opts)
    trials = len(calls) - 1  # the first call evaluates the seed
    assert rec.converged
    assert trials > rec.iters  # one trial per accepted step, plus rejections


def _inadmissible_trials(monkeypatch, trials):
    """Make `solve.arrival_times` refuse the given trials (1 = the first;
    call 0 evaluates the seed) as inadmissible."""
    calls = itertools.count()
    original = solve.arrival_times

    def refusing(*args):
        if next(calls) in trials:
            raise fp.AdmissibilityError("refused trial")
        return original(*args)

    monkeypatch.setattr(solve, "arrival_times", refusing)


def test_inadmissible_trial_is_shrunk(monkeypatch):
    """A trial whose arrival times are refused is halved like a rejected
    one: the descent reaches the minimizer of an undisturbed run."""
    model = fp.get_model("randers-rot(0.3)")
    opts = fp.SolverOptions(N=60)
    plain = fp.minimize_arrival(model, P0, Q_OFF, -0.5, opts=opts)
    _inadmissible_trials(monkeypatch, {1, 2})
    rec = fp.minimize_arrival(model, P0, Q_OFF, -0.5, opts=opts)
    assert rec.converged
    assert rec.t_plus == pytest.approx(plain.t_plus, rel=1e-10)


def test_line_search_stall_stops_unconverged(caplog, monkeypatch):
    """When every trial of an iteration is refused, the line search stalls:
    the descent stops there, unconverged, at the seed."""
    model = fp.get_model("randers-rot(0.3)")
    opts = fp.SolverOptions(N=60)
    seed = solve.seed_path(model, P0, Q_OFF, 60)
    _inadmissible_trials(monkeypatch, range(1, 61))
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        rec = fp.minimize_arrival(model, P0, Q_OFF, -0.5, opts=opts)
    assert not rec.converged and rec.iters == 1
    assert rec.stop_reason == "line_search_stall"
    assert np.array_equal(rec.z_star.y, seed.y)
    assert len(caplog.records) == 1
    assert re.fullmatch(
        r"line search stalled at iteration 1 \(\|grad\|=[0-9.e+-]+\)",
        caplog.records[0].getMessage(),
    )


def test_descent_stops_when_stagnant(caplog):
    """Past the double-precision floor of t_plus, accepted steps stop moving
    it: the descent stops as stagnant (after 72 iterations), unconverged."""
    model = fp.get_model("randers-rot(0.3)")
    opts = fp.SolverOptions(N=100, grad_tol=1e-9)
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        rec = fp.minimize_arrival(model, P0, Q_OFF, -0.5, "random", opts)
    assert not rec.converged and rec.stop_reason == "stagnant"
    assert rec.iters < opts.max_iters
    assert len(caplog.records) == 1
    assert re.fullmatch(
        rf"objective stagnant at double precision after {rec.iters} iterations "
        r"\(\|grad\|=[0-9.e+-]+\)",
        caplog.records[0].getMessage(),
    )


def test_iteration_cap_is_warned(caplog):
    """A descent cut off by max_iters says so, with the iteration count and
    the last gradient norm, as a stall and stagnation do."""
    model = fp.get_model("randers-rot(0.3)")
    opts = fp.SolverOptions(N=100, grad_tol=1e-15, max_iters=3)
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        rec = fp.minimize_arrival(model, P0, Q_OFF, -0.5, "random", opts)
    assert rec.stop_reason == "max_iters" and rec.iters == 3
    assert len(caplog.records) == 1
    assert re.fullmatch(
        r"iteration cap reached after 3 iterations \(\|grad\|=[0-9.e+-]+\)",
        caplog.records[0].getMessage(),
    )


@pytest.mark.parametrize("options, reason", [({}, "grad_tol"), ({"max_iters": 1}, "max_iters")])
def test_stop_reason_names_the_stop(caplog, options, reason):
    """The record says why the descent stopped, and only `converged` of
    that goes into the record's dict, so no output byte carries it.  A
    converged descent logs no warning."""
    model = fp.get_model("randers-rot(0.3)")
    opts = fp.SolverOptions(N=60, **options)
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        rec = fp.minimize_arrival(model, P0, Q_OFF, -0.5, "random", opts)
    assert rec.stop_reason == reason
    assert rec.converged == (reason == "grad_tol")
    assert len(caplog.records) == (0 if rec.converged else 1)
    assert "stop_reason" not in rec.as_dict()
    assert "stop_reason" not in solve.record_to_json(rec)


# ---------------------------------------------------------------------------
# theta where a descent stops: models that are not Fermat models
# ---------------------------------------------------------------------------

# The reference models whose minimizer of t_plus is not a trajectory, from
# p = (0, 0) to q = (1, 0.5).
Q_REF = fp.Point([1.0, 0.5], 0.0)
NOT_FERMAT_CASES = [pytest.param(POTENTIAL, -3.5, id="potential")] + [
    pytest.param(fp.get_model(spec), -0.5, id=spec)
    for spec in ("affine-field(flat, 0.3 y1)", "affine-field(flat, 0.1 y1 + 0.05 y2^2)")
]
NOT_CRITICAL = re.compile(
    r"dt = 0 after (\d+) iterations, but theta is ([0-9.e+-]+): not a trajectory"
)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("model, kappa", NOT_FERMAT_CASES)
def test_record_of_a_model_that_is_not_fermat_is_not_converged(caplog, model, kappa, branch):
    """dt = 0 is the trajectory equation only for a Fermat model.  These
    descents reach grad_tol where theta, of the final iterate of the
    branch's problem, is about 0.03 to 0.11: the record stops as
    "not_critical", is not converged, and one warning names its iterations
    and theta."""
    assert not model.fermat
    opts = fp.SolverOptions(N=100)
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        rec = fp.minimize_arrival(model, P0, Q_REF, kappa, "random", opts, branch=branch)
    assert (rec.stop_reason, rec.converged) == ("not_critical", False)
    at_model, at_path = on_branch(model, rec.z_star, branch)
    theta = fp.criticality_residual(at_model, at_path, kappa)
    assert theta > 0.01
    assert arrival_gradient(at_model, at_path, kappa).norm <= opts.grad_tol
    [message] = [r.getMessage() for r in caplog.records]
    assert NOT_CRITICAL.fullmatch(message).groups() == (str(rec.iters), f"{theta:.3g}")


def test_multi_start_logs_each_seed_that_is_not_critical(caplog):
    """Each seed of a model that is not a Fermat model logs its warning,
    and no record is converged."""
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        records = fp.multi_start(POTENTIAL, P0, Q_REF, -3.5, [0, "random"], fp.SolverOptions(N=100))
    assert records and not any(rec.converged for rec in records)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2 and all(NOT_CRITICAL.fullmatch(m) for m in messages)


FERMAT_CASES = [
    pytest.param(fp.get_model(spec), -0.5, id=spec)
    for spec in ("flat", "cylinder(1)", "randers-rot(0.3)", "affine(randers-rot(0.3), 1.5)")
] + [pytest.param(fp.load_custom_model(BENCH_POLYNOMIAL_MODEL), -0.5, id="polynomial")]


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("model, kappa", FERMAT_CASES)
def test_fermat_record_is_not_checked_and_keeps_its_bits(monkeypatch, model, kappa, branch):
    """A Fermat model's descent never evaluates theta, where theta = dt, and
    its record has the bits of the same model with the flag cleared, whose
    descent checks theta where it stops and finds it at grad_tol."""
    assert model.fermat
    p, q = endpoints_for(model)
    opts = fp.SolverOptions(N=60)
    checked = fp.minimize_arrival(
        dataclasses.replace(model, fermat=False), p, q, kappa, "random", opts, branch=branch
    )

    def refuse(*args):
        raise AssertionError("theta evaluated for a Fermat model")

    monkeypatch.setattr(solve, "criticality_residual", refuse)
    rec = fp.minimize_arrival(model, p, q, kappa, "random", opts, branch=branch)
    assert rec.stop_reason == checked.stop_reason == "grad_tol"
    assert solve.record_to_json(rec) == solve.record_to_json(checked)
    for a, b in ((rec.z_star, checked.z_star), (rec.geodesic, checked.geodesic)):
        assert a.y.tobytes() == b.y.tobytes() and a.t.tobytes() == b.t.tobytes()


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("spec", ["randers-rot(0.3)", "cylinder(1)"])
def test_descent_forms_no_t_part(monkeypatch, spec, branch):
    """The descent reads only the spatial part of each gradient: with the
    symmetry part refused, every record keeps its bits."""
    model = fp.get_model(spec)
    p, q = endpoints_for(model)
    seeds = [-1, 0, 1] if model.periods else [0, "random"]
    opts = fp.SolverOptions(N=40)

    def run():
        records = fp.multi_start(model, p, q, -0.5, seeds, opts, branch=branch)
        assert records and all(r.converged for r in records)
        return [(repr(r.as_dict()), r.z_star.y.tobytes(), r.z_star.t.tobytes())
                for r in records]

    expected = run()

    def refuse(*args):
        raise AssertionError("a t-part was formed")

    monkeypatch.setattr(paths, "_symmetry_part", refuse)
    assert run() == expected
    z = fp.project_to_N(model, fp.straight_path(p, q, 10))
    with pytest.raises(AssertionError, match="t-part"):
        paths.tangent_split(model, z, paths.TangentField(np.ones((11, 2)), np.ones(11)))


def test_affine_zero_offset_matches_base():
    base = fp.minimize_arrival(FLAT, P0, Q34, 0.0)
    wrapped = fp.minimize_arrival(fp.get_model("affine(flat, 0.0)"), P0, Q34, 0.0)
    assert wrapped.t_plus == pytest.approx(base.t_plus, abs=1e-9)
    assert wrapped.el_residual == pytest.approx(base.el_residual, abs=1e-9)


def test_affine_constant_offset_same_trajectory():
    """A constant charge offset shifts the conserved charge but not the
    minimizing trajectory or its arrival."""
    base = fp.minimize_arrival(FLAT, P0, Q34, -0.5)
    wrapped = fp.minimize_arrival(fp.get_model("affine(flat, 2.0)"), P0, Q34, -0.5)
    assert wrapped.t_plus == pytest.approx(base.t_plus, abs=1e-9)
    assert np.allclose(wrapped.z_star.t, base.z_star.t, atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation budget
# ---------------------------------------------------------------------------

def _counting(model):
    """The model with each evaluator wrapped in a call counter."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    evaluators = {
        f.name: counted(f.name, getattr(model, f.name))
        for f in dataclasses.fields(model)
        if callable(getattr(model, f.name))
    }
    return dataclasses.replace(model, **evaluators), calls


@pytest.mark.parametrize(
    "spec", ["randers-rot(0.3)", "affine-field(flat, 0.1 y1 + 0.05 y2^2)"]
)
def test_iteration_evaluator_call_budget(spec):
    """Gradient plus line search evaluate the model at most 10 times per
    iteration: the iterate's state is evaluated once, not per consumer."""
    q = fp.Point([1.0, 0.7], 0.2)
    totals = []
    for max_iters in (3, 6):
        model, calls = _counting(fp.get_model(spec))
        opts = fp.SolverOptions(N=200, max_iters=max_iters)
        rec = fp.minimize_arrival(model, P0, q, -0.5, opts=opts)
        assert not rec.converged and rec.iters == max_iters
        totals.append(sum(calls.values()))
    assert (totals[1] - totals[0]) / 3 <= 10


def _counting_geometry(monkeypatch):
    """Counters of the segment geometry helpers of `paths`, which
    path_state and project_to_N look up at call time."""
    calls = Counter()
    for name in ("segment_geometry", "_spatial_geometry", "_segment_rate"):
        fn = getattr(paths, name)

        def wrapper(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(paths, name, wrapper)
    return calls


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize(
    "spec", ["randers-rot(0.3)", "affine-field(flat, 0.1 y1 + 0.05 y2^2)"]
)
def test_record_geodesic_is_evaluated_once(monkeypatch, spec, branch):
    """After the descent, certifying a record builds one state of its
    geodesic: one segment geometry and one omega evaluation at its
    midpoints, which el_residual and conservation_check both read.  The
    record keeps plain paths, not states.  (The theta check of a model that
    is not `fermat` reads the descent's own state, inside the descent.)"""
    geometry = _counting_geometry(monkeypatch)
    omega_at = []

    def omega(y, nu, _fn=fp.get_model(spec).omega):
        omega_at.append(y)
        return _fn(y, nu)

    model = dataclasses.replace(fp.get_model(spec), omega=omega)
    descend = solve._descend
    seen = {}

    def descend_then_mark(*args):
        result = descend(*args)
        seen["geometry"], seen["omega"] = Counter(geometry), len(omega_at)
        return result

    monkeypatch.setattr(solve, "_descend", descend_then_mark)
    q = fp.Point([1.0, 0.7], 0.2)
    rec = fp.minimize_arrival(model, P0, q, -0.5, opts=fp.SolverOptions(N=200), branch=branch)
    assert type(rec.z_star) is fp.DiscretePath
    assert type(rec.geodesic) is fp.DiscretePath
    # segment_geometry forms its spatial half and t-rate once each.
    assert geometry - seen["geometry"] == Counter(
        segment_geometry=1, _spatial_geometry=1, _segment_rate=1
    )
    mid_y = paths._spatial_geometry(rec.geodesic)[0]
    after = omega_at[seen["omega"]:]
    assert sum(y.shape == mid_y.shape and np.array_equal(y, mid_y) for y in after) == 1

    # Given the state, neither check computes any geometry or evaluates
    # omega anywhere: el_residual's node term is dL/dx alone, which has no
    # omega term.
    state = path_state(model, rec.geodesic)
    geometry.clear()
    del omega_at[:]
    el_residual(model, state)
    conservation_check(model, state, -0.5)
    assert geometry == Counter()
    assert omega_at == []


# ---------------------------------------------------------------------------
# evaluator results are read, never written
# ---------------------------------------------------------------------------

EVALUATORS = (
    "L0", "dL0_dy", "dL0_dnu", "omega", "domega_dy", "omega_w",
    "d_offset", "dd_dy", "dE0_dy", "dE0_dnu",
)


def wrapped_evaluators(model, read_only):
    """The model with every evaluator wrapped; with `read_only` each result
    is returned as a read-only view, so a write into it raises."""
    def wrap(fn):
        def evaluate(*args):
            out = fn(*args)
            if read_only:
                out = np.asarray(out).view()
                out.flags.writeable = False
            return out

        return evaluate

    return dataclasses.replace(model, **{k: wrap(getattr(model, k)) for k in EVALUATORS})


def read_only_cases():
    cases = [pytest.param(fp.get_model(spec), -0.5, id=spec) for spec in BUILTIN_SPECS]
    return cases + [
        pytest.param(POTENTIAL, -3.5, id="potential"),
        pytest.param(fp.load_custom_model(OFFSET_FIBER), -3.5, id="offset-fiber"),
        pytest.param(fp.load_custom_model(BENCH_POLYNOMIAL_MODEL), -0.5, id="polynomial"),
    ]


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("model, kappa", read_only_cases())
def test_evaluator_results_are_never_written(model, kappa, branch):
    """An evaluator's result may share memory with its input (flat fibers
    return nu from dL0_dnu), so no kernel may write it.  With every result
    read-only, a solve with its certification, the criticality residual and
    the sampled validation run and give the bits of the same model whose
    results are writable."""
    p, q = endpoints_for(model)
    opts = fp.SolverOptions(N=40)
    outputs = []
    for read_only in (True, False):
        at_model = wrapped_evaluators(model, read_only)
        rec = fp.minimize_arrival(at_model, p, q, kappa, "random", opts, branch=branch)
        report = fp.validate_assumptions(at_model, [(-1, 1)] * model.dim, 50)
        outputs.append((
            solve.record_to_json(rec),
            rec.z_star.y.tobytes(), rec.z_star.t.tobytes(), rec.geodesic.t.tobytes(),
            fp.criticality_residual(at_model, rec.z_star, kappa) if branch == "plus" else None,
            report.as_dict(),
        ))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# known defects
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the projected straight seed misses the constraint check by 3.62x "
    "at N = 5e4, so seed 0 fails before its first iteration (ROADMAP item 4)",
)
def test_fine_grid_straight_seed_converges(caplog):
    """On randers-rot(0.3) at N = 5e4 and kappa = -0.5, the straight seed
    gives one converged record and logs no failure."""
    model = fp.get_model("randers-rot(0.3)")
    with caplog.at_level("WARNING", logger="fermatpath.solve"):
        records = fp.multi_start(
            model, P0, fp.Point([1.0, 0.7], 0.2), -0.5, [0], fp.SolverOptions(N=50_000)
        )
    assert not [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
    assert len(records) == 1 and records[0].converged
