"""Acceptance suite.

One test per criterion, each printing a pass/fail line:
  1.  flat lightlike arrival reproduces the euclidean closed form
  2.  flat timelike arrival reproduces sqrt(d^2 + 2|kappa|)
  3.  drift asymmetry matches the optical length both ways
  4.  winding multiplicity on the cylinder with closed-form arrivals
  5.  identity suite over >= 1000 random draws across builtin models
  6.  directional derivatives match projected finite differences
  7.  criticality residual reduces to the gradient norm (homogeneous)
  8.  affine-charge consistency (zero offset; constant offset corollary)
  9.  stationarity residual refines at second order
  10. validation gate rejects inadmissible kappa with exit code 3
"""
import math
import os
import time
import zlib

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.arrival import (
    D_functional,
    arrival_gradient,
    dt_plus,
)
from fermatpath.cli import EXIT_VALIDATION, main
from fermatpath.paths import action, path_state, tangent_split

from conftest import BUILTIN_SPECS, endpoints_for, on_branch, smooth_field, smooth_path


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_acceptance_01_flat_lightlike():
    t0 = time.perf_counter()
    rec = fp.minimize_arrival(
        fp.get_model("flat"),
        fp.Point([0, 0], 0.0),
        fp.Point([3, 4], 0.0),
        0.0,
        opts=fp.SolverOptions(N=200),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rec.converged
        and abs(rec.t_plus - 5.0) < 1e-6
        and rec.el_residual < 1e-4
        and rec.energy_dev < 1e-6
        and elapsed < 5.0
    )
    report(
        "criterion 1: flat lightlike arrival",
        ok,
        f"t+={rec.t_plus:.9f} el={rec.el_residual:.2e} "
        f"edev={rec.energy_dev:.2e} {elapsed:.2f}s",
    )


def test_acceptance_02_flat_timelike():
    rec = fp.minimize_arrival(
        fp.get_model("flat"),
        fp.Point([0, 0], 0.0),
        fp.Point([3, 4], 0.0),
        -0.5,
        opts=fp.SolverOptions(N=200),
    )
    exact = math.sqrt(26.0)
    ok = rec.converged and abs(rec.t_plus - exact) < 1e-6
    report(
        "criterion 2: flat timelike arrival",
        ok,
        f"t+={rec.t_plus:.9f} vs sqrt(26)={exact:.9f}",
    )


def test_acceptance_03_drift_asymmetry():
    model = fp.get_model("randers-const(0.5,0)")
    a, b = fp.Point([0, 0], 0.0), fp.Point([1, 0], 0.0)
    opts = fp.SolverOptions(N=200)
    with_drift = fp.minimize_arrival(model, a, b, 0.0, opts=opts)
    against = fp.minimize_arrival(model, b, a, 0.0, opts=opts)
    j_with = fp.randers_arrival(model, np.array([[0.0, 0.0], [1.0, 0.0]]))
    j_against = fp.randers_arrival(model, np.array([[1.0, 0.0], [0.0, 0.0]]))
    golden = math.sqrt(1.25)
    ok = (
        with_drift.converged
        and against.converged
        and abs(with_drift.t_plus - (0.5 + golden)) < 1e-6
        and abs(against.t_plus - (-0.5 + golden)) < 1e-6
        and abs(with_drift.t_plus - j_with) < 1e-8 * (1.0 + j_with)
        and abs(against.t_plus - j_against) < 1e-8 * (1.0 + j_against)
    )
    report(
        "criterion 3: drift asymmetry / optical length",
        ok,
        f"with={with_drift.t_plus:.9f} against={against.t_plus:.9f}",
    )


def test_acceptance_04_cylinder_multiplicity():
    model = fp.get_model("cylinder(1)")
    records = fp.multi_start(
        model,
        fp.Point([0, 0], 0.0),
        fp.Point([1, 1], 0.0),
        0.0,
        seeds=[-2, -1, 0, 1, 2],
        opts=fp.SolverOptions(N=200),
    )
    converged = [r for r in records if r.converged]
    by_k = {r.winding[1]: r.t_plus for r in converged}
    ok = len(converged) >= 3
    detail = []
    for k in (0, -1, 1):
        exact = math.sqrt(1.0 + (1.0 + 2.0 * math.pi * k) ** 2)
        ok = ok and k in by_k and abs(by_k[k] - exact) < 1e-5
        if k in by_k:
            detail.append(f"k={k}:{by_k[k]:.6f}")
    # strictly increasing with |k| past the minimum, per drift sign
    ks = sorted(by_k)
    up = all(by_k[a] < by_k[b] for a, b in zip(ks, ks[1:]) if a >= 0)
    down = all(by_k[b] < by_k[a] for a, b in zip(ks, ks[1:]) if b <= 0)
    ok = ok and up and down
    report("criterion 4: cylinder winding multiplicity", ok, " ".join(detail))


# Random inputs are seeded from a CRC-32 of a per-test key: Python salts
# str hashes per process, so hash() would draw other inputs on every run.


def test_acceptance_05_identity_suite():
    t0 = time.perf_counter()
    draws = 0
    worst = 0.0
    for spec in BUILTIN_SPECS:
        model = fp.get_model(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        p, q = endpoints_for(model)
        for _ in range(170):
            z = smooth_path(model, p, q, 24, rng)
            kappa = -float(rng.uniform(0.0, 2.0))
            t = float(rng.standard_normal())
            arr = fp.arrival_times(model, z, kappa)
            scale = 1.0 + abs(arr.Q_bar) + abs(arr.E_val)
            e1 = abs(arr.t_plus + arr.t_minus - 2 * arr.Q_bar) / (1e-10 * scale)
            e2 = abs(arr.t_plus * arr.t_minus - 2 * (kappa - arr.E_val)) / (
                1e-10 * scale
            )
            zt = fp.apply_flow(z, t)
            act0 = action(model, z)
            q_bar = path_state(model, z).Q_bar
            n_bar = q_bar + D_functional(model, z)
            e_val = arr.E_val
            e3 = abs(
                action(model, zt) - act0 - t * n_bar + 0.5 * t * t
            ) / (1e-9 * (1.0 + abs(act0)))
            e4 = abs(
                path_state(model, zt).E_val - e_val - t * q_bar + 0.5 * t * t
            ) / (1e-9 * (1.0 + abs(e_val)))
            e5 = abs(path_state(model, zt).Q_bar - (q_bar - t)) / 1e-9
            e6 = abs(
                path_state(model, fp.apply_flow(z, arr.t_plus)).E_val - kappa
            ) / (1e-8 * (1.0 + abs(kappa)))
            e7 = abs(
                path_state(model, fp.apply_flow(z, arr.t_minus)).E_val - kappa
            ) / (1e-8 * (1.0 + abs(kappa)))
            worst = max(worst, e1, e2, e3, e4, e5, e6, e7)
            draws += 1
    elapsed = time.perf_counter() - t0
    ok = draws >= 1000 and worst < 1.0 and elapsed < 30.0
    report(
        "criterion 5: identity suite",
        ok,
        f"{draws} draws, worst margin {worst:.3f} of tolerance, {elapsed:.1f}s",
    )


def test_acceptance_06_gradient_oracle():
    h = 1e-5
    worst = 0.0
    for spec in BUILTIN_SPECS:
        model = fp.get_model(spec)
        rng = np.random.default_rng(zlib.crc32(f"grad {spec}".encode()))
        p, q = endpoints_for(model)
        kappa = -0.4
        for _ in range(100):
            z = smooth_path(model, p, q, 60, rng)
            delta = smooth_field(model.dim, 60, rng)
            xi, _ = tangent_split(model, z, delta)
            an = dt_plus(model, z, kappa, xi)

            def t_of(side):
                moved = fp.DiscretePath(
                    z.y + side * h * delta.y, z.t + side * h * delta.t, z.periods
                )
                return fp.arrival_times(
                    model, fp.project_to_N(model, moved), kappa
                ).t_plus

            fd = (t_of(+1) - t_of(-1)) / (2 * h)
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-12)
            worst = max(worst, rel)
    ok = worst < 1e-5
    report("criterion 6: gradient oracle", ok, f"worst relative error {worst:.2e}")


def test_acceptance_07_homogeneous_reduction():
    worst = 0.0
    for spec in ("flat", "randers-const(0.5,0)", "randers-rot(0.3)", "cylinder(1)"):
        model = fp.get_model(spec)
        rng = np.random.default_rng(zlib.crc32(f"crit {spec}".encode()))
        p, q = endpoints_for(model)
        for branch in ("plus", "minus"):
            for _ in range(10):
                z = smooth_path(model, p, q, 40, rng)
                res = fp.criticality_residual(*on_branch(model, z, branch), -0.2)
                norm = arrival_gradient(*on_branch(model, z, branch), -0.2).norm
                worst = max(worst, abs(res - norm))
    ok = worst < 1e-12
    report(
        "criterion 7: homogeneous criticality reduction",
        ok,
        f"max |residual - grad norm| = {worst:.2e}",
    )


def test_acceptance_08_affine_consistency():
    flat = fp.get_model("flat")
    zero_off = fp.get_model("affine(flat, 0.0)")
    const_off = fp.get_model("affine(flat, 2.0)")
    p, q = fp.Point([0, 0], 0.0), fp.Point([3, 4], 0.0)
    opts = fp.SolverOptions(N=120)
    table_ok = True
    for kappa in (0.0, -0.5):
        base = fp.minimize_arrival(flat, p, q, kappa, opts=opts)
        wrap = fp.minimize_arrival(zero_off, p, q, kappa, opts=opts)
        table_ok = table_ok and abs(base.t_plus - wrap.t_plus) < 1e-9
        table_ok = table_ok and abs(base.el_residual - wrap.el_residual) < 1e-9
    # constant offset: the arrival-weighted offset correction assembles to
    # exact zeros, so the residual coincides with the linear formula
    rng = np.random.default_rng(88)
    z = smooth_path(flat, p, q, 80, rng)
    za = fp.project_to_N(const_off, z)
    res_affine = fp.criticality_residual(const_off, za, -0.3)
    res_linear = fp.criticality_residual(flat, z, -0.3)
    corollary_ok = res_affine == res_linear
    report(
        "criterion 8: affine-charge consistency",
        table_ok and corollary_ok,
        f"zero-offset table match: {table_ok}, constant-offset residual "
        f"{res_affine:.6e} == linear {res_linear:.6e}",
    )


def test_acceptance_09_convergence_order():
    model = fp.get_model("randers-rot(0.3)")
    p = fp.Point([1.0, 0.0], 0.0)
    q = fp.Point([-0.2, 1.1], 0.0)
    res = {}
    for n in (100, 200):
        rec = fp.minimize_arrival(
            model, p, q, 0.0,
            opts=fp.SolverOptions(N=n, grad_tol=1e-8, max_iters=20000),
        )
        assert rec.converged
        res[n] = rec.el_residual
    order = math.log2(res[100] / res[200])
    ok = order >= 1.9
    report(
        "criterion 9: stationarity residual refinement",
        ok,
        f"el(100)={res[100]:.3e} el(200)={res[200]:.3e} order={order:.3f}",
    )


def test_acceptance_10_validation_gate(tmp_path):
    scenario = os.path.join(tmp_path, "gate.ini")
    with open(scenario, "w") as fh:
        fh.write(
            "[model]\nspec = flat\n"
            "[endpoints]\np_y = 0 0\nq_y = 3 4\n"
            "[problem]\nkappa = 0.1\n"
        )
    code = main(["validate", scenario, "--out", str(tmp_path), "--quiet"])
    ok = code == EXIT_VALIDATION
    report("criterion 10: validation gate", ok, f"exit code {code}")
