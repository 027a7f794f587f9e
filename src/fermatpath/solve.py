"""Arrival-time minimization over the constraint manifold.

Projected gradient descent: iterates live on the constraint manifold
(whose discrete realization is a graph over the spatial nodes), the descent
direction is the H1-preconditioned gradient of the arrival time restricted
to the constraint tangent space, steps are accepted under an Armijo
sufficient-decrease rule, and every trial point is re-projected, so the
constraint holds to machine precision along the whole iteration.

One model evaluation per iterate: `project_to_N` returns a `PathState`
(the path with its geometry, omega values, charge and energy quadratures
and constraint deviation), which the Armijo test reads through
`arrival_times` and the next gradient reads through `arrival_gradient`.
A candidate the line search rejects is dropped with its state; the
derivatives of the accepted iterate live only inside one
`arrival_gradient` call.  Records keep the plain path, not its state.
Each line-search trial copies and checks its y-nodes once, when its
`DiscretePath` is built; the projected state shares that array.

Multi-start wraps the descent with homotopy-class seeding (extra wraps of
the straight lift on cylinders, smooth random perturbations otherwise),
deduplicates converged records by arrival time and winding, and sorts by
arrival time.  Each record carries the reconstructed trajectory (the path
carried by the symmetry flow to the arrival parameter) plus conservation
and stationarity residuals for certification.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .arrival import ArrivalEvaluation, arrival_gradient, arrival_times, branch_sign
from .errors import AdmissibilityError, ModelEvaluationError
from .models import Point, StationaryModel, chart_E, chart_partials
from .paths import (
    DiscretePath,
    apply_flow,
    noether_values,
    project_to_N,
    resample,
    segment_geometry,
    straight_path,
    unwrap_periodic,
    winding,
)

log = logging.getLogger(__name__)

SeedSpec = Union[int, str, DiscretePath]


# Line search: Armijo sufficient-decrease constant, backtracking ratio and
# first trial step (Nocedal & Wright, Numerical Optimization, 2006, sec. 3.1).
SUFFICIENT_DECREASE = 1e-4
STEP_SHRINK = 0.5
FIRST_STEP = 1.0
# Records of one winding class whose arrival times agree this closely merge.
DUPLICATE_TOL = 1e-5


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 5000
    grad_tol: float = 1e-7
    N: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iters <= 0 or not 0 < self.grad_tol < math.inf:
            raise ValueError("max_iters and grad_tol must be positive and finite")
        if self.N < 2:
            raise ValueError("need at least 2 segments")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be at least 0, not {self.rng_seed}")


@dataclass(frozen=True)
class SolutionRecord:
    z_star: DiscretePath
    arrival: ArrivalEvaluation
    geodesic: DiscretePath
    el_residual: float
    energy_dev: float
    noether_dev: float
    winding: tuple[int, ...]
    iters: int
    converged: bool
    branch: str = "plus"
    seed: str = ""

    @property
    def t_plus(self) -> float:
        return self.arrival.t_plus

    def as_dict(self) -> dict:
        a = self.arrival
        return {
            "branch": self.branch,
            "seed": self.seed,
            "converged": self.converged,
            "iters": self.iters,
            "t_plus": a.t_plus,
            "t_minus": a.t_minus,
            "S": a.S,
            "Q_bar": a.Q_bar,
            "E_val": a.E_val,
            "kappa": a.kappa,
            "winding": list(self.winding),
            "el_residual": self.el_residual,
            "energy_dev": self.energy_dev,
            "noether_dev": self.noether_dev,
        }


def _fmt(x) -> str:
    """17 significant digits: enough for every double to round-trip."""
    return format(float(x), ".17g")


def _json_text(d: dict) -> str:
    """One "key": value line per entry; floats via _fmt, so they round-trip,
    and a float that is not finite as null, which JSON has in its place."""
    parts = []
    for key, value in d.items():
        if isinstance(value, bool):
            parts.append(f'"{key}": {str(value).lower()}')
        elif isinstance(value, float):
            parts.append(f'"{key}": {_fmt(value) if math.isfinite(value) else "null"}')
        elif isinstance(value, int):
            parts.append(f'"{key}": {value}')
        elif isinstance(value, list):
            parts.append(f'"{key}": [%s]' % ", ".join(str(v) for v in value))
        else:
            parts.append(f'"{key}": {json.dumps(value)}')
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def record_to_json(
    record: SolutionRecord,
    path_file: Optional[str] = None,
    geodesic_file: Optional[str] = None,
) -> str:
    """Structured text form of a record: 17-significant-digit decimals,
    paths referenced by sidecar file name."""
    d = record.as_dict()
    if path_file:
        d["path_file"] = path_file
    if geodesic_file:
        d["geodesic_file"] = geodesic_file
    return _json_text(d)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def el_residual(model: StationaryModel, geodesic: DiscretePath) -> float:
    """Stationarity defect of the discrete trajectory.

    Max over interior nodes of the chart-Euclidean norm of
    N * (dL/dv at segment i+1 - dL/dv at segment i) - dL/dx at node i,
    with dL/dx evaluated at the node using the centrally averaged velocity.
    Second-order small on smooth solutions.
    """
    n = geodesic.segments
    mid_y, _, vel_y, vel_t = segment_geometry(geodesic)
    _, V, w = chart_partials(model, mid_y, vel_y, vel_t, "L")
    dv = np.concatenate([V, w[:, None]], axis=1)
    node_y = geodesic.y[1:n]
    avg_vy = 0.5 * (vel_y[:-1] + vel_y[1:])
    avg_vt = 0.5 * (vel_t[:-1] + vel_t[1:])
    P_node, _, _ = chart_partials(model, node_y, avg_vy, avg_vt, "L")
    dx = np.concatenate([P_node, np.zeros((n - 1, 1))], axis=1)
    res = n * (dv[1:] - dv[:-1]) - dx
    return float(np.max(np.linalg.norm(res, axis=1))) if n > 1 else 0.0


def conservation_check(model: StationaryModel, geodesic: DiscretePath, kappa: float):
    """Pointwise energy deviation from kappa and charge-constancy deviation."""
    mid_y, _, vel_y, vel_t = segment_geometry(geodesic)
    energy_dev = float(np.max(np.abs(chart_E(model, mid_y, vel_y, vel_t) - kappa)))
    noether_dev = noether_values(model, geodesic).max_deviation
    return energy_dev, noether_dev


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def _perturbed_path(p, q, n, periods, rng):
    """Straight lift plus a low-order random Fourier bump (endpoints fixed)."""
    base = straight_path(p, q, n, periods)
    amp = 0.25 * (float(np.linalg.norm(q.y - p.y)) or 1.0)
    s = np.arange(n + 1) / n
    y = base.y.copy()
    for j in range(y.shape[1]):
        for k in range(1, 4):
            y[:, j] += amp / k * rng.standard_normal() * np.sin(k * np.pi * s)
    return DiscretePath(y, base.t, periods)


def seed_path(
    model: StationaryModel,
    p: Point,
    q: Point,
    n_segments: int,
    spec: SeedSpec = 0,
    rng: Optional[np.random.Generator] = None,
) -> DiscretePath:
    """Build and project an initial path from a seed specification.

    Integer seeds prescribe extra wraps of the straight lift along the first
    periodic coordinate (straight line on a euclidean slice); "random" draws
    a smoothly perturbed straight lift.  A ready-made path is re-gridded and
    projected.
    """
    periods = model.periods
    if isinstance(spec, DiscretePath):
        path = spec if spec.segments == n_segments else resample(spec, n_segments)
        path = DiscretePath(path.y, path.t, periods)
    elif spec == "random":
        rng = rng if rng is not None else np.random.default_rng(0)
        path = _perturbed_path(p, q, n_segments, periods, rng)
    else:
        k = int(spec)
        wraps = None
        if periods and k != 0:
            wraps = [0] * model.dim
            for j, per in enumerate(periods):
                if per:
                    wraps[j] = k
                    break
        path = straight_path(p, q, n_segments, periods, wraps)
    return project_to_N(model, path)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def _check_endpoints(model, p, q):
    if np.linalg.norm(unwrap_periodic(q.y - p.y, model.periods)) < 1e-12:
        raise ValueError(
            "endpoints lie on the same flow line: the slice positions coincide"
        )


def _descend(model, path, kappa, opts, branch):
    """Armijo-backtracked projected descent from a projected path.

    Returns (path, arrival, iters, converged) with the final iterate as a
    plain DiscretePath: the states of the iterates end with this call.
    """
    sigma = branch_sign(branch)  # the objective is sigma * t_sigma
    arr = arrival_times(model, path, kappa)
    f_val = sigma * arr.time(sigma)
    converged = False
    iters = 0
    trial = FIRST_STEP
    stagnant = 0
    for iters in range(1, opts.max_iters + 1):
        grad = arrival_gradient(model, path, kappa, branch)
        if grad.norm <= opts.grad_tol:
            converged = True
            iters -= 1
            break
        slope = grad.norm * grad.norm
        step = trial
        accepted = False
        for _ in range(60):
            # A rejected trial's state ends before the next trial is built.
            cand = arr_new = None
            y_new = path.y - sigma * step * grad.field.y
            cand = project_to_N(model, DiscretePath(y_new, path.t, path.periods))
            try:
                arr_new = arrival_times(model, cand, kappa)
            except AdmissibilityError:
                step *= STEP_SHRINK
                continue
            f_new = sigma * arr_new.time(sigma)
            # Armijo test.  The constant, step and slope are >= 0, so an
            # accepted f_new is <= f_val exactly: the objective never increases.
            if f_new <= f_val - SUFFICIENT_DECREASE * step * slope:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            log.warning("line search stalled at iteration %d (|grad|=%.3g)", iters, grad.norm)
            break
        # Stop once accepted steps no longer move the objective at double
        # precision; further iterations cannot make progress.
        stagnant = stagnant + 1 if f_val - f_new <= 1e-16 * (1.0 + abs(f_val)) else 0
        path, arr, f_val = cand, arr_new, f_new
        trial = min(FIRST_STEP, step / STEP_SHRINK)
        if stagnant >= 50:
            log.warning(
                "objective stagnant at double precision after %d iterations "
                "(|grad|=%.3g)", iters, grad.norm,
            )
            break
    return DiscretePath(path.y, path.t, path.periods), arr, iters, converged


def minimize_arrival(
    model: StationaryModel,
    p: Point,
    q: Point,
    kappa: float,
    init: Optional[SeedSpec] = None,
    opts: Optional[SolverOptions] = None,
    *,
    branch: str = "plus",
    rng: Optional[np.random.Generator] = None,
) -> SolutionRecord:
    """Minimize the arrival time from p to the flow line through q.

    Armijo-backtracked projected gradient descent with the H1 metric.  The
    "plus" branch minimizes the future arrival t_plus; "minus" maximizes
    t_minus (the latest past arrival of the time-reversed problem); any
    other branch raises ValueError.  The accepted objective sequence is
    nonincreasing by construction.  Returns a record with the reconstructed
    trajectory and certification residuals; non-convergence within
    max_iters is reported, never clamped.
    """
    sigma = branch_sign(branch)
    opts = opts or SolverOptions()
    p = p if isinstance(p, Point) else Point(*p)
    q = q if isinstance(q, Point) else Point(*q)
    _check_endpoints(model, p, q)
    if rng is None:
        rng = np.random.default_rng(opts.rng_seed)

    seed_label = (
        "path" if isinstance(init, DiscretePath)
        else str(init) if init is not None else "0"
    )
    path, arr, iters, converged = _descend(
        model, seed_path(model, p, q, opts.N, 0 if init is None else init, rng),
        kappa, opts, branch,
    )

    geo = apply_flow(path, arr.time(sigma))
    res = el_residual(model, geo)
    energy_dev, noether_dev = conservation_check(model, geo, kappa)
    return SolutionRecord(
        z_star=path,
        arrival=arr,
        geodesic=geo,
        el_residual=res,
        energy_dev=energy_dev,
        noether_dev=noether_dev,
        winding=winding(path),
        iters=iters,
        converged=converged,
        branch=branch,
        seed=seed_label,
    )


def multi_start(
    model: StationaryModel,
    p: Point,
    q: Point,
    kappa: float,
    seeds: Sequence[SeedSpec],
    opts: Optional[SolverOptions] = None,
    *,
    branch: str = "plus",
) -> list[SolutionRecord]:
    """Run the descent from every seed, deduplicate, and sort by arrival time.

    Records are merged when they share the winding class and their arrival
    times agree within DUPLICATE_TOL (the one with the smaller stationarity
    residual is kept).  Per-seed failures, including a model that evaluates
    to a non-finite value, are logged, not fatal; a bad branch raises
    ValueError before any seed runs.
    """
    sigma = branch_sign(branch)
    opts = opts or SolverOptions()
    records: list[SolutionRecord] = []
    for idx, spec in enumerate(seeds):
        rng = np.random.default_rng((opts.rng_seed, idx))
        try:
            rec = minimize_arrival(
                model, p, q, kappa, spec, opts,
                branch=branch, rng=rng,
            )
        except (ValueError, ModelEvaluationError) as exc:
            log.warning("seed %r failed: %s", spec, exc)
            continue
        records.append(rec)
    key = lambda r: sigma * r.arrival.time(sigma)
    records.sort(key=lambda r: (key(r), r.el_residual))
    merged: list[SolutionRecord] = []
    for rec in records:
        dup = next(
            (
                m
                for m in merged
                if m.winding == rec.winding and abs(key(m) - key(rec)) <= DUPLICATE_TOL
            ),
            None,
        )
        if dup is None:
            merged.append(rec)
        elif rec.el_residual < dup.el_residual:
            merged[merged.index(dup)] = rec
    return merged
