"""Arrival-time minimization over the constraint manifold.

Projected gradient descent: iterates live on the constraint manifold
(whose discrete realization is a graph over the spatial nodes), the descent
direction is the H1-preconditioned gradient of the arrival time restricted
to the constraint tangent space, steps are accepted under an Armijo
sufficient-decrease rule, and every trial point is re-projected, so the
constraint holds to machine precision along the whole iteration.  Each
iterate and trial is the state of its projection (paths.project_to_N,
paths.PathState); of a gradient the descent reads only the spatial
representer u and its norm (paths._LiftedField).

A descent ends in one place, `_stopped`, with its stop reason: "grad_tol"
when the gradient norm reaches the tolerance (and, for a model that is not
a Fermat model, theta too), or one of the unconverged stops that the table
_STOP_WARNINGS names together with its warning.  A record's verdict
`converged` is its stop reason being "grad_tol", so a new stop is one
table entry and cannot disagree with the verdict.  The descent
minimizes t_plus only; `minimize_arrival` runs the minus branch as the
plus branch of the time-reversed problem.

Multi-start wraps the descent with homotopy-class seeding (extra wraps of
the straight lift on cylinders, smooth random perturbations otherwise),
deduplicates records by the descent's objective and winding, and sorts by
that objective.  Each record carries the reconstructed trajectory (the path
carried by the symmetry flow to the arrival parameter) plus conservation
and stationarity residuals for certification.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .arrival import ArrivalEvaluation, arrival_gradient, arrival_times, criticality_residual
from .errors import AdmissibilityError, ModelEvaluationError
from .models import (
    Point,
    StationaryModel,
    _dL_dnu,
    _dL_dtau,
    _dL_dy,
    chart_E,
    omega_coeffs,
    time_reversed,
)
from .paths import (
    DiscretePath,
    _straight_nodes,
    apply_flow,
    path_state,
    project_to_N,
    resample,
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
    """One descent's result, certified on its trajectory.

    `stop_reason` says why the descent stopped: "grad_tol" or a key of
    _STOP_WARNINGS.  It is not part of `as_dict`, so no output carries it;
    `converged` follows from it, so the two cannot disagree.
    """

    z_star: DiscretePath
    arrival: ArrivalEvaluation
    geodesic: DiscretePath
    el_residual: float
    energy_dev: float
    noether_dev: float
    winding: tuple[int, ...]
    iters: int
    branch: str
    seed: str
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"

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
    Second-order small on smooth solutions; 0.0 for one segment, which has
    no interior node.

    The segment midpoints, velocities and omega values are those of the
    geodesic's state (paths.path_state): a state of `model` is read as it
    is, a plain path is evaluated once.  Only the partials that the residual
    reads are formed (models._dL_dnu, _dL_dtau and _dL_dy, the pieces of
    chart_partials of kind "L"): at the midpoints dL/dnu and the tau-part,
    each freed once differenced, before the node term; at the nodes dL/dx
    alone, which has no tau component and is subtracted from the spatial
    columns.  So omega is evaluated nowhere but in the state.

    The residual's spatial columns and its tau column are kept apart.  A
    row of fewer than 8 entries is summed left to right by
    np.linalg.norm(res, axis=1) (numpy 2.4), so the squared columns are
    added in that order, tau last, and the square root is taken of the
    largest sum alone: sqrt is correctly rounded, hence monotone, so that is
    the largest norm, bit for bit.  Rows of 8 entries or more, which numpy
    sums pairwise, are joined and passed to np.linalg.norm.
    """
    n = geodesic.segments
    if n == 1:
        return 0.0
    state = path_state(model, geodesic)
    mid_y, vel_y, vel_t = state.mid_y, state.vel_y, state.vel_t
    V = _dL_dnu(model, mid_y, vel_y, vel_t, omega_coeffs(model, mid_y))
    res = np.subtract(V[1:], V[:-1])
    del V
    res *= n
    w = _dL_dtau(model, mid_y, vel_t, state.omega)
    res_t = np.subtract(w[1:], w[:-1])
    del w
    res_t *= n
    avg_vy = np.add(vel_y[:-1], vel_y[1:])
    avg_vy *= 0.5
    avg_vt = np.add(vel_t[:-1], vel_t[1:])
    avg_vt *= 0.5
    node_y = geodesic.y[1:n]
    res -= _dL_dy(model, node_y, avg_vy, avg_vt, model.domega_dy(node_y, avg_vy))
    if res.shape[1] + 1 >= 8:
        return float(np.max(np.linalg.norm(np.column_stack([res, res_t]), axis=1)))
    sq = np.empty(n - 1)
    total = np.multiply(res[:, 0], res[:, 0])
    for j in range(1, res.shape[1]):
        total += np.multiply(res[:, j], res[:, j], out=sq)
    total += np.multiply(res_t, res_t, out=sq)
    return float(np.sqrt(np.max(total)))


def conservation_check(model: StationaryModel, geodesic: DiscretePath, kappa: float):
    """Pointwise energy deviation from kappa and charge-constancy deviation.

    Both are read off one evaluation of the geodesic (paths.path_state; a
    state of `model` is read as it is): the energy profile from its
    geometry and omega values, the charge deviation as the state's
    `noether_dev`.
    """
    state = path_state(model, geodesic)
    energy = chart_E(model, state.mid_y, state.vel_y, state.vel_t, omega=state.omega)
    return float(np.max(np.abs(energy - kappa))), state.noether_dev


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def _perturbed_path(p, q, n, periods, rng):
    """Straight lift plus a low-order random Fourier bump (endpoints fixed).

    The nodes are built once: the bump is added into the straight lift's
    nodes (paths._straight_nodes), which the path takes over
    (DiscretePath._own) once its t-nodes are checked finite.  The modes
    are formed before the nodes: with the nodes formed first, they sit
    elsewhere in the heap, and an in-process fine-grid solve took
    14.5k-15.6k minor faults instead of 12.9k-13.7k (glibc defaults, rng
    seeds 1-6).
    """
    amp = 0.25 * (float(np.linalg.norm(q.y - p.y)) or 1.0)
    s = np.arange(n + 1) / n
    modes = [np.sin(k * np.pi * s) for k in range(1, 4)]
    bump = np.empty(n + 1)
    y, t = _straight_nodes(p, q, n, periods)
    for j in range(y.shape[1]):
        for k, mode in enumerate(modes, 1):
            y[:, j] += np.multiply(amp / k * rng.standard_normal(), mode, out=bump)
    if not np.isfinite(t).all():
        raise ValueError("path nodes must be finite")
    return DiscretePath._own(y, t, periods or None)


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
    """What is wrong with the endpoints p and q, as (keys, message) with
    `keys` the scenario keys of the pair at fault, or None.

    The displacement from p to q must be finite and move the slice
    position.  It is finite exactly when both endpoints are and no
    coordinate's difference overflows; that is checked before the periods
    reduce it, which would warn on inf (inf - inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        disp = np.subtract((q.t, *q.y), (p.t, *p.y))
    if not np.isfinite(disp).all():
        keys = "p_y, q_y" if np.isfinite(disp[0]) else "p_t, q_t"
        return keys, "path nodes must be finite"
    if np.linalg.norm(unwrap_periodic(disp[1:], model.periods)) < 1e-12:
        return "p_y, q_y", (
            "endpoints lie on the same flow line: the slice positions coincide"
        )
    return None


def _check_branch(branch):
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', not {branch!r}")


def _reflected(x):
    """A point, path or arrival evaluation under t -> -t, as 0.0 - t, which
    keeps a +0.0 t-node +0.0 (unary minus would make it -0.0).  An arrival
    evaluation's Q_bar is reflected the same way; S and E_val do not change."""
    if isinstance(x, Point):
        return Point(x.y, 0.0 - x.t)
    if isinstance(x, ArrivalEvaluation):
        return replace(x, Q_bar=0.0 - x.Q_bar)
    return DiscretePath(x.y, 0.0 - x.t, x.periods)


def _trial(model, path, u, step):
    """The projected line-search trial at path.y - step * u.

    The y-nodes are formed in one new array, step * u and then path.y minus
    that written over it, which the trial path takes over
    (DiscretePath._own) with the t-nodes of `path`, the iterate's projected
    state, of which a full projection reads only the two ends.  `path` is
    the projection's origin (paths.project_to_N).
    """
    y = np.multiply(step, u)
    np.subtract(path.y, y, out=y)
    return project_to_N(model, DiscretePath._own(y, path.t, path.periods), path)


# The stops of `_descend` that leave a descent unconverged, each with its
# warning, formatted with the iteration count and the last norm: that of
# the gradient, or of theta for "not_critical".
_STOP_WARNINGS = {
    "line_search_stall": "line search stalled at iteration %d (|grad|=%.3g)",
    "stagnant": "objective stagnant at double precision after %d iterations (|grad|=%.3g)",
    "max_iters": "iteration cap reached after %d iterations (|grad|=%.3g)",
    "not_critical": "dt = 0 after %d iterations, but theta is %.3g: not a trajectory",
}


def _stopped(path, arr, iters, reason, norm):
    """The return of `_descend`: (path, arr, iters, reason) with the path as
    a plain DiscretePath, after the warning of an unconverged stop."""
    if reason in _STOP_WARNINGS:
        log.warning(_STOP_WARNINGS[reason], iters, norm)
    return DiscretePath(path.y, path.t, path.periods), arr, iters, reason


def _descend(model, p, q, kappa, init, opts, rng):
    """Armijo-backtracked projected descent of t_plus from the projected
    seed of `init` (seed_path, with p, q, opts.N and rng).

    Returns (path, arrival, iters, stop_reason) through `_stopped`, with the
    final iterate as a plain DiscretePath.  The stop reason is "grad_tol"
    (converged) or a key of _STOP_WARNINGS ("line_search_stall", "stagnant",
    "max_iters", "not_critical"), whose warning `_stopped` logs.

    A gradient norm at grad_tol means dt_plus = 0, which is the trajectory
    equation theta = 0 only for a Fermat model (models.StationaryModel.
    fermat).  For any other model the final iterate must also have its
    theta (arrival.criticality_residual, read off the state the descent
    holds) at grad_tol, and the stop is "not_critical" when it has not.

    Each array ends once nothing reads it.  The seed is built here, so that
    `path` holds the only reference to each iterate's state: the seed's
    state ends when the first step is accepted.  (A seed passed in would
    live through the whole descent on CPython 3.10, which keeps a call's
    arguments on the caller's stack until the call returns.)  A gradient gives only its spatial representer u
    and its norm, and u, read by the line-search trials alone, ends before
    the next gradient is formed.  A rejected trial's state ends before the
    next trial is built.
    """
    path = seed_path(model, p, q, opts.N, init, rng)
    arr = arrival_times(model, path, kappa)
    f_val = arr.t_plus
    trial = FIRST_STEP
    stagnant = 0
    for iters in range(1, opts.max_iters + 1):
        # Dropping the gradient releases what its t-part would need
        # (paths._LiftedField) before the line search.
        grad = arrival_gradient(model, path, kappa)
        u, norm = grad.field.y, grad.norm
        del grad
        if norm <= opts.grad_tol:
            theta = norm if model.fermat else criticality_residual(model, path, kappa)
            reason = "grad_tol" if theta <= opts.grad_tol else "not_critical"
            return _stopped(path, arr, iters - 1, reason, theta)
        slope = norm * norm
        step = trial
        for _ in range(60):
            cand = arr_new = None
            cand = _trial(model, path, u, step)
            try:
                arr_new = arrival_times(model, cand, kappa)
            except AdmissibilityError:
                step *= STEP_SHRINK
                continue
            f_new = arr_new.t_plus
            # Armijo test.  The constant, step and slope are >= 0, so an
            # accepted f_new is <= f_val exactly: the objective never increases.
            if f_new <= f_val - SUFFICIENT_DECREASE * step * slope:
                break
            step *= STEP_SHRINK
        else:
            return _stopped(path, arr, iters, "line_search_stall", norm)
        del u
        # Stop once accepted steps no longer move the objective at double
        # precision; further iterations cannot make progress.
        stagnant = stagnant + 1 if f_val - f_new <= 1e-16 * (1.0 + abs(f_val)) else 0
        path, arr, f_val = cand, arr_new, f_new
        trial = min(FIRST_STEP, step / STEP_SHRINK)
        if stagnant >= 50:
            return _stopped(path, arr, iters, "stagnant", norm)
    return _stopped(path, arr, iters, "max_iters", norm)


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

    Armijo-backtracked projected gradient descent of t_plus with the H1
    metric; the accepted objective sequence is nonincreasing by
    construction.  The "plus" branch minimizes the future arrival t_plus.
    "minus" maximizes t_minus, the latest past arrival, as the plus branch
    of the reversed problem: t_minus of a path is -t_plus of its reflection
    t -> 0.0 - t under models.time_reversed(model).  So both branches take
    one descent, which builds its own seed (`_descend`), of `model` with
    the identity as the reflection, or of the reversed model with
    `_reflected`: p, q and a DiscretePath `init` are reflected, and the
    descended path and its arrival evaluation are reflected back.  Any
    other branch raises ValueError.  Either way the path is flowed by the
    branch's arrival time and certified on `model`: the trajectory is
    evaluated once (paths.path_state), both residuals read that state, and
    the record keeps plain paths, so no state outlives this call and none
    of the descent's outlives the descent.  Returns a record with the
    reconstructed trajectory and certification residuals; a stop short of
    a trajectory (the iteration cap, a stall, or dt = 0 where theta is not
    0: `_descend`) is reported, never clamped.
    """
    _check_branch(branch)
    opts = opts or SolverOptions()
    p = p if isinstance(p, Point) else Point(*p)
    q = q if isinstance(q, Point) else Point(*q)
    fault = _check_endpoints(model, p, q)
    if fault:
        raise ValueError(fault[1])
    if rng is None:
        rng = np.random.default_rng(opts.rng_seed)

    init = 0 if init is None else init
    seed_label = "path" if isinstance(init, DiscretePath) else str(init)
    minus = branch == "minus"
    reflect = _reflected if minus else (lambda x: x)
    descended = time_reversed(model) if minus else model
    init = reflect(init) if isinstance(init, DiscretePath) else init
    path, arr, iters, stop_reason = _descend(
        descended, reflect(p), reflect(q), kappa, init, opts, rng
    )
    path, arr = reflect(path), reflect(arr)

    geo = apply_flow(path, arr.t_minus if minus else arr.t_plus)
    state = path_state(model, geo)
    energy_dev, noether_dev = conservation_check(model, state, kappa)
    return SolutionRecord(
        z_star=path,
        arrival=arr,
        geodesic=geo,
        el_residual=el_residual(model, state),
        energy_dev=energy_dev,
        noether_dev=noether_dev,
        winding=winding(path),
        iters=iters,
        branch=branch,
        seed=seed_label,
        stop_reason=stop_reason,
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
    """Run the descent from every seed, deduplicate, and sort by its objective.

    The objective is that of the descent: t_plus, or -t_minus on the minus
    branch (the t_plus of the time-reversed problem).  Records are merged
    when they share the winding class and their objectives agree within
    DUPLICATE_TOL.  Of two duplicates a converged record is kept over an
    unconverged one, and the smaller stationarity residual breaks a tie.
    Per-seed failures, including a model that evaluates to a non-finite
    value, are logged, not fatal; a bad branch raises ValueError before any
    seed runs.
    """
    _check_branch(branch)
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
    key = (lambda r: r.t_plus) if branch == "plus" else (lambda r: -r.arrival.t_minus)
    records.sort(key=lambda r: (key(r), r.el_residual))
    rank = lambda r: (not r.converged, r.el_residual)
    merged: list[SolutionRecord] = []
    for rec in records:
        # By position: records compare their path arrays under ==.
        j = next(
            (
                i
                for i, m in enumerate(merged)
                if m.winding == rec.winding and abs(key(m) - key(rec)) <= DUPLICATE_TOL
            ),
            None,
        )
        if j is None:
            merged.append(rec)
        elif rank(rec) < rank(merged[j]):
            merged[j] = rec
    return merged
