"""Stationary Lagrangians in adapted coordinates.

A model lives on a product chart S x R, with S an m-dimensional slice
carrying coordinates y and the symmetry direction carrying the coordinate t.
The symmetry field is the coordinate field along t, so its flow is an exact
translation of t.  In this chart the Lagrangian reads

    L(x, v) = L0(y, nu) + (omega_y(nu) + d(y)) * tau - tau^2 / 2

with L0 the fiber Lagrangian on S, omega a one-form (linear in nu), and d
an optional position-dependent offset of the conserved charge (identically
zero for the plain linear-charge case).

All model evaluators are batched: they accept arrays of shape (n, m) for
positions and fiber vectors and return shape (n,) scalars or (n, m)
gradients.  Evaluators are pure and models are immutable, so they are safe
to share across concurrent workers.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ModelEvaluationError, ScenarioError, UnsupportedModelError

# Batched evaluators: (y, nu) -> values, and y -> values.
FiberEval = Callable[[np.ndarray, np.ndarray], np.ndarray]
BaseEval = Callable[[np.ndarray], np.ndarray]

FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class Point:
    """A chart point (y, t) with y the slice position and t the symmetry time."""

    y: np.ndarray
    t: float

    def __init__(self, y, t):
        object.__setattr__(self, "y", np.asarray(y, dtype=float))
        object.__setattr__(self, "t", float(t))


@dataclass(frozen=True)
class TangentVector:
    """A chart tangent vector (nu, tau)."""

    nu: np.ndarray
    tau: float

    def __init__(self, nu, tau):
        object.__setattr__(self, "nu", np.asarray(nu, dtype=float))
        object.__setattr__(self, "tau", float(tau))


@dataclass(frozen=True)
class StationaryModel:
    """Evaluator bundle for a stationary Lagrangian in adapted coordinates.

    `homogeneous` means L0 is positively 2-homogeneous in nu, which makes
    E0 = L0 and enables the action = energy shortcut.  `linear_charge` is
    true when the offset d vanishes identically; operations restricted to
    2-homogeneous Lagrangians (causal cone, optical arrival length) require
    both flags.  `periods` lists per-coordinate identification periods of
    the slice (0 = aperiodic); None means a plain euclidean slice.
    """

    dim: int
    L0: FiberEval
    dL0_dy: FiberEval
    dL0_dnu: FiberEval
    omega: FiberEval
    domega_dy: FiberEval
    d_offset: BaseEval
    dd_dy: BaseEval
    homogeneous: bool = False
    periods: Optional[tuple[float, ...]] = None
    linear_charge: bool = True
    name: str = ""
    # Optional analytic partials of E0 = dL0_dnu . nu - L0 for models that
    # are not 2-homogeneous; central finite differences otherwise.
    dE0_dy: Optional[FiberEval] = None
    dE0_dnu: Optional[FiberEval] = None

    @property
    def topology(self) -> str:
        if self.periods is None or not any(p != 0.0 for p in self.periods):
            return "euclidean"
        return "cylinder(%s)" % ",".join("%g" % p for p in self.periods)


@dataclass(frozen=True)
class ValidationReport:
    """Sampled structural checks of a model (see validate_assumptions)."""

    qk_check: bool
    convexity_margin: float
    growth_ok: bool
    supL0_at_zero: float
    kappa_admissible_bound: float
    cone_samples: int

    def as_dict(self) -> dict:
        return {
            "qk_check": self.qk_check,
            "convexity_margin": self.convexity_margin,
            "growth_ok": self.growth_ok,
            "supL0_at_zero": self.supL0_at_zero,
            "kappa_admissible_bound": self.kappa_admissible_bound,
            "cone_samples": self.cone_samples,
        }


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def _zeros_fiber(y, nu):
    return np.zeros(np.asarray(y).shape[0])


def _zeros_grad(y, nu=None):
    y = np.asarray(y)
    return np.zeros_like(y)


def _zeros_base(y):
    return np.zeros(np.asarray(y).shape[0])


def _central_diff(f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central differences of the batched f in each column of x.

    The step is FD_REL_STEP * (1 + |x|) per entry, relative away from zero.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        h = FD_REL_STEP * (1.0 + np.abs(x[:, j]))
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        out[:, j] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def build_model(
    dim: int,
    L0: FiberEval,
    omega: Optional[FiberEval] = None,
    d_offset: Optional[BaseEval] = None,
    *,
    dL0_dy: Optional[FiberEval] = None,
    dL0_dnu: Optional[FiberEval] = None,
    domega_dy: Optional[FiberEval] = None,
    dd_dy: Optional[BaseEval] = None,
    dE0_dy: Optional[FiberEval] = None,
    dE0_dnu: Optional[FiberEval] = None,
    homogeneous: bool = False,
    periods: Optional[Sequence[float]] = None,
    name: str = "",
) -> StationaryModel:
    """Assemble a model, filling absent derivatives with central differences."""
    linear = d_offset is None
    if omega is None:
        omega = _zeros_fiber
        domega_dy = _zeros_grad
    if d_offset is None:
        d_offset = _zeros_base
        dd_dy = _zeros_grad
    if dL0_dy is None:
        dL0_dy = lambda y, nu: _central_diff(lambda yy: L0(yy, nu), y)
    if dL0_dnu is None:
        dL0_dnu = lambda y, nu: _central_diff(lambda nn: L0(y, nn), nu)
    if domega_dy is None:
        domega_dy = lambda y, nu: _central_diff(lambda yy: omega(yy, nu), y)
    if dd_dy is None:
        dd_dy = lambda y: _central_diff(d_offset, y)
    return StationaryModel(
        dim=int(dim),
        L0=L0,
        dL0_dy=dL0_dy,
        dL0_dnu=dL0_dnu,
        omega=omega,
        domega_dy=domega_dy,
        d_offset=d_offset,
        dd_dy=dd_dy,
        homogeneous=bool(homogeneous),
        periods=tuple(float(p) for p in periods) if periods is not None else None,
        linear_charge=linear,
        name=name,
        dE0_dy=dE0_dy,
        dE0_dnu=dE0_dnu,
    )


# ---------------------------------------------------------------------------
# batched chart evaluation
# ---------------------------------------------------------------------------

def _check_finite(values: np.ndarray, model: StationaryModel, y, nu, tau, what: str):
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(values)))[0])
        raise ModelEvaluationError(
            f"non-finite {what} from model {model.name or '<anonymous>'}",
            x=Point(np.atleast_2d(y)[bad], 0.0),
            v=TangentVector(np.atleast_2d(nu)[bad], float(np.atleast_1d(tau)[bad])),
        )
    return values


def chart_L(model, y, nu, tau, check=True):
    """L = L0 + (omega + d) * tau - tau^2 / 2 over a batch of chart vectors."""
    val = (
        model.L0(y, nu)
        + (model.omega(y, nu) + model.d_offset(y)) * tau
        - 0.5 * tau * tau
    )
    return _check_finite(val, model, y, nu, tau, "Lagrangian value") if check else val


def chart_E0(model, y, nu):
    if model.homogeneous:
        return model.L0(y, nu)
    return np.einsum("ij,ij->i", model.dL0_dnu(y, nu), nu) - model.L0(y, nu)


def chart_E(model, y, nu, tau, check=True):
    """E = E0 + omega * tau - tau^2 / 2; the offset d never enters the energy."""
    val = chart_E0(model, y, nu) + model.omega(y, nu) * tau - 0.5 * tau * tau
    return _check_finite(val, model, y, nu, tau, "energy value") if check else val


def chart_Q(model, y, nu, tau):
    return model.omega(y, nu) - tau


def chart_N(model, y, nu, tau):
    return chart_Q(model, y, nu, tau) + model.d_offset(y)


def chart_Lc(model, y, nu, tau, check=True):
    q = chart_Q(model, y, nu, tau)
    return chart_L(model, y, nu, tau, check=check) + q * q


def omega_coeffs(model, y) -> np.ndarray:
    """Coefficient covectors w(y) with omega_y(nu) = w(y) . nu, shape (n, m).

    omega is linear in nu by assumption, so evaluating on basis vectors
    recovers the coefficients exactly.  One n-row call per basis vector
    avoids building an (n*m)-row batch.
    """
    y = np.asarray(y, dtype=float)
    w = np.empty_like(y)
    e = np.zeros_like(y)
    for j in range(y.shape[1]):
        e[:, j] = 1.0
        w[:, j] = model.omega(y, e)
        e[:, j] = 0.0
    return w


def _dE0_partials(model, y, nu):
    """Partials of E0 in (y, nu); analytic when available, else central FD."""
    if model.homogeneous:
        return model.dL0_dy(y, nu), model.dL0_dnu(y, nu)
    if model.dE0_dy is not None and model.dE0_dnu is not None:
        return model.dE0_dy(y, nu), model.dE0_dnu(y, nu)
    return (
        _central_diff(lambda yy: chart_E0(model, yy, nu), y),
        _central_diff(lambda nn: chart_E0(model, y, nn), nu),
    )


def chart_partials(model, y, nu, tau, kind: str):
    """Per-point partial derivatives (P, V, w) of a chart quantity.

    P = d/dy (shape (n, m)), V = d/dnu (shape (n, m)), w = d/dtau (shape (n,)),
    for kind in {"L", "E", "Q", "D"}.  Nothing depends on the t coordinate.
    """
    y = np.asarray(y, dtype=float)
    nu = np.asarray(nu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if kind == "Q":
        return model.domega_dy(y, nu), omega_coeffs(model, y), -np.ones_like(tau)
    if kind == "D":
        return model.dd_dy(y), np.zeros_like(nu), np.zeros_like(tau)
    if kind == "E":
        dE0y, dE0n = _dE0_partials(model, y, nu)
        w = model.omega(y, nu) - tau
        P = dE0y + tau[:, None] * model.domega_dy(y, nu)
        V = dE0n + tau[:, None] * omega_coeffs(model, y)
        return P, V, w
    if kind == "L":
        w = model.omega(y, nu) + model.d_offset(y) - tau
        P = model.dL0_dy(y, nu) + tau[:, None] * (
            model.domega_dy(y, nu) + model.dd_dy(y)
        )
        V = model.dL0_dnu(y, nu) + tau[:, None] * omega_coeffs(model, y)
        return P, V, w
    raise ValueError(f"unknown partials kind {kind!r}")


def chart_partials_gap(model, y, nu, tau):
    """Partials of (E - L).

    For a 2-homogeneous fiber with linear charge the gap vanishes
    identically; exact zeros are returned so that downstream identities
    (action variation equals energy variation) hold to the last bit.
    """
    nu = np.asarray(nu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if model.homogeneous and model.linear_charge:
        return np.zeros_like(nu), np.zeros_like(nu), np.zeros_like(tau)
    PE, VE, wE = chart_partials(model, y, nu, tau, "E")
    PL, VL, wL = chart_partials(model, y, nu, tau, "L")
    return PE - PL, VE - VL, wE - wL


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def _as_batch(x: Point, v: TangentVector):
    return x.y[None, :], v.nu[None, :], np.array([v.tau])


def eval_L(model: StationaryModel, x: Point, v: TangentVector) -> float:
    y, nu, tau = _as_batch(x, v)
    return float(chart_L(model, y, nu, tau)[0])


def eval_E(model: StationaryModel, x: Point, v: TangentVector) -> float:
    y, nu, tau = _as_batch(x, v)
    return float(chart_E(model, y, nu, tau)[0])


def eval_Q(model: StationaryModel, x: Point, v: TangentVector) -> float:
    y, nu, tau = _as_batch(x, v)
    return float(chart_Q(model, y, nu, tau)[0])


def eval_N(model: StationaryModel, x: Point, v: TangentVector) -> float:
    y, nu, tau = _as_batch(x, v)
    return float(chart_N(model, y, nu, tau)[0])


def eval_Lc(model: StationaryModel, x: Point, v: TangentVector) -> float:
    y, nu, tau = _as_batch(x, v)
    return float(chart_Lc(model, y, nu, tau)[0])


def shift_by_flow(v: TangentVector, t: float) -> TangentVector:
    """Add t times the symmetry field: (nu, tau) -> (nu, tau + t).

    Callers rely on L(x, v + tK) = L(x, v) + t*N(x, v) - t^2/2 and
    E(x, v + tK) = E(x, v) + t*Q(v) - t^2/2, which are algebraic identities
    of the chart formulas.
    """
    return TangentVector(v.nu, v.tau + float(t))


def is_causal(model: StationaryModel, x: Point, v: TangentVector) -> bool:
    """Membership in the causal cone tau >= omega + sqrt(omega^2 + 2 L0)."""
    if not model.homogeneous:
        raise UnsupportedModelError(
            "causal cone is only defined for 2-homogeneous fiber Lagrangians"
        )
    y, nu, tau = _as_batch(x, v)
    om = float(model.omega(y, nu)[0])
    l0 = float(model.L0(y, nu)[0])
    rad = om * om + 2.0 * l0
    if rad < 0.0:
        return False
    return v.tau >= om + math.sqrt(rad)


def validate_assumptions(
    model: StationaryModel,
    region: Sequence[tuple[float, float]],
    samples: int,
    rng_seed: int = 0,
) -> ValidationReport:
    """Sample the structural assumptions on a box in the slice.

    Estimates the fiberwise convexity margin (the smallest sampled monotonicity
    quotient of the convexified Lagrangian), the sup of L at zero velocity,
    the induced admissible bound on kappa, finiteness of values/partials, and
    counts causal-cone consistency tests for 2-homogeneous models.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    region = [(float(lo), float(hi)) for lo, hi in region]
    if len(region) != model.dim:
        raise ValueError(f"region must have {model.dim} coordinate intervals")
    if any(lo > hi for lo, hi in region):
        raise ValueError("empty region: lower bound exceeds upper bound")
    rng = np.random.default_rng(rng_seed)
    n = int(samples)
    lo = np.array([r[0] for r in region])
    hi = np.array([r[1] for r in region])
    y = lo + (hi - lo) * rng.random((n, model.dim))
    scale = np.exp(rng.uniform(-1.0, 1.5, size=(n, 1)))
    v1 = rng.standard_normal((n, model.dim + 1)) * scale
    v2 = rng.standard_normal((n, model.dim + 1)) * scale

    def dvLc(nu, tau):
        # L_c = L + Q^2 in chart coordinates:
        #   d/dnu = dL0_dnu + (2*omega - tau) * w(y)
        #   d/dtau = d - omega + tau
        om = model.omega(y, nu)
        w = omega_coeffs(model, y)
        gnu = model.dL0_dnu(y, nu) + (2.0 * om - tau)[:, None] * w
        gtau = model.d_offset(y) - om + tau
        return np.concatenate([gnu, gtau[:, None]], axis=1)

    g1 = dvLc(v1[:, :-1], v1[:, -1])
    g2 = dvLc(v2[:, :-1], v2[:, -1])
    dv = v2 - v1
    denom = np.einsum("ij,ij->i", dv, dv)
    ok = denom > 1e-20
    quotients = np.einsum("ij,ij->i", g2 - g1, dv)[ok] / denom[ok]
    convexity_margin = float(np.min(quotients)) if quotients.size else float("nan")

    l_at_zero = chart_L(model, y, np.zeros((n, model.dim)), np.zeros(n))
    supL0_at_zero = float(np.max(l_at_zero))
    kappa_bound = -supL0_at_zero + 0.0  # avoid negative zero

    # Growth / lower-bound checks: finiteness of L_c and its partials on the
    # samples, plus the pointwise bound E + Q^2/2 >= kappa_bound.
    nu1, tau1 = v1[:, :-1], v1[:, -1]
    lc = chart_Lc(model, y, nu1, tau1, check=False)
    PL, VL, wL = chart_partials(model, y, nu1, tau1, "L")
    e_plus_half_q2 = chart_E(model, y, nu1, tau1, check=False) + 0.5 * chart_Q(
        model, y, nu1, tau1
    ) ** 2
    growth_ok = bool(
        np.all(np.isfinite(lc))
        and np.all(np.isfinite(g1))
        and np.all(np.isfinite(PL))
        and np.all(np.isfinite(VL))
        and np.all(np.isfinite(wL))
        and np.all(e_plus_half_q2 >= kappa_bound - 1e-9 * (1.0 + abs(kappa_bound)))
    )

    x0 = Point(y[0], 0.0)
    qk_check = abs(eval_Q(model, x0, TangentVector(np.zeros(model.dim), 1.0)) + 1.0) < 1e-12

    cone_samples = 0
    if model.homogeneous:
        om = model.omega(y, nu1)
        l0 = model.L0(y, nu1)
        rad = np.maximum(om * om + 2.0 * l0, 0.0)
        tau_cone = om + np.sqrt(rad) + np.abs(rng.standard_normal(n))
        lv = chart_L(model, y, nu1, tau_cone, check=False)
        qv = chart_Q(model, y, nu1, tau_cone)
        vsq = np.einsum("ij,ij->i", nu1, nu1) + tau_cone**2
        passed = (lv <= 1e-12 * (1.0 + vsq)) & (qv <= 1e-12)
        cone_samples = int(np.count_nonzero(passed))

    return ValidationReport(
        qk_check=qk_check,
        convexity_margin=convexity_margin,
        growth_ok=growth_ok,
        supL0_at_zero=supL0_at_zero,
        kappa_admissible_bound=kappa_bound,
        cone_samples=cone_samples,
    )


# ---------------------------------------------------------------------------
# polynomial models
# ---------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^(y|nu)(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True)
class Monomial:
    coef: float
    y_pow: tuple[int, ...]
    nu_pow: tuple[int, ...]


class Polynomial:
    """Sparse polynomial in (y_1..y_m, nu_1..nu_m) with exact derivatives."""

    def __init__(self, dim: int, terms: Sequence[Monomial]):
        self.dim = dim
        self.terms = tuple(t for t in terms if t.coef != 0.0)

    def __call__(self, y, nu=None):
        y = np.asarray(y, dtype=float)
        n = y.shape[0]
        out = np.zeros(n)
        for t in self.terms:
            v = np.full(n, t.coef)
            for j, p in enumerate(t.y_pow):
                if p:
                    v = v * y[:, j] ** p
            if nu is not None:
                nu_ = np.asarray(nu, dtype=float)
                for j, p in enumerate(t.nu_pow):
                    if p:
                        v = v * nu_[:, j] ** p
            out += v
        return out

    def deriv(self, var: str, j: int) -> "Polynomial":
        terms = []
        for t in self.terms:
            pows = t.y_pow if var == "y" else t.nu_pow
            p = pows[j]
            if p == 0:
                continue
            new = list(pows)
            new[j] = p - 1
            if var == "y":
                terms.append(Monomial(t.coef * p, tuple(new), t.nu_pow))
            else:
                terms.append(Monomial(t.coef * p, t.y_pow, tuple(new)))
        return Polynomial(self.dim, terms)

    def energy(self) -> "Polynomial":
        """E0 for a polynomial fiber: sum over terms of (deg_nu - 1) * term."""
        return Polynomial(
            self.dim,
            [
                Monomial(t.coef * (sum(t.nu_pow) - 1), t.y_pow, t.nu_pow)
                for t in self.terms
            ],
        )

    def grad_eval(self, var: str, y, nu=None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros((y.shape[0], self.dim))
        for j in range(self.dim):
            out[:, j] = self.deriv(var, j)(y, nu)
        return out

    def is_homogeneous_degree2(self) -> bool:
        return all(sum(t.nu_pow) == 2 for t in self.terms)

    def max_nu_degree(self) -> int:
        return max((sum(t.nu_pow) for t in self.terms), default=0)


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """Parse a sum of monomial terms like ``0.5 nu1^2 - 0.3 y2 nu1``.

    Factors within a term are separated by whitespace or '*'; the leading
    numeric factor is optional.  Variables are y1..ym and nu1..num.
    """
    text = text.strip()
    if text in ("", "0"):
        return Polynomial(dim, [])
    terms = []
    for raw in _TERM_SPLIT.split(text.replace("**", "^")):
        raw = raw.strip()
        if not raw:
            continue
        sign = 1.0
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:].strip()
        coef = sign
        y_pow = [0] * dim
        nu_pow = [0] * dim
        for factor in raw.replace("*", " ").split():
            m = _FACTOR.match(factor)
            if m:
                kind, idx, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
                if not 1 <= idx <= dim:
                    raise ScenarioError(
                        f"variable index out of range in term {raw!r} (dim={dim})"
                    )
                (y_pow if kind == "y" else nu_pow)[idx - 1] += power
            else:
                try:
                    coef *= float(factor)
                except ValueError:
                    raise ScenarioError(f"cannot parse factor {factor!r} in {raw!r}")
        terms.append(Monomial(coef, tuple(y_pow), tuple(nu_pow)))
    return Polynomial(dim, terms)


def polynomial_model(
    dim: int,
    L0_poly: Polynomial,
    omega_poly: Optional[Polynomial] = None,
    d_poly: Optional[Polynomial] = None,
    *,
    periods: Optional[Sequence[float]] = None,
    homogeneous: Optional[bool] = None,
    name: str = "",
) -> StationaryModel:
    if omega_poly is not None and omega_poly.max_nu_degree() > 1:
        raise ScenarioError("omega must be linear in nu")
    if d_poly is not None and d_poly.max_nu_degree() > 0:
        raise ScenarioError("d must not depend on nu")
    if homogeneous is None:
        homogeneous = L0_poly.is_homogeneous_degree2()
    E0 = L0_poly.energy()
    has_d = d_poly is not None and len(d_poly.terms) > 0
    return build_model(
        dim,
        L0=L0_poly,
        omega=(lambda y, nu: omega_poly(y, nu)) if omega_poly else None,
        d_offset=(lambda y: d_poly(y)) if has_d else None,
        dL0_dy=lambda y, nu: L0_poly.grad_eval("y", y, nu),
        dL0_dnu=lambda y, nu: L0_poly.grad_eval("nu", y, nu),
        domega_dy=(lambda y, nu: omega_poly.grad_eval("y", y, nu)) if omega_poly else None,
        dd_dy=(lambda y: d_poly.grad_eval("y", y)) if has_d else None,
        dE0_dy=lambda y, nu: E0.grad_eval("y", y, nu),
        dE0_dnu=lambda y, nu: E0.grad_eval("nu", y, nu),
        homogeneous=homogeneous,
        periods=periods,
        name=name,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _flat_parts(dim):
    def L0(y, nu):
        return 0.5 * np.einsum("ij,ij->i", nu, nu)

    def dL0_dy(y, nu):
        return np.zeros_like(np.asarray(y, dtype=float))

    def dL0_dnu(y, nu):
        return np.asarray(nu, dtype=float).copy()

    return L0, dL0_dy, dL0_dnu


def flat_model(dim: int = 2, *, periods=None, name="flat") -> StationaryModel:
    L0, dL0_dy, dL0_dnu = _flat_parts(dim)
    return build_model(
        dim, L0, dL0_dy=dL0_dy, dL0_dnu=dL0_dnu,
        homogeneous=True, periods=periods, name=name,
    )


def randers_const_model(b: Sequence[float], name=None) -> StationaryModel:
    b = np.asarray(b, dtype=float)
    dim = b.size
    L0, dL0_dy, dL0_dnu = _flat_parts(dim)
    return build_model(
        dim,
        L0,
        omega=lambda y, nu: np.asarray(nu) @ b,
        dL0_dy=dL0_dy,
        dL0_dnu=dL0_dnu,
        domega_dy=lambda y, nu: np.zeros_like(np.asarray(y, dtype=float)),
        homogeneous=True,
        name=name or "randers-const(%s)" % ",".join("%g" % x for x in b),
    )


def randers_rot_model(b: float, name=None) -> StationaryModel:
    """Rotational drift omega(y, nu) = b * (-y2 nu1 + y1 nu2) on a 2d slice."""
    b = float(b)
    L0, dL0_dy, dL0_dnu = _flat_parts(2)

    def omega(y, nu):
        return b * (-y[:, 1] * nu[:, 0] + y[:, 0] * nu[:, 1])

    def domega_dy(y, nu):
        return b * np.stack([nu[:, 1], -nu[:, 0]], axis=1)

    return build_model(
        2, L0, omega=omega,
        dL0_dy=dL0_dy, dL0_dnu=dL0_dnu, domega_dy=domega_dy,
        homogeneous=True, name=name or f"randers-rot({b:g})",
    )


def cylinder_model(radius: float, name=None) -> StationaryModel:
    """Flat 2d slice with the second coordinate periodic of period 2*pi*R."""
    radius = float(radius)
    return flat_model(
        2,
        periods=(0.0, 2.0 * math.pi * radius),
        name=name or f"cylinder({radius:g})",
    )


def affine_model(base: StationaryModel, d_poly: Polynomial, name=None) -> StationaryModel:
    """Wrap a base model with a position-dependent charge offset d(y)."""
    if d_poly.max_nu_degree() > 0:
        raise ScenarioError("d must not depend on nu")
    return replace(
        base,
        d_offset=lambda y: d_poly(y),
        dd_dy=lambda y: d_poly.grad_eval("y", y),
        linear_charge=False,
        name=name or f"affine({base.name})",
    )


def _split_args(argtext: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in argtext:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def get_model(spec: str) -> StationaryModel:
    """Resolve a registry spec string to a model.

    Supported: flat, flat(m), randers-const(b1,..,bm), randers-rot(b),
    cylinder(R), affine(base, c0), affine-field(base, <d polynomial>),
    custom(<definition file>).
    """
    spec = spec.strip()
    m = re.match(r"^([a-zA-Z-]+)\s*(?:\((.*)\))?$", spec, re.S)
    if not m:
        raise ScenarioError(f"cannot parse model spec {spec!r}")
    head, argtext = m.group(1), m.group(2) or ""
    args = _split_args(argtext)
    try:
        if head == "flat":
            return flat_model(int(args[0]) if args else 2)
        if head == "randers-const":
            if not args:
                raise ScenarioError("randers-const needs drift components")
            return randers_const_model([float(a) for a in args])
        if head == "randers-rot":
            return randers_rot_model(float(args[0]))
        if head == "cylinder":
            return cylinder_model(float(args[0]))
        if head == "affine":
            base = get_model(args[0])
            c0 = float(args[1])
            d = Polynomial(base.dim, [Monomial(c0, (0,) * base.dim, (0,) * base.dim)])
            return affine_model(base, d, name=f"affine({base.name},{c0:g})")
        if head == "affine-field":
            base = get_model(args[0])
            d = parse_polynomial(",".join(args[1:]), base.dim)
            return affine_model(base, d, name=f"affine-field({base.name})")
        if head == "custom":
            return load_custom_model(argtext.strip())
    except (IndexError, ValueError) as exc:
        raise ScenarioError(f"bad arguments in model spec {spec!r}: {exc}") from exc
    raise ScenarioError(f"unknown model {head!r}")


def load_custom_model(path: str) -> StationaryModel:
    """Load a model from a key = value definition file.

    Recognized keys: dim (required), L0 (required), omega, d, topology
    ("euclidean" or space-separated per-coordinate periods), homogeneous
    (optional; inferred from the L0 terms when absent).
    """
    import configparser

    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ScenarioError(f"cannot read model definition {path!r}")
    section = cp.sections()[0] if cp.sections() else configparser.DEFAULTSECT
    sec = cp[section]
    try:
        dim = int(sec["dim"])
        L0 = parse_polynomial(sec["L0"], dim)
    except KeyError as exc:
        raise ScenarioError(f"model definition {path!r} missing key {exc}") from exc
    omega = parse_polynomial(sec.get("omega", "0"), dim)
    d = parse_polynomial(sec.get("d", "0"), dim)
    periods = None
    topo = sec.get("topology", "euclidean").strip()
    if topo and topo != "euclidean":
        periods = [float(x) for x in topo.replace("cylinder", "").strip("() ").split()]
        if len(periods) != dim:
            raise ScenarioError(f"topology needs {dim} periods, got {len(periods)}")
    homogeneous = None
    if "homogeneous" in sec:
        homogeneous = sec.getboolean("homogeneous")
    return polynomial_model(
        dim, L0,
        omega_poly=omega if omega.terms else None,
        d_poly=d if d.terms else None,
        periods=periods, homogeneous=homogeneous,
        name=f"custom({path})",
    )
