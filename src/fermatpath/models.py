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

A model carries the partials of L0, omega, d and the fiber energy E0, and
the coefficients w(y) of omega.  `build_model` settles the source of each
once, when the model is built (given, central differences, for E0 of a
2-homogeneous fiber the L0 partials, and for the coefficients omega on the
basis vectors), so `chart_partials` and `omega_coeffs` only call them.  A
polynomial model gives them all exactly, its omega coefficients as the
nu-gradient of omega, which needs no omega evaluation; randers-rot gives
its coefficients with the bits of the basis evaluation.  Polynomials are
evaluated from a plan compiled when they are built: one power table per
call, shared by the m components of a gradient.

Scenario and model files share one strict reader (`read_ini`), and every
number of an input, registry spec arguments and polynomial coefficients
included, is read by `_number`, whose errors name the file, the section
and the key.
"""
from __future__ import annotations

import configparser
import math
import re
from dataclasses import asdict, dataclass, replace
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

    Every evaluator is set, the derivatives included: `build_model` settles
    where each one comes from when the model is built, so no caller picks a
    source at evaluation time.  `omega_w` gives the coefficient covectors
    w(y) of the one-form, omega_y(nu) = w(y) . nu, shape (n, m) (read
    through omega_coeffs).  `dE0_dy` and `dE0_dnu` are the partials of the
    fiber energy E0 = dL0_dnu . nu - L0 (chart_E0).

    `homogeneous` means L0 is positively 2-homogeneous in nu, which makes
    E0 = L0 and enables the action = energy shortcut.  `linear_charge` is
    true when the offset d vanishes identically; operations restricted to
    2-homogeneous Lagrangians (causal cone, optical arrival length) require
    both flags.  `static` is true when omega vanishes identically and d is
    constant, so the charge omega + d - tau does not see the spatial nodes:
    its gradients are dE0 / S (arrival._static_form) and skip the lift
    adjoint (arrival._restricted_gradient), and its line-search trials take
    the t-part of their iterate (paths.project_to_N).  `build_model` sets it
    when omega and d are both absent, `affine_model` keeps it for an offset
    with no y-dependent term;
    like `linear_charge` it is derived from the model, never given, and a
    `replace` that gives a model an omega or a y-dependent d must clear it
    (paths.project_to_N refuses the model otherwise).  `fermat` is true
    when L0 is 2-homogeneous and the offset d does not depend on y (d absent
    for `build_model`, an offset with no y-term for `affine_model`): the
    models whose trajectory equation theta = 0 is dt_plus = 0, Fermat's
    principle (arrival.criticality_residual).  A descent of any other model
    checks theta where it stops (solve._descend).  It is derived like
    `static`, and a `replace` that breaks either condition must clear it.
    `periods` lists per-coordinate identification periods of the slice
    (0 = aperiodic); None means a plain euclidean slice.

    An evaluator's result may share memory with its input (flat fibers
    return nu itself from dL0_dnu), and no kernel writes it: every caller
    reads an evaluator's result, or writes the sum or product it forms
    into an array of its own.
    """

    dim: int
    L0: FiberEval
    dL0_dy: FiberEval
    dL0_dnu: FiberEval
    omega: FiberEval
    domega_dy: FiberEval
    omega_w: BaseEval
    d_offset: BaseEval
    dd_dy: BaseEval
    dE0_dy: FiberEval
    dE0_dnu: FiberEval
    homogeneous: bool = False
    periods: Optional[tuple[float, ...]] = None
    linear_charge: bool = True
    static: bool = False
    fermat: bool = False
    name: str = ""

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
        return asdict(self)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def _zeros(y, nu=None):
    return np.zeros(np.asarray(y).shape[0])


def _zeros_grad(y, nu=None):
    return np.zeros(y.shape)


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


def _basis_coeffs(omega: FiberEval, y) -> np.ndarray:
    """The coefficients of a one-form linear in nu, from omega evaluated
    on each basis vector: one n-row call per slice coordinate."""
    y = np.asarray(y, dtype=float)
    w = np.empty_like(y)
    e = np.zeros(y.shape)
    for j in range(y.shape[1]):
        e[:, j] = 1.0
        w[:, j] = omega(y, e)
        e[:, j] = 0.0
    return w


def _check_dim(dim: int):
    if dim < 1:
        raise ValueError(f"model dimension must be at least 1, not {dim}")


def _check_period(period: float):
    """A period of the slice: 0 (aperiodic) or positive, and finite."""
    if not 0.0 <= period < math.inf:
        raise ValueError(f"a period must be at least 0 and finite, not {period:g}")


def _check_radius(radius: float):
    """A cylinder radius: positive, with a finite period 2 pi radius."""
    if not 0.0 < 2.0 * math.pi * radius < math.inf:
        raise ValueError(
            f"a cylinder radius must be positive with a finite period, not {radius:g}"
        )


def _check_samples(samples: int):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")


def build_model(
    dim: int,
    L0: FiberEval,
    omega: Optional[FiberEval] = None,
    d_offset: Optional[BaseEval] = None,
    *,
    dL0_dy: Optional[FiberEval] = None,
    dL0_dnu: Optional[FiberEval] = None,
    domega_dy: Optional[FiberEval] = None,
    omega_w: Optional[BaseEval] = None,
    dd_dy: Optional[BaseEval] = None,
    dE0_dy: Optional[FiberEval] = None,
    dE0_dnu: Optional[FiberEval] = None,
    homogeneous: bool = False,
    periods: Optional[Sequence[float]] = None,
    name: str = "",
) -> StationaryModel:
    """Assemble a model and settle the source of each of its derivatives.

    An absent omega or d is identically zero, with zero derivatives.  Each
    derivative that is given is used as given, and each that is absent is
    the central difference of its function (`_central_diff`).  Absent
    omega coefficients `omega_w` are omega evaluated on the basis vectors
    (`_basis_coeffs`), which is exact for an omega linear in nu.  A model
    with neither omega nor d is `static`, and a `homogeneous` one without d
    is `fermat`.  The E0 partials of a 2-homogeneous fiber are dL0_dy and
    dL0_dnu themselves, since E0 = L0 there; given `dE0_dy`/`dE0_dnu` are
    then not used.  A slice dimension below 1, and a period that is
    negative or not finite, raise ValueError.
    """
    _check_dim(dim)
    for p in () if periods is None else periods:
        _check_period(float(p))
    linear = d_offset is None
    static = linear and omega is None
    if omega is None:
        omega = _zeros
        domega_dy = _zeros_grad
        omega_w = _zeros_grad
    if d_offset is None:
        d_offset = _zeros
        dd_dy = _zeros_grad
    if dL0_dy is None:
        dL0_dy = lambda y, nu: _central_diff(lambda yy: L0(yy, nu), y)
    if dL0_dnu is None:
        dL0_dnu = lambda y, nu: _central_diff(lambda nn: L0(y, nn), nu)
    if domega_dy is None:
        domega_dy = lambda y, nu: _central_diff(lambda yy: omega(yy, nu), y)
    if omega_w is None:
        omega_w = lambda y: _basis_coeffs(omega, y)
    if dd_dy is None:
        dd_dy = lambda y: _central_diff(d_offset, y)
    if homogeneous:
        dE0_dy, dE0_dnu = dL0_dy, dL0_dnu
    # The differences of E0 read the model built below (chart_E0).
    if dE0_dy is None:
        dE0_dy = lambda y, nu: _central_diff(lambda yy: chart_E0(model, yy, nu), y)
    if dE0_dnu is None:
        dE0_dnu = lambda y, nu: _central_diff(lambda nn: chart_E0(model, y, nn), nu)
    model = StationaryModel(
        dim=int(dim),
        L0=L0,
        dL0_dy=dL0_dy,
        dL0_dnu=dL0_dnu,
        omega=omega,
        domega_dy=domega_dy,
        omega_w=omega_w,
        d_offset=d_offset,
        dd_dy=dd_dy,
        dE0_dy=dE0_dy,
        dE0_dnu=dE0_dnu,
        homogeneous=bool(homogeneous),
        periods=tuple(float(p) for p in periods) if periods is not None else None,
        linear_charge=linear,
        static=static,
        fermat=bool(homogeneous) and linear,
        name=name,
    )
    return model


def time_reversed(model: StationaryModel) -> StationaryModel:
    """The model of the substitution t -> -t: omega and d negated.

    L0 + (omega + d) tau - tau^2 / 2 keeps its form under tau -> -tau with
    omega and d negated, and E does not change, since (-omega)(-tau) =
    omega tau exactly.  So the t_minus of a path is -t_plus of its
    reflection (t -> 0.0 - t) under this model.  The evaluators of omega,
    its y-partials and coefficients, d and its y-partials return the
    negated values, which is exact; identically zero ones are kept as they
    are, so a static model stays static with A = B = +0.0.  L0, the E0
    partials, the flags, the periods and the name are kept, so errors read
    as those of `model`.
    """

    def negated(f):
        if f in (_zeros, _zeros_grad):
            return f
        return lambda *args: -f(*args)

    return replace(model, **{
        k: negated(getattr(model, k))
        for k in ("omega", "domega_dy", "omega_w", "d_offset", "dd_dy")
    })


# ---------------------------------------------------------------------------
# row-wise kernels
# ---------------------------------------------------------------------------
#
# On an (N, m) C-ordered array, numpy runs a row scaling s[:, None] * X, an
# einsum row dot, an axis-0 reduce and a row broadcast as N inner loops of
# m elements each.  The row-wise kernels run down whole columns instead,
# with the bits of the plain expressions: `_row_scale`, `_row_dot`, and
# arrival._column_cumsum and arrival._column_sum (the scans and the column
# sum of arrival._h1_solve, which treat an (N, 2) array as one complex
# column, as its mean subtraction does at every N; see
# arrival._complex_column).  Two cases keep numpy's own form, because the
# columns would sum in another order: a row dot of m >= 3 columns is
# einsum's, and the column sum of m = 1 column is numpy's pairwise reduce.
# On fewer rows than this, one ufunc call per column costs more than
# numpy's row loops (measured crossover 300-400 rows at m = 2), and the
# complex scan more than the plain one, so all four evaluate the plain
# expression.
_COLUMN_LOOP_MIN_ROWS = 400


def _row_scale(s, X, out=None) -> np.ndarray:
    """s[:, None] * X for (N,) s and (N, m) X, one multiply per column
    from _COLUMN_LOOP_MIN_ROWS rows on.

    A product has the same bits in any order.  `out` may be X itself.
    """
    if X.shape[0] < _COLUMN_LOOP_MIN_ROWS:
        return np.multiply(s[:, None], X, out=out)
    if out is None:
        out = np.empty(X.shape)
    for j in range(X.shape[1]):
        np.multiply(s, X[:, j], out=out[:, j])
    return out


def _row_dot(A, B) -> np.ndarray:
    """np.einsum("ij,ij->i", A, B) for (N, m) A and B, bit for bit.

    For m <= 2 einsum adds the products of a row one by one to +0.0.  So
    do the columns: the first column product plus +0.0, which turns -0.0
    into +0.0 and keeps every other value, then the second column product.
    For m >= 3 einsum sums in another order, and is called, as it is on
    fewer than _COLUMN_LOOP_MIN_ROWS rows.
    """
    if A.shape[1] > 2 or A.shape[0] < _COLUMN_LOOP_MIN_ROWS:
        return np.einsum("ij,ij->i", A, B)
    h = np.multiply(A[:, 0], B[:, 0])
    h += 0.0
    if A.shape[1] == 2:
        h += A[:, 1] * B[:, 1]
    return h


# ---------------------------------------------------------------------------
# batched chart evaluation
# ---------------------------------------------------------------------------

def _check_finite(values: np.ndarray, model: StationaryModel, y, nu, tau, what: str):
    values = np.asarray(values)
    if not np.isfinite(values).all():
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
    return _row_dot(model.dL0_dnu(y, nu), nu) - model.L0(y, nu)


def chart_E(model, y, nu, tau, check=True, *, omega=None):
    """E = E0 + omega * tau - tau^2 / 2; the offset d never enters the energy.

    `omega` may pass the already evaluated omega(y, nu).
    """
    e0 = chart_E0(model, y, nu)
    om = model.omega(y, nu) if omega is None else omega
    # e0 + om * tau - 0.5 * tau * tau, summed in that order over om * tau;
    # 0.5 * tau * tau is formed in one temporary, released before the
    # finiteness check as the expression's temporaries were
    val = np.multiply(om, tau)
    val += e0
    half_sq = np.multiply(0.5, tau)
    half_sq *= tau
    val -= half_sq
    del half_sq
    return _check_finite(val, model, y, nu, tau, "energy value") if check else val


def chart_Q(model, y, nu, tau):
    return model.omega(y, nu) - tau


def chart_Lc(model, y, nu, tau, check=True):
    q = chart_Q(model, y, nu, tau)
    return chart_L(model, y, nu, tau, check=check) + q * q


def omega_coeffs(model, y) -> np.ndarray:
    """Coefficient covectors w(y) with omega_y(nu) = w(y) . nu, shape (n, m):
    the model's omega_w, as `build_model` settled it."""
    return model.omega_w(y)


def chart_partials(model, y, nu, tau, kind: str, *, omega=None, domega_dy=None, w=None):
    """Per-point partial derivatives (P, V, w) of a chart quantity.

    P = d/dy (shape (n, m)), V = d/dnu (shape (n, m)), w = d/dtau (shape (n,))
    of the Lagrangian L (kind "L"), the energy E (kind "E") or the charge
    offset d (kind "D"); nothing depends on the t coordinate.  They read the
    model's derivatives as `build_model` settled them; E takes the E0
    partials dE0_dy and dE0_dnu.  The partials of the charge Q = omega - tau
    are domega_dy, the omega coefficients and -1, which callers use
    directly.  Values already evaluated at (y, nu) may be passed and are used
    as given: `omega` = omega(y, nu), `domega_dy` = domega_dy(y, nu) and
    `w` = omega_coeffs(y), the coefficients `build_model` settled.  Every
    returned array is the call's own, but for the P of kind "D", which is
    dd_dy's result as the model returns it.  Each sum is written over one
    of its own terms, with the operations of the formula in its order, so
    the bits are those of the formula.  tau scales the rows of an (n, m) partial
    with `_row_scale` (see the row-wise kernels section).
    """
    y = np.asarray(y, dtype=float)
    nu = np.asarray(nu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if kind == "D":
        return model.dd_dy(y), np.zeros_like(nu), np.zeros_like(tau)
    if kind not in ("E", "L"):
        raise ValueError(f"unknown partials kind {kind!r}")
    dom = model.domega_dy(y, nu) if domega_dy is None else domega_dy
    coeffs = omega_coeffs(model, y) if w is None else w
    om = model.omega(y, nu) if omega is None else omega
    if kind == "E":
        # dE0_dy + tau * dom, dE0_dnu + tau * coeffs, om - tau
        P = _row_scale(tau, dom)
        P += model.dE0_dy(y, nu)
        V = _row_scale(tau, coeffs)
        V += model.dE0_dnu(y, nu)
        return P, V, np.subtract(om, tau)
    P = _dL_dy(model, y, nu, tau, dom)
    V = _dL_dnu(model, y, nu, tau, coeffs)
    return P, V, _dL_dtau(model, y, tau, om)


# The three partials of L, each a new array: chart_partials of kind "L"
# forms all three, and solve.el_residual only those it reads.

def _dL_dy(model, y, nu, tau, dom):
    """dL/dy = dL0_dy + tau * (dom + dd_dy), with dom = domega_dy(y, nu).

    dL0_dy is evaluated last, once dd_dy's result has been added and
    freed: the sum is the same."""
    P = np.add(dom, model.dd_dy(y))
    _row_scale(tau, P, out=P)
    P += model.dL0_dy(y, nu)
    return P


def _dL_dnu(model, y, nu, tau, coeffs):
    """dL/dnu = dL0_dnu + tau * coeffs, with coeffs = omega_coeffs(model, y)."""
    V = _row_scale(tau, coeffs)
    V += model.dL0_dnu(y, nu)
    return V


def _dL_dtau(model, y, tau, om):
    """dL/dtau = om + d - tau, with om = omega(y, nu)."""
    w_part = np.add(om, model.d_offset(y))
    w_part -= tau
    return w_part


def chart_partials_gap(model, y, nu, tau, E, *, omega, domega_dy, w):
    """Partials of (E - L), new arrays.

    `E` holds the partials (P, V, w) of kind "E" at (y, nu, tau), and
    `omega`, `domega_dy` and `w` the values chart_partials takes, all
    evaluated there; only the L partials are evaluated here.  For a
    2-homogeneous fiber with linear charge the gap vanishes identically;
    exact zeros are returned so that downstream identities (action
    variation equals energy variation) hold to the last bit.
    """
    nu = np.asarray(nu, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if model.homogeneous and model.linear_charge:
        return np.zeros_like(nu), np.zeros_like(nu), np.zeros_like(tau)
    L = chart_partials(
        model, y, nu, tau, "L", omega=omega, domega_dy=domega_dy, w=w
    )
    for e_part, l_part in zip(E, L):
        np.subtract(e_part, l_part, out=l_part)
    return L


# ---------------------------------------------------------------------------
# causal cone and sampled assumption checks
# ---------------------------------------------------------------------------

def is_causal(model: StationaryModel, x: Point, v: TangentVector) -> bool:
    """Membership in the causal cone tau >= omega + sqrt(omega^2 + 2 L0).

    The cone needs a 2-homogeneous L: a 2-homogeneous fiber and a linear
    charge (d = 0).  A model without both flags raises UnsupportedModelError.
    """
    if not (model.homogeneous and model.linear_charge):
        raise UnsupportedModelError(
            "causal cone needs a 2-homogeneous fiber and a linear charge"
        )
    y, nu = x.y[None, :], v.nu[None, :]
    om = float(model.omega(y, nu)[0])
    l0 = float(model.L0(y, nu)[0])
    rad = om * om + 2.0 * l0
    if rad < 0.0:
        return False
    return v.tau >= om + math.sqrt(rad)


# A model that overflows on the samples fails the checks, which report its
# non-finite values themselves: no numpy warnings.
@np.errstate(all="ignore")
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
    counts causal-cone consistency tests when L is 2-homogeneous: both a
    2-homogeneous fiber and a linear charge, as is_causal requires (0 for any
    other model).  Values that overflow or are undefined on the samples raise
    no warning: they show as a nan convexity margin or a failed growth check.
    """
    _check_samples(samples)
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

    w = omega_coeffs(model, y)

    def dvLc(nu, tau):
        # L_c = L + Q^2 in chart coordinates:
        #   d/dnu = dL0_dnu + (2*omega - tau) * w(y)
        #   d/dtau = d - omega + tau
        om = model.omega(y, nu)
        gnu = model.dL0_dnu(y, nu) + _row_scale(2.0 * om - tau, w)
        gtau = model.d_offset(y) - om + tau
        return np.concatenate([gnu, gtau[:, None]], axis=1)

    g1 = dvLc(v1[:, :-1], v1[:, -1])
    g2 = dvLc(v2[:, :-1], v2[:, -1])
    dv = v2 - v1
    denom = _row_dot(dv, dv)
    ok = denom > 1e-20
    quotients = _row_dot(g2 - g1, dv)[ok] / denom[ok]
    convexity_margin = float(np.min(quotients)) if quotients.size else float("nan")

    l_at_zero = chart_L(model, y, np.zeros((n, model.dim)), np.zeros(n))
    supL0_at_zero = float(np.max(l_at_zero))
    bound = -supL0_at_zero + 0.0  # avoid negative zero

    # Growth / lower-bound checks: finiteness of L_c and its partials on the
    # samples, plus the pointwise bound E + Q^2/2 >= the kappa bound.
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
        and np.all(e_plus_half_q2 >= bound - 1e-9 * (1.0 + abs(bound)))
    )

    # The charge of the symmetry field K = (0, 1) at the first sample.
    q_k = float(chart_Q(model, y[:1], np.zeros((1, model.dim)), np.ones(1))[0])
    qk_check = abs(q_k + 1.0) < 1e-12

    cone_samples = 0
    if model.homogeneous and model.linear_charge:
        om = model.omega(y, nu1)
        l0 = model.L0(y, nu1)
        rad = np.maximum(om * om + 2.0 * l0, 0.0)
        tau_cone = om + np.sqrt(rad) + np.abs(rng.standard_normal(n))
        lv = chart_L(model, y, nu1, tau_cone, check=False)
        qv = chart_Q(model, y, nu1, tau_cone)
        vsq = _row_dot(nu1, nu1) + tau_cone**2
        passed = (lv <= 1e-12 * (1.0 + vsq)) & (qv <= 1e-12)
        cone_samples = int(np.count_nonzero(passed))

    return ValidationReport(
        qk_check=qk_check,
        convexity_margin=convexity_margin,
        growth_ok=growth_ok,
        supL0_at_zero=supL0_at_zero,
        kappa_admissible_bound=bound,
        cone_samples=cone_samples,
    )


# ---------------------------------------------------------------------------
# polynomial models
# ---------------------------------------------------------------------------

# A sign starts a new term unless it is an exponent's sign (1e-3, 2.5E+1).
_TERM_SPLIT = re.compile(r"(?<![eE])(?=[+-])")
_FACTOR = re.compile(r"^(y|nu)(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True)
class Monomial:
    coef: float
    y_pow: tuple[int, ...]
    nu_pow: tuple[int, ...]


class _Plan:
    """Evaluation plan of one or more polynomials over one power table.

    Built once, when the polynomial is.  Each distinct column power
    x[:, j] ** p of the terms is a slot of the table, computed once per
    call; a power of 1 is the column view itself.  A term is its
    coefficient and the slots of its non-zero powers, y factors before nu
    factors, the order of a term-by-term evaluation; without nu its nu
    factors are left out.  `run` adds component k's terms in order into
    the k-th of the given zero columns: each term is coef * first factor,
    times the others in place, so every value has the bits of a
    term-by-term evaluation.
    """

    def __init__(self, polys: Sequence["Polynomial"]):
        slots: dict[tuple[int, int, int], int] = {}
        self.components = []
        for poly in polys:
            terms = []
            for t in poly.terms:
                factors = [
                    slots.setdefault((var, j, p), len(slots))
                    for var, pows in ((0, t.y_pow), (1, t.nu_pow))
                    for j, p in enumerate(pows)
                    if p
                ]
                terms.append((t.coef, tuple(factors), sum(1 for p in t.y_pow if p)))
            self.components.append(tuple(terms))
        self.slots = tuple(slots)

    def run(self, y, nu, columns) -> None:
        table = []
        for var, j, p in self.slots:
            x = (y, nu)[var]
            table.append(None if x is None else x[:, j] if p == 1 else x[:, j] ** p)
        scratch = np.empty(y.shape[0])
        for col, terms in zip(columns, self.components):
            for coef, factors, n_y in terms:
                if nu is None:
                    factors = factors[:n_y]
                if not factors:
                    col += coef
                    continue
                v = np.multiply(coef, table[factors[0]], out=scratch)
                for f in factors[1:]:
                    v *= table[f]
                col += v


class Polynomial:
    """Sparse polynomial in (y_1..y_m, nu_1..nu_m) with exact derivatives.

    Evaluation runs a plan compiled when the polynomial is built (_Plan);
    the plan of a gradient is compiled on its first evaluation.
    """

    def __init__(self, dim: int, terms: Sequence[Monomial]):
        self.dim = dim
        self.terms = tuple(t for t in terms if t.coef != 0.0)
        self._plan = _Plan((self,))
        self._grad_plans: dict[str, _Plan] = {}

    def __call__(self, y, nu=None):
        y = np.asarray(y, dtype=float)
        if nu is not None:
            nu = np.asarray(nu, dtype=float)
        out = np.zeros(y.shape[0])
        self._plan.run(y, nu, (out,))
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
        """Gradient in y or nu, shape (n, m), with the bits of evaluating
        each derivative polynomial.  One plan holds the m derivatives, so
        a call computes each column power once for all of them and sums
        each derivative straight into its column."""
        plan = self._grad_plans.get(var)
        if plan is None:
            plan = self._grad_plans[var] = _Plan(
                [self.deriv(var, j) for j in range(self.dim)]
            )
        y = np.asarray(y, dtype=float)
        if nu is not None:
            nu = np.asarray(nu, dtype=float)
        out = np.zeros((y.shape[0], self.dim))
        plan.run(y, nu, [out[:, j] for j in range(self.dim)])
        return out

    def is_homogeneous_degree2(self) -> bool:
        return all(sum(t.nu_pow) == 2 for t in self.terms)


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
                coef *= _number(factor, float, f"a factor of term {raw!r}")
        terms.append(Monomial(coef, tuple(y_pow), tuple(nu_pow)))
    return Polynomial(dim, terms)


def _require_nu_degree(key: str, poly: Polynomial, degree: int):
    """Every term of `poly` has degree `degree` in nu, else ScenarioError."""
    for t in poly.terms:
        if sum(t.nu_pow) != degree:
            raise ScenarioError(
                f"{key}: every term must have degree {degree} in nu, "
                f"not {sum(t.nu_pow)}"
            )


def polynomial_model(
    dim: int,
    L0_poly: Polynomial,
    omega_poly: Optional[Polynomial] = None,
    d_poly: Optional[Polynomial] = None,
    *,
    periods: Optional[Sequence[float]] = None,
    name: str = "",
) -> StationaryModel:
    """A model with polynomial L0, omega and d and exact derivatives.

    The model is marked 2-homogeneous when every L0 term has degree 2 in
    nu, so it is never marked so wrongly.  An L0 with like terms that cancel
    (say + 3 - 3) is marked inhomogeneous; the general E0 path is exact for
    it all the same.  Every omega term must have degree 1 in nu and every d
    term degree 0, else ScenarioError, whose message starts with the key.
    The omega coefficients are then the nu-gradient of omega, evaluated
    without nu.
    """
    if omega_poly is not None:
        _require_nu_degree("omega", omega_poly, 1)
    if d_poly is not None:
        _require_nu_degree("d", d_poly, 0)
    E0 = L0_poly.energy()
    has_d = d_poly is not None and len(d_poly.terms) > 0
    return build_model(
        dim,
        L0=L0_poly,
        omega=omega_poly,
        d_offset=d_poly if has_d else None,
        dL0_dy=lambda y, nu: L0_poly.grad_eval("y", y, nu),
        dL0_dnu=lambda y, nu: L0_poly.grad_eval("nu", y, nu),
        domega_dy=(lambda y, nu: omega_poly.grad_eval("y", y, nu)) if omega_poly else None,
        omega_w=(lambda y: omega_poly.grad_eval("nu", y)) if omega_poly else None,
        dd_dy=(lambda y: d_poly.grad_eval("y", y)) if has_d else None,
        dE0_dy=lambda y, nu: E0.grad_eval("y", y, nu),
        dE0_dnu=lambda y, nu: E0.grad_eval("nu", y, nu),
        homogeneous=L0_poly.is_homogeneous_degree2(),
        periods=periods,
        name=name,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _flat_parts(dim):
    def L0(y, nu):
        h = _row_dot(nu, nu)
        h *= 0.5
        return h

    def dL0_dy(y, nu):
        return np.zeros(y.shape)

    def dL0_dnu(y, nu):
        # nu itself: no kernel writes an evaluator's result.
        return np.asarray(nu, dtype=float)

    return L0, dL0_dy, dL0_dnu


def flat_model(dim: int = 2, *, periods=None, name="flat") -> StationaryModel:
    L0, dL0_dy, dL0_dnu = _flat_parts(dim)
    return build_model(
        dim, L0, dL0_dy=dL0_dy, dL0_dnu=dL0_dnu,
        homogeneous=True, periods=periods, name=name,
    )


def randers_const_model(b: Sequence[float]) -> StationaryModel:
    b = np.asarray(b, dtype=float)
    dim = b.size
    L0, dL0_dy, dL0_dnu = _flat_parts(dim)
    return build_model(
        dim,
        L0,
        omega=lambda y, nu: np.asarray(nu) @ b,
        dL0_dy=dL0_dy,
        dL0_dnu=dL0_dnu,
        domega_dy=lambda y, nu: np.zeros(y.shape),
        homogeneous=True,
        name="randers-const(%s)" % ",".join("%g" % x for x in b),
    )


def randers_rot_model(b: float) -> StationaryModel:
    """Rotational drift omega(y, nu) = b * (-y2 nu1 + y1 nu2) on a 2d slice."""
    b = float(b)
    L0, dL0_dy, dL0_dnu = _flat_parts(2)

    def omega(y, nu):
        return b * (-y[:, 1] * nu[:, 0] + y[:, 0] * nu[:, 1])

    def domega_dy(y, nu):
        # b * [nu2, -nu1], one column product each; (-b) * nu1 is b * (-nu1).
        out = np.empty(nu.shape)
        np.multiply(nu[:, 1], b, out=out[:, 0])
        np.multiply(nu[:, 0], -b, out=out[:, 1])
        return out

    def omega_w(y):
        # omega on the basis vectors without its products by 1.0, which are
        # exact; the products by 0.0 stay, as they sign a zero coefficient.
        w = np.empty(y.shape)
        np.multiply(b, -y[:, 1] + y[:, 0] * 0.0, out=w[:, 0])
        np.multiply(b, -y[:, 1] * 0.0 + y[:, 0], out=w[:, 1])
        return w

    return build_model(
        2, L0, omega=omega,
        dL0_dy=dL0_dy, dL0_dnu=dL0_dnu, domega_dy=domega_dy, omega_w=omega_w,
        homogeneous=True, name=f"randers-rot({b:g})",
    )


def cylinder_model(radius: float) -> StationaryModel:
    """Flat 2d slice with the second coordinate periodic of period 2*pi*R.

    A radius that is not positive, or whose period is not finite, raises
    ValueError.
    """
    radius = float(radius)
    _check_radius(radius)
    return flat_model(
        2, periods=(0.0, 2.0 * math.pi * radius), name=f"cylinder({radius:g})"
    )


def affine_model(base: StationaryModel, d_poly: Polynomial, name: str) -> StationaryModel:
    """Wrap a base model with a position-dependent charge offset d(y), named `name`.

    The charge stays linear when the base's is and d has no terms (a
    Polynomial drops zero coefficients, so a zero offset has none).  The
    model stays static when the base is and no term of d depends on y:
    dd_dy then has no terms and returns +0.0.  It is `fermat` when the
    base's L0 is 2-homogeneous and no term of d depends on y.
    """
    _require_nu_degree("d", d_poly, 0)
    constant = not any(any(t.y_pow) for t in d_poly.terms)
    return replace(
        base,
        d_offset=d_poly,
        dd_dy=lambda y: d_poly.grad_eval("y", y),
        linear_charge=base.linear_charge and not d_poly.terms,
        static=base.static and constant,
        fermat=base.homogeneous and constant,
        name=name,
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


# Registry head -> (fewest, most) arguments.
_ARITY = {"flat": (0, 1), "randers-const": (1, math.inf), "randers-rot": (1, 1),
          "cylinder": (1, 1), "affine": (2, 2), "affine-field": (2, math.inf)}


def get_model(spec: str) -> StationaryModel:
    """Resolve a registry spec string to a model.

    Supported: flat, flat(m), randers-const(b1,..,bm), randers-rot(b),
    cylinder(R), affine(base, c0), affine-field(base, <d polynomial>).
    A polynomial model file loads through load_custom_model instead.  An
    unknown head, a wrong number of arguments, and an argument that is
    malformed, not finite or out of range (a dimension below 1, a radius
    that is not positive) raise ScenarioError.
    """
    spec = spec.strip()
    m = re.match(r"^([a-zA-Z-]+)\s*(?:\((.*)\))?$", spec, re.S)
    if not m:
        raise ScenarioError(f"cannot parse model spec {spec!r}")
    head, argtext = m.group(1), m.group(2) or ""
    if head not in _ARITY:
        raise ScenarioError(f"unknown model {head!r}")
    args = _split_args(argtext)
    lo, hi = _ARITY[head]
    if not lo <= len(args) <= hi:
        raise ScenarioError(f"{head} does not take {len(args)} arguments: {spec!r}")
    where = f"argument of {spec!r}"
    if head == "flat":
        return flat_model(_number(args[0], int, where, _check_dim) if args else 2)
    if head == "randers-const":
        return randers_const_model([_number(a, float, where) for a in args])
    if head == "randers-rot":
        return randers_rot_model(_number(args[0], float, where))
    if head == "cylinder":
        return cylinder_model(_number(args[0], float, where, _check_radius))
    base = get_model(args[0])
    if head == "affine":
        c0 = _number(args[1], float, where)
        d = Polynomial(base.dim, [Monomial(c0, (0,) * base.dim, (0,) * base.dim)])
        return affine_model(base, d, name=f"affine({base.name},{c0:g})")
    d = parse_polynomial(",".join(args[1:]), base.dim)
    return affine_model(base, d, name=f"affine-field({base.name})")


def read_ini(path: str, keys: dict, what: str) -> configparser.ConfigParser:
    """Read a strict key = value file: scenarios and model definitions alike.

    `keys` maps each allowed section to its allowed keys, lower-case (keys
    are case-insensitive).  A file that cannot be read or parsed, an unknown
    section and an unknown key each raise ScenarioError; `what` names the
    kind of file in the "cannot read" message.  Files are UTF-8 whatever the
    locale; one that does not decode raises ScenarioError naming the file.
    '#' starts a comment anywhere on a line; ';' starts one only at the
    start of a line, because it also separates values such as region
    intervals.  '%' is an ordinary character: values are not interpolated.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        if not cp.read(path, encoding="utf-8"):
            raise ScenarioError(f"cannot read {what} {path!r}")
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason}") from None
    for section in cp.sections():
        if section not in keys:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if key not in keys[section]:
                raise ScenarioError(f"{path}: unknown key [{section}] {key}")
    return cp


def _number(text: str, kind, where: str, check=None):
    """The number `text` holds, converted by `kind` (int or float): the one
    way input text becomes a number.

    Malformed text, a value for which `check` (the owner of its range)
    raises ValueError, and a float that is not finite are a ScenarioError
    whose message starts with `where`, which names the value: the file, the
    section and the key, or the argument of a model spec.  `check` runs
    first, so an owner that refuses non-finite values gives its own message.
    """
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{where} must be {what}, not {text!r}") from None
    if check is not None:
        try:
            check(value)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"{where} must be finite, not {text!r}")
    return value


def _numbers(text: str, kind, where: str, check=None) -> list:
    """The numbers of a list value, separated by whitespace or commas, each
    read by `_number`."""
    return [_number(x, kind, where, check) for x in text.replace(",", " ").split()]


def _read(cp, path: str, section: str, key: str, kind=None, fallback=None,
          check=None, many=False):
    """[section] key of a file that read_ini read: its text when `kind` is
    None, else its number (its list of numbers with `many`) by `_number`.

    An absent key is `fallback`; when that is None, the key is required
    and its absence a ScenarioError naming the file, the section and the key.
    """
    if not cp.has_option(section, key):
        if fallback is None:
            raise ScenarioError(f"{path}: missing [{section}] {key}")
        return fallback
    text = cp.get(section, key)
    if kind is None:
        return text
    where = f"{path}: [{section}] {key}"
    return (_numbers if many else _number)(text, kind, where, check)


# Model definition files: one [model] section with these keys.
_MODEL_KEYS = {"model": ("dim", "l0", "omega", "d", "topology")}


def load_custom_model(path: str) -> StationaryModel:
    """Load a polynomial model from a key = value definition file.

    The file holds one [model] section with the keys dim (required), L0
    (required), omega, d (polynomials in y1..ym and nu1..num, default 0) and
    topology ("euclidean" or space-separated per-coordinate periods).  Any
    other section or key, a missing required key, and a malformed value (a
    dim that is not an integer of at least 1, a polynomial that does not
    parse or has a coefficient that is not finite, an omega term whose degree
    in nu is not 1, a d term that depends on nu, a period that is negative
    or not finite) is a ScenarioError, so the command line exits 2; its
    message names the file, the section and the key.  Whether L0 is
    2-homogeneous is read off its terms (polynomial_model).
    """
    cp = read_ini(path, _MODEL_KEYS, "model definition")
    dim = _read(cp, path, "model", "dim", int, check=_check_dim)
    polys = []
    for key, fallback in (("L0", None), ("omega", "0"), ("d", "0")):
        text = _read(cp, path, "model", key, fallback=fallback)
        try:
            polys.append(parse_polynomial(text, dim))
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: [model] {key}: {exc}") from None
    L0, omega, d = polys
    periods = None
    topo = _read(cp, path, "model", "topology", fallback="euclidean").strip()
    if topo and topo != "euclidean":
        where = f"{path}: [model] topology"
        periods = _numbers(
            topo.replace("cylinder", "").strip("() "), float, where, _check_period
        )
        if len(periods) != dim:
            raise ScenarioError(f"{where} needs {dim} periods, got {len(periods)}")
    try:
        return polynomial_model(
            dim, L0,
            omega_poly=omega if omega.terms else None,
            d_poly=d if d.terms else None,
            periods=periods,
            name=f"custom({path})",
        )
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: [model] {exc}") from None
