"""Shared builders for the test suite."""
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.models import chart_partials, parse_polynomial, polynomial_model, time_reversed
from fermatpath.paths import TangentField, unwrap_periodic

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a
    # counter-example found once is found again; the default profile draws
    # new ones each run.
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# Test data, looked up next to this file so the suite runs from any directory.
DATA = Path(__file__).parent / "data"
OFFSET_FIBER = str(DATA / "offset_fiber.ini")
BENCH_POLYNOMIAL_MODEL = str(
    Path(__file__).parent.parent / "bench" / "workloads" / "polynomial.model.ini"
)

# L0 = |nu|^2 / 2 + 3 - 0.3 y1^2 with omega = 0.2 nu1: not 2-homogeneous, so
# its criticality defect has a gap E - L that is not zero.
POTENTIAL = polynomial_model(
    2,
    parse_polynomial("0.5 nu1^2 + 0.5 nu2^2 + 3 - 0.3 y1^2", 2),
    parse_polynomial("0.2 nu1", 2),
    name="potential",
)

BUILTIN_SPECS = [
    "flat",
    "randers-const(0.5,0)",
    "randers-rot(0.3)",
    "cylinder(1)",
    "affine(flat, 2.0)",
    "affine-field(flat, 0.1 y1 + 0.05 y2^2)",
]


@pytest.fixture(params=BUILTIN_SPECS)
def builtin_model(request):
    return fp.get_model(request.param)


def smooth_path(model, p, q, n, rng, amp=0.25, t_amp=0.3):
    """Random smooth constrained path between p and q: straight lift plus
    a few Fourier modes, then projected onto the constraint manifold."""
    s = np.arange(n + 1) / n
    y = p.y[None, :] + s[:, None] * (q.y - p.y)[None, :]
    for j in range(model.dim):
        for k in range(1, 4):
            y[:, j] += amp / k * rng.standard_normal() * np.sin(k * np.pi * s)
    t = p.t + s * (q.t - p.t)
    for k in range(1, 4):
        t += t_amp / k * rng.standard_normal() * np.sin(k * np.pi * s)
    return fp.project_to_N(model, fp.DiscretePath(y, t, model.periods))


def smooth_field(dim, n, rng, amp=0.5):
    """Random smooth nodal variation vanishing at the endpoints."""
    s = np.arange(n + 1) / n
    dy = np.zeros((n + 1, dim))
    dt = np.zeros(n + 1)
    for j in range(dim):
        for k in range(1, 4):
            dy[:, j] += amp / k * rng.standard_normal() * np.sin(k * np.pi * s)
    for k in range(1, 4):
        dt += amp / k * rng.standard_normal() * np.sin(k * np.pi * s)
    return TangentField(dy, dt)


def peak_bytes(fn):
    """Peak traced allocation of one call of fn beyond what was live before
    (tracemalloc, which numpy reports its array buffers to)."""
    fn()  # a first call settles one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def endpoints_for(model, displacement=1.0):
    """A generic endpoint pair away from coordinate symmetries."""
    p = fp.Point(np.full(model.dim, 0.1), 0.0)
    qy = np.full(model.dim, 0.1)
    qy[0] += displacement
    if model.dim > 1:
        qy[1] += 0.7 * displacement
    return p, fp.Point(qy, 0.2)


def reflected(x):
    """A point, a path or a variation under t -> -t, as 0.0 - t."""
    if isinstance(x, fp.Point):
        return fp.Point(x.y, 0.0 - x.t)
    if isinstance(x, TangentField):
        return TangentField(x.y, 0.0 - x.t)
    return fp.DiscretePath(x.y, 0.0 - x.t, x.periods)


def on_branch(model, path, branch):
    """(model, path) at which t_plus is the arrival of `branch` at `path`,
    up to its sign: t_minus of a path is -t_plus of its reflection under
    the time-reversed model."""
    if branch == "plus":
        return model, path
    return time_reversed(model), reflected(path)


# ---------------------------------------------------------------------------
# trajectory oracle
# ---------------------------------------------------------------------------

def _L_partials(model, x, v):
    """(dL/dx, dL/dv) at chart points x = (y, t) and velocities v = (nu, tau);
    dL/dt is zero, since nothing depends on t."""
    P, V, w = chart_partials(model, x[:, :-1], v[:, :-1], v[:, -1], "L")
    return np.column_stack([P, np.zeros(len(x))]), np.column_stack([V, w])


def _acceleration(model, x, v, h=1e-5):
    """dv/ds of the Euler-Lagrange ODE d/ds p(x, v) = dL/dx, p = dL/dv.

    J_v p dv/ds = dL/dx - J_x p v, with the Jacobian J_v p and the
    directional derivative J_x p v taken as central differences of p.
    """
    def momentum(xx, vv):
        return _L_partials(model, xx, vv)[1]

    k = v.shape[1]
    jac = np.empty((len(v), k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = h
        jac[:, :, j] = (momentum(x, v + e) - momentum(x, v - e)) / (2 * h)
    jxv = (momentum(x + h * v, v) - momentum(x - h * v, v)) / (2 * h)
    rhs = _L_partials(model, x, v)[0] - jxv
    return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]


def shooting_miss(model, geodesic, rows=4, steps=32):
    """Largest miss of the continuous Euler-Lagrange flow shot along a record.

    The unwrapped geodesic nodes are cut into `rows` rows of about N / rows
    segments each.  Every row starts at its first node with the
    central-difference velocity there (second-order one-sided at node 0),
    is integrated by `steps` RK4 steps over its span of s, and is compared
    with the node where it ends.  A discrete trajectory misses by
    O(N^-2); a path that is not a trajectory misses by O(1) at every N.
    The row count stays fixed as N grows, so each row spans a fixed share
    of the path.
    """
    n = geodesic.segments
    dy = unwrap_periodic(np.diff(geodesic.y, axis=0), geodesic.periods)
    y = np.vstack([geodesic.y[:1], geodesic.y[0] + np.cumsum(dy, axis=0)])
    x = np.column_stack([y, geodesic.t])
    ends = np.round(np.arange(rows + 1) * n / rows).astype(int)
    a, b = ends[:-1], ends[1:]
    v = np.empty((rows, x.shape[1]))
    inner = a > 0
    v[inner] = (x[a[inner] + 1] - x[a[inner] - 1]) * (n / 2)
    v[~inner] = (-3 * x[0] + 4 * x[1] - x[2]) * (n / 2)
    pos = x[a]
    h = ((b - a) / (n * steps))[:, None]

    def rate(p, q):
        return q, _acceleration(model, p, q)

    for _ in range(steps):
        k1 = rate(pos, v)
        k2 = rate(pos + h / 2 * k1[0], v + h / 2 * k1[1])
        k3 = rate(pos + h / 2 * k2[0], v + h / 2 * k2[1])
        k4 = rate(pos + h * k3[0], v + h * k3[1])
        pos = pos + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return float(np.max(np.linalg.norm(pos - x[b], axis=1)))
