"""Shared builders for the test suite."""
from pathlib import Path

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.paths import TangentField


# Test data, looked up next to this file so the suite runs from any directory.
DATA = Path(__file__).parent / "data"
OFFSET_FIBER = str(DATA / "offset_fiber.ini")

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


def endpoints_for(model, displacement=1.0):
    """A generic endpoint pair away from coordinate symmetries."""
    p = fp.Point(np.full(model.dim, 0.1), 0.0)
    qy = np.full(model.dim, 0.1)
    qy[0] += displacement
    if model.dim > 1:
        qy[1] += 0.7 * displacement
    return p, fp.Point(qy, 0.2)
