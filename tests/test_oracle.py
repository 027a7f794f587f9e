"""An independent trajectory oracle: records shot with the continuous
Euler-Lagrange ODE.

`conftest.shooting_miss` integrates the ODE of the Lagrangian from the
geodesic nodes of a record, a fixed number of rows over a fixed share of
the path each, and measures how far the rows land from the record's nodes.
A record that is a discrete trajectory misses by O(N^-2); one that is not
misses by O(1) at every N.  The oracle uses only the L partials of the
model, none of the solver's arrival-time machinery.
"""
import numpy as np
import pytest

import fermatpath as fp

from conftest import BENCH_POLYNOMIAL_MODEL, POTENTIAL, shooting_miss

GRIDS = (50, 100, 200)
# A miss of at most C * N^-2, or of the floor that the solver's gradient
# tolerance leaves on straight solutions (about 5.5e-8).
MISS_C = 0.2
MISS_FLOOR = 1e-6
# A miss that falls at second order shrinks about 4x per grid doubling.
MIN_RATIO = 3.5

# The minimizer of t_plus is a trajectory only for a 2-homogeneous fiber
# with a linear charge (up to a constant offset); ROADMAP item 1 solves the
# paper's equation for the rest of the class.  The records of these two
# models say `converged` although they miss by O(1).
NOT_FERMAT = pytest.mark.xfail(
    strict=True, reason="minimize_arrival solves dt = 0, not theta = 0 (ROADMAP item 1)"
)


def model_for(spec):
    if spec == "potential":
        return POTENTIAL
    if spec == "polynomial":
        return fp.load_custom_model(BENCH_POLYNOMIAL_MODEL)
    return fp.get_model(spec)


@pytest.mark.parametrize(
    "spec, kappa, curved",
    [
        ("randers-rot(0.3)", -0.5, True),
        ("polynomial", -0.5, True),
        ("flat", -0.5, False),
        ("randers-const(0.5,0)", -0.5, False),
        ("cylinder(1)", -0.5, False),
        ("affine(flat, 2.0)", -0.5, False),
        pytest.param("affine-field(flat, 0.1 y1 + 0.05 y2^2)", -0.5, True, marks=NOT_FERMAT),
        pytest.param("potential", -3.5, True, marks=NOT_FERMAT),
    ],
)
def test_converged_record_is_a_trajectory(spec, kappa, curved):
    """A converged record passes the shooting oracle at second order."""
    model = model_for(spec)
    misses = []
    for n in GRIDS:
        rec = fp.minimize_arrival(
            model, fp.Point([0.0, 0.0], 0.0), fp.Point([1.0, 0.5], 0.0), kappa,
            "random", fp.SolverOptions(N=n), rng=np.random.default_rng(0),
        )
        assert rec.converged
        misses.append(shooting_miss(model, rec.geodesic))
    for n, miss in zip(GRIDS, misses):
        assert miss <= max(MISS_C / n**2, MISS_FLOOR), (n, misses)
    if curved:
        assert all(coarse >= MIN_RATIO * fine for coarse, fine in zip(misses, misses[1:]))

