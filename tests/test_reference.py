"""The exact references of tests/reference.py checked against each other.

The closed forms of the potential model and of affine-field(flat, 0.3 y1)
agree with an RK4 shooting of the reduced (Routhian) ODE, which shares
with them only the reduction, and their t_plus are the values in the
ROADMAP.  The time reversal omega -> -omega, d -> -d turns t_minus into
-t_plus in closed form, as it does in the solver (models.time_reversed).
The oracle's affine-field(flat, 0.1 y1 + 0.05 y2^2) has no closed form:
its reference is the shooting itself, converged in the RK4 step count.
"""
import numpy as np
import pytest

import reference as ref

# L0 = |nu|^2 / 2 + 3 - 0.3 y1^2, omega = 0.2 nu1 (conftest.POTENTIAL).
POTENTIAL_PARTS = dict(
    w=[0.2, 0.0],
    V0=lambda y: 3.0 - 0.3 * y[:, 0] ** 2,
    dV0=lambda y: np.column_stack([-0.6 * y[:, 0], np.zeros(len(y))]),
)
# affine-field(flat, 0.3 y1): L0 = |nu|^2 / 2, omega = 0, d = 0.3 y1.
AFFINE_FIELD_PARTS = dict(
    w=[0.0, 0.0],
    d=lambda y: 0.3 * y[:, 0],
    dd=lambda y: np.tile([0.3, 0.0], (len(y), 1)),
)

CASES = {
    "potential": (ref.potential_arrivals, POTENTIAL_PARTS, -3.5, 1.7859932695627778),
    "affine-field(flat, 0.3 y1)":
        (ref.affine_field_arrivals, AFFINE_FIELD_PARTS, -0.5, 1.503131122106826),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_t_plus_is_the_roadmap_value(name):
    """To a few units in the last place: the root is bisected to its last
    bit and the closed forms round in sin, cosh and sinh."""
    arrivals, _, _, expected = CASES[name]
    t_plus, t_minus = arrivals()
    assert t_plus == pytest.approx(expected, rel=4 * np.finfo(float).eps)
    assert t_minus < t_plus


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_matches_reduced_shooting(name):
    """Both roots, shot from c = +-1.5 until y(1) = q_y and E = kappa hold
    to 1e-10, arrive where the closed form says, to the RK4 error."""
    arrivals, parts, kappa, _ = CASES[name]
    shots = sorted((ref.shoot(kappa, c0, **parts) for c0 in (1.5, -1.5)), reverse=True)
    for (t, c, miss), closed in zip(shots, arrivals()):
        assert miss <= 1e-10
        assert t == pytest.approx(closed, abs=1e-10)
    # The two roots are different charges, not one root found twice.
    assert shots[0][1] != pytest.approx(shots[1][1], abs=0.1)


def test_reversal_identity_in_closed_form():
    """t_minus of a model is -t_plus of its time reversal, and back."""
    t_plus, t_minus = ref.potential_arrivals(w=0.2)
    rev_plus, rev_minus = ref.potential_arrivals(w=-0.2)
    assert (t_minus, t_plus) == (-rev_plus, -rev_minus)
    # cosh and sinh of -a need not be those of a negated to the bit.
    t_plus, t_minus = ref.affine_field_arrivals(a=0.3)
    rev_plus, rev_minus = ref.affine_field_arrivals(a=-0.3)
    tol = 4 * np.finfo(float).eps
    assert t_minus == pytest.approx(-rev_plus, rel=tol)
    assert t_plus == pytest.approx(-rev_minus, rel=tol)


def curved_affine_parts(sign):
    """affine-field(flat, 0.1 y1 + 0.05 y2^2) with d scaled by `sign`:
    L0 = |nu|^2 / 2, omega = 0; sign = -1 is its time reversal."""
    return dict(
        w=[0.0, 0.0],
        d=lambda y: sign * (0.1 * y[:, 0] + 0.05 * y[:, 1] ** 2),
        dd=lambda y: sign * np.column_stack([np.full(len(y), 0.1), 0.1 * y[:, 1]]),
    )


def curved_affine_shots(sign=1.0, steps=200):
    """(t, c, miss) of both roots at kappa = -0.5, t_plus first."""
    parts = curved_affine_parts(sign)
    return sorted((ref.shoot(-0.5, c0, steps=steps, **parts) for c0 in (1.5, -1.5)),
                  reverse=True)


# t_plus and t_minus of the curved affine field, to the digits the shooting
# settles (200 and 400 RK4 steps differ by about 4e-14).
CURVED_AFFINE_ARRIVALS = (1.50031453444911, -1.50031526272835)


def test_curved_affine_field_shooting_is_converged_in_steps():
    """Both roots of the oracle's curved affine model close to 1e-10 and
    move by less than 1e-12 when the RK4 steps double, so the shot t+-
    are references to 1e-12 for a model with a y-dependent offset."""
    coarse, fine = curved_affine_shots(steps=200), curved_affine_shots(steps=400)
    for (t, c, miss), (t_fine, c_fine, miss_fine), expected in zip(
        coarse, fine, CURVED_AFFINE_ARRIVALS
    ):
        assert miss <= 1e-10 and miss_fine <= 1e-10
        assert t == pytest.approx(t_fine, abs=1e-12)
        assert t == pytest.approx(expected, abs=1e-12)
    assert coarse[0][1] != pytest.approx(coarse[1][1], abs=0.1)


def test_reversal_identity_of_the_curved_affine_shooting():
    """t_minus of the curved affine field is -t_plus of its reversal d -> -d."""
    (t_plus, _, _), (t_minus, _, _) = curved_affine_shots()
    (rev_plus, _, _), (rev_minus, _, _) = curved_affine_shots(sign=-1.0)
    assert t_minus == pytest.approx(-rev_plus, abs=1e-12)
    assert t_plus == pytest.approx(-rev_minus, abs=1e-12)
