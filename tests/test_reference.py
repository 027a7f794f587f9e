"""The exact references of tests/reference.py checked against each other.

The closed forms of the potential model and of affine-field(flat, 0.3 y1)
agree with an RK4 shooting of the reduced (Routhian) ODE, which shares
with them only the reduction, and their t_plus are the values in the
ROADMAP.  The time reversal omega -> -omega, d -> -d turns t_minus into
-t_plus in closed form, as it does in the solver (models.time_reversed).
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
