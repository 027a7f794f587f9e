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

CASES = {
    "potential": (ref.potential_arrivals, ref.POTENTIAL_PARTS, -3.5, 1.7859932695627778),
    "affine-field(flat, 0.3 y1)":
        (ref.affine_field_arrivals, ref.AFFINE_FIELD_PARTS, -0.5, 1.503131122106826),
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
    shots = ref.shots(kappa, **parts)
    for (t, c, miss, _), closed in zip(shots, arrivals()):
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


def curved_affine_shots(sign=1.0, steps=200):
    """(t, c, miss, nodes) of both roots at kappa = -0.5, t_plus first."""
    return ref.shots(-0.5, steps=steps, **ref.curved_affine_parts(sign))


def test_curved_affine_field_shooting_is_converged_in_steps():
    """Both roots of the oracle's curved affine model close to 1e-10 and
    move by less than 1e-12 when the RK4 steps double, so the shot t+-
    are references to 1e-12 for a model with a y-dependent offset."""
    coarse, fine = curved_affine_shots(steps=200), curved_affine_shots(steps=400)
    for (t, c, miss, _), (t_fine, c_fine, miss_fine, _), expected in zip(
        coarse, fine, ref.CURVED_AFFINE_ARRIVALS
    ):
        assert miss <= 1e-10 and miss_fine <= 1e-10
        assert t == pytest.approx(t_fine, abs=1e-12)
        assert t == pytest.approx(expected, abs=1e-12)
    assert coarse[0][1] != pytest.approx(coarse[1][1], abs=0.1)


def test_reversal_identity_of_the_curved_affine_shooting():
    """t_minus of the curved affine field is -t_plus of its reversal d -> -d."""
    (t_plus, *_), (t_minus, *_) = curved_affine_shots()
    (rev_plus, *_), (rev_minus, *_) = curved_affine_shots(sign=-1.0)
    assert t_minus == pytest.approx(-rev_plus, abs=1e-12)
    assert t_plus == pytest.approx(-rev_minus, abs=1e-12)
