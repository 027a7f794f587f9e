"""Exact arrival times by Routh reduction, numpy only.

These are references that no part of the program computed.  The
Lagrangian L = L0 + (omega + d) tau - tau^2 / 2 conserves the charge
N = omega + d - tau = c.  At fixed c the spatial path is a trajectory of the
Routhian

    R = L0 + (omega + d - c)^2 / 2

(Marsden, Ratiu and Scheurle, J. Math. Phys. 41 (2000) 3379), and the
energy is E = E0 + omega^2 / 2 - (d - c)^2 / 2.  With p_t = q_t = 0 the
arrival is t = int_0^1 (omega + d - c) ds.  The energy condition E = kappa
has two roots in c, and they give t_plus and t_minus.

Everything here is for L0 = |nu|^2 / 2 + V0(y) with omega = w . nu for a
constant w, from p = (0, 0) to q = (1, 0.5):
- `potential_arrivals` and `affine_field_arrivals` are closed forms for the
  two reference models, with the root in c found by bisection
  (`energy_roots`);
- `shoot` solves the reduced problem of any such model by RK4 shooting:
  three unknowns, nu(0) and c, and three conditions, y(1) = q_y and
  E = kappa.  It also returns the trajectory it shot, sampled at its RK4
  nodes, so that the discrete functionals can be evaluated on an exact
  trajectory (tests/test_oracle.py).  `shots` shoots both roots, and
  `POTENTIAL_PARTS`, `AFFINE_FIELD_PARTS` and `curved_affine_parts` are the
  reference models' parts for it.
"""
import math

import numpy as np

P_Y = np.array([0.0, 0.0])
Q_Y = np.array([1.0, 0.5])


def bisect_root(f, lo, hi):
    """A root of f between lo and hi, where f changes sign, to the last bit:
    the bracket is halved until its midpoint is one of its ends."""
    above = f(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if (f(mid) > 0.0) == above:
            lo = mid
        else:
            hi = mid


def energy_roots(gap):
    """The roots c > 0 and c < 0 of gap(c) = E - kappa, for a gap that is
    positive at c = 0 and falls to -inf on both sides."""
    roots = []
    for far in (1.0, -1.0):
        while gap(far) > 0.0:
            far *= 2.0
        roots.append(bisect_root(gap, 0.0, far))
    return roots


def _branches(arrivals):
    """(t_plus, t_minus) of the arrivals of the two roots."""
    return max(arrivals), min(arrivals)


def potential_arrivals(w=0.2, kappa=-3.5):
    """(t_plus, t_minus) of L0 = |nu|^2 / 2 + 3 - 0.3 y1^2, omega = w nu1, d = 0.

    The Routhian gives (1 + w^2) y1'' = -0.6 y1 and y2 = s / 2, so
    y1 = sin(k s) / sin k with k^2 = 0.6 / (1 + w^2), for either root.  The
    energy at s = 0 is ((1 + w^2) nu1^2 + 1/4) / 2 - 3 - c^2 / 2 with
    nu1 = k / sin k, and t = w (y1(1) - y1(0)) - c = w - c.
    """
    k = math.sqrt(0.6 / (1.0 + w * w))
    nu1 = k / math.sin(k)
    gap = lambda c: 0.5 * ((1.0 + w * w) * nu1 * nu1 + 0.25) - 3.0 - 0.5 * c * c - kappa
    return _branches([w - c for c in energy_roots(gap)])


def affine_field_arrivals(a=0.3, kappa=-0.5):
    """(t_plus, t_minus) of L0 = |nu|^2 / 2, omega = 0, d = a y1 (a != 0).

    The Routhian gives y1'' = a (a y1 - c) and y2 = s / 2, so
    y1 = A cosh(a s) + B sinh(a s) + c / a with A = -c / a from y1(0) = 0
    and B from y1(1) = 1.  The energy at s = 0, where d = 0, is
    ((a B)^2 + 1/4) / 2 - c^2 / 2, and
    t = int (a y1 - c) ds = (y1'(1) - y1'(0)) / a = A sinh a + B (cosh a - 1).
    """
    ch, sh = math.cosh(a), math.sinh(a)

    def coeffs(c):
        A = -c / a
        return A, (1.0 - c / a - A * ch) / sh

    def gap(c):
        nu1 = a * coeffs(c)[1]
        return 0.5 * (nu1 * nu1 + 0.25) - 0.5 * c * c - kappa

    def arrival(c):
        A, B = coeffs(c)
        return A * sh + B * (ch - 1.0)

    return _branches([arrival(c) for c in energy_roots(gap)])


def _zero(y):
    return np.zeros(len(y))


def _zero_grad(y):
    return np.zeros(y.shape)


def shoot(kappa, c0, *, w, V0=_zero, dV0=_zero_grad, d=_zero, dd=_zero_grad,
          steps=200, tol=1e-12):
    """Reduced shooting for L0 = |nu|^2 / 2 + V0(y), omega = w . nu, offset d.

    The state is (y, m, t) with the momentum m = dR/dnu = nu + w tau,
    tau = w . nu + d - c, so nu = M^-1 (m - w (d - c)) with M = I + w w^T,
    and m' = dV0 + tau dd, t' = tau; `steps` RK4 steps cover s in [0, 1].
    Newton steps with a central-difference Jacobian move (nu(0), c) from
    (q_y - p_y, c0) until y(1) = q_y and E = kappa to `tol` (E is conserved,
    so it is taken at s = 0).  V0, d and their gradients dV0, dd take
    positions of shape (k, 2), as the k shots of one Newton step are
    integrated together.  Returns (t(1), c, miss, nodes): the miss is the
    max-norm of the three conditions at the returned point, and `nodes` the
    (steps + 1, 3) array of (y1, y2, t) of the returned shot at s = i / steps,
    from (p_y, 0) to (y(1), t(1)).
    """
    w = np.asarray(w, dtype=float)
    m_inv = np.eye(2) - np.outer(w, w) / (1.0 + w @ w)

    def rate(state, c):
        y, m = state[:, :2], state[:, 2:4]
        nu = (m - np.outer(d(y) - c, w)) @ m_inv
        tau = nu @ w + d(y) - c
        return np.column_stack([nu, dV0(y) + tau[:, None] * dd(y), tau])

    def run(x):
        """The conditions, t(1) and the nodes of the first of the shots
        x = (nu(0), c), one a row."""
        nu, c = x[:, :2], x[:, 2]
        y0 = np.tile(P_Y, (len(x), 1))
        d0 = d(y0) - c
        state = np.column_stack([y0, nu + np.outer(nu @ w + d0, w), np.zeros(len(x))])
        nodes = np.empty((steps + 1, 3))
        nodes[0] = state[0, [0, 1, 4]]
        h = 1.0 / steps
        for i in range(steps):
            k1 = rate(state, c)
            k2 = rate(state + h / 2 * k1, c)
            k3 = rate(state + h / 2 * k2, c)
            k4 = rate(state + h * k3, c)
            state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            nodes[i + 1] = state[0, [0, 1, 4]]
        energy = 0.5 * (np.sum(nu * nu, axis=1) + (nu @ w) ** 2) - V0(y0) - 0.5 * d0 * d0
        return np.column_stack([state[:, :2] - Q_Y, energy - kappa]), state[:, 4], nodes

    x = np.concatenate([Q_Y - P_Y, [c0]])
    step = 1e-6 * np.vstack([np.eye(3), -np.eye(3)])
    for _ in range(30):
        F, t, nodes = run(np.vstack([x, x + step]))
        miss = float(np.max(np.abs(F[0])))
        if miss <= tol:
            break
        J = (F[1:4] - F[4:7]).T / 2e-6
        x = x - np.linalg.solve(J, F[0])
    return float(t[0]), float(x[2]), miss, nodes


def shots(kappa, **parts):
    """`shoot` from c = 1.5 and c = -1.5, the two roots, t_plus first."""
    return sorted((shoot(kappa, c0, **parts) for c0 in (1.5, -1.5)),
                  key=lambda shot: shot[0], reverse=True)


# The parts of the reference models for `shoot`.
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


def curved_affine_parts(sign=1.0):
    """affine-field(flat, 0.1 y1 + 0.05 y2^2) with d scaled by `sign`:
    L0 = |nu|^2 / 2, omega = 0; sign = -1 is its time reversal."""
    return dict(
        w=[0.0, 0.0],
        d=lambda y: sign * (0.1 * y[:, 0] + 0.05 * y[:, 1] ** 2),
        dd=lambda y: sign * np.column_stack([np.full(len(y), 0.1), 0.1 * y[:, 1]]),
    )


# t_plus and t_minus of the curved affine field, to the digits the shooting
# settles (200 and 400 RK4 steps differ by about 4e-14; test_reference.py).
CURVED_AFFINE_ARRIVALS = (1.50031453444911, -1.50031526272835)
