"""Discrete paths: quadrature, constraint projection, tangent splitting,
the flow map, and serialization."""
import configparser
import math
import os

import numpy as np
import pytest

import fermatpath as fp
from fermatpath.models import Monomial, parse_polynomial
from fermatpath.paths import (
    TangentField,
    _format_17g,
    action,
    path_state,
    resample,
    segment_geometry,
    tangent_split,
    winding,
)
from fermatpath.solve import _fmt

from conftest import BENCH_POLYNOMIAL_MODEL, endpoints_for, smooth_field, smooth_path

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the rest of the suite needs only numpy and pytest
    st = None


FLAT = fp.get_model("flat")


def grid(n):
    return np.arange(n + 1) / n


# ---------------------------------------------------------------------------
# segment velocities and midpoints (rows of segment_geometry)
# ---------------------------------------------------------------------------

def test_velocity_difference_quotient():
    z = fp.DiscretePath([[0.0], [1.0], [2.0]], [0.0, 0.0, 0.0])
    _, vel_y, vel_t = segment_geometry(z)
    assert vel_y[0, 0] == 2.0 and vel_t[0] == 0.0


def test_velocity_constant_interior():
    z = fp.DiscretePath([[0.0], [0.0], [1.0]], [0.0, 0.0, 0.0])
    assert segment_geometry(z)[1][0, 0] == 0.0


def test_velocity_cylinder_unwrap():
    period = 2 * math.pi
    z = fp.DiscretePath([[0.0, 6.2], [0.0, 0.1]], [0.0, 0.0], periods=(0.0, period))
    vel_y = segment_geometry(z)[1]
    assert vel_y[0, 1] == pytest.approx(0.1 - 6.2 + period, rel=1e-12)


def test_midpoint_average():
    z = fp.DiscretePath([[0.0, 0.0], [1.0, 2.0]], [0.0, 4.0])
    mid_y, _, _ = segment_geometry(z)
    assert np.allclose(mid_y[0], [0.5, 1.0])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 200])
def test_action_flat_straight_exact(n):
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([3, 4], 0.0), n)
    # constant integrand: exact up to node rounding (bitwise on dyadic grids)
    assert action(FLAT, z) == pytest.approx(12.5, rel=1e-14)
    assert path_state(FLAT, z).E_val == pytest.approx(12.5, rel=1e-14)
    if n & (n - 1) == 0:
        assert action(FLAT, z) == 12.5


def test_action_time_only_path():
    p = fp.Point([0.5, 0.5], 0.0)
    z = fp.DiscretePath(np.tile(p.y, (11, 1)), grid(10) * 3.0)
    assert action(FLAT, z) == pytest.approx(-4.5, rel=1e-14)


def test_quadrature_second_order():
    """Midpoint rule: observed convergence order >= 1.9 on a smooth curve."""

    def nodes(n):
        s = grid(n)
        y = np.stack([np.sin(np.pi * s), s + 0.3 * np.cos(2 * s)], axis=1)
        return fp.DiscretePath(y, s**3)

    model = fp.get_model("randers-rot(0.3)")
    ref = action(model, nodes(51200))
    e100 = abs(action(model, nodes(100)) - ref)
    e200 = abs(action(model, nodes(200)) - ref)
    assert math.log2(e100 / e200) >= 1.9


# ---------------------------------------------------------------------------
# charge profile and projection
# ---------------------------------------------------------------------------

def test_noether_straight_flat_zero():
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([3, 4], 0.0), 50)
    state = path_state(FLAT, z)
    assert state.Q_bar == 0.0 and state.noether_dev == 0.0


def test_noether_quadratic_time_profile():
    """On the flat model the charge of a segment is -t_dot; for t = s^2 it
    is -2 s at the midpoints, which deviates from its mean -1 by 0.9."""
    n = 10
    s = grid(n)
    z = fp.DiscretePath(np.stack([s, np.zeros(n + 1)], axis=1), s**2)
    mids = 0.5 * (s[:-1] + s[1:])
    assert np.allclose(-segment_geometry(z)[2], -2 * mids, rtol=1e-12)
    state = path_state(FLAT, z)
    assert state.Q_bar == pytest.approx(-1.0, rel=1e-12)
    assert state.noether_dev == pytest.approx(0.9, rel=1e-12)


def test_project_quadratic_profile_becomes_linear():
    n = 100
    s = grid(n)
    z = fp.DiscretePath(np.stack([s, np.zeros(n + 1)], axis=1), s**2)
    proj = fp.project_to_N(FLAT, z)
    assert np.allclose(proj.t, s, atol=1e-14)
    assert proj.noether_dev < 1e-12
    assert proj.Q_bar == pytest.approx(-1.0, rel=1e-12)


def test_project_idempotent_bitwise(builtin_model):
    rng = np.random.default_rng(10)
    p, q = endpoints_for(builtin_model)
    z = smooth_path(builtin_model, p, q, 64, rng)
    z2 = fp.project_to_N(builtin_model, z)
    assert np.array_equal(z.t, z2.t)
    assert np.array_equal(z.y, z2.y)


def test_project_preserves_y_and_endpoints_bitwise():
    rng = np.random.default_rng(11)
    model = fp.get_model("randers-rot(0.3)")
    n = 80
    s = grid(n)
    y = rng.standard_normal((n + 1, 2))
    t = rng.standard_normal(n + 1)
    z = fp.DiscretePath(y, t)
    proj = fp.project_to_N(model, z)
    assert proj.y is not y and np.array_equal(proj.y, y)
    assert proj.t[0] == t[0] and proj.t[-1] == t[-1]
    assert proj.noether_dev < 1e-12


def test_project_randers_rot_circular_path():
    model = fp.get_model("randers-rot(0.3)")
    n = 128
    ang = 0.25 * np.pi * grid(n)
    y = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    z = fp.DiscretePath(y, np.zeros(n + 1))
    proj = fp.project_to_N(model, z)
    assert proj.noether_dev < 1e-12
    assert np.array_equal(proj.y, z.y)


# ---------------------------------------------------------------------------
# tangent splitting
# ---------------------------------------------------------------------------

def test_split_recombination_exact():
    rng = np.random.default_rng(12)
    model = fp.get_model("randers-rot(0.3)")
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 60, rng)
    delta = smooth_field(2, 60, rng)
    xi, mu = tangent_split(model, z, delta)
    assert mu[0] == 0.0 and mu[-1] == 0.0
    err = max(
        float(np.max(np.abs(xi.y - delta.y))),
        float(np.max(np.abs(xi.t + mu - delta.t))),
    )
    assert err < 1e-12


def test_split_of_symmetry_direction_field():
    """A pure time-direction field loses its whole t-profile to mu in the
    flat model (the lift of a zero spatial variation is zero)."""
    n = 40
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([1, 0], 0.0), n)
    bump = np.sin(np.pi * grid(n))
    delta = TangentField(np.zeros((n + 1, 2)), bump)
    xi, mu = tangent_split(FLAT, z, delta)
    assert np.allclose(xi.t, 0.0, atol=1e-14)
    assert np.allclose(xi.y, 0.0)
    assert np.allclose(mu, delta.t, atol=1e-14)


def test_split_tangent_field_passes_through():
    rng = np.random.default_rng(13)
    model = fp.get_model("randers-rot(0.3)")
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 60, rng)
    xi, _ = tangent_split(model, z, smooth_field(2, 60, rng))
    xi2, mu2 = tangent_split(model, z, xi)
    assert np.allclose(mu2, 0.0, atol=1e-12)
    assert np.allclose(xi2.t, xi.t, atol=1e-12)


def test_split_requires_constrained_path():
    n = 30
    s = grid(n)
    z = fp.DiscretePath(np.stack([s, s], axis=1), s**2)  # nonconstant charge
    with pytest.raises(fp.ConstraintViolationError):
        tangent_split(FLAT, z, TangentField(np.zeros((n + 1, 2)), np.zeros(n + 1)))


# ---------------------------------------------------------------------------
# flow map
# ---------------------------------------------------------------------------

def test_apply_flow_identity_and_endpoint():
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([3, 4], 0.0), 20)
    assert np.array_equal(fp.apply_flow(z, 0.0).t, z.t)
    moved = fp.apply_flow(z, 5.0)
    assert moved.t[-1] == 5.0
    state = path_state(FLAT, moved)
    assert state.Q_bar == pytest.approx(-5.0, rel=1e-13)
    assert state.noether_dev < 1e-12


def test_apply_flow_inverse_and_composition():
    rng = np.random.default_rng(15)
    model = fp.get_model("randers-rot(0.3)")
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 50, rng)
    back = fp.apply_flow(fp.apply_flow(z, 1.7), -1.7)
    assert np.max(np.abs(back.t - z.t)) < 1e-14
    ab = fp.apply_flow(fp.apply_flow(z, 0.9), -2.3)
    once = fp.apply_flow(z, 0.9 - 2.3)
    assert np.max(np.abs(ab.t - once.t)) < 1e-13


def test_discrete_shift_laws(builtin_model):
    """On constrained paths (linear charge): the energy shifts through the
    charge, and the charge drops by exactly t."""
    if not builtin_model.linear_charge:
        pytest.skip("linear-charge shift law")
    rng = np.random.default_rng(16)
    p, q = endpoints_for(builtin_model)
    z = smooth_path(builtin_model, p, q, 64, rng)
    qbar = path_state(builtin_model, z).Q_bar
    e0 = path_state(builtin_model, z).E_val
    for t in (-1.3, 0.4, 2.0):
        zt = path_state(builtin_model, fp.apply_flow(z, t))
        assert abs(zt.E_val - e0 - t * qbar + 0.5 * t * t) < 1e-9 * (1.0 + abs(e0))
        assert abs(zt.Q_bar - (qbar - t)) < 1e-12


def test_constraint_deviation_scaled():
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([1, 0], 0.0), 10)
    assert path_state(FLAT, z).constraint_dev == 0.0


# ---------------------------------------------------------------------------
# winding and serialization
# ---------------------------------------------------------------------------

def test_winding_of_wrapped_lift():
    model = fp.get_model("cylinder(1)")
    p = fp.Point([0, 0], 0.0)
    q = fp.Point([1, 1], 0.0)
    for k in (-2, 0, 3):
        z = fp.straight_path(p, q, 50, model.periods, extra_wraps=[0, k])
        assert winding(z) == (0, k)


def test_winding_trivial_on_euclidean():
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([1, 1], 0.0), 10)
    assert winding(z) == (0, 0)


def test_path_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    model = fp.get_model("cylinder(1)")
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, 37, rng)
    fname = os.path.join(tmp_path, "path.txt")
    fp.save_path(z, fname)
    loaded = fp.load_path(fname)
    assert np.array_equal(loaded.y, z.y)
    assert np.array_equal(loaded.t, z.t)
    assert loaded.periods == z.periods
    assert action(model, loaded) == action(model, z)


def _save_path_per_row(path, filename):
    """Reference writer: one `"%.17g"` format per value, one write per row."""
    n = path.segments
    with open(filename, "w") as fh:
        if path.periods:
            fh.write("# periods %s\n" % " ".join("%.17g" % p for p in path.periods))
        fh.write("# s " + " ".join(f"y{j+1}" for j in range(path.dim)) + " t\n")
        for i in range(n + 1):
            row = [i / n, *path.y[i], path.t[i]]
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


# Values whose 17-digit text is easy to get wrong: signed zero, the smallest
# subnormal, the largest finite double, large negative magnitudes, the edges
# of the fixed notation of %.17g (1e-4 and its neighbours, the largest double
# below 1e17), an 18-digit tie (2**-25) and 0.1.
_EXTREME_NODES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  -3.3e200, -123456789.125, -5e-324,
                  1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, math.inf),
                  math.nextafter(1e17, 0.0), 2.0**-25, 0.1)


def _path_with_extremes(model, n, rng):
    p, q = endpoints_for(model)
    z = smooth_path(model, p, q, n, rng)
    y, t = z.y.copy(), z.t.copy()
    k = min(len(_EXTREME_NODES), n + 1)
    y[:k, 0] = _EXTREME_NODES[:k]
    y[-k:, -1] = _EXTREME_NODES[:k]
    t[1:k + 1] = _EXTREME_NODES[:min(k, n)]
    return fp.DiscretePath(y, t, z.periods)


@pytest.mark.parametrize("spec", ["cylinder(1)", "flat"])
@pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 10_000])
def test_save_path_bytes_match_per_row_writer(tmp_path, spec, n):
    model = fp.get_model(spec)
    z = _path_with_extremes(model, n, np.random.default_rng(n))
    assert (z.periods is not None) == (spec == "cylinder(1)")
    fp.save_path(z, os.path.join(tmp_path, "block.txt"))
    _save_path_per_row(z, os.path.join(tmp_path, "row.txt"))
    with open(os.path.join(tmp_path, "block.txt"), "rb") as fh:
        block = fh.read()
    with open(os.path.join(tmp_path, "row.txt"), "rb") as fh:
        row = fh.read()
    assert block == row


@pytest.mark.parametrize("spec", ["cylinder(1)", "flat"])
@pytest.mark.parametrize("n", [4095, 4096, 4097])
def test_save_path_pair_bytes_match_two_calls(tmp_path, spec, n):
    """One call with a (geodesic, file) pair writes each file's bytes as a
    call of its own does, with and without periods, across block edges."""
    model = fp.get_model(spec)
    z = _path_with_extremes(model, n, np.random.default_rng(n))
    geo = fp.apply_flow(z, 1.2345)
    names = [os.path.join(tmp_path, f) for f in ("p1.txt", "g1.txt", "p2.txt", "g2.txt")]
    fp.save_path(z, names[0], (geo, names[1]))
    fp.save_path(z, names[2])
    fp.save_path(geo, names[3])
    pair, single = [read_bytes(f) for f in names[:2]], [read_bytes(f) for f in names[2:]]
    assert pair == single
    assert pair[0] != pair[1]  # the t columns differ
    _save_path_per_row(geo, os.path.join(tmp_path, "row.txt"))
    assert pair[1] == read_bytes(os.path.join(tmp_path, "row.txt"))


def read_bytes(filename):
    with open(filename, "rb") as fh:
        return fh.read()


def _mismatch(z, case):
    """A path whose y-nodes or periods differ from those of z, bits included."""
    if case == "other periods":
        return fp.DiscretePath(z.y, z.t, (0.0, 1.0) if z.periods is None else None)
    if case == "other grid":
        return resample(z, z.segments + 1)
    y = z.y.copy()
    if case == "one y-node one ulp off":
        y[1, 0] = np.nextafter(y[1, 0], np.inf)
    else:  # a zero of the other sign
        assert y[0, 0] == 0.0 and math.copysign(1.0, y[0, 0]) < 0
        y[0, 0] = 0.0
    return fp.DiscretePath(y, z.t, z.periods)


@pytest.mark.parametrize("spec", ["cylinder(1)", "flat"])
@pytest.mark.parametrize(
    "case", ["one y-node one ulp off", "a zero of the other sign", "other periods", "other grid"]
)
def test_save_path_pair_rejects_other_y_nodes(tmp_path, spec, case):
    """A pair whose y-nodes or periods are not those of the first path raises
    before any file is opened."""
    model = fp.get_model(spec)
    z = smooth_path(model, *endpoints_for(model), 40, np.random.default_rng(3))
    y = z.y.copy()
    y[0, 0] = -0.0
    z = fp.DiscretePath(y, z.t, z.periods)
    other = _mismatch(z, case)
    first, second = (os.path.join(tmp_path, f) for f in ("p.txt", "g.txt"))
    with pytest.raises(ValueError, match="y-nodes and periods differ"):
        fp.save_path(z, first, (other, second))
    assert not os.path.exists(first) and not os.path.exists(second)


# ---------------------------------------------------------------------------
# the "%.17g" kernel of save_path
# ---------------------------------------------------------------------------

def kernel_texts(values, sep):
    """The text `_format_17g` gives each value, split at `sep`."""
    chars, mask = _format_17g(np.asarray(values, dtype=float), ord(sep))
    text = chars[mask].tobytes().decode("ascii")
    assert text.endswith(sep)
    return text[:-1].split(sep)


def assert_formats_like_percent(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    assert kernel_texts(values, " ") == want
    assert kernel_texts(values, "\n") == want


def _format_table():
    """The edges of the kernel: its fixed-notation range [1e-4, 1e17), powers
    of ten with their neighbours, doubles near 1e17 (the decimal literals
    99999999999999992 and 99999999999999999 both read as 1e17), ties of the
    17th digit, the powers of two just past 2**53, and the grid i / 50000 of
    the fine-grid workload's s column; all with both signs."""
    tens = [float(f"1e{j}") for j in range(-5, 19)]
    edges = [1e-4, 99999999999999984.0, float("99999999999999992"),
             float("99999999999999999"), 1e17]
    near = [math.nextafter(v, d) for v in tens + edges for d in (-math.inf, math.inf)]
    # 18 significant digits ending in 5: the 17th rounds half to even.
    ties = [2.0**-25, 1234567890123456.75, 1234567890123456.25,
            1125899906842624.25, 1125899906842624.75]
    values = [0.0, 5e-324, 1.7976931348623157e308, *tens, *edges, *near, *ties,
              *(2.0**k for k in range(53, 61))]
    return values + [-v for v in values] + list(np.arange(50_001) / 50_000)


def test_format_17g_matches_percent_on_the_table():
    values = _format_table()
    assert_formats_like_percent(values)
    # solve._fmt formats the record fields and CSV cells one value at a time.
    assert [_fmt(v) for v in values] == kernel_texts(values, " ")


def test_format_17g_matches_percent_on_random_bit_patterns():
    """Every kind of double: subnormals, exponent notation, inf and nan."""
    rng = np.random.default_rng(2024)
    values = np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64)
    assert np.isnan(values).any() and (np.abs(values) < 1e-300).any()
    assert_formats_like_percent(values)
    assert [_fmt(v) for v in values.tolist()] == kernel_texts(values, " ")


def test_format_17g_matches_percent_across_the_fixed_range():
    """Uniform significands at every decimal exponent of the fixed notation."""
    rng = np.random.default_rng(7)
    n = 100_000
    values = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-4, 17, n)
    values[::2] *= -1.0
    assert_formats_like_percent(values)


if st is not None:

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_format_17g_matches_percent(values):
        assert_formats_like_percent(values)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_format_17g_matches_percent():
        pass


def test_path_roundtrip_bit_exact_fine_grid(tmp_path):
    model = fp.get_model("cylinder(1)")
    z = _path_with_extremes(model, 50_000, np.random.default_rng(5))
    fname = os.path.join(tmp_path, "path.txt")
    fp.save_path(z, fname)
    loaded = fp.load_path(fname)
    assert np.array_equal(loaded.y.view(np.uint64), z.y.view(np.uint64))
    assert np.array_equal(loaded.t.view(np.uint64), z.t.view(np.uint64))
    assert loaded.periods == z.periods


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def _naive_polynomial(poly, y, nu=None):
    """Reference evaluation: every term from its coefficient, powers recomputed."""
    n = y.shape[0]
    out = np.zeros(n)
    for t in poly.terms:
        v = np.full(n, t.coef)
        for j, p in enumerate(t.y_pow):
            if p:
                v = v * y[:, j] ** p
        if nu is not None:
            for j, p in enumerate(t.nu_pow):
                if p:
                    v = v * nu[:, j] ** p
        out += v
    return out


def _bench_polynomials():
    cp = configparser.ConfigParser()
    cp.read(BENCH_POLYNOMIAL_MODEL)
    dim = cp.getint("model", "dim")
    L0 = parse_polynomial(cp.get("model", "L0"), dim)
    polys = [L0, L0.energy(), parse_polynomial(cp.get("model", "omega"), dim)]
    polys += [L0.deriv(var, j) for var in ("y", "nu") for j in range(dim)]
    polys.append(parse_polynomial("1.5 - 0.7 y1 nu2^3 + 2 y2^2 + 0.25 nu1 y2^2 nu1", dim))
    return polys


def test_polynomial_matches_term_by_term_evaluation():
    assert os.path.exists(BENCH_POLYNOMIAL_MODEL)
    rng = np.random.default_rng(11)
    y = 3.0 * rng.standard_normal((2000, 2))
    nu = 3.0 * rng.standard_normal((2000, 2))
    for poly in _bench_polynomials():
        for args in ((y, nu), (y,)):
            got = poly(*args)
            want = _naive_polynomial(poly, *args)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_polynomial_coefficients_in_scientific_notation():
    """An exponent's sign does not start a new term."""
    poly = parse_polynomial("1e-3 nu1^2 - 2.5E+1 y1 + 3e2", 2)
    assert poly.terms == (
        Monomial(1e-3, (0, 0), (2, 0)),
        Monomial(-25.0, (1, 0), (0, 0)),
        Monomial(300.0, (0, 0), (0, 0)),
    )
    # The bench model, free of exponents, parses to the same terms as before.
    cp = configparser.ConfigParser()
    cp.read(BENCH_POLYNOMIAL_MODEL)
    assert parse_polynomial(cp.get("model", "L0"), 2).terms == (
        Monomial(0.5, (0, 0), (2, 0)),
        Monomial(0.5, (0, 0), (0, 2)),
        Monomial(0.15, (2, 0), (0, 2)),
        Monomial(0.1, (0, 1), (1, 1)),
        Monomial(0.05, (1, 1), (2, 0)),
    )
    assert parse_polynomial(cp.get("model", "omega"), 2).terms == (
        Monomial(0.3, (1, 0), (0, 1)),
        Monomial(-0.2, (0, 1), (1, 0)),
    )


def test_segment_geometry_shapes():
    z = fp.straight_path(fp.Point([0, 0], 0.0), fp.Point([1, 1], 1.0), 12)
    mid_y, vel_y, vel_t = segment_geometry(z)
    assert mid_y.shape == (12, 2) and vel_y.shape == (12, 2)
    assert vel_t.shape == (12,)
    assert np.allclose(vel_y, 1.0) and np.allclose(vel_t, 1.0)
