import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itergelfand.numerics import differentiate
from itergelfand.transform import (LogProfile, RadialProfile, gradient_magnitude,
                                   log_to_radial, radial_to_log, read_profile_csv,
                                   write_profile_csv)


def gelfand_radial(n, npts=200):
    """Closed-form singular Gelfand profile u_s = -2 ln r at lambda = 2(n-2)."""
    lam = 2.0 * (n - 2)
    r = np.geomspace(1.0, 1e-6, npts)
    return RadialProfile(lam, r, -2.0 * np.log(r), -2.0 / r)


def test_unit_radius_maps_to_zero():
    p = RadialProfile(1.0, np.array([1.0, 0.5]), np.zeros(2), np.zeros(2))
    lp = radial_to_log(p)
    assert lp.t[0] == 0.0


def test_constant_profile():
    p = RadialProfile(1.0, np.geomspace(1.0, 0.01, 20), np.zeros(20), np.zeros(20))
    lp = radial_to_log(p)
    assert np.all(lp.w == 0.0)
    assert np.all(lp.w_t == 0.0)


def test_gelfand_substitution():
    # u_s = -2 ln|x| at lambda = 2(n-2) becomes w(t) = 2t + ln(2(n-2))
    n = 3
    lp = radial_to_log(gelfand_radial(n))
    lam = 2.0 * (n - 2)
    assert np.max(np.abs(lp.w - (2.0 * lp.t + math.log(lam)))) < 1e-12
    assert np.max(np.abs(lp.w_t - 2.0)) < 1e-12


def test_roundtrip_identity():
    p = gelfand_radial(4)
    back = log_to_radial(radial_to_log(p), p.lam)
    assert np.max(np.abs(back.r - p.r)) < 1e-12
    assert np.max(np.abs(back.u - p.u)) < 1e-12
    assert np.max(np.abs(back.u_r - p.u_r) / np.abs(p.u_r)) < 1e-12


def test_log_to_radial_boundary():
    lp = LogProfile(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]),
                    np.array([2.0, 2.0, 2.0]))
    p = log_to_radial(lp, 1.0)
    assert p.r[0] == 1.0


def test_gradient_gelfand():
    # w = 2t log profile: gradient 2/r
    lp = radial_to_log(gelfand_radial(3))
    for r in (0.5, 0.1, 0.01):
        assert gradient_magnitude(lp, lp_lam := 2.0, r) == pytest.approx(2.0 / r,
                                                                         rel=1e-12)


def test_gradient_leading_term_constructed(sol_n3m1):
    # against the constructed profile, the gradient tracks 1/(r ln(1/r))
    lp = sol_n3m1.profile
    for t in (60.0, 120.0):
        r = math.exp(-t)
        g = gradient_magnitude(lp, sol_n3m1.lambda_star, r)
        lead = 1.0 / (r * t)
        assert abs(g / lead - 1.0) < 2.0 * math.log(t) / t + 0.01


def test_gradient_vs_finite_difference(sol_n3m1):
    # finite differences of u samples against the carried-gradient value
    lp = sol_n3m1.profile
    rad = log_to_radial(lp, sol_n3m1.lambda_star)
    sel = slice(100, 160)
    u_r_fd = differentiate(rad.r[sel][::-1], rad.u[sel][::-1], order=1, stencil=7)[::-1]
    rel = np.abs(u_r_fd - rad.u_r[sel]) / np.abs(rad.u_r[sel])
    assert np.max(rel[3:-3]) < 1e-5


def test_ode_equivalence_jacobian():
    # a log profile solving the log equation maps to a radial profile solving
    # the radial equation; checked on the closed-form solution with the
    # radial residual measured by finite differences
    n = 3
    rad = gelfand_radial(n, npts=4000)
    r, v, v_r = rad.r[::-1], rad.u[::-1], rad.u_r[::-1]
    lam = rad.lam
    # v-space: v = u, radius sqrt(lam) * r
    rv = math.sqrt(lam) * r
    vr_v = v_r / math.sqrt(lam)
    v_rr = differentiate(rv, vr_v, order=1, stencil=7)
    force = np.exp(v)
    res = v_rr + (n - 1) / rv * vr_v + force
    scale = np.maximum(np.abs(v_rr), force)
    assert np.max(np.abs(res[5:-5]) / scale[5:-5]) < 1e-7


def test_profile_csv_roundtrip(tmp_path):
    lp = radial_to_log(gelfand_radial(5))
    path = tmp_path / "p.csv"
    write_profile_csv(path, lp)
    lp2 = read_profile_csv(path)
    assert np.array_equal(lp.t, lp2.t)
    assert np.array_equal(lp.w, lp2.w)
    assert np.array_equal(lp.w_t, lp2.w_t)
    rad = gelfand_radial(5)
    write_profile_csv(path, rad)
    rad2 = read_profile_csv(path, lam=rad.lam)
    assert np.array_equal(rad.r, rad2.r)


def test_validation_errors():
    with pytest.raises(ValueError):
        RadialProfile(1.0, np.array([0.5, 1.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        RadialProfile(1.0, np.array([1.0, -0.5]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        LogProfile(np.array([1.0, 0.5]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        gradient_magnitude(radial_to_log(gelfand_radial(3)), 2.0, 1e-9)


@settings(max_examples=400, deadline=None)
@given(t0=st.floats(min_value=-10.0, max_value=10.0),
       gaps=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12),
       coef=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
       frac=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
       outside=st.floats(min_value=1e-9, max_value=10.0))
def test_hermite_reproduces_cubics(t0, gaps, coef, frac, outside):
    # eval_w / eval_wt are the cubic Hermite of (w, w_t), exact on cubic data
    a, b, c, d = coef
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    prof = LogProfile(t, a + t * (b + t * (c + t * d)), b + t * (2.0 * c + 3.0 * d * t))
    q = np.clip(t[0] + np.array(frac) * (t[-1] - t[0]), t[0], t[-1])
    # rounding of the samples, amplified by 1/h in the derivative
    eps = np.finfo(float).eps
    big = float(np.max(np.abs(t)))
    scale_w = abs(a) + abs(b) * big + abs(c) * big ** 2 + abs(d) * big ** 3
    scale_wt = abs(b) + 2.0 * abs(c) * big + 3.0 * abs(d) * big ** 2
    # subnormal data round absolutely: each product of the Horner forms is off
    # by up to tiny/2 more, grown by |t| <= big in the later products, so a
    # sample (and the exact side) is off by E; the Hermite weights carry 3E/h
    # of the w samples and 2E of the w_t samples into eval_wt, and its own
    # products add at most 8 tiny/2 before the division by h
    tiny = 2.0 ** -1074
    E = (big ** 2 + big + 1.0) * tiny / 2.0
    tol_w = 64.0 * eps * (scale_w + scale_wt) + 4.0 * E + 8.0 * tiny
    tol_wt = (64.0 * eps * (scale_w / min(gaps) + scale_wt)
              + (3.0 * E + 4.0 * tiny) / min(gaps) + 3.0 * E)
    w_exact = a + q * (b + q * (c + q * d))
    wt_exact = b + q * (2.0 * c + 3.0 * d * q)
    assert np.max(np.abs(prof.eval_w(q) - w_exact)) <= tol_w
    assert np.max(np.abs(prof.eval_wt(q) - wt_exact)) <= tol_wt
    assert type(prof.eval_w(float(q[0]))) is float
    assert type(prof.eval_wt(float(q[0]))) is float
    beyond = np.array([t[0] - outside, t[-1] + outside])
    assert np.all(np.isnan(prof.eval_w(beyond)))
    assert np.all(np.isnan(prof.eval_wt(beyond)))
