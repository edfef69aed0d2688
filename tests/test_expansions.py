import math

import mpmath
import numpy as np
import pytest

from itergelfand.corrector import phi_m
from itergelfand.expansions import (expansion_grad_m1, expansion_w,
                                    gradient_residual_constant, residual_order)
from itergelfand.singular import ansatz_terms
from itergelfand.towers import h_deriv, h_tower
from itergelfand.transform import LogProfile


def _taylor_oracle(n, m, t):
    """Second-order Taylor expansion of H_m(2t + phi_m) about 2t, at 40 digits.

    H_m(2t) + H'_m(2t) psi + H''_m(2t) psi^2 / 2, psi = ln(2(n-2)) - sum_{j=1..m}
    H_j(2t), plus H'_1(2t) ln(t) / (2t) at m = 1; the derivatives are mpmath's.
    """
    def H(j, x):
        for _ in range(j):
            x = mpmath.log(x)
        return x

    with mpmath.workdps(40):
        tm = mpmath.mpf(t)
        x = 2 * tm
        psi = mpmath.log(2 * (n - 2)) - sum(H(j, x) for j in range(1, m + 1))
        out = (H(m, x) + mpmath.diff(lambda y: H(m, y), x) * psi
               + mpmath.diff(lambda y: H(m, y), x, 2) * psi ** 2 / 2)
        if m == 1:
            out += mpmath.log(tm) / (4 * tm ** 2)
        return float(out)


def test_ansatz_depth_is_exact():
    t = np.geomspace(20.0, 400.0, 30)
    phi, _, _ = phi_m(3, 1, t)
    assert np.array_equal(ansatz_terms(3, 1, t)[0], np.log(2 * t + phi))


def test_four_term_minus_ansatz_order():
    # the truncation drops only o(1/t^2) pieces on [50, 500] for n = 3
    t = np.geomspace(50.0, 500.0, 60)
    diff = expansion_w(3, 1, t) - ansatz_terms(3, 1, t)[0]
    assert np.max(t ** 2 * np.abs(diff)) < 2.0


def test_expansion_w_m1_vs_high_precision():
    mpmath.mp.dps = 40
    n, t = 3, 100.0
    tm = mpmath.mpf(t)
    lnt = mpmath.log(tm)
    oracle = float(mpmath.log(2 * tm) + (mpmath.log(n - 2) - lnt) / (2 * tm)
                   - lnt ** 2 / (8 * tm ** 2) + lnt / (4 * tm ** 2))
    assert expansion_w(n, 1, t) == pytest.approx(oracle, rel=1e-14)


def test_expansion_w_at_m1_is_four_term():
    # at n = 3, m = 1 the Taylor expansion is the four-term expansion, to 2 ulps
    t = np.geomspace(2.0, 1e6, 400)
    lnt = np.log(t)
    four = (np.log(2.0 * t) - lnt / (2.0 * t) - lnt ** 2 / (8.0 * t ** 2)
            + lnt / (4.0 * t ** 2))
    assert np.all(np.abs(expansion_w(3, 1, t) - four) <= 2.0 * np.spacing(four))
    # at other n its psi^2 term keeps ln(n-2) ln(t)/(4t^2) - ln^2(n-2)/(8t^2),
    # which the four-term expansion drops
    for n in (4, 5, 9, 10, 12):
        for tt in t[::40]:
            assert expansion_w(n, 1, tt) == pytest.approx(_taylor_oracle(n, 1, tt), rel=1e-14)
    with pytest.raises(ValueError):
        expansion_w(3, 0, t)


def test_expansion_grad_m1_substitution():
    r = math.exp(-10.0)
    expect = 1.0 / (r * 10.0) + math.log(10.0) / (2.0 * r * 100.0)
    assert expansion_grad_m1(r) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        expansion_grad_m1(0.5)


def test_expansion_w_m2_tower_values():
    rho = math.exp(math.e) / 2.0
    assert h_tower(2, 2 * rho) == pytest.approx(1.0, abs=1e-14)
    assert h_deriv(2, 1, 2 * rho) == pytest.approx(
        1.0 / (math.exp(math.e) * math.e), rel=1e-14)
    val = expansion_w(3, 2, rho)
    # there H_1(2 rho) = e, H_2 = 1, H'_2 = 1/(2 rho e) and
    # H''_2 = -H'_2 (1 + 1/e) / (2 rho)
    with mpmath.workdps(40):
        e, x = mpmath.e, mpmath.exp(mpmath.e)
        hp = 1 / (x * e)
        psi = mpmath.log(2) - (e + 1)
        expect = float(1 + hp * psi - hp * (1 + 1 / e) / x * psi ** 2 / 2)
    assert val == pytest.approx(expect, rel=1e-14)
    assert val == pytest.approx(_taylor_oracle(3, 2, rho), rel=1e-14)


def test_expansion_w_m_vs_high_precision():
    for n, m, rho in ((4, 2, 80.0), (3, 2, 1e4), (9, 3, 200.0), (5, 1, 50.0)):
        assert expansion_w(n, m, rho) == pytest.approx(_taylor_oracle(n, m, rho), rel=1e-13)


def test_ansatz_taylor_groups():
    # H_m(2t + phi) equals the three printed groups up to O(H'''(2t) phi^3)
    mpmath.mp.dps = 50
    for t in (60.0, 200.0):
        m, n = 2, 3
        phi, _, _ = phi_m(n, m, t)
        tm, pm = mpmath.mpf(t), mpmath.mpf(phi)

        def H2(x):
            return mpmath.log(mpmath.log(x))

        exact = H2(2 * tm + pm)
        taylor = (H2(2 * tm) + mpmath.diff(H2, 2 * tm) * pm
                  + mpmath.diff(H2, 2 * tm, 2) * pm ** 2 / 2)
        rem_bound = abs(mpmath.diff(H2, 2 * tm, 3)) * abs(pm) ** 3
        assert abs(exact - taylor) <= float(rem_bound)


def test_residual_order_exact_profile_is_zero():
    t = np.geomspace(40.0, 150.0, 80)
    prof = LogProfile(t, np.log(2 * t), 1.0 / t)
    rep = residual_order(prof, lambda tt: np.log(2 * tt), 2.0, (50.0, 120.0))
    assert rep.weighted_sup == 0.0


def test_residual_order_empty_window():
    t = np.geomspace(40.0, 150.0, 80)
    prof = LogProfile(t, np.log(2 * t), 1.0 / t)
    with pytest.raises(ValueError):
        residual_order(prof, lambda tt: np.log(2 * tt), 2.0, (120.0, 50.0))


def test_corrector_window_order(sol_n3m1):
    # weighted sup of w - ln(2t + phi) is bounded and window-doubling stable,
    # and the empirical remainder order sits near -2
    T = sol_n3m1.eta.T
    half = residual_order(sol_n3m1.profile,
                          lambda t: ansatz_terms(3, 1, t)[0], 2.0,
                          (T + 5.0, 2.0 * T))
    full = residual_order(sol_n3m1.profile,
                          lambda t: ansatz_terms(3, 1, t)[0], 2.0,
                          (T + 5.0, 4.0 * T))
    assert full.weighted_sup <= sol_n3m1.eta.M
    assert full.weighted_sup <= 3.0 * half.weighted_sup
    four = residual_order(sol_n3m1.profile,
                          lambda t: expansion_w(3, 1, t), 2.0,
                          (T + 5.0, 4.0 * T))
    assert abs(four.empirical_slope + 2.0) <= 0.3


def test_gradient_residual_constant_stable(sol_n3m1):
    T = sol_n3m1.eta.T
    c1 = gradient_residual_constant(sol_n3m1, (T + 5.0, 2.0 * T))
    c2 = gradient_residual_constant(sol_n3m1, (T + 5.0, 4.0 * T))
    assert 0.0 < c2 < 10.0
    assert c2 <= 3.0 * c1


def test_m2_expansion_residual_decays(sol_n3m2):
    # remainder order for m >= 2 is left open; the trend is reported only
    prof = sol_n3m2.profile
    T = sol_n3m2.eta.T
    sel = (prof.t >= T + 5.0) & (prof.t <= 4.0 * T)
    t = prof.t[sel]
    diff = np.abs(prof.w[sel] - expansion_w(3, 2, t))
    mid = math.sqrt((T + 5.0) * 4.0 * T)
    assert np.max(diff[t >= mid]) <= np.max(diff[t <= mid])
