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
    # at m = 1 the three groups plus H'_1(2t) ln(t)/(2t) are the four-term
    # expansion, to 2 ulps
    t = np.geomspace(2.0, 1e6, 400)
    lnt = np.log(t)
    for n in (3, 4, 5, 9, 10, 12):
        four = (np.log(2.0 * t) + (math.log(n - 2) - lnt) / (2.0 * t)
                - lnt ** 2 / (8.0 * t ** 2) + lnt / (4.0 * t ** 2))
        assert np.all(np.abs(expansion_w(n, 1, t) - four) <= 2.0 * np.spacing(four))
    with pytest.raises(ValueError):
        expansion_w(3, 0, t)


def test_expansion_grad_m1_substitution():
    r = math.exp(-10.0)
    expect = 1.0 / (r * 10.0) + math.log(10.0) / (2.0 * r * 100.0)
    assert expansion_grad_m1(3, r) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        expansion_grad_m1(3, 0.5)


def test_expansion_w_m2_tower_values():
    rho = math.exp(math.e) / 2.0
    assert h_tower(2, 2 * rho) == pytest.approx(1.0, abs=1e-14)
    assert h_deriv(2, 1, 2 * rho) == pytest.approx(
        1.0 / (math.exp(math.e) * math.e), rel=1e-14)
    val = expansion_w(3, 2, rho)
    hp = 1.0 / (math.exp(math.e) * math.e)
    expect = (1.0 + hp * (math.log(2.0) - (math.e + 1.0))
              - hp * math.log(rho) ** 2 / (4.0 * rho))
    assert val == pytest.approx(expect, rel=1e-13)


def test_expansion_w_m_vs_high_precision():
    mpmath.mp.dps = 40
    n, m, rho = 4, 2, 80.0
    rm = mpmath.mpf(rho)
    H1 = mpmath.log(2 * rm)
    H2 = mpmath.log(H1)
    Hp = 1 / (2 * rm * H1)
    oracle = float(H2 + Hp * (mpmath.log(2 * (n - 2)) - (H1 + H2))
                   - Hp * mpmath.log(rm) ** 2 / (4 * rm))
    assert expansion_w(n, m, rho) == pytest.approx(oracle, rel=1e-13)


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
