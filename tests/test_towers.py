import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from itergelfand.towers import (TowerDomainError, TowerOverflowError, f_tail,
                                f_tail_inverse, f_tail_inverse_log, f_tail_log,
                                g_deriv, g_tower, h_deriv, h_tower, tower_domain_lower)
from oracles import g_diff

EPS = sys.float_info.epsilon

# safe grids: G_m(y) stays representable
SAFE_Y = {1: np.linspace(-2.0, 3.0, 41),
          2: np.linspace(-2.0, 1.8, 41),
          3: np.linspace(-2.0, 1.4, 41)}


def test_g_tower_base_cases():
    assert g_tower(0, 1.5) == 1.5
    assert g_tower(1, 0.0) == 1.0
    assert g_tower(2, 0.0) == pytest.approx(math.e, rel=1e-15)


def test_h_tower_base_cases():
    assert h_tower(1, math.e) == pytest.approx(1.0, abs=1e-15)
    assert h_tower(2, math.exp(math.e)) == pytest.approx(1.0, abs=1e-14)
    assert h_tower(3, g_tower(3, 0.7)) == pytest.approx(0.7, abs=1e-12)


def test_roundtrip_identity():
    for m, ys in SAFE_Y.items():
        for y in ys:
            assert abs(h_tower(m, g_tower(m, y)) - y) <= 1e-12


def test_tower_domain_lower():
    assert tower_domain_lower(1) == 0.0
    assert tower_domain_lower(2) == 1.0
    assert tower_domain_lower(3) == pytest.approx(math.e, rel=1e-15)


def test_h_deriv_known_values():
    assert h_deriv(1, 1, 2.0) == 0.5
    assert h_deriv(2, 1, math.e) == pytest.approx(1.0 / math.e, rel=1e-14)


def test_h_deriv_vs_finite_differences():
    # k-th derivative against a central difference of the (k-1)-th
    for m in (1, 2, 3):
        ts = np.geomspace(tower_domain_lower(m) + 4.0 if m > 1 else 1.5, 1e3, 20)
        for t in ts:
            h = 1e-4 * max(1.0, t * 1e-2)
            for k in (1, 2, 3):
                lower = (lambda x: h_tower(m, x)) if k == 1 else \
                    (lambda x, kk=k - 1: h_deriv(m, kk, x))
                fd = (lower(t + h) - lower(t - h)) / (2.0 * h)
                assert h_deriv(m, k, t) == pytest.approx(fd, rel=1e-6)


def test_g_deriv_known_values():
    assert g_deriv(1, 1, 0.0) == 1.0
    assert g_deriv(2, 1, 0.0) == pytest.approx(math.e, rel=1e-14)


def test_g_deriv_second_vs_central_difference():
    h = 1e-4
    fd = (g_tower(2, 0.5 + h) - 2 * g_tower(2, 0.5) + g_tower(2, 0.5 - h)) / h ** 2
    assert g_deriv(2, 2, 0.5) == pytest.approx(fd, rel=1e-6)


def test_g_deriv_vs_finite_differences():
    for m in (1, 2, 3):
        for y in SAFE_Y[m][5:-5:7]:
            h = 1e-5
            for k in (1, 2, 3):
                lower = (lambda x: g_tower(m, x)) if k == 1 else \
                    (lambda x, kk=k - 1: g_deriv(m, kk, x))
                fd = (lower(y + h) - lower(y - h)) / (2.0 * h)
                assert g_deriv(m, k, y) == pytest.approx(fd, rel=1e-6)


def test_h_decay_bounds():
    # t^k ln t |H_m^(k)(t)| stays bounded on [10, 1e6]
    for m in (1, 2, 3):
        lo = max(10.0, tower_domain_lower(m) + 8.0)
        ts = np.geomspace(lo, 1e6, 60)
        for k in (1, 2, 3):
            vals = np.abs(h_deriv(m, k, ts)) * ts ** k * np.log(ts)
            assert np.max(vals) < 50.0


def test_h_log_derivative_relation():
    # t ln t |H''_m/H'_m + 1/t| bounded
    for m in (1, 2, 3):
        lo = max(10.0, tower_domain_lower(m) + 8.0)
        ts = np.geomspace(lo, 1e6, 60)
        vals = np.abs(h_deriv(m, 2, ts) / h_deriv(m, 1, ts) + 1.0 / ts) * ts * np.log(ts)
        assert np.max(vals) < 10.0


def test_f_tail_at_zero_quadrature_oracle():
    oracle, err = quad(lambda s: math.exp(-math.exp(s)), 0.0, 40.0, epsabs=1e-14,
                       limit=200, points=[1.0, 2.0, 4.0, 8.0])
    assert err < 1e-11
    assert oracle == pytest.approx(0.2193839343955203, abs=1e-12)
    assert f_tail(0.0) == pytest.approx(oracle, abs=1e-10)


def test_f_tail_large_argument_limit():
    v = f_tail(5.0)
    ratio = v * math.exp(5.0 + math.exp(5.0))
    assert 0.99 <= ratio <= 1.0


def test_f_tail_monotone():
    assert f_tail(1.0) < f_tail(0.0)


def test_f_tail_vs_exponential_integral_form():
    # quadrature route and the implementation agree to 1e-10 relative; for
    # large t compare log values against a 50-digit evaluation
    for t in np.linspace(-2.0, 5.0, 15):
        oracle, _ = quad(lambda s: math.exp(-math.exp(s)), t, 40.0, epsabs=1e-15,
                         limit=200)
        assert f_tail(t) == pytest.approx(oracle, rel=1e-10)
    mpmath.mp.dps = 50
    for t in np.linspace(5.0, 20.0, 7):
        oracle_log = float(mpmath.log(mpmath.e1(mpmath.exp(t))))
        assert f_tail_log(t) == pytest.approx(oracle_log, rel=1e-12)


def test_f_tail_where_exp_leaves_the_normal_range():
    # below t = -708.39 e^t is subnormal, below -745.13 it is 0; F(t) is
    # then -gamma - t, against a 50-digit E_1(e^t).  -740 lies in the
    # subnormal range, where exp1 of the rounded e^t was off by 2.6e-3
    mpmath.mp.dps = 50
    for t in (-1e6, -800.0, -740.0):
        oracle = mpmath.e1(mpmath.exp(mpmath.mpf(t)))
        assert f_tail(t) == pytest.approx(float(oracle), rel=4 * EPS)
        assert f_tail_log(t) == pytest.approx(float(mpmath.log(oracle)), rel=4 * EPS)
    # Brent stops within 4 eps (1 + |t|) of the root
    assert f_tail_inverse(800.0) == pytest.approx(-800.0 - np.euler_gamma, rel=8 * EPS)


def test_f_tail_inverse_roundtrip():
    assert f_tail_inverse(f_tail(1.0)) == pytest.approx(1.0, abs=1e-10)
    assert f_tail_inverse(0.2193839343955203) == pytest.approx(0.0, abs=1e-10)


def test_f_tail_inverse_monotone():
    # x1 < x2 implies inverse(x1) > inverse(x2): F is decreasing
    xs = [0.01, 0.1, 0.5, 2.0]
    ts = [f_tail_inverse(x) for x in xs]
    assert all(t_prev > t_next for t_prev, t_next in zip(ts, ts[1:]))


def test_f_tail_inverse_log_deep():
    t = f_tail_inverse_log(-400.0)
    assert f_tail_log(t) == pytest.approx(-400.0, abs=1e-9)


def test_overflow_reports_level():
    with pytest.raises(TowerOverflowError) as exc:
        g_tower(2, 7.0)
    assert exc.value.level == 2
    with pytest.raises(TowerOverflowError):
        g_tower(3, 2.0)


def test_domain_error_reports_level():
    with pytest.raises(TowerDomainError) as exc:
        h_tower(3, 2.0)
    assert exc.value.level == 2  # H_2(2) = ln ln 2 < 0 blocks level 3
    with pytest.raises(TowerDomainError):
        h_tower(1, -1.0)


def test_g_diff_matches_subtraction():
    for m in (1, 2):
        for y0 in (0.5, 1.0):
            for dy in (1e-8, 1e-4, 0.2):
                direct = g_tower(m, y0 + dy) - g_tower(m, y0)
                assert g_diff(m, y0, dy) == pytest.approx(direct, rel=1e-7)


def _tower_error(m, y):
    """Bound on the absolute error of g_tower(m, y) for a y itself one ulp off."""
    v, err = y, math.ulp(y)
    for _ in range(m):
        v = math.exp(v)
        err = v * math.expm1(err) + math.ulp(v)
    return err


@settings(max_examples=400, deadline=None)
@given(m=st.integers(min_value=0, max_value=3),
       y0=st.floats(min_value=-30.0, max_value=710.0),
       dy=st.floats(min_value=-30.0, max_value=30.0))
def test_g_diff_matches_subtraction_property(m, y0, dy):
    try:
        g0, g1 = g_tower(m, y0), g_tower(m, y0 + dy)
    except TowerOverflowError:
        return
    direct = g1 - g0
    # away from cancellation the subtraction is as good as its two towers
    if not abs(direct) > 1e-3 * max(abs(g0), abs(g1)):
        return
    # the two tower errors, plus a few roundings of the difference per level
    # of the recursion; 4e5 random cases used at most 0.37 of this bound
    bound = (2.0 * (_tower_error(m, y0) + _tower_error(m, y0 + dy))
             + 4.0 * (m + 1) * math.ulp(direct))
    assert abs(g_diff(m, y0, dy) - direct) <= bound


@settings(max_examples=400, deadline=None)
@given(m=st.integers(min_value=0, max_value=3),
       y=st.floats(allow_nan=False, allow_infinity=False))
def test_scalar_tower_matches_array_tower(m, y):
    try:
        ref = g_tower(m, np.array([y]))[0]
    except TowerOverflowError as exc:
        with pytest.raises(TowerOverflowError) as scalar_exc:
            g_tower(m, y)
        assert scalar_exc.value.level == exc.level
        return
    got = g_tower(m, y)
    assert type(got) is float
    # each path rounds every level to within one ulp of the exact exp of its
    # own input; an input difference d grows to G_j expm1(d) at level j
    chain = [y]
    for _ in range(m):
        chain.append(math.exp(chain[-1]))
    bound = 0.0
    for v in chain[1:]:
        bound = v * math.expm1(bound) + 2.0 * math.ulp(v)
    assert abs(got - ref) <= bound


@settings(max_examples=400, deadline=None)
@given(m=st.integers(min_value=0, max_value=3),
       y=st.floats(min_value=-30.0, max_value=710.0))
def test_tower_roundtrip_property(m, y):
    try:
        g = g_tower(m, y)
    except TowerOverflowError:
        return
    back = h_tower(m, g)
    # every exp and log rounds within one ulp of its result; an error e at
    # level j moves y by e / (G_1 ... G_j), so with both directions the
    # round trip stays within 2 sum_j ulp(G_j) / (G_1 ... G_j).  2e5 random
    # cases used at most 0.33 of that bound
    bound, prod = 0.0, 1.0
    v = y
    for j in range(m + 1):
        if j:
            v = math.exp(v)
            prod *= v
        bound += math.ulp(v) / prod
    assert abs(back - y) <= 2.0 * bound


@settings(max_examples=400, deadline=None)
@given(t=st.floats(min_value=-1e6, max_value=6.5))
def test_f_tail_inverse_roundtrip_property(t):
    back = f_tail_inverse(f_tail(t))
    # F(t) carries a relative error of a few ulps of 1 + |ln F| (exp1, or the
    # log-domain series then exp), which moves the root by that times
    # F / |F'| = exp(ln F + e^t); Brent's method stops within
    # 4 eps (1 + |t|) of the root.  4e4 random cases used at most 0.18 of
    # the bound
    log_f = f_tail_log(t)
    spread = math.exp(log_f + math.exp(t))
    bound = 16.0 * (math.ulp(t) + EPS * (1.0 + abs(log_f)) * spread)
    assert abs(back - t) <= bound
