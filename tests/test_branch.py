import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import itergelfand.branch as br
from itergelfand.branch import (BifurcationCurve, ShootError, intersection_count,
                                shoot_regular, trace_curve, turning_points)
from itergelfand.singular import DescentError, ode_residual
from itergelfand.towers import g_tower


def naive_radial_shoot(n, m, rho):
    """Independent oracle: plain r-space integration, valid while exp(G_m(rho))
    stays representable."""
    K = math.exp(g_tower(m, rho))
    r0 = 1e-7 / math.sqrt(K)

    def rhs(r, y):
        return [y[1], -(n - 1) / r * y[1] - math.exp(g_tower(m, y[0]))]

    def ev(r, y):
        return y[0]
    ev.terminal = True

    sol = solve_ivp(rhs, (r0, 10.0), [rho - K * r0 ** 2 / (2 * n), -K * r0 / n],
                    method="DOP853", rtol=1e-12, atol=1e-14, events=ev)
    return float(sol.t_events[0][0])


@pytest.mark.parametrize("rho", [0.5, 2.0, 4.0])
def test_shoot_matches_naive_oracle(rho):
    p = shoot_regular(3, 1, rho)
    assert p.R == pytest.approx(naive_radial_shoot(3, 1, rho), rel=1e-8)


def test_shoot_small_rho_asymptotic():
    # lambda(rho) ~ 2 n rho / exp(G_m(rho)) as rho -> 0
    for rho in (1e-3, 1e-2):
        p = shoot_regular(3, 1, rho, keep_profile=False)
        expect = 2.0 * 3 * rho / math.exp(g_tower(1, rho))
        assert p.lam == pytest.approx(expect, rel=5e-3)
    assert shoot_regular(3, 1, 1e-3, keep_profile=False).lam < 3e-3


def test_gelfand_oracle_branch_limit():
    # nonlinearity e^v: lambda(rho) -> 2(n-2) as rho grows
    p = shoot_regular(3, 0, 30.0, keep_profile=False)
    assert abs(p.lam - 2.0) / 2.0 < 1e-2


def test_shoot_refinement():
    a = shoot_regular(3, 1, 3.0, rtol=1e-11, atol=1e-13, keep_profile=False)
    b = shoot_regular(3, 1, 3.0, rtol=5e-12, atol=5e-14, keep_profile=False)
    assert abs(a.R - b.R) / b.R < 1e-9


def test_beyond_direct_range_converges_to_singular(sol_n3m1):
    # exp(G_1(rho)) overflows past rho ~ 6.56; the rescaled phases carry on
    # and lambda(rho) has saturated at lambda* there
    p = shoot_regular(3, 1, 8.0, keep_profile=False)
    assert abs(p.lam - sol_n3m1.lambda_star) / sol_n3m1.lambda_star < 1e-9


def test_budget_guard():
    with pytest.raises(ShootError):
        shoot_regular(3, 2, 4.0, keep_profile=False)


def test_profile_invariants():
    p = shoot_regular(3, 1, 2.0)
    assert np.all(p.profile.u_r < 0.0)       # strictly decreasing in r
    assert p.lam == pytest.approx(p.R ** 2, rel=1e-15)
    assert ode_residual(p.log_profile, 3, 1) < 1e-7


def test_trace_curve_validation():
    with pytest.raises(ValueError):
        trace_curve(3, 1, np.array([]))
    with pytest.raises(ValueError):
        trace_curve(3, 1, np.array([0.5, 0.4]))


def test_curve_continuity(curve_n3m1):
    lam = curve_n3m1.lam
    jumps = np.abs(np.diff(lam))
    for i in range(1, len(jumps) - 1):
        local = 10.0 * max(jumps[i - 1], jumps[i + 1], 1e-9)
        assert jumps[i] <= local


def test_turning_points_monotone_curve_empty():
    rho = np.linspace(0.1, 2.0, 40)
    curve = BifurcationCurve(points=[], turning=[])
    lam = rho ** 2
    assert turning_points((rho, lam)) == []


def test_turning_points_synthetic_oracle():
    # lambda = lambda* + e^-rho sin(rho) has extrema at rho = pi/4 + k pi
    rho = np.linspace(0.2, 10.0, 2000)
    lam = 0.7 + np.exp(-rho) * np.sin(rho)
    found = turning_points((rho, lam), min_delta=1e-9)
    expected = [math.pi / 4 + k * math.pi for k in range(3)]
    assert len(found) >= 3
    for want, (got, _) in zip(expected, found):
        assert got == pytest.approx(want, abs=1e-2)


def test_turning_points_alternate_around_lambda_star(curve_n3m1, sol_n3m1):
    tps = turning_points(curve_n3m1)
    assert len(tps) >= 2
    deltas = [lam - sol_n3m1.lambda_star for _, lam in tps]
    signs = np.sign(deltas)
    assert np.all(signs[1:] * signs[:-1] < 0)
    mags = np.abs(deltas)
    assert np.all(mags[1:] < mags[:-1])


def test_no_turning_points_in_high_dimension(curve_n11m1):
    assert turning_points(curve_n11m1) == []


def test_intersection_counts(sol_n3m1):
    counts = {}
    for rho in (0.5, 2.0, 4.0, 6.0):
        counts[rho] = intersection_count(shoot_regular(3, 1, rho), sol_n3m1)
    # brute-force sign scan at rho = 0.5 finds no crossing: the singular
    # profile dominates the small regular one all the way to the boundary
    assert counts[0.5] == 0
    assert counts[2.0] >= 1
    assert counts[2.0] <= counts[4.0] <= counts[6.0]
    assert (counts[2.0], counts[4.0], counts[6.0]) == (2, 12, 13)


def test_intersection_guards(sol_n3m1):
    class Degenerate:
        log_profile = sol_n3m1.profile
        dense = None
        R = math.exp(-sol_n3m1.t_star)
    with pytest.raises(ValueError):
        intersection_count(Degenerate(), sol_n3m1)


def test_shoot_rejects_bad_input():
    with pytest.raises(ValueError):
        shoot_regular(2, 1, 1.0)
    with pytest.raises(ValueError):
        shoot_regular(3, 1, -1.0)


def test_gelfand_oracle_oscillation():
    # plain-exponential branch at n = 3: turning values alternate around
    # 2(n-2) = 2 with shrinking amplitude
    grid = np.arange(0.5, 12.0, 0.05)
    curve = trace_curve(3, 0, grid)
    tps = turning_points(curve)
    assert len(tps) >= 2
    deltas = np.array([lam - 2.0 for _, lam in tps])
    assert np.all(np.sign(deltas[1:]) * np.sign(deltas[:-1]) < 0)
    assert np.all(np.abs(deltas[1:]) < np.abs(deltas[:-1]))


def test_shoot_rejects_unrepresentable_tower():
    with pytest.raises(ShootError):
        shoot_regular(3, 1, 705.0, keep_profile=False)
    with pytest.raises(ShootError):
        shoot_regular(3, 2, 7.0, keep_profile=False)


def test_descent_overflow_is_descent_error():
    # a trial step of the m = 3 descent overflows exp(G_3(w) - 2t)
    with pytest.raises(DescentError, match="left the double range"):
        shoot_regular(3, 3, 0.894)


def test_failed_inner_phase_is_shoot_error(monkeypatch):
    # an inner solve that ends in a step-size underflow must not be taken as
    # having reached the s = 100 cap
    real = br.solve_ivp

    def failing(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, status=-1, message="step size underflow",
                       t_events=[np.empty(0) for _ in sol.t_events])

    monkeypatch.setattr(br, "solve_ivp", failing)
    with pytest.raises(ShootError, match="step size underflow"):
        shoot_regular(3, 1, 2.0)


def test_dense_branch_matches_sampled_profile():
    # the dense evaluation of a two-phase shot agrees with its sampled profile
    point = shoot_regular(3, 1, 4.0)
    t = np.linspace(point.log_profile.t_min, point.log_profile.t_max, 2000)
    assert point.dense.descent is not None
    assert np.max(np.abs(point.dense.eval_w(t) - point.log_profile.eval_w(t))) < 1e-6
    assert np.isnan(point.dense.eval_w([point.log_profile.t_min - 1.0]))[0]
