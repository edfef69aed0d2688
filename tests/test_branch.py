import functools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import itergelfand.branch as br
import itergelfand.rk as rk
import itergelfand.singular as sg
from itergelfand.branch import (BranchPoint, ShootError, intersection_count, shoot_regular,
                                trace_curve, turning_points)
from itergelfand.corrector import EtaSpaceConfig, picard_solve
from itergelfand.singular import (DescentError, ansatz_terms, build_singular, descend,
                                  ode_residual)
from itergelfand.towers import g_tower
from oracles import full_descent_shot, g_diff, sampled_branch


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


@pytest.mark.parametrize("m, rho", [(0, 5.0), (1, 3.0), (1, 8.0), (2, 1.5), (2, 1.9),
                                    (3, 1.0)])
def test_inner_exponent_is_the_level_difference(m, rho):
    # the force exp(G_m(v) - G_m(rho)) of the inner acceleration, read at
    # v' = 0: G_m(rho) is below 700 at (1, 3) and (2, 1.5) and above it at
    # (1, 8), (2, 1.9) and (3, 1); one recursion serves both sides, also for
    # v near rho, where G_m(v) - G_m(rho) would cancel.  An exponent good to
    # 1e-13 relative gives a force good to 1e-13 max(1, |exponent|)
    _, accel = br._inner_acceleration(3, m, rho)
    for delta in np.geomspace(1e-12, rho + 1.0, 30):
        v = rho - float(delta)
        expo = g_diff(m, rho, v - rho)
        force = math.exp(expo) if expo > -745.0 else 0.0
        assert -accel(1.0, v, 0.0) == pytest.approx(force, rel=1e-13 * max(1.0, abs(expo)),
                                                    abs=0.0)


@pytest.mark.parametrize("m, rho, reachable", [(0, 1.0, False), (0, 61.0, True),
                                               (1, 0.1, False), (1, 4.2, True),
                                               (2, 0.5, False), (2, 1.5, True),
                                               (3, 0.1, False), (3, 0.5, True)])
def test_handoff_level_decides_the_phase_of_the_zero(m, rho, reachable):
    # the inner phase stops at the zero of v or at s = 100: at the small rho
    # (G_m(rho) < 60) the force is still alive where v reaches 0, and the shot
    # ends in the inner phase; at the larger rho it dies first, v levels off
    # above 0, and the shot descends in log variables from s = 100
    point = shoot_regular(3, m, rho)
    assert (point.descent != []) == reachable


def test_shoot_refinement():
    a = shoot_regular(3, 1, 3.0, rtol=1e-11, atol=1e-13, keep_profile=False)
    b = shoot_regular(3, 1, 3.0, rtol=5e-12, atol=5e-14, keep_profile=False)
    assert abs(a.R - b.R) / b.R < 1e-9


def test_beyond_direct_range_converges_to_singular(sol_n3m1):
    # exp(G_1(rho)) overflows past rho ~ 6.56; the rescaled phases carry on
    # and lambda(rho) has saturated at lambda* there.  The shot is matched to
    # w* and returns lambda*, so the full descent checks it too
    p = shoot_regular(3, 1, 8.0, keep_profile=False)
    assert abs(p.lam - sol_n3m1.lambda_star) / sol_n3m1.lambda_star < 1e-9
    full = full_descent_shot(3, 1, 8.0)
    assert abs(full.lam - sol_n3m1.lambda_star) / sol_n3m1.lambda_star < 1e-9
    assert abs(p.lam - full.lam) / full.lam < 1e-10


def test_budget_guard():
    with pytest.raises(ShootError):
        shoot_regular(3, 2, 4.0, keep_profile=False)


def test_profile_invariants():
    p = shoot_regular(3, 1, 2.0)
    log_profile = sampled_branch(p)
    assert np.all(log_profile.w_t > 0.0)   # u_r = -w_t / r < 0: strictly decreasing in r
    assert p.lam == pytest.approx(p.R ** 2, rel=1e-15)
    assert ode_residual(log_profile, 3, 1) < 1e-7


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_shoot_refuses_rho_that_is_not_finite_and_positive(rho):
    with pytest.raises(ValueError, match="finite and positive"):
        shoot_regular(3, 1, rho)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2])
def test_shoot_and_build_refuse_a_dimension_that_is_not_finite(n):
    # NaN ended in "t_span must be two distinct finite times" (shoot) and "cannot
    # convert float NaN to integer" (build), inf in a ShootError on a NaN acceleration
    for call in (lambda: shoot_regular(n, 1, 2.0), lambda: build_singular(n, 1)):
        with pytest.raises(ValueError, match=re.escape(f"dimension n must be finite and >= 3, "
                                                       f"got n = {n!r}")):
            call()


@pytest.mark.parametrize("rtol, atol, name", [(0.0, 1e-13, "rtol"), (1e-15, 1e-13, "rtol"),
                                              (math.nan, 1e-13, "rtol"), (1e-11, 0.0, "atol"),
                                              (1e-11, math.inf, "atol")])
def test_shoot_refuses_tolerances_outside_the_solver_range(monkeypatch, rtol, atol, name):
    # refused before the center series, whose start takes log(rtol): rtol = 0 ended
    # in "math domain error"
    monkeypatch.setattr(br, "_series_start", None)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        shoot_regular(3, 1, 2.0, rtol=rtol, atol=atol)


def test_turning_points_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="rho has 4 samples and lam 3"):
        turning_points([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


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
    assert turning_points(rho, rho ** 2) == []


def test_turning_points_synthetic_oracle():
    # lambda = lambda* + e^-rho sin(rho) has extrema at rho = pi/4 + k pi
    rho = np.linspace(0.2, 10.0, 2000)
    lam = 0.7 + np.exp(-rho) * np.sin(rho)
    found = turning_points(rho, lam)
    expected = [math.pi / 4 + k * math.pi for k in range(3)]
    assert len(found) >= 3
    for want, (got, _) in zip(expected, found):
        assert got == pytest.approx(want, abs=1e-2)


def test_turning_points_alternate_around_lambda_star(curve_n3m1, sol_n3m1):
    tps = turning_points(curve_n3m1.rho, curve_n3m1.lam)
    assert tps == curve_n3m1.turning
    assert len(tps) >= 2
    deltas = [lam - sol_n3m1.lambda_star for _, lam in tps]
    signs = np.sign(deltas)
    assert np.all(signs[1:] * signs[:-1] < 0)
    mags = np.abs(deltas)
    assert np.all(mags[1:] < mags[:-1])


def test_no_turning_points_in_high_dimension(curve_n11m1):
    assert turning_points(curve_n11m1.rho, curve_n11m1.lam) == []
    assert curve_n11m1.turning == []


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
    # a point whose inner solution is w* itself (L = 0, so t = -ln s)
    class SingularAsInner:
        t = np.exp(-np.array([sol_n3m1.t_star, sol_n3m1.profile.t_max]))

        @staticmethod
        def sol(s):
            return np.atleast_2d(sol_n3m1.profile.eval_w(-np.log(s)))

    degenerate = BranchPoint(rho=1.0, R=math.exp(-sol_n3m1.t_star),
                             lam=sol_n3m1.lambda_star, n=3, m=1,
                             inner=SingularAsInner(), L=0.0)
    with pytest.raises(ValueError, match="coincide"):
        intersection_count(degenerate, sol_n3m1)
    beyond = BranchPoint(rho=1.0, R=math.exp(-sol_n3m1.profile.t_max - 1.0),
                         lam=1.0, n=3, m=1, inner=SingularAsInner(), L=0.0)
    with pytest.raises(ValueError, match="do not overlap"):
        intersection_count(beyond, sol_n3m1)


def test_intersection_needs_kept_profile(sol_n3m1):
    point = shoot_regular(3, 1, 2.0, keep_profile=False)
    assert point.inner is None and point.descent is None
    with pytest.raises(ValueError, match="carry its profile"):
        intersection_count(point, sol_n3m1)


@pytest.mark.parametrize("cfg", [None, EtaSpaceConfig(t_max=150.0)])
def test_intersection_refuses_a_singular_profile_below_the_shot(cfg):
    # the rho = 6 shot reaches t = 217.944; the default reference ends at 199.016
    short = build_singular(3, 1, cfg)
    point = shoot_regular(3, 1, 6.0)
    heights = f"ends at t = {short.profile.t_max:.6g}, below t = 217.944, where the shot"
    with pytest.raises(ValueError, match=re.escape(heights)):
        intersection_count(point, short)


@pytest.mark.parametrize("n, m, rho", [(3, 1, 5.5), (3, 1, 6.0), (4, 1, 6.0), (5, 1, 6.0),
                                       (7, 1, 6.0), (3, 2, 1.7), (9, 2, 1.8)])
def test_matched_count_leaves_the_descent_below_t_match(n, m, rho):
    # below t_match the shot and w* solve one equation, so no sample below the guard
    # window clears the noise tolerance: the count resumes the descent only down to
    # that window, and is the count of the full descent over the whole range
    ref = build_singular(n, m, EtaSpaceConfig(t_max=280.0 if m == 1 else 300.0))
    point = shoot_regular(n, m, rho)
    assert point.t_match is not None and point.descent == []
    count = intersection_count(point, ref)
    assert point.resume is not None and len(point.descent) == 1
    bottom = float(point.descent[0].t[-1])
    assert -math.log(point.R) + 1.0 < bottom < point.t_match
    assert count == intersection_count(full_descent_shot(n, m, rho, keep_profile=True), ref)


def test_matched_count_resumes_when_the_guard_fails(sol_n3m1):
    # w* shifted by three noise tolerances over the 40 units below t_match: the
    # guard fails, and the count resumes the descent down to the zero and compares
    # the whole range, as it does for the full descent
    point = shoot_regular(3, 1, 6.0)
    prof = sol_n3m1.profile
    noise_tol = 1e-10 * max(1.0, float(np.max(np.abs(prof.w))))
    lifted = (prof.t >= point.t_match - 40.0) & (prof.t <= point.t_match)
    shifted = replace(sol_n3m1, profile=replace(prof, w=prof.w + 3.0 * noise_tol * lifted))
    count = intersection_count(point, shifted)
    assert len(point.descent) == 2 and point.descent[1].t[-1] < -math.log(point.R) + 1e-5
    assert count == intersection_count(full_descent_shot(3, 1, 6.0, keep_profile=True), shifted)
    assert count != intersection_count(shoot_regular(3, 1, 6.0), sol_n3m1) == 13


def test_shoot_rejects_bad_input():
    with pytest.raises(ValueError):
        shoot_regular(2, 1, 1.0)
    with pytest.raises(ValueError):
        shoot_regular(3, 1, -1.0)


@pytest.mark.parametrize("m", [-1, 1.5, 2.0, "1", None])
def test_every_entry_point_refuses_a_height_that_is_not_a_natural_number(m):
    # one check of m for the shot, the singular build and the corrector: m = -1
    # ended in an IndexError of the inner acceleration, m = 1.5 in a TypeError
    # of range
    for call in (lambda: shoot_regular(3, m, 1.0), lambda: build_singular(3, m),
                 lambda: picard_solve(3, m)):
        with pytest.raises(ValueError, match=re.escape(f"got m = {m!r}")):
            call()


def two_term_start(n, chain):
    """(s0, v0, p0) of the start the center series replaced: two series terms at
    x = s sqrt(G'_m(rho)) of about 1e-4 sqrt(2n)."""
    ln_grad = sum(chain[:-1])
    ln_s0 = math.log(1e-4) - 0.5 * max(0.0, ln_grad - math.log(2.0 * n))
    s0 = math.exp(ln_s0)
    quart = math.exp(ln_grad + 4.0 * ln_s0) / (8.0 * n * (n + 2))
    return s0, chain[0] - s0 * s0 / (2.0 * n) + quart, -s0 / n + 4.0 * quart / s0


@pytest.mark.parametrize("n", [3, 10, 1000])
@pytest.mark.parametrize("m, rho", [(0, 2.0), (1, 0.1), (1, 4.0), (2, 1.5), (3, 0.5)])
def test_center_series_coefficients(n, m, rho):
    # c_1 = -1/(2n) and c_2 = G'_m(rho)/(8n(n+2)) of v = sum_k c_k s^{2k}; the
    # series holds b_k = c_k / G'_m(rho)^(k-1), b_2 to the last ulp
    chain, _ = br._inner_acceleration(n, m, rho)
    b = br._series_start(n, rho, chain, 1e-11).b
    assert len(b) == br.SERIES_TERMS
    assert b[0] == -1.0 / (2 * n)
    assert b[1] == pytest.approx(1.0 / (8 * n * (n + 2)), rel=rk.EPS, abs=0.0)


@pytest.mark.parametrize("n", [3, 10, 1000])
@pytest.mark.parametrize("m, rho", [(0, 2.0), (1, 0.1), (1, 4.0), (2, 1.5), (3, 0.5)])
def test_series_start_matches_the_integrated_two_term_start(n, m, rho):
    # the state the series gives at s0 is the one DOP853 reaches from the old
    # two-term start, to rtol
    rtol = 1e-11
    chain, accel = br._inner_acceleration(n, m, rho)
    start = br._series_start(n, rho, chain, rtol)
    s0 = float(start.t[-1])
    v0, p0 = start.sol(s0)
    s_old, *y_old = two_term_start(n, chain)
    assert s_old < s0 and rho / 2 <= v0 < rho and p0 < 0.0
    sol = rk.solve_ivp(accel, (s_old, s0), y_old, rtol=1e-13, atol=1e-300)
    assert sol.status == 0
    assert v0 == pytest.approx(sol.y[0, -1], rel=rtol, abs=0.0)
    assert p0 == pytest.approx(sol.y[1, -1], rel=rtol, abs=0.0)
    # the kept profile above s0 is the series itself
    assert start.sol(np.array([s0]))[:, 0].tolist() == [v0, p0]


# the top rho of each height whose descent starts below T1_BUDGET
BUDGET_TOP_RHO = {0: 3.99e5, 1: 12.88, 2: 2.554, 3: 0.9379}


@pytest.mark.parametrize("m", sorted(BUDGET_TOP_RHO))
def test_series_start_is_quiet_up_to_the_budget(m):
    # no RuntimeWarning from the series, the shot or the read of its kept
    # profile above t_match, from rho = 0.1 to the top of the budget
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in np.geomspace(0.1, BUDGET_TOP_RHO[m], 7):
            point = shoot_regular(3, m, float(rho))
            t_lo = point.t_match if point.t_match is not None else -math.log(point.R)
            w = point.eval_w(np.linspace(t_lo, point.t_max, 200))
            assert np.all(np.isfinite(w)) and w[-1] == pytest.approx(rho, rel=1e-15)


@pytest.mark.parametrize("rho", [2.0, 4.0, 6.0])
def test_kept_profile_covers_the_two_term_start(rho):
    # the center series stands for the profile above the integrated start, so
    # a kept shot reaches at least as high in t as the two-term start did
    point = shoot_regular(3, 1, rho)
    chain, _ = br._inner_acceleration(3, 1, rho)
    assert point.t_max >= 0.5 * point.L - math.log(two_term_start(3, chain)[0])
    assert point.t_max > 0.5 * point.L - math.log(float(point.inner.t[0]))


def test_gelfand_oracle_oscillation():
    # plain-exponential branch at n = 3: turning values alternate around
    # 2(n-2) = 2 with shrinking amplitude
    grid = np.arange(0.5, 12.0, 0.05)
    tps = trace_curve(3, 0, grid).turning
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
    # a force exp(G_m(w) - 2t) already past the double range where the
    # descent starts cannot be stepped around: G_3(2) = exp(exp(e^2)) overflows
    with pytest.raises(DescentError, match="left the double range"):
        descend(3, 3, 100.0, 2.0, 0.0, 1e-11, 1e-13, dense_output=False)
    # trial steps of the m = 3 descent overflow near t = 38 000: they are
    # rejected and retried smaller, so the full descent reaches lambda*, and
    # the kept profile of the matched shot can be evaluated down there
    point = shoot_regular(3, 3, 0.894)
    assert point.t_match is not None
    assert full_descent_shot(3, 3, 0.894).lam == pytest.approx(point.lam, rel=1e-12)
    assert math.isfinite(point.eval_w(point.t_match - 20000.0))


def test_failed_inner_phase_is_shoot_error(monkeypatch):
    # an inner solve that ends in a step-size underflow must not be taken as
    # having reached the s = 100 cap
    real = br.solve_ivp

    def failing(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, status=-1, message="step size underflow")

    monkeypatch.setattr(br, "solve_ivp", failing)
    with pytest.raises(ShootError, match="n = 3, m = 1 at rho = 2.0 failed: step size underflow"):
        shoot_regular(3, 1, 2.0)


def test_dense_branch_matches_sampled_profile():
    # the dense evaluation of a two-phase shot agrees with its sampled profile
    point = shoot_regular(3, 1, 4.0)
    log_profile = sampled_branch(point)
    t = np.linspace(log_profile.t_min, log_profile.t_max, 2000)
    assert point.t_match is None and len(point.descent) == 1
    assert log_profile.t_max == pytest.approx(point.t_max, abs=1e-12)
    assert np.max(np.abs(point.eval_w(t) - log_profile.eval_w(t))) < 1e-6
    assert np.isnan(point.eval_w([log_profile.t_min - 1.0]))[0]
    assert type(point.eval_w(float(t[1000]))) is float


@pytest.mark.parametrize("n, m, rho", [(3, 1, 9.0), (3, 1, 6.0), (3, 2, 2.0), (5, 1, 6.0),
                                       (5, 1, 9.0), (9, 2, 2.0), (9, 2, 2.2)])
def test_matched_shot_matches_full_descent(n, m, rho):
    # lambda* is within 2e-13 of a full descent at rtol 1e-13; one at the default
    # rtol is off that by up to 1.8e-12 (at (5, 1, 9))
    p = shoot_regular(n, m, rho, keep_profile=False)
    assert p.t_match is not None
    assert abs(p.lam - full_descent_shot(n, m, rho).lam) / p.lam < 2e-12
    assert abs(p.lam / full_descent_shot(n, m, rho, rtol=1e-13, atol=1e-15).lam - 1.0) < 2e-13


def test_matching_only_far_up_the_branch(curve_n3m1, monkeypatch):
    # the default (3, 1) grid ends at rho = 4.8, where t1 lies below T +
    # MATCH_DEPTH = 70: no shot there takes lambda* at its start, and the shots
    # with a t_match are exactly the 40 (rho >= 4.02) that take the second-order
    # response, each within 2e-13 of its rtol 1e-13 full descent
    matched = [p for p in curve_n3m1.points if p.t_match is not None]
    responses = [p for p in curve_n3m1.points
                 if takes_response(monkeypatch, 3, 1, p.rho, rtol=1e-10, atol=1e-12)[0]]
    assert [p.rho for p in matched] == [p.rho for p in responses] and len(matched) == 40
    assert min(p.rho for p in matched) == pytest.approx(4.02)
    for p in matched:
        full = full_descent_shot(3, 1, p.rho, rtol=1e-13, atol=1e-15)
        assert abs(p.lam / full.lam - 1.0) <= 2e-13
    for n, m, rho in ((5, 1, 9.0), (7, 2, 2.3), (3, 1, 8.0)):
        assert shoot_regular(n, m, rho, keep_profile=False).t_match is not None


def takes_response(monkeypatch, n, m, rho, **kwargs):
    """(whether the lambda of shoot_regular(n, m, rho) is its response along w*, the shot)."""
    taken = []

    def response(*args, real=br._response_lambda):
        lam = real(*args)
        taken.append(lam is not None)
        return lam

    with monkeypatch.context() as mp:
        mp.setattr(br, "_response_lambda", response)
        point = shoot_regular(n, m, rho, keep_profile=False, **kwargs)
    return any(taken), point


@pytest.mark.parametrize("n, m, rhos", [(3, 1, (4.4, 4.7, 5.0)), (4, 1, (4.2, 4.6, 5.0)),
                                        (5, 1, (4.2, 4.6, 5.0)), (12, 1, (4.2, 4.6, 5.0)),
                                        (3, 2, (1.5, 1.58, 1.66))])
def test_response_shot_is_within_its_full_descent(monkeypatch, n, m, rhos):
    # below the default T a deep shot stops on w* and shifts lambda* by the
    # second-order response of its deviation there: the result is within 2e-13 of a
    # full descent at rtol 1e-13, closer than the full descent at the default rtol
    for rho in rhos:
        taken, point = takes_response(monkeypatch, n, m, rho)
        assert taken and point.t_match < EtaSpaceConfig().resolved(m)[0] + br.MATCH_DEPTH
        full = full_descent_shot(n, m, rho, rtol=1e-13, atol=1e-15)
        assert abs(point.lam / full.lam - 1.0) <= 2e-13


def test_gelfand_oracle_response_is_as_close_as_lambda_star(monkeypatch):
    # at m = 0 the response carries the default build's lambda* = 2(n-2)(1 + 9.1e-12),
    # while a full descent at the default rtol reaches 2e-12 to 8e-11 of the rtol 1e-13
    # one over these rho: each response is within lambda*'s own error plus 2e-13, and
    # the worst of them is below the worst full descent
    lam_star_error = abs(br._singular(3, 0)[0] / 2.0 - 1.0)
    errors, full_errors = [], []
    for rho in (95.0, 105.0, 115.0, 125.0, 135.0, 145.0):
        taken, point = takes_response(monkeypatch, 3, 0, rho)
        assert taken
        ref = full_descent_shot(3, 0, rho, rtol=1e-13, atol=1e-15).lam
        errors.append(abs(point.lam / ref - 1.0))
        full_errors.append(abs(full_descent_shot(3, 0, rho).lam / ref - 1.0))
    assert max(errors) <= lam_star_error + 2e-13 and max(errors) <= max(full_errors)


SECOND_ORDER_SHOTS = {(3, 1): tuple(np.round(np.arange(4.02, 4.281, 0.02), 10)),
                      (5, 1): (3.5, 3.6, 4.0), (12, 1): (3.5, 4.0, 4.5),
                      (3, 2): (1.4, 1.42, 1.44), (9, 2): (1.28, 1.4, 1.6)}


def first_order(star, n, m):
    """star with its table's Hessian P set to 0, and its K recomputed without it."""
    table = star.table.copy()
    table[:, 2:5] = 0.0
    t = star.profile.t_min + br.RESPONSE_STEP * np.arange(len(table))
    _, F_ww, F_www = br._forces(m, star.profile.eval_w(t), t)
    table[:, 5] = br._remainder_weight(n, table, F_ww, F_www, br.RESPONSE_STEP)
    return star._replace(table=table)


def test_second_order_response_is_within_its_full_descent(monkeypatch):
    # each of these shots stops where K delta^3 <= REMAINDER_TOL, at (3, 1,
    # 4.02..4.28) with delta from 2.6e-6 to 1.7e-5, and is within 2e-13 of its
    # rtol 1e-13 / atol 1e-15 full descent.  With P = 0, in the lambda formula
    # and in K, at least one of them misses that bound
    errors, first_errors = [], []
    for (n, m), rhos in SECOND_ORDER_SHOTS.items():
        star = br._singular(n, m)
        for rho in rhos:
            ref = full_descent_shot(n, m, rho, rtol=1e-13, atol=1e-15).lam
            taken, point = takes_response(monkeypatch, n, m, rho)
            assert taken and point.t_match < star.top
            errors.append(abs(point.lam / ref - 1.0))
            with monkeypatch.context() as mp:
                mp.setattr(br, "_singular", lambda n, m, star=first_order(star, n, m): star)
                first_errors.append(abs(shoot_regular(n, m, rho).lam / ref - 1.0))
    assert len(errors) == 26 and max(errors) <= 2e-13 and max(first_errors) > 2e-13


def test_deviation_with_a_nan_fails_every_rule():
    # a NaN in either component of a deviation fails the ball rule and the response,
    # whatever the other component is
    star = br._singular(3, 1)
    f, f_t = (float(v) for v in ansatz_terms(3, 1, 70.0))
    assert br._ball_lambda(star, 3, 1, 70.0, f, f_t) == star.lam
    assert br._ball_lambda(star, 3, 1, 70.0, f, math.nan) is None
    assert br._ball_lambda(star, 3, 1, 70.0, math.nan, f_t) is None
    t = star.profile.t_min + 1000 * br.RESPONSE_STEP
    w, w_t = star.profile.eval_w(t), star.profile.eval_wt(t)
    assert br._response_lambda(star, t, w, w_t) == star.lam
    assert br._response_lambda(star, t, w, math.nan) is None
    assert br._response_lambda(star, t, math.nan, w_t) is None
    assert br._response_stop(star, 3, t, w, math.nan) is None


@pytest.mark.parametrize("m, w_top", [(0, 5.0), (1, 2.0), (2, 1.0), (3, 0.3)])
def test_forces_match_central_differences(m, w_top):
    # F_w, F_ww and F_www of F = exp(G_m(w) - 2t) against central differences of F and
    # of _forces' own F_w and F_ww, with G_m(w) <= 50; m = 0 is a height that g_deriv
    # refuses but the Gelfand response table needs
    w = np.linspace(-2.0, w_top, 41)
    t = np.linspace(0.0, 3.0, 41)
    h = 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forces = br._forces(m, w, t)
        up, down = br._forces(m, w + h, t), br._forces(m, w - h, t)
        F_up, F_down = (np.exp(g_tower(m, v) - 2.0 * t) for v in (w + h, w - h))
    diffs = [(F_up - F_down) / (2.0 * h)] + [(u - d) / (2.0 * h) for u, d in zip(up, down)]
    for exact, diff in zip(forces, diffs):
        assert np.max(np.abs(exact - diff) / exact) <= 1e-5


def test_response_table_memory():
    # the table of psi, P and K is integrated as five floats per step: its peak
    # allocation stays within 0.2 MB of the 1.78 MB that the RK4 build of psi alone
    # (one 2x2 step matrix array over the whole table) reached, so no per-step
    # matrix array over the table comes back
    star = br._singular(3, 1)
    br._adjoint(3, 1, star.profile, star.top, br.RESPONSE_STEP)
    tracemalloc.start()
    try:
        table = br._adjoint(3, 1, star.profile, star.top, br.RESPONSE_STEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == star.table.shape and peak <= 1_782_968 + 200_000


@pytest.mark.parametrize("rho", [3.9, 3.98])
def test_stop_below_the_guard_is_the_full_descent(monkeypatch, rho):
    # these shots start their descent above t_star + RESPONSE_GUARD, but their
    # deviation from w* there (8e-4) is too large for a stop above it: they descend
    # exactly as without the response
    t_star = br._singular(3, 1)[1].t_min
    assert float(shoot_regular(3, 1, rho).descent[0].t[0]) > t_star + br.RESPONSE_GUARD + 2.0
    taken, point = takes_response(monkeypatch, 3, 1, rho)
    full = full_descent_shot(3, 1, rho)
    assert not taken and point.t_match is None
    assert float(point.lam).hex() == float(full.lam).hex() and point.R == full.R


def test_kept_response_shot_resumes_and_counts_like_the_full_descent(sol_n3m1):
    point = shoot_regular(3, 1, 4.5)
    t_match = point.t_match
    assert t_match is not None and point.resume is not None and len(point.descent) == 1
    full = full_descent_shot(3, 1, 4.5, keep_profile=True)
    t = np.array([t_match - 1.0, t_match - 5.0])
    assert np.max(np.abs(point.eval_w(t) - full.eval_w(t))) < 1e-9
    assert point.resume is not None and len(point.descent) == 2
    assert point.descent[1].t[-1] == t_match - 5.0
    assert intersection_count(shoot_regular(3, 1, 4.5), sol_n3m1) \
        == intersection_count(full, sol_n3m1)


@pytest.mark.parametrize("n, m", [(3, 0), (3, 1), (5, 1), (12, 1), (3, 2), (9, 2)])
def test_response_table_converges_in_its_step(n, m):
    # psi and the Hessian P on the 0.02 table agree with those on a 0.005 one
    # above the guard, where the response reads them: psi within 1e-9, P within
    # 1e-7 (2.7e-8 at (3, 2)), which moves d^T P d by below 1e-18 at the largest
    # d that K admits there
    star = br._singular(n, m)
    table = star.table
    fine = br._adjoint(n, m, star.profile, star.top, br.RESPONSE_STEP / 4.0)[::4][:len(table)]
    guard = int(br.RESPONSE_GUARD / br.RESPONSE_STEP)
    error = np.max(np.abs(table[guard:] - fine[guard:]), axis=0)
    assert len(table) == len(fine) and max(error[:2]) < 1e-9 and max(error[2:5]) < 1e-7


@pytest.mark.parametrize("n", [72, 100, 150, 300])
def test_response_table_stays_finite_in_high_dimension(n):
    # the z mode decays at rate 2 (n-2): one RK4 step of 0.02 per node left P
    # unstable from n = 72 (NaN at n = 100) and psi from n = 142; the substeps keep
    # every entry finite, within the step tolerances above of a half-step table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        star = br._singular(n, 1)
        table = star.table
        half = br._adjoint(n, 1, star.profile, star.top, br.RESPONSE_STEP / 2.0)[::2]
    assert np.all(np.isfinite(table)) and len(half) >= len(table)
    guard = int(br.RESPONSE_GUARD / br.RESPONSE_STEP)
    error = np.max(np.abs(table[guard:] - half[guard:len(table)]), axis=0)
    assert max(error[:2]) < 1e-9 and max(error[2:5]) < 1e-7


@pytest.mark.parametrize("n, m", [(3, 0), (3, 1), (5, 1), (12, 1), (3, 2), (9, 2), (3, 3)])
def test_psi_bound_holds_above_the_table(n, m):
    # the ball rule bounds |a| + |b| above the table's top by its largest value over
    # the top PSI_SPAN; the table's top row alone is not a bound (6.01e-16 at (3, 1),
    # where psi reaches 6.08e-16 above it)
    star = br._singular(n, m)
    above = br._adjoint(n, m, star.profile, star.top + 30.0, br.RESPONSE_STEP)[len(star.table):]
    assert len(above) == 1500 and 0.0 < np.max(np.abs(above[:, :2]).sum(axis=1)) <= star.psi


def test_matched_profile_continues_below_t_match(sol_n3m1):
    # a shot that takes lambda* at its descent start t_match integrates no descent;
    # a read below t_match extends it only down to the lowest t asked for, a lower
    # read continues from there, and a read below the zero reaches it
    point = shoot_regular(3, 1, 6.0)
    t_match = point.t_match
    assert t_match is not None and point.descent == []
    above = point.eval_w([t_match, t_match + 1.0])
    assert point.descent == []               # nothing below t_match asked yet
    # a NaN among the t asked for does not keep the part below t_match away
    below = point.eval_w(np.array([math.nan, t_match - 1e-9, t_match - 1.0]))
    assert len(point.descent) == 1 and point.descent[0].t[-1] == t_match - 1.0
    assert np.isnan(below[0]) and np.all(np.isfinite(below[1:]))
    assert abs(below[1] - above[0]) < 1e-10
    # the first solve runs the full descent's steps, the last cut at its floor; below
    # it each resume starts its own step sequence
    full = full_descent_shot(3, 1, 6.0, keep_profile=True)
    first = point.descent[0]
    t = np.linspace(t_match - 1.0, t_match, 1001)
    same = t >= first.t[-2]
    assert point.eval_w(t[same]).tobytes() == full.eval_w(t[same]).tobytes()
    assert np.max(np.abs(point.eval_w(t) - full.eval_w(t))) < 1e-12
    t_zero = -math.log(point.R)
    assert abs(point.eval_w(t_zero + 1e-6)) < 1e-5
    assert len(point.descent) == 2 and point.descent[1].t[0] == t_match - 1.0
    assert np.isnan(point.eval_w(t_zero - 1.0))
    assert point.resume is None and len(point.descent) == 3
    t = np.linspace(t_zero + 1e-6, t_match, 20001)
    assert np.max(np.abs(point.eval_w(t) - full.eval_w(t))) < 1e-11
    assert point.t_max > t_match
    # the count resumes the descent down to its guard window alone
    for rho in (6.0, 5.5):
        point = shoot_regular(3, 1, rho)
        full = full_descent_shot(3, 1, rho, keep_profile=True)
        assert intersection_count(point, sol_n3m1) == intersection_count(full, sol_n3m1) == 13
        assert point.resume is not None and len(point.descent) == 1
        assert point.t_match - 40.0 < point.descent[0].t[-1] < point.t_match - 25.0


def test_kept_shot_builds_its_interpolants_on_first_read(monkeypatch):
    # a kept shot that takes lambda* at its descent start builds no dense buffer
    # while it shoots; eval_w builds only those of the solves that hold some t it
    # is asked for (the resumed descent first), and
    # its values are those of a shot whose solves build their buffers as soon
    # as they end
    def eager(module):
        def solve(*args, real=module.solve_ivp, **kwargs):
            sol = real(*args, **kwargs)
            if sol.sol is not None:
                sol.sol.coef   # the first read builds the buffer
            return sol
        return solve

    with monkeypatch.context() as mp:
        for module in (br, sg):
            mp.setattr(module, "solve_ivp", eager(module))
        eager_point = shoot_regular(3, 1, 9.0)
    s0, s1 = (math.log(float(s)) for s in eager_point.inner.t[[0, -1]])
    half_L = 0.5 * eager_point.L
    reads = [np.linspace(-2.0, 130.0, 3001),             # the descent resumed below t_match
             np.linspace(half_L - s1 + 0.5, half_L - s0 - 0.5, 50),   # the inner solve
             np.array([eager_point.t_max - 1.0])]        # the center series: no interpolant
    wants = [eager_point.eval_w(t) for t in reads]

    built = []
    real = rk._dense_coefficients

    def counted(fun, records):
        built.append(len(records) // len(rk._RECORD_NAMES))
        return real(fun, records)

    monkeypatch.setattr(rk, "_dense_coefficients", counted)
    point = shoot_regular(3, 1, 9.0)
    assert point.t_match is not None and not built
    for t, want, builds in zip(reads, wants, (1, 2, 2)):
        got = point.eval_w(t)
        assert len(built) == builds and got.tobytes() == want.tobytes()
        assert np.isfinite(got[t > -math.log(point.R)]).all()
    assert len(point.descent) == 1 and point.resume is None
    assert built == [len(sol.t) - 1 for sol in (*point.descent[::-1], point.inner)]


def test_match_rule():
    # a state within BALL_CAP of the ansatz at t >= T + MATCH_DEPTH takes lambda*
    # when 2 psi (dev + M / t^2) is below eps / 4, psi the table's largest |a| + |b|
    # over its top PSI_SPAN: at (3, 1) psi is below 1e-14, so the cap binds
    star = br._singular(3, 1)
    assert star.top == 70.0 and star.psi < 1e-14 and 1.0 < star.M < 2.0
    for t in (star.top, 5000.0):
        f, f_t = (float(v) for v in ansatz_terms(3, 1, t))
        for dw, dw_t, taken in ((0.0, 0.0, True), (0.9e-3, 0.0, True), (0.0, -0.9e-3, True),
                                (1.1e-3, 0.0, False), (0.0, -1.1e-3, False)):
            got = br._ball_lambda(star, 3, 1, t, f + dw, f_t + dw_t)
            assert got == (star.lam if taken else None)
    # with psi = 1e-13 the shift binds: 2e-13 (dev + M / t^2) < eps / 4 needs dev +
    # M / t^2 below 2.8e-4, and M / t^2 = 4.7e-8 at t = 5000
    f, f_t = (float(v) for v in ansatz_terms(3, 1, 5000.0))
    wide = star._replace(psi=1e-13)
    assert br._ball_lambda(wide, 3, 1, 5000.0, f + 2.6e-4, f_t) == star.lam
    assert br._ball_lambda(wide, 3, 1, 5000.0, f + 3e-4, f_t) is None


def test_failed_singular_build_falls_back_to_full_descent(monkeypatch):
    # a build_singular failure is cached per (n, m); every shot then descends to
    # its own zero, bit for bit as the full descent: deep ones (rho = 8 and 8.5
    # start at t1 >= T + MATCH_DEPTH) and one that would take the response (4.5)
    calls = []

    def failing(n, m):
        calls.append((n, m))
        raise DescentError("no zero")
    monkeypatch.setattr(br, "build_singular", failing)
    monkeypatch.setattr(br, "_singular", functools.cache(br._singular.__wrapped__))
    points = [shoot_regular(3, 1, rho) for rho in (8.0, 8.5, 4.5)]
    assert calls == [(3, 1)]
    for p in points:
        full = full_descent_shot(3, 1, p.rho)
        assert p.t_match is None and len(p.descent) == 1
        assert p.lam.hex() == full.lam.hex() and p.R == full.R
    p = points[0]
    assert float(p.descent[0].t[0]) >= 70.0
    assert abs(p.eval_w(-math.log(p.R))) < 1e-12


@pytest.mark.parametrize("n, m, rho", [(3, 1, 9.0), (3, 2, 2.0), (3, 1, 6.0)])
def test_shot_outside_the_ball_is_the_full_descent(monkeypatch, n, m, rho):
    # a deep shot whose state lies farther than BALL_CAP from the ansatz descends
    # from its start to its zero, bit for bit as with no default build
    monkeypatch.setattr(br, "BALL_CAP", 1e-12)
    p = shoot_regular(n, m, rho, keep_profile=False)
    full = full_descent_shot(n, m, rho)
    assert p.t_match is None and p.lam.hex() == full.lam.hex() and p.R == full.R


def test_deep_shots_run_no_descent(monkeypatch):
    # over rho 5..9 of (3, 1) every shot that starts at t1 >= T + MATCH_DEPTH takes
    # lambda* there: the descents that run all start below that height
    starts = []

    def spy(n, m, t, *args, real=br.descend, **kwargs):
        starts.append(t)
        return real(n, m, t, *args, **kwargs)
    monkeypatch.setattr(br, "descend", spy)
    star = br._singular(3, 1)
    curve = trace_curve(3, 1, np.round(np.arange(5.0, 9.0 + 1e-9, 0.1), 10))
    deep = [p for p in curve.points if p.t_match is not None and p.t_match >= star.top]
    assert len(deep) == 40 and all(p.lam == star.lam for p in deep)
    assert len(starts) == len(curve.points) - len(deep) and max(starts) < star.top
