import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import itergelfand.branch as br
import itergelfand.rk as rk
import itergelfand.singular as sg
from itergelfand.branch import (BranchPoint, ShootError, intersection_count, shoot_regular,
                                trace_curve, turning_points)
from itergelfand.singular import DescentError, descend, ode_residual
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
    found = turning_points(rho, lam, min_delta=1e-9)
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


def test_shoot_rejects_bad_input():
    with pytest.raises(ValueError):
        shoot_regular(2, 1, 1.0)
    with pytest.raises(ValueError):
        shoot_regular(3, 1, -1.0)


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


@pytest.mark.parametrize("n, m, rho", [(3, 1, 9.0), (3, 1, 6.0), (3, 2, 2.0)])
def test_matched_shot_matches_full_descent(n, m, rho):
    p = shoot_regular(n, m, rho, keep_profile=False)
    assert p.t_match is not None
    assert abs(p.lam - full_descent_shot(n, m, rho).lam) / p.lam < 1e-10


def test_matching_only_far_up_the_branch(curve_n3m1):
    # the default (3, 1) grid ends at rho = 4.8, where t_match lies below T = 30
    assert all(p.t_match is None for p in curve_n3m1.points)
    for n, m, rho in ((5, 1, 9.0), (7, 2, 2.3), (3, 1, 8.0)):
        assert shoot_regular(n, m, rho, keep_profile=False).t_match is not None


def test_matched_profile_continues_below_t_match():
    point = shoot_regular(3, 1, 6.0)
    t_match = point.t_match
    assert t_match is not None and len(point.descent) == 1
    above = point.eval_w([t_match, t_match + 1.0])
    assert len(point.descent) == 1           # nothing below t_match asked yet
    # a NaN among the t asked for does not keep the part below t_match away
    below = point.eval_w(np.array([math.nan, t_match - 1e-9, t_match - 1.0]))
    assert len(point.descent) == 2 and point.resume is None
    assert np.isnan(below[0]) and np.all(np.isfinite(below[1:]))
    assert abs(below[1] - above[0]) < 1e-10
    t_zero = -math.log(point.R)
    assert abs(point.eval_w(t_zero + 1e-6)) < 1e-5
    assert np.isnan(point.eval_w(t_zero - 1.0))
    assert point.t_max > t_match + 39.0


def test_kept_shot_builds_its_interpolants_on_first_read(monkeypatch):
    # a kept matched shot builds no dense buffer while it shoots; eval_w
    # builds those of the solves it reads, and its values are those of a shot
    # whose solves build their buffers as soon as they end
    def eager(module):
        def solve(*args, real=module.solve_ivp, **kwargs):
            sol = real(*args, **kwargs)
            if sol.sol is not None:
                sol.sol.coef   # the first read builds the buffer
            return sol
        return solve

    t = np.linspace(-2.0, 130.0, 3001)
    with monkeypatch.context() as mp:
        for module in (br, sg):
            mp.setattr(module, "solve_ivp", eager(module))
        want = shoot_regular(3, 1, 9.0).eval_w(t)

    built = []
    real = rk._dense_coefficients

    def counted(fun, records):
        built.append(len(records) // len(rk._RECORD_NAMES))
        return real(fun, records)

    monkeypatch.setattr(rk, "_dense_coefficients", counted)
    point = shoot_regular(3, 1, 9.0)
    assert point.t_match is not None and not built
    got = point.eval_w(t)
    # the inner phase, the descent above t_match and the resumed one below it
    assert len(built) == 3 and len(point.descent) == 2
    assert built == [len(sol.t) - 1 for sol in (*point.descent, point.inner)]
    assert got.tobytes() == want.tobytes() and np.isfinite(got[t > -math.log(point.R)]).all()


def test_match_rule():
    # a deviation d from w* at t matches when d e^{-(n-2)(t - t_star)/2} is
    # below eps / 2 and d below 1e-8: at t = 30 (n = 3) the factor is 3.4e-7,
    # at t = 150 it is 3e-33
    from itergelfand.singular import singular_state
    lam_star = br._singular_lambda(3, 1)
    for t, d, matched in ((30.0, 1e-12, True), (30.0, 1e-9, False),
                          (150.0, 1e-9, True), (150.0, 1e-7, False)):
        w, w_t = singular_state(3, 1, t)
        got = br._matched_lambda(3, 1, t, w + d, w_t)
        assert got == (lam_star if matched else None)


def test_failed_singular_build_falls_back_to_full_descent(monkeypatch):
    # a build_singular failure is cached per (n, m); the shot then goes on
    # from t_match to its own zero
    calls = []

    def failing(n, m):
        calls.append((n, m))
        raise DescentError("no zero")
    monkeypatch.setattr(br, "build_singular", failing)
    monkeypatch.setattr(br, "_LAMBDA_STAR", {})
    points = [shoot_regular(3, 1, rho) for rho in (8.0, 8.5)]
    assert calls == [(3, 1)]
    full = full_descent_shot(3, 1, 8.0)
    p = points[0]
    assert p.t_match is None and len(p.descent) == 2
    assert abs(p.lam - full.lam) / full.lam < 1e-10
    t_split = float(p.descent[0].t[-1])
    w = p.eval_w([t_split + 1e-9, t_split - 1e-9])
    assert abs(w[0] - w[1]) < 1e-10
    assert abs(p.eval_w(-math.log(p.R))) < 1e-12
