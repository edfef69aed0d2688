"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from itergelfand.branch import intersection_count, shoot_regular
from itergelfand.corrector import EtaSpaceConfig, phi_m, picard_solve
from itergelfand.equivalence import equivalence_report
from itergelfand.expansions import expansion_w, gradient_residual_constant, residual_order
from itergelfand.singular import ansatz_terms, build_singular, ode_residual
from itergelfand.towers import f_tail, g_deriv, g_tower, h_deriv, h_tower
from itergelfand.transform import LogProfile


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gelfand_oracle(sol_oracle_n3):
    lam_target = 2.0 * (3 - 2)
    pipeline_ok = abs(sol_oracle_n3.lambda_star - lam_target) / lam_target <= 1e-2
    branch = shoot_regular(3, 0, 30.0, keep_profile=False)
    branch_ok = abs(branch.lam - lam_target) / lam_target <= 1e-2
    t = np.linspace(-0.2, 40.0, 4000)
    exact = LogProfile(t, 2.0 * t + math.log(lam_target), np.full_like(t, 2.0))
    res = ode_residual(exact, 3, 0)
    _report(1, pipeline_ok and branch_ok and res <= 1e-10,
            f"pipeline lambda {sol_oracle_n3.lambda_star:.6f}, branch lambda "
            f"{branch.lam:.6f} vs {lam_target}, exact-profile residual {res:.2e}")


def test_criterion_2_contraction():
    worst = ""
    ok = True
    for n in range(3, 10):
        for m in (1, 2):
            start = time.time()
            sol = picard_solve(n, m)
            elapsed = time.time() - start
            good = (sol.final_defect <= sol.config.tol
                    and all(r < 1.0 for r in sol.contraction_ratios)
                    and sol.sup_weighted <= sol.M
                    and elapsed < 30.0)
            if not good:
                ok = False
                worst += f" (n={n},m={m})"
    _report(2, ok, f"14 corrector solves converged with all defect ratios < 1"
                   f"{worst or ', each well under 30 s'}")


def test_criterion_3_singular_quality(sol_n3m1):
    res = ode_residual(sol_n3m1.profile, 3, 1)
    doubled = build_singular(3, 1, EtaSpaceConfig(T=60.0, t_max=280.0))
    refined = build_singular(3, 1, EtaSpaceConfig(t_max=280.0, n_nodes=900))
    shift_T = abs(doubled.lambda_star - sol_n3m1.lambda_star) / sol_n3m1.lambda_star
    shift_g = abs(refined.lambda_star - sol_n3m1.lambda_star) / sol_n3m1.lambda_star
    ok = res <= 1e-7 and shift_T < 1e-6 and shift_g < 1e-6
    _report(3, ok, f"max relative residual {res:.2e} (<= 1e-7), lambda* shifts "
                   f"{shift_T:.2e} under T->2T and {shift_g:.2e} under refinement")


def test_criterion_4_profile_and_gradient_expansions(sol_n3m1):
    T = sol_n3m1.eta.T
    half = residual_order(sol_n3m1.profile,
                          lambda t: ansatz_terms(3, 1, t)[0], 2.0,
                          (T + 5.0, 2.0 * T))
    full = residual_order(sol_n3m1.profile,
                          lambda t: ansatz_terms(3, 1, t)[0], 2.0,
                          (T + 5.0, 4.0 * T))
    bounded = full.weighted_sup <= sol_n3m1.eta.M
    stable = full.weighted_sup <= 3.0 * half.weighted_sup
    four = residual_order(sol_n3m1.profile,
                          lambda t: expansion_w(3, 1, t), 2.0,
                          (T + 5.0, 4.0 * T))
    slope_ok = abs(four.empirical_slope + 2.0) <= 0.3
    c1 = gradient_residual_constant(sol_n3m1, (T + 5.0, 2.0 * T))
    c2 = gradient_residual_constant(sol_n3m1, (T + 5.0, 4.0 * T))
    grad_ok = np.isfinite(c2) and c2 <= 3.0 * c1
    _report(4, bounded and stable and slope_ok and grad_ok,
            f"weighted sup {full.weighted_sup:.3f} (stable x{full.weighted_sup / half.weighted_sup:.2f}), "
            f"remainder slope {four.empirical_slope:.2f}, gradient constant "
            f"{c2:.3f} stable across windows")


def test_criterion_5_turning_points_and_intersections(sol_n3m1, curve_n3m1,
                                                      curve_n11m1):
    tps = curve_n3m1.turning
    deltas = [lam - sol_n3m1.lambda_star for _, lam in tps]
    signs = np.sign(deltas)
    mags = np.abs(deltas)
    alternate = bool(np.all(signs[1:] * signs[:-1] < 0))
    decreasing = bool(np.all(mags[1:] < mags[:-1]))
    counts = [intersection_count(shoot_regular(3, 1, rho), sol_n3m1)
              for rho in (2.0, 4.0, 6.0)]
    nondecr = counts[0] <= counts[1] <= counts[2]
    n11 = len(curve_n11m1.turning)
    ok = len(tps) >= 2 and alternate and decreasing and nondecr
    _report(5, ok, f"{len(tps)} turning points (alternating={alternate}, "
                   f"decreasing={decreasing}), intersection counts {counts}; "
                   f"n=11 turning points: {n11} (reported, non-gating)")


def test_criterion_6_equivalence(sol_n3m1):
    rep = equivalence_report(sol_n3m1)
    t = np.geomspace(30.0, 280.0, 500)

    class NoPhi:
        m = 1
        n = 3
        handoff_t = 35.0
        profile = LogProfile(t, np.log(2.0 * t), 1.0 / t)

    neg = equivalence_report(NoPhi())
    ok = rep.passed and rep.tail_sup < 0.05 and rep.shrink_ratio < 1.0 and not neg.passed
    _report(6, ok, f"tail sup |x*|+|y*| = {rep.tail_sup:.4f} (< 0.05), traces "
                   f"decreasing; negative control tail sup {neg.tail_sup:.2f} fails")


def test_criterion_7_tower_height_two(sol_n3m2):
    eta = sol_n3m2.eta
    converged = (eta.final_defect <= eta.config.tol
                 and all(r < 1.0 for r in eta.contraction_ratios))
    prof = sol_n3m2.profile
    sel = prof.t >= sol_n3m2.handoff_t
    tt = prof.t[sel]
    phi, _, _ = phi_m(3, 2, tt)
    slope_bound = np.max(tt ** 2 * np.abs(prof.w_t[sel]
                                          - 2.0 * h_deriv(2, 1, 2.0 * tt + phi)))
    bounded = slope_bound <= 5.0 * eta.M
    # the remainder of the second-order Taylor expansion decays like t^-2
    T = eta.T
    taylor = residual_order(prof, lambda t: expansion_w(3, 2, t), 2.0, (T + 5.0, 4.0 * T))
    slope_ok = abs(taylor.empirical_slope + 2.0) <= 0.3
    _report(7, converged and bounded and slope_ok,
            f"corrector converged, t^2|w_t - 2H'_2(2t+phi)| <= {slope_bound:.3f}, "
            f"expansion remainder slope {taylor.empirical_slope:.2f} (-2 +- 0.3)")


def test_criterion_8_tower_properties():
    round_ok = True
    for m, y_hi in ((1, 3.0), (2, 1.8), (3, 1.4)):
        for y in np.linspace(-2.0, y_hi, 41):
            round_ok &= abs(h_tower(m, g_tower(m, y)) - y) <= 1e-12
    fd_ok = True
    for m in (1, 2, 3):
        base = 1.5 if m == 1 else (4.0 if m == 2 else math.e + 4.0)
        for t in np.geomspace(base, 1e3, 12):
            h = 1e-4 * max(1.0, t * 1e-2)
            for k in (1, 2, 3):
                lower = (lambda x: h_tower(m, x)) if k == 1 else \
                    (lambda x, kk=k - 1: h_deriv(m, kk, x))
                fd = (lower(t + h) - lower(t - h)) / (2.0 * h)
                fd_ok &= abs(h_deriv(m, k, t) - fd) <= 1e-6 * abs(fd)
        for y in np.linspace(-1.5, 1.2, 7):
            h = 1e-5
            for k in (1, 2, 3):
                lower = (lambda x: g_tower(m, x)) if k == 1 else \
                    (lambda x, kk=k - 1: g_deriv(m, kk, x))
                fd = (lower(y + h) - lower(y - h)) / (2.0 * h)
                fd_ok &= abs(g_deriv(m, k, y) - fd) <= 1e-6 * abs(fd)
    oracle, _ = quad(lambda s: math.exp(-math.exp(s)), 0.0, 40.0, epsabs=1e-14,
                     limit=200, points=[1.0, 2.0, 4.0, 8.0])
    # frozen full-precision quadrature value; the 7-decimal 0.2193839 quoted
    # alongside the tolerance truncates it by 3.4e-8
    assert abs(oracle - 0.2193839343955203) <= 1e-12
    tail_ok = abs(f_tail(0.0) - oracle) <= 1e-8
    ratio = f_tail(5.0) * math.exp(5.0 + math.exp(5.0))
    limit_ok = 0.99 <= ratio <= 1.0
    _report(8, round_ok and fd_ok and tail_ok and limit_ok,
            f"roundtrips <= 1e-12, derivative identities match finite "
            f"differences, f_tail(0) = {f_tail(0.0):.10f}, "
            f"tail ratio at t=5: {ratio:.6f}")
