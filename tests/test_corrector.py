import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from itergelfand import corrector
from itergelfand.corrector import (EtaSpaceConfig, PicardConvergenceError, PsiKernel,
                                   _ForcingM, _QuadPlan, phi_m, picard_solve)
from oracles import damping, eta_t_first_order, forcing_m, psi_apply, rho_remainder
from itergelfand.numerics import differentiate
from itergelfand.singular import ansatz_terms
from itergelfand.towers import g_deriv, h_tower
from itergelfand.transform import LogProfile


def test_phi_m_closed_form_m1():
    # n = 3, t = e: phi = ln(1/e) + ln(1 + 1/(2e)), Miyamoto's m = 1 shift
    phi, _, _ = phi_m(3, 1, math.e)
    assert phi == pytest.approx(-1.0 + math.log(1.0 + 1.0 / (2.0 * math.e)), rel=1e-15)


def test_phi_m_second_derivative_bounded():
    t = np.geomspace(10.0, 1e6, 80)
    for m in (0, 1, 2, 3):
        _, _, phi_tt = phi_m(3, m, t)
        assert np.max(t ** 2 * np.abs(phi_tt)) < 10.0


def test_phi_m_derivative_vs_fd():
    for m in (1, 2):
        for t in (5.0, 20.0, 100.0):
            h = 1e-5 * t
            phi_p, _, _ = phi_m(3, m, t + h)
            phi_m_, _, _ = phi_m(3, m, t - h)
            _, phi_t, _ = phi_m(3, m, t)
            assert phi_t == pytest.approx((phi_p - phi_m_) / (2 * h), rel=1e-8)


def test_phi_m_domain():
    with pytest.raises(ValueError):
        phi_m(3, 1, 0.9)
    with pytest.raises(ValueError):
        phi_m(3, -1, 5.0)


def test_phi_m_closed_form_m2():
    # m=2, n=3: phi(t) = ln 2 - ln(2t) - ln ln(2t)
    for t in (5.0, 50.0):
        phi, _, _ = phi_m(3, 2, t)
        expect = math.log(2.0) - math.log(2.0 * t) - math.log(math.log(2.0 * t))
        assert phi == pytest.approx(expect, rel=1e-14)


def test_phi_m_first_derivative_rate():
    # phi_t + 1/t = O(1/(t ln t))
    t = np.geomspace(10.0, 1e5, 50)
    _, phi_t, _ = phi_m(3, 2, t)
    assert np.max(np.abs(phi_t + 1.0 / t) * t * np.log(t)) < 5.0


@pytest.mark.parametrize("t", [1e78, 1e100, 1e160, 1e300])
def test_m1_ansatz_far_up_does_not_overflow(t):
    # t (2t + ln t) overflows from t ~ 1e154 and its square from t ~ 1e77;
    # the m = 1 terms never form either (any warning fails the suite)
    phi, phi_t, phi_tt = phi_m(3, 1, t)
    assert phi == pytest.approx(math.log(1.0 / t), rel=1e-12)
    assert phi_t == pytest.approx(-1.0 / t, rel=1e-12)
    assert 0.0 <= phi_tt <= 2.0 / t / t
    w, w_t = ansatz_terms(3, 1, t)
    assert math.isfinite(w) and w_t == pytest.approx(1.0 / t, rel=1e-12)


def test_phi_m_second_derivative_vs_fd():
    for m in (1, 2):
        for t in (20.0, 200.0):
            h = 1e-4 * t
            _, d_p, _ = phi_m(3, m, t + h)
            _, d_m, _ = phi_m(3, m, t - h)
            _, _, phi_tt = phi_m(3, m, t)
            assert phi_tt == pytest.approx((d_p - d_m) / (2 * h), rel=1e-6)


def test_forcing_f1_two_forms():
    # at m = 1, e^phi (2t + phi) - 2(n-2) equals (n-2) ln t / t + e^phi phi exactly
    n = 4
    t = np.geomspace(10.0, 500.0, 40)
    fo = _ForcingM(n, 1, t)
    alt = (n - 2) * np.log(t) / t + fo.ephi * (fo.z - 2.0 * t)
    assert np.max(np.abs(fo.F1 - alt) / np.abs(alt)) < 1e-12


def test_forcing_decomposition_vs_high_precision():
    # F_1 eta + F_2 + 2(n-2) eta + e^phi against a 50-digit direct evaluation
    # of exp(-2t + G_m(w)), w = H_m(2t + phi) + eta
    mpmath.mp.dps = 50
    n, t, eta = 3, 50.0, 1e-3
    tm = mpmath.mpf(t)
    phis = {1: mpmath.log((n - 2) / tm) + mpmath.log(1 + mpmath.log(tm) / (2 * tm)),
            2: mpmath.log(2 * (n - 2) / (2 * tm)) - mpmath.log(mpmath.log(2 * tm))}
    for m, phi in phis.items():
        fo = _ForcingM(n, m, np.array([t]))
        F0, F1eta, F2 = (float(v[0]) for v in fo.pieces(np.array([eta])))
        lhs = F1eta + F2 + 2.0 * (n - 2) * eta + float(fo.ephi[0])
        w = 2 * tm + phi
        for _ in range(m):
            w = mpmath.log(w)
        w += mpmath.mpf(eta)
        for _ in range(m):
            w = mpmath.exp(w)
        rhs = float(mpmath.exp(-2 * tm + w))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _check_forcing_at_zero_eta(m, t_lo, t_hi, A):
    # |F_0| <= A / t^2 with a finite A
    t = np.geomspace(t_lo, t_hi, 50)
    fo = _ForcingM(3, m, t)
    F0, F1eta, F2 = fo.pieces(np.zeros_like(t))
    assert np.all(F1eta == 0.0) and np.all(F2 == 0.0)
    assert np.max(t ** 2 * np.abs(F0)) < A
    assert np.array_equal(forcing_m(3, m, t, np.zeros_like(t)), F0)


def test_forcing_m1_at_zero_eta():
    _check_forcing_at_zero_eta(1, 30.0, 200.0, 3.0)


def test_forcing_m_at_zero_eta():
    _check_forcing_at_zero_eta(2, 60.0, 400.0, 5.0)


def test_rho_remainder_taylor_order():
    # rho(0) = 0 and d rho / d eta (0) = 0
    assert rho_remainder(3, 2, 100.0, 0.0) == 0.0
    h = 1e-6
    slope = (rho_remainder(3, 2, 100.0, h) - rho_remainder(3, 2, 100.0, -h)) / (2 * h)
    curv = (rho_remainder(3, 2, 100.0, h) + rho_remainder(3, 2, 100.0, -h)) / h ** 2
    assert abs(slope) < 1e-4 * abs(curv) * h + 1e-12


def test_rho_remainder_vs_quadrature():
    # rho(eta) = eta^2 int_0^1 G''_m(H_m(2t+phi) + z eta)(1 - z) dz
    n, m, t, eta = 3, 2, 100.0, 1e-4
    phi, _, _ = phi_m(n, m, t)
    x0 = h_tower(m, 2.0 * t + phi)
    oracle, err = quad(lambda z: g_deriv(m, 2, x0 + z * eta) * (1.0 - z), 0.0, 1.0,
                       epsrel=1e-12)
    oracle *= eta ** 2
    assert rho_remainder(n, m, t, eta) == pytest.approx(oracle, rel=1e-8)


def test_rho_remainder_bound_on_ball():
    # |rho(eta)| <= c (ln t)^3 / t^3 for eta in the weighted ball
    t = np.geomspace(60.0, 400.0, 30)
    M = 1.0
    vals = np.abs(rho_remainder(3, 2, t, M / t ** 2)) * t ** 3 / np.log(t) ** 3
    assert np.max(vals) < 10.0


def test_psi_apply_zero_forcing():
    k = PsiKernel.for_dimension(3)
    assert psi_apply(k, lambda s: np.zeros_like(s), 30.0, 120.0) == 0.0


def test_psi_apply_constant_forcing_closed_form():
    # integral of e^{-a tau} sin(b tau) over [0, L] has a closed form
    for n in (3, 6, 9):
        k = PsiKernel.for_dimension(n)
        a, b = damping(k), k.freq
        t, t_max, c = 20.0, 60.0, 0.7
        L = t_max - t
        exact = c * (b - math.exp(-a * L) * (b * math.cos(b * L)
                                             + a * math.sin(b * L))) / (a * a + b * b)
        got = psi_apply(k, lambda s: np.full_like(s, c), t, t_max)
        assert got == pytest.approx(-exact / b, rel=1e-10)


def test_psi_apply_weighted_bound():
    # |F| <= M/s^2 gives sup t^2 |Psi| <= M/(a b) (1 + o(1))
    for n in (3, 9):
        k = PsiKernel.for_dimension(n)
        M = 2.0
        t = 50.0
        val = psi_apply(k, lambda s: M / s ** 2, t, 400.0)
        bound = M / (damping(k) * k.freq) / t ** 2
        assert abs(val) <= bound * 1.05
        assert abs(val) >= bound * 0.05


def test_psi_apply_tail_guard():
    k = PsiKernel.for_dimension(3)
    with pytest.raises(PicardConvergenceError):
        psi_apply(k, lambda s: 1.0 / s ** 2, 99.0, 100.0, tol=1e-12, tail_scale=1.0)


@pytest.mark.parametrize("n", [3, 10, 12])
def test_kernel_sweep_matches_direct_quadrature(n):
    # one sweep per root family (complex pair, double root, real pair)
    # against per-point quadrature of the explicit kernel, and its
    # derivative against a central difference in t of that quadrature
    grid = np.geomspace(30.0, 200.0, 300)
    plan = _QuadPlan(grid, PsiKernel.for_dimension(n))
    swept, swept_t = plan.apply_psi(1.0 / plan.nodes ** 2)

    def direct(t):
        return psi_apply(plan.kernel, lambda s: 1.0 / s ** 2, t, 200.0)
    h = 1e-3
    for i in range(0, 290, 17):
        t = float(grid[i])
        assert swept[i] == pytest.approx(direct(t), rel=1e-8)
        assert swept_t[i] == pytest.approx((direct(t + h) - direct(t - h)) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("n,m", [(3, 1), (5, 1), (9, 1), (3, 2), (6, 2),
                                 (10, 1), (12, 1), (3, 3)])
def test_picard_converges_and_contracts(n, m):
    sol = picard_solve(n, m)
    assert sol.final_defect <= sol.config.tol
    assert all(r < 1.0 for r in sol.contraction_ratios)
    assert sol.sup_weighted <= sol.M
    # kernel certification across all three kernel families: the fixed point
    # must satisfy the corrector equation under independent differentiation
    g = sol.grid
    eta_tt = differentiate(g, sol.eta_t, order=1, stencil=7)
    F = _ForcingM(n, m, g).total(sol.eta)
    res = eta_tt - (n - 2) * sol.eta_t + 2 * (n - 2) * sol.eta + F
    sel = (g >= sol.T + 1.0) & (g <= 0.9 * sol.t_usable)
    assert np.max(np.abs(res[sel]) / np.abs(F[sel])) < 1e-6


def test_picard_fixed_point_solves_corrector_equation(eta_n3m1):
    # independent certification: finite differences of the grid data must
    # satisfy eta_tt - (n-2) eta_t + 2(n-2) eta + F = 0
    sol = eta_n3m1
    n, m = 3, 1
    g = sol.grid
    eta_tt = differentiate(g, sol.eta_t, order=1, stencil=7)
    F = _ForcingM(n, m, g).total(sol.eta)
    res = eta_tt - (n - 2) * sol.eta_t + 2 * (n - 2) * sol.eta + F
    sel = (g >= sol.T + 1.0) & (g <= sol.t_usable)
    rel = np.abs(res[sel]) / np.abs(F[sel])
    assert np.max(rel) < 1e-8


def test_picard_first_iterate_is_psi_of_zero(eta_n3m1):
    # eta_0 = 0, so the recorded first defect equals the norm of Psi[0];
    # cross-check Psi[0] against the independent single-point quadrature
    sol = eta_n3m1
    kernel = PsiKernel.for_dimension(3)
    plan = _QuadPlan(sol.grid, kernel)
    forcing = _ForcingM(3, 1, plan.nodes)
    first, _ = plan.apply_psi(forcing.total(np.zeros_like(plan.nodes)))
    assert sol.defects[0] == pytest.approx(
        float(np.max(sol.grid ** 2 * np.abs(first))), rel=1e-12)
    for t in (35.0, 80.0):
        i = int(np.argmin(np.abs(sol.grid - t)))
        direct = psi_apply(kernel, lambda s: forcing_m(3, 1, s, np.zeros_like(s)),
                           float(sol.grid[i]), sol.t_max)
        assert float(first[i]) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("n, m", [(3, 1), (9, 2)])
def test_plan_hermite_matches_log_profile(n, m):
    # the plan moves an iterate to its quadrature nodes with the same cubic
    # Hermite evaluator as LogProfile, bit for bit, and reproduces a cubic
    sol = picard_solve(n, m)
    plan = _QuadPlan(sol.grid, PsiKernel.for_dimension(n))
    x = (sol.grid - sol.T) / (sol.t_max - sol.T)
    for y, y_t in ((sol.eta, sol.eta_t), (np.sin(sol.grid), np.cos(sol.grid)),
                   (1.0 + 2.0 * x - 3.0 * x ** 2 + 0.5 * x ** 3,
                    (2.0 - 6.0 * x + 1.5 * x ** 2) / (sol.t_max - sol.T))):
        got = plan.at_nodes(y, y_t)
        assert got.shape == plan.nodes.shape
        assert np.array_equal(got, LogProfile(sol.grid, y, y_t).eval_w(plan.nodes))
    xq = (plan.nodes - sol.T) / (sol.t_max - sol.T)
    assert np.max(np.abs(got - (1.0 + 2.0 * xq - 3.0 * xq ** 2 + 0.5 * xq ** 3))) < 1e-14


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_corrector_self_convergence(n):
    # against the same solve on four times the grid nodes, the weighted error
    # of eta on [T, t_usable] stays at the solve tolerance, next to the pad too
    base = picard_solve(n, 1)
    n_nodes = EtaSpaceConfig().resolved(1)[2]
    fine = picard_solve(n, 1, EtaSpaceConfig(n_nodes=4 * n_nodes))
    sel = base.grid <= base.t_usable
    t = base.grid[sel]
    ref = LogProfile(fine.grid, fine.eta, fine.eta_t).eval_w(t)
    assert np.max(t ** 2 * np.abs(base.eta[sel] - ref)) <= 1e-11


def test_truncation_stability(eta_n3m1):
    # doubling t_max changes eta on [T, 2T] below the solve tolerance
    base = eta_n3m1
    wide = picard_solve(3, 1, EtaSpaceConfig(T=30.0, t_max=400.0))
    sel = base.grid <= 2.0 * base.T
    interp = CubicSpline(wide.grid, wide.eta)(base.grid[sel])
    delta = np.max(base.grid[sel] ** 2 * np.abs(base.eta[sel] - interp))
    assert delta < 10.0 * base.config.tol


def test_eta_derivative_properties():
    for n, m in ((3, 1), (9, 1), (9, 2), (10, 1), (12, 1), (3, 3)):
        sol = picard_solve(n, m)
        # zero forcing gives zero derivative
        plan = _QuadPlan(sol.grid, PsiKernel.for_dimension(n))
        assert all(np.all(v == 0.0) for v in plan.apply_psi(np.zeros_like(plan.nodes)))
        # t^2 |eta_t| bounded over [T, 4T]
        sel = (sol.grid >= sol.T) & (sol.grid <= 4.0 * sol.T)
        assert np.max(sol.grid[sel] ** 2 * np.abs(sol.eta_t[sel])) < 5.0 * sol.M
        # the derivative of the Psi sweeps against a central difference of eta
        eta_t_fd = differentiate(sol.grid, sol.eta, order=1, stencil=7)
        inner = slice(5, -5)
        assert np.max(np.abs(eta_t_fd[inner] - sol.eta_t[inner])) < 1e-6
        # and against the first-order representation, which agrees up to the
        # Picard defect (at most 1.4e-11 over these cases)
        usable = sol.grid <= sol.t_usable
        assert np.max(np.abs(eta_t_first_order(sol)[usable] - sol.eta_t[usable])) < 5e-11


def test_forcing_bounds_on_converged_eta(eta_n3m1):
    sol = eta_n3m1
    sel = sol.grid <= sol.t_usable
    t = sol.grid[sel]
    fo = _ForcingM(3, 1, t)
    F0, F1eta, F2 = fo.pieces(sol.eta[sel])
    quadratic = fo.ephi * rho_remainder(3, 1, t, sol.eta[sel])
    assert np.max(t ** 3 / np.log(t) * np.abs(F1eta)) < 10.0
    assert np.max(t ** 4 * np.abs(quadratic)) < 10.0
    assert np.max(t ** 3 * np.abs(F2 - quadratic)) < 10.0


def test_forcing_m_lipschitz_sampled():
    # |F_2(t, eta2) - F_2(t, eta1)| <= c (ln t)^4 / t |eta2 - eta1| on the ball
    rng = np.random.default_rng(0)
    t = np.geomspace(60.0, 400.0, 50)
    fo = _ForcingM(3, 2, t)
    M = 1.0
    worst = 0.0
    for _ in range(20):
        c1, c2 = rng.uniform(-M, M, size=2)
        e1, e2 = c1 / t ** 2, c2 / t ** 2
        _, _, f21 = fo.pieces(e1)
        _, _, f22 = fo.pieces(e2)
        denom = np.abs(e2 - e1) * np.log(t) ** 4 / t
        mask = denom > 0
        worst = max(worst, float(np.max(np.abs(f22 - f21)[mask] / denom[mask])))
    assert worst < 10.0


def test_picard_rejects_bad_dimension_or_height():
    with pytest.raises(ValueError):
        picard_solve(2, 1)
    with pytest.raises(ValueError):
        picard_solve(3, -1)


@pytest.mark.parametrize("n", [3, 10, 12])
def test_picard_gelfand_oracle_is_zero(n):
    # at m = 0 the ansatz 2t + ln(2(n-2)) is exact, so the forcing vanishes at
    # eta = 0 and the first sweep ends the solve; n = 3, 10 and 12 cover the
    # complex, double and real root families of the kernel
    sol = picard_solve(n, 0)
    assert sol.iterations == 1
    assert not np.any(sol.eta) and not np.any(sol.eta_t)


def test_config_validation():
    with pytest.raises(ValueError):
        EtaSpaceConfig(T=0.5).resolved(1)
    with pytest.raises(ValueError):
        EtaSpaceConfig(T=60.0, t_max=100.0).resolved(1)
    with pytest.raises(ValueError):
        EtaSpaceConfig(tol=-1.0).resolved(1)
    # the allocation cap refuses oversized windows before anything is built
    with pytest.raises(ValueError, match="descent samples"):
        EtaSpaceConfig(T=1e8).resolved(1)
    with pytest.raises(ValueError, match="quadrature nodes"):
        EtaSpaceConfig(t_max=1e6).resolved(1, 3)
    assert EtaSpaceConfig(T=960.0).resolved(2)[2] == 8318
    # given n, the count is that of the grid the solve builds, kernel-bound at
    # high n: the default window's grid has 32 710 nodes at n = 1000 and 3.3e5
    # (3.9e6 Gauss nodes) at n = 10 000
    assert EtaSpaceConfig().resolved(1, 1000)[2] == 32710
    with pytest.raises(ValueError, match="quadrature nodes"):
        EtaSpaceConfig().resolved(1, 10000)
    # the m = 1 ansatz shift is defined for t > 1 only
    with pytest.raises(ValueError, match="> 1 at m = 1"):
        EtaSpaceConfig(T=1.0).resolved(1)
    assert EtaSpaceConfig(T=1.0).resolved(2)[0] == 1.0
    # given n, the usable window must hold a grid node where the descent starts
    with pytest.raises(ValueError, match=r"no grid node at or past T \+ 5"):
        EtaSpaceConfig(T=1.01, t_max=4.04).resolved(1, 3)


@pytest.mark.parametrize("field, value", [("T", math.nan), ("t_max", math.nan), ("tol", math.nan),
                                          ("n_nodes", -5), ("n_nodes", 0),
                                          ("n_nodes", 1), ("n_nodes", 300.0),
                                          ("tol", math.inf)])
def test_config_refuses_nan_fields_and_no_sweeps(field, value):
    # comparisons let a NaN through: tol = nan ran all 60 sweeps and T = nan ended
    # in a float-to-int conversion; n_nodes = -5 silently gave a 61-node grid and
    # n_nodes = 0 the default one, and tol = inf stopped after one sweep
    cfg = EtaSpaceConfig(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must"):
        cfg.resolved(1)
    with pytest.raises(ValueError, match=f"{field} must"):
        picard_solve(3, 1, cfg)


@pytest.mark.parametrize("n, T, t_max", [(3, 30.0, 4.8e4), (12, 30.0, 1.6e4), (3, 6000.0, 2.4e4)])
def test_tall_windows_stay_within_the_cap(n, T, t_max):
    # sub-panels at most 2/(n-2) wide (and an eighth of the kernel's period at
    # n <= 9) put each of these just under MAX_POINTS Gauss nodes; one panel
    # per grid interval, raised by the kernel bound, takes at most 3/4 of it
    n_nodes = EtaSpaceConfig(T=T, t_max=t_max).resolved(1, n)[2]
    assert 12 * (n_nodes - 1) <= 0.75 * corrector.MAX_POINTS


# windows whose geometric grid would leave intervals wider than
# KERNEL_WIDTH / |lam_+| (the default windows reach 8.04 / |lam_+| at most)
KERNEL_BOUND = [(12, 1, 2000.0), (20, 1, 1000.0), (100, 1, None)]


@pytest.mark.parametrize("n, m, t_max", [(3, 1, None), (9, 2, None), (12, 1, None)] + KERNEL_BOUND)
def test_resolved_counts_the_grid_the_solve_builds(n, m, t_max):
    # the cap of EtaSpaceConfig.resolved meets the Gauss nodes the solve lays out,
    # one 12-node panel per interval, each at most KERNEL_WIDTH / |lam_+| wide
    cfg = EtaSpaceConfig(t_max=t_max)
    n_nodes = cfg.resolved(m, n)[2]
    sol = picard_solve(n, m, cfg)
    kernel = PsiKernel.for_dimension(n)
    assert sol.grid.size == n_nodes
    assert _QuadPlan(sol.grid, kernel).nodes.size == 12 * (n_nodes - 1)
    widest = abs(kernel.lam_plus) * float(np.max(np.diff(sol.grid)))
    if (n, m, t_max) in KERNEL_BOUND:
        assert corrector.KERNEL_WIDTH * 0.999 < widest <= corrector.KERNEL_WIDTH
    else:
        assert widest < 8.1


def test_picard_escalation_exhaustion_raises():
    # an unreachable tolerance ends the one solve of the window asked for, when
    # its defect stalls: it fell from 0.34 to rounding in 11 sweeps, and the
    # error says that tol lies below rounding, not that the iteration does not contract
    with pytest.raises(PicardConvergenceError) as info:
        picard_solve(3, 1, EtaSpaceConfig(tol=1e-30))
    assert "fell from 3.404e-01 to 7.002e-17 by sweep 11" in str(info.value)
    assert "stalled at rounding: tol 1e-30 lies below" in str(info.value)
    assert "does not contract" not in str(info.value)


def test_picard_fails_just_above_the_domain_floor_without_warning():
    # at m = 3 H_2(2T) -> 0 as T -> e/2: the n = 9 iteration does not contract
    # there, and the solve says so for the T asked, without moving the window
    T = math.e / 2 + 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PicardConvergenceError, match=f"T = {T:.6g} [(]n = 9, m = 3[)]"):
            picard_solve(9, 3, EtaSpaceConfig(T=T))


@pytest.mark.parametrize("m, T, named", [
    (3, 1.2, "G_2(0) / 2 = 1.35914"), (3, math.e / 2, "G_2(0) / 2 = 1.35914"),
    (4, 7.5, "G_3(0) / 2 = 7.57713"), (5, None, "G_4(0) / 2 = 1.90714e+06"),
    (6, None, "tower height m must"), (100, None, "tower height m must"),
    (3, 1.3591409142295228, "G_2(0) / 2 = 1.35914")])
def test_resolved_refuses_T_at_or_below_the_domain_floor(m, T, named):
    # H_m(2T) is undefined for 2T <= G_{m-1}(0); from m = 6 on that floor is no
    # double, and the height itself is refused.  One ulp above e/2, log(2T)
    # rounds to 1 and H_2(2T) to 0
    with pytest.raises(ValueError, match=re.escape(named)):
        EtaSpaceConfig(T=T).resolved(m)


@pytest.mark.parametrize("n, m", [(3, 0), (3, 1), (5, 1), (9, 2), (3, 2), (3, 3), (10, 1), (12, 1)])
def test_picard_solves_the_window_asked_for(n, m):
    cfg = EtaSpaceConfig()
    T, t_usable, _ = cfg.resolved(m, n)
    sol = picard_solve(n, m, cfg)
    assert (sol.T, sol.t_usable, sol.t_max) == (T, t_usable, t_usable + cfg.pad(n))
