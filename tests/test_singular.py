import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itergelfand.corrector import (EtaSpaceConfig, PicardConvergenceError, PsiKernel,
                                   _solve_on_grid, phi_m, picard_solve)
import itergelfand.branch as br
from itergelfand.equivalence import x_star, y_star
from itergelfand.expansions import expansion_w
from itergelfand.singular import (DescentError, ansatz_terms, assemble_w, build_singular,
                                  integrate_down, ode_residual)
from itergelfand.towers import TowerOverflowError, g_deriv, g_tower, h_deriv
from itergelfand.transform import LogProfile


def test_assemble_pure_ansatz_m1(eta_n3m1):
    zeroed = type(eta_n3m1)(**{**eta_n3m1.__dict__,
                               "eta": np.zeros_like(eta_n3m1.eta),
                               "eta_t": np.zeros_like(eta_n3m1.eta_t)})
    prof = assemble_w(3, 1, zeroed)
    f, _ = ansatz_terms(3, 1, prof.t)
    assert np.array_equal(prof.w, f)


def test_assembled_slope_approaches_reciprocal(sol_n3m1):
    # t w_t -> 1 with the ln t/(2t) correction setting the approach rate
    prof = sol_n3m1.profile
    sel = prof.t >= 100.0
    t = prof.t[sel]
    assert np.max(np.abs(t * prof.w_t[sel] - 1.0) / (np.log(t) / t)) < 2.0


def test_assembled_slope_m2(sol_n3m2):
    # t^2 |w_t - 2 H'_m(2t + phi)| bounded for m >= 2
    prof = sol_n3m2.profile
    sel = prof.t >= sol_n3m2.handoff_t
    t = prof.t[sel]
    phi, _, _ = phi_m(3, 2, t)
    bound = t ** 2 * np.abs(prof.w_t[sel] - 2.0 * h_deriv(2, 1, 2.0 * t + phi))
    assert np.max(bound) < 5.0 * sol_n3m2.eta.M


def test_oracle_descent_hits_closed_form(sol_oracle_n3):
    # plain-exponential oracle: t_star = -ln(2(n-2))/2 and lambda = 2(n-2)
    assert sol_oracle_n3.t_star == pytest.approx(-0.5 * math.log(2.0), abs=1e-10)
    assert sol_oracle_n3.lambda_star == pytest.approx(2.0, rel=1e-9)
    assert ode_residual(sol_oracle_n3.profile, 3, 0) < 1e-10
    assert sol_oracle_n3.monotone


@pytest.mark.parametrize("n", range(3, 13))
def test_oracle_runs_the_corrector_in_every_dimension(n):
    # m = 0 goes through the same corrector solve, which returns eta = 0
    sol = build_singular(n, 0)
    assert not np.any(sol.eta.eta) and not np.any(sol.eta.eta_t)
    assert abs(sol.lambda_star - 2.0 * (n - 2)) <= 2e-11 * 2.0 * (n - 2)


def test_descent_monotone(sol_n3m1):
    prof = sol_n3m1.profile
    assert sol_n3m1.monotone
    assert np.all(prof.w_t[prof.t > sol_n3m1.t_star + 1e-9] > 0.0)


def test_descent_tolerance_refinement(eta_n3m1):
    prof = assemble_w(3, 1, eta_n3m1)
    t1, _ = integrate_down(prof, 3, 1, rtol=1e-10, atol=1e-12)
    t2, _ = integrate_down(prof, 3, 1, rtol=5e-11, atol=5e-13)
    assert abs(t1 - t2) < 1e-9


def test_build_singular_quality(sol_n3m1):
    res = ode_residual(sol_n3m1.profile, 3, 1)
    assert res <= 1e-7
    assert abs(float(sol_n3m1.profile.eval_w(sol_n3m1.t_star))) < 1e-12
    assert sol_n3m1.lambda_star == pytest.approx(math.exp(-2.0 * sol_n3m1.t_star),
                                                 rel=1e-15)


@pytest.mark.parametrize("n, m, t_max", [(12, 1, 2000.0), (20, 1, 1000.0), (100, 1, None)])
def test_kernel_bound_window_quality(n, m, t_max):
    # grids raised so that no interval is wider than KERNEL_WIDTH / |lam_+|;
    # the geometric count alone leaves residuals of 4.5e-6 to 2.8e-4 here
    sol = build_singular(n, m, EtaSpaceConfig(t_max=t_max))
    assert ode_residual(sol.profile, n, m) <= 1e-7


def test_lambda_star_construction_independence(sol_n3m1):
    alt = build_singular(3, 1, EtaSpaceConfig(T=60.0, t_max=280.0))
    rel = abs(alt.lambda_star - sol_n3m1.lambda_star) / sol_n3m1.lambda_star
    assert rel < 1e-6
    dense = build_singular(3, 1, EtaSpaceConfig(t_max=280.0, n_nodes=900))
    rel2 = abs(dense.lambda_star - sol_n3m1.lambda_star) / sol_n3m1.lambda_star
    assert rel2 < 1e-6


def test_lambda_star_deterministic():
    a = build_singular(3, 1)
    b = build_singular(3, 1)
    assert a.lambda_star == b.lambda_star
    assert np.array_equal(a.profile.w, b.profile.w)


def test_residual_exact_gelfand_log_profile():
    t = np.linspace(-0.2, 30.0, 2000)
    prof = LogProfile(t, 2.0 * t + math.log(2.0 * (3 - 2)), np.full_like(t, 2.0))
    assert ode_residual(prof, 3, 0) <= 1e-12


def test_residual_sensitivity(sol_n3m1):
    prof = sol_n3m1.profile
    bumped = LogProfile(prof.t, prof.w + 1e-3, prof.w_t)
    base = ode_residual(prof, 3, 1)
    assert ode_residual(bumped, 3, 1) - base >= 1e-4


def test_descent_error_when_no_crossing():
    # a profile pinned far above the crossing cannot vanish before the floor
    t = np.linspace(40.0, 60.0, 200)
    prof = LogProfile(t, np.full_like(t, 50.0), np.zeros_like(t))
    with pytest.raises(DescentError):
        integrate_down(prof, 3, 0, t_floor=35.0)


def test_descent_error_when_handoff_not_positive():
    # an assembled profile that is negative at the handoff (as for m = 4)
    # is refused before any integration, naming the handoff
    t = np.linspace(60.0, 80.0, 50)
    prof = LogProfile(t, np.full_like(t, -0.79), np.full_like(t, 0.01))
    with pytest.raises(DescentError, match="handoff"):
        integrate_down(prof, 3, 4)


def test_residual_refuses_force_beyond_double_range():
    # exp(w - 2t) = e^800 at t = 0 is not a double: no clamp, an error naming t
    t = np.linspace(0.0, 1.0, 20)
    prof = LogProfile(t, 800.0 - t, np.full_like(t, -1.0))
    with pytest.raises(DescentError, match="at t = 0:"):
        ode_residual(prof, 3, 0)


def test_solve_refuses_a_grid_that_repeats_nodes():
    # np.geomspace over a window 5 wide repeats nodes from t of about 3e14; the
    # solve refuses such a grid before dividing by its widths
    with pytest.raises(PicardConvergenceError, match="strictly increasing"):
        _solve_on_grid(3, 1, EtaSpaceConfig(), 1e15, 1e15 + 5.0, 128)


@pytest.mark.parametrize("n,m", [(3, 1), (5, 1), (9, 2), (3, 2), (12, 1), (3, 3), (4, 1),
                                 (10, 1), (11, 1)])
def test_corrector_ball_holds_far_up(n, m):
    # the paper's fixed point puts the corrector in the ball t^2 |eta| <= M of the
    # default build: far up, where a branch shot takes lambda* without a descent, w*
    # of a short-window solve lies within M / t^2 of the ansatz, and so does w*_t
    from oracles import short_window_state
    eta = build_singular(n, m).eta
    for t in np.geomspace(eta.T + br.MATCH_DEPTH, 1e5, 40):
        w, w_t = short_window_state(n, m, t)
        f, f_t = ansatz_terms(n, m, t)
        assert t * t * abs(w - f) <= eta.M and t * t * abs(w_t - f_t) <= eta.M


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_singular(2, 1)
    with pytest.raises(ValueError):
        build_singular(3, -1)


# calls that break the rule on n or m, and the one they name
_BAD_CALLS = {
    "g_deriv(2.5, 1, 0)": (lambda p: g_deriv(2.5, 1, 0.0), "m"),
    "expansion_w(3, 1.5, 5)": (lambda p: expansion_w(3, 1.5, 5.0), "m"),
    "integrate_down(p, 3, 1.5)": (lambda p: integrate_down(p, 3, 1.5), "m"),
    "integrate_down(p, 3, -1)": (lambda p: integrate_down(p, 3, -1), "m"),
    "integrate_down(p, 3, 10**400)": (lambda p: integrate_down(p, 3, 10 ** 400), "m"),
    "g_tower(6, -5)": (lambda p: g_tower(6, -5.0), "m"),
    "x_star(2, 10, 3)": (lambda p: x_star(2, 10.0, 3.0), "n"),
    "y_star(nan, 10, 3, 0.1)": (lambda p: y_star(math.nan, 10.0, 3.0, 0.1), "n"),
    "phi_m(2, 1, 5)": (lambda p: phi_m(2, 1, 5.0), "n"),
    "ansatz_terms(2, 1, 5)": (lambda p: ansatz_terms(2, 1, 5.0), "n"),
    "expansion_w(2, 1, 5)": (lambda p: expansion_w(2, 1, 5.0), "n"),
    "phi_m(nan, 1, 5)": (lambda p: phi_m(math.nan, 1, 5.0), "n"),
    "ode_residual(p, 2, 0)": (lambda p: ode_residual(p, 2, 0), "n"),
    "ode_residual(p, nan, 0)": (lambda p: ode_residual(p, math.nan, 0), "n"),
    "PsiKernel.for_dimension(10**400)": (lambda p: PsiKernel.for_dimension(10 ** 400), "n"),
    "shoot_regular(10**400, 1, 2)": (lambda p: br.shoot_regular(10 ** 400, 1, 2.0), "n"),
    "build_singular(10**400, 1)": (lambda p: build_singular(10 ** 400, 1), "n"),
}


@pytest.mark.parametrize("label", list(_BAD_CALLS))
def test_every_entry_refuses_a_bad_dimension_or_height_by_name(sol_oracle_n3, label):
    # these ended in a TypeError from range or from the descent's source text, a
    # "math domain error", an OverflowError converting n to a double or repeating
    # "exp(" 10**400 times, a TowerOverflowError at m = 6, or returned: phi_m at
    # n = NaN a NaN, ode_residual at n = 2 or NaN a number, integrate_down at
    # m = -1 the zero of the m = 0 equation, and x_star at n = 2 -1.0
    call, named = _BAD_CALLS[label]
    what = {"n": "dimension n must", "m": "tower height m must"}[named]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=what):
            call(sol_oracle_n3.profile)


# the package's documented exceptions; TowerDomainError is a ValueError
_DOCUMENTED = (ValueError, TowerOverflowError, PicardConvergenceError, DescentError,
               br.ShootError)
# the exported functions that take n or m, at fixed other arguments
_ENTRIES = [
    lambda n, m, p: build_singular(n, m),
    lambda n, m, p: picard_solve(n, m),
    lambda n, m, p: br.shoot_regular(n, m, 1.0, keep_profile=False),
    lambda n, m, p: phi_m(n, m, 20.0),
    lambda n, m, p: ansatz_terms(n, m, 20.0),
    lambda n, m, p: expansion_w(n, m, 20.0),
    lambda n, m, p: g_deriv(m, 2, 0.5),
    lambda n, m, p: h_deriv(m, 2, 20.0),
    lambda n, m, p: g_tower(m, 0.5),
    lambda n, m, p: ode_residual(p, n, m),
    lambda n, m, p: PsiKernel.for_dimension(n),
    lambda n, m, p: x_star(n, 10.0, 3.0),
    lambda n, m, p: y_star(n, 10.0, 3.0, 0.1),
]
_ODD = [math.nan, math.inf, -math.inf, -1, -2.5, 0, 2, 1.5, 3.5, 2.0, 2 ** 53, 10 ** 400]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(_ODD + [3, 4, 12, 2 ** 53 - 1]), m=st.sampled_from(_ODD + [1, 3]))
def test_every_entry_returns_or_raises_as_documented(sol_n3m1, n, m):
    # any n and m, valid or not, give a value or a documented exception, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in _ENTRIES:
            try:
                call(n, m, sol_n3m1.profile)
            except _DOCUMENTED:
                pass


def test_m2_descent(sol_n3m2):
    assert sol_n3m2.monotone
    assert ode_residual(sol_n3m2.profile, 3, 2) <= 1e-7
    assert sol_n3m2.lambda_star == pytest.approx(math.exp(-2.0 * sol_n3m2.t_star),
                                                 rel=1e-15)


def test_branch_accumulates_at_singular_lambda():
    # completely independent route to lambda*: center shooting far along the
    # branch, where lambda(rho) has converged to the singular value, must
    # agree with the corrector-plus-descent pipeline.  These shots are
    # matched to w* and return lambda* itself, so the full descent to the
    # zero is the independent route
    from itergelfand.branch import shoot_regular
    from oracles import full_descent_shot
    for n, m, rho in ((5, 1, 9.0), (7, 2, 2.3)):
        sol = build_singular(n, m)
        point = shoot_regular(n, m, rho, keep_profile=False)
        assert abs(point.lam - sol.lambda_star) / sol.lambda_star < 1e-9
        full = full_descent_shot(n, m, rho)
        assert abs(full.lam - sol.lambda_star) / sol.lambda_star < 1e-9
        assert abs(point.lam - full.lam) / full.lam < 1e-10
