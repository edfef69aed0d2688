import math

import numpy as np
import pytest

from itergelfand.corrector import EtaSpaceConfig, picard_solve
from itergelfand.singular import (DescentError, ansatz_terms, assemble_w,
                                  build_singular, integrate_down, ode_residual)
from itergelfand.towers import h_deriv
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
    from itergelfand.corrector import phi_m
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


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_singular(2, 1)
    with pytest.raises(ValueError):
        build_singular(3, -1)


def test_m2_descent(sol_n3m2):
    assert sol_n3m2.monotone
    assert ode_residual(sol_n3m2.profile, 3, 2) <= 1e-7
    assert sol_n3m2.lambda_star == pytest.approx(math.exp(-2.0 * sol_n3m2.t_star),
                                                 rel=1e-15)


def test_branch_accumulates_at_singular_lambda():
    # completely independent route to lambda*: center shooting far along the
    # branch, where lambda(rho) has converged to the singular value, must
    # agree with the corrector-plus-descent pipeline
    from itergelfand.branch import shoot_regular
    for n, m, rho in ((5, 1, 9.0), (7, 2, 2.3)):
        sol = build_singular(n, m)
        point = shoot_regular(n, m, rho, keep_profile=False)
        assert abs(point.lam - sol.lambda_star) / sol.lambda_star < 1e-9
