import math

import mpmath
import numpy as np
import pytest

from itergelfand.equivalence import equivalence_report, x_star, y_star
from oracles import miyamoto_profile, x_star_factored, y_star_factored
from itergelfand.towers import f_tail_log
from itergelfand.transform import LogProfile


def test_x_star_definition_vs_high_precision(sol_n3m1):
    # 2(n-2) e^{2t} F(w*) - 1 against a 40-digit evaluation at a moderate t
    mpmath.mp.dps = 40
    t = 20.0
    w = float(sol_n3m1.profile.eval_w(t))
    oracle = float(2 * (3 - 2) * mpmath.exp(2 * t) * mpmath.e1(mpmath.exp(w)) - 1)
    got = x_star(3, t, w)
    assert got == pytest.approx(oracle, rel=1e-11)


def test_x_star_tends_to_zero(sol_n3m1):
    prof = sol_n3m1.profile
    ts = np.array([50.0, 100.0, 250.0])
    vals = np.abs(x_star(3, ts, prof.eval_w(ts)))
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 5e-3


def test_substitution_limit(sol_n3m1):
    # e^{-2t} exp(w* + e^{w*}) -> 2(n-2), assembled in the exponent
    for t, tol in ((60.0, 0.1), (200.0, 0.03)):
        w = float(sol_n3m1.profile.eval_w(t))
        val = math.exp(-2.0 * t + w + math.exp(w))
        assert val == pytest.approx(2.0, rel=tol)


def test_y_star_identity(sol_n3m1):
    # y* = 2(x* + 1) - 2(n-2) e^{2t} w*_t / exp(e^{w*})
    t = np.array([60.0, 120.0])
    w = sol_n3m1.profile.eval_w(t)
    wt = sol_n3m1.profile.eval_wt(t)
    ys = y_star(3, t, w, wt)
    alt = 2.0 * (x_star(3, t, w) + 1.0) - 2.0 * (3 - 2) * wt * np.exp(2.0 * t - np.exp(w))
    assert np.max(np.abs(ys - alt)) < 1e-12


def test_limit_pieces(sol_n3m1):
    # t w*_t -> 1 and t e^{-2t} exp(e^{w*}) -> n-2
    prof = sol_n3m1.profile
    sel = prof.t >= 150.0
    t = prof.t[sel]
    assert np.max(np.abs(t * prof.w_t[sel] - 1.0)) < 0.05
    vals = t * np.exp(-2.0 * t + np.exp(prof.w[sel]))
    assert np.max(np.abs(vals - 1.0)) < 0.05


def test_two_route_agreement(sol_n3m1):
    # direct log-domain formula vs factored-ansatz substitution
    t = sol_n3m1.eta.grid[(sol_n3m1.eta.grid >= 40.0)
                          & (sol_n3m1.eta.grid <= sol_n3m1.eta.t_usable)][::10]
    w = sol_n3m1.profile.eval_w(t)
    wt = sol_n3m1.profile.eval_wt(t)
    xa = x_star(3, t, w)
    xb = x_star_factored(3, t, sol_n3m1.eta)
    assert np.max(np.abs(xa - xb)) < 1e-8
    ya = y_star(3, t, w, wt)
    yb = y_star_factored(3, t, sol_n3m1.eta)
    assert np.max(np.abs(ya - yb)) < 1e-8


def test_equivalence_report_passes(sol_n3m1):
    rep = equivalence_report(sol_n3m1)
    assert rep.passed
    assert rep.tail_sup < 0.05
    assert rep.decreasing
    # tail decrease invariant: envelope over the last half of the window
    tail = rep.t >= rep.tail_lo
    comb = np.abs(rep.x_star[tail]) + np.abs(rep.y_star[tail])
    k = len(comb) // 4
    assert np.max(comb[-k:]) <= np.max(comb[:k])


def test_equivalence_negative_control():
    # ansatz without phi: w = ln(2t) drives x* to a nonzero limit
    t = np.geomspace(30.0, 200.0, 400)

    class Fake:
        m = 1
        n = 3
        handoff_t = 35.0
        profile = LogProfile(t, np.log(2.0 * t), 1.0 / t)

    rep = equivalence_report(Fake())
    assert not rep.passed
    assert rep.tail_sup > 0.5


def test_equivalence_rejects_wrong_height(sol_n3m2):
    with pytest.raises(ValueError):
        equivalence_report(sol_n3m2)


def test_equivalence_rejects_thin_window():
    t = np.linspace(30.0, 30.5, 8)

    class Fake:
        m = 1
        n = 3
        handoff_t = 30.0
        profile = LogProfile(t, np.log(2.0 * t), 1.0 / t)

    with pytest.raises(ValueError):
        equivalence_report(Fake())


def test_miyamoto_profile_monotone():
    rs = np.array([1e-3, 1e-2, 0.05])
    us = miyamoto_profile(3, rs)
    assert np.all(np.diff(us) < 0)
    with pytest.raises(ValueError):
        miyamoto_profile(3, 0.0)


def test_miyamoto_matches_constructed_near_origin(sol_n3m1):
    # |U(r) - v*(r)| -> 0 as r -> 0
    ts = np.array([60.0, 120.0, 240.0])
    diffs = []
    for t in ts:
        U = miyamoto_profile(3, math.exp(-t))
        diffs.append(abs(U - float(sol_n3m1.profile.eval_w(t))))
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]
    assert diffs[-1] < 1e-4


def test_miyamoto_h1_scale_consistency():
    # U(r) - ln(2 ln(1/r)) stays a bounded correction
    for t in (50.0, 200.0, 400.0):
        U = miyamoto_profile(3, math.exp(-t))
        assert abs(U - math.log(2.0 * t)) < 1.0
