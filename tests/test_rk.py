"""itergelfand.rk.solve_ivp against scipy's solve_ivp(method="DOP853") as the oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import itergelfand.branch as br
import itergelfand.singular as sg
from itergelfand.rk import solve_ivp
from itergelfand.singular import assemble_w, integrate_down


def _captured(monkeypatch, module, run):
    """The first solve_ivp call that run() makes through module: (fun, t_span, y0, kwargs)."""
    calls = []
    real = module.solve_ivp

    def record(fun, t_span, y0, **kwargs):
        calls.append((fun, t_span, list(y0), kwargs))
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", record)
    run()
    return calls[0]


def _oscillator(t, y):
    return (y[1], -y[0])


def _oscillator_problem():
    def falling_half(t, y):
        return y[0] - 0.5
    falling_half.terminal = True
    falling_half.direction = -1.0
    # y0 = sin t: it rises through 1/2 at pi/6 and falls through it at 5 pi/6
    return _oscillator, (0.0, 20.0), [0.0, 1.0], dict(rtol=1e-11, atol=1e-13,
                                                      events=[falling_half])


@pytest.fixture(scope="module")
def problems(sol_n3m1):
    # the descent of (3, 1) from its handoff and the inner phase of the rho = 2 shot
    prof = assemble_w(3, 1, sol_n3m1.eta)
    with pytest.MonkeyPatch.context() as mp:
        descent = _captured(mp, sg, lambda: integrate_down(prof, 3, 1))
        inner = _captured(mp, br, lambda: br.shoot_regular(3, 1, 2.0))
    return {"descent": descent, "inner": inner, "oscillator": _oscillator_problem()}


@pytest.mark.parametrize("name", ["descent", "inner", "oscillator"])
def test_matches_scipy_dop853(problems, name):
    fun, t_span, y0, kwargs = problems[name]
    kwargs = dict(kwargs, dense_output=True)
    ours = solve_ivp(fun, t_span, y0, **kwargs)
    ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)

    assert ours.status == ref.status == 1
    assert ours.message == ref.message
    assert len(ours.t_events) == len(ref.t_events)
    for te, te_ref in zip(ours.t_events, ref.t_events):
        assert len(te) == len(te_ref)
        for a, b in zip(te, te_ref):
            assert abs(a - b) <= 1e-13 * abs(b)
    assert abs(len(ours.t) - len(ref.t)) <= 0.01 * len(ref.t)
    assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev
    assert ours.y.shape == (2, len(ours.t))
    # one terminal event fired, and the solve ends at it
    assert [te[0] for te in ours.t_events if len(te)] == [ours.t[-1]]

    lo, hi = sorted((ref.t[0], ref.t[-1]))
    tt = np.linspace(lo, hi, 200)
    scale = float(np.max(np.abs(ref.y)))
    assert np.max(np.abs(ours.sol(tt) - ref.sol(tt))) <= 1e-12 * scale


def test_direction_ignores_rising_crossings():
    fun, t_span, y0, kwargs = _oscillator_problem()
    sol = solve_ivp(fun, t_span, y0, **kwargs)
    assert sol.status == 1
    assert sol.t_events[0][0] == pytest.approx(5.0 * math.pi / 6.0, rel=1e-10)
    assert sol.y_events[0][0] == pytest.approx([0.5, -math.sqrt(3.0) / 2.0], abs=1e-10)


def test_without_events_reaches_the_end():
    sol = solve_ivp(_oscillator, (0.0, 2.0 * math.pi), [1.0, 0.0], rtol=1e-11, atol=1e-13)
    ref = scipy_solve_ivp(_oscillator, (0.0, 2.0 * math.pi), [1.0, 0.0], method="DOP853",
                          rtol=1e-11, atol=1e-13)
    assert sol.status == ref.status == 0
    assert sol.sol is None
    assert sol.t[-1] == 2.0 * math.pi
    assert sol.y[:, -1] == pytest.approx([1.0, 0.0], abs=1e-10)
    assert sol.nfev == ref.nfev


def test_blow_up_fails_without_warning():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step size underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(lambda t, y: (y[0] * y[0], 0.0), (0.0, 2.0), [1.0, 0.0],
                        rtol=1e-10, atol=1e-12)
    assert sol.status == -1
    assert "step size" in sol.message
    assert sol.t[-1] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("rtol, atol", [(0.0, 1e-12), (-1e-8, 1e-12), (math.nan, 1e-12),
                                        (math.inf, 1e-12), (1e-10, 0.0), (1e-10, -1.0),
                                        (1e-10, math.nan), (1e-10, math.inf)])
def test_rejects_bad_tolerances(rtol, atol):
    with pytest.raises(ValueError):
        solve_ivp(_oscillator, (0.0, 1.0), [1.0, 0.0], rtol=rtol, atol=atol)


def test_rejects_non_terminal_event():
    def ev(t, y):
        return y[0]
    with pytest.raises(ValueError, match="terminal"):
        solve_ivp(_oscillator, (0.0, 1.0), [1.0, 0.0], rtol=1e-10, atol=1e-12, events=ev)


def test_overflowing_initial_trial_step_starts_from_the_minimum_step():
    # the trial step of the initial-step rule sees a derivative 1e184 while
    # the state is 1: its scaled squared norm overflows to inf, so the solve
    # starts from the minimum step, as scipy's does, without raising or warning
    def fun(t, y):
        return (0.0, 1e190 * t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(fun, (0.0, 1.0), [1.0, 1.0], rtol=1e-10, atol=1e-12)
    with warnings.catch_warnings():
        # numpy warns about the same overflow
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = scipy_solve_ivp(fun, (0.0, 1.0), [1.0, 1.0], method="DOP853",
                              rtol=1e-10, atol=1e-12)
    assert sol.status == ref.status == 0
    assert sol.t[1] == ref.t[1] == 10.0 * math.ulp(0.0)
    assert abs(sol.nfev - ref.nfev) <= 0.01 * ref.nfev
    assert sol.y[1, -1] == pytest.approx(0.5e190, rel=1e-12)
