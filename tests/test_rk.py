"""itergelfand.rk against scipy as the oracle: solve_ivp(method="DOP853"), its
tableau, and brentq for the stop-level crossings.

rk integrates y'' = a(t, y, y'); scipy is given the first-order system
(y, y')' = (y', a(t, y, y'))."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

import itergelfand.branch as br
import itergelfand.rk as rk
import itergelfand.singular as sg
from oracles import dense_eval, dop853_solve, first_order
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


def _oscillator(t, y, yp):
    return -y


def _cubic(t, y, yp):
    return 2.0 * y * y * y


def _oscillator_problem():
    # y0 = sin t: it rises through 1/2 at pi/6
    return _oscillator, (0.0, 20.0), [0.0, 1.0], dict(rtol=1e-11, atol=1e-13, stop_at=0.5)


@pytest.fixture(scope="module")
def problems(sol_n3m1):
    # the descent of (3, 1) from its handoff and the inner phase of the rho = 2 shot
    prof = assemble_w(3, 1, sol_n3m1.eta)
    with pytest.MonkeyPatch.context() as mp:
        descent = _captured(mp, sg, lambda: integrate_down(prof, 3, 1))
        inner = _captured(mp, br, lambda: br.shoot_regular(3, 1, 2.0))
    # y'' = 2 y^3, y(0) = y'(0) = 1 is 1 / (1 - t) and blows up at t = 1: at
    # rtol = 1e-8 it ends in a step size underflow after rejecting about half
    # its trials (at 1e-10 it rejects only 9)
    blow_up = (_cubic, (0.0, 2.0), [1.0, 1.0], dict(rtol=1e-8, atol=1e-10))
    return {"descent": descent, "inner": inner, "oscillator": _oscillator_problem(),
            "blow-up": blow_up}


@pytest.mark.parametrize("name", ["descent", "inner", "oscillator"])
def test_matches_scipy_dop853(problems, name):
    # scipy is given the stop level as a terminal event in either direction
    fun, t_span, y0, kwargs = problems[name]
    kwargs = dict(kwargs, dense_output=True)
    level = kwargs.pop("stop_at")

    def crossing(t, y):
        return y[0] - level
    crossing.terminal = True

    ours = solve_ivp(fun, t_span, y0, stop_at=level, **kwargs)
    ref = scipy_solve_ivp(first_order(fun), t_span, y0, method="DOP853", events=crossing,
                          **kwargs)

    assert ours.status == ref.status == 1
    assert ours.message == ref.message
    # the event fired once, and both solves end at it
    assert ref.t[-1] == ref.t_events[0][0]
    assert abs(ours.t[-1] - ref.t[-1]) <= 1e-13 * abs(ref.t[-1])
    assert abs(len(ours.t) - len(ref.t)) <= 0.01 * len(ref.t)
    assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev
    assert ours.y.shape == (2, len(ours.t))

    lo, hi = sorted((ref.t[0], ref.t[-1]))
    tt = np.linspace(lo, hi, 200)
    scale = float(np.max(np.abs(ref.y)))
    assert np.max(np.abs(ours.sol(tt) - ref.sol(tt))) <= 1e-12 * scale


def _assert_same(ours, ref):
    """Bit equality of two OdeResults: t, y, the dense buffer, status, message and counts."""
    assert ours.t.tobytes() == ref.t.tobytes()
    assert ours.y.tobytes() == ref.y.tobytes()
    assert (ours.sol is None) == (ref.sol is None)
    if ours.sol is not None:
        assert ours.sol.coef.tobytes() == ref.sol.coef.tobytes()
    assert ((ours.status, ours.message, ours.nfev, ours.naccept, ours.nreject)
            == (ref.status, ref.message, ref.nfev, ref.naccept, ref.nreject))


def _built_records(monkeypatch):
    """The (fun, records as floats) of every dense buffer that solve_ivp builds."""
    built = []
    real = rk._dense_coefficients

    def record(fun, records):
        built.append((fun, records.tolist()))
        return real(fun, records)

    monkeypatch.setattr(rk, "_dense_coefficients", record)
    return built


def _assert_rows_are_the_float_builder(sol, fun, records):
    # row i of the dense buffer is the start, size and state of record i, then
    # the coefficients that the builder forms from that record in floats
    width = len(rk._RECORD_NAMES)
    assert len(records) == width * len(sol.sol.coef) > 0
    build = rk._interpolant()
    for i, row in enumerate(sol.sol.coef):
        record = records[i * width:(i + 1) * width]
        c0, c1 = build(fun, *record)
        assert np.array([*record[:4], *c0, *c1]).tobytes() == row.tobytes()


@pytest.mark.parametrize("name", ["descent", "inner", "oscillator", "blow-up"])
def test_generated_step_is_the_coefficient_loops(problems, monkeypatch, name):
    # the generated loop against the reference solver, whose trial steps and
    # interpolants are loops over the tableau rows: every trial step, accepted
    # or rejected, and every interpolant enter t, y, the dense buffer and the
    # counts, which agree bit for bit, with and without dense output.  The
    # descent and inner accelerations are inlined; the others are callables
    fun, t_span, y0, kwargs = problems[name]
    built = _built_records(monkeypatch)
    for dense_output in (True, False):
        sol = solve_ivp(fun, t_span, y0, **dict(kwargs, dense_output=dense_output))
        assert not built
        # reads sol.sol.coef, which builds the buffer
        _assert_same(sol, dop853_solve(fun, t_span, y0,
                                       **dict(kwargs, dense_output=dense_output)))
        if dense_output:
            _assert_rows_are_the_float_builder(sol, *built.pop())
            if sol.status == 1:
                # the crossing is the last step's interpolant at the root, y' too
                assert sol.sol(sol.t[-1:]).tobytes() == sol.y[:, -1:].tobytes()
        # 12 evaluations per trial step and 3 per interpolant
        dense_steps = sol.naccept if dense_output else int(sol.status == 1)
        assert sol.nfev == 2 + rk.N_STAGES * (sol.naccept + sol.nreject) + 3 * dense_steps
    if name == "blow-up":
        assert sol.nreject > 100


def test_dense_buffer_is_built_once_on_first_read(problems, monkeypatch):
    # a dense solve that is never read never builds its buffer; the first
    # evaluation builds it, later reads and evaluations reuse it, and it is
    # the reference solver's byte for byte
    fun, t_span, y0, kwargs = problems["descent"]
    kwargs = dict(kwargs, dense_output=True)
    built = _built_records(monkeypatch)
    unread = solve_ivp(fun, t_span, y0, **kwargs)
    assert unread.sol is not None and not built
    sol = solve_ivp(fun, t_span, y0, **kwargs)
    values = sol.sol(sol.t)
    assert len(built) == 1
    coef = sol.sol.coef
    assert sol.sol.coef is coef and sol.sol(sol.t).tobytes() == values.tobytes()
    assert len(built) == 1 and sol.sol._build is None
    assert coef.tobytes() == dop853_solve(fun, t_span, y0, **kwargs).sol.coef.tobytes()


def _still(t, y, yp):
    return 0.0 * y


@pytest.mark.parametrize("name", ["descent", "inner", "oscillator", "signed-zero"])
def test_evaluation_is_the_two_component_sum(problems, name):
    # one Horner sum per component gives the (N, 2) sum of both bit for bit,
    # ascending (inner, oscillator) and descending (descent, signed-zero), at
    # the step ends, between them and at times outside the solve, which take
    # the first or last step's interpolant.  A solve's own buffer ends each
    # sum with +0.0 or a nonzero, so signed zeros are checked on the steps of
    # y'' = 0 solved down with every state and coefficient set to -0.0: the
    # zero each sum starts from turns the first -0.0 into +0.0, and every
    # value is +0.0, where a sum started from its top coefficient gives -0.0
    if name == "signed-zero":
        sol = solve_ivp(_still, (1.0, 0.0), [0.0, 0.0], rtol=1e-10, atol=1e-12,
                        dense_output=True)
        coef = sol.sol.coef.copy()
        coef[:, 2:] = -0.0
        sol.sol = rk.DenseSolution(sol.t, lambda: coef)
    else:
        fun, t_span, y0, kwargs = problems[name]
        sol = solve_ivp(fun, t_span, y0, **dict(kwargs, dense_output=True))
    lo, hi = sorted((sol.t[0], sol.t[-1]))
    span = hi - lo
    for t in (sol.t, sol.t[::-1], 0.5 * (sol.t[1:] + sol.t[:-1]),
              np.array([lo - span, lo - 1e-3 * span, hi + 1e-3 * span, hi + span]),
              np.linspace(lo - 0.1 * span, hi + 0.1 * span, 1001), np.array([])):
        got = sol.sol(t)
        assert got.shape == (2, len(t))
        assert got.tobytes() == dense_eval(sol.sol, t).tobytes()
    if name == "signed-zero":
        assert not np.signbit(sol.sol(sol.t)).any()


def _jump(t, y, yp):
    return 0.0 if t < 1.0 else 1e300 * y * y


def test_overflowing_trial_step_is_the_coefficient_loops():
    # y'' = 0 until t = 1, then 1e300 y^2: a trial step past t = 1 takes its
    # later stages at y far above 1e8, where the acceleration overflows to
    # inf, and the error norm is not finite, so the trial is rejected; the
    # solve ends in a step size failure just below t = 1.  The generated loop
    # of a plain callable and of the same acceleration as a body both agree
    # with the reference solver bit for bit
    seen = []

    def fun(t, y, yp):
        seen.append(_jump(t, y, yp))
        return seen[-1]

    args = ((0.0, 2.0), [1.0, 0.0])
    kwargs = dict(rtol=1e-10, atol=1e-12, dense_output=True)
    sol = solve_ivp(fun, *args, **kwargs)
    assert math.inf in seen and sol.nreject > 0
    assert sol.status == -1 and 1.0 - 1e-14 < sol.t[-1] < 1.0
    ref = dop853_solve(_jump, *args, **kwargs)
    _assert_same(sol, ref)
    _assert_same(solve_ivp(rk.acceleration("a = 0.0 if t < 1.0 else 1e300 * y * y"),
                           *args, **kwargs), ref)


def test_last_stage_is_at_the_given_end():
    # the loop clamps t_new to the end of the interval and evaluates the
    # step's last stage there, not at t + h, which can round past it: y'' = 0
    # has error norm 0, so the steps from t = 0.1 grow tenfold until the last
    times = []

    def fun(t, y, yp):
        times.append(t)
        return 0.0

    sol = solve_ivp(fun, (0.1, 0.85), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    t_last = sol.t[-2]
    assert t_last + (0.85 - t_last) != 0.85
    assert times[-1] == sol.t[-1] == 0.85 and len(times) == sol.nfev


def _shot_solves(monkeypatch, n, m, rho):
    """(fun, t_span, y0, kwargs) of every solve of the shot (n, m, rho), its
    descent run to the zero with no default singular build."""
    calls = []
    for module in (br, sg):
        def record(fun, t_span, y0, real=module.solve_ivp, **kwargs):
            calls.append((fun, t_span, list(y0), kwargs))
            return real(fun, t_span, y0, **kwargs)
        monkeypatch.setattr(module, "solve_ivp", record)
    monkeypatch.setattr(br, "_singular", lambda n, m: None)
    br.shoot_regular(n, m, rho)
    return calls


@pytest.mark.parametrize("m, rho", [(0, 61.0), (1, 4.2), (2, 1.5), (3, 0.86)])
def test_inlined_loop_is_the_plain_callable_path(monkeypatch, m, rho):
    # the loop generated for a package acceleration and the loop of a plain
    # callable that returns its values, which the tracer and the scipy
    # replays see, give the same OdeResult bit for bit, on the inner phase and
    # the descent of a shot; the dense rows of the first are the builder's on
    # floats.  At m = 3 one trial step of the descent, near t = 16147,
    # overflows exp(G_3(w) - 2t); its replay stops at t = 16000
    solves = _shot_solves(monkeypatch, 3, m, rho)
    assert len(solves) == 2
    built = _built_records(monkeypatch)
    overflowed = []
    for fun, t_span, y0, kwargs in solves:
        if m == 3 and t_span[1] < t_span[0]:
            t_span = (t_span[0], 16000.0)

        def plain(t, y, p, fun=fun):
            a = fun(t, y, p)
            overflowed.append(a == -math.inf)
            return a

        sol = solve_ivp(fun, t_span, y0, **kwargs)
        # the first read builds the buffer, one row per step
        assert not built and len(sol.sol.coef) == len(sol.t) - 1
        _assert_rows_are_the_float_builder(sol, *built[0])
        _assert_same(sol, solve_ivp(plain, t_span, y0, **kwargs))
        built.clear()
    assert any(overflowed) == (m == 3)


def test_infinite_extra_stages_are_the_coefficient_loops_without_warning():
    # an acceleration that is inf wherever the solve without dense output
    # takes no stage: the trial steps are the same with dense output, and only
    # the 3 extra stages of each interpolant see inf, so every row's
    # coefficients hold inf or nan, formed without a numpy warning and equal
    # to the reference solver's bit for bit
    stage_times = set()

    def probe(t, y, yp):
        stage_times.add(t)
        return -y

    args = ((0.0, 10.0), [1.0, 0.0])
    kwargs = dict(rtol=1e-10, atol=1e-12)
    solve_ivp(probe, *args, **kwargs)

    def fun(t, y, yp):
        return -y if t in stage_times else math.inf

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(fun, *args, dense_output=True, **kwargs)
        # the first read builds the buffer, from the extra stages that see inf
        coef = sol.sol.coef
    _assert_same(sol, dop853_solve(fun, *args, dense_output=True, **kwargs))
    assert sol.status == 0
    assert not np.isfinite(coef[:, 4:]).all(axis=1).any()


def test_package_bodies_use_no_loop_names(monkeypatch):
    # the locals and constants of the inner and descent bodies share no name
    # with the solve loop they are inlined into, apart from t, y, p and a; fun,
    # the plain callable the loop hands to the interpolant builder, is one
    loop = set(rk._loop("a = fun(t, y, p)", ()).__code__.co_varnames)
    loop -= {"t", "y", "p", "a"}
    for fun, *_ in _shot_solves(monkeypatch, 3, 3, 0.5):
        names = fun.inline[1]
        assert names and not loop & (set(fun.__code__.co_varnames) | set(names))


def test_counts_trial_steps(problems):
    # without a stop level or dense output every trial costs N_STAGES evaluations
    # past the two of the initial step rule, and every accepted step is kept
    fun, t_span, y0, kwargs = problems["blow-up"]
    sol = solve_ivp(fun, t_span, y0, **kwargs)
    assert sol.nreject > 0
    assert sol.nfev == 2 + rk.N_STAGES * (sol.naccept + sol.nreject)
    assert sol.naccept == len(sol.t) - 1


def _nonzero_bits(row):
    """(j, a) of a tableau row's nonzero entries in j order, each a by its IEEE bits."""
    return tuple((j, float(a).hex()) for j, a in enumerate(row) if a != 0.0)


def test_tableau_is_scipy_dop853():
    # the literal tableau is scipy's dop853_coefficients bit for bit: every
    # nonzero entry of A, B, C, E3, E5 and D is there with its double, and
    # every entry that is zero there is absent here
    n, n_ext = dop853_coefficients.N_STAGES, dop853_coefficients.N_STAGES_EXTENDED
    A, C = dop853_coefficients.A, dop853_coefficients.C

    def bits(rows):
        return tuple((j, a.hex()) for j, a in rows)

    assert rk.N_STAGES == n == DOP853.n_stages
    assert rk.ERROR_EXPONENT == -1.0 / (DOP853.error_estimator_order + 1)
    # explicit: no stage reads itself or a later one
    assert not np.any(np.triu(A))
    assert tuple(map(bits, rk._A)) == tuple(_nonzero_bits(A[s, :s]) for s in range(n))
    assert tuple(map(bits, rk._A_EXTRA)) == tuple(_nonzero_bits(A[s, :s])
                                                  for s in range(n + 1, n_ext))
    # the last stage, at the step's end, combines the earlier ones by B
    assert bits(rk._B) == _nonzero_bits(A[n, :n]) == _nonzero_bits(dop853_coefficients.B)
    assert C[n] == 1.0
    assert tuple(c.hex() for c in rk._C + rk._C_EXTRA) == tuple(
        float(c).hex() for c in np.delete(C, n))
    assert bits(rk._E3) == _nonzero_bits(dop853_coefficients.E3)
    assert bits(rk._E5) == _nonzero_bits(dop853_coefficients.E5)
    assert tuple(map(bits, rk._D)) == tuple(map(_nonzero_bits, dop853_coefficients.D))


@pytest.mark.parametrize("name", ["descent", "inner", "oscillator"])
def test_brent_matches_brentq(problems, name, monkeypatch):
    # every stop-level crossing of the solve, located again by scipy's brentq
    # on the same interpolant and bracket
    pairs = []
    brent = rk.brent

    def both(f, a, b):
        root = brent(f, a, b)
        pairs.append((root, brentq(f, a, b, xtol=rk.BRENT_TOL, rtol=rk.BRENT_TOL)))
        return root

    monkeypatch.setattr(rk, "brent", both)
    fun, t_span, y0, kwargs = problems[name]
    solve_ivp(fun, t_span, y0, **kwargs)
    assert pairs
    for root, ref in pairs:
        assert abs(root - ref) <= rk.BRENT_TOL * abs(ref)


def test_brent_refuses_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        rk.brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_stop_level_ends_at_first_crossing():
    # sin t rises through 1/2 at pi/6, cos t falls through it at pi/3; both
    # would cross it again before t = 20
    root3 = math.sqrt(3.0)
    for y0, t_cross, y_cross in [([0.0, 1.0], math.pi / 6.0, [0.5, root3 / 2.0]),
                                 ([1.0, 0.0], math.pi / 3.0, [0.5, -root3 / 2.0])]:
        sol = solve_ivp(_oscillator, (0.0, 20.0), y0, rtol=1e-11, atol=1e-13, stop_at=0.5)
        assert sol.status == 1
        assert sol.t[-1] == pytest.approx(t_cross, rel=1e-10)
        assert sol.y[:, -1] == pytest.approx(y_cross, abs=1e-10)
        assert np.all(sol.t[:-1] < sol.t[-1])


def test_without_events_reaches_the_end():
    sol = solve_ivp(_oscillator, (0.0, 2.0 * math.pi), [1.0, 0.0], rtol=1e-11, atol=1e-13)
    ref = scipy_solve_ivp(first_order(_oscillator), (0.0, 2.0 * math.pi), [1.0, 0.0],
                          method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.status == ref.status == 0
    assert sol.sol is None
    assert sol.t[-1] == 2.0 * math.pi
    assert sol.y[:, -1] == pytest.approx([1.0, 0.0], abs=1e-10)
    assert sol.nfev == ref.nfev


def test_blow_up_fails_without_warning():
    # y'' = 2 y^3, y(0) = y'(0) = 1 is 1 / (1 - t): the step size underflows
    # at the blow-up t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(_cubic, (0.0, 2.0), [1.0, 1.0], rtol=1e-10, atol=1e-12)
    assert sol.status == -1
    assert "step size" in sol.message
    assert sol.t[-1] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("rtol, atol", [(0.0, 1e-12), (-1e-8, 1e-12), (math.nan, 1e-12),
                                        (math.inf, 1e-12), (1e-10, 0.0), (1e-10, -1.0),
                                        (1e-10, math.nan), (1e-10, math.inf)])
def test_rejects_bad_tolerances(rtol, atol):
    with pytest.raises(ValueError):
        solve_ivp(_oscillator, (0.0, 1.0), [1.0, 0.0], rtol=rtol, atol=atol)


def test_overflowing_initial_trial_step_starts_from_the_minimum_step():
    # the trial step of the initial-step rule sees an acceleration 1e184
    # while the state is (1, 0): its scaled squared norm overflows to inf, so
    # the solve starts from the minimum step, as scipy's does, without
    # raising or warning
    def fun(t, y, yp):
        return 1e190 * t

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(fun, (0.0, 1.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    with warnings.catch_warnings():
        # numpy warns about the same overflow
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = scipy_solve_ivp(first_order(fun), (0.0, 1.0), [1.0, 0.0], method="DOP853",
                              rtol=1e-10, atol=1e-12)
    assert sol.status == ref.status == 0
    assert sol.t[1] == ref.t[1] == 10.0 * math.ulp(0.0)
    assert abs(sol.nfev - ref.nfev) <= 0.01 * ref.nfev
    assert sol.y[1, -1] == pytest.approx(0.5e190, rel=1e-12)


def test_overflowing_initial_derivative_fails_without_raising():
    # y' = 1e300 at y = 1: the scaled initial derivative 1e300 / 1e-10
    # overflows, so the initial step rule's h0 is 0; like scipy's, the solve
    # then starts from the minimum step, whose error norm overflows too, and
    # ends in a step-size failure instead of dividing by h0
    def fun(t, y, yp):
        return 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_ivp(fun, (0.0, 1.0), [1.0, 1e300], rtol=1e-10, atol=1e-12)
    with warnings.catch_warnings():
        # numpy warns about the overflow and the 0 / 0 that follows
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = scipy_solve_ivp(first_order(fun), (0.0, 1.0), [1.0, 1e300], method="DOP853",
                              rtol=1e-10, atol=1e-12)
    assert sol.status == ref.status == -1
    assert sol.message == ref.message
    assert sol.nfev == ref.nfev


@pytest.mark.parametrize("y0", [[math.nan, 0.0], [0.0, math.nan], [math.inf, 0.0],
                                [0.0, -math.inf]])
def test_rejects_non_finite_start(y0):
    with pytest.raises(ValueError, match="y0 must be finite"):
        solve_ivp(_oscillator, (0.0, 1.0), y0, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("y0", [[1.0, 0.0], [1e-20, 0.0]])
def test_nan_first_acceleration_fails_at_once(y0):
    # a NaN acceleration makes the initial step NaN (from y = 1), or the
    # error norms of the trial steps NaN (from y = 1e-20, where the rule takes
    # h0 = 1e-6 and the first trial step is finite); either way the solve
    # ends at status -1 after a bounded number of calls
    calls = []

    def fun(t, y, yp):
        calls.append(t)
        if len(calls) > 1000:
            raise RuntimeError("the solve does not end")
        return math.nan

    sol = solve_ivp(fun, (1.0, 2.0), y0, rtol=1e-10, atol=1e-12)
    assert sol.status == -1
    assert sol.naccept == 0
    # its message names the NaN, not a step-size underflow
    assert sol.message == rk.NAN_MESSAGE != rk.MESSAGES[-1]
