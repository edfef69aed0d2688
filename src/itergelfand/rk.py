"""DOP853 on a two-component state held in Python floats.

Every ODE the package integrates has two components: the log-variable
descent of singular.descend and the inner phase of branch.shoot_regular.
On such small systems scipy.integrate.solve_ivp spends most of its time in
numpy calls on 2-vectors, not in the right-hand side.  solve_ivp below runs
the same method by the same rules on plain floats:

* the Dormand-Prince 8(5,3) tableau is scipy's: its module
  scipy/integrate/_ivp/dop853_coefficients.py needs only numpy, so it is
  loaded from its file location and the scipy.integrate package (with
  scipy.optimize behind it) is never imported;
* scipy's initial-step rule, error norm and step-size controller are
  reproduced (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.5);
* every event is terminal: a sign change of an event function over a step
  (in its `direction`, if set) is located on the interpolant of that step
  by `brent` (itergelfand.numerics), the algorithm of scipy's brentq in
  plain floats, with xtol = rtol = BRENT_TOL = 4 eps, and the earliest
  one ends the integration;
* the dense output of all steps is kept in one flat array('d') buffer and
  evaluated vectorised.

Results agree with scipy's to rounding; the stage sums are formed in
another order.  Squares are products, never powers, so an overflowing trial
step yields an inf or nan error norm and is rejected, as in scipy, instead
of raising.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .numerics import BRENT_TOL, brent


def _load_tableau():
    """scipy's dop853_coefficients module, executed from its file location."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("itergelfand.rk reads the DOP853 tableau from scipy, "
                          "which is not installed")
    path = os.path.join(scipy.submodule_search_locations[0],
                        "integrate", "_ivp", "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLEAU = _load_tableau()
EPS = sys.float_info.epsilon
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# DOP853's error estimator has order 7
ERROR_EXPONENT = -1.0 / 8.0
N_STAGES = _TABLEAU.N_STAGES
SQRT2 = math.sqrt(2.0)


def _nonzero(row):
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


# stage s combines the earlier stages j < s with the nonzero A[s, j]
_A = tuple(_nonzero(_TABLEAU.A[s, :s]) for s in range(N_STAGES))
_C = tuple(float(c) for c in _TABLEAU.C[:N_STAGES])
_B = _nonzero(_TABLEAU.B)
_E5 = _nonzero(_TABLEAU.E5)
_E3 = _nonzero(_TABLEAU.E3)
# the three extra stages of the dense output, then its four upper coefficients
_A_EXTRA = tuple(_nonzero(_TABLEAU.A[s, :s])
                 for s in range(N_STAGES + 1, _TABLEAU.N_STAGES_EXTENDED))
_C_EXTRA = tuple(float(c) for c in _TABLEAU.C[N_STAGES + 1:])
_D = tuple(_nonzero(row) for row in _TABLEAU.D)
# doubles per step in the dense buffer: t_old, h, y_old (2), then 7 coefficients
# of the first component and 7 of the second
_STRIDE = 18

MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred.",
            -1: "Required step size is less than spacing between numbers."}


@dataclass
class OdeResult:
    """The fields of scipy's solve_ivp result that the package reads."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    sol: DenseSolution | None
    status: int
    message: str
    nfev: int


class DenseSolution:
    """The step interpolants of one solve, evaluated like scipy's OdeSolution."""

    def __init__(self, ts, coef):
        self.ts = ts
        self.coef = coef.reshape(-1, _STRIDE)
        self.ascending = ts[-1] >= ts[0]

    def __call__(self, t):
        """(2, len(t)) array of the solution at the 1-d array of times t."""
        t = np.asarray(t, dtype=float)
        nseg = len(self.coef)
        # the step whose closed interval holds t; ties go to the earlier step
        if self.ascending:
            seg = np.searchsorted(self.ts, t, side="left") - 1
        else:
            seg = np.searchsorted(self.ts[::-1], t, side="right") - 1
        seg = np.clip(seg, 0, nseg - 1)
        if not self.ascending:
            seg = nseg - 1 - seg
        c = self.coef[seg]
        x = ((t - c[:, 0]) / c[:, 1])[:, None]
        F = c[:, 4:].reshape(-1, 2, 7)
        y = np.zeros((len(t), 2))
        for i in range(6, -1, -1):
            y += F[:, :, i]
            y *= x if i % 2 == 0 else 1.0 - x
        y += c[:, 2:4]
        return y.T


def _norm(a, b):
    """RMS norm of (a, b)."""
    return math.sqrt(a * a + b * b) / SQRT2


def _combine(rows, k0, k1):
    """sum_j a_j k_j for each component."""
    d0 = d1 = 0.0
    for j, a in rows:
        d0 += a * k0[j]
        d1 += a * k1[j]
    return d0, d1


def _initial_step(fun, t0, y0, y1, f0, f1, interval, direction, rtol, atol):
    """scipy's select_initial_step for error estimator order 7."""
    sc0 = atol + abs(y0) * rtol
    sc1 = atol + abs(y1) * rtol
    d0 = _norm(y0 / sc0, y1 / sc1)
    d1 = _norm(f0 / sc0, f1 / sc1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if h0 == 0.0:
        # the scaled derivative overflowed d1; scipy's 0/0 for d2 then gives
        # h1 = 0, and the solve starts from the minimum step
        return 0.0
    g0, g1 = fun(t0 + h0 * direction, (y0 + h0 * direction * f0, y1 + h0 * direction * f1))
    d2 = _norm((g0 - f0) / sc0, (g1 - f1) / sc1) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100.0 * h0, h1, interval)


def _dense_coefficients(fun, t_old, y0, y1, n0, n1, h, k0, k1):
    """The 7 x 2 interpolant coefficients of the step (t_old, y) -> (t_old + h, n).

    k0, k1 hold the 13 stages of the step; the three extra stages go into
    k[13..15].  Returns the coefficient lists of the two components.
    """
    for i, rows in enumerate(_A_EXTRA):
        d0, d1 = _combine(rows, k0, k1)
        s = N_STAGES + 1 + i
        k0[s], k1[s] = fun(t_old + _C_EXTRA[i] * h, (y0 + d0 * h, y1 + d1 * h))
    c0, c1 = [], []
    for c, y, n, k in ((c0, y0, n0, k0), (c1, y1, n1, k1)):
        dy = n - y
        c += [dy, h * k[0] - dy, 2.0 * dy - h * (k[N_STAGES] + k[0])]
    for rows in _D:
        d0, d1 = _combine(rows, k0, k1)
        c0.append(h * d0)
        c1.append(h * d1)
    return c0, c1


def _interpolant(t_old, h, y0, y1, c0, c1):
    """The step interpolant t -> (y0(t), y1(t)) on plain floats."""

    def at(t):
        x = (t - t_old) / h
        v0 = v1 = 0.0
        for i in range(6, -1, -1):
            w = x if i % 2 == 0 else 1.0 - x
            v0 = (v0 + c0[i]) * w
            v1 = (v1 + c1[i]) * w
        return (v0 + y0, v1 + y1)

    return at


def _crossed(g, g_new, direction):
    up = g <= 0.0 <= g_new
    down = g >= 0.0 >= g_new
    return up if direction > 0 else down if direction < 0 else up or down


def solve_ivp(fun, t_span, y0, rtol, atol, events=(), dense_output=False):
    """Integrate y' = fun(t, y) for a two-component y over t_span with DOP853.

    fun(t, (y0, y1)) returns the pair of derivatives.  events is a callable
    or a sequence of callables event(t, (y0, y1)); each must be marked
    `terminal` and may carry a `direction`.  Returns an OdeResult with
    scipy's t, y (shape (2, steps + 1)), t_events, y_events, sol (None unless
    dense_output), status (0 end reached, 1 event, -1 step size underflow),
    message and nfev.  rtol must lie in [100 eps, inf) and atol in (0, inf).
    """
    if not 100.0 * EPS <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and at least 100 eps, got {rtol}")
    if not 0.0 < atol < math.inf:
        raise ValueError(f"atol must be finite and positive, got {atol}")
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_bound)) or t == t_bound:
        raise ValueError(f"t_span must be two distinct finite times, got {t_span}")
    if callable(events):
        events = (events,)
    for event in events:
        if getattr(event, "terminal", False) != 1:
            raise ValueError("every event must be terminal (terminal = True)")
    ev_dir = [getattr(event, "direction", 0.0) for event in events]
    direction = 1.0 if t_bound > t else -1.0
    y0, y1 = float(y0[0]), float(y0[1])

    k0 = [0.0] * (N_STAGES + 4)
    k1 = [0.0] * (N_STAGES + 4)
    f0, f1 = fun(t, (y0, y1))
    h_abs = _initial_step(fun, t, y0, y1, f0, f1, abs(t_bound - t), direction, rtol, atol)
    nfev = 2
    g = [event(t, (y0, y1)) for event in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    ts, ys0, ys1 = array("d", [t]), array("d", [y0]), array("d", [y1])
    dense = array("d")
    status = None
    while status is None:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k0[0], k1[0] = f0, f1
            for s in range(1, N_STAGES):
                d0, d1 = _combine(_A[s], k0, k1)
                k0[s], k1[s] = fun(t + _C[s] * h, (y0 + d0 * h, y1 + d1 * h))
            d0, d1 = _combine(_B, k0, k1)
            n0, n1 = y0 + h * d0, y1 + h * d1
            k0[N_STAGES], k1[N_STAGES] = fun(t_new, (n0, n1))
            nfev += N_STAGES
            sc0 = atol + max(abs(y0), abs(n0)) * rtol
            sc1 = atol + max(abs(y1), abs(n1)) * rtol
            e0, e1 = _combine(_E5, k0, k1)
            e0, e1 = e0 / sc0, e1 / sc1
            err5 = e0 * e0 + e1 * e1
            if err5 == 0.0:
                err = 0.0
            else:
                e0, e1 = _combine(_E3, k0, k1)
                e0, e1 = e0 / sc0, e1 / sc1
                err = h_abs * err5 / math.sqrt((err5 + 0.01 * (e0 * e0 + e1 * e1)) * 2.0)
            if err < 1.0:
                factor = MAX_FACTOR
                if err > 0.0:
                    factor = min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # inf and nan error norms land here too
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        t_old, o0, o1 = t, y0, y1
        t, y0, y1 = t_new, n0, n1
        f0, f1 = k0[N_STAGES], k1[N_STAGES]
        if direction * (t - t_bound) >= 0.0:
            status = 0
        coef = None
        if dense_output:
            coef = _dense_coefficients(fun, t_old, o0, o1, y0, y1, h, k0, k1)
            nfev += 3
            dense.extend((t_old, h, o0, o1, *coef[0], *coef[1]))
        if events:
            g_new = [event(t, (y0, y1)) for event in events]
            active = [i for i in range(len(events)) if _crossed(g[i], g_new[i], ev_dir[i])]
            if active:
                if coef is None:
                    coef = _dense_coefficients(fun, t_old, o0, o1, y0, y1, h, k0, k1)
                    nfev += 3
                at = _interpolant(t_old, h, o0, o1, *coef)
                roots = [brent(lambda tt, ev=events[i]: ev(tt, at(tt)), t_old, t)
                         for i in active]
                first = min(range(len(active)), key=lambda i: direction * roots[i])
                t = roots[first]
                y0, y1 = at(t)
                t_events[active[first]].append(t)
                y_events[active[first]].append((y0, y1))
                status = 1
            g = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t:
            # an event at the start of the step: drop its interpolant
            del dense[-_STRIDE:]
        else:
            ts.append(t)
            ys0.append(y0)
            ys1.append(y1)

    ts = np.array(ts)
    sol = DenseSolution(ts, np.frombuffer(dense)) if dense_output else None
    return OdeResult(t=ts, y=np.array([ys0, ys1]),
                     t_events=[np.array(te) for te in t_events],
                     y_events=[np.array(ye).reshape(-1, 2) for ye in y_events],
                     sol=sol, status=status, message=MESSAGES[status], nfev=nfev)
