"""Identification of the constructed solution with the tail-integral characterization.

A singular solution of the plain exp(e^u) problem is characterized near the
origin by U(r) = F^{-1}(r^2/(2(n-2)) (1 + o(1))) with F(t) the Gelfand tail
integral.  Writing x*(t) = 2(n-2) e^{2t} F(w*(t)) - 1 and y* = dx*/dt, the
constructed solution coincides with the characterized one near the origin
precisely when both traces tend to zero; this module evaluates the traces in
log domain and gates on a tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import scalar_or_array
from .towers import f_tail_inverse_log, f_tail_log


@dataclass
class EquivalenceTrace:
    """Sampled (t, x*, y*) traces plus the membership verdict."""

    t: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray
    eps_window: float
    tail_lo: float
    tail_sup: float
    decreasing: bool
    passed: bool


def x_star(n, t, w_star):
    """x*(t) = 2(n-2) e^{2t} F(w*(t)) - 1, assembled in the exponent.

    w_star is a callable t -> w*(t).  The product of the huge e^{2t} and the
    tiny F is never formed; the exponent 2t + log F is built first.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w_star(t), dtype=float)
    return scalar_or_array(2.0 * (n - 2) * np.exp(2.0 * t + f_tail_log(w)) - 1.0)


def y_star(n, t, w_star, w_star_t):
    """y*(t) = 4(n-2) e^{2t} F(w*) - 2(n-2) e^{2t} w*_t / exp(e^{w*}).

    Both terms are assembled in log domain; the second uses the exponent
    2t - e^{w*} directly.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w_star(t), dtype=float)
    wt = np.asarray(w_star_t(t), dtype=float)
    term1 = 4.0 * (n - 2) * np.exp(2.0 * t + f_tail_log(w))
    term2 = 2.0 * (n - 2) * wt * np.exp(2.0 * t - np.exp(w))
    return scalar_or_array(term1 - term2)


def equivalence_report(sol, eps=0.5):
    """Membership check of (x*, y*) in the smallness ball for an exp(e^u) solution.

    Samples the traces over the corrector window, gates on
    sup |x*| + |y*| < 0.05 over the upper half (log scale) of the window,
    and requires both traces to shrink across that tail.  Only tower height
    1 is admissible; the characterization is stated for exp(e^u).
    """
    if sol.m != 1:
        raise ValueError("the tail-integral identification applies to m = 1 only")
    t_lo = sol.handoff_t
    t_hi = sol.profile.t_max
    if t_hi <= t_lo:
        raise ValueError("empty corrector window")
    sel = (sol.profile.t >= t_lo) & (sol.profile.t <= t_hi)
    t = sol.profile.t[sel]
    if len(t) < 16:
        raise ValueError("corrector window too thin to judge the tail")
    w_val = sol.profile.w[sel]
    wt_val = sol.profile.w_t[sel]
    xs = x_star(sol.n, t, lambda _: w_val)
    ys = y_star(sol.n, t, lambda _: w_val, lambda _: wt_val)
    tail_lo = math.sqrt(t_lo * t_hi)
    tail = t >= tail_lo
    combined = np.abs(xs) + np.abs(ys)
    tail_sup = float(np.max(combined[tail]))
    # both traces must shrink across the tail: compare means of the first
    # and last fifths of the tail window
    tt = t[tail]
    k = max(4, len(tt) // 5)
    dec = bool(np.mean(np.abs(xs[tail][-k:])) < np.mean(np.abs(xs[tail][:k]))
               and np.mean(np.abs(ys[tail][-k:])) < np.mean(np.abs(ys[tail][:k])))
    passed = tail_sup < 0.05 and tail_sup < eps and dec
    return EquivalenceTrace(t=t, x_star=xs, y_star=ys, eps_window=eps,
                            tail_lo=tail_lo, tail_sup=tail_sup,
                            decreasing=dec, passed=passed)


def miyamoto_profile(n, r):
    """Leading-order characterized profile U(r) = F^{-1}(r^2 / (2(n-2)))."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    log_x = 2.0 * np.log(r) - math.log(2.0 * (n - 2))
    return scalar_or_array(np.vectorize(f_tail_inverse_log, otypes=[float])(log_x))
