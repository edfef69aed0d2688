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

from .corrector import check_dimension
from .numerics import scalar_or_array
from .towers import f_tail_log

# gate on sup |x*| + |y*| over the tail of the corrector window
TAIL_BOUND = 0.05


@dataclass
class EquivalenceTrace:
    """Sampled (t, x*, y*) traces plus the membership verdict.

    shrink_ratio is the larger of the two traces' ratios of mean |.| over the
    last and the first fifth of the tail; both traces shrink when it is <= 1.
    """

    t: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray
    tail_lo: float
    tail_sup: float
    shrink_ratio: float
    passed: bool


def x_star(n, t, w):
    """x*(t) = 2(n-2) e^{2t} F(w*(t)) - 1, assembled in the exponent.

    w holds the values w*(t).  The product of the huge e^{2t} and the tiny F
    is never formed; the exponent 2t + log F is built first.
    """
    check_dimension(n)
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    return scalar_or_array(2.0 * (n - 2) * np.exp(2.0 * t + f_tail_log(w)) - 1.0)


def y_star(n, t, w, w_t):
    """y*(t) = 4(n-2) e^{2t} F(w*) - 2(n-2) e^{2t} w*_t / exp(e^{w*}).

    w and w_t hold the values w*(t) and w*_t(t).  Both terms are assembled
    in log domain; the second uses the exponent 2t - e^{w*} directly.
    """
    check_dimension(n)
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    wt = np.asarray(w_t, dtype=float)
    term1 = 4.0 * (n - 2) * np.exp(2.0 * t + f_tail_log(w))
    term2 = 2.0 * (n - 2) * wt * np.exp(2.0 * t - np.exp(w))
    return scalar_or_array(term1 - term2)


def equivalence_report(sol):
    """Membership check of (x*, y*) in the smallness ball for an exp(e^u) solution.

    Samples the traces over the corrector window, gates on
    sup |x*| + |y*| <= TAIL_BOUND over the upper half (log scale) of the
    window, and requires both traces to shrink across that tail.  Only tower height
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
    xs = x_star(sol.n, t, sol.profile.w[sel])
    ys = y_star(sol.n, t, sol.profile.w[sel], sol.profile.w_t[sel])
    tail_lo = math.sqrt(t_lo * t_hi)
    tail = t >= tail_lo
    combined = np.abs(xs) + np.abs(ys)
    tail_sup = float(np.max(combined[tail]))
    # both traces must shrink across the tail: compare means of the first
    # and last fifths of the tail window
    k = max(4, int(np.count_nonzero(tail)) // 5)
    shrink = max(float(np.mean(np.abs(v[tail][-k:])) / np.mean(np.abs(v[tail][:k])))
                 for v in (xs, ys))
    return EquivalenceTrace(t=t, x_star=xs, y_star=ys, tail_lo=tail_lo,
                            tail_sup=tail_sup, shrink_ratio=shrink,
                            passed=tail_sup <= TAIL_BOUND and shrink <= 1.0)
