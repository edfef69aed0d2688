"""Closed-form expansions of the singular profile and gradient, with order checks.

Every evaluator here is built from the tower primitives; remainder claims of
the form O(t^-k) are operationalized as (a) a bounded weighted sup over a
window that stays stable when the window doubles, and (b) a log-log envelope
slope as an empirical order estimate.  (a) is the pass/fail gate; slopes are
reported because log corrections make them noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrector import phi_m1
from .numerics import envelope_slope, scalar_or_array
from .towers import _h_derivative_chains, h_deriv


@dataclass
class ExpansionReport:
    """Weighted-sup certificate for one expansion over one window."""

    label: str
    t_lo: float
    t_hi: float
    order: float
    weighted_sup: float
    empirical_slope: float


def expansion_w_m1(n, t, depth="four_term"):
    """Profile expansion at tower height 1.

    depth 'ansatz' gives ln(2t + phi(t)) exactly; 'four_term' gives
    ln(2t) + ln((n-2)/t)/(2t) - ln^2(t)/(8t^2) + ln(t)/(4t^2).
    """
    t = np.asarray(t, dtype=float)
    if depth == "ansatz":
        phi, _, _ = phi_m1(n, t)
        out = np.log(2.0 * t + phi)
    elif depth == "four_term":
        lnt = np.log(t)
        out = (np.log(2.0 * t) + (math.log(n - 2) - lnt) / (2.0 * t)
               - lnt ** 2 / (8.0 * t ** 2) + lnt / (4.0 * t ** 2))
    else:
        raise ValueError("depth must be 'ansatz' or 'four_term'")
    return scalar_or_array(out)


def expansion_grad_m1(n, r):
    """Two-term gradient expansion 1/(r L) + ln(L)/(2 r L^2), L = ln(1/r)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r >= math.exp(-1.0)):
        raise ValueError("radius must satisfy 0 < r < 1/e")
    L = -np.log(r)
    out = 1.0 / (r * L) + np.log(L) / (2.0 * r * L ** 2)
    return scalar_or_array(out)


def expansion_w_m(n, m, rho):
    """Three-group profile expansion at tower height m >= 2.

    H_m(2 rho) + H'_m(2 rho) (ln(2(n-2)) - sum_{j=1..m} H_j(2 rho))
    - H'_m(2 rho) ln^2(rho) / (4 rho).
    """
    if m < 2:
        raise ValueError("expansion_w_m is for m >= 2; use expansion_w_m1")
    rho = np.asarray(rho, dtype=float)
    H, Hp, _, _ = _h_derivative_chains(m, 2.0 * rho)
    tower_sum = sum(H[j] for j in range(1, m + 1))
    out = (H[m] + Hp[m] * (math.log(2.0 * (n - 2)) - tower_sum)
           - Hp[m] * np.log(rho) ** 2 / (4.0 * rho))
    return scalar_or_array(out)


def expansion_grad_m(n, m, r):
    """Leading gradient term 2 H'_m(2 ln(1/r)) / r for m >= 1."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r >= 1.0):
        raise ValueError("radius must lie in (0, 1)")
    L = -np.log(r)
    out = 2.0 * h_deriv(m, 1, 2.0 * L) / r
    return scalar_or_array(out)


def residual_order(profile, expansion, order, window):
    """Measure how fast a profile approaches an expansion.

    expansion is a callable t -> value; the report carries
    sup_{window} t^order |profile - expansion| and the empirical log-log
    envelope slope of the difference.
    """
    t_lo, t_hi = window
    if t_hi <= t_lo:
        raise ValueError("empty window")
    sel = (profile.t >= t_lo) & (profile.t <= t_hi)
    if not np.any(sel):
        raise ValueError("window outside the profile range")
    t = profile.t[sel]
    diff = profile.w[sel] - expansion(t)
    weighted = float(np.max(t ** order * np.abs(diff)))
    if np.all(diff == 0.0):
        slope = 0.0
    else:
        slope = envelope_slope(t, diff)
    return ExpansionReport(label="", t_lo=float(t_lo), t_hi=float(t_hi),
                           order=float(order), weighted_sup=weighted,
                           empirical_slope=slope)


def gradient_residual_constant(sol, window):
    """Fitted C with |measured gradient - two-term expansion| <= C/(r ln^2(1/r)).

    The gradient is read off the constructed profile as w_t(t)/r at
    r = e^{-t}; the weight r ln^2(1/r) makes the fitted constant the
    remainder coefficient of the gradient expansion.
    """
    t_lo, t_hi = window
    sel = (sol.profile.t >= t_lo) & (sol.profile.t <= t_hi)
    t = sol.profile.t[sel]
    r = np.exp(-t)
    measured = np.abs(sol.profile.w_t[sel]) / r
    expected = expansion_grad_m1(sol.n, r)
    return float(np.max(np.abs(measured - expected) * r * t ** 2))
