"""Closed-form expansions of the singular profile and gradient, with order checks.

Every evaluator here is built from the tower primitives; remainder claims of
the form O(t^-k) are operationalized as (a) a bounded weighted sup over a
window that stays stable when the window doubles, and (b) a log-log envelope
slope as an empirical order estimate.  Both gate `verify asymptotics`; the
slope gate is loose because log corrections make slopes noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import envelope_slope, scalar_or_array
from .towers import _h_derivative_chains


@dataclass
class ExpansionReport:
    """Weighted-sup certificate for one expansion over one window."""

    weighted_sup: float
    empirical_slope: float


def expansion_grad_m1(n, r):
    """Two-term gradient expansion 1/(r L) + ln(L)/(2 r L^2), L = ln(1/r)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0) or np.any(r >= math.exp(-1.0)):
        raise ValueError("radius must satisfy 0 < r < 1/e")
    L = -np.log(r)
    out = 1.0 / (r * L) + np.log(L) / (2.0 * r * L ** 2)
    return scalar_or_array(out)


def expansion_w(n, m, t):
    """Second-order Taylor expansion of the ansatz H_m(2t + phi_m) about 2t, m >= 1.

    H_m(2t) + H'_m(2t) psi + H''_m(2t) psi^2 / 2 with psi = ln(2(n-2)) -
    sum_{j=1..m} H_j(2t), plus H'_1(2t) ln(t) / (2t) at m = 1, the first-order
    part of the ansatz term c = ln(1 + ln t / (2t)).  At n = 3, m = 1 this is
    the four-term expansion ln(2t) - ln(t)/(2t) - ln^2(t)/(8t^2) + ln(t)/(4t^2).
    """
    if m < 1:
        raise ValueError("tower height must be >= 1")
    t = np.asarray(t, dtype=float)
    H, Hp, Hpp, _ = _h_derivative_chains(m, 2.0 * t)
    psi = math.log(2.0 * (n - 2)) - sum(H[j] for j in range(1, m + 1))
    out = H[m] + Hp[m] * psi + 0.5 * Hpp[m] * psi ** 2
    if m == 1:
        out = out + Hp[1] * np.log(t) / (2.0 * t)
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
    return ExpansionReport(weighted_sup=weighted, empirical_slope=slope)


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
