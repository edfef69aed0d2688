"""Iterated exponential/logarithm towers and the Gelfand tail integral.

The towers are G_0(y) = y, G_m(y) = exp(G_{m-1}(y)) and their inverses
H_0(y) = y, H_m(y) = ln(H_{m-1}(y)).  The tail integral

    F(t) = integral_t^inf exp(-e^s) ds = E_1(e^t)

is evaluated through the exponential integral by two formulas (Abramowitz
and Stegun 5.1.11 and 5.1.22): its power series for x = e^t <= 1 and its
continued fraction for x > 1; past MAX_EXP_ARG, where e^t overflows, log F
is -inf.  Everything here needs numpy alone and is pure and reentrant.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .numerics import brent, scalar_or_array

# exp overflows doubles just above this argument
MAX_EXP_ARG = 709.78
# tallest tower: G_6(y) > exp(G_5(-inf)) = exp(e^(e^e)), about e^(3.8e6), for every y
MAX_HEIGHT = 5
# terms of the power series of E_1: for x <= 1 the last is below 1e-19 of E_1(x)
_SERIES_TERMS = 20
# levels of its continued fraction: for x > 1 the truncation there stays below
# 1e-19 relative (about exp(-4 sqrt(depth x))), under the rounding of the levels
_FRACTION_DEPTH = 120


class TowerOverflowError(OverflowError):
    """A tower evaluation left the double range; carries the failing level."""

    def __init__(self, level, message=None):
        self.level = level
        super().__init__(message or f"exp overflow while forming tower level {level}")


class TowerDomainError(ValueError):
    """An iterated logarithm hit a non-positive intermediate value."""

    def __init__(self, level, message=None):
        self.level = level
        super().__init__(message or f"iterated log undefined: H_{level}(y) <= 0")


def check_height(m):
    """m as an int if it is a tower height, an integer from 0 to MAX_HEIGHT, else a ValueError."""
    if not isinstance(m, numbers.Integral) or not 0 <= m <= MAX_HEIGHT:
        raise ValueError(f"tower height m must be an integer >= 0 and <= {MAX_HEIGHT}, where "
                         f"G_m(y) is a double for some y, got m = {m!r}")
    return int(m)


def tower_domain_lower(m):
    """Infimum of the domain of H_m, i.e. G_{m-1}(0)."""
    m = check_height(m)
    if m == 0:
        return -math.inf
    return g_tower(m - 1, 0.0)


def g_tower(m, y):
    """G_m(y): m-fold iterated exponential of y.

    A float y (np.float64 included) is evaluated with math.exp and gives a
    float, without numpy's per-call overhead on a 0-d array: a branch shot
    forms its chain G_0(rho), ..., G_m(rho) this way.  No right-hand side
    calls it per evaluation; the shooting right-hand sides form their
    forces with math.exp themselves.
    """
    m = check_height(m)
    if isinstance(y, float):
        v = float(y)
        for j in range(1, m + 1):
            if v > MAX_EXP_ARG:
                raise TowerOverflowError(j)
            v = math.exp(v)
        return v
    v = np.asarray(y, dtype=float)
    for j in range(1, m + 1):
        if np.any(v > MAX_EXP_ARG):
            raise TowerOverflowError(j)
        v = np.exp(v)
    return scalar_or_array(v)


def _h_chain(m, y):
    """[H_0(y), ..., H_m(y)] with a domain check at every level."""
    v = np.asarray(y, dtype=float)
    chain = [v]
    for j in range(m):
        if np.any(chain[-1] <= 0.0):
            raise TowerDomainError(j)
        chain.append(np.log(chain[-1]))
    return chain


def h_tower(m, y):
    """H_m(y): m-fold iterated logarithm, inverse of g_tower."""
    m = check_height(m)
    v = _h_chain(m, y)[-1]
    return scalar_or_array(v)


def _h_derivative_chains(m, t):
    """Value and derivative chains (H_j, H'_j, H''_j, H'''_j) for j = 0..m.

    Built from the product identities
        H'_m  = prod_{j<m} 1/H_j,
        H''_m = -H'_m sum_{j<m} H'_j/H_j,
        H'''_m = -H''_m sum_{j<m} H'_j/H_j
                 + H'_m sum_{j<m} [(H'_j/H_j)^2 - H''_j/H_j].
    """
    H = _h_chain(m, t)
    one = np.ones_like(H[0])
    Hp = [one]
    Hpp = [np.zeros_like(H[0])]
    Hppp = [np.zeros_like(H[0])]
    s1 = np.zeros_like(H[0])   # sum H'_j/H_j over j < current
    s2 = np.zeros_like(H[0])   # sum [(H'_j/H_j)^2 - H''_j/H_j]
    for j in range(m):
        q = Hp[j] / H[j]
        s1 = s1 + q
        s2 = s2 + q * q - Hpp[j] / H[j]
        Hp.append(Hp[j] / H[j])
        Hpp.append(-Hp[j + 1] * s1)
        Hppp.append(-Hpp[j + 1] * s1 + Hp[j + 1] * s2)
    return H, Hp, Hpp, Hppp


def h_deriv(m, k, t):
    """k-th derivative of H_m at t, k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    m = check_height(m)
    _, Hp, Hpp, Hppp = _h_derivative_chains(m, t)
    v = (Hp, Hpp, Hppp)[k - 1][m]
    return scalar_or_array(v)


def g_deriv(m, k, y):
    """k-th derivative of G_m at y, k in {1, 2, 3}, for a tower height m >= 1 (check_height).

    Chain rule gives G'_m = prod_{j=1..m} G_j; higher orders follow from
    differentiating the recursion G'_m = G_m G'_{m-1}.
    """
    if k not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    m = check_height(m)
    if m < 1:
        raise ValueError("tower height must be >= 1 for derivatives")
    return scalar_or_array(_g_levels(m, np.asarray(y, dtype=float))[k])


def _g_levels(m, v):
    """(G_m, G'_m, G''_m, G'''_m) at the array v for a height m >= 0 (G'_0 = 1).

    The level recursion G_j = exp(G_{j-1}) is differentiated level by level:
    G'_j = G_j G'_{j-1}, G''_j = G'_j G'_{j-1} + G_j G''_{j-1}, and so on.
    """
    G = v
    Gp = np.ones_like(v)
    Gpp = np.zeros_like(v)
    Gppp = np.zeros_like(v)
    for j in range(1, m + 1):
        if np.any(G > MAX_EXP_ARG):
            raise TowerOverflowError(j)
        Gj = np.exp(G)
        Gp_new = Gj * Gp
        Gpp_new = Gp_new * Gp + Gj * Gpp
        Gppp_new = Gpp_new * Gp + 2.0 * Gp_new * Gpp + Gj * Gppp
        G, Gp, Gpp, Gppp = Gj, Gp_new, Gpp_new, Gppp_new
    return G, Gp, Gpp, Gppp


def _e1_series(t, x):
    """E_1(x) = -gamma - t - sum_{k>=1} (-x)^k / (k k!) for x = e^t <= 1.

    t and x are both floats or both arrays.  The sum takes _SERIES_TERMS
    terms; where x is subnormal or 0 it is at most x and the value is
    -gamma - t.
    """
    power = 1.0   # (-x)^k / k!
    s = 0.0
    for k in range(1, _SERIES_TERMS + 1):
        power = power * (-x / k)
        s = s + power / k
    return -np.euler_gamma - t - s


def _e1_fraction(x):
    """1 / (e^x E_1(x)) for x > 1, the continued fraction x + 1 - 1/(x + 3 - 4/(x + 5 - ...)).

    x is a float or an array.  The fraction is evaluated backwards from its
    _FRACTION_DEPTH-th level, g = x + 2i - 1 - i^2 / g for i = _FRACTION_DEPTH
    down to 1, which damps the rounding of each level; a forward (Lentz)
    evaluation keeps it, up to 39 eps just above x = 1.
    """
    g = x + (2 * _FRACTION_DEPTH + 1)
    for i in range(_FRACTION_DEPTH, 0, -1):
        g = x + (2 * i - 1) - i * i / g
    return g


def f_tail_log(t):
    """log F(t) = log E_1(e^t), valid far past the underflow point of F.

    A float t (np.float64 included) is evaluated in floats and gives a float,
    without numpy's per-call overhead: the Brent iterations of
    f_tail_inverse_log call it so.
    """
    if isinstance(t, float):
        if t <= 0.0:
            return math.log(_e1_series(t, math.exp(t)))
        if t > MAX_EXP_ARG:
            return -math.inf
        x = math.exp(t)   # NaN lands here and stays NaN
        return -x - math.log(_e1_fraction(x))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.full_like(ts, -np.inf)   # past MAX_EXP_ARG
    low = ts <= 0.0
    out[low] = np.log(_e1_series(ts[low], np.exp(ts[low])))
    mid = ~low & ~(ts > MAX_EXP_ARG)   # and NaN, which stays NaN
    x = np.exp(ts[mid])
    out[mid] = -x - np.log(_e1_fraction(x))
    return scalar_or_array(out.reshape(np.shape(t)))


def f_tail(t):
    """F(t) = integral_t^inf exp(-e^s) ds; underflows smoothly to 0 for large t."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(ts)   # past MAX_EXP_ARG
    low = ts <= 0.0
    out[low] = _e1_series(ts[low], np.exp(ts[low]))
    mid = ~low & ~(ts > MAX_EXP_ARG)   # and NaN, which stays NaN
    x = np.exp(ts[mid])
    out[mid] = np.exp(-x) / _e1_fraction(x)
    return scalar_or_array(out.reshape(np.shape(t)))


def f_tail_inverse_log(log_x):
    """Solve log F(t) = log_x for t: a bracket search, then Brent's method."""
    target = float(log_x)
    # initial guess: for t >> 1, log F ~ -e^t; for t << 0, F ~ -t
    if target < -2.0:
        t = math.log(-target)
    elif target > 0.5:
        t = -math.exp(target)
    else:
        t = 0.0
    lo, hi = t - 1.0, t + 1.0
    for _ in range(200):
        if f_tail_log(lo) >= target:
            break
        lo -= max(1.0, 0.5 * abs(lo))
    for _ in range(200):
        if f_tail_log(hi) <= target:
            break
        hi += max(1.0, 0.5 * abs(hi))
    if not (f_tail_log(lo) >= target >= f_tail_log(hi)):
        raise ValueError("f_tail_inverse: requested value out of range")
    return brent(lambda x: f_tail_log(x) - target, lo, hi)


def f_tail_inverse(x):
    """Inverse of f_tail on (0, inf); strictly decreasing."""
    x = float(x)
    if x <= 0.0 or not math.isfinite(x):
        raise ValueError("f_tail_inverse requires a finite x > 0")
    return f_tail_inverse_log(math.log(x))
