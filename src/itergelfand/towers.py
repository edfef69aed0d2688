"""Iterated exponential/logarithm towers and the Gelfand tail integral.

The towers are G_0(y) = y, G_m(y) = exp(G_{m-1}(y)) and their inverses
H_0(y) = y, H_m(y) = ln(H_{m-1}(y)).  The tail integral

    F(t) = integral_t^inf exp(-e^s) ds = E_1(e^t)

is evaluated through the exponential integral, with a log-domain asymptotic
series once E_1 underflows and E_1(x) = -gamma - ln x once x = e^t leaves
the normal double range.  Only the E_1 branch imports scipy (scipy.special),
and only when it runs.  Everything here is pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import brent, scalar_or_array

# exp overflows doubles just above this argument
MAX_EXP_ARG = 709.78
# switch point between scipy's E1 and the log-domain asymptotic series
_E1_ASYMPTOTIC_CUT = 40.0


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


def tower_domain_lower(m):
    """Infimum of the domain of H_m, i.e. G_{m-1}(0)."""
    if m < 0:
        raise ValueError("tower height must be >= 0")
    if m == 0:
        return -math.inf
    return g_tower(m - 1, 0.0)


def g_tower(m, y):
    """G_m(y): m-fold iterated exponential of y.

    A float y (np.float64 included) is evaluated with math.exp and gives a
    float: the shooting right-hand sides call this on every evaluation,
    where numpy's per-call overhead on a 0-d array would dominate.
    """
    if m < 0:
        raise ValueError("tower height must be >= 0")
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
    if m < 0:
        raise ValueError("tower height must be >= 0")
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
    if m < 0:
        raise ValueError("tower height must be >= 0")
    _, Hp, Hpp, Hppp = _h_derivative_chains(m, t)
    v = (Hp, Hpp, Hppp)[k - 1][m]
    return scalar_or_array(v)


def g_deriv(m, k, y):
    """k-th derivative of G_m at y, k in {1, 2, 3}.

    Chain rule gives G'_m = prod_{j=1..m} G_j; higher orders follow from
    differentiating the recursion G'_m = G_m G'_{m-1}.
    """
    if k not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    if m < 1:
        raise ValueError("tower height must be >= 1 for derivatives")
    v = np.asarray(y, dtype=float)
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
    out = (Gp, Gpp, Gppp)[k - 1]
    return scalar_or_array(out)


def _e1_log_series(x):
    """log(E_1(x)) for large x via the asymptotic series e^-x/x sum (-1)^k k!/x^k."""
    x = np.asarray(x, dtype=float)
    s = np.ones_like(x)
    term = np.ones_like(x)
    k = 1
    while True:
        term = term * (-k / x)
        s = s + term
        k += 1
        if np.all(np.abs(term) < 1e-18) or k > 60:
            break
    return -x - np.log(x) + np.log(s)


def _e1_of_exp(t):
    """E_1(e^t) by scipy's exp1, and -gamma - t where e^t is below the normal range.

    There (t < -708.39) E_1(x) = -gamma - ln x + O(x) is exact in doubles,
    while exp1 would see e^t rounded to a subnormal, or to 0 below
    t = -745.13, where it returns inf.
    """
    from scipy.special import exp1
    x = np.exp(t)
    out = -np.euler_gamma - t
    normal = x >= np.finfo(float).tiny
    out[normal] = exp1(x[normal])
    return out


def f_tail_log(t):
    """log F(t) = log E_1(e^t), valid far past the underflow point of F."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(ts)
    big = ts > MAX_EXP_ARG
    out[big] = -np.inf
    mid = ~big & (ts > math.log(_E1_ASYMPTOTIC_CUT))
    if np.any(mid):
        x = np.exp(ts[mid])
        out[mid] = -x - ts[mid] + (_e1_log_series(x) + x + np.log(x))
    lowmask = ~big & ~mid
    if np.any(lowmask):
        out[lowmask] = np.log(_e1_of_exp(ts[lowmask]))
    return scalar_or_array(out.reshape(np.shape(t)))


def f_tail(t):
    """F(t) = integral_t^inf exp(-e^s) ds; underflows smoothly to 0 for large t."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(ts)
    low = ts <= math.log(_E1_ASYMPTOTIC_CUT)
    if np.any(low):
        out[low] = _e1_of_exp(ts[low])
    if np.any(~low):
        out[~low] = np.exp(f_tail_log(ts[~low]))
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
