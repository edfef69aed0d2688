"""Corrector construction: the decaying solution of the linearized profile equation.

The singular profile in log variables is w* = H_m(2t + phi_m) + eta for every
tower height m >= 0: one ansatz shift phi_m (with Miyamoto's extra term
c = ln(1 + ln t / (2t)) at m = 1) and one forcing.  At m = 0 (the Gelfand
oracle e^u) the ansatz is exact and the forcing vanishes at eta = 0, so the
solve returns eta = 0 after one sweep.  The correction eta solves

    eta_tt - (n-2) eta_t + 2(n-2) eta + F(t, eta) = 0,  eta = O(1/t^2),

obtained as the fixed point eta = Psi[eta] of the variation-of-constants
operator of the left-hand side.  Its characteristic roots

    lam_pm = (n-2)/2 +/- sqrt((n-2)(n-10))/2

are a complex pair for 3 <= n <= 9 (the kernel oscillates), a double root at
n = 10 and two real roots for n >= 11.  One formula covers all three:
Psi[F](t) = Re[(J(lam_+) - J(lam_-)) / (lam_+ - lam_-)] with
J(lam)(t) = integral_t^tmax e^{-lam (s-t)} F(s) ds, and every J comes from
the same right-to-left sweep over the grid.  A complex pair needs one sweep,
since J(lam_-) is the conjugate of J(lam_+); the double root takes the limit
d J / d lam instead.  The same sweeps give eta_t: dJ/dt = lam J - F, so
eta_t = Re[(lam_+ J(lam_+) - lam_- J(lam_-)) / (lam_+ - lam_-)], and at the
double root eta_t = J + lam dJ/dlam.  Picard iteration from eta = 0
converges because the weighted Lipschitz constant of F decays at the left
endpoint T.

All forcing evaluations keep the nonlinearity in factored form built from
expm1/log1p, never forming exp(-2t + e^w) as a difference of large numbers.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import hermite, panel_nodes, scalar_or_array
from .towers import (TowerDomainError, _h_derivative_chains, check_height, h_tower,
                     tower_domain_lower)


class PicardConvergenceError(RuntimeError):
    """Raised when the corrector iteration fails to contract."""


@dataclass(frozen=True)
class PsiKernel:
    """Characteristic roots lam_pm of the corrector operator."""

    n: int
    lam_plus: complex | float
    lam_minus: complex | float

    @classmethod
    def for_dimension(cls, n):
        check_dimension(n)
        if n <= 9:
            a, b = 0.5 * (n - 2), 0.5 * math.sqrt((n - 2) * (10 - n))
            return cls(n, complex(a, b), complex(a, -b))
        d = math.sqrt((n - 2) * (n - 10))
        return cls(n, 0.5 * ((n - 2) + d), 0.5 * ((n - 2) - d))

    @property
    def freq(self):
        """Imaginary part of lam_+; zero for n >= 10."""
        return self.lam_plus.imag


def check_dimension(n):
    """A ValueError naming n unless it is a finite dimension >= 3."""
    if not 3 <= n < math.inf:
        raise ValueError(f"dimension n must be finite and >= 3, got n = {n!r}")


# most points a construction may allocate: the descent samples below the
# handoff (about 100 T, singular.SAMPLE_STEP apart) and the corrector's Gauss
# nodes (12 per grid interval).  Near the cap, build_singular(3, 1) takes about
# 1.3 s and 260 MB peak RSS at t_max = 8.8e4, and 3.5 s and 480 MB at T = 9600,
# on a 2-vCPU host.
MAX_POINTS = 10 ** 6

# widest |lam_+| h of a corrector grid interval, which is one 12-node Gauss
# panel: up to it the panel integrates the kernel e^{-lam tau} to rounding.
# Every default window stays below it (at most 8.04, at n = 12, m = 1).
KERNEL_WIDTH = 12.0


def _grid_size(n, T, t_max, n_nodes):
    """Nodes of the geometric corrector grid on [T, t_max]: n_nodes, raised where the
    last and widest interval would be wider than KERNEL_WIDTH / |lam_+|."""
    x = KERNEL_WIDTH / (abs(PsiKernel.for_dimension(n).lam_plus) * t_max)
    if x >= 1.0:
        return n_nodes
    # the last interval is t_max (1 - (T / t_max)^(1 / (N - 1)))
    need = math.log(t_max / T) / -math.log1p(-x)
    return max(n_nodes, 1 + math.ceil(need))


@functools.cache
def _h_defined(m, y):
    """Whether H_m(y) is defined in floats: H_0(y), ..., H_{m-1}(y) all > 0.

    Cached: every branch shot that descends resolves the default window.
    """
    try:
        h_tower(m, y)
    except TowerDomainError:
        return False
    return True


@dataclass
class EtaSpaceConfig:
    """Numerical policy for the weighted-space fixed point solve."""

    T: float | None = None
    t_max: float | None = None
    tol: float = 1e-11
    max_iter: int = 60
    n_nodes: int | None = None

    def resolved(self, m, n=None):
        """(T, t_max, n_nodes) of the window at tower height m, refusing bad or oversized ones.

        Given the dimension n, n_nodes is the size of the grid the solve builds
        on [T, t_max + pad(n)]: the geometric count of [T, t_max] rescaled to
        the padded window, raised by _grid_size.  Without n it is the count of
        [T, t_max], which no dimension's grid falls below.  The grid's
        12 (n_nodes - 1) Gauss nodes meet MAX_POINTS.
        """
        # each check is written so that a NaN fails it
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.n_nodes is not None and not (isinstance(self.n_nodes, numbers.Integral)
                                             and self.n_nodes >= 2):
            raise ValueError(f"n_nodes must be None or an integer >= 2, got {self.n_nodes!r}")
        T = self.T if self.T is not None else (30.0 if m <= 1 else 60.0)
        if not T >= 1.0 or (m == 1 and T == 1.0):
            raise ValueError("T must be >= 1, and > 1 at m = 1, whose ansatz shift "
                             "is defined for t > 1")
        # H_m(2T) needs T > G_{m-1}(0) / 2: e/2 at m = 3, 7.58 at m = 4, 1.9e6 at m = 5
        try:
            floor = 0.5 * tower_domain_lower(m)
        except OverflowError:
            raise ValueError(f"T = {T:g} is refused at m = {m}: the ansatz H_{m}(2T) is "
                             f"defined only for T > G_{m - 1}(0) / 2, which is not a double"
                             ) from None
        # a T a few ulps above the floor can still round H_{m-1}(2T) to 0
        if T <= floor or not _h_defined(m, 2.0 * T):
            raise ValueError(f"T = {T:g} is not above G_{m - 1}(0) / 2 = {floor:.6g} by more "
                             f"than rounding: the ansatz H_{m}(2T) of height m = {m} is "
                             f"defined only where H_{m - 1}(2T) > 0")
        if 100.0 * T > MAX_POINTS:
            raise ValueError(f"T = {T:g} asks for about {100.0 * T:.3g} descent samples, "
                             f"more than {MAX_POINTS:.0e}")
        t_max = self.t_max if self.t_max is not None else max(4.0 * T, 200.0)
        if not t_max >= 4.0 * T:
            raise ValueError("t_max must be >= 4*T")
        # the kernel bound alone puts more than 0.16 t_max intervals on [T, t_max]
        # (|lam_+| >= sqrt(2)), so this refuses no window the count would accept
        if t_max > MAX_POINTS:
            raise ValueError(f"t_max = {t_max:g} asks for more than {MAX_POINTS:.0e} "
                             f"quadrature nodes")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        # the default grid is spaced 0.16 at t = T
        n_nodes = self.n_nodes or max(320, int(math.ceil(T * math.log(t_max / T) / 0.16)))
        if n is not None:
            t_end = t_max + self.pad(n)
            n_nodes = _grid_size(n, T, t_end, math.ceil(
                n_nodes * math.log(t_end / T) / math.log(t_max / T)))
        gauss = 12 * (n_nodes - 1)
        if gauss > MAX_POINTS:
            raise ValueError(f"the corrector on [T, t_max] = [{T:g}, {t_max:g}] asks for "
                             f"{gauss:.3g} quadrature nodes, more than {MAX_POINTS:.0e}")
        return T, t_max, n_nodes

    def pad(self, n):
        # buffer past t_max so the truncation boundary layer (decay rate
        # (n-2)/2) sits outside the exposed window
        return 5.0 + 40.0 / (n - 2)


@dataclass
class EtaSolution:
    """Converged corrector on its grid plus convergence metadata.

    The grid extends past t_usable up to t_max so the truncation boundary
    layer of the integral operator stays out of the window handed to
    downstream consumers.
    """

    n: int
    m: int
    config: EtaSpaceConfig
    grid: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray
    iterations: int
    final_defect: float
    defects: list
    T: float
    t_max: float
    t_usable: float
    M: float
    contraction_ratios: list = field(default_factory=list)

    @property
    def sup_weighted(self):
        return float(np.max(self.grid ** 2 * np.abs(self.eta)))


def _ansatz_shift(n, m, t):
    """phi_m and its two derivatives, the chain H_j(2t), and the m = 1 term e^c.

    phi = ln(2(n-2) H'_m(2t)) + c, computed through the telescoping sum
    ln(2(n-2)) - sum_j ln(H_j(2t)) so no near-cancelling logs of products
    appear.  c = ln(1 + ln t / (2t)) at m = 1 (Miyamoto's exp(e^u) ansatz,
    used for t > 1) and 0 otherwise.
    """
    t = np.asarray(t, dtype=float)
    H, Hp, Hpp, _ = _h_derivative_chains(m, 2.0 * t)
    phi = np.full_like(H[0], math.log(2.0 * (n - 2)))
    phi_t = np.zeros_like(H[0])
    phi_tt = np.zeros_like(H[0])
    for j in range(m):
        q = Hp[j] / H[j]
        phi = phi - np.log(H[j])
        phi_t = phi_t - 2.0 * q
        phi_tt = phi_tt + 4.0 * (q * q - Hpp[j] / H[j])
    c, ec = 0.0, 1.0
    if m == 1:
        if np.any(t <= 1.0):
            raise ValueError("the m = 1 ansatz shift is used for t > 1")
        lnt = np.log(t)
        ec = 1.0 + lnt / (2.0 * t)
        c = np.log1p(lnt / (2.0 * t))
        # t (2t + ln t) and its square overflow far up.  With t = mant 2^k, scaling
        # both sides of the phi_t quotient by 2^-k is exact, so it rounds as
        # (1 - ln t) / (t e) does; phi_tt is divided step by step
        e = 2.0 * t + lnt
        mant, k = np.frexp(t)
        phi = phi + c
        phi_t = phi_t + np.ldexp(1.0 - lnt, -k) / (mant * e)
        phi_tt = phi_tt - (e + (1.0 - lnt) * (4.0 * t + 1.0 + lnt)) / e / t / e / t
    return phi, phi_t, phi_tt, H, c, ec


def phi_m(n, m, t):
    """Ansatz shift phi_m(t) of w* = H_m(2t + phi_m) + eta, with its first two derivatives.

    phi_m = ln(2(n-2) H'_m(2t)) for m >= 0, plus c = ln(1 + ln t / (2t)) at
    m = 1, which is then used for t > 1.  At m = 0 the line 2t + phi_0 =
    2t + ln(2(n-2)) is the exact plain-exponential profile.
    """
    m = check_height(m)
    phi, phi_t, phi_tt, _, _, _ = _ansatz_shift(n, m, t)
    return scalar_or_array(phi), scalar_or_array(phi_t), scalar_or_array(phi_tt)


class _ForcingM:
    """Forcing F(t, eta) of the corrector equation for tower heights m >= 0.

    Uses the inverse-function identity G'_m(H_m(z)) = 1/H'_m(z) and the
    telescoped ratio e^c H'_m(2t)/H'_m(z) = exp(c + sum_{j<m} r_j), which
    remove every cancellation-prone difference of tower values.  At m = 0
    F_0 = F_1 = 0 and F_2 = 2(n-2)(e^eta - 1 - eta).
    """

    def __init__(self, n, m, t):
        t = np.asarray(t, dtype=float)
        self.m = m
        phi, phi_t, phi_tt, H2t, c, ec = _ansatz_shift(n, m, t)
        self.z = 2.0 * t + phi
        Hz, Hzp, Hzpp, _ = _h_derivative_chains(m, self.z)
        self.Hz = Hz
        self.Q = 1.0 / Hzp[m]
        self.ephi = 2.0 * (n - 2) * (1.0 / np.prod([H2t[j] for j in range(m)], axis=0)) * ec
        # expm1(c + sum_{j<m} r_j), r_{-1} = phi, r_j = log1p(r_{j-1}/H_j(2t)), H_0(2t) = 2t
        total, r = c, phi
        for j in range(m):
            r = np.log1p(r / H2t[j])
            total = total + r
        ratio_em1 = np.expm1(total)
        self.F1 = 2.0 * (n - 2) * ratio_em1
        self.F0 = (2.0 * (n - 2) * Hzp[m] * ratio_em1
                   - (n - 2) * phi_t * Hzp[m]
                   + Hzpp[m] * (2.0 + phi_t) ** 2
                   + Hzp[m] * phi_tt)

    def _taylor_increment(self, eta):
        """D = G_m(H_m(z) + eta) - z via the level recursion; G_j(H_m(z)) = H_{m-j}(z)."""
        D = np.asarray(eta, dtype=float)
        for j in range(1, self.m + 1):
            D = self.Hz[self.m - j] * np.expm1(D)
        return D

    def pieces(self, eta):
        eta = np.asarray(eta, dtype=float)
        D = self._taylor_increment(eta)
        rho = D - self.Q * eta
        F2 = self.ephi * ((np.expm1(D) - D) + rho)
        return self.F0, self.F1 * eta, F2

    def total(self, eta):
        F0, F1eta, F2 = self.pieces(eta)
        return F0 + F1eta + F2


def _sweep(P, decay):
    """J_i = P_i + decay_i J_{i+1}, right to left from J = 0 at t_max.  With P_i the integral
    of e^{-lam tau} F over interval i and decay_i = e^{-lam h_i}, J_i is J(lam)(t_i)."""
    P, decay = P.tolist(), decay.tolist()
    J = [0.0] * (len(P) + 1)
    for i in range(len(P) - 1, -1, -1):
        J[i] = P[i] + decay[i] * J[i + 1]
    return np.array(J)


class _QuadPlan:
    """One 12-node Gauss panel per grid interval, with kernel factors anchored at its left end.

    It moves an iterate to the quadrature nodes by the cubic Hermite
    interpolant of its (eta, eta_t), which the sweeps give together.
    """

    def __init__(self, grid, kernel):
        self.grid = np.asarray(grid, dtype=float)
        self.kernel = kernel
        self.nodes, self.weights = panel_nodes(self.grid)
        self.tau = self.nodes - self.grid[:-1, None]
        self.h = np.diff(self.grid)
        # a complex pair sweeps lam_+ only: J(lam_-) is its conjugate
        roots = (kernel.lam_plus,) if kernel.freq else (kernel.lam_plus, kernel.lam_minus)
        self.K = {lam: np.exp(-lam * self.tau) for lam in roots}
        self.decay = {lam: np.exp(-lam * self.h) for lam in roots}

    def at_nodes(self, y, y_t):
        """The cubic Hermite interpolant of (grid, y, y_t) at the quadrature nodes."""
        return hermite(self.grid, y, y_t, np.arange(len(self.h))[:, None], self.tau)

    def interval_integrals(self, K, Fq):
        """integral over each grid interval of K(s) Fq(s), K real or complex."""
        return np.sum(self.weights * K * Fq, axis=1)

    def apply_psi(self, Fq):
        """(Psi[eta], its t-derivative) on the grid given forcing values Fq at the quadrature nodes."""
        k = self.kernel
        J = {lam: _sweep(self.interval_integrals(K, Fq), self.decay[lam])
             for lam, K in self.K.items()}
        if k.lam_plus == k.lam_minus:
            # n = 10: the difference quotient becomes dJ/dlam, whose sweep has
            # interval integrals P_i - e^{-lam h_i} h_i J_{i+1} (kernel -tau e^{-lam tau})
            lam = k.lam_plus
            decay = self.decay[lam]
            P = self.interval_integrals(-self.tau * self.K[lam], Fq)
            dJ = _sweep(P - decay * self.h * J[lam][1:], decay)
            return dJ, J[lam] + lam * dJ
        J_plus = J[k.lam_plus]
        J_minus = J_plus.conj() if k.freq else J[k.lam_minus]
        d = k.lam_plus - k.lam_minus
        return (((J_plus - J_minus) / d).real,
                ((k.lam_plus * J_plus - k.lam_minus * J_minus) / d).real)


def _solve_on_grid(n, m, cfg, T, t_usable, n_nodes):
    """Picard iteration on [T, t_max], t_max = t_usable + cfg.pad(n), over the geometric
    grid of _grid_size(n, T, t_max, n_nodes) nodes.

    Returns the EtaSolution, or raises PicardConvergenceError naming n, m, T
    and the last defect when the defect does not reach cfg.tol: it stalls
    (three ratios of successive defects at or above 0.995), grows past 50
    times the first, or cfg.max_iter sweeps run out.
    """
    t_max = t_usable + cfg.pad(n)
    grid = np.geomspace(T, t_max, _grid_size(n, T, t_max, n_nodes))
    grid[0], grid[-1] = T, t_max
    # from t of about 1e14 up, geomspace over a window a few units wide repeats nodes
    if not np.all(np.diff(grid) > 0.0):
        raise PicardConvergenceError(f"the corrector grid on [{T:.6g}, {t_max:.6g}] "
                                     f"is not strictly increasing")
    kernel = PsiKernel.for_dimension(n)
    plan = _QuadPlan(grid, kernel)
    forcing = _ForcingM(n, m, plan.nodes)
    Fq = forcing.total(np.zeros_like(plan.nodes))
    M = 2.0 * float(np.max(plan.nodes ** 2 * np.abs(Fq)))
    eta = np.zeros_like(grid)
    defects = []
    ratios = []
    for _ in range(cfg.max_iter):
        eta_new, eta_t = plan.apply_psi(Fq)
        defect = float(np.max(grid ** 2 * np.abs(eta_new - eta)))
        if defects:
            ratios.append(defect / defects[-1])
        defects.append(defect)
        eta = eta_new
        if defect <= cfg.tol:
            sup_w = float(np.max(grid ** 2 * np.abs(eta)))
            if sup_w > M:
                raise PicardConvergenceError(
                    f"converged iterate left the ball: sup t^2|eta| = {sup_w:.3e} > M = {M:.3e}")
            return EtaSolution(
                n=n, m=m, config=cfg, grid=grid, eta=eta, eta_t=eta_t,
                iterations=len(defects), final_defect=defect, defects=defects,
                T=T, t_max=t_max, t_usable=t_usable, M=M, contraction_ratios=ratios)
        # F at the current iterate: the next iteration's forcing
        Fq = forcing.total(plan.at_nodes(eta, eta_t))
        if len(ratios) >= 3 and min(ratios[-3:]) >= 0.995:
            break
        if defect > 50.0 * defects[0]:
            break
    raise PicardConvergenceError(
        f"the corrector iteration does not contract from T = {T:.6g} (n = {n}, m = {m}): "
        f"the weighted defect is {defects[-1]:.3e} after {len(defects)} sweeps, "
        f"tol {cfg.tol:g}")


def picard_solve(n, m, cfg=None):
    """Construct the corrector for dimension n and tower height m >= 0.

    Iterates eta <- Psi[eta] from eta = 0 on a geometric grid over the
    window [T, t_max] that `EtaSpaceConfig.resolved` gives, once: a solve
    that does not contract there raises PicardConvergenceError, and the
    window is never moved.  At m = 0 the first sweep gives eta = 0.
    """
    check_dimension(n)
    m = check_height(m)
    cfg = cfg if cfg is not None else EtaSpaceConfig()
    T, t_usable, n_nodes = cfg.resolved(m, n)
    return _solve_on_grid(n, m, cfg, T, t_usable, n_nodes)
