"""Corrector construction: the decaying solution of the linearized profile equation.

The singular ansatz needs a correction eta solving

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
d J / d lam instead.  The same sweep at lam = n-2 gives eta_t.  Picard
iteration from eta = 0 converges because the weighted Lipschitz constant of
F decays at the left endpoint T.

All forcing evaluations keep the nonlinearity in factored form built from
expm1/log1p, never forming exp(-2t + e^w) as a difference of large numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .numerics import panel_nodes, scalar_or_array, subdivide
from .towers import _h_derivative_chains


class PicardConvergenceError(RuntimeError):
    """Raised when the corrector iteration fails to contract."""


@dataclass(frozen=True)
class PsiKernel:
    """Characteristic roots lam_pm of the corrector operator and the panel width they allow."""

    n: int
    lam_plus: complex | float
    lam_minus: complex | float
    h_cap: float

    @classmethod
    def for_dimension(cls, n):
        if n < 3:
            raise ValueError("dimension must be >= 3")
        if n <= 9:
            a, b = 0.5 * (n - 2), 0.5 * math.sqrt((n - 2) * (10 - n))
            # panels also stay under an eighth of the oscillation period 2 pi / b
            return cls(n, complex(a, b), complex(a, -b),
                       min(1.0, 2.0 / (n - 2), math.pi / (4.0 * b)))
        d = math.sqrt((n - 2) * (n - 10))
        return cls(n, 0.5 * ((n - 2) + d), 0.5 * ((n - 2) - d), 2.0 / (n - 2))

    @property
    def damping(self):
        return 0.5 * (self.n - 2)

    @property
    def freq(self):
        """Imaginary part of lam_+; zero for n >= 10."""
        return self.lam_plus.imag

    @property
    def tail_constant(self):
        """C with |integral tail| <= C * sup s^2|F| / t_max^2."""
        if self.freq:
            return 1.0 / (self.damping * self.freq)
        return 1.0 / (2.0 * (self.n - 2))


def _node_count(T, t_max):
    """Default grid size for the corrector window [T, t_max]."""
    return max(320, int(math.ceil(T * math.log(t_max / T) / 0.16)))


@dataclass
class EtaSpaceConfig:
    """Numerical policy for the weighted-space fixed point solve."""

    T: float | None = None
    t_max: float | None = None
    M: float | None = None
    tol: float = 1e-11
    max_iter: int = 60
    n_nodes: int | None = None

    def resolved(self, m):
        T = self.T if self.T is not None else (30.0 if m <= 1 else 60.0)
        if T < 1.0:
            raise ValueError("T must be >= 1")
        t_max = self.t_max if self.t_max is not None else max(4.0 * T, 200.0)
        if t_max < 4.0 * T:
            raise ValueError("t_max must be >= 4*T")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.M is not None and self.M <= 0:
            raise ValueError("M must be positive")
        n_nodes = self.n_nodes or _node_count(T, t_max)
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
    tail_bound: float
    contraction_ratios: list = field(default_factory=list)

    @property
    def sup_weighted(self):
        return float(np.max(self.grid ** 2 * np.abs(self.eta)))


def phi_m1(n, t):
    """Ansatz shift for the plain exp(e^u) case and its first two derivatives.

    phi(t) = ln((n-2)/t) + ln(1 + ln t / (2t)), valid for t > 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 1.0):
        raise ValueError("phi is used for t > 1")
    lnt = np.log(t)
    phi = math.log(n - 2) - lnt + np.log1p(lnt / (2.0 * t))
    phi_t = -1.0 / t + (1.0 - lnt) / (t * (2.0 * t + lnt))
    num = (4.0 * t + 1.0 + lnt) * (2.0 * t + 2.0 * lnt - 1.0) \
        - 2.0 * (t + 1.0) * (2.0 * t + lnt)
    phi_tt = num / (t ** 2 * (2.0 * t + lnt) ** 2)
    return scalar_or_array(phi), scalar_or_array(phi_t), scalar_or_array(phi_tt)


def phi_m(n, m, t):
    """Ansatz shift ln(2(n-2) H'_m(2t)) for tower height m >= 2, with derivatives.

    Computed through the telescoping sum ln(2(n-2)) - sum_j ln(H_j(2t)) so no
    near-cancelling logs of products appear.
    """
    if m < 2:
        raise ValueError("phi_m is defined for m >= 2; use phi_m1 for m = 1")
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
    return scalar_or_array(phi), scalar_or_array(phi_t), scalar_or_array(phi_tt)


class _ForcingM1:
    """Forcing F(t, eta) of the corrector equation at tower height 1.

    Precomputes the eta-independent pieces on a fixed set of t values.
    """

    def __init__(self, n, t):
        t = np.asarray(t, dtype=float)
        phi, phi_t, phi_tt = phi_m1(n, t)
        lnt = np.log(t)
        self.z = 2.0 * t + phi
        # e^phi in exact product form
        self.ephi = (n - 2) / t * (1.0 + lnt / (2.0 * t))
        f_t = (2.0 + phi_t) / self.z
        f_tt = phi_tt / self.z - f_t * f_t
        self.F0 = self.ephi + f_tt - (n - 2) * f_t
        self.F1 = self.ephi * self.z - 2.0 * (n - 2)

    def pieces(self, eta):
        eta = np.asarray(eta, dtype=float)
        em1 = np.expm1(eta)
        F2 = self.ephi * (em1 - eta) * self.z
        X = em1 * self.z
        F3 = self.ephi * (np.expm1(X) - X)
        return self.F0, self.F1 * eta, F2, F3

    def total(self, eta):
        F0, F1eta, F2, F3 = self.pieces(eta)
        return F0 + F1eta + F2 + F3


class _ForcingM:
    """Forcing F(t, eta) for tower heights m >= 2.

    Uses the inverse-function identity G'_m(H_m(z)) = 1/H'_m(z) and the
    telescoped ratio H'_m(2t)/H'_m(z) = exp(sum_j r_j), which remove every
    cancellation-prone difference of tower values.
    """

    def __init__(self, n, m, t):
        t = np.asarray(t, dtype=float)
        self.m = m
        phi, phi_t, phi_tt = phi_m(n, m, t)
        self.z = 2.0 * t + phi
        H2t, _, _, _ = _h_derivative_chains(m, 2.0 * t)
        Hz, Hzp, Hzpp, _ = _h_derivative_chains(m, self.z)
        self.Hz = Hz
        self.Q = 1.0 / Hzp[m]
        self.ephi = 2.0 * (n - 2) * (1.0 / np.prod([H2t[j] for j in range(m)], axis=0))
        # expm1(sum r_j) with r_0 = log1p(phi/2t), r_{j} = log1p(r_{j-1}/H_j(2t))
        r = np.log1p(phi / (2.0 * t))
        total = np.array(r, copy=True)
        for j in range(1, m):
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

    def rho(self, eta):
        """Quadratic Taylor remainder of G_m around H_m(z)."""
        return self._taylor_increment(eta) - self.Q * np.asarray(eta, dtype=float)

    def pieces(self, eta):
        eta = np.asarray(eta, dtype=float)
        D = self._taylor_increment(eta)
        rho = D - self.Q * eta
        F2 = self.ephi * ((np.expm1(D) - D) + rho)
        return self.F0, self.F1 * eta, F2

    def total(self, eta):
        F0, F1eta, F2 = self.pieces(eta)
        return F0 + F1eta + F2


def make_forcing(n, m, t):
    if m == 1:
        return _ForcingM1(n, t)
    if m >= 2:
        return _ForcingM(n, m, t)
    raise ValueError("forcing requires tower height >= 1")


class _QuadPlan:
    """Panelized Gauss rule on a grid with kernel factors anchored at interval left ends."""

    def __init__(self, grid, kernel):
        self.grid = np.asarray(grid, dtype=float)
        self.kernel = kernel
        edges, self.owner = subdivide(self.grid, kernel.h_cap)
        self.nodes, self.weights = panel_nodes(edges)
        self.tau = self.nodes - self.grid[self.owner][:, None]
        self.h = np.diff(self.grid)
        self.K = {lam: np.exp(-lam * self.tau)
                  for lam in (kernel.lam_plus, kernel.lam_minus, kernel.n - 2)}

    def interval_integrals(self, K, Fq):
        """integral over each grid interval of K(s) Fq(s), K real or complex."""
        vals = np.sum(self.weights * K * Fq, axis=1)
        out = np.bincount(self.owner, weights=vals.real, minlength=len(self.h))
        if np.iscomplexobj(vals):
            out = out + 1j * np.bincount(self.owner, weights=vals.imag, minlength=len(self.h))
        return out

    def sweep(self, lam, Fq):
        """J_i = P_i + e^{-lam h_i} J_{i+1}: integral_{t_i}^{t_max} e^{-lam (s - t_i)} F(s) ds."""
        P = self.interval_integrals(self.K[lam], Fq).tolist()
        decay = np.exp(-lam * self.h).tolist()
        J = [0.0] * len(self.grid)
        for i in range(len(self.h) - 1, -1, -1):
            J[i] = P[i] + decay[i] * J[i + 1]
        return np.array(J)

    def apply_psi(self, Fq):
        """Psi[eta] on the grid given forcing values Fq at the quadrature nodes."""
        k = self.kernel
        if k.lam_plus == k.lam_minus:
            # n = 10: the difference quotient becomes dJ/dlam, kernel -tau e^{-lam tau}
            lam = k.lam_plus
            J = self.sweep(lam, Fq).tolist()
            P = self.interval_integrals(-self.tau * self.K[lam], Fq).tolist()
            h = self.h.tolist()
            decay = np.exp(-lam * self.h).tolist()
            dJ = [0.0] * len(self.grid)
            for i in range(len(h) - 1, -1, -1):
                dJ[i] = P[i] + decay[i] * (dJ[i + 1] - h[i] * J[i + 1])
            return np.array(dJ)
        J_plus = self.sweep(k.lam_plus, Fq)
        J_minus = J_plus.conj() if k.freq else self.sweep(k.lam_minus, Fq)
        return ((J_plus - J_minus) / (k.lam_plus - k.lam_minus)).real

    def apply_gkernel(self, Gq):
        """-(integral of e^{(n-2)(t-s)} g(s) ds) on the grid: the eta_t representation."""
        return -self.sweep(self.kernel.n - 2, Gq)


def _solve_on_grid(n, m, cfg, T, t_usable, t_max, n_nodes):
    """Picard iteration on one geometric grid; returns (EtaSolution or None, defects)."""
    grid = np.geomspace(T, t_max, n_nodes)
    grid[0], grid[-1] = T, t_max
    kernel = PsiKernel.for_dimension(n)
    plan = _QuadPlan(grid, kernel)
    forcing = make_forcing(n, m, plan.nodes)
    Fq = forcing.total(np.zeros_like(plan.nodes))
    M = cfg.M if cfg.M is not None else 2.0 * float(np.max(plan.nodes ** 2 * np.abs(Fq)))
    eta = np.zeros_like(grid)
    defects = []
    ratios = []
    for _ in range(cfg.max_iter):
        eta_new = plan.apply_psi(Fq)
        defect = float(np.max(grid ** 2 * np.abs(eta_new - eta)))
        if defects:
            ratios.append(defect / defects[-1])
        defects.append(defect)
        eta = eta_new
        # F at the current iterate: the next iteration's forcing, or the
        # tail bound once converged
        Fq = forcing.total(CubicSpline(grid, eta)(plan.nodes))
        if defect <= cfg.tol:
            sup_w = float(np.max(grid ** 2 * np.abs(eta)))
            if sup_w > M:
                raise PicardConvergenceError(
                    f"converged iterate left the ball: sup t^2|eta| = {sup_w:.3e} > M = {M:.3e}")
            sup_f = float(np.max(plan.nodes ** 2 * np.abs(Fq)))
            sol = EtaSolution(
                n=n, m=m, config=cfg, grid=grid, eta=eta, eta_t=None,
                iterations=len(defects), final_defect=defect, defects=defects,
                T=T, t_max=t_max, t_usable=t_usable, M=M,
                tail_bound=sup_f * kernel.tail_constant / t_max ** 2,
                contraction_ratios=ratios)
            sol.eta_t = eta_derivative(sol)
            return sol, defects
        if len(ratios) >= 3 and min(ratios[-3:]) >= 0.995:
            break
        if defect > 50.0 * defects[0]:
            break
    return None, defects


def picard_solve(n, m, cfg=None):
    """Construct the corrector for dimension n and tower height m >= 1.

    Iterates eta <- Psi[eta] from eta = 0 on a geometric grid over
    [T, t_max]; if the defect sequence stalls, T is doubled (up to four
    times) and the solve restarts, mirroring the requirement that the
    contraction only holds for T large.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if m < 1:
        raise ValueError("tower height must be >= 1 for the corrector")
    cfg = cfg if cfg is not None else EtaSpaceConfig()
    T, t_usable, n_nodes = cfg.resolved(m)
    pad = cfg.pad(n)
    for _ in range(5):
        t_max = t_usable + pad
        n_solve = max(n_nodes, int(math.ceil(n_nodes * math.log(t_max / T)
                                             / math.log(t_usable / T))))
        sol, defects = _solve_on_grid(n, m, cfg, T, t_usable, t_max, n_solve)
        if sol is not None:
            return sol
        T *= 2.0
        t_usable = max(4.0 * T, t_usable)
        n_nodes = _node_count(T, t_usable)
    raise PicardConvergenceError(
        f"no contraction after T escalation (n={n}, m={m}); defects={defects}")


def eta_derivative(sol):
    """Corrector derivative via its first-order integral representation.

    eta_t(t) = -integral_t^tmax e^{(n-2)(t-s)} g(s) ds with
    g = -2(n-2) eta - F(t, eta); matches the truncated fixed point exactly.
    """
    plan = _QuadPlan(sol.grid, PsiKernel.for_dimension(sol.n))
    eta_q = CubicSpline(sol.grid, sol.eta)(plan.nodes)
    g_q = -2.0 * (sol.n - 2) * eta_q - make_forcing(sol.n, sol.m, plan.nodes).total(eta_q)
    return plan.apply_gkernel(g_q)

