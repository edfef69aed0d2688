"""Assembly of the singular solution: ansatz plus corrector, then downward integration.

The profile equation in log variables is

    w_tt - (n-2) w_t + exp(-2t + G_m(w)) = 0,

with w > 0 to the right of its zero crossing t_star and lambda_star =
exp(-2 t_star).  The corrector solve supplies (w, w_t) deep in the tail;
a DOP853 descent with the package's own solve_ivp (itergelfand.rk) locates
the crossing as a terminal event.  The same descent finishes every regular
branch shot (branch.shoot_regular).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .corrector import EtaSolution, EtaSpaceConfig, phi_m1, phi_m, picard_solve
from .numerics import differentiate, scalar_or_array
from .rk import solve_ivp
from .towers import MAX_EXP_ARG, _h_derivative_chains, g_tower
from .transform import LogProfile


# the descent starts this far above the left end of the corrector window
HANDOFF_OFFSET = 5.0
# spacing of the descent samples kept below the handoff
SAMPLE_STEP = 0.01


class DescentError(RuntimeError):
    """The profile equation has no usable solution: no zero crossing on the
    descent, or a force exp(G_m(w) - 2t) outside the double range."""


@dataclass
class SingularSolution:
    """Constructed singular solution (lambda_star, profile) with its corrector."""

    n: int
    m: int
    t_star: float
    lambda_star: float
    profile: LogProfile
    eta: EtaSolution | None
    handoff_t: float
    monotone: bool

    def eval_w_dense(self, t):
        """w*(t) with the closed-form ansatz evaluated exactly above the handoff.

        Interpolation error then only enters through the corrector, which is
        orders of magnitude smaller than the profile itself; below the
        handoff the densely sampled descent profile is queried instead.
        """
        shape = np.shape(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        hi = (t >= self.handoff_t) & (t <= self.eta.grid[-1]) if self.eta is not None \
            else np.zeros(t.shape, dtype=bool)
        if np.any(hi):
            if not hasattr(self, "_eta_interp"):
                self._eta_interp = PchipInterpolator(self.eta.grid, self.eta.eta,
                                                     extrapolate=False)
            f, _ = ansatz_terms(self.n, self.m, t[hi])
            out[hi] = f + self._eta_interp(t[hi])
        if np.any(~hi):
            out[~hi] = self.profile.eval_w(t[~hi])
        return scalar_or_array(out.reshape(shape))


def log_force(n, m, t, w):
    """exp(G_m(w) - 2t) on sample arrays, with the exponent formed before exponentiation.

    Raises DescentError naming the first t where the exponent exceeds
    MAX_EXP_ARG, where the force is not a double.
    """
    t = np.asarray(t, dtype=float)
    expo = g_tower(m, w) - 2.0 * t
    over = np.flatnonzero(expo > MAX_EXP_ARG)
    if len(over):
        i = over[0]
        raise DescentError(f"exp(G_m(w) - 2t) overflows at t = {t[i]:.6g}: "
                           f"the exponent is {expo[i]:.6g} > {MAX_EXP_ARG}")
    return np.where(expo > -745.0, np.exp(expo), 0.0)


def _zero_eta(n, m, T, t_max):
    grid = np.geomspace(T, t_max, 400)
    z = np.zeros_like(grid)
    return EtaSolution(n=n, m=m, config=EtaSpaceConfig(T=T, t_max=t_max),
                       grid=grid, eta=z, eta_t=z.copy(), iterations=0,
                       final_defect=0.0, defects=[0.0], T=T, t_max=t_max,
                       t_usable=t_max, M=1.0, tail_bound=0.0)


def ansatz_terms(n, m, t):
    """(f, f_t) of the pure ansatz at tower height m.

    m = 0 is the plain-exponential oracle with the exact line
    2t + ln(2(n-2)); m = 1 uses ln(2t + phi); m >= 2 uses H_m(2t + phi)
    with f_t = H'_m(2t + phi)(2 + phi_t).
    """
    t = np.asarray(t, dtype=float)
    if m == 0:
        return 2.0 * t + math.log(2.0 * (n - 2)), np.full_like(t, 2.0)
    if m == 1:
        phi, phi_t, _ = phi_m1(n, t)
        z = 2.0 * t + phi
        return np.log(z), (2.0 + phi_t) / z
    phi, phi_t, _ = phi_m(n, m, t)
    z = 2.0 * t + phi
    H, Hp, _, _ = _h_derivative_chains(m, z)
    return H[m], Hp[m] * (2.0 + phi_t)


def assemble_w(n, m, eta_sol):
    """Profile w = ansatz + corrector on the corrector grid."""
    sel = eta_sol.grid <= eta_sol.t_usable
    t = eta_sol.grid[sel]
    f, f_t = ansatz_terms(n, m, t)
    return LogProfile(t, f + eta_sol.eta[sel], f_t + eta_sol.eta_t[sel])


def descend(n, m, t, w, w_t, rtol, atol, t_floor=-10.0, *, dense_output):
    """Integrate the profile equation from (t, w, w_t) down to the first zero of w.

    One DOP853 pass towards t_floor with a terminal zero event, which the
    package's solve_ivp (itergelfand.rk) locates by Brent's method on the
    interpolant of the step that contains it.  Returns (t_zero, sol); sol.sol
    is the dense output only when dense_output is set.  integrate_down and
    the log-variable phase of branch.shoot_regular both run through it.  A
    trial step whose force exp(G_m(w) - 2t) leaves the double range raises
    DescentError.
    """
    c = n - 2

    def rhs(tt, y):
        expo = g_tower(m, y[0]) - 2.0 * tt
        f = math.exp(expo) if expo > -745.0 else 0.0
        return [y[1], c * y[1] - f]

    def crossing(tt, y):
        return y[0]
    crossing.terminal = True

    try:
        sol = solve_ivp(rhs, (t, t_floor), [w, w_t], rtol=rtol, atol=atol,
                        dense_output=dense_output, events=crossing)
    except OverflowError as exc:
        raise DescentError(f"the descent from t = {t:.6g} left the double range "
                           f"({exc})") from exc
    if len(sol.t_events[0]) == 0:
        raise DescentError(f"no zero of w above t = {t_floor} on the descent "
                           f"from t = {t:.6g} ({sol.message})")
    return float(sol.t_events[0][0]), sol


def integrate_down(profile, n, m, t_floor=-10.0, rtol=1e-12, atol=1e-14):
    """Integrate the profile equation downward to the first zero of w.

    Starts at the first profile node past t_min + HANDOFF_OFFSET (interior
    of the corrector's validity range) and returns (t_star, extended
    profile) where the extension carries integrator samples, SAMPLE_STEP
    apart, below the handoff and the original samples above it.
    """
    t_hand_target = profile.t_min + HANDOFF_OFFSET
    idx = int(np.searchsorted(profile.t, t_hand_target))
    if idx >= len(profile.t):
        raise ValueError("profile too short for the requested handoff")
    t_hand = float(profile.t[idx])
    y0 = [float(profile.w[idx]), float(profile.w_t[idx])]
    if y0[0] <= 0.0:
        raise DescentError(
            f"w = {y0[0]:.6g} <= 0 at the handoff t = {t_hand:.6g}; the descent "
            f"to the first zero of w needs w > 0 where it starts")

    t_star, sol = descend(n, m, t_hand, y0[0], y0[1], rtol, atol, t_floor,
                          dense_output=True)

    ts = np.arange(t_star, t_hand, SAMPLE_STEP)
    ts[0] = t_star
    states = sol.sol(ts)
    keep = profile.t > t_hand + 1e-12
    t_all = np.concatenate([ts, [t_hand], profile.t[keep]])
    w_all = np.concatenate([states[0], [y0[0]], profile.w[keep]])
    wt_all = np.concatenate([states[1], [y0[1]], profile.w_t[keep]])
    # enforce exact zero at the located crossing
    w_all[0] = 0.0
    extended = LogProfile(t_all, w_all, wt_all)
    return t_star, extended


def build_singular(n, m, cfg=None):
    """Full pipeline: corrector solve, ansatz assembly, downward descent.

    m = 0 selects the plain-exponential oracle nonlinearity, for which the
    ansatz is exact and the corrector vanishes identically.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if m < 0:
        raise ValueError("tower height must be >= 0")
    cfg = cfg if cfg is not None else EtaSpaceConfig()
    if m == 0:
        T, t_max, _ = cfg.resolved(1)
        eta_sol = _zero_eta(n, 0, T, t_max)
    else:
        eta_sol = picard_solve(n, m, cfg)
    prof = assemble_w(n, m, eta_sol)
    t_star, extended = integrate_down(prof, n, m)
    lam = math.exp(-2.0 * t_star)
    monotone = bool(np.all(extended.w_t[extended.t > t_star + 1e-9] > 0.0))
    return SingularSolution(n=n, m=m, t_star=t_star, lambda_star=lam,
                            profile=extended, eta=eta_sol,
                            handoff_t=prof.t_min + HANDOFF_OFFSET, monotone=monotone)


def ode_residual(profile, n, m):
    """Max relative defect of the profile equation over the sampled profile.

    w_tt is re-derived from the carried w_t samples by sliding finite
    difference stencils, so the measurement is independent of the equation
    being checked; the defect is normalized pointwise by the largest term.
    """
    t, w, w_t = profile.t, profile.w, profile.w_t
    w_tt = differentiate(t, w_t, order=1, stencil=7)
    force = log_force(n, m, t, w)
    res = w_tt - (n - 2) * w_t + force
    scale = np.maximum.reduce([np.abs(w_tt), (n - 2) * np.abs(w_t),
                               np.abs(force)])
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(res) / scale))
