"""Assembly of the singular solution: ansatz plus corrector, then downward integration.

The profile equation in log variables is

    w_tt - (n-2) w_t + exp(-2t + G_m(w)) = 0,

with w > 0 to the right of its zero crossing t_star and lambda_star =
exp(-2 t_star).  The corrector solve supplies (w, w_t) deep in the tail;
a DOP853 descent with the package's own solve_ivp (itergelfand.rk), told to
stop where w crosses 0, locates the crossing.  The same descent continues
each regular branch shot (branch.shoot_regular) below its inner phase, as
far down as that shot needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrector import HANDOFF_OFFSET, EtaSolution, check_dimension, phi_m, picard_solve
from .numerics import differentiate
from .rk import acceleration, solve_ivp
from .towers import MAX_EXP_ARG, _h_derivative_chains, check_height, g_tower
from .transform import LogProfile


# spacing of the descent samples kept below the handoff
SAMPLE_STEP = 0.01
# the descent looks for the zero of w down to this t
FLOOR = -10.0


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
    eta: EtaSolution
    handoff_t: float
    monotone: bool


def ansatz_terms(n, m, t):
    """(f, f_t) of the pure ansatz f = H_m(2t + phi_m), f_t = H'_m(2t + phi_m)(2 + phi_t).

    At m = 0 (the plain-exponential oracle) f is the exact line
    2t + ln(2(n-2)).
    """
    phi, phi_t, _ = phi_m(n, m, t)
    H, Hp, _, _ = _h_derivative_chains(m, 2.0 * np.asarray(t, dtype=float) + phi)
    return H[m], Hp[m] * (2.0 + phi_t)


def assemble_w(n, m, eta_sol):
    """Profile w = ansatz + corrector on the corrector grid."""
    sel = eta_sol.grid <= eta_sol.t_usable
    t = eta_sol.grid[sel]
    f, f_t = ansatz_terms(n, m, t)
    return LogProfile(t, f + eta_sol.eta[sel], f_t + eta_sol.eta_t[sel])


def descend(n, m, t, w, w_t, rtol, atol, t_floor=FLOOR, *, dense_output, stop_at_floor=False):
    """Integrate the profile equation from (t, w, w_t) down to the first zero of w.

    One DOP853 pass towards t_floor that stops where w crosses 0: the
    package's solve_ivp (itergelfand.rk) locates the crossing by Brent's
    method on the interpolant of the step that contains it, and ends its t
    there.  Returns (t_zero, sol); sol.sol is the dense output only when
    dense_output is set.  integrate_down and the log-variable phase of
    branch.shoot_regular both run through it.

    The acceleration, whose statements solve_ivp inlines into every stage,
    forms the force exp(G_m(w) - 2t) itself, G_m by m nested calls of exp.
    A trial step whose force leaves the double range gets an infinite force
    (each stage catches the OverflowError), which solve_ivp rejects as it
    does any step with an inf error norm, retrying a smaller one.
    DescentError is raised when the force is past the double range at the
    start or at an accepted state, where no smaller step helps, and when
    the descent reaches t_floor without a zero, unless stop_at_floor is
    set, which returns (None, sol) then.
    """
    m = check_height(m)
    accel = acceleration(f"""
        try:
            x = {"exp(" * m}y{")" * m} - 2.0 * t
            f = exp(x) if x > -745.0 else 0.0
        except OverflowError:
            f = inf
        a = c * p - f""", c=float(n - 2))

    def out_of_range(tt, ww):
        return accel(tt, ww, 0.0) == -math.inf

    if out_of_range(t, w):
        raise DescentError(f"the descent from t = {t:.6g} left the double range: "
                           f"exp(G_m(w) - 2t) overflows at its start, w = {w:.6g}")
    sol = solve_ivp(accel, (t, t_floor), [w, w_t], rtol=rtol, atol=atol,
                    dense_output=dense_output, stop_at=0.0)
    if sol.status != 1:
        if stop_at_floor and sol.status == 0:
            return None, sol
        t_end, w_end = float(sol.t[-1]), float(sol.y[0, -1])
        if sol.status == -1 and out_of_range(t_end, w_end):
            raise DescentError(f"the descent from t = {t:.6g} left the double range: "
                               f"exp(G_m(w) - 2t) overflows at t = {t_end:.6g}, "
                               f"w = {w_end:.6g}")
        raise DescentError(f"no zero of w above t = {t_floor} on the descent "
                           f"from t = {t:.6g} ({sol.message})")
    return float(sol.t[-1]), sol


def integrate_down(profile, n, m, t_floor=FLOOR, rtol=1e-12, atol=1e-14):
    """Integrate the profile equation downward to the first zero of w.

    Starts at the first profile node past t_min + HANDOFF_OFFSET (interior
    of the corrector's validity range) and returns (t_star, extended
    profile) where the extension carries integrator samples, SAMPLE_STEP
    apart, below the handoff and the original samples above it.
    """
    check_dimension(n)
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

    Every tower height m >= 0 runs the same pipeline.  m = 0 is the
    plain-exponential (Gelfand) oracle, for which the ansatz is exact, the
    corrector solve returns eta = 0 and lambda* = 2(n-2).
    """
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
    DescentError names the first t where the force exp(G_m(w) - 2t) overflows.
    """
    check_dimension(n)
    t, w, w_t = profile.t, profile.w, profile.w_t
    w_tt = differentiate(t, w_t, order=1, stencil=7)
    expo = g_tower(m, w) - 2.0 * t
    over = np.flatnonzero(expo > MAX_EXP_ARG)
    if len(over):
        raise DescentError(f"exp(G_m(w) - 2t) overflows at t = {t[over[0]]:.6g}: "
                           f"the exponent is {expo[over[0]]:.6g} > {MAX_EXP_ARG}")
    force = np.where(expo > -745.0, np.exp(expo), 0.0)
    res = w_tt - (n - 2) * w_t + force
    scale = np.maximum.reduce([np.abs(w_tt), (n - 2) * np.abs(w_t),
                               np.abs(force)])
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(res) / scale))
