"""Coordinate changes between ball variables (r, u), rescaled (r, v) and log variables (t, w).

Conventions: u lives on the unit ball with u(1) = 0 and parameter lambda;
v(x) = u(x / sqrt(lambda)) lives on the ball of radius sqrt(lambda); the log
variables are t = -ln r (r the v-space radius) and w(t) = v(r).  Derivative
samples are carried through every conversion, never recomputed by
differencing positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .numerics import scalar_or_array, write_csv


@dataclass
class LogProfile:
    """Solution samples in (t, w) coordinates, t strictly increasing."""

    t: np.ndarray
    w: np.ndarray
    w_t: np.ndarray
    _w_interp: object = field(default=None, repr=False, compare=False)
    _wt_interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.w_t = np.asarray(self.w_t, dtype=float)
        if self.t.ndim != 1 or len(self.t) < 2:
            raise ValueError("profile needs at least two samples")
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("t samples must be strictly increasing")
        if not (len(self.t) == len(self.w) == len(self.w_t)):
            raise ValueError("sample arrays must share a length")

    @property
    def t_min(self):
        return float(self.t[0])

    @property
    def t_max(self):
        return float(self.t[-1])

    def eval_w(self, t):
        if self._w_interp is None:
            self._w_interp = PchipInterpolator(self.t, self.w, extrapolate=False)
        return self._w_interp(t)

    def eval_wt(self, t):
        if self._wt_interp is None:
            self._wt_interp = PchipInterpolator(self.t, self.w_t, extrapolate=False)
        return self._wt_interp(t)


@dataclass
class RadialProfile:
    """Radial samples (r, u, u_r) with r strictly decreasing toward 0."""

    lam: float
    r: np.ndarray
    u: np.ndarray
    u_r: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.u_r = np.asarray(self.u_r, dtype=float)
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if np.any(self.r <= 0):
            raise ValueError("radii must be positive")
        if not np.all(np.diff(self.r) < 0):
            raise ValueError("radii must be strictly decreasing")


def radial_to_log(p: RadialProfile) -> LogProfile:
    """Map a u-space radial profile to (t, w), t = -ln(sqrt(lambda) * r).

    Chain rule: w_t = -r_v v_r = -r u_r with r the u-space radius.
    """
    sqrt_lam = np.sqrt(p.lam)
    t = -np.log(sqrt_lam * p.r)
    w = p.u.copy()
    w_t = -p.r * p.u_r
    return LogProfile(t, w, w_t)


def log_to_radial(p: LogProfile, lam: float) -> RadialProfile:
    """Inverse of radial_to_log: r = exp(-t)/sqrt(lambda), u_r = -w_t / r."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    sqrt_lam = np.sqrt(lam)
    r = np.exp(-p.t) / sqrt_lam
    u = p.w.copy()
    u_r = -p.w_t / r
    return RadialProfile(lam, r, u, u_r)


def gradient_magnitude(p: LogProfile, lam: float, r):
    """|grad v|(r) = |w_t(-ln r)| / r, the rescaled gradient at v-space radius r.

    This is the quantity (1/sqrt(lambda)) |grad u|(x/sqrt(lambda)) at |x| = r.
    """
    r = np.asarray(r, dtype=float)
    t = -np.log(r)
    if np.any(t < p.t_min) or np.any(t > p.t_max):
        raise ValueError("radius outside the profile's covered range")
    wt = p.eval_wt(t)
    out = np.abs(wt) / r
    return scalar_or_array(out)


def write_profile_csv(path, profile):
    """Profile CSV: `t,w,w_t` rows for LogProfile, `r,u,u_r` for RadialProfile."""
    if isinstance(profile, LogProfile):
        write_csv(path, ["t", "w", "w_t"], [profile.t, profile.w, profile.w_t])
    elif isinstance(profile, RadialProfile):
        write_csv(path, ["r", "u", "u_r"], [profile.r, profile.u, profile.u_r])
    else:
        raise TypeError("unsupported profile type")


def read_profile_csv(path, lam=None):
    """Read a profile CSV written by write_profile_csv.

    Returns a LogProfile or, for `r,u,u_r` files, a RadialProfile (lam
    required in that case).
    """
    with open(path) as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header == "t,w,w_t":
        return LogProfile(data[:, 0], data[:, 1], data[:, 2])
    if header == "r,u,u_r":
        if lam is None:
            raise ValueError("lam required to read a radial profile")
        return RadialProfile(lam, data[:, 0], data[:, 1], data[:, 2])
    raise ValueError(f"unrecognized profile header: {header!r}")
