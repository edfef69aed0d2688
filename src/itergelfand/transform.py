"""The package's one sampled profile, in log variables (t, w), and its CSV writer.

Conventions: u lives on the unit ball with u(1) = 0 and parameter lambda;
v(x) = u(x / sqrt(lambda)) lives on the ball of radius sqrt(lambda); the log
variables are t = -ln r (r the v-space radius) and w(t) = v(r).  A profile
carries its derivative samples w_t, never recomputed by differencing
positions; the radial form r = e^{-t}/sqrt(lambda), u = w, u_r = -w_t/r is
an output format only (`singular construct` writes it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import hermite, scalar_or_array, write_csv


@dataclass
class LogProfile:
    """Solution samples in (t, w) coordinates, t strictly increasing.

    Between samples w is the cubic Hermite interpolant of the carried
    (w, w_t) pairs; eval_w gives it and eval_wt its derivative, NaN outside
    [t_min, t_max].
    """

    t: np.ndarray
    w: np.ndarray
    w_t: np.ndarray

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

    def _hermite(self, t, derivative):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, len(self.t) - 2)
        out = hermite(self.t, self.w, self.w_t, i, t - self.t[i], derivative)
        inside = (t >= self.t[0]) & (t <= self.t[-1])
        return scalar_or_array(np.where(inside, out, np.nan))

    def eval_w(self, t):
        return self._hermite(t, derivative=False)

    def eval_wt(self, t):
        return self._hermite(t, derivative=True)


def write_profile_csv(path, profile):
    """Profile CSV with `t,w,w_t` rows."""
    write_csv(path, ["t", "w", "w_t"], [profile.t, profile.w, profile.w_t])

