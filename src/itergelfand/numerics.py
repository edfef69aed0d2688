"""Shared numerical helpers: panel quadrature, cubic Hermite interpolation, finite-difference
stencils, root finding, IO."""

from __future__ import annotations

import math
import os
import sys
import tempfile

import numpy as np
from numpy.polynomial.legendre import leggauss

_GAUSS_N = 12
_GAUSS_X, _GAUSS_W = leggauss(_GAUSS_N)
# brent's xtol = rtol (the smallest rtol brentq accepts) and iteration cap
BRENT_TOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100


def scalar_or_array(out):
    """The package's return rule: a 0-d result becomes a float, arrays pass through.

    Reads the ``ndim`` attribute directly (plain Python numbers have none and
    count as 0-d) instead of calling np.ndim, which goes through numpy's
    function dispatch; scalar callers such as the h_tower round trips of
    verify iterexp pay that on every call.
    """
    return out if getattr(out, "ndim", 0) else float(out)


def panel_nodes(edges):
    """Gauss-Legendre nodes/weights for the panels defined by ``edges``.

    Returns (nodes, weights) with shape (n_panels, 12) each; weights include
    the panel half-length factor so a plain dot with integrand values gives
    the panel integral.
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    weights = half[:, None] * _GAUSS_W[None, :]
    return nodes, weights


def hermite(x, y, y_t, i, tau, derivative=False):
    """The cubic Hermite interpolant of samples (x, y, y_t), or its derivative, at x[i] + tau.

    i indexes the interval [x[i], x[i+1]] holding each point and tau is the
    point's offset from that interval's left end; the two broadcast together.
    """
    h = x[i + 1] - x[i]
    s = tau / h
    y0, y1 = y[i], y[i + 1]
    d0, d1 = h * y_t[i], h * y_t[i + 1]
    if derivative:
        return (6.0 * s * (1.0 - s) * (y1 - y0) + (1.0 - s) * (1.0 - 3.0 * s) * d0
                + s * (3.0 * s - 2.0) * d1) / h
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0 + s * (1.0 - s) ** 2 * d0
            + s * s * (3.0 - 2.0 * s) * y1 + s * s * (s - 1.0) * d1)


def brent(f, a, b):
    """A root of f in [a, b] by Brent's method, step for step as scipy's brentq.

    f(a) and f(b) must not have the same sign; the root is located to
    BRENT_TOL (1 + |x|).  Raises ValueError for a bracket without a sign
    change and RuntimeError when BRENT_MAXITER iterations do not converge.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        # fpre is never 0 here; a zero fcur returns below either way
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAXITER} iterations")


def differentiate(t, y, order=1, stencil=7):
    """Derivative of sampled data on a (possibly nonuniform) grid.

    Uses sliding stencils centred where the grid allows; purely data-driven,
    no model assumed.  The weights are Fornberg's (1988) recurrence, run for
    all samples at once: w[k, i, j] is the weight of node j of sample i's
    stencil in the k-th derivative.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(t)
    if n < stencil:
        stencil = n if n % 2 == 1 else n - 1
    if order >= stencil:
        raise ValueError("stencil too short for requested derivative order")
    lo = np.clip(np.arange(n) - stencil // 2, 0, n - stencil)
    idx = lo[:, None] + np.arange(stencil)
    x = t[idx]                 # stencil nodes of each sample, shape (n, stencil)
    dx = x - t[:, None]        # their offsets from the sample
    w = np.zeros((order + 1, n, stencil))
    w[0, :, 0] = 1.0
    c1 = np.ones(n)
    for i in range(1, stencil):
        c2 = np.ones(n)
        for j in range(i):
            c3 = x[:, i] - x[:, j]
            c2 = c2 * c3
            if j == i - 1:
                prev = w[:, :, i - 1]
                for k in range(min(i, order), 0, -1):
                    w[k, :, i] = c1 * (k * prev[k - 1] - dx[:, i - 1] * prev[k]) / c2
                w[0, :, i] = -c1 * dx[:, i - 1] * prev[0] / c2
            col = w[:, :, j]   # a view: the updates below write into w
            for k in range(min(i, order), 0, -1):
                col[k] = (dx[:, i] * col[k] - k * col[k - 1]) / c3
            col[0] = dx[:, i] * col[0] / c3
        c1 = c2
    return np.einsum("ij,ij->i", w[order], y[idx])


def envelope_slope(t, diff):
    """Empirical decay order of |diff| vs t from a log-log envelope fit.

    Bins the window in log t, takes the max of |diff| per bin, and fits a
    line through the (log t, log max) pairs; robust to interior sign
    changes of diff.
    """
    nbins = 8
    t = np.asarray(t, dtype=float)
    d = np.abs(np.asarray(diff, dtype=float))
    mask = d > 0
    t, d = t[mask], d[mask]
    if len(t) < nbins:
        raise ValueError("window too small for slope estimate")
    edges = np.geomspace(t[0], t[-1], nbins + 1)
    xs, ys = [], []
    for i in range(nbins):
        sel = (t >= edges[i]) & (t <= edges[i + 1])
        if np.any(sel):
            j = np.argmax(d[sel])
            xs.append(np.log(t[sel][j]))
            ys.append(np.log(d[sel][j]))
    if len(xs) < 3:
        raise ValueError("not enough populated bins for slope estimate")
    return float(np.polyfit(xs, ys, 1)[0])


# a CSV column's printf conversion by its dtype kind: integers as integers, floats
# and flags as 17 significant digits, which read back as the same double; text as is
_CONVERSIONS = {"i": "%d", "u": "%d", "f": "%.17g", "b": "%.17g"}


def fmt(x):
    """One number as write_csv writes a float (for meta.txt and printed results)."""
    return _CONVERSIONS["f"] % float(x)


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename so readers never see partial files."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, columns):
    """CSV of equal-length columns; their dtypes' row format, repeated, formats every cell."""
    cols = [np.asarray(c) for c in columns]
    row = ",".join(_CONVERSIONS.get(c.dtype.kind, "%s") for c in cols) + "\n"
    cells = [None] * (len(cols) * len(cols[0]))
    for j, c in enumerate(cols):
        cells[j::len(cols)] = c.tolist()
    atomic_write_text(path, ",".join(header) + "\n" + row * len(cols[0]) % tuple(cells))
