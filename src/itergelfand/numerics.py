"""Shared numerical helpers: panel quadrature, finite-difference stencils, IO."""

from __future__ import annotations

import os
import tempfile

import numpy as np
from scipy.special import roots_legendre

_GAUSS_N = 12
_GAUSS_X, _GAUSS_W = roots_legendre(_GAUSS_N)


def scalar_or_array(out):
    """The package's return rule: a 0-d result becomes a float, arrays pass through.

    Reads the ``ndim`` attribute directly because np.ndim costs a microsecond
    on the scalar tower evaluations of the shooting right-hand sides.
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


def subdivide(grid, h_cap):
    """Split each grid interval into equal sub-panels no longer than h_cap.

    Returns (edges, owner) where owner[k] is the index of the grid interval
    sub-panel k belongs to.
    """
    grid = np.asarray(grid, dtype=float)
    edges = [grid[0]]
    owner = []
    for i in range(len(grid) - 1):
        h = grid[i + 1] - grid[i]
        parts = max(1, int(np.ceil(h / h_cap)))
        step = h / parts
        for p in range(parts):
            edges.append(grid[i] + step * (p + 1))
            owner.append(i)
    return np.asarray(edges), np.asarray(owner, dtype=int)


def fd_weights(x, x0, order):
    """Fornberg weights for the ``order``-th derivative at x0 on nodes x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if order >= n:
        raise ValueError("stencil too short for requested derivative order")
    w = np.zeros((order + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((c4 * w[k, j] - k * w[k - 1, j]) / c3)
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[order]


def differentiate(t, y, order=1, stencil=7):
    """Derivative of sampled data on a (possibly nonuniform) grid.

    Uses sliding Fornberg stencils; purely data-driven, no model assumed.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(t)
    if n < stencil:
        stencil = n if n % 2 == 1 else n - 1
    half = stencil // 2
    out = np.empty(n)
    for i in range(n):
        lo = min(max(0, i - half), n - stencil)
        sl = slice(lo, lo + stencil)
        out[i] = fd_weights(t[sl], t[i], order) @ y[sl]
    return out


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


def fmt(x):
    """Round-trip decimal formatting for CSV output."""
    return format(float(x), ".17g")


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


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt(v)


def write_csv(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
