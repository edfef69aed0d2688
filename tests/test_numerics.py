import numpy as np
import pytest

from itergelfand.numerics import differentiate
from oracles import fd_weights

EPS = np.finfo(float).eps


def _grids():
    rng = np.random.default_rng(7)
    geometric = np.geomspace(1e-2, 1e3, 400)
    random_sorted = np.sort(rng.uniform(-3.0, 5.0, 300))
    return {"geometric": (geometric, np.log(geometric) * np.cos(geometric)),
            "random": (random_sorted, np.sin(3.0 * random_sorted) + random_sorted ** 2)}


def _assert_matches_per_stencil_oracle(t, y, order, stencil=7):
    n = len(t)
    got = differentiate(t, y, order=order, stencil=stencil)
    for i in range(n):
        lo = min(max(0, i - stencil // 2), n - stencil)
        sl = slice(lo, lo + stencil)
        w = fd_weights(t[sl], t[i], order)
        # the two contractions may sum in different orders: allow a few
        # roundings of the stencil's own terms
        bound = 64.0 * EPS * np.sum(np.abs(w * y[sl]))
        assert abs(got[i] - w @ y[sl]) <= bound, (i, got[i], w @ y[sl], bound)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("grid", ["geometric", "random"])
def test_differentiate_matches_fornberg_oracle(grid, order):
    t, y = _grids()[grid]
    _assert_matches_per_stencil_oracle(t, y, order)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_differentiate_matches_fornberg_oracle_on_profile(sol_n3m1, order):
    prof = sol_n3m1.profile
    _assert_matches_per_stencil_oracle(prof.t, prof.w_t, order)


def test_differentiate_exact_on_polynomials():
    t = np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 50))
    assert np.allclose(differentiate(t, t ** 3, order=1), 3.0 * t ** 2, rtol=1e-9, atol=1e-9)
    assert np.allclose(differentiate(t, t ** 3, order=3), 6.0, rtol=1e-6)
    with pytest.raises(ValueError):
        differentiate(t[:3], t[:3], order=3)
