import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itergelfand.numerics import differentiate, write_csv
from oracles import csv_text, fd_weights

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


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
               2.5e-310, sys.float_info.min, 1e308, -1e308, sys.float_info.max, 0.1]
# values of each column kind and the dtype of its array
CSV_KINDS = {
    "float": (st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), np.float64),
    "float32": (st.floats(width=32), np.float32),
    "int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "uint": (st.one_of(st.integers(0, 2 ** 64 - 1), st.just(2 ** 63)), np.uint64),
    "bool": (st.booleans(), np.bool_),
    "str": (st.text(st.characters(codec="ascii"), max_size=8), np.str_),
}


@st.composite
def csv_columns(draw):
    """Equal-length columns of drawn kinds, each an array or (as the CLI passes some) a list."""
    rows = draw(st.integers(0, 12))
    cols = []
    for kind in draw(st.lists(st.sampled_from(sorted(CSV_KINDS)), min_size=1, max_size=5)):
        values, dtype = CSV_KINDS[kind]
        col = np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)
        cols.append(col.tolist() if draw(st.booleans()) else col)
    return cols


def _assert_writes_the_oracle_bytes(path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(path, header, columns)
    assert path.read_bytes() == csv_text(header, columns).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(columns=csv_columns())
def test_write_csv_is_the_cell_by_cell_oracle_property(tmp_path_factory, columns):
    # one row format per file writes what formatting each cell on its own wrote
    _assert_writes_the_oracle_bytes(tmp_path_factory.mktemp("csv") / "c.csv", columns)


def test_write_csv_formats_the_edge_values(tmp_path):
    n = len(EDGE_FLOATS)
    columns = [np.array(EDGE_FLOATS), -np.array(EDGE_FLOATS),
               np.full(n, 2 ** 63, dtype=np.uint64), np.arange(-n, 0),
               np.arange(n) % 2 == 0, np.array(["nan", "%d", ""] * (n // 3) + ["x"] * (n % 3))]
    _assert_writes_the_oracle_bytes(tmp_path / "edge.csv", columns)
    row = (tmp_path / "edge.csv").read_text().splitlines()[1].split(",")
    assert row == ["nan", "nan", "9223372036854775808", str(-n), "1", "nan"]
