import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itergelfand.cli import main
from itergelfand.numerics import differentiate
from itergelfand.transform import LogProfile, read_profile_csv, write_profile_csv


@pytest.fixture(scope="module")
def construct(tmp_path_factory):
    """construct(*flags): output directory of `singular construct`, built once per flag set."""
    runs = {}

    def run(*flags):
        if flags not in runs:
            out = tmp_path_factory.mktemp("construct")
            assert main(["singular", "construct", *flags, "--outdir", str(out)]) == 0
            runs[flags] = out
        return runs[flags]
    return run


def columns(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)


@pytest.mark.parametrize("n", [3, 5])
def test_radial_csv_is_the_exact_gelfand_solution(construct, n):
    # the Gelfand oracle's singular solution is u = -2 ln r at lambda = 2(n-2)
    r, u, u_r = columns(construct("--n", str(n), "--oracle-gelfand") / "profile_radial.csv")
    assert r[0] == pytest.approx(1.0, abs=1e-9) and np.all(np.diff(r) < 0.0)
    assert np.max(np.abs(u + 2.0 * np.log(r))) < 1e-9
    assert np.max(np.abs(u_r * r / -2.0 - 1.0)) < 1e-9


def test_gelfand_substitution(construct):
    # u = -2 ln|x| at lambda = 2(n-2) is w(t) = 2t + ln(2(n-2)) in log variables
    t, w, w_t = columns(construct("--n", "3", "--oracle-gelfand") / "profile_log.csv")
    assert np.max(np.abs(w - (2.0 * t + math.log(2.0)))) < 1e-9
    assert np.max(np.abs(w_t - 2.0)) < 1e-9


def test_gradient_gelfand(construct):
    # w = 2t + ln 2: the v-space gradient |w_t(-ln r)| / r is 2/r between samples too
    lp = read_profile_csv(construct("--n", "3", "--oracle-gelfand") / "profile_log.csv")
    for r in (0.5, 0.1, 0.01, 1e-20):
        assert abs(lp.eval_wt(-math.log(r))) / r == pytest.approx(2.0 / r, rel=1e-9)


def test_gradient_leading_term_constructed(sol_n3m1):
    # against the constructed profile, the gradient w_t / r tracks 1/(r ln(1/r))
    for t in (60.0, 120.0):
        assert abs(sol_n3m1.profile.eval_wt(t) * t - 1.0) < 2.0 * math.log(t) / t + 0.01


def test_gradient_vs_finite_difference(construct):
    # finite differences of the written u samples against the written u_r
    r, u, u_r = columns(construct("--n", "3", "--m", "1") / "profile_radial.csv")
    sel = slice(100, 160)
    u_r_fd = differentiate(r[sel][::-1], u[sel][::-1], order=1, stencil=7)[::-1]
    rel = np.abs(u_r_fd - u_r[sel]) / np.abs(u_r[sel])
    assert np.max(rel[3:-3]) < 1e-5


def test_ode_equivalence_jacobian(construct):
    # the radial copy of a log profile solving the log equation solves the
    # radial equation; checked on the Gelfand oracle's written radial profile,
    # below the handoff where it is sampled every 0.01 in t, with the radial
    # residual measured by finite differences
    n = 3
    r, u, u_r = (c[:3000][::-1] for c in
                 columns(construct("--n", str(n), "--oracle-gelfand") / "profile_radial.csv"))
    lam = 2.0 * (n - 2)
    # v-space: v = u, radius sqrt(lam) * r
    rv = math.sqrt(lam) * r
    vr_v = u_r / math.sqrt(lam)
    v_rr = differentiate(rv, vr_v, order=1, stencil=7)
    force = np.exp(u)
    res = v_rr + (n - 1) / rv * vr_v + force
    scale = np.maximum(np.abs(v_rr), force)
    assert np.max(np.abs(res[5:-5]) / scale[5:-5]) < 1e-7


def test_profile_csv_roundtrip(tmp_path, construct):
    t = np.geomspace(0.1, 50.0, 200)
    lp = LogProfile(t, 2.0 * t + math.log(6.0), np.full_like(t, 2.0))
    path = tmp_path / "p.csv"
    write_profile_csv(path, lp)
    lp2 = read_profile_csv(path)
    assert np.array_equal(lp.t, lp2.t)
    assert np.array_equal(lp.w, lp2.w)
    assert np.array_equal(lp.w_t, lp2.w_t)
    # a radial copy is an output format only; it does not read back as a profile
    with pytest.raises(ValueError, match="unrecognized profile header"):
        read_profile_csv(construct("--n", "3", "--oracle-gelfand") / "profile_radial.csv")


def test_validation_errors():
    with pytest.raises(ValueError):
        LogProfile(np.array([1.0, 0.5]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        LogProfile(np.array([1.0]), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        LogProfile(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2))


@settings(max_examples=400, deadline=None)
@given(t0=st.floats(min_value=-10.0, max_value=10.0),
       gaps=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12),
       coef=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
       frac=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
       outside=st.floats(min_value=1e-9, max_value=10.0))
def test_hermite_reproduces_cubics(t0, gaps, coef, frac, outside):
    # eval_w / eval_wt are the cubic Hermite of (w, w_t), exact on cubic data
    a, b, c, d = coef
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    prof = LogProfile(t, a + t * (b + t * (c + t * d)), b + t * (2.0 * c + 3.0 * d * t))
    q = np.clip(t[0] + np.array(frac) * (t[-1] - t[0]), t[0], t[-1])
    # rounding of the samples, amplified by 1/h in the derivative
    eps = np.finfo(float).eps
    big = float(np.max(np.abs(t)))
    scale_w = abs(a) + abs(b) * big + abs(c) * big ** 2 + abs(d) * big ** 3
    scale_wt = abs(b) + 2.0 * abs(c) * big + 3.0 * abs(d) * big ** 2
    # subnormal data round absolutely: each product of the Horner forms is off
    # by up to tiny/2 more, grown by |t| <= big in the later products, so a
    # sample (and the exact side) is off by E; the Hermite weights carry 3E/h
    # of the w samples and 2E of the w_t samples into eval_wt, and its own
    # products add at most 8 tiny/2 before the division by h
    tiny = 2.0 ** -1074
    E = (big ** 2 + big + 1.0) * tiny / 2.0
    tol_w = 64.0 * eps * (scale_w + scale_wt) + 4.0 * E + 8.0 * tiny
    tol_wt = (64.0 * eps * (scale_w / min(gaps) + scale_wt)
              + (3.0 * E + 4.0 * tiny) / min(gaps) + 3.0 * E)
    w_exact = a + q * (b + q * (c + q * d))
    wt_exact = b + q * (2.0 * c + 3.0 * d * q)
    assert np.max(np.abs(prof.eval_w(q) - w_exact)) <= tol_w
    assert np.max(np.abs(prof.eval_wt(q) - wt_exact)) <= tol_wt
    assert type(prof.eval_w(float(q[0]))) is float
    assert type(prof.eval_wt(float(q[0]))) is float
    beyond = np.array([t[0] - outside, t[-1] + outside])
    assert np.all(np.isnan(prof.eval_w(beyond)))
    assert np.all(np.isnan(prof.eval_wt(beyond)))


@settings(max_examples=300, deadline=None)
# |t| <= 1e307 keeps the differences of the t samples finite
@given(t=st.lists(st.floats(min_value=-1e307, max_value=1e307), min_size=2, max_size=30,
                  unique=True),
       w=st.lists(st.floats(allow_nan=False), min_size=30, max_size=30),
       w_t=st.lists(st.floats(allow_nan=False), min_size=30, max_size=30))
def test_profile_csv_roundtrip_is_exact_property(tmp_path_factory, t, w, w_t):
    # %.17g reads back as the same double, -0.0, subnormals and infinities included
    lp = LogProfile(np.sort(t), w[:len(t)], w_t[:len(t)])
    path = tmp_path_factory.mktemp("profile") / "p.csv"
    write_profile_csv(path, lp)
    lp2 = read_profile_csv(path)
    for name in ("t", "w", "w_t"):
        assert getattr(lp2, name).tobytes() == getattr(lp, name).tobytes(), name
