"""DOP853 on a second-order problem y'' = a(t, y, y') held in Python floats.

Every ODE the package integrates is of this form: the log-variable descent
of singular.descend and the inner phase of branch.shoot_regular.  On such
small systems scipy.integrate.solve_ivp spends most of its time in numpy
calls on 2-vectors, not in the right-hand side.  solve_ivp below runs the
same method by the same rules on the first-order system (y, y')' = (y', a)
in plain floats:

* the Dormand-Prince 8(5,3) tableau is written below as literals: its
  nonzero coefficients, each the repr of the double that scipy's
  dop853_coefficients holds, so the module needs numpy alone;
* scipy's initial-step rule, error norm and step-size controller are
  reproduced (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.5);
* instead of scipy's event functions there is one stop level: the first
  step over which y reaches it, rising or falling, is cut at the crossing,
  which `brent` (itergelfand.numerics), the algorithm of scipy's brentq in
  plain floats, locates on the interpolant of that step with xtol = rtol =
  BRENT_TOL = 4 eps (Hairer, Norsett and Wanner, II.6);
* the dense output is built on first read: the loop records the 22 floats
  a step's interpolant reads (_RECORD_NAMES), and one builder forms its extra
  stages and coefficients, in floats at a crossing, on arrays when the
  solve's DenseSolution is first evaluated or its coef read.

The integrator is one solve loop per acceleration, generated from the
tableau as straight-line code (_loop_source) and compiled on its first use
in the process, then cached by the acceleration's source.  An acceleration
is declared once (acceleration()) as a few statements that set a from t, y,
p = y' and named float constants.  The loop inlines them into each of the 12
stages of a trial step and into its last stage at the step's end.  Stage s
is evaluated at y + (sum_j a_sj k0_j) h, y' + (sum_j a_sj k1_j) h: its first
component k0_s is that y', and its second k1_s the acceleration there.  The
step-size controller, the stop-level check and the appends to the output
arrays run inside the loop too.  The same statements compile to a plain
callable, which the initial step rule, the interpolant builder (element by
element on arrays: numpy's exp and expm1 differ from math's by an ulp on a
few percent of arguments) and any caller that wants one value use.  A plain
callable passed to solve_ivp gets the loop of the body a = fun(t, y, p).
Every sum adds its terms in the tableau's order, left to right, with each
coefficient a literal written with repr; scipy forms them as matrix
products, so results agree with scipy's to rounding.  Squares are products,
never powers, so an overflowing trial step yields an inf or nan error norm
and is rejected, as in scipy, instead of raising.
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
from array import array
from dataclasses import dataclass

import numpy as np

from .numerics import BRENT_TOL, brent

EPS = sys.float_info.epsilon
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# DOP853's error estimator has order 7
ERROR_EXPONENT = -1.0 / 8.0
N_STAGES = 12
SQRT2 = math.sqrt(2.0)

# The Dormand-Prince 8(5,3) tableau, each row as the (j, a) pairs of its nonzero
# entries in j order.  Stage s combines the earlier stages j < s with A[s][j].
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
      1.0)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
# the three extra stages of the dense output, then its four upper coefficients
_A_EXTRA = (
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932), (11, 0.0003825710908356584),
     (12, -0.00034046500868740456), (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
     (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
     (13, 2.9475147891527724), (14, -9.15095847217987)),
)
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)
# doubles per step in the dense buffer: t_old, h, y_old (2), then 7 coefficients
# of the first component and 7 of the second
_STRIDE = 18
# what a step's interpolant reads: the step, its end and the stages it combines,
# but k0_0 and k0_12, which are y1 and n1
_KEPT = sorted({j for rows in _A_EXTRA + _D for j, _ in rows if j <= N_STAGES})
_RECORD_NAMES = ("t0", "h", "y0", "y1", "n0", "n1", *(f"k0_{j}" for j in _KEPT[1:-1]),
                 *(f"k1_{j}" for j in _KEPT))


def _terms(rows, k):
    """Source of sum_j a_j k<j> over the rows' nonzero coefficients, in their order."""
    return " + ".join(f"{a!r} * {k}{j}" for j, a in rows)


def _lines(body, depth):
    """The statements of body, indented to depth."""
    return "\n".join("    " * depth + line
                     for line in textwrap.dedent(body).strip("\n").splitlines())


def _stage(s, c, rows, body):
    """Source that evaluates stage s at t0 + c h from the stages that rows combine."""
    return "\n".join([f"            p = k0_{s} = y1 + ({_terms(rows, 'k1_')}) * h",
                      f"            t = t0 + {c!r} * h",
                      f"            y = y0 + ({_terms(rows, 'k0_')}) * h",
                      _lines(body, 3),
                      f"            k1_{s} = a"])


def _loop_source(body, names):
    """Source of solve(consts, fun, ...), the solve loop of one acceleration body: consts
    the values of the constants names, fun the body's callable.  It appends to the arrays
    ts, ys0, ys1 and records; returns (status, last acceleration, nfev - 2, naccept, nreject)."""
    last = N_STAGES
    return "\n".join([
        "def solve(consts, fun, t0, t_bound, sign, y0, y1, f1, h_abs, rtol, atol, stop_at,",
        "          dense_output, ts, ys0, ys1, records):",
        f"    ({''.join(f'{name}, ' for name in names)}) = consts",
        "    nfev = naccept = nreject = 0",
        "    g = None if stop_at is None else y0 - stop_at",
        "    status = None",
        "    while status is None:",
        "        min_step = 10.0 * abs(nextafter(t0, sign * inf) - t0)",
        "        h_abs = max(h_abs, min_step)",
        "        rejected = False",
        "        while True:",
        "            if not h_abs >= min_step:   # a NaN first acceleration gives a NaN step",
        "                return -1, f1, nfev, naccept, nreject",
        "            t_new = t0 + h_abs * sign",
        "            if sign * (t_new - t_bound) > 0.0:",
        "                t_new = t_bound",
        "            h = t_new - t0",
        "            h_abs = abs(h)",
        "            k0_0, k1_0 = y1, f1",
        *(_stage(s, _C[s], _A[s], body) for s in range(1, last)),
        *(f"            n{i} = y{i} + h * ({_terms(_B, f'k{i}_')})" for i in (0, 1)),
        f"            p = k0_{last} = n1",
        "            t, y = t_new, n0",
        _lines(body, 3),
        f"            k1_{last} = a",
        *(f"            sc{i} = atol + max(abs(y{i}), abs(n{i})) * rtol" for i in (0, 1)),
        *(f"            e{i} = ({_terms(_E5, f'k{i}_')}) / sc{i}" for i in (0, 1)),
        *(f"            d{i} = ({_terms(_E3, f'k{i}_')}) / sc{i}" for i in (0, 1)),
        "            e5, e3 = e0 * e0 + e1 * e1, d0 * d0 + d1 * d1",
        f"            nfev += {last}",
        "            err = 0.0 if e5 == 0.0 else h_abs * e5 / sqrt((e5 + 0.01 * e3) * 2.0)",
        "            if err < 1.0:",
        f"                factor = {MAX_FACTOR!r}",
        "                if err > 0.0:",
        f"                    factor = min({MAX_FACTOR!r}, "
        f"{SAFETY!r} * err ** {ERROR_EXPONENT!r})",
        "                h_abs *= min(1.0, factor) if rejected else factor",
        "                break",
        "            # inf and nan error norms land here too",
        f"            h_abs *= max({MIN_FACTOR!r}, {SAFETY!r} * err ** {ERROR_EXPONENT!r})",
        "            rejected = True",
        "            nreject += 1",
        "        naccept += 1",
        "        if sign * (t_new - t_bound) >= 0.0:",
        "            status = 0",
        "        crossed = False",
        "        if stop_at is not None:",
        "            g_new = n0 - stop_at",
        "            crossed = g <= 0.0 <= g_new or g >= 0.0 >= g_new",
        "            g = g_new",
        "        if dense_output or crossed:",
        f"            record = ({', '.join(_RECORD_NAMES)})",
        "            nfev += 3   # the interpolant's extra stages",
        "            if dense_output:",
        "                records.extend(record)",
        "            if crossed:",
        "                t_new, n0, n1 = _crossing(stop_at, t0, h, y0, y1,",
        "                                          *_interpolant()(fun, *record), t_new)",
        "                status = 1",
        f"        t0, y0, y1, f1 = t_new, n0, n1, k1_{last}",
        "        if dense_output and len(ts) > 1 and ts[-1] == t0:",
        "            # a crossing at the start of the step: drop its record",
        f"            del records[-{len(_RECORD_NAMES)}:]",
        "        else:",
        "            ts.append(t0)",
        "            ys0.append(y0)",
        "            ys1.append(y1)",
        "    return status, f1, nfev, naccept, nreject",
    ])


def _crossing(level, t_old, h, y0, y1, c0, c1, t_new):
    """(t, y, y') where the interpolant (coefficients c0, c1) of the step from
    (t_old, y0, y1) to t_new crosses y = level, located by brent on y's interpolant."""

    def at(t, c, y):
        x = (t - t_old) / h
        v = 0.0
        for i in range(6, -1, -1):
            v = (v + c[i]) * (x if i % 2 == 0 else 1.0 - x)
        return v + y

    t = brent(lambda tt: at(tt, c0, y0) - level, t_old, t_new)
    return t, at(t, c0, y0), at(t, c1, y1)


def _compile(source, name):
    """The function name that source defines; its globals: math's names and rk's helpers."""
    namespace = {key: value for key, value in vars(math).items() if not key.startswith("_")}
    namespace.update(_crossing=_crossing, _interpolant=_interpolant)
    exec(compile(source, f"<DOP853 {name}>", "exec"), namespace)
    return namespace[name]


@functools.cache
def _loop(body, names):
    """The solve loop of an acceleration body, compiled on its first use in the process."""
    return _compile(_loop_source(body, names), "solve")


@functools.cache
def _interpolant():
    """interpolant(fun, *record) -> a step's (c0, c1), in floats or arrays; built on first use."""
    last = N_STAGES
    return _compile("\n".join([
        f"def interpolant(fun, {', '.join(_RECORD_NAMES)}):",
        f"            k0_0, k0_{last} = y1, n1",
        *(_stage(last + 1 + i, _C_EXTRA[i], rows, "a = fun(t, y, p)")
          for i, rows in enumerate(_A_EXTRA)),
        "            dy0, dy1 = n0 - y0, n1 - y1",
        *(f"            c{i} = (dy{i}, h * k{i}_0 - dy{i}, "
          f"2.0 * dy{i} - h * (k{i}_{last} + k{i}_0), "
          + ", ".join(f"h * ({_terms(rows, f'k{i}_')})" for rows in _D) + ")" for i in (0, 1)),
        "            return c0, c1"]), "interpolant")


def _dense_coefficients(fun, records):
    """The (steps, _STRIDE) dense buffer of a dense solve, built on its records' columns
    with fun called per element; Python floats overflow silently, numpy would warn."""
    cols = np.frombuffer(records).reshape(-1, len(_RECORD_NAMES)).T
    with np.errstate(all="ignore"):
        c0, c1 = _interpolant()(lambda t, y, p: np.fromiter(
            map(fun, t.tolist(), y.tolist(), p.tolist()), float, len(p)), *cols)
        return np.column_stack((*cols[:4], *c0, *c1))


@functools.cache
def _scalar(body, names):
    """make(*values) -> the callable a(t, y, p) of an acceleration body."""
    return _compile("\n".join([f"def make({', '.join(names)}):", "    def accel(t, y, p):",
                               _lines(body, 2), "        return a", "    return accel"]), "make")


def acceleration(body, **consts):
    """The acceleration a(t, y, p) that the statements body compute, as a callable.

    body sets a from t, y, p, the float constants consts by name and math's
    names, as in "a = c * p - exp(y)"; its other locals must not be names of
    the solve loop.  solve_ivp inlines body into every stage; the callable runs it once.
    """
    names, values = tuple(consts), tuple(consts.values())
    fun = _scalar(body, names)(*values)
    fun.inline = (body, names, values)
    return fun


MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            # scipy's words; here the stop level was crossed
            1: "A termination event occurred.",
            -1: "Required step size is less than spacing between numbers."}
# the message of status -1 when the acceleration at the state reached is NaN
NAN_MESSAGE = "The acceleration is NaN at the state reached."


@dataclass
class OdeResult:
    """The fields of scipy's solve_ivp result that the package reads, and the step counts."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution | None
    status: int
    message: str
    nfev: int
    naccept: int
    nreject: int


class DenseSolution:
    """The step interpolants of one solve, evaluated like scipy's OdeSolution.

    build() returns the solve's dense buffer; it runs on the first read of
    coef, which keeps the (steps, _STRIDE) result and drops build.
    """

    def __init__(self, ts, build):
        self.ts = ts
        self._build = build
        self.ascending = ts[-1] >= ts[0]

    @functools.cached_property
    def coef(self):
        """The (steps, _STRIDE) dense buffer, built on first read."""
        coef = self._build().reshape(-1, _STRIDE)
        self._build = None
        return coef

    def __call__(self, t):
        """(2, len(t)) array of the solution at the 1-d array of times t."""
        t = np.asarray(t, dtype=float)
        nseg = len(self.coef)
        # the step whose closed interval holds t; ties go to the earlier step
        if self.ascending:
            seg = np.searchsorted(self.ts, t, side="left") - 1
        else:
            seg = np.searchsorted(self.ts[::-1], t, side="right") - 1
        seg = np.clip(seg, 0, nseg - 1)
        if not self.ascending:
            seg = nseg - 1 - seg
        c = self.coef[seg].T
        x = (t - c[0]) / c[1]
        xm = 1.0 - x
        out = np.empty((2, len(t)))
        for j in (0, 1):
            # Horner on the 7 coefficients of component j, from a zero sum:
            # its first add turns a -0.0 coefficient into +0.0
            y = np.zeros(len(t))
            for i in range(6, -1, -1):
                y += c[4 + 7 * j + i]
                y *= x if i % 2 == 0 else xm
            y += c[2 + j]
            out[j] = y
        return out


def _norm(a, b):
    """RMS norm of (a, b)."""
    return math.sqrt(a * a + b * b) / SQRT2


def _initial_step(fun, t0, y0, y1, f1, interval, sign, rtol, atol):
    """scipy's select_initial_step for error estimator order 7; f1 = fun(t0, y0, y1)."""
    sc0 = atol + abs(y0) * rtol
    sc1 = atol + abs(y1) * rtol
    d0 = _norm(y0 / sc0, y1 / sc1)
    d1 = _norm(y1 / sc0, f1 / sc1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if h0 == 0.0:
        # the scaled derivative overflowed d1; scipy's 0/0 for d2 then gives
        # h1 = 0, and the solve starts from the minimum step
        return 0.0
    g0 = y1 + h0 * sign * f1
    g1 = fun(t0 + h0 * sign, y0 + h0 * sign * y1, g0)
    d2 = _norm((g0 - y1) / sc0, (g1 - f1) / sc1) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100.0 * h0, h1, interval)


def check_tolerances(rtol, atol):
    """A ValueError naming rtol or atol when it lies outside solve_ivp's range."""
    if not 100.0 * EPS <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and at least 100 eps, got {rtol}")
    if not 0.0 < atol < math.inf:
        raise ValueError(f"atol must be finite and positive, got {atol}")


def solve_ivp(fun, t_span, y0, rtol, atol, stop_at=None, dense_output=False):
    """Integrate y'' = fun(t, y, y') over t_span with DOP853, from y0 = (y, y').

    fun(t, y, yp) returns the acceleration, one float; the statements of one made
    by acceleration() run inlined in the solve loop, any other callable is called
    from it, and the 3 extra stages of each interpolant call fun (those of sol
    when sol is first read).  With stop_at set, the solve ends at the first time
    y crosses that level, in either sense; the crossing is the last entry of t
    and y.  Returns an OdeResult with scipy's t, y (shape (2, steps + 1), rows y
    and y'), sol (None unless dense_output), status (0 end reached, 1 stop level
    crossed, -1 step size underflow or NaN), message (NAN_MESSAGE at status -1
    when the acceleration at the state reached is NaN), nfev (with the extra
    stages, whether sol is read or not), and naccept and nreject.  rtol in
    [100 eps, inf), atol in (0, inf), y0 finite.
    """
    check_tolerances(rtol, atol)
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_bound)) or t == t_bound:
        raise ValueError(f"t_span must be two distinct finite times, got {t_span}")
    sign = 1.0 if t_bound > t else -1.0
    y0, y1 = float(y0[0]), float(y0[1])
    if not (math.isfinite(y0) and math.isfinite(y1)):
        raise ValueError(f"y0 must be finite, got ({y0}, {y1})")

    f1 = fun(t, y0, y1)
    h_abs = _initial_step(fun, t, y0, y1, f1, abs(t_bound - t), sign, rtol, atol)
    # a plain callable is the body that calls it
    body, names, values = getattr(fun, "inline", ("a = fun(t, y, p)", (), ()))
    ts, ys0, ys1, records = array("d", [t]), array("d", [y0]), array("d", [y1]), array("d")
    status, f1, nfev, naccept, nreject = _loop(body, names)(
        values, fun, t, t_bound, sign, y0, y1, f1, h_abs, rtol, atol, stop_at, dense_output,
        ts, ys0, ys1, records)
    ts = np.array(ts)
    sol = (DenseSolution(ts, functools.partial(_dense_coefficients, fun, records))
           if dense_output else None)
    message = NAN_MESSAGE if status == -1 and math.isnan(f1) else MESSAGES[status]
    return OdeResult(t=ts, y=np.array([ys0, ys1]), sol=sol, status=status, message=message,
                     nfev=2 + nfev, naccept=naccept, nreject=nreject)
