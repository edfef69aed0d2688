"""Command-line surface: construct solutions, trace branches, run verification suites.

Exit codes: 0 success, 1 usage error, 2 convergence or numeric failure.
Configuration precedence is command-line flags over config-file entries over
defaults; the resolved configuration is echoed into meta.txt next to every
artifact so runs can be reproduced from their outputs alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import branch as br
from . import equivalence as eq
from . import expansions as ex
from . import towers as tw
from .corrector import EtaSpaceConfig, PicardConvergenceError, phi_m
from .numerics import atomic_write_text, fmt, panel_nodes, write_csv
from .singular import DescentError, ansatz_terms, build_singular, ode_residual
from .transform import write_profile_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# most work bifurcation trace accepts, in shots times n: a shot costs about
# linearly in n, and more at high rho, so this is an estimate.  The default
# 236-point grid meets it at n = 423, where the trace takes about 20 s on a
# shared 2-vCPU host
MAX_TRACE_WORK = 10 ** 5
# dimensions from here on are not exact doubles, and past about 1e308 not
# doubles at all; the solvers compute with n as a double
MAX_DIMENSION = 2 ** 53


class UsageError(Exception):
    pass


@dataclass
class Check:
    """One verification check, passed when value <= bound; its fields are the
    columns of verify_<suite>.csv."""

    label: str
    value: float
    bound: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.value <= self.bound)


@dataclass
class RunConfig:
    n: int = 3
    m: int = 1
    T: float | None = None
    t_max: float | None = None
    tol: float = 1e-11
    rho_min: float = 0.1
    rho_max: float = 4.8
    rho_step: float = 0.02
    outdir: str = "."
    singular_ref: str | None = None

    def validate(self, heights=()):
        """Refuse bad values; the corrector fields (T, t_max, tol) are checked
        by the corrector's own rules at each tower height in `heights`."""
        for name, cast in _FIELD_TYPES.items():
            value = getattr(self, name)
            if cast is float and value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite")
        if int(self.n) != self.n or self.n < 3:
            raise UsageError("dimension n must be an integer >= 3")
        if self.n >= MAX_DIMENSION:
            raise UsageError("dimension n must be below 2**53, the range where a double "
                             "holds it exactly")
        if int(self.m) != self.m or self.m < 0:
            raise UsageError("tower height m must be an integer >= 0")
        for m in heights:
            try:
                self.eta_config().resolved(m, self.n)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc

    def eta_config(self):
        return EtaSpaceConfig(T=self.T, t_max=self.t_max, tol=self.tol)

    def echo_lines(self):
        return [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]


# declared type of each RunConfig field with an optional None stripped; it
# casts config-file values and selects the fields that must be finite
_FIELD_TYPES = {name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
                for name, hint in typing.get_type_hints(RunConfig).items()}
# the fields that may be None, which meta.txt echoes as "None"
_OPTIONAL = {name for name, hint in typing.get_type_hints(RunConfig).items()
             if type(None) in typing.get_args(hint)}


def _read_sections(path, what):
    """{section: {key: value string}} of a UTF-8 file of `[section]` and `key = value` lines;
    `#` at a line's start or after a blank opens a comment; keys before a header go in "config"."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    sections = {"config": {}}
    current = sections["config"]
    for raw in text.splitlines():
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
        elif "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
            current[key] = val
        elif line:
            raise UsageError(f"bad line in {what} {path}: {raw.rstrip()}")
    return sections


def _set_fields(cfg, values):
    """Set the RunConfig fields that {key: value string} names, each cast to its type."""
    for key, val in values.items():
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key: {key}")
        try:
            setattr(cfg, key, None if val == "None" and key in _OPTIONAL
                    else _FIELD_TYPES[key](val))
        except ValueError as exc:
            raise UsageError(f"bad value for config key {key}: {val}") from exc
    return cfg


def _corrector_heights(args, cfg):
    """Tower heights at which the command solves the corrector (none for a trace)."""
    if args.command == "singular":
        return (cfg.m,)
    if args.command == "bifurcation":
        return ()
    return tuple(m for m in _verify_heights(cfg, args.suite).values() if m is not None)


def _build_runconfig(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        # a meta.txt is a config file too: its other sections are not read
        _set_fields(cfg, _read_sections(args.config, "config file")["config"])
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    # the oracle flag is m = 0, the plain-exponential nonlinearity, whatever --m says
    if args.oracle:
        cfg.m = 0
    cfg.validate(_corrector_heights(args, cfg))
    return cfg


def _write_meta(path, cfg, results):
    lines = ["[config]"] + cfg.echo_lines() + ["", "[results]"]
    for key, val in results.items():
        lines.append(f"{key} = {val if isinstance(val, str) else fmt(val)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_singular(cfg):
    sol = build_singular(cfg.n, cfg.m, cfg.eta_config())
    res = ode_residual(sol.profile, cfg.n, cfg.m)
    p = sol.profile
    write_profile_csv(os.path.join(cfg.outdir, "profile_log.csv"), p)
    # the radial copy keeps the rows whose r = e^-t / sqrt(lambda*) is a normal
    # double and whose u_r = -w_t / r is finite; radial_t_max records the cut
    r = np.exp(-p.t) / np.sqrt(sol.lambda_star)
    keep = (r >= sys.float_info.min) & (np.abs(p.w_t) / sys.float_info.max <= r)
    write_csv(os.path.join(cfg.outdir, "profile_radial.csv"), ["r", "u", "u_r"],
              [r[keep], p.w[keep], -p.w_t[keep] / r[keep]])
    eta = sol.eta
    _write_meta(os.path.join(cfg.outdir, "meta.txt"), cfg, {
        "lambda_star": sol.lambda_star,
        "t_star": sol.t_star,
        "handoff_t": sol.handoff_t,
        "radial_t_max": p.t[keep][-1],
        "max_relative_residual": res,
        "monotone": str(sol.monotone),
        "picard_iterations": eta.iterations,
        "picard_final_defect": eta.final_defect,
        "picard_T": eta.T,
        "picard_t_max": eta.t_max,
        "picard_M": eta.M,
        "picard_sup_weighted": eta.sup_weighted,
    })
    print(f"lambda_star = {fmt(sol.lambda_star)}  (t_star = {fmt(sol.t_star)}, "
          f"max relative residual {res:.3e})")
    return EXIT_OK


def _meta_path(path):
    """The meta.txt of a `singular construct` output directory, or the file named."""
    return os.path.join(path, "meta.txt") if os.path.isdir(path) else path


def _load_singular_reference(path, cfg):
    """The singular solution rebuilt from the [config] of a `singular construct` output
    directory (or its meta.txt); refused unless its n and m are the trace's and its
    recorded lambda_star is the rebuilt one to all 17 digits."""
    meta_path = _meta_path(path)
    meta = _read_sections(meta_path, "singular reference")
    try:
        ref = _set_fields(RunConfig(), meta["config"])
        if (ref.n, ref.m) != (cfg.n, cfg.m):
            raise UsageError(f"it has n = {ref.n}, m = {ref.m}, "
                             f"the trace has n = {cfg.n}, m = {cfg.m}")
        ref.validate((ref.m,))
    except UsageError as exc:
        raise UsageError(f"singular reference {meta_path}: {exc}") from exc
    try:
        sol = build_singular(ref.n, ref.m, ref.eta_config())
    except (PicardConvergenceError, DescentError) as exc:
        raise type(exc)(f"singular reference {meta_path} does not rebuild: {exc}") from exc
    recorded = meta.get("results", {}).get("lambda_star")
    if recorded != fmt(sol.lambda_star):
        raise UsageError(f"singular reference {meta_path} records lambda_star = {recorded}, "
                         f"but its [config] rebuilds lambda_star = {fmt(sol.lambda_star)}")
    return sol


def cmd_bifurcation(cfg):
    if not 0 < cfg.rho_min < cfg.rho_max or cfg.rho_step <= 0:
        raise UsageError("need 0 < rho_min < rho_max and rho_step > 0")
    # a float quotient, possibly inf, so the bound holds before anything is allocated
    shots = (cfg.rho_max - cfg.rho_min) / cfg.rho_step + 1.0
    if shots * cfg.n > MAX_TRACE_WORK:
        raise UsageError(f"a trace of {shots:.6g} shots at n = {cfg.n} is {shots * cfg.n:.4g} "
                         f"shots times n, more than {MAX_TRACE_WORK:.0e}")
    grid = np.arange(cfg.rho_min, cfg.rho_max + 0.5 * cfg.rho_step, cfg.rho_step)
    if len(grid) < 3:
        raise UsageError("rho grid has fewer than 3 points")
    reference, rhos = None, []
    if cfg.singular_ref:
        reference = _load_singular_reference(cfg.singular_ref, cfg)
        # counted before the trace, so a reference too short for them is refused first
        rhos = sorted({2.0, 4.0, 6.0} & set(np.round(grid, 9)))
        try:
            counts = [br.intersection_count(br.shoot_regular(cfg.n, cfg.m, float(r)),
                                            reference) for r in rhos]
        except ValueError as exc:
            raise UsageError(f"singular reference {_meta_path(cfg.singular_ref)}: {exc}") from exc
    curve = br.trace_curve(cfg.n, cfg.m, grid)
    rho = curve.rho
    lam = curve.lam
    turning_rho = np.array([p[0] for p in curve.turning])
    flags = np.zeros(len(rho), dtype=int)
    for tr in turning_rho:
        flags[int(np.argmin(np.abs(rho - tr)))] = 1
    write_csv(os.path.join(cfg.outdir, "curve.csv"),
              ["rho", "lambda", "R", "turning_flag"],
              [rho, lam, np.array([p.R for p in curve.points]), flags])
    tp_cols = [turning_rho, np.array([p[1] for p in curve.turning])]
    tp_hdr = ["rho", "lambda"]
    if reference is not None:
        tp_hdr.append("lambda_minus_lambda_star")
        tp_cols.append(tp_cols[1] - reference.lambda_star)
    write_csv(os.path.join(cfg.outdir, "turning_points.csv"), tp_hdr, tp_cols)
    # shots of the curve that left their descent on w*: for lambda* or for its linear response
    results = {"points": len(rho), "turning_points": len(curve.turning),
               "matched_shots": sum(p.t_match is not None for p in curve.points)}
    if rhos:
        write_csv(os.path.join(cfg.outdir, "intersections.csv"), ["rho", "count"],
                  [rhos, counts])
        results["intersection_rhos"] = ";".join(fmt(r) for r in rhos)
    _write_meta(os.path.join(cfg.outdir, "meta.txt"), cfg, results)
    print(f"traced {len(rho)} points, {len(curve.turning)} turning points")
    return EXIT_OK


def _suite_iterexp(cfg, sol):
    rows = []   # (label, value, bound): each passes when value <= bound
    # upper ends keep G_m(y) representable
    for m, y_hi in ((1, 3.0), (2, 1.8), (3, 1.4)):
        ys = np.linspace(-2.0, y_hi, 41)
        err = max(abs(tw.h_tower(m, tw.g_tower(m, y)) - y) for y in ys)
        rows.append((f"roundtrip_m{m}", err, 1e-12))
    for m in (1, 2, 3):
        ts = np.geomspace(max(tw.tower_domain_lower(m), 0.5) + 4.0, 1e3, 25)
        worst = 0.0
        h = 1e-3
        for k in (1, 2, 3):
            # central difference of the (k-1)-th derivative of H_m, at every t at once
            lower = (lambda x: tw.h_tower(m, x)) if k == 1 else (lambda x: tw.h_deriv(m, k - 1, x))
            fd = (lower(ts + h) - lower(ts - h)) / (2 * h)
            err = np.abs(tw.h_deriv(m, k, ts) - fd) / np.maximum(np.abs(fd), 1e-300)
            worst = max(worst, np.max(err))
        rows.append((f"h_deriv_fd_m{m}", worst, 1e-5))
    for m in (1, 2, 3):
        ts = np.geomspace(10.0 + tw.g_tower(min(m, 2), 1.0), 1e6, 40)
        for k in (1, 2, 3):
            vals = np.abs(tw.h_deriv(m, k, ts)) * ts ** k * np.log(ts)
            rows.append((f"decay_bound_m{m}_k{k}", np.max(vals), 50.0))
    # F(0) by quadrature, which shares no code with E_1: 40 unit Gauss panels on [0, 40]
    nodes, weights = panel_nodes(np.arange(41.0))
    v = np.sum(weights * np.exp(-np.exp(nodes)))
    rows.append(("f_tail_zero_vs_quadrature", abs(tw.f_tail(0.0) - v), 1e-10))
    rows.append(("f_tail_fflim_t5",
                 abs(tw.f_tail(5.0) * math.exp(5.0 + math.exp(5.0)) - 0.9933510653), 1e-6))
    rows.append(("f_tail_inverse_roundtrip",
                 abs(tw.f_tail_inverse(tw.f_tail(1.0)) - 1.0), 1e-10))
    return [Check(label, float(value), bound) for label, value, bound in rows]


def _write_records(path, records):
    """CSV with one column per dataclass field and one row per record."""
    header = [f.name for f in fields(records[0])]
    write_csv(path, header, [[getattr(r, key) for r in records] for key in header])


# slack on the 10 M weighted-sup bounds for rounding: at m = 0 the corrector
# vanishes and M = 0, while t^2 |w_t - 2| reads up to 3.3e-12 (n <= 12) at the
# descent's first samples in the window
ROUNDING_ALLOWANCE = 1e-9


def _suite_asymptotics(cfg, sol):
    n, m = sol.n, sol.m
    T = sol.eta.T
    win1 = (T + 5.0, 2.0 * T)
    win2 = (T + 5.0, 4.0 * T)
    bound = 10.0 * sol.eta.M + ROUNDING_ALLOWANCE
    try:
        r1, r2 = (ex.residual_order(sol.profile, lambda t: ansatz_terms(n, m, t)[0], 2.0, win)
                  for win in (win1, win2))
    except ValueError as exc:
        # T <= 5 leaves the first window empty, and T a little above 5 too short
        raise UsageError(f"T = {T:g} is too small for verify asymptotics: its windows "
                         f"(T + 5, 2T) = ({win1[0]:g}, {win1[1]:g}) and (T + 5, 4T) = "
                         f"({win2[0]:g}, {win2[1]:g}) hold too few profile samples "
                         f"({exc})") from exc
    sel = (sol.profile.t >= win2[0]) & (sol.profile.t <= win2[1])
    t = sol.profile.t[sel]
    phi, _, _ = phi_m(n, m, t)
    wt_err = t ** 2 * np.abs(sol.profile.w_t[sel] - 2.0 * tw.h_deriv(m, 1, 2.0 * t + phi))
    rows = [Check("profile_vs_ansatz_weighted_sup", r2.weighted_sup, bound),
            Check("window_doubling_stable", r2.weighted_sup / max(r1.weighted_sup, 1e-300), 3.0),
            Check("wt_vs_2Hm_prime_weighted_sup", float(np.max(wt_err)), bound)]
    if m >= 1:
        r4 = ex.residual_order(sol.profile, lambda t: ex.expansion_w(n, m, t), 2.0, win2)
        rows.append(Check("expansion_slope_error", abs(r4.empirical_slope + 2.0), 0.3))
    if m == 1:
        c1, c2 = (ex.gradient_residual_constant(sol, win) for win in (win1, win2))
        rows.append(Check("gradient_constant_stable", c2 / max(c1, 1e-300), 3.0))
    return rows


def _suite_miyamoto(cfg, sol):
    rep = eq.equivalence_report(sol)
    write_csv(os.path.join(cfg.outdir, "equivalence_trace.csv"),
              ["t", "x_star", "y_star"], [rep.t, rep.x_star, rep.y_star])
    return [Check("tail_sup", rep.tail_sup, eq.TAIL_BOUND),
            Check("traces_decreasing", rep.shrink_ratio, 1.0)]


_SUITES = {"iterexp": _suite_iterexp, "asymptotics": _suite_asymptotics,
           "miyamoto": _suite_miyamoto}


def _verify_heights(cfg, suite):
    """{suite name: tower height of the singular solution it checks, None for iterexp}."""
    heights = {"iterexp": None, "asymptotics": cfg.m, "miyamoto": 1}
    return heights if suite == "all" else {suite: heights[suite]}


def cmd_verify(cfg, suite):
    built = {}   # one singular solution per tower height, shared by the suites
    checked = {}
    if "asymptotics" in _verify_heights(cfg, suite):
        # its checks refuse a T too small for their windows before any suite prints or
        # writes; a build that fails here fails again in its turn, after the suites before it
        with contextlib.suppress(PicardConvergenceError, DescentError):
            built[cfg.m] = build_singular(cfg.n, cfg.m, cfg.eta_config())
            checked["asymptotics"] = _suite_asymptotics(cfg, built[cfg.m])
    results = {}
    any_fail = False
    try:
        for name, m in _verify_heights(cfg, suite).items():
            if m is not None and m not in built:
                built[m] = build_singular(cfg.n, m, cfg.eta_config())
            rows = checked.pop(name, None) or _SUITES[name](cfg, built.get(m))
            ok = all(r.passed for r in rows)
            any_fail |= not ok
            results.update({f"{name}_m": str(m), f"{name}_passed": str(ok)})
            print(json.dumps({"suite": name, "m": m, "passed": ok, "checks": len(rows),
                              "failed": [r.label for r in rows if not r.passed]}))
            _write_records(os.path.join(cfg.outdir, f"verify_{name}.csv"), rows)
    finally:
        # also when a later suite's build fails: the CSVs written so far stay traceable
        _write_meta(os.path.join(cfg.outdir, "meta.txt"), cfg, results)
    return EXIT_NUMERIC if any_fail else EXIT_OK


# `iterexp eval --kind` choices and the tower primitive each one evaluates
_EVAL_KINDS = {
    "g": lambda a: tw.g_tower(a.m, a.at),
    "h": lambda a: tw.h_tower(a.m, a.at),
    "gderiv": lambda a: tw.g_deriv(a.m, a.k, a.at),
    "hderiv": lambda a: tw.h_deriv(a.m, a.k, a.at),
    "ftail": lambda a: tw.f_tail(a.at),
    "ftail-log": lambda a: tw.f_tail_log(a.at),
    "ftail-inv": lambda a: tw.f_tail_inverse(a.at),
}


def cmd_iterexp_eval(args):
    if not math.isfinite(args.at):
        raise UsageError(f"--at must be finite, not {args.at}")
    m_min = 1 if args.kind == "gderiv" else 0
    if args.m < m_min:
        raise UsageError(f"--m must be >= {m_min} for --kind {args.kind}")
    if args.kind == "ftail-inv" and args.at <= 0.0:
        raise UsageError("--kind ftail-inv needs --at > 0")
    try:
        val = _EVAL_KINDS[args.kind](args)
    except (tw.TowerOverflowError, tw.TowerDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(fmt(val))
    return EXIT_OK


def _add_common(p):
    p.add_argument("--n", type=int, default=None, help="space dimension (>= 3)")
    p.add_argument("--m", type=int, default=None, help="tower height (>= 0; 0 is e^u)")
    p.add_argument("--oracle-gelfand", dest="oracle", action="store_true",
                   help="the Gelfand oracle m = 0, overriding --m")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--outdir", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="key = value config file (flags take precedence)")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1e5 or -inf is a number, not an unknown option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def make_parser():
    parser = _Parser(prog="itergelfand",
                     description="Singular solutions and solution branches for "
                                 "iterated-exponential Gelfand-type ball problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ie = sub.add_parser("iterexp", help="tower function evaluation")
    ie_sub = p_ie.add_subparsers(dest="subcommand", required=True)
    p_eval = ie_sub.add_parser("eval", help="evaluate a tower primitive")
    p_eval.add_argument("--m", type=int, default=1)
    p_eval.add_argument("--kind", required=True, choices=list(_EVAL_KINDS))
    p_eval.add_argument("--k", type=int, default=1, choices=[1, 2, 3], help="derivative order")
    p_eval.add_argument("--at", type=float, required=True, help="evaluation point")

    p_s = sub.add_parser("singular", help="singular solution construction")
    s_sub = p_s.add_subparsers(dest="subcommand", required=True)
    p_sc = s_sub.add_parser("construct", help="build (lambda*, u*)")
    _add_common(p_sc)

    p_b = sub.add_parser("bifurcation", help="regular branch tracing")
    b_sub = p_b.add_subparsers(dest="subcommand", required=True)
    p_bt = b_sub.add_parser("trace", help="trace lambda(rho) by shooting")
    _add_common(p_bt)
    p_bt.add_argument("--rho-min", dest="rho_min", type=float, default=None)
    p_bt.add_argument("--rho-max", dest="rho_max", type=float, default=None)
    p_bt.add_argument("--rho-step", dest="rho_step", type=float, default=None)
    p_bt.add_argument("--lambda-star", dest="singular_ref", type=str, default=None,
                      help="singular construct output (dir or meta.txt), rebuilt from its "
                           "[config], for turning-point annotation and intersection counts")

    p_v = sub.add_parser("verify", help="verification suites")
    p_v.add_argument("suite", choices=["asymptotics", "miyamoto", "iterexp", "all"])
    _add_common(p_v)
    return parser


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "iterexp":
            return cmd_iterexp_eval(args)
        cfg = _build_runconfig(args)
        try:
            os.makedirs(cfg.outdir, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {cfg.outdir}: {exc}") from exc
        if args.command == "singular":
            return cmd_singular(cfg)
        if args.command == "bifurcation":
            return cmd_bifurcation(cfg)
        return cmd_verify(cfg, args.suite)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PicardConvergenceError, DescentError, br.ShootError,
            tw.TowerOverflowError, tw.TowerDomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
