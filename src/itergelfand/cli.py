"""Command-line surface: construct solutions, trace branches, run verification suites.

Exit codes: 0 success, 1 usage error, 2 convergence or numeric failure.
Configuration precedence is command-line flags over config-file entries over
defaults; the resolved configuration is echoed into meta.txt next to every
artifact so runs can be reproduced from their outputs alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import branch as br
from . import equivalence as eq
from . import expansions as ex
from . import towers as tw
from .corrector import EtaSpaceConfig, PicardConvergenceError, phi_m
from .numerics import atomic_write_text, fmt, write_csv
from .singular import DescentError, SingularSolution, build_singular, ode_residual
from .transform import log_to_radial, read_profile_csv, write_profile_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class UsageError(Exception):
    pass


@dataclass
class Check:
    """One verification check; its fields are the columns of verify_<suite>.csv."""

    label: str
    value: float
    bound: float
    passed: bool
    gating: bool = True


@dataclass
class RunConfig:
    n: int = 3
    m: int = 1
    oracle: bool = False
    T: float | None = None
    t_max: float | None = None
    M: float | None = None
    tol: float = 1e-11
    rho_min: float = 0.1
    rho_max: float = 4.8
    rho_step: float = 0.02
    outdir: str = "."
    singular_ref: str | None = None

    def validate(self):
        for name, cast in _FIELD_TYPES.items():
            value = getattr(self, name)
            if cast is float and value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite")
        if int(self.n) != self.n or self.n < 3:
            raise UsageError("dimension n must be an integer >= 3")
        if int(self.m) != self.m or self.m < 1:
            raise UsageError("tower height m must be an integer >= 1")
        if self.tol <= 0:
            raise UsageError("tol must be positive")
        if self.T is not None and self.T < 1:
            raise UsageError("T must be >= 1")

    @property
    def m_effective(self):
        # the oracle flag selects the plain-exponential nonlinearity
        return 0 if self.oracle else int(self.m)

    def eta_config(self):
        return EtaSpaceConfig(T=self.T, t_max=self.t_max, M=self.M, tol=self.tol)

    def echo_lines(self):
        out = []
        for f in fields(self):
            out.append(f"{f.name} = {getattr(self, f.name)}")
        return out


# declared type of each RunConfig field with an optional None stripped; it
# casts config-file values and selects the fields that must be finite
_FIELD_TYPES = {name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
                for name, hint in typing.get_type_hints(RunConfig).items()}


# the spellings a boolean config value may take, case ignored
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


def _build_runconfig(args):
    cfg = RunConfig()
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, val in file_values.items():
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key: {key}")
        cast = _FIELD_TYPES[key]
        try:
            setattr(cfg, key, _BOOL_WORDS[val.lower()] if cast is bool else cast(val))
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad value for config key {key}: {val}") from exc
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    cfg.validate()
    return cfg


def _write_meta(path, cfg, results):
    lines = ["[config]"] + cfg.echo_lines() + ["", "[results]"]
    for key, val in results.items():
        lines.append(f"{key} = {val if isinstance(val, str) else fmt(val)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_singular(cfg):
    os.makedirs(cfg.outdir, exist_ok=True)
    sol = build_singular(cfg.n, cfg.m_effective, cfg.eta_config())
    res = ode_residual(sol.profile, cfg.n, cfg.m_effective)
    write_profile_csv(os.path.join(cfg.outdir, "profile_log.csv"), sol.profile)
    write_profile_csv(os.path.join(cfg.outdir, "profile_radial.csv"),
                      log_to_radial(sol.profile, sol.lambda_star))
    eta = sol.eta
    _write_meta(os.path.join(cfg.outdir, "meta.txt"), cfg, {
        "lambda_star": sol.lambda_star,
        "t_star": sol.t_star,
        "handoff_t": sol.handoff_t,
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


def _load_singular_reference(path, n, m):
    """Reconstruct a singular reference from a `singular construct` output directory."""
    meta_path = os.path.join(path, "meta.txt") if os.path.isdir(path) else path
    base = os.path.dirname(meta_path)
    lam = None
    in_results = False
    with open(meta_path) as fh:
        for line in fh:
            if line.strip() == "[results]":
                in_results = True
            elif in_results and line.split("=")[0].strip() == "lambda_star":
                lam = float(line.split("=", 1)[1])
    if lam is None:
        raise UsageError(f"no lambda_star entry found in {meta_path}")
    profile = read_profile_csv(os.path.join(base, "profile_log.csv"))
    return SingularSolution(n=n, m=m, t_star=-0.5 * math.log(lam),
                            lambda_star=lam, profile=profile, eta=None,
                            handoff_t=profile.t_min, monotone=True)


def cmd_bifurcation(cfg):
    os.makedirs(cfg.outdir, exist_ok=True)
    if cfg.rho_max <= cfg.rho_min or cfg.rho_step <= 0:
        raise UsageError("need rho_min < rho_max and rho_step > 0")
    grid = np.arange(cfg.rho_min, cfg.rho_max + 0.5 * cfg.rho_step, cfg.rho_step)
    if len(grid) < 3:
        raise UsageError("rho grid has fewer than 3 points")
    reference = None
    if cfg.singular_ref:
        reference = _load_singular_reference(cfg.singular_ref, cfg.n, cfg.m_effective)
    curve = br.trace_curve(cfg.n, cfg.m_effective, grid)
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
    results = {"points": len(rho), "turning_points": len(curve.turning)}
    if reference is not None:
        rhos = sorted({2.0, 4.0, 6.0} & set(np.round(rho, 9)))
        counts = [br.intersection_count(br.shoot_regular(cfg.n, cfg.m_effective, float(r)),
                                        reference) for r in rhos]
        if rhos:
            write_csv(os.path.join(cfg.outdir, "intersections.csv"), ["rho", "count"],
                      [rhos, counts])
            results["intersection_rhos"] = ";".join(fmt(r) for r in rhos)
    _write_meta(os.path.join(cfg.outdir, "meta.txt"), cfg, results)
    print(f"traced {len(rho)} points, {len(curve.turning)} turning points")
    return EXIT_OK


def _suite_iterexp(cfg):
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
            # central difference of the (k-1)-th derivative of H_m
            lower = (lambda x: tw.h_tower(m, x)) if k == 1 else (lambda x: tw.h_deriv(m, k - 1, x))
            for t in ts:
                fd = (lower(t + h) - lower(t - h)) / (2 * h)
                worst = max(worst, abs(tw.h_deriv(m, k, t) - fd) / max(abs(fd), 1e-300))
        rows.append((f"h_deriv_fd_m{m}", worst, 1e-5))
    for m in (1, 2, 3):
        ts = np.geomspace(10.0 + tw.g_tower(min(m, 2), 1.0), 1e6, 40)
        for k in (1, 2, 3):
            vals = np.abs(tw.h_deriv(m, k, ts)) * ts ** k * np.log(ts)
            rows.append((f"decay_bound_m{m}_k{k}", np.max(vals), 50.0))
    try:
        from scipy.integrate import quad
        v, _ = quad(lambda s: math.exp(-math.exp(s)), 0.0, 40.0)
        rows.append(("f_tail_zero_vs_quadrature", abs(tw.f_tail(0.0) - v), 1e-10))
    except Exception:
        rows.append(("f_tail_zero_vs_quadrature", 1.0, 1e-10))
    rows.append(("f_tail_fflim_t5",
                 abs(tw.f_tail(5.0) * math.exp(5.0 + math.exp(5.0)) - 0.9933510653), 1e-6))
    rows.append(("f_tail_inverse_roundtrip",
                 abs(tw.f_tail_inverse(tw.f_tail(1.0)) - 1.0), 1e-10))
    return [Check(label, float(value), bound, value <= bound) for label, value, bound in rows]


def _write_records(path, records):
    """CSV with one column per dataclass field and one row per record."""
    header = [f.name for f in fields(records[0])]
    write_csv(path, header, [[getattr(r, key) for r in records] for key in header])


def _suite_asymptotics(cfg):
    n, m = cfg.n, cfg.m_effective
    rows = []
    sol = build_singular(n, max(m, 1), cfg.eta_config())
    T = sol.eta.T
    win1 = (T + 5.0, 2.0 * T)
    win2 = (T + 5.0, 4.0 * T)
    if m <= 1:
        r1 = ex.residual_order(sol.profile, lambda t: ex.expansion_w_m1(n, t, "ansatz"),
                               2.0, win1)
        r1.label = "profile_vs_ansatz"
        r2 = ex.residual_order(sol.profile, lambda t: ex.expansion_w_m1(n, t, "ansatz"),
                               2.0, win2)
        r2.label = "profile_vs_ansatz_doubled"
        rows.append(Check("profile_vs_ansatz_weighted_sup", r2.weighted_sup,
                          10.0 * sol.eta.M, r2.weighted_sup <= 10.0 * sol.eta.M))
        stable = r2.weighted_sup <= 3.0 * max(r1.weighted_sup, 1e-300)
        rows.append(Check("window_doubling_stable",
                          r2.weighted_sup / max(r1.weighted_sup, 1e-300), 3.0, stable))
        r4 = ex.residual_order(sol.profile, lambda t: ex.expansion_w_m1(n, t, "four_term"),
                               2.0, win2)
        r4.label = "profile_vs_four_term"
        rows.append(Check("four_term_slope", r4.empirical_slope, 0.3,
                          abs(r4.empirical_slope + 2.0) <= 0.3))
        c1 = ex.gradient_residual_constant(sol, win1)
        c2 = ex.gradient_residual_constant(sol, win2)
        rows.append(Check("gradient_constant_stable", c2 / max(c1, 1e-300), 3.0,
                          c2 <= 3.0 * max(c1, 1e-300)))
        if cfg.outdir:
            _write_records(os.path.join(cfg.outdir, "expansion_reports.csv"), [r1, r2, r4])
    else:
        sel = (sol.profile.t >= win2[0]) & (sol.profile.t <= win2[1])
        t = sol.profile.t[sel]
        phi, _, _ = phi_m(n, m, t)
        bound_vals = t ** 2 * np.abs(sol.profile.w_t[sel]
                                     - 2.0 * tw.h_deriv(m, 1, 2.0 * t + phi))
        rows.append(Check("wt_vs_2Hm_prime_weighted_sup", float(np.max(bound_vals)),
                          10.0 * sol.eta.M, float(np.max(bound_vals)) <= 10.0 * sol.eta.M))
        diff = np.abs(sol.profile.w[sel] - ex.expansion_w_m(n, m, t))
        half = t <= math.sqrt(win2[0] * win2[1])
        trend = float(np.max(diff[~half])) <= float(np.max(diff[half]))
        rows.append(Check("expansion_residual_decays", float(np.max(diff[~half])),
                          float(np.max(diff[half])), trend, gating=False))
    return rows


def _suite_miyamoto(cfg):
    sol = build_singular(cfg.n, 1, cfg.eta_config())
    rep = eq.equivalence_report(sol)
    rows = [Check("tail_sup", rep.tail_sup, 0.05, rep.tail_sup < 0.05),
            Check("traces_decreasing", float(rep.decreasing), 1.0, rep.decreasing)]
    if cfg.outdir:
        write_csv(os.path.join(cfg.outdir, "equivalence_trace.csv"),
                  ["t", "x_star", "y_star"], [rep.t, rep.x_star, rep.y_star])
    return rows


def cmd_verify(cfg, suite):
    os.makedirs(cfg.outdir, exist_ok=True)
    suites = {"iterexp": _suite_iterexp, "asymptotics": _suite_asymptotics,
              "miyamoto": _suite_miyamoto}
    names = list(suites) if suite == "all" else [suite]
    any_fail = False
    for name in names:
        rows = suites[name](cfg)
        gates = [r for r in rows if r.gating]
        ok = all(r.passed for r in gates)
        any_fail |= not ok
        print(json.dumps({"suite": name, "passed": ok,
                          "checks": len(rows), "failed":
                          [r.label for r in gates if not r.passed]}))
        _write_records(os.path.join(cfg.outdir, f"verify_{name}.csv"), rows)
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
    try:
        val = _EVAL_KINDS[args.kind](args)
    except (tw.TowerOverflowError, tw.TowerDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(fmt(val))
    return EXIT_OK


def _add_common(p):
    p.add_argument("--n", type=int, default=None, help="space dimension (>= 3)")
    p.add_argument("--m", type=int, default=None, help="tower height (>= 1)")
    p.add_argument("--oracle-gelfand", dest="oracle", action="store_const", const=True,
                   default=None, help="use the plain-exponential oracle nonlinearity")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--outdir", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="key = value config file (flags take precedence)")


class _Parser(argparse.ArgumentParser):
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
    p_eval.add_argument("--k", type=int, default=1, help="derivative order")
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
                      help="singular construct output (dir or meta.txt) for "
                           "turning-point annotation and intersection counts")

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
