"""Benchmark of itergelfand: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload singular|branch-grid|branch-deep \
        --seed 0 --seconds 30 --trace 0|1

The program runs in this process on one thread, pinned to one CPU; a
helper process on the same CPU runs the host-speed kernel of hostspeed.py
while the program waits.  Set-up is timed in fresh interpreters, each
importing itergelfand.cli and preparing the workload's inputs.  With
--trace 0 the workload repeats while the --seconds budget allows.  wall_s
is the median over those repetitions; every op (every shot on branch-grid)
takes its median latency over them, and op_p50_s and op_p95_s are
percentiles over the ops of these.  All end-to-end timings are in reference
seconds, rescaled by the host speed measured along the run.  With --trace 1
one untraced and one traced repetition run, and the per-layer metrics come
from the traced one.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

# pin every BLAS pool before numpy is first imported (by workloads.py and the
# package); set-up probes inherit this environment
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

NPROC = len(os.sched_getaffinity(0))  # before main() pins the process to one CPU
WORK = ".perfbench_work"
SETUP_PROBES = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p95_s": "s",
              "peak_rss_mb": "MB"}


def import_package():
    """Import itergelfand from this checkout's src/, or exit without a result."""
    if not (SRC / "itergelfand" / "__init__.py").is_file():
        sys.exit(f"perfbench: no itergelfand package under {SRC}")
    import itergelfand.cli
    if Path(itergelfand.cli.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perfbench: itergelfand imported from {itergelfand.cli.__file__}, "
                 f"not from {SRC}")


def probe(args):
    """Body of one set-up probe: import, prepare the inputs, report the import time."""
    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0
    import workloads
    workloads.WORKLOADS[args.workload](args.seed).prepare(args.probe)
    print(json.dumps({"import_s": import_s}))


def measure_setup(args, workdir, clock):
    """Median time of fresh interpreters doing import plus input preparation.

    Returns (reference seconds, raw seconds, import seconds), all medians.
    """
    scaled, walls, imports = [], [], []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", str(probe_dir)]
        clock.calibrate()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        clock.calibrate()
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        scaled.append(clock.scaled(t0, t1))
        walls.append(t1 - t0)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return tuple(statistics.median(v) for v in (scaled, walls, imports))


@contextmanager
def shot_clock(spans):
    """Append (start, end) of each shot of trace_curve to spans."""
    import itergelfand.branch as br
    trace_curve, shoot_regular = br.trace_curve, br.shoot_regular
    in_curve = False

    def curve(*args, **kwargs):
        nonlocal in_curve
        in_curve = True
        try:
            return trace_curve(*args, **kwargs)
        finally:
            in_curve = False

    def shot(*args, **kwargs):
        if not in_curve:
            return shoot_regular(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return shoot_regular(*args, **kwargs)
        finally:
            spans.append((t0, time.perf_counter()))

    br.trace_curve, br.shoot_regular = curve, shot
    try:
        yield
    finally:
        br.trace_curve, br.shoot_regular = trace_curve, shoot_regular


def run_rep(workload, outdir, timed_shots=True):
    """Run every op once; returns wall time, op and shot spans, op and warning counts."""
    outdir.mkdir()
    rep = {"wall_s": 0.0, "op_spans": [], "attempted": 0, "failed": 0, "warnings": 0}
    shots = [] if timed_shots and getattr(workload, "per_shot_latency", False) else None
    with shot_clock(shots) if shots is not None else nullcontext():
        for op in workload.ops(str(outdir)):
            run_op(op, rep)
    rep["sample_spans"] = rep["op_spans"] if shots is None else shots
    rep["bytes_written"] = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
    return rep


def run_op(op, rep):
    """Time one op, check its output and add its counts to rep."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            result = exc
        t1 = time.perf_counter()
    rep["wall_s"] += t1 - t0
    rep["op_spans"].append((t0, t1))
    if isinstance(result, Exception):
        fails = [f"{type(result).__name__}: {result}"] * op.count
    else:
        try:
            fails = op.check(result)
        except Exception as exc:
            fails = [f"check raised {type(exc).__name__}: {exc}"] * op.count
    numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for w in numeric:
        print(f"warning in {op.name}: {w.category.__name__}: {w.message}", file=sys.stderr)
    for msg in fails[:5]:
        print(f"FAILED {op.name}: {msg}", file=sys.stderr)
    rep["attempted"] += op.count
    rep["failed"] += min(op.count, len(fails))
    rep["warnings"] += len(numeric)


def run_record():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha(), "nproc": NPROC, "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "env": {v: os.environ[v] for v in THREAD_ENV}}


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, workload):
    """Set-up probes, then the repetitions; returns (setup, reps, clock, tracer)."""
    from hostspeed import HostClock
    (ROOT / WORK).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / WORK))
    tracer = None
    try:
        with HostClock() as clock:
            setup = measure_setup(args, workdir, clock)
            workload.prepare(str(workdir / "inputs"))
            reps = []
            with nullcontext() if args.trace else clock.sampling():
                begin = time.perf_counter()
                while True:
                    reps.append(run_rep(workload, workdir / f"rep{len(reps)}"))
                    elapsed = time.perf_counter() - begin
                    if args.trace or elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                        break
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            with tracer.installed():
                reps.append(run_rep(workload, workdir / "traced", timed_shots=False))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass
    return setup, reps, clock, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        # the import is timed first, before this file's own modules load numpy
        probe(args)
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    import_package()
    # one CPU for the program, its set-up probes and the host-speed kernel
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (setup_s, raw_setup_s, import_s), reps, clock, tracer = measure(args, workload)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if tracer:
        from tracer import per_layer_metrics
        untraced, traced = reps
        metrics = per_layer_metrics(tracer, {
            "import_s": import_s, "wall_s": untraced["wall_s"],
            "traced_wall_s": traced["wall_s"], "bytes_written": traced["bytes_written"],
            "numeric_warnings": sum(r["warnings"] for r in reps),
            "kernel_s": clock.kernel_s(),
            "fail_frac": failed / attempted})
    else:
        import numpy as np
        samples = [[clock.scaled(*span) for span in r["sample_spans"]] for r in reps]
        # the same op repeats in each repetition; its median damps the noise
        # of single timings where the latency distribution is sparse
        width = min(len(s) for s in samples)
        per_op = np.median([s[:width] for s in samples], axis=0)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(clock.scaled(*span) for span in r["op_spans"])
                                        for r in reps),
            "op_p50_s": float(np.percentile(per_op, 50)),
            "op_p95_s": float(np.percentile(per_op, 95)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print("run " + json.dumps(run_record()))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{len(reps[0]['sample_spans'])} latency samples each, "
          f"{sum(r['warnings'] for r in reps)} numeric warnings; raw repetition walls "
          "(with any calibration pauses) " + " ".join(f"{r['wall_s']:.3f}" for r in reps)
          + f"; raw set-up {raw_setup_s:.3f} s; host-speed kernel median "
          f"{clock.kernel_s() * 1e3:.1f} ms over {len(clock.marks)} calibrations")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
