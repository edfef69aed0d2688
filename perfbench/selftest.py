"""Tests of the benchmark itself; not collected by the package's test run.

    python3 -m pytest -q perfbench/selftest.py

The exact-count test runs every workload traced twice in fresh processes
and takes two to three minutes on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import REFERENCE_S, HostClock  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in PER_LAYER.items()}


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.02))

    def body():
        leaf()
        leaf()
        time.sleep(0.03)

    tracer.wrap("root", body)()
    times = tracer.layer_times()
    calls, total, own = times["root"]
    assert calls == 1 and times["leaf"][0] == 2
    assert own == pytest.approx(total - times["leaf"][1], abs=1e-9)
    assert 0.03 <= own < total


def test_reference_seconds_scale_by_the_bracketing_kernel_times():
    clock = HostClock.__new__(HostClock)  # marks only, no kernel process
    clock.marks = [(0.0, 1.0, REFERENCE_S), (3.0, 4.0, 2 * REFERENCE_S),
                   (6.0, 7.0, REFERENCE_S)]
    assert clock.scaled(1.0, 3.0) == pytest.approx(2.0 / 1.5)
    # the calibration in [3, 4] and the half of [6, 7] count for nothing
    assert clock.scaled(2.0, 6.5) == pytest.approx(3.0 / 1.5)
    with pytest.raises(ValueError):
        clock.scaled(6.5, 8.0)


def test_sampling_calibrates_inside_a_long_op():
    with HostClock() as clock, clock.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.0:
            pass
        t1 = time.perf_counter()
    inside = [m for m in clock.marks if t0 < m[0] < t1]
    assert len(inside) >= 2
    assert clock.scaled(t0, t1) > 0.0
    assert clock.proc.returncode == 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "singular", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_solver_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["numeric_warnings"]["value"] == 0
        results.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
    assert results[0] == results[1]
