"""Self-test of the benchmark in its tiny smoke size.

Every workload must print exactly the metrics ``BENCHMARK.json`` names, with
their units, pass every correctness check, and produce the same witness
digests with tracing on as with tracing off.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_checks(workload):
    runs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        *_, info_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
        info = json.loads(info_line)["info"]
        assert info["error_rate"] == 0
        runs[trace] = info["digests"]
    assert runs[0] and runs[0] == runs[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_clock_scales_by_the_samples_around_a_span():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from clock import REF_S, Clock

    clock = Clock()
    for at, kernel_s in ((0.0, 2 * REF_S), (0.5, 2 * REF_S), (1.0, REF_S), (9.0, 4 * REF_S)):
        clock.at.append(at)
        clock.kernel_s.append(kernel_s)
    # Two samples in the window at twice the reference kernel time, one at
    # it: the span did 2/3 of the work of a second at reference speed.
    assert clock.scaled((0.0, 1.0, 1.0)) == pytest.approx(2 / 3)
    # No sample within the window: the nearest ones on either side count.
    assert clock.scaled((5.0, 5.5, 0.5)) == pytest.approx(0.5 * (1 + 0.25) / 2)
    assert Clock(sampling=False).scaled((0.0, 1.0, 1.0)) == 1.0
