"""Run every workload, untraced then traced, and print one report.

    python3 perfbench/report.py --seed 1 [--seconds 20] [--size smoke]

Each run is a fresh ``perfbench/run.py`` process, started only after the
previous one has ended, so ``peak_rss_mb`` is the workload's own and at
most two processes (this one and the run) exist. The report lists every
end-to-end metric with its unit and the error rate, the per-layer metrics
of the traced run, the tracing overhead per phase, and whether the traced
run emitted the same witnesses as the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return f"Python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, {model}"


def run(workload: str, args, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    print(f"machine: {machine()}; seed {args.seed}, {args.seconds:g} s per run, size {args.size}")
    for workload in (w["name"] for w in spec["workloads"]):
        info, result = run(workload, args, 0)
        traced_info, traced = run(workload, args, 1)
        m, t = result["metrics"], traced["metrics"]
        print(f"\n== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={info['error_rate']:.4g} passes={info['passes']}")
        for name, metric in m.items():
            print(f"  {name:<16} {metric['value']:>14.6g} {metric['unit']}")
        traced_s = sum(t[f"trace.{phase}_s"]["value"] for phase in ("build", "verify", "reject"))
        print(f"  tracing overhead: {t['trace.spans']['value']} spans cost about "
              f"{t['trace.overhead_s']['value']:.3g} s of {traced_s:.3g} s traced; "
              "traced pass / untraced median pass, both in plain seconds:")
        for phase in ("build", "verify", "reject"):
            base = info["unscaled_s"][phase]
            print(f"    {phase:<7} {t[f'trace.{phase}_s']['value'] / base if base else 0.0:6.2f}x")
        same = info["digests"] == traced_info["digests"]
        print(f"  traced witnesses identical to untraced: {same} ({len(info['digests'])} digests)")
        print("  per layer (traced run, nonzero):")
        for name, metric in t.items():
            if metric["value"]:
                print(f"    {name:<46} {metric['value']:>14.6g} {metric['unit']}")


if __name__ == "__main__":
    main()
