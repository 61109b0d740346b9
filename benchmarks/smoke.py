"""Smoke test of the benchmark itself: ``python3 benchmarks/smoke.py`` from the checkout root.

Runs every workload at its tiny size, untraced and traced, and checks that

* each run exits 0 with ``correct`` true and no failed invocation;
* every metric that ``BENCHMARK.json`` declares for the mode is reported,
  with its declared unit and a finite value;
* traced and untraced runs of one seed produce identical output digests;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits nonzero without printing a result.

Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(Path(BENCH.name) / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
    return done.returncode, done.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        outputs = {}
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            code, lines = _run(ROOT, workload, trace)
            if code != 0 or not lines:
                problems.append(f"{tag}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            outputs[trace] = next(json.loads(l)["outputs"] for l in lines if l.startswith('{"outputs"'))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            for metric in declared[trace]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{tag}: metric {metric['name']} missing, mis-unitted or not finite: {got}")
            extra = sorted(set(metrics) - {m["name"] for m in declared[trace]})
            if extra:
                problems.append(f"{tag}: undeclared metrics {extra}")
            print(f"ok   {tag}: {result['attempted']} invocations", flush=True)
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            problems.append(f"{workload}: traced and untraced output digests differ")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = _run(bare, spec["workloads"][0]["name"], 0)
        if code == 0 or any(l.startswith('{"correct"') for l in lines):
            problems.append("without the program the benchmark did not fail")
        else:
            print(f"ok   bare benchmark directory: exit code {code}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
