"""The benchmark's traced driver still binds to the package it traces.

``benchmarks/tracer.py`` wraps package functions by name; a renamed or
removed function would otherwise show only in a benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    missing = [
        f"{module_name}.{fn_name}"
        for module_name, fn_name, _, _ in _load_tracer().SPANS
        if not callable(getattr(importlib.import_module(f"dischargekit.{module_name}"), fn_name, None))
    ]
    assert missing == []


def test_traced_extract_runs(small_corpus, tmp_path):
    spans = tmp_path / "spans.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--",
         "extract", "--corpus", str(small_corpus), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(spans.read_text(encoding="utf-8"))["distinct"]["corpus.extract_targets"] == 3
