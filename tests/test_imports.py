from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dischargekit
from dischargekit import corpus

# Modules that extract and reorder never need; scores, des and analysis
# import numpy.
HEAVY = ("numpy", "dischargekit.scores", "dischargekit.des", "dischargekit.analysis")

PROBE = """
import json, sys
heavy = {heavy!r}
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
from dischargekit import cli
seen = {{"import": loaded()}}
codes = [cli.main({extract!r})]
seen["extract"] = loaded()
codes.append(cli.main({reorder!r}))
seen["reorder"] = loaded()
print(json.dumps({{"codes": codes, "seen": seen}}))
"""


def test_extract_and_reorder_never_load_numpy_or_scoring_modules(tmp_path):
    summaries, _ = corpus.generate_synthetic_corpus(3, 1, seed=4)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus.write_corpus(corpus_path, summaries)
    extract = ["extract", "--corpus", str(corpus_path), "--out", str(tmp_path / "ext")]
    reorder = [
        "reorder", "--mode", "per-doc",
        "--corpus", str(corpus_path),
        "--reference-targets", str(tmp_path / "ext" / "targets.jsonl"),
        "--out", str(tmp_path / "reordered.jsonl"),
    ]
    code = PROBE.format(heavy=HEAVY, extract=extract, reorder=reorder)
    src = str(Path(dischargekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0], proc.stderr
    assert report["seen"] == {"import": [], "extract": [], "reorder": []}
    assert (tmp_path / "reordered.jsonl").read_text(encoding="utf-8").count("\n") == 3


def test_every_public_name_resolves_to_its_submodule_binding():
    wrong = [
        name
        for name, module in dischargekit._SUBMODULE.items()
        if getattr(dischargekit, name) is not getattr(importlib.import_module(f"dischargekit.{module}"), name)
    ]
    assert wrong == []


def test_public_names_are_the_documented_fifty():
    assert len(dischargekit.__all__) == 50
    assert dischargekit.__version__ == "0.1.0"
    namespace: dict = {}
    exec("from dischargekit import *", namespace)
    assert set(dischargekit.__all__) <= set(namespace)


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dischargekit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from dischargekit import no_such_name", {})
