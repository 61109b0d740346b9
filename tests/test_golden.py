"""Golden outputs: the CLI paths that text-layer rewrites touch must stay byte-identical.

Runs ``cli.main`` in-process on the corpus ``simulate --docs 12 --models 3
--seed 5`` writes and compares the sha256 of every output except manifests
with ``tests/data/golden.json``. Score cells are also compared as
``float.hex``, because the ``.10g`` CSV text hides a last-bit drift.

A change that moves a digest must name the output and the reason in
``CHANGES.md``. To write the file afresh (only for a deliberate, documented
output change): ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from dischargekit import cli, scores

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SIMULATE = ("--docs", "12", "--models", "3", "--seed", "5")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0, argv


def golden_outputs(work: Path) -> dict:
    """Run the covered commands under ``work``; return output digests and score cells."""
    cells: dict[str, dict[str, str]] = {}
    write_score_csv = scores.write_score_csv

    def capture(path, rows):
        rows = list(rows)
        cells[Path(path).name] = {
            "|".join(row[:4]): float.hex(row[4]) for row in rows
        }
        write_score_csv(path, rows)

    scores.write_score_csv = capture
    try:
        for config in ("oracle", "des1", "des3"):
            _run("simulate", *SIMULATE, "--config", config, "--out", work / f"sim_{config}")
        sim = work / "sim_oracle"
        _run("extract", "--corpus", sim / "corpus.jsonl", "--out", work / "extract")
        ex = work / "extract"
        cands = sim / "candidates.jsonl"
        _run("score", "--candidates", cands, "--references", ex / "targets.jsonl",
             "--out", work / "native.csv")
        _run("score", "--candidates", cands, "--against-ds", ex / "bodies.jsonl",
             "--metrics", ",".join(scores.REFERENCE_METRICS), "--out", work / "ds.csv")
        _run("reorder", "--corpus", sim / "corpus.jsonl", "--reference-targets",
             ex / "targets.jsonl", "--mode", "per-doc", "--budget", "300",
             "--out", work / "reordered.jsonl")
    finally:
        scores.write_score_csv = write_score_csv
    digests = {
        str(p.relative_to(work)): _sha256(p)
        for p in sorted(work.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }
    return {"digests": digests, "cells": cells}


def test_golden_outputs_unchanged(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_outputs(tmp_path)
    assert sorted(actual["digests"]) == sorted(expected["digests"])
    changed = [k for k, v in expected["digests"].items() if actual["digests"][k] != v]
    assert not changed, f"outputs changed: {changed}"
    for name, want in expected["cells"].items():
        got = actual["cells"][name]
        assert sorted(got) == sorted(want), name
        drift = [k for k, v in want.items() if got[k] != v]
        assert not drift, f"{name}: {len(drift)} cells drifted, first {drift[:3]}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = golden_outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
