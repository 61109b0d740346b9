"""The simulate -> score -> select -> correlate chain, on the standard library alone.

``PYTHONPATH=src python tests/replay.py OUT_DIR`` runs ``simulate --docs 12
--models 3 --seed 5 --config des1``; scores its candidates with the native
metrics and the synthetic external stand-ins (``score --external``), with
the default ``--threads`` and with ``--threads 1``, which must agree; runs
``select`` with des1 and with des4 (``--overall``) on both targets and
``correlate`` in both modes; and prints as one JSON object the sha256 of
every output under ``OUT_DIR`` except manifests, and of the ``float.hex``
of every float cell written to a CSV, which the ``.10g`` text would round.
``test_interpreters.py`` compares that object across the installed Python
versions, which need no third-party package for it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from dischargekit import cli, corpus, scores
from test_golden import _write_overall_csv


def _run(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"{argv[0]} exited with {code}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(work: Path) -> dict[str, str]:
    cells: dict[str, str] = {}
    write_csv_records = corpus.write_csv_records

    def capture(path, header, rows):
        rows = [tuple(row) for row in rows]
        text = "\n".join("|".join(v.hex() if isinstance(v, float) else str(v) for v in row) for row in rows)
        cells[f"{Path(path).relative_to(work)} cells"] = _sha256(text.encode("utf-8"))
        write_csv_records(path, header, rows)

    corpus.write_csv_records = scores.write_csv_records = capture
    try:
        _chain(work)
    finally:
        corpus.write_csv_records = scores.write_csv_records = write_csv_records
    files = {
        str(p.relative_to(work)): _sha256(p.read_bytes())
        for p in sorted(work.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }
    return {**files, **cells}


def _chain(work: Path) -> None:
    sim, ext = work / "sim", work / "ext"
    _run("simulate", "--docs", 12, "--models", 3, "--seed", 5, "--config", "des1", "--out", sim)
    _run("extract", "--corpus", sim / "corpus.jsonl", "--out", ext)
    cands, targets = sim / "candidates.jsonl", ext / "targets.jsonl"
    external = work / "external.csv"
    scores.write_score_csv(external, scores.synthetic_external_rows(
        corpus.load_candidates(cands), corpus.load_targets(targets), corpus.load_corpus(sim / "corpus.jsonl")
    ))
    scored, overall = work / "scored.csv", work / "overall.csv"
    score = ("score", "--candidates", cands, "--references", targets, "--external", external)
    _run(*score, "--out", scored)
    _run(*score, "--threads", 1, "--out", work / "scored_serial.csv")
    if scored.read_bytes() != (work / "scored_serial.csv").read_bytes():
        raise SystemExit("score wrote different bytes with --threads 1")
    _write_overall_csv(overall, scored)
    for target in ("bhc", "di"):
        select = ("select", "--scores", scored, "--candidates", cands, "--target", target)
        _run(*select, "--config", "des1", "--out", work / f"{target}_des1.csv")
        _run(*select, "--config", "des4", "--overall", overall, "--out", work / f"{target}_des4.csv")
    for mode in ("pooled", "per-target"):
        _run("correlate", "--scores", scored, "--overall", overall, "--mode", mode,
             "--out", work / f"corr_{mode}.csv")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: replay.py OUT_DIR")
    print(json.dumps(replay(Path(sys.argv[1])), sort_keys=True))
