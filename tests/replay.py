"""The simulate -> score -> select -> correlate chain, on the standard library alone.

``PYTHONPATH=src python tests/replay.py OUT_DIR`` runs ``simulate --docs 12
--models 3 --seed 5 --config des1`` with the default ``--threads`` and with
``--threads 1``, which must write the same files; scores its candidates with
the native metrics and the synthetic external stand-ins (``score
--external``), again with both ``--threads`` settings, which must agree;
scores a copy of the candidates with two texts emptied, whose readability
cells are undefined, with both ``--threads`` settings, which must agree; runs
``select`` on both targets with des1, des4 (``--overall``), des5
(``--ranking``) and des1 ``--lenient`` on a score CSV with cells removed, and
``correlate`` in both modes; and prints as one JSON object the sha256 of
every output under ``OUT_DIR`` except manifests, and of the ``float.hex``
of every float cell written to a CSV, which the ``.10g`` text would round.
``test_interpreters.py`` compares that object across the installed Python
versions, which need no third-party package for it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from dischargekit import cli, corpus, scores
from test_golden import _write_overall_csv, _write_sparse_csv


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
    files = {name: _sha256(data) for name, data in _outputs(work).items()}
    return {**files, **cells}


def _outputs(out: Path) -> dict[str, bytes]:
    """The bytes of every file under ``out`` but the manifests, by relative path."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def _chain(work: Path) -> None:
    sim, ext = work / "sim", work / "ext"
    simulate = ("simulate", "--docs", 12, "--models", 3, "--seed", 5, "--config", "des1")
    _run(*simulate, "--out", sim)
    _run(*simulate, "--threads", 1, "--out", work / "sim_serial")
    if _outputs(sim) != _outputs(work / "sim_serial"):
        raise SystemExit("simulate wrote different files with --threads 1")
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
    _score_empty_texts(work, cands, targets)
    sparse = work / "sparse.csv"
    _write_sparse_csv(sparse, scored)
    for target in ("bhc", "di"):
        select = ("select", "--scores", scored, "--candidates", cands, "--target", target)
        _run(*select, "--config", "des1", "--out", work / f"{target}_des1.csv")
        _run(*select, "--config", "des4", "--overall", overall, "--out", work / f"{target}_des4.csv")
        _run(*select, "--config", "des5", "--ranking", "model_c,model_a,model_b", "--out", work / f"{target}_des5.csv")
        _run("select", "--scores", sparse, "--candidates", cands, "--target", target, "--config", "des1",
             "--lenient", "--out", work / f"{target}_des1_lenient.csv")
    for mode in ("pooled", "per-target"):
        _run("correlate", "--scores", scored, "--overall", overall, "--mode", mode,
             "--out", work / f"corr_{mode}.csv")


def _score_empty_texts(work: Path, cands: Path, targets: Path) -> None:
    """Score the candidates with the first document's first text and the last
    document's last text emptied: each loses exactly its readability rows."""
    candidates = corpus.load_candidates(cands)
    empty = {candidates[0], candidates[-1]}
    broken = [dataclasses.replace(c, text="", word_count=0) if c in empty else c for c in candidates]
    corpus.write_candidates(work / "empty_candidates.jsonl", broken)
    score = ("score", "--candidates", work / "empty_candidates.jsonl", "--references", targets)
    _run(*score, "--out", work / "empty_scored.csv")
    _run(*score, "--threads", 1, "--out", work / "empty_scored_serial.csv")
    if (work / "empty_scored.csv").read_bytes() != (work / "empty_scored_serial.csv").read_bytes():
        raise SystemExit("score of empty texts wrote different bytes with --threads 1")
    kept = {(doc, model, target, metric) for doc, model, target, metric, _ in
            scores.read_score_csv(work / "empty_scored.csv")}
    for c in empty:
        for metric in scores.NATIVE_METRICS:
            if ((c.hadm_id, c.model_id, c.target.value, metric) in kept) == (metric in scores.READABILITY_METRICS):
                raise SystemExit(f"score of an empty text: wrong row presence for {metric}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: replay.py OUT_DIR")
    print(json.dumps(replay(Path(sys.argv[1])), sort_keys=True))
