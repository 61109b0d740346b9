"""One replay of the CLI chain builds every golden output, on the standard library alone.

``replay(work)`` runs ``cli.main`` in-process on the corpus ``simulate
--docs 12 --models 3 --seed 5`` writes. Under ``work/golden`` it writes the
golden outputs of ``simulate`` (oracle, des1..des3, des5), ``extract``,
``score`` (native, ``--against-ds``, ``--external``), ``reorder`` (``--mode
per-doc``, ``--mode global`` with its ranking file, ``--apply-ranking``),
``select`` (des1..des5 on both targets, des4 with ``--overall``, des1..des3
``--lenient`` on a score CSV with cells removed), ``correlate`` (pooled and
per-target) and ``evaluate --external``. Under ``work/twin`` it writes the
check-only runs: ``simulate --config des1`` and ``score --external`` with
``--threads 1``, which must write the same files as with the default, and
``score`` of the candidates with two texts emptied, with both ``--threads``
settings, which must agree and lose exactly those texts' readability rows.

It returns one object:

- ``digests``: the sha256 of every file under ``work/golden`` but the manifests;
- ``cells``: per golden score CSV (by file name) and per correlation variant,
  each float cell as ``float.hex``, which the ``.10g`` CSV text would round;
- ``floats``: per CSV written under ``work``, the sha256 of its rows with
  every float cell as ``float.hex``.

``test_golden.py`` compares ``digests`` and ``cells`` with
``tests/data/golden.json``; ``test_interpreters.py`` compares the whole
object across the installed Python versions, which need no third-party
package for it.

``PYTHONPATH=src python tests/replay.py OUT_DIR`` prints the object as JSON.
``PYTHONPATH=src python tests/replay.py --write`` writes ``golden.json``
afresh, only for a deliberate output change that ``CHANGES.md`` names with
its reason.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dischargekit import cli, corpus, scores, tables

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SIMULATE = ("simulate", "--docs", 12, "--models", 3, "--seed", 5)
CORRELATION_HEADER = ("metric", "overall_variant", "r")


def _run(*argv) -> None:
    argv = [str(a) for a in argv]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(out: Path) -> dict[str, bytes]:
    """The bytes of every file under ``out`` but the manifests, by relative path."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def replay(work: Path) -> dict[str, dict]:
    golden, twin = work / "golden", work / "twin"
    twin.mkdir(parents=True)
    cells: dict[str, dict[str, str]] = {}
    floats: dict[str, str] = {}
    write_csv_records = corpus.write_csv_records

    def capture(path, header, rows):
        rows, path = [tuple(row) for row in rows], Path(path)
        text = "\n".join("|".join(v.hex() if isinstance(v, float) else str(v) for v in row) for row in rows)
        floats[str(path.relative_to(work))] = _sha256(text.encode("utf-8"))
        if golden in path.parents and header == scores.EXTERNAL_CSV_HEADER:
            cells[path.name] = {"|".join(row[:4]): row[4].hex() for row in rows}
        elif golden in path.parents and header == CORRELATION_HEADER:
            for metric, variant, r in rows:
                cells.setdefault(f"correlations:{variant}", {})[f"{metric}|{variant}"] = r.hex()
        write_csv_records(path, header, rows)

    # scores binds its own name for the writer, so the hook goes on both.
    corpus.write_csv_records = scores.write_csv_records = capture
    try:
        _build(golden, twin)
    finally:
        corpus.write_csv_records = scores.write_csv_records = write_csv_records
    digests = {name: _sha256(data) for name, data in _outputs(golden).items()}
    return {"digests": digests, "cells": cells, "floats": floats}


def _build(out: Path, twin: Path) -> None:
    for config in ("oracle", "des1", "des2", "des3", "des5"):
        _run(*SIMULATE, "--config", config, "--out", out / f"sim_{config}")
    _run(*SIMULATE, "--config", "des1", "--threads", 1, "--out", twin / "sim_des1")
    if _outputs(out / "sim_des1") != _outputs(twin / "sim_des1"):
        raise RuntimeError("simulate wrote different files with --threads 1")
    sim, ex = out / "sim_oracle", out / "extract"
    cands, targets = sim / "candidates.jsonl", ex / "targets.jsonl"
    _run("extract", "--corpus", sim / "corpus.jsonl", "--out", ex)
    _run("score", "--candidates", cands, "--references", targets, "--out", out / "native.csv")
    _run("score", "--candidates", cands, "--against-ds", ex / "bodies.jsonl",
         "--metrics", ",".join(scores.REFERENCE_METRICS), "--out", out / "ds.csv")
    reorder = ("reorder", "--corpus", sim / "corpus.jsonl", "--budget", 300)
    _run(*reorder, "--reference-targets", targets, "--mode", "per-doc", "--out", out / "reordered.jsonl")
    _run(*reorder, "--reference-targets", targets, "--mode", "global", "--out", out / "reordered_global.jsonl")
    _run(*reorder, "--apply-ranking", out / "reordered_global.jsonl.ranking.json",
         "--out", out / "reordered_applied.jsonl")

    external, scored, overall, sparse = (out / f"{n}.csv" for n in ("external", "scored", "overall", "sparse"))
    scores.write_score_csv(external, scores.synthetic_external_rows(
        corpus.load_candidates(cands), corpus.load_targets(targets), corpus.load_corpus(sim / "corpus.jsonl")
    ))
    score = ("score", "--candidates", cands, "--references", targets, "--external", external)
    _run(*score, "--out", scored)
    _run(*score, "--threads", 1, "--out", twin / "scored.csv")
    if scored.read_bytes() != (twin / "scored.csv").read_bytes():
        raise RuntimeError("score wrote different bytes with --threads 1")
    _score_empty_texts(twin, cands, targets)
    _write_overall_csv(overall, scored)
    _write_sparse_csv(sparse, scored)

    sel = out / "select"
    sel.mkdir()
    for target in ("bhc", "di"):
        select = ("select", "--candidates", cands, "--target", target)
        for config in ("des1", "des2", "des3"):
            _run(*select, "--scores", scored, "--config", config, "--out", sel / f"{target}_{config}.csv")
            _run(*select, "--scores", sparse, "--config", config, "--lenient",
                 "--out", sel / f"{target}_{config}_lenient.csv")
        _run(*select, "--scores", scored, "--config", "des4", "--overall", overall,
             "--out", sel / f"{target}_des4.csv")
        _run(*select, "--scores", scored, "--config", "des5", "--ranking", "model_c,model_a,model_b",
             "--out", sel / f"{target}_des5.csv")
    for mode in ("pooled", "per-target"):
        _run("correlate", "--scores", scored, "--overall", overall, "--mode", mode,
             "--out", out / f"corr_{mode}.csv")

    submission, submission_external = sel / "di_des1.csv", out / "submission_external.csv"
    picked = [corpus.GeneratedCandidate(doc, "submission", corpus.TargetKind.DI, text)
              for doc, text in cli._read_submission(submission)]
    scores.write_score_csv(submission_external, scores.synthetic_external_rows(
        picked, corpus.load_targets(targets), corpus.load_corpus(sim / "corpus.jsonl")
    ))
    _run("evaluate", "--submission", submission, "--references", targets, "--target", "di",
         "--external", submission_external, "--out", out / "evaluate.csv")


def _write_overall_csv(path: Path, scored: Path) -> None:
    """Per-document overall scores of both targets, every bit kept by ``repr``."""
    rows = scores.read_score_csv(scored)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("hadm_id,model_id,target,value\n")
        for target in corpus.TargetKind:
            table = tables.ScoreTable.from_rows(rows, target)
            for (doc, model), value in tables.overall_by_document(table).items():
                fh.write(f"{doc},{model},{target.value},{value!r}\n")


def _write_sparse_csv(path: Path, scored: Path) -> None:
    """The score CSV without medcon on every third document and meteor on the next."""
    rows = scores.read_score_csv(scored)
    docs = scores.first_seen(r[0] for r in rows)
    dropped = {(doc, ("medcon", "meteor")[i % 3]) for i, doc in enumerate(docs) if i % 3 < 2}
    scores.write_score_csv(path, [r for r in rows if (r[0], r[3]) not in dropped])


def _score_empty_texts(twin: Path, cands: Path, targets: Path) -> None:
    """Score the candidates with the first document's first text and the last
    document's last text emptied: each loses exactly its readability rows."""
    candidates = corpus.load_candidates(cands)
    empty = {candidates[0], candidates[-1]}
    corpus.write_candidates(twin / "empty.jsonl", [c._replace(text="") if c in empty else c for c in candidates])
    score = ("score", "--candidates", twin / "empty.jsonl", "--references", targets)
    _run(*score, "--out", twin / "empty_scored.csv")
    _run(*score, "--threads", 1, "--out", twin / "empty_scored_serial.csv")
    if (twin / "empty_scored.csv").read_bytes() != (twin / "empty_scored_serial.csv").read_bytes():
        raise RuntimeError("score of empty texts wrote different bytes with --threads 1")
    kept = {tuple(row[:4]) for row in scores.read_score_csv(twin / "empty_scored.csv")}
    for c in empty:
        for metric in scores.NATIVE_METRICS:
            if ((c.hadm_id, c.model_id, c.target.value, metric) in kept) == (metric in scores.READABILITY_METRICS):
                raise RuntimeError(f"score of an empty text: wrong row presence for {metric}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            data = replay(Path(tmp))
        golden = {"cells": data["cells"], "digests": data["digests"]}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    elif len(sys.argv) == 2:
        print(json.dumps(replay(Path(sys.argv[1])), sort_keys=True))
    else:
        sys.exit("usage: replay.py OUT_DIR | replay.py --write")
