"""Golden outputs: the CLI paths that text-layer and score-table rewrites touch must stay byte-identical.

Runs ``cli.main`` in-process on the corpus ``simulate --docs 12 --models 3
--seed 5`` writes and compares the sha256 of every output except manifests
with ``tests/data/golden.json``. Score cells and correlations are also
compared as ``float.hex``, because the ``.10g`` CSV text hides a last-bit
drift. The per-document overall CSV is written with ``repr``, so its digest
pins every bit of ``overall_by_document``.

Covered: ``simulate`` (oracle, des1..des3, des5), ``extract``, ``score``
(native, ``--against-ds``, ``--external``), ``reorder`` (``--mode
per-doc``, ``--mode global`` with its ranking file, ``--apply-ranking``),
``select`` (des1..des5 on both targets, des4 with ``--overall``,
``--lenient`` on a score CSV with cells removed), ``correlate`` (pooled and
per-target) and ``evaluate --external``.

A change that moves a digest must name the output and the reason in
``CHANGES.md``. To write the file afresh (only for a deliberate, documented
output change): ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from dischargekit import analysis, cli, corpus, scores, tables

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SIMULATE = ("--docs", "12", "--models", "3", "--seed", "5")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0, argv


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


def _write_submission_external(path: Path, submission: Path, sim: Path, ex: Path) -> None:
    """External stand-in scores for a submission, keyed by evaluate's default model id."""
    candidates = [
        corpus.GeneratedCandidate(doc, "submission", corpus.TargetKind.DI, text, len(text.split()))
        for doc, text in cli._read_submission(submission)
    ]
    rows = scores.synthetic_external_rows(
        candidates, corpus.load_targets(ex / "targets.jsonl"), corpus.load_corpus(sim / "corpus.jsonl")
    )
    scores.write_score_csv(path, rows)


def golden_outputs(work: Path) -> dict:
    """Run the covered commands under ``work``; return output digests and score cells."""
    cells: dict[str, dict[str, str]] = {}
    write_score_csv = scores.write_score_csv
    correlation_matrix = analysis.correlation_matrix

    def capture(path, rows):
        rows = list(rows)
        cells[Path(path).name] = {
            "|".join(row[:4]): float.hex(row[4]) for row in rows
        }
        write_score_csv(path, rows)

    def capture_correlations(*args, **kwargs):
        matrix = correlation_matrix(*args, **kwargs)
        cells["correlations:" + ",".join(matrix.variants)] = {f"{m}|{v}": float.hex(r) for m, v, r in matrix.to_rows()}
        return matrix

    scores.write_score_csv = capture
    analysis.correlation_matrix = capture_correlations
    try:
        for config in ("oracle", "des1", "des2", "des3", "des5"):
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
        _run("reorder", "--corpus", sim / "corpus.jsonl", "--reference-targets",
             ex / "targets.jsonl", "--mode", "global", "--budget", "300",
             "--out", work / "reordered_global.jsonl")
        _run("reorder", "--corpus", sim / "corpus.jsonl", "--apply-ranking",
             work / "reordered_global.jsonl.ranking.json", "--budget", "300",
             "--out", work / "reordered_applied.jsonl")

        pool = corpus.load_candidates(cands)
        external = work / "external.csv"
        scores.write_score_csv(external, scores.synthetic_external_rows(
            pool, corpus.load_targets(ex / "targets.jsonl"), corpus.load_corpus(sim / "corpus.jsonl")
        ))
        scored = work / "scored.csv"
        _run("score", "--candidates", cands, "--references", ex / "targets.jsonl",
             "--external", external, "--out", scored)
        overall = work / "overall.csv"
        _write_overall_csv(overall, scored)
        sparse = work / "sparse.csv"
        _write_sparse_csv(sparse, scored)
        sel = work / "select"
        sel.mkdir()
        for target in ("bhc", "di"):
            select = ("select", "--scores", scored, "--candidates", cands, "--target", target)
            for config in ("des1", "des2", "des3"):
                _run(*select, "--config", config, "--out", sel / f"{target}_{config}.csv")
                _run("select", "--scores", sparse, "--candidates", cands, "--target", target,
                     "--config", config, "--lenient", "--out", sel / f"{target}_{config}_lenient.csv")
            _run(*select, "--config", "des4", "--overall", overall, "--out", sel / f"{target}_des4.csv")
            _run(*select, "--config", "des5", "--ranking", "model_c,model_a,model_b",
                 "--out", sel / f"{target}_des5.csv")
        for mode in ("pooled", "per-target"):
            _run("correlate", "--scores", scored, "--overall", overall, "--mode", mode,
                 "--out", work / f"corr_{mode}.csv")
        submission_external = work / "submission_external.csv"
        _write_submission_external(submission_external, sel / "di_des1.csv", sim, ex)
        _run("evaluate", "--submission", sel / "di_des1.csv", "--references", ex / "targets.jsonl",
             "--target", "di", "--external", submission_external, "--out", work / "evaluate.csv")
    finally:
        scores.write_score_csv = write_score_csv
        analysis.correlation_matrix = correlation_matrix
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
