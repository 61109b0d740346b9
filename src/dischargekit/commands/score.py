"""``dischargekit score``: the native metric suite, or a factuality proxy against the note body."""

from __future__ import annotations

import math
import sys
from pathlib import Path

from .. import corpus, scores
from . import _metric_names, _write_manifest


def run(args) -> int:
    """Score every candidate, holding one document's texts at a time: pass 1
    checks every line of each input and keeps ids, lines, offsets and text
    lengths; the shards of ``scores.score_columns`` read each document's lines
    back when they score it, and the rows stream from its columns to the CSV."""
    if args.against_ds and args.references:
        raise scores.ScoreError(
            "--against-ds scores against the note body, so --references cannot be given with it"
        )
    candidates = corpus.load_candidates(args.candidates, lazy=True)
    metrics = _metric_names(args.metrics)
    inputs = [args.candidates, *filter(None, [args.against_ds, args.references]), *args.external]
    targets_present = sorted({c.target for c in candidates}, key=lambda t: t.value)
    if args.against_ds:
        bodies = _load_bodies(args.against_ds, lazy=True)
        _check_against(candidates, bodies, args.against_ds, "discharge summary")
        summaries = [corpus.DischargeSummary(hadm_id=k, full_text=v, body_without_targets=v) for k, v in bodies.items()]
        proxy_metrics = metrics or ("meteor",)
        jobs = [scores.factuality_proxy_job(candidates, summaries, proxy_metrics, t) for t in targets_present]
    else:
        references = corpus.load_targets(args.references, lazy=True) if args.references else None
        if references is not None and (metrics is None or set(metrics) & set(scores.REFERENCE_METRICS)):
            _check_against(candidates, references, args.references, "reference")
        jobs = [scores.native_score_job(candidates, references, metrics, t) for t in targets_present]
    scored = scores.score_columns(jobs, args.threads)
    written = _defined_cells(scored)
    # A pool read from a file holds each (hadm_id, model_id) once, so each candidate has one cell per column.
    undefined = sum(len(pool) * len(columns) for pool, _, columns, _ in jobs) - written
    if args.external:
        from .. import tables

        for i, job_columns in enumerate(scored):
            table = tables.ScoreTable(*job_columns)
            for path in args.external:
                table = tables.load_external_scores(path, table)
            scored[i] = table.target, table.documents, table.models, table.metrics, table.columns
        written = _defined_cells(scored)
    scores.write_score_csv(args.out, (row for job_columns in scored for row in corpus.table_rows(*job_columns)))
    counts = {
        "documents": len({c.hadm_id for c in candidates}),
        "models": len({c.model_id for c in candidates}),
        "candidates": len(candidates),
        "cells": written,
        "undefined_cells": undefined,
    }
    _write_manifest(Path(args.out), "score", args, inputs, counts)
    note = f" ({undefined} undefined)" if undefined else ""
    print(f"wrote {written} score cells{note} -> {args.out}", file=sys.stderr)
    return 0


def _defined_cells(scored) -> int:
    """The non-NaN cells of jobs in ``scores.score_columns`` layout."""
    return sum(len(column) - sum(map(math.isnan, column)) for *_, columns in scored for column in columns)


def _load_bodies(path, lazy: bool = False) -> dict[str, str]:
    """hadm_id -> its body, a TextRef if ``lazy``."""
    records = corpus.read_jsonl_records(path, ("hadm_id", "body"), key=("hadm_id",), lazy=(1,) if lazy else ())
    return {hadm_id: body for _, (hadm_id, body) in records}


def _check_against(candidates, texts, path, what: str) -> None:
    """Name the candidate's file and line, and ``path``, for the first candidate with no text in ``texts``."""
    for c in candidates:
        if c.hadm_id not in texts:
            raise corpus.CorpusError(
                f"{c.text.path}: line {c.text.line}: no {what} for hadm_id {c.hadm_id!r} in {path}"
            )
