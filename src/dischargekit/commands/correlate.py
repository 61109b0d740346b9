"""``dischargekit correlate``: Pearson r of each score column with the overall score."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import analysis, corpus
from . import _load_score_tables, _metric_names, _read_overall_csv, _write_manifest


def run(args) -> int:
    overalls = _read_overall_csv(args.overall)
    if not overalls:
        raise corpus.ScoreError(f"{args.overall}: no overall rows")
    metrics = _metric_names(args.metrics)
    by_target = _load_score_tables(args.scores, sorted(overalls, key=lambda t: t.value))
    out_rows: list[tuple[str, str, float]] = []
    try:
        if args.mode == "pooled":
            matrix = analysis.correlation_matrix(
                list(by_target.values()),
                [{"overall_pooled": overalls[t]} for t in by_target],
                metrics=metrics,
            )
            out_rows.extend(matrix.to_rows())
        else:
            for target, table in by_target.items():
                matrix = analysis.correlation_matrix(
                    table, {f"overall_{target.value}": overalls[target]}, metrics=metrics
                )
                out_rows.extend(matrix.to_rows())
    except corpus.ScoreError as exc:
        raise corpus.ScoreError(f"{args.overall}: {exc}") from None
    corpus.write_csv_records(args.out, ("metric", "overall_variant", "r"), sorted(out_rows))
    _write_manifest(Path(args.out), "correlate", args, [*args.scores, args.overall])
    print(f"wrote {len(out_rows)} correlations -> {args.out}", file=sys.stderr)
    return 0
