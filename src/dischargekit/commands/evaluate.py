"""``dischargekit evaluate``: score a submission and report the overall score."""

from __future__ import annotations

import math
from pathlib import Path

from .. import corpus, scores, tables
from ..corpus import TargetKind
from . import _mean, _write_manifest


def run(args) -> int:
    target = TargetKind.parse(args.target)
    submission = _read_submission(args.submission)
    targets = corpus.load_targets(args.references)
    missing = [hadm_id for hadm_id, _ in submission if hadm_id not in targets]
    if missing:
        raise corpus.CorpusError(
            f"submission hadm_ids missing from references: {', '.join(missing[:5])}"
        )
    candidates = [corpus.GeneratedCandidate(doc, args.model_id, target, text) for doc, text in submission]
    job = scores.native_score_job(candidates, targets, scores.REFERENCE_METRICS, target)
    table = tables.ScoreTable(*scores.score_columns([job], args.threads)[0])
    for path in args.external:
        table = tables.load_external_scores(path, table)
    overall = tables.overall_by_document(table)
    report_rows: list[tuple[str, str, float]] = []
    for doc in table.documents:
        for metric in table.metrics:
            value = table.get(doc, args.model_id, metric)
            if not math.isnan(value):
                report_rows.append((doc, metric, value))
        report_rows.append((doc, "overall", overall[(doc, args.model_id)]))
    metric_names = list(table.metrics) + ["overall"]
    means = {
        metric: _mean(v for _, m, v in report_rows if m == metric) for metric in metric_names
    }
    mean_rows = [("MEAN", metric, means[metric]) for metric in metric_names]
    corpus.write_csv_records(args.out, ("hadm_id", "metric", "value"), report_rows + mean_rows)
    width = max(len(m) for m in metric_names)
    print(f"{'metric'.ljust(width)}  corpus mean")
    for metric in metric_names:
        print(f"{metric.ljust(width)}  {means[metric]:.4f}")
    _write_manifest(Path(args.out), "evaluate", args, [args.submission, args.references, *args.external])
    return 0


def _read_submission(path) -> list[tuple[str, str]]:
    header = ("hadm_id", "text")
    records = corpus.read_csv_records(path, header, corpus.CorpusError, key=header[:1])
    return [(hadm_id, text) for _, (hadm_id, text) in records]
