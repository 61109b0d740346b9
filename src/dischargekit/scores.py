"""Score rows and the eight-metric overall score.

A job ``(pool, target, columns, against)`` asks for one column per metric
for every candidate of a one-target pool; :func:`native_score_job` and
:func:`factuality_proxy_job` build them, and
:func:`dischargekit.synthetic.synthetic_external_jobs` those of the
stand-ins for the external metrics. :func:`score_jobs` scores a list of
jobs into long-form rows ``(hadm_id, model_id, target, metric, value)``,
by document shards in forked worker processes, and
:func:`dischargekit.tables.job_table` turns a job's rows into its table.
Native metrics are computed here; neural or licensed metrics (bertscore,
alignscore, medcon, summac) are ingested from external CSV files and
merged into the same score table.

What each process holds: ``score`` reads its inputs with ``lazy`` set, so
a job's candidate texts and ``against`` texts are
:class:`~dischargekit.corpus.TextRef` values, and the process that forks
holds ids, line numbers, offsets and lengths but no text. Each shard, in
that process or a worker, reads one document's texts, scores every job's
candidates of it, and drops them before the next document. What comes
back is one float per cell (:func:`score_cells`), and ``score`` streams
the rows :func:`job_rows` makes of them into the CSV writer. Jobs built
in memory (``simulate``, ``evaluate``, the library) hold their texts
already and go through the same walk.

A readability formula undefined for a text (one with no words) gives a NaN
cell, which the rows leave out: every consumer treats it as a missing cell,
and no candidate text makes scoring raise.

:class:`~dischargekit.tables.ScoreTable` and the functions that build or
read one live in :mod:`dischargekit.tables`, so ``score`` without
``--external``, which writes :func:`score_jobs`' rows as they are, never
loads them. The package needs no numpy: importing it would cost a fresh
process about 0.1 s and 13 MB, more than the table work it would speed up.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import BinaryIO, NamedTuple

from . import readability, relevance
# The score-file vocabulary is defined in corpus, so the table side can use it
# without this module; it is re-exported here.
from .corpus import (
    DS_SUFFIX, EXTERNAL_CSV_HEADER, NATIVE_METRICS, OVERALL_METRICS, READABILITY_METRICS, REFERENCE_METRICS,
    DischargeSummary, ExtractedTargets, GeneratedCandidate, Job, ScoreError, TargetKind, TextRef,
    first_seen, parse_score_cell, read_csv_records, read_text, reference_text, write_csv_records,
)
from .relevance import stem
from .textprep import tokenize, words
from .workers import Task, can_fork, usable_cpus


def _stemmed_unigram_f1(candidate: str, reference: str) -> float:
    ca = Counter(stem(w) for w in words(candidate))
    cb = Counter(stem(w) for w in words(reference))
    matches = relevance._clipped_matches(ca, cb)
    return relevance._overlap_f1(matches, sum(ca.values()), sum(cb.values()))


def _stemmed_jaccard(candidate: str, reference: str) -> float:
    sa = {stem(w) for w in words(candidate)}
    sb = {stem(w) for w in words(reference)}
    union = sa | sb
    return len(sa & sb) / len(union) if union else 0.0


# Every in-process metric, bound once; the last three stand in for external ones.
METRICS = {
    "bleu4": relevance.bleu4,
    "rouge_1": relevance.rouge_1,
    "rouge_2": relevance.rouge_2,
    "rouge_l": relevance.rouge_l,
    "meteor": relevance.meteor,
    "fkgl": readability.fkgl,
    "dcrs": readability.dcrs,
    "cli": readability.cli,
    "bertscore": _stemmed_unigram_f1,
    "medcon": _stemmed_jaccard,
    "alignscore": relevance.rouge_2,
}


def _infer_target(candidates: Sequence[GeneratedCandidate], target: TargetKind | None) -> TargetKind:
    kinds = {c.target for c in candidates}
    if target is not None:
        return target
    if len(kinds) == 1:
        return next(iter(kinds))
    raise ScoreError("candidates span multiple target kinds; pass target explicitly")


def _against(
    pool: Sequence[GeneratedCandidate],
    texts: Mapping[str, ExtractedTargets] | Mapping[str, str],
    what: str,
) -> dict[str, str]:
    """hadm_id -> the text each pool document is compared with.

    An ExtractedTargets value stands for its section of the candidate's target.
    """
    against = {}
    for c in pool:
        if c.hadm_id not in texts:
            raise ScoreError(f"no {what} for hadm_id {c.hadm_id!r}")
        text = texts[c.hadm_id]
        if isinstance(text, ExtractedTargets):
            text = reference_text(texts, c.hadm_id, c.target)
        against[c.hadm_id] = text
    return against


def _cells(text: str, against: str | None, metrics: Sequence[str]) -> array:
    """A candidate's value for each of ``metrics``, NaN where undefined."""
    cells = array("d")
    tok = None
    for metric in metrics:
        if metric not in READABILITY_METRICS:
            cells.append(float(METRICS[metric](text, against)))
            continue
        if tok is None:
            tok = tokenize(text)
        try:
            cells.append(float(METRICS[metric](tok)))
        except readability.DegenerateTextError:
            cells.append(math.nan)
    return cells


def job_rows(job: Job, cells: array) -> Iterator[tuple[str, str, str, str, float]]:
    """A job's rows from its :func:`score_cells` cells, in the order of
    :func:`score_jobs`."""
    pool, target, columns, _ = job
    names, width = sorted(columns), len(columns)
    doc_pos = {doc: i for i, doc in enumerate(first_seen(c.hadm_id for c in pool))}
    model_pos = {model: j for j, model in enumerate(first_seen(c.model_id for c in pool))}
    # Table cell -> pool position; a later candidate for a cell replaces an earlier one.
    last = {doc_pos[c.hadm_id] * len(model_pos) + model_pos[c.model_id]: pos for pos, c in enumerate(pool)}
    wanted = target.value
    for cell in sorted(last):
        pos = last[cell]
        c = pool[pos]
        for name, value in zip(names, cells[pos * width : (pos + 1) * width]):
            if value == value:  # False only for NaN
                yield c.hadm_id, c.model_id, wanted, name, value


# --- scoring in worker processes ----------------------------------------------


def score_jobs(
    jobs: Sequence[Job], workers: int | None = None
) -> list[list[tuple[str, str, str, str, float]]]:
    """Each job's long-form rows, scored by up to ``workers`` processes.

    Column ``name`` holds metric ``columns[name]`` of :data:`METRICS`.
    Readability metrics read the candidate alone, tokenized at most once;
    every other metric compares the candidate with ``against[hadm_id]``.
    Rows come in :meth:`~dischargekit.tables.ScoreTable.to_rows` order:
    documents, then models, each in first-seen pool order, then columns,
    sorted; undefined (NaN) cells are dropped, and a later candidate for a
    (hadm_id, model_id) pair replaces an earlier one.

    What each process holds, and when, is as in :func:`score_cells`: a
    shard holds one document's texts while it scores them, and this process
    holds each job's cells once the shards are done; the rows are built
    from the cells only here, at the end.
    """
    return [list(job_rows(job, cells)) for job, cells in zip(jobs, score_cells(jobs, workers))]


def score_cells(jobs: Sequence[Job], workers: int | None = None) -> list[array]:
    """Each job's cells: ``len(columns)`` per pool position, in sorted column
    order, NaN where undefined; :func:`job_rows` turns them into rows.

    A candidate's text and its ``against`` text may each be a
    :class:`~dischargekit.corpus.TextRef`, read only when its document is
    scored. The documents of all jobs, in first-seen order, are split into
    ``min(workers, usable_cpus(), documents)`` contiguous shards of about
    equal candidate text length (``workers`` None means no cap), or one
    empty shard. This process scores the first shard; each other shard is
    a :class:`~dischargekit.workers.Task`, scored in a forked child, which
    sends back only its cells. A child stopped by a ``ValueError`` or ``OSError`` sends
    nothing, and its shard is scored again here, after the shards before
    it, so the error of the first shard in document order wins, as in one
    process. Every child is reaped before this returns or raises. So this
    process holds no text it was not given when it forks, and only cells
    after. Results never depend on the split: an undefined cell is left out
    in every shard. Where :func:`~dischargekit.workers.can_fork` is false
    every job is scored here.
    """
    n = usable_cpus() if workers is None else min(workers, usable_cpus())
    parts = _split(jobs, n if can_fork() else 1) or [[[] for _ in jobs]]
    tasks: list[Task] = []
    try:
        for part in parts[1:]:
            tasks.append(Task(_score_shard, jobs, part))
        results = [_score_shard(jobs, parts[0])]
        results += [[array("d", cells) for cells in task.result()] for task in tasks]
    finally:
        for task in tasks:
            task.close()
    out = [array("d", [math.nan]) * (len(job[0]) * len(job[2])) for job in jobs]
    for part, shard in zip(parts, results):
        for job, cells, positions, scored in zip(jobs, out, part, shard):
            width = len(job[2])
            for k, pos in enumerate(positions):
                cells[pos * width : (pos + 1) * width] = scored[k * width : (k + 1) * width]
    return out


def _length(text: str | TextRef) -> int:
    return text.length if isinstance(text, TextRef) else len(text)


def _split(jobs: Sequence[Job], n: int) -> list[list[list[int]]]:
    """The non-empty shards of at most ``n`` contiguous runs of documents; each
    shard holds, per job, the pool positions of its documents' candidates."""
    weight: dict[str, int] = {}
    for pool, *_ in jobs:
        for c in pool:
            weight[c.hadm_id] = weight.get(c.hadm_id, 0) + _length(c.text) + 1
    n, total, done = max(1, min(n, len(weight))), sum(weight.values()), 0
    shard_of = {}
    for doc, w in weight.items():
        shard_of[doc] = (2 * done + w) * n // (2 * total)  # the shard of the document's midpoint
        done += w
    parts = [[[] for _ in jobs] for _ in range(n)]
    for j, (pool, *_) in enumerate(jobs):
        for pos, c in enumerate(pool):
            parts[shard_of[c.hadm_id]][j].append(pos)
    return [part for part in parts if any(part)]


def _score_shard(jobs: Sequence[Job], part: list[list[int]]) -> list[array]:
    """Each job's cells for its positions in ``part``, in that order.

    Documents come in first-seen order, and each one's candidates of every
    job, in job and then pool order, are scored before the next document's:
    its TextRefs are read when it is reached and dropped after it, and a
    text compared with several candidates in a row is split into words once.
    """
    by_doc: dict[str, list[tuple[int, int]]] = {}  # hadm_id -> (job, index in part[job])
    for j, ((pool, *_), positions) in enumerate(zip(jobs, part)):
        for k, pos in enumerate(positions):
            by_doc.setdefault(pool[pos].hadm_id, []).append((j, k))
    metrics = [[columns[name] for name in sorted(columns)] for _, _, columns, _ in jobs]
    compares = [any(m not in READABILITY_METRICS for m in job_metrics) for job_metrics in metrics]
    out = [array("d", [math.nan]) * (len(positions) * len(job_metrics)) for positions, job_metrics in zip(part, metrics)]
    files: dict[str, BinaryIO] = {}  # path -> binary handle, for reading TextRefs
    try:
        for doc, picks in by_doc.items():
            texts: dict[TextRef, str] = {}  # this document's texts read so far
            for j, k in picks:
                pool, _, _, against = jobs[j]
                c = pool[part[j][k]]
                text = _text(c.text, (c.hadm_id, c.model_id, c.target.value), files, texts)
                other = _text(against[doc], (doc,), files, texts) if compares[j] else None
                width = len(metrics[j])
                out[j][k * width : (k + 1) * width] = _cells(text, other, metrics[j])
    finally:
        for fh in files.values():
            fh.close()
    return out


def _text(text: str | TextRef, key: tuple[str, ...], files: dict, texts: dict) -> str:
    """``text``, read once per document if it is a TextRef; see :func:`~dischargekit.corpus.read_text`."""
    if isinstance(text, str):
        return text
    if text not in texts:
        if text.path not in files:
            files[text.path] = open(text.path, "rb")
        texts[text] = read_text(text, files[text.path], key)
    return texts[text]


def native_score_job(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets] | Mapping[str, str] | None = None,
    metrics: Sequence[str] | None = None,
    target: TargetKind | None = None,
) -> Job:
    """The job that scores candidates with the native suite.

    Reference-based metrics need a reference per hadm_id; readability
    metrics are reference-free and may be requested alone.
    """
    if metrics is None:
        metrics = NATIVE_METRICS if references is not None else READABILITY_METRICS
    unknown = [m for m in metrics if m not in NATIVE_METRICS]
    if unknown:
        raise ScoreError(f"unknown native metrics: {', '.join(unknown)}")
    target = _infer_target(candidates, target)
    pool = [c for c in candidates if c.target is target]
    ref_metrics = [m for m in metrics if m in REFERENCE_METRICS]
    if ref_metrics and references is None:
        raise ScoreError(
            f"metrics {', '.join(ref_metrics)} need references but none were given"
        )
    against = _against(pool, references, "reference") if ref_metrics else {}
    return pool, target, {m: m for m in metrics}, against


def factuality_proxy_job(
    candidates: Sequence[GeneratedCandidate],
    summaries: Sequence[DischargeSummary],
    metrics: Sequence[str] = ("meteor",),
    target: TargetKind | None = None,
) -> Job:
    """The job that scores candidates against the document body.

    The body is the whole note with its targets removed. Metric names gain
    a ``_ds`` suffix so they never shadow the same metric computed against
    the gold target.
    """
    bad = [m for m in metrics if m not in REFERENCE_METRICS]
    if bad:
        raise ScoreError(f"metrics not usable against the document body: {', '.join(bad)}")
    target = _infer_target(candidates, target)
    pool = [c for c in candidates if c.target is target]
    bodies = {s.hadm_id: s.body_without_targets for s in summaries}
    columns = {m + DS_SUFFIX: m for m in metrics}
    return pool, target, columns, _against(pool, bodies, "discharge summary")


def read_score_csv(path) -> list[tuple[str, str, str, str, float]]:
    """Read a long-form score CSV (hadm_id,model_id,target,metric,value) into rows."""
    return [
        (hadm_id, model_id, target, metric, parse_score_cell(path, rowno, target, raw)[1])
        for rowno, (hadm_id, model_id, target, metric, raw) in read_csv_records(
            path, EXTERNAL_CSV_HEADER, ScoreError
        )
    ]


def write_score_csv(path, rows: Iterable[tuple[str, str, str, str, float]]) -> None:
    write_csv_records(path, EXTERNAL_CSV_HEADER, rows)


class OverallScore(NamedTuple):
    value: float
    components: dict[str, float]


def overall_score(components: Mapping[str, float]) -> OverallScore:
    """Arithmetic mean of exactly the eight leaderboard metrics."""
    missing = [m for m in OVERALL_METRICS if m not in components]
    extra = [m for m in components if m not in OVERALL_METRICS]
    if missing:
        raise ScoreError(f"missing overall-score metrics: {', '.join(missing)}")
    if extra:
        raise ScoreError(f"unexpected overall-score metrics: {', '.join(sorted(extra))}")
    ordered = {m: float(components[m]) for m in OVERALL_METRICS}
    # Left to right, as overall_by_document adds its columns; sum() compensates from 3.12 on.
    total = 0.0
    for value in ordered.values():
        total += value
    return OverallScore(value=total / len(ordered), components=ordered)


# Only benchmarks/tracer.py looks these up here (PEP 562, from dischargekit.tables).
_TABLE_NAMES = frozenset({"ScoreTable", "compute_factuality_proxies", "compute_native_scores"})


def __getattr__(name: str):
    if name not in _TABLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables

    return getattr(tables, name)
