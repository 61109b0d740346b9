"""Score rows and the eight-metric overall score.

:func:`score_pool` scores a pool of candidates into long-form rows
``(hadm_id, model_id, target, metric, value)``. Native metrics are computed
here; neural or licensed metrics (bertscore, alignscore, medcon, summac) are
ingested from external CSV files and merged into the same score table.
:func:`score_jobs` scores several such pools at once, by document shards in
forked worker processes, with the same rows as :func:`score_pool`.

The table names (:class:`~dischargekit.tables.ScoreTable` and the functions
that build or read one) live in :mod:`dischargekit.tables` and resolve here
on first use, so ``score`` without ``--external``, which writes
:func:`score_pool`'s rows as they are, never loads them. The package needs
no numpy: importing it would cost a fresh process about 0.1 s and 13 MB,
more than the table work it would speed up.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from . import readability, relevance
from .corpus import (
    CorpusError,
    DischargeSummary,
    ExtractedTargets,
    GeneratedCandidate,
    TargetKind,
    read_csv_records,
    reference_text,
    write_csv_records,
)
from .relevance import stem
from .textprep import tokenize, words


class ScoreError(ValueError):
    """Inconsistent score data or requests."""


# The arguments of one score_pool call: pool, target, columns, against.
Job = tuple[Sequence[GeneratedCandidate], TargetKind, Mapping[str, str], Mapping[str, str]]


REFERENCE_METRICS = ("bleu4", "rouge_1", "rouge_2", "rouge_l", "meteor")
READABILITY_METRICS = ("fkgl", "dcrs", "cli")
NATIVE_METRICS = REFERENCE_METRICS + READABILITY_METRICS
DS_SUFFIX = "_ds"
# Names external files may never use: every native metric and its
# whole-document-reference variant.
RESERVED_METRIC_NAMES = frozenset(NATIVE_METRICS) | {
    m + DS_SUFFIX for m in REFERENCE_METRICS
}

OVERALL_METRICS = (
    "bleu4",
    "rouge_1",
    "rouge_2",
    "rouge_l",
    "bertscore",
    "meteor",
    "alignscore",
    "medcon",
)


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


def first_seen(values: Iterable[str]) -> tuple[str, ...]:
    """Distinct values in the order they first appear."""
    return tuple(dict.fromkeys(values))


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


def score_pool(
    pool: Sequence[GeneratedCandidate],
    target: TargetKind,
    columns: Mapping[str, str],
    against: Mapping[str, str],
) -> list[tuple[str, str, str, str, float]]:
    """Score a one-target pool into long-form rows, one per ``columns`` key.

    Column ``name`` holds metric ``columns[name]`` of :data:`METRICS`.
    Readability metrics read the candidate alone, tokenized at most once;
    every other metric compares the candidate with ``against[hadm_id]``.
    Rows come in :meth:`ScoreTable.to_rows` order: documents, then models,
    each in first-seen pool order, then columns, sorted; NaN values are
    dropped, and a later candidate for a (hadm_id, model_id) pair replaces
    an earlier one.
    """
    return _pool_rows(pool, target, [_score_candidate(c, columns, against) for c in pool])


def _score_candidate(
    c: GeneratedCandidate, columns: Mapping[str, str], against: Mapping[str, str]
) -> dict[str, float]:
    """One candidate's value in each of ``columns``."""
    cells = {}
    tok = None
    for column, metric in columns.items():
        if metric not in READABILITY_METRICS:
            cells[column] = float(METRICS[metric](c.text, against[c.hadm_id]))
            continue
        if tok is None:
            tok = tokenize(c.text)
        try:
            cells[column] = float(METRICS[metric](tok))
        except readability.DegenerateTextError as exc:
            raise readability.DegenerateTextError(
                f"candidate (hadm_id={c.hadm_id!r}, model_id={c.model_id!r}, "
                f"metric={column!r}): {exc}"
            ) from None
    return cells


def _pool_rows(
    pool: Sequence[GeneratedCandidate],
    target: TargetKind,
    values: Sequence[dict[str, float]],
) -> list[tuple[str, str, str, str, float]]:
    """:func:`score_pool`'s rows from each candidate's cells, in pool order."""
    scored = {(c.hadm_id, c.model_id): cells for c, cells in zip(pool, values)}
    doc_pos = {doc: i for i, doc in enumerate(first_seen(c.hadm_id for c in pool))}
    model_pos = {model: j for j, model in enumerate(first_seen(c.model_id for c in pool))}
    order = sorted(scored, key=lambda pair: (doc_pos[pair[0]], model_pos[pair[1]]))
    wanted = target.value
    return [
        (doc, model, wanted, column, value)
        for doc, model in order
        for column, value in sorted(scored[doc, model].items())
        if value == value  # False only for NaN
    ]


# --- scoring in worker processes ----------------------------------------------


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def score_jobs(
    jobs: Sequence[Job], workers: int | None = None
) -> list[list[tuple[str, str, str, str, float]]]:
    """:func:`score_pool`'s rows for each job, scored by up to ``workers`` processes.

    The documents of all jobs, in first-seen order, are split into
    ``min(workers, usable_cpus(), documents)`` contiguous shards of about
    equal candidate text length (``workers`` None means no cap). This
    process scores the first shard; each other shard is scored in a forked
    child that returns its values through a pipe, and every child is reaped
    before this returns or raises. Results, and the error a failing run
    raises, never depend on the split: the error is the one the serial run
    meets first, at the lowest (job, pool position). Without ``os.fork``
    every job is scored here, and so it is in a process running other
    threads, whose locks a forked child could inherit held.
    """
    n = usable_cpus() if workers is None else min(workers, usable_cpus())
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        n = 1
    parts = _split(jobs, n)
    if len(parts) <= 1:
        return [score_pool(*job) for job in jobs]
    pipes: dict[int, int] = {}  # worker pid -> read end of its pipe, until read
    alive: list[int] = []  # worker pids, until reaped
    try:
        for part in parts[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _shard_child(jobs, part, [read_fd, *pipes.values()], write_fd)
            os.close(write_fd)
            pipes[pid] = read_fd
            alive.append(pid)
        results = [_score_shard(jobs, parts[0])]
        for pid in list(alive):
            with open(pipes.pop(pid), "rb") as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            alive.remove(pid)
            if code != 0:
                how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
                raise RuntimeError(f"score worker {pid} {how}")
            results.append(marshal.loads(payload))
    except BaseException:
        import signal

        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read_fd in pipes.values():
            os.close(read_fd)
        for pid in alive:
            os.waitpid(pid, 0)
    values: list[list] = [[None] * len(job[0]) for job in jobs]
    failures = []
    for part, (failure, shard_values) in zip(parts, results):
        if failure is not None:
            failures.append(failure)
        for job_values, positions, scored in zip(values, part, shard_values):
            for pos, cells in zip(positions, scored):
                job_values[pos] = cells
    if failures:
        j, pos = min(failures)
        pool, _, columns, against = jobs[j]
        _score_candidate(pool[pos], columns, against)  # raises the serial run's error
        raise RuntimeError(f"a score worker failed on candidate {pos} of job {j}, which scores here")
    return [_pool_rows(pool, target, v) for (pool, target, *_), v in zip(jobs, values)]


def _split(jobs: Sequence[Job], n: int) -> list[list[list[int]]]:
    """The non-empty shards of at most ``n`` contiguous runs of documents; each
    shard holds, per job, the pool positions of its documents' candidates."""
    weight: dict[str, int] = {}
    for pool, *_ in jobs:
        for c in pool:
            weight[c.hadm_id] = weight.get(c.hadm_id, 0) + len(c.text) + 1
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


def _score_shard(jobs: Sequence[Job], part: list[list[int]]) -> tuple[tuple[int, int] | None, list[list]]:
    """The first (job, position) of ``part`` that raised, else None, and each
    job's values for its positions in ``part`` up to that one."""
    values: list[list] = []
    for j, ((pool, _, columns, against), positions) in enumerate(zip(jobs, part)):
        scored: list = []
        values.append(scored)
        for pos in positions:
            try:
                scored.append(_score_candidate(pool[pos], columns, against))
            except Exception:  # score_jobs raises it again, in order, by scoring pos anew
                return (j, pos), values
    return None, values


def _shard_child(jobs: Sequence[Job], part: list[list[int]], close: list[int], write_fd: int):
    """In a forked child: score ``part``, write it to ``write_fd`` and exit,
    never returning to the caller's stack."""
    code = 1
    try:
        for fd in close:
            os.close(fd)
        payload = memoryview(marshal.dumps(_score_shard(jobs, part)))
        while payload:
            payload = payload[os.write(write_fd, payload) :]
        code = 0
    finally:
        os._exit(code)


def native_score_job(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets] | Mapping[str, str] | None = None,
    metrics: Sequence[str] | None = None,
    target: TargetKind | None = None,
) -> Job:
    """The :func:`score_pool` arguments that score candidates with the native suite.

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
    """The :func:`score_pool` arguments that score candidates against the document body.

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


EXTERNAL_CSV_HEADER = ("hadm_id", "model_id", "target", "metric", "value")


def parse_score_cell(path, rowno: int, target: str, raw: str) -> tuple[TargetKind, float]:
    """The target kind and finite value of one score-CSV row; errors name the
    row, after the file unless ``path`` is None."""
    where = f"row {rowno}" if path is None else f"{path}: row {rowno}"
    try:
        kind = TargetKind.parse(target)
    except CorpusError as exc:
        raise ScoreError(f"{where}: {exc}") from None
    try:
        value = float(raw)
    except ValueError:
        raise ScoreError(f"{where}: value {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ScoreError(f"{where}: value {raw!r} is not finite")
    return kind, value


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


@dataclass(frozen=True)
class OverallScore:
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


def synthetic_external_jobs(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets],
    summaries: Sequence[DischargeSummary],
) -> list[Job]:
    """The :func:`score_pool` jobs of :func:`synthetic_external_rows`: per
    target, in first-seen order, bertscore and medcon against the reference,
    then alignscore against the document body."""
    bodies = {s.hadm_id: s.body_without_targets for s in summaries}
    jobs = []
    for target in first_seen(c.target for c in candidates):
        pool = [c for c in candidates if c.target is target]
        refs = _against(pool, references, "reference")
        jobs.append((pool, target, {"bertscore": "bertscore", "medcon": "medcon"}, refs))
        on_body = _against(pool, bodies, "discharge summary")
        jobs.append((pool, target, {"alignscore": "alignscore"}, on_body))
    return jobs


def synthetic_external_rows(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets],
    summaries: Sequence[DischargeSummary],
) -> list[tuple[str, str, str, str, float]]:
    """Deterministic stand-ins for the externally computed metrics.

    Intended for synthetic corpora only, so end-to-end runs can exercise
    the eight-metric overall score without neural scorers: bertscore is a
    stemmed unigram F1 against the reference, medcon a stemmed vocabulary
    Jaccard against the reference, alignscore a bigram F1 against the
    whole document body.
    """
    from . import tables

    jobs = synthetic_external_jobs(candidates, references, summaries)
    rows = []
    for on_refs, on_body in zip(jobs[::2], jobs[1::2]):
        pool, target = on_refs[:2]
        docs, models = first_seen(c.hadm_id for c in pool), first_seen(c.model_id for c in pool)
        scored = score_pool(*on_refs) + score_pool(*on_body)
        rows.extend(tables.ScoreTable.from_rows(scored, target, docs, models).to_rows())
    return rows


# Names defined in dischargekit.tables, resolved on first use (PEP 562).
_TABLE_NAMES = frozenset({
    "ScoreTable",
    "ScoreTableBuilder",
    "compute_factuality_proxies",
    "compute_native_scores",
    "load_external_scores",
    "merge_tables",
    "overall_by_document",
    "score_table",
})


def __getattr__(name: str):
    if name not in _TABLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables

    return getattr(tables, name)
