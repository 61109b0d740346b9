"""Score rows, score tables and the eight-metric overall score.

:func:`score_pool` scores a pool of candidates into long-form rows
``(hadm_id, model_id, target, metric, value)``. A :class:`ScoreTable` is a
dense (document x model x metric) store for one target kind, with NaN
marking missing cells. Native metrics are computed here; neural or licensed
metrics (bertscore, alignscore, medcon, summac) are ingested from external
CSV files and merged into the same table.

Only the code that builds or reads a table's array imports numpy, where it
runs: ``ScoreTable.empty``, ``to_rows``, ``pair_index``, ``from_rows`` and
``equals``, :func:`merge_tables` and :func:`overall_by_document`. Importing
numpy costs a fresh process about 0.1 s and 13 MB, so ``score`` without
``--external``, which writes :func:`score_pool`'s rows as they are, never
loads it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

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


@dataclass(frozen=True)
class ScoreTable:
    """Dense per-target score store; treat instances as immutable."""

    target: TargetKind
    documents: tuple[str, ...]
    models: tuple[str, ...]
    metrics: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (len(self.documents), len(self.models), len(self.metrics))
        if self.values.shape != expected:
            raise ScoreError(f"values shape {self.values.shape} != {expected}")
        if tuple(self.metrics) != tuple(sorted(self.metrics)):
            raise ScoreError("metrics must be sorted")
        axes = (("hadm_id", self.documents), ("model_id", self.models), ("metric", self.metrics))
        for (axis, labels), positions in zip(axes, self._positions):
            if len(positions) != len(labels):
                repeated = sorted(label for label, n in Counter(labels).items() if n > 1)
                raise ScoreError(f"duplicate {axis} labels: {', '.join(repeated)}")

    @cached_property
    def _positions(self) -> tuple[dict[str, int], ...]:
        """Label -> position maps for the document, model and metric axes."""
        return tuple(
            {label: i for i, label in enumerate(labels)}
            for labels in (self.documents, self.models, self.metrics)
        )

    @classmethod
    def empty(
        cls,
        target: TargetKind,
        documents: Sequence[str],
        models: Sequence[str],
        metrics: Sequence[str],
    ) -> "ScoreTable":
        import numpy as np

        metrics = tuple(sorted(metrics))
        values = np.full((len(documents), len(models), len(metrics)), np.nan)
        return cls(target, tuple(documents), tuple(models), metrics, values)

    def get(self, doc: str, model: str, metric: str) -> float:
        docs, models, metrics = self._positions
        try:
            return float(self.values[docs[doc], models[model], metrics[metric]])
        except KeyError:
            raise ScoreError(
                f"unknown cell (hadm_id={doc!r}, model_id={model!r}, metric={metric!r})"
            ) from None

    def to_rows(self) -> list[tuple[str, str, str, str, float]]:
        """Non-missing cells as (hadm_id, model_id, target, metric, value)."""
        import numpy as np

        i, j, k = np.nonzero(~np.isnan(self.values))
        target = self.target.value
        return [
            (self.documents[a], self.models[b], target, self.metrics[c], v)
            for a, b, c, v in zip(i.tolist(), j.tolist(), k.tolist(), self.values[i, j, k].tolist())
        ]

    def pair_index(self, pairs: Collection[tuple[str, ...]]) -> tuple[np.ndarray, np.ndarray]:
        """Document and model positions of the (hadm_id, model_id, ...) pairs, in order."""
        import numpy as np

        doc_pos, model_pos, _ = self._positions
        try:
            return (
                np.fromiter(map(doc_pos.__getitem__, map(itemgetter(0), pairs)), np.intp, len(pairs)),
                np.fromiter(map(model_pos.__getitem__, map(itemgetter(1), pairs)), np.intp, len(pairs)),
            )
        except KeyError:
            doc, model = next(p for p in pairs if p[0] not in doc_pos or p[1] not in model_pos)[:2]
            raise ScoreError(
                f"(hadm_id={doc!r}, model_id={model!r}) is not in the {self.target.value} score table"
            ) from None

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[str, str, str, str, float]],
        target: TargetKind,
        documents: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        metrics: Collection[str] | None = None,
    ) -> "ScoreTable":
        """Build a table from long-form rows, keeping only the given target.

        Document and model universes default to first-seen order in the
        rows, and the metrics to those the rows name; when given
        explicitly, rows outside them are an error.
        """
        import numpy as np

        wanted = target.value
        kept = [r for r in rows if r[2] == wanted]
        if documents is None:
            documents = first_seen(map(itemgetter(0), kept))
        if models is None:
            models = first_seen(map(itemgetter(1), kept))
        if metrics is None:
            metrics = set(map(itemgetter(3), kept))
        table = cls.empty(target, documents, models, metrics)
        doc_pos, model_pos, metric_pos = table._positions
        try:
            docs, mods = table.pair_index(kept)
        except ScoreError:
            unknown = sorted(
                {r[0] for r in kept if r[0] not in doc_pos}
                | {r[1] for r in kept if r[1] not in model_pos}
            )
            raise ScoreError(f"rows reference unknown hadm_id/model_id: {', '.join(unknown)}") from None
        try:
            mets = np.fromiter(map(metric_pos.__getitem__, map(itemgetter(3), kept)), np.intp, len(kept))
        except KeyError:
            unknown = sorted({r[3] for r in kept if r[3] not in metric_pos})
            raise ScoreError(f"rows reference unknown metrics: {', '.join(unknown)}") from None
        cells = np.ravel_multi_index((docs, mods, mets), table.values.shape)
        if np.bincount(cells, minlength=1).max() > 1:
            # Name the first row whose cell an earlier row already filled.
            first = np.zeros(len(cells), dtype=bool)
            first[np.unique(cells, return_index=True)[1]] = True
            doc, model, _, metric, _ = kept[int(np.argmin(first))]
            raise ScoreError(
                f"duplicate cell (hadm_id={doc!r}, model_id={model!r}, metric={metric!r})"
            )
        table.values.flat[cells] = np.fromiter(map(itemgetter(4), kept), float, len(kept))
        return table

    def equals(self, other: "ScoreTable") -> bool:
        import numpy as np

        return (
            self.target == other.target
            and self.documents == other.documents
            and self.models == other.models
            and self.metrics == other.metrics
            and np.array_equal(self.values, other.values, equal_nan=True)
        )


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
    scored: dict[tuple[str, str], dict[str, float]] = {}
    for c in pool:
        cells = scored[c.hadm_id, c.model_id] = {}
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


def score_table(
    pool: Sequence[GeneratedCandidate],
    target: TargetKind,
    columns: Mapping[str, str],
    against: Mapping[str, str],
) -> ScoreTable:
    """:func:`score_pool`'s rows as a table over the pool's documents, models and columns."""
    return ScoreTable.from_rows(
        score_pool(pool, target, columns, against),
        target,
        first_seen(c.hadm_id for c in pool),
        first_seen(c.model_id for c in pool),
        columns,
    )


def native_score_job(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets] | Mapping[str, str] | None = None,
    metrics: Sequence[str] | None = None,
    target: TargetKind | None = None,
) -> tuple[list[GeneratedCandidate], TargetKind, dict[str, str], dict[str, str]]:
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
) -> tuple[list[GeneratedCandidate], TargetKind, dict[str, str], dict[str, str]]:
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


def compute_native_scores(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets] | Mapping[str, str] | None = None,
    metrics: Sequence[str] | None = None,
    target: TargetKind | None = None,
) -> ScoreTable:
    """Score candidates with the native metric suite (see :func:`native_score_job`)."""
    return score_table(*native_score_job(candidates, references, metrics, target))


def compute_factuality_proxies(
    candidates: Sequence[GeneratedCandidate],
    summaries: Sequence[DischargeSummary],
    metrics: Sequence[str] = ("meteor",),
    target: TargetKind | None = None,
) -> ScoreTable:
    """Score candidates against the document body (see :func:`factuality_proxy_job`)."""
    return score_table(*factuality_proxy_job(candidates, summaries, metrics, target))


def merge_tables(base: ScoreTable, extra: ScoreTable) -> ScoreTable:
    """Union of two tables over the same target/documents/models."""
    import numpy as np

    if base.target != extra.target:
        raise ScoreError("cannot merge tables with different targets")
    if base.documents != extra.documents or base.models != extra.models:
        raise ScoreError("cannot merge tables with different document/model sets")
    metrics = sorted(set(base.metrics) | set(extra.metrics))
    merged = ScoreTable.empty(base.target, base.documents, base.models, metrics)
    metric_pos = merged._positions[2]
    for src in (base, extra):
        columns = [metric_pos[m] for m in src.metrics]
        dest = merged.values[:, :, columns]
        present = ~np.isnan(src.values)
        clashes = np.argwhere(present & ~np.isnan(dest))
        if len(clashes):
            i, j, k = clashes[0]
            raise ScoreError(
                f"duplicate cell (hadm_id={base.documents[i]!r}, model_id={base.models[j]!r}, "
                f"metric={src.metrics[k]!r})"
            )
        merged.values[:, :, columns] = np.where(present, src.values, dest)
    return merged


EXTERNAL_CSV_HEADER = ("hadm_id", "model_id", "target", "metric", "value")


def parse_score_cell(path, rowno: int, target: str, raw: str) -> tuple[TargetKind, float]:
    """The target kind and finite value of one score-CSV row; errors name the row."""
    try:
        kind = TargetKind.parse(target)
    except CorpusError as exc:
        raise ScoreError(f"{path}: row {rowno}: {exc}") from None
    try:
        value = float(raw)
    except ValueError:
        raise ScoreError(f"{path}: row {rowno}: value {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ScoreError(f"{path}: row {rowno}: value {raw!r} is not finite")
    return kind, value


_TARGET_VALUES = frozenset(kind.value for kind in TargetKind)


def read_score_csv(path) -> list[tuple[str, str, str, str, float]]:
    """Read a long-form score CSV (hadm_id,model_id,target,metric,value)."""
    rows = []
    for rowno, (hadm_id, model_id, target, metric, raw) in read_csv_records(
        path, EXTERNAL_CSV_HEADER, ScoreError
    ):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if target not in _TARGET_VALUES or not math.isfinite(value):
            # Only a bad row gets here; parse_score_cell words its error.
            _, value = parse_score_cell(path, rowno, target, raw)
        rows.append((hadm_id, model_id, target, metric, value))
    return rows


def write_score_csv(path, rows: Iterable[tuple[str, str, str, str, float]]) -> None:
    write_csv_records(path, EXTERNAL_CSV_HEADER, rows)


def load_external_scores(path, table: ScoreTable) -> ScoreTable:
    """Merge an external score CSV into a table, returning a new table.

    External metric names must not shadow native ones; every row must
    address a known (document, model) pair of the table; cells may be
    assigned once. Rows for other target kinds are ignored.
    """
    rows = read_score_csv(path)
    try:
        collisions = sorted(
            {r[3] for r in rows if r[2] == table.target.value and r[3] in RESERVED_METRIC_NAMES}
        )
        if collisions:
            raise ScoreError(
                f"external metric names collide with native metrics: {', '.join(collisions)}"
            )
        extra = ScoreTable.from_rows(rows, table.target, table.documents, table.models)
        return merge_tables(table, extra)
    except ScoreError as exc:
        raise ScoreError(f"{path}: {exc}") from None


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
    bodies = {s.hadm_id: s.body_without_targets for s in summaries}
    rows = []
    for target in first_seen(c.target for c in candidates):
        pool = [c for c in candidates if c.target is target]
        refs = _against(pool, references, "reference")
        on_refs = score_pool(pool, target, {"bertscore": "bertscore", "medcon": "medcon"}, refs)
        on_body = score_pool(
            pool, target, {"alignscore": "alignscore"}, _against(pool, bodies, "discharge summary")
        )
        docs, models = first_seen(c.hadm_id for c in pool), first_seen(c.model_id for c in pool)
        rows.extend(ScoreTable.from_rows(on_refs + on_body, target, docs, models).to_rows())
    return rows


def overall_by_document(table: ScoreTable) -> dict[tuple[str, str], float]:
    """Per (document, model) overall score from a table with all 8 metrics.

    The columns are added one at a time in ``OVERALL_METRICS`` order, the
    additions :func:`overall_score` makes, so both give the same bits.
    """
    import numpy as np

    missing_metrics = [m for m in OVERALL_METRICS if m not in table.metrics]
    if missing_metrics:
        raise ScoreError(f"table lacks overall-score metrics: {', '.join(missing_metrics)}")
    metric_pos = table._positions[2]
    block = table.values[:, :, [metric_pos[m] for m in OVERALL_METRICS]]
    gaps = np.argwhere(np.isnan(block))
    if len(gaps):
        i, j, k = gaps[0]
        raise ScoreError(
            f"missing cell (hadm_id={table.documents[i]!r}, model_id={table.models[j]!r}, "
            f"metric={OVERALL_METRICS[k]!r})"
        )
    total = np.zeros(block.shape[:2])
    for k in range(len(OVERALL_METRICS)):
        total += block[:, :, k]
    pairs = ((doc, model) for doc in table.documents for model in table.models)
    return dict(zip(pairs, (total / len(OVERALL_METRICS)).ravel().tolist()))
