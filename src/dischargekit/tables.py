"""Dense per-target score tables and the streaming builder that fills them.

A :class:`ScoreTable` is a (document x model x metric) store for one target
kind. It keeps one stdlib ``array('d')`` per metric, NaN marking a missing
cell, and :class:`ScoreTableBuilder` fills it from score records one at a
time, so reading a score CSV holds 8 bytes per cell and no row list. It is
the one fill path for records (``from_rows``, ``select --scores``,
``--external``), so a cell filled twice is named at the first record, in
read order, that refills it. Scored cells need no records:
:func:`~dischargekit.scores.score_columns` gives each job's constructor
arguments, and :func:`joined` puts the columns of tables over the same
axes side by side. The table code lives apart from
:mod:`dischargekit.scores`, so ``score`` without ``--external`` never loads
it, and only the two functions that score load the metric side.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from operator import add, itemgetter

from .corpus import (
    EXTERNAL_CSV_HEADER, OVERALL_METRICS, RESERVED_METRIC_NAMES, DischargeSummary, ExtractedTargets,
    GeneratedCandidate, ScoreError, TargetKind, parse_score_cell, read_csv_records, table_rows,
)

_TARGET_VALUES = frozenset(kind.value for kind in TargetKind)


class ScoreTable:
    """Dense per-target score store; treat instances as immutable.

    ``columns[k]`` holds metric ``metrics[k]`` as one ``array('d')`` with the
    cell of document ``i`` and model ``j`` at ``i * len(models) + j``; NaN
    marks a missing cell.
    """

    def __init__(self, target: TargetKind, documents: tuple[str, ...], models: tuple[str, ...],
                 metrics: tuple[str, ...], columns: tuple[array, ...]):
        cells = len(documents) * len(models)
        lengths = [len(column) for column in columns]
        if lengths != [cells] * len(metrics):
            raise ScoreError(f"column lengths {lengths} != {len(metrics)} x {cells} cells")
        if tuple(metrics) != tuple(sorted(metrics)):
            raise ScoreError("metrics must be sorted")
        self.target, self.documents, self.models, self.metrics = target, documents, models, metrics
        self.columns = columns
        # Label -> position maps for the document, model and metric axes; a repeated label is an error.
        self._positions = tuple(
            map(_label_positions, ("hadm_id", "model_id", "metric"), (documents, models, metrics))
        )

    def column(self, metric: str) -> array:
        return self.columns[self._positions[2][metric]]

    def get(self, doc: str, model: str, metric: str) -> float:
        docs, models, metrics = self._positions
        try:
            return self.columns[metrics[metric]][docs[doc] * len(models) + models[model]]
        except KeyError:
            raise ScoreError(
                f"unknown cell (hadm_id={doc!r}, model_id={model!r}, metric={metric!r})"
            ) from None

    def to_rows(self) -> list[tuple[str, str, str, str, float]]:
        """Non-missing cells as (hadm_id, model_id, target, metric, value); see
        :func:`~dischargekit.corpus.table_rows`."""
        return list(table_rows(self.target, self.documents, self.models, self.metrics, self.columns))

    def pair_cells(self, pairs: Collection[tuple[str, ...]]) -> list[int]:
        """Cell positions of the (hadm_id, model_id, ...) pairs, in order."""
        doc_pos, model_pos, _ = self._positions
        n_models = len(self.models)
        try:
            return [doc_pos[p[0]] * n_models + model_pos[p[1]] for p in pairs]
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

        See :class:`ScoreTableBuilder`; errors number the rows from 1.
        """
        builder = ScoreTableBuilder((target,), documents, models, metrics)
        builder.add_records(enumerate(rows, 1))
        return builder.tables()[target]


def _label_positions(axis: str, labels: Sequence[str]) -> dict[str, int]:
    """Label -> position; a repeated label is an error."""
    positions = {label: i for i, label in enumerate(labels)}
    if len(positions) != len(labels):
        repeated = sorted(label for label, n in Counter(labels).items() if n > 1)
        raise ScoreError(f"duplicate {axis} labels: {', '.join(repeated)}")
    return positions


def _missing(cells: int) -> array:
    """``cells`` missing values."""
    return array("d", [math.nan]) * cells


def _prefix(source) -> str:
    """The start of an error message about a record of ``source``, None for rows in memory."""
    return "" if source is None else f"{source}: "


class _TargetFill:
    """The growing axes and columns of one target's table."""

    def __init__(self, documents, models, metrics):
        self.fixed = (documents is not None, models is not None, metrics is not None)
        self.docs = _label_positions("hadm_id", tuple(documents or ()))
        self.models = _label_positions("model_id", tuple(models or ()))
        self.columns = {metric: array("d") for metric in metrics or ()}

    def add_model(self, model: str) -> int:
        """Give ``model`` the next position, spreading every column to the wider stride."""
        n = len(self.models)
        for metric, column in self.columns.items():
            wide = _missing(len(column) // n * (n + 1) if n else 0)
            for j in range(n):
                wide[j :: n + 1] = column[j::n]
            self.columns[metric] = wide
        self.models[model] = n
        return n


class ScoreTableBuilder:
    """Score tables filled from score records one at a time; no row list is kept.

    A record is ``(hadm_id, model_id, target, metric, value)``, the value a
    number or its text. Every record is checked: its target must be known
    and its value a finite number. Records of targets not asked for are then
    dropped. For each wanted target, documents and models default to
    first-seen order among its records and metrics to those its records
    name; given explicitly, a record outside them is an error. A cell may be
    filled once. Each error names the first record at fault, in read order.
    """

    def __init__(
        self,
        targets: Iterable[TargetKind],
        documents: Sequence[str] | None = None,
        models: Sequence[str] | None = None,
        metrics: Collection[str] | None = None,
    ):
        self._fills = {kind: _TargetFill(documents, models, metrics) for kind in targets}
        self._by_value = {kind.value: fill for kind, fill in self._fills.items()}

    @classmethod
    def from_table(cls, table: ScoreTable) -> "ScoreTableBuilder":
        """A builder for ``table``'s target over its fixed documents and models,
        starting from a copy of its columns; records may add metrics."""
        builder = cls((table.target,), table.documents, table.models)
        builder._fills[table.target].columns.update(zip(table.metrics, (c[:] for c in table.columns)))
        return builder

    def read_csv(self, path) -> None:
        """Add the records of a long-form score CSV; errors name the file and row."""
        self.add_records(read_csv_records(path, EXTERNAL_CSV_HEADER, ScoreError), path)

    def add_records(self, records: Iterable[tuple[int, Sequence]], source=None) -> None:
        """Add ``(line, record)`` pairs; errors name ``source`` (when given) and the line."""
        by_value, isfinite = self._by_value, math.isfinite
        for line, (doc, model, target, metric, raw) in records:
            fill = by_value.get(target)
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if fill is None or not isfinite(value):
                if fill is None and target in _TARGET_VALUES and isfinite(value):
                    continue  # a good record of another target
                parse_score_cell(source, line, target, raw)  # words the error
            columns = fill.columns
            m = fill.models.get(model)
            if m is None:
                m = None if fill.fixed[1] else fill.add_model(model)
            d = fill.docs.get(doc)
            if d is None and not fill.fixed[0]:
                d = fill.docs[doc] = len(fill.docs)
            column = columns.get(metric)
            if column is None and not fill.fixed[2]:
                column = columns[metric] = array("d")
            if m is None or d is None or column is None:
                what = "hadm_id/model_id"
                unknown = [label for label, pos in ((doc, d), (model, m)) if pos is None]
                if not unknown:
                    what, unknown = "metrics", [metric]
                raise ScoreError(
                    f"{_prefix(source)}rows reference unknown {what}: "
                    f"{', '.join(sorted(unknown))} on row {line}"
                )
            n_models = len(fill.models)
            cell = d * n_models + m
            if cell >= len(column):
                column.extend(_missing((d + 1) * n_models - len(column)))
            elif column[cell] == column[cell]:  # already filled
                raise ScoreError(
                    f"{_prefix(source)}duplicate cell (hadm_id={doc!r}, model_id={model!r}, "
                    f"metric={metric!r}) on row {line}"
                )
            column[cell] = value

    def tables(self) -> dict[TargetKind, ScoreTable]:
        """One table per wanted target, in the order the targets were given;
        call it once, after the last record."""
        tables = {}
        for kind, fill in self._fills.items():
            documents, models = tuple(fill.docs), tuple(fill.models)
            cells = len(documents) * len(models)
            metrics = tuple(sorted(fill.columns))
            columns = []
            for metric in metrics:
                column = fill.columns[metric]
                column.extend(_missing(cells - len(column)))
                columns.append(column)
            tables[kind] = ScoreTable(kind, documents, models, metrics, tuple(columns))
        return tables


def joined(tables: Sequence[ScoreTable]) -> ScoreTable:
    """One table holding the columns of ``tables``, which share their target,
    documents and models and name no metric twice."""
    first = tables[0]
    axes = (first.target, first.documents, first.models)
    if any((t.target, t.documents, t.models) != axes for t in tables):
        raise ScoreError("joined tables must share their target, documents and models")
    pairs = sorted((pair for t in tables for pair in zip(t.metrics, t.columns)), key=itemgetter(0))
    return ScoreTable(*axes, tuple(m for m, _ in pairs), tuple(c for _, c in pairs))


def compute_native_scores(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets] | Mapping[str, str] | None = None,
    metrics: Sequence[str] | None = None,
    target: TargetKind | None = None,
) -> ScoreTable:
    """Score candidates with the native metric suite (see :func:`~dischargekit.scores.native_score_job`)."""
    from .scores import native_score_job, score_columns

    return ScoreTable(*score_columns([native_score_job(candidates, references, metrics, target)], 1)[0])


def compute_factuality_proxies(
    candidates: Sequence[GeneratedCandidate],
    summaries: Sequence[DischargeSummary],
    metrics: Sequence[str] = ("meteor",),
    target: TargetKind | None = None,
) -> ScoreTable:
    """Score candidates against the document body (see :func:`~dischargekit.scores.factuality_proxy_job`)."""
    from .scores import factuality_proxy_job, score_columns

    return ScoreTable(*score_columns([factuality_proxy_job(candidates, summaries, metrics, target)], 1)[0])


def load_external_scores(path, table: ScoreTable) -> ScoreTable:
    """Merge an external score CSV into a table, returning a new table.

    The rows fill a :meth:`ScoreTableBuilder.from_table` builder, so each
    error names the file's first row at fault: a native metric name, a
    (document, model) pair outside the table, a bad value, or a cell the
    table or an earlier row filled. Rows for other target kinds are ignored.
    """
    builder = ScoreTableBuilder.from_table(table)
    builder.add_records(_external_records(path, table.target), path)
    return builder.tables()[table.target]


def _external_records(path, target: TargetKind):
    """The records of ``path``; one of ``target`` naming a native metric is an error."""
    for line, record in read_csv_records(path, EXTERNAL_CSV_HEADER, ScoreError):
        if record[2] == target.value and record[3] in RESERVED_METRIC_NAMES:
            raise ScoreError(
                f"{path}: external metric names collide with native metrics: {record[3]} on row {line}"
            )
        yield line, record


def overall_by_document(table: ScoreTable) -> dict[tuple[str, str], float]:
    """Per (document, model) overall score from a table with all 8 metrics.

    The columns are added one at a time in ``OVERALL_METRICS`` order, the
    additions :func:`overall_score` makes, so both give the same bits.
    """
    missing_metrics = [m for m in OVERALL_METRICS if m not in table.metrics]
    if missing_metrics:
        raise ScoreError(f"table lacks overall-score metrics: {', '.join(missing_metrics)}")
    columns = [table.column(metric) for metric in OVERALL_METRICS]
    totals = [0.0] * (len(table.documents) * len(table.models))
    for column in columns:
        totals = list(map(add, totals, column))
    if any(map(math.isnan, totals)):
        # Name the first missing cell in (document, model, metric) order.
        for cell in range(len(totals)):
            for metric, column in zip(OVERALL_METRICS, columns):
                if column[cell] != column[cell]:
                    doc, model = divmod(cell, len(table.models))
                    raise ScoreError(
                        f"missing cell (hadm_id={table.documents[doc]!r}, "
                        f"model_id={table.models[model]!r}, metric={metric!r})"
                    )
    pairs = ((doc, model) for doc in table.documents for model in table.models)
    return dict(zip(pairs, [total / len(OVERALL_METRICS) for total in totals]))
