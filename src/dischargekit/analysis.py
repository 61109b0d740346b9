"""Correlation analysis between score columns and overall scores."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .scores import ScoreTable


class AnalysisError(ValueError):
    """Degenerate or mismatched analysis input."""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; errors on constant or short vectors."""
    if len(x) != len(y):
        raise AnalysisError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise AnalysisError(f"need at least 3 observations, got {len(x)}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    sx = float(np.sqrt((xd * xd).sum()))
    sy = float(np.sqrt((yd * yd).sum()))
    if sx == 0.0 or sy == 0.0:
        raise AnalysisError("correlation is undefined for a constant vector")
    return float((xd * yd).sum() / (sx * sy))


@dataclass(frozen=True)
class CorrelationMatrix:
    metrics: tuple[str, ...]
    variants: tuple[str, ...]
    values: np.ndarray

    def get(self, metric: str, variant: str) -> float:
        return float(self.values[self.metrics.index(metric), self.variants.index(variant)])

    def to_rows(self) -> list[tuple[str, str, float]]:
        return [
            (metric, variant, float(self.values[i, j]))
            for i, metric in enumerate(self.metrics)
            for j, variant in enumerate(self.variants)
        ]


def correlation_matrix(
    tables: ScoreTable | Sequence[ScoreTable],
    overalls: Mapping[str, Mapping[tuple[str, str], float]] | Mapping[tuple[str, str], float] | Sequence,
    metrics: Sequence[str] | None = None,
) -> CorrelationMatrix:
    """Correlate each table metric with each overall-score variant.

    Observations are (document, model) pairs; passing parallel sequences of
    tables and overall maps pools observations across target kinds. Overall
    maps may be flat ({(doc, model): value}, named "overall") or keyed by
    variant name.
    """
    if isinstance(tables, ScoreTable):
        tables = [tables]
        overalls = [overalls]
    if len(tables) != len(overalls):
        raise AnalysisError("need one overall map per table")
    named: list[dict[str, Mapping[tuple[str, str], float]]] = []
    for entry in overalls:
        if not entry:
            raise AnalysisError("the overall map is empty")
        if isinstance(next(iter(entry)), tuple):
            named.append({"overall": entry})
        else:
            named.append({str(k): v for k, v in entry.items()})
    variant_names = tuple(sorted(named[0]))
    for entry in named[1:]:
        if tuple(sorted(entry)) != variant_names:
            raise AnalysisError("overall-variant names differ between tables")
    if metrics is None:
        shared = set(tables[0].metrics)
        for t in tables[1:]:
            shared &= set(t.metrics)
        metrics = tuple(sorted(shared))
    if not metrics:
        raise AnalysisError("no metrics to correlate")
    # Per table and variant: the observations' document and model positions, and y.
    observations = [
        {
            variant: (*table.pair_index(entry[variant].keys()), np.fromiter(entry[variant].values(), float))
            for variant in variant_names
        }
        for table, entry in zip(tables, named)
    ]
    values = np.empty((len(metrics), len(variant_names)))
    for i, metric in enumerate(metrics):
        for j, variant in enumerate(variant_names):
            xs: list[np.ndarray] = []
            ys: list[np.ndarray] = []
            for table, by_variant in zip(tables, observations):
                if metric not in table.metrics:
                    raise AnalysisError(f"table lacks metric {metric!r}")
                docs, models, y = by_variant[variant]
                x = table.values[docs, models, table.metrics.index(metric)]
                present = ~np.isnan(x)
                xs.append(x[present])
                ys.append(y[present])
            try:
                values[i, j] = pearson(np.concatenate(xs), np.concatenate(ys))
            except AnalysisError as exc:
                raise AnalysisError(f"metric {metric!r} vs {variant!r}: {exc}") from None
    return CorrelationMatrix(metrics=tuple(metrics), variants=variant_names, values=values)


def normalize_clinician_scores(scores: Sequence[float]) -> list[float]:
    """Map 1..5 panel scores onto [0, 1] via (s - 1) / 4."""
    out = []
    for s in scores:
        if not (1.0 <= s <= 5.0):
            raise AnalysisError(f"clinician score {s!r} outside [1, 5]")
        out.append((float(s) - 1.0) / 4.0)
    return out
