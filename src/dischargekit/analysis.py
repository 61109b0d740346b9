"""Correlation analysis between score columns and overall scores."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache, partial, reduce
from itertools import chain, compress
from operator import add, eq
from typing import NamedTuple

from .tables import ScoreTable


class AnalysisError(ValueError):
    """Degenerate or mismatched analysis input."""


def _pairwise(a: list[float], start: int, n: int) -> float:
    # numpy's pairwise_sum: under 8 terms a plain loop; up to 128, eight
    # interleaved partial sums added as a tree, then the tail; above, two
    # halves split at a multiple of 8.
    if n < 8:
        return reduce(add, a[start : start + n], 0.0)
    if n <= 128:
        end = start + n - n % 8
        r = [reduce(add, a[start + k : end : 8]) for k in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[end : start + n], tree)
    half = n // 2 - n // 2 % 8
    return _pairwise(a, start, half) + _pairwise(a, start + half, n - half)


def pairwise_sum(values: list[float]) -> float:
    """The sum of floats in the order ``numpy.add.reduce`` adds a float64
    vector, so the result has the same bits: 0.0 plus numpy's pairwise sum."""
    return 0.0 + _pairwise(values, 0, len(values))


def _in_range(values: list[float]) -> list[float]:
    """``values``, or, when their squares could underflow or a sum of their
    products overflow, ``values`` times the power of two that brings the
    largest magnitude into [1, 2). A power of two scales exactly, and
    Pearson's r does not depend on scale."""
    exponent = math.frexp(max(map(abs, values)))[1]
    # Past these exponents a product of two deviations may fall below the
    # normal floats, or a sum of len(values) such products reach 2**1024.
    if -450 <= exponent <= (1021 - len(values).bit_length()) // 2:
        return values
    return [math.ldexp(v, 1 - exponent) for v in values]


def pearson_side(values: Iterable[float]) -> tuple[list[float], float, float]:
    """One vector's side of :func:`pearson`: its values after
    :func:`_in_range`, their mean, and the root of the pairwise sum of their
    squared deviations.

    A side is computed once per vector, so a vector correlated with many
    others (the overall score with each metric column) pays for it once.
    """
    values = _in_range(list(values))
    mean = pairwise_sum(values) / len(values)
    # Each deviation is computed where it is used, not kept in a list: one
    # list of n floats is alive at a time, and correlate's peak memory is here.
    return values, mean, math.sqrt(pairwise_sum([(d := v - mean) * d for v in values]))


def _cross(x: tuple[list[float], float, float], y: tuple[list[float], float, float]) -> float:
    """Pearson's r from two :func:`pearson_side` results of the same length."""
    (xs, x_mean, sx), (ys, y_mean, sy) = x, y
    if sx == 0.0 or sy == 0.0:
        raise AnalysisError("correlation is undefined for a constant vector")
    return pairwise_sum([(a - x_mean) * (b - y_mean) for a, b in zip(xs, ys)]) / (sx * sy)


def pearson_present(
    x: Iterable[float], y: Sequence[float], y_side: Callable[[], tuple[list[float], float, float]]
) -> float:
    """:func:`pearson` of the (x, y) pairs whose x is not NaN; fewer than 3
    such pairs is an error.

    ``y_side`` returns the :func:`pearson_side` of all of ``y``. It is
    called only when no x is NaN, so a caller that correlates ``y`` with
    many ``x`` can cache it, and a column with a missing cell never asks
    for it: its pairs with a NaN x are left out and :func:`pearson` gets
    the rest.
    """
    xs = list(x)
    # A NaN x makes the sum NaN. A finite sum cannot hide one; a sum that
    # overflows both ways reads NaN too and only costs the filtered path.
    if len(xs) >= 3 and not math.isnan(sum(xs)):
        return _cross(pearson_side(xs), y_side())
    return pearson([v for v in xs if v == v], list(compress(y, map(eq, xs, xs))))  # eq is False only for NaN


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; errors on constant or short vectors.

    Every sum is a :func:`pairwise_sum`, and every other step is one IEEE
    operation per element, so the result has the bits of the same formula
    on numpy float64 arrays. A vector whose magnitude would make that
    formula overflow or underflow is first scaled by a power of two.

    It is the cross sum of the two vectors' :func:`pearson_side`, so a side
    may be computed once and reused, as :func:`pearson_present` does.
    """
    if len(x) != len(y):
        raise AnalysisError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise AnalysisError(f"need at least 3 observations, got {len(x)}")
    return _cross(pearson_side(map(float, x)), pearson_side(map(float, y)))


class CorrelationMatrix(NamedTuple):
    metrics: tuple[str, ...]
    variants: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # values[i][j]: metrics[i] against variants[j]

    def get(self, metric: str, variant: str) -> float:
        return self.values[self.metrics.index(metric)][self.variants.index(variant)]

    def to_rows(self) -> list[tuple[str, str, float]]:
        return [
            (metric, variant, r)
            for metric, row in zip(self.metrics, self.values)
            for variant, r in zip(self.variants, row)
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
    variant name. A pair whose metric cell is missing is left out of that
    metric's correlation; each variant's side (see :func:`pearson`) is
    computed once, over every observation, for the metrics that miss none.
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
    # Per table and variant: the observations' cell positions.
    cells = [
        {variant: table.pair_cells(entry[variant].keys()) for variant in variant_names}
        for table, entry in zip(tables, named)
    ]
    # Per variant: y of every observation, in table order, and its side,
    # computed for the first metric that misses no cell and kept.
    ys = {variant: [float(y) for entry in named for y in entry[variant].values()] for variant in variant_names}
    y_sides = {variant: cache(partial(pearson_side, y)) for variant, y in ys.items()}
    values = []
    for metric in metrics:
        if any(metric not in table.metrics for table in tables):
            raise AnalysisError(f"table lacks metric {metric!r}")
        columns = [table.column(metric) for table in tables]
        row = []
        for variant in variant_names:
            xs = chain.from_iterable(
                map(column.__getitem__, by_variant[variant]) for column, by_variant in zip(columns, cells)
            )
            try:
                row.append(pearson_present(xs, ys[variant], y_sides[variant]))
            except AnalysisError as exc:
                raise AnalysisError(f"metric {metric!r} vs {variant!r}: {exc}") from None
        values.append(tuple(row))
    return CorrelationMatrix(metrics=tuple(metrics), variants=variant_names, values=tuple(values))


def normalize_clinician_scores(scores: Sequence[float]) -> list[float]:
    """Map 1..5 panel scores onto [0, 1] via (s - 1) / 4."""
    out = []
    for s in scores:
        if not (1.0 <= s <= 5.0):
            raise AnalysisError(f"clinician score {s!r} outside [1, 5]")
        out.append((float(s) - 1.0) / 4.0)
    return out
