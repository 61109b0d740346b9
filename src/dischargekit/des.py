"""Dynamic expert selection: pick one model's text per document.

Score-driven strategies min-max normalize each criterion metric across the
available models (per document), multiply by signed weights, average, and
take the argmax, the first model in input order on a tie. A length-window
strategy picks by word count instead. Presets des1..des3 carry fixed
weights; des4 derives weights from score correlations; des5 is the length
rule. Neither reads a text, only scores or word counts, so a caller need hold
only the winners' texts, one per document, as ``cli select`` does.
Score-driven selection reads one document at a time, criteria in config
order, and raises the first fault in that (document, criterion) order.

Every weight is a float: a preset's published fraction and a config file's
``"n/d"`` string are both the correctly rounded float of ``n / d``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection, Mapping, Sequence
from enum import Enum
from functools import reduce
from operator import add
from typing import NamedTuple

from .corpus import TargetKind
from .tables import ScoreTable


class DesConfigError(ValueError):
    """Invalid selection configuration."""


class MissingCellError(ValueError):
    """A required score cell is absent in strict mode."""


class Scope(str, Enum):
    BOTH = "both"
    DI_ONLY = "di_only"
    BHC_ONLY = "bhc_only"

    def applies_to(self, target: TargetKind) -> bool:
        if self is Scope.BOTH:
            return True
        return (self is Scope.DI_ONLY) == (target is TargetKind.DI)


class Criterion(NamedTuple):
    metric: str
    weight: float
    scope: Scope = Scope.BOTH


class DesConfig(NamedTuple("DesConfig", [("name", str), ("criteria", tuple[Criterion, ...])])):
    __slots__ = ()  # A NamedTuple body cannot define __new__, so the checks live in this subclass.

    def __new__(cls, name: str, criteria: tuple[Criterion, ...]):
        if not criteria:
            raise DesConfigError("config needs at least one criterion")
        for c in criteria:
            if not math.isfinite(c.weight):
                raise DesConfigError(f"criterion {c.metric!r} has non-finite weight {c.weight!r}")
        return super().__new__(cls, name, criteria)

    def criteria_for(self, target: TargetKind, metrics: Collection[str]) -> tuple[Criterion, ...]:
        """The criteria that apply to ``target``, each of which must be one of a table's ``metrics``."""
        crits = tuple(c for c in self.criteria if c.scope.applies_to(target))
        if not crits:
            raise DesConfigError(f"config {self.name!r} has no criteria for target {target.value}")
        lacking = [c.metric for c in crits if c.metric not in metrics]
        if lacking:
            raise MissingCellError(f"table lacks metrics required by {self.name!r}: {', '.join(lacking)}")
        return crits


# The length rule's word-count window and floor.
_PREFERRED_MIN, _PREFERRED_MAX, _HARD_MIN = 100, 180, 70


class LengthSelectConfig(NamedTuple("LengthSelectConfig", [("model_ranking", tuple[str, ...])])):
    __slots__ = ()

    def __new__(cls, model_ranking: tuple[str, ...]):
        if not model_ranking:
            raise DesConfigError("model_ranking must not be empty")
        return super().__new__(cls, model_ranking)


class Selection(NamedTuple):
    hadm_id: str
    model_id: str
    basis: float | str


class SelectionResult(NamedTuple):
    target: TargetKind
    selections: tuple[Selection, ...]

    @property
    def tally(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.selections:
            counts[s.model_id] = counts.get(s.model_id, 0) + 1
        return counts

    def by_document(self) -> dict[str, Selection]:
        return {s.hadm_id: s for s in self.selections}


PRESETS: dict[str, DesConfig] = {
    "des1": DesConfig(
        "des1",
        criteria=(
            Criterion("medcon", 1 / 2),
            Criterion("meteor", 1 / 2),
        ),
    ),
    "des2": DesConfig(
        "des2",
        criteria=(
            Criterion("medcon", 2 / 5),
            Criterion("meteor", 2 / 5),
            Criterion("cli", 1 / 5),
        ),
    ),
    "des3": DesConfig(
        "des3",
        criteria=(
            Criterion("fkgl", -1 / 9, Scope.DI_ONLY),
            Criterion("dcrs", -1 / 9, Scope.DI_ONLY),
            Criterion("cli", -1 / 9, Scope.DI_ONLY),
            Criterion("medcon", 2 / 9, Scope.DI_ONLY),
            Criterion("meteor", 2 / 9, Scope.DI_ONLY),
            Criterion("alignscore", 2 / 9, Scope.DI_ONLY),
            Criterion("medcon", 1 / 3, Scope.BHC_ONLY),
            Criterion("meteor", 1 / 3, Scope.BHC_ONLY),
            Criterion("alignscore", 1 / 3, Scope.BHC_ONLY),
        ),
    ),
}

PRESET_NAMES = ("des1", "des2", "des3", "des4", "des5")


def _min_max(values: Sequence[float]) -> list[float]:
    """Rescale finite ``values`` to [0, 1].

    A constant row normalizes to all zeros. When ``hi - lo`` overflows, the
    halved values are rescaled instead, so a finite row never gives nan;
    every other row keeps the bits of ``(v - lo) / (hi - lo)``.
    """
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    if span == math.inf:
        return [(v / 2 - lo / 2) / (hi / 2 - lo / 2) for v in values]
    return [(v - lo) / span for v in values]


def min_max_normalize(raw: Mapping[str, float]) -> dict[str, float]:
    """Rescale one document's per-model values to [0, 1].

    A constant column normalizes to all zeros, which is selection-neutral.
    """
    if not raw:
        raise ValueError("cannot normalize an empty score map")
    bad = [k for k, v in raw.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite scores for models: {', '.join(sorted(bad))}")
    return dict(zip(raw, _min_max([float(v) for v in raw.values()])))


def select_experts(
    table: ScoreTable,
    config: DesConfig,
    target: TargetKind,
    strict: bool = True,
) -> SelectionResult:
    """Pick the highest weighted-average model per document.

    Strict mode errors on any missing cell; lenient mode drops a criterion
    for a document when any model lacks its value and rescales the
    remaining weights to the original weight sum. Documents are taken in
    table order and, within one, criteria in config order, so the first
    fault in that order is raised: a missing cell (strict), an infinite
    score, or a document left with no usable criteria or zero total weight.
    """
    if target != table.target:
        raise DesConfigError(
            f"table holds {table.target.value} scores but selection target is {target.value}"
        )
    crits = config.criteria_for(target, table.metrics)
    columns = [table.column(c.metric) for c in crits]
    weights = [float(c.weight) for c in crits]
    # Weight sums add left to right in criterion order, starting from 0.0.
    full_weight = reduce(add, weights, 0.0)
    n = len(table.models)
    selections = []
    for d, doc in enumerate(table.documents):
        # The (weight, per-model values) of each criterion this document keeps.
        usable = []
        for crit, weight, column in zip(crits, weights, columns):
            row = column[d * n : (d + 1) * n]
            if all(map(math.isfinite, row)):
                usable.append((weight, row))
            elif any(map(math.isnan, row)):
                if strict:
                    model = next(m for m, v in zip(table.models, row) if v != v)
                    raise MissingCellError(
                        f"missing cell (hadm_id={doc!r}, model_id={model!r}, metric={crit.metric!r})"
                    )
            else:
                names = sorted(m for m, v in zip(table.models, row) if math.isinf(v))
                raise ValueError(f"non-finite scores for models: {', '.join(names)}")
        scale = 1.0
        if len(usable) < len(crits):
            if not usable:
                raise MissingCellError(f"no usable criteria for hadm_id {doc!r}")
            kept_weight = reduce(add, [weight for weight, _ in usable], 0.0)
            if kept_weight == 0:
                raise MissingCellError(f"remaining criteria for hadm_id {doc!r} have zero total weight")
            scale = full_weight / kept_weight
        totals = [0.0] * n
        for weight, row in usable:
            factor = weight * scale
            totals = [total + factor * norm for total, norm in zip(totals, _min_max(row))]
        # A nan score never wins and a model wins only above -inf, as in a `>` scan;
        # the basis is the winner's own score, which may be -0.0.
        model, basis = None, -math.inf
        for name, total in zip(table.models, totals):
            score = total / len(usable)
            if score > basis:
                model, basis = name, score
        selections.append(Selection(hadm_id=doc, model_id=model, basis=basis))
    return SelectionResult(target=target, selections=tuple(selections))


def select_by_length(
    counts: Mapping[tuple[str, str], int],
    cfg: LengthSelectConfig,
    target: TargetKind,
) -> SelectionResult:
    """Length-window selection over ranked models, from (hadm_id, model_id) -> word count.

    Per document: first ranked model inside [100, 180] words wins; otherwise
    the shortest text of at least 70 words; otherwise the highest-ranked
    model's text.
    """
    unranked = sorted({m for _, m in counts} - set(cfg.model_ranking))
    if unranked:
        raise DesConfigError(f"model_ranking does not cover: {', '.join(unranked)}")
    per_doc: dict[str, dict[str, int]] = {}
    for (doc, model), count in counts.items():
        per_doc.setdefault(doc, {})[model] = count
    if not per_doc:
        raise DesConfigError("no candidates to select from")
    selections: list[Selection] = []
    for doc, available in per_doc.items():
        ranked = [m for m in cfg.model_ranking if m in available]
        chosen = next((m for m in ranked if _PREFERRED_MIN <= available[m] <= _PREFERRED_MAX), None)
        basis = "preferred_window"
        if chosen is None:
            eligible = [m for m in ranked if available[m] >= _HARD_MIN]
            if eligible:
                chosen = min(eligible, key=lambda m: (available[m], ranked.index(m)))
                basis = "shortest_above_floor"
        if chosen is None:
            chosen, basis = ranked[0], "top_ranked"
        selections.append(Selection(hadm_id=doc, model_id=chosen, basis=basis))
    return SelectionResult(target=target, selections=tuple(selections))


def derive_des4_weights(table: ScoreTable, overall: Mapping[tuple[str, str], float]) -> DesConfig:
    """Weight each metric of the table by its correlation with the overall score.

    The weights are the one column of ``analysis.correlation_matrix(table,
    overall)``: observations are all (document, model) pairs present in both
    the table and the overall map, less those whose metric cell is missing;
    fewer than 3, or a constant vector, is an error that names the metric.
    """
    from .analysis import AnalysisError, correlation_matrix

    try:
        matrix = correlation_matrix(table, overall)
    except AnalysisError as exc:
        raise DesConfigError(str(exc)) from None
    return DesConfig("des4", criteria=tuple(Criterion(m, r) for m, (r,) in zip(matrix.metrics, matrix.values)))


# --- config file format ------------------------------------------------------


def _parse_weight(metric: str, value) -> float:
    try:
        if isinstance(value, str):
            num, den = value.split("/")
            return int(num) / int(den)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        raise DesConfigError(f"criterion {metric!r}: weight is too large for a float") from None
    except (ValueError, ZeroDivisionError):
        pass
    raise DesConfigError(f"criterion {metric!r}: cannot parse weight {value!r}")


def _parse_criterion(index: int, entry) -> Criterion:
    if not isinstance(entry, dict):
        raise DesConfigError(
            f"criterion {index} must be an object with 'metric' and 'weight', got {entry!r}"
        )
    metric = entry.get("metric")
    if not isinstance(metric, str):
        raise DesConfigError(f"criterion {index} needs a 'metric' string, got {metric!r}")
    if "weight" not in entry:
        raise DesConfigError(f"criterion {metric!r} is missing 'weight'")
    scope = entry.get("scope", "both")
    try:
        scope = Scope(scope)
    except ValueError:
        raise DesConfigError(f"criterion {metric!r}: unknown scope {scope!r}") from None
    return Criterion(metric, _parse_weight(metric, entry["weight"]), scope)


def parse_des_config(data: Mapping) -> DesConfig:
    """Build a DesConfig from its JSON object form."""
    if not isinstance(data, Mapping):
        raise DesConfigError(f"config must be a JSON object, got {type(data).__name__}")
    raw_criteria = data.get("criteria")
    if raw_criteria is None:
        raise DesConfigError("config is missing 'criteria'")
    if not isinstance(raw_criteria, list):
        raise DesConfigError(f"'criteria' must be a list, got {type(raw_criteria).__name__}")
    criteria = tuple(_parse_criterion(i, entry) for i, entry in enumerate(raw_criteria))
    normalization = data.get("normalization", "min_max")
    if normalization != "min_max":
        raise DesConfigError(f"unsupported normalization {normalization!r}")
    tie = data.get("tie_break", "first")
    if tie not in ("first", "first_model_in_input_order"):
        raise DesConfigError(f"unsupported tie_break {tie!r}")
    return DesConfig(name=data.get("name", "custom"), criteria=criteria)


def load_des_config(path) -> DesConfig:
    """Read a DES config file; errors do not name it, the caller does."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise DesConfigError(f"not valid JSON: {exc}") from None
    return parse_des_config(data)


def des_config_to_json(config: DesConfig) -> dict:
    return {
        "name": config.name,
        "normalization": "min_max",
        "tie_break": "first",
        "criteria": [
            {
                "metric": c.metric,
                "weight": float(c.weight),
                "scope": c.scope.value,
            }
            for c in config.criteria
        ],
    }
