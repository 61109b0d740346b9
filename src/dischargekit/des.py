"""Dynamic expert selection: pick one model's text per document.

Score-driven strategies min-max normalize each criterion metric across the
available models (per document), multiply by signed weights, average, and
take the argmax. A length-window strategy picks by word count instead.
Presets des1..des3 carry fixed weights; des4 derives weights from score
correlations; des5 is the length rule.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .corpus import GeneratedCandidate, TargetKind
from .scores import ScoreTable


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


@dataclass(frozen=True)
class Criterion:
    metric: str
    weight: Fraction | float
    scope: Scope = Scope.BOTH


@dataclass(frozen=True)
class DesConfig:
    name: str
    criteria: tuple[Criterion, ...]
    normalization: str = "min_max"
    tie_break: str = "first_model_in_input_order"

    def __post_init__(self):
        if self.normalization != "min_max":
            raise DesConfigError(f"unsupported normalization {self.normalization!r}")
        if self.tie_break != "first_model_in_input_order":
            raise DesConfigError(f"unsupported tie_break {self.tie_break!r}")
        if not self.criteria:
            raise DesConfigError("config needs at least one criterion")

    def criteria_for(self, target: TargetKind) -> tuple[Criterion, ...]:
        crits = tuple(c for c in self.criteria if c.scope.applies_to(target))
        if not crits:
            raise DesConfigError(f"config {self.name!r} has no criteria for target {target.value}")
        return crits


@dataclass(frozen=True)
class LengthSelectConfig:
    model_ranking: tuple[str, ...]
    preferred_min: int = 100
    preferred_max: int = 180
    hard_min: int = 70

    def __post_init__(self):
        if not (self.hard_min <= self.preferred_min < self.preferred_max):
            raise DesConfigError("need hard_min <= preferred_min < preferred_max")
        if not self.model_ranking:
            raise DesConfigError("model_ranking must not be empty")


@dataclass(frozen=True)
class Selection:
    hadm_id: str
    model_id: str
    text: str | None
    basis: float | str


@dataclass(frozen=True)
class SelectionResult:
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
            Criterion("medcon", Fraction(1, 2)),
            Criterion("meteor", Fraction(1, 2)),
        ),
    ),
    "des2": DesConfig(
        "des2",
        criteria=(
            Criterion("medcon", Fraction(2, 5)),
            Criterion("meteor", Fraction(2, 5)),
            Criterion("cli", Fraction(1, 5)),
        ),
    ),
    "des3": DesConfig(
        "des3",
        criteria=(
            Criterion("fkgl", Fraction(-1, 9), Scope.DI_ONLY),
            Criterion("dcrs", Fraction(-1, 9), Scope.DI_ONLY),
            Criterion("cli", Fraction(-1, 9), Scope.DI_ONLY),
            Criterion("medcon", Fraction(2, 9), Scope.DI_ONLY),
            Criterion("meteor", Fraction(2, 9), Scope.DI_ONLY),
            Criterion("alignscore", Fraction(2, 9), Scope.DI_ONLY),
            Criterion("medcon", Fraction(1, 3), Scope.BHC_ONLY),
            Criterion("meteor", Fraction(1, 3), Scope.BHC_ONLY),
            Criterion("alignscore", Fraction(1, 3), Scope.BHC_ONLY),
        ),
    ),
}

PRESET_NAMES = ("des1", "des2", "des3", "des4", "des5")


def min_max_normalize(raw: Mapping[str, float]) -> dict[str, float]:
    """Rescale one document's per-model values to [0, 1].

    A constant column normalizes to all zeros, which is selection-neutral.
    """
    if not raw:
        raise ValueError("cannot normalize an empty score map")
    bad = [k for k, v in raw.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite scores for models: {', '.join(sorted(bad))}")
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        return {k: 0.0 for k in raw}
    return {k: (v - lo) / (hi - lo) for k, v in raw.items()}


def _texts_by_doc_model(
    candidates: Sequence[GeneratedCandidate] | None, target: TargetKind
) -> dict[tuple[str, str], str]:
    if candidates is None:
        return {}
    return {
        (c.hadm_id, c.model_id): c.text for c in candidates if c.target is target
    }


def select_experts(
    table: ScoreTable,
    config: DesConfig,
    target: TargetKind,
    candidates: Sequence[GeneratedCandidate] | None = None,
    strict: bool = True,
) -> SelectionResult:
    """Pick the highest weighted-average model per document.

    Strict mode errors on any missing cell; lenient mode drops a criterion
    for a document when any model lacks its value and rescales the
    remaining weights to the original weight sum.
    """
    if target != table.target:
        raise DesConfigError(
            f"table holds {table.target.value} scores but selection target is {target.value}"
        )
    crits = config.criteria_for(target)
    missing_metrics = [c.metric for c in crits if c.metric not in table.metrics]
    if missing_metrics:
        raise MissingCellError(
            f"table lacks metrics required by {config.name!r}: {', '.join(missing_metrics)}"
        )
    texts = _texts_by_doc_model(candidates, target)
    full_weight = sum(float(c.weight) for c in crits)
    selections: list[Selection] = []
    for doc in table.documents:
        usable: list[tuple[Criterion, dict[str, float]]] = []
        for crit in crits:
            raw = {m: table.get(doc, m, crit.metric) for m in table.models}
            gaps = [m for m, v in raw.items() if math.isnan(v)]
            if gaps:
                if strict:
                    raise MissingCellError(
                        f"missing cell (hadm_id={doc!r}, model_id={gaps[0]!r}, "
                        f"metric={crit.metric!r})"
                    )
                continue
            usable.append((crit, min_max_normalize(raw)))
        if not usable:
            raise MissingCellError(f"no usable criteria for hadm_id {doc!r}")
        kept_weight = sum(float(c.weight) for c, _ in usable)
        if len(usable) < len(crits):
            if kept_weight == 0:
                raise MissingCellError(
                    f"remaining criteria for hadm_id {doc!r} have zero total weight"
                )
            scale = full_weight / kept_weight
        else:
            scale = 1.0
        best_model = None
        best_score = -math.inf
        for model in table.models:
            score = sum(
                float(crit.weight) * scale * normalized[model] for crit, normalized in usable
            ) / len(usable)
            if score > best_score:
                best_model = model
                best_score = score
        selections.append(
            Selection(
                hadm_id=doc,
                model_id=best_model,
                text=texts.get((doc, best_model)),
                basis=best_score,
            )
        )
    return SelectionResult(target=target, selections=tuple(selections))


def select_by_length(
    candidates: Sequence[GeneratedCandidate],
    cfg: LengthSelectConfig,
    target: TargetKind | None = None,
) -> SelectionResult:
    """Length-window selection over ranked models.

    Per document: first ranked model inside [preferred_min, preferred_max]
    wins; otherwise the shortest text of at least hard_min words; otherwise
    the highest-ranked model's text.
    """
    kinds = {c.target for c in candidates}
    if target is None:
        if len(kinds) != 1:
            raise DesConfigError("candidates span multiple target kinds; pass target explicitly")
        target = next(iter(kinds))
    pool = [c for c in candidates if c.target is target]
    unranked = sorted({c.model_id for c in pool} - set(cfg.model_ranking))
    if unranked:
        raise DesConfigError(f"model_ranking does not cover: {', '.join(unranked)}")
    per_doc: dict[str, dict[str, GeneratedCandidate]] = {}
    for c in pool:
        per_doc.setdefault(c.hadm_id, {})[c.model_id] = c
    if not per_doc:
        raise DesConfigError("no candidates to select from")
    selections: list[Selection] = []
    for doc, available in per_doc.items():
        ranked = [m for m in cfg.model_ranking if m in available]
        if not ranked:
            raise DesConfigError(f"no candidates for hadm_id {doc!r}")
        chosen = None
        basis = None
        for model in ranked:
            wc = available[model].word_count
            if cfg.preferred_min <= wc <= cfg.preferred_max:
                chosen, basis = model, "preferred_window"
                break
        if chosen is None:
            eligible = [m for m in ranked if available[m].word_count >= cfg.hard_min]
            if eligible:
                chosen = min(eligible, key=lambda m: (available[m].word_count, ranked.index(m)))
                basis = "shortest_above_floor"
        if chosen is None:
            chosen, basis = ranked[0], "top_ranked"
        selections.append(
            Selection(hadm_id=doc, model_id=chosen, text=available[chosen].text, basis=basis)
        )
    return SelectionResult(target=target, selections=tuple(selections))


def derive_des4_weights(
    table: ScoreTable,
    overall: Mapping[tuple[str, str], float],
    metrics: Sequence[str] | None = None,
) -> DesConfig:
    """Weight each metric by its correlation with the overall score.

    Observations are all (document, model) pairs present in both the table
    and the overall map; fewer than 3 pairs is an error.
    """
    from .analysis import pearson

    metrics = tuple(metrics) if metrics is not None else table.metrics
    criteria = []
    for metric in metrics:
        if metric not in table.metrics:
            raise DesConfigError(f"table lacks metric {metric!r}")
        xs, ys = [], []
        for (doc, model), y in overall.items():
            v = table.get(doc, model, metric)
            if not math.isnan(v):
                xs.append(v)
                ys.append(float(y))
        if len(xs) < 3:
            raise DesConfigError(
                f"metric {metric!r} has {len(xs)} usable observations; need at least 3"
            )
        criteria.append(Criterion(metric, pearson(xs, ys)))
    return DesConfig("des4", criteria=tuple(criteria))


# --- config file format ------------------------------------------------------


def _parse_weight(value) -> Fraction | float:
    if isinstance(value, str):
        try:
            num, den = value.split("/")
            return Fraction(int(num), int(den))
        except ValueError:
            raise DesConfigError(f"cannot parse weight {value!r}") from None
    if isinstance(value, (int, float)):
        return float(value)
    raise DesConfigError(f"cannot parse weight {value!r}")


def parse_des_config(data: Mapping) -> DesConfig:
    """Build a DesConfig from its JSON object form."""
    try:
        raw_criteria = data["criteria"]
    except KeyError:
        raise DesConfigError("config is missing 'criteria'") from None
    criteria = []
    for entry in raw_criteria:
        scope = entry.get("scope", "both")
        try:
            scope = Scope(scope)
        except ValueError:
            raise DesConfigError(f"unknown scope {scope!r}") from None
        criteria.append(Criterion(entry["metric"], _parse_weight(entry["weight"]), scope))
    tie = data.get("tie_break", "first")
    return DesConfig(
        name=data.get("name", "custom"),
        criteria=tuple(criteria),
        normalization=data.get("normalization", "min_max"),
        tie_break="first_model_in_input_order" if tie in ("first", "first_model_in_input_order") else tie,
    )


def load_des_config(path) -> DesConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_des_config(json.load(fh))


def des_config_to_json(config: DesConfig) -> dict:
    return {
        "name": config.name,
        "normalization": config.normalization,
        "tie_break": "first",
        "criteria": [
            {
                "metric": c.metric,
                "weight": (
                    f"{c.weight.numerator}/{c.weight.denominator}"
                    if isinstance(c.weight, Fraction)
                    else float(c.weight)
                ),
                "scope": c.scope.value,
            }
            for c in config.criteria
        ],
    }
