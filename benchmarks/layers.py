"""Per-layer metrics of one traced round, named after the package modules.

A round is one untraced CLI sequence at full size, the same sequence
traced, and the sequence traced again at half size. Metrics of a layer the
workload never enters read 0; ``growth_2x`` is total_s(full) /
total_s(half) and reads 0 when the half-size run spent no time there
(about 2 means linear, about 4 quadratic).
"""

from __future__ import annotations

from workloads import STEP_METRICS

_RELEVANCE = ("bleu4", "rouge_1", "rouge_2", "rouge_l", "meteor")
_READABILITY = ("fkgl", "dcrs", "cli")
_CORPUS = ("load_corpus", "load_candidates", "load_targets", "extract_targets")
_TOTALS = (
    "scores.compute_native_scores",
    "scores.compute_factuality_proxies",
    "scores.ScoreTable.from_rows",
    "scores.read_score_csv",
    "scores.write_score_csv",
    "des.select_experts",
    "des.derive_des4_weights",
    "analysis.correlation_matrix",
    *(f"corpus.{name}" for name in _CORPUS),
    "reorder.split_sections",
    "reorder.rank_sections",
    "reorder.truncate_words",
)
_GROWTH = (
    "textprep.tokenize",
    "relevance.rouge_l",
    "relevance.meteor",
    "scores.ScoreTable.from_rows",
    "des.select_experts",
    "analysis.correlation_matrix",
)

# name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "textprep.tokenize.calls": "count",
    "textprep.tokenize.self_s": "s",
    "textprep.tokenize.us_per_word": "us",
    "textprep.words.calls": "count",
    "textprep.words.self_s": "s",
    "textprep.words.distinct_ratio": "ratio",
    "stemmer.stem.calls": "count",
    "stemmer.stem.hit_ratio": "ratio",
    "stemmer.stem.self_s": "s",
    **{f"relevance.{m}.{f}": u for m in _RELEVANCE for f, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    "relevance.ref_distinct_ratio": "ratio",
    **{f"readability.{m}.{f}": u for m in _READABILITY for f, u in (("calls", "count"), ("total_s", "s"))},
    **{f"{name}.total_s": "s" for name in _TOTALS},
    "scores.compute_native_scores.pairs": "count",
    "scores.ScoreTable.from_rows.rows": "count",
    "scores.ScoreTable.get.calls": "count",
    "scores.read_score_csv.rows": "count",
    "des.select_experts.docs": "count",
    "analysis.pearson.calls": "count",
    "corpus.extract_targets.calls_per_doc": "ratio",
    **{f"{name}.growth_2x": "x" for name in _GROWTH},
    "cli.cpu_s": "s",
    "cli.manifest.total_s": "s",
    **{f"cli.{step}": "s" for step in STEP_METRICS},
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(full, half, untraced) -> dict[str, float]:
    """full/half: ``tracer.summarize`` results; untraced: step times, cpu and walls."""
    stats, counts, distinct = full
    half_stats = half[0]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}

    def span(name: str) -> dict:
        return stats.get(name, empty)

    metrics: dict[str, float] = {}
    tok, words, stem = span("textprep.tokenize"), span("textprep.words"), span("stemmer.stem")
    metrics["textprep.tokenize.calls"] = tok["calls"]
    metrics["textprep.tokenize.self_s"] = tok["self_s"]
    metrics["textprep.tokenize.us_per_word"] = 1e6 * _ratio(tok["self_s"], tok["items"])
    metrics["textprep.words.calls"] = words["calls"]
    metrics["textprep.words.self_s"] = words["self_s"]
    metrics["textprep.words.distinct_ratio"] = _ratio(distinct.get("textprep.words", 0), words["calls"])
    stem_calls = counts.get("stemmer.stem.hits", 0) + counts.get("stemmer.stem.misses", 0)
    metrics["stemmer.stem.calls"] = stem_calls
    metrics["stemmer.stem.hit_ratio"] = _ratio(counts.get("stemmer.stem.hits", 0), stem_calls)
    metrics["stemmer.stem.self_s"] = stem["self_s"]
    ref_calls = 0
    for m in _RELEVANCE:
        s = span(f"relevance.{m}")
        ref_calls += s["calls"]
        for f in ("calls", "total_s", "self_s"):
            metrics[f"relevance.{m}.{f}"] = s[f]
    metrics["relevance.ref_distinct_ratio"] = _ratio(distinct.get("relevance.ref", 0), ref_calls)
    for m in _READABILITY:
        s = span(f"readability.{m}")
        metrics[f"readability.{m}.calls"] = s["calls"]
        metrics[f"readability.{m}.total_s"] = s["total_s"]
    for name in _TOTALS:
        metrics[f"{name}.total_s"] = span(name)["total_s"]
    metrics["scores.compute_native_scores.pairs"] = span("scores.compute_native_scores")["items"]
    metrics["scores.ScoreTable.from_rows.rows"] = span("scores.ScoreTable.from_rows")["items"]
    metrics["scores.ScoreTable.get.calls"] = counts.get("scores.ScoreTable.get", 0)
    metrics["scores.read_score_csv.rows"] = span("scores.read_score_csv")["items"]
    metrics["des.select_experts.docs"] = span("des.select_experts")["items"]
    metrics["analysis.pearson.calls"] = span("analysis.pearson")["calls"]
    metrics["corpus.extract_targets.calls_per_doc"] = _ratio(
        span("corpus.extract_targets")["calls"], distinct.get("corpus.extract_targets", 0)
    )
    for name in _GROWTH:
        metrics[f"{name}.growth_2x"] = _ratio(span(name)["total_s"], half_stats.get(name, empty)["total_s"])
    metrics["cli.cpu_s"] = untraced["cpu_s"]
    metrics["cli.manifest.total_s"] = span("cli._write_manifest")["total_s"]
    for step in STEP_METRICS:
        metrics[f"cli.{step}"] = untraced["steps"].get(step, 0.0)
    metrics["trace.overhead_s"] = untraced["traced_wall_s"] - untraced["wall_s"]
    return metrics
