"""Evaluation, selection, and section tooling for generated discharge-summary text.

The public names below load their submodule on first access (PEP 562), so a
command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it. The Coleman-Liau function stays at
# dischargekit.readability.cli so the name "cli" can refer to the
# command-line module here.
_SUBMODULE = {
    "CorrelationMatrix": "analysis",
    "correlation_matrix": "analysis",
    "normalize_clinician_scores": "analysis",
    "pearson": "analysis",
    "DischargeSummary": "corpus",
    "ExtractedTargets": "corpus",
    "GeneratedCandidate": "corpus",
    "TargetKind": "corpus",
    "extract_targets": "corpus",
    "generate_synthetic_corpus": "corpus",
    "load_candidates": "corpus",
    "load_corpus": "corpus",
    "Criterion": "des",
    "DesConfig": "des",
    "LengthSelectConfig": "des",
    "PRESETS": "des",
    "Scope": "des",
    "SelectionResult": "des",
    "derive_des4_weights": "des",
    "min_max_normalize": "des",
    "select_by_length": "des",
    "select_experts": "des",
    "dcrs": "readability",
    "fkgl": "readability",
    "bleu4": "relevance",
    "meteor": "relevance",
    "rouge_1": "relevance",
    "rouge_2": "relevance",
    "rouge_l": "relevance",
    "rouge_n": "relevance",
    "SectionedDocument": "reorder",
    "apply_header_ranking": "reorder",
    "global_header_ranking": "reorder",
    "rank_sections": "reorder",
    "split_sections": "reorder",
    "truncate_words": "reorder",
    "OVERALL_METRICS": "scores",
    "OverallScore": "scores",
    "overall_score": "scores",
    "ScoreTable": "tables",
    "compute_factuality_proxies": "tables",
    "compute_native_scores": "tables",
    "load_external_scores": "tables",
    "overall_by_document": "tables",
    "TokenizedText": "textprep",
    "count_syllables": "textprep",
    "tokenize": "textprep",
    "word_count": "textprep",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    # Not cached here, so each access reads the submodule's current binding.
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{submodule}", __name__), name)
