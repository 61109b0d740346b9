"""Synthetic data: a seeded discharge-summary corpus with per-model candidates,
and stand-ins for the externally computed metrics.

Only ``simulate``, the tests and the demos load this module, so no other
CLI step compiles it.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from .corpus import (
    BHC_HEADER, DI_HEADER, DischargeSummary, ExtractedTargets, GeneratedCandidate, Job, TargetKind, extract_targets,
    first_seen,
)

# Fixed pool of ordinary English words; no clinical text ships with the
# package. Roughly half the pool is on the familiar-word list so synthetic
# texts get a mix of easy and difficult vocabulary.
_WORD_POOL = (
    "the patient was stable and rested well after the morning review "
    "care plan called for fluids rest and a slow return to normal diet "
    "team noted steady progress with no new concerns overnight "
    "pain was controlled and breathing remained comfortable each day "
    "follow the plan take medicine with food and drink plenty of water "
    "call the office if fever returns or the wound looks red or swollen "
    "walking short distances is encouraged while heavy lifting is not "
    "sleep appetite and energy improved before the planned departure "
    "recovery milestone threshold monitoring evaluation adjustment "
    "gradual improvement condition management guidance assessment"
).split()

_DI_MEAN_WORDS = 196
_BHC_MEAN_WORDS = 328

_FILLER_SECTIONS = (
    ("Chief Complaint", 8),
    ("History of Present Illness", 90),
    ("Past Medical History", 30),
    ("Physical Exam", 40),
    ("Pertinent Results", 45),
    ("Discharge Medications", 35),
)


def _sentences(rng: random.Random, n_words: int) -> str:
    """n_words pool words chunked into period-terminated sentences."""
    return _resentence(rng, [rng.choice(_WORD_POOL) for _ in range(n_words)])


def _target_length(rng: random.Random, mean: int) -> int:
    return max(40, round(rng.gauss(mean, mean * 0.09)))


def _corrupt(rng: random.Random, reference: str, quality: float) -> str:
    """Rebuild a reference with token-level noise; quality 1 copies it."""
    tokens = reference.split()
    kept = [t if rng.random() < quality else rng.choice(_WORD_POOL) for t in tokens]
    scale = rng.uniform(0.9, 1.1)
    new_len = max(30, round(len(kept) * scale))
    if new_len <= len(kept):
        kept = kept[:new_len]
    else:
        kept = kept + [rng.choice(_WORD_POOL) for _ in range(new_len - len(kept))]
    text = " ".join(kept)
    # Re-terminate so readability metrics see sentences.
    stripped = [w.strip(".").lower() for w in text.split()]
    return _resentence(rng, [w for w in stripped if w])


def _resentence(rng: random.Random, tokens: list[str]) -> str:
    out: list[str] = []
    i = 0
    while i < len(tokens):
        k = min(rng.randint(6, 14), len(tokens) - i)
        out.append(" ".join(tokens[i : i + k]).capitalize() + ".")
        i += k
    return " ".join(out)


def generate_synthetic_corpus(
    n_docs: int, n_models: int, seed: int
) -> tuple[list[DischargeSummary], list[GeneratedCandidate]]:
    """Deterministic synthetic corpus plus per-model candidate generations.

    Candidate quality (token overlap with the reference) carries a large
    per-document jitter on top of a mild per-model base, so no model wins
    everywhere. DI candidates average near 196 words, BHC near 328.
    """
    if n_docs < 1 or n_models < 1:
        raise ValueError("n_docs and n_models must be >= 1")
    rng = random.Random(seed)
    model_ids = [f"model_{chr(ord('a') + i)}" if i < 26 else f"model_{i}" for i in range(n_models)]
    base_skill = {
        m: 0.45 + 0.2 * (i / max(n_models - 1, 1)) for i, m in enumerate(model_ids)
    }
    summaries: list[DischargeSummary] = []
    candidates: list[GeneratedCandidate] = []
    for d in range(n_docs):
        hadm_id = f"{20000000 + d}"
        bhc_ref = _sentences(rng, _target_length(rng, _BHC_MEAN_WORDS))
        di_ref = _sentences(rng, _target_length(rng, _DI_MEAN_WORDS))
        parts: list[str] = []
        for header, mean_words in _FILLER_SECTIONS[:3]:
            parts.append(f"{header}:")
            parts.append(_sentences(rng, max(4, round(rng.gauss(mean_words, 6)))))
        parts.append(f"{BHC_HEADER}:")
        parts.append(bhc_ref)
        for header, mean_words in _FILLER_SECTIONS[3:]:
            parts.append(f"{header}:")
            parts.append(_sentences(rng, max(4, round(rng.gauss(mean_words, 6)))))
        parts.append(f"{DI_HEADER}:")
        parts.append(di_ref)
        parts.append("Followup Instructions:")
        parts.append(_sentences(rng, 10))
        full_text = "\n".join(parts)
        targets, body = extract_targets(full_text, hadm_id=hadm_id)
        summaries.append(
            DischargeSummary(
                hadm_id=hadm_id, full_text=full_text, body_without_targets=body, targets=targets
            )
        )
        for model_id in model_ids:
            for target, reference in ((TargetKind.BHC, bhc_ref), (TargetKind.DI, di_ref)):
                quality = min(0.98, max(0.05, base_skill[model_id] + rng.uniform(-0.3, 0.3)))
                text = _corrupt(rng, reference, quality)
                candidates.append(GeneratedCandidate(hadm_id, model_id, target, text))
    return summaries, candidates


def synthetic_external_jobs(
    candidates: Sequence[GeneratedCandidate],
    references: Mapping[str, ExtractedTargets],
    summaries: Sequence[DischargeSummary],
) -> list[Job]:
    """The jobs of :func:`synthetic_external_rows`: per target, in first-seen
    order, bertscore and medcon against the reference, then alignscore
    against the document body."""
    from . import scores

    bodies = {s.hadm_id: s.body_without_targets for s in summaries}
    jobs = []
    for target in first_seen(c.target for c in candidates):
        pool = [c for c in candidates if c.target is target]
        refs = scores._against(pool, references, "reference")
        jobs.append((pool, target, {"bertscore": "bertscore", "medcon": "medcon"}, refs))
        on_body = scores._against(pool, bodies, "discharge summary")
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
    from . import scores, tables

    jobs = synthetic_external_jobs(candidates, references, summaries)
    scored = [tables.ScoreTable(*columns) for columns in scores.score_columns(jobs, 1)]
    return [row for pair in zip(scored[::2], scored[1::2]) for row in tables.joined(pair).to_rows()]
