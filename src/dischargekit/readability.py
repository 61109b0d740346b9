"""Reference-free readability scores: FKGL, Dale-Chall, Coleman-Liau.

All three operate on :class:`~dischargekit.textprep.TokenizedText` so the
counting rules live in one place. Absolute values depend on the shipped
syllable heuristic and familiar-word list; relative comparisons between
texts scored with the same rules are the supported use.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .textprep import TokenizedText

_DIFFICULT_PCT_THRESHOLD = 5.0
_DCRS_ADJUSTMENT = 3.6365


class DegenerateTextError(ValueError):
    """Raised when a score is undefined for the given counts."""


@lru_cache(maxsize=1)
def default_familiar_words() -> frozenset[str]:
    """Familiar-word list used by the Dale-Chall score."""
    text = resources.files("dischargekit.data").joinpath("familiar_words.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def fkgl(t: TokenizedText) -> float:
    """Flesch-Kincaid grade level: 0.39 W/S + 11.8 Syl/W - 15.59."""
    if t.n_words < 1 or t.n_sentences < 1:
        raise DegenerateTextError("fkgl needs at least one word and one sentence")
    return (
        0.39 * (t.n_words / t.n_sentences)
        + 11.8 * (t.n_syllables / t.n_words)
        - 15.59
    )


def is_familiar(word: str, familiar: frozenset[str]) -> bool:
    """Membership check with minimal inflection stripping (s/es/ed/ing)."""
    if word in familiar:
        return True
    for suffix in ("s", "es", "ed", "ing"):
        if word.endswith(suffix) and word[: -len(suffix)] in familiar:
            return True
    return False


def dcrs(t: TokenizedText) -> float:
    """Dale-Chall readability score.

    0.1579 * pct_difficult + 0.0496 * W/S, plus 3.6365 when the difficult
    percentage strictly exceeds 5.0.
    """
    if t.n_words < 1 or t.n_sentences < 1:
        raise DegenerateTextError("dcrs needs at least one word and one sentence")
    familiar_words = default_familiar_words()
    difficult = sum(
        1
        for sentence in t.sentences
        for word in sentence
        if not is_familiar(word, familiar_words)
    )
    pct_difficult = 100.0 * difficult / t.n_words
    score = 0.1579 * pct_difficult + 0.0496 * (t.n_words / t.n_sentences)
    if pct_difficult > _DIFFICULT_PCT_THRESHOLD:
        score += _DCRS_ADJUSTMENT
    return score


def cli(t: TokenizedText) -> float:
    """Coleman-Liau index: 0.0588 L - 0.296 S - 15.8 (per-100-word rates)."""
    if t.n_words < 1:
        raise DegenerateTextError("cli needs at least one word")
    letters_per_100 = 100.0 * t.n_letters / t.n_words
    sentences_per_100 = 100.0 * t.n_sentences / t.n_words
    return 0.0588 * letters_per_100 - 0.296 * sentences_per_100 - 15.8
