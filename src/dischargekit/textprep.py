"""Deterministic English tokenization: sentences, words, syllables, letters.

Two word definitions coexist on purpose:

* metric words (:func:`words`, :func:`tokenize`) are maximal alphanumeric or
  apostrophe runs, lowercased -- the substrate for readability formulas and
  n-gram metrics;
* whitespace words (:func:`word_count`) are plain ``str.split`` tokens -- the
  definition used by length-window selection and word-budget truncation.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

_WORD_RE = re.compile(r"[a-z0-9']+")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_TERMINATOR_RUN_RE = re.compile(r"[.!?]+")
# [A-Za-z'.] spelled out: importing the string module would add to start-up time.
_ABBREVIATION_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz'.")


@lru_cache(maxsize=1)
def default_abbreviations() -> frozenset[str]:
    """Abbreviations whose trailing period never ends a sentence."""
    text = resources.files("dischargekit.data").joinpath("abbreviations.txt").read_text("utf-8")
    return frozenset(line.strip().lower() for line in text.splitlines() if line.strip())


class TokenizedText(NamedTuple):
    """Sentence/word/syllable/letter counts for one text."""

    sentences: tuple[tuple[str, ...], ...]
    n_sentences: int
    n_words: int
    n_syllables: int
    n_letters: int


def count_syllables(word: str) -> int:
    """Heuristic syllable count for a lowercase word, always >= 1.

    Counts vowel-letter runs (aeiouy), subtracting one for a silent final
    "e" except when the word ends in "le" after a consonant or the count
    would drop to zero.
    """
    count = len(_VOWEL_GROUP_RE.findall(word))
    if word.endswith("e"):
        keeps_final_e = (
            word.endswith("le") and len(word) >= 3 and word[-3] not in "aeiouy"
        )
        if not keeps_final_e and count > 1:
            count -= 1
    return max(count, 1)


def word_count(text: str) -> int:
    """Whitespace-token count."""
    return len(text.split())


@lru_cache(maxsize=2)
def _word_tuple(text: str) -> tuple[str, ...]:
    found = _WORD_RE.findall(text.lower())
    # One str per distinct word: findall makes a new one per match.
    shared: dict[str, str] = {}
    return tuple(map(shared.setdefault, found, found))


def words(text: str) -> list[str]:
    """Flat list of lowercase metric words.

    Every metric of a candidate/reference pair splits the same two texts,
    so the splits of the last two texts are kept; each call still returns a
    new list.
    """
    return list(_word_tuple(text))


def _is_abbreviation(text: str, dot_index: int, abbreviations: frozenset[str]) -> bool:
    """Whether the [A-Za-z'.] run directly before the period at ``dot_index``,
    with that period, is a guarded abbreviation."""
    start = dot_index
    while start > 0 and text[start - 1] in _ABBREVIATION_CHARS:
        start -= 1
    return start < dot_index and text[start : dot_index + 1].lower() in abbreviations


def split_sentences(text: str) -> list[str]:
    """Split after each run of ., ! or ? that whitespace or the end of text follows.

    A run that is a single period does not end the sentence when the
    abbreviation before it is guarded. That abbreviation is the maximal
    [A-Za-z'.] run directly before the period, lowercased, plus the period,
    so any whitespace ends it, a newline too: "dr." is guarded, "dr\\n." is
    not. Trailing text without terminal punctuation is its own sentence.

    Only a period at a boundary scans back, and the scan stops at the first
    character outside [A-Za-z'.]. The whitespace after the previous boundary
    is such a character, so no two scans overlap and the work is linear in
    the length of the text.
    """
    abbreviations = default_abbreviations()
    sentences: list[str] = []
    start = 0
    n = len(text)
    for run in _TERMINATOR_RUN_RE.finditer(text):
        i, j = run.span()
        if j < n and not text[j].isspace():
            continue
        if j - i == 1 and text[i] == "." and _is_abbreviation(text, i, abbreviations):
            continue
        sentences.append(text[start:j])
        start = j
    sentences.append(text[start:])
    return [s.strip() for s in sentences if s.strip()]


def tokenize(text: str) -> TokenizedText:
    """Tokenize into sentences of metric words and count syllables/letters.

    Sentences that contain no words (stray punctuation) are dropped, so
    empty input yields all-zero counts.
    """
    sentence_words: list[tuple[str, ...]] = []
    for sentence in split_sentences(text):
        tokens = tuple(_WORD_RE.findall(sentence.lower()))
        if tokens:
            sentence_words.append(tokens)
    all_words = [w for sent in sentence_words for w in sent]
    return TokenizedText(
        sentences=tuple(sentence_words),
        n_sentences=len(sentence_words),
        n_words=len(all_words),
        n_syllables=sum(count_syllables(w) for w in all_words),
        n_letters=sum(1 for w in all_words for ch in w if ch.isalpha()),
    )
