from __future__ import annotations

import gc
import math
import random
import re
import string
import time

import pytest
from hypothesis import given, settings, strategies as st
from oracles import naive_split_sentences

from dischargekit.textprep import (
    TokenizedText,
    count_syllables,
    default_abbreviations,
    split_sentences,
    tokenize,
    word_count,
    words,
)


def test_simple_sentence_counts():
    t = tokenize("The cat sat on the mat.")
    assert t.n_sentences == 1
    assert t.n_words == 6
    assert t.n_letters == 17
    assert t.n_syllables == 6


def test_empty_input_all_zero():
    t = tokenize("")
    assert t == TokenizedText(sentences=(), n_sentences=0, n_words=0, n_syllables=0, n_letters=0)


def test_abbreviation_guard_suppresses_split():
    t = tokenize("Dr. Smith left. He returned.")
    assert t.n_sentences == 2
    assert t.sentences[0] == ("dr", "smith", "left")
    assert t.sentences[1] == ("he", "returned")


def test_multiple_terminators_and_tail():
    assert len(split_sentences("Really?! Yes. and a tail without a period")) == 3


def test_exclamation_and_question_split():
    t = tokenize("Stop! Why now? Go.")
    assert t.n_sentences == 3


@pytest.mark.parametrize(
    "word,expected",
    [
        ("cat", 1),
        ("generate", 3),
        ("table", 2),
        ("the", 1),
        ("see", 1),
        ("little", 2),
        ("hospital", 3),
    ],
)
def test_count_syllables_examples(word, expected):
    assert count_syllables(word) == expected


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15))
def test_count_syllables_at_least_one(word):
    assert count_syllables(word) >= 1


@pytest.mark.parametrize(
    "text,expected",
    [("a b  c", 3), ("", 0), ("  ", 0), ("one\ntwo\tthree four", 4)],
)
def test_word_count_whitespace_rule(text, expected):
    assert word_count(text) == expected


def test_word_count_large_synthetic():
    text = " ".join(f"w{i}" for i in range(2500))
    assert word_count(text) == 2500


def test_words_strips_punctuation_and_lowercases():
    assert words("Take 2 pills, don't skip!") == ["take", "2", "pills", "don't", "skip"]


@given(
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta."]), min_size=0, max_size=20),
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta."]), min_size=0, max_size=20),
)
def test_word_counts_add_over_concatenation(a, b):
    left = " ".join(a)
    right = " ".join(b)
    joined = tokenize(left + " " + right)
    assert joined.n_words == tokenize(left).n_words + tokenize(right).n_words


def test_tokenize_is_pure():
    text = "Dr. Smith left. He returned."
    assert tokenize(text) == tokenize(text)


def test_whitespace_before_the_period_ends_the_abbreviation():
    # The abbreviation is the [A-Za-z'.] run directly before the period, so
    # a newline between "dr" and the period ends it just as a space does.
    for text in ("Seen by dr\n. Then home. Ok.", "Seen by dr . Then home. Ok."):
        sentences = split_sentences(text)
        assert len(sentences) == 3, sentences
        assert sentences[1:] == ["Then home.", "Ok."]
    assert split_sentences("Seen by dr. Then home. Ok.") == ["Seen by dr. Then home.", "Ok."]


_ABBREVIATIONS = sorted(default_abbreviations())
_TOKENS = st.one_of(
    st.text(alphabet=string.ascii_letters + "'", min_size=1, max_size=6),
    st.sampled_from(_ABBREVIATIONS + [a.capitalize() for a in _ABBREVIATIONS] + ["E.G."]),
    st.sampled_from([a[:-1] for a in _ABBREVIATIONS]),
    st.sampled_from([".", ".", "!", "?", "?!", "..", "..."]),
    st.text(alphabet=string.digits, min_size=1, max_size=3),
)
# "" glues neighbouring tokens, so runs such as "dr." and "e.g.?" also occur.
_SEPARATORS = st.sampled_from(["", " ", " ", "\n", "\t", " \n", "\r\n", ", ", "("])
_TEXTS = st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=20).map(
    lambda pairs: "".join(token + sep for token, sep in pairs)
)


@settings(max_examples=500)
@given(_TEXTS)
def test_split_and_tokenize_agree_with_naive_splitter(text):
    abbreviations = default_abbreviations()
    expected = naive_split_sentences(text, abbreviations)
    assert split_sentences(text) == expected
    sentences = tuple(
        tokens
        for tokens in (tuple(re.findall(r"[a-z0-9']+", s.lower())) for s in expected)
        if tokens
    )
    t = tokenize(text)
    assert t.sentences == sentences
    assert t.n_sentences == len(sentences)
    assert t.n_words == sum(len(tokens) for tokens in sentences)


def _long_text(n_words: int) -> str:
    rng = random.Random(n_words)
    vocab = ["patient", "stable", "Dr.", "e.g.", "no.", "fluids", "rest", "vs.", "pain", "approx."]
    return " ".join(rng.choice(vocab) + ("." if i % 12 == 11 else "") for i in range(n_words))


def test_tokenize_scales_linearly_in_text_length():
    # A relative bound: 4x the words may take at most 6x the time, so a
    # rescan of the text at every period (quadratic overall) fails. The
    # sizes alternate so that a slow spell of a shared host hits both, and
    # each size keeps its fastest of 5 runs.
    texts = {n: _long_text(n) for n in (4000, 16000)}
    best = dict.fromkeys(texts, math.inf)
    for _ in range(5):
        for n, text in texts.items():
            gc.collect()
            start = time.perf_counter()
            tokenize(text)
            best[n] = min(best[n], time.perf_counter() - start)
    ratio = best[16000] / best[4000]
    assert ratio < 6, f"t(16k)/t(4k) = {best[16000]:.3f}/{best[4000]:.3f} s = {ratio:.1f}"
