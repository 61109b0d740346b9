from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from dischargekit.readability import (
    DegenerateTextError,
    cli,
    dcrs,
    default_familiar_words,
    fkgl,
    is_familiar,
)
from dischargekit.textprep import TokenizedText, tokenize

EASY = "The cat sat on the mat."


def counts(n_sent, words_per_sent, syllables, letters):
    sentences = tuple(tuple(f"w{i}" for i in range(words_per_sent)) for _ in range(n_sent))
    return TokenizedText(
        sentences=sentences,
        n_sentences=n_sent,
        n_words=n_sent * words_per_sent,
        n_syllables=syllables,
        n_letters=letters,
    )


def test_fkgl_fixture():
    assert fkgl(tokenize(EASY)) == pytest.approx(-1.45, abs=1e-3)


def test_fkgl_single_word():
    assert fkgl(tokenize("cat.")) == pytest.approx(0.39 + 11.8 - 15.59, abs=1e-9)


def test_fkgl_needs_words_and_sentences():
    with pytest.raises(DegenerateTextError):
        fkgl(tokenize(""))


def test_cli_fixture():
    assert cli(tokenize(EASY)) == pytest.approx(-4.07, abs=1e-2)


def test_cli_exact_value():
    t = counts(1, 100, syllables=100, letters=100)
    # L = 100 letters per 100 words, S = 1 sentence per 100 words.
    assert cli(t) == pytest.approx(0.0588 * 100 - 0.296 * 1 - 15.8, abs=1e-9)


def test_dcrs_all_familiar_fixture():
    assert dcrs(tokenize(EASY)) == pytest.approx(0.2976, abs=1e-4)


def test_dcrs_all_difficult():
    # 10 unfamiliar words, one sentence.
    text = "Zyxwv " * 9 + "zyxwv."
    value = dcrs(tokenize(text))
    assert value == pytest.approx(0.1579 * 100 + 0.0496 * 10 + 3.6365, abs=1e-9)


def test_dcrs_threshold_is_exclusive():
    # Exactly 1 difficult word in 20 = 5.0%: no adjustment constant.
    familiar = sorted(default_familiar_words())[:19]
    assert not is_familiar("zzzyx", default_familiar_words())
    sentences = (tuple(familiar) + ("zzzyx",),)
    t = TokenizedText(sentences=sentences, n_sentences=1, n_words=20, n_syllables=20, n_letters=60)
    assert dcrs(t) == pytest.approx(0.1579 * 5.0 + 0.0496 * 20, abs=1e-9)


def test_inflection_stripping():
    familiar = frozenset({"walk", "box"})
    for word in ("walk", "walks", "walked", "walking", "boxes"):
        assert is_familiar(word, familiar)
    assert not is_familiar("walker", familiar)


def test_shipped_list_is_large_and_lowercase():
    familiar = default_familiar_words()
    assert len(familiar) > 2000
    assert all(w == w.lower() for w in familiar)


@pytest.mark.parametrize("text", [EASY, "Stop! Why now? Go home soon.", "One two three. Four five six seven."])
def test_duplication_invariance(text):
    base, doubled = tokenize(text), tokenize(text + " " + text)
    for formula in (fkgl, dcrs, cli):
        assert formula(doubled) == pytest.approx(formula(base), abs=1e-9)


@given(
    n_sent=st.integers(1, 8),
    wps=st.integers(1, 12),
    extra_syllables=st.integers(1, 30),
    extra_letters=st.integers(1, 60),
)
def test_fkgl_and_cli_monotone_in_complexity(n_sent, wps, extra_syllables, extra_letters):
    n_words = n_sent * wps
    base = counts(n_sent, wps, syllables=n_words, letters=3 * n_words)
    harder = counts(n_sent, wps, syllables=n_words + extra_syllables, letters=3 * n_words + extra_letters)
    assert fkgl(harder) > fkgl(base)
    assert cli(harder) > cli(base)
