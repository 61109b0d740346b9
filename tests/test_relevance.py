from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dischargekit.relevance import bleu4, meteor, rouge_1, rouge_2, rouge_l, rouge_n
from dischargekit.textprep import words

VOCAB = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "home", "fast", "slow", "red"]


def random_pair(rng, max_len=12):
    return (
        [rng.choice(VOCAB) for _ in range(rng.randint(0, max_len))],
        [rng.choice(VOCAB) for _ in range(rng.randint(0, max_len))],
    )


def test_bleu4_identity():
    text = "the cat sat on the mat"
    assert bleu4(text, text) == pytest.approx(1.0, abs=1e-12)


def test_bleu4_empty_candidate():
    assert bleu4("", "the cat") == 0.0


def test_bleu4_no_unigram_match():
    assert bleu4("dog ran home", "the cat sat") == 0.0


def test_bleu4_fixture():
    # (5/6 * 3/5 * 2/4 * 1/3) ** 0.25 with brevity penalty 1.
    expected = (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
    assert bleu4("the cat sat on the mat", "the cat sat on a mat") == pytest.approx(
        expected, abs=1e-12
    )


def test_bleu4_brevity_penalty_applies():
    short = bleu4("the cat", "the cat sat on a mat")
    assert 0 < short < 1


def test_bleu4_matches_formula_oracle_on_random_pairs():
    rng = random.Random(20240526)
    for _ in range(200):
        c, r = random_pair(rng, max_len=15)
        assert bleu4(" ".join(c), " ".join(r)) == pytest.approx(
            oracles.formula_bleu4(c, r), abs=1e-9
        )


def test_rouge_1_fixture():
    assert rouge_1("the cat sat", "the cat sat on the mat") == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_identity_and_disjoint():
    assert rouge_1("a b c", "a b c") == 1.0
    assert rouge_2("a b c", "a b c") == 1.0
    assert rouge_l("a b c", "a b c") == 1.0
    assert rouge_1("a b", "c d") == 0.0
    assert rouge_2("a b", "c d") == 0.0
    assert rouge_l("a b", "c d") == 0.0


def test_rouge_n_rejects_other_orders():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 3)


def test_rouge_l_fixture():
    assert rouge_l("a b c d", "a c b d") == pytest.approx(0.75, abs=1e-9)


def test_rouge_matches_brute_force_oracles():
    rng = random.Random(99)
    for _ in range(1000):
        c, r = random_pair(rng)
        cs, rs = " ".join(c), " ".join(r)
        assert rouge_1(cs, rs) == pytest.approx(oracles.brute_rouge_n(c, r, 1), abs=1e-9)
        assert rouge_2(cs, rs) == pytest.approx(oracles.brute_rouge_n(c, r, 2), abs=1e-9)
        assert rouge_l(cs, rs) == pytest.approx(oracles.brute_rouge_l(c, r), abs=1e-9)


@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12).map(" ".join))
def test_rouge_1_is_order_invariant(text):
    shuffled = " ".join(reversed(text.split()))
    reference = "the cat sat on a mat"
    assert rouge_1(text, reference) == pytest.approx(rouge_1(shuffled, reference), abs=1e-12)


@settings(max_examples=50)
@given(
    st.lists(st.sampled_from(VOCAB), min_size=0, max_size=12),
    st.lists(st.sampled_from(VOCAB), min_size=0, max_size=12),
)
def test_all_metrics_bounded(c, r):
    cs, rs = " ".join(c), " ".join(r)
    for fn in (bleu4, rouge_1, rouge_2, rouge_l, meteor):
        assert 0.0 <= fn(cs, rs) <= 1.0 + 1e-12


def test_meteor_identity_penalty():
    # Identity alignment is one chunk: score = 1 - 0.5 / m^3.
    for m in (2, 3, 6, 10):
        text = " ".join(f"tok{i}" for i in range(m))
        assert meteor(text, text) == pytest.approx(1 - 0.5 / m**3, abs=1e-12)


def test_meteor_no_overlap():
    assert meteor("dog ran", "the cat") == 0.0


def test_meteor_stem_stage_matches_inflections():
    assert meteor("cats sleep", "cat sleeps") == pytest.approx(0.9375, abs=1e-12)


def test_meteor_matches_formula_oracle_on_random_pairs():
    rng = random.Random(20240527)
    for _ in range(200):
        c, r = random_pair(rng, max_len=15)
        assert meteor(" ".join(c), " ".join(r)) == pytest.approx(
            oracles.formula_meteor(c, r), abs=1e-9
        )


# Inflection families: several word types share a stem ("run", "runs",
# "running"; "relate", "relational"), so a stem key's leftovers come from
# more than one type and the order they are merged in decides the pairs.
INFLECTIONS = ["cat", "cats", "run", "runs", "running", "ran", "relate", "relational", "y", "yes"]
INFLECTED_TEXT = st.lists(st.sampled_from(INFLECTIONS), max_size=30)


@settings(max_examples=300, deadline=None)
@given(INFLECTED_TEXT, INFLECTED_TEXT)
def test_meteor_matches_formula_oracle_on_inflection_families(c, r):
    assert meteor(" ".join(c), " ".join(r)) == pytest.approx(oracles.formula_meteor(c, r), abs=1e-9)


@given(INFLECTED_TEXT.filter(bool))
def test_meteor_identity_with_repeated_words_is_one_chunk(tokens):
    text = " ".join(tokens)
    m = len(tokens)
    assert meteor(text, text) == pytest.approx(1 - 0.5 / m**3, abs=1e-12)


def test_metric_tokenization_ignores_case_and_punctuation():
    assert rouge_1("The cat, sat!", "the cat sat") == 1.0
    assert words("The cat, sat!") == ["the", "cat", "sat"]
