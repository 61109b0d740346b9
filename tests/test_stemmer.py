from __future__ import annotations

import string

import pytest
from hypothesis import given, strategies as st

from dischargekit import stemmer
from dischargekit.stemmer import stem
from dischargekit.textprep import words
from oracles import reference_stem

# Known input/output pairs for the classic suffix-stripping cascade.
KNOWN_PAIRS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensitivity", "sensit"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controlling", "control"),
    ("rolling", "roll"),
    ("generalizations", "gener"),
]


@pytest.mark.parametrize("word,expected", KNOWN_PAIRS)
def test_known_pairs(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    for w in ("a", "is", "be", "ox"):
        assert stem(w) == w


def test_inflection_family_collapses():
    assert stem("cats") == stem("cat")
    assert stem("sleeps") == stem("sleep") == stem("sleeping")


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_is_idempotent_on_length(word):
    # The stem never grows beyond the input plus one char ("abli" -> "able"
    # style rewrites can lengthen intermediates but not the input).
    out = stem(word)
    assert 1 <= len(out) <= len(word) + 1


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_is_deterministic(word):
    assert stem(word) == stem(word)


def test_rule_tables_are_longest_suffix_first():
    # The steps take the first suffix that matches, so each table must list
    # longer suffixes before shorter ones.
    for suffixes in (
        [rule[0] for rule in stemmer._STEP2_RULES],
        [rule[0] for rule in stemmer._STEP3_RULES],
        stemmer._STEP4_SUFFIXES,
    ):
        lengths = [len(s) for s in suffixes]
        assert lengths == sorted(lengths, reverse=True), suffixes


# Metric words are [a-z0-9']+; y is weighted up because its consonant or
# vowel role depends on the letter before it.
WORD_CHARS = string.ascii_lowercase + "yyyyyy" + "aeiou" + "0'"
SUFFIXES = sorted(
    {rule[0] for rule in stemmer._STEP2_RULES + stemmer._STEP3_RULES}
    | set(stemmer._STEP4_SUFFIXES)
    | {"s", "ss", "ies", "sses", "ed", "eed", "ing", "y", "e", "ll"}
)


@given(
    st.text(alphabet=WORD_CHARS, min_size=1, max_size=10),
    st.lists(st.sampled_from(SUFFIXES), max_size=2).map("".join),
)
def test_stem_matches_reference_stemmer(base, suffix):
    word = base + suffix
    assert stem(word) == reference_stem(word)


def test_stem_matches_reference_stemmer_on_packaged_word_lists():
    from importlib import resources

    data = resources.files("dischargekit.data")
    # Non-ASCII letters are not in the consonant/vowel table; like every
    # character but a, e, i, o, u and y they count as consonants.
    vocabulary = {"naïve", "café", "ŷes", "façade", "déjà"}
    for name in ("familiar_words.txt", "discharge_headers.txt", "abbreviations.txt"):
        vocabulary.update(words(data.joinpath(name).read_text("utf-8")))
    assert [w for w in sorted(vocabulary) if stem(w) != reference_stem(w)] == []
