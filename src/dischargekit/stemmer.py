"""Porter suffix-stripping stemmer.

Classic five-step rule cascade over lowercase words. Within a step the
longest matching suffix is the only rule considered; if its condition fails
the step leaves the word unchanged.
"""

from __future__ import annotations


class _ConsonantTable(dict):
    """str.translate table: a character it does not list is a consonant."""

    def __missing__(self, code: int) -> str:
        return "c"


# "v" for a vowel, "c" for a consonant; "y" is resolved by position in _form.
_CV = _ConsonantTable.fromkeys(range(128), "c")
_CV.update(dict.fromkeys(map(ord, "aeiou"), "v"))
_CV[ord("y")] = "y"


def _form(word: str) -> str:
    """``word`` spelled as consonants ("c") and vowels ("v").

    y is a consonant at index 0 or after a vowel, and a vowel after a
    consonant.
    """
    form = word.translate(_CV)
    if "y" not in form:
        return form
    letters = []
    prev = "v"
    for ch in form:
        if ch == "y":
            ch = "c" if prev == "v" else "v"
        letters.append(ch)
        prev = ch
    return "".join(letters)


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences in the stem."""
    return _form(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _form(word)[-1] == "c"


def _ends_cvc(stem: str) -> bool:
    return _form(stem).endswith("cvc") and stem[-1] not in "wxy"


def _apply_longest(word: str, rules: list[tuple[str, str, int]], suffixes: tuple[str, ...]) -> str:
    """Apply the longest-suffix rule whose measure condition holds.

    Each rule is (suffix, replacement, min_measure), listed longest suffix
    first; min_measure is checked with strict > against the stem left after
    removing the suffix. ``suffixes`` holds every rule's suffix, so one
    ``endswith`` call turns away most words.
    """
    if not word.endswith(suffixes):
        return word
    for suffix, replacement, min_m in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_m:
                return stem + replacement
            return word
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    removed = False
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        removed = True
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        removed = True
    if removed:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# Each table is sorted longest suffix first once, below, so that the first
# suffix that matches is the longest one.
_STEP2_RULES = [
    ("ational", "ate", 0),
    ("tional", "tion", 0),
    ("enci", "ence", 0),
    ("anci", "ance", 0),
    ("izer", "ize", 0),
    ("abli", "able", 0),
    ("alli", "al", 0),
    ("entli", "ent", 0),
    ("eli", "e", 0),
    ("ousli", "ous", 0),
    ("ization", "ize", 0),
    ("ation", "ate", 0),
    ("ator", "ate", 0),
    ("alism", "al", 0),
    ("iveness", "ive", 0),
    ("fulness", "ful", 0),
    ("ousness", "ous", 0),
    ("aliti", "al", 0),
    ("iviti", "ive", 0),
    ("biliti", "ble", 0),
]

_STEP3_RULES = [
    ("icate", "ic", 0),
    ("ative", "", 0),
    ("alize", "al", 0),
    ("iciti", "ic", 0),
    ("ical", "ic", 0),
    ("ful", "", 0),
    ("ness", "", 0),
]

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)

_STEP2_RULES.sort(key=lambda r: -len(r[0]))
_STEP3_RULES.sort(key=lambda r: -len(r[0]))
_STEP4_SUFFIXES = tuple(sorted(_STEP4_SUFFIXES, key=len, reverse=True))
_STEP2_SUFFIXES = tuple(rule[0] for rule in _STEP2_RULES)
_STEP3_SUFFIXES = tuple(rule[0] for rule in _STEP3_RULES)


def _step4(word: str) -> str:
    if not word.endswith(_STEP4_SUFFIXES):
        return word
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_longest(word, _STEP2_RULES, _STEP2_SUFFIXES)
    word = _apply_longest(word, _STEP3_RULES, _STEP3_SUFFIXES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
