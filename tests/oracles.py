"""Independent reference implementations used only by tests.

Everything here is written straight from the metric definitions with
deliberately naive algorithms (list scans, exhaustive enumeration) so the
library implementations are checked against a second, unrelated code path.
"""

from __future__ import annotations

import math
import string
from itertools import combinations


def ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def clipped_match_count(cand_tokens, ref_tokens, n):
    cand = ngram_list(cand_tokens, n)
    ref = ngram_list(ref_tokens, n)
    total = 0
    for gram in set(cand):
        total += min(cand.count(gram), ref.count(gram))
    return total


def brute_rouge_n(cand_tokens, ref_tokens, n):
    cand = ngram_list(cand_tokens, n)
    ref = ngram_list(ref_tokens, n)
    if not cand or not ref:
        return 0.0
    matches = clipped_match_count(cand_tokens, ref_tokens, n)
    if matches == 0:
        return 0.0
    p = matches / len(cand)
    r = matches / len(ref)
    return 2 * p * r / (p + r)


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


def exhaustive_lcs(a, b):
    """Longest common subsequence by enumerating subsequences of the shorter."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    indices = range(len(short))
    for size in range(len(short), 0, -1):
        if size <= best:
            break
        for combo in combinations(indices, size):
            candidate = [short[i] for i in combo]
            if _is_subsequence(candidate, long_):
                best = size
                break
        if best == size:
            break
    return best


def brute_rouge_l(cand_tokens, ref_tokens):
    if not cand_tokens or not ref_tokens:
        return 0.0
    lcs = exhaustive_lcs(cand_tokens, ref_tokens)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand_tokens)
    r = lcs / len(ref_tokens)
    return 2 * p * r / (p + r)


def formula_bleu4(cand_tokens, ref_tokens):
    """BLEU-4 exactly as specified, via plain list counting."""
    if not cand_tokens or not ref_tokens:
        return 0.0
    log_sum = 0.0
    for n in (1, 2, 3, 4):
        total = max(len(cand_tokens) - n + 1, 0)
        matched = clipped_match_count(cand_tokens, ref_tokens, n)
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        elif matched == 0:
            precision = 1.0 / (total + 1.0)
        else:
            precision = matched / total
        log_sum += 0.25 * math.log(precision)
    c, r = len(cand_tokens), len(ref_tokens)
    brevity = math.exp(1 - r / c) if c < r else 1.0
    return brevity * math.exp(log_sum)


def formula_meteor(cand_tokens, ref_tokens):
    """METEOR exactly as specified: exact stage, stem stage, chunk penalty."""
    if not cand_tokens or not ref_tokens:
        return 0.0
    ref_taken = [False] * len(ref_tokens)
    cand_match = [None] * len(cand_tokens)
    for stage_key in (lambda w: w, reference_stem):
        cand_keys = [stage_key(w) for w in cand_tokens]
        ref_keys = [stage_key(w) for w in ref_tokens]
        for i in range(len(cand_tokens)):
            if cand_match[i] is not None:
                continue
            for j in range(len(ref_tokens)):
                if not ref_taken[j] and cand_keys[i] == ref_keys[j]:
                    cand_match[i] = j
                    ref_taken[j] = True
                    break
    pairs = [(i, j) for i, j in enumerate(cand_match) if j is not None]
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(cand_tokens)
    recall = m / len(ref_tokens)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    chunks = 1
    for (ci, ri), (cj, rj) in zip(pairs, pairs[1:]):
        if cj != ci + 1 or rj != ri + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1 - penalty)


def brute_select(models, criteria, raw_by_metric):
    """Winner by direct recomputation: normalize, weight, average, scan.

    criteria: list of (metric, weight); raw_by_metric: metric -> model -> value.
    Returns (winner, score) with first-in-order tie break.
    """
    averages = {}
    for model in models:
        total = 0.0
        for metric, weight in criteria:
            column = raw_by_metric[metric]
            lo = min(column[m] for m in models)
            hi = max(column[m] for m in models)
            if hi - lo == math.inf:  # an overflowing span: rescale the halved values
                normalized = (column[model] / 2 - lo / 2) / (hi / 2 - lo / 2)
            else:
                normalized = 0.0 if hi == lo else (column[model] - lo) / (hi - lo)
            total += weight * normalized
        averages[model] = total / len(criteria)
    winner = models[0]
    for model in models[1:]:
        if averages[model] > averages[winner]:
            winner = model
    return winner, averages[winner]


def three_rule_length_select(ranking, counts, preferred=(100, 180), floor=70):
    """Length-window interpreter: window, then shortest >= floor, then top rank."""
    for model in ranking:
        if preferred[0] <= counts[model] <= preferred[1]:
            return model, "preferred_window"
    eligible = [m for m in ranking if counts[m] >= floor]
    if eligible:
        best = eligible[0]
        for m in eligible[1:]:
            if counts[m] < counts[best]:
                best = m
        return best, "shortest_above_floor"
    return ranking[0], "top_ranked"


def naive_split_sentences(text, abbreviations):
    """Sentences by the rule in ``textprep.split_sentences``, one character at a time.

    A maximal run of ., ! or ? followed by whitespace or the end of text ends
    a sentence, unless the run is a single period and the longest
    [A-Za-z'.] run directly before it, plus the period, lowercased, is an
    abbreviation. Sentences are stripped; blank ones are dropped.
    """
    abbreviation_chars = string.ascii_letters + "'."
    sentences = []
    current = ""
    i = 0
    while i < len(text):
        if text[i] not in ".!?":
            current += text[i]
            i += 1
            continue
        run_start = i
        while i < len(text) and text[i] in ".!?":
            i += 1
        run = text[run_start:i]
        before = ""
        for k in range(run_start):
            piece = text[k:run_start]
            if all(ch in abbreviation_chars for ch in piece):
                before = piece
                break
        guarded = run == "." and before != "" and (before + ".").lower() in abbreviations
        at_boundary = i == len(text) or text[i].isspace()
        current += run
        if at_boundary and not guarded:
            sentences.append(current)
            current = ""
    sentences.append(current)
    return [s.strip() for s in sentences if s.strip()]


# --- Porter stemmer ------------------------------------------------------------
# The character-at-a-time stemmer that dischargekit.stemmer replaced with a
# consonant/vowel form and suffix pre-checks, kept as written; only the entry
# point is renamed to reference_stem.

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences in the stem."""
    m = 0
    prev_cons = True
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    n = len(stem)
    return (
        _is_consonant(stem, n - 3)
        and not _is_consonant(stem, n - 2)
        and _is_consonant(stem, n - 1)
        and stem[-1] not in "wxy"
    )


def _apply_longest(word: str, rules: list[tuple[str, str, int]]) -> str:
    """Apply the longest-suffix rule whose measure condition holds.

    Each rule is (suffix, replacement, min_measure), listed longest suffix
    first; min_measure is checked with strict > against the stem left after
    removing the suffix.
    """
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

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]

_STEP2_RULES.sort(key=lambda r: -len(r[0]))
_STEP3_RULES.sort(key=lambda r: -len(r[0]))
_STEP4_SUFFIXES.sort(key=len, reverse=True)


def _step4(word: str) -> str:
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


def reference_stem(word: str) -> str:
    """Stem a lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_longest(word, _STEP2_RULES)
    word = _apply_longest(word, _STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def cube_filled_scores(pool, target, columns, against):
    """``scores.score_columns``' table for one job as a loop that writes each value into a NaN-filled cube.

    The table's documents and models are the pool's, in first-seen order;
    a later candidate for a (hadm_id, model_id) pair overwrites an earlier
    one. Readability metrics read the tokenized candidate, every other
    metric compares it with ``against[hadm_id]``.
    """
    from array import array

    from dischargekit import scores
    from dischargekit.tables import ScoreTable
    from dischargekit.textprep import tokenize

    docs = list(dict.fromkeys(c.hadm_id for c in pool))
    models = list(dict.fromkeys(c.model_id for c in pool))
    metrics = tuple(sorted(columns))
    cube = tuple(array("d", [math.nan] * (len(docs) * len(models))) for _ in metrics)
    table = ScoreTable(target, tuple(docs), tuple(models), metrics, cube)
    for c in pool:
        for column, metric in columns.items():
            if metric in scores.READABILITY_METRICS:
                value = scores.METRICS[metric](tokenize(c.text))
            else:
                value = scores.METRICS[metric](c.text, against[c.hadm_id])
            k = table.metrics.index(column)
            table.columns[k][docs.index(c.hadm_id) * len(models) + models.index(c.model_id)] = value
    return table
