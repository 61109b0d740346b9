"""Independent reference implementations used only by tests.

Everything here is written straight from the metric definitions with
deliberately naive algorithms (list scans, exhaustive enumeration) so the
library implementations are checked against a second, unrelated code path.
"""

from __future__ import annotations

import math
import string
from itertools import combinations

from dischargekit.stemmer import stem


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
    for stage_key in (lambda w: w, stem):
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
