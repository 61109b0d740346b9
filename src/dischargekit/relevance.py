"""Reference-based overlap metrics: BLEU-4, ROUGE-1/2/L, METEOR.

All metrics tokenize with :func:`dischargekit.textprep.words` (lowercase
alphanumeric runs) and return values in [0, 1]. METEOR matches in two
stages (exact, then Porter-stemmed); no synonym stage is applied.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache

from .stemmer import stem as _porter_stem
from .textprep import words

# Stemming dominates document-scale runs; the stemmer is pure, so a cache
# is safe.
stem = lru_cache(maxsize=1 << 16)(_porter_stem)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    # zip over n shifted views yields each window as a tuple without slicing
    # a fresh list per position.
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _clipped_matches(candidate: Counter, reference: Counter) -> int:
    # Only shared n-grams can match; the key intersection runs in C.
    shared = candidate.keys() & reference.keys()
    return sum(min(candidate[gram], reference[gram]) for gram in shared)


def bleu4(candidate: str, reference: str) -> float:
    """BLEU with 4-gram precisions and brevity penalty.

    Higher-order precisions whose clipped match count is zero are smoothed
    to 1/(total+1); a candidate with no unigram matches scores 0.
    """
    c = words(candidate)
    r = words(reference)
    if not c or not r:
        return 0.0
    precisions = []
    for n in range(1, 5):
        cand_ngrams = _ngrams(c, n)
        total = sum(cand_ngrams.values())
        matched = _clipped_matches(cand_ngrams, _ngrams(r, n))
        if n == 1:
            if matched == 0:
                return 0.0
            precisions.append(matched / total)
        elif matched == 0:
            precisions.append(1.0 / (total + 1.0))
        else:
            precisions.append(matched / total)
    brevity = 1.0 if len(c) >= len(r) else math.exp(1.0 - len(r) / len(c))
    return brevity * math.prod(precisions) ** 0.25


def _overlap_f1(matches: int, n_candidate: int, n_reference: int) -> float:
    if matches == 0 or n_candidate == 0 or n_reference == 0:
        return 0.0
    precision = matches / n_candidate
    recall = matches / n_reference
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(candidate: str, reference: str, n: int) -> float:
    """F1 of clipped n-gram overlap (n = 1 or 2)."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand_ngrams = _ngrams(words(candidate), n)
    ref_ngrams = _ngrams(words(reference), n)
    matches = _clipped_matches(cand_ngrams, ref_ngrams)
    return _overlap_f1(matches, sum(cand_ngrams.values()), sum(ref_ngrams.values()))


def rouge_1(candidate: str, reference: str) -> float:
    return rouge_n(candidate, reference, 1)


def rouge_2(candidate: str, reference: str) -> float:
    return rouge_n(candidate, reference, 2)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Bit-parallel contour recurrence; memory is one machine word per 64
    # reference tokens, so document-length inputs stay cheap.
    if not a or not b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    row = 0
    for x in a:
        match = masks.get(x)
        if match is None:
            continue
        candidates = row | match
        row = candidates & ~(candidates - ((row << 1) | 1))
    return row.bit_count()


def rouge_l(candidate: str, reference: str) -> float:
    """F1 over the longest common subsequence of word tokens."""
    c = words(candidate)
    r = words(reference)
    return _overlap_f1(_lcs_length(c, r), len(c), len(r))


def _positions(text: str) -> dict[str, list[int]]:
    """Word type -> its token positions in ``text``, ascending."""
    index: dict[str, list[int]] = {}
    for i, word in enumerate(words(text)):
        index.setdefault(word, []).append(i)
    return index


def _align(candidate: str, reference: str) -> list[tuple[int, int]]:
    """Greedy two-stage alignment, worked out per word type.

    Each candidate token, in order, takes the first unmatched reference
    token with an equal word, then with an equal stem. For one key this
    pairs the k-th candidate occurrence with the k-th reference occurrence,
    so the stem stage pairs the merged, sorted leftovers of each stem.
    """
    cand = _positions(candidate)
    ref = _positions(reference)
    pairs: list[tuple[int, int]] = []
    cand_left: dict[str, list[int]] = {}
    for word, cpos in cand.items():
        rpos = ref.get(word, ())
        pairs.extend(zip(cpos, rpos))
        if len(cpos) > len(rpos):
            cand_left.setdefault(stem(word), []).extend(cpos[len(rpos):])
    if cand_left:
        ref_left: dict[str, list[int]] = {}
        for word, rpos in ref.items():
            taken = len(cand.get(word, ()))
            if len(rpos) > taken:
                key = stem(word)
                if key in cand_left:
                    ref_left.setdefault(key, []).extend(rpos[taken:])
        for key, rpos in ref_left.items():
            pairs.extend(zip(sorted(cand_left[key]), sorted(rpos)))
    pairs.sort()
    return pairs


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for ci, ri in pairs:
        if prev is None or ci != prev[0] + 1 or ri != prev[1] + 1:
            chunks += 1
        prev = (ci, ri)
    return chunks


def meteor(candidate: str, reference: str) -> float:
    """Unigram alignment score with a fragmentation penalty.

    Fmean = 10PR/(R+9P); penalty = 0.5 * (chunks/matches)^3.
    """
    c = words(candidate)
    r = words(reference)
    if not c or not r:
        return 0.0
    pairs = _align(candidate, reference)
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(c)
    recall = matches / len(r)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (_chunk_count(pairs) / matches) ** 3
    return fmean * (1.0 - penalty)
