"""Output checks, run outside the timed region.

Each check returns ``{step metric: [failure, ...]}``; a step with any
failure counts as a failed invocation. Score cells are recomputed with the
naive oracles in ``tests/oracles.py`` (ROUGE-L with a plain O(nm) dynamic
programme, because the oracle's exhaustive LCS is exponential), expected
targets and bodies come from the generator, and selections are recomputed
with ``oracles.brute_select`` from the generated score values.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import statistics
from pathlib import Path

import oracles
from workloads import EXTERNAL_METRICS, MODELS, NATIVE_METRICS, Inputs

TOLERANCE = 1e-9
_SELECTION_SAMPLE = 50
_WORD_RE = re.compile(r"[a-z0-9']+")


def _tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def _lcs_f1(cand: list[str], ref: list[str]) -> float:
    if not cand or not ref:
        return 0.0
    prev = [0] * (len(ref) + 1)
    for x in cand:
        cur = [0]
        for j, y in enumerate(ref, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    lcs = prev[-1]
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return 2 * p * r / (p + r)


_ORACLES = {
    "bleu4": oracles.formula_bleu4,
    "rouge_1": lambda c, r: oracles.brute_rouge_n(c, r, 1),
    "rouge_2": lambda c, r: oracles.brute_rouge_n(c, r, 2),
    "rouge_l": _lcs_f1,
    "meteor": oracles.formula_meteor,
}


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _compare(failures: list[str], what: str, got: float, want: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= TOLERANCE):
        failures.append(f"{what}: program {got!r} vs oracle {want!r}")


# --- select_large --------------------------------------------------------------


def _check_selection(
    inputs: Inputs, path: Path, criteria: list[tuple[str, float]], rng: random.Random
) -> list[str]:
    values, texts, hadm_ids = (inputs.expected[k] for k in ("values", "texts", "hadm_ids"))
    rows = _read_csv(path)
    if [r[0] for r in rows] != hadm_ids:
        return [f"{path.name}: hadm_ids differ from the input order"]
    failures = []
    chosen = dict(rows)
    for doc in rng.sample(hadm_ids, min(_SELECTION_SAMPLE, len(hadm_ids))):
        raw = {m: {model: values[(doc, model, "di", m)] for model in MODELS} for m, _ in criteria}
        winner, _ = oracles.brute_select(list(MODELS), criteria, raw)
        if chosen[doc] != texts[(doc, winner, "di")]:
            failures.append(f"{path.name}: hadm_id {doc}: selection differs from brute_select ({winner})")
    return failures


def _pearson(values: dict, targets: tuple[str, ...], metric: str, hadm_ids: list[str]) -> float:
    keys = [(doc, model, t) for t in targets for doc in hadm_ids for model in MODELS]
    return statistics.correlation(
        [values[(*k, metric)] for k in keys], [values[(*k, "overall")] for k in keys]
    )


def _check_select_large(inputs: Inputs, out: Path) -> dict[str, list[str]]:
    rng = random.Random(inputs.seed)
    values, hadm_ids = inputs.expected["values"], inputs.expected["hadm_ids"]
    metrics = sorted(NATIVE_METRICS + EXTERNAL_METRICS)
    des1 = _check_selection(inputs, out / "des1.csv", [("medcon", 0.5), ("meteor", 0.5)], rng)

    with open(out / "des4.csv.des4.json", encoding="utf-8") as fh:
        weights = {c["metric"]: float(c["weight"]) for c in json.load(fh)["criteria"]}
    des4: list[str] = []
    if sorted(weights) != metrics:
        des4.append(f"des4 weights cover {sorted(weights)}, expected {metrics}")
    else:
        for metric in metrics:
            want = _pearson(values, ("di",), metric, hadm_ids)
            _compare(des4, f"des4 weight {metric}", weights[metric], want)
        des4 += _check_selection(inputs, out / "des4.csv", sorted(weights.items()), rng)

    correlate: list[str] = []
    got = {(m, v): float(r) for m, v, r in _read_csv(out / "corr.csv")}
    if sorted(got) != [(m, "overall_pooled") for m in metrics]:
        correlate.append(f"corr.csv rows {sorted(got)} do not cover every metric once")
    else:
        for metric in metrics:
            want = _pearson(values, ("bhc", "di"), metric, hadm_ids)
            _compare(correlate, f"pooled r {metric}", got[(metric, "overall_pooled")], want)
    return {"select_s": des1, "select_des4_s": des4, "correlate_s": correlate}


# --- long_docs -----------------------------------------------------------------


def _check_scores(
    path: Path, pairs: list[tuple[str, str, str, str]], metrics: tuple[str, ...], suffix: str
) -> list[str]:
    """pairs: (hadm_id, target, candidate text, reference text)."""
    cells = {(r[0], r[1], r[2], r[3]): float(r[4]) for r in _read_csv(path)}
    failures: list[str] = []
    for doc, target, cand, ref in pairs:
        c, r = _tokens(cand), _tokens(ref)
        for metric in metrics:
            key = (doc, MODELS[0], target, metric + suffix)
            if key not in cells:
                failures.append(f"{path.name}: missing cell {key}")
                continue
            _compare(failures, f"{path.name} {key}", cells[key], _ORACLES[metric](c, r))
    return failures


def _check_long_docs(inputs: Inputs, out: Path) -> dict[str, list[str]]:
    rng = random.Random(inputs.seed)
    references, bodies, sections = (inputs.expected[k] for k in ("references", "bodies", "sections"))
    result: dict[str, list[str]] = {}

    extract = []
    targets = {r["hadm_id"]: {"bhc": r["bhc"], "di": r["di"]} for r in _read_jsonl(out / "ext" / "targets.jsonl")}
    if targets != references:
        extract.append("targets.jsonl differs from the generated BHC/DI sections")
    got_bodies = {r["hadm_id"]: r["body"] for r in _read_jsonl(out / "ext" / "bodies.jsonl")}
    if got_bodies != bodies:
        extract.append("bodies.jsonl differs from the documents without their targets")
    result["extract_s"] = extract

    # Per-doc reordering puts the section with the highest ROUGE-1 against the
    # DI reference first (ties keep document order).
    reorder = []
    reordered = {r["hadm_id"]: r["text"] for r in _read_jsonl(out / "reordered.jsonl")}
    if sorted(reordered) != sorted(references):
        reorder.append("reordered.jsonl does not hold one line per document")
    else:
        doc = rng.choice(sorted(references))
        ref = _tokens(references[doc]["di"])
        scored = [(oracles.brute_rouge_n(_tokens(body), ref, 1), header) for header, body in sections[doc]]
        best = max(s for s, _ in scored)
        header = next(h for s, h in scored if s == best)
        if not reordered[doc].startswith(header + "\n"):
            reorder.append(f"hadm_id {doc}: first section is not {header!r}")
        if len(reordered[doc].split()) > 2000:
            reorder.append(f"hadm_id {doc}: text exceeds the 2000-word budget")
    result["reorder_s"] = reorder

    candidates = {(c["hadm_id"], c["target"]): c["text"] for c in inputs.expected["candidates"]}
    doc = rng.choice(sorted(references))
    pairs = [(doc, t, candidates[(doc, t)], references[doc][t]) for t in ("bhc", "di")]
    result["score_s"] = _check_scores(out / "scores.csv", pairs, tuple(_ORACLES), "")
    doc = rng.choice(sorted(references))
    pairs = [(doc, "di", candidates[(doc, "di")], bodies[doc])]
    result["score_ds_s"] = _check_scores(out / "scores_ds.csv", pairs, ("meteor", "rouge_l"), "_ds")
    return result


_CHECKS = {
    "select_large": _check_select_large,
    "long_docs": _check_long_docs,
}


def check(inputs: Inputs, out: Path) -> dict[str, list[str]]:
    """Content checks of one sequence's outputs, keyed by step metric."""
    return _CHECKS[inputs.workload](inputs, out)
