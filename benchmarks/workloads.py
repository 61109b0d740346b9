"""Seeded inputs and CLI step sequences for the two benchmark workloads.

Every input is generated here, from the workload seed, before any timed
region; the program under test only ever sees the files written below.
Each workload exists at a full size and at a half size (the scaling probe
of the traced run), plus tiny sizes used by ``smoke.py``.

* ``select_large`` -- random-valued score CSVs for many admissions and no
  metric computation: CSV reading, ``ScoreTable`` builds, DES and
  correlation dominate.
* ``long_docs``    -- few admissions of document length with a single model:
  tokenization of long texts and whole-document METEOR/ROUGE-L dominate.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

MODELS = ("model_a", "model_b", "model_c", "model_d")
NATIVE_METRICS = ("bleu4", "rouge_1", "rouge_2", "rouge_l", "meteor", "fkgl", "dcrs", "cli")
EXTERNAL_METRICS = ("bertscore", "alignscore", "medcon")
OVERALL_METRICS = ("bleu4", "rouge_1", "rouge_2", "rouge_l", "bertscore", "meteor", "alignscore", "medcon")
# Readability grades live on their own scales; the rest are in [0, 1].
_METRIC_RANGES = {"fkgl": (4.0, 14.0), "dcrs": (6.0, 11.0), "cli": (6.0, 14.0)}

# Sizes per workload. "half" halves the dimension the workload is meant to
# stress (admissions, text length) so the traced run can report
# total_s(full) / total_s(half) for each layer.
SIZES = {
    "select_large": {
        "full": {"docs": 700},
        "half": {"docs": 350},
        "tiny": {"docs": 12},
        "tiny_half": {"docs": 6},
    },
    "long_docs": {
        "full": {"docs": 6, "scale": 1.0},
        "half": {"docs": 6, "scale": 0.5},
        "tiny": {"docs": 3, "scale": 0.05},
        "tiny_half": {"docs": 3, "scale": 0.025},
    },
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: metric name, argv after ``dischargekit``, outputs."""

    metric: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass
class Inputs:
    """Files written for one workload plus what the output checks need."""

    workload: str
    seed: int
    dir: Path
    expected: dict = field(default_factory=dict)


# --- vocabulary --------------------------------------------------------------

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "br", "cr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ea", "io", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "t", "nd", "st")
_SUFFIXES = ("", "", "", "s", "ed", "ing", "ation", "ness", "ly", "ment", "ive", "al", "ize", "ful")
_ABBREVIATIONS = ("dr.", "vs.", "approx.", "e.g.", "no.")
_POOL_VOCAB_SIZE = 30000
# First words of the package's known section headers. A section line that
# began with one of them would read as a header, so the vocabulary skips them.
_HEADER_WORDS = frozenset(
    "admission allergies attending brief chief code date discharge facility family followup "
    "history imaging impression labs major medications microbiology name past pertinent "
    "physical primary provider review secondary service sex social studies transitional "
    "unit vital".split()
)


def _pseudo_vocabulary(size: int) -> list[str]:
    """Fixed pseudo-English vocabulary, the same for every seed."""
    rng = random.Random(2405)
    seen: dict[str, None] = {}
    while len(seen) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 2, 2, 3, 3, 4)))
        ) + rng.choice(_SUFFIXES)
        if word not in _HEADER_WORDS:
            seen.setdefault(word, None)
    return list(seen)


class _Zipf:
    """Zipf-like draws over the pseudo-vocabulary (rank r has weight 1/(r+20))."""

    def __init__(self):
        self.vocab = _pseudo_vocabulary(_POOL_VOCAB_SIZE)
        self.cum = list(accumulate(1.0 / (r + 20) for r in range(len(self.vocab))))

    def words(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.vocab, cum_weights=self.cum, k=n)


def _sentences(rng: random.Random, tokens: list[str], abbreviation_rate: float = 0.0) -> str:
    """Capitalized, period-terminated sentences of 6-14 tokens, one line."""
    out = []
    i = 0
    while i < len(tokens):
        k = min(rng.randint(6, 14), len(tokens) - i)
        chunk = list(tokens[i : i + k])
        if abbreviation_rate and k > 3 and rng.random() < abbreviation_rate:
            chunk[rng.randrange(1, k - 1)] = rng.choice(_ABBREVIATIONS)
        out.append(" ".join(chunk).capitalize() + ".")
        i += k
    return " ".join(out)


def _corrupt(rng: random.Random, zipf: _Zipf, reference_tokens: list[str], keep: float) -> list[str]:
    """Token-level noise over a reference: keep each token with probability keep."""
    return [t if rng.random() < keep else zipf.words(rng, 1)[0] for t in reference_tokens]


# --- writers -------------------------------------------------------------------


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record))
            fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- select_large ----------------------------------------------------------------


def _prepare_select_large(inputs: Inputs, docs: int) -> None:
    rng = random.Random(inputs.seed)
    zipf = _Zipf()
    hadm_ids = [f"{30000000 + d}" for d in range(docs)]
    values: dict[tuple[str, str, str, str], float] = {}
    texts: dict[tuple[str, str, str], str] = {}
    native_rows, external_rows, overall_rows, candidates = [], [], [], []
    for target in ("bhc", "di"):
        for doc in hadm_ids:
            for model in MODELS:
                cell = {}
                for metric in NATIVE_METRICS + EXTERNAL_METRICS:
                    lo, hi = _METRIC_RANGES.get(metric, (0.0, 1.0))
                    cell[metric] = lo + (hi - lo) * rng.random()
                    values[(doc, model, target, metric)] = cell[metric]
                    rows = native_rows if metric in NATIVE_METRICS else external_rows
                    rows.append((doc, model, target, metric, repr(cell[metric])))
                overall = sum(cell[m] for m in OVERALL_METRICS) / len(OVERALL_METRICS)
                values[(doc, model, target, "overall")] = overall
                overall_rows.append((doc, model, target, repr(overall)))
                text = _sentences(rng, zipf.words(rng, rng.randint(25, 60)))
                texts[(doc, model, target)] = text
                candidates.append({"hadm_id": doc, "model_id": model, "target": target, "text": text})
    d = inputs.dir
    _write_csv(d / "native.csv", ("hadm_id", "model_id", "target", "metric", "value"), native_rows)
    _write_csv(d / "external.csv", ("hadm_id", "model_id", "target", "metric", "value"), external_rows)
    _write_csv(d / "overall.csv", ("hadm_id", "model_id", "target", "value"), overall_rows)
    _write_jsonl(d / "candidates.jsonl", candidates)
    inputs.expected = {"hadm_ids": hadm_ids, "values": values, "texts": texts}


def _steps_select_large(inputs: Inputs, out: Path) -> list[Step]:
    d = inputs.dir
    scores = ("--scores", str(d / "native.csv"), "--scores", str(d / "external.csv"))
    select = ("select", *scores, "--candidates", str(d / "candidates.jsonl"), "--target", "di")
    return [
        Step(
            "select_s",
            (*select, "--config", "des1", "--out", str(out / "des1.csv")),
            ("des1.csv", "des1.csv.tally.json"),
        ),
        Step(
            "select_des4_s",
            (*select, "--config", "des4", "--overall", str(d / "overall.csv"), "--out", str(out / "des4.csv")),
            ("des4.csv", "des4.csv.tally.json", "des4.csv.des4.json"),
        ),
        Step(
            "correlate_s",
            ("correlate", *scores, "--overall", str(d / "overall.csv"), "--out", str(out / "corr.csv")),
            ("corr.csv",),
        ),
    ]


# --- long_docs -------------------------------------------------------------------

# (header, words at full scale); BHC and DI are the generation targets.
_LONG_SECTIONS = (
    ("Chief Complaint", 60),
    ("History of Present Illness", 900),
    ("Past Medical History", 500),
    ("Social History", 400),
    ("Physical Exam", 600),
    ("Pertinent Results", 800),
    ("Imaging", 400),
    ("Brief Hospital Course", 1500),
    ("Discharge Medications", 500),
    ("Discharge Instructions", 600),
    ("Followup Instructions", 40),
)


def _prepare_long_docs(inputs: Inputs, docs: int, scale: float) -> None:
    rng = random.Random(inputs.seed)
    zipf = _Zipf()
    corpus, candidates, references, bodies, sections = [], [], {}, {}, {}
    for d in range(docs):
        hadm_id = f"{40000000 + d}"
        lines, body_lines, doc_sections, target_tokens = [], [], [], {}
        for header, n_words in _LONG_SECTIONS:
            tokens = zipf.words(rng, max(8, round(n_words * scale)))
            text = _sentences(rng, tokens, abbreviation_rate=0.1)
            lines += [f"{header}:", text]
            if header == "Brief Hospital Course":
                target_tokens["bhc"] = tokens
                references.setdefault(hadm_id, {})["bhc"] = text
            elif header == "Discharge Instructions":
                target_tokens["di"] = tokens
                references.setdefault(hadm_id, {})["di"] = text
            else:
                body_lines += [f"{header}:", text]
                doc_sections.append((f"{header}:", text))
        corpus.append({"hadm_id": hadm_id, "discharge_summary": "\n".join(lines)})
        bodies[hadm_id] = "\n".join(body_lines)
        sections[hadm_id] = doc_sections
        for target in ("bhc", "di"):
            noisy = _corrupt(rng, zipf, target_tokens[target], keep=0.6)
            text = _sentences(rng, noisy)
            candidates.append({"hadm_id": hadm_id, "model_id": MODELS[0], "target": target, "text": text})
    _write_jsonl(inputs.dir / "corpus.jsonl", corpus)
    _write_jsonl(inputs.dir / "candidates.jsonl", candidates)
    inputs.expected = {
        "references": references,
        "bodies": bodies,
        "sections": sections,
        "candidates": candidates,
    }


def _steps_long_docs(inputs: Inputs, out: Path) -> list[Step]:
    d = inputs.dir
    targets = str(out / "ext" / "targets.jsonl")
    return [
        Step(
            "extract_s",
            ("extract", "--corpus", str(d / "corpus.jsonl"), "--out", str(out / "ext")),
            ("ext/targets.jsonl", "ext/bodies.jsonl"),
        ),
        Step(
            "reorder_s",
            (
                "reorder", "--corpus", str(d / "corpus.jsonl"), "--reference-targets", targets,
                "--mode", "per-doc", "--target", "di", "--out", str(out / "reordered.jsonl"),
            ),
            ("reordered.jsonl",),
        ),
        Step(
            "score_s",
            ("score", "--candidates", str(d / "candidates.jsonl"), "--references", targets, "--out", str(out / "scores.csv")),
            ("scores.csv",),
        ),
        Step(
            "score_ds_s",
            (
                "score", "--candidates", str(d / "candidates.jsonl"),
                "--against-ds", str(out / "ext" / "bodies.jsonl"),
                "--metrics", "meteor,rouge_l", "--out", str(out / "scores_ds.csv"),
            ),
            ("scores_ds.csv",),
        ),
    ]


# --- registry ----------------------------------------------------------------------

_PREPARE = {
    "select_large": _prepare_select_large,
    "long_docs": _prepare_long_docs,
}
_STEPS = {
    "select_large": _steps_select_large,
    "long_docs": _steps_long_docs,
}
WORKLOADS = tuple(_PREPARE)
# Every step metric of every workload, in a fixed order.
STEP_METRICS = (
    "extract_s", "reorder_s", "score_s", "score_ds_s", "select_s", "select_des4_s", "correlate_s",
)


def prepare(workload: str, size: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files for one size; outside any timed region."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload, seed, directory)
    _PREPARE[workload](inputs, **SIZES[workload][size])
    return inputs


def steps(inputs: Inputs, out: Path) -> list[Step]:
    """The workload's CLI sequence, writing its outputs under ``out``."""
    return _STEPS[inputs.workload](inputs, out)
