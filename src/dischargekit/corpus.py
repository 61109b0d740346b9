"""Discharge-summary corpora: target extraction, record readers and writers, synthetic data.

A corpus document carries a hospital-admission key (``hadm_id``) and free
text organized into headed sections. Two sections are generation targets:
the Brief Hospital Course (BHC) and the Discharge Instructions (DI). On
load both are extracted and removed, so downstream code always sees the
document body without its targets.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from operator import itemgetter

from .textprep import word_count

BHC_HEADER = "Brief Hospital Course"
DI_HEADER = "Discharge Instructions"


class CorpusError(ValueError):
    """Malformed or inconsistent corpus input."""


class TargetKind(str, Enum):
    BHC = "bhc"
    DI = "di"

    @classmethod
    def parse(cls, value: str) -> "TargetKind":
        # A dict lookup, not the Enum call: score CSVs parse a target per
        # row, and the Enum call is several times slower.
        kind = _TARGET_KINDS.get(value)
        if kind is None:
            raise CorpusError(f"unknown target {value!r}; expected one of: bhc, di")
        return kind


_TARGET_KINDS = {kind.value: kind for kind in TargetKind}


@dataclass(frozen=True)
class DischargeSummary:
    hadm_id: str
    full_text: str
    body_without_targets: str
    # The targets extracted with the body, when it was loaded or generated.
    targets: ExtractedTargets | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ExtractedTargets:
    hadm_id: str
    bhc: str
    di: str


@dataclass(frozen=True)
class GeneratedCandidate:
    hadm_id: str
    model_id: str
    target: TargetKind
    text: str
    word_count: int


@lru_cache(maxsize=1)
def default_known_headers() -> tuple[str, ...]:
    """Section headers recognized as boundaries, from the shipped data file."""
    text = resources.files("dischargekit.data").joinpath("discharge_headers.txt").read_text("utf-8")
    return tuple(
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


def load_known_headers(path) -> tuple[str, ...]:
    with open(path, encoding="utf-8") as fh:
        return tuple(
            line.strip() for line in fh if line.strip() and not line.startswith("#")
        )


def header_pattern(header: str) -> re.Pattern[str]:
    """Line beginning with the header (case-insensitive), optional colon."""
    body = r"\s+".join(re.escape(part) for part in header.split())
    return re.compile(rf"^\s*{body}\b\s*:?", re.IGNORECASE)


@lru_cache(maxsize=8)
def _compiled_headers(headers: tuple[str, ...]) -> tuple[re.Pattern[str], ...]:
    return tuple(header_pattern(h) for h in headers)


def match_header(line: str, headers: tuple[str, ...]) -> bool:
    return any(pat.match(line) for pat in _compiled_headers(headers))


def _section_span(
    lines: list[str], header: str, known: tuple[str, ...]
) -> tuple[int, int] | None:
    """Line span [start, end) of a target section, header line included."""
    pat = header_pattern(header)
    start = next((i for i, line in enumerate(lines) if pat.match(line)), None)
    if start is None:
        return None
    end = len(lines)
    for i in range(start + 1, len(lines)):
        if match_header(lines[i], known):
            end = i
            break
    return start, end


def extract_targets(
    summary_text: str,
    *,
    hadm_id: str = "",
    known_headers: Sequence[str] | None = None,
) -> tuple[ExtractedTargets, str]:
    """Extract the BHC and DI sections; return them plus the remaining body.

    A target section runs from its header line to the next recognized header
    (or end of document). Missing sections yield empty strings. The returned
    body has both spans, header lines included, deleted.
    """
    known = tuple(known_headers) if known_headers is not None else default_known_headers()
    lines = summary_text.splitlines()
    spans: list[tuple[int, int]] = []

    def grab(header: str) -> str:
        span = _section_span(lines, header, known)
        if span is None:
            return ""
        spans.append(span)
        start, end = span
        return "\n".join(lines[start + 1 : end]).strip()

    bhc = grab(BHC_HEADER)
    di = grab(DI_HEADER)
    drop = {i for start, end in spans for i in range(start, end)}
    body = "\n".join(line for i, line in enumerate(lines) if i not in drop)
    return ExtractedTargets(hadm_id=hadm_id, bhc=bhc, di=di), body


def _unique(
    path, fields: Sequence[str], key: Sequence[str], unit: str, error: type[ValueError], what: str = ""
):
    """The duplicate-key rule: the returned ``check(line, values)`` raises
    ``error`` naming the file and both lines when the ``key`` fields repeat;
    None when there is no ``key``."""
    if not key:
        return None
    positions = [fields.index(name) for name in key]
    pick, seen = itemgetter(*positions), {}

    def check(line: int, values: list[str]) -> None:
        first = seen.setdefault(pick(values), line)
        if first != line:
            named = [f"{name}={values[i]!r}" for name, i in zip(key, positions)]
            label = f"{key[0]} {values[positions[0]]!r}" if len(key) == 1 else f"({', '.join(named)})"
            raise error(f"{path}: duplicate {what}{label} on {unit} {first} and {line}")

    return check


def read_csv_records(
    path, header: Sequence[str], error: type[ValueError], key: Sequence[str] = ()
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, fields) for each non-blank record after a checked header.

    ``line`` is the physical line the record starts on, so a quoted field
    holding a newline does not shift the numbers of later records. A wrong
    or missing header, a record without one field per header column, and a
    repeat of the ``key`` columns each raise ``error`` naming the file.
    """
    check = _unique(path, header, key, "rows", error)
    width = len(header)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != tuple(header):
            raise error(f"{path}: expected header {','.join(header)}")
        start = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != width:
                    raise error(f"{path}: row {start}: expected {width} fields, got {len(row)}")
                if check is not None:
                    check(start, row)
                yield start, row
            start = reader.line_num + 1


def read_jsonl_records(
    path, fields: Sequence[str], key: Sequence[str] = (), what: str = ""
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, values) for each non-blank line, ``values`` being the
    record's ``fields`` as strings. Bad JSON, a missing or non-string field
    and a repeat of the ``key`` fields (``what`` prefixes the key in the
    message) raise ``CorpusError`` naming the line.
    """
    check = _unique(path, fields, key, "lines", CorpusError, what)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{path}: line {lineno}: expected a JSON object")
            values = [record.get(name) for name in fields]
            for name, value in zip(fields, values):
                if not isinstance(value, str):
                    raise CorpusError(f"{path}: line {lineno}: missing or non-string {name!r}")
            if check is not None:
                check(lineno, values)
            yield lineno, values


def write_csv_records(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as CSV with "\\n" line ends, each
    ``float`` cell to 10 significant digits (in full from 1.797693134e308 up,
    where 10 digits could round to inf); ``read_csv_records`` reads it back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [f"{v:.10g}" if isinstance(v, float) and abs(v) < 1.797693134e308 else v for v in row]
            for row in rows
        )


def write_jsonl_records(path, fields: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one JSON object per row, keyed by ``fields``, as ``read_jsonl_records`` reads it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(dict(zip(fields, row))) + "\n" for row in rows)


def write_json(path, document) -> None:
    """Write one JSON document, indented by 2, keys in the order given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


def load_corpus(path, known_headers: Sequence[str] | None = None) -> list[DischargeSummary]:
    """Load a corpus JSONL file ({"hadm_id", "discharge_summary"} per line).

    Target extraction is applied to every document, which keeps its targets;
    input order is kept.
    """
    summaries: list[DischargeSummary] = []
    fields = ("hadm_id", "discharge_summary")
    for lineno, (hadm_id, text) in read_jsonl_records(path, fields, key=fields[:1]):
        if not hadm_id:
            raise CorpusError(f"{path}: line {lineno}: empty hadm_id")
        targets, body = extract_targets(text, hadm_id=hadm_id, known_headers=known_headers)
        summaries.append(
            DischargeSummary(hadm_id=hadm_id, full_text=text, body_without_targets=body, targets=targets)
        )
    return summaries


def corpus_targets(
    summaries: Iterable[DischargeSummary],
    known_headers: Sequence[str] | None = None,
) -> list[ExtractedTargets]:
    """Each summary's targets, extracted again with ``known_headers``; the
    summaries of ``load_corpus`` and ``generate_synthetic_corpus`` already
    carry theirs as ``targets``."""
    return [
        extract_targets(s.full_text, hadm_id=s.hadm_id, known_headers=known_headers)[0]
        for s in summaries
    ]


def load_candidates(path) -> list[GeneratedCandidate]:
    """Load candidate generations ({"hadm_id","model_id","target","text"}).

    Word counts are recomputed from the text; (hadm_id, model_id, target)
    triples must be unique.
    """
    fields = ("hadm_id", "model_id", "target", "text")
    candidates = []
    records = read_jsonl_records(path, fields, key=fields[:3], what="candidate for ")
    for lineno, (hadm_id, model_id, target, text) in records:
        try:
            kind = TargetKind.parse(target)
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        candidates.append(
            GeneratedCandidate(
                hadm_id=hadm_id, model_id=model_id, target=kind, text=text, word_count=word_count(text)
            )
        )
    return candidates


def write_corpus(path, summaries: Iterable[DischargeSummary]) -> None:
    rows = ((s.hadm_id, s.full_text) for s in summaries)
    write_jsonl_records(path, ("hadm_id", "discharge_summary"), rows)


def write_candidates(path, candidates: Iterable[GeneratedCandidate]) -> None:
    rows = ((c.hadm_id, c.model_id, c.target.value, c.text) for c in candidates)
    write_jsonl_records(path, ("hadm_id", "model_id", "target", "text"), rows)


def write_targets(path, targets: Iterable[ExtractedTargets]) -> None:
    write_jsonl_records(path, ("hadm_id", "bhc", "di"), ((t.hadm_id, t.bhc, t.di) for t in targets))


def load_targets(path) -> dict[str, ExtractedTargets]:
    """Load a targets JSONL file ({"hadm_id","bhc","di"}) keyed by hadm_id."""
    return {
        hadm_id: ExtractedTargets(hadm_id=hadm_id, bhc=bhc, di=di)
        for _, (hadm_id, bhc, di) in read_jsonl_records(path, ("hadm_id", "bhc", "di"), key=("hadm_id",))
    }


def reference_text(targets: Mapping[str, ExtractedTargets], hadm_id: str, target: TargetKind) -> str:
    entry = targets[hadm_id]
    return entry.bhc if target is TargetKind.BHC else entry.di


# --- synthetic corpus -------------------------------------------------------

# Fixed pool of ordinary English words; no clinical text ships with the
# package. Roughly half the pool is on the familiar-word list so synthetic
# texts get a mix of easy and difficult vocabulary.
_WORD_POOL = (
    "the patient was stable and rested well after the morning review "
    "care plan called for fluids rest and a slow return to normal diet "
    "team noted steady progress with no new concerns overnight "
    "pain was controlled and breathing remained comfortable each day "
    "follow the plan take medicine with food and drink plenty of water "
    "call the office if fever returns or the wound looks red or swollen "
    "walking short distances is encouraged while heavy lifting is not "
    "sleep appetite and energy improved before the planned departure "
    "recovery milestone threshold monitoring evaluation adjustment "
    "gradual improvement condition management guidance assessment"
).split()

_DI_MEAN_WORDS = 196
_BHC_MEAN_WORDS = 328

_FILLER_SECTIONS = (
    ("Chief Complaint", 8),
    ("History of Present Illness", 90),
    ("Past Medical History", 30),
    ("Physical Exam", 40),
    ("Pertinent Results", 45),
    ("Discharge Medications", 35),
)


def _sentences(rng: random.Random, n_words: int) -> str:
    """n_words pool words chunked into period-terminated sentences."""
    return _resentence(rng, [rng.choice(_WORD_POOL) for _ in range(n_words)])


def _target_length(rng: random.Random, mean: int) -> int:
    return max(40, round(rng.gauss(mean, mean * 0.09)))


def _corrupt(rng: random.Random, reference: str, quality: float) -> str:
    """Rebuild a reference with token-level noise; quality 1 copies it."""
    tokens = reference.split()
    kept = [t if rng.random() < quality else rng.choice(_WORD_POOL) for t in tokens]
    scale = rng.uniform(0.9, 1.1)
    new_len = max(30, round(len(kept) * scale))
    if new_len <= len(kept):
        kept = kept[:new_len]
    else:
        kept = kept + [rng.choice(_WORD_POOL) for _ in range(new_len - len(kept))]
    text = " ".join(kept)
    # Re-terminate so readability metrics see sentences.
    stripped = [w.strip(".").lower() for w in text.split()]
    return _resentence(rng, [w for w in stripped if w])


def _resentence(rng: random.Random, tokens: list[str]) -> str:
    out: list[str] = []
    i = 0
    while i < len(tokens):
        k = min(rng.randint(6, 14), len(tokens) - i)
        out.append(" ".join(tokens[i : i + k]).capitalize() + ".")
        i += k
    return " ".join(out)


def generate_synthetic_corpus(
    n_docs: int, n_models: int, seed: int
) -> tuple[list[DischargeSummary], list[GeneratedCandidate]]:
    """Deterministic synthetic corpus plus per-model candidate generations.

    Candidate quality (token overlap with the reference) carries a large
    per-document jitter on top of a mild per-model base, so no model wins
    everywhere. DI candidates average near 196 words, BHC near 328.
    """
    if n_docs < 1 or n_models < 1:
        raise ValueError("n_docs and n_models must be >= 1")
    rng = random.Random(seed)
    model_ids = [f"model_{chr(ord('a') + i)}" if i < 26 else f"model_{i}" for i in range(n_models)]
    base_skill = {
        m: 0.45 + 0.2 * (i / max(n_models - 1, 1)) for i, m in enumerate(model_ids)
    }
    summaries: list[DischargeSummary] = []
    candidates: list[GeneratedCandidate] = []
    for d in range(n_docs):
        hadm_id = f"{20000000 + d}"
        bhc_ref = _sentences(rng, _target_length(rng, _BHC_MEAN_WORDS))
        di_ref = _sentences(rng, _target_length(rng, _DI_MEAN_WORDS))
        parts: list[str] = []
        for header, mean_words in _FILLER_SECTIONS[:3]:
            parts.append(f"{header}:")
            parts.append(_sentences(rng, max(4, round(rng.gauss(mean_words, 6)))))
        parts.append(f"{BHC_HEADER}:")
        parts.append(bhc_ref)
        for header, mean_words in _FILLER_SECTIONS[3:]:
            parts.append(f"{header}:")
            parts.append(_sentences(rng, max(4, round(rng.gauss(mean_words, 6)))))
        parts.append(f"{DI_HEADER}:")
        parts.append(di_ref)
        parts.append("Followup Instructions:")
        parts.append(_sentences(rng, 10))
        full_text = "\n".join(parts)
        targets, body = extract_targets(full_text, hadm_id=hadm_id)
        summaries.append(
            DischargeSummary(
                hadm_id=hadm_id, full_text=full_text, body_without_targets=body, targets=targets
            )
        )
        for model_id in model_ids:
            for target, reference in ((TargetKind.BHC, bhc_ref), (TargetKind.DI, di_ref)):
                quality = min(0.98, max(0.05, base_skill[model_id] + rng.uniform(-0.3, 0.3)))
                text = _corrupt(rng, reference, quality)
                candidates.append(
                    GeneratedCandidate(
                        hadm_id=hadm_id,
                        model_id=model_id,
                        target=target,
                        text=text,
                        word_count=word_count(text),
                    )
                )
    return summaries, candidates
