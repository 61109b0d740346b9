"""Discharge-summary corpora: target extraction, record readers and writers.

A corpus document carries a hospital-admission key (``hadm_id``) and free
text organized into headed sections. Two sections are generation targets:
the Brief Hospital Course (BHC) and the Discharge Instructions (DI). On
load both are extracted and removed, so downstream code always sees the
document body without its targets.

The score-file vocabulary (:class:`ScoreError`, :func:`parse_score_cell`, the
metric-name tuples, :func:`first_seen`, the document/model index
:func:`pool_axes`, the row order :func:`table_rows` and the :data:`Job`
alias) lives here too, so the table and selection steps never load the
metric modules and ``score`` never loads the table code;
:mod:`dischargekit.scores` re-exports it. The seeded synthetic corpus lives in
:mod:`dischargekit.synthetic`, which only ``simulate``, the tests and the
demos load.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from enum import Enum
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from typing import NamedTuple


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


class DischargeSummary(NamedTuple):
    hadm_id: str
    full_text: str
    body_without_targets: str
    # The targets extracted with the body, when it was loaded or generated.
    targets: ExtractedTargets | None = None


class ExtractedTargets(NamedTuple):
    hadm_id: str
    bhc: str
    di: str


class GeneratedCandidate(NamedTuple):
    hadm_id: str
    model_id: str
    target: TargetKind
    text: str  # or, read with ``lazy``, a TextRef to it


class TextRef(NamedTuple):
    """A text left in its JSONL file: field ``fields[field]`` of the record
    on line ``line`` of ``path``, which starts at byte ``offset``; ``length``
    is the text's length when the line was first read."""

    path: str
    fields: tuple[str, ...]
    field: int
    line: int
    offset: int
    length: int


# --- score-file vocabulary ------------------------------------------------------


class ScoreError(ValueError):
    """Inconsistent score data or requests."""


# One scoring request: a one-target pool, its target, column -> metric, and
# hadm_id -> the text each non-readability metric compares the candidate with.
# A text, of a candidate or compared with one, may be a TextRef to it.
Job = tuple[Sequence[GeneratedCandidate], TargetKind, Mapping[str, str], Mapping[str, str]]


REFERENCE_METRICS = ("bleu4", "rouge_1", "rouge_2", "rouge_l", "meteor")
READABILITY_METRICS = ("fkgl", "dcrs", "cli")
NATIVE_METRICS = REFERENCE_METRICS + READABILITY_METRICS
DS_SUFFIX = "_ds"
# Names external files may never use: every native metric and its
# whole-document-reference variant.
RESERVED_METRIC_NAMES = frozenset(NATIVE_METRICS) | {m + DS_SUFFIX for m in REFERENCE_METRICS}
# The eight leaderboard metrics of the overall score, in the order they are added.
OVERALL_METRICS = ("bleu4", "rouge_1", "rouge_2", "rouge_l", "bertscore", "meteor", "alignscore", "medcon")

EXTERNAL_CSV_HEADER = ("hadm_id", "model_id", "target", "metric", "value")


def first_seen(values: Iterable[str]) -> tuple[str, ...]:
    """Distinct values in the order they first appear."""
    return tuple(dict.fromkeys(values))


def pool_axes(pool: Collection[Sequence[str]]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The documents and the models of a score table over ``pool``, candidates
    or other (hadm_id, model_id, ...) tuples, each in first-seen order."""
    return first_seen(c[0] for c in pool), first_seen(c[1] for c in pool)


def table_rows(
    target: TargetKind, documents: Sequence[str], models: Sequence[str], metrics: Sequence[str], columns: Sequence
) -> Iterator[tuple[str, str, str, str, float]]:
    """A score table's non-missing cells as rows (hadm_id, model_id, target,
    metric, value): documents, then models, then metrics, each in axis order.
    The arguments are those of :class:`~dischargekit.tables.ScoreTable`."""
    wanted = target.value
    pairs = ((doc, model) for doc in documents for model in models)
    for (doc, model), cells in zip(pairs, zip(*columns)):
        for metric, value in zip(metrics, cells):
            if value == value:  # False only for NaN
                yield doc, model, wanted, metric, value


def parse_score_cell(path, rowno: int, target: str, raw: str) -> tuple[TargetKind, float]:
    """The target kind and finite value of one score-CSV row; errors name the
    row, after the file unless ``path`` is None."""
    where = f"row {rowno}" if path is None else f"{path}: row {rowno}"
    try:
        kind = TargetKind.parse(target)
    except CorpusError as exc:
        raise ScoreError(f"{where}: {exc}") from None
    try:
        value = float(raw)
    except ValueError:
        raise ScoreError(f"{where}: value {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ScoreError(f"{where}: value {raw!r} is not finite")
    return kind, value


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
    try:
        with open(path, encoding="utf-8") as fh:
            return tuple(
                line.strip() for line in fh if line.strip() and not line.startswith("#")
            )
    except UnicodeDecodeError:
        raise _not_utf8(path, CorpusError) from None


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
    None when there is no ``key``. It first puts back in ``values`` the one
    ``str`` it keeps per distinct key-field value, so the records of a file
    share their ids."""
    if not key:
        return None
    positions = [fields.index(name) for name in key]
    pick, seen, ids = itemgetter(*positions), {}, {}

    def check(line: int, values: list[str]) -> None:
        for i in positions:
            values[i] = ids.setdefault(values[i], values[i])
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
    or missing header, a record without one field per header column, a
    repeat of the ``key`` columns and a line that is not UTF-8 each raise
    ``error`` naming the file.
    """
    check = _unique(path, header, key, "rows", error)
    width = len(header)
    try:
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
    except UnicodeDecodeError:
        raise _not_utf8(path, error) from None


def read_jsonl_records(
    path,
    fields: Sequence[str],
    key: Sequence[str] = (),
    what: str = "",
    lines: Collection[int] | None = None,
    lazy: Collection[int] = (),
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, values) for each non-blank line, ``values`` being the
    record's ``fields`` as strings. A line that is not UTF-8, bad JSON, a
    missing or non-string field and a repeat of the ``key`` fields (``what``
    prefixes the key in the message) raise ``CorpusError`` naming the line.
    Given ``lines``, only the lines of those numbers are decoded, checked and
    yielded. The value of each field position in ``lazy`` is yielded as a
    :class:`TextRef` to it, which :func:`read_text` reads back.
    """
    check = _unique(path, fields, key, "lines", CorpusError, what)
    fields = tuple(fields)
    end = 0  # the byte offset of the next line, counted only for ``lazy``
    try:
        # For ``lazy``, newline="" keeps each line's own ending, so its length
        # in bytes is the file's; it reads lines about twice as slowly.
        with open(path, encoding="utf-8", newline="" if lazy else None) as fh:
            for lineno, line in enumerate(fh, start=1):
                if lazy:
                    start, end = end, end + (len(line) if line.isascii() else len(line.encode("utf-8")))
                if not line.strip() or lines is not None and lineno not in lines:
                    continue
                values = _record(path, lineno, line, fields)
                if check is not None:
                    check(lineno, values)
                for i in lazy:
                    values[i] = TextRef(path, fields, i, lineno, start, len(values[i]))
                yield lineno, values
    except UnicodeDecodeError:
        raise _not_utf8(path, CorpusError) from None


def _record(path, lineno: int, line: str, fields: Sequence[str]) -> list[str]:
    """The ``fields`` of the JSON object on one line, each checked to be a string."""
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
    return values


def read_text(ref: TextRef, fh, key: Sequence[str]) -> str:
    """The text ``ref`` points to, read through ``fh``, ``ref.path`` opened in
    binary. The line must still hold a record whose leading fields are
    ``key`` and whose text has the length first read; else ``CorpusError``
    names the file and line."""
    fh.seek(ref.offset)
    # A text read ends a line at \r too, and no line that pass 1 decoded held one before its end.
    raw = fh.readline().split(b"\r", 1)[0]
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{ref.path}: line {ref.line}: not UTF-8: {exc}") from None
    values = _record(ref.path, ref.line, line, ref.fields)
    text = values[ref.field]
    if values[: len(key)] != list(key) or len(text) != ref.length:
        raise CorpusError(f"{ref.path}: line {ref.line}: changed since it was read")
    return text


def _not_utf8(path, error: type[ValueError]) -> ValueError:
    """The error for a file that is not UTF-8, naming its first bad line. A text
    read reports a position in its buffer, so a rescan in binary finds the line."""
    with open(path, "rb") as fh:
        # bytes.splitlines ends a line where a text read does: at \n, \r\n or \r.
        for lineno, line in enumerate((line for chunk in fh for line in chunk.splitlines()), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return error(f"{path}: line {lineno}: not UTF-8: {exc}")
    return error(f"{path}: not UTF-8")


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


CANDIDATE_FIELDS = ("hadm_id", "model_id", "target", "text")


def read_candidate_records(path, lazy: bool = False) -> Iterator[tuple[int, str, str, TargetKind, str]]:
    """Yield (line, hadm_id, model_id, target, text) per candidate, ``text``
    a TextRef if ``lazy``; each (hadm_id, model_id, target) must be unique
    and the target known."""
    records = read_jsonl_records(
        path, CANDIDATE_FIELDS, key=CANDIDATE_FIELDS[:3], what="candidate for ", lazy=(3,) if lazy else ()
    )
    for lineno, (hadm_id, model_id, target, text) in records:
        try:
            kind = TargetKind.parse(target)
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        yield lineno, hadm_id, model_id, kind, text


def load_candidates(path, lazy: bool = False) -> list[GeneratedCandidate]:
    """Load candidates ({"hadm_id","model_id","target","text"}) in file
    order, each text a TextRef if ``lazy``."""
    return [GeneratedCandidate(*record[1:]) for record in read_candidate_records(path, lazy)]


def write_corpus(path, summaries: Iterable[DischargeSummary]) -> None:
    rows = ((s.hadm_id, s.full_text) for s in summaries)
    write_jsonl_records(path, ("hadm_id", "discharge_summary"), rows)


def write_candidates(path, candidates: Iterable[GeneratedCandidate]) -> None:
    rows = ((c.hadm_id, c.model_id, c.target.value, c.text) for c in candidates)
    write_jsonl_records(path, CANDIDATE_FIELDS, rows)


def write_targets(path, targets: Iterable[ExtractedTargets]) -> None:
    write_jsonl_records(path, ("hadm_id", "bhc", "di"), ((t.hadm_id, t.bhc, t.di) for t in targets))


def load_targets(path, lazy: bool = False) -> dict[str, ExtractedTargets]:
    """Load a targets JSONL file ({"hadm_id","bhc","di"}) keyed by hadm_id,
    each text a TextRef if ``lazy``."""
    fields = ExtractedTargets._fields
    records = read_jsonl_records(path, fields, key=fields[:1], lazy=(1, 2) if lazy else ())
    return {values[0]: ExtractedTargets(*values) for _, values in records}


def reference_text(targets: Mapping[str, ExtractedTargets], hadm_id: str, target: TargetKind) -> str:
    entry = targets[hadm_id]
    return entry.bhc if target is TargetKind.BHC else entry.di
