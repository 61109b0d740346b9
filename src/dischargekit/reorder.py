"""Section splitting, relevance ranking, and word-budget truncation.

A document body is split at known header lines into at most 50 sections,
each section is scored against a reference text by a pluggable similarity
scorer, sections are reordered highest relevance first, and the result is
truncated to a word budget so the most relevant content survives the cut.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import NamedTuple

from .corpus import DischargeSummary, default_known_headers, match_header, read_csv_records, write_json

MAX_SECTIONS = 50

SimilarityScorer = Callable[[str, str], float]


class SectionScoreError(ValueError):
    """A section score required for ranking is unavailable."""


class Section(NamedTuple):
    header: str
    body: str
    relevance: float | None = None


class SectionedDocument(NamedTuple):
    hadm_id: str
    sections: tuple[Section, ...]

    def text(self) -> str:
        """Sections joined back together in current order."""
        blocks = []
        for s in self.sections:
            blocks.append(s.header if not s.body else (f"{s.header}\n{s.body}" if s.header else s.body))
        return "\n".join(blocks)


def _canonical_header(header_line: str) -> str:
    return re.sub(r"\s+", " ", header_line.strip().rstrip(":").lower())


def split_sections(
    summary: DischargeSummary, known_headers: Sequence[str] | None = None
) -> SectionedDocument:
    """Split the document body at known header lines.

    Text before the first header becomes a preamble section with an empty
    header. Boundaries past the 50th section merge into the last section.
    """
    headers = tuple(known_headers) if known_headers is not None else default_known_headers()
    if not headers:
        raise ValueError("known-header list must not be empty")
    lines = summary.body_without_targets.splitlines()
    boundaries = [i for i, line in enumerate(lines) if match_header(line, headers)]
    sections: list[Section] = []
    if not boundaries or boundaries[0] > 0:
        end = boundaries[0] if boundaries else len(lines)
        sections.append(Section(header="", body="\n".join(lines[:end])))
    for n, start in enumerate(boundaries):
        if len(sections) == MAX_SECTIONS:
            # Overflow: fold everything that remains into the final section.
            last = sections[-1]
            rest = "\n".join(lines[start:])
            sections[-1] = last._replace(body=f"{last.body}\n{rest}" if last.body else rest)
            break
        end = boundaries[n + 1] if n + 1 < len(boundaries) else len(lines)
        sections.append(Section(header=lines[start], body="\n".join(lines[start + 1 : end])))
    return SectionedDocument(hadm_id=summary.hadm_id, sections=tuple(sections))


class ExternalSectionScores:
    """Per-section relevance read from a CSV (hadm_id,section_index,score)."""

    def __init__(self, scores: Mapping[tuple[str, int], float]):
        self._scores = dict(scores)

    @classmethod
    def from_csv(cls, path) -> "ExternalSectionScores":
        scores: dict[tuple[str, int], float] = {}
        header = ("hadm_id", "section_index", "score")
        for rowno, (hadm_id, index, raw) in read_csv_records(path, header, SectionScoreError, key=header[:2]):
            # The duplicate check compares raw text, so "0" and "00" may not both pass.
            try:
                section, value = int(index), float(raw)
                if index != str(section):
                    raise ValueError(index)
            except ValueError:
                raise SectionScoreError(f"{path}: row {rowno}: malformed row") from None
            if not math.isfinite(value):
                raise SectionScoreError(f"{path}: row {rowno}: score is not finite")
            scores[(hadm_id, section)] = value
        return cls(scores)

    def lookup(self, hadm_id: str, section_index: int) -> float:
        key = (hadm_id, section_index)
        if key not in self._scores:
            raise SectionScoreError(
                f"no external score for hadm_id {hadm_id!r} section {section_index}"
            )
        return self._scores[key]


def score_sections(
    doc: SectionedDocument,
    reference: str,
    scorer: SimilarityScorer | ExternalSectionScores,
) -> SectionedDocument:
    """Fill each section's relevance, leaving order unchanged."""
    scored = []
    for i, section in enumerate(doc.sections):
        if isinstance(scorer, ExternalSectionScores):
            value = scorer.lookup(doc.hadm_id, i)
        else:
            value = scorer(section.body, reference)
        if not math.isfinite(value):
            raise SectionScoreError(
                f"scorer returned non-finite relevance for hadm_id {doc.hadm_id!r} section {i}"
            )
        scored.append(section._replace(relevance=value))
    return SectionedDocument(hadm_id=doc.hadm_id, sections=tuple(scored))


def rank_sections(
    doc: SectionedDocument,
    reference: str,
    scorer: SimilarityScorer | ExternalSectionScores,
) -> SectionedDocument:
    """Sort sections by relevance, highest first; ties keep input order."""
    scored = score_sections(doc, reference, scorer)
    ordered = sorted(scored.sections, key=lambda s: -s.relevance)
    return SectionedDocument(hadm_id=doc.hadm_id, sections=tuple(ordered))


def truncate_words(doc: SectionedDocument, budget: int = 2000) -> str:
    """Concatenate sections in current order and cut after `budget` words.

    Word here means whitespace token; a document under budget passes
    through unchanged.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    text = doc.text()
    count = 0
    for match in re.finditer(r"\S+", text):
        count += 1
        if count == budget:
            return text[: match.end()]
    return text


# --- global header ranking ---------------------------------------------------


def global_header_ranking(
    docs: Iterable[SectionedDocument],
    references: Mapping[str, str],
    scorer: SimilarityScorer | ExternalSectionScores,
) -> dict[str, float]:
    """Mean relevance per canonical header name over a training corpus.

    The returned mapping can be applied to unseen documents, so ranking
    does not need per-document reference targets at apply time.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for doc in docs:
        if doc.hadm_id not in references:
            raise SectionScoreError(f"no reference text for hadm_id {doc.hadm_id!r}")
        scored = score_sections(doc, references[doc.hadm_id], scorer)
        for section in scored.sections:
            name = _canonical_header(section.header)
            sums[name] = sums.get(name, 0.0) + section.relevance
            counts[name] = counts.get(name, 0) + 1
    return {name: sums[name] / counts[name] for name in sorted(sums)}


def apply_header_ranking(
    doc: SectionedDocument, ranking: Mapping[str, float]
) -> SectionedDocument:
    """Reorder by the global ranking; unknown headers sink to the bottom."""
    def key(section: Section) -> float:
        return ranking.get(_canonical_header(section.header), -math.inf)

    ordered = sorted(doc.sections, key=lambda s: -key(s))
    ordered = tuple(s._replace(relevance=key(s)) for s in ordered)
    return SectionedDocument(hadm_id=doc.hadm_id, sections=ordered)


def write_header_ranking(path, ranking: Mapping[str, float]) -> None:
    write_json(path, dict(sorted(ranking.items())))


def load_header_ranking(path) -> dict[str, float]:
    """Read a JSON object of header -> finite score."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise SectionScoreError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SectionScoreError(
            f"{path}: expected a JSON object of header -> score, got {type(data).__name__}"
        )
    ranking = {}
    for header, raw in data.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise SectionScoreError(f"{path}: header {header!r}: score {raw!r} is not a number")
        try:
            value = float(raw)
        except OverflowError:
            raise SectionScoreError(f"{path}: header {header!r}: score is too large for a float") from None
        if not math.isfinite(value):
            raise SectionScoreError(f"{path}: header {header!r}: score is not finite")
        ranking[header] = value
    return ranking
