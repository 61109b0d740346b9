"""Property tests of the record-reader contract: round trips and duplicate keys."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dischargekit import cli, corpus
from dischargekit.corpus import CorpusError, ExtractedTargets, GeneratedCandidate, TargetKind
from dischargekit.textprep import word_count

# Commas, quotes and newlines are the characters CSV quoting must carry.
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from([",", '"', "'", "\n"]),
    max_size=20,
)
# The physical-line tests count "\n" only, so their texts hold no other line break.
PLAIN_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n')), max_size=12)
FILE_EXAMPLES = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FILE_EXAMPLES
@given(rows=st.lists(st.tuples(TEXT, TEXT, TEXT), unique_by=lambda r: r[0], max_size=6))
def test_targets_round_trip(tmp_path, rows):
    targets = [ExtractedTargets(hadm_id=h, bhc=b, di=d) for h, b, d in rows]
    path = tmp_path / "targets.jsonl"
    corpus.write_targets(path, targets)
    assert corpus.load_targets(path) == {t.hadm_id: t for t in targets}


@FILE_EXAMPLES
@given(
    rows=st.lists(
        st.tuples(TEXT, TEXT, st.sampled_from(list(TargetKind)), TEXT),
        unique_by=lambda r: r[:3],
        max_size=6,
    )
)
def test_candidates_round_trip(tmp_path, rows):
    candidates = [
        GeneratedCandidate(hadm_id=h, model_id=m, target=t, text=x, word_count=word_count(x))
        for h, m, t, x in rows
    ]
    path = tmp_path / "cands.jsonl"
    corpus.write_candidates(path, candidates)
    assert corpus.load_candidates(path) == candidates


@FILE_EXAMPLES
@given(rows=st.lists(st.tuples(TEXT, TEXT), unique_by=lambda r: r[0], max_size=6))
def test_submission_round_trip(tmp_path, rows):
    path = tmp_path / "sub.csv"
    cli._write_submission(path, rows)
    assert cli._read_submission(path) == rows


def _insert_copy(data, n: int) -> tuple[int, int]:
    """Positions i < j: record i is copied to position j of the grown list."""
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(i + 1, n), label="j")
    return i, j


@FILE_EXAMPLES
@given(texts=st.lists(PLAIN_TEXT, min_size=1, max_size=6), data=st.data())
def test_submission_duplicate_names_both_physical_lines(tmp_path, texts, data):
    rows = [(f"h{k}", text) for k, text in enumerate(texts)]
    i, j = _insert_copy(data, len(rows))
    rows.insert(j, rows[i])
    # The header is line 1; a quoted text spans one more line per newline.
    starts = [2]
    for _, text in rows:
        starts.append(starts[-1] + 1 + text.count("\n"))
    path = tmp_path / "sub.csv"
    cli._write_submission(path, rows)
    message = rf"sub\.csv: duplicate hadm_id 'h{i}' on rows {starts[i]} and {starts[j]}$"
    with pytest.raises(CorpusError, match=message):
        cli._read_submission(path)


@FILE_EXAMPLES
@given(texts=st.lists(PLAIN_TEXT, min_size=1, max_size=6), data=st.data())
def test_targets_duplicate_names_both_lines(tmp_path, texts, data):
    targets = [ExtractedTargets(hadm_id=f"h{k}", bhc=text, di=text) for k, text in enumerate(texts)]
    i, j = _insert_copy(data, len(targets))
    targets.insert(j, targets[i])
    path = tmp_path / "targets.jsonl"
    corpus.write_targets(path, targets)
    with pytest.raises(CorpusError, match=rf"targets\.jsonl: duplicate hadm_id 'h{i}' on lines {i + 1} and {j + 1}$"):
        corpus.load_targets(path)
