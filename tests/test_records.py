"""Property tests of the record reader and writer contract: round trips, duplicate
keys, and one module that writes files."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dischargekit
from dischargekit import corpus, des, reorder, scores
from dischargekit.commands import evaluate, score, select
from dischargekit.corpus import (
    CorpusError, DischargeSummary, ExtractedTargets, GeneratedCandidate, TargetKind,
)

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
    candidates = [GeneratedCandidate(hadm_id=h, model_id=m, target=t, text=x) for h, m, t, x in rows]
    path = tmp_path / "cands.jsonl"
    corpus.write_candidates(path, candidates)
    assert corpus.load_candidates(path) == candidates


@FILE_EXAMPLES
@given(rows=st.lists(st.tuples(TEXT, TEXT), unique_by=lambda r: r[0], max_size=6))
def test_submission_round_trip(tmp_path, rows):
    path = tmp_path / "sub.csv"
    select._write_submission(path, rows)
    assert evaluate._read_submission(path) == rows


@FILE_EXAMPLES
@given(rows=st.lists(st.tuples(TEXT.filter(bool), TEXT), unique_by=lambda r: r[0], max_size=6))
def test_corpus_round_trip(tmp_path, rows):
    path = tmp_path / "corpus.jsonl"
    corpus.write_corpus(path, [DischargeSummary(h, text, "") for h, text in rows])
    assert [(s.hadm_id, s.full_text) for s in corpus.load_corpus(path)] == rows


@FILE_EXAMPLES
@given(rows=st.lists(st.tuples(TEXT, TEXT), unique_by=lambda r: r[0], max_size=6))
def test_bodies_round_trip(tmp_path, rows):
    path = tmp_path / "bodies.jsonl"
    corpus.write_jsonl_records(path, ("hadm_id", "body"), rows)
    assert score._load_bodies(path) == dict(rows)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@FILE_EXAMPLES
@given(rows=st.lists(st.tuples(TEXT, TEXT, st.sampled_from(["bhc", "di"]), TEXT, FINITE), max_size=6))
@example(rows=[("d", "m", "di", "x", -0.0), ("d", "m", "di", "x", 1.7976931345e308)])
def test_score_csv_round_trip(tmp_path, rows):
    """Values come back to 10 digits, or in full where 10 digits would round to inf."""
    path = tmp_path / "scores.csv"
    scores.write_score_csv(path, rows)
    values = [v if abs(v) >= 1.797693134e308 else float(f"{v:.10g}") for *_, v in rows]
    assert scores.read_score_csv(path) == [(*row[:4], v) for row, v in zip(rows, values)]


@FILE_EXAMPLES
@given(ranking=st.dictionaries(TEXT, FINITE, max_size=6))
def test_header_ranking_round_trip(tmp_path, ranking):
    path = tmp_path / "ranking.json"
    reorder.write_header_ranking(path, ranking)
    assert reorder.load_header_ranking(path) == ranking


WEIGHT = (
    FINITE
    | st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))
    | st.builds(des.Ratio, st.integers(-99, 99), st.integers(1, 99))
)
CRITERION = st.builds(des.Criterion, TEXT, WEIGHT, st.sampled_from(list(des.Scope)))


@FILE_EXAMPLES
@given(name=TEXT, criteria=st.lists(CRITERION, min_size=1, max_size=4))
def test_des_config_round_trip(tmp_path, name, criteria):
    config = des.DesConfig(name, tuple(criteria))
    path = tmp_path / "cfg.json"
    corpus.write_json(path, des.des_config_to_json(config))
    loaded = des.load_des_config(path)
    assert loaded == config
    # An exact weight loads back exact (as a des.Ratio), a float as a float.
    assert [isinstance(c.weight, float) for c in loaded.criteria] == [isinstance(c.weight, float) for c in criteria]


def _writes_a_file(call: ast.Call) -> bool:
    """A write-mode ``open``, ``csv.writer`` or ``json.dump`` call."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if (func.value.id, func.attr) in (("csv", "writer"), ("json", "dump")):
            return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def test_only_corpus_writes_files():
    """Every output goes through the writers in corpus.py, next to the readers."""
    package = Path(dischargekit.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "corpus.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert not offenders, f"files written outside corpus.py: {offenders}"


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
    select._write_submission(path, rows)
    message = rf"sub\.csv: duplicate hadm_id 'h{i}' on rows {starts[i]} and {starts[j]}$"
    with pytest.raises(CorpusError, match=message):
        evaluate._read_submission(path)


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
