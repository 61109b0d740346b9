"""Property tests of the record reader and writer contract: round trips, duplicate
keys, and one module that writes files."""

from __future__ import annotations

import ast
import csv
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dischargekit
import oracles
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


CRITERION = st.builds(des.Criterion, TEXT, FINITE, st.sampled_from(list(des.Scope)))


@FILE_EXAMPLES
@given(name=TEXT, criteria=st.lists(CRITERION, min_size=1, max_size=4))
def test_des_config_round_trip(tmp_path, name, criteria):
    config = des.DesConfig(name, tuple(criteria))
    path = tmp_path / "cfg.json"
    corpus.write_json(path, des.des_config_to_json(config))
    loaded = des.load_des_config(path)
    assert loaded == config


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


# The characters that decide how a CSV line splits. The csv module reads NUL
# from Python 3.11 on; before, it refuses it and the two readers may differ.
CSV_CHARS = list('ab ,"\t\r\n') + (["\x00"] if sys.version_info >= (3, 11) else [])
PLAIN_FIELD = st.text(alphabet=st.sampled_from([c for c in CSV_CHARS if c not in '"\r\n']), max_size=4)
ANY_TEXT = st.text(alphabet=st.sampled_from(CSV_CHARS), max_size=8)
CSV_FIELD = st.one_of(
    PLAIN_FIELD,
    ANY_TEXT.map(lambda t: '"' + t.replace('"', '""') + '"'),  # quoted: commas, doubled quotes, newlines
    ANY_TEXT,  # stray quotes and line breaks anywhere
)
CSV_LINE = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "ab"]), CSV_FIELD).map(",".join),  # a record with a repeatable key
    st.lists(CSV_FIELD, min_size=1, max_size=3).map(",".join),  # any width
    st.sampled_from(["", " ", "\t", "a,", ","]),  # blank, whitespace-only and short lines
)
CSV_HEADER = st.sampled_from(["key,text", " key , text", '"key","text"', "key,text,more", "text,key", ""])
CSV_FUZZ = settings(
    derandomize=True, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@CSV_FUZZ
@given(
    header=CSV_HEADER,
    lines=st.lists(st.tuples(CSV_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
    last=st.sampled_from(["\n", "\r\n", "\r", ""]),
    keyed=st.booleans(),
)
def test_csv_records_equal_the_csv_module_reader(tmp_path, header, lines, last, keyed):
    """Records, physical line numbers and error text equal one csv.reader's
    over the whole file, with every line ending and no final newline."""
    lines = [(header, "\n"), *lines]
    lines[-1] = (lines[-1][0], last)
    path = tmp_path / "records.csv"
    path.write_bytes("".join(line + end for line, end in lines).encode("utf-8"))
    fields, key = ("key", "text"), ("key",) if keyed else ()

    def outcome(read):
        try:
            return list(read(path, fields, CorpusError, key))
        except CorpusError as exc:
            return str(exc)

    assert outcome(corpus.read_csv_records) == outcome(oracles.csv_module_records)


@pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "plain"])
def test_a_field_over_the_csv_limit_names_its_row(tmp_path, quote):
    big = "x" * (csv.field_size_limit() + 1)
    path = tmp_path / "big.csv"
    path.write_text(f"key,text\na,1\nb,{quote}{big}{quote}\nc,2\n", encoding="utf-8")
    message = f"{path}: row 3: field larger than field limit ({csv.field_size_limit()})"
    for read in (corpus.read_csv_records, oracles.csv_module_records):
        with pytest.raises(CorpusError) as caught:
            list(read(path, ("key", "text"), CorpusError))
        assert str(caught.value) == message


def test_a_quote_hands_the_rest_of_the_file_to_one_csv_reader(tmp_path, monkeypatch):
    """Lines before the first quote are split; from it on one csv reader reads
    every record, so a file quoted on every line costs one reader, not one a line."""
    path = tmp_path / "quoted.csv"
    path.write_text('key,text\na,1\n"b",2\nc,3\n"d","4"\n', encoding="utf-8")
    readers = []
    original = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: readers.append(args) or original(*args))
    got = list(corpus.read_csv_records(path, ("key", "text"), CorpusError))
    assert got == [(2, ["a", "1"]), (3, ["b", "2"]), (4, ["c", "3"]), (5, ["d", "4"])]
    assert len(readers) == 2  # the header's and the rest's
