from __future__ import annotations

import json
import re

import pytest

from dischargekit import corpus
from dischargekit.corpus import (
    CorpusError,
    GeneratedCandidate,
    TargetKind,
    extract_targets,
    generate_synthetic_corpus,
    load_candidates,
    load_corpus,
    load_targets,
)
from dischargekit.textprep import word_count


def test_extract_both_sections():
    text = (
        "Brief Hospital Course:\nstable course\n"
        "Discharge Instructions:\ntake meds\n"
        "Followup Instructions:"
    )
    targets, body = extract_targets(text)
    assert targets.bhc == "stable course"
    assert targets.di == "take meds"
    assert "stable course" not in body
    assert "take meds" not in body


def test_extract_no_headers_is_total():
    text = "plain note with no recognized sections"
    targets, body = extract_targets(text)
    assert targets.bhc == "" and targets.di == ""
    assert body == text


def test_extract_di_without_bhc():
    text = "Discharge Instructions:\nrest well\nFollowup Instructions:\ncall us"
    targets, body = extract_targets(text)
    assert targets.bhc == ""
    assert targets.di == "rest well"
    assert "rest well" not in body


def test_extract_runs_to_end_of_document():
    text = "Brief Hospital Course:\nline one\nline two"
    targets, _ = extract_targets(text)
    assert targets.bhc == "line one\nline two"


def test_extract_headers_case_insensitive_with_optional_colon():
    text = "BRIEF HOSPITAL COURSE\nupper case body\nDischarge Instructions:\nlower"
    targets, _ = extract_targets(text)
    assert targets.bhc == "upper case body"


def test_extract_is_idempotent():
    text = (
        "Chief Complaint:\npain\nBrief Hospital Course:\ncourse text\n"
        "Discharge Instructions:\ninstructions text\nFollowup Instructions:\nnone"
    )
    _, body = extract_targets(text)
    again, body2 = extract_targets(body)
    assert again.bhc == "" and again.di == ""
    assert body2 == body


def test_load_corpus_roundtrip(small_corpus):
    summaries = load_corpus(small_corpus)
    assert [s.hadm_id for s in summaries] == ["100", "101", "102"]
    assert all("improved steadily" not in s.body_without_targets for s in summaries)
    out = small_corpus.parent / "roundtrip.jsonl"
    corpus.write_corpus(out, summaries)
    assert load_corpus(out) == summaries


def test_load_corpus_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "dup.jsonl"
    rows = [
        {"hadm_id": "1", "discharge_summary": "a"},
        {"hadm_id": "2", "discharge_summary": "b"},
        {"hadm_id": "1", "discharge_summary": "c"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"'1' on lines 1 and 3"):
        load_corpus(path)


def test_load_corpus_malformed_line_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"hadm_id": "1", "discharge_summary": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


def test_load_candidates_reads_each_field(tmp_path):
    path = tmp_path / "cands.jsonl"
    path.write_text(
        json.dumps({"hadm_id": "1", "model_id": "m", "target": "bhc", "text": "a b c"}) + "\n",
        encoding="utf-8",
    )
    (cand,) = load_candidates(path)
    assert cand == GeneratedCandidate("1", "m", TargetKind.BHC, "a b c")


def test_load_candidates_unknown_target(tmp_path):
    path = tmp_path / "cands.jsonl"
    good = json.dumps({"hadm_id": "1", "model_id": "m", "target": "di", "text": "a"})
    bad = json.dumps({"hadm_id": "1", "model_id": "m", "target": "dx", "text": "a"})
    path.write_text(good + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 3: unknown target 'dx'"):
        load_candidates(path)


def test_load_candidates_duplicate_triple(tmp_path):
    path = tmp_path / "cands.jsonl"
    row = json.dumps({"hadm_id": "1", "model_id": "m", "target": "di", "text": "a"})
    path.write_text(row + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate candidate"):
        load_candidates(path)


def test_load_candidates_duplicate_names_both_lines(tmp_path):
    path = tmp_path / "cands.jsonl"
    rows = [
        {"hadm_id": "1", "model_id": "m", "target": "di", "text": "a"},
        {"hadm_id": "1", "model_id": "m", "target": "bhc", "text": "b"},
        {"hadm_id": "1", "model_id": "m", "target": "di", "text": "c"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"duplicate candidate for .*'di'\) on lines 1 and 3"):
        load_candidates(path)


def test_load_targets_duplicate_names_both_lines(tmp_path):
    path = tmp_path / "targets.jsonl"
    rows = [{"hadm_id": h, "bhc": "b", "di": "d"} for h in ("1", "2", "1")]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"targets\.jsonl: duplicate hadm_id '1' on lines 1 and 3"):
        load_targets(path)


def test_keyed_readers_share_one_str_per_id(tmp_path):
    rows = [(h, m, "di", f"text {h} {m}") for h in ("20000001", "20000002") for m in ("model_a", "model_b")]
    jsonl, csv_path = tmp_path / "cands.jsonl", tmp_path / "cands.csv"
    corpus.write_jsonl_records(jsonl, corpus.CANDIDATE_FIELDS, rows)
    corpus.write_csv_records(csv_path, corpus.CANDIDATE_FIELDS, rows)
    key = corpus.CANDIDATE_FIELDS[:2]
    reads = {
        "jsonl": lambda key: list(corpus.read_jsonl_records(jsonl, corpus.CANDIDATE_FIELDS, key=key)),
        "csv": lambda key: list(corpus.read_csv_records(csv_path, corpus.CANDIDATE_FIELDS, CorpusError, key=key)),
    }
    for name, read in reads.items():
        keyed, unkeyed = read(key), read(())
        assert keyed == unkeyed == [(line, list(row)) for line, row in enumerate(rows, 2 if name == "csv" else 1)]
        values = [record for _, record in keyed]
        # Equal ids on different lines are one object: hadm_id of lines 1-2, model_id of lines 1 and 3.
        assert values[0][0] is values[1][0] and values[2][0] is values[3][0], name
        assert values[0][1] is values[2][1] and values[1][1] is values[3][1], name


def test_candidates_roundtrip(tmp_path):
    _, candidates = generate_synthetic_corpus(4, 2, seed=3)
    path = tmp_path / "cands.jsonl"
    corpus.write_candidates(path, candidates)
    assert load_candidates(path) == candidates


def test_synthetic_corpus_deterministic():
    a = generate_synthetic_corpus(6, 2, seed=7)
    b = generate_synthetic_corpus(6, 2, seed=7)
    assert a == b
    c = generate_synthetic_corpus(6, 2, seed=8)
    assert a != c


def test_synthetic_corpus_single_model_cardinality():
    summaries, candidates = generate_synthetic_corpus(5, 1, seed=1)
    assert len(summaries) == 5
    per_target = {t: [c for c in candidates if c.target is t] for t in TargetKind}
    assert all(len(v) == 5 for v in per_target.values())


def test_synthetic_di_mean_word_count_near_corpus_statistics():
    _, candidates = generate_synthetic_corpus(500, 1, seed=11)
    di = [word_count(c.text) for c in candidates if c.target is TargetKind.DI]
    assert 180 <= sum(di) / len(di) <= 212
    bhc = [word_count(c.text) for c in candidates if c.target is TargetKind.BHC]
    assert 300 <= sum(bhc) / len(bhc) <= 356


def test_synthetic_no_model_dominates():
    summaries, candidates = generate_synthetic_corpus(60, 3, seed=5)
    refs = {s.hadm_id: s.targets for s in summaries}
    from dischargekit.relevance import rouge_1

    wins: dict[str, int] = {}
    for doc in summaries:
        best, best_score = None, -1.0
        for c in candidates:
            if c.hadm_id != doc.hadm_id or c.target is not TargetKind.DI:
                continue
            score = rouge_1(c.text, refs[doc.hadm_id].di)
            if score > best_score:
                best, best_score = c.model_id, score
        wins[best] = wins.get(best, 0) + 1
    assert len(wins) == 3, wins


def test_synthetic_validates_arguments():
    with pytest.raises(ValueError):
        generate_synthetic_corpus(0, 1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_corpus(1, 0, seed=0)


def test_synthetic_bhc_section_precedes_di_section():
    summaries, _ = generate_synthetic_corpus(10, 1, seed=6)
    for s in summaries:
        bhc_pos = s.full_text.lower().index("brief hospital course")
        di_pos = s.full_text.lower().index("discharge instructions")
        assert bhc_pos < di_pos


def test_custom_header_list_loader(tmp_path):
    path = tmp_path / "headers.txt"
    path.write_text("# comment\nCustom Part\nBrief Hospital Course\n", encoding="utf-8")
    headers = corpus.load_known_headers(path)
    assert headers == ("Custom Part", "Brief Hospital Course")
    text = "Brief Hospital Course:\nbody here\nCustom Part:\nrest"
    targets, _ = extract_targets(text, known_headers=headers)
    assert targets.bhc == "body here"


def test_summaries_keep_the_targets_extracted_from_their_text(small_corpus, tmp_path):
    # Scoring reads s.targets in place of extracting again, so it must be
    # what extract_targets gives for the summary's text.
    loaded = [load_corpus(small_corpus)]
    for seed in (1, 5, 7):
        summaries, _ = generate_synthetic_corpus(80, 1, seed=seed)
        path = tmp_path / f"corpus_{seed}.jsonl"
        corpus.write_corpus(path, summaries)
        loaded += [summaries, load_corpus(path)]
    for summaries in loaded:
        assert summaries
        assert all(s.targets == extract_targets(s.full_text, hadm_id=s.hadm_id)[0] for s in summaries)
