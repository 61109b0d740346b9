from __future__ import annotations

import random

import pytest

from dischargekit.corpus import DischargeSummary
from dischargekit.relevance import rouge_1
from dischargekit.reorder import (
    ExternalSectionScores,
    SectionScoreError,
    apply_header_ranking,
    global_header_ranking,
    rank_sections,
    split_sections,
    truncate_words,
)
from dischargekit.textprep import word_count

HEADERS = ("Chief Complaint", "Physical Exam", "Pertinent Results", "Discharge Medications")


def summary(body, hadm_id="d1"):
    return DischargeSummary(hadm_id=hadm_id, full_text=body, body_without_targets=body)


def test_split_counts_preamble_and_headers():
    body = (
        "preamble line\n"
        "Chief Complaint:\npain\n"
        "Physical Exam:\nnormal\n"
        "Pertinent Results:\nlabs fine"
    )
    doc = split_sections(summary(body), HEADERS)
    assert len(doc.sections) == 4
    assert doc.sections[0].header == ""
    assert doc.sections[1].header == "Chief Complaint:"
    assert doc.sections[1].body == "pain"


def test_split_no_headers_single_preamble():
    doc = split_sections(summary("just one block of text"), HEADERS)
    assert len(doc.sections) == 1
    assert doc.sections[0].body == "just one block of text"


def test_split_reconstructs_input():
    body = "intro\nChief Complaint:\npain\nPhysical Exam:\nnormal exam today"
    doc = split_sections(summary(body), HEADERS)
    assert doc.text() == body


def test_split_caps_at_fifty_sections():
    body = "\n".join(f"Chief Complaint:\nbody {i}" for i in range(60))
    doc = split_sections(summary(body), HEADERS)
    assert len(doc.sections) == 50
    # Nothing is lost: the overflow merges into the final section.
    assert "body 59" in doc.sections[-1].body
    assert word_count(doc.text()) == word_count(body)


def test_rank_sections_sorts_descending():
    body = "Chief Complaint:\nalpha beta\nPhysical Exam:\ngamma delta\nPertinent Results:\nepsilon zeta"
    doc = split_sections(summary(body), HEADERS)
    scores = {"alpha beta": 0.2, "gamma delta": 0.9, "epsilon zeta": 0.5}
    ranked = rank_sections(doc, "ref", lambda body, ref: scores[body])
    assert [s.body for s in ranked.sections] == ["gamma delta", "epsilon zeta", "alpha beta"]
    assert [s.relevance for s in ranked.sections] == [0.9, 0.5, 0.2]


def test_rank_uniform_scores_keeps_order():
    body = "Chief Complaint:\none\nPhysical Exam:\ntwo\nPertinent Results:\nthree"
    doc = split_sections(summary(body), HEADERS)
    ranked = rank_sections(doc, "ref", lambda b, r: 0.5)
    assert [s.body for s in ranked.sections] == ["one", "two", "three"]


def test_rank_identity_section_comes_first():
    body = "Chief Complaint:\nalpha beta gamma\nPhysical Exam:\ndelta epsilon zeta"
    doc = split_sections(summary(body), HEADERS)
    ranked = rank_sections(doc, "alpha beta gamma", rouge_1)
    assert ranked.sections[0].body == "alpha beta gamma"
    assert ranked.sections[0].relevance == 1.0


def test_rank_is_a_permutation():
    rng = random.Random(5)
    names = ["Chief Complaint", "Physical Exam", "Pertinent Results"]
    body = "\n".join(f"{h}:\n{' '.join(rng.choice('abcdef') for _ in range(6))}" for h in names)
    doc = split_sections(summary(body), HEADERS)
    ranked = rank_sections(doc, "a b c", rouge_1)
    assert sorted((s.header, s.body) for s in ranked.sections) == sorted(
        (s.header, s.body) for s in doc.sections
    )


def test_external_scores_lookup_and_gaps(tmp_path):
    path = tmp_path / "sections.csv"
    path.write_text("hadm_id,section_index,score\nd1,0,0.7\n", encoding="utf-8")
    scorer = ExternalSectionScores.from_csv(path)
    body = "Chief Complaint:\npain\nPhysical Exam:\nnormal"
    doc = split_sections(summary(body), HEADERS)
    with pytest.raises(SectionScoreError, match="section 1"):
        rank_sections(doc, "ref", scorer)


def test_external_scores_reject_wrong_field_count(tmp_path):
    path = tmp_path / "sections.csv"
    path.write_text("hadm_id,section_index,score\nd1,0,0.7\nd1,1,0.2,x\n", encoding="utf-8")
    with pytest.raises(SectionScoreError, match=r"sections\.csv: row 3: expected 3 fields, got 4"):
        ExternalSectionScores.from_csv(path)


def test_external_scores_duplicate_names_both_rows(tmp_path):
    path = tmp_path / "sections.csv"
    path.write_text("hadm_id,section_index,score\nd1,0,0.7\nd1,1,0.2\nd1,0,0.5\n", encoding="utf-8")
    with pytest.raises(
        SectionScoreError,
        match=r"sections\.csv: duplicate \(hadm_id='d1', section_index='0'\) on rows 2 and 4",
    ):
        ExternalSectionScores.from_csv(path)


def test_external_scores_reject_non_canonical_index(tmp_path):
    # "00" is section 0 again; it must not slip past the duplicate check.
    path = tmp_path / "sections.csv"
    path.write_text("hadm_id,section_index,score\nd1,0,0.7\nd1,00,0.5\n", encoding="utf-8")
    with pytest.raises(SectionScoreError, match=r"sections\.csv: row 3: "):
        ExternalSectionScores.from_csv(path)


def test_truncate_fixture_2500_to_2000():
    body = " ".join(f"w{i}" for i in range(2500))
    doc = split_sections(summary(body), HEADERS)
    out = truncate_words(doc, budget=2000)
    assert word_count(out) == 2000


def test_truncate_under_budget_passthrough():
    body = "Chief Complaint:\n" + " ".join(f"w{i}" for i in range(100))
    doc = split_sections(summary(body), HEADERS)
    out = truncate_words(doc, budget=2000)
    assert out == doc.text()
    assert word_count(out) == word_count(body)


def test_truncate_budget_one():
    doc = split_sections(summary("alpha beta gamma"), HEADERS)
    assert truncate_words(doc, budget=1) == "alpha"


def test_truncate_word_count_law_fuzz():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(0, 300)
        budget = rng.randint(1, 250)
        body = " ".join(rng.choice(["a", "bb", "ccc"]) for _ in range(n))
        doc = split_sections(summary(body), HEADERS)
        out = truncate_words(doc, budget=budget)
        assert word_count(out) == min(budget, n)


def test_global_ranking_and_apply():
    docs = []
    refs = {}
    for i in range(4):
        body = (
            f"Chief Complaint:\nfiller words only {i}\n"
            f"Physical Exam:\ntarget match text {i}\n"
            f"Pertinent Results:\nnothing shared {i}"
        )
        docs.append(split_sections(summary(body, hadm_id=f"d{i}"), HEADERS))
        refs[f"d{i}"] = f"target match text {i}"
    ranking = global_header_ranking(docs, refs, rouge_1)
    assert ranking["physical exam"] > ranking["chief complaint"]
    ordered = apply_header_ranking(docs[0], ranking)
    assert ordered.sections[0].header.startswith("Physical Exam")


def test_apply_ranking_unknown_headers_sink():
    body = "Mystery Section:\nabc\nPhysical Exam:\nxyz"
    doc = split_sections(summary(body), HEADERS + ("Mystery Section",))
    ordered = apply_header_ranking(doc, {"physical exam": 0.9})
    assert ordered.sections[0].header == "Physical Exam:"
    assert ordered.sections[-1].header == "Mystery Section:"


def test_global_ranking_missing_reference_errors():
    doc = split_sections(summary("Chief Complaint:\npain"), HEADERS)
    with pytest.raises(SectionScoreError, match="d1"):
        global_header_ranking([doc], {}, rouge_1)


def test_pipeline_deterministic():
    body = "Chief Complaint:\nalpha beta\nPhysical Exam:\nbeta gamma\nPertinent Results:\ndelta"
    doc = split_sections(summary(body), HEADERS)
    a = truncate_words(rank_sections(doc, "beta gamma", rouge_1), budget=5)
    b = truncate_words(rank_sections(doc, "beta gamma", rouge_1), budget=5)
    assert a == b
