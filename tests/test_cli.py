from __future__ import annotations

import csv
import json
import math

import pytest

from dischargekit import corpus
from dischargekit.cli import main
from dischargekit.corpus import TargetKind
from dischargekit.synthetic import generate_synthetic_corpus
from dischargekit.textprep import word_count


def run(*argv):
    return main([str(a) for a in argv])


def write_external(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "metric", "value"])
        writer.writerows(rows)


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_extract_writes_targets_and_bodies(small_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    targets = corpus.load_targets(out / "targets.jsonl")
    assert len(targets) == 3
    assert targets["100"].bhc.startswith("the patient improved")
    bodies = (out / "bodies.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(bodies) == 3
    assert (out / "manifest.json").exists()


def test_extract_empty_corpus_ok(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert run("extract", "--corpus", empty, "--out", out) == 0
    assert (out / "targets.jsonl").read_text(encoding="utf-8") == ""


def test_extract_duplicate_id_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    row = json.dumps({"hadm_id": "1", "discharge_summary": "x"})
    bad.write_text(row + "\n" + row + "\n", encoding="utf-8")
    assert run("extract", "--corpus", bad, "--out", tmp_path / "o") == 1
    assert "duplicate" in capsys.readouterr().err


def test_extract_non_utf8_headers_file_names_file_and_line(small_corpus, tmp_path, capsys):
    headers = tmp_path / "h.txt"
    headers.write_bytes(b"Brief Hospital Course\nDischarge \xffInstructions\n")
    assert run("extract", "--corpus", small_corpus, "--headers", headers, "--out", tmp_path / "o") == 1
    assert f"error: {headers}: line 2: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_extract_missing_file_exits_one(tmp_path):
    assert run("extract", "--corpus", tmp_path / "nope.jsonl", "--out", tmp_path / "o") == 1


@pytest.fixture
def pipeline_dir(tmp_path):
    """Synthetic corpus + candidates + extracted targets on disk."""
    summaries, candidates = generate_synthetic_corpus(6, 2, seed=13)
    corpus_path = tmp_path / "corpus.jsonl"
    cands_path = tmp_path / "candidates.jsonl"
    corpus.write_corpus(corpus_path, summaries)
    corpus.write_candidates(cands_path, candidates)
    out = tmp_path / "extracted"
    assert run("extract", "--corpus", corpus_path, "--out", out) == 0
    return tmp_path


def test_score_identity_candidates_all_ones(small_corpus, tmp_path):
    out = tmp_path / "x"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    targets = corpus.load_targets(out / "targets.jsonl")
    cands = [
        corpus.GeneratedCandidate(
            hadm_id=h, model_id="copy", target=TargetKind.DI, text=t.di
        )
        for h, t in targets.items()
    ]
    cands_path = tmp_path / "cands.jsonl"
    corpus.write_candidates(cands_path, cands)
    scores_path = tmp_path / "scores.csv"
    assert (
        run(
            "score",
            "--candidates", cands_path,
            "--references", out / "targets.jsonl",
            "--metrics", "rouge_1",
            "--out", scores_path,
        )
        == 0
    )
    rows = read_csv_rows(scores_path)
    assert rows[0] == ["hadm_id", "model_id", "target", "metric", "value"]
    assert all(row[4] == "1" for row in rows[1:])


def test_score_readability_only_no_references(pipeline_dir):
    scores_path = pipeline_dir / "readability.csv"
    assert (
        run(
            "score",
            "--candidates", pipeline_dir / "candidates.jsonl",
            "--metrics", "fkgl,dcrs,cli",
            "--out", scores_path,
        )
        == 0
    )
    rows = read_csv_rows(scores_path)
    # 6 docs x 2 models x 3 metrics x 2 targets.
    assert len(rows) - 1 == 6 * 2 * 3 * 2


def test_score_rerun_byte_identical(pipeline_dir):
    args = (
        "score",
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--references", pipeline_dir / "extracted" / "targets.jsonl",
        "--out", pipeline_dir / "a.csv",
    )
    assert run(*args) == 0
    first = (pipeline_dir / "a.csv").read_bytes()
    assert run(*args) == 0
    assert (pipeline_dir / "a.csv").read_bytes() == first


def test_score_against_ds(pipeline_dir):
    scores_path = pipeline_dir / "ds.csv"
    assert (
        run(
            "score",
            "--candidates", pipeline_dir / "candidates.jsonl",
            "--against-ds", pipeline_dir / "extracted" / "bodies.jsonl",
            "--out", scores_path,
        )
        == 0
    )
    rows = read_csv_rows(scores_path)
    assert {row[3] for row in rows[1:]} == {"meteor_ds"}


def test_score_against_ds_rejects_duplicate_body(pipeline_dir, capsys):
    bodies = pipeline_dir / "extracted" / "bodies.jsonl"
    lines = bodies.read_text(encoding="utf-8").splitlines()
    bodies.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
    code = run(
        "score",
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--against-ds", bodies,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    hadm_id = json.loads(lines[0])["hadm_id"]
    err = capsys.readouterr().err
    assert f"bodies.jsonl: duplicate hadm_id {hadm_id!r} on lines 1 and {len(lines) + 1}" in err


def test_score_against_ds_with_references_exits_one(tmp_path, capsys):
    # None of the files exist: the flag check comes before any file is read.
    code = run(
        "score",
        "--candidates", tmp_path / "candidates.jsonl",
        "--against-ds", tmp_path / "bodies.jsonl",
        "--references", tmp_path / "targets.jsonl",
        "--out", tmp_path / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--against-ds" in err and "--references" in err
    assert not (tmp_path / "never.csv").exists()


def test_score_against_ds_rejects_non_string_body(pipeline_dir, capsys):
    bodies = pipeline_dir / "bad_bodies.jsonl"
    bodies.write_text(json.dumps({"hadm_id": "1", "body": 7}) + "\n", encoding="utf-8")
    code = run(
        "score",
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--against-ds", bodies,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert "bad_bodies.jsonl: line 1: missing or non-string 'body'" in capsys.readouterr().err


def select_setup(pipeline_dir, metrics=("medcon", "meteor")):
    """Score CSV with synthetic external-style metrics for selection."""
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    rows = []
    for i, c in enumerate(cands):
        for j, metric in enumerate(metrics):
            value = ((i * 37 + j * 11) % 97) / 97
            rows.append([c.hadm_id, c.model_id, c.target.value, metric, f"{value}"])
    path = pipeline_dir / "desin.csv"
    write_external(path, rows)
    return path


def test_select_des1_matches_library(pipeline_dir):
    from dischargekit import des, scores as scores_mod, tables

    desin = select_setup(pipeline_dir)
    sub = pipeline_dir / "sub.csv"
    assert (
        run(
            "select",
            "--scores", desin,
            "--candidates", pipeline_dir / "candidates.jsonl",
            "--config", "des1",
            "--target", "di",
            "--out", sub,
        )
        == 0
    )
    rows = read_csv_rows(sub)
    assert rows[0] == ["hadm_id", "text"]
    assert len(rows) == 7
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    pool = [c for c in cands if c.target is TargetKind.DI]
    docs = list(dict.fromkeys(c.hadm_id for c in pool))
    models = list(dict.fromkeys(c.model_id for c in pool))
    table = tables.ScoreTable.from_rows(
        scores_mod.read_score_csv(desin), TargetKind.DI, documents=docs, models=models
    )
    expected = des.select_experts(table, des.PRESETS["des1"], TargetKind.DI)
    texts = {(c.hadm_id, c.model_id): c.text for c in pool}
    chosen_texts = {s.hadm_id: texts[s.hadm_id, s.model_id] for s in expected.selections}
    assert {r[0]: r[1] for r in rows[1:]} == chosen_texts
    tally = json.loads((pipeline_dir / "sub.csv.tally.json").read_text(encoding="utf-8"))
    assert sum(tally.values()) == 6


def test_select_des5_ranking_rules(pipeline_dir):
    sub = pipeline_dir / "len.csv"
    assert (
        run(
            "select",
            "--scores", select_setup(pipeline_dir),
            "--candidates", pipeline_dir / "candidates.jsonl",
            "--config", "des5",
            "--ranking", "model_a,model_b",
            "--target", "di",
            "--out", sub,
        )
        == 0
    )
    rows = read_csv_rows(sub)
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    texts = {(c.hadm_id, c.model_id): c for c in cands if c.target is TargetKind.DI}
    for hadm_id, text in rows[1:]:
        assert any(c.text == text for (h, _), c in texts.items() if h == hadm_id)


def test_select_des5_all_in_window_top_rank_wins(tmp_path):
    docs = [f"d{i}" for i in range(4)]
    cands = []
    for h in docs:
        for model, wc in (("m1", 150), ("m2", 120)):
            cands.append(
                corpus.GeneratedCandidate(
                    hadm_id=h,
                    model_id=model,
                    target=TargetKind.DI,
                    text=" ".join([model] * wc),
                )
            )
    cands_path = tmp_path / "c.jsonl"
    corpus.write_candidates(cands_path, cands)
    scores_path = tmp_path / "s.csv"
    write_external(scores_path, [[h, "m1", "di", "unused", "0"] for h in docs])
    sub = tmp_path / "sub.csv"
    assert (
        run(
            "select",
            "--scores", scores_path,
            "--candidates", cands_path,
            "--config", "des5",
            "--ranking", "m1,m2",
            "--target", "di",
            "--out", sub,
        )
        == 0
    )
    tally = json.loads((tmp_path / "sub.csv.tally.json").read_text(encoding="utf-8"))
    assert tally == {"m1": 4}


def test_select_single_model_trivial(tmp_path):
    cands = [
        corpus.GeneratedCandidate(
            hadm_id=f"d{i}", model_id="only", target=TargetKind.DI, text="some text"
        )
        for i in range(3)
    ]
    cands_path = tmp_path / "c.jsonl"
    corpus.write_candidates(cands_path, cands)
    scores_path = tmp_path / "s.csv"
    write_external(
        scores_path,
        [[c.hadm_id, "only", "di", m, "0.5"] for c in cands for m in ("medcon", "meteor")],
    )
    sub = tmp_path / "sub.csv"
    assert (
        run(
            "select",
            "--scores", scores_path,
            "--candidates", cands_path,
            "--config", "des1",
            "--target", "di",
            "--out", sub,
        )
        == 0
    )
    tally = json.loads((tmp_path / "sub.csv.tally.json").read_text(encoding="utf-8"))
    assert tally == {"only": 3}


def test_select_des5_needs_ranking(pipeline_dir, capsys):
    code = run(
        "select",
        "--scores", select_setup(pipeline_dir),
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des5",
        "--target", "di",
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert "--ranking" in capsys.readouterr().err


def test_select_unknown_preset_exits_one(pipeline_dir, capsys):
    code = run(
        "select",
        "--scores", select_setup(pipeline_dir),
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des9",
        "--target", "di",
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert "unknown config" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_select_non_finite_weight_names_config_and_metric(pipeline_dir, capsys, weight):
    cfg = pipeline_dir / "cfg.json"
    cfg.write_text(f'{{"criteria": [{{"metric": "medcon", "weight": {weight}}}]}}', encoding="utf-8")
    code = run(
        "select",
        "--scores", select_setup(pipeline_dir),
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", cfg,
        "--target", "di",
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "cfg.json" in err and "medcon" in err and "non-finite" in err


@pytest.mark.parametrize(
    "criteria, expected",
    [
        ('[{"metric": "nosuch", "weight": 1}]', "table lacks metrics required by 'mine': nosuch"),
        ('[{"metric": "medcon", "weight": 1, "scope": "bhc_only"}]', "config 'mine' has no criteria for target di"),
    ],
)
def test_select_config_file_that_does_not_fit_the_table_names_the_file(pipeline_dir, capsys, criteria, expected):
    cfg = pipeline_dir / "c.json"
    cfg.write_text(f'{{"name": "mine", "criteria": {criteria}}}', encoding="utf-8")
    out = pipeline_dir / "never.csv"
    code = run(
        "select", "--scores", select_setup(pipeline_dir), "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", cfg, "--target", "di", "--out", out,
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}: {expected}\n"
    assert not out.exists()


def test_select_missing_cells_exit_one(pipeline_dir, capsys):
    desin = pipeline_dir / "gappy.csv"
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    rows = [
        [c.hadm_id, c.model_id, c.target.value, "medcon", "0.5"]
        for c in cands
        if c.model_id == "model_a"
    ]
    rows += [
        [c.hadm_id, c.model_id, c.target.value, "meteor", "0.5"] for c in cands
    ]
    write_external(desin, rows)
    code = run(
        "select",
        "--scores", desin,
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des1",
        "--target", "di",
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert "missing cell" in capsys.readouterr().err


def test_select_cell_repeated_across_score_files_names_file_and_row(pipeline_dir, capsys):
    desin = select_setup(pipeline_dir)
    doc = read_csv_rows(desin)[1][0]
    again = pipeline_dir / "again.csv"
    write_external(again, [[doc, "model_b", "bhc", "meteor", "0.5"], [doc, "model_a", "di", "medcon", "0.5"]])
    code = run(
        "select", "--scores", desin, "--scores", again, "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des1", "--target", "di", "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{again}: duplicate cell (hadm_id='{doc}', model_id='model_a', metric='medcon') on row 3" in err


def test_correlate_cell_repeated_in_score_file_names_file_and_row(pipeline_dir, capsys):
    scores_path = pipeline_dir / "rep_scores.csv"
    write_external(scores_path, [[d, "m", "di", "medcon", f"0.{d}"] for d in "1231"])
    overall_path = pipeline_dir / "rep_overall.csv"
    overall_path.write_text(
        "hadm_id,model_id,target,value\n1,m,di,0.5\n2,m,di,0.7\n3,m,di,0.2\n", encoding="utf-8"
    )
    code = run(
        "correlate", "--scores", scores_path, "--overall", overall_path, "--out", pipeline_dir / "never.csv"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{scores_path}: duplicate cell (hadm_id='1', model_id='m', metric='medcon') on row 5" in err


def test_select_unknown_ids_name_file_and_row(pipeline_dir, capsys):
    desin = select_setup(pipeline_dir)
    stray = pipeline_dir / "stray.csv"
    write_external(stray, [["9", "model_a", "bhc", "medcon", "0.5"], ["9", "mx", "di", "medcon", "0.5"],
                           ["8", "model_a", "di", "medcon", "0.5"]])
    code = run(
        "select", "--scores", desin, "--scores", stray, "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des1", "--target", "di", "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{stray}: rows reference unknown hadm_id/model_id: 9, mx on row 3" in err


def _select_des4(pipeline_dir, desin, sub):
    overall_path = pipeline_dir / "overall.csv"
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    with open(overall_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "value"])
        for i, c in enumerate(cands):
            if c.target is TargetKind.DI:
                writer.writerow([c.hadm_id, c.model_id, "di", f"{(i % 10) / 10}"])
    assert (
        run(
            "select",
            "--scores", desin,
            "--candidates", pipeline_dir / "candidates.jsonl",
            "--config", "des4",
            "--target", "di",
            "--overall", overall_path,
            "--out", sub,
        )
        == 0
    )


def test_select_des4_derives_weights(pipeline_dir):
    _select_des4(pipeline_dir, select_setup(pipeline_dir), pipeline_dir / "des4.csv")
    derived = json.loads((pipeline_dir / "des4.csv.des4.json").read_text(encoding="utf-8"))
    assert {c["metric"] for c in derived["criteria"]} == {"medcon", "meteor"}


def test_select_reads_back_its_des4_weights_and_derives_none(pipeline_dir):
    """The written float weights select the same texts again; a config file
    named "des4" is not derived, so it writes no weights file of its own."""
    desin = select_setup(pipeline_dir)
    _select_des4(pipeline_dir, desin, pipeline_dir / "des4.csv")
    derived = pipeline_dir / "des4.csv.des4.json"
    assert json.loads(derived.read_text(encoding="utf-8"))["name"] == "des4"
    assert run("select", "--scores", desin, "--candidates", pipeline_dir / "candidates.jsonl",
               "--config", derived, "--target", "di", "--out", pipeline_dir / "again.csv") == 0
    for suffix in ("", ".tally.json"):
        assert (pipeline_dir / f"again.csv{suffix}").read_bytes() == (pipeline_dir / f"des4.csv{suffix}").read_bytes()
    assert not (pipeline_dir / "again.csv.des4.json").exists()


def test_reorder_global_mode_emits_ranking(pipeline_dir):
    out = pipeline_dir / "reordered.jsonl"
    assert (
        run(
            "reorder",
            "--corpus", pipeline_dir / "corpus.jsonl",
            "--reference-targets", pipeline_dir / "extracted" / "targets.jsonl",
            "--target", "di",
            "--mode", "global",
            "--out", out,
        )
        == 0
    )
    ranking = json.loads((pipeline_dir / "reordered.jsonl.ranking.json").read_text(encoding="utf-8"))
    assert ranking
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    assert all(word_count(json.loads(l)["text"]) <= 2000 for l in lines)


@pytest.mark.parametrize(
    "content, expected",
    [
        ("[1, 2]", "expected a JSON object of header -> score, got list"),
        ('{"history of present illness": "x"}', "header 'history of present illness': score 'x' is not a number"),
        ('{"medications": null}', "header 'medications': score None is not a number"),
        ('{"medications": true}', "header 'medications': score True is not a number"),
        ('{"medications": "0.5"}', "header 'medications': score '0.5' is not a number"),
        ('{"medications": NaN}', "header 'medications': score is not finite"),
        pytest.param('{"medications": 1%s}' % ("0" * 400), "header 'medications': score is too large for a float",
                     id="401-digit score"),
        pytest.param('{"medications": 1%s}' % ("0" * 4999), "not valid JSON: Exceeds the limit", id="5000-digit score"),
    ],
)
def test_reorder_apply_ranking_of_wrong_shape_names_file_and_header(pipeline_dir, capsys, content, expected):
    ranking = pipeline_dir / "r.json"
    ranking.write_text(content, encoding="utf-8")
    out = pipeline_dir / "never.jsonl"
    assert run("reorder", "--corpus", pipeline_dir / "corpus.jsonl", "--apply-ranking", ranking, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{ranking}: {expected}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "digits, expected",
    [(401, "criterion 'medcon': weight is too large for a float"), (5000, "not valid JSON: Exceeds the limit")],
)
def test_select_weight_too_large_for_a_float_names_config_and_criterion(pipeline_dir, capsys, digits, expected):
    cfg = pipeline_dir / "bigdes.json"
    cfg.write_text(f'{{"criteria": [{{"metric": "medcon", "weight": 1{"0" * (digits - 1)}}}]}}', encoding="utf-8")
    out = pipeline_dir / "never.csv"
    code = run(
        "select", "--scores", select_setup(pipeline_dir), "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", cfg, "--target", "di", "--out", out,
    )
    assert code == 1
    assert f"error: {cfg}: {expected}" in capsys.readouterr().err
    assert not out.exists()


def test_select_n_over_d_weight_too_large_for_a_float_names_config_and_criterion(pipeline_dir, capsys):
    cfg = pipeline_dir / "bigdes.json"
    cfg.write_text(f'{{"criteria": [{{"metric": "medcon", "weight": "1{"0" * 400}/1"}}]}}', encoding="utf-8")
    out = pipeline_dir / "never.csv"
    code = run(
        "select", "--scores", select_setup(pipeline_dir), "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", cfg, "--target", "di", "--out", out,
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}: criterion 'medcon': weight is too large for a float\n"
    assert not out.exists()


def test_refused_count_leaves_nothing_on_disk(pipeline_dir, capsys):
    ranking = pipeline_dir / "r.json"
    ranking.write_text('{"medications": 1}', encoding="utf-8")
    before = sorted(pipeline_dir.iterdir())
    argv = ("reorder", "--corpus", pipeline_dir / "corpus.jsonl", "--apply-ranking", ranking)
    assert run(*argv, "--budget", 0, "--out", pipeline_dir / "r1.jsonl") == 1
    assert "--budget must be >= 1" in capsys.readouterr().err
    assert run("simulate", "--docs", 0, "--models", 2, "--out", pipeline_dir / "sim") == 1
    assert "n_docs and n_models must be >= 1" in capsys.readouterr().err
    assert sorted(pipeline_dir.iterdir()) == before


def test_applied_ranking_needs_no_section_scores(pipeline_dir):
    # An applied ranking scores no section, so --scorer external neither needs
    # nor reads --section-scores, and the manifest does not list it.
    ranking, nosuch = pipeline_dir / "r.json", pipeline_dir / "nosuch.csv"
    ranking.write_text('{"medications": 1.0, "history of present illness": 0.5}', encoding="utf-8")
    apply = ("reorder", "--corpus", pipeline_dir / "corpus.jsonl", "--apply-ranking", ranking)
    outs = {name: pipeline_dir / f"{name}.jsonl" for name in ("rouge1", "external", "nosuch")}
    assert run(*apply, "--out", outs["rouge1"]) == 0
    assert run(*apply, "--scorer", "external", "--out", outs["external"]) == 0
    assert run(*apply, "--scorer", "external", "--section-scores", nosuch, "--out", outs["nosuch"]) == 0
    expected = outs["rouge1"].read_bytes()
    for out in outs.values():
        assert out.read_bytes() == expected
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == sorted([str(pipeline_dir / "corpus.jsonl"), str(ranking)])


def test_reorder_budget_truncates(pipeline_dir):
    out = pipeline_dir / "tight.jsonl"
    assert (
        run(
            "reorder",
            "--corpus", pipeline_dir / "corpus.jsonl",
            "--reference-targets", pipeline_dir / "extracted" / "targets.jsonl",
            "--mode", "per-doc",
            "--budget", 25,
            "--out", out,
        )
        == 0
    )
    for line in out.read_text(encoding="utf-8").splitlines():
        assert word_count(json.loads(line)["text"]) == 25


def test_reorder_modes_differ_on_crafted_fixture(tmp_path):
    # Per-doc ranking follows each document's own scores; the global
    # ranking is dominated by the majority pattern.
    docs = []
    for i in range(3):
        body = (
            "Chief Complaint:\nshared target words here\n"
            "Physical Exam:\nnothing relevant at all"
        )
        docs.append({"hadm_id": f"d{i}", "discharge_summary": body})
    docs.append(
        {
            "hadm_id": "odd",
            "discharge_summary": (
                "Chief Complaint:\nnothing relevant at all\n"
                "Physical Exam:\nshared target words here"
            ),
        }
    )
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(
        "".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8"
    )
    targets_path = tmp_path / "t.jsonl"
    targets_path.write_text(
        "".join(
            json.dumps({"hadm_id": d["hadm_id"], "bhc": "", "di": "shared target words here"}) + "\n"
            for d in docs
        ),
        encoding="utf-8",
    )
    out_per = tmp_path / "per.jsonl"
    out_glob = tmp_path / "glob.jsonl"
    for mode, out in (("per-doc", out_per), ("global", out_glob)):
        assert (
            run(
                "reorder",
                "--corpus", corpus_path,
                "--reference-targets", targets_path,
                "--mode", mode,
                "--out", out,
            )
            == 0
        )
    per = {json.loads(l)["hadm_id"]: json.loads(l)["text"] for l in out_per.read_text().splitlines()}
    glob = {json.loads(l)["hadm_id"]: json.loads(l)["text"] for l in out_glob.read_text().splitlines()}
    assert per["odd"].startswith("Physical Exam")
    assert glob["odd"].startswith("Chief Complaint")


def test_evaluate_identity_submission_overall_one(pipeline_dir, tmp_path):
    # Long references keep the meteor fragmentation penalty (0.5/m^3 on
    # identical texts) far below the assertion tolerance.
    targets = corpus.load_targets(pipeline_dir / "extracted" / "targets.jsonl")
    sub = tmp_path / "sub.csv"
    with open(sub, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "text"])
        for h, t in targets.items():
            writer.writerow([h, t.di])
    ext = tmp_path / "ext.csv"
    write_external(
        ext,
        [
            [h, "submission", "di", metric, "1.0"]
            for h in targets
            for metric in ("bertscore", "alignscore", "medcon")
        ],
    )
    report = tmp_path / "report.csv"
    assert (
        run(
            "evaluate",
            "--submission", sub,
            "--references", pipeline_dir / "extracted" / "targets.jsonl",
            "--target", "di",
            "--external", ext,
            "--out", report,
        )
        == 0
    )
    rows = read_csv_rows(report)
    mean_overall = [r for r in rows if r[0] == "MEAN" and r[1] == "overall"]
    assert float(mean_overall[0][2]) == pytest.approx(1.0, abs=1e-6)


def test_evaluate_missing_external_exits_one(small_corpus, tmp_path, capsys):
    out = tmp_path / "x"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    targets = corpus.load_targets(out / "targets.jsonl")
    sub = tmp_path / "sub.csv"
    with open(sub, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "text"])
        for h, t in targets.items():
            writer.writerow([h, t.di])
    code = run(
        "evaluate",
        "--submission", sub,
        "--references", out / "targets.jsonl",
        "--target", "di",
        "--out", tmp_path / "never.csv",
    )
    assert code == 1
    assert "lacks" in capsys.readouterr().err


def test_evaluate_unknown_submission_id_exits_one(small_corpus, tmp_path):
    out = tmp_path / "x"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    sub = tmp_path / "sub.csv"
    sub.write_text("hadm_id,text\nmissing,hello\n", encoding="utf-8")
    assert (
        run(
            "evaluate",
            "--submission", sub,
            "--references", out / "targets.jsonl",
            "--target", "di",
            "--out", tmp_path / "never.csv",
        )
        == 1
    )


def test_evaluate_rejects_duplicate_submission_id(small_corpus, tmp_path, capsys):
    out = tmp_path / "x"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    sub = tmp_path / "sub.csv"
    sub.write_text("hadm_id,text\n100,rest at home\n101,rest\n100,drink water\n", encoding="utf-8")
    code = run(
        "evaluate",
        "--submission", sub,
        "--references", out / "targets.jsonl",
        "--target", "di",
        "--out", tmp_path / "never.csv",
    )
    assert code == 1
    assert "sub.csv: duplicate hadm_id '100' on rows 2 and 4" in capsys.readouterr().err


def test_submission_rows_are_physical_lines(small_corpus, tmp_path, capsys):
    # The quoted text of hadm_id 100 spans lines 2-3, so its duplicate sits on line 5.
    out = tmp_path / "x"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    sub = tmp_path / "sub.csv"
    sub.write_text('hadm_id,text\n100,"rest\nat home"\n101,rest\n100,drink water\n', encoding="utf-8")
    code = run(
        "evaluate",
        "--submission", sub,
        "--references", out / "targets.jsonl",
        "--target", "di",
        "--out", tmp_path / "never.csv",
    )
    assert code == 1
    assert "sub.csv: duplicate hadm_id '100' on rows 2 and 5" in capsys.readouterr().err


def test_evaluate_rejects_wrong_submission_field_count(small_corpus, tmp_path, capsys):
    out = tmp_path / "x"
    assert run("extract", "--corpus", small_corpus, "--out", out) == 0
    sub = tmp_path / "sub.csv"
    sub.write_text("hadm_id,text\n100,rest\n101,rest,again\n", encoding="utf-8")
    code = run(
        "evaluate",
        "--submission", sub,
        "--references", out / "targets.jsonl",
        "--target", "di",
        "--out", tmp_path / "never.csv",
    )
    assert code == 1
    assert "sub.csv: row 3: expected 2 fields, got 3" in capsys.readouterr().err


def test_correlate_unknown_overall_target_names_row(pipeline_dir, capsys):
    scores_path = pipeline_dir / "t_scores.csv"
    write_external(scores_path, [["1", "m", "di", "medcon", "0.5"]])
    overall_path = pipeline_dir / "t_overall.csv"
    overall_path.write_text("hadm_id,model_id,target,value\n1,m,di,0.5\n2,m,dx,0.7\n", encoding="utf-8")
    code = run(
        "correlate", "--scores", scores_path, "--overall", overall_path,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert "t_overall.csv: row 3: unknown target 'dx'" in capsys.readouterr().err


def test_correlate_rejects_duplicate_overall_row(pipeline_dir, capsys):
    scores_path = pipeline_dir / "dup_scores.csv"
    write_external(scores_path, [["1", "m", "di", "medcon", "0.5"], ["2", "m", "di", "medcon", "0.7"]])
    overall_path = pipeline_dir / "dup_overall.csv"
    overall_path.write_text(
        "hadm_id,model_id,target,value\n1,m,di,0.5\n2,m,di,0.7\n1,m,di,0.9\n", encoding="utf-8"
    )
    code = run(
        "correlate", "--scores", scores_path, "--overall", overall_path,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "dup_overall.csv: duplicate (hadm_id='1', model_id='m', target='di') on rows 2 and 4" in err


def test_correlate_rejects_wrong_overall_field_count(pipeline_dir, capsys):
    scores_path = pipeline_dir / "f_scores.csv"
    write_external(scores_path, [["1", "m", "di", "medcon", "0.5"]])
    overall_path = pipeline_dir / "f_overall.csv"
    overall_path.write_text("hadm_id,model_id,target,value\n1,m,di,0.5\n2,m,di,0.7,x\n", encoding="utf-8")
    code = run(
        "correlate", "--scores", scores_path, "--overall", overall_path,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert "f_overall.csv: row 3: expected 4 fields, got 5" in capsys.readouterr().err


def test_correlate_overall_key_missing_from_scores_names_the_file(pipeline_dir, capsys):
    scores_path = pipeline_dir / "k_scores.csv"
    write_external(scores_path, [[d, "m", "di", "medcon", f"{d}.5"] for d in "123"])
    overall_path = pipeline_dir / "k_overall.csv"
    overall_path.write_text(
        "hadm_id,model_id,target,value\n1,m,di,0.5\n2,m,di,0.7\n3,m,di,0.2\n9,m,di,0.1\n",
        encoding="utf-8",
    )
    code = run(
        "correlate", "--scores", scores_path, "--overall", overall_path,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{overall_path}: " in err and "(hadm_id='9', model_id='m')" in err
    assert "metric" not in err


def test_select_des4_overall_key_missing_from_scores_names_the_file(pipeline_dir, capsys):
    desin = select_setup(pipeline_dir)
    overall_path = pipeline_dir / "k_overall.csv"
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    with open(overall_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "value"])
        for i, c in enumerate(cands):
            if c.target is TargetKind.DI:
                writer.writerow([c.hadm_id, c.model_id, "di", f"{(i % 10) / 10}"])
        writer.writerow(["9", "m", "di", "0.5"])
    code = run(
        "select", "--scores", desin, "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des4", "--target", "di", "--overall", overall_path,
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{overall_path}: " in err and "(hadm_id='9', model_id='m')" in err
    assert "metric" not in err


def test_correlate_self_correlation(pipeline_dir):
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    score_rows = []
    overall_rows = []
    for i, c in enumerate(cands):
        if c.target is not TargetKind.DI:
            continue
        value = (i * 13 % 29) / 29
        score_rows.append([c.hadm_id, c.model_id, "di", "medcon", f"{value}"])
        overall_rows.append([c.hadm_id, c.model_id, "di", f"{value}"])
    scores_path = pipeline_dir / "corr_scores.csv"
    write_external(scores_path, score_rows)
    overall_path = pipeline_dir / "corr_overall.csv"
    with open(overall_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "value"])
        writer.writerows(overall_rows)
    out = pipeline_dir / "corr.csv"
    assert (
        run("correlate", "--scores", scores_path, "--overall", overall_path, "--out", out)
        == 0
    )
    rows = read_csv_rows(out)
    assert rows[0] == ["metric", "overall_variant", "r"]
    assert rows[1][0] == "medcon"
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-9)


def test_correlate_permuted_rows_identical(pipeline_dir):
    test_correlate_self_correlation(pipeline_dir)
    out1 = (pipeline_dir / "corr.csv").read_bytes()
    rows = read_csv_rows(pipeline_dir / "corr_scores.csv")
    header, body = rows[0], rows[1:]
    body.reverse()
    with open(pipeline_dir / "corr_scores.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)
    assert (
        run(
            "correlate",
            "--scores", pipeline_dir / "corr_scores.csv",
            "--overall", pipeline_dir / "corr_overall.csv",
            "--out", pipeline_dir / "corr.csv",
        )
        == 0
    )
    assert (pipeline_dir / "corr.csv").read_bytes() == out1


def test_simulate_oracle_beats_every_model(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--docs", 12, "--models", 3, "--seed", 5, "--config", "oracle", "--out", out) == 0
    rows = read_csv_rows(out / "leaderboard.csv")
    values = {r[0]: float(r[1]) for r in rows[1:]}
    oracle = values.pop("des:oracle")
    assert all(oracle >= v for v in values.values())


@pytest.mark.parametrize(
    "config, expected",
    [("des1", "0.5628230365"), ("des2", "0.5607529622"), ("des3", "0.553065231")],
)
def test_simulate_score_based_des_row_pinned(tmp_path, config, expected):
    # Pins the DES input table (meteor/medcon/alignscore against the note
    # body, plus readability) through the selection it drives.
    out = tmp_path / config
    assert run("simulate", "--docs", 12, "--models", 3, "--seed", 5, "--config", config, "--out", out) == 0
    assert [f"des:{config}", expected] in read_csv_rows(out / "leaderboard.csv")


def test_simulate_unknown_config_exits_one(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--docs", 2, "--models", 1, "--seed", 1, "--config", "des4", "--out", out) == 1
    assert "unknown config 'des4'" in capsys.readouterr().err


def test_simulate_unknown_config_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--docs", 50, "--models", 3, "--config", "nosuch", "--out", out) == 1
    assert "unknown config 'nosuch'" in capsys.readouterr().err
    assert not (out / "corpus.jsonl").exists()
    assert not (out / "candidates.jsonl").exists()


@pytest.mark.parametrize(
    "content, expected",
    [
        ("[]", "config must be a JSON object, got list"),
        ('{"criteria": {"metric": "medcon"}}', "'criteria' must be a list, got dict"),
        ('{"criteria": ["medcon"]}', "criterion 0 must be an object with 'metric' and 'weight'"),
        ('{"criteria": [{"weight": 1}]}', "criterion 0 needs a 'metric' string, got None"),
        ('{"criteria": [{"metric": "medcon"}]}', "criterion 'medcon' is missing 'weight'"),
        ('{"criteria": [{"metric": "medcon", "weight": "1/0"}]}', "criterion 'medcon': cannot parse weight '1/0'"),
        ('{"criteria": [{"metric": "medcon", "weight": 1, "scope": "all"}]}', "criterion 'medcon': unknown scope"),
    ],
)
def test_simulate_config_of_wrong_shape_names_file_and_metric(tmp_path, capsys, content, expected):
    cfg = tmp_path / "c.json"
    cfg.write_text(content, encoding="utf-8")
    out = tmp_path / "sim"
    assert run("simulate", "--docs", 2, "--models", 1, "--config", cfg, "--out", out) == 1
    assert f"{cfg}: {expected}" in capsys.readouterr().err
    assert not out.exists()


def test_config_files_that_are_not_json_exit_1(pipeline_dir, capsys):
    broken = pipeline_dir / "broken.json"
    broken.write_text("{", encoding="utf-8")
    out = pipeline_dir / "never"
    expected = f"error: {broken}: not valid JSON: Expecting property name enclosed in double quotes"
    for argv in (
        ("reorder", "--corpus", pipeline_dir / "corpus.jsonl", "--apply-ranking", broken, "--out", out),
        ("simulate", "--docs", 2, "--models", 1, "--config", broken, "--out", out),
    ):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected), err
        assert err.count(str(broken)) == 1, err
    assert not out.exists()


def test_simulate_single_model_equals_des(tmp_path):
    out = tmp_path / "sim1"
    assert run("simulate", "--docs", 6, "--models", 1, "--seed", 2, "--config", "oracle", "--out", out) == 0
    rows = read_csv_rows(out / "leaderboard.csv")
    values = {r[0]: float(r[1]) for r in rows[1:]}
    assert values["des:oracle"] == pytest.approx(values["model:model_a"], abs=1e-12)


def test_simulate_seeded_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert run("simulate", "--docs", 8, "--models", 2, "--seed", 3, "--config", "des5", "--out", out) == 0
    assert (out1 / "leaderboard.csv").read_bytes() == (out2 / "leaderboard.csv").read_bytes()


def test_threads_flag_validated(pipeline_dir, capsys):
    code = run(
        "score",
        "--candidates", pipeline_dir / "candidates.jsonl",
        "--metrics", "cli",
        "--out", pipeline_dir / "never.csv",
        "--threads", 0,
    )
    assert code == 1



def test_non_utf8_jsonl_input_names_file_and_line(pipeline_dir, capsys):
    lines = (pipeline_dir / "candidates.jsonl").read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b'"text": "', b'"text": "\xff', 1)
    bad = pipeline_dir / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    code = run(
        "score", "--candidates", bad, "--references", pipeline_dir / "extracted" / "targets.jsonl",
        "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}: line {len(lines)}: not UTF-8: 'utf-8' codec can't decode byte 0xff" in err
    assert not (pipeline_dir / "never.csv").exists()


def test_non_utf8_csv_input_names_file_and_line(pipeline_dir, capsys):
    scores_path = select_setup(pipeline_dir)
    lines = scores_path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b",", b"\xe9,", 1)
    scores_path.write_bytes(b"".join(lines))
    code = run(
        "select", "--scores", scores_path, "--candidates", pipeline_dir / "candidates.jsonl",
        "--config", "des1", "--target", "di", "--out", pipeline_dir / "never.csv",
    )
    assert code == 1
    assert f"{scores_path}: line 6: not UTF-8: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["scores", "overall"])
def test_a_csv_field_over_the_limit_exits_one(tmp_path, capsys, bad):
    """A record the csv module refuses is an error naming the file and row, not a traceback."""
    paths = {"scores": tmp_path / "scores.csv", "overall": tmp_path / "overall.csv"}
    values = ["0.1", "0.2", "0.3"]
    big = '"' + "9" * (csv.field_size_limit() + 1) + '"'
    write_external(paths["scores"], [[str(i), "m", "di", "medcon", v] for i, v in enumerate(values)])
    paths["overall"].write_text(
        "hadm_id,model_id,target,value\n" + "".join(f"{i},m,di,{v}\n" for i, v in enumerate(values)),
        encoding="utf-8",
    )
    lines = paths[bad].read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace(values[1], big)
    paths[bad].write_text("".join(lines), encoding="utf-8")
    code = run("correlate", "--scores", paths["scores"], "--overall", paths["overall"], "--out", tmp_path / "never.csv")
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {paths[bad]}: row 3: field larger than field limit ({csv.field_size_limit()})\n"
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("metrics", ["", "bleu4,,meteor", "meteor,"])
def test_empty_metric_names_exit_one(pipeline_dir, capsys, metrics):
    scores_path = pipeline_dir / "m_scores.csv"
    write_external(scores_path, [[str(i), "m", "di", "medcon", f"0.{i}"] for i in range(1, 4)])
    overall_path = pipeline_dir / "m_overall.csv"
    overall_path.write_text("hadm_id,model_id,target,value\n1,m,di,0.5\n2,m,di,0.7\n3,m,di,0.2\n", encoding="utf-8")
    commands = [
        ["score", "--candidates", pipeline_dir / "candidates.jsonl",
         "--references", pipeline_dir / "extracted" / "targets.jsonl"],
        ["correlate", "--scores", scores_path, "--overall", overall_path],
    ]
    for command in commands:
        assert run(*command, "--metrics", metrics, "--out", pipeline_dir / "never.csv") == 1
        assert capsys.readouterr().err == f"error: --metrics {metrics!r}: empty metric name\n"
        assert not (pipeline_dir / "never.csv").exists()

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_manifest_config_hash_stable_across_reruns(small_corpus, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("extract", "--corpus", small_corpus, "--out", out1) == 0
    assert run("extract", "--corpus", small_corpus, "--out", out2) == 0
    m1 = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    m2 = json.loads((out2 / "manifest.json").read_text(encoding="utf-8"))
    assert m1["command"] == m2["command"] == "extract"
    assert m1["inputs"] == m2["inputs"]
    # Same inputs + same flags means the same hash; --out differs here, so
    # hashes may differ, but each manifest records the corpus digest.
    assert list(m1["inputs"].values())[0] == list(m2["inputs"].values())[0]
    import shutil

    shutil.rmtree(out1)
    assert run("extract", "--corpus", small_corpus, "--out", out1) == 0
    m3 = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    assert m3["config_hash"] == m1["config_hash"]
    # Output files are byte-identical; only the manifest timestamp moves.
    assert (out1 / "targets.jsonl").read_bytes() == (out2 / "targets.jsonl").read_bytes()


def test_simulate_scores_alignscore_once_per_candidate(tmp_path, monkeypatch):
    # The DES table takes alignscore from the overall table's on_body rows.
    from dischargekit import scores

    calls = []
    alignscore = scores.METRICS["alignscore"]
    monkeypatch.setitem(scores.METRICS, "alignscore", lambda a, b: calls.append(1) or alignscore(a, b))
    out = tmp_path / "sim"
    assert run("simulate", "--docs", 3, "--models", 2, "--config", "des1", "--threads", 1, "--out", out) == 0
    assert len(calls) == len(corpus.load_candidates(out / "candidates.jsonl")) == 12


def test_manifests_list_header_and_config_files(pipeline_dir):
    import hashlib

    headers = pipeline_dir / "headers.txt"
    headers.write_text("\n".join(corpus.default_known_headers()) + "\n", encoding="utf-8")
    cfg = pipeline_dir / "cfg.json"
    cfg.write_text('{"criteria": [{"metric": "medcon", "weight": 1}]}', encoding="utf-8")
    ranking, nosuch = pipeline_dir / "r.json", pipeline_dir / "nosuch.csv"
    ranking.write_text('{"medications": 1.0}', encoding="utf-8")
    corpus_path, cands = pipeline_dir / "corpus.jsonl", pipeline_dir / "candidates.jsonl"
    targets, desin = pipeline_dir / "extracted" / "targets.jsonl", select_setup(pipeline_dir)
    select = ("select", "--scores", desin, "--candidates", cands, "--target", "di")
    simulate = ("simulate", "--docs", 3, "--models", 2)
    reorder = ("reorder", "--corpus", corpus_path, "--section-scores", nosuch)
    cases = [  # argv, output, files read; a preset name is not a file, nor is a file left unread
        (("extract", "--corpus", corpus_path, "--headers", headers), "ext", [corpus_path, headers]),
        (("reorder", "--corpus", corpus_path, "--reference-targets", targets, "--headers", headers),
         "reordered.jsonl", [corpus_path, targets, headers]),
        ((*select, "--config", cfg), "cfg.csv", [cands, desin, cfg]),
        ((*select, "--config", "des1"), "des1.csv", [cands, desin]),
        ((*simulate, "--config", cfg), "sim_cfg", [cfg]),
        ((*simulate, "--config", "des1"), "sim_des1", []),
        ((*select, "--config", "des5", "--ranking", "model_a,model_b", "--overall", nosuch), "des5.csv",
         [cands, desin]),
        ((*reorder, "--apply-ranking", ranking, "--reference-targets", nosuch), "applied.jsonl",
         [corpus_path, ranking]),
        ((*reorder, "--reference-targets", targets), "global.jsonl", [corpus_path, targets]),
    ]
    for argv, name, files in cases:
        out = pipeline_dir / name
        assert run(*argv, "--out", out) == 0
        manifest = out / "manifest.json" if out.is_dir() else out.with_name(name + ".manifest.json")
        inputs = json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
        assert inputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}, argv


def test_cell_repeated_across_external_files_names_file_and_row(pipeline_dir, tmp_path, capsys):
    targets = pipeline_dir / "extracted" / "targets.jsonl"
    docs = list(corpus.load_targets(targets))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    submission = tmp_path / "sub.csv"
    corpus.write_csv_records(submission, ("hadm_id", "text"), [(doc, "rest at home") for doc in docs])
    for argv, model in [
        (("score", "--candidates", pipeline_dir / "candidates.jsonl", "--references", targets), "model_a"),
        (("evaluate", "--submission", submission, "--references", targets, "--target", "di"), "submission"),
    ]:
        rows = [[doc, model, "di", "bertscore", "0.5"] for doc in docs[:2]]
        write_external(first, rows[1:])
        write_external(second, rows)
        code = run(*argv, "--external", first, "--external", second, "--out", tmp_path / "never.csv")
        assert code == 1
        cell = f"(hadm_id='{docs[1]}', model_id='{model}', metric='bertscore')"
        assert f"{second}: duplicate cell {cell} on row 3" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_empty_candidate_is_a_missing_readability_cell(pipeline_dir, capsys):
    cands = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    doc = next(c.hadm_id for c in cands if c.target is TargetKind.DI)
    empty = (doc, "model_b", TargetKind.DI)
    broken = [
        c._replace(text="") if (c.hadm_id, c.model_id, c.target) == empty else c
        for c in cands
    ]
    corpus.write_candidates(pipeline_dir / "broken.jsonl", broken)
    scored = pipeline_dir / "broken_scores.csv"
    assert run("score", "--candidates", pipeline_dir / "broken.jsonl",
               "--references", pipeline_dir / "extracted" / "targets.jsonl",
               "--metrics", "meteor,cli", "--out", scored) == 0
    assert "(1 undefined)" in capsys.readouterr().err
    cfg = pipeline_dir / "cli_meteor.json"
    cfg.write_text(
        '{"criteria": [{"metric": "cli", "weight": "1/2"}, {"metric": "meteor", "weight": "1/2"}]}',
        encoding="utf-8",
    )
    select = ("select", "--scores", scored, "--candidates", pipeline_dir / "broken.jsonl",
              "--config", cfg, "--target", "di")
    assert run(*select, "--out", pipeline_dir / "never.csv") == 1
    assert f"missing cell (hadm_id={doc!r}, model_id='model_b', metric='cli')" in capsys.readouterr().err
    assert not (pipeline_dir / "never.csv").exists()
    assert run(*select, "--lenient", "--out", pipeline_dir / "lenient.csv") == 0
    assert len(read_csv_rows(pipeline_dir / "lenient.csv")) == 1 + 6


def _write_large_candidates(path, docs, models, size):
    """``docs`` x ``models`` x 2 targets candidates of ``size`` characters each,
    and a des1 score CSV for them."""
    rows, cells = [], []
    for d in range(docs):
        for m in range(models):
            for target in ("bhc", "di"):
                word = f"{target}{d}m{m} "
                rows.append((f"{d}", f"m{m}", target, (word * (size // len(word) + 1))[:size]))
                cells += [[f"{d}", f"m{m}", target, metric, f"{(d * 7 + m * 3 + j) % 11 / 11}"]
                          for j, metric in enumerate(("medcon", "meteor"))]
    corpus.write_jsonl_records(path, corpus.CANDIDATE_FIELDS, rows)
    write_external(path.with_suffix(".csv"), cells)
    return path.with_suffix(".csv")


def test_select_holds_one_text_per_document(tmp_path):
    import tracemalloc

    docs, models, size = 50, 4, 20_000
    cands = tmp_path / "large.jsonl"
    scores_path = _write_large_candidates(cands, docs, models, size)
    select = ("select", "--scores", scores_path, "--candidates", cands, "--config", "des1", "--target", "di")
    # The first run imports the scoring modules, so the traced run counts only the data it holds.
    assert run(*select, "--out", tmp_path / "warm.csv") == 0
    tracemalloc.start()
    try:
        assert run(*select, "--out", tmp_path / "sub.csv") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = read_csv_rows(tmp_path / "sub.csv")
    assert len(rows) == 1 + docs and all(len(text) == size for _, text in rows[1:])
    # The target's texts total 4 MB; the winners' texts are a quarter of that.
    assert peak < docs * models * size / 2, peak


def test_select_reads_crlf_candidates_with_blank_lines_as_their_lf_form(pipeline_dir):
    desin = select_setup(pipeline_dir)
    lf = pipeline_dir / "candidates.jsonl"
    crlf = pipeline_dir / "crlf.jsonl"
    crlf.write_bytes(b"\r\n  \r\n" + lf.read_bytes().replace(b"\n", b"\r\n\r\n"))
    for config in (("des1",), ("des5", "--ranking", "model_b,model_a")):
        outs = []
        for cands in (lf, crlf):
            out = pipeline_dir / f"{config[0]}_{cands.stem}.csv"
            assert run("select", "--scores", desin, "--candidates", cands, "--config", *config,
                       "--target", "di", "--out", out) == 0
            outs.append(out.read_bytes() + out.with_name(out.name + ".tally.json").read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("edit", [{"model_id": "model_z"}, {"text": "rewritten"}])
def test_select_names_a_winner_line_rewritten_between_passes(pipeline_dir, capsys, monkeypatch, edit):
    from dischargekit import des

    desin, cands = select_setup(pipeline_dir), pipeline_dir / "candidates.jsonl"
    select_experts, rewritten = des.select_experts, []

    def select_then_rewrite(*args, **kwargs):
        result = select_experts(*args, **kwargs)
        winner = result.selections[-1]
        lines = cands.read_text(encoding="utf-8").splitlines(keepends=True)
        for lineno, line in enumerate(lines, start=1):
            record = json.loads(line)
            if (record["hadm_id"], record["model_id"], record["target"]) == (winner.hadm_id, winner.model_id, "di"):
                lines[lineno - 1] = json.dumps({**record, **edit}) + "\n"
                rewritten.append(lineno)
        cands.write_text("".join(lines), encoding="utf-8")
        return result

    monkeypatch.setattr(des, "select_experts", select_then_rewrite)
    out = pipeline_dir / "never.csv"
    code = run("select", "--scores", desin, "--candidates", cands, "--config", "des1", "--target", "di", "--out", out)
    assert code == 1
    assert f"error: {cands}: line {rewritten[0]}: candidate changed since it was read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--references", "--against-ds"])
def test_score_missing_reference_names_both_files_and_the_line(pipeline_dir, flag, capsys):
    name = "targets.jsonl" if flag == "--references" else "bodies.jsonl"
    source = pipeline_dir / "extracted" / name
    lines = source.read_text(encoding="utf-8").splitlines()
    dropped = json.loads(lines[1])["hadm_id"]
    source.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
    candidates = pipeline_dir / "candidates.jsonl"
    line = next(i for i, text in enumerate(candidates.read_text(encoding="utf-8").splitlines(), 1)
                if json.loads(text)["hadm_id"] == dropped)
    out = pipeline_dir / "never.csv"
    assert run("score", "--candidates", candidates, flag, source, "--out", out) == 1
    what = "reference" if flag == "--references" else "discharge summary"
    assert capsys.readouterr().err == (
        f"error: {candidates}: line {line}: no {what} for hadm_id {dropped!r} in {source}\n"
    )
    assert not out.exists()


def test_score_manifest_counts_documents_models_candidates_and_cells(pipeline_dir, tmp_path, capsys):
    candidates = corpus.load_candidates(pipeline_dir / "candidates.jsonl")
    empty = (candidates[0].hadm_id, candidates[0].model_id, candidates[0].target)
    corpus.write_candidates(tmp_path / "cands.jsonl", [
        c._replace(text="") if (c.hadm_id, c.model_id, c.target) == empty else c for c in candidates
    ])
    out = tmp_path / "scores.csv"
    assert run("score", "--candidates", tmp_path / "cands.jsonl", "--references",
               pipeline_dir / "extracted" / "targets.jsonl", "--out", out) == 0
    written = len(read_csv_rows(out)) - 1
    assert capsys.readouterr().err == f"wrote {written} score cells (3 undefined) -> {out}\n"
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"] == {
        "documents": 6, "models": 2, "candidates": 24, "cells": written, "undefined_cells": 3,
    }
    assert written == 24 * 8 - 3


@pytest.mark.parametrize("magnitude", [1e308, 1e300, 1e-300])
def test_correlate_and_des4_are_right_at_extreme_magnitudes(pipeline_dir, magnitude):
    from dischargekit.analysis import pearson

    cands = [c for c in corpus.load_candidates(pipeline_dir / "candidates.jsonl") if c.target is TargetKind.DI]
    xs = [(-1) ** i * magnitude * (1 + (i * 7 % 5) / 10) for i in range(len(cands))]
    ys = [(i * 13 % 29) / 29 for i in range(len(cands))]
    scores_path, overall_path = pipeline_dir / "extreme.csv", pipeline_dir / "extreme_overall.csv"
    write_external(scores_path, [[c.hadm_id, c.model_id, "di", "medcon", repr(x)] for c, x in zip(cands, xs)])
    with open(overall_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "value"])
        writer.writerows([c.hadm_id, c.model_id, "di", repr(y)] for c, y in zip(cands, ys))
    # A power of two scales exactly, so the pre-scaled vector has the same r.
    expected = pearson([math.ldexp(x, -round(math.log2(magnitude))) for x in xs], ys)
    assert 0.1 < abs(expected) < 1.0

    out = pipeline_dir / "extreme_corr.csv"
    assert run("correlate", "--scores", scores_path, "--overall", overall_path, "--out", out) == 0
    assert read_csv_rows(out)[1] == ["medcon", "overall_pooled", f"{expected:.10g}"]
    sub = pipeline_dir / "extreme_des4.csv"
    assert run("select", "--scores", scores_path, "--candidates", pipeline_dir / "candidates.jsonl",
               "--config", "des4", "--target", "di", "--overall", overall_path, "--out", sub) == 0
    derived = json.loads(sub.with_name(sub.name + ".des4.json").read_text(encoding="utf-8"))
    assert derived["criteria"] == [{"metric": "medcon", "weight": expected, "scope": "both"}]
