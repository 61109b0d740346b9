from __future__ import annotations

import csv
import gc
import math
import random
from array import array
import time
import tracemalloc
from pathlib import Path

import pytest

from dischargekit.corpus import (
    DischargeSummary,
    ExtractedTargets,
    GeneratedCandidate,
    TargetKind,
)
from dischargekit import readability, relevance, scores
from dischargekit.analysis import correlation_matrix
from dischargekit.des import PRESETS, derive_des4_weights, select_experts
from dischargekit.readability import DegenerateTextError
from dischargekit.scores import (
    METRICS,
    NATIVE_METRICS,
    OVERALL_METRICS,
    ScoreError,
    overall_score,
    read_score_csv,
    write_score_csv,
)
from dischargekit.synthetic import generate_synthetic_corpus, synthetic_external_rows
from dischargekit.tables import (
    ScoreTable,
    ScoreTableBuilder,
    compute_factuality_proxies,
    compute_native_scores,
    load_external_scores,
    overall_by_document,
)
from dischargekit.textprep import tokenize

FIXTURE = Path(__file__).parent / "data" / "leaderboard_rows.csv"


def cand(hadm_id="1", model_id="m", target=TargetKind.DI, text="rest at home"):
    return GeneratedCandidate(
        hadm_id=hadm_id,
        model_id=model_id,
        target=target,
        text=text,
    )


def refs(**kwargs):
    return {
        h: ExtractedTargets(hadm_id=h, bhc=v.get("bhc", ""), di=v.get("di", ""))
        for h, v in kwargs.items()
    }


def test_identity_candidate_scores_one():
    table = compute_native_scores(
        [cand(text="rest at home now")],
        references=refs(**{"1": {"di": "rest at home now"}}),
        metrics=["rouge_1"],
    )
    assert table.get("1", "m", "rouge_1") == 1.0


def test_metric_registry_binds_bare_functions():
    # Values are the function objects themselves, so a rebinding by identity
    # (as benchmarks/tracer.py does) reaches every use of a metric.
    assert set(METRICS) == set(NATIVE_METRICS) | {"bertscore", "medcon", "alignscore"}
    assert METRICS["rouge_2"] is METRICS["alignscore"] is relevance.rouge_2
    assert METRICS["cli"] is readability.cli


def test_score_pool_tokenizes_each_candidate_once(monkeypatch):
    calls = []
    real = scores.tokenize
    monkeypatch.setattr(scores, "tokenize", lambda text: calls.append(text) or real(text))
    pool = [cand(model_id="a", text="Rest at home. Drink water."), cand(model_id="b")]
    table = compute_native_scores(pool, refs(**{"1": {"di": "rest at home"}}), target=TargetKind.DI)
    assert len(calls) == 2
    assert not any(math.isnan(v) for column in table.columns for v in column)


def test_readability_only_needs_no_references():
    table = compute_native_scores([cand(text="Rest at home. Drink water.")], metrics=["fkgl", "cli", "dcrs"])
    assert not math.isnan(table.get("1", "m", "fkgl"))


def test_reference_metric_without_reference_errors():
    with pytest.raises(ScoreError, match="need references"):
        compute_native_scores([cand()], metrics=["bleu4"])
    with pytest.raises(ScoreError, match="no reference for hadm_id '1'"):
        compute_native_scores([cand()], references={}, metrics=["bleu4"])


def test_full_native_suite_fills_every_cell_on_100_docs():
    summaries, candidates = generate_synthetic_corpus(100, 1, seed=4)
    targets = {s.hadm_id: s.targets for s in summaries}
    table = compute_native_scores(candidates, references=targets, target=TargetKind.DI)
    assert (len(table.documents), len(table.models), len(table.metrics)) == (100, 1, 8)
    assert [len(column) for column in table.columns] == [100] * 8
    assert not any(math.isnan(v) for column in table.columns for v in column)
    assert table.metrics == tuple(sorted(["bleu4", "rouge_1", "rouge_2", "rouge_l", "meteor", "fkgl", "dcrs", "cli"]))


def test_readability_error_names_the_candidate():
    # The formulas raise for direct callers, but to scoring an undefined
    # formula is a missing cell: the empty candidate's cells are NaN.
    pool = [cand(text="Rest at home."), cand(hadm_id="7", model_id="mx", text="")]
    for formula in (readability.fkgl, readability.dcrs, readability.cli):
        with pytest.raises(DegenerateTextError):
            formula(tokenize(""))
    table = compute_native_scores(pool)
    assert sorted(table.metrics) == sorted(scores.READABILITY_METRICS)
    for metric in scores.READABILITY_METRICS:
        assert math.isfinite(table.get("1", "m", metric))
        assert math.isnan(table.get("7", "mx", metric))
    rows = scores.score_jobs([scores.native_score_job(pool)], 1)[0]
    assert {(doc, model) for doc, model, *_ in rows} == {("1", "m")}


def test_factuality_proxies_use_ds_suffix():
    summary = DischargeSummary(hadm_id="1", full_text="x", body_without_targets="rest at home")
    table = compute_factuality_proxies([cand(text="rest at home")], [summary])
    assert table.metrics == ("meteor_ds",)
    assert table.get("1", "m", "meteor_ds") > 0.9


def test_factuality_proxy_zero_overlap():
    summary = DischargeSummary(hadm_id="1", full_text="x", body_without_targets="unrelated words only")
    table = compute_factuality_proxies([cand(text="rest at home")], [summary])
    assert table.get("1", "m", "meteor_ds") == 0.0


def test_factuality_proxy_unresolved_hadm_id():
    with pytest.raises(ScoreError, match="no discharge summary"):
        compute_factuality_proxies([cand()], [])


def test_reference_and_ds_variants_coexist():
    summary = DischargeSummary(hadm_id="1", full_text="x", body_without_targets="stay warm inside")
    native = compute_native_scores(
        [cand(text="rest at home")],
        references=refs(**{"1": {"di": "rest at home"}}),
        metrics=["meteor"],
    )
    proxy = compute_factuality_proxies([cand(text="rest at home")], [summary])
    merged = ScoreTable.from_rows(native.to_rows() + proxy.to_rows(), TargetKind.DI)
    assert "meteor" in merged.metrics and "meteor_ds" in merged.metrics
    assert merged.get("1", "m", "meteor") != merged.get("1", "m", "meteor_ds")


def external_csv(tmp_path, rows, name="ext.csv"):
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "metric", "value"])
        writer.writerows(rows)
    return path


def axes_and_rows(table):
    return table.target, table.documents, table.models, table.metrics, table.to_rows()


def base_table():
    return compute_native_scores(
        [cand(text="rest at home")],
        references=refs(**{"1": {"di": "rest at home"}}),
        metrics=["rouge_1"],
    )


def test_external_scores_merge_and_read_back(tmp_path):
    path = external_csv(tmp_path, [["1", "m", "di", "medcon", "0.4"]])
    merged = load_external_scores(path, base_table())
    assert merged.get("1", "m", "medcon") == 0.4
    assert merged.get("1", "m", "rouge_1") == 1.0


def test_external_collision_with_native_name(tmp_path):
    path = external_csv(tmp_path, [["1", "m", "di", "rouge_1", "0.5"]])
    with pytest.raises(ScoreError, match="collide"):
        load_external_scores(path, base_table())


def test_external_nan_rejected_with_row_number(tmp_path):
    path = external_csv(tmp_path, [["1", "m", "di", "medcon", "nan"]])
    with pytest.raises(ScoreError, match="row 2"):
        load_external_scores(path, base_table())


def test_external_unknown_ids_listed(tmp_path):
    path = external_csv(tmp_path, [["9", "mx", "di", "medcon", "0.1"]])
    with pytest.raises(ScoreError, match=r"ext\.csv: .*unknown hadm_id/model_id: 9, mx"):
        load_external_scores(path, base_table())


def test_external_duplicate_cell(tmp_path):
    path = external_csv(
        tmp_path,
        [["1", "m", "di", "medcon", "0.1"], ["1", "m", "di", "medcon", "0.2"]],
    )
    with pytest.raises(ScoreError, match=r"ext\.csv: duplicate cell"):
        load_external_scores(path, base_table())


def test_score_csv_unknown_target_names_file_and_row(tmp_path):
    path = external_csv(tmp_path, [["1", "m", "di", "medcon", "0.1"], ["1", "m", "dx", "medcon", "0.2"]])
    with pytest.raises(ScoreError, match=r"ext\.csv: row 3: unknown target 'dx'"):
        read_score_csv(path)


def test_external_clash_names_its_first_row_in_file_order(tmp_path):
    base = ScoreTable.from_rows(
        [("1", "m", "di", "b", 0.1), ("2", "m", "di", "a", 0.2)], TargetKind.DI, ["1", "2"], ["m"]
    )
    # The file's rows clash in reverse table order; the first row is named.
    path = external_csv(tmp_path, [["2", "m", "di", "a", "0.3"], ["1", "m", "di", "b", "0.4"]])
    with pytest.raises(
        ScoreError, match=r"ext\.csv: duplicate cell \(hadm_id='2', model_id='m', metric='a'\) on row 2$"
    ):
        load_external_scores(path, base)
    disjoint = external_csv(tmp_path, [["1", "m", "di", "c", "0.5"]], name="c.csv")
    merged = load_external_scores(disjoint, base)
    assert sorted(merged.to_rows()) == sorted(base.to_rows() + [("1", "m", "di", "c", 0.5)])


def test_external_native_name_is_rejected_on_an_undefined_cell(tmp_path):
    # The empty candidate's fkgl cell is missing, but the name stays native.
    table = compute_native_scores([cand(text="")], metrics=["fkgl"])
    assert math.isnan(table.get("1", "m", "fkgl"))
    path = external_csv(tmp_path, [["1", "m", "di", "medcon", "0.4"], ["1", "m", "di", "fkgl", "5"]])
    with pytest.raises(ScoreError, match=r"ext\.csv: external metric names collide with native metrics: fkgl on row 3$"):
        load_external_scores(path, table)


def test_external_rows_for_other_target_ignored(tmp_path):
    path = external_csv(tmp_path, [["1", "m", "bhc", "medcon", "0.4"]])
    merged = load_external_scores(path, base_table())
    assert "medcon" not in merged.metrics


def test_external_merge_is_order_independent(tmp_path):
    a = external_csv(tmp_path, [["1", "m", "di", "medcon", "0.4"]], name="a.csv")
    b = external_csv(tmp_path, [["1", "m", "di", "bertscore", "0.7"]], name="b.csv")
    t1 = load_external_scores(b, load_external_scores(a, base_table()))
    t2 = load_external_scores(a, load_external_scores(b, base_table()))
    assert axes_and_rows(t1) == axes_and_rows(t2)


def test_table_rejects_duplicate_axis_labels():
    def missing_cells(documents, models, metrics):
        columns = tuple(array("d", [math.nan] * (len(documents) * len(models))) for _ in metrics)
        return ScoreTable(TargetKind.DI, documents, models, metrics, columns)

    with pytest.raises(ScoreError, match="duplicate hadm_id labels: 1$"):
        missing_cells(("1", "2", "1"), ("m",), ("a",))
    with pytest.raises(ScoreError, match="duplicate model_id labels: m$"):
        missing_cells(("1",), ("m", "n", "m"), ("a",))
    with pytest.raises(ScoreError, match="duplicate metric labels: a$"):
        missing_cells(("1",), ("m",), ("a", "a"))
    with pytest.raises(ScoreError, match="duplicate hadm_id labels: 1$"):
        ScoreTable.from_rows([("1", "m", "di", "a", 0.5)], TargetKind.DI, ["1", "1"], ["m"])



def test_table_rejects_wrong_column_lengths_and_unsorted_metrics():
    docs, models = ("1", "2"), ("m", "n")
    with pytest.raises(ScoreError, match=r"column lengths \[4, 3\] != 2 x 4 cells"):
        ScoreTable(TargetKind.DI, docs, models, ("a", "b"), (array("d", [0.0] * 4), array("d", [0.0] * 3)))
    with pytest.raises(ScoreError, match=r"column lengths \[4\] != 2 x 4 cells"):
        ScoreTable(TargetKind.DI, docs, models, ("a", "b"), (array("d", [0.0] * 4),))
    with pytest.raises(ScoreError, match="metrics must be sorted"):
        ScoreTable(TargetKind.DI, docs, models, ("b", "a"), (array("d", [0.0] * 4),) * 2)

def _index_rows(n_docs: int) -> list[tuple[str, str, str, str, float]]:
    rng = random.Random(n_docs)
    return [
        (f"d{i}", f"m{j}", "di", metric, rng.random())
        for i in range(n_docs)
        for j in range(4)
        for metric in OVERALL_METRICS
    ]


def test_index_layers_scale_linearly_in_documents():
    # A relative bound: 4x the documents may take at most 6x the time, so a
    # per-lookup scan over the document axis (quadratic overall) fails. The
    # sizes alternate so that a slow spell of a shared host hits both, and
    # each size keeps its fastest of 5 runs.
    rows = {n: _index_rows(n) for n in (500, 2000)}
    best = dict.fromkeys(rows, math.inf)
    for _ in range(5):
        for n, size_rows in rows.items():
            gc.collect()
            start = time.perf_counter()
            table = ScoreTable.from_rows(size_rows, TargetKind.DI)
            overall = overall_by_document(table)
            select_experts(table, PRESETS["des1"], TargetKind.DI)
            derive_des4_weights(table, overall)
            correlation_matrix(table, overall)
            best[n] = min(best[n], time.perf_counter() - start)
    ratio = best[2000] / best[500]
    assert ratio < 6, f"t(2000)/t(500) = {best[2000]:.3f}/{best[500]:.3f} s = {ratio:.1f}"


def _write_random_score_csv(path: Path, n_docs: int) -> int:
    """Both targets, 4 models and 11 metrics per document, as select_large writes them."""
    rng = random.Random(n_docs)
    metrics = sorted(NATIVE_METRICS + ("alignscore", "bertscore", "medcon"))
    rows = [
        (f"{30000000 + d}", f"model_{m}", target, metric, rng.random())
        for target in ("bhc", "di")
        for d in range(n_docs)
        for m in range(4)
        for metric in metrics
    ]
    write_score_csv(path, rows)
    return len(rows)


def test_reading_a_score_csv_into_a_table_holds_bytes_per_cell_not_per_row(tmp_path):
    # One target of two is kept, at 8 bytes per cell; a row list of tuples
    # took about 330 bytes per row. Both sizes must stay under the bounds,
    # so growth faster than linear shows in the larger one.
    for n_docs in (100, 400):
        path = tmp_path / f"scores_{n_docs}.csv"
        n_rows = _write_random_score_csv(path, n_docs)
        docs = [f"{30000000 + d}" for d in range(n_docs)]
        gc.collect()
        tracemalloc.start()
        try:
            builder = ScoreTableBuilder((TargetKind.DI,), docs, [f"model_{m}" for m in range(4)])
            builder.read_csv(path)
            table = builder.tables()[TargetKind.DI]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.columns) == 11 and not math.isnan(table.get(docs[-1], "model_3", "rouge_l"))
        assert held / n_rows < 12, f"{n_docs} docs: {held / n_rows:.1f} bytes held per row"
        assert peak / n_rows < 16, f"{n_docs} docs: {peak / n_rows:.1f} bytes at peak per row"


def test_score_csv_roundtrip(tmp_path):
    table = base_table()
    path = tmp_path / "scores.csv"
    write_score_csv(path, table.to_rows())
    rows = read_score_csv(path)
    rebuilt = ScoreTable.from_rows(rows, TargetKind.DI)
    assert axes_and_rows(rebuilt) == axes_and_rows(table)


def test_overall_score_mean_and_validation():
    components = {m: 0.5 for m in OVERALL_METRICS}
    assert overall_score(components).value == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ScoreError, match="missing"):
        overall_score({m: 0.5 for m in OVERALL_METRICS[:-1]})
    with pytest.raises(ScoreError, match="unexpected"):
        overall_score({**components, "summac": 0.5})


def load_leaderboard_rows():
    with open(FIXTURE, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_leaderboard_fixture_shape():
    rows = load_leaderboard_rows()
    assert len(rows) == 18
    assert all(len(r) == 10 for r in rows)


@pytest.mark.parametrize(
    "label,expected",
    [("DES 5", 0.332), ("Mistral-7B-I-v0.2 + A.", 0.307)],
)
def test_overall_score_published_examples(label, expected):
    row = next(r for r in load_leaderboard_rows() if r["row_label"] == label)
    components = {m: float(row[m]) for m in OVERALL_METRICS}
    assert overall_score(components).value == pytest.approx(expected, abs=5e-4)


def test_overall_by_document_requires_all_metrics():
    table = base_table()
    with pytest.raises(ScoreError, match="lacks"):
        overall_by_document(table)


def test_overall_by_document_values():
    rows = [("1", "m", "di", metric, 0.25) for metric in OVERALL_METRICS]
    table = ScoreTable.from_rows(rows, TargetKind.DI)
    assert overall_by_document(table) == {("1", "m"): pytest.approx(0.25)}


def test_synthetic_external_rows_cover_all_candidates():
    summaries, candidates = generate_synthetic_corpus(4, 2, seed=9)
    targets = {s.hadm_id: s.targets for s in summaries}
    rows = synthetic_external_rows(candidates, targets, summaries)
    assert len(rows) == len(candidates) * 3
    assert {r[3] for r in rows} == {"bertscore", "medcon", "alignscore"}
    assert all(0.0 <= r[4] <= 1.0 for r in rows)
