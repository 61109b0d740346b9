"""Acceptance suite: one criterion per test (or parametrized test group).

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion. Each test pins its tolerance inline.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from dischargekit import des, relevance
from dischargekit.analysis import pearson
from dischargekit.cli import main
from dischargekit.corpus import (
    TargetKind,
    generate_synthetic_corpus,
    write_candidates,
    write_corpus,
)
from dischargekit.readability import cli as cli_score
from dischargekit.readability import dcrs, fkgl
from dischargekit.relevance import rouge_1
from dischargekit.reorder import rank_sections, split_sections, truncate_words
from dischargekit.scores import OVERALL_METRICS, REFERENCE_METRICS, overall_score, synthetic_external_rows
from dischargekit.tables import ScoreTable, compute_native_scores, overall_by_document
from dischargekit.corpus import DischargeSummary, GeneratedCandidate
from dischargekit.textprep import tokenize, word_count

FIXTURE = Path(__file__).parent / "data" / "leaderboard_rows.csv"


def leaderboard_rows():
    with open(FIXTURE, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# --- criterion 1: eight-metric aggregation reproduces the published column ----

_ROWS = leaderboard_rows()


# Printed overall values that cannot be roundings of the values their own
# row's printed components came from: row label -> (printed, corrected).
_OVERALL_ERRATA = {"Challenge Baseline": ("0.102", "0.104")}


@pytest.mark.parametrize("row", _ROWS, ids=[r["row_label"] for r in _ROWS])
def test_criterion_01_overall_column_reproduced(row):
    """Published overall value equals the mean of the eight published metrics.

    Erratum: the "Challenge Baseline" row prints an overall of 0.102, but its
    eight printed components sum to 0.829, a mean of 0.103625. If all nine
    printed numbers were three-decimal roundings of one consistent set of
    unrounded values, the mean of the printed components could differ from
    the printed overall by at most 0.0005 (the overall's rounding) plus
    0.0005 (the components' rounding, averaged) = 0.001. The gap is
    0.001625, so at least one of the row's nine printed numbers is not such a
    rounding, and no implementation of the mean can reproduce 0.102. The
    other seventeen rows have gaps of at most 0.0005.

    Which number is misprinted is not settled: one component printed about
    0.010 too high explains the gap as well as a misprinted overall, and the
    source results table is not in this repository. The fixture keeps the
    printed value; this test substitutes the corrected 0.104, derived here
    from the printed components with exact arithmetic (their mean rounded to
    three places), never from ``overall_score``. For that row the case
    therefore checks the formula against the printed components, not against
    the organisers' unrounded overall.
    """
    components = {m: float(row[m]) for m in OVERALL_METRICS}
    computed = overall_score(components).value
    published = row["published_overall"]
    if row["row_label"] in _OVERALL_ERRATA:
        printed, corrected = _OVERALL_ERRATA[row["row_label"]]
        assert published == printed, (
            f"{row['row_label']}: fixture prints {published}, erratum expects {printed}"
        )
        mean = sum(Fraction(row[m]) for m in OVERALL_METRICS) / len(OVERALL_METRICS)
        # Beyond the 0.001 rounding bound argued above.
        assert abs(mean - Fraction(printed)) > Fraction(1, 1000)
        assert round(mean, 3) == Fraction(corrected)
        published = corrected
    expected = float(published)
    # Boundary inclusive: a half-grid gap of exactly 0.0005 is table
    # rounding; the epsilon only absorbs float representation error.
    assert abs(computed - expected) <= 5e-4 + 1e-12, (
        f"{row['row_label']}: computed {computed:.6f} vs expected {expected:.3f}"
    )


def test_criterion_01_runtime_under_one_second():
    start = time.perf_counter()
    for row in leaderboard_rows():
        overall_score({m: float(row[m]) for m in OVERALL_METRICS})
    assert time.perf_counter() - start < 1.0


# --- criterion 2: per-model metric values are fixture inputs, not recomputed --


def test_criterion_02_published_metrics_are_fixture_inputs():
    """The per-model metric values ship as data (18 rows x 8 metrics); they
    are never recomputed here (doing so needs the credentialed corpus and
    neural scorers), so this suite substitutes the property tests below."""
    rows = leaderboard_rows()
    assert len(rows) == 18
    for row in rows:
        for metric in OVERALL_METRICS:
            assert 0.0 <= float(row[metric]) <= 1.0


# --- criterion 3: metric oracle equivalence -----------------------------------

VOCAB = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "home", "fast", "slow", "red"]


def test_criterion_03_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(31337)
    for _ in range(1000):
        c = [rng.choice(VOCAB) for _ in range(rng.randint(0, 12))]
        r = [rng.choice(VOCAB) for _ in range(rng.randint(0, 12))]
        cs, rs = " ".join(c), " ".join(r)
        assert relevance.rouge_1(cs, rs) == pytest.approx(oracles.brute_rouge_n(c, r, 1), abs=1e-9)
        assert relevance.rouge_2(cs, rs) == pytest.approx(oracles.brute_rouge_n(c, r, 2), abs=1e-9)
        assert relevance.rouge_l(cs, rs) == pytest.approx(oracles.brute_rouge_l(c, r), abs=1e-9)
    for _ in range(200):
        c = [rng.choice(VOCAB) for _ in range(rng.randint(0, 18))]
        r = [rng.choice(VOCAB) for _ in range(rng.randint(0, 18))]
        cs, rs = " ".join(c), " ".join(r)
        assert relevance.bleu4(cs, rs) == pytest.approx(oracles.formula_bleu4(c, r), abs=1e-9)
        assert relevance.meteor(cs, rs) == pytest.approx(oracles.formula_meteor(c, r), abs=1e-9)
    assert time.perf_counter() - start < 30.0


# --- criterion 4: readability fixtures ----------------------------------------


def test_criterion_04_readability_fixtures():
    easy = tokenize("The cat sat on the mat.")
    assert fkgl(easy) == pytest.approx(-1.45, abs=1e-3)
    assert cli_score(easy) == pytest.approx(-4.07, abs=1e-2)
    assert dcrs(easy) == pytest.approx(0.2976, abs=1e-4)
    text = "The cat sat on the mat. Stop now! Why wait here?"
    doubled = tokenize(text + " " + text)
    single = tokenize(text)
    assert fkgl(doubled) == pytest.approx(fkgl(single), abs=1e-9)
    assert dcrs(doubled) == pytest.approx(dcrs(single), abs=1e-9)
    assert cli_score(doubled) == pytest.approx(cli_score(single), abs=1e-9)


# --- criterion 5: selection property suite ------------------------------------


def _random_instance(rng):
    models = [f"m{i}" for i in range(rng.randint(1, 6))]
    metrics = [f"met{i}" for i in range(rng.randint(1, 5))]
    weights = [round(rng.uniform(-2, 2), 3) or 0.5 for _ in metrics]
    raw = {k: {m: round(rng.uniform(-5, 5), 4) for m in models} for k in metrics}
    return models, metrics, weights, raw


def _table(models, metrics, raw):
    rows = [("doc", m, "di", k, raw[k][m]) for m in models for k in metrics]
    return ScoreTable.from_rows(rows, TargetKind.DI, documents=["doc"], models=models)


def test_criterion_05_weight_scaling_argmax_invariance():
    rng = random.Random(501)
    for _ in range(1000):
        models, metrics, weights, raw = _random_instance(rng)
        table = _table(models, metrics, raw)
        scale = rng.choice([0.1, 2.0, 9.5, 120.0])
        base = des.DesConfig("b", criteria=tuple(des.Criterion(k, w) for k, w in zip(metrics, weights)))
        scaled = des.DesConfig(
            "s", criteria=tuple(des.Criterion(k, w * scale) for k, w in zip(metrics, weights))
        )
        assert (
            des.select_experts(table, base, TargetKind.DI).selections[0].model_id
            == des.select_experts(table, scaled, TargetKind.DI).selections[0].model_id
        )


def test_criterion_05_affine_transform_selection_invariance():
    rng = random.Random(502)
    for _ in range(1000):
        models, metrics, weights, raw = _random_instance(rng)
        config = des.DesConfig("c", criteria=tuple(des.Criterion(k, w) for k, w in zip(metrics, weights)))
        metric = rng.choice(metrics)
        a, b = rng.uniform(0.05, 8.0), rng.uniform(-20, 20)
        transformed = {
            k: ({m: a * v + b for m, v in col.items()} if k == metric else col)
            for k, col in raw.items()
        }
        r1 = des.select_experts(_table(models, metrics, raw), config, TargetKind.DI).selections[0]
        r2 = des.select_experts(_table(models, metrics, transformed), config, TargetKind.DI).selections[0]
        assert r1.model_id == r2.model_id
        assert r1.basis == pytest.approx(r2.basis, abs=1e-9)


def test_criterion_05_select_experts_equals_brute_force():
    rng = random.Random(503)
    for _ in range(1000):
        models, metrics, weights, raw = _random_instance(rng)
        config = des.DesConfig("c", criteria=tuple(des.Criterion(k, w) for k, w in zip(metrics, weights)))
        got = des.select_experts(_table(models, metrics, raw), config, TargetKind.DI).selections[0]
        winner, score = oracles.brute_select(models, list(zip(metrics, weights)), raw)
        assert got.model_id == winner
        assert got.basis == pytest.approx(score, abs=1e-12)


def test_criterion_05_length_rule_equals_interpreter_on_exhaustive_grid():
    ranking = ("M1", "M2", "M3")
    cfg = des.LengthSelectConfig(model_ranking=ranking)
    for counts in itertools.product(range(40, 261, 5), repeat=3):
        by_model = dict(zip(ranking, counts))
        counts_by_key = {("d", m): c for m, c in by_model.items()}
        got = des.select_by_length(counts_by_key, cfg, TargetKind.DI).selections[0]
        want_model, want_basis = oracles.three_rule_length_select(ranking, by_model)
        assert (got.model_id, got.basis) == (want_model, want_basis), counts


# --- criterion 6: oracle-criterion selection dominates every single model -----


def test_criterion_06_selection_dominance_over_20_seeds():
    start = time.perf_counter()
    for seed in range(20):
        summaries, candidates = generate_synthetic_corpus(200, 4, seed=seed)
        targets = {s.hadm_id: s.targets for s in summaries}
        pool = [c for c in candidates if c.target is TargetKind.DI]
        native = compute_native_scores(
            pool, references=targets, metrics=REFERENCE_METRICS, target=TargetKind.DI
        )
        scored = native.to_rows() + synthetic_external_rows(pool, targets, summaries)
        overall = overall_by_document(
            ScoreTable.from_rows(scored, TargetKind.DI, documents=native.documents, models=native.models)
        )
        rows = [
            (doc, model, "di", "overall", value) for (doc, model), value in overall.items()
        ]
        table = ScoreTable.from_rows(
            rows, TargetKind.DI, documents=native.documents, models=native.models
        )
        config = des.DesConfig("oracle", criteria=(des.Criterion("overall", 1.0),))
        result = des.select_experts(table, config, TargetKind.DI)
        chosen = {s.hadm_id: s.model_id for s in result.selections}
        selected_mean = math.fsum(
            overall[(doc, chosen[doc])] for doc in native.documents
        ) / len(native.documents)
        for model in native.models:
            model_mean = math.fsum(overall[(doc, model)] for doc in native.documents) / len(
                native.documents
            )
            assert selected_mean >= model_mean, (seed, model)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"20 seeds took {elapsed:.1f}s against the 60 s gate"


# --- criterion 7: reorder permutation and truncation laws ----------------------


def test_criterion_07_reorder_pipeline_laws():
    rng = random.Random(700)
    headers = ("Chief Complaint", "Physical Exam", "Pertinent Results", "Discharge Medications")
    for _ in range(500):
        n_sections = rng.randint(1, 5)
        blocks = []
        for i in range(n_sections):
            header = headers[i % len(headers)]
            body = " ".join(rng.choice(("alpha", "beta", "gamma", "delta")) for _ in range(rng.randint(0, 30)))
            blocks.append(f"{header}:\n{body}")
        body_text = "\n".join(blocks)
        doc = split_sections(
            DischargeSummary(hadm_id="d", full_text=body_text, body_without_targets=body_text),
            headers,
        )
        ranked = rank_sections(doc, "alpha beta gamma", rouge_1)
        assert sorted((s.header, s.body) for s in ranked.sections) == sorted(
            (s.header, s.body) for s in doc.sections
        )
        budget = rng.randint(1, 120)
        out = truncate_words(ranked, budget=budget)
        assert word_count(out) == min(budget, word_count(doc.text()))
    big = " ".join(f"w{i}" for i in range(2500))
    doc = split_sections(
        DischargeSummary(hadm_id="d", full_text=big, body_without_targets=big), headers
    )
    assert word_count(truncate_words(doc, budget=2000)) == 2000


# --- criterion 8: correlation identities and planted-signal recovery -----------


def test_criterion_08_pearson_identities_and_recovery():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)
    rng = random.Random(800)
    n = 10_000
    r = 0.6
    xs, ys = [], []
    for _ in range(n):
        y = rng.gauss(0.0, 1.0)
        xs.append(r * y + math.sqrt(1 - r * r) * rng.gauss(0.0, 1.0))
        ys.append(y)
    assert pearson(xs, ys) == pytest.approx(r, abs=0.03)


# --- criterion 9: end-to-end determinism ---------------------------------------


def _run_pipeline(base: Path, threads: int) -> dict[str, bytes]:
    base.mkdir(parents=True, exist_ok=True)
    summaries, candidates = generate_synthetic_corpus(20, 3, seed=41)
    targets = {s.hadm_id: s.targets for s in summaries}
    corpus_path = base / "corpus.jsonl"
    cands_path = base / "candidates.jsonl"
    write_corpus(corpus_path, summaries)
    write_candidates(cands_path, candidates)
    extracted = base / "extracted"
    assert main(["extract", "--corpus", str(corpus_path), "--out", str(extracted)]) == 0
    scores_path = base / "scores.csv"
    assert (
        main(
            [
                "score",
                "--candidates", str(cands_path),
                "--references", str(extracted / "targets.jsonl"),
                "--out", str(scores_path),
                "--threads", str(threads),
            ]
        )
        == 0
    )
    # des1 needs medcon: supply deterministic stand-ins through the
    # external-score path, as a real run would.
    ext_path = base / "external.csv"
    with open(ext_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "metric", "value"])
        for row in synthetic_external_rows(candidates, targets, summaries):
            writer.writerow([row[0], row[1], row[2], row[3], f"{row[4]:.10g}"])
    sub_path = base / "submission.csv"
    assert (
        main(
            [
                "select",
                "--scores", str(scores_path),
                "--scores", str(ext_path),
                "--candidates", str(cands_path),
                "--config", "des1",
                "--target", "di",
                "--out", str(sub_path),
            ]
        )
        == 0
    )
    # Externals for the evaluate step are keyed by the submission's model id.
    submission_rows = []
    with open(sub_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for hadm_id, text in reader:
            submission_rows.append(
                GeneratedCandidate(
                    hadm_id=hadm_id,
                    model_id="submission",
                    target=TargetKind.DI,
                    text=text,
                )
            )
    sub_ext_path = base / "external_submission.csv"
    with open(sub_ext_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hadm_id", "model_id", "target", "metric", "value"])
        for row in synthetic_external_rows(submission_rows, targets, summaries):
            writer.writerow([row[0], row[1], row[2], row[3], f"{row[4]:.10g}"])
    report_path = base / "report.csv"
    assert (
        main(
            [
                "evaluate",
                "--submission", str(sub_path),
                "--references", str(extracted / "targets.jsonl"),
                "--target", "di",
                "--external", str(sub_ext_path),
                "--model-id", "submission",
                "--out", str(report_path),
                "--threads", str(threads),
            ]
        )
        == 0
    )
    outputs = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            outputs[str(path.relative_to(base))] = path.read_bytes()
    return outputs


def test_criterion_09_end_to_end_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run1", threads=1)
    second = _run_pipeline(tmp_path / "run2", threads=1)
    eight = _run_pipeline(tmp_path / "run8", threads=8)
    assert first.keys() == second.keys() == eight.keys()
    for name in first:
        assert first[name] == second[name], name
        assert first[name] == eight[name], name


# --- criterion 10: native metric suite throughput ------------------------------


def test_criterion_10_native_suite_processes_1000_pairs_in_time():
    rng = random.Random(1000)
    vocab = [f"word{i}" for i in range(150)]
    candidates = []
    references = {}
    for i in range(1000):
        hadm_id = f"d{i}"
        ref_tokens = [rng.choice(vocab) for _ in range(300)]
        cand_tokens = [
            t if rng.random() < 0.7 else rng.choice(vocab) for t in ref_tokens
        ]
        references[hadm_id] = " ".join(ref_tokens)
        text = ". ".join(
            " ".join(cand_tokens[j : j + 10]) for j in range(0, 300, 10)
        )
        candidates.append(
            GeneratedCandidate(
                hadm_id=hadm_id,
                model_id="m",
                target=TargetKind.DI,
                text=text,
            )
        )
    start = time.perf_counter()
    table = compute_native_scores(candidates, references=references)
    elapsed = time.perf_counter() - start
    assert len(table.metrics) == 8
    assert elapsed < 60.0, f"native suite took {elapsed:.1f}s"
