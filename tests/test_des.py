from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from fractions import Fraction

import pytest

import oracles
from dischargekit.corpus import GeneratedCandidate, TargetKind
from dischargekit.des import (
    Criterion,
    DesConfig,
    DesConfigError,
    LengthSelectConfig,
    MissingCellError,
    PRESETS,
    Scope,
    Selection,
    derive_des4_weights,
    des_config_to_json,
    load_des_config,
    min_max_normalize,
    parse_des_config,
    select_by_length,
    select_experts,
)
from dischargekit.scores import ScoreTable


def make_table(docs, models, metrics, value_fn, target=TargetKind.DI):
    rows = [
        (d, m, target.value, metric, value_fn(d, m, metric))
        for d in docs
        for m in models
        for metric in metrics
    ]
    return ScoreTable.from_rows(rows, target, documents=docs, models=models)


def test_select_experts_basis_is_the_winners_own_score():
    # The scores are -0.25, -0.0 and 0.0: the first maximum is m1 with -0.0,
    # while the row's max() can return m2's 0.0.
    raw = {"m0": 0.5, "m1": 5e-324, "m2": 0.0}
    table = make_table(["d1"], list(raw), ["a"], lambda d, m, k: raw[m])
    config = DesConfig("signed_zero", criteria=(Criterion("a", 0.0), Criterion("a", -0.5)))
    (sel,) = select_experts(table, config, TargetKind.DI).selections
    assert (sel.model_id, float.hex(sel.basis)) == ("m1", "-0x0.0p+0")


def test_min_max_normalize_basic():
    assert min_max_normalize({"a": 0.2, "b": 0.5, "c": 0.8}) == pytest.approx(
        {"a": 0.0, "b": 0.5, "c": 1.0}
    )


def test_min_max_normalize_degenerate_cases():
    assert min_max_normalize({"a": 3.0, "b": 3.0}) == {"a": 0.0, "b": 0.0}
    assert min_max_normalize({"only": 7.0}) == {"only": 0.0}
    with pytest.raises(ValueError):
        min_max_normalize({})
    with pytest.raises(ValueError):
        min_max_normalize({"a": float("nan")})


def test_min_max_normalize_range_past_float_max():
    # hi - lo overflows to inf here; every value is finite, so it must still
    # map onto [0, 1] and not to nan.
    assert min_max_normalize({"a": 1e308, "b": -1e308, "c": 0.0}) == {"a": 1.0, "b": 0.0, "c": 0.5}
    assert min_max_normalize({"a": 2.5, "b": -1.0}) == {"a": (2.5 - -1.0) / 3.5, "b": 0.0}


def test_select_experts_range_past_float_max_picks_the_top():
    raw = {"a": 1e308, "b": -1e308, "c": 0.0}
    table = make_table(["d1"], ["a", "b", "c"], ["medcon", "meteor"], lambda d, m, k: raw[m])
    (sel,) = select_experts(table, PRESETS["des1"], TargetKind.DI).selections
    assert (sel.model_id, sel.basis) == ("a", 0.5)


def test_presets_encode_published_weights():
    assert {(c.metric, c.weight) for c in PRESETS["des1"].criteria} == {
        ("medcon", 1 / 2),
        ("meteor", 1 / 2),
    }
    assert {(c.metric, c.weight) for c in PRESETS["des2"].criteria} == {
        ("medcon", 2 / 5),
        ("meteor", 2 / 5),
        ("cli", 1 / 5),
    }
    des3 = PRESETS["des3"]
    di = {(c.metric, c.weight) for c in des3.criteria if c.scope is Scope.DI_ONLY}
    bhc = {(c.metric, c.weight) for c in des3.criteria if c.scope is Scope.BHC_ONLY}
    assert di == {
        ("fkgl", -1 / 9),
        ("dcrs", -1 / 9),
        ("cli", -1 / 9),
        ("medcon", 2 / 9),
        ("meteor", 2 / 9),
        ("alignscore", 2 / 9),
    }
    assert bhc == {
        ("medcon", 1 / 3),
        ("meteor", 1 / 3),
        ("alignscore", 1 / 3),
    }


def test_select_experts_worked_example():
    # Normalized medcon: A=1.0, B=0.0, C=0.8; meteor: A=0.0, B=1.0, C=0.9.
    raw = {
        "medcon": {"A": 1.0, "B": 0.0, "C": 0.8},
        "meteor": {"A": 0.0, "B": 1.0, "C": 0.9},
    }
    table = make_table(["d1"], ["A", "B", "C"], ["medcon", "meteor"], lambda d, m, k: raw[k][m])
    result = select_experts(table, PRESETS["des1"], TargetKind.DI)
    (sel,) = result.selections
    assert sel.model_id == "C"
    assert sel.basis == pytest.approx(0.425)


def test_single_model_wins_everywhere():
    table = make_table(["d1", "d2"], ["only"], ["medcon", "meteor"], lambda d, m, k: 0.3)
    result = select_experts(table, PRESETS["des1"], TargetKind.DI)
    assert result.tally == {"only": 2}


def test_negative_weight_penalizes_high_raw_score():
    config = DesConfig(
        "readability_down",
        criteria=(Criterion("meteor", Fraction(1, 2)), Criterion("cli", Fraction(-1, 2))),
    )
    raw = {
        "meteor": {"X": 0.5, "Y": 0.5, "Z": 0.5},
        "cli": {"X": 14.0, "Y": 8.0, "Z": 11.0},
    }
    table = make_table(["d1"], ["X", "Y", "Z"], ["meteor", "cli"], lambda d, m, k: raw[k][m])
    result = select_experts(table, config, TargetKind.DI)
    assert result.selections[0].model_id == "Y"
    winner, _ = oracles.brute_select(
        ["X", "Y", "Z"], [("meteor", 0.5), ("cli", -0.5)], raw
    )
    assert winner == "Y"


def test_tie_breaks_to_first_model_in_input_order():
    table = make_table(["d1"], ["m1", "m2"], ["medcon", "meteor"], lambda d, m, k: 0.4)
    result = select_experts(table, PRESETS["des1"], TargetKind.DI)
    assert result.selections[0].model_id == "m1"


def test_target_scope_routes_criteria():
    des3 = PRESETS["des3"]
    metrics = {c.metric for c in des3.criteria}
    assert {c.metric for c in des3.criteria_for(TargetKind.BHC, metrics)} == {
        "medcon",
        "meteor",
        "alignscore",
    }
    assert len(des3.criteria_for(TargetKind.DI, metrics)) == 6


def test_strict_missing_cell_names_offender():
    rows = [
        ("d1", "m1", "di", "medcon", 0.5),
        ("d1", "m2", "di", "medcon", 0.6),
        ("d1", "m1", "di", "meteor", 0.5),
    ]
    table = ScoreTable.from_rows(rows, TargetKind.DI, documents=["d1"], models=["m1", "m2"])
    with pytest.raises(MissingCellError, match=r"hadm_id='d1'.*model_id='m2'.*metric='meteor'"):
        select_experts(table, PRESETS["des1"], TargetKind.DI)


def test_lenient_drops_metric_and_renormalizes():
    rows = [
        ("d1", "m1", "di", "medcon", 0.9),
        ("d1", "m2", "di", "medcon", 0.1),
        ("d1", "m1", "di", "meteor", 0.2),
    ]
    table = ScoreTable.from_rows(rows, TargetKind.DI, documents=["d1"], models=["m1", "m2"])
    result = select_experts(table, PRESETS["des1"], TargetKind.DI, strict=False)
    assert result.selections[0].model_id == "m1"
    # Dropped metric with the weight rescaled to the original sum: the
    # surviving medcon criterion carries weight 1.
    assert result.selections[0].basis == pytest.approx(1.0)


def test_selection_result_invariants():
    table = make_table(
        ["d1", "d2", "d3"], ["m1", "m2"], ["medcon", "meteor"], lambda d, m, k: hash((d, m, k)) % 7
    )
    result = select_experts(table, PRESETS["des1"], TargetKind.DI)
    assert [s.hadm_id for s in result.selections] == ["d1", "d2", "d3"]
    assert sum(result.tally.values()) == 3


def random_instance(rng):
    n_models = rng.randint(1, 6)
    n_metrics = rng.randint(1, 5)
    models = [f"m{i}" for i in range(n_models)]
    metrics = [f"met{i}" for i in range(n_metrics)]
    weights = [round(rng.uniform(-2, 2), 3) or 0.5 for _ in metrics]
    raw = {
        metric: {m: round(rng.uniform(-5, 5), 4) for m in models} for metric in metrics
    }
    return models, metrics, weights, raw


def test_select_experts_matches_brute_force_oracle():
    rng = random.Random(1234)
    for _ in range(1000):
        models, metrics, weights, raw = random_instance(rng)
        table = make_table(["doc"], models, metrics, lambda d, m, k: raw[k][m])
        config = DesConfig(
            "rand", criteria=tuple(Criterion(k, w) for k, w in zip(metrics, weights))
        )
        result = select_experts(table, config, TargetKind.DI)
        winner, score = oracles.brute_select(models, list(zip(metrics, weights)), raw)
        assert result.selections[0].model_id == winner
        assert result.selections[0].basis == pytest.approx(score, abs=1e-12)


def test_weight_scaling_never_changes_selection():
    rng = random.Random(77)
    for _ in range(250):
        models, metrics, weights, raw = random_instance(rng)
        table = make_table(["doc"], models, metrics, lambda d, m, k: raw[k][m])
        base = DesConfig("b", criteria=tuple(Criterion(k, w) for k, w in zip(metrics, weights)))
        scale = rng.choice([0.25, 3.0, 17.5])
        scaled = DesConfig(
            "s", criteria=tuple(Criterion(k, w * scale) for k, w in zip(metrics, weights))
        )
        a = select_experts(table, base, TargetKind.DI).selections[0].model_id
        b = select_experts(table, scaled, TargetKind.DI).selections[0].model_id
        assert a == b


def test_affine_rescaling_of_raw_metric_never_changes_selection():
    rng = random.Random(88)
    for _ in range(250):
        models, metrics, weights, raw = random_instance(rng)
        config = DesConfig("c", criteria=tuple(Criterion(k, w) for k, w in zip(metrics, weights)))
        table = make_table(["doc"], models, metrics, lambda d, m, k: raw[k][m])
        target_metric = rng.choice(metrics)
        a_coef = rng.uniform(0.1, 5.0)
        b_coef = rng.uniform(-10, 10)
        transformed = {
            k: (
                {m: a_coef * v + b_coef for m, v in col.items()}
                if k == target_metric
                else col
            )
            for k, col in raw.items()
        }
        table2 = make_table(["doc"], models, metrics, lambda d, m, k: transformed[k][m])
        r1 = select_experts(table, config, TargetKind.DI).selections[0]
        r2 = select_experts(table2, config, TargetKind.DI).selections[0]
        assert r1.model_id == r2.model_id
        assert r1.basis == pytest.approx(r2.basis, abs=1e-9)


def test_select_by_length_worked_examples():
    ranking = ("M1", "M2", "M3")
    cfg = LengthSelectConfig(model_ranking=ranking)

    def run(counts):
        result = select_by_length({("d", m): n for m, n in zip(ranking, counts)}, cfg, TargetKind.DI)
        return result.selections[0].model_id, result.selections[0].basis

    assert run((250, 150, 120)) == ("M2", "preferred_window")
    assert run((250, 90, 85)) == ("M3", "shortest_above_floor")
    # Only M1 clears the 70-word floor, so it wins whether one reads this
    # as the shortest-eligible rule or as the top-rank fallback.
    assert run((250, 60, 50))[0] == "M1"
    assert run((60, 50, 40)) == ("M1", "top_ranked")


def test_select_by_length_hard_min_inclusive():
    cfg = LengthSelectConfig(model_ranking=("M1", "M2"))
    result = select_by_length({("d", "M1"): 300, ("d", "M2"): 70}, cfg, TargetKind.DI)
    assert result.selections[0].model_id == "M2"
    assert result.selections[0].basis == "shortest_above_floor"


def test_select_by_length_exhaustive_grid_matches_oracle():
    ranking = ("M1", "M2", "M3")
    cfg = LengthSelectConfig(model_ranking=ranking)
    grid = range(40, 261, 5)
    for counts in itertools.product(grid, repeat=3):
        by_model = dict(zip(ranking, counts))
        got = select_by_length({("d", m): n for m, n in by_model.items()}, cfg, TargetKind.DI).selections[0]
        want_model, want_basis = oracles.three_rule_length_select(ranking, by_model)
        assert (got.model_id, got.basis) == (want_model, want_basis), counts


def test_select_by_length_validates_ranking_coverage():
    cfg = LengthSelectConfig(model_ranking=("M1",))
    with pytest.raises(DesConfigError, match="M2"):
        select_by_length({("d", "M2"): 120}, cfg, TargetKind.DI)


def test_derive_des4_weights_endpoints():
    docs = [f"d{i}" for i in range(10)]
    overall = {(d, "m"): float(i) for i, d in enumerate(docs)}
    rows = []
    for i, d in enumerate(docs):
        rows.append((d, "m", "di", "aligned", float(i) * 2.0 + 1.0))
        rows.append((d, "m", "di", "opposed", -3.0 * float(i) + 0.5))
    table = ScoreTable.from_rows(rows, TargetKind.DI, documents=docs, models=["m"])
    config = derive_des4_weights(table, overall)
    weights = {c.metric: c.weight for c in config.criteria}
    assert weights["aligned"] == pytest.approx(1.0, abs=1e-12)
    assert weights["opposed"] == pytest.approx(-1.0, abs=1e-12)


def test_derive_des4_weights_recovers_planted_correlation():
    rng = random.Random(42)
    docs = [f"d{i}" for i in range(500)]
    rows = []
    overall = {}
    target_r = 0.6
    xs, ys = [], []
    for d in docs:
        y = rng.gauss(0, 1)
        overall[(d, "m")] = y
        x = target_r * y + (1 - target_r**2) ** 0.5 * rng.gauss(0, 1)
        rows.append((d, "m", "di", "planted", x))
        xs.append(x)
        ys.append(y)
    table = ScoreTable.from_rows(rows, TargetKind.DI, documents=docs, models=["m"])
    config = derive_des4_weights(table, overall)
    weight = config.criteria[0].weight
    assert weight == pytest.approx(target_r, abs=0.02)
    assert weight == pytest.approx(statistics.correlation(xs, ys), abs=1e-12)


def test_derive_des4_weights_needs_three_pairs():
    rows = [("d1", "m", "di", "x", 0.1), ("d2", "m", "di", "x", 0.2)]
    table = ScoreTable.from_rows(rows, TargetKind.DI)
    with pytest.raises(DesConfigError, match="at least 3"):
        derive_des4_weights(table, {("d1", "m"): 0.1, ("d2", "m"): 0.5})


def test_config_json_roundtrip(tmp_path):
    data = {
        "name": "custom",
        "normalization": "min_max",
        "tie_break": "first",
        "criteria": [
            {"metric": "medcon", "weight": "2/5", "scope": "both"},
            {"metric": "fkgl", "weight": -0.25, "scope": "di_only"},
        ],
    }
    config = parse_des_config(data)
    assert config.criteria[0].weight == 2 / 5
    assert config.criteria[1].scope is Scope.DI_ONLY
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(des_config_to_json(config)), encoding="utf-8")
    assert load_des_config(path) == config


def test_config_rejects_bad_weight_and_scope():
    with pytest.raises(DesConfigError):
        parse_des_config({"criteria": [{"metric": "x", "weight": "a/b"}]})
    with pytest.raises(DesConfigError, match="criterion 'x': cannot parse weight True"):
        parse_des_config({"criteria": [{"metric": "x", "weight": True}]})
    with pytest.raises(DesConfigError):
        parse_des_config({"criteria": [{"metric": "x", "weight": 1, "scope": "all"}]})



@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_des_config_rejects_a_non_finite_weight(weight):
    with pytest.raises(DesConfigError, match="criterion 'meteor' has non-finite weight"):
        DesConfig("x", (Criterion("medcon", 0.5), Criterion("meteor", weight)))


def test_des_config_rejects_empty_criteria():
    with pytest.raises(DesConfigError, match="config needs at least one criterion"):
        DesConfig("x", ())
    with pytest.raises(DesConfigError, match="config needs at least one criterion"):
        DesConfig(name="x", criteria=())


def test_length_select_config_rejects_an_empty_ranking():
    with pytest.raises(DesConfigError, match="model_ranking must not be empty"):
        LengthSelectConfig(())
    assert LengthSelectConfig(model_ranking=("M1",)).model_ranking == ("M1",)


def test_records_compare_and_hash_by_value():
    pairs = [
        (Criterion("meteor", Fraction(1, 2)), Criterion("meteor", Fraction(1, 2), Scope.BOTH)),
        (Selection(hadm_id="d", model_id="m", basis=0.5), Selection("d", "m", 0.5)),
        (
            GeneratedCandidate(hadm_id="d", model_id="m", target=TargetKind.DI, text="t"),
            GeneratedCandidate("d", "m", TargetKind.DI, "t"),
        ),
    ]
    for a, b in pairs:
        assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a._replace(**{a._fields[0]: "other"})

@pytest.mark.parametrize(
    "key, value, message",
    [
        ("normalization", "zscore", "unsupported normalization 'zscore'"),
        ("tie_break", "last", "unsupported tie_break 'last'"),
    ],
)
def test_config_file_rejects_other_normalization_and_tie_break(tmp_path, key, value, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value, "criteria": [{"metric": "x", "weight": 1}]}), encoding="utf-8")
    with pytest.raises(DesConfigError, match=message):
        load_des_config(path)


def _mixed_rows(n_models):
    """(document, metric) -> one value per model, over 40 documents: every
    fifth document constant, the next one spanning -1e308..1e308 in "a" and
    "b", and a NaN cell of "c" on every seventh, counting from the fourth."""
    rng = random.Random(2405 + n_models)
    rows = {}
    for i in range(40):
        for metric in "abc":
            row = [rng.uniform(-3, 3) for _ in range(n_models)]
            if i % 5 == 0:
                row = [0.75] * n_models
            elif i % 5 == 1 and metric != "c":
                row[0], row[-1] = 1e308, -1e308
            if metric == "c" and i % 7 == 3:
                row[i % n_models] = math.nan
            rows[(f"d{i}", metric)] = row
    return rows


@pytest.mark.parametrize("n_models", [4, 1])
@pytest.mark.parametrize("strict", [True, False])
def test_constant_overflowing_and_dropped_criteria_agree_with_brute_select(n_models, strict):
    """One call mixes constant documents, documents spanning -1e308..1e308
    and, in lenient mode, dropped criteria, on a 4-model and a one-model
    table; every pick and basis equals the oracle's."""
    rows = _mixed_rows(n_models)
    models = [f"m{j}" for j in range(n_models)]
    docs = list(dict.fromkeys(doc for doc, _ in rows))
    table = ScoreTable.from_rows(
        [
            (doc, model, "di", metric, value)
            for (doc, metric), values in rows.items()
            for model, value in zip(models, values)
            if value == value
        ],
        TargetKind.DI, documents=docs, models=models,
    )
    criteria = [("a", 0.5), ("b", -0.25), ("c", 1.0), ("a", 0.125)]
    if strict:
        with pytest.raises(MissingCellError, match="metric='c'"):
            select_experts(table, DesConfig("mixed", tuple(Criterion(*c) for c in criteria)), TargetKind.DI)
        criteria = [c for c in criteria if c[0] != "c"]
    config = DesConfig("mixed", tuple(Criterion(*c) for c in criteria))
    result = select_experts(table, config, TargetKind.DI, strict=strict)
    full_weight = sum(w for _, w in criteria)  # exact here: every weight is a small binary fraction
    for doc, selection in zip(docs, result.selections):
        kept = [(m, w) for m, w in criteria if not any(map(math.isnan, rows[(doc, m)]))]
        scale = full_weight / sum(w for _, w in kept)
        raw = {m: dict(zip(models, rows[(doc, m)])) for m, _ in kept}
        winner, score = oracles.brute_select(models, [(m, w * scale) for m, w in kept], raw)
        assert (selection.hadm_id, selection.model_id, selection.basis.hex()) == (doc, winner, score.hex())
