"""Differential tests: the column code on ``ScoreTable.columns`` against per-cell recomputation.

``score_columns`` scatters each candidate's cells straight into table
layout; a ragged pool with a repeated (hadm_id, model_id) pair is checked
against the cube-filling loop in ``oracles.cube_filled_scores``, scored in
one process and in shards.

``select_experts``, ``overall_by_document``, ``derive_des4_weights`` and
``correlation_matrix`` read whole columns of the table. Each is checked here
against a recomputation that reads one cell at a time through
``ScoreTable.get`` and uses the one-document APIs (``min_max_normalize``,
``overall_score``, ``pearson``), on random tables with missing cells,
constant columns, ties, min-max spans that overflow, and negative,
``Fraction`` and zero weights.
"""

from __future__ import annotations

import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dischargekit import workers
from dischargekit.analysis import AnalysisError, correlation_matrix, pearson
from dischargekit.corpus import TargetKind
from dischargekit.des import (
    Criterion,
    DesConfig,
    DesConfigError,
    MissingCellError,
    derive_des4_weights,
    min_max_normalize,
    select_experts,
)
from dischargekit.scores import (
    OVERALL_METRICS,
    REFERENCE_METRICS,
    ScoreError,
    factuality_proxy_job,
    native_score_job,
    overall_score,
    score_columns,
)
from dischargekit.synthetic import generate_synthetic_corpus
from dischargekit.tables import (
    ScoreTable,
    compute_factuality_proxies,
    compute_native_scores,
    overall_by_document,
)

METRICS = ("a", "b", "c")
# Few distinct values, so ties and constant columns are common; with both of
# ±1e308 in one document, a min-max span overflows.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -3.0, 1e308, -1e308]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5]),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@st.composite
def tables(draw, metrics=METRICS, max_docs=6, max_models=5, max_gaps=3):
    """A DI table with every metric column and up to ``max_gaps`` missing cells."""
    n_docs = draw(st.integers(1, max_docs))
    n_models = draw(st.integers(1, max_models))
    # Drawn flat in (document, model, metric) order, then split into one column per metric.
    flat = [draw(VALUES) for _ in range(n_docs * n_models * len(metrics))]
    for i in draw(st.lists(st.integers(0, len(flat) - 1), max_size=max_gaps)):
        flat[i] = math.nan
    columns = tuple(array("d", flat[k :: len(metrics)]) for k in range(len(metrics)))
    docs = tuple(f"d{i}" for i in range(n_docs))
    models = tuple(f"m{j}" for j in range(n_models))
    return ScoreTable(TargetKind.DI, docs, models, tuple(sorted(metrics)), columns)


def per_document_select(table, criteria, strict):
    """The selection rule, one document and one cell at a time."""
    full_weight = 0.0
    for crit in criteria:
        full_weight += float(crit.weight)
    picks = []
    for doc in table.documents:
        usable = []
        for crit in criteria:
            raw = {model: table.get(doc, model, crit.metric) for model in table.models}
            gaps = [model for model, v in raw.items() if math.isnan(v)]
            if gaps:
                if strict:
                    raise MissingCellError(
                        f"missing cell (hadm_id={doc!r}, model_id={gaps[0]!r}, metric={crit.metric!r})"
                    )
                continue
            usable.append((float(crit.weight), min_max_normalize(raw)))
        if not usable:
            raise MissingCellError(f"no usable criteria for hadm_id {doc!r}")
        kept_weight = 0.0
        for weight, _ in usable:
            kept_weight += weight
        scale = 1.0
        if len(usable) < len(criteria):
            if kept_weight == 0:
                raise MissingCellError(f"remaining criteria for hadm_id {doc!r} have zero total weight")
            scale = full_weight / kept_weight
        best, best_score = None, -math.inf
        for model in table.models:
            total = 0.0
            for weight, normalized in usable:
                total += weight * scale * normalized[model]
            if total / len(usable) > best_score:
                best, best_score = model, total / len(usable)
        picks.append((doc, best, float.hex(best_score)))
    return picks


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MissingCellError, DesConfigError, AnalysisError) as exc:
        return type(exc).__name__, str(exc)


def _picks(result):
    return [(s.hadm_id, s.model_id, float.hex(s.basis)) for s in result.selections]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), strict=st.booleans())
def test_select_experts_equals_per_document_recomputation(data, strict):
    table = data.draw(tables())
    chosen = data.draw(st.lists(st.sampled_from(METRICS), min_size=1, max_size=4))
    criteria = tuple(Criterion(metric, data.draw(WEIGHTS)) for metric in chosen)
    config = DesConfig("random", criteria=criteria)
    got = _outcome(lambda: _picks(select_experts(table, config, TargetKind.DI, strict=strict)))
    assert got == _outcome(per_document_select, table, criteria, strict)


@pytest.mark.parametrize(
    "strict, error",
    [
        (True, "MissingCellError: missing cell (hadm_id='d0', model_id='m0', metric='b')"),
        # Lenient: b is dropped on d0, so its first usable infinite document, d1, is named
        # before a's d0: the check goes criterion by criterion, in config order.
        (False, "ValueError: non-finite scores for models: m0, m2"),
    ],
)
def test_select_experts_names_the_first_infinite_cell_in_criterion_order(strict, error):
    inf, nan = math.inf, math.nan
    a = array("d", [inf, 0.5, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    b = array("d", [nan, inf, 0.0, -inf, 1.0, inf, 0.1, 0.2, 0.3])
    table = ScoreTable(TargetKind.DI, ("d0", "d1", "d2"), ("m0", "m1", "m2"), ("a", "b"), (a, b))
    config = DesConfig("mixed", (Criterion("b", 1.0), Criterion("a", 2.0)))
    with pytest.raises((MissingCellError, ValueError)) as caught:
        select_experts(table, config, TargetKind.DI, strict=strict)
    assert f"{caught.type.__name__}: {caught.value}" == error


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_strict_select_experts_equals_brute_select(data):
    table = data.draw(tables(max_gaps=0))
    metrics = data.draw(st.lists(st.sampled_from(METRICS), min_size=1, max_size=3, unique=True))
    weights = [float(data.draw(WEIGHTS)) for _ in metrics]
    config = DesConfig("random", criteria=tuple(Criterion(m, w) for m, w in zip(metrics, weights)))
    result = select_experts(table, config, TargetKind.DI)
    for selection in result.selections:
        raw = {
            metric: {model: table.get(selection.hadm_id, model, metric) for model in table.models}
            for metric in metrics
        }
        winner, score = oracles.brute_select(list(table.models), list(zip(metrics, weights)), raw)
        assert (selection.model_id, float.hex(selection.basis)) == (winner, float.hex(score))


@settings(max_examples=100, deadline=None)
@given(table=tables(metrics=OVERALL_METRICS + ("fkgl",), max_gaps=0))
def test_overall_by_document_equals_overall_score(table):
    expected = {
        (doc, model): float.hex(
            overall_score({m: table.get(doc, model, m) for m in OVERALL_METRICS}).value
        )
        for doc in table.documents
        for model in table.models
    }
    got = {key: float.hex(value) for key, value in overall_by_document(table).items()}
    assert list(got.items()) == list(expected.items())


def per_cell_pearson(pairs, metric):
    """pearson over lists built one cell at a time; pairs: (table, overall map)."""
    xs, ys = [], []
    for table, overall in pairs:
        for (doc, model), y in overall.items():
            v = table.get(doc, model, metric)
            if not math.isnan(v):
                xs.append(v)
                ys.append(float(y))
    return pearson(xs, ys)


@st.composite
def overall_maps(draw, table):
    """An overall map over a shuffled, non-empty subset of the table's (document, model) pairs."""
    keys = [(doc, model) for doc in table.documents for model in table.models]
    keys = draw(st.permutations(keys))[: draw(st.integers(1, len(keys)))]
    return {key: draw(VALUES) for key in keys}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_des4_weights_equal_per_cell_pearson(data):
    table = data.draw(tables(max_docs=8))
    overall = data.draw(overall_maps(table))

    def expected():
        criteria = []
        for metric in table.metrics:
            present = [k for k in overall if not math.isnan(table.get(*k, metric))]
            if len(present) < 3:
                raise DesConfigError(
                    f"metric {metric!r} has {len(present)} usable observations; need at least 3"
                )
            criteria.append((metric, per_cell_pearson([(table, overall)], metric)))
        # A sum that overflows (±1e308 cells) gives a non-finite weight, which DesConfig refuses.
        for metric, r in criteria:
            if not math.isfinite(r):
                raise DesConfigError(f"criterion {metric!r} has non-finite weight {r!r}")
        return [(metric, float.hex(r)) for metric, r in criteria]

    def got():
        config = derive_des4_weights(table, overall)
        return [(c.metric, float.hex(c.weight)) for c in config.criteria]

    assert _outcome(got) == _outcome(expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_correlation_matrix_equals_per_cell_pearson(data):
    pairs = []
    for _ in range(data.draw(st.integers(1, 2))):
        table = data.draw(tables(max_docs=8))
        pairs.append((table, data.draw(overall_maps(table))))

    def expected():
        out = []
        for metric in METRICS:
            try:
                out.append((metric, "overall", float.hex(per_cell_pearson(pairs, metric))))
            except AnalysisError as exc:
                raise AnalysisError(f"metric {metric!r} vs 'overall': {exc}") from None
        return out

    def got():
        matrix = correlation_matrix([t for t, _ in pairs], [o for _, o in pairs])
        return [(m, v, float.hex(r)) for m, v, r in matrix.to_rows()]

    assert _outcome(got) == _outcome(expected)


def test_from_rows_names_the_first_repeated_row():
    rows = [
        ("1", "m", "di", "a", 0.1),
        ("2", "m", "di", "a", 0.2),
        ("2", "m", "di", "b", 0.3),
        ("1", "m", "di", "a", 0.4),
        ("2", "m", "di", "b", 0.5),
    ]
    with pytest.raises(ScoreError, match=r"duplicate cell \(hadm_id='1', model_id='m', metric='a'\)"):
        ScoreTable.from_rows(rows, TargetKind.DI)


@pytest.fixture(scope="module")
def ragged_pool():
    """Both targets, listed model-major from model_b, which lacks two documents;
    each target's pool ends with a repeat of its first (hadm_id, model_id)
    pair, with another model's text."""
    summaries, candidates = generate_synthetic_corpus(5, 3, seed=11)
    missing = {(summaries[1].hadm_id, "model_b"), (summaries[3].hadm_id, "model_b")}
    kept = [c for c in candidates if (c.hadm_id, c.model_id) not in missing]
    kept.sort(key=lambda c: (c.model_id == "model_b", c.model_id, c.target.value, c.hadm_id), reverse=True)
    assert len(kept) == len(candidates) - 4
    for kind in TargetKind:
        same_doc = [c for c in kept if c.target is kind and c.hadm_id == kept[0].hadm_id]
        kept.append(same_doc[0]._replace(text=same_doc[-1].text))
    targets = {s.hadm_id: s.targets for s in summaries}
    return kept, targets, summaries


def _bytes(table):
    return [column.tobytes() for column in table.columns]


@pytest.mark.parametrize("kind", [TargetKind.BHC, TargetKind.DI])
@pytest.mark.parametrize("against", ["reference", "body"])
def test_score_columns_match_the_cube(ragged_pool, kind, against, monkeypatch):
    candidates, targets, summaries = ragged_pool
    if against == "reference":
        job = native_score_job(candidates, targets, None, kind)
        table = compute_native_scores(candidates, targets, None, kind)
    else:
        job = factuality_proxy_job(candidates, summaries, REFERENCE_METRICS, kind)
        table = compute_factuality_proxies(candidates, summaries, REFERENCE_METRICS, kind)
    pool = job[0]
    # Ragged and model-major: the first model's documents come first, the two it lacks last.
    assert table.models[0] == "model_b" and table.documents[-2:] == (summaries[3].hadm_id, summaries[1].hadm_id)
    cube = oracles.cube_filled_scores(*job)
    assert (table.documents, table.models, table.metrics) == (cube.documents, cube.models, cube.metrics)
    assert _bytes(table) == _bytes(cube)
    assert sum(math.isnan(v) for column in table.columns for v in column) == 2 * len(table.metrics)
    # The repeat at the pool's end replaced its pair's cells.
    assert pool[-1][:2] == pool[0][:2] and _bytes(oracles.cube_filled_scores(pool[:-1], *job[1:])) != _bytes(table)
    # Scored in shards, the cells land in the same places.
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    assert _bytes(ScoreTable(*score_columns([job], 3)[0])) == _bytes(table)


def test_empty_pool_keeps_its_metric_columns():
    table = compute_native_scores([], {}, ["rouge_l", "bleu4"], TargetKind.DI)
    assert table.metrics == ("bleu4", "rouge_l")
    assert (len(table.documents), len(table.models), len(table.metrics)) == (0, 0, 2)
    assert table.columns == (array("d"), array("d"))
    assert score_columns([([], TargetKind.DI, {"bleu4": "bleu4"}, {})], 1) == [
        (TargetKind.DI, (), (), ("bleu4",), (array("d"),))
    ]
    with pytest.raises(ScoreError, match="rows reference unknown metrics: x"):
        ScoreTable.from_rows([("1", "m", "di", "x", 0.5)], TargetKind.DI, metrics=["y"])
