from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dischargekit.analysis import (
    AnalysisError,
    correlation_matrix,
    normalize_clinician_scores,
    pairwise_sum,
    pearson,
)
from dischargekit.corpus import TargetKind
from dischargekit.tables import ScoreTable


def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_input_validation():
    with pytest.raises(AnalysisError, match="length"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(AnalysisError, match="at least 3"):
        pearson([1, 2], [3, 4])
    with pytest.raises(AnalysisError, match="constant"):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_holds_one_list_of_floats_at_a_time():
    """One list of n floats is alive at a time; with the deviations kept it took over 110 bytes a value."""
    n = 20_000
    x = [math.sin(i) for i in range(n)]
    y = [math.cos(0.7 * i) for i in range(n)]
    tracemalloc.start()
    try:
        pearson(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


def test_pearson_recovers_planted_signal():
    rng = random.Random(123)
    n = 10_000
    r = 0.6
    y = [rng.gauss(0, 1) for _ in range(n)]
    x = [r * v + math.sqrt(1 - r * r) * rng.gauss(0, 1) for v in y]
    assert pearson(x, y) == pytest.approx(r, abs=0.03)


PAIRWISE_LENGTHS = [*range(301), 5600]


def test_pairwise_sum_has_the_bits_of_numpy_sum_and_mean():
    np = pytest.importorskip("numpy")
    rng = random.Random(2405)
    for n in PAIRWISE_LENGTHS:
        values = [rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6) for _ in range(n)]
        if n % 7 == 3:
            values[: n // 2] = [-0.0] * (n // 2)  # signed zeros, as numpy adds them
        array = np.array(values)
        assert pairwise_sum(values).hex() == float(np.add.reduce(array)).hex(), n
        if n:
            assert (pairwise_sum(values) / n).hex() == float(array.mean()).hex(), n


def numpy_pearson(np, x, y):
    """The numpy formula pearson reproduces."""
    xd, yd = x - x.mean(), y - y.mean()
    return float((xd * yd).sum() / (float(np.sqrt((xd * xd).sum())) * float(np.sqrt((yd * yd).sum()))))


def test_pearson_has_the_bits_of_the_numpy_formula():
    np = pytest.importorskip("numpy")
    rng = random.Random(11)
    for n in [*range(3, 301, 7), 1000, 5600]:
        x = [rng.uniform(0, 1) for _ in range(n)]
        y = [v * 0.3 + rng.gauss(0, 0.2) for v in x]
        assert pearson(x, y).hex() == numpy_pearson(np, np.array(x), np.array(y)).hex(), n


@given(
    a=st.floats(min_value=0.01, max_value=50),
    b=st.floats(min_value=-100, max_value=100),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_pearson_affine_identity(a, b, sign):
    rng = random.Random(7)
    x = [rng.uniform(-5, 5) for _ in range(25)]
    y = [sign * a * v + b for v in x]
    assert pearson(x, y) == pytest.approx(sign, abs=1e-9)


def table_from_columns(columns, docs, target=TargetKind.DI):
    rows = [
        (d, "m", target.value, metric, values[i])
        for metric, values in columns.items()
        for i, d in enumerate(docs)
    ]
    return ScoreTable.from_rows(rows, target, documents=docs, models=["m"])


def test_correlation_matrix_self_correlation():
    docs = [f"d{i}" for i in range(12)]
    medcon = [0.1 * i for i in range(12)]
    table = table_from_columns({"medcon": medcon, "noise": [((i * 7) % 5) * 0.3 for i in range(12)]}, docs)
    overall = {(d, "m"): medcon[i] for i, d in enumerate(docs)}
    matrix = correlation_matrix(table, overall)
    assert matrix.get("medcon", "overall") == pytest.approx(1.0, abs=1e-12)
    assert abs(matrix.get("noise", "overall")) < 1.0


def test_correlation_matrix_independent_metric_near_zero():
    rng = random.Random(11)
    docs = [f"d{i}" for i in range(2000)]
    readability = [rng.gauss(10, 2) for _ in docs]
    overall_values = [rng.uniform(0, 1) for _ in docs]
    table = table_from_columns({"fkgl_like": readability}, docs)
    overall = {(d, "m"): overall_values[i] for i, d in enumerate(docs)}
    matrix = correlation_matrix(table, overall)
    assert abs(matrix.get("fkgl_like", "overall")) < 0.05


def test_correlation_matrix_order_invariance():
    rng = random.Random(3)
    docs = [f"d{i}" for i in range(30)]
    col = [rng.uniform(0, 1) for _ in docs]
    overall_values = [rng.uniform(0, 1) for _ in docs]
    table = table_from_columns({"x": col}, docs)
    overall = {(d, "m"): overall_values[i] for i, d in enumerate(docs)}
    shuffled = dict(sorted(overall.items(), key=lambda kv: hash(kv[0])))
    a = correlation_matrix(table, overall)
    b = correlation_matrix(table, shuffled)
    # numpy.allclose's test, |a - b| <= atol + rtol * |b|, at its default tolerances.
    cells = [(x, y) for row_a, row_b in zip(a.values, b.values) for x, y in zip(row_a, row_b)]
    assert len(cells) == 1 and all(abs(x - y) <= 1e-8 + 1e-5 * abs(y) for x, y in cells)


def test_correlation_matrix_affine_rescaling_invariance():
    rng = random.Random(13)
    docs = [f"d{i}" for i in range(40)]
    col = [rng.uniform(0, 1) for _ in docs]
    overall = {(d, "m"): rng.uniform(0, 1) for d in docs}
    base = correlation_matrix(table_from_columns({"x": col}, docs), overall)
    scaled = correlation_matrix(
        table_from_columns({"x": [5.0 * v - 2.0 for v in col]}, docs), overall
    )
    assert abs(base.get("x", "overall") - scaled.get("x", "overall")) < 1e-9


def test_correlation_matrix_rejects_constant_column():
    docs = [f"d{i}" for i in range(5)]
    table = table_from_columns({"flat": [1.0] * 5}, docs)
    overall = {(d, "m"): float(i) for i, d in enumerate(docs)}
    with pytest.raises(AnalysisError, match="flat"):
        correlation_matrix(table, overall)


def test_correlation_matrix_rejects_empty_overall_map():
    docs = [f"d{i}" for i in range(5)]
    table = table_from_columns({"x": [float(i) for i in range(5)]}, docs)
    with pytest.raises(AnalysisError, match="overall map is empty"):
        correlation_matrix(table, {})
    with pytest.raises(AnalysisError, match="overall map is empty"):
        correlation_matrix([table, table], [{(d, "m"): 1.0 for d in docs}, {}])


def test_correlation_matrix_pooled_tables():
    docs = [f"d{i}" for i in range(10)]
    col_a = [float(i) for i in range(10)]
    col_b = [float(10 - i) for i in range(10)]
    t_di = table_from_columns({"x": col_a}, docs, target=TargetKind.DI)
    t_bhc = table_from_columns({"x": col_b}, docs, target=TargetKind.BHC)
    overall_di = {(d, "m"): col_a[i] for i, d in enumerate(docs)}
    overall_bhc = {(d, "m"): col_b[i] for i, d in enumerate(docs)}
    pooled = correlation_matrix([t_di, t_bhc], [overall_di, overall_bhc])
    assert pooled.get("x", "overall") == pytest.approx(1.0, abs=1e-12)


def test_matrix_values_within_bounds():
    rng = random.Random(21)
    docs = [f"d{i}" for i in range(50)]
    cols = {f"m{j}": [rng.uniform(-3, 3) for _ in docs] for j in range(4)}
    overall = {(d, "m"): rng.uniform(0, 1) for d in docs}
    matrix = correlation_matrix(table_from_columns(cols, docs), overall)
    assert len(matrix.values) == 4
    assert all(-1.0 <= r <= 1.0 for row in matrix.values for r in row)


def test_normalize_clinician_scores_endpoints():
    assert normalize_clinician_scores([1.0, 5.0, 3.0]) == [0.0, 1.0, 0.5]


def test_normalize_clinician_scores_published_value():
    (value,) = normalize_clinician_scores([3.667])
    assert value == pytest.approx(0.6668, abs=1e-4)


def test_normalize_clinician_scores_rejects_out_of_range():
    with pytest.raises(AnalysisError):
        normalize_clinician_scores([0.5])
    with pytest.raises(AnalysisError):
        normalize_clinician_scores([5.1])


@pytest.mark.parametrize("exponent", [1023, 997, -997, -1060, -451, 508, 509])
def test_pearson_is_right_at_any_finite_magnitude(exponent):
    x = [1.0, -1.0, 0.75, -0.5, 1.5, -1.25]
    y = [0.5, 0.0, 1.0, 0.25, 0.125, 2.0]
    expected = pearson(x, y)
    assert pearson([math.ldexp(v, exponent) for v in x], y) == expected
    assert pearson(y, [math.ldexp(v, exponent) for v in x]) == expected
    # A vector in range keeps its bits: only an extreme one is scaled.
    assert pearson([math.ldexp(v, 20) for v in x], y) == expected
