"""DES weights are floats, checked against ``fractions.Fraction``.

A preset's published fraction and a config's ``"n/d"`` string are both the
correctly rounded float of ``n / d``, which is ``float(Fraction(n, d))``; the
tests use ``fractions`` as that oracle, and no ``select`` or ``simulate``
process imports it.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dischargekit import des

PRESET_FRACTIONS = {
    "des1": [("medcon", Fraction(1, 2)), ("meteor", Fraction(1, 2))],
    "des2": [("medcon", Fraction(2, 5)), ("meteor", Fraction(2, 5)), ("cli", Fraction(1, 5))],
    "des3": [("fkgl", Fraction(-1, 9)), ("dcrs", Fraction(-1, 9)), ("cli", Fraction(-1, 9)),
             ("medcon", Fraction(2, 9)), ("meteor", Fraction(2, 9)), ("alignscore", Fraction(2, 9)),
             ("medcon", Fraction(1, 3)), ("meteor", Fraction(1, 3)), ("alignscore", Fraction(1, 3))],
}


def _weight(value):
    return des.parse_des_config({"criteria": [{"metric": "medcon", "weight": value}]}).criteria[0].weight


@pytest.mark.parametrize("text", ["2/4", "-1/9", "1/-9", "0/5", "1/2", "6/3", "-4/-6", "7/1"])
def test_n_over_d_parses_to_the_fraction_and_writes_its_text(text):
    """The weight is the fraction's float, and the JSON text written for it loads back to that float."""
    expected = float(Fraction(*map(int, text.split("/"))))
    config = des.parse_des_config({"criteria": [{"metric": "medcon", "weight": text}]})
    weight = config.criteria[0].weight
    assert type(weight) is float and weight == expected
    written = json.dumps(des.des_config_to_json(config))
    assert json.loads(written)["criteria"][0]["weight"] == expected
    assert des.parse_des_config(json.loads(written)) == config


@given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40).filter(bool))
def test_any_n_over_d_parses_to_the_float_of_its_fraction(numerator, denominator):
    assert _weight(f"{numerator}/{denominator}") == float(Fraction(numerator, denominator))


def test_a_zero_denominator_keeps_its_message():
    with pytest.raises(des.DesConfigError, match=r"^criterion 'medcon': cannot parse weight '1/0'$"):
        _weight("1/0")


@pytest.mark.parametrize("name", sorted(PRESET_FRACTIONS))
def test_preset_weights_equal_their_fractions(name):
    """Each preset weight is the float of the paper's fraction."""
    weights = [(c.metric, c.weight) for c in des.PRESETS[name].criteria]
    assert weights == [(metric, float(f)) for metric, f in PRESET_FRACTIONS[name]]
    assert all(type(w) is float for _, w in weights)


def test_a_fraction_weight_is_written_as_its_float():
    config = des.DesConfig("lib", (des.Criterion("medcon", Fraction(1, 3)), des.Criterion("meteor", Fraction(-2, 4))))
    assert [c["weight"] for c in des.des_config_to_json(config)["criteria"]] == [1 / 3, -0.5]
    loaded = des.parse_des_config(json.loads(json.dumps(des.des_config_to_json(config))))
    assert [c.weight for c in loaded.criteria] == [float(c.weight) for c in config.criteria]


@pytest.mark.parametrize(
    "weight",
    [f"1{'0' * 400}/1", f"-1{'0' * 400}/1", f"1{'0' * 401}/7", 10**400],
    ids=["n/d", "-n/d", "n/d_not_in_lowest_terms", "json_integer"],
)
def test_a_weight_too_large_for_a_float_is_a_config_error(weight):
    with pytest.raises(des.DesConfigError, match=r"^criterion 'medcon': weight is too large for a float$"):
        _weight(weight)


def test_a_weight_too_small_for_a_float_loads_as_zero():
    assert _weight(f"1/1{'0' * 400}") == 0.0 == float(Fraction(1, 10**400))
