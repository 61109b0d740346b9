"""DES weights in their exact ``"n/d"`` form, checked against ``fractions.Fraction``.

``des`` keeps such a weight as a :class:`~dischargekit.des.Ratio` so that no
``select`` or ``simulate`` process imports ``fractions`` (and ``decimal``);
the tests use ``fractions`` as the oracle it stands in for.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from dischargekit import des

PRESET_FRACTIONS = {
    "des1": [("medcon", Fraction(1, 2)), ("meteor", Fraction(1, 2))],
    "des2": [("medcon", Fraction(2, 5)), ("meteor", Fraction(2, 5)), ("cli", Fraction(1, 5))],
    "des3": [("fkgl", Fraction(-1, 9)), ("dcrs", Fraction(-1, 9)), ("cli", Fraction(-1, 9)),
             ("medcon", Fraction(2, 9)), ("meteor", Fraction(2, 9)), ("alignscore", Fraction(2, 9)),
             ("medcon", Fraction(1, 3)), ("meteor", Fraction(1, 3)), ("alignscore", Fraction(1, 3))],
}


@pytest.mark.parametrize("text", ["2/4", "-1/9", "1/-9", "0/5", "1/2", "6/3", "-4/-6", "7/1"])
def test_n_over_d_parses_to_the_fraction_and_writes_its_text(text):
    expected = Fraction(*map(int, text.split("/")))
    config = des.parse_des_config({"criteria": [{"metric": "medcon", "weight": text}]})
    weight = config.criteria[0].weight
    assert weight == expected and expected == weight
    assert hash(weight) == hash(expected)
    assert float(weight) == float(expected)
    assert (weight.numerator, weight.denominator) == (expected.numerator, expected.denominator)
    written = des.des_config_to_json(config)["criteria"][0]["weight"]
    assert written == f"{expected.numerator}/{expected.denominator}"
    assert des.parse_des_config(json.loads(json.dumps(des.des_config_to_json(config)))) == config


def test_a_zero_denominator_keeps_its_message():
    with pytest.raises(des.DesConfigError, match=r"^criterion 'medcon': cannot parse weight '1/0'$"):
        des.parse_des_config({"criteria": [{"metric": "medcon", "weight": "1/0"}]})


@pytest.mark.parametrize("name", sorted(PRESET_FRACTIONS))
def test_preset_weights_equal_their_fractions(name):
    weights = [(c.metric, c.weight) for c in des.PRESETS[name].criteria]
    assert weights == PRESET_FRACTIONS[name]
    assert [hash(w) for _, w in weights] == [hash(f) for _, f in PRESET_FRACTIONS[name]]
    assert [float(w) for _, w in weights] == [float(f) for _, f in PRESET_FRACTIONS[name]]
    assert all(isinstance(w, des.Ratio) for _, w in weights)


def test_ratio_compares_exactly_with_floats_and_not_with_other_types():
    assert des.Ratio(1, 2) == 0.5 and des.Ratio(-3, 4) == -0.75
    assert des.Ratio(1, 3) != 1 / 3
    assert des.Ratio(1, 2) != math.nan and des.Ratio(1, 2) != math.inf
    assert des.Ratio(4, 2) == 2 and hash(des.Ratio(4, 2)) == hash(2)
    assert des.Ratio(1, 2) != "1/2" and des.Ratio(1, 2) is not None


def test_a_fraction_weight_is_written_exactly():
    config = des.DesConfig("lib", (des.Criterion("medcon", Fraction(1, 3)), des.Criterion("meteor", Fraction(-2, 4))))
    assert [c["weight"] for c in des.des_config_to_json(config)["criteria"]] == ["1/3", "-1/2"]
    assert des.parse_des_config(des.des_config_to_json(config)) == config


@pytest.mark.parametrize(
    "weight",
    [f"1{'0' * 400}/1", f"-1{'0' * 400}/1", f"1{'0' * 401}/7", 10**400],
    ids=["n/d", "-n/d", "n/d_not_in_lowest_terms", "json_integer"],
)
def test_a_weight_too_large_for_a_float_is_a_config_error(weight):
    with pytest.raises(des.DesConfigError, match=r"^criterion 'medcon': weight is too large for a float$"):
        des.parse_des_config({"criteria": [{"metric": "medcon", "weight": weight}]})


def test_a_weight_too_small_for_a_float_keeps_its_exact_value():
    text = f"1/1{'0' * 400}"
    weight = des.parse_des_config({"criteria": [{"metric": "medcon", "weight": text}]}).criteria[0].weight
    assert weight == Fraction(1, 10**400) and float(weight) == 0.0
