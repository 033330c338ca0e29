"""Parsing and emission of spec documents, field-path errors, round trips."""
import json
from fractions import Fraction

import pytest

from mglab import (
    SpecError,
    classify,
    make_coin_walk,
    parse_process_spec,
    parse_space_descriptor,
    to_jsonable,
)
from mglab.jsonio import filtration_to_obj, process_to_obj, space_to_obj


def spec_doc():
    return {
        "space": {
            "outcomes": ["HH", "HT", "TH", "TT"],
            "weights": ["1/4", "1/4", "1/4", "1/4"],
        },
        "filtration": [
            [[0, 1, 2, 3]],
            [[0, 1], [2, 3]],
            [[0], [1], [2], [3]],
        ],
        "process": [
            [0, 0, 0, 0],
            [1, 1, -1, -1],
            [2, 0, 0, -2],
        ],
    }


def test_parse_space_descriptor():
    space, P, gens = parse_space_descriptor(
        {
            "outcomes": ["a", "b", "c"],
            "weights": ["1/2", "1/4", "1/4"],
            "generators": [[0], [1, 2]],
        }
    )
    assert space.outcome_labels == ("a", "b", "c")
    assert P.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert [g.members for g in gens] == [(0,), (1, 2)]


def test_parse_space_descriptor_weights_optional():
    space, P, gens = parse_space_descriptor({"outcomes": ["a", "b"]})
    assert P is None and gens == []


def test_parse_process_spec_full():
    doc = spec_doc()
    doc["stopping_time"] = [1, 1, None, None]
    doc["interval"] = [-1, 1]
    doc["window"] = 1
    doc["epsilon"] = "1/3"
    spec = parse_process_spec(doc)
    assert spec.space.size == 4
    assert spec.process.horizon == 2
    assert classify(spec.process, spec.measure).is_martingale
    assert spec.stopping_time.times == (1, 1, None, None)
    assert spec.interval == (-1, 1)
    assert spec.window == 1 and spec.epsilon == Fraction(1, 3)


def test_numbers_parse_exactly():
    doc = spec_doc()
    doc["process"][2] = ["2", 0.0, "0", -2]
    spec = parse_process_spec(doc)
    vals = spec.process.values[2].values
    assert vals[0] == 2 and isinstance(vals[0], int)
    assert isinstance(vals[1], float)
    assert vals[3] == -2 and isinstance(vals[3], int)
    assert parse_process_spec(spec_doc()).process.values[2].values == (2, 0, 0, -2)


def test_decimal_strings_are_exact_rationals():
    doc = spec_doc()
    doc["process"][2] = ["0.3", "0.3", "0.3", "0.3"]
    doc["process"][1] = ["0.3", "0.3", "0.3", "0.3"]
    doc["process"][0] = ["0.3", "0.3", "0.3", "0.3"]
    spec = parse_process_spec(doc)
    assert spec.process.values[2].values[0] == Fraction(3, 10)


def test_float_weight_sum_error_says_floats_are_binary():
    outcomes = [f"w{i}" for i in range(8)]
    decimals = [0.1] * 6 + [0.2] * 2
    with pytest.raises(SpecError) as err:
        parse_space_descriptor({"outcomes": outcomes, "weights": decimals})
    assert str(err.value) == (
        "weights: weights sum to 18014398509481985/18014398509481984, not 1; JSON float "
        'weights are read as their exact binary values, while strings such as "0.1" or '
        '"1/10" are exact'
    )
    _, P, _ = parse_space_descriptor({"outcomes": outcomes, "weights": [str(w) for w in decimals]})
    assert sum(P.weights) == 1
    with pytest.raises(SpecError) as err:
        parse_space_descriptor({"outcomes": outcomes, "weights": ["1/10"] * 8})
    assert str(err.value) == "weights: weights sum to 4/5, not 1"


def test_field_paths_in_errors():
    doc = spec_doc()
    doc["filtration"][2] = [[0], [1], [2]]
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert "filtration" in str(err.value)

    doc = spec_doc()
    doc["process"][1] = [1, 2, -1, -1]
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert "process" in str(err.value)

    doc = spec_doc()
    doc["space"]["weights"] = ["1/2", "1/4", "1/4", "1/4"]
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert "weights" in str(err.value)


def test_stopping_time_field_errors():
    doc = spec_doc()
    doc["stopping_time"] = [1, 2, 1, 1]
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert "stopping_time" in str(err.value)
    doc["stopping_time"] = [0, 0, 0]
    with pytest.raises(SpecError):
        parse_process_spec(doc)


def test_bool_rejected_as_number():
    doc = spec_doc()
    doc["process"][0] = [True, 0, 0, 0]
    with pytest.raises(SpecError):
        parse_process_spec(doc)


def test_unknown_keys_rejected():
    doc = spec_doc()
    doc["banana"] = 1
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert "banana" in str(err.value)


def test_emission_round_trip():
    space, P, F, X = make_coin_walk(3, Fraction(1, 3))
    doc = {
        "space": space_to_obj(space, P),
        "filtration": filtration_to_obj(F),
        "process": process_to_obj(X),
    }
    text = json.dumps(to_jsonable(doc))
    spec = parse_process_spec(json.loads(text))
    assert spec.measure.weights == P.weights
    assert spec.process.values[3].values == X.values[3].values
    assert [a.members for a in spec.filtration.stage(2).atoms] == [
        a.members for a in F.stage(2).atoms
    ]


def test_to_jsonable_number_conventions():
    out = to_jsonable(
        {"i": 3, "q": Fraction(1, 3), "f": 0.1, "b": True, "s": "x", "n": None}
    )
    assert out == {
        "i": 3,
        "q": "1/3",
        "f": "0.10000000000000001",
        "b": True,
        "s": "x",
        "n": None,
    }


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_to_jsonable_report_objects():
    space, P, F, X = make_coin_walk(2, Fraction(1, 2))
    verdict = classify(X, P)
    out = to_jsonable(verdict)
    assert out["label"] == "martingale"
    assert out["witness"] is None
    assert json.dumps(out)
