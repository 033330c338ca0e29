"""Parsing and emission of spec documents, field-path errors, round trips."""
import json
import random
from fractions import Fraction

import pytest

from mglab import (
    SigmaAlgebra,
    SpecError,
    classify,
    make_coin_walk,
    parse_process_spec,
    parse_space_descriptor,
    to_jsonable,
)
from mglab.jsonio import filtration_to_obj, process_to_obj, space_to_obj
from support import rand_partition, rand_space, refine_partition


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


def test_descriptor_generators_null_or_refused():
    """Null generators mean none; anything else but an array is refused by name."""
    assert parse_space_descriptor({"outcomes": ["a"], "generators": None})[2] == []
    with pytest.raises(SpecError) as err:
        parse_space_descriptor({"outcomes": ["a"], "generators": 0})
    assert str(err.value) == "generators: expected an array of events"


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


def _without_filtration(doc):
    del doc["filtration"]
    return doc


def _edit(field, value):
    def edit(doc):
        doc[field] = value
        return doc
    return edit


STAKES = [[1, 1, 1, 1], [1, 1, 2, 2]]
# Each case edits spec_doc() (which carries a filtration and a process) and
# names the one refusal text it must raise, field path included.
FIELD_REFUSALS = {
    "process without a filtration": (
        _without_filtration, "process: a process needs a filtration in the same document"),
    "process not an array": (
        _edit("process", {"0": [0, 0, 0, 0]}), "process: expected an array of value arrays"),
    "process count": (
        _edit("process", [[0, 0, 0, 0], [1, 1, -1, -1]]),
        "process: got 2 stage arrays for a filtration with 3 stages"),
    "process stage not an array": (
        _edit("process", [[0, 0, 0, 0], 1, [2, 0, 0, -2]]),
        "process[1]: expected an array of values, one per outcome"),
    "process stage length": (
        _edit("process", [[0, 0, 0, 0], [1, 1, -1], [2, 0, 0, -2]]),
        "process[1]: got 3 values for 4 outcomes"),
    "process value": (
        _edit("process", [[0, 0, 0, 0], [1, 1, True, -1], [2, 0, 0, -2]]),
        "process[1][2]: booleans are not numbers"),
    "process constructor": (
        _edit("process", [[0, 0, 0, 0], [1, 2, -1, -1], [2, 0, 0, -2]]),
        "process: not adapted: X_1 is not measurable at stage 1; it splits atom [0, 1]"),
    "predictable without a filtration": (
        lambda doc: {"space": doc["space"], "predictable": STAKES},
        "predictable: stakes need a filtration in the same document"),
    "predictable not an array": (
        _edit("predictable", "1"), "predictable: expected an array of value arrays"),
    "predictable count": (
        _edit("predictable", [[1, 1, 1, 1]] * 3), "predictable: got 3 stake arrays for horizon 2"),
    "predictable stage length": (
        _edit("predictable", [[1, 1, 1, 1], [1, 1, 2]]),
        "predictable[1]: got 3 values for 4 outcomes"),
    "predictable value": (
        _edit("predictable", [["1/x", 1, 1, 1], [1, 1, 2, 2]]),
        "predictable[0][0]: cannot parse '1/x' as a number"),
    "predictable constructor": (
        _edit("predictable", [[1, 1, 1, 1], [1, 2, 2, 2]]),
        "predictable: not predictable: C_2 must be measurable at stage 1; it splits atom [0, 1]"),
    "stopping_time without a filtration": (
        lambda doc: {"space": doc["space"], "stopping_time": [1, 1, 1, 1]},
        "stopping_time: a stopping time needs a filtration"),
    "stopping_time not an array": (
        _edit("stopping_time", 1), "stopping_time: expected an array of times (null = never)"),
    "stopping_time count": (
        _edit("stopping_time", [0, 0, 0]), "stopping_time: got 3 times for 4 outcomes"),
    "stopping_time entry": (
        _edit("stopping_time", [1, "1", 1, 1]), "stopping_time[1]: times must be integers or null"),
    "stopping_time range": (
        _edit("stopping_time", [0, 0, 0, 5]),
        "stopping_time: stopping value at outcome 3 must be an integer in 0..2 or None, got 5"),
    "stopping_time constructor": (
        _edit("stopping_time", [1, 2, 1, 1]),
        "stopping_time: not a stopping time: {tau <= 1} splits the stage-1 atom [0, 1]"),
    "conditioning": (
        _edit("conditioning", []),
        "conditioning: a partition must be a non-empty array of index arrays"),
    "conditioning_fine": (
        _edit("conditioning_fine", [[0, 1], [1, 2, 3]]),
        "conditioning_fine: outcome 1 appears in two atoms; atoms must be disjoint"),
    "variable": (_edit("variable", [1, 2, 3]), "variable: got 3 values for 4 outcomes"),
    "candidate": (_edit("candidate", "x"),
                  "candidate: expected an array of values, one per outcome"),
    "interval not a pair": (_edit("interval", [1]), "interval: expected [a, b] with a < b"),
    "interval not an array": (_edit("interval", "1"), "interval: expected [a, b] with a < b"),
    "interval end": (_edit("interval", [0, "x"]), "interval[1]: cannot parse 'x' as a number"),
    "interval ends both bad": (_edit("interval", [None, "x"]),
                               "interval[0]: expected a number or numeric string, got NoneType"),
    "interval tied": (_edit("interval", ["1", 1]), "interval: need a < b, got a = 1, b = 1"),
    # The check is processes._interval, shared with the library, which reads -0.0 as 0.0.
    "interval reversed": (_edit("interval", [0.5, -0.0]),
                          "interval: need a < b, got a = 0.5, b = 0.0"),
    "window zero": (_edit("window", 0), "window: expected a positive integer"),
    "window bool": (_edit("window", True), "window: expected a positive integer"),
    "window string": (_edit("window", "2"), "window: expected a positive integer"),
    "epsilon range": (_edit("epsilon", "1"), "epsilon: must lie strictly between 0 and 1, got 1"),
    "epsilon float": (_edit("epsilon", -0.5),
                      "epsilon: must lie strictly between 0 and 1, got -1/2"),
    "epsilon number": (_edit("epsilon", "x"), "epsilon: cannot parse 'x' as a number"),
    "bound number": (_edit("bound", "x"), "bound: cannot parse 'x' as a number"),
    "bound type": (_edit("bound", [1]), "bound: expected a number or numeric string, got list"),
    "bound bool": (_edit("bound", False), "bound: booleans are not numbers"),
}


def _put(path, values):
    """An edit that sets the value array at ``path``, a field or ``"<field>[1]"``,
    in spec_doc() with STAKES added."""
    field, _, index = path.partition("[")

    def edit(doc):
        doc["predictable"] = [list(stakes) for stakes in STAKES]
        if index:
            doc[field][int(index[:-1])] = values
        else:
            doc[field] = values
        return doc
    return edit


def _weights(weights):
    def edit(doc):
        doc["space"]["weights"] = weights
        return doc
    return edit


# One bad entry of each kind, as JSON text, and the text that refuses it.
BAD_ENTRIES = {
    "bool": ("true", "booleans are not numbers"),
    "unparsable string": ('"1/x"', "cannot parse '1/x' as a number"),
    "Infinity": ("Infinity", "numbers must be finite, got inf"),
    "NaN": ("NaN", "numbers must be finite, got nan"),
    "1e400": ("1e400", "numbers must be finite, got inf"),
    "null": ("null", "expected a number or numeric string, got NoneType"),
    "list": ("[1]", "expected a number or numeric string, got list"),
    "object": ('{"a": 1}', "expected a number or numeric string, got dict"),
}
VALUE_PATHS = ["process[1]", "predictable[1]", "variable", "candidate"]
FLOAT_NOTE = ('; JSON float weights are read as their exact binary values, while strings such '
              'as "0.1" or "1/10" are exact')


def _entry_rows():
    """Every bad entry in every value array and in the weights, and a bad time
    after a range error: the first bad entry is named, whatever follows it."""
    rows, kinds = {}, list(BAD_ENTRIES)
    for path in VALUE_PATHS:
        for k, kind in enumerate(kinds):
            text, message = BAD_ENTRIES[kind]
            later = BAD_ENTRIES[kinds[k - 1]][0]
            rows[f"{path} {kind}"] = (
                _put(path, json.loads(f"[1, 1, {text}, 1]")), f"{path}[2]: {message}")
            rows[f"{path} {kind} before another bad entry"] = (
                _put(path, json.loads(f"[1, {text}, 1, {later}]")), f"{path}[1]: {message}")
    for kind, (text, message) in BAD_ENTRIES.items():
        rows[f"weight {kind} beside a negative weight"] = (
            _weights(json.loads(f'["-1/4", {text}, "1/2", "3/4"]')),
            f"space.weights[1]: {message}")
        rows[f"weight {kind} before a negative weight"] = (
            _weights(json.loads(f'[{text}, "-1/4", "1/2", "3/4"]')),
            f"space.weights[0]: {message}")
    for bad in ['"1"', "1.0", "true", "[1]", '{"a": 1}']:
        rows[f"stopping_time {bad} after a range error"] = (
            _edit("stopping_time", json.loads(f"[5, 0, {bad}, 0]")),
            "stopping_time[2]: times must be integers or null")
    return rows


FIELD_REFUSALS.update(_entry_rows())
FIELD_REFUSALS.update({
    "document not an object": (lambda doc: [doc], "(document): expected a JSON object"),
    "space missing": (
        lambda doc: {k: v for k, v in doc.items() if k != "space"}, "space: missing"),
    "space not an object": (_edit("space", ["HH"]), "space: expected a JSON object"),
    "outcomes empty": (
        _edit("space", {"outcomes": []}), "space.outcomes: expected a non-empty array of labels"),
    "outcome label": (
        _edit("space", {"outcomes": ["HH", 1, "TH", "TT"]}),
        "space.outcomes[1]: labels must be strings"),
    "weights not an array": (_weights("1/4"), "space.weights: expected an array of rationals"),
    "weights count": (_weights(["1/2", "1/2"]), "space.weights: got 2 weights for 4 outcomes"),
    "filtration empty": (_edit("filtration", []),
                         "filtration: expected a non-empty array of partitions"),
    "weight entry beside a bad sum": (
        _weights(["1/2", "1/2", "1/2", "x"]), "space.weights[3]: cannot parse 'x' as a number"),
    "weight entry beside negative float weights": (
        _weights([-0.25, 0.5, "x", 0.75]), "space.weights[2]: cannot parse 'x' as a number"),
    "negative weight": (
        _weights(["1/2", "-1/4", "1/2", "1/4"]),
        "space.weights: weight of outcome 1 is negative: -1/4"),
    "negative float weight": (
        _weights([0.5, -0.25, 0.5, 0.25]),
        "space.weights: weight of outcome 1 is negative: -1/4" + FLOAT_NOTE),
    "weights sum": (
        _weights(["1/2", "1/4", "1/4", "1/4"]), "space.weights: weights sum to 5/4, not 1"),
    "float weights sum": (
        _weights([0.5, 0.25, 0.25, 0.25]),
        "space.weights: weights sum to 5/4, not 1" + FLOAT_NOTE),
    "one float weight in a bad sum": (
        _weights(["1/2", "1/4", "1/4", 0.25]),
        "space.weights: weights sum to 5/4, not 1" + FLOAT_NOTE),
    "stopping_time float": (
        _edit("stopping_time", [1.0, 1, 1, 1]), "stopping_time[0]: times must be integers or null"),
    "stopping_time entry after a non-stopping time": (
        _edit("stopping_time", [1, 2, 1, "1"]), "stopping_time[3]: times must be integers or null"),
    "stopping_time negative": (
        _edit("stopping_time", [0, -1, 0, 0]),
        "stopping_time: stopping value at outcome 1 must be an integer in 0..2 or None, got -1"),
    "stopping_time range after never": (
        _edit("stopping_time", [None, 3, 0, 0]),
        "stopping_time: stopping value at outcome 1 must be an integer in 0..2 or None, got 3"),
    "stopping_time not stopping at stage 0": (
        _edit("stopping_time", [0, 1, 1, 1]),
        "stopping_time: not a stopping time: {tau <= 0} splits the stage-0 atom [0, 1, 2, 3]"),
    "stopping_time not stopping beside never": (
        _edit("stopping_time", [1, None, 2, 2]),
        "stopping_time: not a stopping time: {tau <= 1} splits the stage-1 atom [0, 1]"),
})
# Fields are read in one fixed order, whatever the document's key order: the
# refusal of the field read first wins.
FIELD_PRECEDENCE = {
    "process before predictable": (
        {"bound": "x", "predictable": "1", "process": 1}, "process: expected an array of value arrays"),
    "predictable before stopping_time": (
        {"stopping_time": 1, "predictable": "1"},
        "predictable: expected an array of value arrays"),
    "stopping_time before interval": (
        {"interval": [1], "stopping_time": [0]}, "stopping_time: got 1 times for 4 outcomes"),
    "conditioning before variable": (
        {"variable": [1], "conditioning_fine": [], "conditioning": []},
        "conditioning: a partition must be a non-empty array of index arrays"),
    "variable before candidate": (
        {"candidate": [1], "variable": [2]}, "variable: got 1 values for 4 outcomes"),
    "interval before window": (
        {"window": 0, "interval": [1, 0]}, "interval: need a < b, got a = 1, b = 0"),
    "window before epsilon": ({"epsilon": "2", "window": -1}, "window: expected a positive integer"),
    "epsilon before bound": (
        {"bound": None, "epsilon": 0}, "epsilon: must lie strictly between 0 and 1, got 0"),
    "unknown key before everything": (
        {"process": 1, "zzz": 1},
        "zzz: unknown field; expected one of bound, candidate, conditioning, conditioning_fine, "
        "epsilon, filtration, interval, predictable, process, space, stopping_time, variable, "
        "window"),
}


@pytest.mark.parametrize("case", FIELD_REFUSALS)
def test_each_spec_field_refuses_with_its_message(case):
    edit, message = FIELD_REFUSALS[case]
    with pytest.raises(SpecError) as err:
        parse_process_spec(edit(spec_doc()))
    assert str(err.value) == message


@pytest.mark.parametrize("path", VALUE_PATHS)
def test_value_strings_and_negative_zero_read_exactly(path):
    """A "1/3" reads as a Fraction, a "-0.0" as the int 0 and a JSON -0.0 as 0.0."""
    spec = parse_process_spec(_put(path, json.loads('["1/3", "1/3", "-0.0", -0.0]'))(spec_doc()))
    field, _, index = path.partition("[")
    read = getattr(spec, field)
    if index:
        read = read.values[1]
    assert repr(read.values) == "(Fraction(1, 3), Fraction(1, 3), 0, 0.0)"


@pytest.mark.parametrize("case", FIELD_PRECEDENCE)
def test_the_field_read_first_refuses_first(case):
    bad, message = FIELD_PRECEDENCE[case]
    doc = {**bad, **spec_doc(), **bad}  # the bad fields come first in the document
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert str(err.value) == message


# Every refusal of a partition, word for word, on spec_doc()'s four outcomes:
# the partition, the path below the field that is refused, and the text.
# A cell is checked whole before the next one, and then the cells are read by
# least member, empty cells first; the first fault met is the one named.
PARTITION_REFUSALS = {
    "not an array": ({"0": [0]}, "", "a partition must be a non-empty array of index arrays"),
    "no cells": ([], "", "a partition must be a non-empty array of index arrays"),
    "cell not an array": ([[0, 1], 2, [3]], "[1]", "an event must be an array of outcome indices"),
    "bool index": ([[0, True], [2, 3]], "[0][1]", "outcome indices must be integers"),
    "float index": ([[0, 1], [2, 3.0]], "[1][1]", "outcome indices must be integers"),
    "string index": ([["0"], [1, 2, 3]], "[0][0]", "outcome indices must be integers"),
    "index -1": ([[0, 1], [-1, 2, 3]], "[1][0]", "index -1 out of range for 4 outcomes"),
    "index equal to the size": ([[0, 1, 4], [2, 3]], "[0][2]",
                                "index 4 out of range for 4 outcomes"),
    "repeated index": ([[0, 1], [3, 2, 3, 2]], "[1]", "duplicate outcome index 2 in event"),
    "empty cell beside an overlap": ([[0, 1], [1, 2, 3], []], "", "atoms must be non-empty"),
    "overlap": ([[0, 1], [1, 2, 3]], "", "outcome 1 appears in two atoms; atoms must be disjoint"),
    # Read by least member with sorted members, as [0, 2], [1, 3], [2, 3], the
    # first outcome met twice is 2; in document order, or with the members
    # as written, it would be 3.
    "overlap out of order": ([[3, 1], [3, 2], [2, 0]], "",
                             "outcome 2 appears in two atoms; atoms must be disjoint"),
    "not covering": ([[0, 1]], "", "atoms do not cover the space: outcome 2 is unassigned"),
    "smallest uncovered": ([[3], [0]], "", "atoms do not cover the space: outcome 1 is unassigned"),
    "bad cell after an overlap": ([[0, 1], [1, 2], [3, "x"]], "[2][1]",
                                  "outcome indices must be integers"),
}


@pytest.mark.parametrize("field", ["filtration[1]", "conditioning", "conditioning_fine"])
@pytest.mark.parametrize("case", PARTITION_REFUSALS)
def test_every_partition_refusal_word_for_word(field, case):
    partition, below, message = PARTITION_REFUSALS[case]
    doc = spec_doc()
    if field == "filtration[1]":
        doc["filtration"][1] = partition
    else:
        doc[field] = partition
    with pytest.raises(SpecError) as err:
        parse_process_spec(doc)
    assert str(err.value) == f"{field}{below}: {message}"


def test_shuffled_cells_parse_to_the_labelled_sigma_algebra():
    """Neither the order of the cells nor that of a cell's indices matters: the
    parse equals the constructor on the shuffled cells' positions as labels."""
    rng = random.Random(12)
    for _ in range(300):
        space = rand_space(rng, max_size=10)
        sigma = rand_partition(rng, space)
        if rng.random() < 0.5:
            sigma = refine_partition(rng, sigma)
        cells = [rng.sample(atom.members, len(atom)) for atom in sigma.atoms]
        rng.shuffle(cells)
        positions = [0] * space.size
        for k, cell in enumerate(cells):
            for i in cell:
                positions[i] = k
        expected = SigmaAlgebra(space, positions)
        doc = {"space": space_to_obj(space, None), "conditioning": cells}
        parsed = parse_process_spec(json.loads(json.dumps(doc))).conditioning
        assert parsed == expected == sigma
        assert (parsed.labels, parsed.atom_count, parsed.least_members, parsed.atoms) == (
            expected.labels, expected.atom_count, expected.least_members, expected.atoms)
