"""JSON formats shared by the CLI and any scripting user.

Two document shapes live here.  A *space descriptor* carries outcomes,
optional weights, and optional generator events:

    {"outcomes": ["a","b","c","d"],
     "weights": ["1/4","1/4","1/4","1/4"],
     "generators": [[0],[1]]}

A *process spec* extends that with a filtration (list of partitions, each a
list of index arrays), a process (list of value arrays), and the optional
pieces individual theorem checks need (predictable stakes, stopping time
with null for NEVER, conditioning partitions, a plain variable and
candidate, an interval, a window and epsilon, a stake bound).

Numbers are accepted as JSON integers, JSON floats, or strings; strings
parse exactly, so "0.3" means 3/10 and "1/3" means a third, while a bare
JSON float stays a float and marks the value inexact; a non-finite one
(Infinity, NaN, or an overflowing literal such as 1e400) is rejected.
Weights are exact rationals, so a JSON float weight is its exact binary
value (0.1 is 3602879701896397/36028797018963968); a weight error on a
document with float weights says so.  On output, rationals print as "p/q"
strings and floats with 17 significant digits; both directions round-trip.

Validation failures raise :class:`SpecError` carrying the path of the first
offending field, which the CLI turns into an exit-2 message.  Value arrays,
weights and stopping times are handed to their constructors as read; the
per-entry readers run only when a constructor refuses, to name the first
bad entry.  A process spec's
fields after the space are read in one fixed order, one reader per field, so
of two bad fields the one read first is reported.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import chain
from typing import Any

from .integration import RandomVariable
from .measure import EventSet, ProbabilityMeasure, SampleSpace, SigmaAlgebra, _trusted
from .numeric import Number, format_number, parse_number
from .processes import (AdaptedProcess, Filtration, PredictableSequence, StoppingTime, _epsilon,
                        _interval, _window)


class SpecError(ValueError):
    """A spec document failed validation at one specific field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def _built(field: str, build, *args):
    """``build(*args)``, with a ValueError it raises reported at ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SpecError(field, str(exc)) from None


def _parse_value(raw, field: str) -> Number:
    if isinstance(raw, bool):
        raise SpecError(field, "booleans are not numbers")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        # Python's json reads Infinity, NaN and out-of-range literals such
        # as 1e400 as non-finite floats.
        if not math.isfinite(raw):
            raise SpecError(field, f"numbers must be finite, got {raw!r}")
        return raw
    if isinstance(raw, str):
        return _built(field, parse_number, raw)
    raise SpecError(field, f"expected a number or numeric string, got {type(raw).__name__}")


def _parse_event(raw, field: str, space: SampleSpace) -> EventSet:
    if not isinstance(raw, list):
        raise SpecError(field, "an event must be an array of outcome indices")
    for j, idx in enumerate(raw):
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise SpecError(f"{field}[{j}]", "outcome indices must be integers")
        if not 0 <= idx < space.size:
            raise SpecError(
                f"{field}[{j}]", f"index {idx} out of range for {space.size} outcomes"
            )
    return _built(field, EventSet, tuple(raw))


def _parse_partition(raw, field: str, space: SampleSpace) -> SigmaAlgebra:
    """The sigma-algebra whose atoms are the cells of ``raw``, read straight into labels.

    Every cell is checked first, in order (:func:`_parse_event` words a
    refusal).  The cells are then numbered by least member, empty cells
    first, which makes the labels canonical as they stand; an empty cell, an
    overlap and an uncovered outcome are refused in that order.
    """
    if not isinstance(raw, list) or not raw:
        raise SpecError(field, "a partition must be a non-empty array of index arrays")
    size = space.size
    cells, least = [], []
    for k, cell in enumerate(raw):
        if not (type(cell) is list and set(map(type, cell)) <= {int} and len(set(cell)) == len(cell)
                and (not cell or 0 <= min(cell) and max(cell) < size)):
            cell = _parse_event(cell, f"{field}[{k}]", space).members
        cells.append(cell)
        least.append(min(cell) if cell else -1)
    order = sorted(range(len(cells)), key=least.__getitem__)
    if not cells[order[0]]:
        raise SpecError(field, "atoms must be non-empty")
    labels = [-1] * size
    for pos, k in enumerate(order):
        for i in cells[k]:
            labels[i] = pos
    if sum(map(len, cells)) != size or -1 in labels:
        seen: set[int] = set()
        for i in chain.from_iterable(sorted(cells[k]) for k in order):
            if i in seen:
                raise SpecError(field, f"outcome {i} appears in two atoms; atoms must be disjoint")
            seen.add(i)
        missing = labels.index(-1)
        raise SpecError(field, f"atoms do not cover the space: outcome {missing} is unassigned")
    return _trusted(SigmaAlgebra, space=space, labels=tuple(labels), atom_count=len(cells),
                    least_members=tuple(least[k] for k in order))


def _parse_values(raw, field: str, space: SampleSpace) -> RandomVariable:
    if not isinstance(raw, list):
        raise SpecError(field, "expected an array of values, one per outcome")
    if len(raw) != space.size:
        raise SpecError(field, f"got {len(raw)} values for {space.size} outcomes")
    try:
        return RandomVariable(space, raw)
    except (TypeError, ValueError):
        for j, v in enumerate(raw):
            _parse_value(v, f"{field}[{j}]")
        raise


def parse_space(obj, field: str = "") -> tuple[SampleSpace, ProbabilityMeasure | None]:
    """Parse the outcomes and optional weights of a descriptor object."""
    prefix = f"{field}." if field else ""
    if not isinstance(obj, dict):
        raise SpecError(field or "(document)", "expected a JSON object")
    outcomes = obj.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise SpecError(f"{prefix}outcomes", "expected a non-empty array of labels")
    for j, label in enumerate(outcomes):
        if not isinstance(label, str):
            raise SpecError(f"{prefix}outcomes[{j}]", "labels must be strings")
    space = _built(f"{prefix}outcomes", SampleSpace, tuple(outcomes))

    measure = None
    if "weights" in obj and obj["weights"] is not None:
        raw_w = obj["weights"]
        if not isinstance(raw_w, list):
            raise SpecError(f"{prefix}weights", "expected an array of rationals")
        if len(raw_w) != space.size:
            raise SpecError(
                f"{prefix}weights", f"got {len(raw_w)} weights for {space.size} outcomes"
            )
        try:
            measure = ProbabilityMeasure(space, raw_w)
        except (TypeError, ValueError) as exc:
            for j, w in enumerate(raw_w):
                _parse_value(w, f"{prefix}weights[{j}]")
            message = str(exc)
            if any(isinstance(w, float) for w in raw_w):
                message += (
                    "; JSON float weights are read as their exact binary values, while "
                    'strings such as "0.1" or "1/10" are exact'
                )
            raise SpecError(f"{prefix}weights", message) from None
    return space, measure


def parse_space_descriptor(
    obj,
) -> tuple[SampleSpace, ProbabilityMeasure | None, list[EventSet]]:
    """Parse a sigma-command descriptor: outcomes, optional weights, generators."""
    space, measure = parse_space(obj)
    generators: list[EventSet] = []
    raw_gens = obj.get("generators", [])
    if raw_gens is None:
        raw_gens = []
    if not isinstance(raw_gens, list):
        raise SpecError("generators", "expected an array of events")
    for k, g in enumerate(raw_gens):
        generators.append(_parse_event(g, f"generators[{k}]", space))
    return space, measure, generators


@dataclasses.dataclass(frozen=True)
class ProcessSpec:
    """Everything a verify command might need, parsed and validated.

    Fields beyond ``space`` are present only when the document carried
    them; each theorem selector states which ones it requires and the CLI
    reports a missing field by name.
    """

    space: SampleSpace
    measure: ProbabilityMeasure | None
    filtration: Filtration | None
    process: AdaptedProcess | None
    predictable: PredictableSequence | None
    stopping_time: StoppingTime | None
    conditioning: SigmaAlgebra | None
    conditioning_fine: SigmaAlgebra | None
    variable: RandomVariable | None
    candidate: RandomVariable | None
    interval: tuple[Number, Number] | None
    window: int | None
    epsilon: Fraction | None
    bound: Number | None


def _needs_filtration(spec: dict, field: str, message: str) -> Filtration:
    if spec["filtration"] is None:
        raise SpecError(field, message)
    return spec["filtration"]


def _read_filtration(raw, field: str, spec: dict) -> Filtration:
    if not isinstance(raw, list) or not raw:
        raise SpecError(field, "expected a non-empty array of partitions")
    space = spec["space"]
    stages = tuple(_parse_partition(part, f"{field}[{n}]", space) for n, part in enumerate(raw))
    return _built(field, Filtration, space, stages)


def _stage_reader(cls, lag: int, needs: str, arrays: str):
    """The reader of ``cls``'s per-stage value arrays, ``len(stages) - lag``
    of them; ``arrays`` words a wrong count, given the count due."""

    def read(raw, field: str, spec: dict):
        filtration = _needs_filtration(spec, field, needs)
        if not isinstance(raw, list):
            raise SpecError(field, "expected an array of value arrays")
        due = len(filtration.stages) - lag
        if len(raw) != due:
            raise SpecError(field, f"got {len(raw)} {arrays.format(due)}")
        rvs = tuple(_parse_values(v, f"{field}[{n}]", spec["space"]) for n, v in enumerate(raw))
        return _built(field, cls, filtration, rvs)

    return read


def _read_stopping_time(raw, field: str, spec: dict) -> StoppingTime:
    filtration = _needs_filtration(spec, field, "a stopping time needs a filtration")
    if not isinstance(raw, list):
        raise SpecError(field, "expected an array of times (null = never)")
    size = spec["space"].size
    if len(raw) != size:
        raise SpecError(field, f"got {len(raw)} times for {size} outcomes")
    try:
        return _built(field, StoppingTime, filtration, raw)
    except SpecError:
        for j, t in enumerate(raw):
            if t is not None and (not isinstance(t, int) or isinstance(t, bool)):
                raise SpecError(f"{field}[{j}]", "times must be integers or null") from None
        raise


def _read_interval(raw, field: str, spec: dict) -> tuple[Number, Number]:
    if not isinstance(raw, list) or len(raw) != 2:
        raise SpecError(field, "expected [a, b] with a < b")
    return _built(field, _interval, *(_parse_value(v, f"{field}[{j}]") for j, v in enumerate(raw)))


# One reader per optional field, in reading order: the first refusal in this
# order wins, whatever the document's key order.  A reader sees the fields
# read before it.
_READERS = {
    "filtration": _read_filtration,
    "process": _stage_reader(
        AdaptedProcess, 0, "a process needs a filtration in the same document",
        "stage arrays for a filtration with {} stages"),
    "predictable": _stage_reader(
        PredictableSequence, 1, "stakes need a filtration in the same document",
        "stake arrays for horizon {}"),
    "stopping_time": _read_stopping_time,
    "conditioning": lambda raw, field, spec: _parse_partition(raw, field, spec["space"]),
    "conditioning_fine": lambda raw, field, spec: _parse_partition(raw, field, spec["space"]),
    "variable": lambda raw, field, spec: _parse_values(raw, field, spec["space"]),
    "candidate": lambda raw, field, spec: _parse_values(raw, field, spec["space"]),
    "interval": _read_interval,
    "window": lambda raw, field, spec: _built(field, _window, raw),
    "epsilon": lambda raw, field, spec: _built(field, _epsilon, _parse_value(raw, field)),
    "bound": lambda raw, field, spec: _parse_value(raw, field),
}
_SPEC_KEYS = frozenset(("space", *_READERS))


def parse_process_spec(obj) -> ProcessSpec:
    if not isinstance(obj, dict):
        raise SpecError("(document)", "expected a JSON object")
    for key in obj:
        if key not in _SPEC_KEYS:
            raise SpecError(
                key, f"unknown field; expected one of {', '.join(sorted(_SPEC_KEYS))}"
            )
    if "space" not in obj:
        raise SpecError("space", "missing")
    space, measure = parse_space(obj["space"], "space")
    spec = {"space": space, "measure": measure}
    for field, read in _READERS.items():
        raw = obj.get(field)
        spec[field] = None if raw is None else read(raw, field, spec)
    return ProcessSpec(**spec)


# ---------------------------------------------------------------------------
# Emission


def space_to_obj(space: SampleSpace, measure: ProbabilityMeasure | None) -> dict:
    obj: dict[str, Any] = {"outcomes": space.outcome_labels}
    if measure is not None:
        obj["weights"] = measure.weights
    return to_jsonable(obj)


def filtration_to_obj(filtration: Filtration) -> list:
    return to_jsonable(filtration.stages)


def process_to_obj(process: AdaptedProcess) -> list:
    return to_jsonable(process.values)


def to_jsonable(value):
    """Recursively convert package values to JSON-ready structures.

    Integers stay JSON integers (JSON carries them exactly); rationals
    become "p/q" strings and floats become 17-digit strings, so every
    number in a report round-trips; EventSets become index arrays;
    dataclasses become objects in field order, which keeps byte-identical
    output stable across runs.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (Fraction, float)):
        return format_number(value)
    if isinstance(value, EventSet):
        return list(value.members)
    if isinstance(value, RandomVariable):
        return [to_jsonable(v) for v in value.values]
    if isinstance(value, SigmaAlgebra):
        return [list(atom.members) for atom in value.atoms]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            out[f.name] = to_jsonable(getattr(value, f.name))
        return out
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
