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
offending field, which the CLI turns into an exit-2 message.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Any

from .integration import RandomVariable
from .measure import EventSet, ProbabilityMeasure, SampleSpace, SigmaAlgebra
from .numeric import Number, format_number, parse_number
from .processes import AdaptedProcess, Filtration, PredictableSequence, StoppingTime


class SpecError(ValueError):
    """A spec document failed validation at one specific field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


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
        try:
            return parse_number(raw)
        except ValueError as exc:
            raise SpecError(field, str(exc)) from None
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
    try:
        return EventSet(tuple(raw))
    except ValueError as exc:
        raise SpecError(field, str(exc)) from None


def _parse_partition(raw, field: str, space: SampleSpace) -> SigmaAlgebra:
    if not isinstance(raw, list) or not raw:
        raise SpecError(field, "a partition must be a non-empty array of index arrays")
    atoms = tuple(_parse_event(cell, f"{field}[{k}]", space) for k, cell in enumerate(raw))
    try:
        return SigmaAlgebra.from_atoms(space, atoms)
    except ValueError as exc:
        raise SpecError(field, str(exc)) from None


def _parse_values(raw, field: str, space: SampleSpace) -> RandomVariable:
    if not isinstance(raw, list):
        raise SpecError(field, "expected an array of values, one per outcome")
    if len(raw) != space.size:
        raise SpecError(field, f"got {len(raw)} values for {space.size} outcomes")
    values = tuple(_parse_value(v, f"{field}[{j}]") for j, v in enumerate(raw))
    return RandomVariable(space, values)


def _window(raw, field: str) -> int:
    """A positive-int tail-bound window; ``walk-spec`` shares the check, so its specs read back."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise SpecError(field, "expected a positive integer")
    return raw


def _epsilon(value: Number, field: str) -> Fraction:
    """A tail-bound epsilon, exact and strictly between 0 and 1 (shared as :func:`_window`)."""
    epsilon = Fraction(value)
    if not 0 < epsilon < 1:
        raise SpecError(field, f"must lie strictly between 0 and 1, got {epsilon}")
    return epsilon


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
    try:
        space = SampleSpace(tuple(outcomes))
    except ValueError as exc:
        raise SpecError(f"{prefix}outcomes", str(exc)) from None

    measure = None
    if "weights" in obj and obj["weights"] is not None:
        raw_w = obj["weights"]
        if not isinstance(raw_w, list):
            raise SpecError(f"{prefix}weights", "expected an array of rationals")
        if len(raw_w) != space.size:
            raise SpecError(
                f"{prefix}weights", f"got {len(raw_w)} weights for {space.size} outcomes"
            )
        weights = tuple(
            Fraction(_parse_value(w, f"{prefix}weights[{j}]")) for j, w in enumerate(raw_w)
        )
        try:
            measure = ProbabilityMeasure(space, weights)
        except ValueError as exc:
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


_SPEC_KEYS = frozenset(
    f.name for f in dataclasses.fields(ProcessSpec) if f.name != "measure"
)


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

    filtration = None
    if obj.get("filtration") is not None:
        raw_f = obj["filtration"]
        if not isinstance(raw_f, list) or not raw_f:
            raise SpecError("filtration", "expected a non-empty array of partitions")
        stages = tuple(
            _parse_partition(part, f"filtration[{n}]", space) for n, part in enumerate(raw_f)
        )
        try:
            filtration = Filtration(space, stages)
        except ValueError as exc:
            raise SpecError("filtration", str(exc)) from None

    process = None
    if obj.get("process") is not None:
        if filtration is None:
            raise SpecError("process", "a process needs a filtration in the same document")
        raw_p = obj["process"]
        if not isinstance(raw_p, list):
            raise SpecError("process", "expected an array of value arrays")
        if len(raw_p) != len(filtration.stages):
            raise SpecError(
                "process",
                f"got {len(raw_p)} stage arrays for a filtration with "
                f"{len(filtration.stages)} stages",
            )
        rvs = tuple(
            _parse_values(stage, f"process[{n}]", space) for n, stage in enumerate(raw_p)
        )
        try:
            process = AdaptedProcess(filtration, rvs)
        except ValueError as exc:
            raise SpecError("process", str(exc)) from None

    predictable = None
    if obj.get("predictable") is not None:
        if filtration is None:
            raise SpecError("predictable", "stakes need a filtration in the same document")
        raw_c = obj["predictable"]
        if not isinstance(raw_c, list):
            raise SpecError("predictable", "expected an array of value arrays")
        if len(raw_c) != filtration.horizon:
            raise SpecError(
                "predictable",
                f"got {len(raw_c)} stake arrays for horizon {filtration.horizon}",
            )
        rvs = tuple(
            _parse_values(stage, f"predictable[{n}]", space) for n, stage in enumerate(raw_c)
        )
        try:
            predictable = PredictableSequence(filtration, rvs)
        except ValueError as exc:
            raise SpecError("predictable", str(exc)) from None

    stopping = None
    if obj.get("stopping_time") is not None:
        if filtration is None:
            raise SpecError("stopping_time", "a stopping time needs a filtration")
        raw_t = obj["stopping_time"]
        if not isinstance(raw_t, list):
            raise SpecError("stopping_time", "expected an array of times (null = never)")
        if len(raw_t) != space.size:
            raise SpecError(
                "stopping_time", f"got {len(raw_t)} times for {space.size} outcomes"
            )
        for j, t in enumerate(raw_t):
            if t is not None and (not isinstance(t, int) or isinstance(t, bool)):
                raise SpecError(f"stopping_time[{j}]", "times must be integers or null")
        try:
            stopping = StoppingTime(filtration, tuple(raw_t))
        except ValueError as exc:
            raise SpecError("stopping_time", str(exc)) from None

    conditioning = None
    if obj.get("conditioning") is not None:
        conditioning = _parse_partition(obj["conditioning"], "conditioning", space)
    conditioning_fine = None
    if obj.get("conditioning_fine") is not None:
        conditioning_fine = _parse_partition(obj["conditioning_fine"], "conditioning_fine", space)

    variable = None
    if obj.get("variable") is not None:
        variable = _parse_values(obj["variable"], "variable", space)
    candidate = None
    if obj.get("candidate") is not None:
        candidate = _parse_values(obj["candidate"], "candidate", space)

    interval = None
    if obj.get("interval") is not None:
        raw_i = obj["interval"]
        if not isinstance(raw_i, list) or len(raw_i) != 2:
            raise SpecError("interval", "expected [a, b] with a < b")
        a = _parse_value(raw_i[0], "interval[0]")
        b = _parse_value(raw_i[1], "interval[1]")
        if not a < b:
            raise SpecError("interval", f"need a < b, got a = {a}, b = {b}")
        interval = (a, b)

    window = None
    if obj.get("window") is not None:
        window = _window(obj["window"], "window")

    epsilon = None
    if obj.get("epsilon") is not None:
        epsilon = _epsilon(_parse_value(obj["epsilon"], "epsilon"), "epsilon")

    bound = None
    if obj.get("bound") is not None:
        bound = _parse_value(obj["bound"], "bound")

    return ProcessSpec(
        space=space,
        measure=measure,
        filtration=filtration,
        process=process,
        predictable=predictable,
        stopping_time=stopping,
        conditioning=conditioning,
        conditioning_fine=conditioning_fine,
        variable=variable,
        candidate=candidate,
        interval=interval,
        window=window,
        epsilon=epsilon,
        bound=bound,
    )


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
