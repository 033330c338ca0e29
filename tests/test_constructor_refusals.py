"""Each public constructor and check refuses bad input with one exact message.

Code that derives objects from checked ones may skip these checks; the
public constructors, and the JSON readers built on them, keep every one.
Each exact report likewise refuses a measure on another sample space, of the
same size or larger, before it sums anything.  Arguments that must share a
sample space or a filtration go through one guard (``measure._agree``); the
coin-walk parameters, the upcrossing interval and the tail-bound window and
epsilon have one check each.  Each of
these is shared by every entry point that takes such arguments; their texts,
and which refusal wins, are pinned here per entry point.  A ``(False, reason)``
verdict is pinned the same way, its reason raised by :func:`_refused`.
"""
from fractions import Fraction

import numpy as np
import pytest

import mglab.cli as cli
from mglab import (
    AdaptedProcess,
    DoublingModel,
    EventSet,
    Filtration,
    Functional,
    MartingaleClassification,
    PathEnsemble,
    PredictableSequence,
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    SizeLimitError,
    SpecError,
    StoppingTime,
    WalkModel,
    check_sigma_axioms,
    classify,
    conditional_expectation,
    contains,
    count_upcrossings,
    discrete_sigma_algebra,
    exact_doubling_process,
    expectation,
    format_number,
    is_measurable,
    is_probability,
    is_stopping_time,
    l2_pythagoras_check,
    make_coin_walk,
    optional_stopping_report,
    parse_process_spec,
    simulate_doubling_strategy,
    simulate_walk,
    staircase_approximation,
    stopped_process,
    stopping_tail_bound_check,
    tower_check,
    transform,
    trivial_sigma_algebra,
    uniform_measure,
    upcrossing_inequality_check,
    verify_kolmogorov,
    verify_transform_preservation,
)

S2 = SampleSpace(["a", "b"])
S3 = SampleSpace(["x", "y", "z"])
OTHER3 = SampleSpace(["u", "v", "w"])
F3 = Filtration(S3, [trivial_sigma_algebra(S3), SigmaAlgebra(S3, [0, 0, 1])])


def _rv(values, space=S3):
    return RandomVariable(space, values)


X3 = AdaptedProcess(F3, [_rv([0, 0, 0]), _rv([1, 1, 2])])
C3 = PredictableSequence(F3, [_rv([1, 1, 1])])
TAU3 = StoppingTime(F3, [1, 1, 1])
# A second filtration on S3: stakes and a stopping time that X3 does not share.
G3 = Filtration(S3, [trivial_sigma_algebra(S3), SigmaAlgebra(S3, [0, 1, 1])])
C_G3 = PredictableSequence(G3, [_rv([1, 1, 1])])
TAU_G3 = StoppingTime(G3, [1, 1, 1])
V_OTHER = RandomVariable(OTHER3, [1, 2, 3])
FOREIGN = {
    "same size": uniform_measure(OTHER3),
    "larger": uniform_measure(SampleSpace(["p", "q", "r", "s"])),
}
REPORTS = {
    "classify": lambda P: classify(X3, P),
    "transform": lambda P: verify_transform_preservation(C3, X3, P, 1),
    "optional stopping": lambda P: optional_stopping_report(X3, TAU3, P),
    "upcrossing": lambda P: upcrossing_inequality_check(X3, P, 0, 1),
    "pythagoras": lambda P: l2_pythagoras_check(X3, P),
}
U3 = uniform_measure(S3)
SPACES = "all arguments must share one sample space"
SHARED_FILTRATION = "stopping time and process must share one filtration"
# Each entry point that takes arguments which must share a space or a filtration,
# given one argument from elsewhere.
FOREIGN_ARGUMENTS = {
    "RandomVariable.__add__": (
        lambda: _rv([1, 2, 3]) + V_OTHER, "random variables live on different sample spaces"),
    "RandomVariable.__sub__": (
        lambda: _rv([1, 2, 3]) - V_OTHER, "random variables live on different sample spaces"),
    "is_measurable": (
        lambda: is_measurable(V_OTHER, F3.stages[1]),
        "variable and sigma-algebra live on different spaces"),
    "expectation": (
        lambda: expectation(V_OTHER, U3), "variable and measure live on different spaces"),
    "conditional_expectation": (
        lambda: conditional_expectation(V_OTHER, F3.stages[1], U3),
        "variable, sigma-algebra, and measure must share one space"),
    "verify_kolmogorov on a foreign candidate": (
        lambda: verify_kolmogorov(_rv([1, 2, 3]), F3.stages[1], U3, V_OTHER), SPACES),
    "tower_check on a foreign measure": (
        lambda: tower_check(_rv([1, 2, 3]), F3.stages[0], F3.stages[1], FOREIGN["same size"]),
        SPACES),
    "transform": (lambda: transform(C_G3, X3), "stakes and process must share one filtration"),
    "verify_transform_preservation on foreign stakes": (
        lambda: verify_transform_preservation(C_G3, X3, U3, 1),
        "stakes and process must share one filtration"),
    "stopped_process": (lambda: stopped_process(X3, TAU_G3), SHARED_FILTRATION),
    "optional_stopping_report on a foreign stopping time": (
        lambda: optional_stopping_report(X3, TAU_G3, U3), SHARED_FILTRATION),
    "stopping_tail_bound_check on a foreign stopping time": (
        lambda: stopping_tail_bound_check(TAU_G3, F3, U3, 1, Fraction(1, 2)),
        "stopping time was built on a different filtration"),
}


def _refused(verdict):
    """A ``(False, reason)`` verdict raised as ``ValueError(reason)``, so that it is
    pinned as a row like any refusal."""
    ok, reason = verdict
    assert ok is False
    raise ValueError(reason)


def _walk_spec(*flags):
    """``mgl walk-spec --n 1`` with ``flags``, run in process up to its first refusal."""
    args = cli.build_parser().parse_args(["walk-spec", "--n", "1", *flags])
    return args.func(args)


def _spec_interval(a, b):
    return parse_process_spec({"space": {"outcomes": ["x"]}, "interval": [a, b]})


def _spec_field(field, raw):
    return parse_process_spec({"space": {"outcomes": ["x"]}, field: raw})


def _tail_bound(window, epsilon):
    return stopping_tail_bound_check(TAU3, F3, U3, window, epsilon)


PATHS = np.zeros((1, 2), dtype=np.int8)
HORIZON = "the horizon must be a positive integer"
CAP_25 = (
    "a horizon of 25 means 2**25 = 33554432 outcomes, over the exact-enumeration cap of 20; "
    "use the Monte Carlo engine instead: mglab.montecarlo.simulate_walk for long walks, "
    "mglab.montecarlo.simulate_doubling_strategy for doubling episodes"
)
P_2 = "heads probability must lie in [0, 1], got 2"
WALKS = {
    "make_coin_walk": make_coin_walk,
    "WalkModel": WalkModel,
    "simulate_walk": lambda N, p: simulate_walk(N, p, 10, 0),
}
POSITIVE = "expected a positive integer"
WINDOWS = [("zero window", 0, POSITIVE), ("negative window", -3, POSITIVE)]
NON_INT_WINDOWS = [("bool window", True, POSITIVE), ("string window", "2", POSITIVE)]
EPSILONS = [
    (f"epsilon {raw}", raw, f"must lie strictly between 0 and 1, got {shown}")
    for raw, shown in [("1", "1"), (0, "0"), (-0.5, "-1/2"), ("3/2", "3/2")]
]
INTERVALS = {
    "count_upcrossings": lambda a, b: count_upcrossings([0, 1], a, b),
    "upcrossing_inequality_check": lambda a, b: upcrossing_inequality_check(X3, U3, a, b),
    "Functional.upcrossings": Functional.upcrossings,
}


CASES = {
    "variable length": (
        lambda: _rv([1, 2], S3), ValueError, "got 2 values for a space of 3 outcomes"),
    "variable bool": (
        lambda: _rv([True, 0], S2), TypeError, "booleans are not valid numeric values"),
    "variable inf": (
        lambda: _rv([0, float("inf")], S2), ValueError, "numeric values must be finite, got inf"),
    "variable nan": (
        lambda: _rv([float("nan"), 0], S2), ValueError, "numeric values must be finite, got nan"),
    "variable type": (
        lambda: _rv([None, 0], S2), TypeError,
        "expected int, Fraction, float, or numeric string, got NoneType"),
    "variable string": (
        lambda: _rv(["1/x", 0], S2), ValueError, "cannot parse '1/x' as a number"),
    "sigma length": (
        lambda: SigmaAlgebra(S3, [0, 1]), ValueError,
        "got 2 atom labels for a space of 3 outcomes"),
    "sigma negative label": (
        lambda: SigmaAlgebra(S3, [0, -1, 0]), ValueError,
        "atom labels must be non-negative integers"),
    "sigma bool label": (
        lambda: SigmaAlgebra(S2, [0, True]), ValueError,
        "atom labels must be non-negative integers"),
    "filtration empty": (
        lambda: Filtration(S3, []), ValueError, "a filtration needs at least one stage"),
    "filtration foreign space": (
        lambda: Filtration(S3, [trivial_sigma_algebra(S3), discrete_sigma_algebra(OTHER3)]),
        ValueError, "stage 1 lives on a different sample space"),
    "filtration not refining": (
        lambda: Filtration(S3, [discrete_sigma_algebra(S3), SigmaAlgebra(S3, [0, 1, 1])]),
        ValueError, "stage 1 does not refine stage 0: atom [1, 2] straddles two earlier atoms"),
    "process count": (
        lambda: AdaptedProcess(F3, [_rv([0, 0, 0])]), ValueError,
        "got 1 stage values for a filtration with 2 stages"),
    "process foreign space": (
        lambda: AdaptedProcess(F3, [_rv([0, 0, 0]), _rv([1, 1, 2], OTHER3)]), ValueError,
        "X_1 lives on a different sample space"),
    "process not adapted": (
        lambda: AdaptedProcess(F3, [_rv([0, 0, 0]), _rv([1, Fraction(1, 2), 2])]), ValueError,
        "not adapted: X_1 is not measurable at stage 1; it splits atom [0, 1]"),
    "process not adapted at stage 0": (
        lambda: AdaptedProcess(F3, [_rv([0, 0, 1]), _rv([1, 1, 2])]), ValueError,
        "not adapted: X_0 is not measurable at stage 0; it splits atom [0, 1, 2]"),
    **{
        f"{report} on a {size} foreign measure": (
            lambda run=run, P=P: run(P), ValueError,
            "process and measure live on different sample spaces")
        for report, run in REPORTS.items() for size, P in FOREIGN.items()
    },
    **{
        f"tail bound on a {size} foreign measure": (
            lambda P=P: stopping_tail_bound_check(TAU3, F3, P, 1, Fraction(1, 2)), ValueError,
            "filtration and measure live on different sample spaces")
        for size, P in FOREIGN.items()
    },
    **{
        f"{name} {case}": (lambda build=build, args=args: build(*args), error, message)
        for name, build in WALKS.items()
        for case, args, error, message in [
            ("string horizon", ("5", 2), ValueError, HORIZON),
            ("bool horizon", (True, Fraction(1, 2)), ValueError, HORIZON),
            ("zero horizon", (0, 2), ValueError, HORIZON),
            ("heads probability", (3, 2), ValueError, P_2),
            ("negative heads probability", (3, "-1/3"), ValueError,
             "heads probability must lie in [0, 1], got -1/3"),
            ("unparsable heads probability", (3, "x"), ValueError,
             "cannot parse 'x' as a number"),
        ]
    },
    # Only the exact builder is capped, and the cap wins over a bad probability.
    "make_coin_walk cap": (lambda: make_coin_walk(25, 2), SizeLimitError, CAP_25),
    "WalkModel past the cap": (lambda: WalkModel(25, 2), ValueError, P_2),
    "simulate_walk past the cap": (lambda: simulate_walk(25, 2, 10, 0), ValueError, P_2),
    "simulate_walk paths": (
        lambda: simulate_walk(3, Fraction(1, 2), 0, 0), ValueError, "n_paths must be at least 1"),
    **{
        f"{name} {case}": (lambda build=build, args=args: build(*args), ValueError, message)
        for name, build in INTERVALS.items()
        for case, args, message in [
            ("tied interval", (1, 1), "need a < b, got a = 1, b = 1"),
            ("reversed interval", ("1/2", Fraction(-1, 3)), "need a < b, got a = 1/2, b = -1/3"),
            ("float interval", (0.5, -0.0), "need a < b, got a = 0.5, b = 0.0"),
        ]
    },
    # The spec reader and walk-spec run the same check and name their field.
    **{
        f"{name} {case}": (lambda build=build, args=args: build(*args), SpecError,
                           f"{field}: {message}")
        for name, build, field in [("spec", _spec_interval, "interval"),
                                   ("walk-spec", lambda a, b: _walk_spec("--interval", a, b),
                                    "--interval")]
        for case, args, message in [
            ("tied interval", ("1", "1"), "need a < b, got a = 1, b = 1"),
            ("reversed interval", ("1/2", "1/3"), "need a < b, got a = 1/2, b = 1/3"),
        ]
    },
    # The tail-bound window and epsilon: the library check, and the spec reader and
    # walk-spec, which run it and name their field.
    **{
        f"{name} {case}": (lambda build=build, raw=raw: build(raw), error, f"{field}{message}")
        for name, build, error, field, cases in [
            ("stopping_tail_bound_check", lambda w: _tail_bound(w, "1/2"), ValueError, "",
             WINDOWS + NON_INT_WINDOWS),
            ("stopping_tail_bound_check", lambda e: _tail_bound(1, e), ValueError, "", EPSILONS),
            ("spec", lambda w: _spec_field("window", w), SpecError, "window: ",
             WINDOWS + NON_INT_WINDOWS),
            ("spec", lambda e: _spec_field("epsilon", e), SpecError, "epsilon: ", EPSILONS),
            ("walk-spec", lambda w: _walk_spec("--window", str(w)), SpecError, "--window: ",
             WINDOWS),
            ("walk-spec", lambda e: _walk_spec("--epsilon", str(e)), SpecError, "--epsilon: ",
             EPSILONS),
        ]
        for case, raw, message in cases
    },
    **{name: (build, ValueError, message) for name, (build, message) in FOREIGN_ARGUMENTS.items()},
    "space empty": (lambda: SampleSpace([]), ValueError, "a sample space needs at least one outcome"),
    "space label type": (
        lambda: SampleSpace(["a", 1]), TypeError, "outcome labels must be strings"),
    "event complement outside the space": (
        lambda: EventSet((0, 3)).complement(S3), ValueError,
        "event refers to outcomes outside the space"),
    "event outside the space": (
        lambda: contains(F3.stages[1], EventSet((0, 5))), ValueError,
        "outcome index 5 out of range for a space of size 3"),
    "atom_containing outside the space": (
        lambda: F3.stages[1].atom_containing(3), ValueError, "outcome index 3 out of range"),
    "sigma axioms without the empty set": (
        lambda: _refused(check_sigma_axioms(S2, [EventSet((0, 1))])), ValueError,
        "the empty set is missing"),
    "sigma axioms without the whole space": (
        lambda: _refused(check_sigma_axioms(S2, [EventSet(())])), ValueError,
        "the whole space is missing"),
    "measure length": (
        lambda: ProbabilityMeasure(S3, ["1/2", "1/2"]), ValueError,
        "got 2 weights for a space of 3 outcomes"),
    "is_probability length": (
        lambda: is_probability(S3, ["1/2", "1/2"]), ValueError,
        "got 2 weights for a space of 3 outcomes"),
    "is_probability negative weight": (
        lambda: _refused(is_probability(S3, ["2/3", "-1/3", "2/3"])), ValueError,
        "weight of outcome 1 (y) is negative: -1/3"),
    "ensemble without paths": (
        lambda: PathEnsemble("walk", 0, 1, 0, PATHS[:0]), ValueError,
        "an ensemble needs at least one path"),
    "ensemble shape": (
        lambda: PathEnsemble("walk", 1, 2, 0, PATHS), ValueError,
        "paths array has shape (1, 2), expected (1, 3)"),
    **{
        f"{name} levels": (build, ValueError, "n_levels must be a positive integer")
        for name, build in [
            ("simulate_doubling_strategy", lambda: simulate_doubling_strategy(0, 0, "1/2", 10, 0)),
            ("DoublingModel", lambda: DoublingModel(True, "1/2")),
            ("exact_doubling_process", lambda: exact_doubling_process(0, "1/2")),
        ]
    },
    # The exact doubling builder runs the doubling checks first, then the walk's cap.
    "exact_doubling_process past 60 levels": (
        lambda: exact_doubling_process(70, "1/2"), ValueError,
        "n_levels past 60 overflows 64-bit wealth; this strategy is already ruinous well "
        "before that"),
    "exact_doubling_process up-move probability": (
        lambda: exact_doubling_process(3, 2), ValueError,
        "up-move probability must lie in [0, 1], got 2"),
    "exact_doubling_process past the cap": (
        lambda: exact_doubling_process(25, "1/2"), SizeLimitError, CAP_25),
    "simulate_doubling_strategy paths": (
        lambda: simulate_doubling_strategy(0, 2, "1/2", 0, 0), ValueError,
        "n_paths must be at least 1"),
    "stakes count": (
        lambda: PredictableSequence(F3, [_rv([1, 1, 1])] * 2), ValueError,
        "got 2 stakes for a filtration of horizon 1"),
    "stakes foreign space": (
        lambda: PredictableSequence(F3, [RandomVariable(OTHER3, [1, 1, 1])]), ValueError,
        "C_1 lives on a different sample space"),
    "classification label": (
        lambda: MartingaleClassification("fair", None), ValueError,
        "unknown classification label 'fair'"),
    **{
        f"{name} length": (build, ValueError, "got 2 stopping values for a space of 3 outcomes")
        for name, build in [("StoppingTime", lambda: StoppingTime(F3, [1, 1])),
                            ("is_stopping_time", lambda: is_stopping_time([1, 1], F3))]
    },
    "staircase level": (
        lambda: staircase_approximation(_rv([1, 2, 3]), 0), ValueError,
        "approximation level must be at least 1"),
    "format_number type": (lambda: format_number("1/2"), TypeError, "not a number: '1/2'"),
}


@pytest.mark.parametrize("case", CASES)
def test_constructor_refuses_with_its_message(case):
    build, error, message = CASES[case]
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
