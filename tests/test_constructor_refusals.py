"""Each public constructor refuses bad input with one exact message.

Code that derives objects from checked ones may skip these checks; the
public constructors, and the JSON readers built on them, keep every one.
Each exact report likewise refuses a measure on another sample space, of the
same size or larger, before it sums anything.  The coin-walk parameters and
the upcrossing interval have one check each, shared by every entry point that
takes them; their texts, and which refusal wins, are pinned here per entry point.
"""
from fractions import Fraction

import pytest

from mglab import (
    AdaptedProcess,
    Filtration,
    Functional,
    PredictableSequence,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    SizeLimitError,
    StoppingTime,
    WalkModel,
    classify,
    count_upcrossings,
    discrete_sigma_algebra,
    l2_pythagoras_check,
    make_coin_walk,
    optional_stopping_report,
    simulate_walk,
    stopping_tail_bound_check,
    trivial_sigma_algebra,
    uniform_measure,
    upcrossing_inequality_check,
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
}


@pytest.mark.parametrize("case", CASES)
def test_constructor_refuses_with_its_message(case):
    build, error, message = CASES[case]
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
