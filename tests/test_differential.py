"""The integer summation kernels and the drift table against the loops they replaced.

Every check is run twice on one random model: once as shipped, and once
with ``tests/support.py``'s reference kernels patched into every package
module that binds ``weighted_sum`` or ``atom_sums``.  The ``repr`` of each
report, witnesses and exact types included, must be the same, and so must
any exception a check raises.  Swapping kernels cannot see how a check
uses them, nor reach the checks that sum an exact process in integers
without them (the drift table, the transform step identity, the L2 Gram
matrix and the tail-bound hypothesis).  So the classification, the step
identity, the L2 figures and the tail-bound hypothesis and figures are also
held against the reference functions in ``tests/support.py``, which keep
the Fraction loops those checks ran before.
"""
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mglab
from mglab import (
    AdaptedProcess,
    PredictableSequence,
    RandomVariable,
    classify,
    conditional_expectation,
    l2_pythagoras_check,
    optional_stopping_report,
    stopping_tail_bound_check,
    tower_check,
    transform,
    truncated_convergence_diagnostic,
    upcrossing_inequality_check,
    verify_kolmogorov,
    verify_transform_preservation,
)
from mglab import integration
from support import (
    rand_filtration,
    rand_fraction,
    rand_martingale,
    rand_measure,
    rand_predictable,
    rand_space,
    rand_stopping_time,
    rand_supermartingale,
    rand_variable,
    reference_atom_sums,
    reference_classify,
    reference_pythagoras,
    reference_step_identity_holds,
    reference_tail_figures,
    reference_tail_hypothesis,
    reference_weighted_sum,
)

MODULES = [
    importlib.import_module(f"mglab.{name}")
    for name in ("integration", "conditioning", "processes", "montecarlo")
]
KERNELS = {
    integration.weighted_sum: reference_weighted_sum,
    integration.atom_sums: reference_atom_sums,
}


def _kernel_sites():
    """Every (module, name) in the package that binds one of the kernels."""
    sites = [
        (module, name, value)
        for module in [mglab, *MODULES]
        for name, value in vars(module).items()
        if any(value is kernel for kernel in KERNELS)
    ]
    assert {value for _, _, value in sites} == set(KERNELS)
    return sites


def _floats(X: AdaptedProcess) -> AdaptedProcess:
    return AdaptedProcess(X.filtration, [rv.map(float) for rv in X.values])


def _outcome(check, *args):
    try:
        return repr(check(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _model(rng):
    space = rand_space(rng, max_size=8)
    P = rand_measure(rng, space)
    F = rand_filtration(rng, space, rng.randint(1, 4))
    build = rng.choice((rand_martingale, rand_supermartingale))
    X = build(rng, F, P)
    if rng.random() < 0.3:
        X = _floats(X)
    C = rand_predictable(rng, F, nonnegative=rng.random() < 0.5)
    if rng.random() < 0.25:
        # Float stakes on an exact process: the mixed step-identity path.
        C = PredictableSequence(F, [rv.map(float) for rv in C.values])
    tau = rand_stopping_time(rng, F, bounded=rng.random() < 0.7)
    a = rand_fraction(rng)
    b = a + abs(rand_fraction(rng, 1, 4))
    n, m = sorted(rng.sample(range(F.horizon + 1), 2))
    G, H = F.stages[n], F.stages[m]
    V = rand_variable(rng, space)
    if rng.random() < 0.3:
        V = V.map(float)
    Y = conditional_expectation(V, G, P).result if rng.random() < 0.5 else rand_variable(rng, space)
    window = rng.randint(1, F.horizon)
    eps = Fraction(rng.randint(1, 9), 10)
    return [
        (classify, X, P),
        (verify_transform_preservation, C, X, P, 3),
        (optional_stopping_report, X, tau, P),
        (upcrossing_inequality_check, X, P, a, b),
        (l2_pythagoras_check, X, P),
        (stopping_tail_bound_check, tau, F, P, window, eps),
        (conditional_expectation, V, G, P),
        (tower_check, V, G, H, P),
        (verify_kolmogorov, V, G, P, Y),
        (truncated_convergence_diagnostic, X, P, [(a, b)]),
    ]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_check_matches_the_fraction_reference(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    calls = _model(rng)
    shipped = [_outcome(*call) for call in calls]
    with pytest.MonkeyPatch.context() as mp:
        for module, name, value in _kernel_sites():
            mp.setattr(module, name, KERNELS[value])
        reference = [_outcome(*call) for call in calls]
    assert shipped == reference


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_drift_table_and_tail_sums_match_the_reference_loops(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    args = {check: rest for check, *rest in _model(rng)}

    X, P = args[classify]
    assert repr(classify(X, P)) == repr(reference_classify(X, P))

    C, X, P, bound = args[verify_transform_preservation]
    report = verify_transform_preservation(C, X, P, bound)
    Y = transform(C, X)
    assert report.input_label == reference_classify(X, P).label
    assert report.output_label == reference_classify(Y, P).label
    assert report.step_identity_ok == reference_step_identity_holds(C, X, Y, P)

    X, P = args[l2_pythagoras_check]
    report = l2_pythagoras_check(X, P)
    shipped = (report.lhs, report.rhs, report.gap, report.identity_holds,
               report.orthogonality_ok, report.orthogonality_witness)
    assert repr(shipped) == repr(reference_pythagoras(X, P))

    tau, F, P, window, eps = args[stopping_tail_bound_check]
    report = stopping_tail_bound_check(tau, F, P, window, eps)
    assert repr((report.tail_chain, report.truncated_expectation)) == repr(
        reference_tail_figures(tau, P, window, eps)
    )
    assert repr((report.hypothesis_by_step, report.hypothesis_witness)) == repr(
        reference_tail_hypothesis(tau, P, window, eps)
    )
