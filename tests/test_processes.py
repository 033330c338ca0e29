"""Filtrations, adapted processes, classification, transforms, stopping,
upcrossings, and the L2 identity."""
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mglab
from mglab import (
    MARTINGALE,
    STRICT_SUBMARTINGALE,
    STRICT_SUPERMARTINGALE,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    UNCLASSIFIED,
    AdaptedProcess,
    Filtration,
    MartingaleClassification,
    PredictableSequence,
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    StoppingTime,
    classify,
    conditional_expectation,
    count_upcrossings,
    discrete_sigma_algebra,
    expectation,
    is_stopping_time,
    l2_pythagoras_check,
    make_coin_walk,
    optional_stopping_report,
    stopped_process,
    stopping_tail_bound_check,
    tower_check,
    transform,
    trivial_sigma_algebra,
    upcrossing_inequality_check,
    verify_kolmogorov,
    verify_transform_preservation,
)
from mglab.processes import _drift_table, _stage_masses
from support import (
    rand_filtration,
    rand_martingale,
    rand_measure,
    rand_predictable,
    rand_space,
    rand_stopping_time,
    rand_supermartingale,
)

ABCD = SampleSpace(["a", "b", "c", "d"])
UNIFORM = ProbabilityMeasure(ABCD, ["1/4"] * 4)
PAIRS = SigmaAlgebra(ABCD, (0, 0, 1, 1))
TWO_STAGE = Filtration(
    ABCD, [trivial_sigma_algebra(ABCD), PAIRS, discrete_sigma_algebra(ABCD)]
)


def _proc(*stage_values):
    return AdaptedProcess(
        TWO_STAGE, [RandomVariable(ABCD, v) for v in stage_values]
    )


WALK2 = _proc([0, 0, 0, 0], [1, 1, -1, -1], [2, 0, 0, -2])


# ---------------------------------------------------------------------------
# containers


def test_filtration_requires_refinement():
    with pytest.raises(ValueError) as err:
        Filtration(ABCD, [PAIRS, trivial_sigma_algebra(ABCD)])
    assert "stage 1" in str(err.value)


def test_adapted_process_rejects_unmeasurable_stage():
    with pytest.raises(ValueError) as err:
        _proc([0, 0, 0, 0], [1, 2, -1, -1], [0, 0, 0, 0])
    assert "stage 1" in str(err.value)


def test_adapted_process_path():
    assert WALK2.path(0) == (0, 1, 2)
    assert WALK2.path(3) == (0, -1, -2)


def test_predictable_needs_previous_stage_measurability():
    ok = PredictableSequence(
        TWO_STAGE,
        [RandomVariable(ABCD, [1, 1, 1, 1]), RandomVariable(ABCD, [1, 1, 2, 2])],
    )
    assert ok.values[1].values == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        PredictableSequence(
            TWO_STAGE,
            [RandomVariable(ABCD, [1, 2, 1, 1]), RandomVariable(ABCD, [1, 1, 1, 1])],
        )


def test_stopping_time_validation():
    assert is_stopping_time([0, 0, 0, 0], TWO_STAGE)
    assert is_stopping_time([1, 1, 2, 2], TWO_STAGE)
    assert is_stopping_time([1, 1, 2, None], TWO_STAGE)
    assert not is_stopping_time([1, 2, 1, 1], TWO_STAGE)
    with pytest.raises(ValueError) as err:
        StoppingTime(TWO_STAGE, [1, 2, 1, 1])
    assert "atom" in str(err.value)
    with pytest.raises(ValueError):
        StoppingTime(TWO_STAGE, [0, 0, 0, 5])


def test_stopping_time_bounded():
    tau = StoppingTime(TWO_STAGE, [1, 1, 2, None])
    assert not tau.bounded
    assert StoppingTime(TWO_STAGE, [0, 0, 0, 0]).bounded


# ---------------------------------------------------------------------------
# the coin walk model


def test_coin_walk_hand_checked_n2():
    space, P, F, X = make_coin_walk(2, Fraction(1, 3))
    assert space.outcome_labels == ("HH", "HT", "TH", "TT")
    assert P.weights == (
        Fraction(1, 9), Fraction(2, 9), Fraction(2, 9), Fraction(4, 9),
    )
    assert X.values[0].values == (0, 0, 0, 0)
    assert X.values[1].values == (1, 1, -1, -1)
    assert X.values[2].values == (2, 0, 0, -2)
    assert [a.members for a in F.stage(1).atoms] == [(0, 1), (2, 3)]


def test_coin_walk_weights_sum_to_one():
    for p in (Fraction(1, 2), Fraction(2, 7)):
        _, P, _, _ = make_coin_walk(5, p)
        assert sum(P.weights) == 1


def test_coin_walk_horizon_cap():
    with pytest.raises(mglab.SizeLimitError) as err:
        make_coin_walk(mglab.MAX_COIN_WALK_HORIZON + 1, Fraction(1, 2))
    assert "simulate_walk" in str(err.value)


def test_biased_walk_classification():
    _, P, _, X = make_coin_walk(4, Fraction(1, 3))
    assert classify(X, P).label == STRICT_SUPERMARTINGALE
    _, P, _, X = make_coin_walk(4, Fraction(2, 3))
    assert classify(X, P).label == STRICT_SUBMARTINGALE


# ---------------------------------------------------------------------------
# classification


def test_classify_fair_walk_is_martingale():
    verdict = classify(WALK2, UNIFORM)
    assert verdict.label == MARTINGALE
    assert verdict.witness is None
    assert verdict.is_martingale
    assert verdict.is_supermartingale and verdict.is_submartingale


def test_classify_strict_supermartingale_with_witness():
    X = _proc([0, 0, 0, 0], [0, 0, -2, -2], [0, -2, -2, -4])
    verdict = classify(X, UNIFORM)
    assert verdict.label == STRICT_SUPERMARTINGALE
    n, atom = verdict.witness
    assert n == 0 and atom.members == (0, 1, 2, 3)
    assert verdict.is_supermartingale and not verdict.is_submartingale


def test_classify_plain_supermartingale_mixes_zero_and_strict():
    X = _proc([0, 0, 0, 0], [1, 1, -1, -1], [1, -1, -1, -3])
    verdict = classify(X, UNIFORM)
    assert verdict.label == SUPERMARTINGALE
    assert verdict.witness == (1, PAIRS.atoms[0])


def test_classify_mixed_drift_is_none():
    X = _proc([0, 0, 0, 0], [1, 1, -1, -1], [3, 1, -2, -4])
    verdict = classify(X, UNIFORM)
    assert verdict.label == UNCLASSIFIED
    assert verdict.witness == (1, PAIRS.atoms[0])


def test_classify_skips_zero_weight_atoms():
    """The null atom (c,d) drifts from 7 to 99; only the live atom counts."""
    P = ProbabilityMeasure(ABCD, ["1/2", "1/2", "0", "0"])
    X = _proc([0, 0, 0, 0], [0, 0, 7, 7], [1, -1, 99, 99])
    assert classify(X, P).label == MARTINGALE


def test_classify_random_constructions():
    rng = random.Random(211)
    for _ in range(50):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        M = rand_martingale(rng, F, P)
        assert classify(M, P).is_martingale
        S = rand_supermartingale(rng, F, P)
        assert classify(S, P).is_supermartingale


def test_classify_float_process_uses_tolerance():
    X = _proc(
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, -1.0, -1.0],
        [2.0 + 1e-14, 0.0, 0.0, -2.0],
    )
    assert classify(X, UNIFORM).label == MARTINGALE
    assert classify(X, UNIFORM, tolerance=1e-16).label != MARTINGALE


def test_classify_float_process_with_a_null_atom_uses_tolerance():
    """The null atom (a,b) comes first and its float-table total is int 0;
    exactness is the process's, so the live atom's 5.6e-17 drift is a tie."""
    P = ProbabilityMeasure(ABCD, ["0", "0", "1/2", "1/2"])
    X = _proc([0.3] * 4, [0.3] * 4, [0.3, 0.3, 0.1 + 0.2, 0.1 + 0.2])
    _, masses, totals = _drift_table(X, P, _stage_masses(X.filtration, P))[1]
    assert (masses[0], totals[0], type(totals[0])) == (0, 0, int) and 0 < totals[1] < 1e-16
    assert classify(X, P) == MartingaleClassification(MARTINGALE, None)
    assert classify(X, P, tolerance=1e-17).label == SUBMARTINGALE


# ---------------------------------------------------------------------------
# transforms


def test_transform_double_after_loss_hand_checked():
    """Stakes 1 then (1 on H*, 2 on T*): terminal values 2, 0, 1, -3, mean 0."""
    C = PredictableSequence(
        TWO_STAGE,
        [RandomVariable(ABCD, [1, 1, 1, 1]), RandomVariable(ABCD, [1, 1, 2, 2])],
    )
    Y = transform(C, WALK2)
    assert Y.values[0].values == (0, 0, 0, 0)
    assert Y.values[2].values == (2, 0, 1, -3)
    assert expectation(Y.values[2], UNIFORM) == 0


def test_transform_preservation_reports():
    C = PredictableSequence(
        TWO_STAGE,
        [RandomVariable(ABCD, [1, 1, 1, 1]), RandomVariable(ABCD, [1, 1, 2, 2])],
    )
    rep = verify_transform_preservation(C, WALK2, UNIFORM, bound=2)
    assert rep.input_label == MARTINGALE
    assert rep.output_label == MARTINGALE
    assert rep.hypothesis_ok and rep.step_identity_ok and bool(rep)


def test_transform_hypothesis_failure_on_unbounded_stake():
    C = PredictableSequence(
        TWO_STAGE,
        [RandomVariable(ABCD, [1, 1, 1, 1]), RandomVariable(ABCD, [1, 1, 5, 5])],
    )
    rep = verify_transform_preservation(C, WALK2, UNIFORM, bound=2)
    assert not rep.hypothesis_ok and not bool(rep)
    assert "bound" in rep.hypothesis_failure


def test_transform_bound_message_names_first_offender_by_stage_then_outcome():
    space, P, F, X = make_coin_walk(3, Fraction(1, 2))
    zeros = RandomVariable(space, [0] * 8)

    def failure(c2, c3):
        C = PredictableSequence(F, [zeros, RandomVariable(space, c2), RandomVariable(space, c3)])
        return verify_transform_preservation(C, X, P, bound=2).hypothesis_failure

    # C_3 has the larger stake and the lower outcome; C_2 still comes first.
    assert failure([0] * 4 + [-3] * 4, [9, 9, 5, 5, 1, 1, 7, 7]) == (
        "|C_2| = 3 exceeds the bound 2 at outcome 4"
    )
    assert failure([0] * 8, [1, 1, 5, 5, -1, -1, 9, 9]) == (
        "|C_3| = 5 exceeds the bound 2 at outcome 2"
    )
    assert failure([0] * 4 + [-2] * 4, [2, 2, 1, 1, -1, -1, 0, 0]) is None


def test_transform_supermartingale_needs_nonnegative_stakes():
    S = _proc([0, 0, 0, 0], [0, 0, -2, -2], [0, -2, -2, -4])
    C_neg = PredictableSequence(
        TWO_STAGE,
        [RandomVariable(ABCD, [-1, -1, -1, -1]), RandomVariable(ABCD, [1, 1, 1, 1])],
    )
    rep = verify_transform_preservation(C_neg, S, UNIFORM, bound=2)
    assert not rep.hypothesis_ok
    C_pos = PredictableSequence(
        TWO_STAGE,
        [RandomVariable(ABCD, [1, 1, 1, 1]), RandomVariable(ABCD, [0, 0, 2, 2])],
    )
    rep = verify_transform_preservation(C_pos, S, UNIFORM, bound=2)
    assert rep.hypothesis_ok and bool(rep)
    assert rep.output_label in (SUPERMARTINGALE, STRICT_SUPERMARTINGALE, MARTINGALE)


SUB = ([0, 0, 0, 0], [0, 0, 2, 2], [0, 2, 2, 4])


def test_transform_claims_submartingale_for_nonnegative_stakes():
    """A submartingale transformed by stakes in [0, bound] stays one; a negative stake
    is the failed premise of the submartingale case, worded as the supermartingale one."""
    X = _proc(*SUB)
    C = PredictableSequence(TWO_STAGE, [RandomVariable(ABCD, [1, 1, 1, 1])] * 2)
    rep = verify_transform_preservation(C, X, UNIFORM, bound=1)
    assert rep.input_label == STRICT_SUBMARTINGALE
    assert rep.claimed_label == SUBMARTINGALE and rep.output_label == STRICT_SUBMARTINGALE
    assert rep.hypothesis_ok and rep.step_identity_ok and rep.holds is True and bool(rep)
    C = PredictableSequence(
        TWO_STAGE, [RandomVariable(ABCD, [1, 1, 1, 1]), RandomVariable(ABCD, [0, 0, -1, -1])])
    rep = verify_transform_preservation(C, X, UNIFORM, bound=1)
    assert rep.claimed_label == SUBMARTINGALE and rep.holds is None and not bool(rep)
    assert rep.hypothesis_failure == (
        "C_2 = -1 at outcome 2 is outside [0, 1], which the submartingale case requires")


def test_transform_claims_nothing_for_unclassified_inputs():
    """An unclassified input carries no preservation claim: a failed premise with no
    claimed label and no verdict on the output."""
    C = PredictableSequence(TWO_STAGE, [RandomVariable(ABCD, [1, 1, 1, 1])] * 2)
    rep = verify_transform_preservation(
        C, _proc([0, 0, 0, 0], [1, 1, -1, -1], [5, 0, 0, -4]), UNIFORM, bound=1)
    assert rep.input_label == UNCLASSIFIED
    assert rep.claimed_label is None
    assert rep.hypothesis_ok is False and rep.holds is None and not bool(rep)
    assert rep.hypothesis_failure == (
        "input classifies as none; preservation is only claimed for martingales, "
        "supermartingales, and submartingales"
    )


def test_scaled_stage_values():
    """Ints over one lcm, one per atom; all-int nodes are kept as they are; a float means None."""
    _, P, F, X = make_coin_walk(3, Fraction(1, 3))
    nums, L = X.scaled
    assert L == 1 and all(n is x for n, x in zip(nums, X.nodes))
    assert X.scaled is X.scaled
    halves = AdaptedProcess(F, [rv.scale(Fraction(1, 2)) for rv in X.values])
    nums, L = halves.scaled
    assert L == 2 and nums[1] == list(X.nodes[1])
    for n, stage in enumerate(F.stages):
        assert len(nums[n]) == stage.atom_count
        assert all(nums[n][k] == halves.nodes[n][k] * L for k in range(stage.atom_count))
        assert halves.nodes[n] == tuple(halves.values[n].values[i] for i in stage.least_members)
    assert AdaptedProcess(F, [rv.map(float) for rv in X.values]).scaled is None


def test_transform_sums_each_increment_once(monkeypatch):
    """One drift table for X and one for C·X: labels and identity share them.

    The exact table sums atoms, not outcomes, so no per-outcome
    atom_sums pass runs at all.
    """
    _, P, F, X = make_coin_walk(4, Fraction(1, 3))
    C = PredictableSequence(F, [RandomVariable(X.space, [1] * X.space.size)] * X.horizon)
    calls = []

    def counting(module, name):
        kernel = getattr(module, name)

        def count(*args):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(module, name, count)

    counting(mglab.processes, "_drift_table")
    counting(mglab.processes, "atom_sums")
    counting(mglab.conditioning, "atom_sums")
    rep = verify_transform_preservation(C, X, P, bound=1)
    assert rep.step_identity_ok and bool(rep)
    assert calls == ["_drift_table", "_drift_table"]


def test_transform_randomized_preservation():
    rng = random.Random(223)
    for _ in range(60):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        M = rand_martingale(rng, F, P)
        C = rand_predictable(rng, F, bound=3)
        rep = verify_transform_preservation(C, M, P, bound=3)
        assert bool(rep), rep


# ---------------------------------------------------------------------------
# stopping


def test_stopped_process_hand_checked():
    """First hit of +1: freezes H* paths at 1, leaves T* paths running."""
    tau = StoppingTime(TWO_STAGE, [1, 1, None, None])
    S = stopped_process(WALK2, tau)
    assert S.values[1].values == (1, 1, -1, -1)
    assert S.values[2].values == (1, 1, 0, -2)
    assert expectation(S.values[2], UNIFORM) == 0


def test_stopped_equals_indicator_transform():
    """X_{tau ^ n} = X_0 + sum 1{k <= tau} (X_k - X_{k-1})."""
    rng = random.Random(227)
    for _ in range(40):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        M = rand_martingale(rng, F, P)
        tau = rand_stopping_time(rng, F, bounded=rng.random() < 0.7)
        S = stopped_process(M, tau)
        ind = []
        for k in range(1, F.horizon + 1):
            vals = [
                1 if (t is None or t >= k) else 0
                for t in tau.times
            ]
            ind.append(RandomVariable(space, vals))
        C = PredictableSequence(F, ind)
        Y = transform(C, M)
        for n in range(F.horizon + 1):
            shifted = [
                M.values[0].values[i] + Y.values[n].values[i]
                for i in range(space.size)
            ]
            assert list(S.values[n].values) == shifted


def test_stopped_martingale_means_are_constant():
    rng = random.Random(229)
    for _ in range(40):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        M = rand_martingale(rng, F, P)
        tau = rand_stopping_time(rng, F)
        S = stopped_process(M, tau)
        assert classify(S, P).is_martingale
        start = expectation(M.values[0], P)
        for rv in S.values:
            assert expectation(rv, P) == start


def test_optional_stopping_bounded_martingale():
    tau = StoppingTime(TWO_STAGE, [1, 1, 2, 2])
    rep = optional_stopping_report(WALK2, tau, UNIFORM)
    assert rep.label == MARTINGALE
    assert rep.hypothesis_bounded_time
    assert rep.conclusion == "E[X_tau] = E[X_0]"
    assert rep.value_at_stop == 0 and rep.value_at_start == 0
    assert rep.holds and bool(rep)
    assert rep.expected_tau == Fraction(3, 2)


def test_optional_stopping_supermartingale_inequality():
    S = _proc([0, 0, 0, 0], [0, 0, -2, -2], [0, -2, -2, -4])
    tau = StoppingTime(TWO_STAGE, [2, 2, 1, 1])
    rep = optional_stopping_report(S, tau, UNIFORM)
    assert rep.conclusion == "E[X_tau] <= E[X_0]"
    assert rep.holds


def test_optional_stopping_unbounded_rule_makes_no_claim():
    tau = StoppingTime(TWO_STAGE, [1, 1, None, None])
    rep = optional_stopping_report(WALK2, tau, UNIFORM)
    assert rep.never_mass == Fraction(1, 2)
    assert rep.conclusion == "not asserted"
    assert rep.holds is None and not bool(rep)
    assert any("unbounded at horizon" in n for n in rep.notes)


def test_optional_stopping_never_on_null_outcomes_is_fine():
    P = ProbabilityMeasure(ABCD, ["1/2", "1/2", "0", "0"])
    X = _proc([0, 0, 0, 0], [1, 1, -1, -1], [2, 0, 99, 99])
    tau = StoppingTime(TWO_STAGE, [1, 1, None, None])
    rep = optional_stopping_report(X, tau, P)
    assert rep.never_mass == 0
    assert rep.tau_finite_almost_surely and not rep.tau_bounded
    assert rep.holds


def test_optional_stopping_bounds_keep_the_first_maximum_and_int_zero():
    """Of equal maxima the first in outcome order comes back; no increment at all reads int 0."""
    tau = StoppingTime(TWO_STAGE, [2, 2, 2, 2])
    mixed = optional_stopping_report(
        _proc([0, 0, 0, 0], [3, 3, -3.0, -3.0], [0.0, 3.0, -3, -3.0]), tau, UNIFORM)
    assert repr((mixed.process_bound, mixed.increment_bound)) == "(3, 3)"
    flat = optional_stopping_report(_proc(*[[0.0] * 4] * 3), tau, UNIFORM)
    assert repr((flat.process_bound, flat.increment_bound)) == "(0.0, 0)"


def test_optional_stopping_randomized_martingales():
    rng = random.Random(233)
    for _ in range(60):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        M = rand_martingale(rng, F, P)
        tau = rand_stopping_time(rng, F)
        rep = optional_stopping_report(M, tau, P)
        assert rep.holds, rep


# ---------------------------------------------------------------------------
# the tail bound


def _first_heads_time(space, F):
    times = []
    for i in range(space.size):
        label = space.outcome_labels[i]
        hit = next((n + 1 for n, ch in enumerate(label) if ch == "H"), None)
        times.append(hit)
    return StoppingTime(F, times)


def test_tail_bound_first_heads():
    N = 6
    space, P, F, _ = make_coin_walk(N, Fraction(1, 2))
    tau = _first_heads_time(space, F)
    rep = stopping_tail_bound_check(tau, F, P, 1, Fraction(1, 3))
    assert rep.hypothesis_ok
    assert rep.chain_ok
    for k, tail, bound, ok in rep.tail_chain:
        assert tail == Fraction(1, 2) ** k
        assert bound == Fraction(2, 3) ** k
        assert ok
    assert rep.truncated_expectation == 2 - Fraction(1, 2) ** (N - 1)
    assert rep.expectation_ok and rep.expectation_bound == 3
    assert bool(rep)


def test_tail_bound_hypothesis_witness():
    space, P, F, X = make_coin_walk(3, Fraction(1, 2))
    times = [
        next((n for n, v in enumerate(X.path(i)) if v == 1), 3)
        for i in range(space.size)
    ]
    tau = StoppingTime(F, times)
    rep = stopping_tail_bound_check(tau, F, P, 1, Fraction(1, 3))
    assert not rep.hypothesis_ok
    n, atom = rep.hypothesis_witness
    assert n == 1 and atom.members == (4, 5, 6, 7)
    assert not bool(rep)


def test_tail_bound_window_beyond_the_horizon_is_vacuous():
    """A window longer than the horizon leaves no stage to test: the hypothesis holds
    vacuously, and the notes say so."""
    space, P, F, _ = make_coin_walk(2, Fraction(1, 2))
    tau = StoppingTime(F, [0, 0, 0, 0])
    rep = stopping_tail_bound_check(tau, F, P, 3, Fraction(1, 2))
    assert rep.hypothesis_by_step == ()
    assert rep.hypothesis_ok is True and rep.hypothesis_witness is None
    assert rep.notes[1:] == ("the window exceeds the horizon, so the hypothesis is vacuous",)


def test_tail_bound_rejects_bad_epsilon_and_window():
    space, P, F, _ = make_coin_walk(2, Fraction(1, 2))
    tau = StoppingTime(F, [0, 0, 0, 0])
    for eps in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(ValueError):
            stopping_tail_bound_check(tau, F, P, 1, eps)
    with pytest.raises(ValueError):
        stopping_tail_bound_check(tau, F, P, 0, Fraction(1, 2))


# ---------------------------------------------------------------------------
# upcrossings


def test_count_upcrossings_hand_checked():
    assert count_upcrossings((0, -1, 2, -1, 3), 0, 1) == 2
    assert count_upcrossings((2, 3), 0, 1) == 0
    assert count_upcrossings((2, 0, 2), 0, 1) == 1
    assert count_upcrossings((0, 1), 0, 1) == 1
    assert count_upcrossings((), 0, 1) == 0
    assert count_upcrossings((-5,), 0, 1) == 0


def test_count_upcrossings_requires_a_below_b():
    with pytest.raises(ValueError):
        count_upcrossings((0, 1), 1, 1)


def test_upcrossing_inequality_fair_walk():
    _, P, _, X = make_coin_walk(8, Fraction(1, 2))
    rep = upcrossing_inequality_check(X, P, -1, 1)
    assert rep.hypothesis_ok and rep.holds and rep.corollary_holds
    assert rep.scaled_upcrossings <= rep.negative_part_mean
    assert rep.negative_part_mean <= rep.corollary_bound


def test_upcrossing_rejects_submartingale_drift():
    _, P, _, X = make_coin_walk(4, Fraction(2, 3))
    rep = upcrossing_inequality_check(X, P, -1, 1)
    assert not rep.hypothesis_ok
    assert rep.holds is None


def test_upcrossing_randomized_supermartingales():
    rng = random.Random(239)
    for _ in range(50):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 5))
        S = rand_supermartingale(rng, F, P)
        a = Fraction(rng.randint(-3, 1))
        b = a + Fraction(rng.randint(1, 3))
        rep = upcrossing_inequality_check(S, P, a, b)
        assert rep.hypothesis_ok
        assert rep.holds and rep.corollary_holds, rep


# ---------------------------------------------------------------------------
# the L2 identity


def test_pythagoras_fair_walk_variance_adds_up():
    for N in (1, 4, 9):
        _, P, _, X = make_coin_walk(N, Fraction(1, 2))
        rep = l2_pythagoras_check(X, P)
        assert rep.hypothesis_ok and rep.holds
        assert rep.lhs == N and rep.gap == 0
        assert rep.orthogonality_ok and rep.orthogonality_witness is None


def test_pythagoras_rejects_non_martingale():
    _, P, _, X = make_coin_walk(3, Fraction(1, 3))
    rep = l2_pythagoras_check(X, P)
    assert not rep.hypothesis_ok and rep.holds is None


def test_pythagoras_randomized_martingales():
    rng = random.Random(241)
    for _ in range(50):
        space = rand_space(rng, max_size=6)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        M = rand_martingale(rng, F, P)
        rep = l2_pythagoras_check(M, P)
        assert rep.holds and rep.orthogonality_ok, rep


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_martingale_transform_is_martingale_property(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng, max_size=5)
    P = rand_measure(rng, space)
    F = rand_filtration(rng, space, rng.randint(1, 3))
    M = rand_martingale(rng, F, P)
    C = rand_predictable(rng, F, bound=2)
    Y = transform(C, M)
    assert classify(Y, P).is_martingale


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_stopping_preserves_label_family_property(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng, max_size=5)
    P = rand_measure(rng, space)
    F = rand_filtration(rng, space, rng.randint(1, 3))
    S = rand_supermartingale(rng, F, P)
    tau = rand_stopping_time(rng, F)
    stopped = stopped_process(S, tau)
    assert classify(stopped, P).is_supermartingale


def _kernel_ops(S, P, F, X):
    """The ten exact checks of one benchmark round on a walk, in its listing order:
    stakes of 1/2, the first hit of |X| = 2, and conditioning at stages N//3, 2N//3."""
    N = X.horizon
    C = PredictableSequence(F, [RandomVariable(S, [Fraction(1, 2)] * S.size)] * N)
    tau = StoppingTime(F, [next((n for n, v in enumerate(path) if abs(v) == 2), None)
                           for path in zip(*(rv.values for rv in X.values))])
    V = RandomVariable(S, [i * 7919 % 19 - 9 for i in range(S.size)])
    G, H = F.stages[N // 3], F.stages[2 * N // 3]
    Y = RandomVariable(S, [V.values[G.least_members[k]] for k in G.labels])
    return [
        lambda: classify(X, P),
        lambda: verify_transform_preservation(C, X, P, 1),
        lambda: stopped_process(X, tau),
        lambda: optional_stopping_report(X, tau, P),
        lambda: upcrossing_inequality_check(X, P, -1, 1),
        lambda: l2_pythagoras_check(X, P),
        lambda: stopping_tail_bound_check(tau, F, P, 3, Fraction(1, 10)),
        lambda: conditional_expectation(V, G, P),
        lambda: tower_check(V, G, H, P),
        lambda: verify_kolmogorov(V, G, P, Y),
    ]


def test_one_outcome_mass_pass_per_filtration_and_measure(monkeypatch):
    """Two rounds of the ten checks sum the outcome weights onto atoms once: every
    other stage mass is added up from a child's, and all of them are held."""
    import mglab.measure

    S, P, F, X = make_coin_walk(12, Fraction(1, 3))
    ops = _kernel_ops(S, P, F, X)
    passes = []
    up = mglab.measure._up

    def counted(values, parents, count):
        passes.append(values is P.int_weights)
        return up(values, parents, count)

    monkeypatch.setattr(mglab.measure, "_up", counted)
    for _ in range(2):
        for op in ops:
            op()
    assert sum(passes) == 1


def test_held_stage_masses_are_never_stale():
    """Alternating measures on one filtration, two of them distinct but equal, read
    what fresh objects read; the held masses are tuples and hold no measure alive."""
    S, P, F, X = make_coin_walk(6, Fraction(1, 3))
    V = RandomVariable(S, [i * 7 % 5 - 2 for i in range(S.size)])
    half = ProbabilityMeasure(S, make_coin_walk(6, Fraction(1, 2))[1].weights)
    twin = ProbabilityMeasure(S, P.weights)

    def readings(F, X, Q, V):
        return (classify(X, Q), l2_pythagoras_check(X, Q), conditional_expectation(V, F.stages[2], Q),
                tower_check(V, F.stages[2], F.stages[4], Q), _stage_masses(F, Q))

    def fresh(Q):
        S2, _, F2, X2 = make_coin_walk(6, Fraction(1, 3))
        return readings(F2, X2, ProbabilityMeasure(S2, Q.weights), RandomVariable(S2, V.values))

    assert fresh(P) != fresh(half)
    for Q in (P, half, P, twin, half, twin, P):
        assert readings(F, X, Q, V) == fresh(Q)
    assert all(type(masses) is tuple for masses in _stage_masses(F, twin))

    dropped = ProbabilityMeasure(S, P.weights)
    classify(X, dropped)
    ref = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert ref() is None
    assert _stage_masses(F, ProbabilityMeasure(S, half.weights)) == fresh(half)[-1]
