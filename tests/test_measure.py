"""Sigma-algebras as atom partitions, generation, axioms, and exact measures.

The generated-sigma-algebra tests compare the package's signature-partition
algorithm against `closure_oracle`, an independent complement/union fixpoint.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab import (
    EMPTY_EVENT,
    EventSet,
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    SizeLimitError,
    check_sigma_axioms,
    contains,
    discrete_sigma_algebra,
    enumerate_sets,
    generate_sigma_algebra,
    is_measurable,
    is_probability,
    measure_of,
    trivial_sigma_algebra,
    uniform_measure,
)
from support import atoms_from_sets, closure_oracle, rand_measure, rand_space

ABCD = SampleSpace(["a", "b", "c", "d"])


def test_event_set_sorted_and_deduplication_rejected():
    e = EventSet([3, 1, 2])
    assert e.members == (1, 2, 3)
    with pytest.raises(ValueError):
        EventSet([1, 1])
    with pytest.raises(ValueError):
        EventSet([-1])


def test_event_algebra():
    u = EventSet([0, 1, 2, 3])
    a = EventSet([0, 1])
    b = EventSet([1, 2])
    assert a.union(b).members == (0, 1, 2)
    assert a.complement(ABCD).members == (2, 3)
    assert EMPTY_EVENT.is_subset_of(a)
    assert a.is_subset_of(u) and not u.is_subset_of(a)
    assert 1 in b and 0 not in b and 1 not in EMPTY_EVENT


def test_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        SampleSpace(["x", "x"])


def test_labels_are_renumbered_by_first_appearance():
    pairs = SigmaAlgebra(ABCD, (1, 1, 0, 0))
    assert pairs.labels == (0, 0, 1, 1)
    assert SigmaAlgebra(ABCD, (7, 7, 3, 3)) == pairs
    assert hash(SigmaAlgebra(ABCD, [7, 7, 3, 3])) == hash(pairs)
    assert [a.members for a in SigmaAlgebra(ABCD, (4, 9, 4, 0)).atoms] == [(0, 2), (1,), (3,)]
    for bad in [(0, 0, 1), (0, -1, 0, 0), (0, True, 0, 0), (0, 1.0, 0, 0)]:
        with pytest.raises(ValueError):
            SigmaAlgebra(ABCD, bad)


def test_first_split_reports_lowest_label_atom():
    # The one-pass scan meets the mismatch inside {1, 2} (at outcome 2)
    # before the one inside {0, 5} (at outcome 5); {0, 5} has the lower label.
    space = SampleSpace([f"w{i}" for i in range(6)])
    sigma = SigmaAlgebra(space, (0, 1, 1, 2, 3, 0))
    assert sigma.first_split([0, 0, 1, 9, 9, 1]).members == (0, 5)
    assert sigma.first_split([0, 0, 1, 9, 9, 0]).members == (1, 2)
    assert sigma.first_split([4, 1, 1, 2, 3, 4]) is None


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_split_scans_match_enumerated_definitions(pyr):
    from support import rand_partition, refine_partition

    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng, max_size=7)
    n = space.size
    sigma = rand_partition(rng, space)
    sets = set(enumerate_sets(sigma))

    keys = [rng.randint(0, 2) for _ in range(n)]
    brute = next((a for a in sigma.atoms if len({keys[i] for i in a}) > 1), None)
    assert sigma.first_split(keys) == brute

    event = EventSet(sorted(rng.sample(range(n), rng.randint(0, n))))
    assert contains(sigma, event) == (event in sets)

    X = RandomVariable(space, keys)
    level_sets = [EventSet([i for i in range(n) if keys[i] == v]) for v in set(keys)]
    assert is_measurable(X, sigma) == all(e in sets for e in level_sets)

    for other in (rand_partition(rng, space), refine_partition(rng, sigma)):
        other_sets = set(enumerate_sets(other))
        assert other.refines(sigma) == (sets <= other_sets)
        assert sigma.refines(other) == (other_sets <= sets)


# Keys that compare equal across types (0 == 0.0 == -0.0, 1 == 1.0 == True
# == Fraction(1)) must not split an atom; the rest must.
SPLIT_KEYS = [0, 0.0, -0.0, Fraction(0), 1, 1.0, True, Fraction(1), Fraction(1, 2), 0.5, -3, 2.25]


def test_first_split_matches_the_outcome_loop():
    """Same atom (or None) as the one-loop reference, for tuple and list keys."""
    from support import rand_partition, reference_first_split, refine_partition

    rng = random.Random(19)
    measurable = several = later_first = 0
    for _ in range(3000):
        space = rand_space(rng, max_size=9)
        sigma = rand_partition(rng, space)
        if rng.random() < 0.5:
            sigma = refine_partition(rng, sigma)
        base = [rng.choice(SPLIT_KEYS) for _ in range(sigma.atom_count)]
        swap = rng.choice([0.0, 0.3, 0.6, 0.9])
        keys = [rng.choice(SPLIT_KEYS) if rng.random() < swap else base[lab]
                for lab in sigma.labels]
        expected = reference_first_split(sigma, keys)
        assert sigma.first_split(tuple(keys)) == expected
        assert sigma.first_split(keys) == expected
        firsts = [keys[i] for i in sigma.least_members]
        split = [lab for lab, key in zip(sigma.labels, keys) if key != firsts[lab]]
        measurable += expected is None
        several += len(set(split)) > 1
        later_first += bool(split) and split[0] != min(split)
    assert measurable > 1000 and several > 200 and later_first > 50


def test_trivial_and_discrete():
    t = trivial_sigma_algebra(ABCD)
    d = discrete_sigma_algebra(ABCD)
    assert t.atom_count == 1 and d.atom_count == 4
    assert d.refines(t) and not t.refines(d)


def test_atom_lookup():
    sigma = SigmaAlgebra(ABCD, (0, 0, 1, 1))
    assert sigma.atom_containing(1).members == (0, 1)
    assert sigma.atom_containing(3).members == (2, 3)


def test_generated_golden_example():
    """sigma({a},{b}) on {a,b,c,d} has exactly 8 sets with atoms {a},{b},{c,d}."""
    sigma = generate_sigma_algebra(ABCD, [EventSet([0]), EventSet([1])])
    assert [a.members for a in sigma.atoms] == [(0,), (1,), (2, 3)]
    got = {s.members for s in enumerate_sets(sigma)}
    expected = {
        (), (0,), (1,), (0, 1), (1, 2, 3), (0, 2, 3), (2, 3), (0, 1, 2, 3),
    }
    assert got == expected


def test_generated_matches_closure_oracle_randomized():
    rng = random.Random(20260819)
    for _ in range(60):
        space = rand_space(rng, max_size=7)
        n_gen = rng.randint(0, 3)
        gens = []
        for _ in range(n_gen):
            size = rng.randint(0, space.size)
            gens.append(EventSet(sorted(rng.sample(range(space.size), size))))
        sigma = generate_sigma_algebra(space, gens)
        oracle_sets = closure_oracle(space.size, [g.members for g in gens])
        assert {frozenset(s.members) for s in enumerate_sets(sigma)} == oracle_sets
        assert {frozenset(a.members) for a in sigma.atoms} == atoms_from_sets(
            space.size, oracle_sets
        )


def test_generated_is_smallest():
    """Every closure set is a union of atoms and every atom union is in the closure."""
    rng = random.Random(7)
    space = rand_space(rng, max_size=6)
    gens = [EventSet(sorted(rng.sample(range(space.size), 2)))] if space.size >= 2 else []
    sigma = generate_sigma_algebra(space, gens)
    for s in enumerate_sets(sigma):
        assert contains(sigma, s)


def test_enumerate_respects_limit():
    space = SampleSpace([f"w{i}" for i in range(8)])
    sigma = discrete_sigma_algebra(space)
    with pytest.raises(SizeLimitError) as err:
        enumerate_sets(sigma, limit=100)
    assert "Monte Carlo" in str(err.value)


def test_contains_rejects_non_member():
    sigma = generate_sigma_algebra(ABCD, [EventSet([0]), EventSet([1])])
    assert contains(sigma, EventSet([0, 1]))
    assert not contains(sigma, EventSet([0, 2]))


def test_check_sigma_axioms_detects_missing_complement():
    sets = [EventSet([]), EventSet([0, 1, 2, 3]), EventSet([0])]
    ok, reason = check_sigma_axioms(ABCD, sets)
    assert not ok and "complement" in reason


def test_check_sigma_axioms_detects_missing_union():
    sets = [
        EventSet([]), EventSet([0, 1, 2, 3]),
        EventSet([0]), EventSet([1, 2, 3]),
        EventSet([1]), EventSet([0, 2, 3]),
    ]
    ok, reason = check_sigma_axioms(ABCD, sets)
    assert not ok and "union" in reason


def test_check_sigma_axioms_passes_generated():
    sigma = generate_sigma_algebra(ABCD, [EventSet([0]), EventSet([1])])
    ok, reason = check_sigma_axioms(ABCD, list(enumerate_sets(sigma)))
    assert ok and reason is None


def test_probability_measure_exact_and_validated():
    P = ProbabilityMeasure(ABCD, ["1/2", "1/4", "1/8", "1/8"])
    assert P(EventSet([0, 1])) == Fraction(3, 4)
    assert measure_of(P, EventSet([])) == 0
    assert all(isinstance(w, Fraction) for w in P.weights)
    with pytest.raises(ValueError):
        ProbabilityMeasure(ABCD, ["1/2", "1/4", "1/8", "1/4"])
    with pytest.raises(ValueError):
        ProbabilityMeasure(ABCD, ["1/2", "-1/4", "1/2", "1/4"])


def test_zero_weights_allowed():
    P = ProbabilityMeasure(ABCD, [1, 0, 0, 0])
    assert P(EventSet([1, 2, 3])) == 0


def test_uniform():
    P = uniform_measure(ABCD)
    assert P(EventSet([0])) == Fraction(1, 4)


def test_is_probability_reports_reason():
    ok, reason = is_probability(ABCD, [Fraction(1, 2)] * 4)
    assert not ok and "1" in reason
    ok, reason = is_probability(ABCD, [Fraction(1, 4)] * 4)
    assert ok and reason is None


def test_measure_additivity_randomized():
    rng = random.Random(3)
    for _ in range(40):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        k = rng.randint(0, space.size)
        members = sorted(rng.sample(range(space.size), k))
        e = EventSet(members)
        singletons = sum(
            (P(EventSet([i])) for i in members), start=Fraction(0)
        )
        assert P(e) == singletons
        assert P(e) + P(e.complement(space)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_generated_algebra_satisfies_axioms(n, pyr):
    space = SampleSpace([f"w{i}" for i in range(n)])
    gens = []
    for _ in range(pyr.randint(0, 2)):
        size = pyr.randint(0, n)
        gens.append(EventSet(sorted(pyr.sample(range(n), size))))
    sigma = generate_sigma_algebra(space, gens)
    ok, reason = check_sigma_axioms(space, list(enumerate_sets(sigma)))
    assert ok, reason


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_refinement_is_partial_order(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng, max_size=6)
    from support import rand_partition, refine_partition

    coarse = rand_partition(rng, space)
    fine = refine_partition(rng, coarse)
    assert fine.refines(coarse)
    assert fine.refines(fine)
    if fine.atom_count > coarse.atom_count:
        assert not coarse.refines(fine)
