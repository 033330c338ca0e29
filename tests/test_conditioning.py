"""Conditional expectation, the defining identity, tower rule, null atoms."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab import (
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    conditional_expectation,
    discrete_sigma_algebra,
    expectation,
    is_measurable,
    tower_check,
    trivial_sigma_algebra,
    verify_kolmogorov,
)
from support import (
    rand_measure,
    rand_partition,
    rand_space,
    rand_variable,
    refine_partition,
)

ABCD = SampleSpace(["a", "b", "c", "d"])
UNIFORM = ProbabilityMeasure(ABCD, ["1/4"] * 4)
PAIRS = SigmaAlgebra(ABCD, (0, 0, 1, 1))


def test_hand_checked_pair_averages():
    """(2,0) averages to 1 on the first atom, (0,-2) to -1 on the second."""
    X = RandomVariable(ABCD, [2, 0, 0, -2])
    rep = conditional_expectation(X, PAIRS, UNIFORM)
    assert rep.result.values == (1, 1, -1, -1)
    assert rep.identity_checked
    assert rep.null_atoms == ()


def test_conditional_is_measurable_and_verified():
    rng = random.Random(101)
    for _ in range(60):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        G = rand_partition(rng, space)
        X = rand_variable(rng, space)
        rep = conditional_expectation(X, G, P)
        assert is_measurable(rep.result, G)
        assert verify_kolmogorov(X, G, P, rep.result)


def test_trivial_conditioning_gives_expectation():
    X = RandomVariable(ABCD, [2, -1, 2, 3])
    P = ProbabilityMeasure(ABCD, ["1/2", "1/4", "1/8", "1/8"])
    rep = conditional_expectation(X, trivial_sigma_algebra(ABCD), P)
    assert set(rep.result.values) == {Fraction(11, 8)}


def test_discrete_conditioning_returns_variable():
    X = RandomVariable(ABCD, [2, -1, 2, 3])
    rep = conditional_expectation(X, discrete_sigma_algebra(ABCD), UNIFORM)
    assert rep.result.values == X.values


def test_null_atom_convention_and_report():
    P = ProbabilityMeasure(ABCD, ["1/2", "1/2", "0", "0"])
    X = RandomVariable(ABCD, [4, 2, 17, -5])
    rep = conditional_expectation(X, PAIRS, P)
    assert rep.result.values == (3, 3, 0, 0)
    assert [a.members for a in rep.null_atoms] == [(2, 3)]


def test_uniqueness_up_to_null_atoms():
    """Changing the candidate on a null atom only keeps the identity true."""
    P = ProbabilityMeasure(ABCD, ["1/2", "1/2", "0", "0"])
    X = RandomVariable(ABCD, [4, 2, 17, -5])
    rep = conditional_expectation(X, PAIRS, P)
    perturbed = RandomVariable(ABCD, [3, 3, 99, 99])
    assert verify_kolmogorov(X, PAIRS, P, perturbed)
    off_null = RandomVariable(ABCD, [4, 4, 0, 0])
    assert not verify_kolmogorov(X, PAIRS, P, off_null)


def test_verify_kolmogorov_rejects_non_measurable_candidate():
    X = RandomVariable(ABCD, [1, 2, 3, 4])
    bad = RandomVariable(ABCD, [1, 2, 0, 0])
    assert not verify_kolmogorov(X, PAIRS, UNIFORM, bad)


def test_law_of_total_expectation():
    rng = random.Random(103)
    for _ in range(60):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        G = rand_partition(rng, space)
        X = rand_variable(rng, space)
        rep = conditional_expectation(X, G, P)
        assert expectation(rep.result, P) == expectation(X, P)


def test_conditioning_is_linear():
    rng = random.Random(107)
    for _ in range(40):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        G = rand_partition(rng, space)
        X = rand_variable(rng, space)
        Y = rand_variable(rng, space)
        a = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        lhs = conditional_expectation(X.scale(a) + Y, G, P).result
        rhs = conditional_expectation(X, G, P).result.scale(a) + \
            conditional_expectation(Y, G, P).result
        assert lhs.values == rhs.values


def test_tower_requires_nesting():
    fine = discrete_sigma_algebra(ABCD)
    X = RandomVariable(ABCD, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        tower_check(X, PAIRS, SigmaAlgebra(ABCD, (0, 1, 0, 1)), UNIFORM)
    assert tower_check(X, PAIRS, fine, UNIFORM)


def test_tower_refuses_a_non_nested_pair_naming_the_straddling_atom():
    X = RandomVariable(ABCD, [1, 2, 3, 4])
    with pytest.raises(ValueError) as err:
        tower_check(X, SigmaAlgebra(ABCD, (0, 1, 0, 1)), PAIRS, UNIFORM)
    assert str(err.value) == "not nested: H-atom [0, 1] straddles more than one G-atom"


def test_tower_randomized_chains():
    rng = random.Random(109)
    for _ in range(60):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        G = rand_partition(rng, space)
        H = refine_partition(rng, G)
        X = rand_variable(rng, space)
        assert tower_check(X, G, H, P)


def test_taking_out_what_is_known():
    """E[Z*X | G] = Z*E[X | G] when Z is G-measurable."""
    rng = random.Random(113)
    for _ in range(40):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        G = rand_partition(rng, space)
        X = rand_variable(rng, space)
        Z_values = [0] * space.size
        for atom in G.atoms:
            v = Fraction(rng.randint(-2, 2))
            for i in atom.members:
                Z_values[i] = v
        Z = RandomVariable(space, Z_values)
        ZX = RandomVariable(space, [z * x for z, x in zip(Z.values, X.values)])
        lhs = conditional_expectation(ZX, G, P).result
        inner = conditional_expectation(X, G, P).result
        rhs = RandomVariable(space, [z * e for z, e in zip(Z.values, inner.values)])
        assert lhs.values == rhs.values


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kolmogorov_identity_property(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng)
    P = rand_measure(rng, space)
    G = rand_partition(rng, space)
    X = rand_variable(rng, space)
    rep = conditional_expectation(X, G, P)
    assert verify_kolmogorov(X, G, P, rep.result)
    assert is_measurable(rep.result, G)
    for atom in rep.null_atoms:
        assert all(rep.result.values[i] == 0 for i in atom.members)
