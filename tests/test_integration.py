"""Random variables, simple-function integrals, expectations, staircases, summation kernels."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab import (
    AdaptedProcess,
    EventSet,
    Filtration,
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SimpleFunctionForm,
    constant_variable,
    discrete_sigma_algebra,
    expectation,
    generate_sigma_algebra,
    indicator,
    integrate_simple,
    is_measurable,
    pos_neg_split,
    staircase_approximation,
    to_simple_form,
    trivial_sigma_algebra,
    uniform_measure,
    upcrossing_inequality_check,
)
from mglab.integration import atom_sums, weighted_sum
from support import rand_fraction, rand_measure, rand_partition, rand_space, rand_variable

ABCD = SampleSpace(["a", "b", "c", "d"])
HALF_QUARTERS = ProbabilityMeasure(ABCD, ["1/2", "1/4", "1/8", "1/8"])


def test_random_variable_basics():
    X = RandomVariable(ABCD, [2, -1, 2, 3])
    assert (X + X).values == (4, -2, 4, 6)
    assert (X - X).values == (0, 0, 0, 0)
    assert X.scale(Fraction(1, 2)).values == (1, Fraction(-1, 2), 1, Fraction(3, 2))
    assert X.map(abs).values == (2, 1, 2, 3)


def test_random_variable_rejects_nonfinite():
    with pytest.raises(ValueError):
        RandomVariable(ABCD, [1, 2, float("nan"), 0])


def test_expectation_hand_checked():
    """E = 2*(1/2) - 1*(1/4) + 2*(1/8) + 3*(1/8) = 11/8."""
    X = RandomVariable(ABCD, [2, -1, 2, 3])
    assert expectation(X, HALF_QUARTERS) == Fraction(11, 8)


def test_expectation_skips_zero_weight_outcomes():
    P = ProbabilityMeasure(ABCD, [1, 0, 0, 0])
    X = RandomVariable(ABCD, [5, 100, 100, 100])
    assert expectation(X, P) == 5


def test_indicator_and_measurability():
    A = EventSet([0, 1])
    one_A = indicator(ABCD, A)
    assert one_A.values == (1, 1, 0, 0)
    sigma = generate_sigma_algebra(ABCD, [A])
    assert is_measurable(one_A, sigma)
    assert not is_measurable(RandomVariable(ABCD, [1, 2, 3, 4]), sigma)


def test_constant_measurable_for_trivial():
    assert is_measurable(constant_variable(ABCD, Fraction(7, 3)),
                         trivial_sigma_algebra(ABCD))
    assert not is_measurable(RandomVariable(SampleSpace(["x", "y"]), [1, 2]),
                             trivial_sigma_algebra(SampleSpace(["x", "y"])))


def test_simple_form_integral_hand_checked():
    """3*mu({a}) - 2*mu({b,c}) + 0 elsewhere = 3/2 - 2*(3/8) = 3/4."""
    g = SimpleFunctionForm([(3, EventSet([0])), (-2, EventSet([1, 2]))])
    assert integrate_simple(g, HALF_QUARTERS) == Fraction(3, 4)


def test_simple_form_validation():
    with pytest.raises(ValueError):
        SimpleFunctionForm([(1, EventSet([0])), (2, EventSet([0, 1]))])
    with pytest.raises(ValueError):
        SimpleFunctionForm([(1, EventSet([0])), (1, EventSet([1]))])
    with pytest.raises(ValueError):
        SimpleFunctionForm([(1, EventSet([]))])


def test_simple_form_evaluate_uncovered_is_zero():
    g = SimpleFunctionForm([(5, EventSet([1]))])
    assert g.evaluate(ABCD).values == (0, 5, 0, 0)


def test_to_simple_form_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        space = rand_space(rng)
        X = rand_variable(rng, space)
        g = to_simple_form(X)
        assert g.evaluate(space).values == X.values
        covered = sorted(i for _, s in g.terms for i in s.members)
        assert covered == list(range(space.size))
        coeffs = [a for a, _ in g.terms]
        assert len(coeffs) == len(set(coeffs))


def test_integrate_simple_equals_expectation():
    rng = random.Random(13)
    for _ in range(50):
        space = rand_space(rng)
        P = rand_measure(rng, space)
        X = rand_variable(rng, space)
        assert integrate_simple(to_simple_form(X), P) == expectation(X, P)


def test_pos_neg_split():
    X = RandomVariable(ABCD, [2, -1, 0, -3])
    pos, neg = pos_neg_split(X)
    assert pos.values == (2, 0, 0, 0)
    assert neg.values == (0, 1, 0, 3)
    assert (pos - neg).values == X.values
    P = uniform_measure(ABCD)
    assert expectation(pos, P) - expectation(neg, P) == expectation(X, P)


def test_staircase_hand_checked():
    """floor(2*0.3)/2 = 0 at n=1; floor(4*0.3)/4 = 1/4 at n=2."""
    space = SampleSpace(["w"])
    f = constant_variable(space, Fraction(3, 10))
    assert staircase_approximation(f, 1).evaluate(space).values == (0,)
    assert staircase_approximation(f, 2).evaluate(space).values == (Fraction(1, 4),)


def test_staircase_caps_at_n():
    space = SampleSpace(["w"])
    f = constant_variable(space, 100)
    assert staircase_approximation(f, 3).evaluate(space).values == (3,)


def test_staircase_monotone_and_convergent():
    rng = random.Random(17)
    space = rand_space(rng)
    values = [abs(rand_variable(rng, space).values[i]) for i in range(space.size)]
    f = RandomVariable(space, values)
    prev = staircase_approximation(f, 1).evaluate(space)
    for n in range(2, 12):
        cur = staircase_approximation(f, n).evaluate(space)
        assert all(a <= b for a, b in zip(prev.values, cur.values))
        assert all(b <= v for b, v in zip(cur.values, f.values))
        prev = cur
    assert all(v - b <= Fraction(1, 2**11) for b, v in zip(prev.values, f.values))


def test_staircase_rejects_negative():
    f = constant_variable(SampleSpace(["w"]), -1)
    with pytest.raises(ValueError):
        staircase_approximation(f, 2)


def test_staircase_exact_on_float_input():
    space = SampleSpace(["w"])
    f = constant_variable(space, 0.3)
    v = staircase_approximation(f, 2).evaluate(space).values[0]
    assert v == Fraction(1, 4) and isinstance(v, Fraction)


def test_staircase_is_measurable_simple_form():
    space = SampleSpace(["u", "v", "w"])
    f = RandomVariable(space, [Fraction(1, 3), Fraction(5, 2), Fraction(1, 3)])
    g = staircase_approximation(f, 3)
    coeffs = [a for a, _ in g.terms]
    assert all(c.denominator in (1, 2, 4, 8) for c in map(Fraction, coeffs))
    assert g.evaluate(space).values == (Fraction(1, 4), Fraction(5, 2), Fraction(1, 4))


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_integral_linearity_and_monotonicity(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng)
    P = rand_measure(rng, space)
    X = rand_variable(rng, space)
    Y = rand_variable(rng, space)
    a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    assert expectation(X.scale(a) + Y, P) == a * expectation(X, P) + expectation(Y, P)
    dominating = RandomVariable(
        space, [v + abs(w) for v, w in zip(X.values, Y.values)]
    )
    assert expectation(dominating, P) >= expectation(X, P)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_indicator_preimages(pyr):
    """1_A pulls {1} back to A, {0} to the complement, both to Omega, neither to the empty set."""
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng)
    members = sorted(rng.sample(range(space.size), rng.randint(0, space.size)))
    A = EventSet(members)
    one_A = indicator(space, A)
    pre_one = EventSet([i for i in range(space.size) if one_A.values[i] == 1])
    pre_zero = EventSet([i for i in range(space.size) if one_A.values[i] == 0])
    assert pre_one.members == A.members
    assert pre_zero.members == A.complement(space).members
    sigma = generate_sigma_algebra(space, [A])
    assert is_measurable(one_A, sigma)


def _atom_walk_sums(values, sigma, weights, start):
    """Reference for the summation kernels: atom by atom, member by member."""
    masses, totals = [], []
    for atom in sigma.atoms:
        mass, total = 0, start
        for i in atom.members:
            if weights[i]:
                mass += weights[i]
                total += values[i] * weights[i]
        masses.append(mass)
        totals.append(total)
    return masses, totals


def _mixed_values(rng, n):
    """Ints, Fractions, floats and negative zeros, in random order."""
    makers = (
        lambda: rng.randint(-3, 3),
        lambda: rand_fraction(rng),
        lambda: float(rand_fraction(rng)),
        lambda: -0.0,
    )
    return [rng.choice(makers)() for _ in range(n)]


def _non_dyadic(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([3, 5, 6, 7, 9, 10]))


# Value streams by kind.  The first four are exact and take the integer
# path; "float" always holds a float and takes the ordered float loop.
VALUE_MIXES = {
    "int": lambda rng, n: [rng.randint(-3, 3) for _ in range(n)],
    "fraction": lambda rng, n: [_non_dyadic(rng) for _ in range(n)],
    "bool": lambda rng, n: [rng.random() < 0.5 for _ in range(n)],
    "mixed-exact": lambda rng, n: [
        rng.choice((rng.randint(-3, 3), _non_dyadic(rng), rng.random() < 0.5))
        for _ in range(n)
    ],
    "float": lambda rng, n: _with_a_float(rng, _mixed_values(rng, n)),
}


def _with_a_float(rng, values):
    values[rng.randrange(len(values))] = float(rand_fraction(rng))
    return values


def _measure_with_nulls(rng, space):
    """Random rational weights with at least one null outcome when there are two or more."""
    n = space.size
    weights = [rng.randint(1, 9) for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(1, n - 1) if n > 1 else 0):
        weights[i] = 0
    total = sum(weights)
    return ProbabilityMeasure(space, [Fraction(w, total) for w in weights])


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_summation_kernels_match_atom_walk(pyr):
    """Same values, types and float bits as summing atom by atom (repr compares all three)."""
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng)
    P = _measure_with_nulls(rng, space) if rng.random() < 0.5 else rand_measure(rng, space)
    sigma = rand_partition(rng, space)
    whole_space = trivial_sigma_algebra(space)
    for make in VALUE_MIXES.values():
        values = make(rng, space.size)
        assert repr(atom_sums(values, sigma, P)) == repr(
            _atom_walk_sums(values, sigma, P.weights, 0)
        )
        _, (whole,) = _atom_walk_sums(values, whole_space, P.weights, Fraction(0))
        assert repr(weighted_sum(values, P)) == repr(whole)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_exact_kernel_sums_are_integer_weight_sums(pyr):
    """On integer values the exact path is the integer-weight sum over D, divided once."""
    rng = random.Random(pyr.randint(0, 10**9))
    space = rand_space(rng)
    P = _measure_with_nulls(rng, space)
    D = P.denominator
    assert sum(P.int_weights) == D
    assert all(Fraction(iw, D) == w for iw, w in zip(P.int_weights, P.weights))
    sigma = rand_partition(rng, space)
    int_values = [rng.randint(-3, 3) for _ in range(space.size)]
    int_masses, int_totals = _atom_walk_sums(int_values, sigma, P.int_weights, 0)
    assert all(type(x) is int for x in int_masses + int_totals)
    assert repr(atom_sums(int_values, sigma, P)) == repr((
        [Fraction(m, D) if m else 0 for m in int_masses],
        [Fraction(t, D) if m else 0 for m, t in zip(int_masses, int_totals)],
    ))
    assert weighted_sum(int_values, P) == Fraction(sum(int_totals), D)


def test_summation_kernels_pinned_types():
    """Zero weights never enter a sum; exact sums are Fractions; a null atom has mass int 0."""
    P = ProbabilityMeasure(SampleSpace(["a", "b", "c"]), ["1/2", 0, "1/2"])
    assert (P.denominator, P.int_weights) == (2, (1, 0, 1))
    assert repr(weighted_sum([2, 7.5, 4], P)) == "Fraction(3, 1)"
    assert repr(weighted_sum([-0.0, 7.5, -0.0], P)) == "0.0"
    assert repr(weighted_sum([2, 7, 4], P)) == "Fraction(3, 1)"
    assert repr(weighted_sum([True, True, False], P)) == "Fraction(1, 2)"
    null_first = ProbabilityMeasure(SampleSpace(["a", "b"]), [0, 1])
    assert repr(weighted_sum([7.5, 0], null_first)) == "Fraction(0, 1)"
    assert repr(weighted_sum([7, 0], null_first)) == "Fraction(0, 1)"
    sigma = discrete_sigma_algebra(SampleSpace(["a", "b", "c"]))
    assert repr(atom_sums([-0.0, 7.5, 4], sigma, P)) == repr(
        ([Fraction(1, 2), 0, Fraction(1, 2)], [0.0, 0, Fraction(2)])
    )
    assert repr(atom_sums([Fraction(1, 3), 7, 4], sigma, P)) == repr(
        ([Fraction(1, 2), 0, Fraction(1, 2)], [Fraction(1, 6), 0, Fraction(2)])
    )


def test_negative_part_stays_int_on_a_float_tie():
    """A float process that never ends below a has an int 0 negative part, not 0.0."""
    space = SampleSpace(["up", "down", "null"])
    F = Filtration(space, [trivial_sigma_algebra(space), discrete_sigma_algebra(space)])
    X = AdaptedProcess(F, [
        RandomVariable(space, [0.0, 0.0, 0.0]),
        RandomVariable(space, [0.5, -0.5, -1.5]),
    ])
    P = ProbabilityMeasure(space, ["1/2", "1/2", 0])
    rep = upcrossing_inequality_check(X, P, -0.5, 0.5)
    assert rep.negative_part_mean == 0
    assert type(rep.negative_part_mean) is int
