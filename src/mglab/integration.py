"""Random variables, simple-function forms, and the exact integral.

On a finite space every random variable is simple, so the integral is a
finite weighted sum and "constructing the expectation" means: decompose into
level sets, integrate the simple form, and check the positive/negative split
agrees.  All three routes are implemented separately so they can be played
against each other in tests instead of collapsing into one formula.

Every other P-weighted sum over outcomes goes through one of two kernels
here: :func:`weighted_sum` (expectations, the optional-stopping E[X_tau], the
upcrossing negative part, the tail-bound mean, cross-validation's exact side,
and E|X_m| and the L2 Gram matrix of a float process) and :func:`atom_sums`
per atom of a partition (conditional expectation, the left side of Kolmogorov's
identity, and the drift table and measurable tower and Kolmogorov sums of floats).
Exact stage-measurable quantities are read once per atom instead, in ints
over the atom masses (see ``mglab.processes`` and ``mglab.conditioning``).
:func:`integrate_simple` stays a separate route.

The kernels sum fraction-free, in the sense of Bareiss (Math. Comp. 1968):
the measure holds its weights as integers over their common denominator
``D``, an exact value stream is cleared by the lcm ``L`` of its own
denominators (:func:`clear_denominators`), the products are added as
Python ints, and each sum (or each atom's sum) is divided by ``D * L``
once, or not at all where only its sign or an integer identity is needed.
A stream that holds a float keeps the ordered loop over the Fraction
weights, so float results keep their exact bits; atom masses are integer
sums whatever the stream holds, held per (sigma-algebra, measure).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .measure import (EventSet, ProbabilityMeasure, SampleSpace, SigmaAlgebra, _agree,
                      _atom_masses, _trusted, _up, _value_split, measure_of)
from .numeric import Number, as_number


@dataclass(frozen=True)
class RandomVariable:
    """A real-valued function on a finite sample space.

    Parameters
    ----------
    space:
        The sample space the variable lives on.
    values:
        One finite value per outcome, aligned with the space's outcome
        order.  Ints and Fractions are exact; floats are accepted but make
        the variable inexact, which downgrades exact-equality checks
        elsewhere to tolerance comparisons.
    """

    space: SampleSpace
    values: tuple[Number, ...]

    def __post_init__(self):
        values = tuple(self.values)
        # Ints are already normalized.  Anything else goes through as_number,
        # which refuses non-finite floats, so every stored value is finite.
        if set(map(type, values)) != {int}:
            values = tuple(map(as_number, values))
        object.__setattr__(self, "values", values)
        if len(values) != self.space.size:
            raise ValueError(
                f"got {len(values)} values for a space of {self.space.size} outcomes"
            )

    def map(self, fn) -> "RandomVariable":
        return RandomVariable(self.space, tuple(fn(v) for v in self.values))

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        _agree("random variables live on different sample spaces", self.space, other.space)
        return RandomVariable(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        _agree("random variables live on different sample spaces", self.space, other.space)
        return RandomVariable(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c: Number) -> "RandomVariable":
        c = as_number(c)
        return RandomVariable(self.space, tuple(c * v for v in self.values))


def constant_variable(space: SampleSpace, value) -> RandomVariable:
    return _trusted(RandomVariable, space=space, values=(as_number(value),) * space.size)


@dataclass(frozen=True)
class SimpleFunctionForm:
    """A function written as sum(a_i * 1_{A_i}) in canonical level-set form.

    The sets must be pairwise disjoint and the coefficients pairwise
    distinct; outcomes covered by no set take the value 0.  Terms are stored
    sorted by the smallest member of their set, so equal functions in
    canonical form compare equal structurally.
    """

    terms: tuple[tuple[Number, EventSet], ...]

    def __post_init__(self):
        terms = tuple((as_number(a), ev) for a, ev in self.terms)
        terms = tuple(sorted(terms, key=lambda t: t[1].members[0] if t[1].members else -1))
        object.__setattr__(self, "terms", terms)
        seen: set[int] = set()
        for _, ev in terms:
            if len(ev) == 0:
                raise ValueError("simple-function terms must have non-empty sets")
            overlap = seen & ev.member_set
            if overlap:
                raise ValueError(f"level sets overlap at outcome {min(overlap)}")
            seen |= ev.member_set
        coeffs = [a for a, _ in terms]
        for i, a in enumerate(coeffs):
            for b in coeffs[i + 1:]:
                if a == b:
                    raise ValueError(f"duplicate coefficient {a!r}; canonical form needs distinct values")

    def evaluate(self, space: SampleSpace) -> RandomVariable:
        """Pointwise values of sum(a_i * 1_{A_i}) on ``space``."""
        values: list[Number] = [0] * space.size
        for a, ev in self.terms:
            ev.validate_against(space)
            for i in ev.members:
                values[i] = a
        return RandomVariable(space, tuple(values))


def indicator(space: SampleSpace, event: EventSet) -> RandomVariable:
    """The indicator of ``event``: 1 on its members, 0 elsewhere."""
    event.validate_against(space)
    values = [0] * space.size
    for i in event.members:
        values[i] = 1
    return RandomVariable(space, tuple(values))


def is_measurable(variable: RandomVariable, sigma: SigmaAlgebra) -> bool:
    """True iff ``variable`` is constant on every atom of ``sigma``.

    On a finite space that is the same as every preimage of every value set
    being a member of ``sigma``.  The two objects must share a space.
    """
    _agree("variable and sigma-algebra live on different spaces", variable.space, sigma.space)
    return _value_split(sigma, variable.values) is None


def to_simple_form(variable: RandomVariable) -> SimpleFunctionForm:
    """Canonical level-set decomposition: one term per distinct value.

    The level sets partition the whole space, so a zero value gets a term
    like any other; evaluating the result reproduces ``variable`` exactly.
    """
    groups: dict[Number, list[int]] = {}
    for i, v in enumerate(variable.values):
        groups.setdefault(v, []).append(i)
    terms = tuple((v, EventSet(tuple(idx))) for v, idx in groups.items())
    return SimpleFunctionForm(terms)


def integrate_simple(g: SimpleFunctionForm, mu: ProbabilityMeasure) -> Number:
    """The integral of a simple function: sum(a_i * mu(A_i)).

    Exact whenever the coefficients are exact, since the measure always is.
    """
    total: Number = Fraction(0)
    for a, ev in g.terms:
        total += a * measure_of(mu, ev)
    return as_number(total)


def expectation(X: RandomVariable, P: ProbabilityMeasure) -> Number:
    """E[X] as the direct weighted sum over outcomes.

    Agrees with integrating the canonical simple form; the tests hold the
    two routes against each other rather than trusting either alone.
    """
    _agree("variable and measure live on different spaces", X.space, P.space)
    return as_number(weighted_sum(X.values, P))


def weighted_sum(values: Sequence[Number], P: ProbabilityMeasure) -> Number:
    """Sum of v * P({omega}) over the outcomes of non-zero weight, in outcome order.

    Exact values (ints, bools and Fractions) are summed as integers over the
    common denominator ``D * L`` (see :func:`clear_denominators`) and
    divided once, so the result is a Fraction.  A stream holding any other
    value, such as a float, is summed term by term from ``Fraction(0)`` in
    outcome order, which keeps a float result's exact bits; zero-weight
    outcomes are skipped, so their values never turn an exact sum into a
    float.

    ``values`` must be a sequence, not an iterator: it is read twice, so a
    generator is used up by the first read and sums to 0 with no error.
    """
    cleared = clear_denominators(values)
    if cleared is None:
        total: Number = Fraction(0)
        for v, w in zip(values, P.weights):
            if w:
                total += v * w
        return total
    (nums,), L = cleared
    return Fraction(sum(map(mul, nums, P.int_weights)), P.denominator * L)


def atom_sums(
    values: Sequence[Number], sigma: SigmaAlgebra, P: ProbabilityMeasure
) -> tuple[list, list]:
    """Per-atom ``(masses, totals)``, both indexed by the labels of ``sigma``: the
    one per-atom summation loop.

    ``masses[k]`` is the weight of atom k and ``totals[k]`` the sum of v * w
    over its outcomes of non-zero weight.  A null atom has mass and total
    int 0; every other mass is a Fraction, its int mass over ``D`` as held
    per (sigma, P) by ``mglab.measure._atom_masses``, divided once.  Exact
    values are summed as integers over ``P.int_weights`` and divided once
    per atom, so every other total is a Fraction; a stream holding a float
    is summed over the Fraction weights from int 0 in ascending outcome
    order, as :func:`weighted_sum` does, so a float total keeps its exact bits.

    ``values`` must be a sequence; it is read twice, as in :func:`weighted_sum`.
    """
    masses = _atom_masses(sigma, P)
    cleared = clear_denominators(values)
    D = P.denominator
    if cleared is None:
        totals = _up([v * w for v, w in zip(values, P.weights) if w],
                     compress(sigma.labels, P.weights), sigma.atom_count)
    else:
        (nums,), L = cleared
        totals = [Fraction(t, D * L) if m else 0 for m, t in zip(masses, _up(
            map(mul, nums, P.int_weights), sigma.labels, sigma.atom_count))]
    return [Fraction(m, D) if m else 0 for m in masses], totals


_EXACT_TYPES = frozenset({int, bool, Fraction})


def clear_denominators(
    *streams: Sequence[Number],
) -> tuple[tuple[Sequence[int], ...], int] | None:
    """``(nums, L)`` with ``streams[j][i] == nums[j][i] / L``, or None.

    ``L`` is the lcm of the denominators of every value in every stream.
    Streams of ints and bools are handed back as they are, with ``L = 1``,
    so clearing them copies nothing.  None means some value is not an int,
    bool or Fraction (a float, say), so the streams have no exact integer
    form.
    """
    types: set[type] = set()
    for values in streams:
        types.update(map(type, values))
    if not types <= _EXACT_TYPES:
        return None
    if Fraction not in types:
        return streams, 1
    L = math.lcm(*{v.denominator for values in streams for v in values})
    return tuple([v.numerator * (L // v.denominator) for v in values] for values in streams), L


def pos_neg_split(X: RandomVariable) -> tuple[RandomVariable, RandomVariable]:
    """Split X into nonnegative parts with X = X_plus - X_minus pointwise."""
    plus = tuple(v if v > 0 else (0 if not isinstance(v, float) else 0.0) for v in X.values)
    minus = tuple(-v if v < 0 else (0 if not isinstance(v, float) else 0.0) for v in X.values)
    return RandomVariable(X.space, plus), RandomVariable(X.space, minus)


def staircase_approximation(f: RandomVariable, n: int) -> SimpleFunctionForm:
    """Level-``n`` dyadic staircase under a nonnegative function.

    Each value f(omega) is replaced by min(n, floor(2^n * f(omega)) / 2^n).
    The sequence is nondecreasing in ``n`` at every outcome, never exceeds
    ``f``, and matches ``f`` exactly once 2^n * f(omega) is an integer at
    most n * 2^n.  Output coefficients are exact dyadic rationals even when
    ``f`` carries floats.
    """
    if n < 1:
        raise ValueError("approximation level must be at least 1")
    scale = 2 ** n
    values: list[Number] = []
    for i, v in enumerate(f.values):
        if v < 0:
            raise ValueError(f"staircase approximation needs a nonnegative function; value at outcome {i} is {v}")
        stepped = Fraction(math.floor(scale * v), scale)
        values.append(as_number(min(n, stepped)))
    return to_simple_form(RandomVariable(f.space, tuple(values)))
