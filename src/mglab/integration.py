"""Random variables, simple-function forms, and the exact integral.

On a finite space every random variable is simple, so the integral is a
finite weighted sum and "constructing the expectation" means: decompose into
level sets, integrate the simple form, and check the positive/negative split
agrees.  All three routes are implemented separately so they can be played
against each other in tests instead of collapsing into one formula.

Every other P-weighted sum in the exact engine goes through one of two
kernels here: :func:`weighted_sum` over all outcomes (expectations, the
optional-stopping and upcrossing figures, the L2 Gram matrix, the exact
side of cross-validation) and :func:`atom_sums` per atom of a partition
(conditional expectation, classification, the transform identity, the
tail-bound hypothesis).  :func:`integrate_simple` stays a separate route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .measure import EventSet, ProbabilityMeasure, SampleSpace, SigmaAlgebra, measure_of
from .numeric import Number, all_exact, as_number


@dataclass(frozen=True)
class RandomVariable:
    """A real-valued function on a finite sample space.

    Parameters
    ----------
    space:
        The sample space the variable lives on.
    values:
        One finite value per outcome, aligned with the space's outcome
        order.  Ints and Fractions are exact; floats are accepted but mark
        the variable inexact (see :attr:`exact`), which downgrades
        exact-equality checks elsewhere to tolerance comparisons.
    """

    space: SampleSpace
    values: tuple[Number, ...]

    def __post_init__(self):
        values = tuple(as_number(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.size:
            raise ValueError(
                f"got {len(values)} values for a space of {self.space.size} outcomes"
            )
        for i, v in enumerate(values):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"value at outcome {i} is not finite: {v!r}")

    @cached_property
    def exact(self) -> bool:
        return all_exact(self.values)

    def value_at(self, outcome: int) -> Number:
        return self.values[outcome]

    def map(self, fn) -> "RandomVariable":
        return RandomVariable(self.space, tuple(fn(v) for v in self.values))

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        self._check_same_space(other)
        return RandomVariable(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        self._check_same_space(other)
        return RandomVariable(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c: Number) -> "RandomVariable":
        c = as_number(c)
        return RandomVariable(self.space, tuple(c * v for v in self.values))

    def _check_same_space(self, other: "RandomVariable") -> None:
        if self.space != other.space:
            raise ValueError("random variables live on different sample spaces")


def constant_variable(space: SampleSpace, value) -> RandomVariable:
    value = as_number(value)
    return RandomVariable(space, tuple(value for _ in range(space.size)))


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
    if variable.space != sigma.space:
        raise ValueError("variable and sigma-algebra live on different spaces")
    return sigma.first_split(variable.values) is None


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
    if X.space != P.space:
        raise ValueError("variable and measure live on different spaces")
    return as_number(weighted_sum(X.values, P.weights))


def weighted_sum(values: Iterable[Number], weights: Sequence) -> Number:
    """Sum of v * w over the outcomes of non-zero weight, in outcome order.

    Starts from ``Fraction(0)``, so exact terms give a Fraction and one
    float term makes the result a float; zero-weight outcomes are skipped,
    so their values never turn an exact sum into a float.
    """
    total: Number = Fraction(0)
    for v, w in zip(values, weights):
        if w:
            total += v * w
    return total


def atom_sums(
    values: Iterable[Number], sigma: SigmaAlgebra, weights: Sequence
) -> tuple[list, list]:
    """Per-atom ``(masses, totals)``, both indexed by the labels of ``sigma``.

    ``masses[k]`` is the weight of atom k and ``totals[k]`` the sum of v * w
    over its outcomes of non-zero weight, in ascending outcome order, from
    one pass over the label vector.  Both start at int 0, so a null atom
    has mass 0 and integer weights give integer sums.
    """
    masses: list = [0] * sigma.atom_count
    totals: list = [0] * sigma.atom_count
    for lab, v, w in zip(sigma.labels, values, weights):
        if w:
            masses[lab] += w
            totals[lab] += v * w
    return masses, totals


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
