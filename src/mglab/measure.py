"""Finite sample spaces, sigma-algebras as partitions, and exact measures.

On a finite outcome set every sigma-algebra is generated by a unique
partition into atoms, and every member set is a union of atoms.  This module
works with that partition representation throughout, stored as one atom
label per outcome: generating a sigma-algebra means labelling the atom
partition, membership means "splits no atom", and enumeration walks the 2**k
unions when that is small enough to be sane.

Probabilities are ``fractions.Fraction`` end to end, so additivity checks
are exact equalities rather than tolerance games.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import is_not, itemgetter, ne
from typing import Iterable, Sequence

from .numeric import as_exact

# Enumeration guard: 2**20 subsets is the most enumerate_sets will
# materialize unless the caller raises the limit explicitly.
DEFAULT_ENUMERATION_LIMIT = 2 ** 20


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set as given.

    ``__post_init__`` does not run, so nothing is checked or normalized:
    call it only where every check of the public constructor already holds
    by construction.  Cached properties may be passed as fields too.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _agree(message: str, first, *others) -> None:
    """Refuse with ``ValueError(message)`` unless every one of ``others`` equals ``first``:
    the one check that arguments share a sample space or a filtration."""
    if any(other != first for other in others):
        raise ValueError(message)


def _take(values: Sequence, indices: Sequence[int]) -> tuple:
    """``tuple(values[i] for i in indices)`` in one C-level ``itemgetter`` call."""
    got = itemgetter(*indices)(values)
    return got if len(indices) > 1 else (got,)  # itemgetter of one index returns the item


def _up(values: Iterable, parents: Iterable[int], count: int) -> list:
    """Per parent label in ``range(count)``, the sum from int 0 of the ``values``
    whose entry in ``parents`` is that label: the one *up* move of a sum."""
    sums = [0] * count
    for k, v in zip(parents, values):
        sums[k] += v
    return sums


def _atom_masses(sigma: "SigmaAlgebra", P: "ProbabilityMeasure", child=None) -> tuple:
    """The int atom masses of ``sigma`` under ``P`` over ``P.denominator``, by label, from
    the outcome weights or from ``child``, the ``(masses, parents)`` of a refinement; held
    on ``sigma`` for the last measure read, weakly, and a hit is that very ``P`` (``is``)."""
    held = sigma._held_masses
    if held is not None and held[0]() is P:
        return held[1]
    masses = tuple(_up(*(child or (P.int_weights, sigma.labels)), sigma.atom_count))
    object.__setattr__(sigma, "_held_masses", (weakref.ref(P), masses))
    return masses


def _value_split(sigma: "SigmaAlgebra", values: Sequence) -> "EventSet | None":
    """``sigma.first_split(values)`` for the finite values of a random variable,
    decided in C when each value is the very object at its atom's least member."""
    firsts = _take(_take(values, sigma.least_members), sigma.labels)
    return sigma.first_split(values) if any(map(is_not, values, firsts)) else None


class SizeLimitError(ValueError):
    """Raised when an exact enumeration would exceed the configured limit.

    The message always names the limit and points at the Monte Carlo engine,
    which is the supported fallback for instances too large to enumerate.
    """


@dataclass(frozen=True)
class SampleSpace:
    """A finite set of outcomes, identified by index.

    Parameters
    ----------
    outcome_labels:
        Distinct, human-readable names.  Position in this tuple is the
        outcome's index, and every other object in the package refers to
        outcomes by that index.
    """

    outcome_labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.outcome_labels)
        object.__setattr__(self, "outcome_labels", labels)
        if len(labels) == 0:
            raise ValueError("a sample space needs at least one outcome")
        if any(not isinstance(lab, str) for lab in labels):
            raise TypeError("outcome labels must be strings")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.outcome_labels)

    def universe(self) -> "EventSet":
        return EventSet(tuple(range(self.size)))


@dataclass(frozen=True)
class EventSet:
    """A subset of outcomes, stored as sorted distinct indices."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(self.members))
        if any(not isinstance(m, int) or isinstance(m, bool) or m < 0 for m in members):
            raise ValueError("event members must be non-negative outcome indices")
        for prev, cur in zip(members, members[1:]):
            if prev == cur:
                raise ValueError(f"duplicate outcome index {cur} in event")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.member_set

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def union(self, other: "EventSet") -> "EventSet":
        return EventSet(tuple(self.member_set | other.member_set))

    def complement(self, space: SampleSpace) -> "EventSet":
        if self.members and self.members[-1] >= space.size:
            raise ValueError("event refers to outcomes outside the space")
        return EventSet(tuple(i for i in range(space.size) if i not in self.member_set))

    def is_subset_of(self, other: "EventSet") -> bool:
        return self.member_set <= other.member_set

    def validate_against(self, space: SampleSpace) -> None:
        if self.members and self.members[-1] >= space.size:
            raise ValueError(
                f"outcome index {self.members[-1]} out of range for a space of size {space.size}"
            )


EMPTY_EVENT = EventSet(())


@dataclass(frozen=True)
class SigmaAlgebra:
    """A sigma-algebra on a finite space, held as its atom partition.

    Parameters
    ----------
    space:
        The underlying sample space.
    labels:
        One atom label per outcome: two outcomes share an atom exactly when
        they share a label.  Labels are renumbered by first appearance, so
        atom ``k`` is the one with the ``k``-th smallest least member and
        two descriptions of the same sigma-algebra compare equal.

    The member sets of the sigma-algebra are exactly the 2**k unions of
    atoms; use :func:`enumerate_sets` to list them and :func:`contains` to
    test one without listing them all.  ``atom_count`` is the number of
    atoms, counted once while the labels are renumbered.
    """

    space: SampleSpace
    labels: tuple[int, ...]
    atom_count: int = field(init=False, repr=False, compare=False)
    _held_masses: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) != self.space.size:
            raise ValueError(
                f"got {len(labels)} atom labels for a space of {self.space.size} outcomes"
            )
        if any(not isinstance(lab, int) or isinstance(lab, bool) or lab < 0 for lab in labels):
            raise ValueError("atom labels must be non-negative integers")
        renumbered: dict[int, int] = {}
        labels = tuple(renumbered.setdefault(lab, len(renumbered)) for lab in labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "atom_count", len(renumbered))

    @cached_property
    def atoms(self) -> tuple[EventSet, ...]:
        """The atoms as events, in label order (sorted by smallest member)."""
        groups: list[list[int]] = [[] for _ in range(self.atom_count)]
        for i, lab in enumerate(self.labels):
            groups[lab].append(i)
        # Each group is ascending, distinct and in range: a valid EventSet.
        return tuple(_trusted(EventSet, members=tuple(g)) for g in groups)

    @cached_property
    def least_members(self) -> tuple[int, ...]:
        """The least outcome of each atom, by label."""
        firsts: list[int] = []
        for i, lab in enumerate(self.labels):
            if lab == len(firsts):
                firsts.append(i)
        return tuple(firsts)

    def atom_containing(self, outcome: int) -> EventSet:
        if not 0 <= outcome < self.space.size:
            raise ValueError(f"outcome index {outcome} out of range")
        return self.atoms[self.labels[outcome]]

    def first_split(self, keys: Sequence) -> EventSet | None:
        """The lowest-label atom on which ``keys`` is not constant, or None.

        ``keys`` holds one value per outcome; each key is compared with ``!=``
        to the key at its atom's least member.  None means ``keys`` is
        measurable: constant on every atom.  Singletons split nothing; else one
        builtin pass decides, and the atoms are walked only if it finds a split.
        """
        if self.atom_count == self.space.size:
            return None
        firsts = _take(keys, self.least_members)
        if not any(map(ne, keys, _take(firsts, self.labels))):
            return None
        return next((atom for atom, first in zip(self.atoms, firsts)
                     if any(keys[i] != first for i in atom.members[1:])), None)

    def refines(self, coarser: "SigmaAlgebra") -> bool:
        """True when every atom of ``coarser`` is a union of atoms of ``self``.

        Equivalently, ``coarser`` is a sub-sigma-algebra of ``self``.
        """
        return self.space == coarser.space and self.first_split(coarser.labels) is None


def trivial_sigma_algebra(space: SampleSpace) -> SigmaAlgebra:
    return SigmaAlgebra(space, (0,) * space.size)


def discrete_sigma_algebra(space: SampleSpace) -> SigmaAlgebra:
    return SigmaAlgebra(space, tuple(range(space.size)))


def generate_sigma_algebra(space: SampleSpace, generators: Sequence[EventSet]) -> SigmaAlgebra:
    """Smallest sigma-algebra on ``space`` containing every generator.

    Two outcomes land in the same atom exactly when no generator separates
    them, so the atoms are the fibers of the membership signature
    ``outcome -> (outcome in G_1, ..., outcome in G_m)``.  That is a single
    pass over outcomes, linear in ``size * len(generators)``, with no
    closure iteration.  With no generators at all the result is the trivial
    sigma-algebra ``{empty, everything}``.
    """
    for g in generators:
        g.validate_against(space)
    signature_labels: dict[tuple[bool, ...], int] = {}
    member_sets = [g.member_set for g in generators]
    labels = tuple(
        signature_labels.setdefault(tuple(i in ms for ms in member_sets), len(signature_labels))
        for i in range(space.size)
    )
    return SigmaAlgebra(space, labels)


def enumerate_sets(
    sigma: SigmaAlgebra, limit: int | None = DEFAULT_ENUMERATION_LIMIT
) -> list[EventSet]:
    """All member sets of ``sigma``, i.e. all unions of its atoms.

    Sets come out in mask order over the sorted atoms, starting with the
    empty set and ending with the whole space; the count is exactly
    ``2 ** sigma.atom_count``.  If that exceeds ``limit`` a
    :class:`SizeLimitError` is raised instead of thrashing memory; pass
    ``limit=None`` to insist.
    """
    k = sigma.atom_count
    if limit is not None and 2 ** k > limit:
        raise SizeLimitError(
            f"sigma-algebra has 2**{k} = {2 ** k} member sets, over the enumeration "
            f"limit of {limit}; raise the limit or use the Monte Carlo engine for "
            "estimates on spaces this large"
        )
    members: list[EventSet] = []
    atom_members = [a.members for a in sigma.atoms]
    for mask in range(2 ** k):
        chosen: list[int] = []
        for bit in range(k):
            if mask >> bit & 1:
                chosen.extend(atom_members[bit])
        members.append(EventSet(tuple(chosen)))
    return members


def contains(sigma: SigmaAlgebra, event: EventSet) -> bool:
    """Membership test: does ``event`` belong to ``sigma``?

    True exactly when the event splits no atom, checked atom by atom in
    linear time.  The event must live on the same space.
    """
    event.validate_against(sigma.space)
    ms = event.member_set
    return sigma.first_split([i in ms for i in range(sigma.space.size)]) is None


def check_sigma_axioms(space: SampleSpace, sets: Iterable[EventSet]) -> tuple[bool, str | None]:
    """Verify the sigma-algebra axioms for an explicit collection of sets.

    Checks that the collection contains the empty set and the whole space
    and is closed under complement and pairwise union (countable union
    collapses to finite union here, and finite union to pairwise).  Returns
    ``(True, None)`` or ``(False, reason)`` naming the first offender.
    Duplicates in the input are harmless.
    """
    universe = frozenset(range(space.size))
    family: set[frozenset[int]] = set()
    for ev in sets:
        ev.validate_against(space)
        family.add(ev.member_set)
    if frozenset() not in family:
        return False, "the empty set is missing"
    if universe not in family:
        return False, "the whole space is missing"
    for s in family:
        if universe - s not in family:
            return False, f"complement of {sorted(s)} is missing"
    for s in family:
        for t in family:
            if s | t not in family:
                return False, f"union of {sorted(s)} and {sorted(t)} is missing"
    return True, None


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Exact probability weights on the outcomes of a finite space.

    Parameters
    ----------
    space:
        The sample space being weighted.
    weights:
        One rational per outcome; entries may be ints, Fractions, or strings
        like ``"1/6"``, and are stored as Fractions.  They must be
        non-negative and sum to exactly 1.  Zero weights are allowed: null
        outcomes are a feature, not an error.

    Construction also puts the weights on one common denominator:
    ``denominator`` is the lcm ``D`` of the weight denominators and
    ``int_weights[i] == weights[i] * D``, so the integer weights sum to
    ``D``.  The exact summation kernels in :mod:`mglab.integration` run on
    these integers.
    """

    space: SampleSpace
    weights: tuple[Fraction, ...] = field()
    denominator: int = field(init=False, repr=False, compare=False)
    int_weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # as_exact returns an int or a Fraction: only the ints need wrapping.
        weights = tuple(w if type(w) is Fraction else Fraction(w)
                        for w in map(as_exact, self.weights))
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.space.size:
            raise ValueError(
                f"got {len(weights)} weights for a space of {self.space.size} outcomes"
            )
        for i, w in enumerate(weights):
            if w < 0:
                raise ValueError(f"weight of outcome {i} is negative: {w}")
        D = math.lcm(*{w.denominator for w in weights})
        int_weights = tuple(w.numerator * (D // w.denominator) for w in weights)
        total = sum(int_weights)
        if total != D:
            raise ValueError(f"weights sum to {Fraction(total, D)}, not 1")
        object.__setattr__(self, "denominator", D)
        object.__setattr__(self, "int_weights", int_weights)

    def __call__(self, event: EventSet) -> Fraction:
        return measure_of(self, event)


def uniform_measure(space: SampleSpace) -> ProbabilityMeasure:
    n = space.size
    return ProbabilityMeasure(space, tuple(Fraction(1, n) for _ in range(n)))


def measure_of(measure: ProbabilityMeasure, event: EventSet) -> Fraction:
    """P(event), as an exact Fraction."""
    event.validate_against(measure.space)
    w = measure.weights
    return sum((w[i] for i in event.members), start=Fraction(0))


def is_probability(space: SampleSpace, weights: Sequence) -> tuple[bool, str | None]:
    """Check whether a weight vector defines a probability measure on ``space``.

    The weight list must match the space's size (anything else is a usage
    error and raises).  Returns ``(False, reason)`` for a negative entry or
    a total different from 1, with the reason naming the offender exactly.
    """
    if len(weights) != space.size:
        raise ValueError(
            f"got {len(weights)} weights for a space of {space.size} outcomes"
        )
    exact = [Fraction(as_exact(w)) for w in weights]
    for i, w in enumerate(exact):
        if w < 0:
            return False, f"weight of outcome {i} ({space.outcome_labels[i]}) is negative: {w}"
    total = sum(exact)
    if total != 1:
        return False, f"weights sum to {total}, not 1"
    return True, None
