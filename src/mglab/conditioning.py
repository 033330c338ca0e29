"""Conditional expectation on sub-sigma-algebras, exactly.

On a finite space the conditional expectation given a sigma-algebra G is
just the atom-wise weighted average, so there is nothing to approximate:
E[X|G] is computed exactly and the defining integral identity
``integral_A X dP = integral_A E[X|G] dP`` is then verified set by set
(atoms suffice, by additivity).  Atoms of probability zero get the
convention value 0, and the report says so rather than hiding it.  A measurable
input (E[X|H] in the tower rule, a Kolmogorov candidate) is summed once per atom.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .integration import RandomVariable, atom_sums, clear_denominators, is_measurable
from .measure import (EventSet, ProbabilityMeasure, SigmaAlgebra, _agree, _atom_masses, _take,
                      _trusted, _up)
from .numeric import DEFAULT_TOLERANCE, as_number, numbers_equal


@dataclass(frozen=True)
class ConditionalReport:
    """Result bundle for a conditional expectation.

    Attributes
    ----------
    result:
        The conditional expectation, measurable with respect to the
        conditioning sigma-algebra.
    identity_checked:
        True when the defining identity was verified on every atom (it is,
        on every call; a False here would mean a defect in this module, not
        in the mathematics).
    null_atoms:
        Atoms of probability zero where the convention value 0 was used.
        On these the conditional expectation is not pinned down by the
        identity, only almost surely.
    """

    result: RandomVariable
    identity_checked: bool
    null_atoms: tuple[EventSet, ...]


def conditional_expectation(
    X: RandomVariable,
    G: SigmaAlgebra,
    P: ProbabilityMeasure,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionalReport:
    """E[X|G] by atom-wise averaging, with the defining identity verified.

    On each atom A with P(A) > 0 the value is sum(X*P over A) / P(A); on
    null atoms it is 0 by convention, and those atoms are listed in the
    report.  ``tolerance`` only matters when X carries floats; exact inputs
    are checked with exact equality.
    """
    _agree("variable, sigma-algebra, and measure must share one space", X.space, G.space, P.space)
    masses, totals = atom_sums(X.values, G, P)
    averages = _means(masses, totals)
    # The identity integral_A X dP = integral_A Y dP on an atom reads
    # weighted == avg * mass; for exact inputs this holds by construction,
    # for float inputs it guards against accumulation error.
    identity_ok = all(numbers_equal(weighted, avg * mass, tolerance)
                      for mass, weighted, avg in zip(masses, totals, averages) if mass)
    null_atoms = tuple(G.atoms[k] for k, mass in enumerate(masses) if not mass)
    # Every average has been through as_number, and 0 is the null-atom value.
    result = _trusted(RandomVariable, space=X.space, values=_take(averages, G.labels))
    return ConditionalReport(result, identity_ok, null_atoms)


def _measurable_sums(values, fine: SigmaAlgebra, G: SigmaAlgebra, P: ProbabilityMeasure):
    """``atom_sums(values, G, P)`` for ``values`` constant on the atoms of ``fine`` (in G):
    value * mass per fine-atom in ints over ``D * L``, unless a float is in ``values``,
    on the masses held per (sigma-algebra, P); a G not yet read adds up fine's."""
    if float in set(map(type, values)):
        return atom_sums(values, G, P)
    (nums,), L = clear_denominators(_take(values, fine.least_members))
    D, parents = P.denominator, _take(G.labels, fine.least_members)
    fine_masses = _atom_masses(fine, P)
    masses = _atom_masses(G, P, (fine_masses, parents))
    totals = _up(map(mul, nums, fine_masses), parents, G.atom_count)
    return ([Fraction(m, D) if m else 0 for m in masses],
            [Fraction(t, D * L) if m else 0 for m, t in zip(masses, totals)])


def _means(masses: list, totals: list) -> list:
    """Per atom, total / mass through ``as_number``, and 0 on a null atom."""
    return [as_number(t / m) if m else 0 for m, t in zip(masses, totals)]


def verify_kolmogorov(
    X: RandomVariable,
    G: SigmaAlgebra,
    P: ProbabilityMeasure,
    Y: RandomVariable,
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """Does Y satisfy the defining identity of E[X|G]?

    Y must be G-measurable (a non-measurable Y simply fails the test), and
    the atom-wise integrals of X and Y against P must agree, exactly for
    exact inputs and within ``tolerance`` once floats are involved.
    Checking atoms suffices: every member set of G is a disjoint union of
    atoms and both sides are additive.  Any two passing candidates agree on
    every atom of positive probability.
    """
    _agree("all arguments must share one sample space", X.space, G.space, P.space, Y.space)
    if not is_measurable(Y, G):
        return False
    _, lhs = atom_sums(X.values, G, P)
    _, rhs = _measurable_sums(Y.values, G, G, P)
    return all(numbers_equal(a, b, tolerance) for a, b in zip(lhs, rhs))


def tower_check(
    X: RandomVariable,
    G: SigmaAlgebra,
    H: SigmaAlgebra,
    P: ProbabilityMeasure,
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """Tower rule for nested sigma-algebras G inside H, both nestings.

    Requires G to be a sub-sigma-algebra of H (every H-atom inside one
    G-atom); a violation raises and names the offending atom.  Checks

      (a) E[ E[X|H] | G ] = E[X|G]   (coarse conditioning wins), and
      (b) E[ E[X|G] | H ] = E[X|G]   (a G-measurable variable is untouched
                                      by finer conditioning).

    Equality is compared on outcomes of positive probability.  That is the
    honest scope: on a null H-atom inside a positive G-atom, nesting (b)
    computes the convention value 0 on the left while the right side keeps
    the atom average, so pointwise-everywhere equality is not a theorem
    under the null-atom convention, almost-sure equality is.
    """
    _agree("all arguments must share one sample space", X.space, G.space, H.space, P.space)
    atom = H.first_split(G.labels)
    if atom is not None:
        raise ValueError(
            f"not nested: H-atom {list(atom.members)} straddles more than one G-atom"
        )
    base = conditional_expectation(X, G, P, tolerance).result.values
    fine = conditional_expectation(X, H, P, tolerance).result.values
    # E[X|H] and E[X|G] are H-measurable: the outer means read H-atoms.
    via_fine = _means(*_measurable_sums(fine, H, G, P))
    masses, totals = _measurable_sums(base, H, H, P)
    # All three are constant on H-atoms, so one member of each H-atom of
    # positive mass stands for every outcome of positive weight in it.
    return all(
        numbers_equal(via_fine[G.labels[i]], base[i], tolerance)
        and numbers_equal(refined, base[i], tolerance)
        for i, refined, mass in zip(H.least_members, _means(masses, totals), masses) if mass)
