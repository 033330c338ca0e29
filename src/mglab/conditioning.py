"""Conditional expectation on sub-sigma-algebras, exactly.

On a finite space the conditional expectation given a sigma-algebra G is
just the atom-wise weighted average, so there is nothing to approximate:
E[X|G] is computed exactly and the defining integral identity
``integral_A X dP = integral_A E[X|G] dP`` is then verified set by set
(atoms suffice, by additivity).  Atoms of probability zero get the
convention value 0, and the report says so rather than hiding it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .integration import RandomVariable, atom_sums, is_measurable
from .measure import EventSet, ProbabilityMeasure, SigmaAlgebra
from .numeric import DEFAULT_TOLERANCE, Number, as_number, numbers_equal


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
    if X.space != G.space or X.space != P.space:
        raise ValueError("variable, sigma-algebra, and measure must share one space")
    masses, totals = atom_sums(X.values, G, P.weights)
    averages: list[Number] = [0] * len(masses)
    null_atoms: list[EventSet] = []
    identity_ok = True
    for k, (mass, weighted) in enumerate(zip(masses, totals)):
        if mass == 0:
            null_atoms.append(G.atoms[k])
            continue
        avg = as_number(weighted / mass)
        averages[k] = avg
        # The identity integral_A X dP = integral_A Y dP on this atom reads
        # weighted == avg * mass; for exact inputs this holds by construction,
        # for float inputs it guards against accumulation error.
        if not numbers_equal(weighted, avg * mass, tolerance):
            identity_ok = False
    result = RandomVariable(X.space, tuple(averages[lab] for lab in G.labels))
    return ConditionalReport(result, identity_ok, tuple(null_atoms))


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
    if X.space != G.space or X.space != P.space or Y.space != X.space:
        raise ValueError("all arguments must share one sample space")
    if not is_measurable(Y, G):
        return False
    _, lhs = atom_sums(X.values, G, P.weights)
    _, rhs = atom_sums(Y.values, G, P.weights)
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
    if X.space != G.space or X.space != H.space or X.space != P.space:
        raise ValueError("all arguments must share one sample space")
    atom = H.first_split(G.labels)
    if atom is not None:
        raise ValueError(
            f"not nested: H-atom {list(atom.members)} straddles more than one G-atom"
        )
    base = conditional_expectation(X, G, P, tolerance).result
    via_fine = conditional_expectation(
        conditional_expectation(X, H, P, tolerance).result, G, P, tolerance
    ).result
    refined = conditional_expectation(base, H, P, tolerance).result
    for i in range(X.space.size):
        if P.weights[i] == 0:
            continue
        if not numbers_equal(via_fine.values[i], base.values[i], tolerance):
            return False
        if not numbers_equal(refined.values[i], base.values[i], tolerance):
            return False
    return True
