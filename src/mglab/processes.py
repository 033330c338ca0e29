"""Filtrations, adapted processes, and the discrete-time martingale toolkit.

Everything here runs on a finite horizon over a finite space, so every
theorem in scope reduces to finitely many exact comparisons: classification
inspects one-step conditional means atom by atom, transforms and stopped
processes are evaluated pathwise, and the optional-stopping, upcrossing,
and L2 statements are verified by full enumeration.  Statements that are
genuinely asymptotic (convergence of supermartingales) are exposed only as
explicitly labeled finite-horizon diagnostics.

Zero-probability atoms never take part in a classification or verdict;
where a convention value shows up (conditioning on a null atom) the
underlying conditioning module reports it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .integration import RandomVariable, atom_sums, constant_variable, expectation, weighted_sum
from .measure import (
    EventSet,
    ProbabilityMeasure,
    SampleSpace,
    SigmaAlgebra,
    SizeLimitError,
)
from .numeric import (
    DEFAULT_TOLERANCE,
    Number,
    as_exact,
    as_number,
    numbers_equal,
    sign_with_tolerance,
)

# Classification labels.  "Strict" means the defining inequality is strict on
# every positive-probability atom at every step; the plain labels allow a mix
# of strict and tied steps.  A process that is both a supermartingale and a
# submartingale is a martingale, and gets that label.
MARTINGALE = "martingale"
SUPERMARTINGALE = "supermartingale"
SUBMARTINGALE = "submartingale"
STRICT_SUPERMARTINGALE = "strict-supermartingale"
STRICT_SUBMARTINGALE = "strict-submartingale"
UNCLASSIFIED = "none"

LABELS = (
    MARTINGALE,
    SUPERMARTINGALE,
    SUBMARTINGALE,
    STRICT_SUPERMARTINGALE,
    STRICT_SUBMARTINGALE,
    UNCLASSIFIED,
)

SUPERMARTINGALE_FAMILY = frozenset({MARTINGALE, SUPERMARTINGALE, STRICT_SUPERMARTINGALE})
SUBMARTINGALE_FAMILY = frozenset({MARTINGALE, SUBMARTINGALE, STRICT_SUBMARTINGALE})

# Sentinel for "the stopping rule never fires on this outcome".  Serialized
# as JSON null.
NEVER = None

MAX_COIN_WALK_HORIZON = 20


@dataclass(frozen=True)
class Filtration:
    """An increasing family of sigma-algebras F_0 through F_N.

    Parameters
    ----------
    space:
        The common sample space.
    stages:
        One sigma-algebra per time index.  Each stage must refine the
        previous one: information only grows.
    """

    space: SampleSpace
    stages: tuple[SigmaAlgebra, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("a filtration needs at least one stage")
        for n, stage in enumerate(stages):
            if stage.space != self.space:
                raise ValueError(f"stage {n} lives on a different sample space")
        for n in range(len(stages) - 1):
            atom = stages[n + 1].first_split(stages[n].labels)
            if atom is not None:
                raise ValueError(
                    f"stage {n + 1} does not refine stage {n}: atom "
                    f"{list(atom.members)} straddles two earlier atoms"
                )

    @property
    def horizon(self) -> int:
        return len(self.stages) - 1

    def stage(self, n: int) -> SigmaAlgebra:
        return self.stages[n]


@dataclass(frozen=True)
class AdaptedProcess:
    """A process X_0..X_N adapted to a filtration.

    Adaptation (X_n measurable with respect to stage n) is enforced on
    construction, so any AdaptedProcess in hand is genuinely adapted; the
    error message names the first stage and atom that a non-adapted value
    splits.
    """

    filtration: Filtration
    values: tuple[RandomVariable, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        stages = self.filtration.stages
        if len(values) != len(stages):
            raise ValueError(
                f"got {len(values)} stage values for a filtration with {len(stages)} stages"
            )
        for n, (rv, stage) in enumerate(zip(values, stages)):
            if rv.space != self.filtration.space:
                raise ValueError(f"X_{n} lives on a different sample space")
            atom = stage.first_split(rv.values)
            if atom is not None:
                raise ValueError(
                    f"not adapted: X_{n} is not measurable at stage {n}; it splits "
                    f"atom {list(atom.members)}"
                )

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    @property
    def space(self) -> SampleSpace:
        return self.filtration.space

    def path(self, outcome: int) -> tuple[Number, ...]:
        """The trajectory (X_0(w), ..., X_N(w)) for one outcome."""
        return tuple(rv.values[outcome] for rv in self.values)

    @property
    def exact(self) -> bool:
        return all(rv.exact for rv in self.values)


@dataclass(frozen=True)
class PredictableSequence:
    """Stakes C_1..C_N with C_n known one step ahead of time.

    ``values[k]`` is C_{k+1} and must be measurable with respect to stage k
    of the filtration: the bet on round n is settled before round n's
    information arrives.
    """

    filtration: Filtration
    values: tuple[RandomVariable, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.filtration.horizon:
            raise ValueError(
                f"got {len(values)} stakes for a filtration of horizon {self.filtration.horizon}"
            )
        for k, rv in enumerate(values):
            if rv.space != self.filtration.space:
                raise ValueError(f"C_{k + 1} lives on a different sample space")
            atom = self.filtration.stages[k].first_split(rv.values)
            if atom is not None:
                raise ValueError(
                    f"not predictable: C_{k + 1} must be measurable at stage {k}; it "
                    f"splits atom {list(atom.members)}"
                )

    @property
    def exact(self) -> bool:
        return all(rv.exact for rv in self.values)


@dataclass(frozen=True)
class StoppingTime:
    """A stopping rule: one time per outcome, decided without foresight.

    ``times[i]`` is when the rule fires on outcome ``i``, an integer in
    0..N, or ``None`` (the NEVER sentinel) when it never fires within the
    horizon.  The defining requirement is that {tau <= n} is a union of
    stage-n atoms for every n; violations are rejected at construction with
    the offending stage and atom named.
    """

    filtration: Filtration
    times: tuple[int | None, ...]

    def __post_init__(self):
        times = tuple(self.times)
        object.__setattr__(self, "times", times)
        _validate_time_range(times, self.filtration)
        violation = _stopping_violation(times, self.filtration)
        if violation is not None:
            n, atom = violation
            raise ValueError(
                f"not a stopping time: {{tau <= {n}}} splits the stage-{n} atom "
                f"{list(atom.members)}"
            )

    @property
    def bounded(self) -> bool:
        return all(t is not None for t in self.times)

    def never_event(self) -> EventSet:
        return EventSet(tuple(i for i, t in enumerate(self.times) if t is None))


@dataclass(frozen=True)
class MartingaleClassification:
    """Verdict of the one-step conditional-mean scan.

    ``witness`` is the first (step, atom) in lexicographic order where the
    defining equality fails (for one-sided and unclassified labels) and is
    ``None`` for an exact martingale.
    """

    label: str
    witness: tuple[int, EventSet] | None

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown classification label {self.label!r}")

    @property
    def is_martingale(self) -> bool:
        return self.label == MARTINGALE

    @property
    def is_supermartingale(self) -> bool:
        return self.label in SUPERMARTINGALE_FAMILY

    @property
    def is_submartingale(self) -> bool:
        return self.label in SUBMARTINGALE_FAMILY


def _validate_time_range(times: Sequence[int | None], filtration: Filtration) -> None:
    if len(times) != filtration.space.size:
        raise ValueError(
            f"got {len(times)} stopping values for a space of {filtration.space.size} outcomes"
        )
    N = filtration.horizon
    for i, t in enumerate(times):
        if t is None:
            continue
        if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t <= N:
            raise ValueError(
                f"stopping value at outcome {i} must be an integer in 0..{N} or None, got {t!r}"
            )


def _stopping_violation(
    times: Sequence[int | None], filtration: Filtration
) -> tuple[int, EventSet] | None:
    for n, stage in enumerate(filtration.stages):
        atom = stage.first_split([t is not None and t <= n for t in times])
        if atom is not None:
            return n, atom
    return None


def is_stopping_time(times: Sequence[int | None], filtration: Filtration) -> bool:
    """Is {tau <= n} a union of stage-n atoms for every n?

    ``times`` entries must already be in 0..N or None; out-of-range values
    are a usage error, not a failed test.
    """
    _validate_time_range(times, filtration)
    return _stopping_violation(times, filtration) is None


# ---------------------------------------------------------------------------
# Coin-walk construction


def make_coin_walk(
    N: int, p_heads
) -> tuple[SampleSpace, ProbabilityMeasure, Filtration, AdaptedProcess]:
    """The +-1 betting walk on N independent coin flips.

    Outcomes are all 2**N flip strings in lexicographic order (H before T),
    the measure is the product measure with heads probability ``p_heads``,
    stage n of the filtration is generated by the first n flips (its atoms
    are the prefix classes, which are contiguous index ranges), and
    X_n is the running sum of +1 per heads and -1 per tails, so X_0 = 0.

    The horizon is capped at 20 because the space has 2**N outcomes; past
    that, exact enumeration stops being a workbench and the Monte Carlo
    engine (``mglab.montecarlo.simulate_walk``) is the right tool.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError("the horizon must be a positive integer")
    if N > MAX_COIN_WALK_HORIZON:
        raise SizeLimitError(
            f"a horizon of {N} means 2**{N} = {2 ** N} outcomes, over the exact-enumeration "
            f"cap of {MAX_COIN_WALK_HORIZON}; use mglab.montecarlo.simulate_walk for long walks"
        )
    p = Fraction(as_exact(p_heads))
    if not 0 <= p <= 1:
        raise ValueError(f"heads probability must lie in [0, 1], got {p}")
    q = 1 - p
    size = 1 << N

    labels = tuple("".join(seq) for seq in product("HT", repeat=N))
    space = SampleSpace(labels)

    # Outcome index i encodes the flips in binary, most significant bit
    # first, with 0 = heads; its weight is p^heads * q^tails.
    p_pow = [Fraction(1)] * (N + 1)
    q_pow = [Fraction(1)] * (N + 1)
    for k in range(1, N + 1):
        p_pow[k] = p_pow[k - 1] * p
        q_pow[k] = q_pow[k - 1] * q
    weights = tuple(p_pow[N - i.bit_count()] * q_pow[i.bit_count()] for i in range(size))
    measure = ProbabilityMeasure(space, weights)

    # Stage n's atoms are the prefix classes: outcomes agreeing on their
    # first n flips, i.e. on the top n bits of the index.
    stages = tuple(
        SigmaAlgebra(space, tuple(i >> (N - n) for i in range(size))) for n in range(N + 1)
    )
    filtration = Filtration(space, stages)

    values = [constant_variable(space, 0)]
    prev = values[0].values
    for n in range(1, N + 1):
        shift = N - n
        cur = tuple(prev[i] + (1 if ((i >> shift) & 1) == 0 else -1) for i in range(size))
        values.append(RandomVariable(space, cur))
        prev = cur
    walk = AdaptedProcess(filtration, tuple(values))
    return space, measure, filtration, walk


# ---------------------------------------------------------------------------
# Classification


def classify(
    X: AdaptedProcess, P: ProbabilityMeasure, tolerance: float = DEFAULT_TOLERANCE
) -> MartingaleClassification:
    """Label X by its one-step conditional means.

    For each step n the conditional mean of X_{n+1} on every
    positive-probability atom of stage n (its weighted sum over the atom's
    mass, from :func:`~mglab.integration.atom_sums`) is compared with the
    value of X_n there.  Exact inputs are compared
    exactly; ``tolerance`` applies only once floats are involved.  The
    strongest accurate label wins: all drifts zero gives ``martingale``,
    one-sided drifts give the super/sub labels (``strict-`` when every
    single step on every atom is strict), and genuinely mixed drift signs
    give ``none``.
    """
    if P.space != X.space:
        raise ValueError("process and measure live on different sample spaces")
    weights = P.weights
    signs_seen: set[int] = set()
    witness: tuple[int, EventSet] | None = None
    for n in range(X.horizon):
        stage = X.filtration.stages[n]
        masses, totals = atom_sums(X.values[n + 1].values, stage, weights)
        x_now = _atom_values(X.values[n].values, stage)
        for k, mass in enumerate(masses):
            if mass == 0:
                continue
            drift = as_number(totals[k] / mass) - x_now[k]
            sign = sign_with_tolerance(drift, tolerance)
            signs_seen.add(sign)
            if sign != 0 and witness is None:
                witness = (n, stage.atoms[k])
    has_neg = -1 in signs_seen
    has_pos = 1 in signs_seen
    has_zero = 0 in signs_seen
    if not has_neg and not has_pos:
        return MartingaleClassification(MARTINGALE, None)
    if has_neg and has_pos:
        return MartingaleClassification(UNCLASSIFIED, witness)
    if has_neg:
        label = SUPERMARTINGALE if has_zero else STRICT_SUPERMARTINGALE
    else:
        label = SUBMARTINGALE if has_zero else STRICT_SUBMARTINGALE
    return MartingaleClassification(label, witness)


# ---------------------------------------------------------------------------
# Martingale transform


def transform(C: PredictableSequence, X: AdaptedProcess) -> AdaptedProcess:
    """The discrete stochastic integral Y_n = sum_{k<=n} C_k (X_k - X_{k-1}).

    Y_0 = 0 and the sum is evaluated pathwise; the result is adapted to the
    same filtration (each summand is stage-k measurable).
    """
    if C.filtration != X.filtration:
        raise ValueError("stakes and process must share one filtration")
    space = X.space
    values = [constant_variable(space, 0)]
    prev = values[0].values
    for k in range(1, X.horizon + 1):
        stake = C.values[k - 1].values
        now = X.values[k].values
        before = X.values[k - 1].values
        cur = tuple(
            prev[i] + stake[i] * (now[i] - before[i]) for i in range(space.size)
        )
        values.append(RandomVariable(space, cur))
        prev = cur
    return AdaptedProcess(X.filtration, tuple(values))


@dataclass(frozen=True)
class TransformPreservationReport:
    """Outcome of checking that a transform preserves martingale structure.

    ``hypothesis_ok`` distinguishes a failed premise (wrong input label, or
    stakes outside the allowed range) from a failed conclusion; a premise
    failure is the caller's problem, a conclusion failure would be a defect
    in this package.  ``claimed_label`` is what the preservation theorem
    promises for the transform, ``output_label`` is what the classifier
    actually found, and ``step_identity_ok`` reports the per-step identity
    E[Y_n - Y_{n-1} | F_{n-1}] = C_n * E[X_n - X_{n-1} | F_{n-1}].

    Truthiness means the full check passed: hypotheses held, the identity
    held, and the output label was at least as strong as claimed.
    """

    input_label: str
    claimed_label: str | None
    hypothesis_ok: bool
    hypothesis_failure: str | None
    bound: Number
    output_label: str
    step_identity_ok: bool
    holds: bool | None

    def __bool__(self) -> bool:
        return bool(self.hypothesis_ok and self.step_identity_ok and self.holds)


def verify_transform_preservation(
    C: PredictableSequence,
    X: AdaptedProcess,
    P: ProbabilityMeasure,
    bound,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TransformPreservationReport:
    """Check that transforming X by C keeps its martingale structure.

    A martingale stays a martingale under any C with |C_n| <= bound; a
    supermartingale stays one when 0 <= C_n <= bound.  Stakes outside the
    allowed range, or an input that is neither, are reported as hypothesis
    failures rather than theorem failures.  The per-step conditional
    identity from the proof is verified on every positive-probability atom
    alongside the final classification.
    """
    bound = as_number(bound)
    input_label = classify(X, P, tolerance).label
    hypothesis_failure: str | None = None
    claimed: str | None = None
    if input_label == MARTINGALE:
        claimed = MARTINGALE
        for k, rv in enumerate(C.values):
            for i, v in enumerate(rv.values):
                if abs(v) > bound:
                    hypothesis_failure = (
                        f"|C_{k + 1}| = {abs(v)} exceeds the bound {bound} at outcome {i}"
                    )
                    break
            if hypothesis_failure:
                break
    elif input_label in (SUPERMARTINGALE, STRICT_SUPERMARTINGALE):
        claimed = SUPERMARTINGALE
        for k, rv in enumerate(C.values):
            for i, v in enumerate(rv.values):
                if v < 0 or v > bound:
                    hypothesis_failure = (
                        f"C_{k + 1} = {v} at outcome {i} is outside [0, {bound}], which the "
                        "supermartingale case requires"
                    )
                    break
            if hypothesis_failure:
                break
    else:
        claimed = None
        hypothesis_failure = (
            f"input classifies as {input_label}; preservation is only claimed for "
            "martingales and supermartingales"
        )

    Y = transform(C, X)
    output_label = classify(Y, P, tolerance).label
    identity_ok = _step_identity_holds(C, X, Y, P, tolerance)

    if hypothesis_failure is not None:
        holds: bool | None = None
    elif claimed == MARTINGALE:
        holds = output_label == MARTINGALE
    else:
        holds = output_label in SUPERMARTINGALE_FAMILY

    return TransformPreservationReport(
        input_label=input_label,
        claimed_label=claimed,
        hypothesis_ok=hypothesis_failure is None,
        hypothesis_failure=hypothesis_failure,
        bound=bound,
        output_label=output_label,
        step_identity_ok=identity_ok,
        holds=holds,
    )


def _step_identity_holds(
    C: PredictableSequence,
    X: AdaptedProcess,
    Y: AdaptedProcess,
    P: ProbabilityMeasure,
    tolerance: float,
) -> bool:
    weights = P.weights
    for n in range(1, X.horizon + 1):
        stage = X.filtration.stages[n - 1]
        dx = [a - b for a, b in zip(X.values[n].values, X.values[n - 1].values)]
        dy = [a - b for a, b in zip(Y.values[n].values, Y.values[n - 1].values)]
        masses, lhs = atom_sums(dy, stage, weights)
        _, rhs = atom_sums(dx, stage, weights)
        stakes = _atom_values(C.values[n - 1].values, stage)
        # The stake is constant on each atom, so the conditional identity
        # reduces to lhs = C_n * rhs before dividing by the mass.
        for mass, y, x, stake in zip(masses, lhs, rhs, stakes):
            if mass and not numbers_equal(y, stake * x, tolerance):
                return False
    return True


def _atom_values(values: Sequence[Number], sigma: SigmaAlgebra) -> list[Number]:
    """The value of a ``sigma``-measurable sequence on each atom, by label.

    Read at each atom's least member; measurability (checked with ``!=`` when
    the process or stakes were built) makes any member give the same value.
    """
    firsts: list[Number] = []
    for lab, v in zip(sigma.labels, values):
        if lab == len(firsts):
            firsts.append(v)
    return firsts


# ---------------------------------------------------------------------------
# Stopping


def stopped_process(X: AdaptedProcess, tau: StoppingTime) -> AdaptedProcess:
    """Freeze X at the stopping time: (X^tau)_n(w) = X_{min(tau(w), n)}(w).

    NEVER counts as later than the horizon, so those paths are never
    frozen.  The result is adapted to the same filtration and coincides
    with X_0 plus the transform of X by the predictable stakes 1{n <= tau}.
    """
    if tau.filtration != X.filtration:
        raise ValueError("stopping time and process must share one filtration")
    N = X.horizon
    size = X.space.size
    caps = tuple(N if t is None else t for t in tau.times)
    values = []
    for n in range(N + 1):
        stage_values = tuple(X.values[min(caps[i], n)].values[i] for i in range(size))
        values.append(RandomVariable(X.space, stage_values))
    return AdaptedProcess(X.filtration, tuple(values))


@dataclass(frozen=True)
class OptionalStoppingReport:
    """Exact optional-stopping audit for one process and one stopping rule.

    The three sufficient hypotheses are reported separately: (i) the rule
    is bounded (never NEVER), (ii) the process is uniformly bounded and the
    rule fires almost surely, (iii) increments are bounded and the rule has
    finite mean.  On a finite horizon (ii) and (iii) collapse to "the NEVER
    event has probability zero"; they are still reported separately so the
    verdict states which premise carried it.  ``conclusion`` is the
    asserted relation between E[X_tau] and E[X_0] given the input's label,
    and ``holds`` is its exact verification, or None when no hypothesis
    applies or the label supports no claim.
    """

    label: str
    never_mass: Fraction
    tau_bounded: bool
    tau_max: int | None
    tau_finite_almost_surely: bool
    expected_tau: Number | None
    process_bound: Number
    increment_bound: Number
    hypothesis_bounded_time: bool
    hypothesis_bounded_process: bool
    hypothesis_bounded_increments: bool
    value_at_stop: Number | None
    value_at_start: Number
    conclusion: str
    holds: bool | None
    notes: tuple[str, ...]

    @property
    def any_hypothesis(self) -> bool:
        return (
            self.hypothesis_bounded_time
            or self.hypothesis_bounded_process
            or self.hypothesis_bounded_increments
        )

    def __bool__(self) -> bool:
        return bool(self.any_hypothesis and self.holds)


def optional_stopping_report(
    X: AdaptedProcess,
    tau: StoppingTime,
    P: ProbabilityMeasure,
    tolerance: float = DEFAULT_TOLERANCE,
) -> OptionalStoppingReport:
    """Compute E[X_tau] exactly and test it against E[X_0].

    For a martingale the asserted conclusion is equality; for a
    supermartingale E[X_tau] <= E[X_0]; for a submartingale the reverse.
    When the rule never fires on a set of positive probability the value at
    the stop is undefined within the horizon, so no conclusion is asserted
    and the report says why.  NEVER on a zero-probability outcome is
    harmless: those outcomes carry no weight in any expectation.
    """
    if tau.filtration != X.filtration:
        raise ValueError("stopping time and process must share one filtration")
    if P.space != X.space:
        raise ValueError("process and measure live on different sample spaces")
    label = classify(X, P, tolerance).label
    weights = P.weights
    never_mass = weighted_sum([t is None for t in tau.times], weights)
    tau_bounded = tau.bounded
    tau_max = max(tau.times) if tau_bounded else None
    tau_finite = never_mass == 0

    all_values = [v for rv in X.values for v in rv.values]
    process_bound = max(abs(v) for v in all_values)
    increment_bound = 0
    for n in range(1, X.horizon + 1):
        for a, b in zip(X.values[n].values, X.values[n - 1].values):
            d = abs(a - b)
            if d > increment_bound:
                increment_bound = d

    notes = [
        "hypothesis (ii) is applied as: process uniformly bounded and the stopping rule "
        "finite almost surely (a bounded process alone, with a positive-probability NEVER "
        "event, supports no conclusion at the horizon)",
    ]

    if tau_finite:
        # NEVER falls on zero-weight outcomes only here; capping it at the
        # horizon gives those outcomes a value that the sums skip.
        caps = [X.horizon if t is None else t for t in tau.times]
        expected_tau: Number | None = as_number(weighted_sum(caps, weights))
        value_at_stop: Number | None = as_number(
            weighted_sum([X.values[t].values[i] for i, t in enumerate(caps)], weights)
        )
        if not tau_bounded:
            notes.append(
                "the rule is NEVER on zero-probability outcomes only; expectations ignore them"
            )
    else:
        expected_tau = None
        value_at_stop = None
        notes.append("tau unbounded at horizon; conclusion not asserted")

    value_at_start = expectation(X.values[0], P)

    if label == UNCLASSIFIED:
        conclusion = "not asserted"
        notes.append(
            "the process is not a martingale, supermartingale, or submartingale; optional "
            "stopping makes no claim for it"
        )
    elif value_at_stop is None:
        conclusion = "not asserted"
    elif label == MARTINGALE:
        conclusion = "E[X_tau] = E[X_0]"
    elif label in (SUPERMARTINGALE, STRICT_SUPERMARTINGALE):
        conclusion = "E[X_tau] <= E[X_0]"
    else:
        conclusion = "E[X_tau] >= E[X_0]"

    hyp_time = tau_bounded
    hyp_process = tau_finite
    hyp_increments = tau_finite
    holds: bool | None
    if value_at_stop is None or conclusion == "not asserted" or not (
        hyp_time or hyp_process or hyp_increments
    ):
        holds = None
    elif label == MARTINGALE:
        holds = numbers_equal(value_at_stop, value_at_start, tolerance)
    elif label in (SUPERMARTINGALE, STRICT_SUPERMARTINGALE):
        holds = _leq(value_at_stop, value_at_start, tolerance)
    else:
        holds = _leq(value_at_start, value_at_stop, tolerance)

    return OptionalStoppingReport(
        label=label,
        never_mass=never_mass,
        tau_bounded=tau_bounded,
        tau_max=tau_max,
        tau_finite_almost_surely=tau_finite,
        expected_tau=expected_tau,
        process_bound=process_bound,
        increment_bound=increment_bound,
        hypothesis_bounded_time=hyp_time,
        hypothesis_bounded_process=hyp_process,
        hypothesis_bounded_increments=hyp_increments,
        value_at_stop=value_at_stop,
        value_at_start=value_at_start,
        conclusion=conclusion,
        holds=holds,
        notes=tuple(notes),
    )


def _leq(a: Number, b: Number, tolerance: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a <= b + tolerance
    return a <= b


@dataclass(frozen=True)
class TailBoundReport:
    """Audit of the geometric tail bound for a stopping rule.

    The hypothesis is that from every positive-probability atom at every
    stage n (with a full window left before the horizon), the rule fires
    within the next ``window`` steps with conditional probability strictly
    above ``epsilon``.  When it holds, the report verifies the chain
    P(tau > k*window) <= (1 - epsilon)^k for every k within the horizon and
    the truncated mean bound E[min(tau, N)] <= window / epsilon.  Every
    quantity is over the finite horizon; the report's notes say so.
    """

    window: int
    epsilon: Fraction
    horizon: int
    hypothesis_by_step: tuple[bool, ...]
    hypothesis_ok: bool
    hypothesis_witness: tuple[int, EventSet] | None
    tail_chain: tuple[tuple[int, Fraction, Fraction, bool], ...]
    chain_ok: bool
    truncated_expectation: Fraction
    expectation_bound: Fraction
    expectation_ok: bool
    notes: tuple[str, ...]

    def __bool__(self) -> bool:
        return bool(self.hypothesis_ok and self.chain_ok and self.expectation_ok)


def stopping_tail_bound_check(
    tau: StoppingTime,
    F: Filtration,
    P: ProbabilityMeasure,
    N_window: int,
    epsilon,
) -> TailBoundReport:
    """Check the conditional-firing hypothesis and its geometric consequences.

    All arithmetic is exact.  The hypothesis is evaluated at each stage n
    with n + N_window <= horizon (a shorter remaining window cannot carry
    the conditional claim); the tail chain and the truncated expectation
    bound are consequences of exactly those stages, so when the hypothesis
    holds and a chain entry still failed, that would be a defect in this
    package, not a counterexample.
    """
    if tau.filtration != F:
        raise ValueError("stopping time was built on a different filtration")
    if P.space != F.space:
        raise ValueError("filtration and measure live on different sample spaces")
    if not isinstance(N_window, int) or isinstance(N_window, bool) or N_window < 1:
        raise ValueError("the window must be a positive integer")
    eps = Fraction(as_exact(epsilon))
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")

    N = F.horizon
    times = tau.times
    weights = P.weights

    # Clearing denominators turns every conditional comparison into integer
    # arithmetic: P(tau <= t | A) > eps  iff  eps.den * hit > eps.num * mass.
    denom = math.lcm(*(w.denominator for w in weights)) if weights else 1
    int_weights = [int(w * denom) for w in weights]

    hypothesis_by_step: list[bool] = []
    witness: tuple[int, EventSet] | None = None
    for n in range(0, N - N_window + 1):
        deadline = n + N_window
        stage = F.stages[n]
        fired = [t is not None and t <= deadline for t in times]
        masses, hits = atom_sums(fired, stage, int_weights)
        failed = [
            k for k, (mass, hit) in enumerate(zip(masses, hits))
            if mass and not eps.denominator * hit > eps.numerator * mass
        ]
        hypothesis_by_step.append(not failed)
        if failed and witness is None:
            witness = (n, stage.atoms[failed[0]])
    hypothesis_ok = all(hypothesis_by_step)

    # Tail masses for every threshold in one pass.
    mass_at = [Fraction(0)] * (N + 1)
    never_mass = Fraction(0)
    for i, t in enumerate(times):
        w = weights[i]
        if not w:
            continue
        if t is None:
            never_mass += w
        else:
            mass_at[t] += w
    tails = [Fraction(0)] * (N + 1)  # tails[t] = P(tau > t)
    running = never_mass
    for t in range(N, -1, -1):
        if t < N:
            running += mass_at[t + 1]
        tails[t] = running

    one_minus = 1 - eps
    tail_chain: list[tuple[int, Fraction, Fraction, bool]] = []
    chain_ok = True
    bound = Fraction(1)
    for k in range(0, N // N_window + 1):
        t = k * N_window
        ok = tails[t] <= bound
        tail_chain.append((k, tails[t], bound, ok))
        chain_ok = chain_ok and ok
        bound = bound * one_minus

    truncated_expectation = never_mass * N
    for t, m in enumerate(mass_at):
        if m:
            truncated_expectation += m * t
    expectation_bound = Fraction(N_window) / eps
    expectation_ok = truncated_expectation <= expectation_bound

    notes = [
        f"all statements are truncated at the horizon {N}: the hypothesis is evaluated "
        f"for stages n with n + {N_window} <= {N}, the tail chain for k with "
        f"k * {N_window} <= {N}, and the expectation is E[min(tau, {N})]",
    ]
    if N_window > N:
        notes.append("the window exceeds the horizon, so the hypothesis is vacuous")
    if not hypothesis_ok:
        notes.append(
            "hypothesis failed; the chain and expectation figures are reported as observed, "
            "not asserted"
        )

    return TailBoundReport(
        window=N_window,
        epsilon=eps,
        horizon=N,
        hypothesis_by_step=tuple(hypothesis_by_step),
        hypothesis_ok=hypothesis_ok,
        hypothesis_witness=witness,
        tail_chain=tuple(tail_chain),
        chain_ok=chain_ok,
        truncated_expectation=truncated_expectation,
        expectation_bound=expectation_bound,
        expectation_ok=expectation_ok,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Upcrossings


def count_upcrossings(path_values: Sequence, a, b) -> int:
    """Completed upcrossings of [a, b] along one trajectory.

    Two-state scan: wait for a visit to <= a, then a visit to >= b
    completes one upcrossing and re-arms the wait.  Starting at or above b
    counts nothing until the path has first dipped to a.
    """
    a = as_number(a)
    b = as_number(b)
    if not a < b:
        raise ValueError(f"need a < b, got a = {a}, b = {b}")
    count = 0
    below = False
    for v in path_values:
        if below:
            if v >= b:
                count += 1
                below = False
        elif v <= a:
            below = True
    return count


@dataclass(frozen=True)
class UpcrossingReport:
    """Exact check of the upcrossing inequality on one interval.

    ``scaled_upcrossings`` is (b - a) * E[U_N] and must not exceed
    ``negative_part_mean`` = E[(X_N - a)^-] for a supermartingale; the
    coarser ``corollary_bound`` |a| + sup_m E|X_m| is checked as well.  A
    process that is not a supermartingale is a hypothesis failure: the
    numbers are still reported, but nothing is asserted.
    """

    a: Number
    b: Number
    label: str
    hypothesis_ok: bool
    expected_upcrossings: Number
    scaled_upcrossings: Number
    negative_part_mean: Number
    corollary_bound: Number
    holds: bool | None
    corollary_holds: bool | None
    notes: tuple[str, ...]

    def __bool__(self) -> bool:
        return bool(self.hypothesis_ok and self.holds and self.corollary_holds)


def upcrossing_inequality_check(
    X: AdaptedProcess,
    P: ProbabilityMeasure,
    a,
    b,
    tolerance: float = DEFAULT_TOLERANCE,
) -> UpcrossingReport:
    """Verify (b - a) E[U_N] <= E[(X_N - a)^-] by full enumeration.

    E[U_N] is computed by counting upcrossings on every positive-probability
    path; martingales count as supermartingales for the hypothesis.
    """
    a = as_number(a)
    b = as_number(b)
    if not a < b:
        raise ValueError(f"need a < b, got a = {a}, b = {b}")
    if P.space != X.space:
        raise ValueError("process and measure live on different sample spaces")
    label = classify(X, P, tolerance).label
    hypothesis_ok = label in SUPERMARTINGALE_FAMILY

    weights = P.weights
    expected_up = weighted_sum(
        [count_upcrossings(X.path(i), a, b) for i in range(X.space.size)], weights
    )
    # A gap that is not positive contributes an int 0, so a float tie at a
    # does not turn an all-zero negative part into 0.0.
    gaps = [a - v for v in X.values[-1].values]
    neg_part = weighted_sum([g if g > 0 else 0 for g in gaps], weights)

    sup_abs_mean = max(
        expectation(rv.map(abs), P) for rv in X.values
    )
    scaled = as_number((b - a) * expected_up)
    corollary_bound = as_number(abs(a) + sup_abs_mean)
    if hypothesis_ok:
        holds: bool | None = _leq(scaled, neg_part, tolerance)
        corollary_holds: bool | None = _leq(scaled, corollary_bound, tolerance)
    else:
        holds = None
        corollary_holds = None

    notes = []
    if not hypothesis_ok:
        notes.append(
            f"process classifies as {label}, not a supermartingale; figures reported, "
            "nothing asserted"
        )

    return UpcrossingReport(
        a=a,
        b=b,
        label=label,
        hypothesis_ok=hypothesis_ok,
        expected_upcrossings=as_number(expected_up),
        scaled_upcrossings=scaled,
        negative_part_mean=as_number(neg_part),
        corollary_bound=corollary_bound,
        holds=holds,
        corollary_holds=corollary_holds,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# L2 structure


@dataclass(frozen=True)
class PythagorasReport:
    """Exact check of E[M_N^2] = E[M_0^2] + sum of E[(M_k - M_{k-1})^2].

    Also verifies that non-overlapping increments are orthogonal:
    E[(M_t - M_s)(M_v - M_u)] = 0 for all s < t <= u < v.  For inputs that
    are not martingales the identity generally fails; the report then
    carries the actual gap with ``holds`` unset.
    """

    label: str
    hypothesis_ok: bool
    lhs: Number
    rhs: Number
    gap: Number
    identity_holds: bool
    orthogonality_ok: bool
    orthogonality_witness: tuple[int, int, int, int] | None
    holds: bool | None
    notes: tuple[str, ...]

    def __bool__(self) -> bool:
        return bool(self.hypothesis_ok and self.holds)


def l2_pythagoras_check(
    M: AdaptedProcess, P: ProbabilityMeasure, tolerance: float = DEFAULT_TOLERANCE
) -> PythagorasReport:
    """Verify the L2 energy identity and increment orthogonality exactly.

    Both reduce to entries of the Gram matrix G[s][t] = E[M_s M_t], which is
    computed once; each orthogonality product is then four lookups:
    E[(M_t - M_s)(M_v - M_u)] = G[t][v] - G[t][u] - G[s][v] + G[s][u].
    """
    if P.space != M.space:
        raise ValueError("process and measure live on different sample spaces")
    label = classify(M, P, tolerance).label
    hypothesis_ok = label == MARTINGALE

    N = M.horizon
    gram: list[list[Number]] = [[0] * (N + 1) for _ in range(N + 1)]
    for s in range(N + 1):
        vs = M.values[s].values
        for t in range(s, N + 1):
            vt = M.values[t].values
            gram[s][t] = gram[t][s] = weighted_sum(
                [x * y for x, y in zip(vs, vt)], P.weights
            )

    lhs = gram[N][N]
    rhs = gram[0][0]
    for k in range(1, N + 1):
        rhs += gram[k][k] - 2 * gram[k - 1][k] + gram[k - 1][k - 1]
    gap = lhs - rhs
    identity_holds = numbers_equal(lhs, rhs, tolerance)

    orthogonality_ok = True
    witness: tuple[int, int, int, int] | None = None
    for s in range(N + 1):
        for t in range(s + 1, N + 1):
            for u in range(t, N + 1):
                for v in range(u + 1, N + 1):
                    prod = gram[t][v] - gram[t][u] - gram[s][v] + gram[s][u]
                    if not numbers_equal(prod, 0, tolerance):
                        orthogonality_ok = False
                        if witness is None:
                            witness = (s, t, u, v)
    holds: bool | None
    if hypothesis_ok:
        holds = identity_holds and orthogonality_ok
    else:
        holds = None

    notes = []
    if not hypothesis_ok:
        notes.append(
            f"process classifies as {label}, not a martingale; the reported gap is "
            "informational and the identity is not asserted"
        )

    return PythagorasReport(
        label=label,
        hypothesis_ok=hypothesis_ok,
        lhs=as_number(lhs),
        rhs=as_number(rhs),
        gap=as_number(gap),
        identity_holds=identity_holds,
        orthogonality_ok=orthogonality_ok,
        orthogonality_witness=witness,
        holds=holds,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Finite-horizon convergence diagnostic


@dataclass(frozen=True)
class ConvergenceEntry:
    a: Number
    b: Number
    expected_upcrossings: Number
    corollary_bound: Number
    ratio: float | None
    flagged: bool


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Upcrossing statistics over a grid of intervals, finite horizon only.

    For a supermartingale, E[U_N[a, b]] <= (|a| + sup_m E|X_m|) / (b - a)
    on every interval; entries where the observed count uses up most of
    that budget are flagged.  This is a diagnostic for how much oscillation
    the horizon exhibits.  It asserts nothing about limits: no convergence
    statement can be checked by finite enumeration, and the report's notes
    repeat that.
    """

    label: str
    hypothesis_ok: bool
    horizon: int
    sup_abs_mean: Number
    mean_abs_by_stage: tuple[Number, ...]
    entries: tuple[ConvergenceEntry, ...]
    notes: tuple[str, ...]


def truncated_convergence_diagnostic(
    X: AdaptedProcess,
    P: ProbabilityMeasure,
    grid: Sequence[tuple],
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConvergenceDiagnostic:
    """Tabulate exact upcrossing counts against the corollary budget.

    ``grid`` is a sequence of (a, b) pairs with a < b.  An entry is flagged
    when its observed E[U_N] exceeds nine tenths of the corollary bound,
    meaning the horizon shows nearly as much oscillation as the bound
    permits.
    """
    if P.space != X.space:
        raise ValueError("process and measure live on different sample spaces")
    label = classify(X, P, tolerance).label
    hypothesis_ok = label in SUPERMARTINGALE_FAMILY

    mean_abs = tuple(expectation(rv.map(abs), P) for rv in X.values)
    sup_abs = max(mean_abs)

    paths = [X.path(i) for i in range(X.space.size)]
    entries: list[ConvergenceEntry] = []
    for pair in grid:
        a, b = pair
        a = as_number(a)
        b = as_number(b)
        if not a < b:
            raise ValueError(f"grid interval needs a < b, got a = {a}, b = {b}")
        eu = weighted_sum([count_upcrossings(path, a, b) for path in paths], P.weights)
        bound = as_number((abs(a) + sup_abs) / (b - a))
        if bound > 0:
            ratio = float(eu) / float(bound)
            flagged = ratio >= 0.9
        else:
            ratio = None
            flagged = eu > 0
        entries.append(
            ConvergenceEntry(
                a=a,
                b=b,
                expected_upcrossings=as_number(eu),
                corollary_bound=bound,
                ratio=ratio,
                flagged=flagged,
            )
        )

    notes = [
        f"finite-horizon diagnostic over stages 0..{X.horizon}; upcrossing counts are "
        "truncated at the horizon and no convergence statement is asserted",
        "sup_m E|X_m| is taken over this horizon only; it is not a uniform-in-time bound",
    ]
    if not hypothesis_ok:
        notes.append(
            f"process classifies as {label}, not a supermartingale; the corollary budget "
            "does not apply and entries are informational"
        )

    return ConvergenceDiagnostic(
        label=label,
        hypothesis_ok=hypothesis_ok,
        horizon=X.horizon,
        sup_abs_mean=as_number(sup_abs),
        mean_abs_by_stage=tuple(as_number(v) for v in mean_abs),
        entries=tuple(entries),
        notes=tuple(notes),
    )
