"""Filtrations, adapted processes, and the discrete-time martingale toolkit.

Everything here runs on a finite horizon over a finite space, so every
theorem in scope reduces to finitely many exact comparisons: classification
inspects one-step conditional means atom by atom, every derived object (the
coin walk, transforms, stopped processes, the doubling stakes) is built once per
atom and expanded to the outcomes by ``Filtration._expand``, and the
optional-stopping, upcrossing, and L2 statements are verified exactly.
Stage-measurable values are held once per atom (``nodes``), read at the atom's least member:
where equal values of mixed types share an atom (1 and 1.0), every outcome gets the least member's.

Zero-probability atoms never take part in a classification or verdict;
where a convention value shows up (conditioning on a null atom) the
underlying conditioning module reports it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import add, attrgetter, eq, mul, sub
from typing import Iterable, Sequence

from .integration import (
    RandomVariable,
    atom_sums,
    clear_denominators,
    expectation,
    weighted_sum,
)
from .measure import (
    EventSet,
    ProbabilityMeasure,
    SampleSpace,
    SigmaAlgebra,
    SizeLimitError,
    _agree,
    _atom_masses,
    _take,
    _trusted,
    _up,
    _value_split,
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

# What each label lets the preservation theorems claim: the family a transformed or
# stopped process stays in, and the sign of E[X_tau] - E[X_0] (0 for =, -1 for <=,
# +1 for >=).  An unclassified process has no entry: nothing is claimed for it.
_CLAIMS = {
    MARTINGALE: (frozenset({MARTINGALE}), 0),
    SUPERMARTINGALE: (SUPERMARTINGALE_FAMILY, -1),
    STRICT_SUPERMARTINGALE: (SUPERMARTINGALE_FAMILY, -1),
    SUBMARTINGALE: (SUBMARTINGALE_FAMILY, 1),
    STRICT_SUBMARTINGALE: (SUBMARTINGALE_FAMILY, 1),
}

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

    @cached_property
    def parents(self) -> tuple[tuple[int, ...], ...]:
        """``parents[n - 1][k]``: the stage-(n-1) label of stage n's atom ``k``, for
        n >= 1, read at its least member; the index array of the *up* move."""
        return tuple(_take(coarse.labels, fine.least_members)
                     for coarse, fine in zip(self.stages, self.stages[1:]))

    def nodes(self, rows: Iterable[Sequence]) -> tuple[tuple, ...]:
        """``nodes[n][k]``: row n of ``rows`` at the least member of stage n's atom ``k``."""
        return tuple(_take(row, stage.least_members) for row, stage in zip(rows, self.stages))

    def _expand(self, cls, nodes: Sequence[Sequence], **cached):
        """The inverse of :meth:`nodes`: the ``cls`` (AdaptedProcess or PredictableSequence)
        whose row n on stage n is ``nodes[n]`` at every outcome, ``cached`` fields passed
        through.  Nothing is checked: the caller's construction makes row n stage-n measurable."""
        return _trusted(cls, filtration=self, nodes=tuple(nodes), **cached, values=tuple(
            _trusted(RandomVariable, space=self.space, values=_take(row, stage.labels))
            for row, stage in zip(nodes, self.stages)))


@dataclass(frozen=True)
class AdaptedProcess:
    """A process X_0..X_N adapted to a filtration.

    Adaptation (X_n measurable with respect to stage n) is enforced on
    construction, so any AdaptedProcess in hand is genuinely adapted; the
    error message names the first stage and atom that a non-adapted value
    splits.

    Exact readers read :attr:`nodes`, X_n once per stage-n atom, and their
    scaled form :attr:`scaled`, ints over one common denominator, which the
    drift table and the L2 Gram matrix sum in integers.
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
            atom = _value_split(stage, rv.values)
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

    @cached_property
    def nodes(self) -> tuple[tuple[Number, ...], ...]:
        """``nodes[n][k]``: X_n on stage n's atom ``k``, read at its least member."""
        return self.filtration.nodes(rv.values for rv in self.values)

    @cached_property
    def scaled(self) -> tuple[tuple[Sequence[int], ...], int] | None:
        """``(nums, L)`` with ``nodes[n][k] == nums[n][k] / L``, L the lcm of their
        denominators, or None when a node is a float: ``clear_denominators(*nodes)``,
        so all-int nodes are kept as they are.  Filled on first use and kept."""
        return clear_denominators(*self.nodes)


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
            atom = _value_split(self.filtration.stages[k], rv.values)
            if atom is not None:
                raise ValueError(
                    f"not predictable: C_{k + 1} must be measurable at stage {k}; it "
                    f"splits atom {list(atom.members)}"
                )

    @cached_property
    def nodes(self) -> tuple[tuple[Number, ...], ...]:
        """``nodes[k][j]``: C_{k+1} on stage k's atom ``j``, read at its least member."""
        return self.filtration.nodes(rv.values for rv in self.values)


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
        return None not in self.times

    @cached_property
    def nodes(self) -> tuple[tuple[int | None, ...], ...]:
        """``nodes[n][k]``: tau on stage n's atom ``k``, where it decides {tau <= n}."""
        return self.filtration.nodes(repeat(self.times))


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


def _walk_probability(horizon, p_heads, capped: bool = False) -> Fraction:
    """Check a walk's horizon, and with ``capped`` the exact engine's cap on it;
    return its heads probability, exact, in [0, 1]."""
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError("the horizon must be a positive integer")
    if capped and horizon > MAX_COIN_WALK_HORIZON:
        raise SizeLimitError(
            f"a horizon of {horizon} means 2**{horizon} = {2 ** horizon} outcomes, over the "
            f"exact-enumeration cap of {MAX_COIN_WALK_HORIZON}; use the Monte Carlo engine "
            "instead: mglab.montecarlo.simulate_walk for long walks, "
            "mglab.montecarlo.simulate_doubling_strategy for doubling episodes"
        )
    p = Fraction(as_exact(p_heads))
    if not 0 <= p <= 1:
        raise ValueError(f"heads probability must lie in [0, 1], got {p}")
    return p


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
    p = _walk_probability(N, p_heads, capped=True)
    q = 1 - p
    size = 1 << N

    labels = tuple("".join(seq) for seq in product("HT", repeat=N))
    space = SampleSpace(labels)

    # Outcome index i encodes the flips in binary, most significant bit
    # first, with 0 = heads; its weight is p^heads * q^tails.  For p = a/b
    # in lowest terms that is a^heads (b-a)^tails / b^N, whose lowest-terms
    # denominator is b^N (or 1 when b = 1), and those integers sum to b^N by
    # the binomial theorem: the measure's checks hold and its D is b^N.
    a, b = p.numerator, p.denominator
    tails = [i.bit_count() for i in range(size)]
    weight_by_tails = [p ** (N - t) * q ** t for t in range(N + 1)]
    int_by_tails = [a ** (N - t) * (b - a) ** t for t in range(N + 1)]
    measure = _trusted(
        ProbabilityMeasure,
        space=space,
        weights=tuple(map(weight_by_tails.__getitem__, tails)),
        denominator=b ** N,
        int_weights=tuple(map(int_by_tails.__getitem__, tails)),
    )

    # Stage n's atoms are the prefix classes: outcomes agreeing on their
    # first n flips, i.e. on the top n bits of the index.  Atom k is the
    # block of 2^(N-n) outcomes from k * 2^(N-n), so the labels are already
    # numbered by least member (one int object per block), each stage
    # refines the one before, and X_n is an int function of the first n
    # flips, heads minus tails, n - 2 * popcount(k) on atom k: the stages,
    # the filtration and the process skip the checks.
    stages = tuple(
        _trusted(
            SigmaAlgebra,
            space=space,
            labels=tuple(chain.from_iterable(repeat(k, 1 << (N - n)) for k in range(1 << n))),
            atom_count=1 << n,
            least_members=tuple(range(0, size, 1 << (N - n))),
        )
        for n in range(N + 1)
    )
    filtration = _trusted(Filtration, space=space, stages=stages)
    nodes = tuple(tuple(n - 2 * k.bit_count() for k in range(1 << n)) for n in range(N + 1))
    return space, measure, filtration, filtration._expand(AdaptedProcess, nodes, scaled=(nodes, 1))


# ---------------------------------------------------------------------------
# Classification


def classify(
    X: AdaptedProcess, P: ProbabilityMeasure, tolerance: float = DEFAULT_TOLERANCE
) -> MartingaleClassification:
    """Label X by its one-step conditional means.

    For each step n the drift on every positive-probability atom of stage n
    is the conditional mean of X_{n+1} - X_n there: its weighted sum over the
    atom's mass.  On an exact process the increments are summed as integers
    over :attr:`AdaptedProcess.scaled`, atom by atom up the filtration (see
    :func:`_drift_table`), and a drift sign is the sign of that integer sum;
    no Fraction is built.  A float process is summed over the Fraction
    weights in outcome order and its mean compared with ``tolerance``,
    which applies only once floats are involved.  The strongest accurate
    label wins: all drifts zero gives ``martingale``, one-sided drifts give
    the super/sub labels (``strict-`` when every single step on every atom
    is strict), and genuinely mixed drift signs give ``none``.
    """
    return _reading(X, P, tolerance)[2]


def _reading(
    X: AdaptedProcess, P: ProbabilityMeasure, tolerance: float
) -> tuple[list[tuple], list[tuple[SigmaAlgebra, Sequence, list]], MartingaleClassification]:
    """What every exact report reads first, after refusing a measure on another space:
    X's :func:`_stage_masses`, its :func:`_drift_table` on them and the verdict read off it."""
    _agree("process and measure live on different sample spaces", X.space, P.space)
    masses = _stage_masses(X.filtration, P)
    table = _drift_table(X, P, masses)
    return masses, table, _label(X, table, tolerance)


def _stage_masses(F: Filtration, P: ProbabilityMeasure) -> list[tuple[int, ...]]:
    """The int atom masses over ``D`` of every stage, by stage and label, as held
    per (stage, measure) by ``_atom_masses``: a stage not yet read under ``P`` adds
    up its children's masses, and only the last stage reads the outcome weights."""
    table = [_atom_masses(F.stages[-1], P)]
    for stage, parents in zip(F.stages[-2::-1], F.parents[::-1]):
        table.append(_atom_masses(stage, P, (table[-1], parents)))
    return table[::-1]


def _drift_table(
    X: AdaptedProcess, P: ProbabilityMeasure, masses: list[tuple[int, ...]]
) -> list[tuple[SigmaAlgebra, Sequence, list]]:
    """Per step n: stage n, its atom masses, and the atom totals of X_{n+1} - X_n.

    On an exact process the masses are ``masses`` (:func:`_stage_masses`) and
    the totals are ints over ``D * L`` for ``(_, L) = X.scaled``, summed over
    atoms: the total on a stage-n atom A is the sum of x_{n+1}(B) m(B) over
    the stage-(n+1) atoms B inside A (moved up over ``Filtration.parents``),
    minus x_n(A) m(A), x the nodes of ``X.scaled``: the per-atom int sums,
    exact in any order, of the scaled increments over ``P.int_weights``,
    undivided (a null atom's total is 0).  A float
    process's masses and totals are :func:`~mglab.integration.atom_sums` of
    each step's increments, so a float total keeps its outcome-order bits.
    """
    stages = X.filtration.stages
    scaled = X.scaled
    if scaled is None:
        return [
            (stage, *atom_sums(list(map(sub, after.values, before.values)), stage, P))
            for stage, before, after in zip(stages, X.values, X.values[1:])
        ]
    table = []
    for stage, parents, before, after, m, fine_m in zip(
            stages, X.filtration.parents, scaled[0], scaled[0][1:], masses, masses[1:]):
        inflow = _up(map(mul, after, fine_m), parents, len(m))
        outflow = map(mul, before, m)
        table.append((stage, m, list(map(sub, inflow, outflow))))
    return table


def _label(
    X: AdaptedProcess, table: list[tuple[SigmaAlgebra, list, list]], tolerance: float
) -> MartingaleClassification:
    """The classification and first witness read off X's :func:`_drift_table`."""
    signs_seen: set[int] = set()
    witness: tuple[int, EventSet] | None = None
    exact = X.scaled is not None
    for n, (stage, masses, totals) in enumerate(table):
        if exact:
            # An int total has the sign of the drift and a null atom's is 0:
            # the min and max positive-mass totals give every sign the label
            # reads, and the first nonzero total is the witness.
            live = list(compress(totals, masses))
            lo, hi = min(live), max(live)
            signs_seen.update(((lo > 0) - (lo < 0), (hi > 0) - (hi < 0)))
            if witness is None and (lo or hi):
                witness = (n, stage.atoms[next(k for k, t in enumerate(totals) if t)])
            continue
        for k, (mass, total) in enumerate(zip(masses, totals)):
            if mass == 0:
                continue
            # The mean is taken so the tolerance applies to it.
            sign = sign_with_tolerance(as_number(total / mass), tolerance)
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

    Y_0 = 0, and y_n(B) = y_{n-1}(A) + c_n(A) (x_n(B) - x_{n-1}(A)) once per stage-n atom
    B in the stage-(n-1) atom A, over the nodes; exact inputs recur in ints over
    L_C * L_X, handed to C·X as its per-atom ``scaled``.
    """
    _agree("stakes and process must share one filtration", X.filtration, C.filtration)
    cleared = X.scaled and clear_denominators(*C.nodes)
    cs, xs, L = (cleared[0], X.scaled[0], cleared[1] * X.scaled[1]) if cleared else (
        C.nodes, X.nodes, None)
    ys = [(0,) * len(xs[0])]
    for up, c, before, now in zip(X.filtration.parents, cs, xs, xs[1:]):
        steps = map(mul, _take(c, up), map(sub, now, _take(before, up)))
        y = tuple(map(add, _take(ys[-1], up), steps))
        ys.append(y if L else tuple(map(as_number, y)))  # whole stage, as the constructor
    if L is not None and L > 1:  # reduce to Y.scaled's L; one Fraction per distinct value
        g = math.gcd(L, *chain.from_iterable(ys))
        nums, L = tuple([y // g for y in row] for row in ys), L // g
        ys = [_take({y: as_number(Fraction(y, L)) for y in set(row)}, row) for row in nums]
    scaled = {} if L is None else {"scaled": (tuple(ys), 1) if L == 1 else (nums, L)}
    # Adapted by construction: C_k is stage k-1 and X_k stage k measurable.
    return X.filtration._expand(AdaptedProcess, ys, **scaled)


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


def _first_stake_outside(C: PredictableSequence, lo, hi) -> tuple[int, int, Number] | None:
    """(k, i, v) for the first stake C_{k+1}(i) = v outside [lo, hi], in stage and then
    outcome order, or None; read on the nodes, each distinct object ranged once."""
    for k, (values, stage) in enumerate(zip(C.nodes, C.filtration.stages)):
        distinct = dict(zip(map(id, values), values)).values()
        if not (lo <= min(distinct) and max(distinct) <= hi):
            return next((k, i, v) for i, v in zip(stage.least_members, values) if v < lo or v > hi)
    return None


def verify_transform_preservation(
    C: PredictableSequence,
    X: AdaptedProcess,
    P: ProbabilityMeasure,
    bound,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TransformPreservationReport:
    """Check that transforming X by C keeps its martingale structure.

    A martingale stays a martingale under any C with |C_n| <= bound; a
    supermartingale or a submartingale stays one when 0 <= C_n <= bound.
    Stakes outside the allowed range, or an unclassified input, are
    reported as hypothesis failures rather than theorem failures.  The
    per-step conditional identity from the proof is verified on every
    positive-probability atom alongside the final classification; both
    labels and the identity read one drift table per process, so each
    increment is summed once.
    """
    bound = as_number(bound)
    masses, x_table, x_verdict = _reading(X, P, tolerance)
    input_label = x_verdict.label
    family, sign = _CLAIMS.get(input_label, (None, None))
    claimed = {0: MARTINGALE, -1: SUPERMARTINGALE, 1: SUBMARTINGALE}.get(sign)
    hypothesis_failure: str | None = None
    if claimed is None:
        hypothesis_failure = (
            f"input classifies as {input_label}; preservation is only claimed for "
            "martingales, supermartingales, and submartingales"
        )
    elif offender := _first_stake_outside(C, 0 if sign else -bound, bound):
        k, i, v = offender
        hypothesis_failure = (
            f"C_{k + 1} = {v} at outcome {i} is outside [0, {bound}], which the "
            f"{claimed} case requires"
            if sign else f"|C_{k + 1}| = {abs(v)} exceeds the bound {bound} at outcome {i}"
        )

    Y = transform(C, X)
    y_table = _drift_table(Y, P, masses)
    output_label = _label(Y, y_table, tolerance).label
    # The stake is constant on each atom, so the conditional identity reduces to
    # sum dY w = C_n * sum dX w before dividing by the mass.  Integer tables hold
    # those sums over D * L_X and D * L_Y, so it is compared as y * L_X * den(c) ==
    # num(c) * x * L_Y, one int pass per stage.  An exact X under float stakes gives
    # a float Y, and the int X totals are put back over D * L_X.
    xs, ys = X.scaled, Y.scaled

    def stage_holds(masses, dx, dy, cs):
        if ys is not None:
            lhs = map(mul, dy, map(mul, map(attrgetter("denominator"), cs), repeat(xs[1])))
            rhs = map(mul, dx, map(mul, map(attrgetter("numerator"), cs), repeat(ys[1])))
            return all(map(eq, lhs, rhs))
        if xs is not None:
            dx = [Fraction(x, P.denominator * xs[1]) for x in dx]
        return all(not m or numbers_equal(y, c * x, tolerance)
                   for m, x, y, c in zip(masses, dx, dy, cs))

    identity_ok = all(stage_holds(masses, dx, dy, cs) for (_, masses, dx), (_, _, dy), cs
                      in zip(x_table, y_table, C.nodes))

    return TransformPreservationReport(
        input_label=input_label,
        claimed_label=claimed,
        hypothesis_ok=hypothesis_failure is None,
        hypothesis_failure=hypothesis_failure,
        bound=bound,
        output_label=output_label,
        step_identity_ok=identity_ok,
        holds=None if hypothesis_failure else output_label in family,
    )


# ---------------------------------------------------------------------------
# Stopping


def stopped_process(X: AdaptedProcess, tau: StoppingTime) -> AdaptedProcess:
    """Freeze X at the stopping time: (X^tau)_n(w) = X_{min(tau(w), n)}(w).

    NEVER counts as later than the horizon, so those paths are never
    frozen.  The result is adapted to the same filtration and coincides
    with X_0 plus the transform of X by the predictable stakes 1{n <= tau}.
    """
    _agree("stopping time and process must share one filtration", X.filtration, tau.filtration)
    # Stage n takes X_n on the atoms in {tau >= n}, a stage-(n-1) event, and keeps the
    # parent node elsewhere: values of X's own, adapted since {tau = k} is a stage-k event.
    F = X.filtration
    nodes = [X.nodes[0]]
    for n, (x, t, up) in enumerate(zip(X.nodes[1:], tau.nodes[1:], F.parents), 1):
        nodes.append(tuple(v if s is None or s >= n else p
                           for v, p, s in zip(x, _take(nodes[-1], up), t)))
    return F._expand(AdaptedProcess, nodes)


def _fired(tau: StoppingTime, masses: list[tuple[int, ...]]) -> list[int]:
    """``fired[k]``: the int mass over ``D`` of {tau = k}, a stage-k event, summed on its
    stage-k atoms with ``masses`` from :func:`_stage_masses`; NEVER has the rest of ``D``."""
    return [sum(compress(ms, map(eq, t, repeat(k))))
            for k, (t, ms) in enumerate(zip(tau.nodes, masses))]


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

    def __bool__(self) -> bool:
        return bool(self.holds)


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
    _agree("stopping time and process must share one filtration", X.filtration, tau.filtration)
    masses, _, verdict = _reading(X, P, tolerance)
    label, D = verdict.label, P.denominator
    fired = _fired(tau, masses)
    never_mass = Fraction(D - sum(fired), D)
    tau_bounded = tau.bounded
    tau_max = max(tau.nodes[-1]) if tau_bounded else None
    tau_finite = never_mass == 0

    # max keeps the first of equal maxima, type included, on the nodes (X_{n-1} at the
    # parent node); the leading int 0 stands for all-zero increments, float zeros included.
    process_bound = max(chain.from_iterable(map(abs, x) for x in X.nodes))
    increment_bound = max(chain((0,), chain.from_iterable(
        map(abs, map(sub, x, _take(y, up)))
        for y, x, up in zip(X.nodes, X.nodes[1:], X.filtration.parents))))

    notes = [
        "hypothesis (ii) is applied as: process uniformly bounded and the stopping rule "
        "finite almost surely (a bounded process alone, with a positive-probability NEVER "
        "event, supports no conclusion at the horizon)",
    ]

    if tau_finite:
        expected_tau: Number | None = as_number(Fraction(sum(k * f for k, f in enumerate(fired)), D))
        # NEVER falls on zero-weight outcomes only here; capping it at the
        # horizon gives those outcomes a value that the sum skips.
        caps = [X.horizon if t is None else t for t in tau.times]
        value_at_stop: Number | None = as_number(
            weighted_sum([X.values[t].values[i] for i, t in enumerate(caps)], P))
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
        notes.append(
            "the process is not a martingale, supermartingale, or submartingale; optional "
            "stopping makes no claim for it"
        )
    holds: bool | None = None
    if label == UNCLASSIFIED or value_at_stop is None:
        conclusion = "not asserted"
    else:
        sign = _CLAIMS[label][1]
        conclusion = "E[X_tau] " + {0: "=", -1: "<=", 1: ">="}[sign] + " E[X_0]"
        lo, hi = (value_at_start, value_at_stop) if sign > 0 else (value_at_stop, value_at_start)
        holds = _leq(lo, hi, tolerance) if sign else numbers_equal(lo, hi, tolerance)

    return OptionalStoppingReport(
        label=label,
        never_mass=never_mass,
        tau_bounded=tau_bounded,
        tau_max=tau_max,
        tau_finite_almost_surely=tau_finite,
        expected_tau=expected_tau,
        process_bound=process_bound,
        increment_bound=increment_bound,
        hypothesis_bounded_time=tau_bounded,
        hypothesis_bounded_process=tau_finite,
        hypothesis_bounded_increments=tau_finite,
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


def _window(window) -> int:
    """A tail-bound window, refusing anything but a positive int."""
    if not isinstance(window, int) or isinstance(window, bool) or window < 1:
        raise ValueError("expected a positive integer")
    return window


def _epsilon(epsilon) -> Fraction:
    """A tail-bound epsilon, exact, refusing one outside (0, 1)."""
    eps = Fraction(as_exact(epsilon))
    if not 0 < eps < 1:
        raise ValueError(f"must lie strictly between 0 and 1, got {eps}")
    return eps


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
    _agree("stopping time was built on a different filtration", F, tau.filtration)
    _agree("filtration and measure live on different sample spaces", F.space, P.space)
    _window(N_window)
    eps = _epsilon(epsilon)

    N, D = F.horizon, P.denominator
    masses = _stage_masses(F, P)
    fired = _fired(tau, masses)

    hypothesis_by_step: list[bool] = []
    witness: tuple[int, EventSet] | None = None
    for n in range(0, N - N_window + 1):
        deadline = n + N_window
        # {tau <= deadline} is a union of stage-deadline atoms: their masses
        # add up to hit in each stage-n atom A, and P(tau <= deadline | A) >
        # eps iff hit > eps * mass, a test in ints over D on positive masses.
        hits = [m if t is not None and t <= deadline else 0
                for t, m in zip(tau.nodes[deadline], masses[deadline])]
        for j in range(deadline - 1, n - 1, -1):
            hits = _up(hits, F.parents[j], len(masses[j]))
        failed = [
            k for k, (mass, hit) in enumerate(zip(masses[n], hits))
            if mass and not hit * eps.denominator > eps.numerator * mass
        ]
        hypothesis_by_step.append(not failed)
        if failed and witness is None:
            witness = (n, F.stages[n].atoms[failed[0]])
    hypothesis_ok = all(hypothesis_by_step)

    one_minus = 1 - eps
    tail_chain: list[tuple[int, Fraction, Fraction, bool]] = []
    chain_ok = True
    bound = Fraction(1)
    for k in range(0, N // N_window + 1):
        t = k * N_window
        tail = Fraction(D - sum(fired[:t + 1]), D)  # P(tau > t); NEVER is later
        ok = tail <= bound
        tail_chain.append((k, tail, bound, ok))
        chain_ok = chain_ok and ok
        bound = bound * one_minus

    truncated_expectation = Fraction(sum(map(mul, range(N + 1), fired)) + N * (D - sum(fired)), D)
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


def _interval(a, b) -> tuple[Number, Number]:
    """The ends of an upcrossing interval as numbers, refusing a >= b."""
    a, b = as_number(a), as_number(b)
    if not a < b:
        raise ValueError(f"need a < b, got a = {a}, b = {b}")
    return a, b


def count_upcrossings(path_values: Sequence, a, b) -> int:
    """Completed upcrossings of [a, b] along one trajectory.

    Two-state scan: wait for a visit to <= a, then a visit to >= b
    completes one upcrossing and re-arms the wait.  Starting at or above b
    counts nothing until the path has first dipped to a.
    """
    a, b = _interval(a, b)
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


def _expected_upcrossings(X: AdaptedProcess, P: ProbabilityMeasure, masses, a, b) -> Fraction:
    """E[U_N[a, b]] over the atoms, with ``masses`` from :func:`_stage_masses`.  The
    paths through a stage-n atom agree on X_0..X_n, so the atom holds their (count,
    armed) state of :func:`count_upcrossings`: its parent's stepped on its node."""
    states = [(0, v <= a) for v in X.nodes[0]]
    for parents, values in zip(X.filtration.parents, X.nodes[1:]):
        stepped = []
        for (count, armed), v in zip(_take(states, parents), values):
            if armed and v >= b:
                count, armed = count + 1, False
            elif not armed and v <= a:
                armed = True
            stepped.append((count, armed))
        states = stepped
    return Fraction(sum(c * m for (c, _), m in zip(states, masses[-1])), P.denominator)


def _mean_abs_by_stage(X: AdaptedProcess, P: ProbabilityMeasure, masses) -> tuple:
    """E|X_m| per stage m: over the atoms of stage m in ints over ``D * L`` on an
    exact process, over the outcomes in order (:func:`weighted_sum`) on a float one."""
    if X.scaled is None:
        return tuple(as_number(weighted_sum([abs(v) for v in rv.values], P)) for rv in X.values)
    nums, DL = X.scaled[0], P.denominator * X.scaled[1]
    return tuple(as_number(Fraction(sum(map(mul, map(abs, x), ms)), DL))
                 for x, ms in zip(nums, masses))


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
    """Verify (b - a) E[U_N] <= E[(X_N - a)^-] exactly.

    E[U_N] counts upcrossings atom by atom down the filtration, once for all
    the paths through an atom; martingales count as supermartingales for
    the hypothesis.
    """
    a, b = _interval(a, b)
    masses, _, verdict = _reading(X, P, tolerance)
    label = verdict.label
    hypothesis_ok = label in SUPERMARTINGALE_FAMILY

    expected_up = _expected_upcrossings(X, P, masses, a, b)
    # A gap that is not positive contributes an int 0, so a float tie at a
    # does not turn an all-zero negative part into 0.0.
    gaps = [a - v for v in X.values[-1].values]
    neg_part = weighted_sum([g if g > 0 else 0 for g in gaps], P)

    sup_abs_mean = max(_mean_abs_by_stage(X, P, masses))
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
    On an exact process the matrix holds Python ints, ``D * L**2`` times
    the moments, summed over atoms: for s <= t, G[s][t] is the sum of
    x_s(A) W(A) over the stage-s atoms A, W(A) the sum of x_t m_t over the
    stage-t atoms inside A, added up the filtration one level at a time.
    Orthogonality is ``int == 0``, and only ``lhs``, ``rhs`` and ``gap``
    are divided.  A float process sums each entry over the outcomes with
    :func:`~mglab.integration.weighted_sum`.
    """
    masses, _, verdict = _reading(M, P, tolerance)
    label = verdict.label
    hypothesis_ok = label == MARTINGALE

    N = M.horizon
    nums, L = M.scaled or (None, None)
    gram: list[list[Number]] = [[0] * (N + 1) for _ in range(N + 1)]
    if nums is None:
        for s in range(N + 1):
            vs = M.values[s].values
            for t in range(s, N + 1):
                vt = M.values[t].values
                gram[s][t] = gram[t][s] = weighted_sum([x * y for x, y in zip(vs, vt)], P)
    else:
        for t in range(N + 1):
            w = list(map(mul, nums[t], masses[t]))
            for s in range(t, -1, -1):
                if s < t:
                    w = _up(w, M.filtration.parents[s], len(nums[s]))
                gram[s][t] = gram[t][s] = sum(map(mul, nums[s], w))

    lhs = gram[N][N]
    rhs = gram[0][0]
    for k in range(1, N + 1):
        rhs += gram[k][k] - 2 * gram[k - 1][k] + gram[k - 1][k - 1]
    gap = lhs - rhs
    identity_holds = numbers_equal(lhs, rhs, tolerance)

    witness = next(
        (
            (s, t, u, v)
            for s in range(N + 1)
            for t in range(s + 1, N + 1)
            for u in range(t, N + 1)
            for v in range(u + 1, N + 1)
            if not numbers_equal(
                gram[t][v] - gram[t][u] - gram[s][v] + gram[s][u], 0, tolerance
            )
        ),
        None,
    )
    orthogonality_ok = witness is None
    holds = identity_holds and orthogonality_ok if hypothesis_ok else None

    notes = []
    if not hypothesis_ok:
        notes.append(
            f"process classifies as {label}, not a martingale; the reported gap is "
            "informational and the identity is not asserted"
        )

    if L is not None:
        scale = P.denominator * L ** 2
        lhs, rhs, gap = Fraction(lhs, scale), Fraction(rhs, scale), Fraction(gap, scale)
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

