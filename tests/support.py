"""Shared fixtures: an independent closure oracle and seeded random builders.

The oracle computes generated sigma-algebras by brute-force closure under
complement and pairwise union, deliberately ignoring the package's
signature-partition algorithm so the two can disagree.  The random builders
construct measures, filtrations, martingales, predictable sequences, and
stopping times forward from their definitions, which makes every generated
instance satisfy its defining property by construction rather than by
filtering.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from mglab import (
    DEFAULT_TOLERANCE,
    MARTINGALE,
    STRICT_SUBMARTINGALE,
    STRICT_SUPERMARTINGALE,
    SUBMARTINGALE,
    SUPERMARTINGALE,
    UNCLASSIFIED,
    AdaptedProcess,
    Filtration,
    MartingaleClassification,
    PredictableSequence,
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    StoppingTime,
    as_number,
    conditional_expectation,
    count_upcrossings,
    is_measurable,
    numbers_equal,
)
from mglab.integration import atom_sums, clear_denominators
from mglab.numeric import sign_with_tolerance


def closure_oracle(n_outcomes: int, generators) -> frozenset[frozenset[int]]:
    """All sets of the sigma-algebra generated by `generators`, by fixpoint.

    Runs in time exponential in the result size, which is fine for the
    test sizes (n_outcomes <= 8).
    """
    universe = frozenset(range(n_outcomes))
    sets = {frozenset(), universe}
    sets.update(frozenset(g) for g in generators)
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for s in current:
            comp = universe - s
            if comp not in sets:
                sets.add(comp)
                changed = True
        current = list(sets)
        for i, s in enumerate(current):
            for t in current[i + 1:]:
                u = s | t
                if u not in sets:
                    sets.add(u)
                    changed = True
    return frozenset(sets)


def atoms_from_sets(n_outcomes: int, sets) -> frozenset[frozenset[int]]:
    """Minimal nonempty sets of a finite sigma-algebra, via membership signatures."""
    atoms: dict[tuple[bool, ...], set[int]] = {}
    ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
    for i in range(n_outcomes):
        sig = tuple(i in s for s in ordered)
        atoms.setdefault(sig, set()).add(i)
    return frozenset(frozenset(a) for a in atoms.values())


def rand_space(rng: random.Random, max_size: int = 8) -> SampleSpace:
    n = rng.randint(1, max_size)
    return SampleSpace([f"w{i}" for i in range(n)])


def rand_measure(
    rng: random.Random, space: SampleSpace, allow_zero: bool = True
) -> ProbabilityMeasure:
    n = space.size
    weights = [rng.randint(1, 9) for _ in range(n)]
    if allow_zero and n > 1 and rng.random() < 0.4:
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            weights[i] = 0
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
    total = sum(weights)
    return ProbabilityMeasure(space, [Fraction(w, total) for w in weights])


def rand_partition(rng: random.Random, space: SampleSpace) -> SigmaAlgebra:
    n = space.size
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for i in range(n)]
    for j, i in enumerate(rng.sample(range(n), k)):
        assignment[i] = j
    return SigmaAlgebra(space, assignment)


def refine_partition(rng: random.Random, sigma: SigmaAlgebra) -> SigmaAlgebra:
    """Split a random selection of atoms, leaving the rest intact."""
    labels = list(sigma.labels)
    fresh = sigma.atom_count
    for atom in sigma.atoms:
        members = atom.members
        if len(members) > 1 and rng.random() < 0.6:
            cut = rng.randint(1, len(members) - 1)
            for i in rng.sample(members, cut):
                labels[i] = fresh
            fresh += 1
    return SigmaAlgebra(sigma.space, labels)


def rand_filtration(
    rng: random.Random, space: SampleSpace, horizon: int
) -> Filtration:
    stages = [SigmaAlgebra(space, [0] * space.size)]
    for _ in range(horizon):
        stages.append(refine_partition(rng, stages[-1]))
    return Filtration(space, stages)


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 4]))


def rand_sigma_variable(
    rng: random.Random, sigma: SigmaAlgebra
) -> RandomVariable:
    """A variable measurable for `sigma`: constant on each atom."""
    values: list[Fraction | int] = [0] * sigma.space.size
    for atom in sigma.atoms:
        v = rand_fraction(rng)
        for i in atom.members:
            values[i] = v
    return RandomVariable(sigma.space, values)


def rand_variable(rng: random.Random, space: SampleSpace) -> RandomVariable:
    return RandomVariable(space, [rand_fraction(rng) for _ in range(space.size)])


def _balanced_stage(
    rng: random.Random,
    prev: RandomVariable,
    coarse: SigmaAlgebra,
    fine: SigmaAlgebra,
    P: ProbabilityMeasure,
    drift_sign: int,
) -> tuple[RandomVariable, Fraction]:
    """Next stage values with E[next | coarse atom] = prev + drift on that atom.

    drift_sign 0 builds a martingale step, -1 a supermartingale step, +1 a
    submartingale step.  The drift magnitude is random and sometimes zero, so
    super/sub instances exercise the boundary case.  On each coarse atom all
    children but the heaviest get free values; the heaviest child's value is
    solved exactly so the conditional mean lands on the target.  Atoms of
    zero probability get free values everywhere.
    """
    space = P.space
    values: list[Fraction | int] = [0] * space.size
    total_drift = Fraction(0)
    for atom in coarse.atoms:
        children = [c for c in fine.atoms if c.member_set <= atom.member_set]
        child_mass = {
            c: sum((P.weights[i] for i in c.members), start=Fraction(0))
            for c in children
        }
        atom_mass = sum(child_mass.values(), start=Fraction(0))
        target = Fraction(prev.values[atom.members[0]])
        if drift_sign and rng.random() < 0.7:
            target += drift_sign * abs(rand_fraction(rng))
        if atom_mass == 0:
            for c in children:
                v = rand_fraction(rng)
                for i in c.members:
                    values[i] = v
            continue
        total_drift += (target - Fraction(prev.values[atom.members[0]])) * atom_mass
        heaviest = max(children, key=lambda c: (child_mass[c], c.members))
        acc = Fraction(0)
        for c in children:
            if c is heaviest:
                continue
            v = rand_fraction(rng)
            acc += child_mass[c] * v
            for i in c.members:
                values[i] = v
        solved = (target * atom_mass - acc) / child_mass[heaviest]
        for i in heaviest.members:
            values[i] = solved
    return RandomVariable(space, values), total_drift


def rand_martingale(
    rng: random.Random, filtration: Filtration, P: ProbabilityMeasure
) -> AdaptedProcess:
    x0 = rand_fraction(rng)
    values = [RandomVariable(filtration.space, [x0] * filtration.space.size)]
    for n in range(1, filtration.horizon + 1):
        rv, _ = _balanced_stage(
            rng, values[-1], filtration.stage(n - 1), filtration.stage(n), P, 0
        )
        values.append(rv)
    return AdaptedProcess(filtration, values)


def rand_supermartingale(
    rng: random.Random, filtration: Filtration, P: ProbabilityMeasure
) -> AdaptedProcess:
    x0 = rand_fraction(rng)
    values = [RandomVariable(filtration.space, [x0] * filtration.space.size)]
    for n in range(1, filtration.horizon + 1):
        rv, _ = _balanced_stage(
            rng, values[-1], filtration.stage(n - 1), filtration.stage(n), P, -1
        )
        values.append(rv)
    return AdaptedProcess(filtration, values)


def rand_predictable(
    rng: random.Random,
    filtration: Filtration,
    bound: int = 3,
    nonnegative: bool = False,
    denominator: int = 1,
) -> PredictableSequence:
    """Stakes in [lo, bound] with the given denominator, one per stage-(n-1) atom.

    With ``denominator`` q > 1 most stakes are proper fractions k/q; with
    the default 1 they are whole (and stored as ints)."""
    lo = 0 if nonnegative else -bound
    seq = []
    for n in range(1, filtration.horizon + 1):
        sigma = filtration.stage(n - 1)
        values: list[Fraction | int] = [0] * filtration.space.size
        for atom in sigma.atoms:
            v = Fraction(rng.randint(lo * denominator, bound * denominator), denominator)
            for i in atom.members:
                values[i] = v
        seq.append(RandomVariable(filtration.space, values))
    return PredictableSequence(filtration, seq)


def rand_stopping_time(
    rng: random.Random, filtration: Filtration, bounded: bool = True
) -> StoppingTime:
    """Built forward: each stage-n atom not yet stopped may stop now."""
    n_out = filtration.space.size
    times: list[int | None] = [None] * n_out
    for n in range(filtration.horizon + 1):
        for atom in filtration.stage(n).atoms:
            if times[atom.members[0]] is not None:
                continue
            if rng.random() < 0.35:
                for i in atom.members:
                    times[i] = n
    if bounded:
        times = [filtration.horizon if t is None else t for t in times]
    return StoppingTime(filtration, times)


def reference_weighted_sum(values, P: ProbabilityMeasure):
    """The summation kernels before the integer path: one Fraction term at a time.

    Sum of v * w over the outcomes of non-zero weight, in outcome order,
    from ``Fraction(0)``; a drop-in for ``mglab.integration.weighted_sum``.
    """
    total = Fraction(0)
    for v, w in zip(values, P.weights):
        if w:
            total += v * w
    return total


def reference_atom_sums(values, sigma: SigmaAlgebra, P: ProbabilityMeasure):
    """Per-atom ``(masses, totals)`` from int 0, one Fraction term at a time.

    A drop-in for ``mglab.integration.atom_sums``.
    """
    masses: list = [0] * sigma.atom_count
    totals: list = [0] * sigma.atom_count
    for lab, v, w in zip(sigma.labels, values, P.weights):
        if w:
            masses[lab] += w
            totals[lab] += v * w
    return masses, totals


def reference_first_split(sigma: SigmaAlgebra, keys):
    """``SigmaAlgebra.first_split`` as one loop over the outcomes.

    Each atom's first key is taken at its least member; every later key of
    the atom is compared with it by ``!=``, and the lowest label that
    compares unequal names the atom returned.
    """
    firsts: list = []
    split = None
    for lab, key in zip(sigma.labels, keys):
        if lab == len(firsts):
            firsts.append(key)
        elif key != firsts[lab] and (split is None or lab < split):
            split = lab
    return None if split is None else sigma.atoms[split]


def _atom_firsts(values, sigma: SigmaAlgebra) -> list:
    """The value at each atom's least member, indexed by atom label."""
    return [values[atom.members[0]] for atom in sigma.atoms]


def reference_classify(
    X: AdaptedProcess, P: ProbabilityMeasure, tolerance: float = DEFAULT_TOLERANCE
) -> MartingaleClassification:
    """Classification as it ran before the drift table.

    Compares the conditional mean of X_{n+1} (not of the increment) with
    X_n on every atom of positive mass.
    """
    signs_seen: set[int] = set()
    witness = None
    for n in range(X.horizon):
        stage = X.filtration.stages[n]
        masses, totals = reference_atom_sums(X.values[n + 1].values, stage, P)
        x_now = _atom_firsts(X.values[n].values, stage)
        for k, mass in enumerate(masses):
            if mass == 0:
                continue
            sign = sign_with_tolerance(as_number(totals[k] / mass) - x_now[k], tolerance)
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


def reference_step_identity_holds(
    C: PredictableSequence,
    X: AdaptedProcess,
    Y: AdaptedProcess,
    P: ProbabilityMeasure,
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """E[dY_n | F_{n-1}] = C_n E[dX_n | F_{n-1}], with both sides summed afresh."""
    for n in range(1, X.horizon + 1):
        stage = X.filtration.stages[n - 1]
        dx = [a - b for a, b in zip(X.values[n].values, X.values[n - 1].values)]
        dy = [a - b for a, b in zip(Y.values[n].values, Y.values[n - 1].values)]
        masses, lhs = reference_atom_sums(dy, stage, P)
        _, rhs = reference_atom_sums(dx, stage, P)
        stakes = _atom_firsts(C.values[n - 1].values, stage)
        for mass, y, x, stake in zip(masses, lhs, rhs, stakes):
            if mass and not numbers_equal(y, stake * x, tolerance):
                return False
    return True


def reference_tower_check(X, G, H, P, tolerance=DEFAULT_TOLERANCE) -> bool:
    """``tower_check`` as four ``conditional_expectation`` calls, each summed over
    the outcomes, compared at the least member of every H-atom of positive mass."""
    if X.space != G.space or X.space != H.space or X.space != P.space:
        raise ValueError("all arguments must share one sample space")
    atom = H.first_split(G.labels)
    if atom is not None:
        raise ValueError(
            f"not nested: H-atom {list(atom.members)} straddles more than one G-atom"
        )
    base = conditional_expectation(X, G, P, tolerance).result
    fine = conditional_expectation(X, H, P, tolerance)
    via_fine = conditional_expectation(fine.result, G, P, tolerance).result
    refined = conditional_expectation(base, H, P, tolerance).result
    null = {atom.members[0] for atom in fine.null_atoms}
    return all(
        numbers_equal(via_fine.values[i], base.values[i], tolerance)
        and numbers_equal(refined.values[i], base.values[i], tolerance)
        for i in H.least_members
        if i not in null
    )


def reference_verify_kolmogorov(X, G, P, Y, tolerance=DEFAULT_TOLERANCE) -> bool:
    """``verify_kolmogorov`` with both sides summed over the outcomes by ``atom_sums``."""
    if X.space != G.space or X.space != P.space or Y.space != X.space:
        raise ValueError("all arguments must share one sample space")
    if not is_measurable(Y, G):
        return False
    _, lhs = atom_sums(X.values, G, P)
    _, rhs = atom_sums(Y.values, G, P)
    return all(numbers_equal(a, b, tolerance) for a, b in zip(lhs, rhs))


def reference_tail_figures(
    tau: StoppingTime, P: ProbabilityMeasure, window: int, epsilon
) -> tuple[tuple, Fraction]:
    """``(tail_chain, truncated_expectation)`` of the tail-bound check.

    Accumulates the mass of each stopping value and of NEVER in one
    Fraction pass, then reads P(tau > t) off the running suffix sums.
    """
    N = tau.filtration.horizon
    mass_at = [Fraction(0)] * (N + 1)
    never_mass = Fraction(0)
    for t, w in zip(tau.times, P.weights):
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

    one_minus = 1 - Fraction(epsilon)
    chain = []
    bound = Fraction(1)
    for k in range(0, N // window + 1):
        t = k * window
        chain.append((k, tails[t], bound, tails[t] <= bound))
        bound = bound * one_minus

    truncated_expectation = never_mass * N
    for t, m in enumerate(mass_at):
        if m:
            truncated_expectation += m * t
    return tuple(chain), truncated_expectation


def reference_pythagoras(M: AdaptedProcess, P: ProbabilityMeasure, tolerance=DEFAULT_TOLERANCE):
    """``(lhs, rhs, gap, identity_holds, orthogonality_ok, witness)`` of the L2 check.

    The Gram matrix G[s][t] = E[M_s M_t] as it was summed before the integer
    path: one ``reference_weighted_sum`` of Fraction products per entry.
    """
    N = M.horizon
    gram = [[0] * (N + 1) for _ in range(N + 1)]
    for s in range(N + 1):
        for t in range(s, N + 1):
            products = [x * y for x, y in zip(M.values[s].values, M.values[t].values)]
            gram[s][t] = gram[t][s] = reference_weighted_sum(products, P)
    lhs = gram[N][N]
    rhs = gram[0][0]
    for k in range(1, N + 1):
        rhs += gram[k][k] - 2 * gram[k - 1][k] + gram[k - 1][k - 1]
    witness = None
    for s in range(N + 1):
        for t in range(s + 1, N + 1):
            for u in range(t, N + 1):
                for v in range(u + 1, N + 1):
                    prod = gram[t][v] - gram[t][u] - gram[s][v] + gram[s][u]
                    if witness is None and not numbers_equal(prod, 0, tolerance):
                        witness = (s, t, u, v)
    return (
        as_number(lhs),
        as_number(rhs),
        as_number(lhs - rhs),
        numbers_equal(lhs, rhs, tolerance),
        witness is None,
        witness,
    )


def reference_tail_hypothesis(
    tau: StoppingTime, P: ProbabilityMeasure, window: int, epsilon
) -> tuple[tuple[bool, ...], tuple | None]:
    """``(hypothesis_by_step, witness)`` of the tail-bound check.

    Tests ``hit > eps * mass`` on the Fraction sums of ``reference_atom_sums``
    at every stage n with a full window before the horizon.
    """
    F = tau.filtration
    eps = Fraction(epsilon)
    by_step = []
    witness = None
    for n in range(0, F.horizon - window + 1):
        stage = F.stages[n]
        fired = [t is not None and t <= n + window for t in tau.times]
        masses, hits = reference_atom_sums(fired, stage, P)
        failed = [k for k, (m, h) in enumerate(zip(masses, hits)) if m and not h > eps * m]
        by_step.append(not failed)
        if failed and witness is None:
            witness = (n, stage.atoms[failed[0]])
    return tuple(by_step), witness


def reference_coin_walk(N: int, p_heads):
    """``make_coin_walk`` built term by term through the public constructors."""
    p = Fraction(p_heads)
    q = 1 - p
    size = 1 << N
    labels = ["".join("HT"[(i >> (N - 1 - k)) & 1] for k in range(N)) for i in range(size)]
    space = SampleSpace(labels)
    weights = [p ** (N - i.bit_count()) * q ** i.bit_count() for i in range(size)]
    measure = ProbabilityMeasure(space, weights)
    stages = [SigmaAlgebra(space, [i >> (N - n) for i in range(size)]) for n in range(N + 1)]
    filtration = Filtration(space, stages)
    values = [RandomVariable(space, [0] * size)]
    for n in range(1, N + 1):
        flips = [1 if (i >> (N - n)) & 1 == 0 else -1 for i in range(size)]
        values.append(RandomVariable(space, [x + d for x, d in zip(values[-1].values, flips)]))
    return space, measure, filtration, AdaptedProcess(filtration, values)


def reference_doubling_stakes(N: int) -> list[tuple]:
    """Doubling stake values per stage, outcome by outcome: 2**(j-1) on the
    outcomes whose top j-1 bits are all 1 (every earlier flip a tail), else 0."""
    stakes = []
    for j in range(1, N + 1):
        tails = j - 1
        top = [i >> (N - tails) if tails else 0 for i in range(1 << N)]
        stakes.append(tuple(2 ** tails if t == (1 << tails) - 1 else 0 for t in top))
    return stakes


def reference_transform(C: PredictableSequence, X: AdaptedProcess) -> AdaptedProcess:
    """C·X summed outcome by outcome, every stage through the public constructors."""
    size = X.space.size
    values = [RandomVariable(X.space, [0] * size)]
    running = [0] * size
    for k in range(1, X.horizon + 1):
        stake, now, before = C.values[k - 1].values, X.values[k].values, X.values[k - 1].values
        running = [running[i] + stake[i] * (now[i] - before[i]) for i in range(size)]
        values.append(RandomVariable(X.space, running))
    return AdaptedProcess(X.filtration, values)


def reference_stopped_process(X: AdaptedProcess, tau: StoppingTime) -> AdaptedProcess:
    """X_{min(tau, n)} read outcome by outcome, through the public constructors."""
    caps = [X.horizon if t is None else t for t in tau.times]
    return AdaptedProcess(X.filtration, [
        RandomVariable(X.space, [X.values[min(c, n)].values[i] for i, c in enumerate(caps)])
        for n in range(X.horizon + 1)
    ])


def reference_drift_table(X: AdaptedProcess, P: ProbabilityMeasure) -> list:
    """The exact drift table summed over outcomes, as it was before the atom sums.

    Per step n: stage n and the int ``(masses, totals)`` of the increment of
    the outcome values, cleared over one common denominator, over
    ``P.int_weights``, from int 0 in outcome order; the masses are a tuple,
    as the held stage masses are.
    """
    nums, _ = clear_denominators(*(rv.values for rv in X.values))
    table = []
    for n in range(X.horizon):
        stage = X.filtration.stages[n]
        masses = [0] * stage.atom_count
        totals = [0] * stage.atom_count
        for lab, a, b, w in zip(stage.labels, nums[n + 1], nums[n], P.int_weights):
            if w:
                masses[lab] += w
                totals[lab] += (a - b) * w
        table.append((stage, tuple(masses), totals))
    return table


def reference_upcrossing_figures(X: AdaptedProcess, P: ProbabilityMeasure, a, b) -> tuple:
    """``(E[U_N[a, b]], E|X_m| per stage)`` summed over outcomes, as before the atom path.

    Upcrossings are counted path by path with ``count_upcrossings`` and
    every sum is a ``reference_weighted_sum``.
    """
    paths = zip(*(rv.values for rv in X.values))
    counts = [count_upcrossings(path, a, b) for path in paths]
    mean_abs = tuple(
        as_number(reference_weighted_sum([abs(v) for v in rv.values], P)) for rv in X.values
    )
    return as_number(reference_weighted_sum(counts, P)), mean_abs


def reference_stopping_bounds(X: AdaptedProcess) -> tuple:
    """``(process_bound, increment_bound)`` as the max over every outcome of every stage.

    ``max`` keeps the first of equal maxima; the leading int 0 stands for
    all-zero increments.
    """
    values = [abs(v) for rv in X.values for v in rv.values]
    steps = [
        abs(x - y) for before, after in zip(X.values, X.values[1:])
        for y, x in zip(before.values, after.values)
    ]
    return max(values), max([0] + steps)


# ---------------------------------------------------------------------------
# The one-shot Monte Carlo kernels: every uniform, step and temporary of an
# ensemble built at full (n_paths, horizon) size, as the samplers ran before
# they worked in row blocks.  ``p`` is the float probability the samplers
# compare against.

_REF_MASK64 = (1 << 64) - 1
_REF_GOLD = np.uint64(0x9E3779B97F4A7C15)
_REF_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_REF_MIX2 = np.uint64(0x94D049BB133111EB)


def _reference_mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _REF_MIX1
    z = (z ^ (z >> np.uint64(27))) * _REF_MIX2
    return z ^ (z >> np.uint64(31))


def reference_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    z = np.uint64(seed & _REF_MASK64) + (counters + np.uint64(1)) * _REF_GOLD
    z = _reference_mix(z)
    z = _reference_mix(z + _REF_GOLD)
    return (z >> np.uint64(11)) * 2.0 ** -53


def _reference_step_uniforms(seed: int, n_paths: int, horizon: int) -> np.ndarray:
    counters = (
        np.arange(n_paths, dtype=np.uint64)[:, None] * np.uint64(horizon)
        + np.arange(horizon, dtype=np.uint64)[None, :]
    )
    return reference_uniforms(seed, counters)


def reference_simulate_walk(N: int, p: float, n_paths: int, seed: int) -> np.ndarray:
    u = _reference_step_uniforms(seed, n_paths, N)
    steps = np.where(u < p, 1, -1).astype(np.int64)
    paths = np.zeros((n_paths, N + 1), dtype=np.int64)
    np.cumsum(steps, axis=1, out=paths[:, 1:])
    return paths


def reference_doubling_paths(n_levels: int, p: float, n_paths: int, seed: int) -> np.ndarray:
    u = _reference_step_uniforms(seed, n_paths, n_levels)
    up = u < p
    alive = np.ones((n_paths, n_levels), dtype=bool)
    if n_levels > 1:
        alive[:, 1:] = np.logical_and.accumulate(~up[:, :-1], axis=1)
    stakes = np.left_shift(np.int64(1), np.arange(n_levels, dtype=np.int64)) * alive
    moves = np.where(up, 1, -1).astype(np.int64)
    paths = np.zeros((n_paths, n_levels + 1), dtype=np.int64)
    np.cumsum(stakes * moves, axis=1, out=paths[:, 1:])
    return paths


def reference_upcrossings(paths: np.ndarray, a, b) -> np.ndarray:
    a = float(a)
    b = float(b)
    n_paths, width = paths.shape
    below = np.zeros(n_paths, dtype=bool)
    counts = np.zeros(n_paths, dtype=np.int64)
    for t in range(width):
        col = paths[:, t]
        completed = below & (col >= b)
        counts += completed
        below = (below & ~completed) | (col <= a)
    return counts
