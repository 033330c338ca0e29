"""The integer summation kernels and the drift table against the loops they replaced.

Every check is run twice on one random model: once as shipped, and once
with ``tests/support.py``'s reference kernels patched into every package
module that binds ``weighted_sum`` or ``atom_sums``.  The ``repr`` of each
report, witnesses and exact types included, must be the same, and so must
any exception a check raises.  Swapping kernels cannot see how a check
uses them, nor reach the checks that sum an exact process in integers
without them (the drift table, the transform step identity, the L2 Gram
matrix and the tail-bound hypothesis).  So the classification, the step
identity, the L2 figures and the tail-bound hypothesis and figures are also
held against the reference functions in ``tests/support.py``, which keep
the Fraction loops those checks ran before.

The processes that the package derives without running the public
constructors' checks (the coin walk, transforms, stopped processes) are
held against rebuilds through those constructors, value types included,
and the atom-level drift table against the outcome-level one.
"""
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mglab
from mglab import (
    MARTINGALE,
    SUBMARTINGALE,
    SUBMARTINGALE_FAMILY,
    SUPERMARTINGALE,
    SUPERMARTINGALE_FAMILY,
    AdaptedProcess,
    Filtration,
    PredictableSequence,
    ProbabilityMeasure,
    RandomVariable,
    SampleSpace,
    SigmaAlgebra,
    StoppingTime,
    as_number,
    classify,
    conditional_expectation,
    is_measurable,
    l2_pythagoras_check,
    numbers_equal,
    optional_stopping_report,
    stopping_tail_bound_check,
    tower_check,
    transform,
    upcrossing_inequality_check,
    verify_kolmogorov,
    verify_transform_preservation,
)
from mglab import integration, make_coin_walk, stopped_process
from mglab.integration import clear_denominators
from mglab.measure import _up
from mglab.processes import _drift_table, _mean_abs_by_stage, _stage_masses
from support import (
    rand_filtration,
    rand_fraction,
    rand_martingale,
    rand_measure,
    rand_predictable,
    rand_space,
    rand_stopping_time,
    rand_supermartingale,
    rand_variable,
    reference_atom_sums,
    reference_classify,
    reference_coin_walk,
    reference_drift_table,
    reference_pythagoras,
    reference_step_identity_holds,
    reference_stopped_process,
    reference_stopping_bounds,
    reference_tail_figures,
    reference_tail_hypothesis,
    reference_transform,
    reference_tower_check,
    reference_upcrossing_figures,
    reference_verify_kolmogorov,
    reference_weighted_sum,
)

MODULES = [
    importlib.import_module(f"mglab.{name}")
    for name in ("integration", "conditioning", "processes", "montecarlo")
]
KERNELS = {
    integration.weighted_sum: reference_weighted_sum,
    integration.atom_sums: reference_atom_sums,
}


def _kernel_sites():
    """Every (module, name) in the package that binds one of the kernels."""
    sites = [
        (module, name, value)
        for module in [mglab, *MODULES]
        for name, value in vars(module).items()
        if any(value is kernel for kernel in KERNELS)
    ]
    assert {value for _, _, value in sites} == set(KERNELS)
    return sites


def _floats(X: AdaptedProcess) -> AdaptedProcess:
    return AdaptedProcess(X.filtration, [rv.map(float) for rv in X.values])


def _outcome(check, *args):
    try:
        return repr(check(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _model(rng):
    space = rand_space(rng, max_size=8)
    P = rand_measure(rng, space)
    F = rand_filtration(rng, space, rng.randint(1, 4))
    build = rng.choice((rand_martingale, rand_supermartingale))
    X = build(rng, F, P)
    if rng.random() < 0.3:
        X = _floats(X)
    # Whole, proper-fraction (k/q with q in 2..4) or float stakes.
    stakes = rng.random()
    C = rand_predictable(rng, F, nonnegative=rng.random() < 0.5,
                         denominator=rng.randint(2, 4) if stakes < 0.35 else 1)
    if stakes > 0.75:
        # Float stakes on an exact process: the mixed step-identity path.
        C = PredictableSequence(F, [rv.map(float) for rv in C.values])
    tau = rand_stopping_time(rng, F, bounded=rng.random() < 0.7)
    a = rand_fraction(rng)
    b = a + abs(rand_fraction(rng, 1, 4))
    n, m = sorted(rng.sample(range(F.horizon + 1), 2))
    G, H = F.stages[n], F.stages[m]
    V = rand_variable(rng, space)
    if rng.random() < 0.3:
        V = V.map(float)
    Y = conditional_expectation(V, G, P).result if rng.random() < 0.5 else rand_variable(rng, space)
    window = rng.randint(1, F.horizon)
    eps = Fraction(rng.randint(1, 9), 10)
    return [
        (classify, X, P),
        (verify_transform_preservation, C, X, P, 3),
        (optional_stopping_report, X, tau, P),
        (upcrossing_inequality_check, X, P, a, b),
        (l2_pythagoras_check, X, P),
        (stopping_tail_bound_check, tau, F, P, window, eps),
        (conditional_expectation, V, G, P),
        (tower_check, V, G, H, P),
        (verify_kolmogorov, V, G, P, Y),
    ]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_check_matches_the_fraction_reference(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    calls = _model(rng)
    shipped = [_outcome(*call) for call in calls]
    with pytest.MonkeyPatch.context() as mp:
        for module, name, value in _kernel_sites():
            mp.setattr(module, name, KERNELS[value])
        reference = [_outcome(*call) for call in calls]
    assert shipped == reference


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_drift_table_and_tail_sums_match_the_reference_loops(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    args = {check: rest for check, *rest in _model(rng)}

    X, P = args[classify]
    assert repr(classify(X, P)) == repr(reference_classify(X, P))

    C, X, P, bound = args[verify_transform_preservation]
    report = verify_transform_preservation(C, X, P, bound)
    Y = transform(C, X)
    assert report.input_label == reference_classify(X, P).label
    assert report.output_label == reference_classify(Y, P).label
    assert report.step_identity_ok == reference_step_identity_holds(C, X, Y, P)

    X, P = args[l2_pythagoras_check]
    report = l2_pythagoras_check(X, P)
    shipped = (report.lhs, report.rhs, report.gap, report.identity_holds,
               report.orthogonality_ok, report.orthogonality_witness)
    assert repr(shipped) == repr(reference_pythagoras(X, P))

    tau, F, P, window, eps = args[stopping_tail_bound_check]
    report = stopping_tail_bound_check(tau, F, P, window, eps)
    assert repr((report.tail_chain, report.truncated_expectation)) == repr(
        reference_tail_figures(tau, P, window, eps)
    )
    assert repr((report.hypothesis_by_step, report.hypothesis_witness)) == repr(
        reference_tail_hypothesis(tau, P, window, eps)
    )


def test_conditioning_reads_measurable_inputs_on_atoms_like_the_outcome_loops():
    """tower_check and verify_kolmogorov sum their measurable inputs once per atom;
    the references sum every input over the outcomes.  Same repr, refusals
    included, on draws with null atoms, float V, non-measurable Y and G = H."""
    rng = random.Random(20)
    seen = dict.fromkeys(("null H-atom", "float V", "measurable Y", "other Y", "refused"), 0)
    for _ in range(300):
        args = {check: rest for check, *rest in _model(rng)}
        V, G, H, P = args[tower_check]
        Y = args[verify_kolmogorov][3]
        # (H, G) is not nested unless the two stages are one partition.
        for g, h in ((G, H), (G, G), (H, H), (H, G)):
            got = _outcome(tower_check, V, g, h, P)
            assert got == _outcome(reference_tower_check, V, g, h, P)
            seen["refused"] += got.startswith("raised")
        assert _outcome(verify_kolmogorov, V, G, P, Y) == _outcome(
            reference_verify_kolmogorov, V, G, P, Y)
        seen["null H-atom"] += any(not any(P.weights[i] for i in a) for a in H.atoms)
        seen["float V"] += any(isinstance(v, float) for v in V.values)
        seen["measurable Y" if is_measurable(Y, G) else "other Y"] += 1
    assert min(seen.values()) > 30, seen


def test_transform_keeps_each_one_sided_family_under_nonnegative_stakes():
    """On _model's exact processes (a supermartingale-family X) and their negations (a
    submartingale-family -X), stakes in [0, 3] give a claim that holds, every time: the
    claimed label is the family's, and the output stays in the family."""
    rng = random.Random(26)
    seen = dict.fromkeys((MARTINGALE, SUPERMARTINGALE, SUBMARTINGALE), 0)
    while min(seen.values()) < 40:
        C, X, P, bound = {check: rest for check, *rest in _model(rng)}[
            verify_transform_preservation]
        if X.scaled is None:
            continue
        C = PredictableSequence(C.filtration, [rv.map(abs) for rv in C.values])
        negated = AdaptedProcess(X.filtration, [rv.scale(-1) for rv in X.values])
        for Y, family, claim in ((X, SUPERMARTINGALE_FAMILY, SUPERMARTINGALE),
                                 (negated, SUBMARTINGALE_FAMILY, SUBMARTINGALE)):
            report = verify_transform_preservation(C, Y, P, bound)
            claimed = MARTINGALE if report.input_label == MARTINGALE else claim
            assert report.input_label in family and report.claimed_label == claimed
            assert report.hypothesis_ok and report.step_identity_ok, report
            assert report.holds is True and report.output_label in family, report
            seen[claimed] += 1


def test_non_martingale_witness_is_the_first_nonzero_outcome_level_product():
    """The L2 witness of a non-martingale is the lex-first (s, t, u, v) whose
    E[(M_t - M_s)(M_v - M_u)], summed over the outcomes, is nonzero."""
    rng = random.Random(16)
    witnesses = 0
    for _ in range(300):
        X, P = {check: rest for check, *rest in _model(rng)}[l2_pythagoras_check]
        report = l2_pythagoras_check(X, P)
        if report.label == MARTINGALE:
            continue
        N = X.horizon
        paths = list(zip(*(rv.values for rv in X.values)))
        first = next(
            (
                (s, t, u, v)
                for s in range(N + 1)
                for t in range(s + 1, N + 1)
                for u in range(t, N + 1)
                for v in range(u + 1, N + 1)
                if not numbers_equal(reference_weighted_sum(
                    [(w[t] - w[s]) * (w[v] - w[u]) for w in paths], P), 0)
            ),
            None,
        )
        assert (report.orthogonality_witness, report.orthogonality_ok) == (first, first is None)
        witnesses += first is not None
    assert witnesses > 50


def _trusted_parts(X: AdaptedProcess) -> tuple:
    """The cached fields a trusted build may fill, next to the values they derive from."""
    return (
        [(s.atom_count, s.least_members) for s in X.filtration.stages],
        X.nodes,
        X.scaled,
    )


def _recomputed_parts(X: AdaptedProcess) -> tuple:
    stages = X.filtration.stages
    least = [tuple(s.labels.index(k) for k in range(len(set(s.labels)))) for s in stages]
    nodes = tuple(tuple(rv.values[i] for i in firsts) for rv, firsts in zip(X.values, least))
    return (
        [(len(set(s.labels)), firsts) for s, firsts in zip(stages, least)],
        nodes,
        clear_denominators(*nodes),
    )


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_derived_processes_match_a_rebuild_through_the_public_constructors(pyr):
    rng = random.Random(pyr.randint(0, 10**9))
    args = {check: rest for check, *rest in _model(rng)}
    C, X, _, _ = args[verify_transform_preservation]
    _, tau, _ = args[optional_stopping_report]
    pairs = [
        (transform, reference_transform, C, X),
        (stopped_process, reference_stopped_process, X, tau),
    ]
    for derive, rebuild, *inputs in pairs:
        assert _outcome(derive, *inputs) == _outcome(rebuild, *inputs)
        try:
            derived = derive(*inputs)
        except ValueError:
            continue
        assert _trusted_parts(derived) == _recomputed_parts(derived)


@pytest.mark.parametrize("N", range(1, 9))
@pytest.mark.parametrize("p", [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), "3/4", 0.25])
def test_coin_walk_matches_a_rebuild_through_the_public_constructors(N, p):
    built = make_coin_walk(N, p)
    rebuilt = reference_coin_walk(N, Fraction(p))
    assert repr(built) == repr(rebuilt)
    P, Q = built[1], rebuilt[1]
    assert (P.denominator, P.int_weights) == (Q.denominator, Q.int_weights)
    assert _trusted_parts(built[3]) == _recomputed_parts(built[3])
    # The walk's nodes and scaled form are those of the rebuilt walk's values, types included.
    assert repr(_trusted_parts(built[3])) == repr(_recomputed_parts(rebuilt[3]))


def test_transform_overflow_is_refused_by_the_public_check():
    space, _, F, X = make_coin_walk(2, Fraction(1, 2))
    C = PredictableSequence(F, [RandomVariable(space, [1e308] * space.size)] * 2)
    with pytest.raises(ValueError) as err:
        transform(C, X)
    assert str(err.value) == "numeric values must be finite, got inf"


def test_transform_normalizes_whole_fractions_to_ints():
    space, _, F, X = make_coin_walk(4, Fraction(1, 3))
    half = RandomVariable(space, [Fraction(1, 2)] * space.size)
    C = PredictableSequence(F, [half] * X.horizon)
    doubled = AdaptedProcess(F, [rv.scale(2) for rv in X.values])
    Y = transform(C, doubled)
    assert repr(Y) == repr(X)
    assert {type(v) for rv in Y.values for v in rv.values} == {int}
    halved = transform(C, X)
    for rv in halved.values:
        for v in rv.values:
            assert type(v) is int if v == int(v) else type(v) is Fraction


def test_an_atom_of_equal_values_of_mixed_types_is_read_at_its_least_member():
    """1 and 1.0 (or 1/2 and 0.5) are equal, so they may share an atom.  The
    transform and the stopped process give each atom one value, the least
    member's, so they agree with the outcome loops up to type, and exact
    stakes at the least members make C·X exact.  The transform reads X_{n-1}
    at the parent atom's least member, and a process is exact when its nodes
    are.  A Kolmogorov candidate holding a float anywhere is still summed as
    a float."""
    space, P, F, walk = make_coin_walk(3, Fraction(1, 2))
    odd_float = lambda rv: RandomVariable(  # noqa: E731
        space, [float(v) if i % 2 else v for i, v in enumerate(rv.values)])
    # C_1 (one atom) holds 1 at its least member and 1.0 elsewhere; C_2 mixes
    # 1/2 and 0.5.  X_2 and X_3 hold floats at odd outcomes, X_0 and X_1 none.
    C = PredictableSequence(F, [
        RandomVariable(space, [1] + [1.0] * (space.size - 1)),
        RandomVariable(space, [0.5 if i % 2 else Fraction(1, 2) for i in range(space.size)]),
        RandomVariable(space, [2] * space.size),
    ])
    mixed = AdaptedProcess(F, walk.values[:2] + tuple(map(odd_float, walk.values[2:])))
    tau = StoppingTime(F, [1, 1, 1, 1, 2, 2, 3, 3])
    for X in (walk, mixed):
        Y, R = transform(C, X), reference_transform(C, X)
        assert [rv.values for rv in Y.values] == [rv.values for rv in R.values]
        assert R.scaled is None
        assert (Y.scaled is None) is (X is mixed)
        if X is walk:
            assert {type(v) for rv in Y.values for v in rv.values} == {int, Fraction}
        report = verify_transform_preservation(C, X, P, 2)
        assert report.holds and report.step_identity_ok
        assert report.output_label == reference_classify(R, P).label == MARTINGALE
        S, T = stopped_process(X, tau), reference_stopped_process(X, tau)
        assert [rv.values for rv in S.values] == [rv.values for rv in T.values]
        for rv, stage in zip(S.values, F.stages):
            assert all(rv.values[i] is rv.values[stage.least_members[k]]
                       for i, k in enumerate(stage.labels))
    # X_2 holds floats at odd outcomes only, off its least members, and X_3 ints: C·X
    # reads X_2 at the parent atom's least member (an int) where the outcome loop reads
    # each outcome's own (a float), so the values agree and only their types differ.
    parent_read = AdaptedProcess(F, walk.values[:2] + (odd_float(walk.values[2]), walk.values[3]))
    Y, R = transform(C, parent_read), reference_transform(C, parent_read)
    assert [rv.values for rv in Y.values] == [rv.values for rv in R.values]
    assert {type(v) for v in Y.values[3].values} == {Fraction}
    assert float in {type(v) for v in R.values[3].values}
    assert parent_read.scaled is not None and Y.scaled is not None
    assert verify_transform_preservation(C, parent_read, P, 2)
    # Exactness is decided on the nodes: X_n + 2**-40 for n >= 1, exact at each least
    # member and the equal float elsewhere, is summed in ints, so its step-0 drift of
    # 2**-40, inside the float tolerance, makes it a submartingale, not a martingale.
    eps = Fraction(1, 2**40)
    lifted = AdaptedProcess(F, walk.values[:1] + tuple(
        RandomVariable(space, [v + eps if i in stage.least_members else float(v + eps)
                               for i, v in enumerate(rv.values)])
        for rv, stage in zip(walk.values[1:], F.stages[1:])))
    assert classify(lifted, P).label == "submartingale"
    # E[X_2 | F_1] = X_1; nudged by 2**-44, within the tolerance, on one
    # atom whose odd outcome holds the float.
    nudged = [v + Fraction(1, 2**44) if i < 4 else v for i, v in enumerate(walk.values[1].values)]
    Y = odd_float(RandomVariable(space, nudged))
    assert verify_kolmogorov(walk.values[2], F.stages[1], P, Y)
    assert reference_verify_kolmogorov(walk.values[2], F.stages[1], P, Y)
    assert not verify_kolmogorov(walk.values[2], F.stages[1], P, RandomVariable(space, nudged))
    # X_0 holds 1 at its one atom's least member and 1.0 elsewhere: stage 0 of X^tau, like
    # every later stage, holds the least member's object at every outcome, whatever tau.
    one = AdaptedProcess(F, (RandomVariable(space, [1] + [1.0] * (space.size - 1)),)
                         + walk.values[1:])
    for times in ([0] * space.size, tau.times, [None] * space.size, [3] * space.size):
        S = stopped_process(one, StoppingTime(F, times))
        assert all(v is one.values[0].values[0] for v in S.values[0].values)


def test_atom_level_drift_table_matches_the_outcome_loop():
    """Coarse last stages and null atoms included; the float table is unchanged."""
    rng = random.Random(8)
    coarse_last = null_atoms = 0
    for _ in range(300):
        space = rand_space(rng, max_size=8)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        X = rng.choice((rand_martingale, rand_supermartingale))(rng, F, P)
        C = rand_predictable(rng, F, nonnegative=rng.random() < 0.5)
        table = _drift_table(X, P, _stage_masses(F, P))
        assert table == reference_drift_table(X, P)
        assert repr(classify(X, P)) == repr(reference_classify(X, P))
        report = verify_transform_preservation(C, X, P, 3)
        assert report.step_identity_ok == reference_step_identity_holds(C, X, transform(C, X), P)
        floats = _floats(X)
        assert repr(classify(floats, P)) == repr(reference_classify(floats, P))
        # The float table's masses and totals, types and float bits included,
        # are the outcome loop's.
        assert repr(_drift_table(floats, P, _stage_masses(F, P))) == repr([
            (stage, *reference_atom_sums([a - b for a, b in zip(y.values, x.values)], stage, P))
            for stage, x, y in zip(F.stages, floats.values, floats.values[1:])
        ])
        coarse_last += F.stages[-1].atom_count < space.size
        null_atoms += any(not m for _, masses, _ in table for m in masses)
    assert coarse_last > 20 and null_atoms > 20


def test_float_drift_table_is_the_mass_pyramid_and_the_outcome_loop():
    """A float process's drift table is ``atom_sums`` of each step's increments.
    Its repr, types and float bits included, is that of the table it replaced:
    the int stage masses over ``D`` (int 0 for a null atom) next to totals
    summed from int 0 over the non-zero Fraction weights in outcome order."""
    rng = random.Random(5)
    null_atoms = 0
    for _ in range(300):
        X, P = {check: rest for check, *rest in _model(rng)}[classify]
        X = _floats(X)
        masses = _stage_masses(X.filtration, P)
        live = [i for i, w in enumerate(P.weights) if w]
        replaced = [
            (stage, [Fraction(m, P.denominator) if m else 0 for m in ms],
             _up([(y.values[i] - x.values[i]) * P.weights[i] for i in live],
                 [stage.labels[i] for i in live], stage.atom_count))
            for stage, ms, x, y in zip(X.filtration.stages, masses, X.values, X.values[1:])
        ]
        assert repr(_drift_table(X, P, masses)) == repr(replaced)
        null_atoms += any(not m for ms in masses for m in ms)
    assert null_atoms > 20


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_upcrossing_and_stopping_figures_match_the_outcome_loops(pyr):
    """E[U_N], E|X_m| and the stopping bounds read atoms; the references read outcomes."""
    rng = random.Random(pyr.randint(0, 10**9))
    args = {check: rest for check, *rest in _model(rng)}

    X, P, a, b = args[upcrossing_inequality_check]
    for lo, hi in [(a, b), (a - 1, a), (b, b + Fraction(1, 2))]:
        expected, mean_abs = reference_upcrossing_figures(X, P, lo, hi)
        report = upcrossing_inequality_check(X, P, lo, hi)
        assert repr((report.expected_upcrossings, report.corollary_bound)) == repr(
            (expected, as_number(abs(lo) + max(mean_abs)))
        )
    assert repr(_mean_abs_by_stage(X, P, _stage_masses(X.filtration, P))) == repr(mean_abs)

    X, tau, P = args[optional_stopping_report]
    report = optional_stopping_report(X, tau, P)
    assert repr((report.process_bound, report.increment_bound)) == repr(
        reference_stopping_bounds(X)
    )
    assert report.tau_max == (max(tau.times) if tau.bounded else None)


def test_first_of_equal_maxima_keeps_its_type():
    """One atom holds int 1 before float 1.0, at a stage and in its increment."""
    space = SampleSpace(["h", "t"])
    P = ProbabilityMeasure(space, ["1/2", "1/2"])
    trivial = SigmaAlgebra(space, [0, 0])
    F = Filtration(space, [trivial, trivial, SigmaAlgebra(space, [0, 1])])
    X = AdaptedProcess(F, [RandomVariable(space, v) for v in ((0, 0), (1, 1.0), (1.0, 1))])
    report = optional_stopping_report(X, StoppingTime(F, [2, 2]), P)
    assert repr((report.process_bound, report.increment_bound)) == "(1, 1)"
    assert repr(reference_stopping_bounds(X)) == "(1, 1)"


def test_stage_masses_match_the_outcome_loop():
    """Every stage's atom masses, summed up the tree, equal the outcome loop's:
    when first read, when read again, and when read again after another measure."""
    rng = random.Random(10)
    null_atoms = 0
    for _ in range(300):
        space = rand_space(rng, max_size=8)
        P = rand_measure(rng, space)
        F = rand_filtration(rng, space, rng.randint(1, 4))
        other = rand_measure(rng, space)

        def outcome_loop(Q):
            expected = []
            for stage in F.stages:
                sums = [0] * stage.atom_count
                for lab, w in zip(stage.labels, Q.int_weights):
                    sums[lab] += w
                expected.append(tuple(sums))
            return expected

        expected = outcome_loop(P)
        for read in range(3):
            if read == 2:
                assert _stage_masses(F, other) == outcome_loop(other)
            masses = _stage_masses(F, P)
            assert masses == expected
            assert all(type(m) is int for stage_masses in masses for m in stage_masses)
        null_atoms += any(not m for stage_masses in masses for m in stage_masses)
    assert null_atoms > 20


def _rand_entry(rng: random.Random):
    """One value of any kind the constructor may meet, refusals included."""
    return rng.choice([
        lambda: rng.randint(-10**20, 10**20),
        lambda: rng.choice((True, False)),
        lambda: Fraction(rng.randint(-9, 9)),
        lambda: rand_fraction(rng),
        lambda: rng.choice((0.0, -0.0, 0.5, -1e308, 1e-320, float("inf"), float("nan"))),
        lambda: rng.choice(("3", " -1/4 ", "0.3", "1e2", "x", "1/0", "nan", "")),
        lambda: rng.choice((None, [1], 1j, b"1")),
    ])()


def _reference_values(space: SampleSpace, values) -> tuple:
    """The constructor as it was: every value through as_number, then the length."""
    out = tuple(map(as_number, values))
    if len(out) != space.size:
        raise ValueError(f"got {len(out)} values for a space of {space.size} outcomes")
    return out


def _construction(build, *args) -> str:
    try:
        return repr(build(*args))
    except (TypeError, ValueError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def test_random_variable_int_path_matches_as_number_on_every_value():
    """All-int lists skip as_number; every list gets as_number's values and refusals."""
    rng = random.Random(13)
    int_lists = refusals = 0
    for _ in range(3000):
        space = rand_space(rng, max_size=6)
        n = space.size if rng.random() < 0.9 else rng.randint(0, 7)
        if rng.random() < 0.4:
            values = [rng.randint(-10**20, 10**20) for _ in range(n)]
        else:
            values = [_rand_entry(rng) for _ in range(n)]
        got = _construction(lambda: RandomVariable(space, values).values)
        assert got == _construction(_reference_values, space, values)
        int_lists += bool(values) and {type(v) for v in values} == {int}
        refusals += got.startswith("raised")
    assert int_lists > 1000 and refusals > 500
