"""The counter-based generator, path simulation, functionals, and the
exact-versus-sampled cross-check."""
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mglab import (
    DoublingModel,
    Functional,
    PathEnsemble,
    PredictableSequence,
    RandomVariable,
    WalkModel,
    classify,
    count_upcrossings,
    cross_validate,
    estimate_functional,
    exact_doubling_process,
    exact_functional_value,
    expectation,
    simulate_doubling_strategy,
    simulate_walk,
    transform,
)
from mglab.montecarlo import (
    _BLOCK,
    _TILE_ROWS,
    MAX_DOUBLING_LEVELS,
    _upcrossings_vectorized,
)
from support import (
    reference_doubling_paths,
    reference_doubling_stakes,
    reference_simulate_walk,
    reference_transform,
    reference_uniforms,
    reference_upcrossings,
)


# ---------------------------------------------------------------------------
# the generator


def test_generator_golden_values():
    """Frozen outputs; any change to the mixing constants breaks replay."""
    got = reference_uniforms(0, np.arange(4, dtype=np.uint64))
    expected = [
        0.6524484863740322,
        0.27623358227789463,
        0.9302874638535357,
        0.30519459843552876,
    ]
    assert got.tolist() == expected
    got = reference_uniforms(123456789, np.arange(4, dtype=np.uint64))
    expected = [
        0.500049775767424,
        0.3028437756632618,
        0.0634249851327291,
        0.23483032272363746,
    ]
    assert got.tolist() == expected


def test_generator_range_and_spread():
    u = reference_uniforms(7, np.arange(200000, dtype=np.uint64))
    assert float(u.min()) >= 0.0 and float(u.max()) < 1.0
    assert abs(float(u.mean()) - 0.5) < 0.005
    assert abs(float(u.var()) - 1 / 12) < 0.002


def test_seed_zero_counter_zero_is_not_degenerate():
    assert 0.0 < float(reference_uniforms(0, np.zeros(1, dtype=np.uint64))[0]) < 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "seed aliasing: the seed is added to (counter + 1) * gold unhashed, so "
    "reference_uniforms(0x9E3779B97F4A7C15, c) equals reference_uniforms(0, c + 1)"))
def test_seeds_one_gold_apart_sample_different_walks():
    """Path i of an N=1 walk under seed gold would be path i + 1 under seed 0."""
    gold = 0x9E3779B97F4A7C15
    assert not np.array_equal(simulate_walk(1, Fraction(1, 2), 1000, gold).paths[:-1],
                              simulate_walk(1, Fraction(1, 2), 1000, 0).paths[1:])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "horizon aliasing: the counter is the flat path * horizon + step, so with seed 3 "
    "the increments of path 1 of an N=10 walk equal steps 10-19 of path 0 of an N=20 walk"))
def test_walks_of_two_horizons_share_no_increments():
    """Path 2j + 1 of an N=10 walk would step as the second half of path j of an N=20 walk."""
    short = np.diff(simulate_walk(10, Fraction(1, 2), 40, 3).paths).reshape(20, 2, 10)[:, 1]
    long = np.diff(simulate_walk(20, Fraction(1, 2), 20, 3).paths)[:, 10:]
    assert not np.array_equal(short, long)


# ---------------------------------------------------------------------------
# the row-blocked kernels against the one-shot references


BLOCK_PROBABILITIES = [0, 1, Fraction(1, 2), Fraction(1, 3), 0.3, 2 ** -60]
BLOCK_SEEDS = [0, -1, 2 ** 64 - 1]


def _path_counts(horizon: int) -> list[int]:
    """One path, both sides of a block's row count, and a ragged last block."""
    rows = max(1, _BLOCK // horizon)
    return [1, rows - 1, rows, rows + 1, 2 * rows + rows // 3 + 1]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
@pytest.mark.parametrize("p", BLOCK_PROBABILITIES)
def test_blocked_walk_matches_the_one_shot_kernel(p, seed):
    shapes = [(N, n) for N in (1, 30) for n in _path_counts(N)]
    shapes.append((_BLOCK + 5, 2))  # one row per block, each longer than a block
    for N, n in shapes:
        got = simulate_walk(N, p, n, seed).paths
        assert np.array_equal(got, reference_simulate_walk(N, float(Fraction(p)), n, seed)), (N, n)


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
@pytest.mark.parametrize("p", BLOCK_PROBABILITIES)
def test_blocked_doubling_matches_the_one_shot_kernel(p, seed):
    for L in (1, 8, 12, MAX_DOUBLING_LEVELS):
        for n in _path_counts(L):
            got = simulate_doubling_strategy(0, L, p, n, seed)[0].paths
            want = reference_doubling_paths(L, float(Fraction(p)), n, seed)
            assert np.array_equal(got, want), (L, n)


@pytest.mark.parametrize("p", [Fraction(1, 2), 0])
def test_lazy_doubling_matches_the_one_shot_kernel_past_its_first_block(p):
    """A block hashes level j only for its rows that have not rebounded: at
    p = 1/2 every row of a block has rebounded long before level 60, so the
    live set empties inside each block; at p = 0 it never empties."""
    n = _BLOCK + 3
    got = simulate_doubling_strategy(0, MAX_DOUBLING_LEVELS, p, n, 5)[0].paths
    assert np.array_equal(got, reference_doubling_paths(MAX_DOUBLING_LEVELS, float(p), n, 5))
    assert set(got[:, -1].tolist()) == ({1} if p else {1 - 2 ** MAX_DOUBLING_LEVELS})


@pytest.fixture(scope="module")
def block_ensembles():
    # The scan tiles rows in _TILE_ROWS and an int8 tile of _TILE_ROWS rows in
    # columns of 32; at N = 100 such a row block spans four column tiles.
    walks = [simulate_walk(30, Fraction(1, 2), n, 4).paths
             for n in (1, _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1, 2 * _TILE_ROWS + 700)]
    walks += [simulate_walk(100, Fraction(1, 2), n, 4).paths for n in (2100, _TILE_ROWS + 5)]
    # int8, int16, int16 and int64 wealth; at p = 1/100 most of the last exhaust their budget.
    doublings = [simulate_doubling_strategy(0, L, p, n, 4)[0].paths
                 for L, p, n in [(3, Fraction(1, 2), 20000), (8, Fraction(1, 2), 9000),
                                 (12, Fraction(1, 2), 7000), (40, Fraction(1, 100), 3000)]]
    # Paths that visit both ends of their type's range, where a bound clamped one
    # step short would count visits that do not cross it.
    rng = np.random.default_rng(0)
    ends = [rng.choice(np.array([t.min, t.min + 1, -1, 0, 1, t.max - 1, t.max], t.dtype), (64, 12))
            for t in map(np.iinfo, (np.int8, np.int16, np.int64))]
    return walks + doublings + ends


def _assert_upcrossings_match(paths, a, b):
    want = reference_upcrossings(paths, a, b)
    assert np.array_equal(_upcrossings_vectorized(paths, a, b), want), paths.shape
    samples = Functional.upcrossings(a, b).apply_to_paths(paths)
    assert np.array_equal(samples, want.astype(np.float64))


@pytest.mark.parametrize("a, b", [
    (-1, 1), (-0.5, 1.5), (0, 3), (-7, -1),
    # past the int8 range, on one side or both; the int16 and int64 wealth reaches -200
    (-200, 200), (-200, 0), (-1, 200), (-129, -128), (127, 128),
    # past the int64 range
    (-1e300, 1e300), (-1e300, -1), (1, 1e300), (Fraction(-10 ** 30, 3), 2),
    (-(2 ** 39) - 0.5, 2 ** 64),
    # not integers
    (Fraction(-3, 2), Fraction(5, 2)), (Fraction(-1, 3), Fraction(1, 3)), (-2.5, 0.25),
    (-1000.5, 0.999),
])
def test_blocked_upcrossings_match_the_one_shot_scan(block_ensembles, a, b):
    for paths in block_ensembles:
        _assert_upcrossings_match(paths, a, b)


def test_blocked_upcrossings_on_paths_longer_than_a_block():
    _assert_upcrossings_match(simulate_walk(_BLOCK + 5, Fraction(1, 2), 2, 4).paths, -0.5, 1.5)
    # A zigzag completes an upcrossing every two steps, the most a tile's count can hold.
    _assert_upcrossings_match(np.resize(np.array([-1, 1], np.int8), (3, 3001)), -1, 1)


@pytest.mark.parametrize("seed", [0, 9])
def test_step_threshold_is_exactly_u_below_p(seed):
    """A step is +1 exactly when its uniform u is below p: p = u gives -1,
    the next double above u gives +1, in the first block and in later ones."""
    N = 30
    n = _BLOCK // N + 2
    for counter in (0, 7, 29, (_BLOCK // N) * N + 4, n * N - 1):
        u = float(reference_uniforms(seed, np.array([counter], dtype=np.uint64))[0])
        path, step = divmod(counter, N)
        for p, move in ((u, -1), (float(np.nextafter(u, 1.0)), 1)):
            paths = simulate_walk(N, p, n, seed).paths
            assert paths[path, step + 1] - paths[path, step] == move, (counter, p)


@pytest.mark.parametrize("N, dtype", [(127, np.int8), (128, np.int16)])
def test_walk_paths_take_the_narrowest_type_holding_minus_n_to_n(N, dtype):
    # p = 0 and p = 1 reach both ends of [-N, N].
    for p in (0, 1, Fraction(1, 3)):
        got = simulate_walk(N, p, 300, 7).paths
        assert got.dtype == dtype, p
        assert np.array_equal(got, reference_simulate_walk(N, float(Fraction(p)), 300, 7)), p


@pytest.mark.parametrize("L, dtype", [(7, np.int8), (8, np.int16), (15, np.int16), (16, np.int32),
                                      (31, np.int32), (32, np.int64), (60, np.int64)])
def test_doubling_paths_take_the_narrowest_type_holding_the_wealth(L, dtype):
    # p = 0 exhausts every budget, so the wealth reaches its least value 1 - 2**L.
    for p in (0, 1, Fraction(1, 2)):
        got = simulate_doubling_strategy(0, L, p, 300, 7)[0].paths
        assert got.dtype == dtype, p
        assert np.array_equal(got, reference_doubling_paths(L, float(Fraction(p)), 300, 7)), p


def test_functionals_give_the_same_samples_on_narrow_and_int64_paths():
    """Every package functional widens before its arithmetic: at N = 127 and
    p in {0, 1}, X_N**2 taken in int8 would wrap."""
    ensembles = [simulate_walk(30, Fraction(1, 3), 3000, 8).paths,
                 simulate_walk(127, 1, 5, 8).paths, simulate_walk(127, 0, 5, 8).paths,
                 simulate_doubling_strategy(0, 10, Fraction(1, 2), 3000, 8)[0].paths]
    functionals = (Functional.terminal(), Functional.terminal_square(),
                   Functional.upcrossings(-1, 1),
                   Functional.stopped(lambda prefix: abs(prefix[-1]) >= 2, "first exit of (-2, 2)"))
    for paths in ensembles:
        assert paths.dtype != np.int64
        wide = paths.astype(np.int64)
        for functional in functionals:
            narrow_samples = functional.apply_to_paths(paths)
            assert narrow_samples.dtype == np.float64
            assert narrow_samples.tobytes() == functional.apply_to_paths(wide).tobytes(), (
                paths.dtype, paths.shape, functional.kind)
    assert Functional.terminal_square().apply_to_paths(ensembles[2]).tolist() == [127.0 ** 2] * 5


def test_sampling_temporaries_stay_block_sized():
    """Peak traced memory while sampling is little more than the returned
    paths (n * (horizon + 1) cells of the narrowest type: int8 for this walk,
    int16 for this doubling), however many paths there are."""
    n, p = 200_000, Fraction(1, 3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        simulate_walk(30, p, n, 5)
        walk_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        simulate_doubling_strategy(0, 10, p, n, 5)
        doubling_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk_peak / (n * 30) <= 2  # the int8 paths alone take 1.03 B per path-step
    assert doubling_peak / (n * 10) <= 5  # 2.2 for the int16 paths alone


# ---------------------------------------------------------------------------
# walk simulation


def test_walk_paths_are_unit_increment_walks():
    ens = simulate_walk(9, Fraction(1, 2), n_paths=500, seed=3)
    assert ens.paths.shape == (500, 10)
    assert not ens.paths[:, 0].any()
    steps = np.diff(ens.paths, axis=1)
    assert set(np.unique(steps).tolist()) <= {-1, 1}


def test_walk_determinism_and_seed_sensitivity():
    a = simulate_walk(6, Fraction(1, 2), n_paths=300, seed=11)
    b = simulate_walk(6, Fraction(1, 2), n_paths=300, seed=11)
    c = simulate_walk(6, Fraction(1, 2), n_paths=300, seed=12)
    assert (a.paths == b.paths).all()
    assert (a.paths != c.paths).any()


def test_walk_prefix_stability_under_path_count():
    """Counters are indexed by (path, step), so path i never depends on n_paths."""
    small = simulate_walk(7, Fraction(1, 3), n_paths=50, seed=21)
    large = simulate_walk(7, Fraction(1, 3), n_paths=400, seed=21)
    assert (large.paths[:50] == small.paths).all()


def test_walk_bias_matches_p():
    ens = simulate_walk(1, Fraction(1, 5), n_paths=200000, seed=5)
    frac_up = float((ens.paths[:, 1] == 1).mean())
    assert abs(frac_up - 0.2) < 0.005


def test_ensemble_is_read_only():
    ens = simulate_walk(3, Fraction(1, 2), n_paths=10, seed=1)
    with pytest.raises(ValueError):
        ens.paths[0, 0] = 5


def test_walk_input_validation():
    with pytest.raises(ValueError):
        simulate_walk(0, Fraction(1, 2), n_paths=10, seed=1)
    with pytest.raises(ValueError):
        simulate_walk(3, Fraction(3, 2), n_paths=10, seed=1)
    with pytest.raises(ValueError):
        simulate_walk(3, Fraction(1, 2), n_paths=0, seed=1)


# ---------------------------------------------------------------------------
# doubling simulation


def test_doubling_terminal_outcomes_are_win_or_wipeout():
    L = 5
    ens, rep = simulate_doubling_strategy(0, L, Fraction(1, 2), n_paths=4000, seed=2)
    terminal = ens.paths[:, -1]
    assert set(np.unique(terminal).tolist()) <= {1, -(2**L - 1)}
    assert rep.profit_on_win == 1
    assert rep.loss_on_exhaustion == 2**L - 1
    wins = float((terminal == 1).mean())
    assert abs(wins - rep.win_frequency) < 1e-12


def test_doubling_wealth_trajectory_shape():
    """While losing, wealth after j steps is exactly -(2^j - 1)."""
    ens, _ = simulate_doubling_strategy(0, 4, Fraction(1, 100), n_paths=200, seed=8)
    losing = ens.paths[ens.paths[:, -1] != 1]
    assert losing.shape[0] > 0
    for j in range(5):
        assert set(np.unique(losing[:, j]).tolist()) == {-(2**j - 1)}


def test_doubling_win_frequency_near_formula():
    L = 6
    _, rep = simulate_doubling_strategy(0, L, Fraction(1, 2), n_paths=100000, seed=13)
    expect = 1 - Fraction(1, 2) ** L
    assert abs(rep.win_frequency - float(expect)) < 4 * rep.win_frequency_std_error + 1e-9


def test_doubling_level_cap():
    with pytest.raises(ValueError):
        simulate_doubling_strategy(0, MAX_DOUBLING_LEVELS + 1, Fraction(1, 2),
                                   n_paths=10, seed=1)


# ---------------------------------------------------------------------------
# functionals


def test_terminal_functionals():
    ens = simulate_walk(4, Fraction(1, 2), n_paths=1000, seed=17)
    t = estimate_functional(ens, Functional.terminal())
    sq = estimate_functional(ens, Functional.terminal_square())
    assert abs(t.mean - float(ens.paths[:, -1].mean())) < 1e-12
    assert abs(sq.mean - float((ens.paths[:, -1] ** 2).mean())) < 1e-12
    assert t.ci95[0] <= t.mean <= t.ci95[1]


def test_stopped_functional_censors_at_horizon():
    ens = simulate_walk(6, Fraction(1, 2), n_paths=2000, seed=19)

    def first_hit_one(prefix):
        return prefix[-1] == 1

    est = estimate_functional(ens, Functional.stopped(first_hit_one, "hit +1"))
    by_hand = []
    for row in ens.paths:
        t = next((n for n in range(1, 7) if row[n] == 1), 6)
        by_hand.append(row[t])
    assert abs(est.mean - float(np.mean(by_hand))) < 1e-12


def test_stopped_rule_sees_prefix_only():
    ens = simulate_walk(5, Fraction(1, 2), n_paths=50, seed=23)
    seen = []

    def spy(prefix):
        seen.append(list(prefix))
        return False

    estimate_functional(ens, Functional.stopped(spy, "never"))
    assert len(seen) == 50 * 6
    # The rule never fires, so it is asked at t = 0..5 of each path in turn.
    for i, prefix in enumerate(seen):
        path, t = divmod(i, 6)
        assert prefix == ens.paths[path, : t + 1].tolist()


def test_stopped_functional_can_stop_at_time_zero():
    ens = simulate_walk(4, Fraction(1, 2), n_paths=30, seed=37)
    est = estimate_functional(ens, Functional.stopped(lambda pre: True, "now"))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_stopped_requires_callable():
    with pytest.raises(TypeError):
        Functional.stopped("not a rule", "label")


def test_upcrossing_functional_matches_scalar_counter():
    ens = simulate_walk(8, Fraction(1, 2), n_paths=400, seed=29)
    est = estimate_functional(ens, Functional.upcrossings(-1, 1))
    by_hand = [count_upcrossings(tuple(int(v) for v in row), -1, 1)
               for row in ens.paths]
    assert abs(est.mean - float(np.mean(by_hand))) < 1e-12


def test_functional_interval_validation():
    with pytest.raises(ValueError):
        Functional.upcrossings(2, 1)


def test_path_and_paths_descriptions_agree_on_every_path():
    _, walk = WalkModel(6, Fraction(1, 3)).exact()
    paths = list(zip(*(rv.values for rv in walk.values)))
    array = np.array(paths, dtype=np.int64)
    assert array.shape == (64, 7)
    for functional in (Functional.terminal(), Functional.terminal_square(),
                       Functional.upcrossings(-1, 1),
                       Functional.stopped(lambda prefix: prefix[-1] == 2, "first hit of 2")):
        samples = functional.apply_to_paths(array)
        assert samples.dtype == np.float64 and samples.shape == (64,)
        for r, path in enumerate(paths):
            assert samples[r] == float(functional.apply_to_path(path)), (functional.kind, r)


def test_estimate_single_path_has_zero_se():
    ens = simulate_walk(3, Fraction(1, 2), n_paths=1, seed=31)
    est = estimate_functional(ens, Functional.terminal())
    assert est.std_error == 0.0
    assert est.ci95 == (est.mean, est.mean)


# ---------------------------------------------------------------------------
# the exact doubling model


def test_exact_doubling_profit_zero_when_fair():
    for L in (1, 3, 7):
        _, P, _, _, _, wealth = exact_doubling_process(L, Fraction(1, 2))
        assert expectation(wealth.values[-1], P) == 0


def test_exact_doubling_profit_formula_l1():
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
        _, P, _, _, _, wealth = exact_doubling_process(1, p)
        assert expectation(wealth.values[-1], P) == 2 * p - 1


def test_exact_doubling_wealth_is_transform_of_price():
    L = 4
    _, P, F, price, C, wealth = exact_doubling_process(L, Fraction(2, 5))
    again = transform(C, price)
    for n in range(L + 1):
        assert again.values[n].values == wealth.values[n].values


def test_exact_doubling_stakes_match_the_bit_rule():
    """The stakes are built on their nodes and skip the public checks: the public
    constructor builds the same stakes from the bit rule, with the same nodes, and
    the wealth is the outcome-loop transform of the rebuilt stakes, types included."""
    for L in range(1, 11):
        space, _, F, price, C, wealth = exact_doubling_process(L, Fraction(1, 2))
        assert [rv.values for rv in C.values] == reference_doubling_stakes(L)
        rebuilt = PredictableSequence(
            F, [RandomVariable(space, row) for row in reference_doubling_stakes(L)])
        assert repr(C) == repr(rebuilt)
        assert C.nodes == F.nodes(rv.values for rv in C.values) == rebuilt.nodes
        again = reference_transform(rebuilt, price)
        assert repr(wealth) == repr(again)
        assert (wealth.nodes, wealth.scaled) == (again.nodes, again.scaled)


def test_exact_doubling_is_martingale_when_fair():
    _, P, _, _, _, wealth = exact_doubling_process(6, Fraction(1, 2))
    assert classify(wealth, P).is_martingale


def test_exact_doubling_win_frequency():
    L = 8
    space, P, _, _, _, wealth = exact_doubling_process(L, Fraction(1, 2))
    win_mass = sum(
        (P.weights[i] for i in range(space.size)
         if wealth.values[-1].values[i] == 1),
        start=Fraction(0),
    )
    assert win_mass == 1 - Fraction(1, 2) ** L == Fraction(255, 256)


# ---------------------------------------------------------------------------
# cross-validation


def test_exact_functional_value_walk_terminal():
    assert exact_functional_value(WalkModel(8, Fraction(1, 2)),
                                  Functional.terminal()) == 0
    assert exact_functional_value(WalkModel(8, Fraction(1, 2)),
                                  Functional.terminal_square()) == 8
    v = exact_functional_value(WalkModel(5, Fraction(1, 3)),
                               Functional.terminal())
    assert v == 5 * (2 * Fraction(1, 3) - 1)


def test_exact_functional_value_respects_walk_cap():
    from mglab import SizeLimitError

    with pytest.raises(SizeLimitError):
        exact_functional_value(WalkModel(24, Fraction(1, 2)), Functional.terminal())


def test_exact_side_respects_level_cap():
    from mglab import SizeLimitError

    model = DoublingModel(21, Fraction(1, 2))
    with pytest.raises(SizeLimitError, match="simulate_doubling_strategy"):
        exact_functional_value(model, Functional.terminal())
    with pytest.raises(SizeLimitError, match="simulate_doubling_strategy"):
        cross_validate(model, Functional.terminal(), n_paths=100, seed=1)


def test_cross_validate_fair_walk():
    rep = cross_validate(WalkModel(6, Fraction(1, 2)), Functional.terminal(),
                         n_paths=20000, seed=4)
    assert rep.exact_value == 0
    assert rep.passed and abs(rep.z_score) <= 4
    assert rep.n_paths == 20000 and rep.seed == 4


def test_cross_validate_doubling_profit():
    rep = cross_validate(DoublingModel(5, Fraction(1, 2)), Functional.terminal(),
                         n_paths=20000, seed=6)
    assert rep.exact_value == 0
    assert rep.passed


def test_cross_validate_zero_se_requires_exact_match():
    rep = cross_validate(WalkModel(3, Fraction(1)), Functional.terminal(),
                         n_paths=500, seed=5)
    assert rep.std_error == 0.0 and rep.exact_value == 3
    assert rep.passed and rep.z_score == 0.0


def test_cross_validate_upcrossing_functional():
    rep = cross_validate(WalkModel(7, Fraction(1, 2)), Functional.upcrossings(-1, 1),
                         n_paths=20000, seed=8)
    assert rep.passed, (rep.exact_value, rep.mc_mean, rep.z_score)


def test_cross_validate_stopped_functional():
    def hit_two(prefix):
        return prefix[-1] == 2

    rep = cross_validate(WalkModel(6, Fraction(1, 2)),
                         Functional.stopped(hit_two, "first hit of +2"),
                         n_paths=20000, seed=10)
    assert rep.passed, (rep.exact_value, rep.mc_mean, rep.z_score)


def test_model_validation():
    with pytest.raises(ValueError):
        WalkModel(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        DoublingModel(3, Fraction(7, 5))
