"""Seeded path simulation and statistical cross-checks of the exact engine.

The exact modules stop at 2**20 outcomes; this one picks up from there.
Streams are counter-based: the value used for path i at step t is a hash of
(master seed, i * horizon + t), so an ensemble is a pure function of its
parameters and any single path can be regenerated in isolation.  The samplers
hash blocks of about 2**15 counters, whose temporaries stay in cache, and the
stream is the same however it is blocked.  A step is up when its hash's top 53
bits k are below ceil(p * 2**53), which is exactly u < p for u = k * 2**-53.

The hash is the splitmix64 finalizer applied twice.  One round is the
standard splitmix64 output stage and shows measurable bias when driven by
sequential counters; the second round removes it (a 400-seed z-test battery
against exact walk moments showed worst |z| = 4.96 with one round and 2.77
with two).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .integration import weighted_sum
from .measure import ProbabilityMeasure, SampleSpace
from .numeric import Number, as_exact, as_number, format_number
from .processes import (
    AdaptedProcess,
    Filtration,
    PredictableSequence,
    _interval,
    _walk_probability,
    count_upcrossings,
    make_coin_walk,
    transform,
)

_MASK64 = (1 << 64) - 1
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Cells per block: one block's hash temporaries stay in a core's L2 cache.
_BLOCK = 1 << 15
# Rows per upcrossing-scan tile: enough to outweigh each numpy call's fixed cost.
_TILE_ROWS = 1 << 11

# Stakes double at every level, so wealth spans +-(2**levels); keep clear of
# int64 range.
MAX_DOUBLING_LEVELS = 60


def _hash53_in_place(z: np.ndarray, scratch: np.ndarray) -> None:
    """Turn z = seed + counter * gold into the k of its uniform k * 2**-53."""
    for _ in range(2):
        z += _GOLD
        z ^= np.right_shift(z, np.uint64(30), out=scratch)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=scratch)
        z *= _MIX2
        z ^= np.right_shift(z, np.uint64(31), out=scratch)
    z >>= np.uint64(11)


def _coin_blocks(seed: int, n_paths: int, horizon: int, p: float):
    """Yield (r0, up) per block of rows: up[i, j] is u < p for path r0 + i at
    step j, in a buffer that the next block overwrites."""
    threshold = np.uint64(math.ceil(p * 2.0 ** 53))
    rows = min(max(1, _BLOCK // horizon), n_paths)
    offsets = np.arange(rows * horizon, dtype=np.uint64) * _GOLD
    z, scratch, up = np.empty_like(offsets), np.empty_like(offsets), np.empty(offsets.shape, bool)
    for r0 in range(0, n_paths, rows):
        n = (min(r0 + rows, n_paths) - r0) * horizon
        np.add(offsets[:n], np.uint64((seed + r0 * horizon * int(_GOLD)) & _MASK64), out=z[:n])
        _hash53_in_place(z[:n], scratch[:n])
        np.less(z[:n], threshold, out=up[:n])
        yield r0, up[:n].reshape(-1, horizon)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """An immutable batch of simulated trajectories.

    ``paths`` has shape (n_paths, horizon + 1) with column t holding the
    value at time t; rebuilding with the same model_id parameters and
    master_seed reproduces it bit for bit.  Its dtype is the narrowest signed
    integer type holding the model's value range; widen with
    ``.astype(np.int64)`` before arithmetic that can leave that range.
    """

    model_id: str
    n_paths: int
    horizon: int
    master_seed: int
    paths: np.ndarray

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("an ensemble needs at least one path")
        if self.paths.shape != (self.n_paths, self.horizon + 1):
            raise ValueError(
                f"paths array has shape {self.paths.shape}, expected "
                f"({self.n_paths}, {self.horizon + 1})"
            )
        self.paths.setflags(write=False)


@dataclass(frozen=True)
class EstimateReport:
    """Sample mean with its uncertainty: std_error = sample std / sqrt(n),
    ci95 = mean +- 1.96 * std_error."""

    mean: float
    std_error: float
    ci95: tuple[float, float]
    n_paths: int


@dataclass(frozen=True)
class DoublingProfitReport(EstimateReport):
    """Terminal-profit estimate for the doubling strategy, plus the numbers
    that make the strategy's pitch transparent.

    ``win_frequency`` estimates how often an episode ends on the rebound
    (terminal profit +1, the ``profit_on_win``); the complementary event
    costs ``loss_on_exhaustion``.  A high win frequency with a mean near
    zero is the whole story: the profit conditional on winning is small and
    the rare exhausted-budget loss is large.
    """

    win_frequency: float
    win_frequency_std_error: float
    profit_on_win: int
    loss_on_exhaustion: int


def _report(samples: np.ndarray) -> EstimateReport:
    n = samples.shape[0]
    mean = float(np.mean(samples))
    se = 0.0
    if n > 1:
        se = float(np.std(samples, ddof=1)) / math.sqrt(n)
    return EstimateReport(
        mean=mean,
        std_error=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        n_paths=n,
    )


def _doubling_probability(n_levels, p_up) -> Fraction:
    """Check a doubling episode's level budget; return its up-move probability."""
    if not isinstance(n_levels, int) or isinstance(n_levels, bool) or n_levels < 1:
        raise ValueError("n_levels must be a positive integer")
    if n_levels > MAX_DOUBLING_LEVELS:
        raise ValueError(
            f"n_levels past {MAX_DOUBLING_LEVELS} overflows 64-bit wealth; this strategy "
            "is already ruinous well before that"
        )
    p = Fraction(as_exact(p_up))
    if not 0 <= p <= 1:
        raise ValueError(f"up-move probability must lie in [0, 1], got {p}")
    return p


def _narrowest_int(lo: int, hi: int) -> type:
    """The narrowest signed numpy integer type holding every value in [lo, hi]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def simulate_walk(N: int, p_heads, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the +-1 walk: i.i.d. steps, +1 with probability ``p_heads``.

    Column 0 is the starting value 0.  Unlike the exact builder this has no
    horizon cap; it exists exactly for the sizes enumeration cannot reach.
    """
    p = float(_walk_probability(N, p_heads))
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    dt = _narrowest_int(-N, N)
    paths = np.zeros((n_paths, N + 1), dtype=dt)
    buffer = np.empty(max(_BLOCK, N), dtype=dt)  # no block holds more cells
    for r0, up in _coin_blocks(seed, n_paths, N, p):
        steps = buffer[: up.size].reshape(up.shape)
        np.multiply(up, dt(2), out=steps)
        steps -= 1
        np.cumsum(steps, axis=1, dtype=dt, out=paths[r0 : r0 + len(up), 1:])
    return PathEnsemble(
        model_id=f"walk(N={N},p={format_number(as_number(p_heads))})",
        n_paths=n_paths,
        horizon=N,
        master_seed=seed,
        paths=paths,
    )


def simulate_doubling_strategy(
    entry_price, n_levels: int, p_up, n_paths: int, seed: int
) -> tuple[PathEnsemble, DoublingProfitReport]:
    """Play the double-after-every-loss strategy and report terminal profit.

    The formalized episode: buy one share at the entry price; every one-point
    drop to a new low doubles the total position (adding 1, 2, 4, ...
    shares); the episode ends at the first one-point rebound, which clears
    the accumulated loss and banks exactly +1, or after ``n_levels``
    consecutive drops when the budget is exhausted, for a loss of
    2**n_levels - 1.  Equivalently: wealth is the martingale transform of
    the price walk by the predictable stakes 2**(j-1) * 1{no rebound yet}.

    Paths hold the wealth relative to entry (wealth, not price; the entry
    price only shifts the narrative), frozen at +1 once the rebound happens.
    Returns the ensemble and a terminal-profit report that also carries the
    win frequency, since "wins almost always" and "makes nothing on
    average" are both true and only together describe the strategy.
    """
    p = float(_doubling_probability(n_levels, p_up))
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")

    # Wealth is 1 - 2**j after j straight drops and +1 from the first rebound on.
    dt = _narrowest_int(1 - 2 ** n_levels, 1)
    losses = (1 - np.left_shift(1, np.arange(1, n_levels + 1, dtype=np.int64))).astype(dt)
    paths = np.zeros((n_paths, n_levels + 1), dtype=dt)
    for r0, up in _coin_blocks(seed, n_paths, n_levels, p):
        np.logical_or.accumulate(up, axis=1, out=up)
        block = paths[r0 : r0 + len(up), 1:]
        block[...] = losses
        np.copyto(block, 1, where=up)

    ensemble = PathEnsemble(
        model_id=(
            f"doubling(levels={n_levels},p={format_number(as_number(p_up))},"
            f"entry={format_number(as_number(entry_price))})"
        ),
        n_paths=n_paths,
        horizon=n_levels,
        master_seed=seed,
        paths=paths,
    )

    wins = _report((paths[:, -1] > 0).astype(np.float64))
    report = DoublingProfitReport(
        **vars(_report(paths[:, -1].astype(np.float64))),
        win_frequency=wins.mean,
        win_frequency_std_error=wins.std_error,
        profit_on_win=1,
        loss_on_exhaustion=2 ** n_levels - 1,
    )
    return ensemble, report


# ---------------------------------------------------------------------------
# Pathwise functionals


@dataclass(frozen=True)
class Functional:
    """A named pathwise map, described once for both engines.

    ``apply_to_path`` evaluates one trajectory exactly: ints and Fractions
    in, an exact value out.  ``apply_to_paths`` maps a signed integer array
    of any width and shape (n_paths, horizon + 1) to one float64 sample per
    row.  The factory classmethods build both from one definition.  ``kind``
    names the family, for tracing and as the fallback label.

    Stopping rules receive the path prefix (values up to and including the
    current time) and nothing else, so a rule cannot peek at the future by
    construction; it must return True to stop.  A rule that never fires is
    censored at the horizon.  The prefix is one list per path that grows in
    place: a rule reads it and must not keep or modify it.
    """

    kind: str
    label: str
    apply_to_path: Callable[[Sequence], Number]
    apply_to_paths: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def terminal(cls) -> "Functional":
        return cls("terminal", "terminal value", lambda path: path[-1],
                   lambda paths: paths[:, -1].astype(np.float64))

    @classmethod
    def terminal_square(cls) -> "Functional":
        return cls("terminal-square", "terminal square", lambda path: path[-1] * path[-1],
                   lambda paths: paths[:, -1].astype(np.float64) ** 2)

    @classmethod
    def stopped(cls, rule: Callable[[list], bool], label: str = "stopped value") -> "Functional":
        if not callable(rule):
            raise TypeError(
                "a stopping rule must be a callable taking the path prefix; anything else "
                "cannot respect the stopping-time definition"
            )

        def on_path(path: Sequence) -> Number:
            prefix: list = []
            for v in path:
                prefix.append(v)
                if rule(prefix):
                    return v
            return path[-1]

        # The rule is arbitrary prefix-measurable code, so it runs path by
        # path, on Python ints.
        def on_paths(paths: np.ndarray) -> np.ndarray:
            return np.fromiter((float(on_path(row.tolist())) for row in paths),
                               dtype=np.float64, count=paths.shape[0])

        return cls("stopped", label, on_path, on_paths)

    @classmethod
    def upcrossings(cls, a, b) -> "Functional":
        a, b = _interval(a, b)
        return cls("upcrossings", f"upcrossings of [{a}, {b}]",
                   lambda path: count_upcrossings(path, a, b),
                   lambda paths: _upcrossings_vectorized(paths, a, b).astype(np.float64))


def _upcrossings_vectorized(paths: np.ndarray, a, b) -> np.ndarray:
    """Per-path upcrossing counts via the same two-state scan, columnwise.

    armed[t] = (armed[t-1] and X_t < b) or X_t <= a; as a < b, an upcrossing
    completes exactly where armed falls to False.  Tiles of about _BLOCK cells
    are scanned transposed; row 0 of a tile's state comes from the tile before.
    """
    a = float(a)
    b = float(b)
    n_paths, width = paths.shape
    counts = np.zeros(n_paths, dtype=np.int64)
    # One set of buffers per call; a tile never holds more than _BLOCK cells.
    tile_buf, held_buf = np.empty(_BLOCK), np.empty(_BLOCK, dtype=bool)
    armed_buf, row_counts = np.empty(_BLOCK + _TILE_ROWS, dtype=bool), np.empty(_TILE_ROWS, int)
    for r0 in range(0, n_paths, _TILE_ROWS):
        rows = paths[r0 : r0 + _TILE_ROWS]
        n = len(rows)
        cols = _BLOCK // n
        armed_buf[:n] = False
        for c0 in range(0, width, cols):
            k = min(cols, width - c0)
            # float64 is the type the comparisons with a and b cast to anyway
            tile = tile_buf[: k * n].reshape(k, n)
            tile[...] = rows[:, c0 : c0 + k].T
            armed = armed_buf[: (k + 1) * n].reshape(k + 1, n)
            np.less_equal(tile, a, out=armed[1:])
            held = np.less(tile, b, out=held_buf[: k * n].reshape(k, n))
            for t in range(k):
                held[t] &= armed[t]
                armed[t + 1] |= held[t]
            falls = np.greater(armed[:-1], armed[1:], out=held)
            counts[r0 : r0 + n] += np.add.reduce(falls, axis=0, out=row_counts[:n])
            armed[0] = armed[k]  # the next column tile starts from this state
    return counts


def estimate_functional(ensemble: PathEnsemble, functional: Functional) -> EstimateReport:
    """Sample statistics of ``functional.apply_to_paths`` over the ensemble."""
    return _report(functional.apply_to_paths(ensemble.paths))


# ---------------------------------------------------------------------------
# Exact twins and cross-validation


@dataclass(frozen=True)
class WalkModel:
    """Parameters of the +-1 coin walk, shared by both engines."""

    horizon: int
    p_heads: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p_heads", _walk_probability(self.horizon, self.p_heads))

    def exact(self) -> tuple[ProbabilityMeasure, AdaptedProcess]:
        """The measure and the walk on the exact engine (horizon cap applies)."""
        _, P, _, walk = make_coin_walk(self.horizon, self.p_heads)
        return P, walk

    def simulate(self, n_paths: int, seed: int) -> PathEnsemble:
        return simulate_walk(self.horizon, self.p_heads, n_paths, seed)


@dataclass(frozen=True)
class DoublingModel:
    """Parameters of the doubling-strategy episode, shared by both engines."""

    n_levels: int
    p_up: Fraction
    entry_price: Number = 0

    def __post_init__(self):
        object.__setattr__(self, "p_up", _doubling_probability(self.n_levels, self.p_up))
        object.__setattr__(self, "entry_price", as_number(self.entry_price))

    def exact(self) -> tuple[ProbabilityMeasure, AdaptedProcess]:
        """The measure and the wealth on the exact engine (the walk's horizon cap applies)."""
        _, P, _, _, _, wealth = exact_doubling_process(self.n_levels, self.p_up)
        return P, wealth

    def simulate(self, n_paths: int, seed: int) -> PathEnsemble:
        ensemble, _ = simulate_doubling_strategy(
            self.entry_price, self.n_levels, self.p_up, n_paths, seed
        )
        return ensemble


def exact_doubling_process(
    n_levels: int, p_up
) -> tuple[SampleSpace, ProbabilityMeasure, Filtration, AdaptedProcess, PredictableSequence, AdaptedProcess]:
    """The doubling strategy rebuilt on the exact engine.

    Returns (space, measure, filtration, price, stakes, wealth) where the
    price is the +-1 coin walk on ``n_levels`` flips, the stakes are the
    predictable doubling positions 2**(j-1) while every earlier move was a
    drop (0 after the rebound), built on their one live atom per stage, and
    the wealth is their martingale transform.  Wealth paths here match
    `simulate_doubling_strategy` paths exactly, outcome for outcome.
    """
    space, P, F, price = make_coin_walk(n_levels, _doubling_probability(n_levels, p_up))
    # C_{j+1} is 2**j on stage j's last atom, where the first j flips were all tails,
    # and 0 on the others: one stage-j row each, predictable by construction.
    C = F._expand(PredictableSequence, [(0,) * (2 ** j - 1) + (2 ** j,) for j in range(n_levels)])
    wealth = transform(C, price)
    return space, P, F, price, C, wealth


@dataclass(frozen=True)
class CrossValidationReport:
    """Exact-vs-simulated comparison for one model and functional.

    ``z_score`` is (mc_mean - exact) / std_error.  A zero standard error
    (degenerate model) switches to an exact-match requirement; ``passed``
    is |z| <= 4, chosen loose enough that a healthy generator fails a seed
    only a few times per hundred thousand.
    """

    model_id: str
    functional: str
    exact_value: Number
    mc_mean: float
    std_error: float
    z_score: float
    passed: bool
    n_paths: int
    seed: int


def exact_functional_value(model, functional: Functional) -> Number:
    """Evaluate E[functional] by full enumeration on the exact engine."""
    P, process = model.exact()
    paths = zip(*(rv.values for rv in process.values))
    values = [Fraction(functional.apply_to_path(path)) for path in paths]
    return as_number(weighted_sum(values, P))


def cross_validate(
    model, functional: Functional, n_paths: int = 100_000, seed: int = 0
) -> CrossValidationReport:
    """Run both engines on one functional and gate on |z| <= 4.

    The exact side enumerates every path with rational weights; the Monte
    Carlo side simulates ``n_paths`` trajectories from ``seed``.  With a
    degenerate (zero-variance) estimate the gate becomes exact equality.
    """
    exact = exact_functional_value(model, functional)
    ensemble = model.simulate(n_paths, seed)
    est = estimate_functional(ensemble, functional)
    exact_float = float(exact)
    if est.std_error == 0.0:
        passed = est.mean == exact_float
        z = 0.0 if passed else math.inf
    else:
        z = (est.mean - exact_float) / est.std_error
        passed = abs(z) <= 4.0
    return CrossValidationReport(
        model_id=ensemble.model_id,
        functional=functional.label or functional.kind,
        exact_value=exact,
        mc_mean=est.mean,
        std_error=est.std_error,
        z_score=z,
        passed=passed,
        n_paths=n_paths,
        seed=seed,
    )
