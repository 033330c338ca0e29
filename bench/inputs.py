"""Seeded inputs for the three workloads.

Everything the package receives is drawn here from ``random.Random(seed)``:
the stake values, hitting levels and caps, upcrossing intervals, tail
windows and epsilons, the plain variable, the Monte Carlo seeds and level
budgets.  The same seed gives the same inputs.  The
values are plain ints and Fractions; turning them into package objects is
the workloads' set-up, which is timed.
"""
from __future__ import annotations

import random
from fractions import Fraction

import oracle

P_VALUES = (Fraction(1, 2), Fraction(1, 3))
STAKE_BOUND = 3
EPSILONS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))


def exact_case(rng: random.Random, N: int, p: Fraction) -> dict:
    """Inputs for every exact check on one coin-walk model.

    Stakes are non-negative and bounded, which the transform hypothesis
    accepts for p = 1/2 (martingale) and p = 1/3 (supermartingale) alike.
    The stopping time is a first-hit time capped at a seeded step, so it is
    bounded and optional stopping applies.  The Kolmogorov candidate is the
    oracle's own conditional expectation, so the identity must hold.

    The seed picks values, not amounts of work: the stake bound and the two
    conditioning stages are fixed by N, since the share of zero stakes and
    the atom counts of the stages set how much arithmetic a check does.
    """
    walk = oracle.CoinWalk(N, p)
    size = walk.size
    bound = STAKE_BOUND
    stakes = []
    for k in range(N):  # C_{k+1} is fixed on each stage-k atom
        per_atom = [rng.randint(0, bound) for _ in range(1 << k)]
        stakes.append([per_atom[i >> (N - k)] for i in range(size)])
    level = rng.choice((-3, -2, -1, 1, 2, 3))
    cap = rng.randint(max(1, N - 3), N)
    tau = walk.hitting_time(level, cap)
    a = rng.choice((-2, -1, 0))
    b = a + rng.choice((1, 2))
    window = rng.choice((2, 3, 4))
    eps = rng.choice(EPSILONS)
    variable = [rng.randint(-9, 9) for _ in range(size)]
    g, h = max(1, N // 3), max(2, 2 * N // 3)
    return {
        "N": N,
        "p": p,
        "walk": walk,
        "bound": bound,
        "stakes": stakes,
        "level": level,
        "cap": cap,
        "tau": tau,
        "interval": (a, b),
        "window": window,
        "epsilon": eps,
        "variable": variable,
        "g": g,
        "h": h,
        "candidate": walk.cond_exp(variable, g),
    }


def exact_expected(case: dict) -> dict:
    """The oracle's answer for every exact check of one case."""
    walk, tau, variable = case["walk"], case["tau"], case["variable"]
    a, b = case["interval"]
    g, h = case["g"], case["h"]
    return {
        "classify": oracle.expected_classify(walk),
        "transform": oracle.expected_transform(walk, case["stakes"], case["bound"]),
        "stopped_values": oracle.stopped_values(walk, tau),
        "stopped_label": oracle.stopped_label(walk, tau),
        "optional_stopping": oracle.expected_optional_stopping(walk, tau),
        "upcrossing": oracle.expected_upcrossing(walk, a, b),
        "pythagoras": oracle.expected_pythagoras(walk),
        "tail_bound": oracle.expected_tail_bound(walk, tau, case["window"], case["epsilon"]),
        "conditional": case["candidate"],
        "tower": oracle.tower_holds(walk, variable, g, h),
        "kolmogorov": oracle.kolmogorov_holds(walk, variable, g, case["candidate"]),
    }


def exact_cases(seed: int, N: int) -> list[dict]:
    rng = random.Random(seed)
    return [exact_case(rng, N, p) for p in P_VALUES]


def summary(case: dict) -> dict:
    """The seeded parameters of a case, for the results record."""
    keys = ("N", "p", "bound", "level", "cap", "interval", "window", "epsilon", "g", "h")
    return {k: str(case[k]) if isinstance(case[k], Fraction) else case[k] for k in keys}


def spec_extras(case: dict) -> dict:
    """The seeded fields the benchmark adds to a walk spec, JSON-ready."""
    walk = case["walk"]
    return {
        "predictable": case["stakes"],
        "bound": case["bound"],
        "stopping_time": case["tau"],
        "interval": list(case["interval"]),
        "window": case["window"],
        "epsilon": str(case["epsilon"]),
        "variable": case["variable"],
        "conditioning": walk.atoms(case["g"]),
        "conditioning_fine": walk.atoms(case["h"]),
        "candidate": [str(v) for v in case["candidate"]],
    }


def mc_case(rng: random.Random, p: Fraction, sizes: dict) -> dict:
    """Inputs for one Monte Carlo block (one p value).

    The seed picks values, never amounts of work: the doubling budget sets
    its path count so that paths x levels is fixed, and the first-hit
    functional always runs once for each of the levels -3 and +3.
    """
    levels = rng.randint(8, 12)
    a = rng.choice((-2, -1, 0))
    b = a + rng.choice((1, 2))
    seeds = {k: rng.getrandbits(62)
             for k in ("walk", "doubling", "stop-3", "stop3", "cv_walk", "cv_doubling")}
    return {
        "p": p,
        **sizes,
        "levels": levels,
        "doubling_paths": sizes["doubling_path_steps"] // levels,
        "interval": (a, b),
        "hits": (-3, 3),
        "cv_walk_n": 12,
        "cv_doubling_levels": 10,
        "seeds": seeds,
    }


def mc_expected(case: dict) -> dict:
    """Exact values every estimate of one Monte Carlo block is tested against."""
    p, horizon, (a, b) = case["p"], case["horizon"], case["interval"]
    mean, square = oracle.walk_terminal_moments(horizon, p)
    d_mean, _, d_win = oracle.doubling_moments(case["levels"], p)
    return {
        "terminal": mean,
        "terminal-square": square,
        "upcrossings": oracle.walk_expected_upcrossings(horizon, p, a, b),
        "stopped": {h: oracle.walk_first_hit_value(horizon, p, h) for h in case["hits"]},
        "doubling_mean": d_mean,
        "doubling_win": d_win,
        "cv_walk": oracle.walk_expected_upcrossings(case["cv_walk_n"], p, a, b),
        "cv_doubling": oracle.doubling_moments(case["cv_doubling_levels"], p)[0],
    }


def mc_cases(seed: int, sizes: dict) -> list[dict]:
    rng = random.Random(seed)
    return [mc_case(rng, p, sizes) for p in P_VALUES]


def mc_summary(case: dict) -> dict:
    keys = ("p", "horizon", "n_paths", "stop_paths", "cv_paths", "levels", "doubling_paths",
            "interval", "hits", "seeds")
    return {k: str(case[k]) if isinstance(case[k], Fraction) else case[k] for k in keys}
