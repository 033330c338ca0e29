"""Exact reference answers for every benchmark check, computed without mglab.

Coin-walk outcomes are indexed the way mglab documents them: outcome ``i`` of
an N-flip walk reads its flips from the binary digits of ``i``, most
significant first, with 0 meaning heads.  With ``p = a/d`` every outcome
carries the integer mass ``a**heads * (d - a)**tails`` over the common
denominator ``d**N``, so the sums below are plain integer arithmetic and only
the final answers become Fractions.  Horizons too long to enumerate (the
Monte Carlo workload's N = 30) go through small dynamic programs on
(position, armed) states instead, again over integer masses.

Nothing here imports mglab: the benchmark judges the package's outputs
against this module, never against the package itself.
"""
from __future__ import annotations

from fractions import Fraction

MARTINGALE = "martingale"
SUPERMARTINGALE = "supermartingale"
SUBMARTINGALE = "submartingale"
STRICT_SUPERMARTINGALE = "strict-supermartingale"
STRICT_SUBMARTINGALE = "strict-submartingale"
UNCLASSIFIED = "none"
SUPER_FAMILY = (MARTINGALE, SUPERMARTINGALE, STRICT_SUPERMARTINGALE)


def label_from_signs(signs: set[int]) -> str:
    """The classification label implied by the set of one-step drift signs."""
    neg, pos, zero = -1 in signs, 1 in signs, 0 in signs
    if not neg and not pos:
        return MARTINGALE
    if neg and pos:
        return UNCLASSIFIED
    if neg:
        return SUPERMARTINGALE if zero else STRICT_SUPERMARTINGALE
    return SUBMARTINGALE if zero else STRICT_SUBMARTINGALE


def sign(x) -> int:
    return (x > 0) - (x < 0)


def upcrossing_step(armed: bool, v, a, b) -> tuple[bool, int]:
    """One step of the upcrossing scan of [a, b]: arm at a visit <= a, count
    (and disarm) at a visit >= b.  Returns the new flag and the increment."""
    if armed:
        return (False, 1) if v >= b else (True, 0)
    return (v <= a), 0


def count_upcrossings(path, a, b) -> int:
    count, armed = 0, False
    for v in path:
        armed, inc = upcrossing_step(armed, v, a, b)
        count += inc
    return count


class CoinWalk:
    """All 2**N paths of the +-1 walk with heads probability ``p``."""

    def __init__(self, N: int, p: Fraction):
        self.N = N
        self.p = Fraction(p)
        self.size = 1 << N
        a, d = self.p.numerator, self.p.denominator
        self.D = d ** N
        self.mass = []
        for i in range(self.size):
            tails = i.bit_count()
            self.mass.append(a ** (N - tails) * (d - a) ** tails)
        # pos[n][i] = X_n on outcome i: heads minus tails among the first n flips.
        self.pos = [
            [n - 2 * (i >> (N - n)).bit_count() for i in range(self.size)]
            for n in range(N + 1)
        ]

    @property
    def drift(self) -> Fraction:
        return 2 * self.p - 1

    def prob(self, mass: int) -> Fraction:
        return Fraction(mass, self.D)

    def expect(self, values) -> Fraction:
        return Fraction(sum(m * v for m, v in zip(self.mass, values)), self.D)

    def block(self, n: int) -> int:
        """Outcomes per stage-n atom; atom j is the index range [j*block, (j+1)*block)."""
        return 1 << (self.N - n)

    def atoms(self, n: int) -> list[list[int]]:
        b = self.block(n)
        return [list(range(s, s + b)) for s in range(0, self.size, b)]

    def path(self, i: int) -> list[int]:
        return [self.pos[n][i] for n in range(self.N + 1)]

    def label(self) -> str:
        return label_from_signs({sign(self.drift)})

    # -- conditioning -------------------------------------------------------

    def cond_exp(self, values, n: int) -> list[Fraction]:
        """E[values | F_n] outcome by outcome (no null atoms when 0 < p < 1)."""
        b = self.block(n)
        out = []
        for s in range(0, self.size, b):
            num = sum(self.mass[i] * values[i] for i in range(s, s + b))
            den = sum(self.mass[s:s + b])
            out.extend([Fraction(num, den)] * b)
        return out

    def atom_integrals(self, values, n: int) -> list[Fraction]:
        b = self.block(n)
        return [
            Fraction(sum(self.mass[i] * values[i] for i in range(s, s + b)), self.D)
            for s in range(0, self.size, b)
        ]

    def measurable(self, values, n: int) -> bool:
        b = self.block(n)
        return all(
            len(set(values[s:s + b])) == 1 for s in range(0, self.size, b)
        )

    # -- stopping -------------------------------------------------------------

    def hitting_time(self, level: int, cap: int) -> list[int]:
        """min(first n with X_n = level, cap), a bounded stopping time."""
        times = []
        for i in range(self.size):
            t = next((n for n in range(cap + 1) if self.pos[n][i] == level), cap)
            times.append(t)
        return times


# ---------------------------------------------------------------------------
# Exact-engine checks (coin walk, enumerated)


def expected_classify(w: CoinWalk) -> dict:
    label = w.label()
    witness = None if label == MARTINGALE else (0, list(range(w.size)))
    return {"label": label, "witness": witness}


def expected_transform(w: CoinWalk, stakes, bound) -> dict:
    """Transform of the walk by non-negative stakes bounded by ``bound``.

    The drift of Y on a stage-k atom is C_{k+1} * (p - q), so the output
    label follows from the stake values alone.
    """
    in_label = w.label()
    claimed = MARTINGALE if in_label == MARTINGALE else SUPERMARTINGALE
    ok = all(0 <= v <= bound for row in stakes for v in row)
    if in_label not in SUPER_FAMILY or not ok:
        raise ValueError("the benchmark only generates stakes the hypothesis accepts")
    signs = {sign(v * w.drift) for row in stakes for v in row}
    out_label = label_from_signs(signs)
    holds = out_label == MARTINGALE if claimed == MARTINGALE else out_label in SUPER_FAMILY
    return {
        "input_label": in_label,
        "claimed_label": claimed,
        "hypothesis_ok": True,
        "hypothesis_failure": None,
        "bound": Fraction(bound),
        "output_label": out_label,
        "step_identity_ok": True,
        "holds": holds,
    }


def stopped_values(w: CoinWalk, tau) -> list[list[int]]:
    return [
        [w.pos[min(tau[i], n)][i] for i in range(w.size)] for n in range(w.N + 1)
    ]


def stopped_label(w: CoinWalk, tau) -> str:
    # On a stage-n atom the stopped walk drifts by 1{tau > n} * (p - q).
    signs = set()
    for n in range(w.N):
        for i in range(w.size):
            signs.add(sign(w.drift) if tau[i] > n else 0)
    return label_from_signs(signs)


def expected_optional_stopping(w: CoinWalk, tau) -> dict:
    label = w.label()
    at_stop = w.expect([w.pos[t][i] for i, t in enumerate(tau)])
    e_tau = w.expect(tau)
    if label == MARTINGALE:
        conclusion, holds = "E[X_tau] = E[X_0]", at_stop == 0
    else:
        conclusion, holds = "E[X_tau] <= E[X_0]", at_stop <= 0
    return {
        "label": label,
        "never_mass": Fraction(0),
        "tau_bounded": True,
        "tau_max": max(tau),
        "tau_finite_almost_surely": True,
        "expected_tau": e_tau,
        "process_bound": w.N,
        "increment_bound": 1,
        "hypothesis_bounded_time": True,
        "hypothesis_bounded_process": True,
        "hypothesis_bounded_increments": True,
        "value_at_stop": at_stop,
        "value_at_start": 0,
        "conclusion": conclusion,
        "holds": holds,
    }


def expected_upcrossing(w: CoinWalk, a, b) -> dict:
    a, b = Fraction(a), Fraction(b)
    label = w.label()
    ok = label in SUPER_FAMILY
    eu = w.expect([count_upcrossings(w.path(i), a, b) for i in range(w.size)])
    neg = w.expect([max(a - v, 0) for v in w.pos[w.N]])
    sup_abs = max(w.expect([abs(v) for v in w.pos[n]]) for n in range(w.N + 1))
    scaled = (b - a) * eu
    corollary = abs(a) + sup_abs
    return {
        "a": a,
        "b": b,
        "label": label,
        "hypothesis_ok": ok,
        "expected_upcrossings": eu,
        "scaled_upcrossings": scaled,
        "negative_part_mean": neg,
        "corollary_bound": corollary,
        "holds": scaled <= neg if ok else None,
        "corollary_holds": scaled <= corollary if ok else None,
    }


def expected_pythagoras(w: CoinWalk) -> dict:
    """Closed forms: E[X_N^2] = 4Npq + N^2 (p - q)^2, sum of squared steps = N,
    and E[(X_t - X_s)(X_v - X_u)] = (t - s)(v - u)(p - q)^2."""
    N, p = w.N, w.p
    q = 1 - p
    lhs = 4 * N * p * q + N * N * (p - q) ** 2
    rhs = Fraction(N)
    martingale = p == q
    return {
        "label": w.label(),
        "hypothesis_ok": martingale,
        "lhs": lhs,
        "rhs": rhs,
        "gap": lhs - rhs,
        "identity_holds": lhs == rhs,
        "orthogonality_ok": martingale,
        "orthogonality_witness": None if martingale else (0, 1, 1, 2),
        "holds": True if martingale else None,
    }


def expected_tail_bound(w: CoinWalk, tau, window: int, eps: Fraction) -> dict:
    N = w.N
    by_step, witness = [], None
    for n in range(0, N - window + 1):
        deadline, b, ok = n + window, w.block(n), True
        for s in range(0, w.size, b):
            mass = sum(w.mass[s:s + b])
            hit = sum(w.mass[i] for i in range(s, s + b) if tau[i] <= deadline)
            if not Fraction(hit, mass) > eps:
                ok = False
                if witness is None:
                    witness = (n, list(range(s, s + b)))
                break
        by_step.append(ok)
    tails = [w.prob(sum(m for m, t in zip(w.mass, tau) if t > x)) for x in range(N + 1)]
    chain, bound = [], Fraction(1)
    for k in range(0, N // window + 1):
        tail = tails[k * window]
        chain.append((k, tail, bound, tail <= bound))
        bound *= 1 - eps
    trunc = w.expect([min(t, N) for t in tau])
    e_bound = Fraction(window) / eps
    return {
        "window": window,
        "epsilon": eps,
        "horizon": N,
        "hypothesis_by_step": by_step,
        "hypothesis_ok": all(by_step),
        "hypothesis_witness": witness,
        "tail_chain": chain,
        "chain_ok": all(c[3] for c in chain),
        "truncated_expectation": trunc,
        "expectation_bound": e_bound,
        "expectation_ok": trunc <= e_bound,
    }


def tower_holds(w: CoinWalk, values, g: int, h: int) -> bool:
    base = w.cond_exp(values, g)
    return w.cond_exp(w.cond_exp(values, h), g) == base and w.cond_exp(base, h) == base


def kolmogorov_holds(w: CoinWalk, values, g: int, candidate) -> bool:
    return w.measurable(candidate, g) and (
        w.atom_integrals(values, g) == w.atom_integrals(candidate, g)
    )


# ---------------------------------------------------------------------------
# Monte Carlo references (long horizons, by dynamic programming)


def _masses(p: Fraction) -> tuple[int, int, int]:
    p = Fraction(p)
    return p.numerator, p.denominator - p.numerator, p.denominator


def walk_terminal_moments(N: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """E[X_N] = N(p - q) and E[X_N^2] = 4Npq + N^2 (p - q)^2."""
    p = Fraction(p)
    q = 1 - p
    return N * (p - q), 4 * N * p * q + N * N * (p - q) ** 2


def walk_expected_upcrossings(N: int, p: Fraction, a, b) -> Fraction:
    """E[U_N[a, b]] by a DP on (position, armed) carrying mass and mass*count."""
    up, down, d = _masses(p)
    armed0, _ = upcrossing_step(False, 0, a, b)
    states = {(0, armed0): (1, 0)}
    for _ in range(N):
        nxt: dict = {}
        for (x, armed), (m, mc) in states.items():
            for step, f in ((1, up), (-1, down)):
                if not f:
                    continue
                v = x + step
                new_armed, inc = upcrossing_step(armed, v, a, b)
                om, omc = nxt.get((v, new_armed), (0, 0))
                nxt[(v, new_armed)] = (om + m * f, omc + (mc + inc * m) * f)
        states = nxt
    return Fraction(sum(mc for _, mc in states.values()), d ** N)


def walk_first_hit_value(N: int, p: Fraction, level: int) -> Fraction:
    """E[X_{min(tau, N)}] with tau the first time the walk equals ``level``."""
    up, down, d = _masses(p)
    if level == 0:
        return Fraction(0)
    alive = {0: 1}
    stopped_mass = 0  # mass (over d**N) of paths frozen at the level
    for t in range(1, N + 1):
        nxt: dict = {}
        for x, m in alive.items():
            for step, f in ((1, up), (-1, down)):
                if f:
                    nxt[x + step] = nxt.get(x + step, 0) + m * f
        hit = nxt.pop(level, 0)
        stopped_mass += hit * d ** (N - t)
        alive = nxt
    total = stopped_mass * level + sum(x * m for x, m in alive.items())
    return Fraction(total, d ** N)


def doubling_moments(levels: int, p: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Terminal mean, terminal second moment and win probability of the episode.

    The episode banks +1 at the first rebound and loses 2**levels - 1 when
    every one of the ``levels`` moves is a drop, which has probability q**levels.
    """
    q = 1 - Fraction(p)
    lose = q ** levels
    loss = 2 ** levels - 1
    win = 1 - lose
    return win - lose * loss, win + lose * loss * loss, win
