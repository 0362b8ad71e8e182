"""Case-table derivation for the bivalued bound, seeded instance
generators, and stochastic searches for the open monotonicity and
MMS-existence questions."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import CostRow, Instance, format_rational
from .errors import BadParams, InvariantViolation, TooLarge
from .io import MAX_AGENTS
from .mms import APPROX_RATIO, mms_value
from .packing import ffd

MU_CUTOFF = Fraction(13, 2)
SPECIAL_SIGNATURES = {(1, 3, 2, 0), (1, 4, 3, 0)}
MAX_GEN_COSTS = 10**6  # n * m bound of gen_instance, 10x the 100 x 1000 ladder top
MAX_GEN_LEVELS = 64  # factored chain steps: every cost is at most 3 ** (MAX_GEN_LEVELS + 1)
GEN_KINDS = ("factored", "bivalued", "personalized_bivalued", "general")
# the general costs p/q, 1 <= p <= GENERAL_P and 1 <= q <= GENERAL_Q, at
# index GENERAL_Q * (p - 1) + q - 1
GENERAL_P, GENERAL_Q = 24, 4
GENERAL_COSTS = tuple(Fraction(p, q) for p in range(1, GENERAL_P + 1)
                      for q in range(1, GENERAL_Q + 1))
SUBSET_SUM_CAP = 24
EXISTENCE_M_CAP = 12  # the most chores an existence trial draws: the search is exponential


@dataclass(frozen=True)
class CaseRow:
    """One feasible (large, small) count signature for the bundle being
    fixed (a_q, b_q) versus its FFD counterpart (a_p, b_p), with the exact
    lower bounds the counts imply."""

    a_q: int
    b_q: int
    a_p: int
    b_p: int
    ratio_lower: Fraction       # l/s must exceed this
    mu_lower: Fraction          # mu/s must exceed this
    tau_lower_s: Fraction       # tau/s must exceed this
    tau_lower_ls: Fraction      # tau must exceed l + this * s
    excluded: bool              # mu bound already settles the case
    special: bool               # needs the extra inner swap

    @property
    def signature(self) -> tuple[int, int, int, int]:
        return (self.a_q, self.b_q, self.a_p, self.b_p)


def case_table() -> list[CaseRow]:
    """All count signatures compatible with the two-small-chores facts:
    the fixed bundle has at most 6 chores, at least one large chore, two
    more small chores and one fewer large chore than its FFD counterpart,
    and more chores overall."""
    rows = []
    for a_q in range(1, 7):
        for b_q in range(0, 7 - a_q):
            for a_p in range(a_q + 1, a_q + b_q + 1):
                for b_p in range(0, b_q - 1):
                    if a_q + b_q <= a_p + b_p:
                        continue
                    # a_p >= a_q + 1 and a_q <= 6, so the denominator is
                    # at least 13 - 2 * a_q > 0
                    ratio_lower = Fraction(15 * b_q - 13 * b_p - 13, 13 * a_p - 15 * a_q)
                    mu_lower = a_q * ratio_lower + b_q
                    tau_lower_s = APPROX_RATIO * mu_lower
                    rows.append(CaseRow(
                        a_q=a_q, b_q=b_q, a_p=a_p, b_p=b_p,
                        ratio_lower=ratio_lower,
                        mu_lower=mu_lower,
                        tau_lower_s=tau_lower_s,
                        tau_lower_ls=tau_lower_s - ratio_lower,
                        excluded=mu_lower >= MU_CUTOFF,
                        special=(a_q, b_q, a_p, b_p) in SPECIAL_SIGNATURES,
                    ))
    rows.sort(key=lambda r: (r.a_q + r.b_q, r.a_q, r.a_p, r.b_p))
    return rows


def format_case_table(rows: Iterable[CaseRow]) -> str:
    lines = ["aq\tbq\tap\tbp\tE\tF\tG\tH\texcluded\tspecial"]
    for r in rows:
        lines.append("\t".join([
            str(r.a_q), str(r.b_q), str(r.a_p), str(r.b_p),
            format_rational(r.ratio_lower), format_rational(r.mu_lower),
            format_rational(r.tau_lower_s), format_rational(r.tau_lower_ls),
            "1" if r.excluded else "0", "1" if r.special else "0",
        ]))
    return "\n".join(lines) + "\n"


def gen_instance(kind: str, n: int, m: int, seed: int, **params) -> Instance:
    """Seed-deterministic random instance of the requested class, with at
    most MAX_AGENTS agents and MAX_GEN_COSTS costs in all. The one
    parameter is `levels`, for `factored` only: the steps of the cost chain,
    an int from 0 to MAX_GEN_LEVELS (1 to 3 at random when not given).
    n and m must be ints, not bools; anything else is BadParams.

    The instances are those that `random.Random` draws with `choice` over
    each row's values, and with `Fraction(randint(1, 24), randint(1, 4))`
    for each general cost (`tests/helpers.py::ref_gen_instance`, which a
    test checks them against). The class's parameters are drawn by
    `randint`; each cost comes straight from `getrandbits` by the rule
    those two methods use: below b, draw k = b.bit_length() bits, and draw
    again while they are at least b. A general cost p/q is not built but
    taken from GENERAL_COSTS, so the rows of every class share a few
    `Fraction` objects."""
    for name, value in (("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadParams(f"{name} must be an int, not {type(value).__name__}")
    if n < 1 or m < 0:
        raise BadParams("need n >= 1 and m >= 0")
    if n > MAX_AGENTS or n * m > MAX_GEN_COSTS:
        raise BadParams(f"need n <= {MAX_AGENTS} and n * m <= {MAX_GEN_COSTS}")
    if kind not in GEN_KINDS:
        raise BadParams(f"unknown instance class {kind!r}")
    for key, value in params.items():
        if key != "levels" or kind != "factored":
            raise BadParams(f"class {kind!r} takes no parameter {key!r}")
        if isinstance(value, bool) or not isinstance(value, int) \
                or not 0 <= value <= MAX_GEN_LEVELS:
            raise BadParams(f"levels must be an int from 0 to {MAX_GEN_LEVELS}")
    rng = random.Random(("choremms", kind, n, m, seed).__repr__())
    bits = rng.getrandbits
    if kind == "factored":
        base = Fraction(rng.randint(1, 3))
        chain = [base]
        for _ in range(params.get("levels", rng.randint(1, 3))):
            chain.append(chain[-1] * rng.randint(2, 3))
        rows = [_choices(bits, chain, m) for _ in range(n)]
    elif kind == "bivalued":
        small = Fraction(rng.randint(1, 5))
        large = small + rng.randint(1, 8)
        rows = [_choices(bits, (large, small), m) for _ in range(n)]
    elif kind == "personalized_bivalued":
        rows = []
        for _ in range(n):
            small = Fraction(rng.randint(1, 6), rng.randint(1, 2))
            large = small + Fraction(rng.randint(1, 9), rng.randint(1, 2))
            rows.append(_choices(bits, (large, small), m))
    else:
        rows = [_general_row(bits, m) for _ in range(n)]
    # every row holds m positive Fractions by construction
    return Instance._trusted(tuple(map(CostRow, rows)))


def _choices(bits: Callable[[int], int], values: Sequence[Fraction], m: int) -> list[Fraction]:
    """m values, each the one `Random.choice(values)` draws off the same
    `getrandbits`."""
    size = len(values)
    k = size.bit_length()
    row: list[Fraction] = []
    add = row.append
    for _ in range(m):
        r = bits(k)
        while r >= size:
            r = bits(k)
        add(values[r])
    return row


def _general_row(bits: Callable[[int], int], m: int) -> list[Fraction]:
    """m general costs, each the `Fraction(randint(1, 24), randint(1, 4))`
    that the same `getrandbits` gives, taken from GENERAL_COSTS."""
    kp, kq = GENERAL_P.bit_length(), GENERAL_Q.bit_length()
    row: list[Fraction] = []
    add = row.append
    for _ in range(m):
        p = bits(kp)
        while p >= GENERAL_P:
            p = bits(kp)
        q = bits(kq)
        while q >= GENERAL_Q:
            q = bits(kq)
        add(GENERAL_COSTS[GENERAL_Q * p + q])
    return row


def subset_sums(chores: Iterable[int], cost: Sequence[Fraction]) -> list[Fraction]:
    """Sorted distinct achievable bundle costs (the grid on which FFD
    success/failure can change), for at most SUBSET_SUM_CAP chores."""
    row = CostRow.of(cost)
    weights = [row.weights[c] for c in row.ids(chores)]
    if len(weights) > SUBSET_SUM_CAP:
        raise TooLarge(f"subset-sum grid needs m <= {SUBSET_SUM_CAP}, got {len(weights)}")
    sums = {0}
    for w in weights:
        sums |= {s + w for s in sums}
    sums.discard(0)
    return [row.value(s) for s in sorted(sums)]


@dataclass(frozen=True)
class MonotonicityCounterexample:
    instance: Instance
    agent: int
    bins: int
    tau: Fraction
    beta: Fraction


def search_monotonicity(kind: str, trials: int, seed: int) -> MonotonicityCounterexample | None:
    """Sample (instance, tau < beta) pairs and look for FFD succeeding at
    tau into 1 to 4 bins but failing at beta, with 3 to 10 chores.
    For factored and bivalued costs a hit contradicts the monotonicity
    guarantee and raises; for general costs it is returned as a finding."""
    rng = random.Random(("monotonicity", kind, seed).__repr__())
    for trial in range(trials):
        bins = rng.randint(1, 4)
        m = rng.randint(3, 10)
        instance = gen_instance(kind, 1, m, seed=seed * 1_000_003 + trial)
        cost = instance.cost(0)
        chores = instance.chores()
        grid = [s for s in subset_sums(chores, cost) if s >= max(cost)]
        if len(grid) < 2:
            continue
        tau, beta = sorted(rng.sample(range(len(grid)), 2))
        tau, beta = grid[tau], grid[beta]
        if ffd(chores, cost, tau, max_bins=bins).succeeded and \
                not ffd(chores, cost, beta, max_bins=bins).succeeded:
            hit = MonotonicityCounterexample(instance, 0, bins, tau, beta)
            if kind in ("factored", "bivalued", "personalized_bivalued"):
                raise InvariantViolation(
                    f"FFD monotonicity broken on a {kind} instance: succeeds at "
                    f"{tau} but fails at {beta} with {bins} bins")
            return hit
    return None


def _mms_allocation_exists(instance: Instance, mus) -> bool:
    """Exhaustive check: can every agent receive cost at most their MMS?"""
    m = instance.m
    n = instance.n
    weights = [instance.cost(i).weights for i in range(n)]
    caps = [instance.cost(i).cap(mu) for i, mu in enumerate(mus)]
    loads = [0] * n
    # Fractions, since rows differ in scale; it sorts once per instance at m <= 14
    order = sorted(range(m), key=lambda c: -max(instance.cost(i)[c] for i in range(n)))

    def rec(idx: int) -> bool:
        if idx == m:
            return True
        c = order[idx]
        for i in range(n):
            new = loads[i] + weights[i][c]
            if new > caps[i]:
                continue
            loads[i] = new
            if rec(idx + 1):
                return True
            loads[i] = new - weights[i][c]
        return False

    return rec(0)


def search_bivalued_mms_existence(trials: int, seed: int) -> Instance | None:
    """Sample personalized bivalued instances of 2 to 4 agents and up to
    EXISTENCE_M_CAP chores and brute-force whether an exact MMS allocation
    exists; returns the first negative instance found (none is asserted to
    exist)."""
    rng = random.Random(("mms-existence", seed).__repr__())
    for trial in range(trials):
        n = rng.randint(2, 4)
        m = rng.randint(n, EXISTENCE_M_CAP)
        instance = gen_instance("personalized_bivalued", n, m, seed=seed * 7_777_777 + trial)
        chores = instance.chores()
        mus = [mms_value(instance.cost(i), chores, n) for i in range(n)]
        if not _mms_allocation_exists(instance, mus):
            return instance
    return None
