"""Exact-arithmetic instance model, orderings and profile comparison.

All costs are ``fractions.Fraction`` values; no floating point is used
anywhere, because every algorithm in this package branches on exact
fits/does-not-fit comparisons. Hot loops run on each row scaled to
integers once, by `CostRow`, which keeps every comparison exact. Each row
is built once: `CostRow.parse` reads each distinct cost text of a row once
and scales the row from its distinct values, and `Instance.from_rows` keeps
the `Fraction` objects it is given.

Each row's runs, its (weight, count) pairs weight descending, are counted
once and kept (`CostRow.counts`). Every stage of a solve reads them:
`classify` takes the distinct weights from them, `to_ido` spells each twin
row out of them with the row's own `Fraction` objects and cuts the twin's
blocks at their prefix sums, the threshold searches read the twin row's
runs, and `LiftingMap.lift` walks each agent's weights cheapest first.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from .errors import BadParams, NotIDO

LESS, EQUAL, GREATER = -1, 0, 1


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with p, q positive decimal integers."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        num, den = parts[0], "1"
    elif len(parts) == 2:
        num, den = parts
    else:
        raise ValueError(f"not a rational: {text!r}")
    # ASCII only: `isdigit` also admits '²', which int() rejects, and '٣',
    # which int() reads as 3
    if not (text.isascii() and num.isdigit() and den.isdigit()):
        raise ValueError(f"not a nonnegative rational: {text!r}")
    try:
        p, q = int(num), int(den)
    except ValueError:
        # int() refuses more digits than the interpreter's limit
        raise ValueError("numerator and denominator may have at most "
                         f"{sys.get_int_max_str_digits()} digits each") from None
    if q == 0:
        raise ValueError(f"not a nonnegative rational: {text!r}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Format so that parse(format(x)) == x; integers print without a denominator."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class CostRow(tuple):
    """One agent's costs, a tuple of Fractions, with its integer form
    computed on first use and kept, or set by `parse`: `weights` are the
    costs times `scale` (D, the lcm of their denominators). A sum s of
    weights stays within tau exactly when s <= cap(tau) = floor(tau * D),
    because s is an integer, so a subset of the chores reads the same
    weights. `counts` are the weights as (weight, count) runs, kept in the
    same way."""

    @staticmethod
    def of(cost: Iterable[Fraction]) -> "CostRow":
        return cost if isinstance(cost, CostRow) else CostRow(cost)

    @cached_property
    def scale(self) -> int:
        return math.lcm(*(c.denominator for c in self))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        scale = self.scale
        return tuple(c.numerator * (scale // c.denominator) for c in self)

    @cached_property
    def counts(self) -> tuple[tuple[int, int], ...]:
        """The whole row's weights as (weight, count) runs, weight
        descending: `runs` of every chore, counted once."""
        return tuple(sorted(Counter(self.weights).items(), reverse=True))

    @staticmethod
    def parse(fields: Sequence[str]) -> "CostRow":
        """The row the texts spell, each `p` or `p/q` (`parse_rational`),
        with its scale and weights set. Each distinct text is parsed once and
        equal texts share one Fraction; the scale and the weights are
        computed from the distinct values. Raises ValueError for the first
        bad text in row order, else for a cost of 0."""
        values = dict.fromkeys(fields)
        for text in values:
            values[text] = parse_rational(text)
        if any(c.numerator <= 0 for c in values.values()):
            raise ValueError("all chore costs must be strictly positive")
        scale = math.lcm(*(c.denominator for c in values.values()))
        row = CostRow(map(values.__getitem__, fields))
        weight = {text: c.numerator * (scale // c.denominator) for text, c in values.items()}
        row.scale, row.weights = scale, tuple(map(weight.__getitem__, fields))
        return row

    def cap(self, tau: Fraction) -> int:
        """floor(tau * D), the largest integer sum that stays within tau.
        Raises BadParams when tau is not a rational (a float, say)."""
        try:
            return tau.numerator * self.scale // tau.denominator
        except AttributeError:
            raise BadParams(f"threshold must be rational, not {type(tau).__name__}") from None

    def value(self, weight: int) -> Fraction:
        return Fraction(weight, self.scale)

    def ffd_order(self, chores: Iterable[int]) -> list[int]:
        """Chore ids by descending cost, lower id first among equal costs:
        the one tie-break of FFD and of the universal ordering."""
        # a stable sort of ascending ids keeps equal costs in id order
        return sorted(sorted(chores), key=self.weights.__getitem__, reverse=True)

    def by_weight(self, order: Iterable[int]) -> dict[int, list[int]]:
        """Chores in FFD order (as `ffd_order` gives them) grouped by weight:
        the order cut where the weight changes, heaviest first."""
        return {w: list(group) for w, group in groupby(order, self.weights.__getitem__)}

    def profile(self, chores: Iterable[int]) -> list[int]:
        """The chores' weights, descending (their order in FFD)."""
        return sorted(map(self.weights.__getitem__, chores), reverse=True)

    def runs(self, chores: Iterable[int]) -> list[tuple[int, int]]:
        """The chores' weights as (weight, count) runs, weight descending:
        the run-length form of `profile`, built by counting the weights and
        sorting only the distinct ones."""
        return sorted(Counter(map(self.weights.__getitem__, chores)).items(), reverse=True)


@dataclass(frozen=True)
class Instance:
    """n agents, m chores, strictly positive costs; each row is a `CostRow`."""

    costs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.costs:
            raise BadParams("instance needs at least one agent")
        m = len(self.costs[0])
        for i, row in enumerate(self.costs):
            if len(row) != m:
                raise BadParams(f"agent {i} has {len(row)} costs, expected {m}")
            for j, c in enumerate(row):
                if not isinstance(c, Fraction) or c.numerator <= 0:
                    raise BadParams(f"cost of chore {j} for agent {i} must be a positive rational")
        object.__setattr__(self, "costs", tuple(CostRow.of(row) for row in self.costs))

    @classmethod
    def _trusted(cls, rows: tuple[CostRow, ...]) -> "Instance":
        """An instance on rows known to be valid, without `__post_init__`'s
        per-cost checks: rows taken from an already validated instance, or
        built by `analysis.gen_instance` from positive Fractions."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "costs", rows)
        return instance

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Instance":
        """An instance on rows of `Fraction`s and `int`s. Each `Fraction` is
        kept, the same object, and only an `int` is converted; anything else
        (a float, a string, None, a bool) raises BadParams."""
        return Instance(tuple(_as_costs(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def m(self) -> int:
        return len(self.costs[0])

    def cost(self, agent: int) -> CostRow:
        return self.costs[agent]

    def chores(self) -> tuple[int, ...]:
        return tuple(range(self.m))

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """`ido_blocks` of this instance, computed on first use and kept;
        `to_ido` sets it for the twin it builds. Raises NotIDO when no
        common order exists."""
        return ido_blocks(self)


def _as_costs(row: Iterable) -> tuple:
    """The row with each `int` (not a bool) made a Fraction and all else
    kept, for `Instance` to check."""
    row = tuple(row)
    # a row of Fractions only, as gen_instance builds, needs no per-cost walk
    if set(map(type, row)) <= {Fraction}:
        return row
    return tuple(Fraction(c) if isinstance(c, int) and not isinstance(c, bool) else c
                 for c in row)


def bundle_cost(cost: Sequence[Fraction], bundle: Iterable[int]) -> Fraction:
    row = CostRow.of(cost)
    return row.value(sum(row.weights[c] for c in bundle))


@dataclass(frozen=True)
class Allocation:
    """Ordered bundles of chore ids, optionally tagged with owning agents."""

    bundles: tuple[tuple[int, ...], ...]
    agents: tuple[int, ...] | None = None

    def __post_init__(self):
        # one union in C; the walk runs only to name the first repeat
        if len(set().union(*self.bundles)) != sum(map(len, self.bundles)):
            seen: set[int] = set()
            for b in self.bundles:
                for c in b:
                    if c in seen:
                        raise BadParams(f"chore {c} appears in two bundles")
                    seen.add(c)
        if self.agents is not None and len(self.agents) != len(self.bundles):
            raise BadParams("agents map length must match bundle count")

    @classmethod
    def _trusted(cls, bundles: tuple[tuple[int, ...], ...]) -> "Allocation":
        """These bundles, not checked for a shared chore: a swap transcript's
        `final`, which after a failed step shows the bundles as they are."""
        allocation = object.__new__(cls)
        object.__setattr__(allocation, "bundles", bundles)
        object.__setattr__(allocation, "agents", None)
        return allocation

    @staticmethod
    def of(bundles: Iterable[Iterable[int]], agents=None) -> "Allocation":
        return Allocation(tuple(tuple(b) for b in bundles),
                          None if agents is None else tuple(agents))

    def allocated(self) -> set[int]:
        return {c for b in self.bundles for c in b}

    def is_complete(self, m: int) -> bool:
        return self.allocated() == set(range(m))

    def agent_of(self, index: int) -> int:
        return self.agents[index] if self.agents is not None else index

    def per_agent(self, n: int) -> "Allocation":
        """One bundle per agent: bundle i merges every bundle of agent i,
        chore ids ascending (empty for an agent with none)."""
        merged: list[list[int]] = [[] for _ in range(n)]
        for b, bundle in enumerate(self.bundles):
            agent = self.agent_of(b)
            if not 0 <= agent < n:
                raise BadParams(f"bundle {b} belongs to agent {agent}, not one of {n} agents")
            merged[agent].extend(bundle)
        return Allocation.of((sorted(b) for b in merged), agents=range(n))


@dataclass(frozen=True)
class InstanceClass:
    is_factored: bool
    is_personalized_bivalued: bool


def is_divisibility_chain(weights: Iterable[int]) -> bool:
    """True iff every smaller distinct integer divides the next larger one."""
    distinct = sorted(set(weights))
    return all(b % a == 0 for a, b in zip(distinct, distinct[1:]))


def is_factored_costs(values: Iterable[Fraction]) -> bool:
    """True iff every smaller distinct value divides the next larger one."""
    return is_divisibility_chain(w for w, _ in CostRow.of(values).counts)


def is_bivalued_costs(values: Iterable[Fraction]) -> bool:
    return len(CostRow.of(values).counts) <= 2


def classify(instance: Instance) -> InstanceClass:
    """Whether every agent's costs are factored, and whether every agent's
    are bivalued (`is_factored_costs`, `is_bivalued_costs`); a single-valued
    agent is both. The walk stops at the first row after which neither can
    hold."""
    factored = bivalued = True
    for row in instance.costs:
        factored = factored and is_factored_costs(row)
        bivalued = bivalued and is_bivalued_costs(row)
        if not (factored or bivalued):
            break
    return InstanceClass(is_factored=factored, is_personalized_bivalued=bivalued)


def ido_blocks(instance: Instance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The universal ordering and its cuts. The ordering is the chore ids
    by their weight columns (one weight per agent) in descending
    lexicographic order, lower id first among equal columns; the cuts are
    the positions p at which chore order[p] costs some agent other than
    chore order[p - 1] does, so they split the ordering into maximal blocks
    of chores that cost every agent the same. When a common order exists,
    any two columns are comparable componentwise and the lexicographic
    order agrees with that. The result is checked by `_checked_blocks`.
    Callers read it from `Instance.blocks`, which keeps it."""
    rows = [row.weights for row in instance.costs]
    columns = list(zip(*rows))
    # a stable sort keeps equal columns in id order, also with reverse=True
    order = sorted(range(instance.m), key=columns.__getitem__, reverse=True)
    cuts = [p for p in range(1, len(order)) if columns[order[p - 1]] != columns[order[p]]]
    return _checked_blocks(rows, tuple(order), tuple(cuts))


def _checked_blocks(rows: Sequence[Sequence[int]], order: tuple[int, ...],
                    cuts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ordering and its cuts, once checked against every agent's
    weights. Within a block no cost rises, so IDO holds exactly when no
    agent's cost rises at a cut, and only the cuts are checked, agent by
    agent: raises NotIDO naming the first agent, and their first pair of
    chores, out of order."""
    pairs = [(order[p - 1], order[p]) for p in cuts]
    for i, row in enumerate(rows):
        for a, b in pairs:
            if row[a] < row[b]:
                raise NotIDO(f"agent {i} ranks chore {b} above chore {a}")
    return order, cuts


def universal_ordering(instance: Instance) -> tuple[int, ...]:
    """Permutation of the chore ids witnessing IDO, earlier meaning (weakly)
    larger for every agent: the descending lexicographic sort of the
    chores' weight columns (lower id first among equal columns), verified
    against every agent: the ordering of `Instance.blocks`. Raises NotIDO
    when no common order exists."""
    return instance.blocks[0]


@dataclass(frozen=True)
class LiftingMap:
    """Converts an allocation of the IDO twin back to the original instance
    without increasing any agent's cost. A position no bundle holds lifts to
    no chore, so a partial allocation leaves as many original chores out.

    The twin's positions are walked from the smallest to the largest, and
    each position's owner takes their cheapest original chore left, the
    lowest id among equal costs. An owner's picks come from one cursor over
    their row's distinct weights, cheapest first (`CostRow.counts`), which
    finds each copy of a weight by `index` and moves on to the next weight
    once it has seen them all: no row is sorted."""

    original: Instance

    def lift(self, allocation: Allocation) -> Allocation:
        m = self.original.m
        bundles = allocation.bundles
        agents = range(len(bundles)) if allocation.agents is None else allocation.agents
        # the bundle that holds each position, None for a position no bundle holds
        owner_of: list[int | None] = [None] * m
        for b, bundle in enumerate(bundles):
            if bundle and (min(bundle) < 0 or max(bundle) >= m):
                bad = next(c for c in bundle if not 0 <= c < m)
                raise BadParams(f"chore {bad} is not one of the {m} chores")
            for c in bundle:
                owner_of[c] = b
        taken = [False] * m
        picks: dict[int, Iterator[int]] = {}
        lifted: list[list[int]] = [[] for _ in bundles]
        # IDO chore j is the (j+1)-th largest position; walk smallest to
        # largest, each owner taking their cheapest remaining original chore.
        # At position j at most m-1-j chores are gone, so one of the agent's
        # m-j cheapest is left: the pick costs at most the position j.
        for j in reversed(range(m)):
            b = owner_of[j]
            if b is None:
                continue
            agent = agents[b]
            cursor = picks.get(agent)
            if cursor is None:
                cursor = picks[agent] = _cheapest_first(self.original.cost(agent), taken)
            pick = next(cursor)
            taken[pick] = True
            lifted[b].append(pick)
        return Allocation.of(lifted, allocation.agents)


def _cheapest_first(row: CostRow, taken: Sequence[bool]) -> Iterator[int]:
    """The row's chores cheapest first, lower id first among equal costs,
    skipping each one already `taken` when the walk reaches it: the cursor
    of `LiftingMap`, which finds each copy of a weight from just past the
    last one found."""
    weights = row.weights
    for w, k in reversed(row.counts):
        p = -1
        for _ in range(k):
            p = weights.index(w, p + 1)
            if not taken[p]:
                yield p


def to_ido(instance: Instance) -> tuple[Instance, LiftingMap]:
    """IDO twin: each agent's costs in descending order, so the identity
    permutation is a universal ordering; cost multisets are preserved.

    Each twin row is spelled out of the row's runs (`CostRow.counts`): k
    copies of each weight w, heaviest first, costing the row's own
    `Fraction` of w. It shares the row's scale and carries the same runs.
    The twin's blocks (`Instance.blocks`) are set here: the ordering is the
    identity, and the cuts are the prefix sums of every row's run counts,
    the positions at which some agent's cost falls. They are checked like
    the blocks of any instance."""
    rows = []
    cuts: set[int] = set()
    for row in instance.costs:
        costs: list[Fraction] = []
        weights: list[int] = []
        for w, k in row.counts:
            costs += [row[row.weights.index(w)]] * k
            weights += [w] * k
            cuts.add(len(weights))
        twin = CostRow(costs)
        twin.scale, twin.weights, twin.counts = row.scale, tuple(weights), row.counts
        rows.append(twin)
    cuts.discard(instance.m)
    ido = Instance._trusted(tuple(rows))
    object.__setattr__(ido, "blocks", _checked_blocks([row.weights for row in rows],
                                                      ido.chores(), tuple(sorted(cuts))))
    return ido, LiftingMap(instance)


def compare_profiles(p1: Sequence[int], p2: Sequence[int]) -> int:
    """Position-wise comparison of two descending cost profiles, the shorter
    one extended with zeros. Returns LESS, EQUAL or GREATER."""
    for a, b in zip(p1, p2):
        if a != b:
            return GREATER if a > b else LESS
    rest = p1[len(p2):] or p2[len(p1):]
    if any(x != 0 for x in rest):
        return GREATER if len(p1) > len(p2) else LESS
    return EQUAL

