"""Exact-arithmetic instance model, orderings and profile comparison.

All costs are ``fractions.Fraction`` values; no floating point is used
anywhere, because every algorithm in this package branches on exact
fits/does-not-fit comparisons. Hot loops run on each row scaled to
integers once, by `CostRow`, which keeps every comparison exact.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence

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
    computed on first use and kept: `weights` are the costs times `scale`
    (D, the lcm of their denominators). A sum s of weights stays within tau
    exactly when s <= cap(tau) = floor(tau * D), because s is an integer, so
    a subset of the chores reads the same weights."""

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

    def descending(self) -> "CostRow":
        """The costs in descending order, sharing this row's integer form:
        the integer weights are sorted and each mapped back to its cost."""
        weights = sorted(self.weights, reverse=True)
        row = CostRow(map(dict(zip(self.weights, self)).__getitem__, weights))
        row.scale, row.weights = self.scale, tuple(weights)
        return row


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
        """An instance on rows taken from an already validated instance,
        without `__post_init__`'s per-cost checks."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "costs", rows)
        return instance

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Instance":
        return Instance(tuple(tuple(Fraction(c) for c in row) for row in rows))

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


def bundle_cost(cost: Sequence[Fraction], bundle: Iterable[int]) -> Fraction:
    row = CostRow.of(cost)
    return row.value(sum(row.weights[c] for c in bundle))


@dataclass(frozen=True)
class Allocation:
    """Ordered bundles of chore ids, optionally tagged with owning agents."""

    bundles: tuple[tuple[int, ...], ...]
    agents: tuple[int, ...] | None = None

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.bundles:
            for c in b:
                if c in seen:
                    raise BadParams(f"chore {c} appears in two bundles")
                seen.add(c)
        if self.agents is not None and len(self.agents) != len(self.bundles):
            raise BadParams("agents map length must match bundle count")

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
    return is_divisibility_chain(CostRow.of(values).weights)


def is_bivalued_costs(values: Iterable[Fraction]) -> bool:
    return len(set(CostRow.of(values).weights)) <= 2


def classify(instance: Instance) -> InstanceClass:
    """Whether every agent's costs are factored, and whether every agent's
    are bivalued; a single-valued agent is both."""
    return InstanceClass(
        is_factored=all(is_factored_costs(row) for row in instance.costs),
        is_personalized_bivalued=all(is_bivalued_costs(row) for row in instance.costs),
    )


def ido_blocks(instance: Instance) -> tuple[tuple[int, ...], list[int]]:
    """The universal ordering and its cuts. The ordering is the chore ids
    by their weight columns (one weight per agent) in descending
    lexicographic order, lower id first among equal columns; the cuts are
    the positions p at which chore order[p] costs some agent other than
    chore order[p - 1] does, so they split the ordering into maximal blocks
    of chores that cost every agent the same. When a common order exists,
    any two columns are comparable componentwise and the lexicographic
    order agrees with that. Within a block no cost rises, so IDO holds
    exactly when no agent's cost rises at a cut, and only the cuts are
    checked, agent by agent: raises NotIDO naming the first agent, and
    their first pair of chores, out of order."""
    rows = [row.weights for row in instance.costs]
    columns = list(zip(*rows))
    # a stable sort keeps equal columns in id order, also with reverse=True
    order = sorted(range(instance.m), key=columns.__getitem__, reverse=True)
    cuts = [p for p in range(1, len(order)) if columns[order[p - 1]] != columns[order[p]]]
    pairs = [(order[p - 1], order[p]) for p in cuts]
    for i, row in enumerate(rows):
        for a, b in pairs:
            if row[a] < row[b]:
                raise NotIDO(f"agent {i} ranks chore {b} above chore {a}")
    return tuple(order), cuts


def universal_ordering(instance: Instance) -> tuple[int, ...]:
    """Permutation of the chore ids witnessing IDO, earlier meaning (weakly)
    larger for every agent: the descending lexicographic sort of the
    chores' weight columns (lower id first among equal columns), verified
    against every agent by `ido_blocks`. Raises NotIDO when no common order
    exists."""
    return ido_blocks(instance)[0]


@dataclass(frozen=True)
class LiftingMap:
    """Converts an allocation of the IDO twin back to the original instance
    without increasing any agent's cost. A position no bundle holds lifts to
    no chore, so a partial allocation leaves as many original chores out."""

    original: Instance

    def lift(self, allocation: Allocation) -> Allocation:
        m = self.original.m
        owner_of = {}
        for b, bundle in enumerate(allocation.bundles):
            agent = allocation.agent_of(b)
            for c in bundle:
                if not 0 <= c < m:
                    raise BadParams(f"chore {c} is not one of the {m} chores")
                owner_of[c] = (agent, b)
        taken = [False] * m
        # per owner: original chores cheapest first (lower id among equals)
        # and the index of the first one not yet known to be taken
        ascending: dict[int, list[int]] = {}
        cursor: dict[int, int] = {}
        lifted: list[list[int]] = [[] for _ in allocation.bundles]
        # IDO chore j is the (j+1)-th largest position; walk smallest to
        # largest, each owner taking their cheapest remaining original chore.
        # At position j at most m-1-j chores are gone, so one of the agent's
        # m-j cheapest is left: the pick costs at most the position j.
        for j in reversed(range(m)):
            if j not in owner_of:
                continue
            agent, b = owner_of[j]
            if agent not in ascending:
                weights = self.original.cost(agent).weights
                ascending[agent] = sorted(range(m), key=weights.__getitem__)
                cursor[agent] = 0
            order, p = ascending[agent], cursor[agent]
            while taken[order[p]]:
                p += 1
            pick = order[p]
            cursor[agent] = p + 1
            taken[pick] = True
            lifted[b].append(pick)
        return Allocation.of(lifted, allocation.agents)


def to_ido(instance: Instance) -> tuple[Instance, LiftingMap]:
    """IDO twin: each agent's costs sorted descending, so the identity
    permutation is a universal ordering; cost multisets are preserved."""
    rows = tuple(row.descending() for row in instance.costs)
    return Instance._trusted(rows), LiftingMap(instance)


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

