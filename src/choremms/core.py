"""Exact-arithmetic instance model and orderings.

All costs are strictly positive ``fractions.Fraction`` values; no floating
point is used anywhere, because every algorithm in this package branches
on exact fits/does-not-fit comparisons. A plain row of costs is checked
once, where it enters, by the one cost contract `_cost_row`: each `int`
becomes a Fraction, each Fraction is kept, and anything else, or a cost of
at most 0, raises BadParams. `Instance(...)`, `Instance.from_rows` and
`CostRow.of` run it; a `CostRow` passes as it is. So past the boundary
every weight is a positive integer. Hot loops run on each row scaled to
integers once, by `CostRow`, which keeps every comparison exact. Each row
is built once: `CostRow.parse` reads each distinct cost text of an
instance once and scales each row from its distinct values, and
`Instance.from_rows` keeps the `Fraction` objects it is given.

The two other kinds of argument have one contract each, and no other
module guards them: a threshold is checked where it becomes a capacity,
by `CostRow.cap`, which takes a positive `Fraction` or a positive `int`
that is not a bool; a number of bundles or bins by `_bundle_count`, which
takes an `int` that is not a bool and is at least 1. Anything else raises
BadParams, with one message per contract. Chore ids, of a subset or of a
bundle, are checked by `CostRow.ids`.

Each row's runs, its (weight, count) pairs weight descending, are counted
once and kept (`CostRow.counts`), as a `Runs` that keeps its own
divisibility-chain test (`Runs.chain`) once made. Every stage of a solve
reads them: `classify` takes the distinct weights and the chain test from
them, `to_ido` spells each twin row out of them with the row's own
`Fraction` objects, gives the twin row the same runs object and cuts the
twin's blocks at their prefix sums, the threshold searches read the twin
row's runs, and the lift (`LiftingMap.lift_slices`) walks each agent's
weights cheapest first, over slices of the twin's positions that one
bundle holds: as HFFD hands them over, or one position each from
`LiftingMap.lift`. `CostRow.runs` returns them for the one tuple of ids
per m that `Instance.chores` shares, and counts any other spelling of
the chores.

What depends only on the instance is kept with it, computed on first
use by `_kept`, a `cached_property` without a lock: each row's scale,
weights and runs, the runs' chain test, the instance's universal ordering
(`Instance.blocks`) and its IDO twin (`Instance.twin`), so a second solve
or a certificate replay of the same instance builds none of them again.
Nothing that depends on a threshold is kept.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from typing import Iterable, Iterator, Sequence

from .errors import BadParams, NotIDO

# m to the tuple of chore ids 0..m-1, filled only by `Instance.chores`
_ALL_CHORES: dict[int, tuple[int, ...]] = {}


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


class _kept:
    """A method read as an attribute, computed on first use and kept in the
    instance's `__dict__`, which later reads find first: `cached_property`
    without its lock. Racing threads may each compute the value, and
    `dict.setdefault`, which is atomic, gives all of them the first one
    stored, as `Instance.chores` does. An attribute set before the first use
    is kept as it is."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.func(obj))


class Runs(tuple):
    """(weight, count) pairs, weight descending, with `chain`, whether
    their weights form a divisibility chain (`is_divisibility_chain`),
    tested on first use and kept."""

    @_kept
    def chain(self) -> bool:
        return is_divisibility_chain(w for w, _ in self)


class CostRow(tuple):
    """One agent's costs, a tuple of Fractions, with its integer form
    computed on first use and kept, or set by `parse`: `weights` are the
    costs times `scale` (D, the lcm of their denominators). A sum s of
    weights stays within tau exactly when s <= cap(tau) = floor(tau * D),
    because s is an integer, so a subset of the chores reads the same
    weights. `counts` are the weights as `Runs`, kept in the same way."""

    @staticmethod
    def of(cost: Iterable[Fraction]) -> "CostRow":
        """The row itself when it is a `CostRow`, else the costs checked by
        the cost contract `_cost_row`."""
        return cost if isinstance(cost, CostRow) else _cost_row(cost)

    @_kept
    def scale(self) -> int:
        return math.lcm(*(c.denominator for c in self))

    @_kept
    def weights(self) -> tuple[int, ...]:
        scale = self.scale
        return tuple(c.numerator * (scale // c.denominator) for c in self)

    @_kept
    def counts(self) -> Runs:
        """The whole row's weights as runs: `runs` of every chore, counted
        once."""
        return Runs(sorted(Counter(self.weights).items(), reverse=True))

    @staticmethod
    def parse(fields: Sequence[str], parsed: dict[str, Fraction]) -> "CostRow":
        """The row the texts spell, each `p` or `p/q` (`parse_rational`),
        with its scale and weights set. `parsed` maps texts to Fractions
        and may be shared across rows: a text it lacks is parsed once and
        added, so equal texts share one Fraction. The scale and the weights
        are computed from the row's distinct values. Raises ValueError for
        the first bad text in row order, else for a cost of 0."""
        values = dict.fromkeys(fields)
        for text in values:
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_rational(text)
            values[text] = value
        if any(c.numerator <= 0 for c in values.values()):
            raise ValueError("all chore costs must be strictly positive")
        scale = math.lcm(*(c.denominator for c in values.values()))
        row = CostRow(map(values.__getitem__, fields))
        weight = {text: c.numerator * (scale // c.denominator) for text, c in values.items()}
        row.scale, row.weights = scale, tuple(map(weight.__getitem__, fields))
        return row

    def cap(self, tau: Fraction) -> int:
        """floor(tau * D), the largest integer sum that stays within tau: the
        threshold contract, which every function that takes a threshold runs
        where the threshold becomes a capacity. tau must be a positive
        `Fraction` or a positive `int` that is not a bool; anything else (a
        float, a Decimal, a string, None) raises BadParams."""
        if isinstance(tau, (Fraction, int)) and tau.__class__ is not bool:
            numerator = tau.numerator
            if numerator > 0:
                return numerator * self.scale // tau.denominator
        raise BadParams("threshold must be a positive rational")

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

    def runs(self, chores: Iterable[int]) -> Runs:
        """The chores' weights as `Runs`: the run-length form of `profile`.
        The kept `counts` for the tuple `Instance.chores` shares, else
        counted, sorting only distinct weights, once `ids` has checked the
        chores."""
        if chores is _ALL_CHORES.get(len(self)):
            return self.counts
        return Runs(sorted(Counter(map(self.weights.__getitem__, self.ids(chores))).items(),
                           reverse=True))

    def ids(self, chores: Iterable[int]) -> tuple[int, ...]:
        """The chores as a tuple, each one of the row's m chores: raises
        BadParams for the first that is not. The tuple `Instance.chores`
        shares passes unchecked."""
        m = len(self)
        if chores is _ALL_CHORES.get(m):
            return chores
        chores = tuple(chores)
        if chores and not (0 <= min(chores) and max(chores) < m):
            bad = next(c for c in chores if not 0 <= c < m)
            raise BadParams(f"chore {bad} is not one of the {m} chores")
        return chores


def _cost_row(costs: Iterable, agent: int | None = None) -> CostRow:
    """The cost contract, the one check of a plain row of costs: each `int`
    that is not a bool becomes a Fraction, each `Fraction` is kept, the
    same object, and anything else, or a cost of at most 0, raises
    BadParams naming the first such chore, and the agent when given."""
    row = CostRow(Fraction(c) if isinstance(c, int) and not isinstance(c, bool) else c
                  for c in costs)
    for j, c in enumerate(row):
        if not isinstance(c, Fraction) or c.numerator <= 0:
            of_agent = "" if agent is None else f" for agent {agent}"
            raise BadParams(f"cost of chore {j}{of_agent} must be a positive rational")
    return row


def _bundle_count(d) -> None:
    """The bundle-count contract, the one check of a number of bundles or
    bins: an `int` that is not a bool and is at least 1, else BadParams."""
    if not isinstance(d, int) or d < 1 or d.__class__ is bool:
        raise BadParams("number of bundles must be a positive int")


@dataclass(frozen=True)
class Instance:
    """n agents, m chores, strictly positive costs; each row is a `CostRow`:
    a row given as one is kept, and any other is checked by the cost
    contract `_cost_row`, which makes each `int` a Fraction."""

    costs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.costs:
            raise BadParams("instance needs at least one agent")
        m = len(self.costs[0])
        rows = []
        for i, row in enumerate(self.costs):
            if len(row) != m:
                raise BadParams(f"agent {i} has {len(row)} costs, expected {m}")
            rows.append(row if isinstance(row, CostRow) else _cost_row(row, i))
        object.__setattr__(self, "costs", tuple(rows))

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
        """`Instance(...)` on rows given as any iterables: each row of
        `Fraction`s and `int`s goes through the cost contract `_cost_row`,
        so each `Fraction` is kept, the same object, and only an `int` is
        converted; anything else (a float, a string, None, a bool) raises
        BadParams."""
        return Instance(tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def m(self) -> int:
        return len(self.costs[0])

    def cost(self, agent: int) -> CostRow:
        return self.costs[agent]

    def chores(self) -> tuple[int, ...]:
        """Ids 0..m-1: one tuple per m, shared by all instances (`CostRow.runs`)."""
        chores = _ALL_CHORES.get(self.m)
        if chores is None:
            # setdefault is atomic: threads that race here all get the first tuple
            chores = _ALL_CHORES.setdefault(self.m, tuple(range(self.m)))
        return chores

    @_kept
    def blocks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """`ido_blocks` of this instance, computed on first use and kept;
        `to_ido` sets it for the twin it builds. Raises NotIDO when no
        common order exists."""
        return ido_blocks(self)

    @_kept
    def twin(self) -> "Instance":
        """The IDO twin that `to_ido` returns, built on first use and kept.
        It holds no reference back to this instance."""
        return _ido_twin(self)


def bundle_cost(cost: Sequence[Fraction], bundle: Iterable[int]) -> Fraction:
    """The bundle's cost; raises BadParams for a chore that is not one of the
    row's m chores (`CostRow.ids`)."""
    row = CostRow.of(cost)
    return row.value(sum(map(row.weights.__getitem__, row.ids(bundle))))


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
    """True iff every smaller distinct value divides the next larger one
    (`Runs.chain` of the row's `counts`)."""
    return CostRow.of(values).counts.chain


def is_bivalued_costs(values: Iterable[Fraction]) -> bool:
    return len(CostRow.of(values).counts) <= 2


def classify(instance: Instance) -> InstanceClass:
    """Whether every agent's costs are factored, and whether every agent's
    are bivalued (`is_factored_costs`, `is_bivalued_costs`); a single-valued
    agent is both. Each test stops at its own first failing row, so a row
    past both of those is not read."""
    return InstanceClass(is_factored=all(map(is_factored_costs, instance.costs)),
                         is_personalized_bivalued=all(map(is_bivalued_costs, instance.costs)))


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

    The twin's positions are walked from the last to the first, cheapest
    first, and each position's owner takes their cheapest original chore
    left, the lowest id among equal costs. The one walk, `lift_slices`,
    goes over slices of positions that one bundle holds: its owner takes a
    slice's chores with one `islice` of one cursor over their row's
    distinct weights, cheapest first (`CostRow.counts`), which finds each
    copy of a weight by `index` and moves on to the next weight once it has
    seen them all: no row is sorted."""

    original: Instance

    def lift(self, allocation: Allocation) -> Allocation:
        """The allocation with each bundle's positions replaced by the
        original chores its owner takes, in the walk's order: each position
        goes to `lift_slices` as a slice of one copy. Raises BadParams for
        the first position, in bundle order, that is not one of the m
        chores, or for an owner that is not one of the n agents."""
        ids = self.original.cost(0).ids
        bundles = allocation.bundles
        slices = [(c, 1, b) for b, bundle in enumerate(bundles) for c in ids(bundle)]
        agents = range(len(bundles)) if allocation.agents is None else allocation.agents
        lifted, _ = self.lift_slices(slices, agents)
        return Allocation.of(lifted, allocation.agents)

    def lift_slices(self, slices: Iterable[tuple[int, int, int]],
                    agents: Sequence[int]) -> tuple[list[list[int]], list[bool]]:
        """The lift of the twin positions that the (start, copies, bundle)
        `slices` give to len(agents) bundles, each slice the positions start
        to start + copies - 1, disjoint from every other slice, and
        `agents[bundle]` the bundle's owner; the lifted bundles, and which
        original chores they took. Raises BadParams, before any walk, for
        the first bundle whose owner is not one of the n agents.

        IDO chore j is the (j+1)-th largest position, and the slices are
        walked largest start first, so a slice's positions come in a row
        and its owner takes their `copies` cheapest original chores left.
        At position j at most m-1-j chores are gone, so one of the agent's
        m-j cheapest is left: the pick costs at most the position j."""
        n = self.original.n
        for b, agent in enumerate(agents):
            if not 0 <= agent < n:
                raise BadParams(f"bundle {b} belongs to agent {agent}, not one of {n} agents")
        taken = [False] * self.original.m
        cursors: dict[int, Iterator[int]] = {}
        lifted: list[list[int]] = [[] for _ in agents]
        for start, copies, b in sorted(slices, reverse=True):
            agent = agents[b]
            cursor = cursors.get(agent)
            if cursor is None:
                cursor = cursors[agent] = _cheapest_first(self.original.cost(agent), taken)
            lifted[b] += islice(cursor, copies)
        return lifted, taken


def _cheapest_first(row: CostRow, taken: list[bool]) -> Iterator[int]:
    """The row's chores cheapest first, lower id first among equal costs,
    skipping each one already `taken` when the walk reaches it and marking
    each one it gives as taken: the cursor of `LiftingMap`, which finds
    each copy of a weight from just past the last one found."""
    weights = row.weights
    for w, k in reversed(row.counts):
        p = -1
        for _ in range(k):
            p = weights.index(w, p + 1)
            if not taken[p]:
                taken[p] = True
                yield p


def to_ido(instance: Instance) -> tuple[Instance, LiftingMap]:
    """IDO twin: each agent's costs in descending order, so the identity
    permutation is a universal ordering; cost multisets are preserved. The
    twin is the instance's kept `Instance.twin`, the same object on every
    call; the `LiftingMap` back to the instance is built afresh, so no
    reference cycle goes through the instance."""
    return instance.twin, LiftingMap(instance)


def _ido_twin(instance: Instance) -> Instance:
    """The IDO twin of `to_ido`, built once per instance by `Instance.twin`.

    Each twin row is spelled out of the row's runs (`CostRow.counts`): k
    copies of each weight w, heaviest first, costing the row's own
    `Fraction` of w. It shares the row's scale and its runs object, so the
    two rows share one chain test (`Runs.chain`). The twin's blocks
    (`Instance.blocks`) are set here: the ordering is the identity, and the
    cuts are the prefix sums of every row's run counts, the positions at
    which some agent's cost falls. They are checked like the blocks of any
    instance."""
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
    return ido

