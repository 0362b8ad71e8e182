"""FFD with a threshold, MultiFit threshold search, and HFFD for
heterogeneous agents. Failure to place chores is a value (PackOutcome),
not an exception.

Costs and thresholds are Fractions at the interface; the packing loops run
on the row's cached integer weights (`core.CostRow`), also for a subset of
its chores, with threshold tau becoming the integer capacity floor(tau * D).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Sequence

from .core import Allocation, CostRow, Instance, bundle_cost, universal_ordering
from .errors import BadParams, EmptyBinDeadlock


@dataclass(frozen=True)
class PackOutcome:
    allocation: Allocation
    unallocated: tuple[int, ...]

    @property
    def succeeded(self) -> bool:
        return not self.unallocated

    @property
    def bundles(self) -> tuple[tuple[int, ...], ...]:
        return self.allocation.bundles


def fill_bin(order: Sequence[int], weights: Sequence[int], room: int,
             held: Container[int] = ()) -> list[int]:
    """First fit into one bin: walk `order` past the `held` chores, keeping
    each chore whose integer weight fits the room left. Returns the kept
    chores in order."""
    kept: list[int] = []
    for c in order:
        if c not in held and weights[c] <= room:
            kept.append(c)
            room -= weights[c]
    return kept


def first_fit_places_all(runs: Sequence[tuple[int, int]], cap: int, max_bins: int) -> bool:
    """Whether first fit of the descending weights that the (weight, count)
    `runs` spell out leaves nothing out, at O(len(runs) * bins).

    First fit places each copy of a run's weight w in the lowest-index bin
    with room for it, and rooms only shrink, so a bin that cannot take w
    cannot take it later in the run either: the open bins, in index order,
    take min(k, room // w) of the k copies left, and the rest open full
    bins of cap // w copies each. Those are the bins of first fit chore by
    chore; the probe fails when w > cap or when more than max_bins bins
    would open."""
    rooms: list[int] = []
    for w, k in runs:
        if w > cap:
            return False
        for b, room in enumerate(rooms):
            if w <= room:
                t = min(k, room // w)
                rooms[b] = room - t * w
                k -= t
                if not k:
                    break
        else:
            per_bin = cap // w
            full, rest = divmod(k, per_bin)
            if len(rooms) + full + (rest > 0) > max_bins:
                return False
            rooms.extend([cap - per_bin * w] * full)
            if rest:
                rooms.append(cap - rest * w)
    return True


def smallest_fitting_cap(runs: Sequence[tuple[int, int]], bins: int) -> int:
    """Bisection for the smallest integer capacity at which first fit of
    the descending (weight, count) `runs` fills `bins` bins, over the
    MultiFit bracket (Coffman, Garey & Johnson 1978): from lo = max(w0,
    ceil(total/bins)), below which nothing fits, to min(total, lo + w0),
    from which everything does, with w0 the largest weight and total the
    sum of w * count. Exact where success is monotone in the capacity
    (factored and bivalued costs); otherwise the result succeeds but may
    not be the smallest. No runs need capacity 0."""
    if bins < 1:
        raise BadParams("need at least one bin")
    if not runs:
        return 0
    w0 = runs[0][0]
    total = sum(w * k for w, k in runs)
    lo = max(w0, -(-total // bins))
    hi = min(total, lo + w0)
    best = hi
    while lo <= hi:
        mid = (lo + hi) // 2
        if first_fit_places_all(runs, mid, bins):
            best, hi = mid, mid - 1
        else:
            lo = mid + 1
    return best


def ffd(chores: Iterable[int], cost: Sequence[Fraction], tau: Fraction,
        max_bins: int | None = None) -> PackOutcome:
    """First-Fit-Decreasing: largest chore first (lower id breaks ties),
    into the lowest-index bin whose cost stays within tau; a new bin opens
    when allowed, otherwise the chore is left unallocated. The bins fill
    one at a time (`fill_bin` over the chores left): a chore joins bin b
    exactly when it fits b's room then, as in chore-by-chore first fit."""
    if tau <= 0:
        raise BadParams("FFD threshold must be positive")
    row = CostRow.of(cost)
    cap = row.cap(tau)
    remaining = row.ffd_order(chores)
    bins = []
    while remaining and (max_bins is None or len(bins) < max_bins):
        kept = fill_bin(remaining, row.weights, cap)
        if not kept:
            break
        bins.append(kept)
        placed = set(kept)
        remaining = [c for c in remaining if c not in placed]
    return PackOutcome(Allocation.of(bins), tuple(remaining))


def multifit(chores: Iterable[int], cost: Sequence[Fraction], n: int) -> tuple[Fraction, PackOutcome]:
    """MultiFit: FFD into n bins at the capacity `smallest_fitting_cap`
    finds, with its largest bin cost as the threshold. That cost is a
    subset sum at which FFD makes the same decisions, so it succeeds.

    Exact minimum for factored and bivalued cost functions, where FFD
    success is monotone in the threshold; for general cost functions the
    returned threshold is guaranteed to succeed but may not be minimal.
    """
    if n < 1:
        raise BadParams("need at least one bin")
    chores = list(chores)
    if not chores:
        return Fraction(0), PackOutcome(Allocation.of([]), ())
    row = CostRow.of(cost)
    cap = smallest_fitting_cap(row.runs(chores), n)
    outcome = ffd(chores, row, row.value(cap), max_bins=n)
    return max(bundle_cost(row, b) for b in outcome.bundles), outcome


def hffd(instance: Instance, thresholds: Sequence[Fraction]) -> PackOutcome:
    """Heterogeneous FFD (Huang & Lu 2021) on an IDO instance.

    Fills one bin at a time: a chore joins the open bin when it fits at
    least one remaining agent under that agent's threshold; a closed bin
    goes to the lowest-index remaining agent for whom its last chore fitted,
    the first agent left in the bin's list of agents it still fits. Each
    agent's threshold becomes a capacity in their row's cached scale.
    """
    if len(thresholds) != instance.n:
        raise BadParams("need one threshold per agent")
    if any(t <= 0 for t in thresholds):
        raise BadParams("thresholds must be positive")
    remaining = list(universal_ordering(instance))
    rows = [instance.cost(i).weights for i in range(instance.n)]
    caps = [instance.cost(i).cap(tau) for i, tau in enumerate(thresholds)]
    pool = list(range(instance.n))
    bins: list[tuple[int, ...]] = []
    owners: list[int] = []
    while remaining and pool:
        # (room, row, agent) of each agent the open bin still fits, agents
        # ascending: a chore that joins drops the agents it does not fit,
        # which can take no later chore since their rooms only shrink
        fits = [(caps[i], rows[i], i) for i in pool]
        bin_chores: list[int] = []
        left_over: list[int] = []
        for c in remaining:
            kept = [(room - row[c], row, i) for room, row, i in fits if row[c] <= room]
            if kept:
                bin_chores.append(c)
                fits = kept
            else:
                left_over.append(c)
        if not bin_chores:
            raise EmptyBinDeadlock(remaining[0])
        owner = fits[0][2]
        remaining = left_over
        bins.append(tuple(bin_chores))
        owners.append(owner)
        pool.remove(owner)
    return PackOutcome(Allocation.of(bins, owners), tuple(remaining))
