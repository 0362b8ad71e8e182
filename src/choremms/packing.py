"""FFD with a threshold, MultiFit threshold search, and HFFD for
heterogeneous agents. Failure to place chores is a value (PackOutcome),
not an exception.

Costs and thresholds are Fractions at the interface; a plain row is
checked where it enters (`core.CostRow.of`), and so are chore ids
(`core.CostRow.ids`), so every weight is a positive integer. The packing
loops run on the row's cached integer weights (`core.CostRow`), also for a
subset of its chores, with threshold tau becoming the integer capacity
floor(tau * D) by the threshold contract `core.CostRow.cap`. A number of
bins (`n`, `bins`, a given `max_bins`) goes through the bundle-count
contract `core._bundle_count`.

`first_fit_bin` is the one statement of first fit into one bin, for FFD
and for `ffv`, and `first_fit_bins` the one statement of FFD's bin loop
over it, for `ffd` and for `ffv`'s transform. `first_fit_places_all`,
which keeps every bin open, as groups of consecutive bins with one room,
fills a whole group per step and opens full bins in bulk, and
`hffd_slices`, which fills a bin for many agents from one list of their
rooms, keep their own loops. `hffd_slices` is HFFD's one loop: it gives
each bin as (start, copies) slices of the universal ordering, which
`mms.hffd_and_lift` lifts as they are, and `hffd` spells them out as
chore ids.

Every threshold search starts at `ladder_bound`, a lower bound on the
makespan of any partition into d bins that is exact on a divisibility
chain, where first fit is optimal (Coffman, Garey & Johnson 1987), so
`mms` reads a chain's MMS off it with no probe. On other rows
`ladder_probe` tries first fit there once, and `smallest_fitting_cap`
bisects the capacities above it only when that probe fails. On at most two
distinct weights `two_valued_makespan` gives the exact makespan, the MMS,
in time polynomial in the number of chores: it bisects from the bound to
the first-fit cap with an exact test of each capacity, a DP over how many
heavy chores each bin holds. Both searches run the one bisection,
`_bisect`, with their own test of a capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

from .core import Allocation, CostRow, Instance, _bundle_count
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


def first_fit_bin(count: Mapping[int, int], room: int) -> list[tuple[int, int]]:
    """First fit into one bin of the given room, over weight counts: `count`
    maps each weight to its copies left, heaviest first. The bin takes, of
    the k copies of each weight w that fits the room left, min(k, room // w),
    because the room only shrinks. Returns the (weight, copies) the bin
    takes, heaviest first, and leaves `count` as it is."""
    taken: list[tuple[int, int]] = []
    for w, k in count.items():
        if w <= room and k:
            if k * w > room:
                k = room // w
            taken.append((w, k))
            room -= k * w
    return taken


def first_fit_bins(count: dict[int, int], room: int,
                   max_bins: int | None = None) -> list[list[tuple[int, int]]]:
    """FFD's bins over weight counts: the (weight, copies) that
    `first_fit_bin` puts in each bin of the given room in turn, taken out of
    `count`, which drops a weight once no copy is left. It stops when
    `count` is empty, after `max_bins` bins, or when the next bin would take
    nothing, and leaves `count` holding the copies no bin took."""
    bins: list[list[tuple[int, int]]] = []
    while count and (max_bins is None or len(bins) < max_bins):
        taken = first_fit_bin(count, room)
        if not taken:
            break
        for w, t in taken:
            if t == count[w]:
                del count[w]
            else:
                count[w] -= t
        bins.append(taken)
    return bins


def first_fit_places_all(runs: Sequence[tuple[int, int]], cap: int, max_bins: int) -> bool:
    """Whether first fit of the descending weights that the (weight, count)
    `runs` spell out leaves nothing out, at O(len(runs) * groups), groups
    as below.

    First fit places each copy of a run's weight w in the lowest-index bin
    with room for it, and rooms only shrink, so a bin that cannot take w
    cannot take it later in the run either: the open bins, in index order,
    take min(k, room // w) of the k copies left, and the rest open full
    bins of cap // w copies each. Those are the bins of first fit chore by
    chore; the probe fails when w > cap or when more than max_bins bins
    would open.

    The open bins are kept as groups of consecutive bins that share one
    room: the `sizes[g]` bins of group g each have room `rooms[g]`. Each
    bin of a group takes room // w copies, so a run fills a whole group in
    one step; the group where the run ends splits into the bins that took
    room // w copies, one bin that took the rest, and the bins it did not
    reach, leaving out the empty parts. A run adds at most two groups, so
    there are never more groups than bins or than twice the runs, and on
    two weights a probe costs the same at any number of bins."""
    rooms: list[int] = []
    sizes: list[int] = []
    opened = 0
    for w, k in runs:
        if w > cap:
            return False
        for g, room in enumerate(rooms):
            if w <= room:
                per_bin = room // w
                size = sizes[g]
                if k >= per_bin * size:  # the run fills the whole group
                    rooms[g] = room - per_bin * w
                    k -= per_bin * size
                    if not k:
                        break
                elif size == 1:  # the run ends in this bin
                    rooms[g] = room - k * w
                    break
                else:  # the run ends in this group, which splits
                    # group g keeps the bins the run does not reach; the
                    # bin of the rest, then the full ones, go in before it
                    full, rest = divmod(k, per_bin)
                    left = size - full - (rest > 0)
                    if left:
                        sizes[g] = left
                    else:
                        del rooms[g], sizes[g]
                    if rest:
                        rooms.insert(g, room - rest * w)
                        sizes.insert(g, 1)
                    if full:
                        rooms.insert(g, room - per_bin * w)
                        sizes.insert(g, full)
                    break
        else:
            per_bin = cap // w
            full, rest = divmod(k, per_bin)
            opened += full + (rest > 0)
            if opened > max_bins:
                return False
            if full:
                rooms.append(cap - per_bin * w)
                sizes.append(full)
            if rest:
                rooms.append(cap - rest * w)
                sizes.append(1)
    return True


def ladder_bound(runs: Sequence[tuple[int, int]], bins: int) -> int:
    """The largest over the prefixes j of the descending (weight, count)
    `runs` of g_j * ceil(T_j / (bins * g_j)), where g_j is the gcd and T_j
    the total weight of the j + 1 heaviest runs; 0 with no runs.

    A lower bound on the largest bin of any partition into `bins` bins: the
    chores of weight at least w_j sum to T_j, so some bin holds at least
    T_j / bins of them, a multiple of g_j. The first prefix gives at least
    w0 and the last at least ceil(total / bins), so the bound is at least
    max(w0, ceil(total / bins)). On a divisibility chain g_j = w_j, and first
    fit at the bound L fills the bins: when weight class j comes, the
    heavier classes, all multiples of w_j, have filled T_{j-1} / w_j of the
    bins * (L // w_j) slots of size w_j, so the bound on prefix j leaves
    room for the whole class. There the bound is the smallest fitting
    capacity and the makespan. `bins` goes through the bundle-count
    contract (`core._bundle_count`)."""
    _bundle_count(bins)
    bound = total = g = 0
    for w, k in runs:
        total += w * k
        g = gcd(g, w)
        bound = max(bound, g * -(-total // (bins * g)))
    return bound


def ladder_probe(runs: Sequence[tuple[int, int]], bins: int) -> tuple[int, bool]:
    """The `ladder_bound` of the (weight, count) `runs` and whether first
    fit fills `bins` bins at it, with one probe. When it does, no partition
    does better, so the bound is the makespan and the smallest fitting
    capacity, on any row."""
    bound = ladder_bound(runs, bins)
    return bound, first_fit_places_all(runs, bound, bins)


def smallest_fitting_cap(runs: Sequence[tuple[int, int]], bins: int) -> int:
    """The smallest integer capacity at which first fit of the descending
    (weight, count) `runs` fills `bins` bins. The first probe is at
    `ladder_bound`, below which no partition fits, and ends the search on a
    divisibility chain. When it fails, a bisection covers the rest of the
    MultiFit bracket (Coffman, Garey & Johnson 1978): from the bound + 1 to
    min(total, max(w0, ceil(total/bins)) + w0), from which everything fits,
    with w0 the largest weight and total the sum of w * count. Exact where
    success is monotone in the capacity (factored and bivalued costs);
    otherwise the result succeeds but may not be the smallest. No runs need
    capacity 0, where the probe fits; `ladder_bound` checks `bins`."""
    bound, fits = ladder_probe(runs, bins)
    if fits:
        return bound
    w0 = runs[0][0]
    total = sum(w * k for w, k in runs)
    hi = min(total, max(w0, -(-total // bins)) + w0)
    return _bisect(lambda cap: first_fit_places_all(runs, cap, bins), bound + 1, hi)


def two_valued_makespan(runs: Sequence[tuple[int, int]], bins: int) -> int:
    """The makespan of the chores that the (weight, count) `runs`, at most
    two, spell in `bins` bins: the exact MMS in the row's integer scale, in
    time polynomial in the number of chores. The makespan lies from
    `ladder_bound`, below which no partition fits, to `smallest_fitting_cap`,
    at which first fit fits, and which is the bound itself when first fit
    fills the bins there (`ladder_probe`). Otherwise `_bisect` decides each
    capacity below it with `_two_valued_fits`: feasibility only grows with
    the capacity, so it returns the smallest capacity at which some
    partition fits, the makespan. No runs need 0."""
    if len(runs) > 2:
        raise BadParams(f"need at most two distinct weights, got {len(runs)}")
    hi = smallest_fitting_cap(runs, bins)
    return _bisect(lambda cap: _two_valued_fits(runs, cap, bins), ladder_bound(runs, bins), hi - 1)


def _bisect(fits: Callable[[int], bool], lo: int, hi: int) -> int:
    """The smallest capacity from lo to hi at which `fits` holds, hi + 1
    when no probe holds: the one bisection of the threshold searches. Each
    probe is at the middle, (lo + hi) // 2, of the capacities left, so the
    probes come in one fixed order. Exact when `fits` only grows with the
    capacity; otherwise the result is the last probe that held."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _two_valued_fits(runs: Sequence[tuple[int, int]], cap: int, bins: int) -> bool:
    """Whether the L chores of weight a and the S of weight b < a, the two
    `runs`, fit `bins` bins of capacity `cap`: whether some split of the
    heavy chores, k_i in bin i with k_i * a <= cap and sum k_i = L, leaves
    sum floor((cap - k_i * a) / b) >= S slots for the light ones. A DP over
    the bins finds, for each count j of heavy chores placed, the most light
    slots the bins so far leave, in O(min(bins, L) * L * (cap // a)). The
    best split need not be balanced: at a = 5, b = 3, cap = 10 two heavy
    chores in one of two bins leave 3 light slots, one in each leaves 2."""
    (a, heavy), (b, light) = runs
    slots = [(cap - k * a) // b for k in range(min(cap // a, heavy) + 1)]
    # at most `heavy` bins hold a heavy chore: the spare ones hold none and
    # leave slots[0] each
    spare = max(bins - heavy, 0)
    # most[j]: the most light slots the other bins so far leave holding j
    # heavy chores, -1 when they cannot hold j
    most = [0] + [-1] * heavy
    for _ in range(bins - spare):
        new = [-1] * (heavy + 1)
        for j, x in enumerate(most):
            if x >= 0:
                for k, s in enumerate(slots[:heavy + 1 - j]):
                    if x + s > new[j + k]:
                        new[j + k] = x + s
        most = new
    return most[heavy] >= 0 and most[heavy] + spare * slots[0] >= light


def ffd(chores: Iterable[int], cost: Sequence[Fraction], tau: Fraction,
        max_bins: int | None = None) -> PackOutcome:
    """First-Fit-Decreasing: largest chore first (lower id breaks ties),
    into the lowest-index bin whose cost stays within tau; a new bin opens
    when allowed, otherwise the chore is left unallocated (in FFD order).
    The bins fill one at a time by `first_fit_bins` over the weights left,
    each taking the lowest ids left of each weight: a chore joins bin b
    exactly when it fits b's room then, as in first fit chore by chore.
    Raises BadParams for a threshold that is not a positive rational
    (`CostRow.cap`), a given `max_bins` that is not a positive int
    (`core._bundle_count`), or a chore that is not one of the row's m
    chores (`CostRow.ids`), in that order."""
    row = CostRow.of(cost)
    cap = row.cap(tau)
    if max_bins is not None:
        _bundle_count(max_bins)
    ids = row.by_weight(row.ffd_order(row.ids(chores)))
    count = {w: len(group) for w, group in ids.items()}
    bins: list[tuple[int, ...]] = []
    for taken in first_fit_bins(count, cap, max_bins):
        kept: list[int] = []
        for w, t in taken:
            kept += ids[w][:t]
            del ids[w][:t]
        bins.append(tuple(kept))
    unallocated = tuple(c for w in count for c in ids[w])
    return PackOutcome(Allocation._trusted(tuple(bins)), unallocated)


def multifit(chores: Iterable[int], cost: Sequence[Fraction], n: int) -> tuple[Fraction, PackOutcome]:
    """MultiFit: FFD into n bins at the capacity `smallest_fitting_cap`
    finds, with its largest bin cost as the threshold. That cost is a
    subset sum at which FFD makes the same decisions, so it succeeds.

    Exact minimum for factored and bivalued cost functions, where FFD
    success is monotone in the threshold; for general cost functions the
    returned threshold is guaranteed to succeed but may not be minimal.
    """
    _bundle_count(n)
    chores = tuple(chores)
    if not chores:
        return Fraction(0), PackOutcome(Allocation.of([]), ())
    row = CostRow.of(cost)
    cap = smallest_fitting_cap(row.runs(chores), n)
    outcome = ffd(chores, row, row.value(cap), max_bins=n)
    loads = (sum(map(row.weights.__getitem__, b)) for b in outcome.bundles)
    return row.value(max(loads)), outcome


def hffd(instance: Instance, thresholds: Sequence[Fraction]) -> PackOutcome:
    """Heterogeneous FFD (Huang & Lu 2021) on an IDO instance: the bins of
    `hffd_slices`, each spelled out as the chores of its slices of the
    universal ordering (`Instance.blocks`), with their owners, and the
    chores of the blocks left over, in that order, as unallocated."""
    bins, owners, left = hffd_slices(instance, thresholds)
    order = instance.blocks[0]
    spelled: list[tuple[int, ...]] = []
    for slices in bins:
        bin_chores: list[int] = []
        for p, t in slices:
            bin_chores += order[p:p + t]
        spelled.append(tuple(bin_chores))
    unallocated = tuple(c for p, end in left for c in order[p:end])
    return PackOutcome(Allocation._trusted(tuple(spelled), owners), unallocated)


def hffd_slices(instance: Instance, thresholds: Sequence[Fraction]) -> tuple[
        list[list[tuple[int, int]]], list[int], list[tuple[int, int]]]:
    """HFFD's loop, the one copy of it: each bin as the (start, copies)
    slices of the universal ordering it took, in the order taken, the
    agent each bin went to, and the (start, end) slices of the blocks left
    over, which hold the chores no bin took.

    Fills one bin at a time: a chore joins the open bin when it fits at
    least one remaining agent under that agent's threshold; a closed bin
    goes to the lowest-index remaining agent for whom its last chore fitted,
    the first agent left in the bin's list of agents it still fits. Each
    agent's threshold becomes a capacity in their row's cached scale, by
    the threshold contract `CostRow.cap`, before the blocks are read.

    The walk goes over the instance's blocks (`Instance.blocks`, which
    `to_ido` sets for a twin), chores that cost every agent the same: the
    bin takes a block's next t copies in one step, t the most that some
    agent left still has room for, which are the copies that join one by
    one, and keeps the agents that fit all t of them. A lone chore is a
    block with t = 1. Each bin keeps one list of rooms, indexed by agent,
    and the ids of the agents it still fits; a block costs two plain loops
    over those ids, one for t, which stops once t reaches the block's size,
    and one that lowers the rooms of the agents kept.
    """
    if len(thresholds) != instance.n:
        raise BadParams("need one threshold per agent")
    caps = list(map(CostRow.cap, instance.costs, thresholds))
    order, cuts = instance.blocks
    rows = [row.weights for row in instance.costs]
    # (next, end) of each block with chores left: a bin takes a block's
    # copies from the front, so those left are order[next:end]
    bounds = [0, *cuts, len(order)]
    blocks = list(zip(bounds, bounds[1:])) if order else []
    pool = list(range(instance.n))
    bins: list[list[tuple[int, int]]] = []
    owners: list[int] = []
    while blocks and pool:
        # each agent's room in the open bin, and the agents the bin still
        # fits, ascending: a chore that joins drops the agents it does not
        # fit, which can take no later chore since their rooms only shrink
        rooms = caps[:]
        fits = pool[:]
        taken: list[tuple[int, int]] = []
        left: list[tuple[int, int]] = []
        for block in blocks:
            p, end = block
            c = order[p]
            size = end - p
            t = 0
            for i in fits:
                k = rooms[i] // rows[i][c]
                if k > t:
                    t = k
                    if t >= size:  # t is capped at the block's size
                        t = size
                        break
            if not t:  # no agent has room for one copy
                left.append(block)
                continue
            kept: list[int] = []
            for i in fits:
                w = t * rows[i][c]
                if w <= rooms[i]:
                    rooms[i] -= w
                    kept.append(i)
            fits = kept
            taken.append((p, t))
            if t < size:
                left.append((p + t, end))
        if not taken:
            raise EmptyBinDeadlock(order[blocks[0][0]])
        owner = fits[0]
        blocks = left
        bins.append(taken)
        owners.append(owner)
        pool.remove(owner)
    return bins, owners, blocks
