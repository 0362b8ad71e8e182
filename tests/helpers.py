"""Independent oracles and random-input builders shared by the tests.

Every oracle here deliberately avoids the code path it checks: subsets are
enumerated exhaustively, partitions are generated without pruning, and
lexicographic maxima are found by pairwise comparison over all candidates.
The reference packers (`ref_ffd`, `ref_hffd`, `ref_lift` and the threshold
searches built on them) are the straightforward Fraction implementations
that the integer kernels in `choremms.packing` must reproduce exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from choremms.core import (Allocation, EQUAL, bundle_cost, is_bivalued_costs,
                           is_factored_costs, lex_compare, sort_desc,
                           universal_ordering)
from choremms.errors import EmptyBinDeadlock
from choremms.ffv import is_ffv
from choremms.packing import PackOutcome, hffd, subset_sums


def hffd_dropping_last_chore(instance, thresholds):
    """A broken stand-in for `hffd`: the real packing with the last chore
    of its last bin left unplaced."""
    outcome = hffd(instance, thresholds)
    *bins, last = outcome.bundles
    return PackOutcome(Allocation.of(bins + [last[:-1]], outcome.allocation.agents),
                       outcome.unallocated + (last[-1],), False)


def brute_lex_max(all_chores, prefix, cost, tau):
    """Lexicographically maximal subset under tau by scanning every subset."""
    taken = {c for b in prefix for c in b}
    remaining = [c for c in all_chores if c not in taken]
    best: tuple[int, ...] = ()
    for r in range(len(remaining) + 1):
        for combo in itertools.combinations(remaining, r):
            if bundle_cost(cost, combo) <= tau and lex_compare(combo, best, cost) > EQUAL:
                best = combo
    return best


def brute_min_makespan(cost, chores, d):
    """Exact minimum over all d-partitions of the max bundle cost, with no
    pruning beyond skipping symmetric bundle orderings."""
    chores = list(chores)
    best = None
    for labels in itertools.product(range(d), repeat=len(chores)):
        sums = [Fraction(0)] * d
        for c, b in zip(chores, labels):
            sums[b] += cost[c]
        worst = max(sums)
        if best is None or worst < best:
            best = worst
    return best


def all_complete_allocations(m, k):
    """Every assignment of m chores to k ordered bundles."""
    for labels in itertools.product(range(k), repeat=m):
        bundles = [[] for _ in range(k)]
        for c, b in enumerate(labels):
            bundles[b].append(c)
        yield Allocation.of(bundles)


def random_rationals(rng: random.Random, m, max_num=12, max_den=3):
    return tuple(Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
                 for _ in range(m))


def perturb_to_ffv(rng: random.Random, base: Allocation, all_chores, cost, tau,
                   attempts=30) -> Allocation:
    """Randomly shuffle chores between bundles, keeping only moves that
    preserve First-Fit-Validity; yields an adversarial FFV allocation that
    is usually not an FFD output."""
    current = base
    for _ in range(attempts):
        bundles = [list(b) for b in current.bundles]
        n = len(bundles)
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5 and bundles[j]:
            c = rng.choice(bundles[j])
            bundles[j].remove(c)
            bundles[i].append(c)
        elif bundles[i] and bundles[j]:
            a = rng.choice(bundles[i])
            b = rng.choice(bundles[j])
            bundles[i].remove(a)
            bundles[j].remove(b)
            bundles[i].append(b)
            bundles[j].append(a)
        else:
            continue
        candidate = Allocation.of(bundles)
        if is_ffv(all_chores, candidate, cost, tau)[0]:
            current = candidate
    return current


# ------------------------------------------------ Fraction reference packers

def ref_ffd(chores, cost, tau, max_bins=None):
    """First-Fit-Decreasing with Fraction sums: largest chore first (lower
    id breaks ties), into the lowest-index bin whose cost stays within tau."""
    bins, sums, unallocated = [], [], []
    for c in sort_desc(chores, cost):
        for b, total in enumerate(sums):
            if total + cost[c] <= tau:
                bins[b].append(c)
                sums[b] += cost[c]
                break
        else:
            if cost[c] <= tau and (max_bins is None or len(bins) < max_bins):
                bins.append([c])
                sums.append(cost[c])
            else:
                unallocated.append(c)
    return PackOutcome(Allocation.of(bins), tuple(unallocated), not unallocated)


def ref_hffd(instance, thresholds):
    """Heterogeneous FFD with Fraction sums, one bin at a time; a closed bin
    goes to the lowest-index remaining agent for whom its last chore fitted."""
    remaining = list(universal_ordering(instance).perm)
    pool = list(range(instance.n))
    bins, owners = [], []
    while remaining and pool:
        bin_chores, last_fit = [], []
        sums = {i: Fraction(0) for i in pool}
        for c in list(remaining):
            fits = [i for i in pool if sums[i] + instance.cost(i)[c] <= thresholds[i]]
            if fits:
                bin_chores.append(c)
                remaining.remove(c)
                for i in pool:
                    sums[i] += instance.cost(i)[c]
                last_fit = fits
        if not bin_chores:
            raise EmptyBinDeadlock(remaining[0])
        owner = min(last_fit)
        bins.append(tuple(bin_chores))
        owners.append(owner)
        pool.remove(owner)
    return PackOutcome(Allocation.of(bins, owners), tuple(remaining), not remaining)


def ref_lift(original, allocation):
    """Walk IDO positions from smallest to largest; each owner takes their
    cheapest remaining original chore (lower id among equals)."""
    owner_of = {}
    for b, bundle in enumerate(allocation.bundles):
        for c in bundle:
            owner_of[c] = (allocation.agent_of(b), b)
    remaining = set(range(original.m))
    lifted = [[] for _ in allocation.bundles]
    for j in reversed(range(original.m)):
        agent, b = owner_of[j]
        row = original.cost(agent)
        pick = min(remaining, key=lambda c: (row[c], c))
        remaining.remove(pick)
        lifted[b].append(pick)
    return Allocation.of(lifted, allocation.agents)


def _ref_bisect(chores, cost, bins, grid):
    """Smallest grid value at which ref_ffd fills `bins` bins, by the
    bisection every threshold search uses (the last value is not probed)."""
    lo, hi = 0, len(grid) - 1
    best = hi
    while lo <= hi:
        mid = (lo + hi) // 2
        if ref_ffd(chores, cost, grid[mid], max_bins=bins).succeeded:
            best, hi = mid, mid - 1
        else:
            lo = mid + 1
    return grid[best]


def ref_multifit(chores, cost, n):
    """MultiFit threshold over the Fraction subset-sum grid."""
    chores = list(chores)
    if not chores:
        return Fraction(0)
    grid = subset_sums(chores, cost)
    grid = grid[grid.index(max(cost[c] for c in chores)):]
    return _ref_bisect(chores, cost, n, grid)


def ref_min_success_threshold(cost, chores, n):
    """The Fraction threshold search for factored rows (multiples of the
    smallest cost) and bivalued rows (the a·large + b·small lattice)."""
    chores = list(chores)
    if not chores:
        return Fraction(0)
    values = [cost[c] for c in chores]
    lo, hi = max(values), sum(values)
    if is_factored_costs(values):
        unit = min(values)
        grid = [k * unit for k in range(int(lo / unit), int(hi / unit) + 1)]
    else:
        assert is_bivalued_costs(values)
        large, small = max(values), min(values)
        n_large = values.count(large)
        grid = sorted({a * large + b * small for a in range(n_large + 1)
                       for b in range(len(values) - n_large + 1)
                       if lo <= a * large + b * small <= hi})
    return _ref_bisect(chores, cost, n, grid)
