"""Independent oracles and random-input builders shared by the tests.

Every oracle here deliberately avoids the code path it checks: subsets are
enumerated exhaustively, partitions are generated without pruning, and
lexicographic maxima are found by pairwise comparison over all candidates.
The reference packers (`ref_ffd`, `ref_hffd`, `ref_lift` and the threshold
searches built on them) are the straightforward Fraction implementations
that the integer kernels in `choremms.packing` must reproduce exactly. The
reference certificate layer (`ref_is_ffv`, `ref_reduce_factored`,
`ref_reduce_bivalued`, `ref_transform_mms_to_ffd`, and the class and
ordering checks) does the same for `choremms.ffv` and
`choremms.core`. `ref_mms_brute` is `mms_brute`'s search without its cuts.
`ref_parse_instance` parses every cost field on its own, as the instance
parser did before it read each distinct text of a row once.
`ref_gen_instance` draws each cost by `random.Random.choice` or
`Fraction(randint, randint)`, the draws `analysis.gen_instance` reproduces
straight from `getrandbits`.

`lex_compare`, `swap`, `find_exact_subset` and `ffd_first_bin` are not
oracles: they are the package's profile comparison, the reductions' swap
worker, exact-subset fill and FFD behind the signatures the tests call,
which no caller in the package needs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from choremms.analysis import gen_instance, subset_sums
from choremms.core import (Allocation, CostRow, EQUAL, GREATER, LESS, Instance, LiftingMap,
                           bundle_cost, compare_profiles, parse_rational, to_ido)
from choremms.errors import (BadParams, EmptyBinDeadlock, InvariantViolation, NotBivalued,
                             NotIDO, ParseError, PreconditionViolation, SubsetViolation)
from choremms.io import MAX_AGENTS, _parse_count, _significant_lines
from choremms.ffv import SwapStep, SwapTranscript, _exact_subset, _Worker, is_ffv
from choremms.mms import APPROX_RATIO, MMSResult, solve_auto
from choremms.packing import PackOutcome, ffd, hffd, hffd_slices


def lex_compare(b1, b2, cost):
    """Position-wise comparison of the bundles' cost profiles, the shorter
    one extended with zeros: `core.compare_profiles` on the scaled row.
    Returns LESS, EQUAL or GREATER; any two bundles are comparable."""
    row = CostRow.of(cost)
    return compare_profiles(row.profile(b1), row.profile(b2))


def swap(alloc, i, t_i, j, t_j):
    """`alloc` after the reductions' worker (`ffv._Worker.apply`) exchanges
    T_i ⊆ A_i with T_j ⊆ A_j; either side may be empty."""
    # the rule reads no cost, so every chore weighs 1
    row = CostRow([Fraction(1)] * (max(alloc.allocated(), default=-1) + 1))
    worker = _Worker(list(alloc.bundles), row)
    worker.apply(0, i, t_i, j, t_j)
    return Allocation.of(worker.finish().final.bundles, alloc.agents)


def find_exact_subset(chores, cost, target):
    """`ffv._exact_subset` on a Fraction target: the subset summing to
    exactly the target, for factored costs where the target is itself a cost
    value at least as large as every member."""
    if target <= 0:
        raise PreconditionViolation("target must be positive")
    # the target may bring a denominator the row lacks, so it joins the scale
    row = CostRow([*cost, target])
    return _exact_subset(row.ffd_order(chores), row, row.weights[-1])


def ffd_first_bin(all_chores, prefix, cost, tau):
    """`packing.ffd`'s first bin over the chores the prefix leaves, with the
    signature of `ref_benchmark_bundle`: the benchmark bundle, FFD's k-th
    bin when the prefix is FFD's first k bins."""
    taken = {c for b in prefix for c in b}
    bins = ffd([c for c in all_chores if c not in taken], cost, tau, max_bins=1).bundles
    return bins[0] if bins else ()


def hffd_dropping_last_chore(instance, thresholds):
    """A broken stand-in for `hffd_slices`: the real packing with the last
    chore of its last bin left unplaced."""
    bins, owners, left = hffd_slices(instance, thresholds)
    *first, last = bins
    *kept, (start, copies) = last
    if copies > 1:
        kept.append((start, copies - 1))
    return first + [kept], owners, left + [(start + copies - 1, start + copies)]


def brute_lex_max(all_chores, prefix, cost, tau):
    """Lexicographically maximal subset under tau by scanning every subset."""
    taken = {c for b in prefix for c in b}
    remaining = [c for c in all_chores if c not in taken]
    best: tuple[int, ...] = ()
    for r in range(len(remaining) + 1):
        for combo in itertools.combinations(remaining, r):
            if bundle_cost(cost, combo) <= tau and ref_lex_compare(combo, best, cost) > EQUAL:
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


def ref_mms_brute(cost, chores, d):
    """The branch-and-bound search `mms_brute` ran before its cuts: the
    incumbent starts at total + 1 and the search stops only at
    ceil(total/d). Its witness is the first optimal partition in search
    order, which the pruned search must return unchanged."""
    chores = list(chores)
    if not chores:
        return MMSResult(Fraction(0), ((),) * d)
    row = CostRow.of(cost)
    ordered = row.ffd_order(chores)
    weights = [row.weights[c] for c in ordered]
    total = sum(weights)
    lower = -(-total // d)  # ceil
    best = total + 1
    best_assign = None
    sums = [0] * d
    assign = [0] * len(ordered)

    def rec(idx, used, cur_max):
        nonlocal best, best_assign
        if cur_max >= best:
            return
        if idx == len(ordered):
            best = cur_max
            best_assign = assign[:]
            return
        w = weights[idx]
        tried = set()
        limit = min(used + 1, d)
        for b in range(limit):
            if sums[b] in tried:
                continue
            tried.add(sums[b])
            sums[b] += w
            assign[idx] = b
            rec(idx + 1, max(used, b + 1), max(cur_max, sums[b]))
            sums[b] -= w
            if best == lower:
                return

    rec(0, 0, 0)
    bundles = [[] for _ in range(d)]
    for idx, b in enumerate(best_assign):
        bundles[b].append(ordered[idx])
    return MMSResult(row.value(best), tuple(tuple(sorted(b)) for b in bundles))


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


def ref_gen_instance(kind, n, m, seed, **params):
    """`gen_instance`'s instances drawn one cost at a time: `rng.choice` over
    a row's values, and one `Fraction(randint(1, 24), randint(1, 4))` built
    per general cost. Takes valid arguments only."""
    rng = random.Random(("choremms", kind, n, m, seed).__repr__())
    if kind == "factored":
        base = Fraction(rng.randint(1, 3))
        chain = [base]
        for _ in range(params.get("levels", rng.randint(1, 3))):
            chain.append(chain[-1] * rng.randint(2, 3))
        rows = [[rng.choice(chain) for _ in range(m)] for _ in range(n)]
    elif kind == "bivalued":
        small = Fraction(rng.randint(1, 5))
        large = small + rng.randint(1, 8)
        rows = [[rng.choice((large, small)) for _ in range(m)] for _ in range(n)]
    elif kind == "personalized_bivalued":
        rows = []
        for _ in range(n):
            small = Fraction(rng.randint(1, 6), rng.randint(1, 2))
            large = small + Fraction(rng.randint(1, 9), rng.randint(1, 2))
            rows.append([rng.choice((large, small)) for _ in range(m)])
    else:
        rows = [[Fraction(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
    return Instance.from_rows(rows)


def certify_case(kind, n, m, seed, **params):
    """The reduction a certificate replay of a seeded `gen_instance` runs,
    as (P, Q, cost, tau, all_chores): Q is HFFD on the `to_ido` twin at the
    `solve_auto` thresholds, and P is FFD at the last-served agent's
    threshold, on that agent's twin row."""
    instance = gen_instance(kind, n, m, seed, **params)
    thresholds = solve_auto(instance).thresholds
    ido, _ = to_ido(instance)
    packed = hffd(ido, thresholds)
    last = packed.allocation.agents[-1]
    cost, tau = ido.cost(last), thresholds[last]
    return ffd(ido.chores(), cost, tau).allocation, packed.allocation, cost, tau, ido.chores()


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


# ------------------------------------- Fraction reference classes and orders

def sort_desc(chores, cost):
    """Chore ids by descending cost; equal costs break toward the lower id."""
    return sorted(chores, key=lambda c: (-cost[c], c))


def ref_is_factored_costs(values):
    """Every smaller distinct value divides the next larger one."""
    distinct = sorted(set(values))
    return all((b / a).denominator == 1 for a, b in zip(distinct, distinct[1:]))


def ref_is_bivalued_costs(values):
    return len(set(values)) <= 2


def ref_universal_ordering(instance):
    """The chores by their cost columns in descending lexicographic order,
    lower id first among equal columns, checked against every agent."""
    columns = list(zip(*instance.costs))
    perm = sorted(instance.chores(), key=columns.__getitem__, reverse=True)
    for i in range(instance.n):
        row = instance.cost(i)
        for a, b in zip(perm, perm[1:]):
            if row[a] < row[b]:
                raise NotIDO(f"agent {i} ranks chore {b} above chore {a}")
    return tuple(perm)


def ref_to_ido(instance):
    rows = tuple(tuple(sorted(row, reverse=True)) for row in instance.costs)
    return Instance(rows), LiftingMap(instance)


def ref_parse_instance(text):
    """`io.parse_instance` field by field: every cost text parsed, then the
    row checked for a zero, and the rows scaled lazily by `Instance`."""
    lines = list(_significant_lines(text))
    if not lines or lines[0][1] != "mms-instance 1":
        lineno = lines[0][0] if lines else 1
        raise ParseError("expected header 'mms-instance 1'", lineno)
    if len(lines) < 3:
        raise ParseError("missing agents/chores declarations")
    n = _parse_count(lines[1], "agents")
    m = _parse_count(lines[2], "chores")
    if n < 1:
        raise ParseError("need at least one agent", lines[1][0])
    if n > MAX_AGENTS:
        raise ParseError(f"at most {MAX_AGENTS} agents are supported", lines[1][0])
    expected = n if m else 0
    if len(lines) != 3 + expected:
        raise ParseError(f"expected {expected} cost rows, found {len(lines) - 3}")
    rows = []
    for lineno, line in lines[3:]:
        fields = line.split()
        if len(fields) != m:
            raise ParseError(f"expected {m} costs, found {len(fields)}", lineno)
        try:
            row = tuple(parse_rational(f) for f in fields)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if any(c <= 0 for c in row):
            raise ParseError("all chore costs must be strictly positive", lineno)
        rows.append(row)
    return Instance(tuple(rows) if m else ((),) * n)


def ref_lex_compare(b1, b2, cost):
    """Position-wise comparison of Fraction cost profiles, zero-extended."""
    p1 = sorted((cost[c] for c in b1), reverse=True)
    p2 = sorted((cost[c] for c in b2), reverse=True)
    for a, b in zip(p1, p2):
        if a != b:
            return GREATER if a > b else LESS
    if len(p1) == len(p2):
        return EQUAL
    rest = p1[len(p2):] or p2[len(p1):]
    if any(x != 0 for x in rest):
        return GREATER if len(p1) > len(p2) else LESS
    return EQUAL


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
    return PackOutcome(Allocation.of(bins), tuple(unallocated))


def ref_hffd(instance, thresholds):
    """Heterogeneous FFD with Fraction sums, one bin at a time; a closed bin
    goes to the lowest-index remaining agent for whom its last chore fitted."""
    remaining = list(ref_universal_ordering(instance))
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
    return PackOutcome(Allocation.of(bins, owners), tuple(remaining))


def ref_lift(original, allocation):
    """Walk IDO positions from smallest to largest; each owner takes their
    cheapest remaining original chore (lower id among equals), and a
    position no bundle holds is skipped."""
    owner_of = {}
    for b, bundle in enumerate(allocation.bundles):
        for c in bundle:
            owner_of[c] = (allocation.agent_of(b), b)
    remaining = set(range(original.m))
    lifted = [[] for _ in allocation.bundles]
    for j in reversed(range(original.m)):
        if j not in owner_of:
            continue
        agent, b = owner_of[j]
        row = original.cost(agent)
        pick = min(remaining, key=lambda c: (row[c], c))
        remaining.remove(pick)
        lifted[b].append(pick)
    return Allocation.of(lifted, allocation.agents)


def ref_first_fit_places_all(weights, cap, max_bins):
    """Whether first fit of the integer `weights`, one at a time in the
    given order, places them all in at most `max_bins` bins of capacity
    `cap`: the per-weight probe the run-length one must agree with."""
    rooms = []
    for w in weights:
        for b, room in enumerate(rooms):
            if w <= room:
                rooms[b] = room - w
                break
        else:
            if w > cap or len(rooms) >= max_bins:
                return False
            rooms.append(cap - w)
    return True


def run_length(weights):
    """(weight, count) runs of a descending weight list."""
    return [(w, len(list(group))) for w, group in itertools.groupby(weights)]


def ref_ladder_bound(weights, bins):
    """The largest over the prefixes of the descending integer `weights`,
    chore by chore, of g * ceil(T / (bins * g)), g the prefix's gcd and T
    its sum."""
    return max(g * -(-t // (bins * g)) for g, t in
               zip(itertools.accumulate(weights, math.gcd), itertools.accumulate(weights)))


def ref_smallest_fitting_cap(weights, bins):
    """First fit at `ref_ladder_bound` and, when that fails, the bisection
    of the MultiFit bracket above it, over the descending integer
    `weights`, probing with `ref_first_fit_places_all`. Returns the
    capacity found and the number of probes."""
    total = sum(weights)
    bound = ref_ladder_bound(weights, bins)
    if ref_first_fit_places_all(weights, bound, bins):
        return bound, 1
    lo = bound + 1
    hi = min(total, max(weights[0], -(-total // bins)) + weights[0])
    best, probes = hi, 1
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        if ref_first_fit_places_all(weights, mid, bins):
            best, hi = mid, mid - 1
        else:
            lo = mid + 1
    return best, probes


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
    if ref_is_factored_costs(values):
        unit = min(values)
        grid = [k * unit for k in range(int(lo / unit), int(hi / unit) + 1)]
    else:
        assert ref_is_bivalued_costs(values)
        large, small = max(values), min(values)
        n_large = values.count(large)
        grid = sorted({a * large + b * small for a in range(n_large + 1)
                       for b in range(len(values) - n_large + 1)
                       if lo <= a * large + b * small <= hi})
    return _ref_bisect(chores, cost, n, grid)


# -------------------------------------- Fraction reference certificate layer
# The FFD packings these take as given come from `choremms.packing.ffd`,
# which test_differential checks against `ref_ffd`.

def ref_benchmark_bundle(all_chores, allocated_prefix, cost, tau):
    """Greedy largest-first over the chores left after the prefix, with a
    Fraction running sum kept within tau."""
    if tau <= 0:
        raise PreconditionViolation("benchmark threshold must be positive")
    taken = {c for b in allocated_prefix for c in b}
    remaining = [c for c in all_chores if c not in taken]
    bundle = []
    total = Fraction(0)
    for c in sort_desc(remaining, cost):
        if total + cost[c] <= tau:
            bundle.append(c)
            total += cost[c]
    return tuple(bundle)


def ref_is_ffv(all_chores, alloc, cost, tau):
    all_chores = list(all_chores)
    for k in range(len(alloc.bundles)):
        bench = ref_benchmark_bundle(all_chores, alloc.bundles[:k], cost, tau)
        if ref_lex_compare(alloc.bundles[k], bench, cost) < EQUAL:
            return False, k
    return True, None


def ref_find_exact_subset(chores, cost, target):
    chores = list(chores)
    values = [cost[c] for c in chores]
    if not ref_is_factored_costs(values + [target]):
        raise PreconditionViolation("costs and target must form a divisibility chain")
    if any(v > target for v in values):
        raise PreconditionViolation("every chore must cost at most the target")
    if sum(values) < target:
        raise PreconditionViolation("total cost must reach the target")
    subset = []
    total = Fraction(0)
    for c in sort_desc(chores, cost):
        if total + cost[c] <= target:
            subset.append(c)
            total += cost[c]
        if total == target:
            break
    if total != target:
        raise PreconditionViolation(f"greedy missed the target {target}; got {total}")
    return tuple(subset)


def _ref_pad(bundles, n):
    out = [tuple(b) for b in bundles]
    out.extend(() for _ in range(n - len(out)))
    return out


def _ref_profile(bundle, cost):
    return tuple(sorted((cost[c] for c in bundle), reverse=True))


def _ref_check_ffd_output(P, all_chores, cost, tau):
    if not set(P.allocated()) == set(all_chores):
        raise PreconditionViolation("the FFD allocation must contain every chore")
    fresh = ref_ffd(all_chores, cost, tau)
    reference = _ref_pad(fresh.bundles, len(P.bundles))
    if len(reference) < len(P.bundles) or any(
            ref_lex_compare(b, r, cost) != EQUAL
            for b, r in zip(_ref_pad(P.bundles, len(reference)), reference)):
        raise PreconditionViolation("allocation is not an FFD output at this threshold")


def ref_swap(bundles, i, t_i, j, t_j):
    """The swap rule, stated apart from `ffv._Worker.apply`: bundles i and j
    trade T_i ⊆ A_i for T_j ⊆ A_j and come back as sorted ids; every other
    bundle is returned exactly as given."""
    t_i, t_j = set(t_i), set(t_j)
    a_i, a_j = set(bundles[i]), set(bundles[j])
    if i == j or not (t_i <= a_i and t_j <= a_j):
        raise SubsetViolation(f"bundles {i} and {j} cannot swap {sorted(t_i)} for {sorted(t_j)}")
    new = list(bundles)
    new[i], new[j] = tuple(sorted((a_i - t_i) | t_j)), tuple(sorted((a_j - t_j) | t_i))
    return new


class RefWorker:
    """Applies swaps with `ref_swap` and records steps, recomputing every
    bundle's Fraction cost before and after each swap."""

    def __init__(self, bundles, cost):
        self.alloc = Allocation.of(bundles)
        self.cost = cost
        self.universe = set(self.alloc.allocated())
        self.transcript = SwapTranscript()

    def bundle(self, k):
        return self.alloc.bundles[k]

    def costs(self):
        return tuple(bundle_cost(self.cost, b) for b in self.alloc.bundles)

    def apply(self, k, i, t_i, j, t_j, forbid_increase_after=None):
        before = self.costs()
        self.alloc = Allocation.of(ref_swap(self.alloc.bundles, i, t_i, j, t_j))
        after = self.costs()
        self.transcript.steps.append(SwapStep(len(self.transcript.steps), k, i,
                                              tuple(sorted(t_i)), j, tuple(sorted(t_j)),
                                              after))
        if self.alloc.allocated() != self.universe:
            self.fail(k, "swap changed the global chore multiset")
        if forbid_increase_after is not None:
            for idx in range(forbid_increase_after + 1, len(after)):
                if after[idx] > before[idx]:
                    self.fail(k, f"cost of bundle {idx} increased from "
                                 f"{before[idx]} to {after[idx]}")

    def fail(self, k, message):
        self.transcript.result = f"violation k={k}"
        self.transcript.final = self.alloc
        raise InvariantViolation(message, self.transcript)

    def finish(self):
        self.transcript.result = "equal"
        self.transcript.final = self.alloc
        return self.transcript


def _ref_find_donor(worker, after, value):
    for i in range(len(worker.alloc.bundles) - 1, after, -1):
        matches = [c for c in worker.bundle(i) if worker.cost[c] == value]
        if matches:
            return i, max(matches)
    return None


def _ref_reduce(P, Q, cost, tau, all_chores, verify_ffd, reach_target):
    if tau <= 0:
        raise BadParams("FFD threshold must be positive")
    if verify_ffd:
        _ref_check_ffd_output(P, all_chores, cost, tau)
    ok, bad = ref_is_ffv(all_chores, Q, cost, tau)
    if not ok:
        raise PreconditionViolation(f"allocation is not First-Fit-Valid (bundle {bad})")
    n = max(len(P.bundles), len(Q.bundles))
    worker = RefWorker(_ref_pad(P.bundles, n), cost)
    targets = [_ref_profile(b, cost) for b in _ref_pad(Q.bundles, n)]
    for k in range(n):
        reach_target(worker, k, targets[k])
        if _ref_profile(worker.bundle(k), cost) != targets[k]:
            worker.fail(k, f"bundle {k} did not reach its target profile")
    return worker.finish()


def ref_reduce_factored(P, Q, cost, tau, all_chores, verify_ffd=True):
    all_chores = list(all_chores)
    if not ref_is_factored_costs(cost[c] for c in all_chores):
        raise PreconditionViolation("cost function must be factored")

    def reach_target(worker, k, target):
        for j, want in enumerate(target):
            current = sort_desc(worker.bundle(k), cost)
            have = cost[current[j]] if j < len(current) else Fraction(0)
            if want <= have:
                if want < have:
                    worker.fail(k, f"bundle {k} position {j} exceeds its target "
                                   f"({have} > {want}); FFV should forbid this")
                continue
            tail = current[j:]
            donor = _ref_find_donor(worker, k, want)
            if donor is None:
                worker.fail(k, f"no chore of cost {want} left in bundles after {k}")
            i, cl = donor
            if bundle_cost(cost, tail) >= want:
                moved = ref_find_exact_subset(tail, cost, want)
            else:
                moved = tuple(tail)
            worker.apply(k, k, moved, i, (cl,), forbid_increase_after=k)
    return _ref_reduce(P, Q, cost, tau, all_chores, verify_ffd, reach_target)


def _ref_large_small(all_values):
    distinct = sorted(set(all_values))
    if len(distinct) > 2:
        raise NotBivalued("cost function must have at most two distinct values")
    return distinct[-1], distinct[0]


def ref_reduce_bivalued(P, Q, cost, tau, all_chores, verify_ffd=True):
    all_chores = list(all_chores)
    large, _small = _ref_large_small(cost[c] for c in all_chores)

    def reach_target(worker, k, target):
        if _ref_profile(worker.bundle(k), cost) == target:
            return
        q_large = sum(1 for v in target if v == large)
        p_large = sum(1 for v in worker.bundle(k) if cost[v] == large)
        if q_large > p_large:
            donor = _ref_find_donor(worker, k, large)
            if donor is None:
                worker.fail(k, "no large chore left in any later bundle")
            i, cl = donor
            smalls = tuple(c for c in worker.bundle(k) if cost[c] != large)
            worker.apply(k, k, smalls, i, (cl,), forbid_increase_after=k)
        have = list(_ref_profile(worker.bundle(k), cost))
        need = list(target)
        for v in have:
            if v in need:
                need.remove(v)
            else:
                worker.fail(k, f"bundle {k} holds a chore of cost {v} "
                               "beyond its target profile")
        for v in need:
            donor = _ref_find_donor(worker, k, v)
            if donor is None:
                worker.fail(k, f"no chore of cost {v} left in bundles after {k}")
            i, cl = donor
            worker.apply(k, k, (), i, (cl,), forbid_increase_after=k)
    return _ref_reduce(P, Q, cost, tau, all_chores, verify_ffd, reach_target)


def _ref_counts(bundle, cost, large):
    ids = list(bundle)
    n_large = sum(1 for c in ids if cost[c] == large)
    return n_large, len(ids) - n_large


def _ref_last_large_bundle(worker, large):
    for i in range(len(worker.alloc.bundles) - 1, -1, -1):
        if any(worker.cost[c] == large for c in worker.bundle(i)):
            return i
    return None


def ref_transform_mms_to_ffd(Q, cost, mu):
    all_chores = sorted(Q.allocated())
    if not all_chores:
        return SwapTranscript(steps=[], result="equal", final=Q)
    large, small = _ref_large_small(cost[c] for c in all_chores)
    n = len(Q.bundles)
    for k, b in enumerate(Q.bundles):
        if bundle_cost(cost, b) > mu:
            raise PreconditionViolation(f"bundle {k} exceeds the stated MMS value {mu}")
    tau = APPROX_RATIO * mu
    outcome = ffd(all_chores, cost, tau)
    if mu >= Fraction(13, 2) * small:
        transcript = SwapTranscript(steps=[], final=Allocation.of(_ref_pad(outcome.bundles, n)))
        if len(outcome.bundles) > n:
            transcript.result = "violation k=0"
            raise InvariantViolation(
                "FFD at tau >= mu + s used more bins than the partition", transcript)
        return transcript
    p_bundles = _ref_pad(outcome.bundles, n)
    n_work = max(n, len(p_bundles))
    p_bundles = _ref_pad(p_bundles, n_work)
    p_profiles = [_ref_profile(b, cost) for b in p_bundles]
    q_sorted = sorted(Q.bundles, key=lambda b: (-_ref_counts(b, cost, large)[0],
                                                -_ref_counts(b, cost, large)[1]))
    worker = RefWorker(_ref_pad(q_sorted, n_work), cost)

    def check_invariants(k):
        for i in range(k):
            if _ref_profile(worker.bundle(i), cost) != p_profiles[i]:
                worker.fail(k, f"invariant 1 broken at bundle {i}")
        for i in range(k, n_work):
            c_i = bundle_cost(cost, worker.bundle(i))
            if c_i > tau:
                worker.fail(k, f"invariant 2 broken: bundle {i} costs {c_i} > tau {tau}")
        for i in range(k + 1, n_work):
            c_i = bundle_cost(cost, worker.bundle(i))
            n_l, n_s = _ref_counts(worker.bundle(i), cost, large)
            if c_i <= mu or n_l == 0 or (n_l == 1 and (n_s + 2) * small <= tau):
                continue
            worker.fail(k, f"invariant 3 broken at bundle {i}")

    for k in range(n_work):
        check_invariants(k)
        if len(worker.bundle(k)) > len(p_profiles[k]):
            a_q, b_q = _ref_counts(worker.bundle(k), cost, large)
            a_p = sum(1 for v in p_profiles[k] if v == large)
            b_p = len(p_profiles[k]) - a_p
            if bundle_cost(cost, worker.bundle(k)) > mu:
                worker.fail(k, "a bundle reaching the two-for-one swap exceeds mu")
            if a_p < a_q + 1:
                worker.fail(k, "two-small-chores (a) broken: FFD bundle lacks extra large chore")
            if b_q < b_p + 2:
                worker.fail(k, "two-small-chores (b) broken: fewer than two extra small chores")
            if a_q < 1:
                worker.fail(k, "two-small-chores (d) broken: no large chore in the bundle")
            z = _ref_last_large_bundle(worker, large)
            if z is None or z <= k:
                worker.fail(k, "two-small-chores (c) broken: no later bundle has a large chore")
            smalls = sorted(c for c in worker.bundle(k) if cost[c] != large)
            cl = max(c for c in worker.bundle(z) if cost[c] == large)
            worker.apply(k, k, tuple(smalls[:2]), z, (cl,))
            if len(worker.bundle(k)) > len(p_profiles[k]):
                a_q2, b_q2 = _ref_counts(worker.bundle(k), cost, large)
                if (a_q2, b_q2) == (2, 1) and (a_p, b_p) == (2, 0):
                    one_small = min(c for c in worker.bundle(k) if cost[c] != large)
                    worker.apply(k, k, (one_small,), z, ())
                elif (a_q2, b_q2) == (2, 2) and (a_p, b_p) == (3, 0):
                    z2 = _ref_last_large_bundle(worker, large)
                    if z2 is None or z2 <= k:
                        worker.fail(k, "special case: no later bundle has a large chore")
                    smalls2 = sorted(c for c in worker.bundle(k) if cost[c] != large)
                    cl2 = max(c for c in worker.bundle(z2) if cost[c] == large)
                    worker.apply(k, k, tuple(smalls2[:2]), z2, (cl2,))
                else:
                    worker.fail(k, "bundle still has too many chores outside the "
                                   "two special cases")
        for j, want in enumerate(p_profiles[k]):
            current = sort_desc(worker.bundle(k), cost)
            have = cost[current[j]] if j < len(current) else Fraction(0)
            if have > want:
                worker.fail(k, f"bundle {k} position {j} exceeds the FFD profile")
            if have == want:
                continue
            donor = _ref_find_donor(worker, k, want)
            if donor is None:
                worker.fail(k, f"no chore of cost {want} left in bundles after {k}")
            z, cl = donor
            out = (current[j],) if j < len(current) else ()
            worker.apply(k, k, out, z, (cl,))
        if _ref_profile(worker.bundle(k), cost) != p_profiles[k]:
            worker.fail(k, f"bundle {k} did not reach the FFD profile")
    return worker.finish()
