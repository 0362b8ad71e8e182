"""Maximin-share values (brute-force oracle, exact polynomial methods for
factored and two-valued costs) and the three end-to-end solvers.

Every solver runs HFFD on the IDO twin and lifts its bins back to the
original chores in one step, `hffd_and_lift`: HFFD's bins arrive as
slices of the twin's positions (`packing.hffd_slices`), and the lift
walks those slices (`LiftingMap.lift_slices`), so no bin is spelled out
chore by chore and only the final allocation is built. Each agent's cost
is then checked against their threshold on integer sums."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import (Allocation, CostRow, Instance, LiftingMap, bundle_cost, classify,
                   format_rational, is_bivalued_costs, is_factored_costs, to_ido)
from .errors import (BadParams, NotBivalued, NotFactored, TheoremViolation,
                     TooLarge, UnsupportedClass)
from .packing import (hffd_slices, ladder_bound, ladder_probe, multifit, smallest_fitting_cap,
                      two_valued_makespan)

ORACLE_CAP = 14
APPROX_RATIO = Fraction(15, 13)
_Threshold = tuple[Fraction, Fraction | None]  # a rule's (threshold, mu or None)


@dataclass(frozen=True)
class MMSResult:
    value: Fraction
    witness: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SolveResult:
    """Complete allocation (original chore ids, bundle i → agent i) with the
    per-agent guarantees it was solved against: each agent's cost is at
    most their threshold. An ordinal threshold is at most the agent's MMS
    for floor(9n/11) bundles and may be the proven lower bound max(w0,
    ceil(total/d)). `mms_values[i]` is None when agent i's MMS was not
    computed."""

    allocation: Allocation
    costs: tuple[Fraction, ...]
    thresholds: tuple[Fraction, ...]
    mms_values: tuple[Fraction | None, ...]
    algorithm: str


def mms_brute(cost: Sequence[Fraction], chores: Iterable[int], d: int) -> MMSResult:
    """Exact minimum over all d-partitions of the maximum bundle cost.

    Branch-and-bound over chores in descending order; a chore may open
    bundle k only when bundle k-1 is nonempty, and a branch is cut as soon
    as its running maximum cannot beat the incumbent. Three cuts keep the
    search small: it stops at `packing.ladder_bound`, which no partition
    beats and which is at least max(w0, ceil(total/d)); the incumbent
    starts just above `smallest_fitting_cap`, where first fit fills d bins;
    and a load state (chore index, sorted bundle loads) is searched at most
    once. On at most two distinct costs the value mu is known up front
    (`packing.two_valued_makespan`): the incumbent starts at mu + 1 and the
    search stops at mu, so it only looks for the witness. Each cut removes
    only partitions no better than the incumbent, so the witness is the
    first optimal partition in search order.
    """
    if d < 1:
        raise BadParams("need at least one bundle")
    chores = tuple(chores)
    if len(chores) > ORACLE_CAP:
        raise TooLarge(f"brute-force oracle capped at m={ORACLE_CAP}, got {len(chores)}")
    if not chores:
        return MMSResult(Fraction(0), ((),) * d)
    # integer arithmetic inside the search; Fractions are exact but slow
    row = CostRow.of(cost)
    ordered = row.ffd_order(chores)
    weights = [row.weights[c] for c in ordered]
    runs = row.runs(chores)
    if len(runs) <= 2:
        lower = two_valued_makespan(runs, d)
        best = lower + 1
    else:
        lower = ladder_bound(runs, d)
        best = smallest_fitting_cap(runs, d) + 1
    best_assign: list[int] | None = None
    sums = [0] * d
    assign = [0] * len(ordered)
    # The sorted loads fix `used` and `cur_max`, and equal keys reach the
    # same completions up to relabelling the bundles. After a full search
    # of a state the incumbent is at most its best completion, so an equal
    # state met later cannot improve on it.
    searched: set[tuple[int, tuple[int, ...]]] = set()

    def rec(idx: int, used: int, cur_max: int):
        nonlocal best, best_assign
        if cur_max >= best:
            return
        if idx == len(ordered):
            best = cur_max
            best_assign = assign[:]
            return
        key = (idx, tuple(sorted(sums)))
        if key in searched:
            return
        w = weights[idx]
        tried: set[int] = set()
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
        searched.add(key)

    rec(0, 0, 0)
    assert best_assign is not None
    bundles: list[list[int]] = [[] for _ in range(d)]
    for idx, b in enumerate(best_assign):
        bundles[b].append(ordered[idx])
    return MMSResult(row.value(best), tuple(tuple(sorted(b)) for b in bundles))


def mms_lower_bound(row: CostRow, chores: Iterable[int], d: int) -> int:
    """max(w0, ceil(total/d)) in the row's integer scale, w0 the largest
    weight of the chores and total their sum (0 with no chores). Some bundle
    of any d-partition holds w0, and some holds at least total/d, so the
    bound is at most the MMS for d bundles."""
    if d < 1:
        raise BadParams("need at least one bundle")
    runs = row.runs(chores)
    total = sum(w * k for w, k in runs)
    return max(runs[0][0] if runs else 0, -(-total // d))


def mms_factored(cost: Sequence[Fraction], chores: Iterable[int], d: int) -> MMSResult:
    """Exact MMS for a factored cost function in polynomial time: `multifit`
    into d bins, whose threshold is the minimal one on such rows, with its
    FFD bins as the witness."""
    if d < 1:
        raise BadParams("need at least one bundle")
    chores = tuple(chores)
    row = CostRow.of(cost)
    if not row.runs(chores).chain:
        raise NotFactored("cost values do not form a divisibility chain")
    value, outcome = multifit(chores, row, d)
    witness = tuple(tuple(sorted(b)) for b in outcome.bundles)
    return MMSResult(value, witness + ((),) * (d - len(witness)))


def mms_value(cost: Sequence[Fraction], chores: Iterable[int], d: int) -> Fraction:
    """Exact MMS for d bundles, by a method the chores' runs pick: on a
    divisibility chain (`Runs.chain`) `ladder_bound`, which no partition
    beats and at which first fit fills d bins, so it is read with no probe
    (as `min_success_threshold` gives it); on two other costs
    `packing.two_valued_makespan`, at any number of chores; else
    `mms_brute`, with its cap of ORACLE_CAP chores and its errors."""
    if d < 1:
        raise BadParams("need at least one bundle")
    row = CostRow.of(cost)
    chores = tuple(chores)
    runs = row.runs(chores)
    if runs.chain:
        return row.value(ladder_bound(runs, d))
    if len(runs) == 2:
        return row.value(two_valued_makespan(runs, d))
    return mms_brute(row, chores, d).value


def min_success_threshold(cost: Sequence[Fraction], chores: Iterable[int], n: int) -> Fraction:
    """Minimal threshold at which FFD fills n bins, with no witness packed.
    On a divisibility chain that is `ladder_bound`, read with no probe; on
    two other costs `smallest_fitting_cap` searches for it. Supported for
    factored and bivalued costs, where FFD success is monotone in the
    threshold; for general costs use multifit, which only guarantees a
    succeeding threshold."""
    if n < 1:
        raise BadParams("need at least one bin")
    row = CostRow.of(cost)
    runs = row.runs(chores)
    if runs.chain:
        return row.value(ladder_bound(runs, n))
    if len(runs) > 2:
        raise UnsupportedClass("minimal threshold needs factored or bivalued costs; "
                               "use multifit for a succeeding (not necessarily minimal) "
                               "threshold")
    return row.value(smallest_fitting_cap(runs, n))


def hffd_and_lift(ido: Instance, lifting: LiftingMap,
                  thresholds: Sequence[Fraction]) -> tuple[Allocation, tuple[int, ...]]:
    """HFFD on the IDO twin, lifted to the original chores, one bundle per
    agent, and the original chores it left unallocated, ids ascending.
    HFFD's bins come as slices of the twin's ordering (`hffd_slices`),
    which is the identity, so a slice is a run of positions, and the lift
    walks them as they are (`LiftingMap.lift_slices`): no bin is spelled
    out chore by chore. HFFD gives each agent at most one bin, so each
    owner's picks go straight into their bundle, with no merge; an agent
    without a bin gets an empty bundle. Lifting raises no agent's cost, also
    when HFFD leaves chores. With no chores every agent gets an empty
    bundle, since HFFD rejects the zero thresholds such an instance gets."""
    n = ido.n
    if ido.m == 0:
        return Allocation.of([()] * n, agents=range(n)), ()
    bins, owners, left = hffd_slices(ido, thresholds)
    served = [False] * n
    slices: list[tuple[int, int, int]] = []
    for b, owner in enumerate(owners):
        if not 0 <= owner < n:
            raise BadParams(f"bundle {b} belongs to agent {owner}, not one of {n} agents")
        if served[owner]:
            raise BadParams(f"bundle {b} belongs to agent {owner}, who has a bundle already")
        served[owner] = True
        slices += [(start, copies, owner) for start, copies in bins[b]]
    agents = range(n)
    lifted, taken = lifting.lift_slices(slices, agents, n)
    allocation = Allocation(tuple(map(tuple, lifted)), tuple(agents))
    if not left:
        return allocation, ()
    return allocation, tuple(c for c, held in enumerate(taken) if not held)


def _solve(instance: Instance, algorithm: str, d: int,
           *rules: Callable[[CostRow, Sequence[int], int], _Threshold]) -> SolveResult:
    """The pipeline every solver shares. A rule `rule(row, chores, d)` gives
    (threshold, mu or None) for each row of the IDO twin and all of its
    chores (`Instance.chores`), whose runs the twin row keeps. HFFD runs at
    the first rule's thresholds, and at the next rule's whenever it leaves
    chores; at the last rule's it must place them all. Each agent's cost in
    the lifted allocation is checked against their threshold, as an
    integer sum of their row's weights against the row's capacity."""
    ido, lifting = to_ido(instance)
    chores = ido.chores()
    for rule in rules:
        thresholds, mus = zip(*(rule(row, chores, d) for row in ido.costs))
        allocation, unallocated = hffd_and_lift(ido, lifting, thresholds)
        if not unallocated:
            break
    else:
        raise TheoremViolation(
            f"{algorithm}: HFFD left chores {' '.join(map(str, unallocated))} unallocated "
            f"at thresholds {' '.join(map(format_rational, thresholds))}", instance)
    costs = tuple(map(bundle_cost, instance.costs, allocation.bundles))
    for i, (row, bundle, t) in enumerate(zip(instance.costs, allocation.bundles, thresholds)):
        if sum(map(row.weights.__getitem__, bundle)) > row.cap(t):
            raise TheoremViolation(
                f"{algorithm}: lifted cost {format_rational(costs[i])} of agent {i} exceeds "
                f"threshold {format_rational(t)}", instance)
    return SolveResult(allocation, costs, thresholds, mus, algorithm)


def _mms_threshold(row: CostRow, chores: Sequence[int], d: int) -> _Threshold:
    """`_solve`'s threshold rule that gives each agent their MMS for d bundles."""
    mu = mms_value(row, chores, d)
    return mu, mu


def _lower_bound_threshold(row: CostRow, chores: Sequence[int], d: int) -> _Threshold:
    """`_solve`'s threshold rule that gives each agent the lower bound
    `mms_lower_bound` for d bundles, which is at most their MMS. The bound is
    their MMS, and is reported as mu, when it equals `ladder_bound` and one
    first-fit probe fills d bins there (`ladder_probe`). It is at least
    every chore's cost, so any agent's empty bin takes any chore and HFFD
    cannot deadlock at these thresholds."""
    lower = mms_lower_bound(row, chores, d)
    tau = row.value(lower)
    bound, fits = ladder_probe(row.runs(chores), d)
    return tau, tau if fits and bound == lower else None


def solve_factored(instance: Instance) -> SolveResult:
    """Exact MMS allocation for a factored instance (every agent's cost is
    at most their maximin share), in polynomial time."""
    if not all(is_factored_costs(row) for row in instance.costs):
        raise NotFactored("every agent must have factored costs")
    return _solve(instance, "factored", instance.n, _mms_threshold)


def _bivalued_threshold(row: CostRow, chores: Sequence[int], n: int) -> _Threshold:
    """`_solve`'s threshold rule for a personalized bivalued agent: on at
    most ORACLE_CAP chores (15/13)·mu, with mu the exact MMS from
    `mms_value`; on more, the minimal FFD-success threshold, which the
    15/13 bound guarantees is no larger."""
    if len(chores) > ORACLE_CAP:
        return min_success_threshold(row, chores, n), None
    mu = mms_value(row, chores, n)
    return APPROX_RATIO * mu, mu


def solve_bivalued(instance: Instance) -> SolveResult:
    """15/13-MMS allocation for a personalized bivalued instance, at the
    thresholds of `_bivalued_threshold`."""
    if not all(is_bivalued_costs(row) for row in instance.costs):
        raise NotBivalued("every agent must have at most two distinct cost values")
    return _solve(instance, "bivalued", instance.n, _bivalued_threshold)


def solve_ordinal(instance: Instance) -> SolveResult:
    """1-out-of-floor(9n/11) MMS allocation for a general instance: every
    agent's cost is at most their MMS for d = floor(9n/11) bundles.

    Each agent's threshold is at most that MMS. It is first the proven lower
    bound max(w0, ceil(total/d)), computed in O(m) with no MMS search. Only
    when HFFD at those bounds leaves chores are the thresholds the exact
    MMS values, at which the theorem guarantees HFFD succeeds (`mms_value`,
    capped at ORACLE_CAP chores on rows of three or more costs that are not
    a divisibility chain).
    `mms_values[i]` is None when agent i's MMS was not computed: their bound
    was used and first fit does not show it to be the MMS."""
    if instance.n < 2:
        raise BadParams("the ordinal solver needs at least two agents")
    return _solve(instance, "ordinal", 9 * instance.n // 11,
                  _lower_bound_threshold, _mms_threshold)


def solve_auto(instance: Instance) -> SolveResult:
    """Dispatch on the instance class; factored wins over bivalued because
    its guarantee (exact MMS) is stronger. `classify` keeps each row's
    runs with their chain test, so the class check of `solve_factored` or
    `solve_bivalued` reads them and tests no row again."""
    cls = classify(instance)
    if cls.is_factored:
        return solve_factored(instance)
    if cls.is_personalized_bivalued:
        return solve_bivalued(instance)
    return solve_ordinal(instance)
