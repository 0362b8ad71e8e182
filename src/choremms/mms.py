"""Maximin-share values (brute-force oracle, exact polynomial methods for
factored and two-valued costs) and the three end-to-end solvers.

Every solver runs HFFD on the IDO twin and lifts its bins back to the
original chores in one step, `hffd_and_lift`: HFFD's bins arrive as
slices of the twin's positions (`packing.hffd_slices`), and the lift
walks those slices (`LiftingMap.lift_slices`), so no bin is spelled out
chore by chore and only the final allocation is built. Each agent's cost
is then checked against their threshold. What HFFD and the lift guarantee
by construction is not checked again: each agent owns at most one bin,
every owner is one of the n agents, and the lift hands out each of the
chores 0..m-1 at most once."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import (Allocation, CostRow, Instance, _bundle_count, _cost_of, classify,
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

    Branch-and-bound over chores in descending order; a chore tries each
    distinct bundle load once, lowest bundle first, so of the empty bundles
    it only opens the first, and a branch is cut as soon as its running
    maximum cannot beat the incumbent. Three cuts keep the search small: it
    stops at `packing.ladder_bound`, which no partition beats and which is
    at least max(w0, ceil(total/d)); the incumbent starts just above
    `smallest_fitting_cap`, where first fit fills d bins; and a load state
    (chore index, sorted bundle loads) is searched at most once. On at most
    two distinct costs the value mu is known up front
    (`packing.two_valued_makespan`): the incumbent starts at mu + 1 and the
    search stops at mu, so it only looks for the witness. Each cut removes
    only partitions no better than the incumbent, so the witness is the
    first optimal partition in search order. With no chores that is d
    empty bundles, of value 0.
    """
    _bundle_count(d)
    chores = tuple(chores)
    if len(chores) > ORACLE_CAP:
        raise TooLarge(f"brute-force oracle capped at m={ORACLE_CAP}, got {len(chores)}")
    # integer arithmetic inside the search; Fractions are exact but slow
    row = CostRow.of(cost)
    runs = row.runs(chores)
    ordered = row.ffd_order(chores)
    weights = [row.weights[c] for c in ordered]
    if len(runs) <= 2:
        lower = two_valued_makespan(runs, d)
        best = lower + 1
    else:
        lower = ladder_bound(runs, d)
        best = smallest_fitting_cap(runs, d) + 1
    best_assign: list[int] | None = None
    sums = [0] * d
    assign = [0] * len(ordered)
    # The sorted loads fix `cur_max`, and equal keys reach the same
    # completions up to relabelling the bundles. After a full search
    # of a state the incumbent is at most its best completion, so an equal
    # state met later cannot improve on it.
    searched: set[tuple[int, tuple[int, ...]]] = set()

    def rec(idx: int, cur_max: int):
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
        for b in range(d):
            if sums[b] in tried:
                continue
            tried.add(sums[b])
            sums[b] += w
            assign[idx] = b
            rec(idx + 1, max(cur_max, sums[b]))
            sums[b] -= w
            if best == lower:
                return
        searched.add(key)

    rec(0, 0)
    assert best_assign is not None
    bundles: list[list[int]] = [[] for _ in range(d)]
    for idx, b in enumerate(best_assign):
        bundles[b].append(ordered[idx])
    return MMSResult(row.value(best), tuple(tuple(sorted(b)) for b in bundles))


def mms_lower_bound(cost: Sequence[Fraction], chores: Iterable[int], d: int) -> int:
    """max(w0, ceil(total/d)) in the integer scale of `CostRow.of(cost)`, w0
    the largest weight of the chores and total their sum (0 with no
    chores). Some bundle of any d-partition holds w0, and some holds at
    least total/d, so the bound is at most the MMS for d bundles."""
    _bundle_count(d)
    runs = CostRow.of(cost).runs(chores)
    total = sum(w * k for w, k in runs)
    return max(runs[0][0] if runs else 0, -(-total // d))


def mms_factored(cost: Sequence[Fraction], chores: Iterable[int], d: int) -> MMSResult:
    """Exact MMS for a factored cost function in polynomial time: `multifit`
    into d bins, whose threshold is the minimal one on such rows, with its
    FFD bins as the witness."""
    _bundle_count(d)
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
    _bundle_count(d)
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
    _bundle_count(n)
    row = CostRow.of(cost)
    runs = row.runs(chores)
    if runs.chain:
        return row.value(ladder_bound(runs, n))
    if len(runs) > 2:
        raise UnsupportedClass("minimal threshold needs factored or bivalued costs; "
                               "use multifit for a succeeding (not necessarily minimal) "
                               "threshold")
    return row.value(smallest_fitting_cap(runs, n))


def hffd_and_lift(instance: Instance,
                  thresholds: Sequence[Fraction]) -> tuple[Allocation, tuple[int, ...]]:
    """HFFD on the instance's IDO twin (`to_ido`) at one threshold per
    agent, lifted back to the instance's chores, one bundle per agent, and
    the instance's chores it left unallocated, ids ascending. Raises
    BadParams when the thresholds are not one per agent, with chores or
    without. HFFD's bins come as slices of the twin's ordering
    (`hffd_slices`), which is the identity, so a slice is a run of
    positions. Each slice is tagged with its bin's owner, one of the n
    agents, and lifted as it is into agent i's bundle i
    (`LiftingMap.lift_slices`): no bin is spelled out chore by chore, and
    no bin is merged, since HFFD gives each agent at most one bin. An agent
    without a bin gets an empty bundle. The lift hands out each chore at
    most once, so the allocation is built unchecked
    (`Allocation._trusted`). Lifting raises no agent's cost, also when HFFD
    leaves chores. With no chores every agent gets an empty bundle, since
    HFFD rejects the zero thresholds such an instance gets."""
    n = instance.n
    if len(thresholds) != n:
        raise BadParams("need one threshold per agent")
    if instance.m == 0:
        return Allocation.of([()] * n, agents=range(n)), ()
    ido, lifting = to_ido(instance)
    bins, owners, left = hffd_slices(ido, thresholds)
    slices = [(start, copies, owner) for owner, parts in zip(owners, bins)
              for start, copies in parts]
    lifted, taken = lifting.lift_slices(slices, range(n))
    allocation = Allocation._trusted(tuple(map(tuple, lifted)), range(n))
    if not left:
        return allocation, ()
    return allocation, tuple(c for c, held in enumerate(taken) if not held)


def _solve(instance: Instance, algorithm: str, d: int,
           *rules: Callable[[CostRow, Sequence[int], int], _Threshold]) -> SolveResult:
    """The pipeline every solver shares. A rule `rule(row, chores, d)` gives
    (threshold, mu or None) for each row of the IDO twin (`Instance.twin`)
    and all of its chores (`Instance.chores`, the one tuple of m ids that
    the instance and its twin share), whose runs the twin row keeps. HFFD
    (`hffd_and_lift`) runs at the first rule's thresholds, and at the next
    rule's whenever it leaves chores; at the last rule's it must place them
    all. Each agent's cost in the lifted allocation, an integer sum of
    their row's weights made a Fraction once (`core._cost_of`, with no id
    check, since the lift hands out only the m chores), is checked against
    their threshold."""
    chores = instance.chores()
    for rule in rules:
        thresholds, mus = zip(*(rule(row, chores, d) for row in instance.twin.costs))
        allocation, unallocated = hffd_and_lift(instance, thresholds)
        if not unallocated:
            break
    else:
        raise TheoremViolation(
            f"{algorithm}: HFFD left chores {' '.join(map(str, unallocated))} unallocated "
            f"at thresholds {' '.join(map(format_rational, thresholds))}", instance)
    costs = tuple(map(_cost_of, instance.costs, allocation.bundles))
    for i, (cost, t) in enumerate(zip(costs, thresholds)):
        if cost > t:
            raise TheoremViolation(
                f"{algorithm}: lifted cost {format_rational(cost)} of agent {i} exceeds "
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


def _ordinal_bundles(n: int) -> int:
    """floor(9n/11), the number of bundles of the ordinal guarantee for n
    agents; raises BadParams below two agents, where it is 0."""
    if n < 2:
        raise BadParams("the ordinal solver needs at least two agents")
    return 9 * n // 11


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
    return _solve(instance, "ordinal", _ordinal_bundles(instance.n),
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
