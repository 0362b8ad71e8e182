"""First-Fit-Valid verification, exact-subset extraction for factored
costs, and the swap-transcript reductions with per-step invariant checking.

Every transcript step shows the full per-bundle cost snapshot, so a
failed invariant can be replayed as a counterexample.

Costs are Fractions at the interface, checked where a plain row enters
(`core.CostRow.of`), so every weight is a positive integer. Each call
reads the row's cached integer weights (`core.CostRow`), with a threshold
tau becoming the integer capacity floor(tau * D) by the threshold contract
`core.CostRow.cap`; every sum, sort and comparison runs on those integers,
and values become Fractions only for results and messages. On positive
weights Python's list order of two profiles is their order extended with
zeros, so the FFV walks compare profiles as lists.

The swap worker states the swap rule once, in `apply`, on one set of chore
ids per bundle. A bundle that a donor lookup reads is also held as runs,
each weight to its chore ids ascending, built from its set on that read; a
swap drops the runs of both its bundles, and the next lookup that reaches
either builds them again. A step is recorded as its two bundles' new
integer sums; the transcript builds its `SwapStep`s, with Fraction costs,
only when read. Most steps of a replay are pulls (T_i empty, T_j one
chore), once bundle k has no chore at the positions left to fill:
`_Worker.pull` takes them in one loop, each donor popped off the end of
its run, each weight's walk resuming at the bundle of its last donor.
Every swap finds its donor by `_Worker.donor`: the chore `_find_donor`
names, the one walk down the bundles, or a failure.
Each profile is sorted once per reduction: the FFV walks hand back the
profiles they sort, Q's become the targets and P's (when checked) the
worker's, and a bundle is sorted again only after a swap changed it. A
reduction puts bundle k in FFD order once and keeps that order across its
own swaps. The FFV checks and the exact subsets of `reduce_factored` fill
one bin by `packing.first_fit_bin`, the one statement of the first-fit
rule, over weight counts, so a benchmark bundle costs O(runs) plus its own
size. FFD's bins are read as profiles once, by `_ffd_profiles` over
`packing.first_fit_bins`: the check that P is an FFD output compares P's
profiles with them, and the transform takes them as its targets. The
chores of a check, `all_chores`, are a set of ids: one listed twice, or
one outside the row's m chores (`core.CostRow.ids`), raises BadParams; so
does a chore in a bundle of `is_ffv`'s allocation, or of P when the
reductions skip the FFD check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .core import Allocation, CostRow, Runs, is_divisibility_chain
from .errors import (BadParams, InvariantViolation, NotBivalued, PreconditionViolation,
                     SubsetViolation)
from .mms import APPROX_RATIO
from .packing import ffd, first_fit_bin, first_fit_bins


class SwapStep(NamedTuple):
    index: int
    k: int
    i: int
    t_i: tuple[int, ...]
    j: int
    t_j: tuple[int, ...]
    costs_after: tuple[Fraction, ...]

    def dump(self) -> str:
        ti = ",".join(str(c) for c in self.t_i)
        tj = ",".join(str(c) for c in self.t_j)
        costs = " ".join(str(c) for c in self.costs_after)
        return (f"step {self.index} k={self.k} swap i={self.i} T_i={{{ti}}} "
                f"j={self.j} T_j={{{tj}}} | costs: {costs}")


class SwapTranscript:
    """A reduction's swap steps, its result and its final allocation.

    A worker's transcript holds each swap as an integer record, (k, i, T_i,
    j, T_j, the new sums of i and j), and builds the `SwapStep`s from the
    records the first time `steps` is read (and so `dump()` and equality):
    it replays them from the bundle sums before the first, each cost made
    by the row's `CostRow.value`. A later read builds only the records added
    since, into the same list. The transcript holds no reference to the
    worker, so a reduction's worker is freed when it returns."""

    __hash__ = None  # mutable, and equal by value

    def __init__(self, steps: list[SwapStep] | None = None, result: str = "equal",
                 final: Allocation | None = None):
        self._steps = [] if steps is None else steps
        self.result = result
        self.final = final
        # a worker's records not yet built, the bundle sums before the first
        # of them and the worker's row
        self._records: list[tuple] = []
        self._sums: list[int] = []
        self._row: CostRow | None = None

    @property
    def steps(self) -> list[SwapStep]:
        records = self._records
        if records:
            steps, sums, value = self._steps, self._sums, self._row.value
            costs = list(map(value, sums))
            for k, i, t_i, j, t_j, sum_i, sum_j in records:
                sums[i], sums[j] = sum_i, sum_j
                costs[i], costs[j] = value(sum_i), value(sum_j)
                steps.append(SwapStep(len(steps), k, i, tuple(sorted(t_i)), j,
                                      tuple(sorted(t_j)), tuple(costs)))
            records.clear()
        return self._steps

    def dump(self) -> str:
        lines = [s.dump() for s in self.steps]
        lines.append(f"result: {self.result}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.steps, self.result, self.final) == (other.steps, other.result, other.final)

    def __repr__(self) -> str:
        return (f"SwapTranscript(steps={self.steps!r}, result={self.result!r}, "
                f"final={self.final!r})")


def _count_free(row: CostRow, all_chores: Iterable[int]) -> tuple[Runs, set[int]]:
    """The chores of a benchmark walk, counted: their weights as (weight,
    count) runs (`CostRow.runs`, the row's kept runs for `Instance.chores`),
    and their ids as a set. A chore listed twice raises BadParams. A
    reduction counts the chores once for its cost test and both of its
    walks."""
    chores = tuple(all_chores)
    ids = set(chores)
    if len(ids) < len(chores):
        raise BadParams("all_chores lists a chore twice")
    return row.runs(chores), ids


def _first_off_benchmark(bundles: Sequence[Sequence[int]], row: CostRow,
                         free: tuple[Runs, set[int]],
                         room: int) -> tuple[int | None, list[list[int]]]:
    """Index of the first bundle whose profile is below its benchmark's, the
    fill of the room from the `free` chores (`_count_free`) that earlier
    bundles do not hold, or None if there is none; and the profiles of the
    bundles before that one (of every bundle when there is none), which a
    reduction keeps rather than sorting them again.

    The free chores are kept as a count per weight, heaviest first, and
    each benchmark is `first_fit_bin` over those counts: so it costs
    O(runs), not a walk over every chore. A held chore leaves the counts
    only if it is one of the free chores; a bundle of free chores equal to
    its benchmark leaves them as the benchmark's runs, also in O(runs)."""
    weights = row.weights
    runs, ids = free
    count = dict(runs)
    profiles: list[list[int]] = []
    for k, bundle in enumerate(bundles):
        fill = first_fit_bin(count, room)
        bench: list[int] = []
        for w, t in fill:
            bench += [w] * t
        profile = row.profile(bundle)
        if profile < bench:
            return k, profiles
        profiles.append(profile)
        # the bundles are disjoint, so each chore leaves the counts once: a
        # bundle of free chores that matches its benchmark holds the fill's
        # copies exactly
        if profile == bench and ids.issuperset(bundle):
            for w, t in fill:
                count[w] -= t
        else:
            for c in ids.intersection(bundle):
                count[weights[c]] -= 1
    return None, profiles


def is_ffv(all_chores: Iterable[int], alloc: Allocation, cost: Sequence[Fraction],
           tau: Fraction) -> tuple[bool, int | None]:
    """Every bundle must be lex-at-least its benchmark bundle, the
    lexicographically maximal subset within tau of the chores that earlier
    bundles do not hold: FFD's first bin over them. Unallocated chores
    participate in the benchmarks. Returns (ok, first violating bundle
    index). With bundles, raises BadParams for a threshold that is not a
    positive rational (`CostRow.cap`), then for a chore of `all_chores`,
    then of the bundles, that is not one of the row's m chores
    (`CostRow.ids`)."""
    row = CostRow.of(cost)
    if not alloc.bundles:
        return True, None
    cap = row.cap(tau)
    free = _count_free(row, all_chores)
    row.ids(chain.from_iterable(alloc.bundles))
    bad, _ = _first_off_benchmark(alloc.bundles, row, free, cap)
    return bad is None, bad


def _exact_subset(order: list[int], row: CostRow, target: int) -> tuple[int, ...]:
    """The chores summing to exactly the target weight, for factored costs
    where the target is itself a chore weight at least as large as every
    member: first fit of the chores, in FFD order, into one bin of the
    target's room (`first_fit_bin`) ends exactly on the target for such
    inputs."""
    ids = row.by_weight(order)
    count = {w: len(group) for w, group in ids.items()}
    if not is_divisibility_chain([*count, target]):
        raise PreconditionViolation("costs and target must form a divisibility chain")
    if any(w > target for w in count):
        raise PreconditionViolation("every chore must cost at most the target")
    if sum(w * k for w, k in count.items()) < target:
        raise PreconditionViolation("total cost must reach the target")
    taken = first_fit_bin(count, target)
    total = sum(w * t for w, t in taken)
    if total != target:
        raise PreconditionViolation(f"greedy missed the target {row.value(target)}; "
                                    f"got {row.value(total)}")
    return tuple(c for w, t in taken for c in ids[w][:t])


def _pad(bundles: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    out = [tuple(b) for b in bundles]
    out.extend(() for _ in range(n - len(out)))
    return out


def _ffd_profiles(runs: Sequence[tuple[int, int]], cap: int, n: int) -> list[list[int]]:
    """The profiles of FFD's bins at the capacity over the chores that the
    (weight, count) `runs` spell (`first_fit_bins`), in turn, then empty
    profiles up to n profiles in all."""
    profiles: list[list[int]] = []
    for taken in first_fit_bins(dict(runs), cap):
        profile: list[int] = []
        for w, t in taken:
            profile += [w] * t
        profiles.append(profile)
    return profiles + [[] for _ in range(n - len(profiles))]


def _check_ffd_output(P: Allocation, row: CostRow, tau, free) -> list[list[int]]:
    """P is an FFD output at tau when it holds the chores of `free`
    (`_count_free`), every one and no other, and its bundles have the
    profiles of FFD's bins over them (`_ffd_profiles`), in turn, and then
    none. Since P holds only those chores, bundles that match FFD's bins in
    turn take the copies the bins do. Returns P's profiles."""
    held = P.allocated()
    if held != free[1]:
        raise PreconditionViolation("the FFD allocation holds a chore outside all_chores"
                                    if held - free[1] else
                                    "the FFD allocation must contain every chore")
    profiles = list(map(row.profile, P.bundles))
    if profiles != _ffd_profiles(free[0], row.cap(tau), len(profiles)):
        raise PreconditionViolation("allocation is not an FFD output at this threshold")
    return profiles


class _Worker:
    """The bundles of a reduction, swapped in place and checked at every
    step: `apply` states the swap rule, and `pull` takes a bundle's missing
    chores one swap (T_i = ∅, T_j = {c}) each.

    Each bundle is a set of chore ids. A bundle that a donor lookup reads is
    also held as runs, each weight's chore ids ascending, built from its set
    on that read (`runs_of`). `apply` drops the runs of both its bundles; a
    donor is the last id of its weight's run, and `pull` pops it off. So a
    built run always equals the bundle's set grouped by weight. A bundle's
    profile is kept until a swap changes the bundle: the reduction hands in
    the profiles its FFD check sorted. A bundle's FFD order is one sort of
    its set. Each step moves two integer sums by the weight it trades and
    goes into the transcript as one record, a `SwapStep` only when read.
    `final` shows a bundle as given until a swap changes it, then as its ids
    ascending."""

    def __init__(self, bundles: list[tuple[int, ...]], row: CostRow):
        # the worker takes over the list; a swap marks its two bundles None
        self.final: list[tuple[int, ...] | None] = bundles
        self.sets = [set(b) for b in bundles]
        self.row = row
        self.weights = row.weights
        self.sums = [sum(map(self.weights.__getitem__, b)) for b in bundles]
        self.profiles: list[list[int] | None] = [None] * len(bundles)
        self.runs: list[dict[int, list[int]] | None] = [None] * len(bundles)
        # the transcript builds its steps from the records the swaps append,
        # replayed from the sums before the first swap
        self.transcript = SwapTranscript()
        self.transcript._row, self.transcript._sums = row, list(self.sums)
        self.records = self.transcript._records

    def runs_of(self, b: int) -> dict[int, list[int]]:
        """Bundle b's runs: each of its weights to its chore ids ascending."""
        runs = self.runs[b]
        if runs is None:
            runs = self.runs[b] = {}
            weights = self.weights
            for c in sorted(self.sets[b]):
                ids = runs.get(weights[c])
                if ids is None:
                    runs[weights[c]] = [c]
                else:
                    ids.append(c)
        return runs

    def profile(self, b: int) -> list[int]:
        """Bundle b's profile; callers must not change it."""
        profile = self.profiles[b]
        if profile is None:
            profile = self.profiles[b] = self.row.profile(self.sets[b])
        return profile

    def ffd_order(self, b: int) -> list[int]:
        """Bundle b in FFD order, as `CostRow.ffd_order` gives it."""
        return self.row.ffd_order(self.sets[b])

    def donor(self, k: int, w: int, missing: str | None = None,
              start: int | None = None) -> tuple[int, int]:
        """The (bundle, chore) `_find_donor` names for weight w past bundle
        k, walking from bundle `start` when given; fails with `missing`,
        else with "no chore of cost X left in bundles after k", when no
        bundle past k holds that weight."""
        donor = _find_donor(self, k, w, start)
        if donor is None:
            self.fail(k, missing or f"no chore of cost {self.row.value(w)} left in bundles "
                                    f"after {k}")
        return donor

    def _pop(self, b: int, c: int):
        """Take chore c, the last id of its weight's run, out of bundle b's
        built runs, as a pull takes a donor."""
        runs = self.runs[b]
        ids = runs[self.weights[c]]
        ids.pop()
        if not ids:
            del runs[self.weights[c]]

    def apply(self, k: int, i: int, t_i, j: int, t_j, forbid_increase_after: int | None = None):
        """The swap rule: bundles i and j, two distinct indices of the
        bundles, trade T_i ⊆ A_i for T_j ⊆ A_j (either T may be empty, and
        each is read as a set). A swap that breaks the rule raises
        SubsetViolation before any state changes.

        The chore-multiset check reads only the moved chores. No other bundle
        changes, and the two bundles together hold the same chores after the
        swap as before it, as T_i ⊆ A_i and T_j ⊆ A_j; so the multiset holds
        exactly when their sizes add up as before, that is when neither
        bundle already holds a chore it receives and keeps: T_j ∩ A_i ⊆ T_i
        and T_i ∩ A_j ⊆ T_j, read before the swap."""
        sets = self.sets
        if i == j:
            raise SubsetViolation("swap needs two distinct bundles")
        if not (0 <= i < len(sets) and 0 <= j < len(sets)):
            raise SubsetViolation(f"swap bundles {i}, {j} are not among the "
                                  f"{len(sets)} bundles")
        give, take = set(t_i), set(t_j)
        a_i, a_j = sets[i], sets[j]
        if not give <= a_i:
            raise SubsetViolation(f"T_i {sorted(give - a_i)} not in bundle {i}")
        if not take <= a_j:
            raise SubsetViolation(f"T_j {sorted(take - a_j)} not in bundle {j}")
        kept = take & a_i <= give and give & a_j <= take
        a_i -= give
        a_i |= take
        a_j -= take
        a_j |= give
        self.runs[i] = self.runs[j] = None
        weight = self.weights.__getitem__
        # the step as given: a T the caller may change later is copied
        self._record(k, i, t_i if t_i.__class__ is tuple else tuple(t_i),
                     j, t_j if t_j.__class__ is tuple else tuple(t_j),
                     sum(map(weight, take)) - sum(map(weight, give)), kept,
                     forbid_increase_after)

    def _record(self, k: int, i: int, t_i: tuple, j: int, t_j: tuple, gain: int, kept: bool,
                forbid_increase_after: int | None):
        """The rest of a swap whose sets have changed, bundle i gaining
        `gain`: its sums and record, then its failures."""
        self.final[i] = self.final[j] = self.profiles[i] = self.profiles[j] = None
        sums = self.sums
        sums[i] += gain
        sums[j] -= gain
        self.records.append((k, i, t_i, j, t_j, sums[i], sums[j]))
        if not kept:
            self.fail(k, "swap changed the global chore multiset")
        if forbid_increase_after is not None and gain:
            # one of the two bundles gains, i when the gain is positive
            idx, old = (i, sums[i] - gain) if gain > 0 else (j, sums[j] + gain)
            if idx > forbid_increase_after:
                self.fail(k, f"cost of bundle {idx} increased from "
                             f"{self.row.value(old)} to {self.row.value(sums[idx])}")

    def pull(self, k: int, wants: Iterable[int], forbid_increase_after: int | None = None):
        """Bundle k takes one chore of each weight in `wants`, in order, each
        from the bundle `_find_donor` names. Each pull is the swap
        `apply(k, k, (), i, (c,), forbid_increase_after)`, with the same
        record and failures, stated for one chore: the donor c is the last id
        of its weight's run in bundle i, built from that bundle's set, so T_j
        ⊆ A_j holds, and the pull pops it. Only bundle k gains chores here,
        so a bundle past k found without a weight stays so, and the next
        walk for that weight starts at the bundle of its last donor."""
        sets = self.sets
        a_k = sets[k]
        self.runs[k] = None  # donors come from bundles past k: k's runs go unread
        starts: dict[int, int] = {}
        for w in wants:
            i, c = self.donor(k, w, start=starts.get(w))
            starts[w] = i
            kept = c not in a_k
            a_k.add(c)
            sets[i].remove(c)
            self._pop(i, c)  # built, as `_find_donor` read it
            self._record(k, k, (), i, (c,), w, kept, forbid_increase_after)

    def _final(self) -> Allocation:
        # unchecked: a reduction's bundles start disjoint and every step
        # checks the chore multiset, but a failed step's may share a chore
        return Allocation._trusted(tuple(tuple(sorted(s)) if b is None else b
                                         for b, s in zip(self.final, self.sets)))

    def fail(self, k: int, message: str):
        self.transcript.result = f"violation k={k}"
        self.transcript.final = self._final()
        raise InvariantViolation(message, self.transcript)

    def finish(self) -> SwapTranscript:
        self.transcript.result = "equal"
        self.transcript.final = self._final()
        return self.transcript


def _find_donor(worker: _Worker, after: int, value: int,
                start: int | None = None) -> tuple[int, int] | None:
    """Last-appearing chore of the given scaled cost in a bundle past
    `after`: highest bundle index, then latest position (highest id among
    equals). The walk starts at bundle `start`, the last one, when not
    given; a caller passes a start only when no bundle above it holds
    the cost."""
    runs = worker.runs
    for i in range(len(runs) - 1 if start is None else start, after, -1):
        ids = (runs[i] if runs[i] is not None else worker.runs_of(i)).get(value)
        if ids is not None:
            return i, ids[-1]
    return None


def _reduce(P: Allocation, Q: Allocation, row: CostRow, tau: Fraction,
            free, verify_ffd: bool, reach_target) -> SwapTranscript:
    """The frame both reductions share, on the row's integer weights: check
    that Q holds only chores of `free`, the reduction's one count of the
    chores (`_count_free`), that P is an FFD output (when asked) and that Q
    is First-Fit-Valid (as `is_ffv` does), both walks from `free`, pad both
    to one length, then for each bundle k let `reach_target(worker, k,
    target)` swap bundle k to Q's k-th cost profile, and check that it got
    there. The threshold becomes a capacity (`CostRow.cap`) before Q is
    checked; under `verify_ffd=False` P's chores are checked to be among
    the row's m chores (`CostRow.ids`) instead."""
    cap = row.cap(tau)
    if not free[1].issuperset(c for b in Q.bundles for c in b):
        raise PreconditionViolation("allocation holds a chore outside all_chores")
    if verify_ffd:
        p_profiles = _check_ffd_output(P, row, tau, free)
    else:
        row.ids(chain.from_iterable(P.bundles))
        p_profiles = []
    bad, targets = _first_off_benchmark(Q.bundles, row, free, cap)
    if bad is not None:
        raise PreconditionViolation(f"allocation is not First-Fit-Valid (bundle {bad})")
    n = max(len(P.bundles), len(Q.bundles))
    worker = _Worker(_pad(P.bundles, n), row)
    # the walks' profiles, kept rather than sorted again; a padded bundle is empty
    worker.profiles[:len(p_profiles)] = p_profiles
    targets += [[] for _ in range(n - len(targets))]
    for k in range(n):
        reach_target(worker, k, targets[k])
        if worker.profile(k) != targets[k]:
            worker.fail(k, f"bundle {k} did not reach its target profile")
    return worker.finish()


def reduce_factored(P: Allocation, Q: Allocation, cost: Sequence[Fraction],
                    tau: Fraction, all_chores: Iterable[int],
                    verify_ffd: bool = True) -> SwapTranscript:
    """Swap-by-swap transformation of a complete FFD output into a
    First-Fit-Valid allocation of the same factored chores, checking at
    every step that no later bundle's cost increases. Termination with
    bundle-wise lex-equality certifies the FFV allocation was complete.
    Q may hold only chores of `all_chores` (else PreconditionViolation).

    verify_ffd=False skips the check that P is an FFD output, for running
    the machinery on hand-built bundle configurations."""
    row = CostRow.of(cost)
    weights = row.weights
    free = _count_free(row, all_chores)
    if not free[0].chain:
        raise PreconditionViolation("cost function must be factored")

    def reach_target(worker: _Worker, k: int, target):
        if worker.profile(k) == target:
            return
        # bundle k in FFD order, put so once and kept across its swaps: a swap
        # at position j puts the donor there and keeps the unmoved tail, all
        # lighter than the donor, in its order; the positions before j, each
        # at least as heavy, are not read again
        current = worker.ffd_order(k)
        for j, want in enumerate(target):
            if j == len(current):
                # every position from here on is empty: pull their chores
                worker.pull(k, target[j:], forbid_increase_after=k)
                return
            have = weights[current[j]]
            if want <= have:
                if want < have:
                    worker.fail(k, f"bundle {k} position {j} exceeds its target "
                                   f"({row.value(have)} > {row.value(want)}); "
                                   "FFV should forbid this")
                continue
            tail = current[j:]
            i, cl = worker.donor(k, want)
            if sum(map(weights.__getitem__, tail)) >= want:
                moved = _exact_subset(tail, row, want)
                gone = set(moved)
                rest = [c for c in tail if c not in gone]
            else:
                moved, rest = tuple(tail), []
            worker.apply(k, k, moved, i, (cl,), forbid_increase_after=k)
            current[j:] = [cl, *rest]
    return _reduce(P, Q, row, tau, free, verify_ffd, reach_target)


def _large_small(runs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The large and the small weight of the chores, read off their (weight,
    count) runs, weight descending."""
    if len(runs) > 2:
        raise NotBivalued("cost function must have at most two distinct values")
    return runs[0][0], runs[-1][0]


def reduce_bivalued(P: Allocation, Q: Allocation, cost: Sequence[Fraction],
                    tau: Fraction, all_chores: Iterable[int],
                    verify_ffd: bool = True) -> SwapTranscript:
    """Bivalued analogue of reduce_factored: first balance the large-chore
    count of the current bundle with one swap, then pull each missing chore
    from the last bundle holding one of equal cost. Q may hold only chores
    of `all_chores` (else PreconditionViolation), so each target profile
    holds only their two costs."""
    row = CostRow.of(cost)
    weights = row.weights
    free = _count_free(row, all_chores)
    large, _small = _large_small(free[0])

    def reach_target(worker: _Worker, k: int, target):
        if worker.profile(k) == target:
            return
        if target.count(large) > worker.profile(k).count(large):
            i, cl = worker.donor(k, large, "no large chore left in any later bundle")
            smalls = tuple(c for c in worker.sets[k] if weights[c] != large)
            worker.apply(k, k, smalls, i, (cl,), forbid_increase_after=k)
        # the target holds only the large and the small cost, and bundle k
        # now holds either only large chores, no more than its target, or at
        # least as many large chores as its target: so it is a cost-wise
        # subset of its target only as a prefix of it, and lacks the rest
        profile = worker.profile(k)
        for j, v in enumerate(profile):
            if j == len(target) or target[j] != v:
                worker.fail(k, f"bundle {k} holds a chore of cost {row.value(v)} "
                               "beyond its target profile")
        worker.pull(k, target[len(profile):], forbid_increase_after=k)
    return _reduce(P, Q, row, tau, free, verify_ffd, reach_target)


def _counts(chores: Iterable[int], weights: Sequence[int], large: int) -> tuple[int, int]:
    """The (large, small) counts of two-valued chores, read off their ids."""
    values = list(map(weights.__getitem__, chores))
    n_large = values.count(large)
    return n_large, len(values) - n_large


def transform_mms_to_ffd(Q: Allocation, cost: Sequence[Fraction],
                         mu: Fraction) -> SwapTranscript:
    """Rearrange an MMS partition (every bundle cost at most mu) into the
    FFD packing at threshold (15/13)·mu by swaps, asserting the loop
    invariants and the two-small-chores facts at every iteration. Success
    certifies that FFD at that threshold packs everything into n bins.

    When mu is at least 6.5 times the small cost the threshold exceeds
    mu + s, FFD packs everything directly, and the transcript is empty.
    """
    row = CostRow.of(cost)
    all_chores = sorted(Q.allocated())
    if not all_chores:
        return SwapTranscript(steps=[], result="equal", final=Q)
    weights = row.weights
    runs = row.runs(all_chores)
    large, small = _large_small(runs)
    n = len(Q.bundles)
    mu_cap = row.cap(mu)
    for k, b in enumerate(Q.bundles):
        if sum(weights[c] for c in b) > mu_cap:
            raise PreconditionViolation(f"bundle {k} exceeds the stated MMS value {mu}")
    tau = APPROX_RATIO * mu
    tau_cap = row.cap(tau)
    if 13 * small <= row.cap(2 * mu):  # mu >= 6.5 times the small cost
        outcome = ffd(all_chores, row, tau)
        transcript = SwapTranscript(steps=[], final=Allocation.of(_pad(outcome.bundles, n)))
        if len(outcome.bundles) > n:
            transcript.result = "violation k=0"
            raise InvariantViolation(
                "FFD at tau >= mu + s used more bins than the partition", transcript)
        return transcript
    # the swaps read FFD's bins only as profiles, the bins `ffd` fills; they
    # take every chore, since each weighs at most its Q bundle, so at most
    # mu and at most tau
    p_profiles = _ffd_profiles(runs, tau_cap, n)
    n_work = len(p_profiles)
    # most large chores first, then most small ones; stable among equals
    q_sorted = sorted(Q.bundles, key=lambda b: _counts(b, weights, large), reverse=True)
    worker = _Worker(_pad(q_sorted, n_work), row)

    # invariant 1 reads the worker's profiles, which a swap changes only for
    # its two bundles; invariant 3 counts only a bundle that costs more than mu
    def check_invariants(k: int):
        for i in range(k):
            if worker.profile(i) != p_profiles[i]:
                worker.fail(k, f"invariant 1 broken at bundle {i}")
        for i in range(k, n_work):
            if worker.sums[i] > tau_cap:
                worker.fail(k, f"invariant 2 broken: bundle {i} costs "
                               f"{row.value(worker.sums[i])} > tau {tau}")
        for i in range(k + 1, n_work):
            if worker.sums[i] > mu_cap:
                n_l, n_s = _counts(worker.sets[i], weights, large)
                if n_l > 1 or (n_l == 1 and (n_s + 2) * small > tau_cap):
                    worker.fail(k, f"invariant 3 broken at bundle {i}")

    def two_for_one(k: int, missing: str) -> int:
        """Swap bundle k's two lowest-id small chores for the last large
        chore after k (`_Worker.donor`), failing with `missing` when no
        later bundle has one; returns the donor's bundle."""
        z, cl = worker.donor(k, large, missing)
        pair = tuple(sorted(c for c in worker.sets[k] if weights[c] != large)[:2])
        worker.apply(k, k, pair, z, (cl,))
        return z

    for k in range(n_work):
        check_invariants(k)
        if len(worker.sets[k]) > len(p_profiles[k]):
            a_q, b_q = _counts(worker.sets[k], weights, large)
            a_p = p_profiles[k].count(large)
            b_p = len(p_profiles[k]) - a_p
            if worker.sums[k] > mu_cap:
                worker.fail(k, "a bundle reaching the two-for-one swap exceeds mu")
            if a_p < a_q + 1:
                worker.fail(k, "two-small-chores (a) broken: FFD bundle lacks extra large chore")
            if b_q < b_p + 2:
                worker.fail(k, "two-small-chores (b) broken: fewer than two extra small chores")
            if a_q < 1:
                worker.fail(k, "two-small-chores (d) broken: no large chore in the bundle")
            z = two_for_one(k, "two-small-chores (c) broken: no later bundle has a large chore")
            if len(worker.sets[k]) > len(p_profiles[k]):
                a_q2, b_q2 = _counts(worker.sets[k], weights, large)
                if (a_q2, b_q2) == (2, 1) and (a_p, b_p) == (2, 0):
                    one_small = min(c for c in worker.sets[k] if weights[c] != large)
                    worker.apply(k, k, (one_small,), z, ())
                elif (a_q2, b_q2) == (2, 2) and (a_p, b_p) == (3, 0):
                    two_for_one(k, "special case: no later bundle has a large chore")
                else:
                    worker.fail(k, "bundle still has too many chores outside the "
                                   "two special cases")
        if worker.profile(k) == p_profiles[k]:
            continue
        current = worker.ffd_order(k)
        for j, want in enumerate(p_profiles[k]):
            if j == len(current):
                # every position from here on is empty: pull their chores
                worker.pull(k, p_profiles[k][j:])
                break
            have = weights[current[j]]
            if have > want:
                worker.fail(k, f"bundle {k} position {j} exceeds the FFD profile")
            if have == want:
                continue
            z, cl = worker.donor(k, want)
            worker.apply(k, k, (current[j],), z, (cl,))
            # the donor outweighs the chore it replaces, so the order is kept
            # as in `reduce_factored`
            current[j] = cl
        if worker.profile(k) != p_profiles[k]:
            worker.fail(k, f"bundle {k} did not reach the FFD profile")
    return worker.finish()
