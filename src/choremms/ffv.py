"""First-Fit-Valid verification, exact-subset extraction for factored
costs, and the swap-transcript reductions with per-step invariant checking.

Every transcript step shows the full per-bundle cost snapshot, so a
failed invariant can be replayed as a counterexample.

Costs are Fractions at the interface. Each call reads the row's cached
integer weights (`core.CostRow`), with a threshold tau becoming the integer
capacity floor(tau * D); every sum, sort and comparison runs on those
integers, and values become Fractions only for results and messages.

The swap worker states the swap rule once, in `apply`, on one set of chore
ids per bundle, and holds a bundle that a donor lookup reads as runs too:
each weight to its chore ids ascending. A step costs in proportion to what
it moves, in integers, and is recorded as its two bundles' new sums; the
transcript builds its `SwapStep`s, with Fraction costs, only when read.
Most steps of a replay are pulls (T_i empty, T_j one chore), once bundle k
has no chore at the positions left to fill: `_Worker.pull` takes them in
one loop, each donor from `_find_donor`, popped off the end of its run,
each weight's walk resuming at the bundle of its last donor.
Each profile is sorted once per reduction: the FFV walks hand back the
profiles they sort, Q's become the targets and P's (when checked) the
worker's, and a bundle is sorted again only after a swap changed it. A
reduction puts bundle k in FFD order once and keeps that order across its
own swaps. The FFV checks and the exact subsets of `reduce_factored` fill
one bin by `packing.first_fit_bin`, the one statement of the first-fit
rule, over weight counts, so a benchmark bundle costs O(runs) plus its own
size. The chores of a check, `all_chores`, are a set of ids: one listed
twice raises BadParams.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import Allocation, CostRow, EQUAL, Runs, compare_profiles, is_divisibility_chain
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
    it replays them from the bundle sums before the first, each distinct sum
    becoming a Fraction once through the value cache it shares with the
    worker. A later read builds only the records added since, into the same
    list. The transcript holds no reference to the worker, so a reduction's
    worker is freed when it returns."""

    __hash__ = None  # mutable, and equal by value

    def __init__(self, steps: list[SwapStep] | None = None, result: str = "equal",
                 final: Allocation | None = None):
        self._steps = [] if steps is None else steps
        self.result = result
        self.final = final
        # a worker's records not yet built, the bundle sums before the first
        # of them, the worker's row and the Fraction of each sum made so far
        self._records: list[tuple] = []
        self._sums: list[int] = []
        self._row: CostRow | None = None
        self._values: dict[int, Fraction] = {}

    def _value(self, weight: int) -> Fraction:
        value = self._values.get(weight)
        if value is None:
            value = self._values[weight] = self._row.value(weight)
        return value

    @property
    def steps(self) -> list[SwapStep]:
        records = self._records
        if records:
            steps, sums, value = self._steps, self._sums, self._value
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
                         free: tuple[Runs, set[int]], room: int,
                         exact: bool) -> tuple[int | None, list[list[int]]]:
    """Index of the first bundle whose profile is below (with `exact`: not
    equal to) its benchmark's, the fill of the room from the `free` chores
    (`_count_free`) that earlier bundles do not hold, or None if there is
    none; and the profiles of the bundles before that one (of every bundle
    when there is none), which a reduction keeps rather than sorting them
    again.

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
        same = profile == bench
        relation = EQUAL if same else compare_profiles(profile, bench)
        if (relation != EQUAL) if exact else (relation < EQUAL):
            return k, profiles
        profiles.append(profile)
        # the bundles are disjoint, so each chore leaves the counts once: a
        # bundle of free chores that matches its benchmark holds the fill's
        # copies exactly
        if same and ids.issuperset(bundle):
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
    index)."""
    if not alloc.bundles:
        return True, None
    if tau <= 0:
        raise PreconditionViolation("benchmark threshold must be positive")
    row = CostRow.of(cost)
    bad, _ = _first_off_benchmark(alloc.bundles, row, _count_free(row, all_chores),
                                  row.cap(tau), exact=False)
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


def _check_ffd_output(P: Allocation, row: CostRow, tau, free) -> list[list[int]]:
    """P is an FFD output when it holds every chore of `free`
    (`_count_free`) and each bundle has its benchmark's profile, since
    FFD's k-th bin is the k-th benchmark. Returns P's profiles."""
    if P.allocated() != free[1]:
        raise PreconditionViolation("the FFD allocation must contain every chore")
    bad, profiles = _first_off_benchmark(P.bundles, row, free, row.cap(tau), exact=True)
    if bad is not None:
        raise PreconditionViolation("allocation is not an FFD output at this threshold")
    return profiles


class _Worker:
    """The bundles of a reduction, swapped in place and checked at every
    step: `apply` states the swap rule, and `pull` takes a bundle's missing
    chores one swap (T_i = ∅, T_j = {c}) each.

    Each bundle is a set of chore ids. A bundle that a donor lookup reads is
    also held as runs, each weight's chore ids ascending, built on first use
    and kept in step by moving only the traded chores; a donor is the last
    id of its weight's run, so a pull pops it. A bundle's profile is kept
    until a swap changes the bundle: the reduction hands in the profiles its
    FFD check sorted. A bundle's FFD order is one sort of its set. Each step
    moves two integer sums by the weight it trades and goes into the
    transcript as one record, a `SwapStep` only when read; a sum becomes a
    Fraction once, through `value`. `final` shows a bundle as given until a
    swap changes it, then as its ids ascending."""

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

    def value(self, weight: int) -> Fraction:
        """The Fraction of an integer sum, made once per transcript."""
        return self.transcript._value(weight)

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

    def _move(self, runs: dict[int, list[int]], out: set[int], into: set[int]):
        """Keep a bundle's runs in step with a swap that moves the `out`
        chores out of it and the `into` chores into it."""
        weights = self.weights
        for c in out:
            ids = runs[weights[c]]
            if len(ids) == 1:
                del runs[weights[c]]
            elif ids[-1] == c:  # as a donor is: its run's last id
                ids.pop()
            else:
                ids.remove(c)
        for c in into:
            ids = runs.get(weights[c])
            if ids is None:
                runs[weights[c]] = [c]
            else:
                insort(ids, c)

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
        runs = self.runs
        if runs[i] is not None:
            self._move(runs[i], give, take)
        if runs[j] is not None:
            self._move(runs[j], take, give)
        weight = self.weights.__getitem__
        # the step as given: a T the caller may change later is copied
        self._record(k, i, t_i if t_i.__class__ is tuple else tuple(t_i),
                     j, t_j if t_j.__class__ is tuple else tuple(t_j),
                     sum(map(weight, take)) - sum(map(weight, give)), kept,
                     forbid_increase_after)

    def _record(self, k: int, i: int, t_i: tuple, j: int, t_j: tuple, gain: int, kept: bool,
                forbid_increase_after: int | None):
        """The rest of a swap whose sets and runs have changed, bundle i
        gaining `gain`: its sums and record, then its failures."""
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
                             f"{self.value(old)} to {self.value(sums[idx])}")

    def pull(self, k: int, wants: Iterable[int], forbid_increase_after: int | None = None):
        """Bundle k takes one chore of each weight in `wants`, in order, each
        from the bundle `_find_donor` names. Each pull is the swap
        `apply(k, k, (), i, (c,), forbid_increase_after)`, with the same
        checks, record and failures, stated for one chore: the donor c is
        the last id of its weight's run in bundle i, which pops it. Only
        bundle k gains chores here, so a bundle past k found without a
        weight stays so, and the next walk for that weight starts at the
        bundle of its last donor."""
        sets, runs = self.sets, self.runs
        a_k, runs_k = sets[k], runs[k]
        starts: dict[int, int] = {}
        for w in wants:
            donor = _find_donor(self, k, w, starts.get(w))
            if donor is None:
                self.fail(k, f"no chore of cost {self.row.value(w)} left in bundles after {k}")
            i, c = donor
            starts[w] = i
            if c not in sets[i]:
                raise SubsetViolation(f"T_j {[c]} not in bundle {i}")
            kept = c not in a_k
            a_k.add(c)
            sets[i].remove(c)
            self._move(runs[i], (c,), ())  # built, as `_find_donor` read it
            if runs_k is not None:
                self._move(runs_k, (), (c,))
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
    that P is an FFD output (when asked) and that Q is First-Fit-Valid (as
    `is_ffv` does), both from `free`, the reduction's one count of the
    chores (`_count_free`), pad both to one length, then for each bundle k
    let `reach_target(worker, k, target)` swap bundle k to Q's k-th cost
    profile, and check that it got there."""
    if tau <= 0:
        raise BadParams("FFD threshold must be positive")
    p_profiles = _check_ffd_output(P, row, tau, free) if verify_ffd else []
    bad, targets = _first_off_benchmark(Q.bundles, row, free, row.cap(tau), exact=False)
    if bad is not None:
        raise PreconditionViolation(f"allocation is not First-Fit-Valid (bundle {bad})")
    n = max(len(P.bundles), len(Q.bundles))
    worker = _Worker(_pad(P.bundles, n), row)
    # the walks' profiles, kept rather than sorted again; a padded bundle is empty
    worker.profiles[:len(p_profiles)] = p_profiles
    targets += [[] for _ in range(n - len(targets))]
    for k in range(n):
        # donors come only from bundles past k, so bundle k's runs would
        # only be kept in step, never read
        worker.runs[k] = None
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
            donor = _find_donor(worker, k, want)
            if donor is None:
                worker.fail(k, f"no chore of cost {row.value(want)} left in bundles "
                               f"after {k}")
            i, cl = donor
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
    from the last bundle holding one of equal cost."""
    row = CostRow.of(cost)
    weights = row.weights
    free = _count_free(row, all_chores)
    large, _small = _large_small(free[0])

    def reach_target(worker: _Worker, k: int, target):
        if worker.profile(k) == target:
            return
        if target.count(large) > worker.profile(k).count(large):
            donor = _find_donor(worker, k, large)
            if donor is None:
                worker.fail(k, "no large chore left in any later bundle")
            i, cl = donor
            smalls = tuple(c for c in worker.sets[k] if weights[c] != large)
            worker.apply(k, k, smalls, i, (cl,), forbid_increase_after=k)
        # here the current bundle must be a cost-wise subset of its target:
        # one merge of the two descending profiles leaves the target's
        # chores that the bundle lacks, in order
        need, t = [], 0
        for v in worker.profile(k):
            while t < len(target) and target[t] > v:
                need.append(target[t])
                t += 1
            if t == len(target) or target[t] != v:
                worker.fail(k, f"bundle {k} holds a chore of cost {row.value(v)} "
                               "beyond its target profile")
            t += 1
        need += target[t:]
        worker.pull(k, need, forbid_increase_after=k)
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
    all_chores = sorted(Q.allocated())
    if not all_chores:
        return SwapTranscript(steps=[], result="equal", final=Q)
    row = CostRow.of(cost)
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
    # the swaps read FFD's bins only as profiles: `first_fit_bins` over the
    # weight counts, the bins `ffd` fills
    count = dict(runs)
    p_profiles: list[list[int]] = []
    for taken in first_fit_bins(count, tau_cap):
        profile: list[int] = []
        for w, t in taken:
            profile += [w] * t
        p_profiles.append(profile)
    if count:  # every chore fits, as each Q bundle is within mu
        raise PreconditionViolation(f"a chore costs more than tau {tau}")
    p_profiles += [[] for _ in range(n - len(p_profiles))]
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
                               f"{worker.value(worker.sums[i])} > tau {tau}")
        for i in range(k + 1, n_work):
            if worker.sums[i] > mu_cap:
                n_l, n_s = _counts(worker.sets[i], weights, large)
                if n_l > 1 or (n_l == 1 and (n_s + 2) * small > tau_cap):
                    worker.fail(k, f"invariant 3 broken at bundle {i}")

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
            donor = _find_donor(worker, k, large)
            if donor is None:
                worker.fail(k, "two-small-chores (c) broken: no later bundle has a large chore")
            z, cl = donor
            # the two lowest ids of the small chores
            pair = tuple(sorted(c for c in worker.sets[k] if weights[c] != large)[:2])
            worker.apply(k, k, pair, z, (cl,))
            if len(worker.sets[k]) > len(p_profiles[k]):
                a_q2, b_q2 = _counts(worker.sets[k], weights, large)
                if (a_q2, b_q2) == (2, 1) and (a_p, b_p) == (2, 0):
                    one_small = min(c for c in worker.sets[k] if weights[c] != large)
                    worker.apply(k, k, (one_small,), z, ())
                elif (a_q2, b_q2) == (2, 2) and (a_p, b_p) == (3, 0):
                    donor = _find_donor(worker, k, large)
                    if donor is None:
                        worker.fail(k, "special case: no later bundle has a large chore")
                    z2, cl2 = donor
                    smalls2 = sorted(c for c in worker.sets[k] if weights[c] != large)
                    worker.apply(k, k, tuple(smalls2[:2]), z2, (cl2,))
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
            donor = _find_donor(worker, k, want)
            if donor is None:
                worker.fail(k, f"no chore of cost {row.value(want)} left in bundles "
                               f"after {k}")
            z, cl = donor
            worker.apply(k, k, (current[j],), z, (cl,))
            # the donor outweighs the chore it replaces, so the order is kept
            # as in `reduce_factored`
            current[j] = cl
        if worker.profile(k) != p_profiles[k]:
            worker.fail(k, f"bundle {k} did not reach the FFD profile")
    return worker.finish()
