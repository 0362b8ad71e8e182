"""Benchmark bundles, First-Fit-Valid verification, exact-subset extraction
for factored costs, and the swap-transcript reductions with per-step
invariant checking.

Every transcript step records the full per-bundle cost snapshot, so a
failed invariant can be replayed as a counterexample.

Costs are Fractions at the interface. Each call reads the row's cached
integer weights (`core.CostRow`), with a threshold tau becoming the integer
capacity floor(tau * D); every sum, sort and comparison runs on those
integers, and values become Fractions only for results and messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Allocation, CostRow, EQUAL, compare_profiles, exchange, is_divisibility_chain
from .errors import BadParams, InvariantViolation, NotBivalued, PreconditionViolation
from .mms import APPROX_RATIO
from .packing import ffd, fill_bin


@dataclass(frozen=True)
class SwapStep:
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


@dataclass
class SwapTranscript:
    steps: list[SwapStep] = field(default_factory=list)
    result: str = "equal"
    final: Allocation | None = None

    def dump(self) -> str:
        lines = [s.dump() for s in self.steps]
        lines.append(f"result: {self.result}")
        return "\n".join(lines) + "\n"


def _capacity(row: CostRow, tau: Fraction) -> int:
    if tau <= 0:
        raise PreconditionViolation("benchmark threshold must be positive")
    return row.cap(tau)


def benchmark_bundle(all_chores: Iterable[int], allocated_prefix: Sequence[Sequence[int]],
                     cost: Sequence[Fraction], tau: Fraction) -> tuple[int, ...]:
    """Lexicographically maximal subset of the chores left after the prefix,
    under the threshold: greedy largest-first, keeping the running sum
    within tau (the bin FFD fills next from those chores)."""
    row = CostRow.of(cost)
    room = _capacity(row, tau)
    taken = {c for b in allocated_prefix for c in b}
    return tuple(fill_bin(row.ffd_order(all_chores), row.weights, room, taken))


def _first_off_benchmark(bundles: Sequence[Sequence[int]], row: CostRow, order: list[int],
                         room: int, exact: bool) -> int | None:
    """Index of the first bundle whose profile is below (with `exact`: not
    equal to) its benchmark's, the fill of the room from the chores in FFD
    `order` that earlier bundles do not hold; None if there is none."""
    weights = row.weights
    held: set[int] = set()
    for k, bundle in enumerate(bundles):
        bench = [weights[c] for c in fill_bin(order, weights, room, held)]
        relation = compare_profiles(row.profile(bundle), bench)
        if (relation != EQUAL) if exact else (relation < EQUAL):
            return k
        held.update(bundle)
    return None


def is_ffv(all_chores: Iterable[int], alloc: Allocation, cost: Sequence[Fraction],
           tau: Fraction) -> tuple[bool, int | None]:
    """Every bundle must be lex-at-least its benchmark bundle; unallocated
    chores participate in the benchmarks. Returns (ok, first violating
    bundle index)."""
    if not alloc.bundles:
        return True, None
    row = CostRow.of(cost)
    bad = _first_off_benchmark(alloc.bundles, row, row.ffd_order(all_chores),
                               _capacity(row, tau), exact=False)
    return bad is None, bad


def find_exact_subset(chores: Iterable[int], cost: Sequence[Fraction],
                      target: Fraction) -> tuple[int, ...]:
    """Subset summing to exactly the target, for factored costs where the
    target is itself a chore-cost value at least as large as every member.
    Greedy largest-first terminates exactly on target for such inputs."""
    if target <= 0:
        raise PreconditionViolation("target must be positive")
    # the target may bring a denominator the row lacks, so it joins the scale
    row = CostRow([*cost, target])
    return _exact_subset(list(chores), row, row.weights[-1])


def _exact_subset(chores: list[int], row: CostRow, target: int) -> tuple[int, ...]:
    weights = row.weights
    values = [weights[c] for c in chores]
    if not is_divisibility_chain(values + [target]):
        raise PreconditionViolation("costs and target must form a divisibility chain")
    if any(v > target for v in values):
        raise PreconditionViolation("every chore must cost at most the target")
    if sum(values) < target:
        raise PreconditionViolation("total cost must reach the target")
    subset = fill_bin(row.ffd_order(chores), weights, target)
    total = sum(weights[c] for c in subset)
    if total != target:
        raise PreconditionViolation(f"greedy missed the target {row.value(target)}; "
                                    f"got {row.value(total)}")
    return tuple(subset)


def _pad(bundles: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    out = [tuple(b) for b in bundles]
    out.extend(() for _ in range(n - len(out)))
    return out


def _check_ffd_output(P: Allocation, all_chores, row: CostRow, tau):
    """P is an FFD output when it holds every chore and each bundle has its
    benchmark's profile, since FFD's k-th bin is the k-th benchmark."""
    if not set(P.allocated()) == set(all_chores):
        raise PreconditionViolation("the FFD allocation must contain every chore")
    if _first_off_benchmark(P.bundles, row, row.ffd_order(all_chores), row.cap(tau),
                            exact=True) is not None:
        raise PreconditionViolation("allocation is not an FFD output at this threshold")


class _Worker:
    """One list of bundle tuples, taken from validated allocations, that
    `apply` swaps in place through `core.exchange`, recording transcript
    steps and verifying the global chore multiset after every step. It
    keeps each bundle's scaled cost sum and its Fraction value; a swap
    changes only its two bundles, so only those two are recomputed."""

    def __init__(self, bundles: list[tuple[int, ...]], row: CostRow):
        self.bundles = bundles
        self.row = row
        self.weights = row.weights
        self.sums = [sum(self.weights[c] for c in b) for b in bundles]
        self.costs = tuple(row.value(s) for s in self.sums)
        self.transcript = SwapTranscript()

    def apply(self, k: int, i: int, t_i, j: int, t_j, forbid_increase_after: int | None = None):
        new_i, new_j = exchange(self.bundles, i, t_i, j, t_j)
        held = set(self.bundles[i]) | set(self.bundles[j])
        self.bundles[i], self.bundles[j] = new_i, new_j
        before, was = self.costs, list(self.sums)
        after = list(before)
        for b in (i, j):
            self.sums[b] = sum(self.weights[c] for c in self.bundles[b])
            after[b] = self.row.value(self.sums[b])
        self.costs = tuple(after)
        step = SwapStep(len(self.transcript.steps), k, i, tuple(sorted(t_i)),
                        j, tuple(sorted(t_j)), self.costs)
        self.transcript.steps.append(step)
        # no other bundle changed, so the multiset holds when these two hold
        # the chores they held before
        if set(new_i) | set(new_j) != held:
            self.fail(k, "swap changed the global chore multiset")
        if forbid_increase_after is not None:
            for idx in sorted((i, j)):
                if idx > forbid_increase_after and self.sums[idx] > was[idx]:
                    self.fail(k, f"cost of bundle {idx} increased from "
                                 f"{before[idx]} to {after[idx]}")

    def fail(self, k: int, message: str):
        self.transcript.result = f"violation k={k}"
        self.transcript.final = Allocation.of(self.bundles)
        raise InvariantViolation(message, self.transcript)

    def finish(self) -> SwapTranscript:
        self.transcript.result = "equal"
        self.transcript.final = Allocation.of(self.bundles)
        return self.transcript


def _find_donor(worker: _Worker, after: int, value: int) -> tuple[int, int] | None:
    """Last-appearing chore of the given scaled cost in a bundle past
    `after`: highest bundle index, then latest position (highest id among
    equals)."""
    for i in range(len(worker.bundles) - 1, after, -1):
        matches = [c for c in worker.bundles[i] if worker.weights[c] == value]
        if matches:
            return i, max(matches)
    return None


def _reduce(P: Allocation, Q: Allocation, row: CostRow, tau: Fraction,
            all_chores: list[int], verify_ffd: bool, reach_target) -> SwapTranscript:
    """The frame both reductions share, on the row's integer weights: check
    that P is an FFD output (when asked) and that Q is First-Fit-Valid, pad
    both to one length, then for each bundle k let
    `reach_target(worker, k, target)` swap bundle k to Q's k-th cost
    profile, and check that it got there."""
    if tau <= 0:
        raise BadParams("FFD threshold must be positive")
    if verify_ffd:
        _check_ffd_output(P, all_chores, row, tau)
    ok, bad = is_ffv(all_chores, Q, row, tau)
    if not ok:
        raise PreconditionViolation(f"allocation is not First-Fit-Valid (bundle {bad})")
    n = max(len(P.bundles), len(Q.bundles))
    worker = _Worker(_pad(P.bundles, n), row)
    targets = [row.profile(b) for b in _pad(Q.bundles, n)]
    for k in range(n):
        reach_target(worker, k, targets[k])
        if row.profile(worker.bundles[k]) != targets[k]:
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
    all_chores = list(all_chores)
    row = CostRow.of(cost)
    weights = row.weights
    if not is_divisibility_chain(weights[c] for c in all_chores):
        raise PreconditionViolation("cost function must be factored")

    def reach_target(worker: _Worker, k: int, target):
        for j, want in enumerate(target):
            current = row.ffd_order(worker.bundles[k])
            have = weights[current[j]] if j < len(current) else 0
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
            if sum(weights[c] for c in tail) >= want:
                moved = _exact_subset(tail, row, want)
            else:
                moved = tuple(tail)
            worker.apply(k, k, moved, i, (cl,), forbid_increase_after=k)
    return _reduce(P, Q, row, tau, all_chores, verify_ffd, reach_target)


def _large_small(all_weights: Iterable[int]) -> tuple[int, int]:
    distinct = sorted(set(all_weights))
    if len(distinct) > 2:
        raise NotBivalued("cost function must have at most two distinct values")
    return distinct[-1], distinct[0]


def reduce_bivalued(P: Allocation, Q: Allocation, cost: Sequence[Fraction],
                    tau: Fraction, all_chores: Iterable[int],
                    verify_ffd: bool = True) -> SwapTranscript:
    """Bivalued analogue of reduce_factored: first balance the large-chore
    count of the current bundle with one swap, then pull each missing chore
    from the last bundle holding one of equal cost."""
    all_chores = list(all_chores)
    row = CostRow.of(cost)
    weights = row.weights
    large, _small = _large_small(weights[c] for c in all_chores)

    def reach_target(worker: _Worker, k: int, target):
        if row.profile(worker.bundles[k]) == target:
            return
        q_large = sum(1 for v in target if v == large)
        p_large = sum(1 for v in worker.bundles[k] if weights[v] == large)
        if q_large > p_large:
            donor = _find_donor(worker, k, large)
            if donor is None:
                worker.fail(k, "no large chore left in any later bundle")
            i, cl = donor
            smalls = tuple(c for c in worker.bundles[k] if weights[c] != large)
            worker.apply(k, k, smalls, i, (cl,), forbid_increase_after=k)
        # here the current bundle must be a cost-wise subset of its target
        have = row.profile(worker.bundles[k])
        need = list(target)
        for v in have:
            if v in need:
                need.remove(v)
            else:
                worker.fail(k, f"bundle {k} holds a chore of cost {row.value(v)} "
                               "beyond its target profile")
        for v in need:
            donor = _find_donor(worker, k, v)
            if donor is None:
                worker.fail(k, f"no chore of cost {row.value(v)} left in bundles "
                               f"after {k}")
            i, cl = donor
            worker.apply(k, k, (), i, (cl,), forbid_increase_after=k)
    return _reduce(P, Q, row, tau, all_chores, verify_ffd, reach_target)


def _counts(bundle: Iterable[int], weights: Sequence[int], large: int) -> tuple[int, int]:
    ids = list(bundle)
    n_large = sum(1 for c in ids if weights[c] == large)
    return n_large, len(ids) - n_large


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
    large, small = _large_small(weights[c] for c in all_chores)
    n = len(Q.bundles)
    mu_cap = row.cap(mu)
    for k, b in enumerate(Q.bundles):
        if sum(weights[c] for c in b) > mu_cap:
            raise PreconditionViolation(f"bundle {k} exceeds the stated MMS value {mu}")
    tau = APPROX_RATIO * mu
    tau_cap = row.cap(tau)
    outcome = ffd(all_chores, row, tau)
    if 13 * small <= row.cap(2 * mu):  # mu >= 6.5 times the small cost
        transcript = SwapTranscript(steps=[], final=Allocation.of(_pad(outcome.bundles, n)))
        if len(outcome.bundles) > n:
            transcript.result = "violation k=0"
            raise InvariantViolation(
                "FFD at tau >= mu + s used more bins than the partition", transcript)
        return transcript
    p_bundles = _pad(outcome.bundles, n)
    n_work = len(p_bundles)
    p_profiles = [row.profile(b) for b in p_bundles]
    # most large chores first, then most small ones; stable among equals
    q_sorted = sorted(Q.bundles, key=lambda b: _counts(b, weights, large), reverse=True)
    worker = _Worker(_pad(q_sorted, n_work), row)

    def check_invariants(k: int):
        for i in range(k):
            if row.profile(worker.bundles[i]) != p_profiles[i]:
                worker.fail(k, f"invariant 1 broken at bundle {i}")
        for i in range(k, n_work):
            if worker.sums[i] > tau_cap:
                worker.fail(k, f"invariant 2 broken: bundle {i} costs {worker.costs[i]} "
                               f"> tau {tau}")
        for i in range(k + 1, n_work):
            n_l, n_s = _counts(worker.bundles[i], weights, large)
            if (worker.sums[i] <= mu_cap or n_l == 0
                    or (n_l == 1 and (n_s + 2) * small <= tau_cap)):
                continue
            worker.fail(k, f"invariant 3 broken at bundle {i}")

    for k in range(n_work):
        check_invariants(k)
        if len(worker.bundles[k]) > len(p_profiles[k]):
            a_q, b_q = _counts(worker.bundles[k], weights, large)
            a_p = sum(1 for v in p_profiles[k] if v == large)
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
            smalls = sorted(c for c in worker.bundles[k] if weights[c] != large)
            pair = tuple(smalls[:2])
            worker.apply(k, k, pair, z, (cl,))
            if len(worker.bundles[k]) > len(p_profiles[k]):
                a_q2, b_q2 = _counts(worker.bundles[k], weights, large)
                if (a_q2, b_q2) == (2, 1) and (a_p, b_p) == (2, 0):
                    one_small = min(c for c in worker.bundles[k] if weights[c] != large)
                    worker.apply(k, k, (one_small,), z, ())
                elif (a_q2, b_q2) == (2, 2) and (a_p, b_p) == (3, 0):
                    donor = _find_donor(worker, k, large)
                    if donor is None:
                        worker.fail(k, "special case: no later bundle has a large chore")
                    z2, cl2 = donor
                    smalls2 = sorted(c for c in worker.bundles[k] if weights[c] != large)
                    worker.apply(k, k, tuple(smalls2[:2]), z2, (cl2,))
                else:
                    worker.fail(k, "bundle still has too many chores outside the "
                                   "two special cases")
        for j, want in enumerate(p_profiles[k]):
            current = row.ffd_order(worker.bundles[k])
            have = weights[current[j]] if j < len(current) else 0
            if have > want:
                worker.fail(k, f"bundle {k} position {j} exceeds the FFD profile")
            if have == want:
                continue
            donor = _find_donor(worker, k, want)
            if donor is None:
                worker.fail(k, f"no chore of cost {row.value(want)} left in bundles "
                               f"after {k}")
            z, cl = donor
            out = (current[j],) if j < len(current) else ()
            worker.apply(k, k, out, z, (cl,))
        if row.profile(worker.bundles[k]) != p_profiles[k]:
            worker.fail(k, f"bundle {k} did not reach the FFD profile")
    return worker.finish()
