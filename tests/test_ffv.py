import copy
import gc
import random
import re
import weakref
from fractions import Fraction as F

import pytest

from choremms import ffv
from choremms.analysis import gen_instance
from choremms.core import Allocation, CostRow, bundle_cost
from choremms.errors import (BadParams, InvariantViolation, PreconditionViolation,
                             SubsetViolation)
from choremms.ffv import (SwapStep, SwapTranscript, is_ffv, reduce_bivalued, reduce_factored,
                          transform_mms_to_ffd)
from choremms.mms import mms_brute
from choremms.packing import ffd
from helpers import (EQUAL, brute_lex_max, certify_case, ffd_first_bin, find_exact_subset,
                     lex_compare, perturb_to_ffv, random_rationals, ref_reduce_bivalued,
                     ref_reduce_factored, ref_transform_mms_to_ffd)

# the validity-regression configuration: four bundles plus one loose chore
REGRESSION_COSTS = tuple(F(x, 100) for x in
                         [70, 25, 25, 60, 35, 60, 50, 54, 24, 23, 19])
REGRESSION_ALLOC = Allocation.of([(0, 1, 2), (3, 4), (5, 6), (7, 8, 9)])


# ------------------------------------------------------- benchmark / is_ffv

def test_benchmark_bundle_regression_example():
    assert ffd_first_bin(range(11), [], REGRESSION_COSTS, F(1)) == (0, 1)


def test_benchmark_bundle_matches_brute_lex_max():
    rng = random.Random(0xB37)
    for _ in range(80):
        m = rng.randint(1, 8)
        cost = random_rationals(rng, m)
        tau = max(cost) * F(rng.randint(1, 3), rng.randint(1, 2))
        prefix_len = rng.randint(0, m)
        prefix_ids = rng.sample(range(m), prefix_len)
        prefix = [tuple(prefix_ids[:prefix_len // 2]),
                  tuple(prefix_ids[prefix_len // 2:])]
        got = ffd_first_bin(range(m), prefix, cost, tau)
        want = brute_lex_max(range(m), prefix, cost, tau)
        assert lex_compare(got, want, cost) == EQUAL


def test_benchmark_bundle_rejects_nonpositive_threshold():
    # a threshold of at most 0 breaks the threshold contract (`CostRow.cap`)
    with pytest.raises(BadParams, match="^threshold must be a positive rational$"):
        is_ffv(range(2), Allocation.of([(0,), (1,)]), (F(1), F(1)), F(0))


def test_regression_allocation_is_ffv():
    ok, bad = is_ffv(range(11), REGRESSION_ALLOC, REGRESSION_COSTS, F(1))
    assert ok and bad is None


def test_is_ffv_detects_violation():
    # bundle 0 skips the largest chore, so it loses to its benchmark
    alloc = Allocation.of([(1, 2), (0,)])
    cost = (F(5), F(3), F(2))
    ok, bad = is_ffv(range(3), alloc, cost, F(5))
    assert not ok and bad == 0


def test_ffd_output_is_always_ffv():
    rng = random.Random(0xF5D)
    for _ in range(80):
        m = rng.randint(1, 9)
        cost = random_rationals(rng, m)
        tau = max(cost) * F(rng.randint(1, 3))
        bins = rng.randint(1, 4)
        out = ffd(range(m), cost, tau, max_bins=bins)
        assert is_ffv(range(m), out.allocation, cost, tau)[0]


# --------------------------------------------------------- find_exact_subset

def test_find_exact_subset_examples():
    cost = tuple(F(x) for x in [4, 2, 2, 1, 1])
    assert find_exact_subset([1, 2, 3, 4], cost, F(4)) == (1, 2)
    assert find_exact_subset([3, 4], cost, F(2)) == (3, 4)
    assert find_exact_subset([0], cost, F(4)) == (0,)


def test_find_exact_subset_preconditions():
    cost = (F(4), F(2), F(7))
    with pytest.raises(PreconditionViolation):
        find_exact_subset([0, 1, 2], cost, F(4))  # 7 not in the chain
    with pytest.raises(PreconditionViolation):
        find_exact_subset([0], (F(4),), F(2))  # member above target
    with pytest.raises(PreconditionViolation):
        find_exact_subset([1], cost, F(4))  # total below target


def test_find_exact_subset_random_factored():
    for seed in range(60):
        rng = random.Random(seed)
        inst = gen_instance("factored", 1, rng.randint(2, 9), seed=seed + 31)
        cost = inst.cost(0)
        target = max(cost)
        pool = [c for c in inst.chores() if cost[c] <= target]
        if sum(cost[c] for c in pool) < target:
            continue
        got = find_exact_subset(pool, cost, target)
        assert sum(cost[c] for c in got) == target
        assert set(got) <= set(pool)


@pytest.mark.parametrize("target", [F(0), F(-2)])
def test_find_exact_subset_rejects_a_target_at_most_zero(target):
    with pytest.raises(PreconditionViolation, match="^target must be positive$"):
        find_exact_subset([0, 1], (F(2), F(2)), target)


# ---------------------------------------------------------------- swap worker

@pytest.mark.parametrize("i, t_i, j, t_j, message", [
    (1, (), 1, (), "swap needs two distinct bundles"),
    (-1, (4,), 1, (1,), "swap bundles -1, 1 are not among the 3 bundles"),
    (0, (), 3, (), "swap bundles 0, 3 are not among the 3 bundles"),
    # a T that is partly in its bundle: nothing of it may move
    (0, (0, 5), 1, (1,), "T_i [5] not in bundle 0"),
    (0, (0,), 1, (1, 3), "T_j [3] not in bundle 1"),
])
def test_refused_swap_leaves_the_worker_unchanged(i, t_i, j, t_j, message):
    row = CostRow(F(x) for x in [5, 4, 3, 3, 2, 1])
    worker = ffv._Worker([(4, 0, 2), (3, 1), (5,)], row)
    # one swap in, to (0, 3, 4) (1, 2) (5,), with a profile and every
    # bundle's runs derived
    worker.apply(0, 0, (2,), 1, (3,))
    assert worker.sets == [{0, 3, 4}, {1, 2}, {5}]
    worker.profile(0)
    assert [worker.runs_of(b) for b in range(3)] == [{5: [0], 3: [3], 2: [4]},
                                                      {4: [1], 3: [2]}, {1: [5]}]
    before = copy.deepcopy(vars(worker))
    with pytest.raises(SubsetViolation, match=f"^{re.escape(message)}$"):
        worker.apply(1, i, t_i, j, t_j)
    # sets, runs, sums, caches, records and transcript alike
    assert vars(worker) == before


def test_overlapping_bundles_break_the_chore_multiset_at_the_merging_step():
    # chore 2 starts in bundles 0 and 1: the first swap moves neither copy,
    # the second hands bundle 1 the chore 2 it already holds and keeps
    row = CostRow(F(x, 2) for x in [3, 2, 2, 1, 1])
    worker = ffv._Worker([(0, 1, 2), (2, 3), (4,)], row)
    worker.apply(0, 0, (1,), 2, (4,))
    with pytest.raises(InvariantViolation,
                       match="^swap changed the global chore multiset$") as caught:
        worker.apply(1, 1, (3,), 0, (2,))
    t = caught.value.transcript
    # the step is recorded before the check raises; the sums count chore 2 twice
    assert t.steps == [SwapStep(0, 0, 0, (1,), 2, (4,), (F(3), F(3, 2), F(1))),
                       SwapStep(1, 1, 1, (3,), 0, (2,), (F(5, 2), F(2), F(1)))]
    assert t.result == "violation k=1"
    assert t.final == Allocation.of([(0, 3, 4), (2,), (1,)])


def test_steps_read_between_swaps_extend_one_list():
    def swapped(read_between):
        row = CostRow(F(x) for x in [5, 4, 3, 3, 2, 1])
        worker = ffv._Worker([(4, 0, 2), (3, 1), (5,)], row)
        worker.apply(0, 0, (2,), 1, (3,))
        first = worker.transcript.steps if read_between else None
        # T_i and T_j may be any iterable; a step shows them sorted
        worker.apply(1, 1, [1], 2, {5})
        return first, worker.transcript.steps
    first, steps = swapped(True)
    assert first is steps
    assert steps == swapped(False)[1]
    assert steps == [SwapStep(0, 0, 0, (2,), 1, (3,), (F(10), F(7), F(1))),
                     SwapStep(1, 1, 1, (1,), 2, (5,), (F(10), F(4), F(4)))]


# ------------------------------------------------- reduce_factored (Alg. 1)

FACTORED_COSTS = tuple(F(x) for x in [4, 4, 4, 2, 2, 1, 1, 1])
FACTORED_Q = Allocation.of([(0, 1, 2, 5), (3, 4, 6, 7)])
FACTORED_P = Allocation.of([(0, 3, 4, 5, 6), (1, 2, 7)])


def test_reduce_factored_worked_example():
    t = reduce_factored(FACTORED_P, FACTORED_Q, FACTORED_COSTS, F(10),
                        range(8), verify_ffd=False)
    assert t.result == "equal"
    assert len(t.steps) == 3
    # first swap trades the two 2-cost chores for a 4-cost one
    assert t.steps[0].t_i == (3, 4) and t.steps[0].t_j == (2,)
    assert t.steps[0].costs_after == (F(10), F(9))
    # second trades two 1-cost chores for the next 4
    assert t.steps[1].t_i == (5, 6) and t.steps[1].t_j == (1,)
    # last pulls the trailing 1 with nothing in return
    assert t.steps[2].t_i == () and t.steps[2].t_j == (7,)
    for i in range(2):
        assert lex_compare(t.final.bundles[i], FACTORED_Q.bundles[i],
                           FACTORED_COSTS) == EQUAL


def test_reduce_factored_identity_on_ffd_output():
    out = ffd(range(8), FACTORED_COSTS, F(10))
    t = reduce_factored(out.allocation, out.allocation, FACTORED_COSTS, F(10),
                        range(8))
    assert t.result == "equal" and t.steps == []


def test_reduction_builds_one_allocation_whatever_its_step_count(monkeypatch):
    built = []
    validate = Allocation.__post_init__

    def counted(alloc):
        built.append(alloc)
        validate(alloc)

    monkeypatch.setattr(Allocation, "__post_init__", counted)

    def allocations_built(P, Q):
        built.clear()
        t = reduce_factored(P, Q, FACTORED_COSTS, F(10), range(8), verify_ffd=False)
        return len(t.steps), len(built)

    swapped, swapping_built = allocations_built(FACTORED_P, FACTORED_Q)
    still, identity_built = allocations_built(FACTORED_Q, FACTORED_Q)
    assert (swapped, still) == (3, 0)
    assert swapping_built == identity_built


@pytest.mark.parametrize("reduce", [reduce_factored, reduce_bivalued])
@pytest.mark.parametrize("verify_ffd", [True, False])
@pytest.mark.parametrize("tau", [F(0), F(-1)])
def test_reductions_reject_a_threshold_at_most_zero(reduce, verify_ffd, tau):
    alloc = Allocation.of([(0, 1), (2,)])
    with pytest.raises(BadParams, match="^threshold must be a positive rational$"):
        reduce(alloc, alloc, (F(2), F(1), F(1)), tau, range(3), verify_ffd=verify_ffd)


FLOAT_CASE = (Allocation.of([(0, 1), (2,)]), (F(2), F(1), F(1)))


@pytest.mark.parametrize("check", [
    lambda alloc, cost, tau: is_ffv(range(3), alloc, cost, tau),
    lambda alloc, cost, tau: reduce_factored(alloc, alloc, cost, tau, range(3)),
    lambda alloc, cost, tau: reduce_factored(alloc, alloc, cost, tau, range(3), verify_ffd=False),
    lambda alloc, cost, tau: reduce_bivalued(alloc, alloc, cost, tau, range(3)),
    lambda alloc, cost, tau: reduce_bivalued(alloc, alloc, cost, tau, range(3), verify_ffd=False),
    lambda alloc, cost, tau: transform_mms_to_ffd(alloc, cost, tau),
], ids=["is_ffv", "reduce_factored", "reduce_factored-unverified",
        "reduce_bivalued", "reduce_bivalued-unverified", "transform_mms_to_ffd"])
def test_float_threshold_is_bad_params(check):
    with pytest.raises(BadParams, match="^threshold must be a positive rational$"):
        check(*FLOAT_CASE, 3.0)


@pytest.mark.parametrize("check", [
    lambda alloc, cost, chores: is_ffv(chores, alloc, cost, F(3)),
    lambda alloc, cost, chores: reduce_factored(alloc, alloc, cost, F(3), chores),
    lambda alloc, cost, chores: reduce_bivalued(alloc, alloc, cost, F(3), chores),
], ids=["is_ffv", "reduce_factored", "reduce_bivalued"])
def test_a_chore_listed_twice_is_bad_params(check):
    # all_chores is a set of ids
    with pytest.raises(BadParams, match="^chore 1 is listed twice$"):
        check(*FLOAT_CASE, [0, 1, 2, 1])


def test_reduce_factored_rejects_non_ffv_target():
    bad = Allocation.of([(3, 4), (0, 1, 2, 5, 6, 7)])
    with pytest.raises(PreconditionViolation):
        reduce_factored(FACTORED_P, bad, FACTORED_COSTS, F(10), range(8),
                        verify_ffd=False)


def test_reduce_factored_rejects_non_factored_costs():
    cost = (F(7), F(5))
    with pytest.raises(PreconditionViolation):
        reduce_factored(Allocation.of([(0,), (1,)]), Allocation.of([(0,), (1,)]),
                        cost, F(7), range(2))


def test_reduce_factored_random_transcripts():
    for seed in range(60):
        rng = random.Random(seed)
        inst = gen_instance("factored", 1, rng.randint(3, 9), seed=seed + 101)
        cost = inst.cost(0)
        tau = max(cost) * rng.randint(1, 3)
        out = ffd(inst.chores(), cost, tau)
        q = perturb_to_ffv(rng, out.allocation, inst.chores(), cost, tau)
        t = reduce_factored(out.allocation, q, cost, tau, inst.chores())
        assert t.result == "equal"
        for k in range(len(q.bundles)):
            assert lex_compare(t.final.bundles[k], q.bundles[k], cost) == EQUAL


# both factored (2 divides 4) and bivalued; FFD at 6 packs {4, 2} {4, 2} {2}
FFD_CHECK_COSTS = tuple(F(x) for x in [4, 4, 2, 2, 2])


@pytest.mark.parametrize("reduce", [reduce_factored, reduce_bivalued])
def test_reductions_reject_a_start_that_is_not_an_ffd_output(reduce):
    out = ffd(range(5), FFD_CHECK_COSTS, F(6))
    reversed_bins = Allocation.of(reversed(out.bundles))
    with pytest.raises(PreconditionViolation,
                       match="^allocation is not an FFD output at this threshold$"):
        reduce(reversed_bins, out.allocation, FFD_CHECK_COSTS, F(6), range(5))


OUTSIDE = "^the FFD allocation holds a chore outside all_chores$"
MISSING = "^the FFD allocation must contain every chore$"


# FFD at 6 packs FFD_CHECK_COSTS as {0, 2} {1, 3} {4}; chore 5, of cost 4,
# lies outside all_chores = range(5). A chore outside is named first.
@pytest.mark.parametrize("bundles, message", [
    ([(0, 2), (1, 3), (4,), (5,)], OUTSIDE),
    ([(0, 2), (1, 3)], MISSING),
    ([(0, 2), (1, 3), (5,)], OUTSIDE),
], ids=["outside", "missing", "missing-and-outside"])
@pytest.mark.parametrize("reduce", [reduce_factored, reduce_bivalued, ref_reduce_factored,
                                    ref_reduce_bivalued])
def test_ffd_output_check_names_a_chore_outside_or_missing(reduce, bundles, message):
    cost = FFD_CHECK_COSTS + (F(4),)
    Q = ffd(range(5), cost, F(6)).allocation
    with pytest.raises(PreconditionViolation, match=message):
        reduce(Allocation.of(bundles), Q, cost, F(6), range(5))


@pytest.mark.parametrize("reduce", [reduce_factored, ref_reduce_factored])
def test_ffd_output_with_a_chore_appended_is_outside_all_chores(reduce):
    # FFD at 7 packs the first five chores as {0, 2, 4} {1, 3}; P adds
    # chore 5 in a bundle of its own
    cost = tuple(F(x) for x in (4, 4, 2, 2, 1, 4))
    Q = ffd(range(5), cost, F(7)).allocation
    P = Allocation.of([*Q.bundles, (5,)])
    with pytest.raises(PreconditionViolation, match=OUTSIDE):
        reduce(P, Q, cost, F(7), range(5))


def test_ffd_output_check_runs_no_ffd(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ffd(*args, **kwargs)
    out = ffd(range(5), FFD_CHECK_COSTS, F(6))
    monkeypatch.setattr(ffv, "ffd", counted)
    for reduce in (reduce_factored, reduce_bivalued):
        t = reduce(out.allocation, out.allocation, FFD_CHECK_COSTS, F(6), range(5))
        assert t.result == "equal"
    assert calls == []
    # the swap path reads FFD's bins as weight counts, with no ffd
    row = tuple(F(x) for x in [4, 4, 4] + [3] * 9)
    res = mms_brute(row, range(12), 3)
    t = transform_mms_to_ffd(Allocation.of(res.witness), row, res.value)
    assert t.steps and calls == []
    # at mu >= 6.5 times the small cost FFD's bins are the final allocation
    row = tuple(F(x) for x in [7, 7, 1, 1])
    res = mms_brute(row, range(4), 2)
    assert res.value == 8
    t = transform_mms_to_ffd(Allocation.of(res.witness), row, res.value)
    assert t.steps == [] and t.final == Allocation.of(ffd(range(4), row, F(120, 13)).bundles)
    assert len(calls) == 1


def swap_case(kind, seed, levels=None):
    """(the worker's first bundles, the row, a call that swaps them): the
    benchmark's reductions, or the transform of a small-exact-sized MMS
    partition that takes six swaps."""
    if kind == "transform":
        row = gen_instance("personalized_bivalued", 8, 13, seed).cost(1)
        mms = mms_brute(row, range(13), 8)
        Q = Allocation.of(mms.witness)
        return Q.bundles, row, lambda: transform_mms_to_ffd(Q, row, mms.value)
    if kind == "factored":
        P, Q, cost, tau, chores = certify_case(kind, 10, 100, seed, levels=levels)
        reduce = reduce_factored
    else:
        P, Q, cost, tau, chores = certify_case(kind, 8, 80, seed)
        reduce = reduce_bivalued
    return P.bundles, cost, lambda: reduce(P, Q, cost, tau, chores)


@pytest.mark.parametrize("kind, seed, levels", [
    pytest.param("factored", 0, 1, id="1-0"),
    pytest.param("factored", 0, 2, id="2-0"),
    pytest.param("factored", 1, 3, id="3-1"),
    pytest.param("personalized_bivalued", 0, None, id="bivalued-0"),
    pytest.param("personalized_bivalued", 3, None, id="bivalued-3"),
    pytest.param("transform", 1, None, id="transform-1"),
])
def test_swap_steps_sort_and_convert_only_what_they_change(monkeypatch, kind, seed, levels):
    # bundle k is put in FFD order at most once, and its own swaps keep that
    # order; each integer bundle sum becomes a Fraction once
    start, cost, swaps = swap_case(kind, seed, levels)
    calls = {"CostRow.value": 0, "_Worker.ffd_order": 0, "CostRow.ffd_order": 0}

    def counted(owner, name):
        method = getattr(owner, name)
        key = f"{owner.__name__}.{name}"

        def wrapper(self, *args):
            calls[key] += 1
            return method(self, *args)
        monkeypatch.setattr(owner, name, wrapper)
    counted(CostRow, "value")
    # the worker's order of a bundle, and the row's order of any chores
    counted(ffv._Worker, "ffd_order")
    counted(CostRow, "ffd_order")
    t = swaps()
    monkeypatch.undo()
    bundles = len(t.final.bundles)
    # the worker pads the first bundles with empty ones to its length
    padded = start + ((),) * (bundles - len(start))
    sums = {bundle_cost(cost, b) for b in padded}
    sums |= {c for step in t.steps for c in step.costs_after}
    assert t.result == "equal" and t.steps
    assert calls["CostRow.value"] <= len(sums)
    assert calls["_Worker.ffd_order"] <= bundles
    # the row orders chores for the worker, and once for the transform's FFD run
    assert calls["CostRow.ffd_order"] <= calls["_Worker.ffd_order"] + (kind == "transform")


@pytest.mark.parametrize("kind, n, m, seed", [
    ("personalized_bivalued", 4, 12, 2),
    ("factored", 6, 14, 0),
])
def test_one_swap_builds_runs_only_for_the_bundles_it_touched(monkeypatch, kind, n, m, seed):
    P, Q, cost, tau, chores = certify_case(kind, n, m, seed)
    reduce = reduce_factored if kind == "factored" else reduce_bivalued
    built = []
    runs_of = ffv._Worker.runs_of

    def spy(self, b):
        if self.runs[b] is None:
            built.append(b)
        return runs_of(self, b)
    monkeypatch.setattr(ffv._Worker, "runs_of", spy)
    t = reduce(P, Q, cost, tau, chores)
    (step,) = t.steps
    # the donor lookup reads the bundles from the last one down to the donor's
    assert built == list(range(len(t.final.bundles) - 1, step.j - 1, -1))
    assert step.i not in built
    # a swap builds no runs: it drops those of its two bundles
    worker = ffv._Worker([(0, 1), (2,), (3,)], CostRow([F(1)] * 4))
    worker.apply(0, 0, (1,), 2, (3,))
    assert worker.runs == [None] * 3


def test_a_returned_transcript_keeps_no_worker_alive(monkeypatch):
    # the transcript builds its steps from its own records, sums and value
    # cache; a reference back to the worker would make a cycle that leaves
    # every reduction's sets and runs to the cyclic garbage collector
    workers = []
    init = ffv._Worker.__init__

    def tracked(self, *args):
        init(self, *args)
        workers.append(weakref.ref(self))
    monkeypatch.setattr(ffv._Worker, "__init__", tracked)
    gc.disable()
    try:
        t = reduce_factored(FACTORED_P, FACTORED_Q, FACTORED_COSTS, F(10), range(8),
                            verify_ffd=False)
        assert len(workers) == 1 and workers[0]() is None
    finally:
        gc.enable()
    assert len(t.steps) == 3


def lazy_case(kind, fail):
    """A benchmark-sized reduction call and its reference: factored 10x100
    or personalized bivalued 8x80 at the benchmark's first seeds. With
    `fail`, the bivalued one starts from FFD's bins with bundles 3 and 7
    exchanged, which breaks the forbid-increase check after ten swaps."""
    if kind == "factored":
        P, Q, cost, tau, chores = certify_case(kind, 10, 100, 1001, levels=2)
        reduce, ref_reduce = reduce_factored, ref_reduce_factored
    else:
        P, Q, cost, tau, chores = certify_case(kind, 8, 80, 1000)
        reduce, ref_reduce = reduce_bivalued, ref_reduce_bivalued
    if fail:
        bundles = list(P.bundles)
        bundles[3], bundles[7] = bundles[7], bundles[3]
        P = Allocation.of(bundles)
    args = (P, Q, cost, tau, chores, not fail)
    return (lambda: reduce(*args)), (lambda: ref_reduce(*args))


def transcript_of(call):
    """The transcript a call returns, or the one its InvariantViolation
    carries, with the error's message."""
    try:
        return call(), None
    except InvariantViolation as exc:
        return exc.transcript, str(exc)


@pytest.mark.parametrize("read", ["steps", "dump"])
@pytest.mark.parametrize("kind, fail", [("factored", False), ("personalized_bivalued", False),
                                        ("personalized_bivalued", True)],
                         ids=["factored", "bivalued", "bivalued-failing"])
def test_reductions_build_their_steps_only_when_read(monkeypatch, kind, fail, read):
    reduce, ref_reduce = lazy_case(kind, fail)
    calls = {"CostRow.value": 0, "SwapStep": 0}
    value = CostRow.value

    def counted_value(self, weight):
        calls["CostRow.value"] += 1
        return value(self, weight)

    def counted_step(*fields):
        calls["SwapStep"] += 1
        return SwapStep(*fields)
    monkeypatch.setattr(CostRow, "value", counted_value)
    monkeypatch.setattr(ffv, "SwapStep", counted_step)
    t, message = transcript_of(reduce)
    # a failure's message converts the two sums it names
    assert calls == {"CostRow.value": 2 if fail else 0, "SwapStep": 0}
    assert (message is not None) == fail
    calls["CostRow.value"] = 0
    dump = t.dump() if read == "dump" else None
    steps = t.steps
    built = dict(calls)
    # a later read builds nothing and returns the same list
    assert t.steps is steps
    assert dump in (None, t.dump())
    assert calls == built
    monkeypatch.undo()
    assert built["SwapStep"] == len(steps) > 0
    # the build makes one Fraction per bundle before the first swap and two
    # per step, the new costs of its two bundles
    assert built["CostRow.value"] == len(t.final.bundles) + 2 * len(steps)
    want, want_message = transcript_of(ref_reduce)
    assert message == want_message
    assert (steps, t.dump(), t.final, t.result) == (want.steps, want.dump(), want.final,
                                                     want.result)
    assert t == want


# ------------------------------------------------- reduce_bivalued (Alg. 2)

BIVALUED_COSTS = tuple(F(x) for x in [7, 7, 7, 7, 2, 2, 2, 2, 2])
BIVALUED_Q = Allocation.of([(0, 1, 2, 3, 4, 5), (6, 7, 8)])
BIVALUED_P = Allocation.of([(0, 1, 4, 5, 6), (2, 3, 7, 8)])


def test_reduce_bivalued_worked_example():
    t = reduce_bivalued(BIVALUED_P, BIVALUED_Q, BIVALUED_COSTS, F(20),
                        range(9), verify_ffd=False)
    assert t.result == "equal"
    assert len(t.steps) == 4
    # large-count fix: three smalls leave, one large arrives
    assert t.steps[0].t_i == (4, 5, 6) and t.steps[0].t_j == (3,)
    # then the missing chores are pulled in one by one
    assert all(s.t_i == () for s in t.steps[1:])
    for i in range(2):
        assert lex_compare(t.final.bundles[i], BIVALUED_Q.bundles[i],
                           BIVALUED_COSTS) == EQUAL


def test_reduce_bivalued_random_transcripts():
    for seed in range(60):
        rng = random.Random(seed)
        inst = gen_instance("bivalued", 1, rng.randint(3, 9), seed=seed + 211)
        cost = inst.cost(0)
        tau = max(cost) * rng.randint(1, 3)
        out = ffd(inst.chores(), cost, tau)
        q = perturb_to_ffv(rng, out.allocation, inst.chores(), cost, tau)
        t = reduce_bivalued(out.allocation, q, cost, tau, inst.chores())
        assert t.result == "equal"
        for k in range(len(q.bundles)):
            assert lex_compare(t.final.bundles[k], q.bundles[k], cost) == EQUAL


@pytest.mark.parametrize("costs, tau, reduce, ref_reduce", [
    ((4, 4, 2, 2, 1, 4), 7, reduce_factored, ref_reduce_factored),
    ((7, 7, 2, 2, 2, 7), 11, reduce_bivalued, ref_reduce_bivalued),
], ids=["factored", "bivalued"])
def test_reductions_reject_a_target_holding_a_chore_outside_all_chores(costs, tau, reduce,
                                                                       ref_reduce):
    # Q is P with chore 0 swapped for chore 5, which costs the same and lies
    # outside all_chores: Q is First-Fit-Valid but lacks chore 0, so no
    # reduction may certify it
    cost = tuple(map(F, costs))
    P = ffd(range(5), cost, F(tau)).allocation
    Q = Allocation.of([tuple(5 if c == 0 else c for c in b) for b in P.bundles])
    assert is_ffv(range(5), Q, cost, F(tau)) == (True, None)
    for run in (reduce, ref_reduce):
        with pytest.raises(PreconditionViolation,
                           match="^allocation holds a chore outside all_chores$"):
            run(P, Q, cost, F(tau), range(5))
    # the check comes after the threshold's and before the FFD-output check
    with pytest.raises(BadParams):
        reduce(P, Q, cost, F(0), range(5))
    with pytest.raises(PreconditionViolation, match="outside all_chores"):
        reduce(Allocation.of([(1,)]), Q, cost, F(tau), range(5))


@pytest.mark.parametrize("bundles, cost_named", [
    (((0, 1), (2, 3), (4, 5)), 7),
    (((0, 3, 4, 5), (1,), (2,)), 2),
], ids=["large-beyond", "small-beyond"])
def test_reduce_bivalued_fails_on_a_chore_beyond_its_target_as_reference(bundles, cost_named):
    # targets 7 2 2 | 7 2 | 7: bundle 0 holds a second large chore, or a
    # third small one, which no pull can take away
    cost = tuple(map(F, (7, 7, 7, 2, 2, 2)))
    Q = ffd(range(6), cost, F(11)).allocation
    P = Allocation.of(bundles)
    failures = []
    for run in (reduce_bivalued, ref_reduce_bivalued):
        with pytest.raises(InvariantViolation) as info:
            run(P, Q, cost, F(11), range(6), verify_ffd=False)
        t = info.value.transcript
        assert str(info.value) == (f"bundle 0 holds a chore of cost {cost_named} "
                                   "beyond its target profile")
        assert (t.result, t.steps, t.final) == ("violation k=0", [], P)
        failures.append(t)
    assert failures[0] == failures[1]


def test_reduce_factored_fails_on_a_position_over_its_target_as_reference():
    # Q = {1, 2} {3} is First-Fit-Valid at 4, with chore 0 (cost 8) left
    # out; P's bundle 0 holds chore 0, heavier than its target's first chore
    cost = tuple(map(F, (8, 2, 2, 1)))
    Q = Allocation.of([(1, 2), (3,)])
    P = Allocation.of([(0,), (1, 2, 3)])
    failures = []
    for run in (reduce_factored, ref_reduce_factored):
        with pytest.raises(InvariantViolation) as info:
            run(P, Q, cost, F(4), range(4), verify_ffd=False)
        t = info.value.transcript
        assert str(info.value) == ("bundle 0 position 0 exceeds its target (8 > 2); "
                                   "FFV should forbid this")
        assert (t.result, t.steps, t.final) == ("violation k=0", [], P)
        failures.append(t)
    assert failures[0] == failures[1]


# -------------------------------------------- transform_mms_to_ffd (Alg. 3)

def test_transform_lower_bound_instance():
    row = tuple(F(x) for x in [4, 4, 4] + [3] * 9)
    res = mms_brute(row, range(12), 3)
    assert res.value == 13
    t = transform_mms_to_ffd(Allocation.of(res.witness), row, res.value)
    assert t.result == "equal"
    assert len(t.steps) == 3
    profiles = [tuple(sorted((row[c] for c in b), reverse=True))
                for b in t.final.bundles]
    assert profiles == [(F(4), F(4), F(4), F(3)), (F(3),) * 5, (F(3),) * 3]


def test_transform_second_special_case():
    # case-table row (1, 4, 3, 0): l/s = 2 > 47/24 and mu/s = 6 lies in
    # (143/24, 13/2). Bundle 0 holds one large chore and four small ones and
    # FFD's bin 0 three large ones; the two-for-one swap leaves (2, 2), and
    # the special case trades two more small chores for a large one. Found
    # by a seeded search over two-valued rows with m <= 14 and random
    # partitions within mu; mms_brute's witnesses in that search did not
    # reach this case.
    row = tuple(F(x) for x in [2, 2, 2] + [1] * 10)
    assert mms_brute(row, range(13), 3).value == 6
    q = Allocation.of([(0, 3, 4, 5, 6), (1, 7, 8, 9, 10), (2, 11, 12)])
    t = transform_mms_to_ffd(q, row, F(6))
    assert [step.dump() for step in t.steps] == [
        "step 0 k=0 swap i=0 T_i={3,4} j=2 T_j={2} | costs: 6 6 4",
        "step 1 k=0 swap i=0 T_i={5,6} j=1 T_j={1} | costs: 6 6 4"]
    assert t.result == "equal"
    assert t.final == Allocation.of([(0, 1, 2), (5, 6, 7, 8, 9, 10), (3, 4, 11, 12)])
    assert t == ref_transform_mms_to_ffd(q, row, F(6))


def test_transform_short_circuits_for_large_mu():
    # mu at 6.5x the small cost: threshold covers mu + s, no swaps needed
    cost = (F(13), F(2), F(2), F(2), F(2), F(2), F(2), F(2)) + (F(2),)
    q = Allocation.of([(0,), (1, 2, 3, 4, 5, 6), (7, 8)])
    t = transform_mms_to_ffd(q, cost, F(13))
    assert t.result == "equal" and t.steps == []
    assert t.final.is_complete(9)


def test_transform_of_no_chores_is_an_empty_equal_transcript():
    q = Allocation.of([(), ()])
    t = transform_mms_to_ffd(q, (F(3), F(2)), F(5))
    assert (t.steps, t.result, t.final) == ([], "equal", q)


def test_transform_rejects_bundle_above_mu():
    cost = (F(3), F(3))
    q = Allocation.of([(0, 1), ()])
    with pytest.raises(PreconditionViolation):
        transform_mms_to_ffd(q, cost, F(5))


def test_transform_random_bivalued_matches_independent_ffd():
    from choremms.mms import APPROX_RATIO
    done = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        inst = gen_instance("bivalued", 1, rng.randint(3, 10), seed=seed + 409)
        cost = inst.cost(0)
        vals = sorted(set(cost))
        if len(vals) < 2:
            continue
        res = mms_brute(cost, inst.chores(), n)
        if res.value >= F(13, 2) * vals[0]:
            continue
        t = transform_mms_to_ffd(Allocation.of(res.witness), cost, res.value)
        assert t.result == "equal"
        fresh = ffd(inst.chores(), cost, APPROX_RATIO * res.value)
        assert fresh.succeeded
        for k, b in enumerate(fresh.bundles):
            assert lex_compare(t.final.bundles[k], b, cost) == EQUAL
        done += 1
    assert done >= 30


# --------------------------------------------------------- transcript dump

STEP_RE = re.compile(
    r"^step \d+ k=\d+ swap i=\d+ T_i=\{[\d,]*\} j=\d+ T_j=\{[\d,]*\} "
    r"\| costs: .+$")


def test_transcript_dump_format():
    t = reduce_factored(FACTORED_P, FACTORED_Q, FACTORED_COSTS, F(10),
                        range(8), verify_ffd=False)
    lines = t.dump().splitlines()
    assert lines[-1] == "result: equal"
    for line in lines[:-1]:
        assert STEP_RE.match(line), line
    assert lines[0] == "step 0 k=0 swap i=0 T_i={3,4} j=1 T_j={2} | costs: 10 9"


def test_transcript_dump_violation_line():
    t = SwapTranscript(steps=[SwapStep(0, 0, 0, (1,), 1, (), (F(1),))],
                       result="violation k=0")
    assert t.dump().splitlines()[-1] == "result: violation k=0"
