import random
import re
from fractions import Fraction as F

import pytest

from choremms import ffv
from choremms.analysis import gen_instance
from choremms.core import EQUAL, Allocation, CostRow, bundle_cost
from choremms.errors import BadParams, PreconditionViolation
from choremms.ffv import (SwapStep, SwapTranscript, benchmark_bundle, is_ffv, reduce_bivalued,
                          reduce_factored, transform_mms_to_ffd)
from choremms.mms import mms_brute
from choremms.packing import ffd
from helpers import (brute_lex_max, certify_case, find_exact_subset, lex_compare,
                     perturb_to_ffv, random_rationals)

# the validity-regression configuration: four bundles plus one loose chore
REGRESSION_COSTS = tuple(F(x, 100) for x in
                         [70, 25, 25, 60, 35, 60, 50, 54, 24, 23, 19])
REGRESSION_ALLOC = Allocation.of([(0, 1, 2), (3, 4), (5, 6), (7, 8, 9)])


# ------------------------------------------------------- benchmark / is_ffv

def test_benchmark_bundle_regression_example():
    assert benchmark_bundle(range(11), [], REGRESSION_COSTS, F(1)) == (0, 1)


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
        got = benchmark_bundle(range(m), prefix, cost, tau)
        want = brute_lex_max(range(m), prefix, cost, tau)
        assert lex_compare(got, want, cost) == EQUAL


def test_benchmark_bundle_rejects_nonpositive_threshold():
    with pytest.raises(PreconditionViolation):
        benchmark_bundle(range(2), [], (F(1), F(1)), F(0))


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
    with pytest.raises(BadParams, match="^FFD threshold must be positive$"):
        reduce(alloc, alloc, (F(2), F(1), F(1)), tau, range(3), verify_ffd=verify_ffd)


FLOAT_CASE = (Allocation.of([(0, 1), (2,)]), (F(2), F(1), F(1)))


@pytest.mark.parametrize("check", [
    lambda alloc, cost, tau: is_ffv(range(3), alloc, cost, tau),
    lambda alloc, cost, tau: benchmark_bundle(range(3), [], cost, tau),
    lambda alloc, cost, tau: reduce_factored(alloc, alloc, cost, tau, range(3)),
    lambda alloc, cost, tau: reduce_factored(alloc, alloc, cost, tau, range(3), verify_ffd=False),
    lambda alloc, cost, tau: reduce_bivalued(alloc, alloc, cost, tau, range(3)),
    lambda alloc, cost, tau: reduce_bivalued(alloc, alloc, cost, tau, range(3), verify_ffd=False),
    lambda alloc, cost, tau: transform_mms_to_ffd(alloc, cost, tau),
], ids=["is_ffv", "benchmark_bundle", "reduce_factored", "reduce_factored-unverified",
        "reduce_bivalued", "reduce_bivalued-unverified", "transform_mms_to_ffd"])
def test_float_threshold_is_bad_params(check):
    with pytest.raises(BadParams, match="^threshold must be rational, not float$"):
        check(*FLOAT_CASE, 3.0)


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
    row = tuple(F(x) for x in [4, 4, 4] + [3] * 9)
    res = mms_brute(row, range(12), 3)
    transform_mms_to_ffd(Allocation.of(res.witness), row, res.value)
    assert len(calls) == 1


@pytest.mark.parametrize("levels, seed", [(1, 0), (2, 0), (3, 1)])
def test_swap_steps_sort_and_convert_only_what_they_change(monkeypatch, levels, seed):
    # bundle k is sorted once and again after each of its swaps, and each
    # integer bundle sum becomes a Fraction once
    P, Q, cost, tau, chores = certify_case("factored", 10, 100, seed, levels=levels)
    calls = {"value": 0, "ffd_order": 0}

    def counted(name):
        method = getattr(CostRow, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(CostRow, name, counted(name))
    t = reduce_factored(P, Q, cost, tau, chores)
    monkeypatch.undo()
    bundles = max(len(P.bundles), len(Q.bundles))
    # the worker pads P with empty bundles to the longer length
    padded = P.bundles + ((),) * (bundles - len(P.bundles))
    sums = {bundle_cost(cost, b) for b in padded}
    sums |= {c for step in t.steps for c in step.costs_after}
    steps = len(t.steps)
    assert t.result == "equal" and steps
    assert calls["value"] <= len(sums)
    assert calls["ffd_order"] <= bundles + steps


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


def test_transform_short_circuits_for_large_mu():
    # mu at 6.5x the small cost: threshold covers mu + s, no swaps needed
    cost = (F(13), F(2), F(2), F(2), F(2), F(2), F(2), F(2)) + (F(2),)
    q = Allocation.of([(0,), (1, 2, 3, 4, 5, 6), (7, 8)])
    t = transform_mms_to_ffd(q, cost, F(13))
    assert t.result == "equal" and t.steps == []
    assert t.final.is_complete(9)


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
