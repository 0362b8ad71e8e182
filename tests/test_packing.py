import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from choremms import packing
from choremms.analysis import gen_instance, subset_sums
from choremms.core import EQUAL, Instance, bundle_cost, to_ido
from choremms.errors import BadParams, EmptyBinDeadlock
from choremms.ffv import is_ffv
from choremms.mms import mms_brute, solve_auto
from choremms.packing import (ffd, first_fit_places_all, hffd, ladder_bound, ladder_probe,
                              multifit, smallest_fitting_cap)
from helpers import (brute_min_makespan, lex_compare, random_rationals, ref_benchmark_bundle,
                     ref_ffd, ref_first_fit_places_all, ref_hffd, ref_ladder_bound, ref_multifit,
                     ref_smallest_fitting_cap, run_length)

LOWER_BOUND_COSTS = tuple(F(x) for x in [4, 4, 4] + [3] * 9)


def profiles(outcome, cost):
    return [tuple(sorted((cost[c] for c in b), reverse=True)) for b in outcome.bundles]


# --------------------------------------------------------------------- ffd

def test_ffd_lower_bound_instance_fails_at_13():
    out = ffd(range(12), LOWER_BOUND_COSTS, F(13), max_bins=3)
    assert not out.succeeded
    assert profiles(out, LOWER_BOUND_COSTS) == [
        (F(4), F(4), F(4)), (F(3),) * 4, (F(3),) * 4]
    assert len(out.unallocated) == 1
    assert LOWER_BOUND_COSTS[out.unallocated[0]] == 3


def test_ffd_lower_bound_instance_succeeds_at_15():
    out = ffd(range(12), LOWER_BOUND_COSTS, F(15), max_bins=3)
    assert out.succeeded
    assert profiles(out, LOWER_BOUND_COSTS) == [
        (F(4), F(4), F(4), F(3)), (F(3),) * 5, (F(3),) * 3]


def test_ffd_single_chore_tight_threshold():
    out = ffd([0], (F(7),), F(7))
    assert out.succeeded and out.bundles == ((0,),)


def test_ffd_rejects_nonpositive_threshold():
    with pytest.raises(BadParams):
        ffd([0], (F(1),), F(0))


@pytest.mark.parametrize("pack", [
    lambda tau: ffd(range(2), (F(2), F(1)), tau),
    lambda tau: hffd(Instance.from_rows([[2, 1], [2, 1]]), [F(5), tau]),
], ids=["ffd", "hffd"])
def test_float_threshold_is_bad_params(pack):
    with pytest.raises(BadParams, match="^threshold must be rational, not float$"):
        pack(2.5)


@pytest.mark.parametrize("weights, tau, max_bins, bundles, unallocated", [
    ((5, 6, 7), F(4), None, (), (2, 1, 0)),
    ((3, 2), F(5), 0, (), (0, 1)),
    ((), F(1), None, (), ()),
    # the second 5 finds no room and no bin to open; the 1 still fits bin 0
    ((5, 5, 1), F(6), 1, ((0, 2),), (1,)),
], ids=["capacity-below-every-weight", "no-bins", "no-chores", "max-bins-reached"])
def test_ffd_edge_cases_match_reference(weights, tau, max_bins, bundles, unallocated):
    cost = tuple(F(w) for w in weights)
    out = ffd(range(len(cost)), cost, tau, max_bins=max_bins)
    assert out == ref_ffd(range(len(cost)), cost, tau, max_bins=max_bins)
    assert out.bundles == bundles and out.unallocated == unallocated
    assert out.succeeded == (not unallocated)


def test_ffd_deterministic():
    rng = random.Random(7)
    cost = random_rationals(rng, 9)
    a = ffd(range(9), cost, F(9), max_bins=3)
    b = ffd(range(9), cost, F(9), max_bins=3)
    assert a == b


def test_ffd_bins_equal_benchmark_bundles():
    # each FFD bin is lex-equal to the benchmark bundle of the prefix
    # before it
    rng = random.Random(0xFFD)
    for _ in range(80):
        m = rng.randint(1, 9)
        cost = random_rationals(rng, m)
        tau = max(cost) * F(rng.randint(1, 3), rng.randint(1, 2))
        out = ffd(range(m), cost, tau)
        for k in range(len(out.bundles)):
            bench = ref_benchmark_bundle(range(m), out.bundles[:k], cost, tau)
            assert lex_compare(out.bundles[k], bench, cost) == EQUAL


# --------------------------------------------------------- MultiFit bracket

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(1, 6))
def test_first_fit_bracket(weights, bins):
    # the exact threshold searches probe only the integers of this bracket
    total = sum(weights)
    lo = max(max(weights), -(-total // bins))
    runs = run_length(sorted(weights, reverse=True))
    assert first_fit_places_all(runs, max(weights) + -(-total // bins), bins)
    assert not any(first_fit_places_all(runs, cap, bins) for cap in range(lo))


@st.composite
def long_runs(draw):
    """Descending weights with at most four distinct values and up to 300
    chores, so the runs are long."""
    distinct = sorted(draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True)),
                      reverse=True)
    counts = [draw(st.integers(1, 300 // len(distinct))) for _ in distinct]
    return [w for w, k in zip(distinct, counts) for _ in range(k)]


@settings(max_examples=150, deadline=None)
@given(long_runs(), st.integers(1, 12))
def test_run_length_probe_matches_per_weight_first_fit(weights, bins):
    runs = run_length(weights)
    total = sum(weights)
    lo = max(weights[0], -(-total // bins))
    for cap in range(1, lo + weights[0] + 1):
        assert first_fit_places_all(runs, cap, bins) == \
            ref_first_fit_places_all(weights, cap, bins), cap


def test_smallest_fitting_cap_guards():
    assert smallest_fitting_cap([], 2) == 0
    assert ladder_bound([], 2) == 0
    for search in (smallest_fitting_cap, ladder_bound):
        with pytest.raises(BadParams):
            search([(3, 1)], 0)
        with pytest.raises(BadParams):
            search([], 0)


def max_probes(w0):
    """The probe at the ladder bound, then a bisection of the at most w0
    capacities left in the bracket above it."""
    return 1 + math.ceil(math.log2(w0 + 1))


def count_probes(monkeypatch):
    calls = []
    probe = packing.first_fit_places_all

    def counted(*args):
        calls.append(args[1])
        return probe(*args)
    monkeypatch.setattr(packing, "first_fit_places_all", counted)
    return calls


@settings(max_examples=200, deadline=None)
@given(long_runs(), st.integers(1, 12))
def test_smallest_fitting_cap_probe_count(weights, bins):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_probes(monkeypatch)
        cap = smallest_fitting_cap(run_length(weights), bins)
    assert len(calls) <= max_probes(weights[0])
    assert (cap, len(calls)) == ref_smallest_fitting_cap(weights, bins)


@pytest.mark.parametrize("kind", ["factored", "personalized_bivalued"])
def test_per_agent_probes_match_per_weight_bisection(kind, monkeypatch):
    instance = gen_instance(kind, 20, 200, seed=8)
    calls = count_probes(monkeypatch)
    for i in range(instance.n):
        row = instance.cost(i)
        calls.clear()
        cap = smallest_fitting_cap(row.runs(instance.chores()), instance.n)
        weights = row.profile(instance.chores())
        assert len(calls) <= max_probes(weights[0])
        assert (cap, len(calls)) == ref_smallest_fitting_cap(weights, instance.n)


def test_factored_solve_probes_once_per_agent(monkeypatch):
    # every row of a factored instance is a divisibility chain, where the
    # first probe, at the ladder bound, succeeds
    instance = gen_instance("factored", 10, 100, seed=3)
    calls = count_probes(monkeypatch)
    solve_auto(instance)
    assert len(calls) == instance.n


# ------------------------------------------------------------ ladder bound

@st.composite
def chain_weights(draw, max_m=300):
    """Descending weights whose distinct values form a divisibility chain."""
    chain = [draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(0, 3))):
        chain.append(chain[-1] * draw(st.integers(2, 4)))
    return sorted(draw(st.lists(st.sampled_from(chain), min_size=1, max_size=max_m)),
                  reverse=True)


@st.composite
def small_weights(draw):
    """Up to 8 descending weights of every class: a divisibility chain, two
    values, or any values."""
    two = st.lists(st.integers(1, 30), min_size=2, max_size=2).flatmap(
        lambda pair: st.lists(st.sampled_from(pair), min_size=1, max_size=8))
    any_values = st.lists(st.integers(1, 30), min_size=1, max_size=8)
    return sorted(draw(chain_weights(8) | two | any_values), reverse=True)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ladder_bound_is_at_most_the_makespan(data):
    weights = data.draw(small_weights())
    bins = data.draw(st.integers(1, 4 if len(weights) <= 6 else 3))
    cost = tuple(map(F, weights))
    assert ladder_bound(run_length(weights), bins) <= \
        brute_min_makespan(cost, range(len(weights)), bins)


@settings(max_examples=300, deadline=None)
@given(long_runs() | small_weights(), st.integers(1, 12))
def test_ladder_bound_is_at_least_the_multifit_floor(weights, bins):
    bound = ladder_bound(run_length(weights), bins)
    assert bound == ref_ladder_bound(weights, bins)
    assert bound >= max(weights[0], -(-sum(weights) // bins))


@settings(max_examples=300, deadline=None)
@given(chain_weights(), st.integers(1, 12))
def test_ladder_bound_is_the_fitting_cap_on_a_chain(weights, bins):
    runs = run_length(weights)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_probes(monkeypatch)
        cap = smallest_fitting_cap(runs, bins)
    assert (cap, len(calls)) == ref_smallest_fitting_cap(weights, bins) == \
        (ladder_bound(runs, bins), 1)
    assert ladder_probe(runs, bins) == (cap, True)


# ---------------------------------------------------------------- multifit

def test_multifit_lower_bound_instance():
    tau, out = multifit(range(12), LOWER_BOUND_COSTS, 3)
    assert tau == 15 and out.succeeded
    # exhaustive: every achievable-sum threshold below 15 fails
    for s in subset_sums(range(12), LOWER_BOUND_COSTS):
        if max(LOWER_BOUND_COSTS) <= s < 15:
            assert not ffd(range(12), LOWER_BOUND_COSTS, s, max_bins=3).succeeded


def test_multifit_singletons():
    cost = (F(5),) * 4
    tau, out = multifit(range(4), cost, 4)
    assert tau == 5 and out.succeeded


def test_multifit_factored_matches_brute_force_makespan():
    cost = tuple(F(x) for x in [4, 2, 2, 1, 1])
    tau, out = multifit(range(5), cost, 2)
    assert tau == 5 and out.succeeded
    assert brute_min_makespan(cost, range(5), 2) == 5


def test_multifit_returned_threshold_always_succeeds():
    rng = random.Random(0x3117)
    for _ in range(40):
        m = rng.randint(1, 8)
        n = rng.randint(1, 4)
        cost = random_rationals(rng, m)
        tau, out = multifit(range(m), cost, n)
        assert out.succeeded
        assert ffd(range(m), cost, tau, max_bins=n).succeeded


def test_multifit_general_row_returns_largest_bin_cost():
    # FFD success is not monotone on this row: it succeeds at 89, fails at
    # 90 and succeeds at 91. Bisecting the subset-sum grid lands on 91; the
    # first probe, at the ladder bound 89, succeeds, so 89 is also the
    # exact makespan.
    cost = tuple(F(x) for x in [54, 51, 41, 39, 35, 28, 27, 23, 22, 14, 10, 9, 1])
    assert [ffd(range(13), cost, F(t), max_bins=4).succeeded for t in (88, 89, 90, 91)] == \
        [False, True, False, True]
    assert ref_multifit(range(13), cost, 4) == 91
    tau, out = multifit(range(13), cost, 4)
    assert ladder_probe(run_length([54, 51, 41, 39, 35, 28, 27, 23, 22, 14, 10, 9, 1]), 4) == \
        (89, True)
    assert tau == 89 == mms_brute(cost, range(13), 4).value
    assert out.succeeded and max(bundle_cost(cost, b) for b in out.bundles) == tau


# -------------------------------------------------------------------- hffd

def test_hffd_single_agent_takes_everything():
    inst = Instance.from_rows([[3, 2, 1]])
    out = hffd(inst, [F(6)])
    assert out.succeeded and out.bundles == ((0, 1, 2),)
    assert out.allocation.agents == (0,)


def test_hffd_identical_agents_collapse_to_ffd():
    rng = random.Random(0x4FFD)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 9)
        row = random_rationals(rng, m)
        row = tuple(sorted(row, reverse=True))
        inst = Instance(tuple(row for _ in range(n)))
        tau = max(row) * F(rng.randint(1, 3))
        out_h = hffd(inst, [tau] * n)
        out_f = ffd(range(m), row, tau, max_bins=n)
        assert [tuple(b) for b in out_h.bundles] == [tuple(b) for b in out_f.bundles]
        assert sorted(out_h.unallocated) == sorted(out_f.unallocated)


def test_hffd_lower_bound_instance():
    inst = Instance(tuple(LOWER_BOUND_COSTS for _ in range(3)))
    good = hffd(inst, [F(15)] * 3)
    assert good.succeeded
    assert [tuple(b) for b in good.bundles] == \
        [tuple(b) for b in ffd(range(12), LOWER_BOUND_COSTS, F(15), max_bins=3).bundles]
    bad = hffd(inst, [F(13)] * 3)
    assert not bad.succeeded and len(bad.unallocated) == 1


def test_hffd_splits_a_block_across_bins():
    # chores 1-4 cost every agent the same, one block; agent 0 has room for
    # two of its copies after chore 0 and agent 1 for three, so agent 0
    # leaves the first bin's list after the second copy, and the fourth
    # copy waits for the second bin
    inst = Instance.from_rows([[4, 3, 3, 3, 3], [4, 2, 2, 2, 2]])
    out = hffd(inst, [F(10), F(10)])
    assert out.bundles == ((0, 1, 2, 3), (4,))
    assert out.allocation.agents == (1, 0)
    assert out == ref_hffd(inst, [F(10), F(10)])


def test_hffd_empty_bin_deadlock():
    inst = Instance.from_rows([[10, 1], [10, 1]])
    with pytest.raises(EmptyBinDeadlock) as exc:
        hffd(inst, [F(5), F(5)])
    assert exc.value.chore == 0


def test_hffd_output_is_ffv_for_last_agent():
    # the HFFD outcome is First-Fit-Valid for the last assigned agent at
    # any threshold up to theirs
    rng = random.Random(0xFF5)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(n, 10)
        inst, _ = to_ido(Instance(tuple(random_rationals(rng, m) for _ in range(n))))
        taus = [max(inst.cost(i)) * F(rng.randint(1, 3)) + rng.randint(0, 2)
                for i in range(n)]
        out = hffd(inst, taus)
        if not out.allocation.agents:
            continue
        last = out.allocation.agents[-1]
        cost = inst.cost(last)
        smallest = min(cost)
        for tau in {taus[last], taus[last] / 2, smallest}:
            if tau <= 0 or tau > taus[last]:
                continue
            ok, bad = is_ffv(range(m), out.allocation, cost, tau)
            assert ok, f"FFV violated at bundle {bad} for tau={tau}"


def test_ffd_monotone_on_factored_and_bivalued():
    rng = random.Random(0x300)
    for kind in ("factored", "bivalued"):
        for trial in range(60):
            inst = gen_instance(kind, 1, rng.randint(3, 9), seed=trial)
            cost = inst.cost(0)
            grid = subset_sums(inst.chores(), cost)
            grid = [g for g in grid if g >= max(cost)]
            bins = rng.randint(1, 3)
            succeeded = [g for g in grid
                         if ffd(inst.chores(), cost, g, max_bins=bins).succeeded]
            if succeeded:
                first = min(succeeded)
                assert all(g in succeeded for g in grid if g > first)
