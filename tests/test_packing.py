import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from choremms import mms, packing
from choremms.analysis import GEN_KINDS, gen_instance, subset_sums
from choremms.core import CostRow, Instance, bundle_cost, to_ido
from choremms.errors import BadParams, EmptyBinDeadlock
from choremms.ffv import is_ffv
from choremms.mms import ORACLE_CAP, min_success_threshold, mms_brute, mms_value, solve_auto
from choremms.packing import (ffd, first_fit_bins, first_fit_places_all, hffd, hffd_slices,
                              ladder_bound, ladder_probe, multifit, smallest_fitting_cap)
from helpers import (EQUAL, brute_min_makespan, lex_compare, random_rationals, ref_benchmark_bundle,
                     ref_ffd, ref_first_fit_places_all, ref_hffd, ref_ladder_bound, ref_mms_brute,
                     ref_multifit, ref_smallest_fitting_cap, run_length)

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
    with pytest.raises(BadParams, match="^threshold must be a positive rational$"):
        ffd([0], (F(1),), F(0))


@pytest.mark.parametrize("pack", [
    lambda tau: ffd(range(2), (F(2), F(1)), tau),
    lambda tau: hffd(Instance.from_rows([[2, 1], [2, 1]]), [F(5), tau]),
], ids=["ffd", "hffd"])
def test_float_threshold_is_bad_params(pack):
    with pytest.raises(BadParams, match="^threshold must be a positive rational$"):
        pack(2.5)


@pytest.mark.parametrize("weights, tau, max_bins, bundles, unallocated", [
    ((5, 6, 7), F(4), None, (), (2, 1, 0)),
    ((), F(1), None, (), ()),
    # the second 5 finds no room and no bin to open; the 1 still fits bin 0
    ((5, 5, 1), F(6), 1, ((0, 2),), (1,)),
], ids=["capacity-below-every-weight", "no-chores", "max-bins-reached"])
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


def test_first_fit_bins_are_ffds_bins():
    # the (weight, copies) of each bin are the profile of ffd's bin, and the
    # counts left are the unallocated chores' weights
    rng = random.Random(0xB125)
    for _ in range(300):
        m = rng.randint(0, 12)
        row = CostRow.of(random_rationals(rng, m, max_num=rng.choice((3, 12))))
        tau = F(rng.randint(1, 30), rng.randint(1, 3))
        max_bins = rng.choice((None, 0, 1, 2, 3))
        count = dict(row.runs(range(m)))
        bins = [[w for w, t in taken for _ in range(t)]
                for taken in first_fit_bins(count, row.cap(tau), max_bins)]
        want = ref_ffd(range(m), row, tau, max_bins=max_bins)
        assert bins == [row.profile(b) for b in want.bundles]
        assert count == dict(row.runs(want.unallocated))


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


@st.composite
def many_runs(draw):
    """Up to 12 distinct weights with up to 60 copies each, and 1 to 100
    bins: at many bins a run passes and splits groups of many bins."""
    distinct = sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True)),
                      reverse=True)
    runs = [(w, draw(st.integers(1, 60))) for w in distinct]
    return runs, draw(st.integers(1, 100))


@settings(max_examples=150, deadline=None)
@given(many_runs())
def test_grouped_probe_matches_per_weight_first_fit(case):
    # every capacity from 1 to the top of the MultiFit bracket
    runs, bins = case
    weights = [w for w, k in runs for _ in range(k)]
    total = sum(weights)
    top = min(total, max(weights[0], -(-total // bins)) + weights[0])
    for cap in range(1, top + 1):
        assert first_fit_places_all(runs, cap, bins) == \
            ref_first_fit_places_all(weights, cap, bins), cap


# Each case walks one shape of the probe's bin groups at capacity 20; the
# last run then shows the rooms the groups were left with, and at one bin
# fewer, or one copy more, the probe fails.
GROUP_SHAPES = {
    # four bins of room 6; 2 x 12 fills the group, and 1 x 4 opens a bin
    "run fills a group": ([(14, 4), (2, 12), (1, 4)], 5, True),
    "run fills a group, one bin short": ([(14, 4), (2, 12), (1, 4)], 4, False),
    # 2 x 12 fills the two bins of room 2 and then the three of room 6, and
    # opens a bin of room 18 for 1 x 18
    "run fills two groups": ([(18, 2), (14, 3), (2, 12), (1, 18)], 6, True),
    "run fills two groups, one copy more": ([(18, 2), (14, 3), (2, 12), (1, 19)], 6, False),
    # 2 x 7 into four bins of room 6: two bins take three copies, one takes
    # the rest, one is not reached; so 1 x 10 fills rooms 4 and 6
    "run ends in a group with a rest": ([(14, 4), (2, 7), (1, 10)], 4, True),
    "run ends in a group with a rest, one copy more": ([(14, 4), (2, 7), (1, 11)], 4, False),
    # 2 x 6 into four bins of room 6: two bins take three copies, no rest
    "run ends in a group without a rest": ([(14, 4), (2, 6), (1, 12)], 4, True),
    "run ends in a group without a rest, one copy more": ([(14, 4), (2, 6), (1, 13)], 4, False),
    # 2 x 8 into three bins of room 6: two bins take three copies, and the
    # last bin of the group takes the rest
    "run ends in the last bin of a group": ([(14, 3), (2, 8), (1, 2)], 3, True),
    "run ends in the last bin of a group, one copy more": ([(14, 3), (2, 8), (1, 3)], 3, False),
    # 2 x 2 ends in the bin of room 6, which keeps room 2 for 1 x 2
    "run ends in a one-bin group": ([(14, 1), (2, 2), (1, 2)], 1, True),
    "run ends in a one-bin group, one copy more": ([(14, 1), (2, 2), (1, 3)], 1, False),
}


@pytest.mark.parametrize("runs, bins, fits", GROUP_SHAPES.values(), ids=GROUP_SHAPES)
def test_grouped_probe_shapes(runs, bins, fits):
    weights = [w for w, k in runs for _ in range(k)]
    assert ref_first_fit_places_all(weights, 20, bins) == fits
    assert first_fit_places_all(runs, 20, bins) == fits


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


def test_factored_solve_makes_no_probe(monkeypatch):
    # every row of a factored instance is a divisibility chain, where the
    # ladder bound is the smallest fitting capacity, so no probe is needed
    instance = gen_instance("factored", 10, 100, seed=3)
    calls = count_probes(monkeypatch)
    result = solve_auto(instance)
    assert calls == []
    assert result.algorithm == "factored"
    assert result.allocation.is_complete(instance.m)
    ido, _ = to_ido(instance)
    assert result.thresholds == tuple(
        row.value(ref_smallest_fitting_cap(row.profile(ido.chores()), instance.n)[0])
        for row in ido.costs)


def test_bivalued_pool_probe_and_search_counts(monkeypatch):
    # one pass of solve_auto over the `bivalued` benchmark pool at seed 1;
    # `mms` binds smallest_fitting_cap by name, so its searches are counted
    # there
    calls = count_probes(monkeypatch)
    searches = []
    search = mms.smallest_fitting_cap

    def counted(runs, bins):
        searches.append(bins)
        return search(runs, bins)
    monkeypatch.setattr(mms, "smallest_fitting_cap", counted)
    for k in range(100):
        solve_auto(gen_instance("personalized_bivalued", 8, 80, seed=1000 + k))
    assert (len(calls), len(searches)) == (1642, 513)


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_chain_row_reads_its_mms_off_the_ladder_bound(data):
    # the ids are shuffled, so the row is not already descending; the
    # chores are given as the shared tuple of all of them, whose runs the
    # row keeps, and as a list, whose runs are counted
    weights = data.draw(chain_weights(14) | chain_weights())
    cost = tuple(map(F, data.draw(st.permutations(weights))))
    d = data.draw(st.integers(1, 12))
    instance = Instance((cost,))
    want = F(ref_smallest_fitting_cap(weights, d)[0])
    for chores in (instance.chores(), list(range(len(cost)))):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_probes(monkeypatch)
            got = (mms_value(instance.cost(0), chores, d),
                   min_success_threshold(instance.cost(0), chores, d))
        assert got == (want, want)
        assert calls == []
    if len(weights) <= 14:
        assert want == ref_mms_brute(cost, range(len(cost)), d).value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_two_values_off_a_chain_still_probe(data):
    b = data.draw(st.integers(2, 20))
    a = data.draw(st.integers(b + 1, 60).filter(lambda a: a % b))
    weights = [a] * data.draw(st.integers(1, 100)) + [b] * data.draw(st.integers(1, 100))
    cost = tuple(map(F, data.draw(st.permutations(weights))))
    d = data.draw(st.integers(1, 12))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_probes(monkeypatch)
        got = min_success_threshold(cost, range(len(cost)), d)
    cap, probes = ref_smallest_fitting_cap(weights, d)
    assert (got, len(calls)) == (F(cap), probes)
    assert calls


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


def outcome_fields(pack, instance, taus):
    """The bins, owners, chores left and success of a packing, or the chore
    of its deadlock."""
    try:
        out = pack(instance, taus)
    except EmptyBinDeadlock as exc:
        return "deadlock", exc.chore
    return out.bundles, out.allocation.agents, out.unallocated, out.succeeded


HFFD_EDGE_CASES = {
    # room for two copies of the lone chore 0, then for all of the block
    # 1-2 and for one copy of the block 3-4
    "one agent": ([[5, 3, 3, 1, 1]], [F(12)], (((0, 1, 2, 3),), (0,), (4,), False)),
    # every tie goes to the lowest index left
    "identical rows": ([[4, 3, 3, 2, 2, 1]] * 3, [F(5)] * 3,
                       (((0, 5), (1, 3), (2, 4)), (0, 1, 2), (), True)),
    # agent 0's capacity floor(2/3) is 0 in the scale 2 of their row
    "caps of 0": ([[F(3, 2), F(1, 2), F(1, 2)], [3, 1, 1], [F(3, 2), F(1, 2), F(1, 2)]],
                  [F(1, 3), F(4), F(5, 2)], (((0, 1, 2),), (2,), (), True)),
    # one block of six; agent 0 has room for two copies, agent 1 for three
    "split block": ([[2] * 6, [3] * 6], [F(4), F(9)],
                    (((0, 1, 2), (3, 4)), (1, 0), (5,), False)),
    "deadlock": ([[10, 1], [10, 1]], [F(5), F(5)], ("deadlock", 0)),
    # agent 0 takes chores 0 and 2; agent 1's capacity is 0
    "deadlock in the second bin": ([[3, 2, 1], [3, 2, 1]], [F(4), F(1, 2)], ("deadlock", 1)),
}


@pytest.mark.parametrize("rows, taus, want", HFFD_EDGE_CASES.values(), ids=HFFD_EDGE_CASES)
def test_hffd_edge_cases_match_reference(rows, taus, want):
    instance = Instance.from_rows(rows)
    assert outcome_fields(ref_hffd, instance, taus) == want
    # thresholds as a list and as a tuple, and the same call again
    for call in (list(taus), tuple(taus), list(taus)):
        assert outcome_fields(hffd, instance, call) == want


@pytest.mark.parametrize("taus, message", [
    ([F(5)], "need one threshold per agent"),
    ([F(5), F(5), F(5)], "need one threshold per agent"),
    ([F(5), F(0)], "threshold must be a positive rational"),
    ([F(-1), F(5)], "threshold must be a positive rational"),
])
def test_hffd_rejects_bad_thresholds(taus, message):
    with pytest.raises(BadParams, match=f"^{message}$"):
        hffd(Instance.from_rows([[2, 1], [2, 1]]), taus)


def test_multifit_needs_one_bin():
    with pytest.raises(BadParams, match="^number of bundles must be a positive int$"):
        multifit(range(2), (F(2), F(1)), 0)


def test_hffd_empty_bin_deadlock():
    inst = Instance.from_rows([[10, 1], [10, 1]])
    with pytest.raises(EmptyBinDeadlock) as exc:
        hffd(inst, [F(5), F(5)])
    assert exc.value.chore == 0


def check_hffd_slices(instance, taus):
    """`hffd_slices` on the instance's twin at the thresholds gives each bin
    its own owner, one of the n agents, and a chore, and its bins and the
    blocks it leaves cover the twin's positions 0..m-1 once each. Returns
    the blocks left, or None when HFFD deadlocks."""
    ido, _ = to_ido(instance)
    try:
        bins, owners, left = hffd_slices(ido, taus)
    except EmptyBinDeadlock:
        return None
    assert len(bins) == len(owners) == len(set(owners))
    assert all(0 <= owner < ido.n for owner in owners)
    assert all(bins)
    spans = [(p, p + t) for parts in bins for p, t in parts] + left
    assert sorted(p for start, end in spans for p in range(start, end)) == list(range(ido.m))
    return left


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GEN_KINDS), st.integers(1, 8), st.integers(0, 40),
       st.integers(0, 10 ** 6), st.data())
def test_hffd_slices_gives_each_agent_at_most_one_bin(kind, n, m, seed, data):
    # `hffd_and_lift` lifts each bin straight into its owner's bundle and
    # sums the lifted bundles with no id check, on these guarantees: at the
    # solvers' thresholds, where HFFD places every chore (the ordinal
    # solver needs two agents, and its exact fallback on general rows at
    # most ORACLE_CAP chores), and at thresholds drawn per agent up to
    # about twice an even share, where it may leave chores or deadlock
    instance = gen_instance(kind, n, m, seed)
    if m and (kind != "general" or n >= 2 and m <= ORACLE_CAP):
        assert check_hffd_slices(instance, solve_auto(instance).thresholds) == []
    taus = []
    for row in instance.costs:
        cap = max(row.weights, default=1) + 2 * sum(row.weights) // n
        taus.append(row.value(data.draw(st.integers(1, cap))))
    check_hffd_slices(instance, taus)


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
