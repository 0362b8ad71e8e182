import functools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from choremms import core, mms, packing
from choremms.analysis import gen_instance, subset_sums
from choremms.core import CostRow, Instance, bundle_cost, to_ido
from choremms.errors import (BadParams, NotBivalued, NotFactored, TheoremViolation, TooLarge,
                             UnsupportedClass)
from choremms.mms import (APPROX_RATIO, MMSResult, hffd_and_lift, mms_brute, mms_factored,
                          mms_lower_bound, mms_value, min_success_threshold, solve_auto,
                          solve_bivalued, solve_factored, solve_ordinal)
from choremms.packing import ffd
from helpers import (brute_min_makespan, everything_to_agent_0, hffd_dropping_last_chore,
                     random_rationals)

LOWER_BOUND_ROW = tuple(F(x) for x in [4, 4, 4] + [3] * 9)
# HFFD at the lower bounds (12, 13, 12, 16) for d = 3 leaves chore 4 of the
# IDO twin unplaced, so the ordinal solver must fall back to the exact MMS
FALLBACK_ROWS = [[7, 6, 8, 7, 7], [7, 9, 5, 9, 8], [7, 6, 6, 9, 7], [10, 10, 10, 9, 8]]


# --------------------------------------------------------------- mms_brute

def test_mms_brute_matches_unpruned_oracle():
    rng = random.Random(0x315)
    for _ in range(60):
        m = rng.randint(1, 7)
        d = rng.randint(1, 3)
        cost = random_rationals(rng, m)
        res = mms_brute(cost, range(m), d)
        assert res.value == brute_min_makespan(cost, range(m), d)


def test_mms_brute_witness_is_valid():
    rng = random.Random(0x316)
    for _ in range(40):
        m = rng.randint(1, 8)
        d = rng.randint(1, 4)
        cost = random_rationals(rng, m)
        res = mms_brute(cost, range(m), d)
        assert len(res.witness) == d
        flat = sorted(c for b in res.witness for c in b)
        assert flat == list(range(m))
        assert max(bundle_cost(cost, b) for b in res.witness) == res.value


def test_mms_brute_single_bundle_is_total():
    cost = (F(3), F(1, 2), F(7))
    assert mms_brute(cost, range(3), 1).value == F(21, 2)


def test_mms_brute_lower_bound_instance():
    assert mms_brute(LOWER_BOUND_ROW, range(12), 3).value == 13
    assert mms_brute(LOWER_BOUND_ROW, range(12), 2).value == 20


def test_mms_brute_rejects_bad_d_and_caps_size():
    with pytest.raises(BadParams):
        mms_brute((F(1),), [0], 0)
    with pytest.raises(TooLarge):
        mms_brute((F(1),) * 20, range(20), 2)


def test_mms_brute_of_no_chores_is_zero_over_empty_bundles():
    assert mms_brute((F(3), F(1)), (), 3) == MMSResult(F(0), ((), (), ()))


# ------------------------------------------------------------ mms_factored

def test_mms_factored_example():
    cost = tuple(F(x) for x in [4, 2, 2, 1, 1])
    assert mms_factored(cost, range(5), 2).value == 5


def test_mms_factored_matches_brute():
    for seed in range(80):
        inst = gen_instance("factored", 1, random.Random(seed).randint(2, 9),
                            seed=seed)
        cost = inst.cost(0)
        d = random.Random(seed + 1).randint(1, 4)
        res = mms_factored(cost, inst.chores(), d)
        assert res.value == mms_brute(cost, inst.chores(), d).value
        assert max(bundle_cost(cost, b) for b in res.witness) == res.value


def test_mms_factored_rejects_non_factored():
    with pytest.raises(NotFactored):
        mms_factored((F(7), F(7), F(2)), range(3), 2)


def test_mms_factored_needs_one_bundle():
    with pytest.raises(BadParams, match="^number of bundles must be a positive int$"):
        mms_factored((F(4), F(2)), range(2), 0)


# ---------------------------------------------------------------- mms_value

def test_mms_value_takes_factored_rows_past_the_oracle_cap():
    for seed in range(20):
        inst = gen_instance("factored", 1, 20, seed=seed)
        d = seed % 4 + 1
        assert mms_value(inst.cost(0), inst.chores(), d) == \
            mms_factored(inst.cost(0), inst.chores(), d).value


def test_mms_value_is_brute_force_on_other_rows():
    rng = random.Random(0x317)
    for _ in range(40):
        m = rng.randint(1, 8)
        d = rng.randint(1, 3)
        cost = random_rationals(rng, m)
        assert mms_value(cost, range(m), d) == brute_min_makespan(cost, range(m), d)
    # three costs off a chain: mms_brute's errors past the cap
    with pytest.raises(TooLarge, match="^brute-force oracle capped at m=14, got 15$"):
        mms_value((F(7), F(5), F(3)) * 5, range(15), 2)
    # two costs that are not a chain: two_valued_makespan, with no cap
    assert mms_value((F(7), F(5)) * 8, range(16), 2) == 48
    with pytest.raises(BadParams, match="^number of bundles must be a positive int$"):
        mms_value((F(7), F(5)), range(2), 0)


def test_only_mms_factored_packs_a_witness(monkeypatch):
    # mms_value, and solve_factored through it, need only the threshold:
    # neither runs FFD for a witness
    calls = []

    def counting_ffd(*args, **kwargs):
        calls.append(args)
        return ffd(*args, **kwargs)
    monkeypatch.setattr(packing, "ffd", counting_ffd)
    monkeypatch.setattr(mms, "ffd", counting_ffd, raising=False)  # were mms to import it
    inst = gen_instance("factored", 3, 20, seed=4)
    mms_value(inst.cost(0), inst.chores(), 3)
    assert len(calls) == 0
    mms_factored(inst.cost(0), inst.chores(), 3)
    assert len(calls) == 1
    calls.clear()
    solve_factored(inst)
    assert calls == []


def test_mms_value_counts_the_chores_once(monkeypatch):
    # the chain test and the threshold search share one `CostRow.runs`
    calls = []
    runs = CostRow.runs

    def counted(row, chores):
        calls.append(chores)
        return runs(row, chores)
    monkeypatch.setattr(CostRow, "runs", counted)
    inst = gen_instance("factored", 4, 30, seed=2)
    row = inst.cost(0)
    assert mms_value(row, inst.chores(), 4) == min_success_threshold(row, inst.chores(), 4)
    assert len(calls) == 2


@pytest.mark.parametrize("cost, chores, d", [
    ((F(3, 2),) * 5, range(5), 2),  # a single run
    ((F(3, 2),) * 5, range(5), 7),  # d > m
    ((F(4), F(2), F(1), F(2)), range(4), 9),
    ((F(4), F(2), F(1)), (), 3),  # no chores
    ((F(6), F(3), F(1, 2), F(3)), (3, 0, 2), 2),
])
def test_mms_value_on_a_chain_is_the_minimal_ffd_threshold(cost, chores, d):
    want = min_success_threshold(cost, chores, d)
    assert mms_value(cost, chores, d) == want
    assert mms_value(cost, iter(chores), d) == want
    if chores:
        assert want == brute_min_makespan(cost, chores, d)


@pytest.mark.parametrize("cost, chores", [
    ((F(4), F(2), F(1)), range(3)),  # a chain
    ((F(5),) * 3, range(3)),  # a single run
    ((F(4), F(2)), ()),  # a chain with no chores
    ((F(7), F(5)), range(2)),
    ((F(7), F(5), F(3)), range(3)),
])
def test_mms_value_needs_one_bundle_on_every_row(cost, chores):
    for d in (0, -1):
        with pytest.raises(BadParams, match="^number of bundles must be a positive int$"):
            mms_value(cost, chores, d)


def test_a_factored_solve_reads_the_stage_before_it(monkeypatch):
    # the thresholds are read off each twin row's runs, one ladder bound
    # per agent and no first-fit search, with no second class check, and
    # HFFD's bins, one per agent, are lifted without a merge
    calls = {"min_success_threshold": 0, "smallest_fitting_cap": 0, "ladder_bound": 0,
             "per_agent": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(mms, "min_success_threshold",
                        counted("min_success_threshold", min_success_threshold))
    monkeypatch.setattr(mms, "smallest_fitting_cap",
                        counted("smallest_fitting_cap", packing.smallest_fitting_cap))
    monkeypatch.setattr(mms, "ladder_bound", counted("ladder_bound", packing.ladder_bound))
    monkeypatch.setattr(core.Allocation, "per_agent",
                        counted("per_agent", core.Allocation.per_agent))
    for seed in range(3):
        instance = gen_instance("factored", 10, 100, seed=seed)
        calls.update(dict.fromkeys(calls, 0))
        result = solve_auto(instance)
        assert result.algorithm == "factored"
        assert result.allocation.is_complete(instance.m)
        assert calls == {"min_success_threshold": 0, "smallest_fitting_cap": 0,
                         "ladder_bound": instance.n, "per_agent": 0}
        ido, _ = to_ido(instance)
        assert result.thresholds == result.mms_values == tuple(
            row.value(packing.smallest_fitting_cap(row.counts, instance.n))
            for row in ido.costs)


# --------------------------------------------- min_success_threshold

def threshold_oracle(cost, grid, d):
    ok = [g for g in sorted(grid) if g > 0
          and ffd(range(len(cost)), cost, g, max_bins=d).succeeded]
    return ok[0]


def test_min_success_threshold_lower_bound_instance():
    inst = Instance(tuple(LOWER_BOUND_ROW for _ in range(3)))
    assert min_success_threshold(LOWER_BOUND_ROW, inst.chores(), 3) == 15


def test_min_success_threshold_factored_matches_grid_scan():
    for seed in range(50):
        inst = gen_instance("factored", 1, random.Random(seed).randint(2, 8),
                            seed=seed + 500)
        cost = inst.cost(0)
        d = random.Random(seed).randint(1, 3)
        got = min_success_threshold(cost, inst.chores(), d)
        grid = subset_sums(inst.chores(), cost)
        assert got == threshold_oracle(cost, grid, d)


def test_min_success_threshold_bivalued_matches_grid_scan():
    for seed in range(50):
        inst = gen_instance("bivalued", 1, random.Random(seed).randint(2, 9),
                            seed=seed + 900)
        cost = inst.cost(0)
        d = random.Random(seed).randint(1, 3)
        got = min_success_threshold(cost, inst.chores(), d)
        vals = sorted(set(cost))
        s = vals[0]
        l = vals[-1]
        m = len(cost)
        grid = {a * l + b * s for a in range(m + 1) for b in range(m + 1)}
        assert got == threshold_oracle(cost, grid, d)


def test_min_success_threshold_rejects_general_costs():
    with pytest.raises(UnsupportedClass):
        min_success_threshold((F(7), F(5), F(3)), range(3), 2)
    with pytest.raises(BadParams):
        min_success_threshold((F(2), F(1)), range(2), 0)


# ----------------------------------------------------------------- solvers

def check_solution(inst, res, ratio):
    assert res.allocation.is_complete(inst.m)
    for i in range(inst.n):
        assert res.costs[i] == bundle_cost(inst.cost(i), res.allocation.bundles[i])
        assert res.costs[i] <= ratio * res.mms_values[i]


def test_solve_factored_is_exact_mms():
    for seed in range(60):
        rng = random.Random(seed)
        inst = gen_instance("factored", rng.randint(1, 4), rng.randint(2, 9),
                            seed=seed + 7)
        res = solve_factored(inst)
        check_solution(inst, res, F(1))


def test_solve_bivalued_guarantee():
    for seed in range(60):
        rng = random.Random(seed)
        inst = gen_instance("personalized_bivalued", rng.randint(1, 3),
                            rng.randint(2, 9), seed=seed + 11)
        res = solve_bivalued(inst)
        check_solution(inst, res, APPROX_RATIO)


def test_solve_bivalued_lower_bound_instance():
    inst = Instance(tuple(LOWER_BOUND_ROW for _ in range(3)))
    res = solve_bivalued(inst)
    assert res.thresholds == (F(15),) * 3
    assert max(res.costs) == 15
    check_solution(inst, res, APPROX_RATIO)


def test_bivalued_solve_counts_no_runs_and_runs_no_brute_force(monkeypatch):
    # at m <= 14 mu comes from the twin row's kept runs through
    # `packing.two_valued_makespan`: each row is counted once, for the runs
    # it keeps, none again, and no branch-and-bound runs
    inst = gen_instance("personalized_bivalued", 6, 12, seed=3)
    expected = [mms_brute(row, inst.chores(), 6).value
                for row in gen_instance("personalized_bivalued", 6, 12, seed=3).costs]
    counted, searched = [], []
    brute = mms.mms_brute

    def counting(*args):
        counted.append(args)
        return Counter(*args)

    def searching(*args):
        searched.append(args)
        return brute(*args)
    monkeypatch.setattr(core, "Counter", counting)
    monkeypatch.setattr(mms, "mms_brute", searching)
    res = solve_auto(inst)
    assert (len(counted), searched) == (inst.n, [])
    assert res.algorithm == "bivalued"
    assert list(res.mms_values) == expected
    assert list(res.thresholds) == [APPROX_RATIO * mu for mu in expected]


def test_solve_ordinal_guarantee():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        inst = gen_instance("general", n, rng.randint(2, 8), seed=seed + 13)
        res = solve_ordinal(inst)
        d = 9 * n // 11
        assert res.allocation.is_complete(inst.m)
        for i in range(n):
            mms_d = mms_brute(inst.cost(i), inst.chores(), d).value
            assert res.costs[i] <= mms_d


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
@pytest.mark.parametrize("n,m", [(10, 100), (30, 300)])
def test_solve_hands_each_rule_the_runs_of_the_original_row(kind, n, m, monkeypatch):
    # _solve hands each rule all of the twin row's chores, the tuple that
    # `Instance.chores` shares, whose runs the twin row keeps: the original
    # row's `CostRow.counts`. A cold solve counts each original row once and
    # no row again, and its result is the one the rules get from counting
    instance = gen_instance(kind, n, m, seed=6)
    solve, runs = mms._solve, CostRow.runs
    handed, counted = [], []

    def recording(instance, algorithm, d, *rules):
        def recorded(rule):
            def threshold(row, chores, d):
                handed.append((row, chores))
                return rule(row, chores, d)
            return threshold
        return solve(instance, algorithm, d, *map(recorded, rules))

    def counting(*args):
        counted.append(args)
        return Counter(*args)
    monkeypatch.setattr(mms, "_solve", recording)
    monkeypatch.setattr(core, "Counter", counting)
    result = solve_auto(instance)
    assert len(counted) == n
    assert len(handed) % n == 0 and handed
    for k, (row, chores) in enumerate(handed):
        assert chores is instance.chores()
        assert row.runs(chores) is instance.cost(k % n).counts
    # every spelling but the shared tuple is counted
    monkeypatch.setattr(CostRow, "runs", lambda row, chores: runs(row, list(chores)))
    reference = solve_auto(instance)
    assert (result.thresholds, result.mms_values, result.allocation.bundles) == \
        (reference.thresholds, reference.mms_values, reference.allocation.bundles)


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
def test_a_warm_solve_sorts_no_columns_and_counts_each_row_once(kind, monkeypatch):
    # the twin's blocks come from the rows' runs, which each original row
    # counts once (`CostRow.counts`, kept) and nothing counts again
    instance = gen_instance(kind, 10, 100, seed=7)
    originals = {id(row) for row in instance.costs}
    counted, sorted_columns = [], []
    counts, runs, ido_blocks = CostRow.counts.func, CostRow.runs, core.ido_blocks

    def counting_counts(row):
        counted.append(id(row))
        return counts(row)

    def counting_runs(row, chores):
        counted.append(id(row))
        return runs(row, chores)

    def column_sort(instance):
        sorted_columns.append(instance)
        return ido_blocks(instance)
    spy = functools.cached_property(counting_counts)
    spy.__set_name__(CostRow, "counts")
    monkeypatch.setattr(CostRow, "counts", spy)
    monkeypatch.setattr(CostRow, "runs", counting_runs)
    monkeypatch.setattr(core, "ido_blocks", column_sort)
    cold = solve_auto(instance)
    assert sorted(c for c in counted if c in originals) == sorted(originals)
    counted.clear()
    assert solve_auto(instance) == cold
    assert [c for c in counted if c in originals] == [] and sorted_columns == []


def test_mms_lower_bound_is_the_largest_cost_or_the_average():
    costs = (F(7, 2), F(3, 2), F(3, 2), F(3, 2))  # weights 7 3 3 3
    # a plain tuple or list of costs gives the bound its `CostRow` gives
    for row in (CostRow.of(costs), costs, list(costs)):
        assert mms_lower_bound(row, range(4), 2) == 8
        assert mms_lower_bound(row, range(4), 4) == 7
        assert mms_lower_bound(row, (1, 2), 1) == 6
        assert mms_lower_bound(row, (), 3) == 0
        with pytest.raises(BadParams):
            mms_lower_bound(row, range(4), 0)


def test_solve_ordinal_falls_back_to_the_exact_mms():
    inst = Instance.from_rows(FALLBACK_ROWS)
    ido, _ = to_ido(inst)
    lower = tuple(row.value(mms_lower_bound(row, ido.chores(), 3)) for row in ido.costs)
    assert lower == (12, 13, 12, 16)
    # HFFD at the lower bounds leaves exactly one chore
    assert len(hffd_and_lift(inst, lower)[1]) == 1
    res = solve_ordinal(inst)
    assert res.thresholds == res.mms_values == (14, 15, 13, 19)
    check_solution(inst, res, F(1))
    # a second solve runs both rules on the kept twin, a copy on its own
    assert solve_ordinal(inst) == res == solve_ordinal(Instance.from_rows(FALLBACK_ROWS))
    assert to_ido(inst)[0] is ido


@pytest.mark.parametrize("owners, message", [
    ((1, 1), "^bundle 1 belongs to agent 1, who has a bundle already$"),
    ((0, 2), "^bundle 1 belongs to agent 2, not one of 2 agents$"),
    ((-1, 0), "^bundle 0 belongs to agent -1, not one of 2 agents$"),
])
def test_hffd_and_lift_needs_one_owner_per_bin(owners, message, monkeypatch):
    # each lifted bin is put at its owner's index, so an owner HFFD would
    # never give is refused rather than written over another bin
    def hffd_with_owners(ido, taus):
        return [[(0, 2)], [(2, 2)]], list(owners), []
    monkeypatch.setattr(mms, "hffd_slices", hffd_with_owners)
    with pytest.raises(BadParams, match=message):
        hffd_and_lift(Instance.from_rows([[4, 2, 2, 1]] * 2), (F(6), F(6)))


@pytest.mark.parametrize("m", [0, 4])
def test_hffd_and_lift_needs_one_threshold_per_agent(m):
    # with no chores as with some: an instance without chores takes no
    # other number of thresholds either
    instance = gen_instance("factored", 2, m, seed=1)
    for taus in ((), (F(6),), (F(6),) * 3):
        with pytest.raises(BadParams, match="^need one threshold per agent$"):
            hffd_and_lift(instance, taus)
    assert hffd_and_lift(instance, solve_auto(instance).thresholds)[1] == ()


def test_solve_ordinal_needs_no_mms_past_the_oracle_cap(monkeypatch):
    def no_search(*args):
        raise AssertionError("bound-first thresholds should need no MMS search")
    monkeypatch.setattr(mms, "mms_value", no_search)
    for seed in range(5):
        inst = gen_instance("general", 3 + seed, 16 + 20 * seed, seed=seed)
        res = solve_ordinal(inst)
        d = 9 * inst.n // 11
        assert res.allocation.is_complete(inst.m)
        for i, row in enumerate(inst.costs):
            assert res.thresholds[i] == row.value(mms_lower_bound(row, inst.chores(), d))
            assert res.costs[i] <= res.thresholds[i]
            assert res.mms_values[i] in (None, res.thresholds[i])


def test_solve_ordinal_rejects_single_agent():
    with pytest.raises(BadParams):
        solve_ordinal(Instance.from_rows([[1, 2]]))


def test_solve_auto_dispatch():
    factored = Instance.from_rows([[4, 2, 2, 1, 1]] * 2)
    assert solve_auto(factored).algorithm == "factored"
    bivalued = Instance.from_rows([[7, 7, 2, 2]] * 2)
    assert solve_auto(bivalued).algorithm == "bivalued"
    general = Instance.from_rows([[7, 5, 3], [3, 5, 7]])
    assert solve_auto(general).algorithm == "ordinal"


@pytest.mark.parametrize("kind, solver", [
    ("factored", "solve_factored"), ("bivalued", "solve_bivalued"),
    ("personalized_bivalued", "solve_bivalued"), ("general", "solve_ordinal")])
def test_solve_auto_runs_the_named_solver_of_each_class(kind, solver, monkeypatch):
    # solve_auto enters the named solver, whose class check reads the runs
    # `classify` kept: a cold solve counts each row and tests its chain at
    # most once, and the twin rows share the original rows' runs
    instance = gen_instance(kind, 6, 40, seed=3)
    entered, counted, chain_tests = [], [], []
    chain = core.is_divisibility_chain
    solvers = {name: getattr(mms, name)
               for name in ("solve_factored", "solve_bivalued", "solve_ordinal")}
    for name, solve in solvers.items():
        def entering(instance, name=name, solve=solve):
            entered.append(name)
            return solve(instance)
        monkeypatch.setattr(mms, name, entering)

    def counting(*args):
        counted.append(args)
        return Counter(*args)

    def testing(weights):
        chain_tests.append(weights)
        return chain(weights)
    monkeypatch.setattr(core, "Counter", counting)
    monkeypatch.setattr(core, "is_divisibility_chain", testing)
    result = solve_auto(instance)
    assert entered == [solver]
    assert len(counted) == instance.n and len(chain_tests) <= instance.n
    assert result == solvers[solver](gen_instance(kind, 6, 40, seed=3))


@pytest.mark.parametrize("solve", [solve_factored, solve_bivalued, solve_ordinal])
def test_solvers_without_chores_give_empty_bundles(solve):
    res = solve(Instance(((),) * 3))
    assert res.allocation.bundles == ((), (), ())
    assert res.costs == (F(0),) * 3


@pytest.mark.parametrize("solve, rows, error, message", [
    (solve_factored, [[3, 2, 1], [1, 1, 1]], NotFactored, "every agent must have factored costs"),
    (solve_bivalued, [[2, 2, 1], [3, 2, 1]], NotBivalued,
     "every agent must have at most two distinct cost values"),
])
def test_a_solver_refuses_an_instance_outside_its_class(solve, rows, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        solve(Instance.from_rows(rows))


def test_theorem_violation_carries_instance_and_writes_nothing(monkeypatch, tmp_path):
    monkeypatch.setattr(mms, "hffd_slices", hffd_dropping_last_chore)
    monkeypatch.chdir(tmp_path)
    inst = Instance.from_rows([[4, 2, 2, 1, 1]] * 2)
    with pytest.raises(TheoremViolation) as info:
        solve_factored(inst)
    assert info.value.instance == inst
    assert list(tmp_path.iterdir()) == []


def test_a_lifted_cost_over_its_threshold_is_a_theorem_violation(monkeypatch, tmp_path):
    monkeypatch.setattr(mms, "hffd_and_lift", everything_to_agent_0)
    monkeypatch.chdir(tmp_path)
    inst = gen_instance("factored", 3, 12, seed=1)
    with pytest.raises(TheoremViolation,
                       match="^factored: lifted cost 58 of agent 0 exceeds threshold 20$") as info:
        solve_factored(inst)
    assert info.value.instance == inst
    assert list(tmp_path.iterdir()) == []
