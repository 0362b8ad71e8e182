import itertools
import pickle
import random
import sys
import threading
import types
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import choremms
from choremms import core
from choremms.analysis import gen_instance, subset_sums
from choremms.core import (Allocation, CostRow, Instance, InstanceClass, bundle_cost, classify,
                           format_rational, is_bivalued_costs, is_factored_costs,
                           parse_rational, to_ido, universal_ordering)
from choremms.errors import BadParams, NotIDO, SubsetViolation
from choremms.ffv import is_ffv, reduce_bivalued, reduce_factored, transform_mms_to_ffd
from choremms.mms import (hffd_and_lift, min_success_threshold, mms_brute, mms_factored,
                          mms_lower_bound, mms_value)
from choremms.packing import ffd, hffd, ladder_bound, multifit
from helpers import (EQUAL, GREATER, LESS, all_complete_allocations, lex_compare,
                     random_rationals, ref_is_bivalued_costs, ref_is_factored_costs, swap)

FIFTEEN_THIRTEENTHS = Instance.from_rows([[4, 4, 4] + [3] * 9] * 3)


# ------------------------------------------------------------------ package

def test_star_import_binds_the_public_names_and_no_module():
    # the package's `io` submodule must not shadow the standard library's
    namespace: dict = {}
    exec("import io\nfrom choremms import *", namespace)
    assert namespace.pop("io") is sys.modules["io"]
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(choremms.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


# ---------------------------------------------------------------- rationals

@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_rational_roundtrip(p, q):
    x = F(p, q)
    assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("bad", ["-1", "1.5", "3/0", "a/b", "1/2/3"])
def test_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# '²' passes isdigit() but int() rejects it; int() reads the Arabic-Indic
# three and the fullwidth one as 3 and 1
@pytest.mark.parametrize("bad", ["\u00b2", "\u0663", "1/\u0663", "\u0663/2", "\uff11"],
                         ids=["superscript-two", "arabic-indic-three", "over-arabic-indic-three",
                              "arabic-indic-three-halves", "fullwidth-one"])
def test_rational_rejects_non_ascii_digits(bad):
    with pytest.raises(ValueError, match=f"^not a nonnegative rational: {bad!r}$"):
        parse_rational(bad)


# int() refuses a string of more than 4300 digits, with a message that names
# an interpreter setting rather than the input
@pytest.mark.parametrize("bad", ["1" * 5000, "1/" + "7" * 5000, "0" * 4300 + "1"],
                         ids=["numerator", "denominator", "leading-zeros"])
def test_rational_rejects_too_many_digits(bad):
    with pytest.raises(ValueError, match="^numerator and denominator may have at most 4300 "
                                         "digits each$"):
        parse_rational(bad)


# ----------------------------------------------------------------- instance

def test_instance_rejects_nonpositive_costs():
    with pytest.raises(BadParams):
        Instance.from_rows([[1, 0]])
    with pytest.raises(BadParams):
        Instance.from_rows([[1, -2]])


def test_from_rows_keeps_the_fractions_it_is_given():
    half, three = F(1, 2), F(3)
    inst = Instance.from_rows([[half, three, half], (three, 2, half)])
    assert [c is x for c, x in zip(inst.cost(0), (half, three, half))] == [True] * 3
    assert inst.cost(1)[0] is three and inst.cost(1)[2] is half
    # an int is the one thing converted
    assert type(inst.cost(1)[1]) is F and inst.cost(1)[1] == 2


@pytest.mark.parametrize("bad", [0.1, 2.0, float("nan"), "x", "1/2", Decimal("0.1"), None, True],
                         ids=["float", "integral-float", "nan", "text", "rational-text",
                              "decimal", "none", "bool"])
def test_from_rows_accepts_only_ints_and_fractions(bad):
    with pytest.raises(BadParams, match="^cost of chore 1 for agent 2 must be a positive "
                                        "rational$"):
        Instance.from_rows([[1, 2], [F(1, 2), 3], [4, bad]])


def test_instance_rejects_ragged_rows():
    with pytest.raises(BadParams):
        Instance.from_rows([[1, 2], [1]])


def test_instance_needs_an_agent_and_an_allocation_one_agent_per_bundle():
    with pytest.raises(BadParams, match="^instance needs at least one agent$"):
        Instance.from_rows([])
    for agents in ((0,), (0, 1, 1)):
        with pytest.raises(BadParams, match="^agents map length must match bundle count$"):
            Allocation.of([(0,), (1,)], agents=agents)


def test_instance_rows_act_as_plain_tuples_and_scale_once():
    rows = [[F(1, 2), F(3), F(5, 3)], [F(2), F(1, 6), F(1)]]
    plain = tuple(map(tuple, rows))
    inst = Instance.from_rows(rows)
    assert inst == Instance(plain) and hash(inst) == hash(Instance(plain))
    assert repr(inst) == repr(Instance(plain)) == f"Instance(costs={plain!r})"
    assert inst.costs == plain and hash(inst.costs) == hash(plain)
    row = inst.cost(0)
    assert row.weights is row.weights and row.counts is row.counts
    assert (row.scale, row.weights) == (6, (3, 18, 10))
    assert row.counts == ((18, 1), (10, 1), (3, 1)) == tuple(row.runs(range(3)))
    for copy in (pickle.loads(pickle.dumps(inst)), pickle.loads(pickle.dumps(Instance(plain)))):
        assert copy == inst and repr(copy) == repr(inst)
        assert copy.cost(0).weights == (3, 18, 10) and copy.cost(1).weights == (12, 1, 6)
        assert copy.cost(1).counts == ((12, 1), (6, 1), (1, 1))


# ------------------------------------------------------------ cost contract

BAD_COSTS = [0, -1, F(-1, 2), 2.0, Decimal("1"), "1", None, True]
BAD_COST_IDS = ["zero", "negative", "negative-fraction", "float", "decimal", "text", "none",
                "bool"]


def test_instance_converts_ints_as_from_rows_does():
    half = F(1, 2)
    inst = Instance(((1, half), (F(3), 2)))
    assert inst == Instance.from_rows([[1, half], [3, 2]])
    assert inst.cost(0)[1] is half and type(inst.cost(0)[0]) is F


@pytest.mark.parametrize("bad", BAD_COSTS, ids=BAD_COST_IDS)
@pytest.mark.parametrize("build", [Instance, Instance.from_rows], ids=["Instance", "from_rows"])
def test_instance_names_the_agent_of_a_bad_cost(build, bad):
    with pytest.raises(BadParams, match="^cost of chore 1 for agent 2 must be a positive "
                                        "rational$"):
        build(((1, 2), (F(1, 2), 3), (4, bad)))


def test_cost_row_of_keeps_a_cost_row():
    inst = gen_instance("general", 2, 5, seed=1)
    for i in range(inst.n):
        assert CostRow.of(inst.cost(i)) is inst.cost(i)
        assert Instance(inst.costs).cost(i) is inst.cost(i)
    half = F(1, 2)
    row = CostRow.of([half, 3])
    assert row[0] is half and row == (half, F(3)) and type(row[1]) is F


THREE = (0, 1, 2)
# each public function that takes a plain row, called on a row of three
# costs, of which the cases below make chore 1's bad
ROW_TAKERS = {
    "bundle_cost": lambda row: bundle_cost(row, THREE),
    "ffd": lambda row: ffd(THREE, row, F(5)),
    "multifit": lambda row: multifit(THREE, row, 2),
    "mms_value": lambda row: mms_value(row, THREE, 2),
    "min_success_threshold": lambda row: min_success_threshold(row, THREE, 2),
    "mms_brute": lambda row: mms_brute(row, THREE, 2),
    "mms_factored": lambda row: mms_factored(row, THREE, 2),
    "mms_lower_bound": lambda row: mms_lower_bound(row, THREE, 2),
    "is_ffv": lambda row: is_ffv(THREE, Allocation.of([THREE]), row, F(5)),
    "reduce_factored": lambda row: reduce_factored(Allocation.of([THREE]),
                                                   Allocation.of([THREE]), row, F(5), THREE),
    "reduce_bivalued": lambda row: reduce_bivalued(Allocation.of([THREE]),
                                                   Allocation.of([THREE]), row, F(5), THREE),
    "transform_mms_to_ffd": lambda row: transform_mms_to_ffd(Allocation.of([(0, 1), (2,)]),
                                                             row, F(5)),
    "is_factored_costs": is_factored_costs,
    "is_bivalued_costs": is_bivalued_costs,
    "subset_sums": lambda row: subset_sums(THREE, row),
}


@pytest.mark.parametrize("bad", BAD_COSTS, ids=BAD_COST_IDS)
@pytest.mark.parametrize("name", ROW_TAKERS)
def test_plain_rows_go_through_the_cost_contract(name, bad):
    with pytest.raises(BadParams, match="^cost of chore 1 must be a positive rational$"):
        ROW_TAKERS[name]((F(2), bad, 1))


# a row of three positive costs, factored and bivalued, and each public
# function that takes chores, called on the chores and that row
ROW = (F(2), F(2), F(1))
CHORE_TAKERS = {
    "ffd": lambda chores: ffd(chores, ROW, F(5)),
    "multifit": lambda chores: multifit(chores, ROW, 2),
    "mms_value": lambda chores: mms_value(ROW, chores, 2),
    "min_success_threshold": lambda chores: min_success_threshold(ROW, chores, 2),
    "mms_brute": lambda chores: mms_brute(ROW, chores, 2),
    "mms_factored": lambda chores: mms_factored(ROW, chores, 2),
    "mms_lower_bound": lambda chores: mms_lower_bound(ROW, chores, 2),
    "is_ffv": lambda chores: is_ffv(chores, Allocation.of([(0,)]), ROW, F(5)),
    "reduce_factored": lambda chores: reduce_factored(Allocation.of([(0,)]),
                                                      Allocation.of([(0,)]), ROW, F(5), chores),
    "reduce_bivalued": lambda chores: reduce_bivalued(Allocation.of([(0,)]),
                                                      Allocation.of([(0,)]), ROW, F(5), chores),
    "transform_mms_to_ffd": lambda chores: transform_mms_to_ffd(Allocation.of([chores]), ROW,
                                                                F(5)),
    "subset_sums": lambda chores: subset_sums(chores, ROW),
}


@pytest.mark.parametrize("bad", [-1, 3, 10])
@pytest.mark.parametrize("name", CHORE_TAKERS)
def test_chores_outside_the_row_are_rejected(name, bad):
    with pytest.raises(BadParams, match=f"^chore {bad} is not one of the 3 chores$"):
        CHORE_TAKERS[name]((0, bad, 2))


# each function that takes chores in bundles, called on one bundle of them
# and the row ROW: the reductions check P's chores when they skip the FFD
# check of P
P_ONLY = dict(Q=Allocation.of([THREE]), cost=ROW, tau=F(5), all_chores=THREE, verify_ffd=False)
BUNDLE_TAKERS = {
    "bundle_cost": lambda bundle: bundle_cost(ROW, bundle),
    "is_ffv": lambda bundle: is_ffv(THREE, Allocation.of([(1,), bundle]), ROW, F(5)),
    "reduce_factored": lambda bundle: reduce_factored(Allocation.of([bundle]), **P_ONLY),
    "reduce_bivalued": lambda bundle: reduce_bivalued(Allocation.of([bundle]), **P_ONLY),
}


@pytest.mark.parametrize("bad", [-1, 3, 10])
@pytest.mark.parametrize("name", BUNDLE_TAKERS)
def test_chores_in_bundles_outside_the_row_are_rejected(name, bad):
    with pytest.raises(BadParams, match=f"^chore {bad} is not one of the 3 chores$"):
        BUNDLE_TAKERS[name]((0, bad))


# an IDO instance of two agents, FFD's bins of ROW's chores at 3, and each
# function that takes a threshold, called with it as every threshold it
# takes on ROW's chores
TWO = Instance.from_rows([ROW, ROW])
FFD_AT_3 = Allocation.of([(0, 2), (1,)])
THRESHOLD_TAKERS = {
    "ffd": lambda tau: ffd(THREE, ROW, tau),
    "is_ffv": lambda tau: is_ffv(THREE, FFD_AT_3, ROW, tau),
    "reduce_factored": lambda tau: reduce_factored(FFD_AT_3, FFD_AT_3, ROW, tau, THREE),
    "reduce_bivalued": lambda tau: reduce_bivalued(FFD_AT_3, FFD_AT_3, ROW, tau, THREE),
    "transform_mms_to_ffd": lambda tau: transform_mms_to_ffd(FFD_AT_3, ROW, tau),
    "hffd": lambda tau: hffd(TWO, [tau, tau]),
    "hffd_and_lift": lambda tau: hffd_and_lift(TWO, [tau, tau]),
}
BAD_THRESHOLDS = [0, -1, F(-1, 2), 2.5, Decimal("3"), "3", None, True]


@pytest.mark.parametrize("bad", BAD_THRESHOLDS, ids=repr)
@pytest.mark.parametrize("name", THRESHOLD_TAKERS)
def test_thresholds_go_through_the_threshold_contract(name, bad):
    with pytest.raises(BadParams, match="^threshold must be a positive rational$"):
        THRESHOLD_TAKERS[name](bad)


@pytest.mark.parametrize("name", THRESHOLD_TAKERS)
def test_an_int_threshold_acts_as_its_fraction(name):
    assert THRESHOLD_TAKERS[name](3) == THRESHOLD_TAKERS[name](F(3))


# each function that takes a number of bundles or bins, called with it
COUNT_TAKERS = {
    "mms_brute": lambda d: mms_brute(ROW, THREE, d),
    "mms_lower_bound": lambda d: mms_lower_bound(ROW, THREE, d),
    "mms_factored": lambda d: mms_factored(ROW, THREE, d),
    "mms_value": lambda d: mms_value(ROW, THREE, d),
    "min_success_threshold": lambda d: min_success_threshold(ROW, THREE, d),
    "multifit": lambda d: multifit(THREE, ROW, d),
    "ffd": lambda d: ffd(THREE, ROW, F(5), max_bins=d),
    "ladder_bound": lambda d: ladder_bound([(2, 2), (1, 1)], d),
}
BAD_COUNTS = [0, -1, 2.0, 2.5, "2", None, True, False]


# ffd's max_bins of None is no limit on the bins
@pytest.mark.parametrize("name, bad", [(name, bad) for name in COUNT_TAKERS for bad in BAD_COUNTS
                                       if not (name == "ffd" and bad is None)],
                         ids=str)
def test_counts_go_through_the_count_contract(name, bad):
    with pytest.raises(BadParams, match="^number of bundles must be a positive int$"):
        COUNT_TAKERS[name](bad)


# ----------------------------------------------------------------- classify

def test_classify_factored_chain():
    cls = classify(Instance.from_rows([[4, 2, 2, 1, 1]]))
    assert cls.is_factored


def test_classify_bivalued_not_factored():
    cls = classify(Instance.from_rows([[7, 7, 2, 2, 2]]))
    assert cls.is_personalized_bivalued
    assert not cls.is_factored  # 2 does not divide 7


def test_classify_single_value_is_both():
    cls = classify(Instance.from_rows([[5]]))
    assert cls.is_factored and cls.is_personalized_bivalued


# one row of each class on three chores: no chain and three costs, a chain
# of three costs, two costs that are no chain, one cost
MIXED_ROWS = {"general": [3, 2, 1], "factored": [4, 2, 1], "bivalued": [7, 7, 2],
              "single": [5, 5, 5]}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_matches_reference_on_rows_of_mixed_classes(n):
    # every sequence of n row classes, so a general row also comes before
    # factored and bivalued ones; each test stops at its own first failing
    # row, and a row past both of those is not read
    for kinds in itertools.product(MIXED_ROWS, repeat=n):
        rows = [MIXED_ROWS[kind] for kind in kinds]
        instance = Instance.from_rows(rows)
        factored = [ref_is_factored_costs(map(F, row)) for row in rows]
        bivalued = [ref_is_bivalued_costs(map(F, row)) for row in rows]
        assert classify(instance) == InstanceClass(is_factored=all(factored),
                                                   is_personalized_bivalued=all(bivalued)), kinds
        reached = max(flags.index(False) if False in flags else n - 1
                      for flags in (factored, bivalued))
        assert [("counts" in row.__dict__) for row in instance.costs] == \
            [i <= reached for i in range(n)], kinds


@pytest.mark.parametrize("m", [0, 1, 6, 12])
def test_classify_matches_reference_on_generated_rows_of_mixed_classes(m):
    kinds = ["general", "factored", "bivalued", "personalized_bivalued"]
    for seed in range(20):
        rng = random.Random(seed)
        rows = [gen_instance(rng.choice(kinds), 1, m, seed=100 * seed + i).cost(0)
                for i in range(rng.randint(1, 5))]
        if m and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), (F(rng.randint(1, 9)),) * m)
        want = InstanceClass(is_factored=all(map(ref_is_factored_costs, rows)),
                             is_personalized_bivalued=all(map(ref_is_bivalued_costs, rows)))
        assert classify(Instance.from_rows(rows)) == want


# ------------------------------------------------------- universal ordering

def test_universal_ordering_identical_agents():
    inst = Instance.from_rows([[2, 5, 3], [2, 5, 3]])
    assert universal_ordering(inst) == (1, 2, 0)


def test_universal_ordering_opposite_orders():
    with pytest.raises(NotIDO):
        universal_ordering(Instance.from_rows([[3, 1], [1, 3]]))


def test_universal_ordering_large_chores_first():
    perm = universal_ordering(FIFTEEN_THIRTEENTHS)
    assert perm[:3] == (0, 1, 2)


def test_universal_ordering_tie_break_by_id():
    inst = Instance.from_rows([[3, 3, 3]])
    assert universal_ordering(inst) == (0, 1, 2)


def test_universal_ordering_where_agent_0_ties_and_another_agent_does_not():
    # agent 0 ties chores 0 and 1, agent 1 ranks chore 1 first: (1, 0) is
    # common to both
    assert universal_ordering(Instance.from_rows([[1, 1], [1, 2]])) == (1, 0)
    assert universal_ordering(Instance.from_rows([[2, 2, 1], [1, 3, 1]])) == (1, 0, 2)


# ---------------------------------------------------------------- to_ido

def test_to_ido_sorted_input_unchanged():
    inst = Instance.from_rows([[5, 3, 1], [4, 2, 2]])
    ido, _ = to_ido(inst)
    assert ido.costs == inst.costs


def test_to_ido_twin_is_an_instance_built_without_revalidation(monkeypatch):
    inst = Instance.from_rows([[F(1, 2), F(3), F(5, 3)], [F(2), F(1, 6), F(1)]])
    checks = []
    post_init = Instance.__post_init__

    def counted(self):
        checks.append(self)
        post_init(self)
    monkeypatch.setattr(Instance, "__post_init__", counted)
    ido, _ = to_ido(inst)
    assert checks == []
    rows = ((F(3), F(5, 3), F(1, 2)), (F(2), F(1), F(1, 6)))
    plain = Instance(rows)
    assert len(checks) == 1
    assert ido == plain and hash(ido) == hash(plain) and repr(ido) == repr(plain)
    assert ido.cost(0).weights == (18, 10, 3) and ido.cost(1).weights == (12, 6, 1)
    # each twin row is spelled out of the row's runs, with the row's own
    # Fractions, and the twin's blocks are set from the runs
    for twin, row in zip(ido.costs, inst.costs):
        assert twin.counts is row.counts and twin.scale == row.scale
        assert all(any(c is x for x in row) for c in twin)
    assert ido.blocks == ((0, 1, 2), (1, 2))
    copy = pickle.loads(pickle.dumps(ido))
    assert copy == plain and hash(copy) == hash(plain)
    assert copy.cost(1).weights == (12, 6, 1)
    with pytest.raises(BadParams):
        Instance(((F(1), F(0)),))


def test_twin_rows_repeat_each_weight_as_often_as_the_row_holds_it():
    half, two = F(1, 2), F(2)
    inst = Instance.from_rows([[half, two, half, 1, two, half], [3, 3, 3, 3, 1, 3]])
    ido, _ = to_ido(inst)
    assert ido.cost(0) == (two, two, 1, half, half, half)
    assert ido.cost(0)[0] is two and ido.cost(0)[5] is half
    assert ido.cost(0).counts == ((4, 2), (2, 1), (1, 3))
    assert ido.cost(1).weights == (3, 3, 3, 3, 3, 1)
    # the cuts are where either agent's cost falls
    assert ido.blocks == ((0, 1, 2, 3, 4, 5), (2, 3, 5))
    assert universal_ordering(ido) == ido.chores()


def test_to_ido_two_agents_two_chores():
    inst = Instance.from_rows([[3, 1], [1, 3]])
    ido, lifting = to_ido(inst)
    assert ido.costs == ((F(3), F(1)), (F(3), F(1)))
    # every complete 2-bundle allocation lifts without raising any cost
    for alloc in all_complete_allocations(2, 2):
        lifted = lifting.lift(alloc)
        assert lifted.is_complete(2)
        for i in range(2):
            assert bundle_cost(inst.cost(i), lifted.bundles[i]) \
                <= bundle_cost(ido.cost(i), alloc.bundles[i])


def test_to_ido_lifting_never_raises_costs():
    rng = random.Random(0xD1D0)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(1, 6)
        inst = Instance(tuple(random_rationals(rng, m) for _ in range(n)))
        ido, lifting = to_ido(inst)
        for i in range(n):
            assert sorted(ido.cost(i)) == sorted(inst.cost(i))
        for alloc in itertools.islice(all_complete_allocations(m, n), 40):
            lifted = lifting.lift(alloc)
            assert lifted.is_complete(m)
            for i in range(n):
                assert bundle_cost(inst.cost(i), lifted.bundles[i]) \
                    <= bundle_cost(ido.cost(i), alloc.bundles[i])


def test_lifting_a_partial_allocation_never_raises_costs():
    rng = random.Random(0x9A47)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        inst = Instance(tuple(random_rationals(rng, m) for _ in range(n)))
        ido, lifting = to_ido(inst)
        labels = [rng.randint(-1, n - 1) for _ in range(m)]
        alloc = Allocation.of([c for c in range(m) if labels[c] == i] for i in range(n))
        lifted = lifting.lift(alloc)
        assert len(lifted.allocated()) == len(alloc.allocated())
        for i in range(n):
            assert bundle_cost(inst.cost(i), lifted.bundles[i]) \
                <= bundle_cost(ido.cost(i), alloc.bundles[i])


def test_lifting_rejects_a_chore_outside_the_instance():
    _, lifting = to_ido(Instance.from_rows([[2, 1], [1, 2]]))
    for bad in (2, -1):
        with pytest.raises(BadParams, match=f"^chore {bad} is not one of the 2 chores$"):
            lifting.lift(Allocation.of([(0,), (bad,)]))


def test_lifting_names_the_bad_chore_of_the_earliest_bundle():
    _, lifting = to_ido(Instance.from_rows([[2, 1, 1], [1, 2, 1]]))
    # the later bundle's bad chore is the smaller, the earlier bundle's
    # comes after a good one
    allocation = Allocation.of([(1,), (0, 7, -1), (-5,)], agents=(0, 1, 0))
    with pytest.raises(BadParams, match="^chore 7 is not one of the 3 chores$"):
        lifting.lift(allocation)


# ------------------------------------------------------------- lex_compare

COST5 = (F(4), F(3), F(3), F(2), F(1))


def test_lex_compare_identity():
    assert lex_compare((0, 2, 4), (0, 2, 4), COST5) == EQUAL


def test_lex_compare_longer_bundle_can_lose():
    cost = (F(4), F(4), F(4), F(1), F(4), F(2), F(2), F(1), F(1))
    assert lex_compare((0, 1, 2, 3), (4, 5, 6, 7, 8), cost) == GREATER


def test_lex_compare_zero_extension():
    assert lex_compare((), (4,), COST5) == LESS
    assert lex_compare((4,), (), COST5) == GREATER


def test_lex_compare_total_preorder_exhaustive():
    bundles = [combo for r in range(6) for combo in itertools.combinations(range(5), r)]
    results = {}
    for b1, b2 in itertools.product(bundles, repeat=2):
        results[(b1, b2)] = lex_compare(b1, b2, COST5)
    for b1, b2 in itertools.product(bundles, repeat=2):
        assert results[(b1, b2)] == -results[(b2, b1)]
    profile = {b: tuple(sorted((COST5[c] for c in b), reverse=True)) for b in bundles}
    for b1, b2 in itertools.product(bundles, repeat=2):
        if results[(b1, b2)] == EQUAL:
            assert profile[b1] == profile[b2]
    for b1, b2, b3 in itertools.product(bundles, repeat=3):
        if results[(b1, b2)] >= EQUAL and results[(b2, b3)] >= EQUAL:
            assert results[(b1, b3)] >= EQUAL


# ------------------------------------------------------------------- swap

def test_swap_empty_sets_is_identity():
    alloc = Allocation.of([(0, 1), (2,)])
    assert swap(alloc, 0, (), 1, ()).bundles == alloc.bundles


def test_swap_move_only():
    alloc = Allocation.of([(0,), (1, 2)])
    moved = swap(alloc, 0, (), 1, (2,))
    assert moved.bundles == ((0, 2), (1,))


def test_swap_singletons_preserves_sizes():
    alloc = Allocation.of([(0, 1), (2, 3)])
    swapped = swap(alloc, 0, (1,), 1, (2,))
    assert sorted(map(len, swapped.bundles)) == sorted(map(len, alloc.bundles))
    assert swapped.bundles == ((0, 2), (1, 3))
    # ids ascending, also where a set of them iterates in another order
    assert swap(Allocation.of([(1, 5), (16,)]), 0, (5,), 1, (16,)).bundles == ((1, 16), (5,))


def test_swap_rejects_non_subsets():
    alloc = Allocation.of([(0,), (1,)])
    with pytest.raises(SubsetViolation):
        swap(alloc, 0, (1,), 1, ())
    with pytest.raises(SubsetViolation):
        swap(alloc, 0, (), 0, ())


def test_swap_rejects_indices_outside_the_bundles():
    alloc = Allocation.of([(0,), (1, 2)])
    with pytest.raises(SubsetViolation):
        swap(alloc, -1, (1,), 1, (2,))  # -1 would alias bundle 1 and lose chore 2
    with pytest.raises(SubsetViolation):
        swap(alloc, 0, (), 5, ())
    with pytest.raises(SubsetViolation):
        swap(alloc, 2, (), 0, ())


@given(st.data())
def test_per_agent_merges_each_agents_bins(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    chores = data.draw(st.permutations(range(data.draw(st.integers(0, 10)))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(chores)), max_size=6)))
    bins = [chores[a:b] for a, b in zip([0] + cuts, cuts + [len(chores)])]
    if data.draw(st.booleans()):
        agents = data.draw(st.lists(st.integers(0, n - 1), min_size=len(bins),
                                    max_size=len(bins)))
    else:  # no agent map: bin b belongs to agent b
        agents, bins = None, bins[:n]
    alloc = Allocation.of(bins, agents)
    merged = alloc.per_agent(n)
    assert merged.agents == tuple(range(n))
    assert merged.allocated() == alloc.allocated()
    for i, bundle in enumerate(merged.bundles):
        assert list(bundle) == sorted(bundle)
        assert set(bundle) == {c for b, bin_ in enumerate(alloc.bundles)
                               if alloc.agent_of(b) == i for c in bin_}


@pytest.mark.parametrize("bundles, repeat", [
    ([(0, 1), (2, 5, 3, 5, 2)], 5),  # twice inside one bundle, the first repeat
    ([(0, 3), (1,), (4, 3, 0)], 3),  # in two bundles, named where the walk meets it
    ([(4, 4), (4,)], 4),
])
def test_allocation_names_the_first_repeated_chore(bundles, repeat):
    with pytest.raises(BadParams, match=f"^chore {repeat} appears in two bundles$"):
        Allocation.of(bundles)


def test_per_agent_rejects_unknown_agents():
    with pytest.raises(BadParams):
        Allocation.of([(0,), (1,), (2,)]).per_agent(2)
    with pytest.raises(BadParams):
        Allocation.of([(0,)], agents=[-1]).per_agent(2)


@given(st.data())
def test_swap_preserves_chore_multiset(data):
    m = data.draw(st.integers(min_value=2, max_value=8))
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                min_size=m, max_size=m))
    bundles = [[], [], []]
    for c, b in enumerate(labels):
        bundles[b].append(c)
    alloc = Allocation.of(bundles)
    i, j = data.draw(st.sampled_from([(0, 1), (0, 2), (1, 2), (2, 0)]))
    t_i = data.draw(st.sets(st.sampled_from(sorted(alloc.bundles[i]) or [0]))) \
        if alloc.bundles[i] else set()
    t_j = data.draw(st.sets(st.sampled_from(sorted(alloc.bundles[j]) or [0]))) \
        if alloc.bundles[j] else set()
    swapped = swap(alloc, i, t_i, j, t_j)
    assert swapped.allocated() == alloc.allocated()
    for k in range(3):
        if k not in (i, j):
            assert swapped.bundles[k] == alloc.bundles[k]


# ----------------------------------------------------------- kept attributes

def test_a_kept_attribute_is_computed_once_and_racing_threads_share_it():
    barrier = threading.Barrier(2)
    calls = []

    class Probe:
        @core._kept
        def value(self):
            """a fresh object per computation"""
            calls.append(threading.get_ident())
            barrier.wait(timeout=10)  # both threads compute before either stores
            return object()

    probe = Probe()
    got = [None, None]
    threads = [threading.Thread(target=lambda k=k: got.__setitem__(k, probe.value))
               for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 2 and got[0] is got[1] is vars(probe)["value"]
    # a later read finds the kept value and computes nothing
    assert probe.value is got[0] and len(calls) == 2
    assert Probe.value.func.__doc__ == Probe.value.__doc__ == "a fresh object per computation"
    # a value set before the first use is kept as it is
    row = core.CostRow((F(1, 2), F(3, 4)))
    row.scale = 8
    assert row.weights == (4, 6) and row.scale == 8
