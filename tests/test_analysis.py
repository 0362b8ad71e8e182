import hashlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from check_gen_identity import digest_mismatches, identity_mismatches
from choremms import analysis
from choremms.analysis import (GEN_KINDS, GENERAL_COSTS, MAX_GEN_COSTS, MAX_GEN_LEVELS,
                               SUBSET_SUM_CAP, _mms_allocation_exists, case_table,
                               format_case_table, gen_instance, search_bivalued_mms_existence,
                               search_monotonicity, subset_sums)
from choremms.core import CostRow, Instance, classify
from choremms.errors import BadParams, TooLarge
from choremms.io import MAX_AGENTS
from choremms.mms import hffd_and_lift, mms_value
from helpers import ref_gen_instance, ref_mms_allocation_exists


# ---------------------------------------------------------------- case table

def test_case_table_has_35_rows():
    assert len(case_table()) == 35


def test_case_table_signatures_unique_and_constrained():
    rows = case_table()
    sigs = [r.signature for r in rows]
    assert len(set(sigs)) == 35
    for r in rows:
        assert r.a_q >= 1
        assert r.a_q + r.b_q <= 6
        assert r.a_p >= r.a_q + 1
        assert r.b_q >= r.b_p + 2
        assert r.a_q + r.b_q > r.a_p + r.b_p
        assert 13 * r.a_p - 15 * r.a_q > 0


def test_case_table_bound_derivations():
    for r in case_table():
        e = F(15 * r.b_q - 13 * r.b_p - 13, 13 * r.a_p - 15 * r.a_q)
        assert r.ratio_lower == e
        assert r.mu_lower == r.a_q * e + r.b_q
        assert r.tau_lower_s == F(15, 13) * r.mu_lower
        assert r.tau_lower_ls == r.tau_lower_s - r.ratio_lower
        assert r.excluded == (r.mu_lower >= F(13, 2))


def test_case_table_spot_values():
    by_sig = {r.signature: r for r in case_table()}
    r = by_sig[(1, 2, 2, 0)]
    assert r.ratio_lower == F(17, 11) and r.mu_lower == F(39, 11)
    assert not r.excluded
    assert by_sig[(1, 5, 3, 0)].mu_lower == F(91, 12)
    assert by_sig[(1, 5, 3, 0)].excluded
    assert by_sig[(1, 5, 4, 0)].mu_lower == F(247, 37)
    assert by_sig[(1, 5, 4, 0)].excluded


def test_case_table_specials_and_survivors():
    rows = case_table()
    specials = {r.signature for r in rows if r.special}
    assert specials == {(1, 3, 2, 0), (1, 4, 3, 0)}
    assert sum(1 for r in rows if r.excluded) == 23
    # every surviving non-special row sheds exactly one chore
    for r in rows:
        if not r.excluded and not r.special:
            assert (r.a_q + r.b_q) - (r.a_p + r.b_p) == 1


def test_format_case_table():
    text = format_case_table(case_table())
    lines = text.splitlines()
    assert lines[0] == "aq\tbq\tap\tbp\tE\tF\tG\tH\texcluded\tspecial"
    assert len(lines) == 36
    assert all(len(line.split("\t")) == 10 for line in lines[1:])
    # the whole text `choremms table` prints, byte for byte
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c546f0b1eabf71c24a12b50c27ecb197c1f501fb256c06e45e5d8aaca31001f5"


# ---------------------------------------------------------------- generators

@pytest.mark.parametrize("kind,check", [
    ("factored", lambda c: c.is_factored),
    ("bivalued", lambda c: c.is_personalized_bivalued),
    ("personalized_bivalued", lambda c: c.is_personalized_bivalued),
    ("general", lambda c: True),
])
def test_gen_instance_class_membership(kind, check):
    for seed in range(40):
        inst = gen_instance(kind, 3, 8, seed=seed)
        assert inst.n == 3 and inst.m == 8
        assert check(classify(inst))


def test_gen_instance_bivalued_is_shared():
    # the non-personalized flavour uses one value pair for all agents
    for seed in range(20):
        inst = gen_instance("bivalued", 3, 8, seed=seed)
        values = {v for row in inst.costs for v in row}
        assert len(values) <= 2


def test_gen_instance_deterministic():
    a = gen_instance("general", 4, 9, seed=123)
    b = gen_instance("general", 4, 9, seed=123)
    c = gen_instance("general", 4, 9, seed=124)
    assert a == b
    assert a != c


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
def test_gen_instance_rows_pass_the_instance_checks(kind):
    # gen_instance skips `Instance.__post_init__`'s per-cost checks, since it
    # builds each row of positive Fractions; the checks accept every row
    for seed in range(10):
        for n, m in ((1, 0), (3, 8), (7, 40)):
            inst = gen_instance(kind, n, m, seed=seed)
            assert all(type(row) is CostRow for row in inst.costs)
            assert Instance(tuple(map(tuple, inst.costs))) == inst
            assert Instance.from_rows(inst.costs) == inst


def test_gen_instance_rejects_unknown_kind_and_bad_sizes():
    with pytest.raises(BadParams):
        gen_instance("mystery", 2, 3, seed=0)
    with pytest.raises(BadParams):
        gen_instance("general", 0, 3, seed=0)


@pytest.mark.parametrize("n, m", [(MAX_AGENTS + 1, 0), (10**20, 0), (2, MAX_GEN_COSTS // 2 + 1),
                                  (MAX_GEN_COSTS, MAX_GEN_COSTS)])
def test_gen_instance_rejects_sizes_past_its_bounds(monkeypatch, n, m):
    # no generator can be made, so a broken bound fails here (TypeError)
    # instead of building rows
    monkeypatch.setattr(analysis.random, "Random", None)
    with pytest.raises(BadParams):
        gen_instance("general", n, m, seed=0)


@pytest.mark.parametrize("bad", [2.5, True, "3", None])
@pytest.mark.parametrize("which", ["n", "m"])
def test_gen_instance_rejects_sizes_that_are_not_ints(monkeypatch, which, bad):
    # 2.5 passes both bounds and True compares as 1, so only the type check
    # keeps them out; refused before a generator is made
    monkeypatch.setattr(analysis.random, "Random", None)
    sizes = {"n": 2, "m": 3, which: bad}
    with pytest.raises(BadParams, match=f"^{which} must be an int, not {type(bad).__name__}$"):
        gen_instance("general", sizes["n"], sizes["m"], seed=0)


def test_gen_instance_zero_chores():
    inst = gen_instance("general", 2, 0, seed=0)
    assert inst.m == 0 and inst.n == 2


def test_gen_instance_draws_the_reference_instances():
    # every class, at sizes from 1 x 0 to 10 x 100 and seeds 0 to 39
    assert identity_mismatches() == []


def test_gen_instance_digests_are_pinned():
    assert digest_mismatches() == []


@pytest.mark.parametrize("kind, n, m, params, randints", [
    ("factored", 10, 100, {"levels": 3}, 2 + 3),
    ("personalized_bivalued", 8, 80, {}, 4 * 8),
    ("general", 30, 300, {}, 0),
])
def test_gen_instance_draws_no_cost_by_a_method_or_a_new_fraction(monkeypatch, kind, n, m,
                                                                  params, randints):
    # the class's parameters are the only draws by `randint` and the only
    # Fractions built; the costs come from `getrandbits`
    calls = Counter()

    def counted(name, method):
        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return call
    monkeypatch.setattr(random.Random, "choice", counted("choice", random.Random.choice))
    monkeypatch.setattr(random.Random, "randint", counted("randint", random.Random.randint))
    monkeypatch.setattr(F, "__new__", staticmethod(counted("Fraction", F.__new__)))
    inst = gen_instance(kind, n, m, seed=1, **params)
    assert calls["choice"] == 0 and calls["randint"] == randints
    built = calls["Fraction"]
    assert built <= 3 * n + params.get("levels", 0) + 1
    calls.clear()
    gen_instance(kind, n, 1, seed=1, **params)
    assert calls == Counter(randint=randints, Fraction=built)
    monkeypatch.undo()
    assert inst == ref_gen_instance(kind, n, m, seed=1, **params)
    if kind == "general":
        shared = {id(c) for row in inst.costs for c in row}
        assert len(shared) <= len(GENERAL_COSTS) == 96
        assert shared <= {id(c) for c in GENERAL_COSTS}


@pytest.mark.parametrize("kind, params", [
    ("factored", {"levles": 2}),
    ("factored", {"levels": 2, "base": 1}),
    ("bivalued", {"levels": 1}),
    ("personalized_bivalued", {"levels": 1}),
    ("general", {"levels": 2}),
    ("factored", {"levels": "2"}),
    ("factored", {"levels": 2.5}),
    ("factored", {"levels": 2.0}),
    ("factored", {"levels": F(2)}),
    ("factored", {"levels": None}),
    ("factored", {"levels": True}),
    ("factored", {"levels": -1}),
    ("factored", {"levels": MAX_GEN_LEVELS + 1}),
    ("factored", {"levels": 10**5000}),
    ("mystery", {"levels": 2}),
])
def test_gen_instance_rejects_bad_params(monkeypatch, kind, params):
    # refused before a generator is made, as the size bounds are
    monkeypatch.setattr(analysis.random, "Random", None)
    with pytest.raises(BadParams):
        gen_instance(kind, 2, 3, seed=0, **params)


@pytest.mark.parametrize("levels", [0, 1, MAX_GEN_LEVELS])
def test_gen_instance_takes_levels_up_to_its_cap(levels):
    inst = gen_instance("factored", 3, 40, seed=5, levels=levels)
    assert inst == ref_gen_instance("factored", 3, 40, seed=5, levels=levels)
    values = {c for row in inst.costs for c in row}
    assert len(values) <= levels + 1 and max(values) <= 3 ** (levels + 1)


# ------------------------------------------------------------------ searches

def test_subset_sums_caps_the_chores():
    m = SUBSET_SUM_CAP + 1
    with pytest.raises(TooLarge, match=f"^subset-sum grid needs m <= {SUBSET_SUM_CAP}, got {m}$"):
        subset_sums(range(m), (F(1),) * m)


def test_search_monotonicity_factored_finds_nothing():
    assert search_monotonicity("factored", trials=300, seed=1) is None


def test_search_monotonicity_bivalued_finds_nothing():
    assert search_monotonicity("bivalued", trials=300, seed=2) is None


def test_search_monotonicity_general_runs():
    hit = search_monotonicity("general", trials=300, seed=3)
    if hit is not None:
        from choremms.packing import ffd
        cost = hit.instance.cost(hit.agent)
        chores = hit.instance.chores()
        assert hit.tau < hit.beta
        assert ffd(chores, cost, hit.tau, max_bins=hit.bins).succeeded
        assert not ffd(chores, cost, hit.beta, max_bins=hit.bins).succeeded


def test_search_bivalued_mms_existence_small_run():
    assert search_bivalued_mms_existence(trials=30, seed=4) is None


def test_mms_allocation_exists_matches_the_exhaustive_oracle():
    # every class, n 2-4 and m 4-8, with caps at each agent's MMS and one
    # below it, so that both answers occur
    answers = []
    for kind in GEN_KINDS:
        for n in range(2, 5):
            for m in range(4, 9):
                instance = gen_instance(kind, n, m, seed=10 * n + m)
                mus = [mms_value(instance.cost(i), instance.chores(), n) for i in range(n)]
                for caps in (mus, [mu - 1 for mu in mus]):
                    got = _mms_allocation_exists(instance, caps)
                    assert got == ref_mms_allocation_exists(instance, caps), (kind, n, m, caps)
                    answers.append(got)
    assert len(answers) == 120 and 0 < answers.count(False) < 120


def test_an_mms_allocation_exists_where_hffd_at_the_mms_leaves_a_chore():
    # every agent's MMS is 14, and HFFD at 14 leaves a chore over, yet some
    # allocation keeps every agent within 14
    instance = gen_instance("bivalued", 3, 12, seed=11)
    mus = [mms_value(instance.cost(i), instance.chores(), 3) for i in range(3)]
    assert mus == [14] * 3
    assert len(hffd_and_lift(instance, mus)[1]) == 1
    assert _mms_allocation_exists(instance, mus)
    assert ref_mms_allocation_exists(instance, mus)
