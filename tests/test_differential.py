"""The integer packing kernels and the integer certificate layer against
the Fraction references in helpers.py: identical bundles, leftovers,
success flags and thresholds; identical FFV verdicts, class checks and
orderings; identical swap transcripts; and the same error type and message
on rejected inputs."""

import gc
import hashlib
import itertools
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from choremms import core
from choremms.analysis import gen_instance, subset_sums
from choremms.core import (Allocation, CostRow, Instance, LiftingMap, Runs, classify,
                           ido_blocks, is_bivalued_costs, is_factored_costs, to_ido,
                           universal_ordering)
from choremms.errors import (BadParams, ChoreMMSError, EmptyBinDeadlock, InvariantViolation,
                             ParseError, PreconditionViolation, UnsupportedClass)
from choremms.ffv import (SwapTranscript, _check_ffd_output, _count_free, _find_donor, _Worker,
                          is_ffv, reduce_bivalued, reduce_factored, transform_mms_to_ffd)
from choremms.io import format_instance, parse_instance
from choremms.mms import (hffd_and_lift, min_success_threshold, mms_brute, mms_factored,
                          mms_lower_bound, mms_value, solve_auto, solve_ordinal)
from choremms.packing import ffd, hffd, ladder_bound, multifit, two_valued_makespan
from helpers import (_ref_check_ffd_output, brute_min_makespan, certify_case, ffd_first_bin,
                    find_exact_subset, lex_compare, perturb_to_ffv, ref_benchmark_bundle, ref_ffd,
                    ref_find_exact_subset, ref_hffd, ref_is_bivalued_costs, ref_is_factored_costs,
                    ref_is_ffv, ref_lex_compare, ref_lift, ref_min_success_threshold,
                    ref_mms_brute, ref_multifit, ref_parse_instance, ref_reduce_bivalued,
                    ref_reduce_factored, ref_to_ido, ref_transform_mms_to_ffd,
                    ref_universal_ordering, run_length)

SETTINGS = settings(max_examples=300, deadline=None)


def fractions(max_num, max_den=6):
    return st.builds(F, st.integers(1, max_num), st.integers(1, max_den))


@st.composite
def factored_rows(draw, size):
    chain = [draw(fractions(6))]
    for _ in range(draw(st.integers(0, 3))):
        chain.append(chain[-1] * draw(st.sampled_from([2, 3])))
    return tuple(draw(st.sampled_from(chain)) for _ in range(size))


@st.composite
def bivalued_rows(draw, size):
    small = draw(fractions(8))
    large = small + draw(fractions(12))
    return tuple(draw(st.sampled_from([large, small])) for _ in range(size))


@st.composite
def general_rows(draw, size):
    # a small value pool repeats costs, which exercises the lower-id tie-break
    values = draw(st.lists(fractions(24), min_size=1, max_size=size or 1))
    return tuple(draw(st.sampled_from(values)) for _ in range(size))


@st.composite
def distinct_rows(draw, size):
    """A general row whose costs are all distinct: one run per chore."""
    return tuple(draw(st.lists(fractions(24), min_size=size, max_size=size, unique=True)))


def rows(size, kinds=(factored_rows, bivalued_rows, general_rows)):
    return st.one_of(*(kind(size) for kind in kinds))


@st.composite
def row_and_chores(draw, max_m, kinds=(factored_rows, bivalued_rows, general_rows)):
    """A cost row and a nonempty subset of its chores in arbitrary order.

    Now and then the row holds up to three more chores, at random places
    and never in the subset, with denominator 7 or 11, which the subset
    lacks: the row's scale then differs from the subset's. Now and then
    the row is an instance row (a `CostRow`) rather than a plain tuple."""
    m = draw(st.integers(1, max_m))
    row = list(draw(rows(m, kinds)))
    ids = list(range(m))
    for p in draw(st.lists(st.sampled_from([7, 11]), max_size=3)):
        at = draw(st.integers(0, len(row)))
        row.insert(at, F(p * draw(st.integers(0, 12)) + 1, p))
        ids = [c + (c >= at) for c in ids]
    row = tuple(row)
    if draw(st.booleans()):
        row = Instance((row,)).cost(0)
    chores = draw(st.permutations(ids))
    return row, chores[:draw(st.integers(1, m))]


@st.composite
def thresholds(draw, row):
    """A positive threshold: a multiple of the largest cost (possibly below
    it), or one whose denominator the row's scale need not divide."""
    return draw(st.one_of(
        st.builds(lambda a, b: max(row) * F(a, b), st.integers(1, 40), st.integers(1, 13)),
        fractions(80, 13)))


@st.composite
def instances(draw, max_n=4, max_m=10, kinds=(factored_rows, bivalued_rows, general_rows)):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    return Instance(tuple(draw(rows(m, kinds)) for _ in range(n)))


# each class on its own (personalized bivalued rows, each with its own two
# costs), and rows of every class mixed
CLASS_KINDS = [(factored_rows,), (bivalued_rows,), (general_rows,),
               (factored_rows, bivalued_rows, general_rows)]


# --------------------------------------------------------------------- ffd

@SETTINGS
@given(st.data())
def test_ffd_matches_reference(data):
    row, chores = data.draw(row_and_chores(14))
    tau = data.draw(thresholds(row))
    max_bins = data.draw(st.none() | st.integers(1, 5))
    got = ffd(chores, row, tau, max_bins=max_bins)
    want = ref_ffd(chores, row, tau, max_bins=max_bins)
    assert got.bundles == want.bundles
    assert got.unallocated == want.unallocated
    assert got.succeeded == want.succeeded
    assert got == want


@SETTINGS
@given(st.data())
def test_ffd_below_largest_cost_matches_reference(data):
    row, chores = data.draw(row_and_chores(10))
    tau = max(row[c] for c in chores) * F(data.draw(st.integers(1, 12)), 13)
    max_bins = data.draw(st.none() | st.integers(1, 3))
    got = ffd(chores, row, tau, max_bins=max_bins)
    assert not got.succeeded
    assert got == ref_ffd(chores, row, tau, max_bins=max_bins)


# ------------------------------------------------------ threshold searches

@SETTINGS
@given(st.data())
def test_runs_are_the_run_length_profile(data):
    # any subset of the chores, in any order, of rows whose scale may come
    # from chores outside the subset
    row, chores = data.draw(row_and_chores(40))
    row = CostRow.of(row)
    assert row.runs(chores) == tuple(run_length(row.profile(chores)))
    assert row.runs([]) == ()


@SETTINGS
@given(st.data())
def test_runs_of_all_the_chores_are_the_kept_runs(data):
    # every class, no chores and one agent included: `Instance.chores` is
    # one tuple per m, for which `CostRow.runs` gives the kept runs, and any
    # other spelling of the same chores gives equal runs, counted
    inst = data.draw(instances(max_m=12, kinds=data.draw(st.sampled_from(CLASS_KINDS))))
    chores = inst.chores()
    assert inst.chores() is chores is Instance(((F(1),) * inst.m,)).chores()
    shuffled = tuple(data.draw(st.permutations(chores)))
    for row in inst.costs:
        assert row.runs(chores) is row.counts
        for spelling in (list(chores), range(inst.m), iter(chores), shuffled):
            assert row.runs(spelling) == row.counts


@SETTINGS
@given(st.data())
def test_counted_runs_share_no_tuple_of_chores(data):
    # only `Instance.chores` adds a shared tuple, whatever a row is asked
    row, chores = data.draw(row_and_chores(40))
    row = CostRow.of(row)
    shared = dict(core._ALL_CHORES)
    for spelling in (list(chores), tuple(chores), iter(chores), range(len(row)),
                     list(range(len(row))), tuple(range(len(row)))):
        row.runs(spelling)
    assert core._ALL_CHORES == shared


@SETTINGS
@given(st.data())
def test_threshold_searches_agree_across_spellings_of_the_chores(data):
    # the shared tuple (the kept runs) and every other spelling (counted)
    # give the same bound, MMS and minimal threshold, the oracles' values
    inst = data.draw(instances(max_n=3, max_m=6, kinds=data.draw(st.sampled_from(CLASS_KINDS))))
    d = data.draw(st.integers(1, 3))
    chores = inst.chores()
    shuffled = tuple(data.draw(st.permutations(chores)))
    spellings = (lambda: list(chores), lambda: range(inst.m), lambda: iter(chores),
                 lambda: shuffled)
    for row in inst.costs:
        lower = mms_lower_bound(row, chores, d)
        weights = row.weights
        assert lower == max(max(weights, default=0), -(-sum(weights) // d))
        mu = mms_value(row, chores, d)
        assert mu == brute_min_makespan(row, chores, d) >= row.value(lower)
        minimal = ref_is_factored_costs(row) or ref_is_bivalued_costs(row)
        if minimal:
            threshold = min_success_threshold(row, chores, d)
            assert threshold == ref_min_success_threshold(row, chores, d)
        for spelling in spellings:
            assert mms_lower_bound(row, spelling(), d) == lower
            assert mms_value(row, spelling(), d) == mu
            if minimal:
                assert min_success_threshold(row, spelling(), d) == threshold
            else:
                with pytest.raises(UnsupportedClass):
                    min_success_threshold(row, spelling(), d)


@SETTINGS
@given(st.data())
def test_multifit_matches_reference(data):
    # the subset-sum grid answer on factored and bivalued rows; on general
    # rows, where FFD success is not monotone, a succeeding subset sum that
    # may differ from it
    row, chores = data.draw(row_and_chores(9))
    n = data.draw(st.integers(1, 4))
    tau, outcome = multifit(chores, row, n)
    assert outcome == ref_ffd(chores, row, tau, max_bins=n)
    values = [row[c] for c in chores]
    if ref_is_factored_costs(values) or ref_is_bivalued_costs(values):
        assert tau == ref_multifit(chores, row, n)
    else:
        assert outcome.succeeded
        assert tau in subset_sums(chores, row)
        assert tau >= max(max(values), sum(values) / n)


@SETTINGS
@given(st.data())
def test_mms_factored_matches_reference(data):
    row, chores = data.draw(row_and_chores(20, kinds=(factored_rows,)))
    d = data.draw(st.integers(1, 5))
    result = mms_factored(row, chores, d)
    assert result.value == ref_min_success_threshold(row, chores, d)
    witness = tuple(tuple(sorted(b))
                    for b in ref_ffd(chores, row, result.value, max_bins=d).bundles)
    assert result.witness == witness + ((),) * (d - len(witness))


@SETTINGS
@given(st.data())
def test_min_success_threshold_matches_reference(data):
    row, chores = data.draw(row_and_chores(20, kinds=(factored_rows, bivalued_rows)))
    n = data.draw(st.integers(1, 5))
    assert min_success_threshold(row, chores, n) == ref_min_success_threshold(row, chores, n)


@SETTINGS
@given(st.data())
def test_mms_brute_matches_unpruned_search(data):
    # value and witness: the cuts may only skip partitions no better than
    # the incumbent, so the first optimal partition in search order stays
    shape = data.draw(st.sampled_from(["any", "distinct", "chain-or-bivalued"]))
    if shape == "any":
        row, chores = data.draw(row_and_chores(12))
    elif shape == "distinct":
        # many distinct costs and few bundles: long searches, which reach
        # the same bundle loads along different paths
        row = tuple(data.draw(st.lists(fractions(24), min_size=9, max_size=12)))
        chores = range(len(row))
    else:
        # long runs of a few costs, where the search stops at the ladder
        # bound: on a chain it is the MMS, on two values it may fall short
        m = data.draw(st.integers(1, 14))
        row = data.draw(factored_rows(m) | bivalued_rows(m))
        chores = range(m)
    if data.draw(st.booleans()):
        # one chore heavier than the rest together: w0 > ceil(total/d) at d >= 3
        row = (*row, sum((row[c] for c in chores), F(0)) + data.draw(fractions(4)))
        chores = [*chores[:11], len(row) - 1]
    d = data.draw(st.integers(1, 9) | st.integers(2, 4) | st.integers(1, len(chores))
                  | st.just(len(chores)))
    assert mms_brute(row, chores, d) == ref_mms_brute(row, chores, d)


@st.composite
def two_valued_rows(draw, size):
    # Half the heavy costs are 6/5 to 3 times the light one, where first
    # fit at the ladder bound often leaves chores out and the MMS is often
    # above the bound. A single run comes from drawing one cost only.
    small = draw(fractions(8))
    if draw(st.booleans()):
        large = small * draw(st.builds(F, st.integers(6, 15), st.just(5)))
    else:
        large = small + draw(fractions(12))
    return tuple(draw(st.sampled_from([large, small])) for _ in range(size))


@SETTINGS
@given(st.data())
def test_two_valued_makespan_matches_unpruned_search(data):
    # every size and bundle count, and often a few bundles of many chores,
    # where the MMS is above the ladder bound on about one row in seven
    m = data.draw(st.integers(0, 10) | st.integers(5, 10))
    row = CostRow(data.draw(two_valued_rows(m)))
    d = data.draw(st.integers(1, m + 2) | st.integers(2, 4))
    mu = two_valued_makespan(row.counts, d)
    assert row.value(mu) == ref_mms_brute(row, range(m), d).value


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mms_value_matches_unpruned_search_past_the_oracle_cap(data):
    # on two costs mms_value is exact at any m, with no brute-force cap;
    # the unpruned search stays quick up to m = 17
    m = data.draw(st.integers(15, 17))
    row = data.draw(two_valued_rows(m))
    d = data.draw(st.integers(1, 4))
    assert mms_value(row, range(m), d) == ref_mms_brute(row, range(m), d).value


@pytest.mark.parametrize("runs, d, mu, bound", [
    # the split (2, 0) leaves 3 light slots at 10, (1, 1) only 2
    ([(5, 2), (3, 3)], 2, 10, 10),
    # first fit misses the bound, which (1, 1) with 3 light chores each fits
    ([(13, 2), (5, 6)], 2, 28, 28),
    # above the bound: at 11 both splits leave 2 light slots; at 12 only
    # the unbalanced one leaves 3
    ([(5, 2), (4, 3)], 2, 12, 11),
    # only a split that is neither first fit's nor balanced fits: (3, 1)
    # at 13, (3, 1, 1) at 9, and (3, 1) at 51, above the bound
    ([(3, 4), (2, 7)], 2, 13, 13),
    ([(3, 5), (2, 6)], 3, 9, 9),
    ([(11, 4), (8, 7)], 2, 51, 50),
    ([(7, 1)], 3, 7, 7),
    ([], 2, 0, 0),
])
def test_two_valued_makespan_cases(runs, d, mu, bound):
    assert (two_valued_makespan(runs, d), ladder_bound(runs, d)) == (mu, bound)
    weights = [w for w, k in runs for _ in range(k)]
    assert mu == ref_mms_brute(weights, range(len(weights)), d).value


def test_two_valued_makespan_rejects_three_weights_and_no_bins():
    with pytest.raises(BadParams, match="^need at most two distinct weights, got 3$"):
        two_valued_makespan([(3, 1), (2, 1), (1, 1)], 2)
    with pytest.raises(BadParams, match="^number of bundles must be a positive int$"):
        two_valued_makespan([(3, 1)], 0)


# -------------------------------------------------------- hffd and lifting

def outcome_or_deadlock(pack, instance, taus):
    try:
        return pack(instance, taus)
    except EmptyBinDeadlock as exc:
        return ("deadlock", exc.chore)


@SETTINGS
@given(st.data())
def test_hffd_matches_reference(data):
    ido, _ = to_ido(data.draw(instances()))
    taus = [data.draw(thresholds(ido.cost(i))) if ido.m else F(1) for i in range(ido.n)]
    got = outcome_or_deadlock(hffd, ido, taus)
    want = outcome_or_deadlock(ref_hffd, ido, taus)
    assert got == want


def realistic_hffd_cases():
    """HFFD inputs at the sizes the solvers meet: IDO twins of seeded
    factored 10x100 and 30x300, personalized bivalued 8x80 and 30x300 and
    general 10x100 instances, at the solve's thresholds (MultiFit's for n
    bins on general rows, where `solve_auto` needs m <= 14) scaled by 1,
    9/10 and 3/4, and at the solve's thresholds with every odd agent's
    below their smallest cost. At 30x300 a block of equal chores often
    spans bins and loses agents partway."""
    for kind, n, m, seeds in (("factored", 10, 100, 10), ("personalized_bivalued", 8, 80, 10),
                              ("general", 10, 100, 10), ("factored", 30, 300, 3),
                              ("personalized_bivalued", 30, 300, 3)):
        for seed in range(seeds):
            instance = gen_instance(kind, n, m, seed)
            ido, _ = to_ido(instance)
            if kind == "general":
                base = [multifit(ido.chores(), ido.cost(i), n)[0] for i in range(n)]
            else:
                base = solve_auto(instance).thresholds
            for scale in (F(1), F(9, 10), F(3, 4)):
                yield ido, [tau * scale for tau in base]
            yield ido, [min(ido.cost(i)) / 2 if i % 2 else tau for i, tau in enumerate(base)]


def test_hffd_matches_reference_at_realistic_sizes():
    # the drawn instances are small, so few agents drop out of a bin there
    seen = set()
    for ido, taus in realistic_hffd_cases():
        got = outcome_or_deadlock(hffd, ido, taus)
        assert got == outcome_or_deadlock(ref_hffd, ido, taus)
        seen.add("deadlock" if isinstance(got, tuple) else got.succeeded)
    assert seen == {True, False, "deadlock"}


def permuted_hffd_cases(count):
    """IDO instances that are not twins, with thresholds and, when known,
    the universal ordering. Each is the twin of a seeded instance (every
    class, n 1..6, m 0..30) with its positions given one shuffle of the
    chore ids, the same for every row. Equal cost columns break ties by id,
    so each run of identical columns keeps its ids ascending; the ordering
    is then the ids in position order. Agent 0's ties between columns that
    differ keep their shuffled ids. In every other case two chores of one
    agent swap costs besides, which often breaks IDO. Each agent's threshold is
    their MultiFit threshold for n bins scaled by 1, 9/10 or 3/4, or now
    and then half their smallest cost."""
    rng = random.Random(0x1D0)
    kinds = ("factored", "bivalued", "personalized_bivalued", "general")
    for case in range(count):
        n, m = rng.randint(1, 6), rng.randint(0, 30)
        ido, _ = to_ido(gen_instance(kinds[case % 4], n, m, case))
        ids, start = rng.sample(range(m), m), 0
        for _, run in itertools.groupby(zip(*ido.costs)):
            end = start + len(list(run))
            ids[start:end] = sorted(ids[start:end])
            start = end
        position_of = sorted(range(m), key=ids.__getitem__)
        rows = [[row[p] for p in position_of] for row in ido.costs]
        ordering = tuple(ids)
        if case % 2 and m >= 2:
            a, b = rng.sample(range(m), 2)
            row = rows[rng.randrange(n)]
            row[a], row[b] = row[b], row[a]
            ordering = None
        taus = []
        for row in rows:
            tau = multifit(range(m), row, n)[0] * rng.choice((F(1), F(9, 10), F(3, 4)))
            taus.append(min(row) / 2 if m and rng.random() < 0.1 else tau or F(1))
        yield Instance(tuple(map(tuple, rows))), taus, ordering


def test_hffd_matches_reference_off_the_twin():
    seen = set()
    for instance, taus, ordering in permuted_hffd_cases(1000):
        got = outcome(universal_ordering, instance)
        assert got == outcome(ref_universal_ordering, instance)
        assert ordering is None or got == ordering
        got = outcome(hffd, instance, taus)
        assert got == outcome(ref_hffd, instance, taus)
        seen.add(got[0].__name__ if isinstance(got, tuple) else got.succeeded)
    assert seen == {True, False, "NotIDO", "EmptyBinDeadlock"}


def test_ordinal_thresholds_are_at_most_the_exact_mms():
    """Bound-first ordinal thresholds against `mms_brute` for d = floor(9n/11)
    on seeded instances of every class, n 2..8 and m 2..14: each agent's
    cost is at most their threshold, which is at most their MMS, and an MMS
    the solve reports is the exact one."""
    rng = random.Random(0xB0F)
    kinds = ("factored", "bivalued", "personalized_bivalued", "general")
    reported = set()
    for case in range(240):
        n, m = rng.randint(2, 8), rng.randint(2, 14)
        instance = gen_instance(kinds[case % 4], n, m, case)
        res = solve_ordinal(instance)
        d = 9 * n // 11
        for i in range(n):
            mu = mms_brute(instance.cost(i), instance.chores(), d).value
            assert res.costs[i] <= res.thresholds[i] <= mu
            assert res.mms_values[i] in (None, mu)
            reported.add(res.mms_values[i] is not None)
    assert reported == {True, False}


@st.composite
def twin_allocations(draw, instance):
    """Up to 2n bundles of the twin's positions, each owned by any agent,
    so an agent may own several bundles or none; label -1 leaves a position
    unowned, so the allocation may be partial."""
    k = draw(st.integers(1, 2 * instance.n))
    labels = draw(st.lists(st.integers(-1, k - 1), min_size=instance.m, max_size=instance.m))
    agents = draw(st.lists(st.integers(0, instance.n - 1), min_size=k, max_size=k))
    return Allocation.of(([c for c, b in enumerate(labels) if b == j] for j in range(k)), agents)


@SETTINGS
@given(st.data())
def test_lift_matches_reference(data):
    instance = data.draw(instances())
    _, lifting = to_ido(instance)
    allocation = data.draw(twin_allocations(instance))
    if data.draw(st.integers(0, 9)):
        assert lifting.lift(allocation) == ref_lift(instance, allocation)
        return
    # a chore outside 0..m-1 in any bundle
    bad = data.draw(st.sampled_from([-1, instance.m, instance.m + 5]))
    bundles = [list(b) for b in allocation.bundles]
    bundles[data.draw(st.integers(0, len(bundles) - 1))].append(bad)
    with pytest.raises(BadParams, match=f"^chore {bad} is not one of the {instance.m} chores$"):
        lifting.lift(Allocation.of(bundles, allocation.agents))


def test_lift_matches_reference_at_realistic_sizes():
    # The drawn instances are small, so an agent's cursor rarely skips many
    # chores there. Factored 10x100 and personalized bivalued 8x80, the
    # benchmark's sizes, and 100x1000 of factored, personalized bivalued and
    # general; each lifts the solve's HFFD bins, one per agent, and a random
    # partial allocation with several bundles per agent.
    rng = random.Random(0x11F7)
    for kind, n, m in (("factored", 10, 100), ("personalized_bivalued", 8, 80),
                       ("factored", 100, 1000), ("personalized_bivalued", 100, 1000),
                       ("general", 100, 1000)):
        instance = gen_instance(kind, n, m, seed=1)
        ido, lifting = to_ido(instance)
        packed = hffd(ido, solve_auto(instance).thresholds)
        labels = [rng.randrange(-1, 2 * n) for _ in range(m)]
        random_bins = Allocation.of(([c for c, b in enumerate(labels) if b == j]
                                     for j in range(2 * n)),
                                    [rng.randrange(n) for _ in range(2 * n)])
        for allocation in (packed.allocation.per_agent(n), random_bins):
            assert lifting.lift(allocation) == ref_lift(instance, allocation)


# sha256 prefixes of `solve_auto`'s thresholds and bundles, and of the
# certificate replay, at 100x1000; the bench pools stop at 10x100, and at
# n = 100 the donor walk and the run builds take other paths
SCALE_PINS = {
    ("factored", 1): ("03d510e08b09101b", "85a5c683aadda8ba"),
    ("factored", 2): ("38617284f438cecd", "703b9ed1fd0b26ab"),
    ("factored", 3): ("4bffc1c56ca32d44", "70fd55f18d806f28"),
    ("personalized_bivalued", 1): ("a74d70c913c46e00", "8a2daf0a57c57d53"),
    ("personalized_bivalued", 2): ("01c9665a66f3b3ef", "c669c6e6ec87ea87"),
    ("personalized_bivalued", 3): ("f6ed3464011be551", "ef2aee9c0c8ce6c4"),
    # seeds 1 and 3 are chains, solved as factored; seed 2 is solved as
    # bivalued, through the first-fit probes of solve_bivalued
    ("bivalued", 1): ("36576778f3f23707", "4abc7e1ccb364e8c"),
    ("bivalued", 2): ("456ce47a8c6e9bea", "a0e405c237516e32"),
    ("bivalued", 3): ("9b5fc72776630232", "a5427600e1c5339a"),
    ("general", 1): ("d3d5d6c601ae1fc7", None),
    ("general", 2): ("35bdbe979a88bd99", None),
    ("general", 3): ("6b7dd4ab98d9344b", None),
}


def sha16(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind, seed", SCALE_PINS)
def test_outputs_at_100x1000_are_pinned(kind, seed):
    result = solve_auto(gen_instance(kind, 100, 1000, seed=seed))
    replay = None
    if kind != "general":
        # the certificate replay of the benchmark: the FFV check of HFFD's
        # bins for their last owner, then the reduction from FFD to them
        P, Q, cost, tau, chores = certify_case(kind, 100, 1000, seed)
        reduce = reduce_factored if kind == "factored" else reduce_bivalued
        t = reduce(P, Q, cost, tau, chores)
        replay = sha16((is_ffv(chores, Q, cost, tau), t.dump(), t.final))
    assert (sha16((result.thresholds, result.allocation.bundles)), replay) == \
        SCALE_PINS[kind, seed]


# sha256 prefixes of the certificate replay at 10x1000, where each bundle
# holds about 100 chores: the FFV walk takes each bundle's chores out of
# the counts, and the reduction walks and pulls along long bundles
REPLAY_PINS = {
    ("factored", 1): "d412c29c638980ca",
    ("factored", 2): "9f27ce5851a20c40",
    ("personalized_bivalued", 1): "3937811aa32dd211",
    ("personalized_bivalued", 2): "833e4aa9c27a5a20",
}


@pytest.mark.parametrize("kind, seed", REPLAY_PINS)
def test_replay_at_10x1000_is_pinned(kind, seed):
    P, Q, cost, tau, chores = certify_case(kind, 10, 1000, seed)
    reduce = reduce_factored if kind == "factored" else reduce_bivalued
    t = reduce(P, Q, cost, tau, chores)
    assert sha16((is_ffv(chores, Q, cost, tau), t.dump(), t.final)) == REPLAY_PINS[kind, seed]


def merged_hffd_and_lift(instance, taus):
    """HFFD's bins on the twin merged per agent (`Allocation.per_agent`),
    lifted, and every original chore scanned for the ones left out: the
    composition that `hffd_and_lift` lifts without the merge and skips the
    scan of."""
    if instance.m == 0:
        return Allocation.of([()] * instance.n, agents=range(instance.n)), ()
    ido, lifting = to_ido(instance)
    allocation = lifting.lift(hffd(ido, taus).allocation.per_agent(ido.n))
    held = allocation.allocated()
    return allocation, tuple(c for c in range(ido.m) if c not in held)


def lifted_or_deadlock(lift, instance, taus):
    try:
        allocation, unallocated = lift(instance, taus)
    except EmptyBinDeadlock as exc:
        return ("deadlock", exc.chore)
    # field for field, with the order inside each bundle
    return allocation.bundles, allocation.agents, unallocated


@SETTINGS
@given(st.data())
def test_hffd_and_lift_matches_the_merged_lift(data):
    instance = data.draw(instances())
    taus = [data.draw(thresholds(instance.cost(i))) if instance.m else F(1)
            for i in range(instance.n)]
    assert lifted_or_deadlock(hffd_and_lift, instance, taus) == \
        lifted_or_deadlock(merged_hffd_and_lift, instance, taus)


def test_hffd_and_lift_matches_the_merged_lift_at_benchmark_sizes():
    # the solve's thresholds, then all of them lowered by a tenth at a time
    # until HFFD leaves chores or deadlocks
    seen = set()
    for kind, n, m in (("factored", 10, 100), ("personalized_bivalued", 8, 80)):
        for seed in range(5):
            instance = gen_instance(kind, n, m, seed)
            taus = solve_auto(instance).thresholds
            while True:
                got = lifted_or_deadlock(hffd_and_lift, instance, taus)
                assert got == lifted_or_deadlock(merged_hffd_and_lift, instance, taus)
                if got[0] == "deadlock" or got[2]:
                    seen.add("deadlock" if got[0] == "deadlock" else "partial")
                    break
                seen.add("complete")
                taus = [tau * F(9, 10) for tau in taus]
    assert seen >= {"complete", "partial"}


def ref_hffd_and_lift(instance, taus):
    """`ref_hffd` on the reference twin (`ref_to_ido`), each bin lifted by
    `ref_lift` and put at its owner's index, and the original chores no bin
    holds, ascending; the shape of `lifted_or_deadlock`."""
    ido, _ = ref_to_ido(instance)
    if ido.m == 0:
        return ((),) * ido.n, tuple(range(ido.n)), ()
    try:
        packed = ref_hffd(ido, taus).allocation
    except EmptyBinDeadlock as exc:
        return ("deadlock", exc.chore)
    lifted = ref_lift(instance, packed).bundles
    bundles = [()] * ido.n
    for b, owner in enumerate(packed.agents):
        bundles[owner] = lifted[b]
    held = {c for bundle in bundles for c in bundle}
    return tuple(bundles), tuple(range(ido.n)), tuple(c for c in range(ido.m) if c not in held)


GENERATED_CLASSES = ("factored", "bivalued", "personalized_bivalued", "general")


@SETTINGS
@given(st.sampled_from(GENERATED_CLASSES), st.integers(1, 6), st.integers(0, 30),
       st.integers(0, 10 ** 6))
def test_hffd_and_lift_matches_the_references(kind, n, m, seed):
    hffd_and_lift_outcomes(kind, n, m, seed)


def hffd_and_lift_outcomes(kind, n, m, seed):
    """`hffd_and_lift` against `ref_hffd_and_lift` on the twin of a
    generated instance at the solve's thresholds, then at all of them
    lowered by a tenth at a time until HFFD deadlocks, which it does once
    no agent has room for the heaviest chore; the outcomes met. The ordinal
    solver needs two agents, and on general rows its exact fallback needs
    m <= 14."""
    if kind == "general":
        n, m = max(n, 2), min(m, 14)
    instance = gen_instance(kind, n, m, seed)
    taus = solve_auto(instance).thresholds
    seen = set()
    while True:
        got = lifted_or_deadlock(hffd_and_lift, instance, taus)
        assert got == ref_hffd_and_lift(instance, taus)
        if m == 0:
            return {"no chores"}
        if got[0] == "deadlock":
            return seen | {"deadlock"}
        seen.add("partial" if got[2] else "complete")
        taus = [tau * F(9, 10) for tau in taus]


def test_hffd_and_lift_matches_the_references_on_every_outcome():
    # seeded cases of the test above reach m = 0, and a complete, a partial
    # and a deadlocked HFFD, on twins of every class
    seen = set()
    for case in range(80):
        kind = GENERATED_CLASSES[case % 4]
        n, m = 2 + case % 5, (0, 6, 14, 30)[case // 4 % 4]
        seen |= {(kind, outcome) for outcome in hffd_and_lift_outcomes(kind, n, m, case)}
    assert seen == {(kind, outcome) for kind in GENERATED_CLASSES
                    for outcome in ("no chores", "complete", "partial", "deadlock")}


@SETTINGS
@given(st.data())
def test_lift_matches_reference_with_shared_owners_and_empty_bundles(data):
    # agent 0 owns two bundles of positions, and one bundle is empty; the
    # other positions go to bundles of any agent, or to none
    instance = data.draw(instances(max_m=12))
    _, lifting = to_ido(instance)
    labels = data.draw(st.lists(st.integers(-1, 3), min_size=instance.m, max_size=instance.m))
    bundles = [[c for c, b in enumerate(labels) if b == j] for j in range(4)] + [[]]
    agents = [0, 0] + data.draw(st.lists(st.integers(0, instance.n - 1), min_size=3,
                                         max_size=3))
    allocation = Allocation.of(bundles, agents)
    assert lifting.lift(allocation) == ref_lift(instance, allocation)
    # with no agents given, bundle i belongs to agent i
    if len(bundles) <= instance.n:
        unowned = Allocation.of(bundles)
        assert lifting.lift(unowned) == ref_lift(instance, unowned)


@pytest.mark.parametrize("bad", [-1, 4, 9])
def test_lift_names_the_chore_out_of_range(bad):
    instance = gen_instance("factored", 3, 4, seed=2)
    _, lifting = to_ido(instance)
    for bundles in ([(0, 1), (), (bad, 2)], [(bad,), (0, 1, 2, 3)], [(3, bad), ()]):
        with pytest.raises(BadParams, match=f"^chore {bad} is not one of the 4 chores$"):
            lifting.lift(Allocation.of(bundles, [0, 0, 1][:len(bundles)]))


@pytest.mark.parametrize("owner", [-1, 3])
def test_lift_names_the_bundle_of_an_owner_out_of_range(owner):
    # an owner of -1 would otherwise lift with the last agent's row, and an
    # owner of n would index past the rows
    instance = gen_instance("factored", 3, 4, seed=2)
    _, lifting = to_ido(instance)
    for bundles, agents in (([(0,)], [owner]), ([(0, 1), (), (2,)], [0, owner, owner])):
        with pytest.raises(BadParams, match=f"^bundle {agents.index(owner)} belongs to agent "
                                            f"{owner}, not one of 3 agents$"):
            lifting.lift(Allocation.of(bundles, agents))


def test_lift_ties_pick_lower_id():
    instance = Instance.from_rows([[2, 1, 1, 2], [1, 1, 1, 1]])
    _, lifting = to_ido(instance)
    allocation = Allocation.of([(0, 1), (2, 3)], agents=(0, 1))
    assert lifting.lift(allocation) == ref_lift(instance, allocation)
    assert lifting.lift(allocation).bundles == ((2, 3), (0, 1))



# ------------------------------------------------- certificate layer helpers

def transcript_fields(t):
    """Every field of a transcript, its text dump and the types of the step
    costs (Fractions at the interface)."""
    if t is None:
        return None
    return (t.steps, t.result, t.final, t.dump(),
            {type(c) for step in t.steps for c in step.costs_after})


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type, message and transcript of the
    package error it raises."""
    try:
        result = fn(*args, **kwargs)
    except ChoreMMSError as exc:
        return type(exc), str(exc), transcript_fields(getattr(exc, "transcript", None))
    return transcript_fields(result) if isinstance(result, SwapTranscript) else result


@st.composite
def certificate_thresholds(draw, row):
    """Below, at and above the largest cost, and now and then not positive."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from([F(0), F(-1, 2)]))
    return max(row) if kind == 1 else draw(thresholds(row))


@st.composite
def close_bivalued_rows(draw, size):
    """Two values at most a factor 2 apart, so that an MMS value below 13/2
    of the small cost, where the transform swaps, is common."""
    small = draw(fractions(8))
    large = small * draw(st.builds(F, st.integers(7, 12), st.just(6)))
    return tuple(draw(st.sampled_from([large, small])) for _ in range(size))


@st.composite
def bundles_of(draw, chores, max_bundles=4, leave_out=False):
    """The chores split into 1..max_bundles bundles, some possibly left out."""
    k = draw(st.integers(1, max_bundles))
    labels = draw(st.lists(st.integers(-1 if leave_out else 0, k - 1),
                           min_size=len(chores), max_size=len(chores)))
    return Allocation.of([c for c, label in zip(chores, labels) if label == b]
                         for b in range(k))


@st.composite
def ffv_candidates(draw, chores, row, tau):
    """An FFD output, an FFV perturbation of one, or arbitrary bundles."""
    kind = draw(st.sampled_from(["ffd", "perturbed", "arbitrary"]))
    if kind == "arbitrary" or tau <= 0:
        return draw(bundles_of(chores, leave_out=True))
    packed = ffd(chores, row, tau).allocation
    if kind == "ffd":
        return packed
    rng = random.Random(draw(st.integers(0, 2**32)))
    return perturb_to_ffv(rng, packed, chores, row, tau, attempts=10)


# ------------------------------------------------ class checks and ordering

@SETTINGS
@given(st.data())
def test_class_checks_match_reference(data):
    row = data.draw(rows(data.draw(st.integers(0, 12))))
    if row and data.draw(st.booleans()):
        row = (row[0],) * len(row)  # single-valued
    assert is_factored_costs(row) == ref_is_factored_costs(row)
    assert is_bivalued_costs(row) == ref_is_bivalued_costs(row)
    # the test kept on the row's runs, and the same answer from the runs of
    # another spelling of its chores and from a fresh copy of the runs
    kept = CostRow(row)
    assert kept.counts.chain == ref_is_factored_costs(row)
    assert kept.runs(list(range(len(row)))).chain == Runs(kept.counts).chain == kept.counts.chain


@SETTINGS
@given(st.data())
def test_lex_compare_matches_reference(data):
    m = data.draw(st.integers(1, 10))
    row = data.draw(rows(m))
    b1, b2 = (data.draw(st.lists(st.integers(0, m - 1), unique=True)) for _ in range(2))
    assert lex_compare(b1, b2, row) == ref_lex_compare(b1, b2, row)


@SETTINGS
@given(st.data())
def test_to_ido_and_universal_ordering_match_reference(data):
    instance = data.draw(instances())
    ido, lifting = to_ido(instance)
    want_ido, want_lifting = ref_to_ido(instance)
    assert ido == want_ido and lifting == want_lifting
    # an IDO twin keeps the identity order, so HFFD on it sees no change;
    # its blocks, set from the rows' runs, are those of the column sort
    assert universal_ordering(ido) == ido.chores()
    assert ido.blocks == ido_blocks(ido)
    for x in (instance, ido):
        assert outcome(universal_ordering, x) == outcome(ref_universal_ordering, x)


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
def test_twin_blocks_match_the_column_sort(kind):
    # to_ido sets the twin's blocks from the prefix sums of the rows' runs;
    # ido_blocks sorts the twin's weight columns
    for n, m in itertools.product((1, 3, 10), (0, 1, 2, 13, 100)):
        ido, _ = to_ido(gen_instance(kind, n, m, seed=n * m))
        assert ido.blocks == ido_blocks(ido)
        assert ido.blocks[0] == ido.chores()


# ------------------------------------------------ kept twin and chain flag

def check_kept_twin(instance):
    """`to_ido` hands out one kept twin per instance, equal to the reference
    twin and to the twin of a row-for-row copy, holding the rows' runs."""
    ido, lifting = to_ido(instance)
    again, lifting_again = to_ido(instance)
    assert again is ido and instance.twin is ido
    # the lifting map is built afresh, never kept
    assert lifting_again is not lifting and lifting == LiftingMap(instance)
    copy = Instance(tuple(tuple(row) for row in instance.costs))
    assert all(a is not b for a, b in zip(copy.costs, instance.costs))
    # the copy's rows test their chains before its twin is built, the
    # instance's twin rows before their rows do; either way a twin row holds
    # its row's runs object, and with it the one chain test
    classify(copy)
    copy_ido, _ = to_ido(copy)
    want, _ = ref_to_ido(instance)
    assert copy_ido is not ido
    for twin, source in ((ido, instance), (copy_ido, copy)):
        assert twin == want and twin.blocks == want.blocks
        for got_row, want_row, row in zip(twin.costs, want.costs, source.costs):
            assert [(type(c), c) for c in got_row] == [(type(c), c) for c in want_row]
            assert (got_row.scale, got_row.weights, got_row.counts) == \
                (want_row.scale, want_row.weights, want_row.counts)
            assert got_row.counts is row.counts
            assert got_row.counts.chain == ref_is_factored_costs(row)
    # each twin cost is one of the original row's own Fraction objects
    for got_row, row in zip(ido.costs, instance.costs):
        assert all(any(c is x for x in row) for c in got_row)


@SETTINGS
@given(st.data())
def test_kept_twin_matches_reference_and_a_copy(data):
    check_kept_twin(data.draw(instances(kinds=data.draw(st.sampled_from(CLASS_KINDS)))))


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
@pytest.mark.parametrize("n, m", [(1, 0), (1, 6), (3, 0), (3, 12)])
def test_kept_twin_of_generated_instances(kind, n, m):
    check_kept_twin(gen_instance(kind, n, m, seed=n + m))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_repeated_solves_match_a_solve_of_a_copy(data):
    # the second solve reads the kept twin and runs; a copy builds
    # its own; one agent's general instance is refused each time alike
    instance = data.draw(instances(kinds=data.draw(st.sampled_from(CLASS_KINDS))))
    copy = Instance(tuple(tuple(row) for row in instance.costs))
    first = outcome(solve_auto, instance)
    assert outcome(solve_auto, instance) == first == outcome(solve_auto, copy)


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
def test_a_solved_instance_is_freed_without_the_cycle_collector(kind):
    # the kept twin refers to no part of its instance, and no LiftingMap is
    # kept, so reference counting alone frees both
    gc.disable()
    try:
        instance = gen_instance(kind, 4, 12, seed=3)
        solve_auto(instance)
        to_ido(instance)
        instance_ref, twin_ref = weakref.ref(instance), weakref.ref(instance.twin)
        del instance
        assert instance_ref() is None and twin_ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------ FFV checks

@SETTINGS
@given(st.data())
def test_benchmark_bundle_matches_reference(data):
    row, chores = data.draw(row_and_chores(12))
    tau = data.draw(certificate_thresholds(row))
    assume(tau > 0)
    prefix = data.draw(bundles_of(chores, max_bundles=3, leave_out=True)).bundles
    prefix = prefix[:data.draw(st.integers(0, len(prefix)))]
    got = outcome(ffd_first_bin, chores, prefix, row, tau)
    assert got == outcome(ref_benchmark_bundle, chores, prefix, row, tau)


@SETTINGS
@given(st.data())
def test_is_ffv_matches_reference(data):
    row, chores = data.draw(row_and_chores(12))
    tau = data.draw(certificate_thresholds(row))
    alloc = data.draw(ffv_candidates(chores, row, tau))
    assert outcome(is_ffv, chores, alloc, row, tau) == outcome(ref_is_ffv, chores, alloc, row, tau)


@st.composite
def ffv_beyond_case(draw):
    """is_ffv inputs the strategies above do not draw: bundles that also
    hold chores of the row outside `all_chores` and leave some of
    `all_chores` out, now and then on a row whose costs are all distinct."""
    m = draw(st.integers(1, 12))
    row = draw(rows(m, (factored_rows, bivalued_rows, general_rows, distinct_rows)))
    ids = draw(st.permutations(range(m)))
    cut = draw(st.integers(1, m))
    chores, outside = ids[:cut], ids[cut:]
    tau = draw(certificate_thresholds(row))
    gone = set(draw(st.lists(st.sampled_from(chores), max_size=3)))
    bundles = [[c for c in b if c not in gone]
               for b in draw(ffv_candidates(chores, row, tau)).bundles]
    for c in outside:
        # -1 leaves the chore out; len(bundles) opens a bundle for it
        at = draw(st.integers(-1, len(bundles)))
        if at == len(bundles):
            bundles.append([c])
        elif at >= 0:
            bundles[at].insert(draw(st.integers(0, len(bundles[at]))), c)
    return chores, Allocation.of(bundles), row, tau


@SETTINGS
@given(ffv_beyond_case())
def test_is_ffv_matches_reference_beyond_all_chores(case):
    assert outcome(is_ffv, *case) == outcome(ref_is_ffv, *case)


def test_is_ffv_rejects_costs_at_most_zero():
    # a plain row is checked where it enters, so a zero or negative cost
    # never reaches the walk: is_ffv names the first such chore, and on the
    # rows without one it matches the reference
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(1, 8)
        row = tuple(F(rng.choice([-2, -1, 0, 1, 2, 3]), rng.randint(1, 2)) for _ in range(m))
        chores = rng.sample(range(m), rng.randint(1, m))
        labels = [rng.randint(-1, 2) for _ in range(m)]
        alloc = Allocation.of([c for c in range(m) if labels[c] == b] for b in range(3))
        tau = F(rng.randint(1, 10), rng.randint(1, 3))
        bad = next((j for j, c in enumerate(row) if c <= 0), None)
        if bad is None:
            assert is_ffv(chores, alloc, row, tau) == ref_is_ffv(chores, alloc, row, tau)
        else:
            with pytest.raises(BadParams, match=f"^cost of chore {bad} must be a positive "
                                                "rational$"):
                is_ffv(chores, alloc, row, tau)


@SETTINGS
@given(st.data())
def test_ffd_output_check_matches_reference(data):
    # a perturbed FFD output, on any row or on one whose costs are all
    # distinct, holding all of `all_chores` or not (at a threshold below
    # the largest cost FFD leaves chores out)
    P, _Q, row, tau, chores, _ = data.draw(perturbed_ffd_case(
        (factored_rows, bivalued_rows, general_rows, distinct_rows)))
    assume(tau > 0)
    if data.draw(st.booleans()):
        P = ffd(chores, row, tau).allocation
    got = ffd_check_outcome(P, row, tau, chores)
    assert got == outcome(_ref_check_ffd_output, P, chores, row, tau)


def ffd_check_outcome(alloc, row, tau, chores):
    """`_check_ffd_output`'s outcome, None when the check passes; it must
    then hand back the profile of every bundle."""
    scaled = CostRow.of(row)
    got = outcome(_check_ffd_output, alloc, scaled, scaled.cap(tau), _count_free(scaled, chores))
    if isinstance(got, list):
        assert got == [scaled.profile(b) for b in alloc.bundles]
        return None
    return got


def realistic_first_fit_cases():
    """(chores, row, tau, n) at benchmark sizes: factored 10×100, bivalued
    8×80 and general 10×100, two seeds each, and general 5×1000, one seed,
    where the Fraction references take seconds. Each agent's row comes with
    their solve threshold scaled by 1, 9/10 and 3/4, and with half their
    smallest cost."""
    rng = random.Random(0xB1A)
    for kind, n, m, seeds in (("factored", 10, 100, 2), ("personalized_bivalued", 8, 80, 2),
                              ("general", 10, 100, 2), ("general", 5, 1000, 1)):
        for seed in range(seeds):
            instance = gen_instance(kind, n, m, seed)
            chores = rng.sample(range(m), m)
            for row, base in zip(instance.costs, solve_auto(instance).thresholds):
                for tau in (base, base * F(9, 10), base * F(3, 4), min(row) / 2):
                    yield chores, row, tau, n


def test_first_fit_matches_reference_at_realistic_sizes():
    # The drawn rows are short, so a weight's copies rarely split across
    # bins there. FFD into any number of bins or n; then the benchmarks
    # after the first, middle and last prefix of its bins, and the FFV and
    # FFD-output checks of those bins, as they are and with one chore
    # moved or left out.
    rng = random.Random(0xF1F)
    seen = set()
    for chores, row, tau, n in realistic_first_fit_cases():
        packed = set()
        for max_bins in (None, n):
            got = ffd(chores, row, tau, max_bins)
            assert got == ref_ffd(chores, row, tau, max_bins)
            packed.add(got)
        for got in packed:
            bundles = got.bundles
            for k in sorted({0, len(bundles) // 2, len(bundles)}):
                assert (ffd_first_bin(chores, bundles[:k], row, tau)
                        == ref_benchmark_bundle(chores, bundles[:k], row, tau))
            allocs = [got.allocation]
            if bundles:
                allocs.append(moved_chore(rng, got.allocation, drop=rng.random() < 0.5))
            for alloc in allocs:
                verdict = is_ffv(chores, alloc, row, tau)
                assert verdict == ref_is_ffv(chores, alloc, row, tau)
                check = ffd_check_outcome(alloc, row, tau, chores)
                assert check == outcome(_ref_check_ffd_output, alloc, chores, row, tau)
                seen.add((got.succeeded, verdict[0], check is None))
    assert {s for s, _, _ in seen} == {True, False}
    assert {(True, True, True), (True, False, False), (False, True, False)} <= seen


@SETTINGS
@given(st.data())
def test_find_exact_subset_matches_reference(data):
    row, chores = data.draw(row_and_chores(12, kinds=(factored_rows, general_rows)))
    target = data.draw(st.one_of(st.sampled_from(row), fractions(30)))
    got = outcome(find_exact_subset, chores, row, target)
    assert got == outcome(ref_find_exact_subset, chores, row, target)


# ------------------------------------------------------ swap reductions

@SETTINGS
@given(st.data())
def test_swap_multiset_check_is_the_size_and_union_check(data):
    # the worker reads only the moved chores, T_j ∩ A_i ⊆ T_i and
    # T_i ∩ A_j ⊆ T_j; it must hold exactly when the two bundles keep their
    # total size and their union, on bundles that may overlap
    chores = st.frozensets(st.integers(0, 4))
    a_i, a_j = data.draw(chores), data.draw(chores)
    t_i, t_j = a_i & data.draw(chores), a_j & data.draw(chores)
    new_i, new_j = (a_i - t_i) | t_j, (a_j - t_j) | t_i
    kept = (len(new_i) + len(new_j) == len(a_i) + len(a_j)
            and new_i | new_j == a_i | a_j)
    worker = _Worker([tuple(a_i), tuple(a_j)], CostRow([F(1)] * 5))
    try:
        worker.apply(0, 0, t_i, 1, t_j)
    except InvariantViolation as exc:
        # the transcript's final shows the bundles even when they share a chore
        assert str(exc) == "swap changed the global chore multiset" and not kept
        assert exc.transcript.final.bundles == (tuple(sorted(new_i)), tuple(sorted(new_j)))
    else:
        assert kept
    assert worker.sets == [set(new_i), set(new_j)]


def test_a_pull_of_a_chore_the_bundle_holds_fails_with_its_transcript():
    # bundles that share chores 0 and 1: bundle 0 pulls chore 1, the donor
    # `_find_donor` names, which it already holds; the bundles still share
    # chore 0, and the failure shows them so
    def run(step):
        worker = _Worker([(0, 1), (0, 1)], CostRow([F(1)] * 2))
        with pytest.raises(InvariantViolation) as info:
            step(worker)
        return str(info.value), transcript_fields(info.value.transcript)
    pulled = run(lambda worker: worker.pull(0, [1]))
    assert pulled == run(lambda worker: worker.apply(0, 0, (), 1, (1,)))
    message, (steps, result, final, dump, _types) = pulled
    assert message == "swap changed the global chore multiset" and result == "violation k=0"
    assert final.bundles == ((0, 1), (0,))
    assert dump == "step 0 k=0 swap i=0 T_i={} j=1 T_j={1} | costs: 3 1\nresult: violation k=0\n"


@SETTINGS
@given(st.data())
def test_pull_is_the_donor_loop_of_one_chore_swaps(data):
    # `pull` takes each chore as the loop it replaced did, `_find_donor` and
    # then the swap T_i = {}, T_j = {donor}: the same steps, failures, final,
    # sets, runs as read and sums, on bundles that may share chores, with some
    # runs built beforehand (bundle k's too, as a transform's earlier donor);
    # the swaps drop the runs they touch, so a run the pulls kept is checked
    # against a fresh build
    m = data.draw(st.integers(1, 8))
    row = CostRow(data.draw(st.lists(st.sampled_from([F(1), F(2), F(4)]), min_size=m,
                                     max_size=m)))
    bundles = [tuple(sorted(b)) for b in data.draw(
        st.lists(st.frozensets(st.integers(0, m - 1)), min_size=2, max_size=4))]
    k = data.draw(st.integers(0, len(bundles) - 2))
    wants = data.draw(st.lists(st.sampled_from(sorted(set(row.weights))), max_size=6))
    forbid = data.draw(st.sampled_from([None, k, k - 1]))
    built = data.draw(st.sets(st.integers(0, len(bundles) - 1)))

    def swaps(worker):
        for w in wants:
            donor = _find_donor(worker, k, w)
            if donor is None:
                worker.fail(k, f"no chore of cost {row.value(w)} left in bundles after {k}")
            worker.apply(k, k, (), donor[0], (donor[1],), forbid_increase_after=forbid)

    ends = []
    for run in (lambda worker: worker.pull(k, wants, forbid_increase_after=forbid), swaps):
        worker = _Worker(list(bundles), row)
        for b in built:
            worker.runs_of(b)
        got = outcome(lambda: run(worker) or worker.finish())
        ends.append((got, worker.sets, [worker.runs_of(b) for b in range(len(bundles))],
                     worker.sums))
    assert ends[0] == ends[1]

@st.composite
def reduction_case(draw, kinds):
    """A cost row over chores 0..m-1 (in arbitrary order), a threshold, a
    start allocation P (an FFD output, or arbitrary bundles with the FFD
    check off) and a target Q that is usually First-Fit-Valid."""
    m = draw(st.integers(1, 12))
    row = draw(rows(m, kinds))
    chores = draw(st.permutations(range(m)))
    tau = draw(certificate_thresholds(row))
    verify_ffd = draw(st.booleans())
    if verify_ffd and tau > 0:
        P = ffd(chores, row, tau).allocation
    else:
        # a P that leaves chores out can run out of donors
        P = draw(bundles_of(chores, leave_out=draw(st.booleans())))
    Q = draw(ffv_candidates(chores, row, tau))
    return P, Q, row, tau, chores, verify_ffd


@SETTINGS
@given(reduction_case((factored_rows, factored_rows, general_rows)))
def test_reduce_factored_matches_reference(case):
    assert outcome(reduce_factored, *case) == outcome(ref_reduce_factored, *case)


@SETTINGS
@given(reduction_case((bivalued_rows, bivalued_rows, general_rows)))
def test_reduce_bivalued_matches_reference(case):
    assert outcome(reduce_bivalued, *case) == outcome(ref_reduce_bivalued, *case)


@st.composite
def perturbed_ffd_case(draw, kinds):
    """A reduction case with the FFD check on and P an FFD output changed
    one way: a chore moved to another bundle, two bundles swapped, the last
    bundle split in two, or an empty bundle appended. Most such P are not
    FFD outputs."""
    m = draw(st.integers(1, 12))
    row = draw(rows(m, kinds))
    chores = draw(st.permutations(range(m)))
    tau = draw(certificate_thresholds(row))
    if tau > 0:
        bundles = [list(b) for b in ffd(chores, row, tau).bundles]
    else:
        bundles = [list(b) for b in draw(bundles_of(chores)).bundles]
    kind = draw(st.sampled_from(["move", "swap", "split", "append"]))
    if kind == "move" and bundles:
        src = draw(st.sampled_from([i for i, b in enumerate(bundles) if b]))
        dst = draw(st.integers(0, len(bundles)).filter(lambda j: j != src))
        if dst == len(bundles):
            bundles.append([])
        bundles[dst].append(bundles[src].pop(draw(st.integers(0, len(bundles[src]) - 1))))
    elif kind == "swap" and len(bundles) > 1:
        i, j = draw(st.lists(st.integers(0, len(bundles) - 1), min_size=2, max_size=2,
                             unique=True))
        bundles[i], bundles[j] = bundles[j], bundles[i]
    elif kind == "split" and bundles:
        last = bundles.pop()
        at = draw(st.integers(0, len(last)))
        bundles += [last[:at], last[at:]]
    else:
        bundles.append([])
    Q = draw(ffv_candidates(chores, row, tau))
    return Allocation.of(bundles), Q, row, tau, chores, True


@SETTINGS
@given(perturbed_ffd_case((factored_rows, factored_rows, general_rows)))
def test_reduce_factored_checks_ffd_output_as_reference(case):
    assert outcome(reduce_factored, *case) == outcome(ref_reduce_factored, *case)


@SETTINGS
@given(perturbed_ffd_case((bivalued_rows, bivalued_rows, general_rows)))
def test_reduce_bivalued_checks_ffd_output_as_reference(case):
    assert outcome(reduce_bivalued, *case) == outcome(ref_reduce_bivalued, *case)


@st.composite
def beyond_all_chores_case(draw, kinds):
    """A reduction case, FFD check off, whose row holds one to three chores
    past `all_chores` = 0..m-1, of any cost: P, arbitrary bundles, may hold
    them, and half of the time Q holds one in place of one of its own."""
    m = draw(st.integers(1, 10))
    extra = draw(st.integers(1, 3))
    row = draw(rows(m, kinds)) + tuple(draw(st.lists(fractions(24), min_size=extra,
                                                     max_size=extra)))
    chores = draw(st.permutations(range(m)))
    tau = draw(certificate_thresholds(row[:m]))
    P = draw(bundles_of(draw(st.permutations(range(m + extra))), leave_out=True))
    Q = draw(ffv_candidates(chores, row, tau))
    held = sorted(Q.allocated())
    if held and draw(st.booleans()):
        out, x = draw(st.sampled_from(held)), draw(st.integers(m, m + extra - 1))
        Q = Allocation.of([tuple(x if c == out else c for c in b) for b in Q.bundles])
    return P, Q, row, tau, chores, False


@SETTINGS
@given(beyond_all_chores_case((factored_rows, factored_rows, general_rows)))
def test_reduce_factored_matches_reference_beyond_all_chores(case):
    assert outcome(reduce_factored, *case) == outcome(ref_reduce_factored, *case)


@SETTINGS
@given(beyond_all_chores_case((bivalued_rows, bivalued_rows, general_rows)))
def test_reduce_bivalued_matches_reference_beyond_all_chores(case):
    # P may hold chores of any cost, larger, between or smaller than the two
    # of all_chores, and the walk over bundle k names the same first one
    assert outcome(reduce_bivalued, *case) == outcome(ref_reduce_bivalued, *case)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_transform_mms_to_ffd_matches_reference(data):
    m = data.draw(st.integers(1, 11))
    n = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        # an MMS partition: with two close values, mu < 13/2 s (the swap path) is common
        row = data.draw(close_bivalued_rows(m))
        mms = mms_brute(row, range(m), n)
        Q, mu = Allocation.of(mms.witness), mms.value
    else:
        row = data.draw(rows(m, (close_bivalued_rows, bivalued_rows, general_rows)))
        Q = data.draw(bundles_of(list(range(m)), max_bundles=n))
        heaviest = max(sum((row[c] for c in b), F(0)) for b in Q.bundles)
        mu = data.draw(st.sampled_from([heaviest, heaviest * F(9, 10), heaviest + 1]))
    assert outcome(transform_mms_to_ffd, Q, row, mu) == outcome(ref_transform_mms_to_ffd, Q, row, mu)


# The drawn cases above stop at m = 12 and n = 4; these run at the sizes of
# the benchmark's workloads.

def benchmark_size_reductions():
    """(reduction, its reference, `certify_case`) for factored 10x100 and
    personalized bivalued 8x80 instances."""
    cases = [(reduce_factored, ref_reduce_factored,
              certify_case("factored", 10, 100, seed, levels=levels))
             for levels in (1, 2, 3) for seed in range(4)]
    cases += [(reduce_bivalued, ref_reduce_bivalued,
               certify_case("personalized_bivalued", 8, 80, seed)) for seed in range(6)]
    return cases


def test_reductions_match_reference_at_benchmark_sizes():
    for reduce, ref_reduce, case in benchmark_size_reductions():
        got = outcome(reduce, *case)
        assert got == outcome(ref_reduce, *case)
        steps, result = got[:2]
        assert result == "equal" and steps


def moved_chore(rng, alloc, drop=False):
    """`alloc` with one chore moved from one bundle to another, maybe a new
    last one; with `drop`, left out instead."""
    bundles = [list(b) for b in alloc.bundles] + [[]]
    src = rng.choice([b for b, bundle in enumerate(bundles) if bundle])
    chore = bundles[src].pop(rng.randrange(len(bundles[src])))
    if not drop:
        bundles[rng.choice([b for b in range(len(bundles)) if b != src])].append(chore)
    return Allocation.of(b for b in bundles if b)


def test_reductions_fail_as_reference_at_benchmark_sizes():
    # A Q with one chore moved is often not First-Fit-Valid; one that is
    # still reduces. The reductions that break partway, where `fail` builds
    # `final` from the worker's state, come from a P moved the same way
    # (the factored reduction breaks on some) or with a chore left out (a
    # donor runs out), with the FFD-output check off.
    rng = random.Random(17)
    seen = set()
    for reduce, ref_reduce, (P, Q, cost, tau, chores) in benchmark_size_reductions():
        for _ in range(3):
            for p, q, verify_ffd in ((P, moved_chore(rng, Q), True),
                                     (moved_chore(rng, P), Q, False),
                                     (moved_chore(rng, P, drop=True), Q, False)):
                got = outcome(reduce, p, q, cost, tau, chores, verify_ffd)
                assert got == outcome(ref_reduce, p, q, cost, tau, chores, verify_ffd)
                # an error's outcome starts with its type, a transcript's with its steps
                seen.add((reduce, got[0] if isinstance(got[0], type) else "reduced"))
    for reduce in (reduce_factored, reduce_bivalued):
        assert {(reduce, PreconditionViolation), (reduce, InvariantViolation)} <= seen


def pool_reductions():
    """(reduction, its reference, `certify_case`) for the first three
    instances of the benchmark's pools at seeds 1-3, instance k of seed s
    drawn from seed 1000 s + k: factored 10x100 on a (k + 1)-step chain, and
    personalized bivalued 8x80."""
    for seed in (1, 2, 3):
        for k in range(3):
            yield (reduce_factored, ref_reduce_factored,
                   certify_case("factored", 10, 100, 1000 * seed + k, levels=k + 1))
            yield (reduce_bivalued, ref_reduce_bivalued,
                   certify_case("personalized_bivalued", 8, 80, 1000 * seed + k))


def is_pull(step):
    """A swap in which bundle k takes one chore and gives none."""
    return step.i == step.k and step.t_i == () and len(step.t_j) == 1


def test_reductions_pull_as_reference_on_benchmark_pools():
    # most replay steps are pulls, which the worker takes in one loop
    pulls = {reduce_factored: 0, reduce_bivalued: 0}
    for reduce, ref_reduce, case in pool_reductions():
        got = outcome(reduce, *case)
        assert got == outcome(ref_reduce, *case)
        steps, result = got[:2]
        assert result == "equal"
        pulls[reduce] += sum(map(is_pull, steps))
    assert all(pulls.values())


def test_a_pull_that_runs_out_of_donors_fails_as_reference():
    # bundle 0 pulls chores 1 and 0 from bundle 1 and finds no third chore
    cost, P, Q = [F(1)] * 3, Allocation.of([(), (0, 1)]), Allocation.of([(0, 1, 2)])
    for reduce, ref_reduce in ((reduce_factored, ref_reduce_factored),
                               (reduce_bivalued, ref_reduce_bivalued)):
        got = outcome(reduce, P, Q, cost, F(3), range(3), verify_ffd=False)
        assert got == outcome(ref_reduce, P, Q, cost, F(3), range(3), verify_ffd=False)
        error, message, (steps, result, final, *_) = got
        assert (error, message) == (InvariantViolation, "no chore of cost 1 left in bundles after 0")
        assert [(s.i, s.t_i, s.j, s.t_j) for s in steps] == [(0, (), 1, (1,)), (0, (), 1, (0,))]
        assert final.bundles == ((0, 1), ())
    # at the benchmark's sizes: P without the two highest ids of the lightest
    # weight, so that the pulls of some bundle run out partway
    mid_pull = {reduce_factored: 0, reduce_bivalued: 0}
    for reduce, ref_reduce, (P, Q, cost, tau, chores) in pool_reductions():
        weights = CostRow.of(cost).weights
        gone = sorted((c for c in chores if weights[c] == min(weights)), reverse=True)[:2]
        short = Allocation.of([c for c in b if c not in gone] for b in P.bundles)
        got = outcome(reduce, short, Q, cost, tau, chores, verify_ffd=False)
        assert got == outcome(ref_reduce, short, Q, cost, tau, chores, verify_ffd=False)
        error, message, (steps, result, *_) = got
        assert error is InvariantViolation and message.startswith("no chore of cost")
        if steps and is_pull(steps[-1]) and result == f"violation k={steps[-1].k}":
            mid_pull[reduce] += 1
    assert all(mid_pull.values())


def test_transform_pulls_as_reference_on_two_valued_rows():
    # MMS partitions of two-valued rows at m <= 14, some of whose bundles
    # reach the end of their chores short of the FFD profile and pull the rest
    rows_with_pulls = 0
    for n in range(2, 9):
        for m in (10, 12, 14):
            for seed in (1, 2, 3):
                for row in gen_instance("personalized_bivalued", n, m, seed).costs:
                    mms = mms_brute(row, range(m), n)
                    Q = Allocation.of(mms.witness)
                    got = outcome(transform_mms_to_ffd, Q, row, mms.value)
                    assert got == outcome(ref_transform_mms_to_ffd, Q, row, mms.value)
                    rows_with_pulls += any(map(is_pull, got[0]))
    assert rows_with_pulls >= 20


def test_transform_mms_to_ffd_matches_reference_at_small_exact_sizes():
    # personalized bivalued rows, and two-valued factored rows as in the
    # small-exact benchmark's factored third, most of which take the swap
    # path and reach the FFD profile without a swap
    swaps = {}
    for kind, params in (("personalized_bivalued", {}), ("factored", {"levels": 1})):
        swaps[kind] = 0
        for n in range(2, 9):
            for m in (12, 13, 14):
                for seed in range(2):
                    for row in gen_instance(kind, n, m, seed, **params).costs:
                        mms = mms_brute(row, range(m), n)
                        Q = Allocation.of(mms.witness)
                        got = outcome(transform_mms_to_ffd, Q, row, mms.value)
                        assert got == outcome(ref_transform_mms_to_ffd, Q, row, mms.value)
                        steps, result = got[:2]
                        assert result == "equal"
                        swaps[kind] += len(steps)
    assert swaps["personalized_bivalued"] > 0


def parsed(parse, text):
    """The rows with their scales and weights, or the error's text and line."""
    try:
        instance = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return [(row, row.scale, row.weights) for row in instance.costs]


def instance_text(*rows, m=None):
    m = len(rows[0].split()) if m is None else m
    return f"mms-instance 1\nagents {len(rows)}\nchores {m}\n" + "\n".join(rows) + "\n"


PARSE_CASES = {
    "equal-values-as-different-texts": instance_text("2/4 1/2 1 2/4 3/6", "1/2 2/4 1/2 5 5"),
    "leading-zeros": instance_text("007 3/06 7 1/2 03/6", "0010 10 1/02 005/0010 10"),
    "4300-digit-numerator": instance_text("9" * 4300 + "/7 1 " + "9" * 4300 + "/7 2/7"),
    "4301-digit-numerator": instance_text("1 " + "9" * 4301 + " 1"),
    "bad-text-repeated": instance_text("1 2 3", "1 x 2 x"),
    "zero-repeated": instance_text("1 2 3", "0 2 0", "0 1.5 0"),
    "bad-field-after-a-zero": instance_text("1 2 3", "0 1.5 2"),
    "zero-after-a-bad-field": instance_text("1 2 3", "2/0 1 0"),
    "two-bad-fields": instance_text("1 a/b 1/2/3 a/b"),
    "short-row": instance_text("1 2 3", "1 2", m=3),
    "long-row": instance_text("1 2 3", "1 2 3 4", m=3),
    "bad-row-after-a-short-row": instance_text("1 2", "x 1 2", m=3),
    "non-ascii-digits": instance_text("1 \u0663 2"),
}


@pytest.mark.parametrize("text", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_parse_instance_matches_reference_on_edge_cases(text):
    assert parsed(parse_instance, text) == parsed(ref_parse_instance, text)


def test_parse_instance_matches_reference_on_generated_instances():
    for kind in ("factored", "bivalued", "personalized_bivalued", "general"):
        for n, m in ((5, 50), (30, 300)):
            text = format_instance(gen_instance(kind, n, m, seed=11))
            got = parsed(parse_instance, text)
            assert got == parsed(ref_parse_instance, text)
            assert len(got) == n
