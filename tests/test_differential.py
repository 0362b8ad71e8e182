"""The integer packing kernels against the Fraction reference packers in
helpers.py: identical bundles, leftovers, success flags and thresholds."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from choremms.core import Allocation, Instance, to_ido
from choremms.errors import EmptyBinDeadlock
from choremms.mms import min_success_threshold, mms_factored
from choremms.packing import ffd, hffd, multifit
from helpers import (ref_ffd, ref_hffd, ref_lift, ref_min_success_threshold,
                     ref_multifit)

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


def rows(size, kinds=(factored_rows, bivalued_rows, general_rows)):
    return st.one_of(*(kind(size) for kind in kinds))


@st.composite
def row_and_chores(draw, max_m, kinds=(factored_rows, bivalued_rows, general_rows)):
    """A cost row and a nonempty subset of its chores in arbitrary order."""
    m = draw(st.integers(1, max_m))
    row = draw(rows(m, kinds))
    chores = draw(st.permutations(range(m)))
    return row, chores[:draw(st.integers(1, m))]


@st.composite
def thresholds(draw, row):
    """A positive threshold: a multiple of the largest cost (possibly below
    it), or one whose denominator the row's scale need not divide."""
    return draw(st.one_of(
        st.builds(lambda a, b: max(row) * F(a, b), st.integers(1, 40), st.integers(1, 13)),
        fractions(80, 13)))


@st.composite
def instances(draw, max_n=4, max_m=10):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    return Instance(tuple(draw(rows(m)) for _ in range(n)))


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
def test_multifit_matches_reference(data):
    row, chores = data.draw(row_and_chores(9))
    n = data.draw(st.integers(1, 4))
    tau, outcome = multifit(chores, row, n)
    assert tau == ref_multifit(chores, row, n)
    assert outcome == ref_ffd(chores, row, tau, max_bins=n)


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


@SETTINGS
@given(st.data())
def test_lift_matches_reference(data):
    instance = data.draw(instances())
    _, lifting = to_ido(instance)
    labels = data.draw(st.lists(st.integers(0, instance.n - 1),
                                min_size=instance.m, max_size=instance.m))
    bundles = [[c for c, b in enumerate(labels) if b == k] for k in range(instance.n)]
    agents = data.draw(st.permutations(range(instance.n)))
    allocation = Allocation.of(bundles, agents)
    assert lifting.lift(allocation) == ref_lift(instance, allocation)


def test_lift_ties_pick_lower_id():
    instance = Instance.from_rows([[2, 1, 1, 2], [1, 1, 1, 1]])
    _, lifting = to_ido(instance)
    allocation = Allocation.of([(0, 1), (2, 3)], agents=(0, 1))
    assert lifting.lift(allocation) == ref_lift(instance, allocation)
    assert lifting.lift(allocation).bundles == ((2, 3), (0, 1))

