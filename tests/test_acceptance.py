"""End-to-end acceptance checks, one per guarantee the package advertises.

Every check is exact (rational comparisons, zero tolerance) and prints a
single pass/fail line so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import random
from fractions import Fraction as F

from choremms.analysis import case_table, gen_instance, subset_sums
from choremms.core import Allocation, Instance, bundle_cost, to_ido
from choremms.ffv import is_ffv, reduce_bivalued, reduce_factored, transform_mms_to_ffd
from choremms.mms import (APPROX_RATIO, mms_brute, mms_factored,
                          solve_bivalued, solve_factored, solve_ordinal)
from choremms.packing import ffd, hffd
from helpers import (EQUAL, brute_lex_max, ffd_first_bin, lex_compare, perturb_to_ffv,
                     random_rationals, ref_benchmark_bundle)


def report(num: int, name: str, ok: bool):
    print(f"\nacceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_acceptance_01_ratio_tightness():
    row = tuple(F(x) for x in [4, 4, 4] + [3] * 9)
    ok = mms_brute(row, range(12), 3).value == 13
    for tau in (F(13), F(14), F(194, 13), F(149, 10)):
        ok &= not ffd(range(12), row, tau, max_bins=3).succeeded
    ok &= ffd(range(12), row, F(15), max_bins=3).succeeded
    report(1, "15/13 lower-bound instance", ok)


def test_acceptance_02_factored_exactness():
    rng = random.Random(0xACC2)
    ok = True
    for trial in range(500):
        n = rng.randint(2, 5)
        m = rng.randint(n, 12)
        inst = gen_instance("factored", n, m, seed=trial)
        res = solve_factored(inst)
        ok &= res.allocation.is_complete(m)
        for i in range(n):
            mu = mms_brute(inst.cost(i), inst.chores(), n).value
            ok &= res.mms_values[i] == mu
            ok &= bundle_cost(inst.cost(i), res.allocation.bundles[i]) <= mu
    report(2, "exact MMS on 500 factored instances", ok)


def test_acceptance_03_bivalued_ratio():
    rng = random.Random(0xACC3)
    ok = True
    for trial in range(500):
        n = rng.randint(2, 5)
        m = rng.randint(n, 12)
        inst = gen_instance("personalized_bivalued", n, m, seed=trial)
        res = solve_bivalued(inst)
        ok &= res.allocation.is_complete(m)
        for i in range(n):
            mu = mms_brute(inst.cost(i), inst.chores(), n).value
            ok &= bundle_cost(inst.cost(i), res.allocation.bundles[i]) \
                <= APPROX_RATIO * mu
    report(3, "15/13 bound on 500 personalized bivalued instances", ok)


def test_acceptance_04_ordinal_guarantee():
    rng = random.Random(0xACC4)
    ok = True
    for trial in range(500):
        n = rng.randint(3, 8)
        m = rng.randint(1, 12)
        inst = gen_instance("general", n, m, seed=trial)
        d = 9 * n // 11
        res = solve_ordinal(inst)
        ok &= res.allocation.is_complete(m)
        for i in range(n):
            mms_d = mms_brute(inst.cost(i), inst.chores(), d).value
            ok &= bundle_cost(inst.cost(i), res.allocation.bundles[i]) <= mms_d
    report(4, "ordinal guarantee on 500 general instances", ok)


def test_acceptance_05_ffd_equals_benchmarks():
    rng = random.Random(0xACC5)
    ok = True
    for _ in range(200):
        m = rng.randint(1, 10)
        cost = random_rationals(rng, m)
        tau = max(cost) * F(rng.randint(1, 4), rng.randint(1, 2))
        out = ffd(range(m), cost, tau)
        for k in range(len(out.bundles)):
            bench = ref_benchmark_bundle(range(m), out.bundles[:k], cost, tau)
            ok &= lex_compare(out.bundles[k], bench, cost) == EQUAL
    report(5, "FFD bins equal benchmark bundles", ok)


def test_acceptance_06_hffd_output_is_ffv():
    rng = random.Random(0xACC6)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(n, 10)
        inst, _ = to_ido(Instance(tuple(random_rationals(rng, m)
                                        for _ in range(n))))
        taus = [max(inst.cost(i)) * F(rng.randint(1, 3)) + rng.randint(0, 2)
                for i in range(n)]
        out = hffd(inst, taus)
        if not out.allocation.agents:
            continue
        last = out.allocation.agents[-1]
        cost = inst.cost(last)
        for tau in {taus[last], taus[last] / 2, min(cost)}:
            if 0 < tau <= taus[last]:
                ok &= is_ffv(range(m), out.allocation, cost, tau)[0]
    report(6, "HFFD output is First-Fit-Valid for the last agent", ok)


def test_acceptance_07_reduction_transcripts():
    ok = True
    for kind, reducer, offset in (("factored", reduce_factored, 0),
                                  ("bivalued", reduce_bivalued, 5000)):
        for trial in range(200):
            rng = random.Random(trial + offset)
            inst = gen_instance(kind, 1, rng.randint(3, 10), seed=trial + offset)
            cost = inst.cost(0)
            tau = max(cost) * rng.randint(1, 3)
            out = ffd(inst.chores(), cost, tau)
            q = perturb_to_ffv(rng, out.allocation, inst.chores(), cost, tau)
            t = reducer(out.allocation, q, cost, tau, inst.chores())
            ok &= t.result == "equal"
            ok &= all(lex_compare(t.final.bundles[k], q.bundles[k], cost) == EQUAL
                      for k in range(len(q.bundles)))
    done = 0
    trial = 0
    while done < 200:
        rng = random.Random(trial)
        n = rng.randint(2, 4)
        inst = gen_instance("bivalued", 1, rng.randint(3, 11), seed=trial + 9000)
        trial += 1
        cost = inst.cost(0)
        small = min(cost)
        res = mms_brute(cost, inst.chores(), n)
        if len(set(cost)) < 2 or res.value >= F(13, 2) * small:
            continue
        t = transform_mms_to_ffd(Allocation.of(res.witness), cost, res.value)
        ok &= t.result == "equal"
        fresh = ffd(inst.chores(), cost, APPROX_RATIO * res.value)
        ok &= fresh.succeeded
        ok &= all(lex_compare(t.final.bundles[k], b, cost) == EQUAL
                  for k, b in enumerate(fresh.bundles))
        done += 1
    report(7, "all three reductions terminate in lex-equality", ok)


def test_acceptance_08_ffd_monotonicity():
    ok = True
    for kind in ("factored", "bivalued"):
        rng = random.Random(kind)
        samples = 0
        trial = 0
        while samples < 10_000:
            inst = gen_instance(kind, 1, rng.randint(3, 10), seed=trial)
            trial += 1
            cost = inst.cost(0)
            chores = inst.chores()
            grid = [s for s in subset_sums(chores, cost) if s >= max(cost)]
            if len(grid) < 2:
                continue
            bins = rng.randint(1, 4)
            outcomes = {s: ffd(chores, cost, s, max_bins=bins).succeeded
                        for s in grid}
            for _ in range(min(10, 10_000 - samples)):
                i, j = sorted(rng.sample(range(len(grid)), 2))
                ok &= not (outcomes[grid[i]] and not outcomes[grid[j]])
                samples += 1
    report(8, "FFD monotone in the threshold (10^4 samples per class)", ok)


def test_acceptance_09_case_table():
    rows = case_table()
    by_sig = {r.signature: r for r in rows}
    ok = len(rows) == 35
    ok &= {r.signature for r in rows if r.special} == {(1, 3, 2, 0), (1, 4, 3, 0)}
    ok &= by_sig[(1, 5, 3, 0)].mu_lower > F(75, 10)
    ok &= by_sig[(1, 5, 4, 0)].mu_lower > F(66, 10)
    report(9, "case table shape and threshold citations", ok)


def test_acceptance_10_oracle_agreement():
    ok = True
    for trial in range(300):
        rng = random.Random(trial + 100_000)
        inst = gen_instance("factored", 1, rng.randint(2, 12), seed=trial)
        cost = inst.cost(0)
        d = rng.randint(1, 4)
        ok &= mms_factored(cost, inst.chores(), d).value == \
            mms_brute(cost, inst.chores(), d).value
    rng = random.Random(0xACC10)
    for _ in range(300):
        m = rng.randint(1, 12)
        cost = random_rationals(rng, m)
        tau = max(cost) * F(rng.randint(1, 3), rng.randint(1, 2))
        prefix = [tuple(rng.sample(range(m), rng.randint(0, m // 2)))]
        got = ffd_first_bin(range(m), prefix, cost, tau)
        want = brute_lex_max(range(m), prefix, cost, tau)
        ok &= lex_compare(got, want, cost) == EQUAL
    report(10, "greedy oracles agree with brute force", ok)
