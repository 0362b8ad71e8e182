import contextlib
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

import choremms
from choremms import analysis, core, mms
from choremms.cli import main
from choremms.core import Instance, bundle_cost, format_rational, to_ido
from choremms.errors import BadParams, EmptyBinDeadlock, NotFactored, TooLarge
from choremms.io import format_allocation, format_instance, parse_allocation, parse_instance
from choremms.packing import hffd
from helpers import (everything_to_agent_0, hffd_dropping_last_chore, ref_hffd, ref_lift,
                     ref_to_ido)

LOWER_BOUND = Instance.from_rows([[4, 4, 4] + [3] * 9] * 3)


def write_instance(tmp_path, instance, name="instance.txt"):
    path = tmp_path / name
    path.write_text(format_instance(instance))
    return str(path)


def test_solve_ffd_failing_threshold_exits_1(tmp_path, capsys):
    path = write_instance(tmp_path, LOWER_BOUND)
    assert main(["solve", path, "--algo", "ffd", "--tau", "13"]) == 1
    out = capsys.readouterr().out
    assert "success: no" in out
    assert "unallocated:" in out


def test_solve_ffd_succeeding_threshold_exits_0(tmp_path, capsys):
    path = write_instance(tmp_path, LOWER_BOUND)
    out_path = tmp_path / "alloc.txt"
    assert main(["solve", path, "--algo", "ffd", "--tau", "15",
                 "--out", str(out_path)]) == 0
    report = capsys.readouterr().out
    assert "success: yes" in report
    assert "thresholds: 15 15 15" in report
    alloc = parse_allocation(out_path.read_text(), LOWER_BOUND)
    assert alloc.is_complete(12)


def test_solve_then_verify_pipeline(tmp_path):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "personalized_bivalued", "--n", "3",
                 "--m", "8", "--seed", "5", "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", str(inst_path), "--algo", "bivalued",
                 "--out", str(alloc_path)]) == 0
    assert main(["verify", str(inst_path), str(alloc_path),
                 "--mode", "ratio", "15/13"]) == 0


def test_solve_factored_then_verify_mms(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "factored", "--n", "3", "--m", "9",
                 "--seed", "2", "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", str(inst_path), "--algo", "factored",
                 "--out", str(alloc_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst_path), str(alloc_path), "--mode", "mms"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("algo, kind, n, m", [
    ("factored", "factored", 4, 12),
    ("bivalued", "personalized_bivalued", 4, 12),
    ("ordinal", "general", 4, 12),
    ("multifit", "bivalued", 3, 10),
])
def test_solve_computes_each_bundle_cost_once(tmp_path, monkeypatch, capsys, algo, kind, n, m):
    instance = analysis.gen_instance(kind, n, m, seed=3)
    path = write_instance(tmp_path, instance)
    # every bundle cost is one `_cost_of` sum: `bundle_cost`'s, from any
    # module, and those of `_solve` and `cli`, which sum the bundles the
    # package built without it
    calls = []
    cost_of = core._cost_of

    def counted(row, bundle):
        calls.append(bundle)
        return cost_of(row, bundle)
    for module in (core, mms, choremms.cli):
        monkeypatch.setattr(module, "_cost_of", counted)
    out_path = tmp_path / "alloc.txt"
    assert main(["solve", path, "--algo", algo, "--out", str(out_path)]) == 0
    assert len(calls) == n
    monkeypatch.undo()
    # the file and the report carry each bundle's own cost
    text = out_path.read_text()
    alloc = parse_allocation(text, instance)
    assert text == format_allocation(alloc, instance)
    report = capsys.readouterr().out
    for i, bundle in enumerate(alloc.bundles):
        assert f"agent {i}: cost {format_rational(bundle_cost(instance.cost(i), bundle))}" in report


def test_solve_ordinal_then_verify(tmp_path):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "general", "--n", "4", "--m", "8",
                 "--seed", "9", "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", str(inst_path), "--algo", "ordinal",
                 "--out", str(alloc_path)]) == 0
    assert main(["verify", str(inst_path), str(alloc_path),
                 "--mode", "ordinal"]) == 0


def test_verify_rejects_bad_allocation(tmp_path, capsys):
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 1], [1, 5]]))
    alloc_path = tmp_path / "alloc.txt"
    # agent 0 takes everything: cost 6 exceeds its MMS of 5
    alloc_path.write_text("agent 0: 0 1\nagent 1:\ncost 0: 6\ncost 1: 0\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "mms"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_incomplete_allocation_exits_1(tmp_path, capsys):
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 1], [1, 5]]))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: 0\nagent 1:\ncost 0: 5\ncost 1: 0\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "mms"]) == 1
    assert "not complete" in capsys.readouterr().out


def test_malformed_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("mms-instance 1\nagents 2\nchores 2\n1 2\n1\n")
    assert main(["solve", str(path), "--algo", "multifit"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt"), "--algo", "multifit"]) == 2
    capsys.readouterr()


def test_tau_flag_validation(tmp_path, capsys):
    path = write_instance(tmp_path, LOWER_BOUND)
    assert main(["solve", path, "--algo", "ffd"]) == 2
    assert main(["solve", path, "--algo", "multifit", "--tau", "3"]) == 2
    assert main(["solve", path, "--algo", "hffd", "--tau", "3", "4"]) == 2
    capsys.readouterr()
    # argparse usage errors take the same exit and one error line, no usage block
    for argv in (["solve", path, "--algo", "ffd", "--tau", "1.5"], [],
                 ["gen", "--class", "factored", "--n", "x", "--m", "3"]):
        assert main(argv) == 2
        one_error_line(capsys)
    with pytest.raises(SystemExit) as done:  # --help is no error: usage on stdout, exit 0
        main(["solve", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: choremms solve")


def test_solve_hffd_deadlock_exits_1(tmp_path, capsys):
    # chore 0 costs 5 and 4, above tau = 2 for both agents: HFFD cannot go on,
    # an algorithmic failure like `--algo ffd --tau 2` on the same file
    path = write_instance(tmp_path, Instance.from_rows([[5, 3, 1], [4, 4, 2]]))
    assert main(["solve", path, "--algo", "hffd", "--tau", "2"]) == 1
    assert one_error_line(capsys) == (
        "error: no remaining agent can take chore 0 even into an empty bin\n")
    assert main(["solve", path, "--algo", "ffd", "--tau", "2"]) == 1
    assert "success: no" in capsys.readouterr().out


def test_solve_hffd_per_agent_thresholds(tmp_path, capsys):
    path = write_instance(tmp_path, LOWER_BOUND)
    out_path = tmp_path / "alloc.txt"
    assert main(["solve", path, "--algo", "hffd", "--tau", "15", "15", "15",
                 "--out", str(out_path)]) == 0
    alloc = parse_allocation(out_path.read_text(), LOWER_BOUND)
    for i in range(3):
        assert bundle_cost(LOWER_BOUND.cost(i), alloc.bundles[i]) <= 15
    capsys.readouterr()


def test_gen_is_deterministic_and_parses(tmp_path, capsys):
    assert main(["gen", "--class", "factored", "--n", "2", "--m", "5",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--class", "factored", "--n", "2", "--m", "5",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.n == 2 and inst.m == 5


def test_table_prints_35_data_rows(capsys):
    assert main(["table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("aq\tbq")
    assert len(lines) == 36


def test_search_monotonicity_factored_exits_0(capsys):
    assert main(["search", "--target", "monotonicity", "--class", "factored",
                 "--trials", "100", "--seed", "1"]) == 0
    assert "no counterexample" in capsys.readouterr().out


def test_search_mms_existence_exits_0(capsys):
    assert main(["search", "--target", "mms-existence", "--trials", "10",
                 "--seed", "1"]) == 0
    capsys.readouterr()


def test_search_class_reaches_only_the_monotonicity_search(capsys, monkeypatch):
    # the existence search draws personalized bivalued instances whatever
    # the class, so a class given to it is refused before any trial runs
    drawn = []
    monkeypatch.setattr(analysis, "search_monotonicity", lambda *args: drawn.append(args))
    monkeypatch.setattr(analysis, "search_bivalued_mms_existence",
                        lambda *args: drawn.append(args))
    assert main(["search", "--target", "mms-existence", "--class", "factored",
                 "--trials", "5"]) == 2
    assert one_error_line(capsys) == (
        "error: --class applies only to --target monotonicity; the existence search "
        "draws personalized bivalued instances\n")
    assert drawn == []
    assert main(["search", "--target", "monotonicity", "--trials", "5"]) == 0
    assert main(["search", "--target", "monotonicity", "--class", "factored",
                 "--trials", "5"]) == 0
    assert main(["search", "--target", "mms-existence", "--trials", "5"]) == 0
    assert capsys.readouterr().out == "no counterexample found\n" * 3
    assert drawn == [("general", 5, 0), ("factored", 5, 0), (5, 0)]


def test_gen_without_chores_then_solve(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "factored", "--n", "2", "--m", "0",
                 "--out", str(inst_path)]) == 0
    assert parse_instance(inst_path.read_text()) == Instance(((), ()))
    assert main(["solve", str(inst_path), "--algo", "factored"]) == 0
    assert "success: yes" in capsys.readouterr().out


def test_verify_past_oracle_cap_exits_1_without_traceback(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "general", "--n", "3", "--m", "16",
                 "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", str(inst_path), "--algo", "hffd", "--tau", "1000",
                 "--out", str(alloc_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst_path), str(alloc_path), "--mode", "mms"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["mms", "ordinal"])
def test_verify_factored_past_oracle_cap_exits_0(tmp_path, capsys, mode):
    # factored rows get their exact MMS from mms_factored, so m = 20 is fine
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "factored", "--n", "3", "--m", "20", "--seed", "2",
                 "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", str(inst_path), "--algo", "factored",
                 "--out", str(alloc_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst_path), str(alloc_path), "--mode", mode]) == 0
    assert capsys.readouterr().out.count(" pass\n") == 3


def test_search_rejects_negative_trials(capsys):
    assert main(["search", "--target", "monotonicity", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert "no counterexample" not in captured.out
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("n, m", [(3, 16), (30, 300)])
def test_solve_ordinal_past_oracle_cap_then_verify_exits_0(tmp_path, capsys, n, m):
    # the ordinal thresholds are lower bounds on the MMS, found with no search
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "general", "--n", str(n), "--m", str(m),
                 "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", str(inst_path), "--algo", "ordinal",
                 "--out", str(alloc_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst_path), str(alloc_path), "--mode", "ordinal"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count(" (lower bound) pass\n") == n
    assert captured.err == ""


def test_verify_ordinal_past_oracle_cap_above_the_lower_bound_exits_1(tmp_path, capsys):
    # agent 0 holds every chore, more than the lower bound, so verify needs
    # their exact MMS, which the brute-force oracle cannot give at m = 16
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "general", "--n", "3", "--m", "16",
                 "--out", str(inst_path)]) == 0
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: " + " ".join(map(str, range(16))) + "\nagent 1:\nagent 2:\n")
    capsys.readouterr()
    assert main(["verify", str(inst_path), str(alloc_path), "--mode", "ordinal"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
    assert "capped at m=14" in captured.err


def test_verify_two_valued_past_oracle_cap_reports_each_agent(tmp_path, capsys):
    # two costs that are not a chain get their exact MMS at any m, so a
    # holder of every chore above it is a FAIL line, not a capacity error
    inst_path = write_instance(tmp_path, Instance.from_rows([[7, 5] * 8] * 2))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: " + " ".join(map(str, range(16))) + "\nagent 1:\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "mms"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "agent 0: cost 96 bound 48 (mms) FAIL",
        "agent 1: cost 0 bound 48 (lower bound) pass",
    ]
    assert captured.err == ""


def test_verify_names_the_bound_each_agent_is_held_to(tmp_path, capsys):
    # three chores of cost 3 into d = 2 bundles: LB = max(3, ceil(9/2)) = 5
    # and MMS = 6, so a cost of 6 passes only against the MMS
    inst_path = write_instance(tmp_path, Instance.from_rows([[3, 3, 3]] * 2))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: 0 1\nagent 1: 2\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "mms"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "agent 0: cost 6 bound 6 (mms) pass",
        "agent 1: cost 3 bound 5 (lower bound) pass",
    ]
    alloc_path.write_text("agent 0: 0 1 2\nagent 1:\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "ratio", "4/3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "agent 0: cost 9 bound 8 (mms) FAIL",
        "agent 1: cost 0 bound 20/3 (lower bound) pass",
    ]


def test_verify_counts_each_row_once(tmp_path, capsys, monkeypatch):
    # chores of cost 5 4 3 into d = 2 bundles: LB = 6 and MMS = 7, so agent
    # 0, at cost 7, needs the branch-and-bound MMS, which reads the runs the
    # row kept for its lower bound rather than counting them again
    counted = []

    def counting(*args):
        counted.append(args)
        return Counter(*args)
    monkeypatch.setattr(core, "Counter", counting)
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 4, 3], [3, 4, 5]]))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: 1 2\nagent 1: 0\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "mms"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "agent 0: cost 7 bound 7 (mms) pass",
        "agent 1: cost 3 bound 6 (lower bound) pass",
    ]
    assert len(counted) == 2


def test_solve_hffd_failing_threshold_reports_unpacked_bins(tmp_path, capsys):
    path = write_instance(tmp_path, LOWER_BOUND)
    out_path = tmp_path / "alloc.txt"
    assert main(["solve", path, "--algo", "hffd", "--tau", "13",
                 "--out", str(out_path)]) == 1
    assert "unallocated:" in capsys.readouterr().out
    alloc = parse_allocation(out_path.read_text(), LOWER_BOUND)
    # the written bins are the HFFD bins on the twin, lifted to the original chores
    ido, lifting = to_ido(LOWER_BOUND)
    packed = hffd(ido, [F(13)] * 3).allocation.per_agent(3)
    assert alloc.bundles == lifting.lift(packed).per_agent(3).bundles
    for i, bundle in enumerate(alloc.bundles):
        assert bundle_cost(LOWER_BOUND.cost(i), bundle) <= 13


@pytest.mark.parametrize("kind", ["factored", "bivalued", "personalized_bivalued", "general"])
def test_solve_hffd_writes_the_bins_of_the_twin(tmp_path, capsys, kind):
    # the CLI builds the twin of the instance it parses; two calls on one
    # instance in memory, the second on its kept twin, and HFFD on the
    # reference twin, lifted by the reference lift, give the same bundles
    inst = analysis.gen_instance(kind, 3, 12, seed=7)
    taus = mms.solve_auto(inst).thresholds
    out_path = tmp_path / "alloc.txt"
    assert main(["solve", write_instance(tmp_path, inst), "--algo", "hffd",
                 "--tau", *map(format_rational, taus), "--out", str(out_path)]) == 0
    written = parse_allocation(out_path.read_text(), inst).bundles
    for _ in range(2):
        allocation, unallocated = mms.hffd_and_lift(inst, taus)
        assert unallocated == ()
        assert tuple(tuple(sorted(b)) for b in allocation.bundles) == written
    packed = ref_hffd(ref_to_ido(inst)[0], taus)
    assert packed.unallocated == ()
    lifted = ref_lift(inst, packed.allocation).per_agent(3)
    assert tuple(tuple(sorted(b)) for b in lifted.bundles) == written


def test_solve_hffd_leaving_chores_reports_original_costs(tmp_path, capsys):
    # HFFD on the IDO twin leaves a chore; the bundles printed and written
    # still hold original chores, each within its agent's threshold
    path = write_instance(tmp_path, Instance.from_rows([[10, 3, 2, 1], [1, 2, 3, 10]]))
    out_path = tmp_path / "alloc.txt"
    assert main(["solve", path, "--algo", "hffd", "--tau", "10", "4",
                 "--out", str(out_path)]) == 1
    out = capsys.readouterr().out
    printed = [F(line.split(": cost ")[1]) for line in out.splitlines()
               if line.startswith("agent ")]
    written = [F(line.split(": ")[1]) for line in out_path.read_text().splitlines()
               if line.startswith("cost ")]
    assert len(printed) == 2 and printed == written
    assert all(cost <= tau for cost, tau in zip(printed, (10, 4)))
    assert "unallocated: 2\n" in out


def test_solve_theorem_violation_writes_counterexample(tmp_path, monkeypatch, capsys):
    inst = Instance.from_rows([[4, 2, 2, 1, 1]] * 2)
    path = write_instance(tmp_path, inst)
    monkeypatch.setattr(mms, "hffd_slices", hffd_dropping_last_chore)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", path, "--algo", "factored"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    [dump] = tmp_path.glob("counterexample-*.txt")
    assert dump.name in err
    assert parse_instance(dump.read_text()) == inst


def test_solve_counterexample_never_overwrites(tmp_path, monkeypatch, capsys):
    path = write_instance(tmp_path, Instance.from_rows([[4, 2, 2, 1, 1]] * 2))
    monkeypatch.setattr(mms, "hffd_slices", hffd_dropping_last_chore)
    monkeypatch.setattr("choremms.cli.time.time", lambda: 1.0)
    monkeypatch.chdir(tmp_path)
    existing = tmp_path / "counterexample-1000.txt"
    existing.write_text("keep\n")
    assert main(["solve", path, "--algo", "factored"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "not written" in err
    assert existing.read_text() == "keep\n"


def test_verify_rejects_duplicate_allocation_lines(tmp_path, capsys):
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 1], [1, 5]]))
    alloc_path = tmp_path / "alloc.txt"
    for text, line in [("agent 0: 0 0\nagent 1: 1\n", 1),
                       ("agent 0: 0 1\nagent 1:\nagent 0: 1\n", 3)]:
        alloc_path.write_text(text)
        assert main(["verify", inst_path, str(alloc_path), "--mode", "mms"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {line}: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "verdict" not in captured.out


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("error, code", [
    (TooLarge("capped"), 1), (EmptyBinDeadlock(0), 1), (NotFactored("not factored"), 2),
    (BadParams("bad"), 2), (OSError("disk"), 2)],
    ids=["TooLarge", "EmptyBinDeadlock", "NotFactored", "BadParams", "OSError"])
def test_exit_code_of_each_error(tmp_path, capsys, monkeypatch, error, code):
    def raise_error(instance):
        raise error
    monkeypatch.setattr(mms, "solve_factored", raise_error)
    path = write_instance(tmp_path, LOWER_BOUND)
    assert main(["solve", path, "--algo", "factored"]) == code
    assert one_error_line(capsys) == f"error: {error}\n"


def test_factored_solve_of_a_general_instance_exits_2(tmp_path, capsys):
    path = write_instance(tmp_path, Instance.from_rows([[3, 2, 1], [1, 1, 1]]))
    assert main(["solve", path, "--algo", "factored"]) == 2
    assert one_error_line(capsys) == "error: every agent must have factored costs\n"


@pytest.mark.parametrize("count", [str(10**20), "9" * 5000], ids=["1e20", "5000-digits"])
def test_huge_agent_count_exits_2(tmp_path, capsys, count):
    path = tmp_path / "big.txt"
    path.write_text(f"mms-instance 1\nagents {count}\nchores 0\n")
    assert main(["solve", str(path), "--algo", "factored"]) == 2
    assert one_error_line(capsys).startswith("error: line 2: ")


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digit_exits_2(tmp_path, capsys, digit):
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 1], [1, 5]]))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: 1\nagent 1: 0\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "ratio", digit]) == 2
    assert one_error_line(capsys) == f"error: not a nonnegative rational: {digit!r}\n"
    bad_path = tmp_path / "bad.txt"
    bad_path.write_text(f"mms-instance 1\nagents 1\nchores 1\n{digit}\n")
    assert main(["solve", str(bad_path), "--algo", "factored"]) == 2
    assert one_error_line(capsys) == f"error: line 4: not a nonnegative rational: {digit!r}\n"


def test_rational_of_too_many_digits_exits_2(tmp_path, capsys):
    message = "numerator and denominator may have at most 4300 digits each"
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 1], [1, 5]]))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("agent 0: 1\nagent 1: 0\n")
    assert main(["verify", inst_path, str(alloc_path), "--mode", "ratio", "1" * 5000]) == 2
    assert one_error_line(capsys) == f"error: {message}\n"
    bad_path = tmp_path / "bad.txt"
    bad_path.write_text("mms-instance 1\nagents 1\nchores 1\n" + "1" * 5000 + "\n")
    assert main(["solve", str(bad_path), "--algo", "factored"]) == 2
    assert one_error_line(capsys) == f"error: line 4: {message}\n"


@pytest.mark.parametrize("n, m", [(10**20, 0), (1000, 10**6)], ids=["1e20-agents", "1e9-costs"])
def test_gen_past_its_bounds_exits_2(capsys, monkeypatch, n, m):
    monkeypatch.setattr(analysis.random, "Random", None)  # as in test_analysis
    assert main(["gen", "--class", "factored", "--n", str(n), "--m", str(m)]) == 2
    one_error_line(capsys)


@pytest.mark.parametrize("alloc", ["agent 0: 0\n", "agent 0: 0 1\n"],
                         ids=["incomplete", "complete"])
def test_verify_ordinal_single_agent_exits_2(tmp_path, capsys, alloc):
    # floor(9/11) = 0 bundles is a mode error, whatever the allocation holds
    inst_path = write_instance(tmp_path, Instance.from_rows([[5, 1]]))
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text(alloc)
    assert main(["verify", inst_path, str(alloc_path), "--mode", "ordinal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ordinal mode needs at least two agents\n"


def test_multifit_solves_general_instance_past_the_subset_sum_cap(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--class", "general", "--n", "50", "--m", "1000",
                 "--out", str(inst_path)]) == 0
    assert main(["solve", str(inst_path), "--algo", "multifit"]) == 0
    assert "success: yes" in capsys.readouterr().out


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "no-such-dir" / "x.txt")
    path = write_instance(tmp_path, LOWER_BOUND)
    assert main(["solve", path, "--algo", "multifit", "--out", missing]) == 2
    assert "no-such-dir" in one_error_line(capsys)
    assert main(["gen", "--class", "factored", "--n", "2", "--m", "3", "--out", missing]) == 2
    one_error_line(capsys)
    assert main(["table", "--out", missing]) == 2
    one_error_line(capsys)
    hit = analysis.MonotonicityCounterexample(LOWER_BOUND, 0, 3, F(13), F(14))
    monkeypatch.setattr(analysis, "search_monotonicity", lambda *args: hit)
    assert main(["search", "--target", "monotonicity", "--out", missing]) == 2
    one_error_line(capsys)
    monkeypatch.setattr(analysis, "search_bivalued_mms_existence", lambda *args: LOWER_BOUND)
    assert main(["search", "--target", "mms-existence", "--out", missing]) == 2
    one_error_line(capsys)


def test_search_writes_counterexample_file(tmp_path, capsys, monkeypatch):
    hit = analysis.MonotonicityCounterexample(LOWER_BOUND, 0, 3, F(13), F(14))
    monkeypatch.setattr(analysis, "search_monotonicity", lambda *args: hit)
    out = tmp_path / "hit.txt"
    assert main(["search", "--target", "monotonicity", "--out", str(out)]) == 3
    assert str(out) in capsys.readouterr().out
    assert parse_instance(out.read_text()) == LOWER_BOUND


@pytest.mark.parametrize("target, search, hit, name", [
    ("monotonicity", "search_monotonicity",
     analysis.MonotonicityCounterexample(LOWER_BOUND, 0, 3, F(13), F(14)),
     "monotonicity-counterexample.txt"),
    ("mms-existence", "search_bivalued_mms_existence", LOWER_BOUND,
     "mms-existence-counterexample.txt"),
])
def test_search_without_out_writes_its_default_file(tmp_path, capsys, monkeypatch, target,
                                                    search, hit, name):
    monkeypatch.setattr(analysis, search, lambda *args: hit)
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--target", target]) == 3
    assert capsys.readouterr().out == f"counterexample written to {name}\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert parse_instance((tmp_path / name).read_text()) == LOWER_BOUND


def test_gen_with_negative_chore_count_exits_2(capsys):
    assert main(["gen", "--class", "factored", "--n", "2", "--m", "-1"]) == 2
    assert one_error_line(capsys) == "error: need n >= 1 and m >= 0\n"


def test_solve_lifted_cost_over_its_threshold_writes_counterexample(tmp_path, monkeypatch,
                                                                    capsys):
    # every chore lifted to agent 0: the solve's own cost check must catch it
    inst = analysis.gen_instance("factored", 3, 12, seed=1)
    path = write_instance(tmp_path, inst)
    monkeypatch.setattr(mms, "hffd_and_lift", everything_to_agent_0)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", path, "--algo", "factored"]) == 1
    err = one_error_line(capsys)
    assert "factored: lifted cost 58 of agent 0 exceeds threshold 20" in err
    [dump] = tmp_path.glob("counterexample-*.txt")
    assert dump.name in err
    assert parse_instance(dump.read_text()) == inst


def test_non_utf8_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(format_instance(LOWER_BOUND).encode() + b"# caf\xe9\n")
    assert main(["solve", str(path), "--algo", "multifit"]) == 2
    assert "not UTF-8" in one_error_line(capsys)
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_bytes(b"\xff")
    assert main(["verify", write_instance(tmp_path, LOWER_BOUND), str(alloc_path),
                 "--mode", "mms"]) == 2
    assert "not UTF-8" in one_error_line(capsys)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = pathlib.Path(choremms.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "choremms", *args], env=env,
                              capture_output=True, text=True, timeout=60)
    done = run("gen", "--class", "factored", "--n", "2", "--m", "3", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert parse_instance(done.stdout) == analysis.gen_instance("factored", 2, 3, seed=1)
    # the exit code is the CLI's: a missing instance file is an input error
    done = run("solve", str(tmp_path / "missing.txt"), "--algo", "multifit")
    assert done.returncode == 2 and done.stderr.startswith("error:")


@pytest.mark.parametrize("alpha", ["0", "0/5"])
def test_verify_ratio_zero_exits_2(tmp_path, capsys, alpha):
    # a zero ratio is an input error, as --tau 0 is, not a failed verification
    inst_path = write_instance(tmp_path, Instance.from_rows([[1, 2], [2, 1]]))
    alloc_path = tmp_path / "alloc.txt"
    assert main(["solve", inst_path, "--algo", "factored", "--out", str(alloc_path)]) == 0
    capsys.readouterr()
    assert main(["verify", inst_path, str(alloc_path), "--mode", "ratio", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --mode ratio needs a positive value\n"


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # the parser is built once per process; no call sees another's arguments
    out_path = tmp_path / "inst.txt"
    gen = ["gen", "--class", "factored", "--n", "2", "--m", "3", "--seed", "1"]
    assert main([*gen, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["solve", str(out_path), "--algo", "ffd", "--tau", "0"]) == 2
    one_error_line(capsys)
    assert main(["gen", "--class", "factored", "--n", "x", "--m", "3"]) == 2
    one_error_line(capsys)
    assert main(gen) == 0
    assert capsys.readouterr().out == out_path.read_text()


TWO_AGENTS = "mms-instance 1\nagents 2\nchores 2\n5 1\n1 5\n"
SPLIT = "agent 0: 0\nagent 1: 1\n"


@pytest.mark.parametrize("instance, allocation, argv, message", [
    (TWO_AGENTS, None, ["--algo", "ffd", "--tau", "5", "6"], "ffd takes exactly one threshold"),
    (TWO_AGENTS, SPLIT, ["--mode", "ratio"],
     "--mode ratio needs a value, e.g. --mode ratio 15/13"),
    (TWO_AGENTS, SPLIT, ["--mode", "mms", "3"], "--mode mms takes no value"),
    (TWO_AGENTS, SPLIT, ["--mode", "best"], "unknown mode 'best'"),
    ("mms-instance 1\nagents 1\n", None, ["--algo", "factored"],
     "missing agents/chores declarations"),
    ("mms-instance 1\nagents 0\nchores 0\n", None, ["--algo", "factored"],
     "line 2: need at least one agent"),
    ("mms-instance 1\nagents 2\nchores 1\n1\n", None, ["--algo", "factored"],
     "expected 2 cost rows, found 1"),
    ("mms-instance 1\nagents 1 2\nchores 1\n1\n", None, ["--algo", "factored"],
     "line 2: expected 'agents <count>'"),
    (TWO_AGENTS, "agent: 0\n", ["--mode", "mms"],
     "line 1: expected 'agent <i>:' or 'cost <i>:'"),
    (TWO_AGENTS, SPLIT + "agent 2: 1\n", ["--mode", "mms"], "line 3: agent index 2 out of range"),
    (TWO_AGENTS, SPLIT + "cost 0: 1.5\n", ["--mode", "mms"],
     "line 3: not a nonnegative rational: ' 1.5'"),
    (TWO_AGENTS, "owner 0: 0\n", ["--mode", "mms"], "line 1: unknown line kind 'owner'"),
    ("", None, ["--algo", "factored"], "line 1: expected header 'mms-instance 1'"),
    ("# costs to follow\n\n", None, ["--algo", "factored"],
     "line 1: expected header 'mms-instance 1'"),
    ("mms-instance 1\nchores 3\nagents 1\n1 2 3\n", None, ["--algo", "factored"],
     "line 2: expected 'agents <count>'"),
    ("mms-instance 1\nagents x\nchores 1\n1\n", None, ["--algo", "factored"],
     "line 2: expected 'agents <count>'"),
    (TWO_AGENTS, "agent 0: 1 a\n", ["--mode", "mms"],
     "line 1: chore ids must be nonnegative integers"),
    ("mms-instance 1\nagents 1\nchores 1\n1/x\n", None, ["--algo", "factored"],
     "line 4: not a nonnegative rational: '1/x'"),
], ids=["ffd-two-taus", "ratio-without-value", "mms-with-value", "unknown-mode",
        "no-declarations", "no-agents", "missing-cost-row", "bad-count-line",
        "bad-allocation-line", "agent-out-of-range", "bad-declared-cost", "unknown-line-kind",
        "empty-file", "comment-only-file", "chores-where-agents-are-due", "agents-not-a-count",
        "non-integer-chore-id", "bad-cost"])
def test_input_error_exits_2_with_one_error_line(tmp_path, capsys, instance, allocation, argv,
                                                 message):
    inst_path = tmp_path / "instance.txt"
    inst_path.write_text(instance)
    if allocation is None:
        args = ["solve", str(inst_path), *argv]
    else:
        alloc_path = tmp_path / "alloc.txt"
        alloc_path.write_text(allocation)
        args = ["verify", str(inst_path), str(alloc_path), *argv]
    assert main(args) == 2
    assert one_error_line(capsys) == f"error: {message}\n"


OUT_COMMANDS = {
    "solve": lambda inst: ["solve", inst, "--algo", "bivalued"],
    "gen": lambda inst: ["gen", "--class", "general", "--n", "3", "--m", "5", "--seed", "4"],
    "table": lambda inst: ["table"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_over_a_longer_file_leaves_the_fresh_bytes(tmp_path, capsys, command):
    # --out rewrites an existing file in place and cuts it at the new length
    argv = OUT_COMMANDS[command](write_instance(tmp_path, LOWER_BOUND))
    fresh, over = tmp_path / "fresh.txt", tmp_path / "over.txt"
    assert main([*argv, "--out", str(fresh)]) == 0
    over.write_bytes(b"# stale\n" * 2000)
    assert main([*argv, "--out", str(over)]) == 0
    assert over.read_bytes() == fresh.read_bytes() != b""
    assert len(over.read_bytes()) < len(b"# stale\n" * 2000)
    capsys.readouterr()


def test_out_to_dev_null_exits_0(tmp_path, capsys):
    path = write_instance(tmp_path, LOWER_BOUND)
    assert main(["solve", path, "--algo", "bivalued", "--out", os.devnull]) == 0
    assert main(["table", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_out_to_a_fifo_writes_the_whole_text(tmp_path, capsys):
    # a FIFO is written and never cut; the text fits the pipe's buffer
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["table", "--out", str(fifo)]) == 0
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert received == analysis.format_case_table(analysis.case_table()).encode("utf-8")
    assert capsys.readouterr().err == ""


def test_out_keeps_the_mode_and_the_inode_of_an_existing_file(tmp_path, capsys):
    out, link = tmp_path / "inst.txt", tmp_path / "link.txt"
    out.write_text("# old\n" * 100)
    out.chmod(0o640)
    os.link(out, link)
    before = out.stat()
    assert main(["gen", "--class", "factored", "--n", "2", "--m", "3", "--out", str(out)]) == 0
    after = out.stat()
    assert (after.st_mode, after.st_ino, after.st_nlink) == (before.st_mode, before.st_ino, 2)
    assert link.read_bytes() == out.read_bytes() == format_instance(
        analysis.gen_instance("factored", 2, 3, 0)).encode("utf-8")
    capsys.readouterr()


@contextlib.contextmanager
def without_root_override():
    """Run the body under file-mode checks: as user 65534 (nobody) when the
    tests run as root, who may write any file; unchanged otherwise."""
    if os.geteuid() != 0:
        yield
        return
    os.seteuid(65534)
    try:
        yield
    finally:
        os.seteuid(0)


@pytest.mark.parametrize("target, reason", [("directory", "Is a directory"),
                                            ("read-only-file", "Permission denied")])
def test_out_that_cannot_be_opened_exits_2(tmp_path, capsys, monkeypatch, target, reason):
    # relative paths from the test's directory, so that a non-root user
    # needs only to search that directory, not its parents
    tmp_path.chmod(0o711)
    monkeypatch.chdir(tmp_path)
    os.chmod(write_instance(tmp_path, LOWER_BOUND), 0o644)
    if target == "directory":
        os.mkdir("out")
    else:
        pathlib.Path("out").write_text("keep\n")
        os.chmod("out", 0o444)
    for argv in (["solve", "instance.txt", "--algo", "bivalued"], ["table"]):
        with without_root_override():
            code = main([*argv, "--out", "out"])
        assert code == 2
        assert one_error_line(capsys).endswith(f"{reason}: 'out'\n")
    if target == "read-only-file":
        assert pathlib.Path("out").read_text() == "keep\n"
