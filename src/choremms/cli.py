"""Command-line front end: solve, verify, gen, table, search.

Exit codes: 0 success / all checks pass; 1 failed verification, an
incomplete packing, a capacity limit, a failed guarantee (its instance is
written to a counterexample file) or an HFFD deadlock; 2 any other error,
argparse usage errors included; 3 counterexample found by a search. Only
`main` maps an error to its code, and prints it as one `error:` line.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
import time
from fractions import Fraction

from . import analysis, mms
from .core import bundle_cost, format_rational, parse_rational
from .errors import (BadParams, ChoreMMSError, EmptyBinDeadlock, ParseError, TheoremViolation,
                     TooLarge)
from .io import format_allocation, format_instance, parse_allocation, parse_instance
from .packing import ffd, multifit

EXIT_OK, EXIT_FAILED, EXIT_INPUT, EXIT_COUNTEREXAMPLE = 0, 1, 2, 3


def rational(text: str) -> Fraction:
    """A positive `--tau` value. Decimals are rejected on purpose, since
    thresholds must be exact; argparse reports the `ValueError` of
    `parse_rational` as an invalid rational value."""
    value = parse_rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as `BadParams`, so `main` reports it like any
    other input error; subparsers inherit the class. `--help` still exits 0."""

    def error(self, message):
        raise BadParams(message)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text "
                             f"({exc.reason} at byte {exc.start})") from exc


def _write_text(path: str, text: str) -> None:
    """Write the text to the file at `path` as UTF-8, in place: an existing
    regular file is overwritten from its start and then cut at the text's
    length, never truncated to zero first. Truncating a written file to
    zero frees its blocks, and ext4 (with its default `auto_da_alloc`)
    then flushes the rewrite to disk on close. A FIFO or a device such as
    /dev/null is written and not cut. The write is not atomic."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        before = os.fstat(fd)
        view = memoryview(data)
        while view:  # a pipe may take the text in parts
            view = view[os.write(fd, view):]
        if stat.S_ISREG(before.st_mode) and before.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _report(algorithm, thresholds, instance, allocation, costs, mus, elapsed, unallocated=()):
    """Print the solve report; bundle i of the allocation is agent i's, and
    costs[i] is its cost."""
    complete = allocation.is_complete(instance.m)
    print(f"algorithm: {algorithm}")
    print("thresholds: " + " ".join(format_rational(t) for t in thresholds))
    for i, cost in enumerate(costs):
        line = f"agent {i}: cost {format_rational(cost)}"
        if mus is not None and mus[i] is not None:
            ratio = cost / mus[i] if mus[i] else Fraction(0)
            line += f" mms {format_rational(mus[i])} ratio {format_rational(ratio)}"
        print(line)
    if unallocated:
        print("unallocated: " + " ".join(str(c) for c in unallocated))
    print(f"success: {'yes' if complete else 'no'}")
    print(f"wall-time-seconds: {elapsed:.3f}")
    return complete


def _write_counterexample(exc: TheoremViolation) -> str:
    """Write the instance that broke a guarantee to a new file in the
    working directory, never over an existing one; returns its path."""
    path = f"counterexample-{int(time.time() * 1000)}.txt"
    with open(path, "x", encoding="utf-8") as fh:
        fh.write(f"# {exc}\n")
        fh.write(format_instance(exc.instance))
    return path


def cmd_solve(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    named = {"factored": mms.solve_factored,
             "bivalued": mms.solve_bivalued,
             "ordinal": mms.solve_ordinal}
    if args.algo in ("hffd", "ffd") and not args.tau:
        raise BadParams("--tau is required for ffd and hffd")
    if args.algo not in ("hffd", "ffd") and args.tau:
        raise BadParams(f"--tau is not accepted with --algo {args.algo}")
    start = time.perf_counter()
    mus = costs = None
    unallocated: tuple[int, ...] = ()
    if args.algo == "ffd":
        if len(args.tau) != 1:
            raise BadParams("ffd takes exactly one threshold")
        outcome = ffd(instance.chores(), instance.cost(0), args.tau[0], max_bins=instance.n)
        thresholds = tuple(args.tau) * instance.n
        allocation = outcome.allocation.per_agent(instance.n)
        unallocated = outcome.unallocated
    elif args.algo == "multifit":
        tau, outcome = multifit(instance.chores(), instance.cost(0), instance.n)
        thresholds = (tau,) * instance.n
        allocation = outcome.allocation.per_agent(instance.n)
        unallocated = outcome.unallocated
    elif args.algo == "hffd":
        taus = args.tau if len(args.tau) > 1 else args.tau * instance.n
        if len(taus) != instance.n:
            raise BadParams(f"hffd needs 1 or {instance.n} thresholds")
        thresholds = tuple(taus)
        allocation, unallocated = mms.hffd_and_lift(instance, thresholds)
    else:
        result = named[args.algo](instance)
        thresholds = result.thresholds
        allocation, costs = result.allocation, result.costs
        mus = result.mms_values
    elapsed = time.perf_counter() - start
    if costs is None:
        costs = tuple(bundle_cost(instance.cost(i), b) for i, b in enumerate(allocation.bundles))
    if args.out:
        _write_text(args.out, format_allocation(allocation, instance, costs))
    complete = _report(args.algo, thresholds, instance, allocation, costs, mus,
                       elapsed, unallocated)
    return EXIT_OK if complete else EXIT_FAILED


def cmd_verify(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    allocation = parse_allocation(_read_text(args.allocation), instance)
    mode = args.mode[0]
    if mode == "ratio":
        if len(args.mode) != 2:
            raise ParseError("--mode ratio needs a value, e.g. --mode ratio 15/13")
        try:
            alpha = parse_rational(args.mode[1])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if alpha == 0:
            raise ParseError("--mode ratio needs a positive value")
    elif mode in ("mms", "ordinal"):
        if len(args.mode) != 1:
            raise ParseError(f"--mode {mode} takes no value")
        alpha = Fraction(1)
    else:
        raise ParseError(f"unknown mode {mode!r}")
    try:
        d = mms._ordinal_bundles(instance.n) if mode == "ordinal" else instance.n
    except BadParams:
        raise ParseError("ordinal mode needs at least two agents") from None
    if not allocation.is_complete(instance.m):
        print("verdict: allocation is not complete")
        return EXIT_FAILED
    # An agent within alpha times the lower bound passes with no MMS
    # computed, since the bound is at most the MMS; only the others need one.
    # Every line is built before any is printed, so a capacity limit on a
    # later agent leaves no partial report.
    chores = instance.chores()
    lines, all_pass = [], True
    for i in range(instance.n):
        row = instance.cost(i)
        cost = bundle_cost(row, allocation.bundles[i])
        bound, name = alpha * row.value(mms.mms_lower_bound(row, chores, d)), "lower bound"
        if cost > bound:
            bound, name = alpha * mms.mms_value(row, chores, d), "mms"
        ok = cost <= bound
        all_pass &= ok
        lines.append(f"agent {i}: cost {format_rational(cost)} "
                     f"bound {format_rational(bound)} ({name}) {'pass' if ok else 'FAIL'}")
    print("\n".join(lines))
    return EXIT_OK if all_pass else EXIT_FAILED


def cmd_gen(args) -> int:
    instance = analysis.gen_instance(args.klass, args.n, args.m, args.seed)
    return _emit(format_instance(instance), args.out)


def cmd_table(args) -> int:
    return _emit(analysis.format_case_table(analysis.case_table()), args.out)


def _emit(text: str, out: str | None) -> int:
    """Write the text to the named file, or to stdout without one."""
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.trials < 0:
        raise BadParams("--trials must be nonnegative")
    if args.target == "monotonicity":
        hit = analysis.search_monotonicity(args.klass or "general", args.trials, args.seed)
        if hit is not None:
            text = (f"# FFD succeeds at tau={format_rational(hit.tau)} into "
                    f"{hit.bins} bins but fails at beta={format_rational(hit.beta)}\n"
                    + format_instance(hit.instance))
    else:  # mms-existence, the only other choice argparse admits
        if args.klass is not None:
            raise BadParams("--class applies only to --target monotonicity; the existence "
                            "search draws personalized bivalued instances")
        hit = analysis.search_bivalued_mms_existence(args.trials, args.seed)
        if hit is not None:
            text = ("# personalized bivalued instance with no exact MMS allocation\n"
                    + format_instance(hit))
    if hit is None:
        print("no counterexample found")
        return EXIT_OK
    path = args.out or f"{args.target}-counterexample.txt"
    _write_text(path, text)
    print(f"counterexample written to {path}")
    return EXIT_COUNTEREXAMPLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    `main` call; `parse_args` keeps no state between calls."""
    parser = _Parser(
        prog="choremms",
        description="Fair division of indivisible chores with maximin-share guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a packing algorithm or a named solver")
    p.add_argument("instance")
    p.add_argument("--algo", required=True,
                   choices=["hffd", "ffd", "multifit", "factored", "bivalued", "ordinal"])
    p.add_argument("--tau", nargs="+", type=rational,
                   help="threshold(s); required for ffd/hffd, forbidden otherwise")
    p.add_argument("--out", help="write the allocation file here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an allocation against MMS bounds")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--mode", nargs="+", required=True,
                   help="mms | ratio <p/q> | ordinal")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--class", dest="klass", required=True,
                   choices=analysis.GEN_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("table", help="print the bivalued case table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="stochastic counterexample searches")
    p.add_argument("--target", required=True, choices=["monotonicity", "mms-existence"])
    p.add_argument("--class", dest="klass", choices=analysis.GEN_KINDS,
                   help="instance class of the monotonicity search (default general)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except TheoremViolation as exc:
        try:
            note = f"counterexample written to {_write_counterexample(exc)}"
        except OSError as err:
            note = f"counterexample not written: {err}"
        message, code = f"{exc} ({note})", EXIT_FAILED
    except (TooLarge, EmptyBinDeadlock) as exc:
        # a capacity limit or a packing that cannot go on, not an input error
        message, code = str(exc), EXIT_FAILED
    except (ChoreMMSError, OSError) as exc:
        message, code = str(exc), EXIT_INPUT
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
