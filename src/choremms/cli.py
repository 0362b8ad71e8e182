"""Command-line front end: solve, verify, gen, table, search.

Exit codes: 0 success / all checks pass, 1 algorithmic failure or failed
verification, 2 input error, 3 counterexample found by a search.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import analysis, mms
from .core import bundle_cost, format_rational, parse_rational, to_ido
from .errors import ChoreMMSError, ParseError, TheoremViolation, TooLarge
from .io import format_allocation, format_instance, parse_allocation, parse_instance
from .packing import ffd, multifit

EXIT_OK, EXIT_FAILED, EXIT_INPUT, EXIT_COUNTEREXAMPLE = 0, 1, 2, 3


def _rational_arg(text: str) -> Fraction:
    # decimals are rejected on purpose: thresholds must be exact
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text "
                             f"({exc.reason} at byte {exc.start})") from exc


def _write_text(path: str, text: str) -> bool:
    """Write a file the user named; on failure print one error line and
    return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _report(algorithm, thresholds, instance, allocation, mus, elapsed, unallocated=()):
    """Print the solve report; bundle i of the allocation is agent i's."""
    complete = allocation.is_complete(instance.m)
    print(f"algorithm: {algorithm}")
    if thresholds:
        print("thresholds: " + " ".join(format_rational(t) for t in thresholds))
    for i in range(instance.n):
        cost = bundle_cost(instance.cost(i), allocation.bundles[i])
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
    try:
        instance = parse_instance(_read_text(args.instance))
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    named = {"factored": mms.solve_factored,
             "bivalued": mms.solve_bivalued,
             "ordinal": mms.solve_ordinal}
    if args.algo in ("hffd", "ffd") and not args.tau:
        print("error: --tau is required for ffd and hffd", file=sys.stderr)
        return EXIT_INPUT
    if args.algo not in ("hffd", "ffd") and args.tau:
        print(f"error: --tau is not accepted with --algo {args.algo}", file=sys.stderr)
        return EXIT_INPUT
    start = time.perf_counter()
    mus = None
    unallocated: tuple[int, ...] = ()
    try:
        if args.algo == "ffd":
            if len(args.tau) != 1:
                print("error: ffd takes exactly one threshold", file=sys.stderr)
                return EXIT_INPUT
            outcome = ffd(instance.chores(), instance.cost(0), args.tau[0],
                          max_bins=instance.n)
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
                print(f"error: hffd needs 1 or {instance.n} thresholds", file=sys.stderr)
                return EXIT_INPUT
            thresholds = tuple(taus)
            ido, lifting = to_ido(instance)
            allocation, unallocated = mms.hffd_and_lift(ido, lifting, thresholds)
        else:
            result = named[args.algo](instance)
            thresholds = result.thresholds
            allocation = result.allocation
            mus = result.mms_values
    except TheoremViolation as exc:
        try:
            note = f"counterexample written to {_write_counterexample(exc)}"
        except OSError as err:
            note = f"counterexample not written: {err}"
        print(f"error: {exc} ({note})", file=sys.stderr)
        return EXIT_FAILED
    except TooLarge as exc:
        # a capacity limit, not an input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ChoreMMSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - start
    if args.out and not _write_text(args.out, format_allocation(allocation, instance)):
        return EXIT_INPUT
    complete = _report(args.algo, thresholds, instance, allocation, mus,
                       elapsed, unallocated)
    return EXIT_OK if complete else EXIT_FAILED


def cmd_verify(args) -> int:
    try:
        instance = parse_instance(_read_text(args.instance))
        allocation = parse_allocation(_read_text(args.allocation), instance)
        mode = args.mode[0]
        if mode == "ratio":
            if len(args.mode) != 2:
                raise ParseError("--mode ratio needs a value, e.g. --mode ratio 15/13")
            alpha = parse_rational(args.mode[1])
        elif mode in ("mms", "ordinal"):
            if len(args.mode) != 1:
                raise ParseError(f"--mode {mode} takes no value")
            alpha = Fraction(1)
        else:
            raise ParseError(f"unknown mode {mode!r}")
        d = instance.n if mode != "ordinal" else 9 * instance.n // 11
        if d < 1:
            raise ParseError("ordinal mode needs at least two agents")
    except (OSError, ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not allocation.is_complete(instance.m):
        print("verdict: allocation is not complete")
        return EXIT_FAILED
    try:
        mus = [mms.mms_value(instance.cost(i), instance.chores(), d)
               for i in range(instance.n)]
    except TooLarge as exc:
        # a capacity limit of the exact oracle, not an input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    all_pass = True
    for i, mu in enumerate(mus):
        bound = alpha * mu
        cost = bundle_cost(instance.cost(i), allocation.bundles[i])
        ok = cost <= bound
        all_pass &= ok
        print(f"agent {i}: cost {format_rational(cost)} "
              f"bound {format_rational(bound)} {'pass' if ok else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_FAILED


def cmd_gen(args) -> int:
    try:
        instance = analysis.gen_instance(args.klass, args.n, args.m, args.seed)
    except ChoreMMSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _emit(format_instance(instance), args.out)


def cmd_table(args) -> int:
    return _emit(analysis.format_case_table(analysis.case_table()), args.out)


def _emit(text: str, out: str | None) -> int:
    """Write the text to the named file, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
    elif not _write_text(out, text):
        return EXIT_INPUT
    return EXIT_OK


def cmd_search(args) -> int:
    if args.trials < 0:
        print("error: --trials must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    if args.target == "monotonicity":
        hit = analysis.search_monotonicity(args.klass, args.trials, args.seed)
        if hit is None:
            print("no counterexample found")
            return EXIT_OK
        path = args.out or "monotonicity-counterexample.txt"
        text = (f"# FFD succeeds at tau={format_rational(hit.tau)} into "
                f"{hit.bins} bins but fails at beta={format_rational(hit.beta)}\n"
                + format_instance(hit.instance))
    elif args.target == "mms-existence":
        hit = analysis.search_bivalued_mms_existence(args.trials, args.seed)
        if hit is None:
            print("no counterexample found")
            return EXIT_OK
        path = args.out or "mms-existence-counterexample.txt"
        text = ("# personalized bivalued instance with no exact MMS allocation\n"
                + format_instance(hit))
    else:
        print(f"error: unknown target {args.target!r}", file=sys.stderr)
        return EXIT_INPUT
    if not _write_text(path, text):
        return EXIT_INPUT
    print(f"counterexample written to {path}")
    return EXIT_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choremms",
        description="Fair division of indivisible chores with maximin-share guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a packing algorithm or a named solver")
    p.add_argument("instance")
    p.add_argument("--algo", required=True,
                   choices=["hffd", "ffd", "multifit", "factored", "bivalued", "ordinal"])
    p.add_argument("--tau", nargs="+", type=_rational_arg,
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
                   choices=["factored", "bivalued", "personalized_bivalued", "general"])
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
    p.add_argument("--class", dest="klass", default="general",
                   choices=["factored", "bivalued", "personalized_bivalued", "general"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
