"""Closed-loop benchmark of choremms: solve, verify and certify latency.

    python3 bench/run.py --workload factored --seed 1 --seconds 20 --trace 0

One caller runs one operation at a time on a pool of instances generated
from --seed with `analysis.gen_instance`; the next operation starts when the
previous one returns. Every output is checked after the timed loop. The
last line of stdout is one JSON object; the lines before it give every
metric by name, with its unit and sample count. --trace 1 instead runs part
of the pool once with span wrappers installed and reports per-layer counts
and times. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import glob
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
LAYERS = ("core", "packing", "mms", "ffv", "io", "cli", "analysis")

SETUP_REPEATS = 9
# the traced run covers this many pool instances, each traced and untraced
TRACE_POOL = 30
GRID_STRIDE = 7

# factored and bivalued: one solve_auto per operation, at a size where the
# per-agent threshold search (FFD probes) dominates. small-exact: the CLI
# path at m <= 14, where mms_brute, classify, argparse and io dominate.
# A run completes at least min_ops operations, so that p90 has at least ten
# samples beyond it.
WORKLOADS = {
    "factored": {"kind": "factored", "n": (10, 10), "m": (100, 100), "pool": 60,
                 "min_ops": 100},
    "bivalued": {"kind": "personalized_bivalued", "n": (8, 8), "m": (80, 80), "pool": 100,
                 "min_ops": 100},
    "small-exact": {"kind": None, "n": (3, 8), "m": (10, 14), "pool": 360, "min_ops": 100},
}
# For the benchmark's own tests. bivalued keeps m > 14 so that its
# thresholds still come from min_success_threshold.
TINY = {
    "factored": {"kind": "factored", "n": (3, 3), "m": (12, 12), "pool": 4, "min_ops": 20},
    "bivalued": {"kind": "personalized_bivalued", "n": (3, 3), "m": (16, 16), "pool": 4,
                 "min_ops": 20},
    "small-exact": {"kind": None, "n": (2, 3), "m": (5, 7), "pool": 6, "min_ops": 20},
}
# small-exact rotates over these: (generator class, CLI --algo, CLI --mode)
SMALL_EXACT_CLASSES = (
    ("factored", "factored", ["mms"]),
    ("personalized_bivalued", "bivalued", ["ratio", "15/13"]),
    ("general", "ordinal", ["ordinal"]),
)

TRACED = {
    "core": ("classify", "universal_ordering", "to_ido", "LiftingMap.lift"),
    "packing": ("ffd", "hffd"),
    "mms": ("solve_auto", "solve_factored", "solve_bivalued", "solve_ordinal",
            "mms_factored", "min_success_threshold", "mms_brute"),
    "ffv": ("is_ffv", "reduce_factored", "reduce_bivalued", "transform_mms_to_ffd"),
    "io": ("parse_instance", "format_allocation", "parse_allocation"),
    "cli": ("main",),
    "analysis": ("gen_instance",),
}
SPAN_NOTES = {
    "packing.ffd": lambda r: (r.succeeded, len(r.allocation.allocated()) + len(r.unallocated)),
    "packing.hffd": lambda r: len(r.bundles),
    "ffv.reduce_factored": lambda r: len(r.steps),
    "ffv.reduce_bivalued": lambda r: len(r.steps),
    "ffv.transform_mms_to_ffd": lambda r: len(r.steps),
}
SOLVERS = ("mms.solve_auto", "mms.solve_factored", "mms.solve_bivalued", "mms.solve_ordinal")
THRESHOLD_SEARCH = ("mms.mms_factored", "mms.min_success_threshold", "mms.mms_brute")
REDUCTIONS = ("ffv.reduce_factored", "ffv.reduce_bivalued", "ffv.transform_mms_to_ffd")
# The per-layer JSON carries the times of spans that run on every workload
# and of the phase sums. Times of the other spans are printed but left out
# of the JSON, because on a workload that never calls them they read 0 on
# every run.
TIMES_IN_JSON = ("core.classify", "core.universal_ordering", "core.to_ido",
                 "core.LiftingMap.lift", "packing.ffd", "packing.hffd",
                 "ffv.is_ffv", "analysis.gen_instance",
                 "mms.threshold", "mms.solve", "ffv.reduce")


# Times are reported at a reference CPU speed: the one at which the
# calibration kernel below takes REFERENCE_CAL_S. On a shared host the CPU
# speed a process gets moves by up to 60% within minutes. Every timed phase
# runs between two runs of the kernel and is scaled by REFERENCE_CAL_S over
# their mean time, which cancels the speed of the moment.
REFERENCE_CAL_S = 0.005
_CAL_COSTS = [Fraction(7 * i % 23 + 1, i % 3 + 1) for i in range(1, 121)]


class CheckFailed(Exception):
    """An output of the program is wrong."""


perf = time.perf_counter


def calibrate():
    """Seconds taken by a fixed first-fit-decreasing over Fractions, with
    the garbage collector off; the kernel shares no code with choremms."""
    gc.disable()
    try:
        start = perf()
        sums = []
        for c in sorted(_CAL_COSTS, reverse=True):
            for b, total in enumerate(sums):
                if total + c <= 40:
                    sums[b] = total + c
                    break
            else:
                sums.append(c)
        return perf() - start
    finally:
        gc.enable()


class PhaseClock:
    """Times phases, each between two runs of the calibration kernel; the
    run after one phase is the run before the next."""

    def __init__(self):
        self.cal = calibrate()
        self.start_op()

    def start_op(self):
        self.times, self.wall = {}, {}

    def __call__(self, phase, fn, *args):
        """fn(*args), recording its wall-clock and reference-speed seconds."""
        start = perf()
        result = fn(*args)
        elapsed = perf() - start
        cal = calibrate()
        self.wall[phase] = elapsed
        self.times[phase] = elapsed * REFERENCE_CAL_S / ((self.cal + cal) / 2)
        self.cal = cal
        return result


# ---------------------------------------------------------------- set-up

def import_program():
    """Import the package from this checkout's source tree, afresh."""
    for name in [k for k in sys.modules if k == "choremms" or k.startswith("choremms.")]:
        del sys.modules[name]
    package = importlib.import_module("choremms")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "choremms"):
        raise ImportError(f"choremms imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"choremms.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **modules)


Spec = namedtuple("Spec", "kind n m seed params algo mode")


def instance_specs(workload, sizes, seed):
    """How to generate each pool entry and, on small-exact, how to solve it."""
    # The pool walks the (n, m) grid, the three small-exact classes and,
    # for factored costs, 1-, 2- and 3-step divisibility chains, so that
    # the mix of easy and hard instances is the same for every seed; the
    # seed only draws the costs. The grid is walked with a stride coprime
    # with its size, so that the part of the pool a run reaches last is not
    # all small or all large sizes.
    grid = [(n, m) for n in range(sizes["n"][0], sizes["n"][1] + 1)
            for m in range(sizes["m"][0], sizes["m"][1] + 1)]
    assert math.gcd(GRID_STRIDE, len(grid)) == 1
    specs = []
    factored = 0
    for k in range(sizes["pool"]):
        kind, algo, mode = sizes["kind"], None, None
        if kind is None:
            kind, algo, mode = SMALL_EXACT_CLASSES[k % len(SMALL_EXACT_CLASSES)]
        params = {}
        if kind == "factored":
            params = {"levels": 1 + factored % 3}
            factored += 1
        n, m = grid[(k // 3) * GRID_STRIDE % len(grid)]
        specs.append(Spec(kind, n, m, seed * 1000 + k, params, algo, mode))
    return specs


def generate(program, specs):
    return [program.analysis.gen_instance(s.kind, s.n, s.m, s.seed, **s.params) for s in specs]


def setup(specs, write_files):
    program = import_program()
    instances = generate(program, specs)
    if write_files:
        for k, instance in enumerate(instances):
            with open(instance_path(k), "w", encoding="utf-8") as fh:
                fh.write(program.io.format_instance(instance))
    return program, instances


def instance_path(k):
    return f"instance-{k}.txt"


def allocation_path(k):
    return f"allocation-{k}.txt"


# ------------------------------------------------------------ operations

def certify(program, instance, thresholds, transform_two_valued):
    """Replay the solve's certificate and return the swap transcripts.

    HFFD again at the solve's thresholds on the IDO twin; the HFFD bins
    must be First-Fit-Valid for the last-served agent; a reduction from FFD
    at that agent's threshold to the HFFD bins; and, when asked, the MMS
    partition of each two-valued agent with mu < 13/2 s rearranged into FFD.
    """
    core, packing, ffv = program.core, program.packing, program.ffv
    ido, _lifting = core.to_ido(instance)
    packed = packing.hffd(ido, thresholds)
    if not packed.succeeded:
        raise CheckFailed(f"HFFD replay left chores {packed.unallocated} unallocated")
    chores = ido.chores()
    last = packed.allocation.agents[-1]
    cost, tau = ido.cost(last), thresholds[last]
    ok, bad = ffv.is_ffv(chores, packed.allocation, cost, tau)
    if not ok:
        raise CheckFailed(f"HFFD bin {bad} is not First-Fit-Valid for agent {last}")
    transcripts = []
    if core.is_factored_costs(cost):
        reduce = ffv.reduce_factored
    elif core.is_bivalued_costs(cost):
        reduce = ffv.reduce_bivalued
    else:
        reduce = None
    if reduce is not None:
        ffd_bins = packing.ffd(chores, cost, tau).allocation
        transcripts.append(reduce(ffd_bins, packed.allocation, cost, tau, chores))
    if transform_two_valued:
        for i in range(ido.n):
            row = ido.cost(i)
            values = set(row)
            if len(values) != 2:
                continue
            brute = program.mms.mms_brute(row, chores, ido.n)
            if brute.value < Fraction(13, 2) * min(values):
                witness = core.Allocation.of(brute.witness)
                transcripts.append(ffv.transform_mms_to_ffd(witness, row, brute.value))
    return transcripts


def op_solve_auto(program, instance, spec, k, timed):
    result = timed("solve", program.mms.solve_auto, instance)
    transcripts = timed("certify", certify, program, instance, result.thresholds, False)
    return {"thresholds": result.thresholds, "bundles": result.allocation.bundles,
            "transcripts": transcripts}


_THRESHOLDS_LINE = re.compile(r"^thresholds: (.*)$", re.MULTILINE)


def run_cli(program, out, err, argv):
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return program.cli.main(argv)


def op_cli(program, instance, spec, k, timed):
    solve_out, verify_out, errors = io.StringIO(), io.StringIO(), io.StringIO()
    solve_rc = timed("solve", run_cli, program, solve_out, errors,
                     ["solve", instance_path(k), "--algo", spec.algo, "--out", allocation_path(k)])
    verify_rc = timed("verify", run_cli, program, verify_out, errors,
                      ["verify", instance_path(k), allocation_path(k), "--mode", *spec.mode])
    if solve_rc != 0 or verify_rc != 0:
        raise CheckFailed(f"CLI exit codes solve={solve_rc} verify={verify_rc}: "
                          f"{errors.getvalue().strip()} {verify_out.getvalue().strip()}")
    match = _THRESHOLDS_LINE.search(solve_out.getvalue())
    if match is None:
        raise CheckFailed("CLI solve printed no thresholds")
    thresholds = tuple(program.core.parse_rational(t) for t in match.group(1).split())
    transcripts = timed("certify", certify, program, instance, thresholds, True)
    with open(allocation_path(k), encoding="utf-8") as fh:
        allocation_text = fh.read()
    return {"thresholds": thresholds, "allocation_text": allocation_text,
            "transcripts": transcripts}


def run_op(op, program, instances, specs, k, clock):
    """One operation; an exception is recorded as a failed operation."""
    clock.start_op()
    try:
        output = op(program, instances[k], specs[k], k, clock)
        output["transcripts"] = [t.result for t in output["transcripts"]]
        return {"k": k, "times": clock.times, "wall": clock.wall, "output": output,
                "error": None}
    except Exception as exc:  # the loop must go on; the failure is counted
        return {"k": k, "times": None, "wall": None, "output": None,
                "error": f"{type(exc).__name__}: {exc}"}


def closed_loop(op, program, instances, specs, seconds, min_ops, clock):
    """Run operations back to back until `seconds` have passed, every pool
    instance ran once and `min_ops` operations completed, or until a hard
    limit that keeps the whole run within 180 s."""
    hard_limit = 120
    records = []
    start = perf()
    while True:
        elapsed = perf() - start
        done = (len(records) >= len(instances) and elapsed >= seconds
                and len(records) >= min_ops)
        if done or elapsed >= hard_limit:
            return records
        k = len(records) % len(instances)
        records.append(run_op(op, program, instances, specs, k, clock))


# ---------------------------------------------------------------- checks

def check(program, instances, specs, records):
    """Check every recorded output; returns (failed count, messages, digest
    of the first output for each pool instance)."""
    core, mms = program.core, program.mms
    references = {}
    first = {}
    failures = []
    for rec in records:
        k = rec["k"]
        try:
            if rec["error"] is not None:
                raise CheckFailed(rec["error"])
            instance, out = instances[k], rec["output"]
            thresholds = tuple(out["thresholds"])
            if "allocation_text" in out:
                allocation = program.io.parse_allocation(out["allocation_text"], instance)
            else:
                allocation = core.Allocation.of(out["bundles"])
            bundles = tuple(tuple(sorted(b)) for b in allocation.bundles)
            if len(bundles) != instance.n or not allocation.is_complete(instance.m):
                raise CheckFailed("allocation is not complete")
            for i in range(instance.n):
                if core.bundle_cost(instance.cost(i), bundles[i]) > thresholds[i]:
                    raise CheckFailed(f"agent {i} costs more than threshold {thresholds[i]}")
            if specs[k].kind == "factored":
                if k not in references:
                    chores = instance.chores()
                    references[k] = tuple(mms.mms_factored(row, chores, instance.n).value
                                          for row in instance.costs)
                if thresholds != references[k]:
                    raise CheckFailed("a threshold differs from mms_factored of the agent's row")
            for result in out["transcripts"]:
                if result != "equal":
                    raise CheckFailed(f"certificate transcript ended in {result!r}")
            key = (tuple(core.format_rational(t) for t in thresholds), bundles)
            if first.setdefault(k, key) != key:
                raise CheckFailed(f"instance {k} gave a different result on a later run")
        except CheckFailed as exc:
            failures.append(f"instance {k}: {exc}")
    digest = hashlib.sha256(repr([first.get(k) for k in range(len(instances))]).encode())
    return len(failures), failures, digest.hexdigest()[:16]


# --------------------------------------------------------------- metrics

def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(setups, records):
    """name -> (value at reference speed, unit, samples, wall-clock value)."""
    done = [r for r in records if r["times"] is not None]
    metrics = {"setup_s": (p50([ref for ref, _ in setups]), "s", len(setups),
                           p50([wall for _, wall in setups]))}
    for phase in done[0]["times"]:
        ref = [r["times"][phase] * 1000 for r in done]
        wall = [r["wall"][phase] * 1000 for r in done]
        metrics[f"{phase}_p50_ms"] = (p50(ref), "ms", len(ref), p50(wall))
        metrics[f"{phase}_p90_ms"] = (p90(ref), "ms", len(ref), p90(wall))
    ref = sum(sum(r["times"].values()) for r in done)
    wall = sum(sum(r["wall"].values()) for r in done)
    metrics["ops_per_s"] = (len(done) / ref, "1/s", len(done), len(done) / wall)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1, None)
    return metrics


def per_layer_metrics(tracer, untraced_solve, traced_solve):
    stats, edges = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    get = {name: stats.get(name, empty) for name in names}
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (get[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (get[name]["self_s"], "s")
    for name in SOLVERS:
        metrics[f"{name}.total_s"] = (get[name]["total_s"], "s")
    probes = get["packing.ffd"]["notes"]
    metrics["packing.ffd.success_ratio"] = (
        sum(ok for ok, _ in probes) / len(probes) if probes else 0.0, "ratio")
    metrics["packing.ffd.chores"] = (sum(c for _, c in probes), "count")
    metrics["packing.hffd.bins"] = (sum(get["packing.hffd"]["notes"]), "count")
    for name in ("mms.mms_factored", "mms.min_success_threshold"):
        metrics[f"{name}.ffd_calls"] = (edges.get((name, "packing.ffd"), 0), "count")
    metrics["ffv.swap_steps"] = (sum(sum(get[n]["notes"]) for n in REDUCTIONS), "count")
    metrics["mms.threshold.self_s"] = (sum(get[n]["self_s"] for n in THRESHOLD_SEARCH), "s")
    metrics["mms.solve.self_s"] = (sum(get[n]["self_s"] for n in SOLVERS), "s")
    outermost = sum(end - start for name, start, end, parent, _op, _note in tracer.spans
                    if name in SOLVERS and (parent < 0 or tracer.spans[parent][0] not in SOLVERS))
    metrics["mms.solve.total_s"] = (outermost, "s")
    metrics["ffv.reduce.self_s"] = (sum(get[n]["self_s"] for n in REDUCTIONS), "s")
    metrics["trace.overhead_frac"] = (p50(traced_solve) / p50(untraced_solve) - 1, "frac")
    return metrics


def in_json(metric):
    """Whether a per-layer metric goes into the JSON line (see TIMES_IN_JSON)."""
    name, _, kind = metric.rpartition(".")
    return kind not in ("self_s", "total_s") or name in TIMES_IN_JSON


# ------------------------------------------------------------------ main

def traced_pass(op, program, instances, specs, clock):
    """Trace the pool's generation, then run the first TRACE_POOL pool
    instances untraced (no wrappers installed) and traced, alternating which
    goes first. Returns the traced records, the tracer and both lists of
    solve times."""
    targets = {f"{layer}.{fn}": functools.reduce(getattr, fn.split("."), getattr(program, layer))
               for layer, fns in TRACED.items() for fn in fns}
    modules = [program.package] + [getattr(program, layer) for layer in LAYERS]
    tracer = Tracer(modules, targets, SPAN_NOTES)
    tracer.install()
    try:
        regenerated = generate(program, specs)
    finally:
        tracer.uninstall()
    if regenerated != instances:
        raise CheckFailed("gen_instance is not deterministic")
    records, untraced, traced = [], [], []
    for k in range(min(TRACE_POOL, len(instances))):
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            if tracing:
                tracer.op = k
                tracer.install()
            try:
                rec = run_op(op, program, instances, specs, k, clock)
            finally:
                tracer.uninstall()
            if rec["times"] is not None:
                (traced if tracing else untraced).append(rec["times"]["solve"])
            if tracing:
                records.append(rec)
    return records, tracer, untraced, traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances and pool, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "choremms", "__init__.py")):
        print(f"error: no choremms source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sizes = (TINY if args.tiny else WORKLOADS)[args.workload]
    specs = instance_specs(args.workload, sizes, args.seed)
    small_exact = args.workload == "small-exact"
    op = op_cli if small_exact else op_solve_auto
    home = os.getcwd()
    # counterexample dumps and CLI files land in this directory, not the repo
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as work:
        os.chdir(work)
        sys.pycache_prefix = os.path.join(work, "pycache")
        try:
            clock = PhaseClock()
            setups = []
            for _ in range(SETUP_REPEATS):
                gc.collect()  # each set-up starts from a collected heap
                program, instances = clock("setup", setup, specs, small_exact)
                setups.append((clock.times["setup"], clock.wall["setup"]))
            # keep the pool out of the collector's scans, as a process
            # holding one instance would
            gc.collect()
            gc.freeze()
            if args.trace:
                records, tracer, untraced, traced = traced_pass(
                    op, program, instances, specs, clock)
            else:
                records = closed_loop(op, program, instances, specs, args.seconds,
                                      sizes["min_ops"], clock)
            failed, failures, digest = check(program, instances, specs, records)
            for dump in glob.glob("counterexample-*.txt"):
                os.makedirs(OUT_DIR, exist_ok=True)
                shutil.move(dump, os.path.join(OUT_DIR, dump))
        finally:
            os.chdir(home)
    attempted = len(records)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}{'  tiny' if args.tiny else ''}")
    print(f"host: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"{platform.system()} {platform.machine()}")
    print(f"pool: {len(instances)} instances, n in {sizes['n']}, m in {sizes['m']}")
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for message in failures[:10]:
        print(f"  FAILED {message}")
    if args.trace:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write(path)
        print(f"traced: the first {attempted} pool instances; {len(tracer.spans)} spans "
              f"written to {os.path.relpath(path, ROOT)}")
        metrics = per_layer_metrics(tracer, untraced, traced)
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit} (ops={attempted})")
        reported = {name: value for name, value in metrics.items() if in_json(name)}
    else:
        print(f"result_digest: {digest}")
        metrics = end_to_end_metrics(setups, records)
        for name, (value, unit, samples, wall) in metrics.items():
            wall = "" if wall is None else f"; wall clock {wall:.6g} {unit}"
            print(f"{name}: {value:.6g} {unit} (samples={samples}{wall})")
        reported = {name: metrics[name][:2] for name in metrics
                    if not name.startswith("verify_")}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in reported.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
