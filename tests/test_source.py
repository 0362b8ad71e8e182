"""Static checks on the package source, with the standard library's ast."""

import ast
import pathlib
import textwrap

import pytest

import code_lines

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "choremms"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. A name read only inside a
    quoted annotation counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(node, field, None)]
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: Sequence) -> 'Iterable':\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["line 2: system"]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def float_uses(source: str) -> list[str]:
    """Float literals and calls of the builtin `float` in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float(...)")
    return found


def test_float_uses_are_found():
    source = ("x = 1.5\n"
              "y = float('2')\n"
              "z = 3 / 4  # true division gives a float but is not flagged\n"
              "w = 1e3\n"
              "v = 2\n")
    assert float_uses(source) == ["line 1: literal 1.5", "line 2: float(...)",
                                  "line 4: literal 1000.0"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def called_name(call: ast.Call) -> str | None:
    """`f` for a call `f(...)` or `m.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def scaling_uses(source: str) -> list[str]:
    """Reads of `.denominator` and calls of `lcm`, bare or as `math.lcm`:
    the decision of how a row becomes integers, which only core.py makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "denominator":
            found.append(f"line {node.lineno}: .denominator")
        elif isinstance(node, ast.Call) and called_name(node) == "lcm":
            found.append(f"line {node.lineno}: lcm(...)")
    return found


def test_scaling_uses_are_found():
    source = ("import math\n"
              "from math import lcm\n"
              "d = tau.denominator\n"
              "s = math.lcm(2, 3) + lcm(4, 6)\n"
              "n = tau.numerator\n"
              "f = math.lcm\n")
    assert scaling_uses(source) == ["line 3: .denominator", "line 4: lcm(...)",
                                    "line 4: lcm(...)"]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_scales_rows(path):
    assert scaling_uses(path.read_text(encoding="utf-8")) == []


def cost_row_values(source: str) -> list[str]:
    """Functions, by name, that use the class `CostRow` as a value: call it
    or hand it on (as to `map`), rather than read one of its attributes or
    name it in an annotation. An enclosing function is named with the one
    it defines."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            skip.add(id(node.value))
        for field in ("annotation", "returns"):
            if getattr(node, field, None) is not None:
                skip.update(map(id, ast.walk(getattr(node, field))))
    return sorted({func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Name) and node.id == "CostRow" and id(node) not in skip})


def test_cost_row_values_are_found():
    source = textwrap.dedent("""\
        from choremms.core import CostRow
        def build(rows):
            return tuple(map(CostRow, rows))
        def outer(costs):
            def inner():
                return CostRow(costs)
        def checked(cost) -> CostRow:
            row: CostRow = CostRow.of(cost)
            return row
        def parse(fields, parsed: "CostRow"):
            return CostRow.parse(fields, parsed)
        """)
    assert cost_row_values(source) == ["build", "inner", "outer"]


def test_only_gen_instance_builds_cost_rows_outside_core():
    # a CostRow is a checked row: outside core only the generator, whose rows
    # hold positive Fractions by construction, builds one unchecked
    found = {path.name: cost_row_values(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "core.py"}
    assert {name: funcs for name, funcs in found.items() if funcs} == {
        "analysis.py": ["gen_instance"]}


def row_takers(source: str) -> dict[str, bool]:
    """Public module-level functions with a parameter `cost` or `values`, a
    plain row of costs, by name, each to whether it hands that parameter to
    `CostRow.of`."""
    found = {}
    for func in ast.parse(source).body:
        if isinstance(func, ast.FunctionDef) and not func.name.startswith("_"):
            params = {arg.arg for arg in func.args.args} & {"cost", "values"}
            if params:
                found[func.name] = any(
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "of" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "CostRow" and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params
                    for node in ast.walk(func))
    return found


def test_row_takers_are_found():
    source = textwrap.dedent("""\
        def checked(cost, chores):
            return CostRow.of(cost).runs(chores)
        def unchecked(chores, cost):
            return sum(cost[c] for c in chores)
        def copied(values):
            return CostRow.of(list(values))
        def no_row(chores):
            return CostRow.of(chores)
        def _private(values):
            return list(values)
        class CostRow(tuple):
            def of(cost):
                return cost
        """)
    assert row_takers(source) == {"checked": True, "unchecked": False, "copied": False}


def test_plain_rows_enter_through_cost_row_of():
    # each public function that takes a plain row hands it to CostRow.of,
    # the one cost contract, which keeps a CostRow as it is
    takers = {path.name: row_takers(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: sorted(found) for name, found in takers.items() if found} == {
        "analysis.py": ["subset_sums"],
        "core.py": ["bundle_cost", "is_bivalued_costs", "is_factored_costs"],
        "ffv.py": ["is_ffv", "reduce_bivalued", "reduce_factored", "transform_mms_to_ffd"],
        "mms.py": ["min_success_threshold", "mms_brute", "mms_factored", "mms_lower_bound",
                   "mms_value"],
        "packing.py": ["ffd", "multifit"]}
    assert [name for found in takers.values() for name, checked in found.items()
            if not checked] == []


# the parameters that the threshold contract (`CostRow.cap`) and the
# bundle-count contract (`core._bundle_count`) check
CONTRACT_PARAMETERS = {"tau", "mu", "d", "n", "bins"}


def parameter_guards(source: str) -> list[str]:
    """Comparisons of a threshold or count parameter with the constant 0
    or 1: of a name in CONTRACT_PARAMETERS, of an element of `thresholds`
    (a subscript of it, or the target of a comprehension over it), as in
    `d < 1` or `any(t <= 0 for t in thresholds)`."""
    tree = ast.parse(source)
    names = CONTRACT_PARAMETERS | {
        gen.target.id for gen in ast.walk(tree)
        if isinstance(gen, ast.comprehension) and isinstance(gen.target, ast.Name)
        and isinstance(gen.iter, ast.Name) and gen.iter.id == "thresholds"}

    def parameter(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "thresholds")

    def zero_or_one(node):
        return (isinstance(node, ast.Constant) and node.value.__class__ is int
                and node.value in (0, 1))

    found = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(parameter(a) and zero_or_one(b) or zero_or_one(a) and parameter(b)
                     for a, b in zip([node.left, *node.comparators], node.comparators))]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_parameter_guards_are_found():
    source = textwrap.dedent("""\
        def f(tau, d, thresholds, bins):
            if tau <= 0 or 1 > d:
                pass
            if any(t <= 0 for t in thresholds) or thresholds[0] == 0:
                pass
            if bins < 2 or len(thresholds) != 1 or d is None or tau <= 0.5:
                pass
            if 0 < n < 1 and mu > mu_cap and k < 1:
                pass
        """)
    assert parameter_guards(source) == [
        "line 2: tau <= 0", "line 2: 1 > d", "line 4: t <= 0",
        "line 4: thresholds[0] == 0", "line 8: 0 < n < 1"]


@pytest.mark.parametrize("name", ["packing.py", "mms.py", "ffv.py"])
def test_thresholds_and_counts_are_checked_only_by_the_contracts(name):
    # a threshold is checked where it becomes a capacity (`CostRow.cap`) and
    # a number of bundles by `core._bundle_count`: no module guards either
    assert parameter_guards((PACKAGE / name).read_text(encoding="utf-8")) == []


def calls_of(source: str, name: str) -> list[str]:
    """Calls of the function `name`, bare or as an attribute."""
    return [f"line {node.lineno}: {name}(...)" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == name]


def test_calls_of_are_found():
    source = ("from choremms import packing\n"
              "from choremms.packing import first_fit_places_all\n"
              "ok = first_fit_places_all([3, 2], 5, 1)\n"
              "probe = first_fit_places_all\n"
              "ok = packing.first_fit_places_all([3], 3, 1) or first_fit([3], 3)\n")
    assert calls_of(source, "first_fit_places_all") == [
        "line 3: first_fit_places_all(...)", "line 5: first_fit_places_all(...)"]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "packing.py"],
                         ids=lambda p: p.name)
def test_only_packing_probes_first_fit(path):
    # every threshold search goes through packing.smallest_fitting_cap
    assert calls_of(path.read_text(encoding="utf-8"), "first_fit_places_all") == []


def bisection_loops(source: str) -> list[str]:
    """`while` loops that take the middle of a range, (lo + hi) // 2."""
    return [f"line {loop.lineno}: while" for loop in ast.walk(ast.parse(source))
            if isinstance(loop, ast.While)
            and any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
                    and isinstance(node.right, ast.Constant) and node.right.value == 2
                    for node in ast.walk(loop))]


def test_bisection_loops_are_found():
    source = ("while lo < hi:\n"
              "    mid = (lo + hi) // 2\n"
              "while count:\n"
              "    half = count // 2\n"
              "    count -= half\n"
              "mid = (lo + hi) // 2\n")
    assert bisection_loops(source) == ["line 1: while"]


def test_one_bisection_loop_in_packing():
    # every threshold search bisects through packing._bisect
    loops = {path.name: bisection_loops(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: len(found) for name, found in loops.items() if found} == {"packing.py": 1}


def backward_walks(source: str) -> list[str]:
    """Functions, by name, with a `for` loop that walks down: over
    `range(start, stop, -1)` or over `reversed(...)`. An enclosing function
    is named with the one it defines."""
    def walks_down(loop):
        call = loop.iter
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            return False
        if call.func.id == "reversed":
            return True
        step = call.args[2] if call.func.id == "range" and len(call.args) == 3 else None
        return (isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub)
                and isinstance(step.operand, ast.Constant) and step.operand.value == 1)
    return sorted({func.name for func in ast.walk(ast.parse(source))
                   if isinstance(func, ast.FunctionDef)
                   for loop in ast.walk(func) if isinstance(loop, ast.For) and walks_down(loop)})


def test_backward_walks_are_found():
    source = ("def donor(runs, after):\n"
              "    for i in range(len(runs) - 1, after, -1):\n"
              "        pass\n"
              "def outer(xs):\n"
              "    def inner():\n"
              "        for x in reversed(xs):\n"
              "            pass\n"
              "def forward(xs):\n"
              "    for i in range(len(xs) - 1, 0, 1):\n"
              "        pass\n"
              "    for i in range(10, 0, -2):\n"
              "        pass\n")
    assert backward_walks(source) == ["donor", "inner", "outer"]


def test_only_find_donor_walks_the_bundles_down():
    # every donor, of a pull or of any other swap, comes from `_find_donor`'s
    # rule: the highest bundle index past k, then the highest id
    assert backward_walks((PACKAGE / "ffv.py").read_text(encoding="utf-8")) == ["_find_donor"]


def attribute_reads(source: str, function: str, attr: str) -> list[str]:
    """Reads of the attribute `attr`, as in `x.attr`, inside the function
    named `function`."""
    return [f"line {node.lineno}: .{attr}"
            for func in ast.walk(ast.parse(source))
            if isinstance(func, ast.FunctionDef) and func.name == function
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)]


def test_attribute_reads_are_found():
    source = ("def hffd(instance):\n"
              "    order, cuts = instance.blocks\n"
              "    instance.blocks = None\n"
              "def other(instance):\n"
              "    return instance.blocks\n")
    assert attribute_reads(source, "hffd", "blocks") == ["line 2: .blocks"]
    assert attribute_reads(source, "other", "cuts") == []


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_sorts_the_weight_columns(path):
    # the column sort runs only when an instance first needs its blocks;
    # to_ido sets the twin's from the rows' runs
    assert calls_of(path.read_text(encoding="utf-8"), "ido_blocks") == []


def test_hffd_reads_the_stored_blocks():
    source = (PACKAGE / "packing.py").read_text(encoding="utf-8")
    assert len(attribute_reads(source, "hffd", "blocks")) == 1
    source = (PACKAGE / "core.py").read_text(encoding="utf-8")
    assert len(attribute_reads(source, "universal_ordering", "blocks")) == 1


def callers_of(source: str, name: str) -> list[str]:
    """Functions, by name, that call the function `name`, bare or as an
    attribute. An enclosing function is named with the one it defines."""
    return sorted({func.name for func in ast.walk(ast.parse(source))
                   if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Call) and called_name(node) == name})


def test_callers_of_are_found():
    source = ("def whole(row):\n"
              "    return row.chain\n"
              "def outer(row, chores):\n"
              "    def inner():\n"
              "        return core.is_divisibility_chain(chores)\n"
              "is_divisibility_chain([1, 2])\n")
    assert callers_of(source, "is_divisibility_chain") == ["inner", "outer"]


def test_only_subset_tests_call_the_chain_test_outside_core():
    # every chain test on runs is their kept `Runs.chain`; only the test of
    # an exact subset's target, which is no run, calls it outside core
    callers = {path.name: callers_of(path.read_text(encoding="utf-8"), "is_divisibility_chain")
               for path in MODULES if path.name != "core.py"}
    assert {name: found for name, found in callers.items() if found} == {
        "ffv.py": ["_exact_subset"]}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_reads_the_kept_runs(path):
    # `CostRow.runs` alone decides when chores are all of a row's chores, so
    # it alone reads the kept runs (`CostRow.counts`) for them
    reads = [f"line {node.lineno}: .counts"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "counts"]
    assert reads == []


def test_swap_steps_are_built_only_when_read():
    # a swap appends an integer record; SwapTranscript.steps, the read path
    # of steps, dump() and equality, alone builds SwapSteps
    source = (PACKAGE / "ffv.py").read_text(encoding="utf-8")
    (read_path,) = [node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.FunctionDef) and node.name == "steps"]
    # the read path alone, at its own line numbers
    alone = "\n" * (read_path.lineno - 1) + textwrap.dedent(
        ast.get_source_segment(source, read_path, padded=True))
    assert calls_of(source, "SwapStep") == calls_of(alone, "SwapStep") != []


def floor_divisions(source: str) -> list[str]:
    """Uses of `//` and `//=`: first fit's count of the copies of a weight
    that fit the room left, room // w."""
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.FloorDiv))
    return [f"line {line}: //" for line in lines]


def test_floor_divisions_are_found():
    source = ("t = room // w\n"
              "room //= 2\n"
              "half = room / 2  # true division is not flagged\n"
              "text = '//'\n"
              "t = min(k, (room - 1) // w)\n")
    assert floor_divisions(source) == ["line 1: //", "line 2: //", "line 5: //"]


def while_loops_calling(source: str, name: str) -> list[str]:
    """The functions holding a `while` loop that calls the function `name`,
    once per loop: with `first_fit_bin`, the loops that fill bin after bin."""
    return [f"while in {function.name}" for function in ast.walk(ast.parse(source))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for loop in ast.walk(function) if isinstance(loop, ast.While)
            and any(isinstance(node, ast.Call) and called_name(node) == name
                    for node in ast.walk(loop))]


def test_while_loops_calling_are_found():
    source = textwrap.dedent("""\
        def fill(count):
            while count:
                taken = packing.first_fit_bin(count, 3)
        def once(count):
            return first_fit_bin(count, 3)
        def each(bundles):
            for b in bundles:
                first_fit_bin(b, 3)
        """)
    assert while_loops_calling(source, "first_fit_bin") == ["while in fill"]


def test_ffds_bin_loop_is_stated_once():
    # ffd and the transform both read FFD's bins from packing.first_fit_bins
    found = {p.name: while_loops_calling(p.read_text(encoding="utf-8"), "first_fit_bin")
             for p in MODULES}
    assert {name: loops for name, loops in found.items() if loops} == {
        "packing.py": ["while in first_fit_bins"]}


def test_ffv_leaves_the_bin_fill_to_packing():
    # the certificate layer fills a benchmark bin only by packing.first_fit_bin
    assert floor_divisions((PACKAGE / "ffv.py").read_text(encoding="utf-8")) == []


def stderr_uses(source: str) -> list[str]:
    """`sys.stderr` named outside a function `main`: where an error is
    printed, which in cli.py only `main` does."""
    found = []

    def visit(node, function):
        if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
                and function != "main"):
            found.append(f"line {node.lineno}: sys.stderr in {function}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), "<module>")
    return found


def test_stderr_uses_are_found():
    source = ("import sys\n"
              "def cmd(args):\n"
              "    print('error', file=sys.stderr)\n"
              "    def inner():\n"
              "        sys.stderr.write('x')\n"
              "def main(argv=None):\n"
              "    print('error', file=sys.stderr)\n"
              "sys.stderr.flush()\n")
    assert stderr_uses(source) == ["line 3: sys.stderr in cmd", "line 5: sys.stderr in inner",
                                   "line 8: sys.stderr in <module>"]


def test_only_cli_main_prints_errors():
    # cli.main is the one exit-code boundary: it alone prints the error line
    assert stderr_uses((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def write_opens(source: str) -> list[str]:
    """Opens of a file for writing, with the function they sit in: `open`
    or `fdopen` with a mode that writes (or one that is not a literal),
    `os.open` with a flag that writes (its flags listed), and
    `write_text`/`write_bytes` calls."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Call):
            name, func = called_name(node), node.func
            if (name == "open" and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id == "os"):
                flags = sorted({n.attr for arg in node.args[1:] for n in ast.walk(arg)
                                if isinstance(n, ast.Attribute)} & WRITE_FLAGS)
                if flags:
                    found.append(f"line {node.lineno}: os.open {'|'.join(flags)} in {function}")
            elif name in ("open", "fdopen"):
                modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
                mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else None
                if modes and (mode is None or set(str(mode)) & set("wax+")):
                    found.append(f"line {node.lineno}: {name} {mode!r} in {function}")
            elif name in ("write_text", "write_bytes"):
                found.append(f"line {node.lineno}: {name} in {function}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), "<module>")
    return found


def test_write_opens_are_found():
    source = ("import os\n"
              "def read(path):\n"
              "    return open(path, encoding='utf-8').read() + open(path, 'rb').read()\n"
              "def write(path, mode):\n"
              "    open(path, 'w')\n"
              "    open(path, mode=mode)\n"
              "    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)\n"
              "    os.open(path, os.O_RDONLY)\n"
              "    os.fdopen(fd, 'r+')\n"
              "path.write_text('x')\n")
    assert write_opens(source) == [
        "line 5: open 'w' in write", "line 6: open None in write",
        "line 7: os.open O_CREAT|O_TRUNC|O_WRONLY in write", "line 9: fdopen 'r+' in write",
        "line 10: write_text in <module>"]


def test_only_cli_writes_files_and_only_in_place():
    # the library writes no files; the CLI rewrites an --out file in place,
    # never truncating it to zero first, and creates a counterexample file
    found = {path.name: write_opens(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: [line.split(": ", 1)[1] for line in lines]
             for name, lines in found.items() if lines}
    assert found == {"cli.py": ["os.open O_CREAT|O_WRONLY in _write_text",
                                "open 'x' in _write_counterexample"]}


def test_code_lines_count_only_code(tmp_path, capsys):
    # tests/code_lines.py, the count a change reports: of the 17 lines below,
    # the docstrings, comment lines and blank lines are not code
    (tmp_path / "a.py").write_text(textwrap.dedent('''\
        """A module docstring
        over two lines."""

        import os  # a trailing comment

        # a comment line
        def f(x):
            """A docstring."""
            text = """a string over
        two lines"""
            return (x +
                    1)


        class C:
            \'\'\'A class docstring.\'\'\'
            y = 2
        '''), encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "     8  a.py\n     1  b.py\n     9  total\n"
