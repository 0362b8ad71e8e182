"""Instance and allocation file formats (UTF-8 text, bit-exact round-trip).

Instance file::

    mms-instance 1
    agents <n>
    chores <m>
    <m rationals>      # one line per agent, `p` or `p/q`; none when m = 0

The agent count is at most `MAX_AGENTS`. Allocation file: n lines
``agent <i>: <chore ids>`` followed by n lines ``cost <i>: <rational>``.
In both, ``#`` starts a comment that runs to the end of its line, and a
line that is blank once its comment is cut is skipped.

`parse_instance` builds each cost row once, by `core.CostRow.parse`, and
the rows share one text-to-Fraction dict: each distinct cost text of the
instance is parsed once, and each row arrives scaled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import (Allocation, CostRow, Instance, bundle_cost, format_rational,
                   parse_rational)
from .errors import ParseError

# with no chores there are no cost rows, so nothing else bounds the count
MAX_AGENTS = 10**6


def _significant_lines(text: str):
    """(line number, text before any `#`, stripped) of each line that has
    such text."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def format_instance(instance: Instance) -> str:
    lines = ["mms-instance 1", f"agents {instance.n}", f"chores {instance.m}"]
    if instance.m:
        lines.extend(" ".join(format_rational(c) for c in row) for row in instance.costs)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    lines = list(_significant_lines(text))
    if not lines or lines[0][1] != "mms-instance 1":
        lineno = lines[0][0] if lines else 1
        raise ParseError("expected header 'mms-instance 1'", lineno)
    if len(lines) < 3:
        raise ParseError("missing agents/chores declarations")
    n = _parse_count(lines[1], "agents")
    m = _parse_count(lines[2], "chores")
    if n < 1:
        raise ParseError("need at least one agent", lines[1][0])
    if n > MAX_AGENTS:
        raise ParseError(f"at most {MAX_AGENTS} agents are supported", lines[1][0])
    # with no chores a cost row would be a blank line, so none is written
    expected = n if m else 0
    if len(lines) != 3 + expected:
        raise ParseError(f"expected {expected} cost rows, found {len(lines) - 3}")
    if not m:
        return Instance(((),) * n)
    rows, parsed = [], {}
    for lineno, line in lines[3:]:
        fields = line.split()
        if len(fields) != m:
            raise ParseError(f"expected {m} costs, found {len(fields)}", lineno)
        try:
            rows.append(CostRow.parse(fields, parsed))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    # the header, the row lengths and every cost are checked above
    return Instance._trusted(tuple(rows))


def _parse_count(entry, keyword):
    lineno, line = entry
    fields = line.split()
    expected = f"expected '{keyword} <count>'"
    if len(fields) != 2 or fields[0] != keyword:
        raise ParseError(expected, lineno)
    return _parse_int(fields[1], expected, lineno)


def _parse_int(field, message, lineno):
    """The nonnegative integer a field of ASCII digits spells, else a
    ParseError with the message: `isdigit` alone also admits '²', which
    int() rejects, and '٣', which int() reads as 3, and int() reads at most
    4300 digits."""
    if not (field.isascii() and field.isdigit()):
        raise ParseError(message, lineno)
    try:
        return int(field)
    except ValueError as exc:
        raise ParseError(message, lineno) from exc


def format_allocation(allocation: Allocation, instance: Instance,
                      costs: Sequence[Fraction] | None = None) -> str:
    """n lines of bundles (bundle index i belongs to agent i unless an
    agent map is present), then n lines of per-agent costs: `costs`, agent
    i's cost at index i, when the caller has them, else computed here."""
    per_agent = allocation.per_agent(instance.n).bundles
    if costs is None:
        costs = [bundle_cost(instance.cost(i), ids) for i, ids in enumerate(per_agent)]
    lines = []
    for i, ids in enumerate(per_agent):
        lines.append(f"agent {i}: " + " ".join(str(c) for c in ids))
    for i, cost in enumerate(costs):
        lines.append(f"cost {i}: {format_rational(cost)}")
    return "\n".join(lines) + "\n"


def parse_allocation(text: str, instance: Instance) -> Allocation:
    bundles: dict[int, tuple[int, ...]] = {}
    costs: dict[int, Fraction] = {}
    placed: set[int] = set()
    for lineno, line in _significant_lines(text):
        head, _, rest = line.partition(":")
        fields = head.split()
        expected = "expected 'agent <i>:' or 'cost <i>:'"
        if len(fields) != 2:
            raise ParseError(expected, lineno)
        kind, i = fields[0], _parse_int(fields[1], expected, lineno)
        if i >= instance.n:
            raise ParseError(f"agent index {i} out of range", lineno)
        if kind == "agent":
            if i in bundles:
                raise ParseError(f"agent {i} is listed twice", lineno)
            chores = tuple(_parse_int(f, "chore ids must be nonnegative integers", lineno)
                           for f in rest.split())
            if any(c >= instance.m for c in chores):
                raise ParseError("chore id out of range", lineno)
            for c in chores:
                if c in placed:
                    raise ParseError(f"chore {c} is allocated twice", lineno)
                placed.add(c)
            bundles[i] = chores
        elif kind == "cost":
            if i in costs:
                raise ParseError(f"cost {i} is listed twice", lineno)
            try:
                costs[i] = parse_rational(rest)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        else:
            raise ParseError(f"unknown line kind {kind!r}", lineno)
    if set(bundles) != set(range(instance.n)):
        raise ParseError("allocation must list every agent exactly once")
    alloc = Allocation.of([bundles[i] for i in range(instance.n)],
                          agents=range(instance.n))
    for i, declared in costs.items():
        actual = bundle_cost(instance.cost(i), bundles[i])
        if declared != actual:
            raise ParseError(
                f"declared cost {format_rational(declared)} for agent {i} "
                f"differs from actual {format_rational(actual)}")
    return alloc
