from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from choremms import core, io
from choremms.analysis import gen_instance
from choremms.core import Allocation, Instance
from choremms.errors import ParseError
from choremms.io import (MAX_AGENTS, format_allocation, format_instance, parse_allocation,
                         parse_instance)

INST = Instance.from_rows([[F(1, 2), 3], [2, F(5, 3)]])


def test_instance_roundtrip():
    assert parse_instance(format_instance(INST)) == INST


def test_instance_comments_and_blank_lines():
    text = "# generated\nmms-instance 1\n\nagents 1\nchores 2\n# row\n1/2 3\n"
    assert parse_instance(text) == Instance.from_rows([[F(1, 2), 3]])


def test_a_comment_may_follow_a_line_of_either_file():
    # `#` starts a comment anywhere on a line: on a header, a count, a cost
    # row, an agent line and a cost line
    text = "mms-instance 1  # v1\nagents 1\nchores 2#two\n1/2 3 # y\n"
    assert parse_instance(text) == Instance.from_rows([[F(1, 2), 3]])
    text = "agent 0: 1 # first\nagent 1: 0#\ncost 0: 3 # checked\ncost 1: 2\n"
    assert parse_allocation(text, INST).bundles == ((1,), (0,))


@pytest.mark.parametrize("text,line", [
    ("mms-instance 2\nagents 1\nchores 1\n1\n", 1),
    ("mms-instance 1\nagents 1\nchores 2\n1\n", 4),
    ("mms-instance 1\nagents 1\nchores 1\n0\n", 4),
    ("mms-instance 1\nagents 1\nchores 1\n1.5\n", 4),
    # agent counts past MAX_AGENTS; with no chores no cost row bounds them
    (f"mms-instance 1\nagents {MAX_AGENTS + 1}\nchores 0\n", 2),
    (f"mms-instance 1\nagents {10**20}\nchores 0\n", 2),
    # counts that int() cannot read: too many digits, a non-ASCII digit
    pytest.param("mms-instance 1\nagents " + "9" * 5000 + "\nchores 0\n", 2,
                 id="agents-5000-digits"),
    ("mms-instance 1\nagents 1\nchores \u00b2\n", 3),
    # digits int() reads, but not ASCII ones
    pytest.param("mms-instance 1\nagents \u0663\nchores 1\n1\n1\n1\n", 2,
                 id="agents-arabic-indic-three"),
    pytest.param("mms-instance 1\nagents 1\nchores 1\n\u0663\n", 4, id="cost-arabic-indic-three"),
])
def test_instance_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert f"line {line}" in str(exc.value)


def test_parse_reads_each_distinct_cost_text_of_an_instance_once(monkeypatch):
    instance = gen_instance("general", 6, 200, seed=3)
    text = format_instance(instance)
    calls, parse_rational = [], core.parse_rational

    def counted(field):
        calls.append(field)
        return parse_rational(field)
    for module in (core, io):
        monkeypatch.setattr(module, "parse_rational", counted)
    parsed = parse_instance(text)
    monkeypatch.undo()
    assert parsed == instance
    # the rows share one dict of parsed texts
    distinct = set(" ".join(text.splitlines()[3:]).split())
    per_row = sum(len(set(line.split())) for line in text.splitlines()[3:])
    assert sorted(calls) == sorted(distinct) and len(distinct) < per_row
    # the rows arrive scaled, so the first solve walks no Fraction again
    for row, original in zip(parsed.costs, instance.costs):
        assert {"scale", "weights"} <= vars(row).keys()
        assert (row.scale, row.weights) == (original.scale, original.weights)


def test_allocation_roundtrip():
    alloc = Allocation.of([(1,), (0,)], agents=(0, 1))
    text = format_allocation(alloc, INST)
    parsed = parse_allocation(text, INST)
    assert parsed.bundles == ((1,), (0,))


def test_allocation_format_lists_costs():
    alloc = Allocation.of([(0, 1), ()], agents=(0, 1))
    text = format_allocation(alloc, INST)
    assert "agent 0: 0 1" in text
    assert "cost 0: 7/2" in text
    assert "cost 1: 0" in text


def test_allocation_rejects_wrong_cost():
    text = "agent 0: 0\nagent 1: 1\ncost 0: 1\ncost 1: 5/3\n"
    with pytest.raises(ParseError):
        parse_allocation(text, INST)


def test_allocation_rejects_bad_ids():
    with pytest.raises(ParseError):
        parse_allocation("agent 0: 5\nagent 1:\n", INST)
    with pytest.raises(ParseError):
        parse_allocation("agent 0: 0\n", INST)


def test_instance_without_chores_roundtrips():
    empty = Instance(((), (), ()))
    text = format_instance(empty)
    assert text == "mms-instance 1\nagents 3\nchores 0\n"
    assert parse_instance(text) == empty


@pytest.mark.parametrize("text,line", [
    ("agent 0: 0 0\nagent 1: 1\n", 1),
    ("agent 0: 0\nagent 1: 0 1\n", 2),
    ("agent 0: 0\nagent 1: 1\nagent 0:\n", 3),
    ("agent 0: 0\nagent 1: 1\ncost 1: 5/3\ncost 1: 5/3\n", 4),
    # indices and ids that isdigit() accepts but int() cannot read
    ("agent 0: 0\nagent \u00b2: 1\n", 2),
    ("agent 0: 0\nagent 1: \u00b2\n", 2),
    pytest.param("agent 0: 0\nagent 1: " + "9" * 5000 + "\n", 2, id="chore-5000-digits"),
    # an id int() reads, but not an ASCII one
    pytest.param("agent 0: 0\nagent 1: \u0661\n", 2, id="chore-arabic-indic-one"),
])
def test_allocation_rejects_duplicates_with_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_allocation(text, INST)
    assert f"line {line}" in str(exc.value)


costs = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**3))


@st.composite
def instances(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    return Instance(tuple(tuple(draw(st.lists(costs, min_size=m, max_size=m)))
                          for _ in range(n)))


@given(instances())
def test_instance_format_parse_roundtrip(instance):
    assert parse_instance(format_instance(instance)) == instance


@given(st.data())
def test_allocation_format_parse_roundtrip(data):
    instance = data.draw(instances())
    bundles = max(1, data.draw(st.integers(0, 2 * instance.n)))
    labels = data.draw(st.lists(st.integers(0, bundles - 1),
                                min_size=instance.m, max_size=instance.m))
    agents = data.draw(st.lists(st.integers(0, instance.n - 1),
                                min_size=bundles, max_size=bundles))
    alloc = Allocation.of(([c for c, b in enumerate(labels) if b == k] for k in range(bundles)),
                          agents)
    text = format_allocation(alloc, instance)
    assert parse_allocation(text, instance) == alloc.per_agent(instance.n)


COST_TEXTS = ["1", "2", "3", "6", "1/2", "2/4", "3/4", "12/8", "0", "0/3", "1.5", "4/0", "x"]


def parse_rows_one_by_one(text):
    """The cost rows of a well-formed instance text, each parsed by itself
    with a dict of its own, or the message of the first error."""
    rows = []
    for lineno, line in enumerate(text.splitlines()[3:], start=4):
        try:
            rows.append(core.CostRow.parse(line.split(), {}))
        except ValueError as exc:
            return f"line {lineno}: {exc}"
    return rows


@given(st.lists(st.lists(st.sampled_from(COST_TEXTS), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_shared_parse_matches_the_rows_parsed_one_by_one(fields):
    # rows that share a dict of parsed texts give the same rows, scales,
    # weights and first error as rows parsed each by itself
    text = f"mms-instance 1\nagents {len(fields)}\nchores 3\n" + "".join(
        " ".join(row) + "\n" for row in fields)
    expected = parse_rows_one_by_one(text)
    try:
        rows = parse_instance(text).costs
    except ParseError as exc:
        assert str(exc) == expected
        return
    assert [(tuple(r), r.scale, r.weights) for r in rows] == [
        (tuple(r), r.scale, r.weights) for r in expected]
