"""Oracle mechanics: multisets, TLP recombination, NoREC variants."""

import random

import pytest

from repro import Server, ServerConfig
from repro.testgen import (
    QueryGenerator, SchemaGenerator, check_norec, check_tlp, multiset,
)
from repro.testgen.oracles import _tlp_aggregate, multiset_diff, result_digest
from repro.testgen.queries import GeneratedQuery

SEED = 23


@pytest.fixture()
def loaded():
    schema = SchemaGenerator(SEED).generate()
    server = Server(ServerConfig(start_buffer_governor=False))
    connection = server.connect()
    for sql in schema.ddl_statements():
        connection.execute(sql)
    for sql in schema.load_statements(random.Random("load:%d" % SEED)):
        connection.execute(sql)
    return connection, schema


def test_multiset_counts_duplicates():
    assert multiset([(1,), (1,), (2,)]) != multiset([(1,), (2,)])
    assert multiset([(1,), (2,)]) == multiset([(2,), (1,)])


def test_multiset_diff_names_both_sides():
    diff = multiset_diff(multiset([(1,), (1,)]), multiset([(1,), (2,)]))
    assert diff["missing"] == ["(1,)"]
    assert diff["extra"] == ["(2,)"]
    assert diff["expected_rows"] == 2
    assert diff["actual_rows"] == 2


def test_result_digest_is_order_insensitive():
    assert result_digest([(1,), (2,)]) == result_digest([(2,), (1,)])
    assert result_digest([(1,)]) != result_digest([(2,)])


def test_tlp_clean_on_correct_engine(loaded):
    connection, schema = loaded
    generator = QueryGenerator(random.Random("oracle:1"), schema)
    kinds = set()
    for __ in range(60):
        query = generator.tlp_query()
        kinds.add(query.kind)
        outcome = check_tlp(connection, query)
        assert outcome["violation"] is None, outcome["violation"]
    assert {"plain", "distinct", "aggregate"} <= kinds


def test_norec_clean_on_correct_engine(loaded):
    connection, schema = loaded
    generator = QueryGenerator(random.Random("oracle:2"), schema)
    for __ in range(25):
        query = generator.norec_query()
        outcome = check_norec(connection, query)
        assert outcome["violation"] is None, outcome["violation"]


def test_tlp_outcome_digest_is_stable(loaded):
    connection, schema = loaded
    generator = QueryGenerator(random.Random("oracle:3"), schema)
    query = generator.tlp_query()
    first = check_tlp(connection, query)
    second = check_tlp(connection, query)
    assert first == second


def test_grouped_tlp_clean_on_correct_engine(loaded):
    connection, schema = loaded
    generator = QueryGenerator(random.Random("oracle:4"), schema)
    groups = 0
    for __ in range(30):
        query = generator.grouped_tlp_query()
        assert query.group_by and query.shape.endswith("+group")
        outcome = check_tlp(connection, query)
        assert outcome["violation"] is None, outcome["violation"]
        groups += outcome["rows"]
    assert groups > 60


GROUPED = GeneratedQuery(
    "aggregate", "a.g, COUNT(*), SUM(a.x), MIN(a.x), MAX(a.x)", "t a", "a.x > 0",
    agg_funcs=[("COUNT", "*"), ("SUM", "a.x"), ("MIN", "a.x"),
               ("MAX", "a.x")],
    group_by="a.g",
)
#: ``t(g, x)`` = (1, 2) (1, -1) (None, 5) (2, None): whole, then the
#: ``x > 0`` / ``NOT`` / ``IS NULL`` partitions, grouped on ``g``.
WHOLE = [(1, 2, 1, -1, 2), (None, 1, 5, 5, 5), (2, 1, None, None, None)]
PARTS = [
    [(1, 1, 2, 2, 2), (None, 1, 5, 5, 5)],
    [(1, 1, -1, -1, -1)],
    [(2, 1, None, None, None)],
]


def test_grouped_tlp_recombines_group_by_group():
    assert _tlp_aggregate(GROUPED, WHOLE, PARTS) is None


@pytest.mark.parametrize("plant, group", [
    # a group's SUM off by one in one partition
    (lambda whole, parts: parts[0].__setitem__(0, (1, 1, 3, 2, 2)), "(1,)"),
    # MIN of the NULL-key group wrong in the whole
    (lambda whole, parts: whole.__setitem__(1, (None, 1, 5, 4, 5)),
     "(None,)"),
    # a group no partition found
    (lambda whole, parts: parts[2].clear(), "(2,)"),
    # a group the whole lacks
    (lambda whole, parts: parts[1].append((7, 1, 1, 1, 1)), "(7,)"),
    # a NULL key folded into another group
    (lambda whole, parts: parts[0].__setitem__(1, (1, 1, 5, 5, 5)),
     "(1,)"),
])
def test_grouped_tlp_catches_a_planted_violation(plant, group):
    whole = list(WHOLE)
    parts = [list(rows) for rows in PARTS]
    plant(whole, parts)
    violation = _tlp_aggregate(GROUPED, whole, parts)
    assert violation is not None and violation["group"] == group
