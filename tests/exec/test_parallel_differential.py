"""Serial against parallel over the generated query corpus.

Under ``SET OPTION max_query_tasks = 4`` an eligible join core runs the
serial operators with its CPU charged to simulated workers, so nothing
but the clock may differ: every generated SELECT must return the same
rows in the same order, and EXPLAIN ANALYZE must show the same actual
rows and spills at every plan node.  The generated INT join columns carry
NULL fractions, so a core that paired NULL with NULL shows here; the
tight configuration makes the joins spill.
"""

import random

import pytest

from repro import Server, ServerConfig
from repro.testgen.queries import QueryGenerator
from repro.testgen.schema import SchemaGenerator

SCHEMA_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
QUERIES_PER_SEED = 60

CONFIGS = {
    "roomy": dict(start_buffer_governor=False),
    # A 64-page pool over 64 task slots: a one-page per-task soft limit.
    "tight": dict(start_buffer_governor=False, initial_pool_pages=64,
                  multiprogramming_level=64),
}


def corpus(schema_seed):
    """The seed's schema and its generated SELECTs, mixed as the
    adversarial harness mixes them."""
    schema = SchemaGenerator(schema_seed).generate()
    queries = QueryGenerator(random.Random("parallel:%d" % schema_seed), schema)
    makers = (queries.tlp_query, queries.grouped_tlp_query, queries.norec_query)
    return schema, [
        makers[index % len(makers)]().sql() for index in range(QUERIES_PER_SEED)
    ]


def run_corpus(config, schema_seed, tasks):
    """Per query: its rows, ``(node, actual rows, spills)`` per plan
    node, and whether its core ran in parallel."""
    schema, sqls = corpus(schema_seed)
    server = Server(ServerConfig(**config))
    connection = server.connect()
    for sql in schema.ddl_statements():
        connection.execute(sql)
    load_rng = random.Random("load:%d" % schema_seed)
    for sql in schema.load_statements(load_rng):
        connection.execute(sql)
    connection.execute("SET OPTION max_query_tasks = %d" % tasks)
    seen = []
    for sql in sqls:
        result = connection.execute(sql)
        actuals = []
        for node in result.plan_result.plan.walk():
            stats = result.exec_stats.lookup(node)
            actuals.append((
                node.describe(),
                None if stats is None else (stats.rows_out, stats.spill_events),
            ))
        seen.append((
            sql, result.rows, actuals, "parallel_workers" in result.notes,
        ))
    return seen


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_parallel_cores_answer_as_the_serial_plan(config):
    eligible = spills = 0
    for schema_seed in SCHEMA_SEEDS:
        serial = run_corpus(CONFIGS[config], schema_seed, 1)
        parallel = run_corpus(CONFIGS[config], schema_seed, 4)
        for before, after in zip(serial, parallel):
            sql, rows, actuals, ran_parallel = after
            assert not before[3]
            assert (rows, actuals) == (before[1], before[2]), sql
            if ran_parallel:
                eligible += 1
                spills += sum(
                    actual[1] for __, actual in actuals if actual is not None
                )
    # The corpus must exercise the parallel path, not fall back serially.
    assert eligible >= 60
    if config == "tight":
        assert spills > 0
