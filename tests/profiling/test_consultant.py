"""Unit tests for the Index Consultant (virtual indexes)."""

import contextlib

import pytest

from repro import Server, ServerConfig
from repro.profiling import IndexConsultant, VirtualBTree


def load_sales():
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=512))
    conn = server.connect()
    conn.execute(
        "CREATE TABLE sales (id INT PRIMARY KEY, region INT, amount DOUBLE, "
        "day INT)"
    )
    server.load_table(
        "sales",
        [(i, i % 40, float(i % 997), i % 365) for i in range(20000)],
    )
    return server


@pytest.fixture(scope="module")
def server():
    """One loaded server for the module (loading takes 1.6 s): analysis
    only adds and removes virtual indexes, and a test that creates a real
    index or table does it under :func:`created`."""
    return load_sales()


@contextlib.contextmanager
def created(server, create_sql):
    """Run ``CREATE INDEX|TABLE name ...``; drop the object afterwards."""
    conn = server.connect()
    conn.execute(create_sql)
    kind, name = create_sql.split()[1:3]
    try:
        yield conn
    finally:
        conn.execute("DROP %s %s" % (kind, name))
        conn.close()


class TestVirtualBTree:
    def test_statistics_shape(self):
        virtual = VirtualBTree(table_rows=64_000, distinct_keys=1000)
        assert virtual.stats.entry_count == 64_000
        assert virtual.stats.distinct_keys == 1000
        assert virtual.stats.leaf_page_count == 1000
        assert virtual.height >= 2
        assert virtual.cached_clustering() == 0.5
        assert virtual.file.size_bytes == 0

    def test_density(self):
        virtual = VirtualBTree(1000, 100)
        assert virtual.stats.density() == pytest.approx(0.01)


class TestConsultant:
    def test_recommends_index_for_selective_predicate(self, server):
        consultant = IndexConsultant(server)
        workload = ["SELECT amount FROM sales WHERE region = 7"] * 3
        recommendations = consultant.analyze(workload)
        creates = [r for r in recommendations if r.action == "create"]
        assert creates
        assert creates[0].table_name == "sales"
        assert "region" in creates[0].column_names
        assert creates[0].benefit_us > 0

    def test_no_recommendation_for_full_scans(self, server):
        consultant = IndexConsultant(server)
        recommendations = consultant.analyze(["SELECT amount FROM sales"])
        assert [r for r in recommendations if r.action == "create"] == []

    def test_no_recommendation_when_index_exists(self, server):
        with created(server, "CREATE INDEX sales_region ON sales (region)"):
            consultant = IndexConsultant(server)
            recommendations = consultant.analyze(
                ["SELECT amount FROM sales WHERE region = 7"]
            )
        assert [r for r in recommendations if r.action == "create"] == []

    def test_composite_spec_for_eq_plus_range(self, server):
        consultant = IndexConsultant(server)
        workload = [
            "SELECT amount FROM sales WHERE region = 3 AND day > 300"
        ] * 3
        recommendations = consultant.analyze(workload)
        creates = {r.column_names for r in recommendations if r.action == "create"}
        assert ("region", "day") in creates or ("region",) in creates

    def test_virtual_indexes_removed_after_analysis(self, server):
        consultant = IndexConsultant(server)
        consultant.analyze(["SELECT amount FROM sales WHERE region = 7"])
        names = [index.name for index in server.catalog.indexes()]
        assert all(not name.startswith("virt_") for name in names)

    def test_drop_recommendation_for_unused_index(self, server):
        with created(server, "CREATE INDEX useless ON sales (amount)"):
            consultant = IndexConsultant(server)
            recommendations = consultant.analyze(
                ["SELECT COUNT(*) FROM sales WHERE day = 10"]
            )
        drops = [r for r in recommendations if r.action == "drop"]
        assert any(r.index_name == "useless" for r in drops)

    def test_used_index_not_dropped(self, server):
        with created(server, "CREATE INDEX sales_day ON sales (day)"):
            consultant = IndexConsultant(server)
            recommendations = consultant.analyze(
                ["SELECT amount FROM sales WHERE day = 10"]
            )
        drops = [r.index_name for r in recommendations if r.action == "drop"]
        assert "sales_day" not in drops

    def test_applying_recommendation_speeds_up_workload(self):
        """Closing the loop: the recommended index reduces actual cost."""
        # Its own server: it shrinks the pool and executes (so feeds back).
        server = load_sales()
        conn = server.connect()
        query = "SELECT amount FROM sales WHERE region = 7"
        consultant = IndexConsultant(server)
        recommendations = consultant.analyze([query])
        creates = [r for r in recommendations if r.action == "create"]
        assert creates
        # Time the workload before and after applying the recommendation.
        server.pool.set_capacity(64)  # keep the table from being cached
        start = server.clock.now
        conn.execute(query)
        before_us = server.clock.now - start
        best = creates[0]
        conn.execute(
            "CREATE INDEX applied ON %s (%s)"
            % (best.table_name, ", ".join(best.column_names))
        )
        server.pool.set_capacity(64)
        start = server.clock.now
        conn.execute(query)
        after_us = server.clock.now - start
        assert after_us < before_us

    def test_join_column_spec(self, server):
        with created(
            server, "CREATE TABLE region_info (rid INT, name VARCHAR(10))"
        ):
            server.load_table(
                "region_info", [(i, "r%d" % i) for i in range(40)]
            )
            consultant = IndexConsultant(server)
            recommendations = consultant.analyze([
                "SELECT r.name FROM sales s, region_info r "
                "WHERE s.region = r.rid AND s.day = 5"
            ] * 2)
        creates = {r.column_names for r in recommendations if r.action == "create"}
        # At least one useful index among day/region/rid is suggested.
        assert creates

    def test_rejects_non_select(self, server):
        consultant = IndexConsultant(server)
        with pytest.raises(ValueError):
            consultant.analyze(["DELETE FROM sales"])
