"""Unit + property tests for the disk-based extensible hash table."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.storage import FlashDisk, Volume
from repro.storage.exthash import ExtensibleHashTable, stable_hash


def make_table(bucket_capacity=4, pool_pages=256):
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 500_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=pool_pages)
    return ExtensibleHashTable(
        volume.create_file("hash"), pool, bucket_capacity=bucket_capacity
    ), pool


class TestBasics:
    def test_put_get(self):
        table, __ = make_table()
        table.put("k", "v")
        assert table.get("k") == "v"
        assert "k" in table
        assert len(table) == 1

    def test_get_missing_default(self):
        table, __ = make_table()
        assert table.get("ghost") is None
        assert table.get("ghost", 7) == 7
        assert "ghost" not in table

    def test_overwrite_keeps_count(self):
        table, __ = make_table()
        table.put("k", 1)
        table.put("k", 2)
        assert table.get("k") == 2
        assert len(table) == 1

    def test_remove(self):
        table, __ = make_table()
        table.put("k", 1)
        assert table.remove("k") == 1
        assert "k" not in table
        assert len(table) == 0

    def test_remove_missing_raises(self):
        table, __ = make_table()
        with pytest.raises(KeyError):
            table.remove("nope")

    def test_bucket_capacity_validation(self):
        clock = SimClock()
        volume = Volume(FlashDisk(clock, 1000))
        pool = BufferPool(volume.create_file("t"), 16)
        with pytest.raises(ValueError):
            ExtensibleHashTable(volume.create_file("h"), pool, bucket_capacity=1)


class TestGrowth:
    def test_directory_doubles_under_load(self):
        table, __ = make_table(bucket_capacity=4)
        assert table.directory_size == 1
        for i in range(200):
            table.put(i, i * 10)
        assert table.directory_size > 1
        assert table.bucket_pages > 1
        for i in range(200):
            assert table.get(i) == i * 10

    def test_no_configured_limit(self):
        """The paper's point: no lock-table size to tune — just grow."""
        table, pool = make_table(bucket_capacity=16, pool_pages=64)
        n = 5000
        for i in range(n):
            table.put(("tbl", i), "txn-1")
        assert len(table) == n
        # The structure outgrew the pool: buckets spilled to disk and come
        # back correct.
        assert table.bucket_pages > pool.capacity_pages / 2
        sample = random.Random(0).sample(range(n), 50)
        assert all(table.get(("tbl", i)) == "txn-1" for i in sample)

    def test_items_iterates_everything(self):
        table, __ = make_table(bucket_capacity=4)
        expected = {}
        for i in range(100):
            table.put(i, -i)
            expected[i] = -i
        assert dict(table.items()) == expected

    def test_mixed_churn(self):
        table, __ = make_table(bucket_capacity=4)
        rng = random.Random(1)
        model = {}
        for step in range(2000):
            key = rng.randrange(200)
            if rng.random() < 0.6:
                table.put(key, step)
                model[key] = step
            elif key in model:
                assert table.remove(key) == model.pop(key)
        assert dict(table.items()) == model
        assert len(table) == len(model)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from("pr"), st.integers(min_value=0, max_value=50)),
    max_size=200,
))
def test_property_matches_dict_model(operations):
    table, __ = make_table(bucket_capacity=3)
    model = {}
    for op, key in operations:
        if op == "p":
            table.put(key, key * 7)
            model[key] = key * 7
        elif key in model:
            table.remove(key)
            del model[key]
    assert dict(table.items()) == model
    for key in range(51):
        assert table.get(key) == model.get(key)


class TestPlacementIsSaltIndependent:
    """Bucket placement decides which pool pages a lock lands on, hence
    pool misses and simulated time — it must not depend on the
    interpreter's per-process ``str`` hash salt."""

    def test_numeric_keys_that_compare_equal_still_collide(self):
        assert stable_hash((1, "t")) == stable_hash((1.0, "t"))
        table, __ = make_table()
        table.put(("t", 1, 0), "x")
        assert table.get(("t", 1.0, 0)) == "x"

    def test_simulated_clock_is_the_same_under_two_hash_salts(self):
        # Lock-table keys are (table_name, page, slot): 500-row INSERTs
        # against a 16-page pool split lock buckets and evict them.
        script = (
            "from repro import Server, ServerConfig\n"
            "server = Server(ServerConfig(start_buffer_governor=False,"
            " initial_pool_pages=16))\n"
            "conn = server.connect()\n"
            "conn.execute('CREATE TABLE t (id INT PRIMARY KEY, v INT)')\n"
            "for b in range(6):\n"
            "    conn.execute('INSERT INTO t VALUES ' + ', '.join("
            "'(%d, %d)' % (b * 500 + i, i % 13) for i in range(500)))\n"
            "print(server.clock.now, server.pool.misses)\n"
        )
        outputs = set()
        for salt in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=salt)
            env.pop("REPRO_FAULTS", None)
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outputs) == 1, outputs
