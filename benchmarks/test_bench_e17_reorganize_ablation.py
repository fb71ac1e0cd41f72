"""E17 (extension): REORGANIZE TABLE and adaptive MPL — the paper's
Section 6 research agenda, implemented and measured.

* "automatic reclustering and/or reorganization of tables and indexes":
  a fragmented table is rebuilt in index order; the index's clustering
  statistic and the clustered-query time before/after are reported;
* "dynamically changing the server's multiprogramming level in response
  to database workload": a memory-hungry workload drives the adaptive
  governor, whose level (and hence per-statement soft limit) converges.
"""

import random

from conftest import make_server, print_table


def run_reorganize_experiment():
    server = make_server(pool_pages=512)
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v DOUBLE)")
    # 2000 groups of 10 rows: after shuffling, each group's rows
    # scatter across the whole table (~1 row per 20 pages).
    rows = [(i, i % 2000, float(i)) for i in range(20000)]
    random.Random(4).shuffle(rows)  # physically fragmented
    server.load_table("t", rows)
    conn.execute("CREATE INDEX t_grp ON t (grp)")
    sql = "SELECT SUM(v) FROM t WHERE grp = 7"

    def timed_cold():
        server.pool.set_capacity(1)
        server.pool.set_capacity(512)
        start = server.clock.now
        conn.execute(sql)
        return (server.clock.now - start) / 1000.0

    index = server.catalog.index("t_grp")
    clustering_before = index.btree.clustering_fraction()
    time_before = timed_cold()
    conn.execute("REORGANIZE TABLE t ON t_grp")
    index = server.catalog.index("t_grp")
    clustering_after = index.btree.clustering_fraction()
    time_after = timed_cold()
    return [
        ("before reorganize", clustering_before, time_before),
        ("after reorganize", clustering_after, time_after),
    ]


def run_adaptive_mpl_experiment():
    from repro.buffer import BufferPool
    from repro.common import SimClock
    from repro.exec import MemoryGovernor
    from repro.storage import FlashDisk, Volume

    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
    governor = MemoryGovernor(pool, 8192, multiprogramming_level=16,
                              adaptive=True, clock=clock)
    series = []
    # Phase 1: memory-hungry statements constantly hit the soft limit.
    for window in range(3):
        for __ in range(governor.ADAPT_WINDOW):
            task = governor.begin_task()
            task.soft_limit_hits = 2
            governor.end_task(task)
        series.append((
            "hungry window %d" % (window + 1),
            governor.multiprogramming_level,
            governor.soft_limit_pages(),
        ))
    # Phase 2: light statements at high concurrency.
    for window in range(3):
        for __ in range(governor.ADAPT_WINDOW // 4):
            tasks = [governor.begin_task() for __c in range(8)]
            for task in tasks:
                governor.end_task(task)
        series.append((
            "light window %d" % (window + 1),
            governor.multiprogramming_level,
            governor.soft_limit_pages(),
        ))
    return series


def test_e17a_reorganize(once):
    rows = once(run_reorganize_experiment)
    print_table(
        "E17a (extension): REORGANIZE TABLE on a fragmented table",
        ["state", "clustering fraction", "clustered query ms (cold)"],
        rows,
    )
    before, after = rows
    assert after[1] > 0.9 > before[1]
    assert after[2] < before[2] * 0.5  # at least 2x faster


def test_e17b_adaptive_mpl(once):
    rows = once(run_adaptive_mpl_experiment)
    print_table(
        "E17b (extension): adaptive multiprogramming level",
        ["workload window", "MPL", "soft limit (pages)"],
        rows,
    )
    levels = [row[1] for row in rows]
    # Contention drives the level down (more memory per statement) ...
    assert levels[2] < 16
    # ... and light, highly concurrent work drives it back up.
    assert levels[-1] > levels[2]
