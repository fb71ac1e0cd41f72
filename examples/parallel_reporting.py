#!/usr/bin/env python3
"""Intra-query parallelism from SQL (paper Section 4.4).

A reporting query over a star-ish schema runs serially, then again with
``SET OPTION max_query_tasks = 8``: the hash-join core runs the same
operators, its CPU shared by 8 simulated FCFS workers while the scans
keep their sequential disk access pattern, and the answer is identical.

Run:  python examples/parallel_reporting.py
"""

from repro import Server, ServerConfig

REPORT = (
    "SELECT c.region, COUNT(*), SUM(o.amount) "
    "FROM customer c JOIN orders o ON o.cust_id = c.id "
    "GROUP BY c.region ORDER BY c.region"
)


def main():
    server = Server(ServerConfig(initial_pool_pages=4096))
    conn = server.connect()
    conn.execute(
        "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
    )
    conn.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust_id INT, amount INT)"
    )
    server.load_table(
        "customer", [(i, "region-%d" % (i % 6)) for i in range(5000)]
    )
    server.load_table(
        "orders", [(i, i % 5000, (i * 37) % 400) for i in range(60000)]
    )

    def timed():
        start = server.clock.now
        result = conn.execute(REPORT)
        return result, (server.clock.now - start) / 1000.0

    serial_result, serial_ms = timed()
    conn.execute("SET OPTION max_query_tasks = 8")
    parallel_result, parallel_ms = timed()

    print("region report (%d orders joined to %d customers):" % (60000, 5000))
    for row in parallel_result:
        print("  %-10s %6d orders   %9d total" % row)
    print()
    print("serial:    %7.1f ms of simulated time" % serial_ms)
    print("8 workers: %7.1f ms  (%.2fx speedup, join core %s us on the "
          "workers)"
          % (parallel_ms, serial_ms / parallel_ms,
             parallel_result.notes.get("parallel_wall_us")))
    print("answers identical:", serial_result.rows == parallel_result.rows)
    conn.close()


if __name__ == "__main__":
    main()
