"""Unit tests for the plan cache (training period + decaying verification)."""

from repro import Server, ServerConfig
from repro.optimizer import PlanCache
from repro.optimizer.plancache import plan_signature


class FakeResult:
    def __init__(self, signature):
        self.signature = signature


def make_optimizer(signatures):
    """An optimize_fn that returns queued signatures (last repeats)."""
    state = {"i": 0}

    def optimize():
        index = min(state["i"], len(signatures) - 1)
        state["i"] += 1
        return FakeResult(signatures[index])

    return optimize, state


def sig(result):
    return result.signature


def test_training_period_optimizes_every_time():
    cache = PlanCache(training_period=3)
    optimize, state = make_optimizer(["A"])
    for __ in range(3):
        cache.execute_plan_for("q1", optimize, sig)
    assert state["i"] == 3
    assert cache.is_cached("q1")


def test_cached_plan_reused_after_training():
    cache = PlanCache(training_period=3, verify_schedule=(100,))
    optimize, state = make_optimizer(["A"])
    for __ in range(10):
        cache.execute_plan_for("q1", optimize, sig)
    # 3 training optimizations, then pure cache hits.
    assert state["i"] == 3
    assert cache.hits == 7


def test_unstable_plans_never_cached():
    cache = PlanCache(training_period=3)
    optimize, state = make_optimizer(["A", "B", "A", "B", "A", "B"])
    for __ in range(6):
        cache.execute_plan_for("q1", optimize, sig)
    assert not cache.is_cached("q1")
    assert state["i"] == 6  # optimized every time


def test_verification_schedule_decays():
    cache = PlanCache(training_period=2, verify_schedule=(4, 8, 16))
    optimize, state = make_optimizer(["A"])
    for __ in range(20):
        cache.execute_plan_for("q1", optimize, sig)
    # 2 training + 3 verification optimizations.
    assert state["i"] == 5
    assert cache.verifications == 3


def test_stale_plan_detected_on_verify():
    cache = PlanCache(training_period=2, verify_schedule=(4,))
    # Plan changes after training (statistics drifted).
    optimize, state = make_optimizer(["A", "A", "B", "B", "B", "B"])
    results = [cache.execute_plan_for("q1", optimize, sig) for __ in range(8)]
    assert cache.invalidations == 1
    # After invalidation the new plan is served.
    assert results[-1].signature == "B"


def test_catalog_generation_change_verifies_at_next_use():
    cache = PlanCache(training_period=2, verify_schedule=(100,))
    optimize, state = make_optimizer(["A", "A", "A", "B"])
    for __ in range(4):
        cache.execute_plan_for("q1", optimize, sig, 1)
    assert state["i"] == 2  # trained at generation 1, then hits
    fresh = cache.execute_plan_for("q1", optimize, sig, 2)
    assert state["i"] == 3 and cache.verifications == 1
    assert fresh.signature == "A"  # the fresh result is adopted
    cache.execute_plan_for("q1", optimize, sig, 2)
    assert state["i"] == 3  # verified at this generation: a hit again
    cache.execute_plan_for("q1", optimize, sig, 3)
    assert cache.invalidations == 1  # the new plan shape re-trains


def _procedure_server():
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    conn.execute("CREATE INDEX tb ON t (b)")
    for i in range(300):
        conn.execute("INSERT INTO t VALUES (%d, %d)" % (i, i % 10))
    conn.execute(
        "CREATE PROCEDURE p(x) AS SELECT COUNT(*) FROM t WHERE b = x"
    )
    for __ in range(12):
        assert conn.execute("CALL p(3)").rows == [(30,)]
    assert conn.plan_cache.is_cached("proc:p")
    return conn


def test_dropped_index_is_not_read_by_a_cached_plan():
    conn = _procedure_server()
    conn.execute("DROP INDEX tb")
    for i in range(100):
        conn.execute("INSERT INTO t VALUES (%d, 3)" % (1000 + i,))
    assert conn.execute("CALL p(3)").rows == [(130,)]


def test_recreated_table_is_not_read_through_the_old_heap():
    conn = _procedure_server()
    conn.execute("DROP TABLE t")
    conn.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    for i in range(20):
        conn.execute("INSERT INTO t VALUES (%d, 3)" % (i,))
    assert conn.execute("CALL p(3)").rows == [(20,)]


def test_verification_continues_past_schedule_end():
    # Regression: verification used to stop entirely after the last
    # schedule entry (use 1024), so a plan gone stale at use 1500 was
    # served forever.  The schedule now keeps doubling.
    cache = PlanCache(training_period=2, verify_schedule=(4, 8))
    calls = {"n": 0}

    def optimize():
        # The "right" plan flips after call 1500 (statistics drifted).
        return FakeResult("A" if calls["n"] < 1500 else "B")

    results = []
    for __ in range(2100):
        calls["n"] += 1
        results.append(cache.execute_plan_for("q1", optimize, sig))
    # Doubling continues: 16, 32, ..., 1024, 2048 are all verified.
    assert cache.verifications >= 10
    assert cache.invalidations == 1
    assert results[-1].signature == "B"


def test_power_of_two_verification_points():
    # Uses 4, 8, ..., 2048 trigger verification; nothing in between does.
    cache = PlanCache(training_period=0, verify_schedule=(4, 8))
    verified_at = [
        uses for uses in range(1, 2500) if cache._due_for_verification(uses)
    ]
    assert verified_at == [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


def test_lru_eviction():
    cache = PlanCache(training_period=1, max_entries=2)
    optimize, __ = make_optimizer(["A"])
    cache.execute_plan_for("q1", optimize, sig)
    cache.execute_plan_for("q2", optimize, sig)
    cache.execute_plan_for("q3", optimize, sig)
    assert cache.entry_count() == 2
    assert not cache.is_cached("q1")


def test_per_statement_isolation():
    cache = PlanCache(training_period=2)
    opt_a, state_a = make_optimizer(["A"])
    opt_b, state_b = make_optimizer(["B"])
    for __ in range(4):
        cache.execute_plan_for("qa", opt_a, sig)
        cache.execute_plan_for("qb", opt_b, sig)
    assert cache.is_cached("qa")
    assert cache.is_cached("qb")
    assert state_a["i"] == 2
    assert state_b["i"] == 2


def test_plan_signature_walks_tree():
    from repro.optimizer import OptimizerResult, SeqScanPlan

    class Q:
        alias = "t"

    plan = SeqScanPlan(Q(), [])
    result = OptimizerResult(plan)
    assert "SeqScan" in plan_signature(result)
    assert plan_signature(OptimizerResult(None)) == "<none>"
