"""Metric definitions: what the benchmark reports and how it is derived.

Two clocks, named on every number.  *Wall* is the host's
``time.perf_counter()``: what a user of the library, and every soak lane,
waits for.  *Sim* is ``server.clock.now`` (SimClock µs): the paper's
modelled machine, which repeats exactly for one seed.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions in ``BENCHMARK.json`` (``run.py --selftest`` checks
that the file and these tables agree).
"""

import collections
import math

from repro.optimizer.plancache import plan_signature

from spans import LAYERS

#: ``bound`` is the share of the parent's median a metric may get worse by.
EndToEnd = collections.namedtuple("EndToEnd", "name unit better bound clock")
#: ``exact`` metrics repeat exactly for one seed.
PerLayer = collections.namedtuple("PerLayer", "name unit better exact")

END_TO_END = tuple(EndToEnd(*row) for row in (
    ("setup_s", "s", "lower", 0.25, "wall"),
    ("stmts_per_s", "1/s", "higher", 0.25, "wall"),
    ("wall_p50_ms", "ms", "lower", 0.25, "wall"),
    ("wall_p95_ms", "ms", "lower", 0.25, "wall"),
    ("sim_us_per_stmt", "us", "lower", 0.10, "sim"),
    ("peak_rss_mb", "MiB", "lower", 0.20, "-"),
))

#: Per-layer metrics beyond ``<layer>.calls / .self_s / .share``.
LAYER_EXTRAS = tuple(PerLayer(*row) for row in (
    ("sql.parse_us_per_stmt", "us", "lower", False),
    ("sql.bind_us_per_stmt", "us", "lower", False),
    ("optimizer.us_per_call", "us", "lower", False),
    ("optimizer.nodes_per_call", "count", "lower", True),
    ("optimizer.bypass_share", "ratio", "higher", True),
    ("optimizer.plan_changes", "count", "lower", True),
    ("optimizer.qerror_p95", "ratio", "lower", True),
    ("stats.feedback_calls", "count", "lower", True),
    ("exec.us_per_row", "us", "lower", False),
    ("exec.rows_examined_per_row_returned", "ratio", "lower", True),
    ("exec.spill_events", "count", "lower", True),
    ("exec.adaptive_fallbacks", "count", "lower", True),
    ("buffer.fetches", "count", "lower", True),
    ("buffer.hit_share", "ratio", "higher", True),
    ("buffer.evictions", "count", "lower", True),
    ("buffer.writebacks", "count", "lower", True),
    ("buffer.us_per_fetch", "us", "lower", False),
    ("storage.btree_us_per_lookup", "us", "lower", False),
    ("storage.pages_read", "count", "lower", True),
    ("storage.pages_written", "count", "lower", True),
    ("storage.wal_forces", "count", "lower", True),
    ("storage.wal_pages_per_commit", "ratio", "lower", True),
    ("storage.group_commit_mean_batch", "ratio", "higher", True),
    ("storage.commit_sim_mean_us", "us", "lower", True),
    ("engine.server.sim_p95_us", "us", "lower", True),
    ("engine.locks.waits", "count", "lower", True),
    ("engine.locks.deadlocks", "count", "lower", True),
    ("engine.versions.recorded", "count", "lower", True),
    ("engine.versions.purged", "count", "higher", True),
    ("engine.scheduler.switches", "count", "lower", True),
    ("engine.scheduler.commit_waits", "count", "lower", True),
    ("engine.scheduler.lock_waits", "count", "lower", True),
    ("engine.scheduler.repl_waits", "count", "lower", True),
    ("engine.scheduler.us_per_switch", "us", "lower", False),
    ("engine.scheduler.wait_s", "s", "lower", False),
    ("recovery.restart_wall_s", "s", "lower", False),
    ("recovery.restart_sim_us", "us", "lower", True),
    ("recovery.redo_records", "count", "lower", True),
    ("replication.frames_published", "count", "lower", True),
    ("replication.records_applied", "count", "lower", True),
    ("replication.ship_retries", "count", "lower", True),
    ("replication.lag_lsn_end", "count", "lower", True),
    ("replication.failover_wall_s", "s", "lower", False),
    ("replication.failover_sim_us", "us", "lower", True),
    ("trace.overhead_ratio", "ratio", "lower", False),
    ("trace.unattributed_share", "ratio", "lower", False),
))


def per_layer_definitions():
    definitions = []
    for layer in LAYERS:
        definitions.append(PerLayer(layer + ".calls", "count", "lower", True))
        definitions.append(PerLayer(layer + ".self_s", "s", "lower", False))
        # The recovery layer runs only in the durability check, after the
        # timed phase, so it has no share of it.
        if layer != "recovery":
            definitions.append(
                PerLayer(layer + ".share", "ratio", "lower", False))
    return tuple(definitions) + LAYER_EXTRAS


PER_LAYER = per_layer_definitions()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def flatten(snapshot):
    """A metrics snapshot as ``{name: number}`` (histograms contribute
    their ``.count`` and ``.sum``), so two snapshots can be subtracted."""
    flat = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            flat[name + ".count"] = value["count"]
            flat[name + ".sum"] = value["sum"]
        elif isinstance(value, (int, float)):
            flat[name] = value
    return flat


#: Windows a timed phase is cut into for :func:`undisturbed_round`.
WINDOWS = 40


def undisturbed_round(rounds):
    """``(wall seconds, per-statement wall latencies)`` of one timed phase
    put together from the least disturbed pieces of all of them.

    This machine's cores run at one of two speeds, 1.5x apart, and change
    between them every few seconds with whatever shares the host; a run
    spends anything from a fifth to two thirds of its time on the slow
    one, so a median over rounds is drawn from either.  But the host can
    only ever add time, and every round runs the same statements in the
    same order: window k (the k-th fortieth of the statements, by
    completion) is the same work in every round.  So each window is taken
    from the round that ran it fastest.  The samples are real ones, of one
    round per window; nothing is scaled.
    """
    n = min(len(r.samples) for r in rounds)
    windows = min(WINDOWS, n)
    edges = [n * k // windows for k in range(windows + 1)]
    wall_s = 0.0
    latencies = []
    for a, b in zip(edges, edges[1:]):
        def elapsed(round_):
            begin = round_.samples[a - 1][2] if a else round_.start
            end = (round_.samples[b - 1][2] if b < n
                   else round_.start + round_.wall_s)
            return end - begin
        fastest = min(rounds, key=elapsed)
        wall_s += elapsed(fastest)
        latencies.extend(s[0] for s in fastest.samples[a:b])
    return wall_s, latencies


def end_to_end(rounds, peak_rss_mb):
    """The end-to-end metrics of one run from its rounds.

    Every wall metric describes the undisturbed machine: the fastest of
    the run's set-ups, and the timed phase of :func:`undisturbed_round`.
    Sim metrics are read off the first round; the caller has already
    required every round to agree.
    """
    first = rounds[0]
    wall_s, latencies = undisturbed_round(rounds)
    return {
        "setup_s": min(r.setup_s for r in rounds),
        "stmts_per_s": (first.attempted - first.failed) / wall_s,
        "wall_p50_ms": percentile(latencies, 0.50) * 1e3,
        "wall_p95_ms": percentile(latencies, 0.95) * 1e3,
        "sim_us_per_stmt": first.sim_us / first.attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def sim_fingerprint(round_):
    """What must be identical between two rounds of one seed."""
    return (round_.attempted, round_.failed, round_.sim_us,
            [s[1] for s in round_.samples], round_.counters)


class PlanObserver:
    """Reads each statement's plan and per-operator actuals (traced run
    only): plan changes per template, estimate error, rows examined."""

    def __init__(self):
        self._signature = {}
        self.plan_changes = 0
        self.qerrors = []
        self.rows_examined = 0
        self.rows_returned = 0

    def note(self, template, result):
        plan_result = result.plan_result
        if plan_result is None or plan_result.plan is None:
            return
        signature = plan_signature(plan_result)
        if self._signature.setdefault(template, signature) != signature:
            self._signature[template] = signature
            self.plan_changes += 1
        if result.exec_stats is None:
            return
        self.rows_returned += len(result.rows)
        for node in plan_result.plan.walk():
            actual = result.exec_stats.lookup(node)
            if actual is None:
                continue
            estimate = max(node.est_rows, 1.0)
            rows = max(actual.rows_out, 1)
            self.qerrors.append(max(estimate, rows) / min(estimate, rows))
            if not node.children:
                self.rows_examined += actual.rows_out


def per_layer(traced, untraced_wall_s):
    """The per-layer metrics of one traced round.

    ``traced`` carries the span totals of the timed phase (``totals``) and
    of the checks after it (``check_totals``), the counter deltas of the
    timed phase, the plan observer and the checks' facts.
    """
    totals, counters, observer = traced.totals, traced.counters, traced.observer
    wall = traced.wall_s
    statements = traced.attempted
    values = {}
    for layer in LAYERS:
        source = traced.check_totals if layer == "recovery" else totals
        calls, __, self_s = source.by_layer[layer]
        values[layer + ".calls"] = calls
        values[layer + ".self_s"] = self_s
        if layer != "recovery":
            values[layer + ".share"] = ratio(self_s, wall)

    def us_per(names, count):
        return ratio(totals.busy_s(*names) * 1e6, count)

    optimizer_entries = ("Optimizer.optimize_select",
                         "Optimizer.optimize_simple_dml")
    btree_lookups = ("BTree.search", "BTree.prefix_scan", "BTree.range_scan")
    switch_entries = (
        "WorkloadScheduler.yield_point", "WorkloadScheduler.wait_for_commit",
        "WorkloadScheduler.wait_for_lock", "WorkloadScheduler.wait_for_repl",
    )
    optimizations = counters.get("optimizer.optimizations", 0)
    bypassed = counters.get("optimizer.bypassed", 0)
    cache_hits = counters.get("plancache.hits", 0)
    fetches = counters.get("pool.hits", 0) + counters.get("pool.misses", 0)
    commits = counters.get("txn.commit_latency_us.count", 0)
    values.update({
        "sql.parse_us_per_stmt": us_per(["parse_statement"], statements),
        "sql.bind_us_per_stmt": us_per(["Binder.bind"], statements),
        "optimizer.us_per_call": us_per(
            optimizer_entries, totals.calls(*optimizer_entries)),
        "optimizer.nodes_per_call": ratio(
            counters.get("optimizer.nodes_visited", 0), optimizations),
        # Planning skipped: the DML heuristic bypass and plan-cache hits.
        "optimizer.bypass_share": ratio(
            bypassed + cache_hits, optimizations + bypassed + cache_hits),
        "optimizer.plan_changes": observer.plan_changes,
        "optimizer.qerror_p95": (
            percentile(observer.qerrors, 0.95) if observer.qerrors else 0.0),
        "stats.feedback_calls": totals.calls(
            "StatisticsManager.feedback_eq",
            "StatisticsManager.feedback_range"),
        "exec.us_per_row": ratio(
            totals.by_layer["exec"][2] * 1e6, observer.rows_returned),
        "exec.rows_examined_per_row_returned": ratio(
            observer.rows_examined, observer.rows_returned),
        "exec.spill_events": counters.get("exec.spill_events", 0),
        "exec.adaptive_fallbacks": counters.get("exec.adaptive_fallbacks", 0),
        "buffer.fetches": fetches,
        "buffer.hit_share": ratio(counters.get("pool.hits", 0), fetches),
        "buffer.evictions": counters.get("pool.evictions", 0),
        "buffer.writebacks": counters.get("pool.writebacks", 0),
        "buffer.us_per_fetch": us_per(
            ["BufferPool.fetch"], totals.calls("BufferPool.fetch")),
        "storage.btree_us_per_lookup": us_per(
            btree_lookups, totals.calls(*btree_lookups)),
        "storage.pages_read": counters["disk.reads"],
        "storage.pages_written": counters["disk.writes"],
        "storage.wal_forces": counters.get("wal.forces", 0),
        "storage.wal_pages_per_commit": ratio(
            counters.get("wal.pages_written", 0), commits),
        "storage.group_commit_mean_batch": ratio(
            counters.get("wal.group_commit.batch_size.sum", 0),
            counters.get("wal.group_commit.batch_size.count", 0)),
        "storage.commit_sim_mean_us": ratio(
            counters.get("txn.commit_latency_us.sum", 0), commits),
        # Per-statement latency on the simulated clock, sampled at the
        # same two points as the wall latency.
        "engine.server.sim_p95_us": percentile(
            [s[1] for s in traced.samples], 0.95),
        "engine.locks.waits": counters.get("locks.waits", 0),
        "engine.locks.deadlocks": counters.get("locks.deadlocks", 0),
        "engine.versions.recorded": counters.get("versions.recorded", 0),
        "engine.versions.purged": counters.get("versions.purged", 0),
        "engine.scheduler.switches": counters.get("sched.switches", 0),
        "engine.scheduler.commit_waits": counters.get("sched.commit_waits", 0),
        "engine.scheduler.lock_waits": counters.get("sched.lock_waits", 0),
        "engine.scheduler.repl_waits": counters.get("sched.repl_waits", 0),
        "engine.scheduler.us_per_switch": us_per(
            switch_entries, counters.get("sched.switches", 0)),
        "engine.scheduler.wait_s": totals.wait_s,
        "replication.frames_published": counters.get(
            "repl.frames_published", 0),
        # How much slower the same statements ran with every entry point
        # wrapped; layer times above include this tax.
        "trace.overhead_ratio": ratio(wall, untraced_wall_s),
        # Wall of the traced timed phase that no span covers: the client
        # loop, the scheduler's own glue between statements, thread
        # hand-off.  (Glue *inside* a statement is engine.server.self_s.)
        "trace.unattributed_share": 1.0 - sum(
            values[layer + ".share"] for layer in LAYERS
            if layer != "recovery"),
    })
    # The rest are measurements of the checks, named like their metric.
    for extra in LAYER_EXTRAS:
        values.setdefault(extra.name, traced.facts.get(extra.name, 0))
    return values
