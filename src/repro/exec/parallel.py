"""Intra-query parallelism (paper Section 4.4).

Manegold et al.'s load-balanced scheme, with the paper's extensions:

* a right-deep pipeline of hash joins is executed by N workers that fetch
  rows **first-come, first-serve** from the single scan feeding the
  pipeline, each worker probing *all* hash tables — so any number of
  workers can participate regardless of how many joins the plan has, and
  the scan keeps its sequential access pattern;
* the **build phases are parallelized the same way**: workers fetch build
  rows FCFS and build private hash tables that are then **merged**;
* additional operator kinds participate in the pipeline (nested-loop
  filters, Bloom filters, hash group by);
* the worker count can be **reduced mid-query**; reducing to one costs
  only slightly more than never having parallelized (the graceful
  adaptation the paper highlights).

Workers are simulated deterministically: each worker accumulates busy
time, every work morsel goes to the earliest-available worker, and the
pipeline's wall-clock time is the maximum worker time — charged to the
shared simulated clock at the end.
"""

from repro.common.errors import ExecutionError
from repro.common.hashing import stable_hash
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_US,
    CPU_HASH_PROBE_US,
    CPU_PREDICATE_US,
    CPU_ROW_US,
)

#: Fixed cost of merging one private hash-table entry during build merge.
MERGE_ENTRY_US = 0.2

#: Per-worker setup cost (the "only slightly worse" overhead when the
#: worker count drops to one mid-flight).
WORKER_SETUP_US = 50.0


class WorkerPool:
    """Deterministic FCFS worker simulation."""

    def __init__(self, n_workers):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self._times = [0.0] * n_workers
        self.setup_us = n_workers * WORKER_SETUP_US
        self.reductions = 0

    @property
    def n_workers(self):
        return len(self._times)

    def dispatch(self, cost_us):
        """Run one morsel on the earliest-available worker (FCFS)."""
        index = min(range(len(self._times)), key=self._times.__getitem__)
        self._times[index] += cost_us

    def reduce_to(self, n_workers):
        """Drop to ``n_workers``; survivors inherit the stragglers' frontier.

        Remaining work after a reduction is simply dispatched over fewer
        workers; the time already spent is preserved by folding the
        removed workers' busy time into the survivors' start offset.
        """
        if n_workers < 1:
            raise ValueError("cannot reduce below one worker")
        if n_workers >= len(self._times):
            return
        self.reductions += 1
        frontier = max(self._times)
        survivors = [max(time, frontier) for time in self._times[:n_workers]]
        self._times = survivors

    def wall_clock_us(self):
        return max(self._times) + self.setup_us

    def total_work_us(self):
        return sum(self._times) + self.setup_us

    def imbalance(self):
        """max/mean busy time: 1.0 is perfect balance."""
        mean = sum(self._times) / len(self._times)
        if mean == 0:
            return 1.0
        return max(self._times) / mean


class BloomFilter:
    """A simple Bloom filter stage (bitset over hash positions)."""

    def __init__(self, n_bits=8192, n_hashes=3):
        self._bits = bytearray(n_bits // 8 + 1)
        self._n_bits = n_bits
        self._n_hashes = n_hashes

    def add(self, key):
        for position in self._positions(key):
            self._bits[position // 8] |= 1 << (position % 8)

    def might_contain(self, key):
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(key)
        )

    def _positions(self, key):
        base = stable_hash(key)
        for i in range(self._n_hashes):
            yield (base ^ (i * 0x9E3779B9)) % self._n_bits


class JoinStage:
    """One hash join in the pipeline: build rows keyed by ``build_key``."""

    def __init__(self, build_rows, build_key, probe_key,
                 row_fetch_us=CPU_ROW_US, build_us=CPU_HASH_BUILD_US):
        self.build_rows = build_rows
        self.build_key = build_key
        self.probe_key = probe_key
        self.row_fetch_us = row_fetch_us
        #: Per-row hash insert cost; the engine passes the amortized
        #: batch constant (workers fetch whole batches FCFS).
        self.build_us = build_us
        self.table = None

    def build(self, pool):
        """Parallel build: workers fetch FCFS into private tables, merged."""
        n = pool.n_workers
        private = [dict() for __ in range(n)]
        for index, row in enumerate(self.build_rows):
            pool.dispatch(self.row_fetch_us + self.build_us)
            table = private[index % n]
            table.setdefault(self.build_key(row), []).append(row)
        merged = {}
        for table in private:
            for key, rows in table.items():
                pool.dispatch(MERGE_ENTRY_US * len(rows))
                merged.setdefault(key, []).extend(rows)
        self.table = merged

    def probe(self, row):
        return self.table.get(self.probe_key(row), [])


class BloomStage:
    """A Bloom filter built from a key set, probed during the pipeline."""

    def __init__(self, keys, probe_key):
        self.keys = keys
        self.probe_key = probe_key
        self.filter = None

    def build(self, pool):
        self.filter = BloomFilter()
        for key in self.keys:
            pool.dispatch(CPU_PREDICATE_US)
            self.filter.add(key)

    def passes(self, row):
        return self.filter.might_contain(self.probe_key(row))


class FilterStage:
    """A per-row predicate stage (the nested-loop-join extension)."""

    def __init__(self, predicate):
        self.predicate = predicate

    def build(self, pool):
        pass

    def passes(self, row):
        return self.predicate(row)


class GroupByStage:
    """A terminal hash group by executed with worker-private tables."""

    def __init__(self, key_fn, init_fn, accumulate_fn, merge_fn):
        self.key_fn = key_fn
        self.init_fn = init_fn
        self.accumulate_fn = accumulate_fn
        self.merge_fn = merge_fn


class ParallelPipeline:
    """A scan feeding join/filter stages, optionally into a group by."""

    def __init__(self, probe_rows, stages, group_by=None,
                 probe_fetch_us=CPU_ROW_US, probe_us=CPU_HASH_PROBE_US):
        self.probe_rows = probe_rows
        self.stages = stages
        self.group_by = group_by
        self.probe_fetch_us = probe_fetch_us
        #: Per-row hash probe cost; the engine passes the amortized
        #: batch constant.
        self.probe_us = probe_us

    def run(self, n_workers, ctx=None, reduce_to=None, reduce_at_fraction=0.5):
        """Execute; returns (output rows or group dict, PipelineStats).

        ``reduce_to`` simulates the server pulling threads mid-query: after
        ``reduce_at_fraction`` of the probe input, the worker count drops.
        """
        pool = WorkerPool(n_workers)
        for stage in self.stages:
            stage.build(pool)
        probe_rows = list(self.probe_rows)
        reduce_point = (
            int(len(probe_rows) * reduce_at_fraction)
            if reduce_to is not None
            else None
        )
        n_group_tables = pool.n_workers
        group_tables = (
            [dict() for __ in range(n_group_tables)]
            if self.group_by is not None
            else None
        )
        output = []
        for index, row in enumerate(probe_rows):
            if reduce_point is not None and index == reduce_point:
                pool.reduce_to(reduce_to)
            matches = self._probe_row(pool, row)
            if self.group_by is not None:
                table = group_tables[index % max(1, pool.n_workers)]
                for match in matches:
                    key = self.group_by.key_fn(match)
                    state = table.get(key)
                    if state is None:
                        state = self.group_by.init_fn()
                        table[key] = state
                    pool.dispatch(CPU_HASH_BUILD_US)
                    self.group_by.accumulate_fn(state, match)
            else:
                output.extend(matches)
        if self.group_by is not None:
            merged = {}
            for table in group_tables:
                for key, state in table.items():
                    pool.dispatch(MERGE_ENTRY_US)
                    if key in merged:
                        self.group_by.merge_fn(merged[key], state)
                    else:
                        merged[key] = state
            output = merged
        stats = PipelineStats(
            wall_clock_us=pool.wall_clock_us(),
            total_work_us=pool.total_work_us(),
            imbalance=pool.imbalance(),
            workers_final=pool.n_workers,
            reductions=pool.reductions,
        )
        if ctx is not None:
            ctx.clock.advance(int(stats.wall_clock_us))
        return output, stats

    def _probe_row(self, pool, row):
        """One FCFS morsel: fetch the row, run it through every stage."""
        cost = self.probe_fetch_us
        current = [row]
        for stage in self.stages:
            if isinstance(stage, JoinStage):
                next_rows = []
                for item in current:
                    cost += self.probe_us
                    for match in stage.probe(item):
                        next_rows.append((item, match))
                current = next_rows
            elif isinstance(stage, (BloomStage, FilterStage)):
                cost += CPU_PREDICATE_US * len(current)
                current = [item for item in current if stage.passes(item)]
            else:
                raise ExecutionError("unknown stage %r" % (type(stage).__name__,))
            if not current:
                break
        pool.dispatch(cost)
        return current


class PipelineStats:
    """Outcome of one parallel pipeline execution."""

    def __init__(self, wall_clock_us, total_work_us, imbalance,
                 workers_final, reductions):
        self.wall_clock_us = wall_clock_us
        self.total_work_us = total_work_us
        self.imbalance = imbalance
        self.workers_final = workers_final
        self.reductions = reductions

    def speedup_over(self, baseline_stats):
        return baseline_stats.wall_clock_us / self.wall_clock_us

    def __repr__(self):
        return (
            "PipelineStats(wall=%.0fus, work=%.0fus, imbalance=%.3f, "
            "workers=%d)"
            % (self.wall_clock_us, self.total_work_us, self.imbalance,
               self.workers_final)
        )
