"""The DTT-based cost model (paper Section 4.2).

The model prices plans in simulated microseconds from two ingredients:

* **I/O** via the Disk Transfer Time curves stored in the catalog — the
  amortized cost of one page transfer as a function of band size (band 1
  being sequential);
* **CPU** via per-row/per-page constants shared with the executor, so that
  expected and actual costs live on the same scale.

Its goal is the paper's eq. (3): *rank fidelity* — for plans P1, P2,
``CostE(P1) > CostE(P2)`` iff ``CostA(P1) > CostA(P2)`` — not absolute
accuracy.  The deliberately optimistic treatment of intermediate results
("assume that half the buffer pool is available for each quantifier ...
the point is not to cost intermediate results accurately, but to prune
grossly inefficient strategies quickly") lives in
:meth:`CostModelContext.optimistic_resident_fraction`.
"""

import math

from repro.dtt.model import READ, WRITE

#: CPU cost constants (simulated microseconds) the optimizer costs plans
#: with.  The executor charges them as they are only for work it does a
#: row at a time (index entries, nested-loop pairs, spilled re-probes);
#: its batch operators charge the ``*_BATCH_US`` constants below, these
#: divided by ``BATCH_AMORTIZATION``, so eq. (3) holds by construction
#: only for the row-at-a-time work (ROADMAP direction 3).
CPU_ROW_US = 0.5          # handle one row through an operator
CPU_PREDICATE_US = 0.2    # evaluate one predicate on one row
CPU_HASH_BUILD_US = 1.0   # insert one row into a hash table
CPU_HASH_PROBE_US = 0.6   # probe one row against a hash table
CPU_SORT_FACTOR_US = 0.15  # per comparison in n log n sorting
BUFFER_HIT_US = 3.0       # touch one resident page
INDEX_NODE_US = 4.0       # binary search within one index node
OPTIMIZER_NODE_US = 25.0  # visiting one join-enumeration search node

#: Vectorized batch execution amortizes per-row dispatch (dict lookups,
#: generator frames, per-row expression walks) over whole column batches;
#: the migrated operators charge the row constants divided by this
#: factor.  8x models the dispatch share of the row constants — the CPU
#: half a real engine eliminates when only the per-batch setup remains —
#: not the Python harness's end-to-end wall ratio, which also carries
#: unvectorizable work (hash inserts, version checks, I/O simulation)
#: and lands at ~1.5-2.6x on the scan/group/join mix.
BATCH_AMORTIZATION = 8.0
CPU_ROW_BATCH_US = CPU_ROW_US / BATCH_AMORTIZATION
CPU_PREDICATE_BATCH_US = CPU_PREDICATE_US / BATCH_AMORTIZATION
CPU_HASH_BUILD_BATCH_US = CPU_HASH_BUILD_US / BATCH_AMORTIZATION
CPU_HASH_PROBE_BATCH_US = CPU_HASH_PROBE_US / BATCH_AMORTIZATION
CPU_SORT_FACTOR_BATCH_US = CPU_SORT_FACTOR_US / BATCH_AMORTIZATION


class CostModelContext:
    """Runtime state the cost model needs: DTT model, pool, memory limits."""

    def __init__(self, dtt_model, page_size, pool_pages,
                 soft_limit_pages=None, resident_fraction_fn=None):
        self.dtt_model = dtt_model
        self.page_size = page_size
        self.pool_pages = max(1, int(pool_pages))
        #: The memory governor's *predicted* soft limit for this statement
        #: (pages available to memory-intensive operators).
        self.soft_limit_pages = (
            soft_limit_pages if soft_limit_pages is not None else self.pool_pages
        )
        #: Callable (table_storage) -> fraction of the table resident in
        #: the buffer pool (the real-time table statistic of Section 3.2).
        self._resident_fraction_fn = resident_fraction_fn

    def resident_fraction(self, storage):
        if self._resident_fraction_fn is None or storage is None:
            return 0.0
        return self._resident_fraction_fn(storage)

    def optimistic_resident_fraction(self, table_pages):
        """Half the buffer pool per quantifier — the paper's optimistic
        prefix-costing assumption."""
        if table_pages <= 0:
            return 1.0
        return min(1.0, (self.pool_pages / 2.0) / table_pages)

    # DTT shortcuts ------------------------------------------------------- #

    def read_us(self, band):
        return self.dtt_model.cost_us(READ, self.page_size, max(1, band))

    def write_us(self, band):
        return self.dtt_model.cost_us(WRITE, self.page_size, max(1, band))


class CostModel:
    """Prices individual operators; all costs in simulated microseconds."""

    def __init__(self, context):
        self.ctx = context

    # ------------------------------------------------------------------ #
    # scans
    # ------------------------------------------------------------------ #

    def seq_scan(self, table_pages, table_rows, n_predicates,
                 resident_fraction):
        """Full sequential scan with pushed-down filters."""
        miss_pages = table_pages * (1.0 - resident_fraction)
        io = miss_pages * self.ctx.read_us(1)
        cpu = (
            table_pages * BUFFER_HIT_US
            + table_rows * CPU_ROW_US
            + table_rows * n_predicates * CPU_PREDICATE_US
        )
        return io + cpu

    #: Band size charged for the leaf/table alternation of an index scan:
    #: even a perfectly clustered scan ping-pongs between the index file
    #: and the table file, so neither stream is truly sequential.
    ALTERNATION_BAND = 32

    def index_scan(self, index_height, index_leaf_pages, table_pages,
                   matching_rows, clustering_fraction, resident_fraction,
                   n_residual_predicates=0):
        """Sargable B+-tree scan: descend once, walk leaves, fetch rows."""
        descent = index_height * INDEX_NODE_US + self._random_read(
            index_leaf_pages, resident_fraction
        )
        miss = 1.0 - resident_fraction
        alternation_us = self.ctx.read_us(self.ALTERNATION_BAND)
        leaf_pages_read = max(1.0, matching_rows / 64.0)
        leaf_walk = leaf_pages_read * (BUFFER_HIT_US + miss * alternation_us)
        row_fetch = self.row_fetches(
            matching_rows, table_pages, clustering_fraction, resident_fraction
        )
        cpu = matching_rows * (
            CPU_ROW_US + n_residual_predicates * CPU_PREDICATE_US
        )
        return descent + leaf_walk + row_fetch + cpu

    def index_probe(self, index_height, index_leaf_pages, table_pages,
                    rows_per_probe, clustering_fraction, resident_fraction):
        """One equality probe into an index plus row fetches."""
        descent = index_height * INDEX_NODE_US + (
            1.0 - resident_fraction
        ) * self.ctx.read_us(max(1, index_leaf_pages))
        row_fetch = self.row_fetches(
            rows_per_probe, table_pages, clustering_fraction, resident_fraction
        )
        return descent + row_fetch + rows_per_probe * CPU_ROW_US

    def row_fetches(self, rows, table_pages, clustering_fraction,
                    resident_fraction):
        """Cost of fetching ``rows`` base rows located via an index."""
        if rows <= 0:
            return 0.0
        # Clustered fraction reads (mostly) sequential pages; the rest are
        # random touches over the table's band.
        random_rows = rows * (1.0 - clustering_fraction)
        clustered_pages = rows * clustering_fraction / 64.0
        miss = 1.0 - resident_fraction
        io = (
            random_rows * miss * self.ctx.read_us(max(1, table_pages))
            + clustered_pages * miss * self.ctx.read_us(self.ALTERNATION_BAND)
        )
        cpu = rows * BUFFER_HIT_US / 8.0
        return io + cpu

    def _random_read(self, area_pages, resident_fraction):
        return (1.0 - resident_fraction) * self.ctx.read_us(max(1, area_pages))

    # ------------------------------------------------------------------ #
    # joins
    # ------------------------------------------------------------------ #

    def nested_loop_join(self, outer_rows, inner_scan_cost, n_predicates,
                         output_rows):
        """Plain NLJ: re-run the inner per outer row."""
        return (
            outer_rows * inner_scan_cost
            + outer_rows * n_predicates * CPU_PREDICATE_US
            + output_rows * CPU_ROW_US
        )

    def index_nl_join(self, outer_rows, probe_cost_cold, probe_cost_warm,
                      warmup_pages, output_rows):
        """Repeated index probes with cache warm-up saturation.

        The first probes take cold-cache misses; once roughly the index's
        and table's pages have been touched (and fit in the pool), further
        probes run at the warm cost.
        """
        cold_probes = min(outer_rows, max(0.0, warmup_pages))
        warm_probes = max(0.0, outer_rows - cold_probes)
        return (
            cold_probes * probe_cost_cold
            + warm_probes * probe_cost_warm
            + output_rows * CPU_ROW_US
        )

    def hash_join(self, build_rows, probe_rows, build_row_bytes,
                  memory_pages, output_rows):
        """Grace-style hash join with partition spilling past the quota."""
        build_pages = self._pages(build_rows, build_row_bytes)
        cpu = (
            build_rows * CPU_HASH_BUILD_US
            + probe_rows * CPU_HASH_PROBE_US
            + output_rows * CPU_ROW_US
        )
        memory = max(1, memory_pages if memory_pages is not None
                     else self.ctx.soft_limit_pages)
        if build_pages <= memory:
            return cpu
        # Fraction that does not fit spills: written and re-read once, on
        # both the build and probe sides (probe scaled by the same ratio).
        spill_fraction = 1.0 - memory / build_pages
        probe_pages = self._pages(probe_rows, build_row_bytes)
        spilled_pages = (build_pages + probe_pages) * spill_fraction
        io = spilled_pages * (self.ctx.write_us(1) + self.ctx.read_us(1))
        return cpu + io

    # ------------------------------------------------------------------ #
    # aggregation / sorting / distinct
    # ------------------------------------------------------------------ #

    def hash_group_by(self, input_rows, group_count, group_row_bytes,
                      memory_pages):
        cpu = input_rows * CPU_HASH_BUILD_US + group_count * CPU_ROW_US
        group_pages = self._pages(group_count, group_row_bytes)
        memory = max(1, memory_pages if memory_pages is not None
                     else self.ctx.soft_limit_pages)
        if group_pages <= memory:
            return cpu
        # Low-memory fallback territory: temp-table traffic.
        spill_pages = group_pages - memory
        return cpu + spill_pages * 4 * (self.ctx.write_us(1) + self.ctx.read_us(1))

    def sort(self, rows, row_bytes, memory_pages):
        if rows <= 1:
            return CPU_ROW_US
        cpu = rows * math.log2(max(2.0, rows)) * CPU_SORT_FACTOR_US
        data_pages = self._pages(rows, row_bytes)
        memory = max(1, memory_pages if memory_pages is not None
                     else self.ctx.soft_limit_pages)
        if data_pages <= memory:
            return cpu
        # External merge sort: one spill pass plus merge reads.
        passes = max(1, math.ceil(math.log(max(2, data_pages / memory), 8)))
        io = data_pages * passes * (self.ctx.write_us(1) + self.ctx.read_us(1))
        return cpu + io

    def hash_distinct(self, input_rows, distinct_rows, row_bytes,
                      memory_pages):
        return self.hash_group_by(input_rows, distinct_rows, row_bytes,
                                  memory_pages)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _pages(self, rows, row_bytes):
        return max(1.0, rows * max(1, row_bytes) / self.ctx.page_size)
