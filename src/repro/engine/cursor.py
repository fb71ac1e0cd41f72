"""Cursors and fiber-style request scheduling (paper Sections 2.1, 2).

"When a heap is not in use — for example, when the server is awaiting the
next FETCH request from the application — the heap is 'unlocked'.  Pages
in unlocked heaps can be stolen ... To resume the processing of the
request, the heap is re-locked."  And on fibers: "if a request running on
a fiber blocks or is suspended, and its heaps are swapped out, then its
memory and address space requirements are very small."

A :class:`Cursor` executes a SELECT lazily: rows are produced on demand by
``fetchone``/``fetchmany``, and between fetches the cursor's heap (holding
its state) is unlocked so the buffer pool may steal its pages.  A
:class:`FiberScheduler` interleaves many open cursors cooperatively,
reproducing the fiber model's concurrency without OS threads.
"""

from repro.buffer import Heap
from repro.common.errors import ExecutionError
from repro.sql import ast


class Cursor:
    """An open, incrementally-fetched query (``prepared`` is the prepared
    ``sql``; :meth:`Connection.open_cursor` opens one)."""

    def __init__(self, connection, prepared, sql, params=None):
        server = connection.server
        if not isinstance(prepared.tree, ast.SelectStatement):
            raise ExecutionError("cursors are for SELECT statements")
        self._server = server
        # The cursor's snapshot stays open across fetches: every batch
        # reads the same commit-LSN image, however long the application
        # waits between FETCH requests.
        block, self.plan_result, self._ctx, executor = connection._open_query(
            prepared, params, snapshot=server.config.snapshot_reads,
        )
        self.exec_stats = executor.exec_stats
        #: Executor notes (spills, fallbacks, faults survived at open).
        self.notes = self._ctx.notes
        server.metrics.counter("cursors.opened").inc()
        self._rows = executor.run(self.plan_result, self._ctx)
        #: Cursor state lives in a heap, per Section 2.1; it is unlocked
        #: whenever the cursor is suspended between fetches.
        self.heap = Heap(server.pool, name="cursor-heap")
        self.heap.allocate_page({"cursor-state": sql})
        self.heap.unlock()
        self.columns = block.output_columns()
        self._exhausted = False
        self._closed = False
        self.rows_fetched = 0

    # ------------------------------------------------------------------ #
    # fetching
    # ------------------------------------------------------------------ #

    def fetchone(self):
        """Next row, or None when the cursor is exhausted."""
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, n):
        """Up to ``n`` more rows (the FETCH request: heap locks around it)."""
        if self._closed:
            raise ExecutionError("cursor is closed")
        if self._exhausted:
            return []
        self.heap.lock()  # resume: re-pin (and swizzle back) our pages
        try:
            rows = []
            for __ in range(n):
                try:
                    rows.append(next(self._rows))
                except StopIteration:
                    self._exhausted = True
                    break
            self.rows_fetched += len(rows)
            return rows
        finally:
            self.heap.unlock()  # suspend: our pages become stealable
            if self._server.sanitize and self._server.pin_checks_quiescent():
                # Suspended cursors hold no pins: their heaps are unlocked
                # and stealable between FETCH requests.
                self._server.pool.assert_no_pins("cursor suspend")

    def fetchall(self):
        """Everything remaining."""
        collected = []
        while True:
            batch = self.fetchmany(64)
            if not batch:
                return collected
            collected.extend(batch)

    @property
    def exhausted(self):
        return self._exhausted

    def explain(self, analyze=False):
        """The cursor's plan; with ``analyze=True``, annotated with the
        per-operator actuals accumulated by the fetches so far."""
        if analyze:
            return self.exec_stats.render(self.plan_result.plan)
        return self.plan_result.explain()

    def close(self):
        if self._closed:
            return
        self._closed = True
        self.heap.lock()
        self.heap.free()
        self._rows.close()
        self._server.close_execution(self._ctx)
        if self._server.sanitize and self._server.pin_checks_quiescent():
            self._server.pool.assert_no_pins("cursor close")


class FiberScheduler:
    """Cooperative round-robin scheduling of open cursors.

    Each step fetches a small batch from one cursor and moves on — the
    fiber model: the server decides who runs, suspended requests hold
    (almost) no locked memory.
    """

    def __init__(self, batch_size=8):
        self.batch_size = batch_size
        self._cursors = []
        self.schedule_trace = []

    def add(self, name, cursor, on_rows=None):
        """Register a cursor; ``on_rows(rows)`` receives each batch."""
        self._cursors.append((name, cursor, on_rows))

    def run(self):
        """Drain every cursor round-robin; returns rows per cursor name."""
        collected = {name: [] for name, __, __cb in self._cursors}
        live = list(self._cursors)
        while live:
            still_live = []
            for name, cursor, on_rows in live:
                batch = cursor.fetchmany(self.batch_size)
                if batch:
                    self.schedule_trace.append(name)
                    collected[name].extend(batch)
                    if on_rows is not None:
                        on_rows(batch)
                if not cursor.exhausted:
                    still_live.append((name, cursor, on_rows))
                else:
                    cursor.close()
            live = still_live
        return collected
