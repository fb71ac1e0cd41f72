"""The page-at-a-time scan is the row-at-a-time scan.

``TableStorage.scan(...).pages()`` hands a scan whole pages — slots copied and
version chains resolved when the page is fetched — and ``SeqScanOp`` cuts
its batches out of those lists.  The definitions they replaced (one
``RowId`` and one visibility call per row, batches gathered by ``islice``
over a row generator) are kept here as the reference, and both are run
over identically built worlds: holes, an emptied page, chains on some
pages only (own uncommitted, foreign uncommitted, committed before and
after the snapshot), a pool small enough to evict mid-scan.  They must
produce the same batches in the same order, with the simulated clock
equal at every page fetch and every yielded batch, and send the same
feedback counters.

The one intended difference — a writer rolling back while the consumer
is suspended inside a page — is the last test's, which shows what the
reference did.
"""

import random
from itertools import islice

import pytest

from repro import Server, ServerConfig
from repro.exec.operators import SeqScanOp
from repro.storage.rowstore import RowId, TableStorage

ROWS = 2000
POOL_PAGES = 24
ROWS_PER_PAGE = 32  # of t below; World asserts it


# --------------------------------------------------------------------- #
# the reference: a row at a time
# --------------------------------------------------------------------- #

def reference_scan(storage, snapshot=None, snapshot_txn=None):
    for ordinal in range(len(storage._page_numbers)):
        frame = storage._fetch(ordinal)
        try:
            rows = list(frame.payload["slots"])
        finally:
            storage.pool.unpin(frame)
        versioned = snapshot is not None and storage.has_versions()
        for slot, row in enumerate(rows):
            if versioned:
                row = storage.resolve_visible(
                    RowId(ordinal, slot), row, snapshot, snapshot_txn
                )
            if row is not None:
                yield RowId(ordinal, slot), row


def _reference_chunks(rows, size):
    rows = iter(rows)
    while True:
        chunk = list(islice(rows, size))
        if not chunk:
            return
        yield chunk


def reference_execute_batches(self, ctx):
    storage = self.quantifier.schema.storage
    qid = self.quantifier.id
    counters = [[0, 0] for __ in self.conjuncts]
    completed = False
    try:
        scan = reference_scan(
            storage, snapshot=ctx.snapshot_lsn, snapshot_txn=ctx.snapshot_txn
        )
        for rows in _reference_chunks(
            (row for __, row in scan), ctx.batch_rows
        ):
            batch = self._filter_batch(ctx, qid, rows, counters)
            if batch.count:
                yield batch
        completed = True
    finally:
        if completed and ctx.feedback_enabled:
            self._send_feedback(ctx, storage, counters)


# --------------------------------------------------------------------- #
# one world, built the same way every time
# --------------------------------------------------------------------- #

SEQ_SQL = "SELECT id, v, pad FROM t WHERE v >= 10 AND pad LIKE 'p%'"


class World:
    """A table with holes and chains, an open cursor over it, and a
    trace of everything a scan does that the clock can see."""

    def __init__(self, seed, batch_rows, monkeypatch, reference):
        rng = random.Random(seed)
        self.trace = trace = []
        # Plain components: the sanitizers change no behaviour and the
        # worlds are built two dozen times.
        server = self.server = Server(ServerConfig(
            start_buffer_governor=False, initial_pool_pages=POOL_PAGES,
        ), sanitize=False)
        clock = server.clock
        setup = server.connect()
        setup.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR(200))"
        )
        server.load_table(
            "t", [(i, i % 50, "p%d" % i) for i in range(ROWS)]
        )
        self.storage = storage = server.catalog.table("t").storage
        rpp = self.rows_per_page = storage.rows_per_page
        assert rpp == ROWS_PER_PAGE
        assert storage.page_count > POOL_PAGES  # evicts mid-scan

        def ids_on(page, count):
            return rng.sample(range(page * rpp, (page + 1) * rpp), count)

        # Holes: a sprinkle everywhere, and page 3 emptied completely.
        holes = set(rng.sample(range(ROWS), ROWS // 10))
        holes.update(range(3 * rpp, 4 * rpp))
        for row_id in sorted(holes):
            setup.execute("DELETE FROM t WHERE id = %d" % row_id)
        live = [i for i in range(ROWS) if i not in holes]
        taken = set()

        def pick(page, count):
            chosen = [
                i for i in ids_on(page, rpp)
                if i in live and i not in taken
            ][:count]
            taken.update(chosen)
            return chosen

        def write(connection, ids, next_id):
            """An update, a delete and an insert (into the first hole)."""
            for row_id in ids[:-1]:
                connection.execute(
                    "UPDATE t SET v = v + 100 WHERE id = %d" % row_id
                )
            connection.execute("DELETE FROM t WHERE id = %d" % ids[-1])
            connection.execute(
                "INSERT INTO t VALUES (%d, 77, 'pnew')" % next_id
            )

        # An older snapshot keeps committed-before entries in the chains.
        self.older = server.versions.open_snapshot()
        write(setup, pick(2, 3) + pick(5, 3), ROWS + 1)
        reader = server.connect()
        reader.begin()  # own uncommitted: visible to the reader only
        write(reader, pick(5, 2) + pick(9, 3), ROWS + 2)
        committed_later = pick(9, 2) + pick(14, 3)

        if reference:
            monkeypatch.setattr(
                SeqScanOp, "execute_batches", reference_execute_batches
            )
            monkeypatch.setattr(TableStorage, "scan", reference_scan)
        self._tap(monkeypatch, clock)
        self.cursor = reader.open_cursor(SEQ_SQL)
        self.cursor._ctx.batch_rows = batch_rows

        # Past the cursor's snapshot: committed, then left uncommitted.
        write(setup, committed_later, ROWS + 3)
        foreign = server.connect()
        foreign.begin()
        write(foreign, pick(14, 2) + pick(20, 3), ROWS + 4)

        disk = server.disk
        read_page = disk.read_page

        def traced_read(page):
            trace.append(("read", clock.now, page))
            return read_page(page)

        monkeypatch.setattr(disk, "read_page", traced_read)
        server.pool.yield_hook = lambda file, page_no: trace.append(
            ("miss", clock.now, file.name, page_no)
        )

    def _tap(self, monkeypatch, clock):
        trace = self.trace
        execute_batches = SeqScanOp.execute_batches
        send_feedback = SeqScanOp._send_feedback

        def traced_batches(op, ctx):
            for batch in execute_batches(op, ctx):
                trace.append((
                    "batch", clock.now, batch.count,
                    [list(column) for column in batch.columns],
                ))
                yield batch

        def traced_feedback(op, ctx, storage, counters):
            trace.append(("feedback", [list(pair) for pair in counters]))
            return send_feedback(op, ctx, storage, counters)

        monkeypatch.setattr(SeqScanOp, "execute_batches", traced_batches)
        monkeypatch.setattr(SeqScanOp, "_send_feedback", traced_feedback)

    def run(self):
        """Everything observable about the scan."""
        server = self.server
        # Fetch in uneven pieces: the scan is suspended mid-batch and
        # mid-page between FETCH requests.
        rows = self.cursor.fetchmany(5)
        rows += self.cursor.fetchall()
        self.trace.append(("done", server.clock.now))
        ids = list(self.storage.scan())
        pool = server.pool
        return {
            "rows": rows,
            "trace": self.trace,
            "scan": [(rid.page_ordinal, rid.slot, row) for rid, row in ids],
            "clock": server.clock.now,
            "pool": (pool.hits, pool.misses, pool.evictions, pool.writebacks),
        }


def observe(seed, batch_rows, reference):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return World(seed, batch_rows, monkeypatch, reference).run()


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("batch_rows", [1, 7, ROWS_PER_PAGE, 256])
def test_pages_and_rows_agree_on_batches_clock_and_feedback(seed, batch_rows):
    new = observe(seed, batch_rows, reference=False)
    old = observe(seed, batch_rows, reference=True)
    assert new["rows"] == old["rows"]
    assert new["trace"] == old["trace"]
    assert new == old


def test_the_worlds_hold_what_the_docstring_says():
    """The differential is not vacuous: the scan ran, evicted, and met
    every kind of chain and an emptied page."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        world = World(11, 7, monkeypatch, reference=False)
        storage, rpp = world.storage, world.rows_per_page
        snapshot = world.cursor._ctx.snapshot_lsn
        chains = [
            entry
            for slots in storage._versions.values()
            for chain in slots.values()
            for entry in chain
        ]
        assert any(e.commit_lsn is None for e in chains)
        assert any(
            e.commit_lsn is not None and e.commit_lsn <= snapshot
            for e in chains
        )
        assert any(
            e.commit_lsn is not None and e.commit_lsn > snapshot
            for e in chains
        )
        assert 0 < len(storage._versions) < storage.page_count // 2
        assert all(
            slot is None for slot in
            next(islice(storage.scan().pages(), 3, None))[1]
        )
        txn = world.cursor._ctx.snapshot_txn
        visible = sum(1 for __ in reference_scan(storage, snapshot, txn))
        evictions = world.server.pool.evictions
        observed = world.run()
    trace = observed["trace"]
    assert {event[0] for event in trace} == {
        "read", "miss", "batch", "feedback", "done",
    }
    assert observed["pool"][2] > evictions
    assert len(observed["rows"]) > 3 * rpp
    scanned = [e[1][0][0] for e in trace if e[0] == "feedback"]
    assert scanned == [visible]  # the first conjunct saw every row


def test_scan_is_the_page_iterator_a_row_at_a_time():
    with pytest.MonkeyPatch.context() as monkeypatch:
        world = World(12, 256, monkeypatch, reference=False)
        storage = world.storage
        snapshot = world.cursor._ctx.snapshot_lsn
        txn = world.cursor._ctx.snapshot_txn
        got = [
            (rid.page_ordinal, rid.slot, row)
            for rid, row in storage.scan(snapshot, txn)
        ]
        assert got == [
            (ordinal, slot, row)
            for ordinal, rows in storage.scan(snapshot, txn).pages()
            for slot, row in enumerate(rows)
            if row is not None
        ]
        assert got == [
            (rid.page_ordinal, rid.slot, row)
            for rid, row in reference_scan(storage, snapshot, txn)
        ]


def test_the_one_intended_difference_is_the_rollback_mid_page():
    """Resolving a page when it is fetched, not a row when it is pulled:
    a writer that rolls back while the consumer sits inside the page
    leaves the reference holding an image that was never committed."""
    server = Server(ServerConfig(start_buffer_governor=False))
    writer = server.connect()
    writer.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    server.load_table("t", [(i, i) for i in range(10)])
    storage = server.catalog.table("t").storage
    writer.begin()
    writer.execute("UPDATE t SET v = -1 WHERE id = 9")
    snapshot = server.versions.open_snapshot()
    rows = iter(storage.scan(snapshot))
    old_rows = reference_scan(storage, snapshot)
    assert next(rows)[1] == next(old_rows)[1] == (0, 0)
    writer.rollback()
    assert list(rows)[-1][1] == (9, 9)
    assert list(old_rows)[-1][1] == (9, -1)
    server.versions.close_snapshot(snapshot)
