"""An overwrite maintains only the indexes whose key it changed.

``Server.apply_change`` leaves an index entry alone when an UPDATE (or
the undo of one) keeps that index's key: the row id is kept, so the entry
is still right.  The apply it replaced — every entry of every index
deleted and re-inserted on every UPDATE — is kept here as the reference.
Both run the same hypothesis-generated interleavings of INSERT, UPDATE
(keeping or changing the key of a unique, a non-unique duplicate-key and
a composite index), DELETE, COMMIT, ROLLBACK, open and released
snapshots and crashes, and after every step:

* index ≡ heap;
* every index read — an ``IndexScanOp`` and, for each equality probe, an
  ``IndexNLJoinOp.probe`` — at every open snapshot and at the writer's
  own view returns the snapshot heap scan's rows inside the sarg as a
  multiset, and the same rows under both applies.  The heap scan and the
  sarg test below are the reference: the index side reads the tree,
  re-checked, plus the version chains (``exec.operators.index_rows``);
* a crash followed by restart leaves exactly the committed rows, equal
  under both applies.
"""

import collections
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, ReproError
from repro.engine import WorkloadScheduler
from repro.exec.executor import ExecutionContext
from repro.exec.operators import IndexNLJoinOp, IndexScanOp
from repro.recovery import check_indexes_match_heap
from repro.sql import ast
from repro.sql.binder import Quantifier
from tests.conftest import pages_fetched

# --------------------------------------------------------------------- #
# the reference: delete and re-insert every entry on every overwrite
# --------------------------------------------------------------------- #


def reference_index_insert(self, table, row, row_id, before=None):
    for index in self.catalog.indexes_on(table.name):
        if index.virtual:
            continue
        key = index.key_of(row)
        if index.unique and index.btree.search(key):
            raise ExecutionError(
                "duplicate key %r in unique index %r" % (key, index.name)
            )
        index.btree.insert(key, row_id)


def reference_index_delete(self, table, row, row_id, after=None):
    for index in self.catalog.indexes_on(table.name):
        if index.virtual:
            continue
        key = index.key_of(row)
        index.btree.delete(key, row_id)


def use_reference_apply(server):
    """Route this server's overwrites through the reference apply."""
    server._index_insert = types.MethodType(reference_index_insert, server)
    server._index_delete = types.MethodType(reference_index_delete, server)


# --------------------------------------------------------------------- #
# one world per apply
# --------------------------------------------------------------------- #

SCHEMA = (
    "CREATE TABLE t (id INT PRIMARY KEY, u INT, a INT, b INT, v INT)",
    "CREATE UNIQUE INDEX ux_u ON t (u)",
    "CREATE INDEX ix_a ON t (a)",
    "CREATE INDEX ix_ab ON t (a, b)",
)
INDEXES = ("pk_t", "ux_u", "ix_a", "ix_ab")

#: SET lists: keep every key, or change one index's key (``15 - x`` keeps
#: ids and unique values inside 0..15, so collisions stay likely).
ASSIGNMENTS = (
    "v = v + 1",
    "u = u, a = a, b = b",
    "b = 1",
    "b = NULL",
    "a = 2",
    "a = 0, b = 0",
    "u = 15 - u",
    "id = 15 - id",
    "v = v + 1, u = 3",
)
#: Which rows an UPDATE or DELETE touches: one pk, or a duplicate key.
TARGETS = ("id = %d", "a = %d")


class World:
    def __init__(self, reference):
        self.server = Server(ServerConfig(start_buffer_governor=False))
        if reference:
            use_reference_apply(self.server)
        setup = self.server.connect()
        for sql in SCHEMA:
            setup.execute(sql)
        for i in range(4):
            setup.execute(
                "INSERT INTO t VALUES (%d, %d, %d, %d, 0)" % (i, i, i % 3, i % 2)
            )
        self.writer = self.server.connect()
        self.snapshots = []

    def step(self, op):
        """Run one step; returns what a client could see of it."""
        kind = op[0]
        writer = self.writer
        in_txn = writer._txn_id is not None
        try:
            if kind == "sql":
                return writer.execute(op[1]).rowcount
            if kind == "begin" and not in_txn:
                writer.begin()
            elif kind == "commit" and in_txn:
                writer.commit()
            elif kind == "rollback" and in_txn:
                writer.rollback()
            elif kind == "snapshot":
                self.snapshots.append(self.server.versions.open_snapshot())
            elif kind == "release" and self.snapshots:
                self.server.versions.close_snapshot(self.snapshots.pop(0))
            elif kind == "crash":
                return self.crash()
        except ReproError as exc:
            return type(exc).__name__
        return None

    def committed_rows(self):
        versions = self.server.versions
        snapshot = versions.open_snapshot()
        try:
            return sorted(
                (row for __, row in self.storage().scan(snapshot)), key=repr
            )
        finally:
            versions.close_snapshot(snapshot)

    def crash(self):
        committed = self.committed_rows()
        self.server.crash()
        self.server.restart()
        # The open transaction and the snapshots died with the process.
        self.writer._txn_id = None
        self.snapshots = []
        rows = sorted((row for __, row in self.storage().scan()), key=repr)
        assert rows == committed
        return rows

    def storage(self):
        return self.server.catalog.table("t").storage

    def index_reads(self, index_name, sarg, snapshot, txn):
        """What each index read returns at ``(snapshot, txn)`` — an
        ``IndexScanOp``, and an ``IndexNLJoinOp.probe`` for an equality
        sarg — and the heap scan's rows inside the sarg."""
        server = self.server
        table = server.catalog.table("t")
        index = server.catalog.index(index_name)
        quantifier = Quantifier(0, "t", Quantifier.BASE)
        quantifier.schema = table

        def context():
            return ExecutionContext(
                server.pool, server.temp_file, server.stats, server.clock,
                None, metrics=server.metrics, snapshot_lsn=snapshot,
                snapshot_txn=txn,
            )

        scan = IndexScanOp(quantifier, index, sarg, [])
        reads = [collections.Counter(
            row for batch in scan.execute_batches(context())
            for row in zip(*batch.columns)
        )]
        if "eq" in sarg:
            join = IndexNLJoinOp(
                None, quantifier, index, sarg["eq"], Quantifier.INNER, [], [],
            )
            reads.append(collections.Counter(
                row for __, row in join.probe(context(), (), ())
            ))
        heap = collections.Counter(
            row for __, row in table.storage.scan(snapshot, txn)
            if in_sarg(index.key_of(row), sarg)
        )
        return reads, heap

    def check(self, probes):
        """Index ≡ heap, and every probe equals the heap at every open
        snapshot and at a fresh one read through the writer's own
        transaction."""
        check_indexes_match_heap(self.server)
        versions = self.server.versions
        fresh = versions.open_snapshot()
        views = [(lsn, None) for lsn in self.snapshots]
        views.append((fresh, self.writer._txn_id))
        seen = []
        try:
            for snapshot, txn in views:
                for index_name, sarg in probes:
                    reads, heap = self.index_reads(
                        index_name, sarg, snapshot, txn
                    )
                    for rows in reads:
                        assert rows == heap, (index_name, sarg, snapshot, txn)
                    seen.append(heap)
        finally:
            versions.close_snapshot(fresh)
        return seen


def in_sarg(key, sarg):
    """The reference sarg test: equality on a key prefix, or the pk's
    half-open range; a NULL in the compared prefix never qualifies."""
    if "eq" in sarg:
        values = tuple(literal.value for literal in sarg["eq"])
        prefix = key[: len(values)]
        return None not in prefix + values and prefix == values
    if "low" in sarg:
        return (
            key[0] is not None
            and sarg["low"].value <= key[0] < sarg["high"].value
        )
    return True


def eq(*values):
    return {"eq": [ast.Literal(value) for value in values]}


#: Whole-index scans: every removed key is in their bounds.
FULL_SCANS = [(name, {}) for name in INDEXES]

SMALL = st.integers(min_value=0, max_value=2)
ID = st.integers(min_value=0, max_value=15)
PROBE = st.one_of(
    st.builds(lambda v: ("pk_t", eq(v)), ID),
    st.builds(lambda v: ("ux_u", eq(v)), ID),
    st.builds(lambda v: ("ix_a", eq(v)), SMALL),
    st.builds(lambda v: ("ix_ab", eq(v)), SMALL),
    st.builds(lambda a, b: ("ix_ab", eq(a, b)), SMALL, SMALL),
    st.builds(
        lambda low, high: ("pk_t", {
            "low": ast.Literal(low), "high": ast.Literal(high),
            "low_inclusive": True, "high_inclusive": False,
        }),
        ID, ID,
    ),
)
INSERT = st.builds(
    lambda i, u, a, b, v: (
        "sql", "INSERT INTO t VALUES (%d, %d, %d, %s, %d)"
        % (i, u, a, "NULL" if b is None else b, v),
    ),
    ID, ID, SMALL, st.one_of(st.none(), SMALL), SMALL,
)
UPDATE = st.builds(
    lambda assign, target, value: (
        "sql", "UPDATE t SET %s WHERE %s" % (assign, target % value)
    ),
    st.sampled_from(ASSIGNMENTS), st.sampled_from(TARGETS), ID,
)
DELETE = st.builds(
    lambda target, value: ("sql", "DELETE FROM t WHERE " + target % value),
    st.sampled_from(TARGETS), ID,
)
CONTROL = st.sampled_from([
    ("begin",), ("begin",), ("begin",), ("commit",), ("rollback",),
    ("snapshot",), ("snapshot",), ("release",), ("crash",),
])
STEP = st.one_of(INSERT, UPDATE, UPDATE, UPDATE, DELETE, CONTROL, CONTROL)


@settings(max_examples=50, deadline=None)
@given(
    steps=st.lists(STEP, min_size=8, max_size=24),
    probes=st.lists(PROBE, min_size=2, max_size=5),
)
def test_kept_key_apply_equals_the_reference(steps, probes):
    probes = FULL_SCANS + probes
    new, old = World(reference=False), World(reference=True)
    for op in steps + [("crash",)]:
        assert new.step(op) == old.step(op), op
        assert new.check(probes) == old.check(probes)


def test_kept_key_touches_only_the_changed_index():
    world = World(reference=False)
    server = world.server
    indexes = {name: server.catalog.index(name) for name in INDEXES}
    trees = {name: index.btree for name, index in indexes.items()}
    before = {name: list(tree.range_scan()) for name, tree in trees.items()}
    world.step(("sql", "UPDATE t SET b = 1 WHERE id = 0"))  # (0, 0) -> (0, 1)
    after = {name: list(tree.range_scan()) for name, tree in trees.items()}
    # Only ix_ab moved its entry; every other index is entry-for-entry
    # what it was.
    assert [name for name in INDEXES if before[name] != after[name]] == [
        "ix_ab"
    ]


def test_unique_index_keeps_its_entry_through_update_and_rollback():
    world = World(reference=False)
    writer = world.writer
    writer.begin()
    assert world.step(("sql", "UPDATE t SET v = 5 WHERE u = 1")) == 1
    writer.rollback()
    check_indexes_match_heap(world.server)
    # The kept entry still guards uniqueness.
    assert world.step(("sql", "INSERT INTO t VALUES (9, 1, 0, 0, 0)")) == (
        "ExecutionError"
    )


# --------------------------------------------------------------------- #
# the exact pin: point reads meeting open non-key UPDATEs
# --------------------------------------------------------------------- #

HOT = (1, 2, 3)


def scheduled_point_reads(reference):
    """Two writers bump ``v`` on hot rows in two-row transactions while
    two readers run point SELECTs on the same rows; returns how often a
    read met an open UPDATE, the pages fetched per file, every value read
    and the final table."""
    server = Server(ServerConfig(start_buffer_governor=False))
    if reference:
        use_reference_apply(server)
    setup = server.connect()
    setup.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    server.load_table("t", [(i, 0) for i in range(32)])
    storage = server.catalog.table("t").storage
    get_visible = storage.get_visible
    met = []

    def noting_get_visible(row_id, snapshot, snapshot_txn=None):
        chain = storage._chain(row_id) or ()
        if any(entry.commit_lsn is None for entry in chain):
            met.append(row_id)
        return get_visible(row_id, snapshot, snapshot_txn)

    storage.get_visible = noting_get_visible
    scheduler = WorkloadScheduler(server, seed=3, switch_rate=0.9)
    reads = []

    def writer(first):
        def statements(connection):
            for step in range(6):
                # Locks in key order: the writers queue, never deadlock.
                k1, k2 = sorted(
                    (HOT[(first + step) % 3], HOT[(first + step + 1) % 3])
                )
                yield "BEGIN"
                yield "UPDATE t SET v = v + 1 WHERE id = %d" % k1
                yield "UPDATE t SET v = v + 1 WHERE id = %d" % k2
                yield "COMMIT"
        return statements

    def reader(name):
        def read(k):
            def run(connection):
                rows = connection.execute(
                    "SELECT v FROM t WHERE id = %d" % k
                ).rows
                reads.append((name, k, rows))
            return run
        return [read(HOT[i % 3]) for i in range(18)]

    scheduler.add_session("w0", writer(0))
    scheduler.add_session("w1", writer(1))
    scheduler.add_session("r0", reader("r0"))
    scheduler.add_session("r1", reader("r1"))
    report, pages = pages_fetched(server, scheduler.run)
    assert report["statement_errors"] == 0
    assert server.metrics.counter("exec.adaptive_fallbacks").value == 0
    final = setup.execute("SELECT id, v FROM t WHERE id <= 3").rows
    return len(met), pages, reads, final


def test_point_reads_meeting_open_non_key_updates_never_fall_back():
    met, pages, reads, final = scheduled_point_reads(reference=False)
    old_met, old_pages, old_reads, old_final = scheduled_point_reads(
        reference=True
    )
    # The schedule is not vacuous: this many reads met an open UPDATE of
    # their row, and each resolved the before-image through the tree
    # entry, under either apply.
    assert met == old_met == 34
    assert reads == old_reads and len(reads) == 36
    assert final == old_final == [(0, 0), (1, 8), (2, 8), (3, 8)]
    # The same table pages; the kept key spares the pk tree's delete
    # and re-insert on every UPDATE.
    assert pages["table:t"] == old_pages["table:t"]
    assert pages["index:pk_t"] < old_pages["index:pk_t"]
