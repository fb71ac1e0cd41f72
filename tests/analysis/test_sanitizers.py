"""Runtime sanitizers: each one catches a deliberately seeded bug and
reports the origin, and the clean engine passes them all."""

import pytest

from repro import Server, ServerConfig
from repro.analysis.sanitizers import (
    BoundFormError,
    ClockError,
    GovernorDriftError,
    PageImageError,
    PinLeakError,
    QuotaAccountingError,
    RecoveryIdempotenceError,
    ReplacementError,
    ResidentCountError,
    SanitizedBufferGovernor,
    SanitizedBufferPool,
    SanitizedGClockPolicy,
    SanitizedMemoryGovernor,
    SanitizedSimClock,
    SanitizedVolume,
)
from repro.buffer import BufferPool, GovernorConfig
from repro.buffer.frames import Frame, PageKind
from repro.buffer.replacement import GClockPolicy
from repro.common import MiB, SimClock
from repro.common.errors import MemoryQuotaExceededError
from repro.exec.operators import SeqScanOp
from repro.exec.spill import WorkMemory
from repro.ossim import OperatingSystem
from repro.storage import FlashDisk, Volume
from repro.storage.rowstore import TableStorage

pytestmark = pytest.mark.sanitizer


def make_server(pool_pages=256, mpl=2):
    config = ServerConfig(
        start_buffer_governor=False,
        initial_pool_pages=pool_pages,
        multiprogramming_level=mpl,
        governor=GovernorConfig(upper_bound_bytes=64 * MiB),
    )
    return Server(config, sanitize=True)


class _StubPool:
    capacity_pages = 8


def make_governor(mpl=4):
    return SanitizedMemoryGovernor(
        _StubPool(), max_pool_pages=100, multiprogramming_level=mpl,
        clock=SimClock(),
    )


class _PhantomConsumer:
    """Claims pages the task never allocated (a planted accounting bug)."""

    memory_pages = 4

    def relinquish_memory(self):
        return 0


class _EvictingConsumer:
    """Relinquishes by evicting bytes from its WorkMemory, as HashJoin,
    Sort and Distinct do when the governor asks them."""

    memory = None

    def __init__(self, task, evict_bytes, depth=1, page_size=100):
        self.evict_bytes = evict_bytes
        self.depth = depth
        self.relinquish_calls = 0
        self.memory = WorkMemory(task, page_size, self)

    @property
    def memory_pages(self):
        return self.memory.pages_held if self.memory is not None else 0

    def relinquish_memory(self):
        self.relinquish_calls += 1
        before = self.memory.pages_held
        self.memory.remove(self.evict_bytes)
        return before - self.memory.pages_held


class _ForgetfulConsumer(_EvictingConsumer):
    """Relinquishes by dropping its pages without telling the task (a
    planted accounting bug)."""

    def relinquish_memory(self):
        freed, self.memory.pages_held = self.memory.pages_held, 0
        self.memory.bytes_used = 0
        return freed


class TestPinLeakDetector:
    def test_pin_leak_reported_with_origin(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1)")
        leak = server.pool.new_page(server.temp_file)  # the planted leak
        with pytest.raises(PinLeakError) as excinfo:
            conn.execute("SELECT * FROM t")
        message = str(excinfo.value)
        assert "test_sanitizers.py" in message
        assert "test_pin_leak_reported_with_origin" in message
        server.pool.unpin(leak)
        conn.close()

    def test_pin_origins_tracks_and_clears(self):
        server = make_server()
        assert isinstance(server.pool, SanitizedBufferPool)
        frame = server.pool.new_page(server.temp_file)
        origins = server.pool.pin_origins()
        assert frame.key in origins
        assert any("test_sanitizers.py" in site for site in origins[frame.key])
        server.pool.unpin(frame)
        assert server.pool.pin_origins() == {}
        server.pool.assert_no_pins()  # clean pool does not raise

    def test_pin_guard_releases_on_error(self):
        server = make_server()
        frame = server.pool.new_page(server.temp_file)
        with pytest.raises(RuntimeError):
            with server.pool.pin_guard(frame, dirty=True):
                raise RuntimeError("boom")
        assert server.pool.pinned_count() == 0
        server.pool.assert_no_pins()

    def test_statements_and_cursors_leave_no_pins(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT, b INT)")
        server.load_table("t", [(i, i * i) for i in range(200)])
        conn.execute("SELECT * FROM t WHERE a < 50 ORDER BY b")
        cursor = conn.open_cursor("SELECT a FROM t ORDER BY a")
        assert cursor.fetchmany(10)
        assert server.pool.pinned_count() == 0
        cursor.close()
        conn.close()


class TestQuotaSanitizer:
    def test_phantom_consumer_reported_with_origin(self):
        governor = make_governor()
        task = governor.begin_task()
        with pytest.raises(QuotaAccountingError) as excinfo:
            task.register_consumer(_PhantomConsumer(), depth=0)
        message = str(excinfo.value)
        assert "register_consumer" in message
        assert "hold 4 pages but used_pages=0" in message
        assert "test_sanitizers.py" in message

    def test_over_release_reported(self):
        governor = make_governor()
        task = governor.begin_task()
        memory = _EvictingConsumer(task, 0).memory
        memory.add(200)
        with pytest.raises(QuotaAccountingError) as excinfo:
            task.release(memory, 5)
        assert "over-release" in str(excinfo.value)

    def test_dirty_teardown_reported(self):
        governor = make_governor()
        task = governor.begin_task()
        consumer = _EvictingConsumer(task, 0)
        consumer.memory.add(300)
        task._consumers.clear()  # lose the registration, keep the pages
        with pytest.raises(QuotaAccountingError) as excinfo:
            governor.end_task(task)
        assert "used_pages=3" in str(excinfo.value)

    def test_stale_consumer_at_teardown_reported(self):
        governor = make_governor()
        task = governor.begin_task()
        _EvictingConsumer(task, 0)
        with pytest.raises(QuotaAccountingError) as excinfo:
            governor.end_task(task)
        assert "_EvictingConsumer" in str(excinfo.value)

    def test_unregistered_work_memory_reported(self):
        """Pages held by a work memory whose owner is not registered
        break the ledger's equality."""
        governor = make_governor()
        task = governor.begin_task()
        consumer = _EvictingConsumer(task, 0)
        consumer.memory.add(100)
        with pytest.raises(QuotaAccountingError) as excinfo:
            task.unregister_consumer(consumer)
        assert "hold 0 pages but used_pages=1" in str(excinfo.value)

    def test_relinquish_without_remove_reported(self):
        """A consumer that frees its pages behind the task's back is
        caught at the next transition of the ledger."""
        governor = make_governor(mpl=4)  # soft limit: 8 // 4 = 2 pages
        task = governor.begin_task()
        forgetful = _ForgetfulConsumer(task, 0, depth=0)
        forgetful.memory.add(200)
        caller = _EvictingConsumer(task, 0, depth=1)
        # The walk asks it, and the task still sees no room.
        assert not caller.memory.reserve(100)
        with pytest.raises(QuotaAccountingError) as excinfo:
            caller.memory.add(100)
        assert "allocate(1)" in str(excinfo.value)
        assert "hold 1 pages but used_pages=3" in str(excinfo.value)


class TestWorkMemoryReentrancy:
    """The soft-limit walk never re-enters the caller: an operator whose
    own request crosses the soft limit is told so and degrades itself."""

    def _task_and_memory(self):
        governor = make_governor(mpl=4)  # soft limit: 8 // 4 = 2 pages
        task = governor.begin_task()
        consumer = _EvictingConsumer(task, evict_bytes=150)
        return governor, task, consumer.memory, consumer

    def test_reentrant_reclaim_keeps_accounting_consistent(self):
        governor, task, memory, consumer = self._task_and_memory()
        assert memory.reserve(150)  # 2 pages, at the soft limit
        # The next request crosses the soft limit: the caller is not
        # asked; it degrades itself (here: evicts), then takes the bytes.
        assert not memory.reserve(100)
        assert consumer.relinquish_calls == 0
        assert task.soft_limit_hits == 1
        memory.remove(150)
        memory.add(100)
        assert memory.pages_held == task.used_pages == 1
        memory.release_all()
        assert task.used_pages == 0
        governor.end_task(task)  # sanitizer: clean teardown

    def test_sanitizer_flags_the_old_overwrite_behaviour(self):
        """Replaying the old re-entrant add() (overwrite pages_held with
        a target the task never allocated) trips the sanitizer at the
        next transition."""
        governor, task, memory, consumer = self._task_and_memory()
        memory.add(150)
        memory.bytes_used += 100
        memory.pages_held = 3  # the old bug: ignores the ledger
        with pytest.raises(QuotaAccountingError):
            memory.release_all()

    def test_quota_killed_statement_tears_down_clean(self):
        """End-to-end: a statement killed by the hard limit unwinds with
        zero pins, zero pages, and no stale consumers (the sanitizers
        would raise from end_task / assert_no_pins otherwise)."""
        server = make_server(pool_pages=64, mpl=1)
        server.memory_governor.max_pool_pages = 8  # pathological ceiling
        assert isinstance(server.memory_governor, SanitizedMemoryGovernor)
        conn = server.connect()
        conn.execute("CREATE TABLE t (k INT, v VARCHAR(10))")
        server.load_table("t", [(i, "v%d" % i) for i in range(5000)])
        with pytest.raises(MemoryQuotaExceededError):
            conn.execute("SELECT DISTINCT k FROM t ORDER BY k")
        assert server.pool.pinned_count() == 0
        assert server.memory_governor.total_used_pages() == 0


class TestClockSanitizer:
    def test_normal_advance_and_timers_pass(self):
        clock = SanitizedSimClock()
        fired = []
        clock.call_after(5, lambda: fired.append(clock.now))
        clock.advance(10)
        assert fired == [5] and clock.now == 10

    def test_rewind_detected(self):
        clock = SanitizedSimClock()
        clock.advance(10)
        clock._now = 3  # a component rewinding time behind our back
        with pytest.raises(ClockError):
            clock.advance(0)


class TestGClockSanitizer:
    def _frames(self, n, kind=PageKind.TEMP):
        return [Frame(kind, heap_ref=("h", i)) for i in range(n)]

    def test_valid_sweep_passes(self):
        policy = SanitizedGClockPolicy()
        frames = self._frames(3)
        for tick, frame in enumerate(frames):
            policy.on_insert(frame, tick)
        victim = policy.choose_victim(set(frames), tick)
        assert victim in frames and not victim.pinned

    def test_corrupted_hand_detected(self):
        policy = SanitizedGClockPolicy()
        frames = self._frames(2)
        for tick, frame in enumerate(frames):
            policy.on_insert(frame, tick)
        policy._hand = 7  # plant the PR 1 hand-drift corruption
        with pytest.raises(ReplacementError):
            policy.choose_victim(set(frames), 2)

    def test_server_uses_sanitized_policy(self):
        server = make_server()
        assert isinstance(server.pool.policy, SanitizedGClockPolicy)

    def test_skipped_move_to_end_detected(self):
        """Plant the bug the reference order invites: a reference that
        stamps the tick but leaves the frame where it was, so the head no
        longer carries the ring's oldest tick."""

        class Forgetful(SanitizedGClockPolicy):
            def on_reference(self, frame, tick):
                frame.last_ref_tick = tick  # no move_to_end

        policy = Forgetful()
        frames = self._frames(3)
        for tick, frame in enumerate(frames):
            policy.on_insert(frame, tick)
        policy.on_reference(frames[0], 10)
        with pytest.raises(ReplacementError) as excinfo:
            policy.choose_victim(set(frames), 11)
        assert "reference-order head has tick 10" in str(excinfo.value)
        with pytest.raises(ReplacementError):
            policy.on_remove(frames[2])

    def test_decreasing_tick_detected(self):
        policy = SanitizedGClockPolicy()
        frames = self._frames(3)
        for tick, frame in enumerate(frames):
            policy.on_insert(frame, 10 * (tick + 1))
        policy.on_reference(frames[1], 15)  # after tick 30: time ran back
        with pytest.raises(ReplacementError) as excinfo:
            policy.check_reference_order("statement end")
        assert "decreasing tick" in str(excinfo.value)

    def test_ring_and_reference_order_must_hold_the_same_frames(self):
        policy = SanitizedGClockPolicy()
        frames = self._frames(2)
        for tick, frame in enumerate(frames):
            policy.on_insert(frame, tick)
        del policy._by_reference[frames[0]]
        with pytest.raises(ReplacementError) as excinfo:
            policy.choose_victim(set(frames), 2)
        assert "hold different frames" in str(excinfo.value)

    def test_hits_are_not_intercepted(self):
        """The checks run on sweeps, removals and statement boundaries; a
        hit costs the same with sanitizers on."""
        assert (
            SanitizedGClockPolicy.on_reference is GClockPolicy.on_reference
        )


class TestResidentCountSanitizer:
    def test_drift_detected_at_the_statement_boundary(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        table_file = server.catalog.table("t").storage.file
        server.pool._resident[table_file] += 1  # a drop that forgot to count
        with pytest.raises(ResidentCountError) as excinfo:
            conn.execute("SELECT a FROM t")
        assert "resident counts drifted at statement end" in str(
            excinfo.value
        )

    def test_statement_boundary_also_checks_the_policy(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        conn.execute("CREATE TABLE u (a INT PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("INSERT INTO u VALUES (1)")
        u_file = server.catalog.table("u").storage.file
        stale = next(
            f for f in server.pool._frames.values() if f.owner is u_file
        )
        stale.last_ref_tick = 10**9  # a tick the order does not reflect
        with pytest.raises(ReplacementError):
            conn.execute("SELECT a FROM t")  # never touches u's frames


class TestPageImageSanitizer:
    """The volume's copy shares what it takes for values; the sanitizer
    walks source and copy after every transfer."""

    PAGE = {"lsn": 1, "slots": [(1, "a"), None], "tail": (2, ["x"])}

    def make_volume(self):
        return SanitizedVolume(FlashDisk(SimClock(), 10_000))

    def test_clean_copy_passes_and_keeps_the_images_apart(self):
        volume = self.make_volume()
        page = {**self.PAGE, "slots": list(self.PAGE["slots"])}
        volume.write_payload(3, page)
        page["slots"][1] = (2, "b")
        assert volume.read_payload(3) == self.PAGE

    @pytest.mark.parametrize("broken_copy, complaint", [
        (lambda value: value, "share"),        # no copy at all
        (dict, "share"),                       # one level deep
        (lambda value: {**value, "lsn": 0}, "differs"),
    ])
    def test_broken_copy_is_caught_on_write_and_on_read(
        self, monkeypatch, broken_copy, complaint
    ):
        volume = self.make_volume()
        volume.write_payload(3, self.PAGE)
        monkeypatch.setattr(
            "repro.storage.pagedfile._copy_payload", broken_copy
        )
        with pytest.raises(PageImageError) as excinfo:
            volume.write_payload(4, self.PAGE)
        assert "write_payload" in str(excinfo.value)
        assert complaint in str(excinfo.value)
        with pytest.raises(PageImageError) as excinfo:
            volume.read_payload(3)
        assert "read_payload" in str(excinfo.value)
        assert complaint in str(excinfo.value)

    def test_a_container_under_a_shared_tuple_is_found(self, monkeypatch):
        """The copy that would be wrong for a checkpoint record: sharing
        a tuple because tuples are immutable, whatever it holds."""
        def shares_every_tuple(value):
            if isinstance(value, dict):
                return {k: shares_every_tuple(v) for k, v in value.items()}
            if isinstance(value, list):
                return [shares_every_tuple(item) for item in value]
            return value

        monkeypatch.setattr(
            "repro.storage.pagedfile._copy_payload", shares_every_tuple
        )
        with pytest.raises(PageImageError):
            self.make_volume().write_payload(3, self.PAGE)

    def test_the_sanitized_server_builds_it(self):
        assert isinstance(make_server().volume, SanitizedVolume)
        plain = Server(
            ServerConfig(start_buffer_governor=False), sanitize=False
        )
        assert type(plain.volume) is Volume


def make_sanitized_buffer_governor():
    clock = SimClock()
    os_sim = OperatingSystem(256 * MiB)
    process = os_sim.spawn("dbserver")
    volume = Volume(FlashDisk(clock, 500_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
    governor = SanitizedBufferGovernor(
        clock, os_sim, process, pool,
        database_size_fn=lambda: 10**12,
        config=GovernorConfig(),
    )
    return volume, pool, governor


def force_misses(pool, volume, n=5):
    dbfile = volume.create_file("missfile")
    pages = []
    for i in range(n):
        frame = pool.new_page(dbfile, PageKind.TABLE, payload=i)
        pages.append(frame.page_no)
        pool.unpin(frame)
    pool.flush_all()
    pool.discard(dbfile)
    for page in pages:
        pool.unpin(pool.fetch(dbfile, page))


class TestGovernorDriftSanitizer:
    def test_server_uses_sanitized_governor(self):
        server = make_server()
        assert isinstance(server.buffer_governor, SanitizedBufferGovernor)

    def test_clean_resize_passes(self):
        volume, pool, governor = make_sanitized_buffer_governor()
        force_misses(pool, volume)
        sample = governor.poll_once()  # a GROW with proper allocation sync
        assert sample.action == "grow"

    def test_forgotten_allocation_sync_detected(self):
        """Plant the drift bug: a resize that skips the process-allocation
        update leaves the control law steering on a stale reference."""
        volume, pool, governor = make_sanitized_buffer_governor()
        governor._sync_process_allocation = lambda: None
        force_misses(pool, volume)
        with pytest.raises(GovernorDriftError) as excinfo:
            governor.poll_once()
        assert "governor drift after grow" in str(excinfo.value)


class TestRecoveryIdempotenceSanitizer:
    def test_clean_recovery_passes_the_second_redo_pass(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        server.crash()
        server.restart()  # sanitize on: the idempotence replay runs
        assert list(conn.execute("SELECT a FROM t ORDER BY a")) == [(1,), (2,)]
        conn.close()

    def test_broken_lsn_guard_detected(self, monkeypatch):
        """Plant the classic redo bug: redo_apply that claims to apply on
        every replay (a missing page-LSN guard).  The second pass must
        trip the sanitizer."""
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1)")
        server.crash()
        real = TableStorage.redo_apply
        monkeypatch.setattr(
            TableStorage, "redo_apply",
            lambda self, record: bool(real(self, record)) or True,
        )
        with pytest.raises(RecoveryIdempotenceError) as excinfo:
            server.restart()
        assert "redo is not idempotent" in str(excinfo.value)


class TestBoundFormSanitizer:
    SELECT = "SELECT a FROM t WHERE b = 3"

    def _server(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        conn.execute("INSERT INTO t VALUES (1, 3), (2, 4)")
        return server, conn

    def test_clean_hits_pass(self):
        server, conn = self._server()
        for __ in range(3):
            assert conn.execute(self.SELECT).rows == [(1,)]
        assert server.metrics.snapshot()["statements.cache_hits"] == 2

    def test_operator_writing_a_conjunct_detected(self, monkeypatch):
        """Plant an operator that writes into the shared bound form (it
        "caches" its predicate reading on the conjunct): the next
        execution of the same text must trip the sanitizer."""
        server, conn = self._server()
        build = SeqScanOp.__init__

        def writing(self, quantifier, conjuncts):
            build(self, quantifier, conjuncts)
            for conjunct in conjuncts:
                conjunct.column = None

        monkeypatch.setattr(SeqScanOp, "__init__", writing)
        conn.execute(self.SELECT)
        with pytest.raises(BoundFormError) as excinfo:
            conn.execute(self.SELECT)
        assert self.SELECT in str(excinfo.value)


class TestEnablement:
    def test_sanitize_false_uses_plain_components(self):
        from repro.analysis import sanitizers as mod

        mod.set_sanitizers_enabled(False)
        server = Server(ServerConfig(start_buffer_governor=False))
        assert not server.sanitize
        assert not isinstance(server.pool, SanitizedBufferPool)

    def test_fixture_default_is_sanitized(self):
        server = Server(ServerConfig(start_buffer_governor=False))
        assert server.sanitize
        assert isinstance(server.pool, SanitizedBufferPool)
