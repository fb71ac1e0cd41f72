"""Unit tests for request tracing."""

from repro import Server, ServerConfig
from repro.profiling import Tracer
from repro.profiling.tracer import normalize_statement


class TestNormalization:
    def test_numbers_become_placeholders(self):
        template, constants = normalize_statement(
            "SELECT a FROM t WHERE id = 42 AND x > 3.5"
        )
        assert template == "SELECT a FROM t WHERE id = ? AND x > ?"
        assert constants == ("42", "3.5")

    def test_strings_become_placeholders(self):
        template, constants = normalize_statement(
            "SELECT a FROM t WHERE name = 'bob'"
        )
        assert template == "SELECT a FROM t WHERE name = ?"
        assert constants == ("'bob'",)

    def test_same_shape_same_template(self):
        t1, __ = normalize_statement("SELECT a FROM t WHERE id = 1")
        t2, __c = normalize_statement("SELECT a FROM t WHERE id = 999")
        assert t1 == t2

    def test_whitespace_normalized(self):
        t1, __ = normalize_statement("SELECT a\n  FROM t")
        assert t1 == "SELECT a FROM t"

    def test_mixed_literals_keep_statement_order(self):
        # Regression: the old two-pass implementation collected every
        # string before any number, so the constants came back out of
        # statement order (and numbers inside strings were re-replaced).
        template, constants = normalize_statement(
            "SELECT a FROM t WHERE id = 5 AND name = 'x' AND age > 30"
        )
        assert template == (
            "SELECT a FROM t WHERE id = ? AND name = ? AND age > ?"
        )
        assert constants == ("5", "'x'", "30")

    def test_numbers_inside_strings_stay_inside_strings(self):
        template, constants = normalize_statement(
            "SELECT a FROM t WHERE name = 'agent 007' AND id = 7"
        )
        assert template == "SELECT a FROM t WHERE name = ? AND id = ?"
        assert constants == ("'agent 007'", "7")

    def test_digits_in_quoted_identifiers_are_not_constants(self):
        t1, c1 = normalize_statement('SELECT "c 1" FROM t')
        t2, __ = normalize_statement('SELECT "c 2" FROM t')
        assert t1 == 'SELECT "c 1" FROM t' and c1 == ()
        assert t1 != t2

    def test_comments_are_dropped_not_read(self):
        template, constants = normalize_statement(
            "SELECT a FROM t -- run 1\nWHERE id = 4"
        )
        assert template == "SELECT a FROM t WHERE id = ?"
        assert constants == ("4",)

    def test_leading_dot_number_is_one_constant(self):
        template, constants = normalize_statement("SELECT a FROM t WHERE x > .5")
        assert template == "SELECT a FROM t WHERE x > ?"
        assert constants == (".5",)

    def test_exponent_is_part_of_the_constant(self):
        template, constants = normalize_statement("SELECT a FROM t WHERE x < 1e5")
        assert template == "SELECT a FROM t WHERE x < ?"
        assert constants == ("1e5",)


class TestTracer:
    def make_traced_server(self):
        server = Server(ServerConfig(start_buffer_governor=False))
        server.tracer = Tracer()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        return server, conn

    def test_events_recorded(self):
        server, conn = self.make_traced_server()
        before = len(server.tracer)
        conn.execute("SELECT * FROM t WHERE id = 1")
        assert len(server.tracer) == before + 1
        event = server.tracer.events[-1]
        assert event.template == "SELECT * FROM t WHERE id = ?"
        assert event.rows == 1
        assert event.elapsed_us >= 0

    def test_templates_grouping(self):
        server, conn = self.make_traced_server()
        for i in range(5):
            conn.execute("SELECT v FROM t WHERE id = %d" % i)
        groups = server.tracer.templates()
        assert len(groups["SELECT v FROM t WHERE id = ?"]) == 5

    def test_capacity_cap(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.record("SELECT %d" % i, 0, 1, 0, 0, 0)
        assert len(tracer) == 3

    def test_ring_buffer_keeps_most_recent_events(self):
        # Regression: at capacity the tracer used to drop the *newest*
        # events, so a long profiling run kept only its warm-up.
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.record("SELECT %d" % i, 0, 1, 0, 0, 0)
        assert [event.sequence for event in tracer.events] == [7, 8, 9]
        assert [event.constants for event in tracer.events] == [
            ("7",), ("8",), ("9",),
        ]
        assert tracer.dropped == 7

    def test_failed_statement_appears_in_trace_with_error(self):
        server, conn = self.make_traced_server()
        before = len(server.tracer)
        try:
            conn.execute("INSERT INTO t VALUES (1, 'dup')")  # dup pk
        except Exception:
            pass
        else:  # pragma: no cover - the insert must fail
            raise AssertionError("expected duplicate-key failure")
        assert len(server.tracer) == before + 1
        event = server.tracer.events[-1]
        assert event.template == "INSERT INTO t VALUES (?, ?)"
        assert event.error is not None
        assert "duplicate" in event.error
        assert event.elapsed_us >= 0
        assert event.rows == 0
        # successful statements keep a clean error field
        conn.execute("SELECT * FROM t WHERE id = 1")
        assert server.tracer.events[-1].error is None

    def test_save_to_database(self):
        server, conn = self.make_traced_server()
        conn.execute("SELECT * FROM t")
        conn.execute("SELECT v FROM t WHERE id = 2")
        tracer = server.tracer
        server.tracer = None  # stop tracing while persisting
        saved = tracer.save_to_database(conn)
        assert saved == len(tracer.events)
        stored = conn.execute("SELECT COUNT(*) FROM profiling_trace")
        assert stored.rows == [(saved,)]

    def test_save_to_separate_database(self):
        server, conn = self.make_traced_server()
        conn.execute("SELECT * FROM t")
        tracer = server.tracer
        # "storing the trace data on a database on a separate physical
        # machine" — a second server entirely.
        other = Server(ServerConfig(start_buffer_governor=False))
        other_conn = other.connect()
        tracer.save_to_database(other_conn)
        count = other_conn.execute("SELECT COUNT(*) FROM profiling_trace")
        assert count.rows[0][0] == len(tracer.events)
