"""Request tracing.

"As much detail as possible is collected about a database application and
a database instance ... a detailed trace of all server activity, including
SQL statements processed, performance counters ...  This trace information
is captured as an application runs, and is transferred ... into any SQL
Anywhere database, where it can be analyzed."
"""

import collections

from repro.common.errors import SqlParseError
from repro.sql.lexer import tokenize

TraceEvent = collections.namedtuple(
    "TraceEvent",
    [
        "sequence",
        "sql",
        "template",
        "constants",
        "start_us",
        "elapsed_us",
        "rows",
        "pool_misses",
        "pool_hits",
        "plan_signature",
        "error",
    ],
    defaults=(None,),
)

#: One injected fault observed by the tracer (``plan_sequence`` is the
#: fault's index in the FaultPlan's own log, so a post-mortem can join
#: the two records).
FaultTraceEvent = collections.namedtuple(
    "FaultTraceEvent", ["plan_sequence", "time_us", "site", "detail"]
)

#: One engine-level lifecycle event (checkpoint taken, crash simulated,
#: restart recovery finished) — the coarse activity the paper's trace
#: keeps alongside per-statement detail.
SystemTraceEvent = collections.namedtuple(
    "SystemTraceEvent", ["kind", "time_us", "detail"]
)

def normalize_statement(sql):
    """(template, constants): literals replaced by placeholders.

    The template is what the client-side-join detector groups by — two
    statements "differing only by some constant value used in a predicate"
    share a template.  It is read off the lexer's tokens, so a number or
    string literal becomes ``?`` and nothing else does: not digits inside
    a quoted identifier or a comment, not half of ``.5`` or ``1e5``.
    Every other token keeps its source text; comments are dropped and
    the gaps between tokens become one space.  Constants are the
    literals' source text in left-to-right statement order.  Text the
    lexer rejects is its own template, whitespace collapsed.
    """
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return " ".join(sql.split()), ()
    pieces = []
    constants = []
    end = 0
    for token in tokens[:-1]:
        if pieces and token.position > end:
            pieces.append(" ")
        text = sql[token.position:token.end]
        if token.kind in ("number", "string"):
            constants.append(text)
            text = "?"
        pieces.append(text)
        end = token.end
    return "".join(pieces), tuple(constants)


class Tracer:
    """Collects trace events; attach via ``server.tracer = Tracer(...)``.

    The event store is a ring buffer: at capacity the *oldest* events are
    dropped (a long run's trace shows recent activity, not just startup)
    and ``dropped`` counts how many were lost.  Sequence numbers are
    assigned before insertion, so they stay monotonic across wraparound.
    """

    def __init__(self, capacity=100_000):
        self.capacity = capacity
        self.events = collections.deque(maxlen=capacity)
        #: Injected faults seen while this tracer was attached (its own
        #: ring: fault storms must not evict statement events).
        self.fault_events = collections.deque(maxlen=capacity)
        #: Engine lifecycle events (checkpoints, crashes, recoveries).
        self.system_events = collections.deque(maxlen=capacity)
        self.dropped = 0
        self._sequence = 0

    def record(self, sql, start_us, elapsed_us, rows, pool_misses,
               pool_hits, plan_signature="", error=None):
        template, constants = normalize_statement(sql)
        event = TraceEvent(
            self._sequence, sql, template, constants, start_us, elapsed_us,
            rows, pool_misses, pool_hits, plan_signature, error,
        )
        self._sequence += 1
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)
        return event

    def record_fault(self, plan_sequence, time_us, site, detail=""):
        """Record one injected fault (called by the bound FaultPlan)."""
        event = FaultTraceEvent(plan_sequence, time_us, site, detail)
        self.fault_events.append(event)
        return event

    def record_system(self, kind, time_us, detail=""):
        """Record one engine lifecycle event (checkpoint/crash/recovery)."""
        event = SystemTraceEvent(kind, time_us, detail)
        self.system_events.append(event)
        return event

    def __len__(self):
        return len(self.events)

    def templates(self):
        """template -> [events] grouping."""
        grouped = {}
        for event in self.events:
            grouped.setdefault(event.template, []).append(event)
        return grouped

    # ------------------------------------------------------------------ #
    # persistence into a database (the paper's trace-to-database flow)
    # ------------------------------------------------------------------ #

    TRACE_TABLE_DDL = (
        "CREATE TABLE profiling_trace ("
        "seq INT PRIMARY KEY, template VARCHAR(200), start_us INT, "
        "elapsed_us INT, result_rows INT, pool_misses INT, pool_hits INT, "
        "error VARCHAR(200))"
    )

    def save_to_database(self, connection, table_created=False):
        """Store the trace in a database through ordinary SQL.

        The target may be the traced database itself (convenience) or a
        separate server (performance) — any connection works.
        """
        if not table_created:
            connection.execute(self.TRACE_TABLE_DDL)
        for event in list(self.events):
            connection.execute(
                "INSERT INTO profiling_trace VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                params=[
                    event.sequence,
                    event.template[:200],
                    int(event.start_us),
                    int(event.elapsed_us),
                    int(event.rows),
                    int(event.pool_misses),
                    int(event.pool_hits),
                    event.error[:200] if event.error is not None else None,
                ],
            )
        return len(self.events)
