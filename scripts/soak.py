#!/usr/bin/env python
"""Soak driver: every seeded soak lane of CI through one run-twice loop.

A lane is a list of *cells*; a cell is ``(label, run, check, line)``:
``run(seed)`` builds fresh seeded servers, disturbs them and returns a
snapshot dict, ``check(snapshot)`` returns the cell's own problems and
``line`` is the %-template of its one-line summary, filled from the
snapshot (plus ``status``).  For every seed given
on the command line (default: the CI chaos seeds) the driver runs each
cell **twice** and requires **every** key of the two snapshots to match
— any divergence is a determinism bug — then runs the cell's check and
the index ≡ heap oracle on every server the cell kept (after the
snapshot: its reads may draw faults).  Diverging values and anything a
snapshot lists under ``"artifacts"`` are written below
``REPRO_ARTIFACT_DIR`` (default ``artifacts/<lane>``), which the CI lane
uploads.  Run under ``REPRO_SANITIZE=1`` so the runtime sanitizers
(scheduler admission, group-commit acks, ...) are live.

``concurrency`` — scheduler stress on one server with a small buffer
pool (page-miss yields), chaos-rate fault injection and group commit on:
a scan + insert mix whose second half commits back to back, and a
hot-row scenario where every session hammers one counter row, so lock
queues go deep and wakeup order exercises the seeded LOCK_WAKEUP stream;
and an insert-heavy cell, four sessions of single-row INSERTs whose
spread secondary index outgrows the pool, so a page-miss yield often
lands between a heap insert's choice of page and its write.
Any unabsorbed error is a robustness bug.

``replication`` — a 1-primary/2-replica cluster under device and network
chaos: a clean shutdown (every statement must ack and the promoted
replica must equal the abandoned primary row for row) and a kill inside
a batched ``wal.group_force`` (the full replicated crash oracle: zero
acknowledged loss, no invented commits, committed-exactly against a
single-node reference replay).

``metamorphic`` — seeded query generation (:mod:`repro.testgen`) under
the TLP and NoREC oracles, a quiescent sweep and a chaos +
scheduler-burst sweep; between them at least 2,000 generated statements
per seed must pass with **zero violations**.  A third sweep makes every
TLP check a grouped aggregate (``GROUP BY g`` with COUNT / SUM / MIN /
MAX), recombined group by group.  A violation's shrunken
``(seed, schema_seed, statement_index)`` triple plus statement trace is
an artifact, and the triple replays locally as::

    PYTHONPATH=src python -c \
        "from repro.testgen import replay_triple; \
         replay_triple(SEED, SCHEMA_SEED, INDEX, raise_on_violation=True)"

Usage::

    REPRO_SANITIZE=1 python scripts/soak.py concurrency 101 202 303
"""

import collections
import functools
import json
import operator
import os
import sys

sys.path.insert(0, "src")

from repro import Server, ServerConfig  # noqa: E402
from repro.engine import WorkloadScheduler  # noqa: E402
from repro.faults import FaultPlan, FaultRates  # noqa: E402
from repro.recovery import (  # noqa: E402
    CrashPoint,
    VerificationError,
    check_indexes_match_heap,
    state_fingerprint,
)
from repro.replication import (  # noqa: E402
    ReplicatedCrashHarness,
    ReplicationConfig,
)
from repro.storage.log import CRASH_GROUP_FORCE  # noqa: E402
from repro.testgen import AdversarialHarness  # noqa: E402

DEFAULT_SEEDS = (101, 202, 303)
POOL_PAGES = 24

#: Chaos defaults, cranked ~10× so these short workloads still draw
#: faults on every seed; the retry budgets keep them all absorbable.
#: The network rates only bite where there are links (the replicas' own
#: devices stay quiet — the cluster arms them so).
SOAK_RATES = FaultRates(
    disk_read_error=0.03,
    disk_write_error=0.03,
    disk_latency=0.02,
    log_force_error=0.02,
    spill_write_error=0.03,
    net_send_drop=0.10,
    net_partition=0.02,
)

Cell = collections.namedtuple("Cell", ["label", "run", "check", "line"])


def soak_config(seed, **extra):
    settings = dict(
        start_buffer_governor=False,
        initial_pool_pages=POOL_PAGES,
        multiprogramming_level=3,
        fault_plan=FaultPlan(seed=seed, rates=SOAK_RATES),
    )
    return ServerConfig(**dict(settings, **extra))


# ---------------------------------------------------------------------- #
# concurrency
# ---------------------------------------------------------------------- #

N_SESSIONS = 5
STATEMENTS = 8
HOT_SESSIONS = 4
HOT_STATEMENTS = 6

INSERT_SESSIONS = 4
INSERTS = 1_000

CREATE_T = "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
CREATE_PADDED_T = (
    "CREATE TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR(40))",
    "CREATE INDEX t_v ON t (v)",
)


def initial_rows(n_rows):
    return [(i, i % 13) for i in range(n_rows)]


def insert(base, k, i, stride=7):
    return "INSERT INTO t VALUES (%d, %d)" % (
        base + 1_000 * k + i, (k * stride + i) % 13
    )


def mixed_statements(k):
    statements = []
    # First half: scan-heavy mix, commits spaced past the idle
    # threshold (window collapses, force-per-commit path).
    for i in range(STATEMENTS // 2):
        statements += [
            "SELECT count(*), sum(v) FROM t WHERE v = %d" % ((i + k) % 13),
            insert(100_000, k, i),
        ]
    # Second half: back-to-back commits from every session — the
    # bursty arrivals that widen the window and batch forces.
    for i in range(STATEMENTS // 2, STATEMENTS):
        statements += [insert(100_000, k, i), insert(200_000, k, i, 11)]
    return statements


def hot_row_statements(k):
    return [
        sql
        for i in range(HOT_STATEMENTS)
        for sql in (
            "UPDATE t SET v = v + 1 WHERE id = 0",
            "SELECT count(*), sum(v) FROM t WHERE v >= %d" % ((i + k) % 7),
        )
    ]


def table_rows(connection):
    return sorted(
        tuple(row) for row in connection.execute("SELECT id, v FROM t").rows
    )


def insert_statements(k):
    """Single-row INSERTs whose ``v`` spreads over the index's range, so
    the index outgrows the pool and nearly every insert fetches a page
    that is not resident."""
    return [
        "INSERT INTO t VALUES (%d, %d, '%s')"
        % (1_000 * k + i, (7919 * k + 31 * i) % 10007, "p" * 40)
        for i in range(INSERTS)
    ]


def run_sessions(seed, prefix, n_sessions, statements, n_rows, counters,
                 ddl=(CREATE_T,), switch_rate=0.5, **config):
    """One scheduler run of ``n_sessions`` sessions (session k runs
    ``statements(k)``) over an ``n_rows``-row table made by ``ddl``, on
    a :func:`soak_config` server with ``config`` on top; ``counters``
    names the server attributes the scenario also records."""
    server = Server(soak_config(seed, **config))
    connection = server.connect()
    for sql in ddl:
        connection.execute(sql)
    server.load_table("t", initial_rows(n_rows))
    scheduler = WorkloadScheduler(
        server, seed=seed, switch_rate=switch_rate
    )
    issued = 0
    for k in range(n_sessions):
        session_statements = statements(k)
        scheduler.add_session("%s%d" % (prefix, k), session_statements)
        issued += len(session_statements)
    report = scheduler.run()
    rows = table_rows(connection)
    trace = scheduler.trace_lines()
    snapshot = dict(
        report,
        issued=issued,
        trace=trace,
        trace_bytes=len(trace),
        per_session=[
            (s.name, s.status, s.statements_run, s.statements_failed)
            for s in scheduler.sessions
        ],
        rows=rows,
        injected=server.fault_plan.injected,
        servers=[server],
    )
    for name in counters:
        snapshot[name] = operator.attrgetter(name)(server)
    return snapshot


def check_sessions(snapshot):
    problems = []
    if (
        snapshot["statements"] + snapshot["statement_errors"]
        != snapshot["issued"]
    ):
        problems.append(
            "%(statements)d statements + %(statement_errors)d errors != "
            "%(issued)d issued" % snapshot
        )
    if snapshot.get("lock_manager.waits") == 0:
        problems.append("no lock waits — the scenario exercised nothing")
    if snapshot["aborted_sessions"]:
        problems.append("%(aborted_sessions)d sessions aborted" % snapshot)
    return problems


CONCURRENCY = [
    Cell(
        "seed %d",
        lambda seed: run_sessions(
            seed, "s", N_SESSIONS, mixed_statements, 4000,
            ("group_commit.batches", "group_commit.committed"),
        ),
        check_sessions,
        "%(statements)d statements, %(statement_errors)d absorbed errors, "
        "%(switches)d switches, %(injected)d faults injected, "
        "%(group_commit.committed)d commits in %(group_commit.batches)d "
        "batches, trace %(trace_bytes)d bytes%(status)s",
    ),
    Cell(
        "hot-row seed %d",
        lambda seed: run_sessions(
            seed, "h", HOT_SESSIONS, hot_row_statements, 200,
            ("lock_manager.waits", "lock_manager.deadlocks"),
        ),
        check_sessions,
        "%(statements)d statements, %(lock_manager.waits)d lock waits, "
        "%(lock_manager.deadlocks)d deadlocks, %(injected)d faults "
        "injected, trace %(trace_bytes)d bytes%(status)s",
    ),
    Cell(
        "insert seed %d",
        lambda seed: run_sessions(
            seed, "i", INSERT_SESSIONS, insert_statements, 0,
            ("pool.evictions",), ddl=CREATE_PADDED_T, switch_rate=0.9,
            multiprogramming_level=INSERT_SESSIONS,
        ),
        check_sessions,
        "%(statements)d statements, %(statement_errors)d absorbed errors, "
        "%(switches)d switches, %(pool.evictions)d evictions, "
        "%(injected)d faults injected, trace %(trace_bytes)d "
        "bytes%(status)s",
    ),
]

# ---------------------------------------------------------------------- #
# replication
# ---------------------------------------------------------------------- #

REPL_SESSIONS = 4
REPL_STATEMENTS = 6
CRASH_OCCURRENCE = 10


def run_replicated(seed, crash):
    harness = ReplicatedCrashHarness(
        soak_config(
            seed,
            replication=ReplicationConfig(n_replicas=2),
            start_checkpoint_governor=False,
        ),
        [CREATE_T], [("t", initial_rows(400))],
        [
            (
                "s%d" % k,
                [insert(10_000, k, i) for i in range(REPL_STATEMENTS)],
            )
            for k in range(REPL_SESSIONS)
        ],
        crash_point=(
            CrashPoint(CRASH_GROUP_FORCE, CRASH_OCCURRENCE) if crash
            else None
        ),
        seed=seed, tear_spare_tail=crash,
    )
    report = harness.run()
    cluster = harness.cluster
    trace = harness.scheduler.trace_lines()
    snapshot = {
        **vars(report),
        "recovery": None,  # an object: equal only to itself
        "n_acked": len(report.acked_statements),
        "n_survivors": len(report.survivors),
        "trace": trace,
        "trace_bytes": len(trace),
        "fault_log": cluster.primary.fault_plan.log_lines(),
        "fingerprint": state_fingerprint(harness.server),
        "frames": cluster.primary.metrics.value("repl.frames_published"),
        "ship_retries": cluster.publisher.ship_retries,
        "replicas": [
            (r.name, r.frames_received, r.records_applied)
            for r in cluster.replicas
        ],
        "links": "/".join(
            "%s sent=%d drop=%d part=%d" % (
                link.name.split(">")[-1], link.delivered, link.drops,
                link.partitions,
            )
            for link in cluster.network.links
        ),
        "primary_rows": sorted(
            tuple(row)
            for __, row in cluster.primary.catalog.table("t").storage.scan()
        ),
        "servers": [harness.server],
    }
    connection = harness.server.connect()
    snapshot["promoted_rows"] = table_rows(connection)
    connection.close()
    return snapshot


def check_replicated(snapshot, crash):
    problems = []
    if crash:
        if not snapshot["crashed"]:
            problems.append("the crash point never fired")
        return problems
    if snapshot["n_acked"] != REPL_SESSIONS * REPL_STATEMENTS:
        problems.append(
            "%d/%d statements acked on a clean run"
            % (snapshot["n_acked"], REPL_SESSIONS * REPL_STATEMENTS)
        )
    if snapshot["promoted_rows"] != snapshot["primary_rows"]:
        problems.append("promoted rows diverge from the abandoned primary")
    return problems


REPLICATION = [
    Cell(
        label,
        functools.partial(run_replicated, crash=crash),
        functools.partial(check_replicated, crash=crash),
        "%(n_acked)d acked, %(n_survivors)d survivors, %(frames)d frames "
        "shipped, %(ship_retries)d ship retries, links %(links)s, failover "
        "%(failover_us)s us, trace %(trace_bytes)d bytes%(status)s",
    )
    for label, crash in (("clean seed %d", False), ("crash seed %d", True))
]

# ---------------------------------------------------------------------- #
# metamorphic
# ---------------------------------------------------------------------- #

def run_metamorphic(seed, schema_offset, statements, **kwargs):
    harness = AdversarialHarness(
        seed, seed + schema_offset, statements=statements, **kwargs
    )
    result = harness.run()
    return {
        "log": result.log_text(),
        "summary": result.summary(),
        "oracle_statements": result.oracle_statements,
        "violations": [v.describe()[:200] for v in result.violations],
        "artifacts": {
            "violation-seed%d-schema%d-stmt%d.json"
            % (v.seed, v.schema_seed, v.statement_index): v.to_dict()
            for v in result.violations
        },
        "servers": [harness.server],
    }


def check_metamorphic(snapshot, floor):
    problems = list(snapshot["violations"])
    if snapshot["oracle_statements"] < floor:
        problems.append(
            "only %d oracle statements (< %d floor)"
            % (snapshot["oracle_statements"], floor)
        )
    return problems


#: Per configuration: label, the floor of generated statements that must
#: pass the oracles (2,000 per seed between the first two, each counted
#: once — the byte-identical second run re-checks the same statements)
#: and the harness knobs (~35% of the statement slots are DML, the rest
#: oracle checks; the schema varies across configurations).
METAMORPHIC = [
    Cell(
        label,
        functools.partial(run_metamorphic, **config),
        functools.partial(check_metamorphic, floor=floor),
        "%(summary)s",
    )
    for label, floor, config in (
        ("seed %d [quiescent]", 1400, dict(schema_offset=0, statements=2400)),
        ("seed %d [chaos+bursts]", 600, dict(
            schema_offset=17, statements=1200,
            chaos=True, scheduler_bursts=True,
        )),
        ("seed %d [grouped-tlp]", 600, dict(
            schema_offset=31, statements=1200, grouped_tlp=True,
        )),
    )
]

# ---------------------------------------------------------------------- #
# the driver
# ---------------------------------------------------------------------- #

#: lane -> (cells, what a green run has shown)
LANES = {
    "concurrency": (CONCURRENCY, "all deterministic"),
    "replication": (REPLICATION, "all deterministic"),
    "metamorphic": (
        METAMORPHIC,
        "TLP + NoREC clean, twice-per-seed logs byte-identical",
    ),
}


def write_artifact(lane, name, payload):
    directory = os.environ.get(
        "REPRO_ARTIFACT_DIR", os.path.join("artifacts", lane)
    )
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        if isinstance(payload, str):
            handle.write(payload)
        else:
            json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
    print("artifact: %s" % path)


def run_cell(cell, seed):
    """One run: the snapshot, then index ≡ heap on the servers it kept."""
    snapshot = cell.run(seed)
    problems = []
    for server in snapshot.pop("servers"):
        try:
            check_indexes_match_heap(server)
        except VerificationError as error:
            problems.append(str(error))
    return snapshot, problems


def soak_cell(lane, cell, seed):
    where = cell.label % seed
    first, problems = run_cell(cell, seed)
    second, second_problems = run_cell(cell, seed)
    problems += second_problems
    for key in sorted(first.keys() | second.keys()):
        if first.get(key) != second.get(key):
            problems.append("%r differs between runs" % (key,))
            for run, snapshot in enumerate((first, second), start=1):
                write_artifact(
                    lane,
                    "divergence-%s-%s-run%d.log"
                    % (where.replace(" ", "-"), key, run),
                    snapshot.get(key),
                )
    problems += cell.check(first)
    for name, payload in first.get("artifacts", {}).items():
        write_artifact(lane, name, payload)
    status = " [FAIL]" if problems else " [ok]"
    print("%s: %s" % (where, cell.line % dict(first, status=status)))
    return ["%s: %s" % (where, problem) for problem in problems]


def main(argv):
    if not argv or argv[0] not in LANES:
        print("usage: soak.py {%s} [SEED ...]" % "|".join(LANES))
        return 2
    lane = argv[0]
    cells, shown = LANES[lane]
    seeds = [int(arg) for arg in argv[1:]] or list(DEFAULT_SEEDS)
    problems = []
    for seed in seeds:
        for cell in cells:
            problems.extend(soak_cell(lane, cell, seed))
    for problem in problems:
        print("FAIL %s" % problem)
    if problems:
        return 1
    print("%s soak: %d seeds, %s" % (lane, len(seeds), shown))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
