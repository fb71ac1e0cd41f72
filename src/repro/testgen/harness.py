"""The adversarial harness: one seeded stream of statements + oracles.

A harness run is a pure function of ``(seed, schema_seed)`` plus its
knobs: the schema, the initial load, every DML statement, every
generated query, and the order in which the oracles fire are all drawn
from seeded generators — wall-clock time and unseeded randomness never
enter.  Two consequences the CI lane leans on:

* running the same harness twice must produce **byte-identical logs**
  (any divergence is a determinism bug, oracle results included);
* any oracle violation is fully reproduced by the triple
  ``(seed, schema_seed, statement_index)`` — :func:`replay_triple`
  turns one into an ordinary assertion.

Faults (chaos mode) are themselves seeded, so a :class:`FaultError`
during a statement is a deterministic *skip*, not a violation.
"""

import random

from repro.common.errors import FaultError
from repro.engine import Server, ServerConfig, WorkloadScheduler
from repro.faults import FaultPlan, FaultRates
from repro.testgen.oracles import OracleViolation, check_norec, check_tlp
from repro.testgen.queries import QueryGenerator
from repro.testgen.schema import SchemaGenerator, random_dml

#: Chaos rates for harness runs: cranked like the concurrency soak so
#: short runs still draw faults, low enough that retries absorb most.
HARNESS_RATES = FaultRates(
    disk_read_error=0.01,
    disk_write_error=0.01,
    disk_latency=0.01,
    log_force_error=0.01,
    spill_write_error=0.01,
)

#: Fraction of statement slots that mutate data instead of checking.
DML_FRACTION = 0.35

#: In scheduler mode, a multi-session DML burst runs every this-many
#: statement slots.
BURST_EVERY = 40
BURST_SESSIONS = 3
BURST_STATEMENTS = 6


class HarnessResult:
    """What one harness run produced."""

    def __init__(self, seed, schema_seed):
        self.seed = seed
        self.schema_seed = schema_seed
        self.log_lines = []
        self.violations = []
        self.tlp_checks = 0
        self.norec_checks = 0
        self.oracle_statements = 0
        self.dml_statements = 0
        self.fault_skips = 0
        self.bursts = 0

    def record_fault(self, index, label):
        """Account one deterministic fault-skip (seeded chaos injection
        aborted the statement; same seed, same skip)."""
        self.fault_skips += 1
        self.log_lines.append("%04d %s fault-skip" % (index, label))

    def log_text(self):
        return "\n".join(self.log_lines) + "\n"

    def summary(self):
        return (
            "seed=%d schema=%d oracle_stmts=%d (tlp=%d norec=%d) dml=%d "
            "bursts=%d fault_skips=%d violations=%d"
            % (
                self.seed, self.schema_seed, self.oracle_statements,
                self.tlp_checks, self.norec_checks, self.dml_statements,
                self.bursts, self.fault_skips, len(self.violations),
            )
        )


class AdversarialHarness:
    """Runs ``statements`` seeded slots of DML + oracle checks."""

    def __init__(self, seed, schema_seed, statements=120, chaos=False,
                 scheduler_bursts=False, server_config=None,
                 include_plan_cache=True):
        self.seed = seed
        self.schema_seed = schema_seed
        self.statements = statements
        self.chaos = chaos
        self.scheduler_bursts = scheduler_bursts
        self.server_config = server_config
        self.include_plan_cache = include_plan_cache
        #: The server of the last :meth:`run`, kept for post-run oracles.
        self.server = None

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def _build_server(self):
        if self.server_config is not None:
            return Server(self.server_config)
        fault_plan = None
        if self.chaos:
            fault_plan = FaultPlan(seed=self.seed, rates=HARNESS_RATES)
        return Server(ServerConfig(
            start_buffer_governor=False,
            fault_plan=fault_plan,
        ))

    def _load(self, connection, schema):
        """DDL + seeded initial rows; load depends only on schema_seed."""
        for sql in schema.ddl_statements():
            connection.execute(sql)
        load_rng = random.Random("load:%d" % self.schema_seed)
        for sql in schema.load_statements(load_rng):
            connection.execute(sql)

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self, raise_on_violation=False):
        schema = SchemaGenerator(self.schema_seed).generate()
        server = self.server = self._build_server()
        connection = server.connect()
        self._load(connection, schema)
        rng = random.Random("harness:%d:%d" % (self.seed, self.schema_seed))
        queries = QueryGenerator(rng, schema)
        result = HarnessResult(self.seed, self.schema_seed)
        for index in range(self.statements):
            if (
                self.scheduler_bursts
                and index > 0
                and index % BURST_EVERY == 0
            ):
                self._burst(server, schema, rng, index, result)
            roll = rng.random()
            if roll < DML_FRACTION:
                self._dml_slot(connection, schema, rng, index, result)
            else:
                self._oracle_slot(
                    connection, queries, rng, index, result,
                    raise_on_violation,
                )
        result.log_lines.append("end %s" % result.summary())
        return result

    def _dml_slot(self, connection, schema, rng, index, result):
        sql = random_dml(rng, rng.choice(schema.tables))
        result.dml_statements += 1
        try:
            connection.execute(sql)
        except FaultError:
            result.record_fault(index, "dml")
            return
        result.log_lines.append("%04d dml ok" % index)

    def _oracle_slot(self, connection, queries, rng, index, result,
                     raise_on_violation):
        use_tlp = rng.random() < 0.5
        result.oracle_statements += 1
        if use_tlp:
            query = queries.tlp_query()
            oracle = "tlp"
            result.tlp_checks += 1
        else:
            query = queries.norec_query()
            oracle = "norec"
            result.norec_checks += 1
        try:
            if use_tlp:
                outcome = check_tlp(connection, query)
            else:
                outcome = check_norec(
                    connection, query,
                    include_plan_cache=self.include_plan_cache,
                )
        except FaultError:
            result.record_fault(index, "%s %-12s" % (oracle, query.shape))
            return
        if outcome["violation"] is None:
            result.log_lines.append(
                "%04d %s %-12s rows=%d sha=%s ok"
                % (index, oracle, query.shape, outcome["rows"],
                   outcome["digest"])
            )
            return
        result.log_lines.append(
            "%04d %s %-12s VIOLATION" % (index, oracle, query.shape)
        )
        violation = OracleViolation(
            oracle, outcome["violation"],
            seed=self.seed, schema_seed=self.schema_seed,
            statement_index=index,
            trace=self._trace(query, outcome["violation"]),
        )
        result.violations.append(violation)
        if raise_on_violation:
            raise violation

    @staticmethod
    def _trace(query, detail):
        """The statement trace attached to a violation artifact."""
        if "sqls" in detail:
            return list(detail["sqls"])
        return [query.sql()]

    def _burst(self, server, schema, rng, index, result):
        """A deterministic multi-session DML burst through the
        scheduler: statements are pre-generated from the main rng (so
        generation order never depends on interleaving), then replayed
        by concurrent sessions under the seeded scheduler."""
        from repro.workloads.adversarial import adversarial_sessions

        sessions = adversarial_sessions(
            rng, schema, BURST_SESSIONS, BURST_STATEMENTS
        )
        scheduler = WorkloadScheduler(
            server, seed=self.seed * 1_000_003 + index, switch_rate=0.5
        )
        for name, source in sessions:
            scheduler.add_session(name, source)
        report = scheduler.run()
        result.bursts += 1
        result.log_lines.append(
            "%04d burst sessions=%d stmts=%d errors=%d"
            % (index, BURST_SESSIONS, report["statements"],
               report["statement_errors"])
        )


def replay_triple(seed, schema_seed, statement_index, chaos=False,
                  scheduler_bursts=False, raise_on_violation=False):
    """Re-run one shrunken triple; returns the violation at that index
    (or ``None`` if the engine now passes).

    Everything up to the index is replayed — the statement stream is
    the reproduction, the triple is just its address.
    """
    harness = AdversarialHarness(
        seed, schema_seed, statements=statement_index + 1,
        chaos=chaos, scheduler_bursts=scheduler_bursts,
    )
    result = harness.run(raise_on_violation=False)
    for violation in result.violations:
        if violation.statement_index == statement_index:
            if raise_on_violation:
                raise violation
            return violation
    return None
