"""Replicated crash harness: kill the primary, fail over, verify.

This is the replication tier's differential oracle — the multi-session
crash oracle of :class:`~repro.recovery.harness.GroupCommitCrashHarness`
with a different scenario plugged in.  One run:

1. builds a :class:`~repro.replication.cluster.ReplicatedCluster`,
   applies schema and priming loads everywhere, and checkpoints so the
   crash only ever destroys workload effects;
2. arms a :class:`~repro.recovery.harness.CrashPoint` on the *primary's*
   log (``wal.group_force`` kills inside a batched force: some of the
   batch's frames have shipped, some haven't);
3. drives N workload sessions plus the replica apply actors under one
   :class:`~repro.engine.scheduler.WorkloadScheduler` until the primary
   "dies" (the :class:`SimulatedCrash` escapes the scheduler — the
   primary is never restarted; replicas survive it);
4. optionally tears the mirrored-log tail of a *spare* replica (one that
   will not win the election), modelling a replica that died mid-receive;
5. fails over and holds the promoted node to the oracle's contracts:
   zero acknowledged loss (settling a commit waits on the
   synchronous-replication ack gate), no invented commits, and
   committed-exactly against a fresh single-node server replaying schema
   + loads + acknowledged statements + exactly some subset of the
   crash-interrupted ones.

Determinism is the caller's half: run the harness twice with one seed
and compare ``scheduler.trace``, the fault-plan log, and
:func:`~repro.recovery.harness.state_fingerprint` of the promoted server
byte-for-byte.
"""

import dataclasses

from repro.engine.server import Server
from repro.recovery.harness import CrashReport, GroupCommitCrashHarness
from repro.replication.cluster import ReplicatedCluster, _quiet_plan

#: The report of a replicated run is the crash report (``promoted_name``,
#: ``failover_us`` and ``torn_replica`` filled in).
ReplicatedCrashReport = CrashReport


class ReplicatedCrashHarness(GroupCommitCrashHarness):
    """Crash the primary of a replicated cluster and verify failover.

    ``config`` is the primary's :class:`~repro.engine.server.ServerConfig`
    (its ``replication`` field sizes the cluster).  ``schema`` is DDL,
    ``loads`` is ``[(table, rows), ...]``, ``sessions`` is
    ``[(name, [sql, ...]), ...]`` run autocommit under the scheduler.
    ``crash_point=None`` skips the kill: the workload completes, the
    primary is simply abandoned, and failover degenerates to
    archive-and-restore.  After :meth:`run`, ``server`` is the promoted
    node's.
    """

    def __init__(self, config, schema, loads, sessions, crash_point=None,
                 seed=0, switch_rate=0.25, tear_spare_tail=False,
                 before_failover=None):
        super().__init__(
            self._reference_server, schema, sessions,
            crash_point=crash_point, seed=seed, switch_rate=switch_rate,
            loads=loads,
        )
        self.config = config
        #: Tear the mirrored-log tail of a replica that will *lose* the
        #: election (a node that died mid-receive must not poison the
        #: promotion of its healthy peer).
        self.tear_spare_tail = tear_spare_tail
        #: Optional ``callback(cluster)`` run between the primary's death
        #: and the election — the partition-during-failover window.
        self.before_failover = before_failover
        self.cluster = None

    def _reference_server(self):
        """A quiet single-node server with the primary's configuration."""
        return Server(dataclasses.replace(
            self.config,
            replication=None,
            fault_plan=_quiet_plan(self.seed),
            start_buffer_governor=False,
            start_checkpoint_governor=False,
        ))

    def _build(self):
        cluster = ReplicatedCluster(self.config)
        self.cluster = cluster
        cluster.execute_schema(self.schema)
        for table_name, rows in self.loads:
            cluster.load_table(table_name, rows)
        cluster.primary.checkpoint()
        cluster.sync()
        return cluster.primary

    def _attach(self, scheduler):
        self.cluster.attach_scheduler(scheduler)

    def _recover(self, primary):
        """The primary stays dead: promote the best replica."""
        report = self.report
        if self.tear_spare_tail:
            report.torn_replica = self._tear_spare()
        if self.before_failover is not None:
            self.before_failover(self.cluster)
        promoted = self.cluster.fail_over()
        report.promoted_name = promoted.name
        report.failover_us = self.cluster.controller.failover_us
        report.recovery = self.cluster.controller.recovery
        return promoted.server, promoted.committed

    def _tear_spare(self):
        """Tear the mirrored tail of a replica the election won't pick."""
        replicas = self.cluster.replicas
        if len(replicas) < 2:
            return None
        best = max(replicas, key=lambda r: r.received_lsn)
        spare = next(r for r in replicas if r is not best)
        return spare.name if spare.tear_tail() else None
