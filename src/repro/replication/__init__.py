"""Log-shipping replication: WAL-streaming replicas, failover, oracle.

The tier in one paragraph: the primary's transaction log frames every
durable data page and ships it through a seeded simulated network to
standby replicas, which mirror the page durably on receipt (that receipt
is what commit acknowledgement waits for when synchronous shipping is
on) and apply it continuously — through the same idempotent per-page-LSN
redo restart recovery uses — once its simulated arrival time passes.
Replicas serve snapshot reads at their applied-LSN watermark, checkpoint
on their own cadence, and promote by recovering their mirrored log as if
it were a crashed primary's.  Failover picks the max-applied replica,
which per-link in-order gap-free delivery guarantees holds every
acknowledged commit.  Archive-and-restore is the one-replica degenerate
case.
"""

from repro.replication.cluster import ReplicatedCluster, ReplicationConfig
from repro.replication.failover import FailoverController
from repro.recovery.harness import state_fingerprint
from repro.replication.harness import (
    ReplicatedCrashHarness,
    ReplicatedCrashReport,
)
from repro.replication.network import NetworkLink, SimNetwork
from repro.replication.replica import Replica, ReplicationProtocolError
from repro.replication.stream import LogStreamPublisher, ReplicationFrame

__all__ = [
    "FailoverController",
    "LogStreamPublisher",
    "NetworkLink",
    "Replica",
    "ReplicatedCluster",
    "ReplicatedCrashHarness",
    "ReplicatedCrashReport",
    "ReplicationConfig",
    "ReplicationFrame",
    "ReplicationProtocolError",
    "SimNetwork",
    "state_fingerprint",
]
