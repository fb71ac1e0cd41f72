"""Simulated replication network: seeded latency, drops, and partitions.

The log-shipping tier moves WAL frames from the primary to its replicas
over :class:`NetworkLink`\\ s.  Each link is deterministic under the
cluster's fault plan: latency, frame drops, and partition onsets are all
drawn from per-link substreams (``net.latency#<link>`` and friends), so
one link's draws never disturb another's and two same-seed runs ship
byte-identical frame schedules.

Delivery semantics, chosen to match the log's own guarantees:

* a frame **sent** successfully is **durably received** immediately — the
  replica mirrors the page into its own log file before the call
  returns (that durable receipt is what the group-commit coordinator's
  synchronous ack gate waits for);
* the *arrival* time returned by :meth:`NetworkLink.send` is when the
  frame becomes eligible for **apply** on the replica — latency delays
  visibility, never durability;
* arrivals are clamped non-decreasing per link, so frames are applied in
  ship (= LSN) order: the network never reorders a link's stream;
* a dropped frame simply fails the send — the publisher's per-link
  cursor does not advance and the frame is retransmitted (go-back-N
  degenerates to resend-from-cursor because sends are synchronous);
* a partitioned link fails every send until its seeded heal time.
"""

import random

from repro.faults.plan import (
    NET_LATENCY,
    NET_PARTITION,
    NET_SEND_DROP,
    FaultRates,
)


class SimNetwork:
    """The cluster's links, sharing one clock and one fault plan."""

    def __init__(self, clock, fault_plan=None, rates=None, seed=0):
        self.clock = clock
        self.fault_plan = fault_plan
        if rates is None:
            rates = (
                fault_plan.rates if fault_plan is not None else FaultRates()
            )
        self.rates = rates
        self.seed = int(seed)
        self.links = []

    def link(self, name, receiver):
        """Create (and register) a link delivering to ``receiver``."""
        if any(existing.name == name for existing in self.links):
            raise ValueError("duplicate link name %r" % (name,))
        link = NetworkLink(name, self, receiver)
        self.links.append(link)
        return link


class NetworkLink:
    """One direction of primary→replica frame shipping."""

    def __init__(self, name, network, receiver):
        self.name = name
        self.network = network
        self.receiver = receiver
        #: Clock time until which every send on this link fails.
        self.partitioned_until = -1
        self._last_arrival_us = -1
        #: Latency fallback stream when no fault plan is armed.
        self._rng = random.Random("net:%d:%s" % (network.seed, name))
        self.sends = 0
        self.delivered = 0
        self.drops = 0
        self.partitions = 0

    def __repr__(self):
        return "NetworkLink(%r, delivered=%d, drops=%d, partitions=%d)" % (
            self.name, self.delivered, self.drops, self.partitions
        )

    @property
    def partitioned(self):
        return self.network.clock.now < self.partitioned_until

    def partition(self, duration_us):
        """Force a partition (tests and the failover matrix use this to
        stand inside the partition-during-failover window)."""
        self.partitioned_until = self.network.clock.now + int(duration_us)
        self.partitions += 1
        plan = self.network.fault_plan
        if plan is not None:
            plan.record(
                NET_PARTITION,
                "link=%s forced heal_at=%d"
                % (self.name, self.partitioned_until),
            )
        return self.partitioned_until

    def send(self, frame):
        """Attempt one frame delivery; returns the apply-arrival time on
        success, None when the send failed (drop or partition)."""
        plan = self.network.fault_plan
        rates = self.network.rates
        now = self.network.clock.now
        self.sends += 1
        if now < self.partitioned_until:
            return None
        if plan is not None and plan.should(
            NET_PARTITION + "#" + self.name, rates.net_partition
        ):
            duration = plan.draw_uniform(
                NET_PARTITION + "#" + self.name,
                rates.net_partition_min_us, rates.net_partition_max_us,
            )
            self.partitioned_until = now + duration
            self.partitions += 1
            plan.record(
                NET_PARTITION,
                "link=%s heal_at=%d" % (self.name, self.partitioned_until),
            )
            return None
        if plan is not None and plan.should(
            NET_SEND_DROP + "#" + self.name, rates.net_send_drop
        ):
            self.drops += 1
            plan.record(
                NET_SEND_DROP,
                "link=%s lsn=%d" % (self.name, frame.first_lsn),
            )
            return None
        if plan is not None:
            latency = plan.draw_uniform(
                NET_LATENCY + "#" + self.name,
                rates.net_latency_min_us, rates.net_latency_max_us + 1,
            )
        else:
            latency = self._rng.randrange(
                rates.net_latency_min_us, rates.net_latency_max_us + 1
            )
        arrival = max(now + latency, self._last_arrival_us)
        self._last_arrival_us = arrival
        self.receiver.receive(frame, arrival)
        self.delivered += 1
        return arrival
