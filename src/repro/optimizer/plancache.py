"""Plan caching for statements in stored procedures (paper Section 4.1).

"For these statements, access plans are cached on an LRU basis for each
connection.  A statement's plan is only cached, however, if the access
plans obtained by successive optimizations of that statement during a
'training period' are identical.  After the training period is over, the
cached plan is used for subsequent invocations.  However, to ensure the
plan remains 'fresh', the statement is periodically verified at intervals
taken from a decaying logarithmic scale."
"""

import collections

from repro.profiling.metrics import NULL_METRICS

#: Consecutive identical optimizations required before caching.
TRAINING_PERIOD = 3

#: Verification schedule after training: re-optimize at these use counts
#: (decaying logarithmic scale: checks become exponentially rarer).  Past
#: the last entry the schedule keeps doubling unboundedly — see
#: :meth:`PlanCache._due_for_verification` — so a long-lived cached plan
#: is never pinned stale forever.
VERIFY_SCHEDULE = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Cached plans per connection (LRU beyond this).
MAX_CACHED_PLANS = 64


class _Entry:
    __slots__ = (
        "signatures", "plan", "result", "trained", "uses_since_cache",
        "verifications", "invalidations", "generation",
    )

    def __init__(self):
        self.signatures = []
        self.plan = None
        self.result = None
        self.trained = False
        self.uses_since_cache = 0
        self.verifications = 0
        self.invalidations = 0
        #: The catalog generation ``result`` was optimized at.
        self.generation = None


class PlanCache:
    """One connection's plan cache."""

    def __init__(self, training_period=TRAINING_PERIOD,
                 verify_schedule=VERIFY_SCHEDULE,
                 max_entries=MAX_CACHED_PLANS, metrics=None):
        self.training_period = training_period
        self.verify_schedule = tuple(verify_schedule)
        self.max_entries = max_entries
        self._entries = collections.OrderedDict()
        # Counters for the plan-cache experiment (E11).
        self.hits = 0
        self.optimizations = 0
        self.verifications = 0
        self.invalidations = 0
        self._metrics = metrics or NULL_METRICS

    def _count(self, name, n=1):
        """Bump both the local experiment counter and the shared registry."""
        setattr(self, name, getattr(self, name) + n)
        self._metrics.counter("plancache." + name).inc(n)

    def _due_for_verification(self, uses):
        """Whether a cached plan must be re-verified at this use count.

        The configured schedule covers the early life of a plan; beyond
        its last entry the "decaying logarithmic scale" keeps doubling
        (every power-of-two use count), so no plan is pinned forever.
        """
        if uses in self.verify_schedule:
            return True
        last = self.verify_schedule[-1] if self.verify_schedule else 0
        if uses <= last:
            return False
        return uses >= 4 and (uses & (uses - 1)) == 0

    def execute_plan_for(self, statement_key, optimize_fn, signature_fn,
                         generation=None):
        """The cache protocol: returns an OptimizerResult.

        ``optimize_fn()`` runs a full optimization; ``signature_fn(result)``
        produces a comparable plan signature.  During training, every call
        optimizes; once ``training_period`` successive optimizations agree,
        the plan is cached and reused, re-verified at use counts from the
        decaying logarithmic schedule — and at the first use after the
        catalog ``generation`` moved, since DDL may have dropped a table or
        index the cached plan reads.
        """
        entry = self._entries.get(statement_key)
        if entry is None:
            entry = _Entry()
            self._entries[statement_key] = entry
            self._evict()
        else:
            self._entries.move_to_end(statement_key)

        if entry.trained:
            entry.uses_since_cache += 1
            if (
                entry.generation != generation
                or self._due_for_verification(entry.uses_since_cache)
            ):
                # Periodic freshness check: re-optimize and compare.
                self._count("verifications")
                entry.verifications += 1
                self._count("optimizations")
                result = optimize_fn()
                entry.generation = generation
                signature = signature_fn(result)
                if signature != entry.signatures[-1]:
                    # Stale: drop back into training with the new plan.
                    self._count("invalidations")
                    entry.invalidations += 1
                    entry.trained = False
                    entry.signatures = [signature]
                    entry.uses_since_cache = 0
                    entry.result = result
                    return result
                entry.result = result
                return result
            self._count("hits")
            return entry.result

        # Training: optimize and compare with prior plans.
        self._count("optimizations")
        result = optimize_fn()
        entry.generation = generation
        signature = signature_fn(result)
        entry.signatures.append(signature)
        entry.result = result
        if len(entry.signatures) >= self.training_period:
            recent = entry.signatures[-self.training_period:]
            if all(s == recent[0] for s in recent):
                entry.trained = True
                entry.uses_since_cache = 0
        return result

    def is_cached(self, statement_key):
        entry = self._entries.get(statement_key)
        return entry is not None and entry.trained

    def entry_count(self):
        return len(self._entries)

    def _evict(self):
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


def plan_signature(result):
    """A structural signature of a plan for identity comparison."""
    if result.plan is None:
        return "<none>"
    parts = []
    for node in result.plan.walk():
        parts.append(node.describe())
    return "|".join(parts)
