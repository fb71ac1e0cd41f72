"""Server-wide observability: counters, gauges, and bounded histograms.

The paper's Application Profiling (Section 5) captures "a detailed trace
of all server activity, including SQL statements processed, performance
counters".  The tracer covers the statement stream; this module is the
performance-counter half: a single :class:`MetricsRegistry` shared by the
buffer pool, governors, plan cache, optimizer, and executor.  Everything
is measured on the :class:`~repro.common.clock.SimClock`, so snapshots
are fully deterministic — the substrate that closed-loop self-management
components (index consultant, adaptive MPL, regression benches) read.

Three instrument kinds:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a point-in-time level, set or adjusted by its owner;
* :class:`Histogram` — a *bounded* histogram: fixed bucket bounds chosen
  at creation, so memory is O(len(bounds)) no matter how many values are
  observed (no reservoirs, no unbounded growth).

Components may also register *probes* — zero-argument callables evaluated
lazily at :meth:`MetricsRegistry.snapshot` time — for values that already
live on the component (e.g. the pool's hit counter) and would otherwise
need double bookkeeping.
"""

import bisect

#: Default histogram bucket upper bounds (simulated microseconds).
DEFAULT_US_BOUNDS = (10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise ValueError("counter %r cannot decrease" % (self.name,))
        self.value += n


class Gauge:
    """A settable level (pool size, MPL, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def add(self, n=1):
        self.value += n


class Histogram:
    """A bounded histogram: fixed buckets, running count/sum/min/max."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name, bounds=DEFAULT_US_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(bounds)
        # One count per bound plus the overflow bucket (> last bound).
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self):
        buckets = {
            "le_%d" % bound: self.bucket_counts[index]
            for index, bound in enumerate(self.bounds)
        }
        buckets["overflow"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """The server's single namespace of metrics.

    Names are dotted strings (``pool.hits``, ``plancache.invalidations``);
    a name is claimed by the first instrument kind that registers it and
    re-registering with a different kind raises, so two components cannot
    silently share a metric with conflicting semantics.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self._kinds = {}  # name -> "counter" | "gauge" | "histogram" | "probe"
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._probes = {}

    # -- instrument factories (get-or-create) --------------------------- #

    def counter(self, name):
        self._claim(name, "counter")
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name):
        self._claim(name, "gauge")
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name, bounds=DEFAULT_US_BOUNDS):
        self._claim(name, "histogram")
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def register_probe(self, name, fn):
        """Register a pull-based metric: ``fn()`` runs at snapshot time."""
        self._claim(name, "probe")
        self._probes[name] = fn

    def _claim(self, name, kind):
        existing = self._kinds.get(name)
        if existing is None:
            self._kinds[name] = kind
        elif existing != kind:
            raise ValueError(
                "metric %r already registered as %s, not %s"
                % (name, existing, kind)
            )

    # -- reading --------------------------------------------------------- #

    def value(self, name):
        """Current value of one metric (histograms return their snapshot)."""
        kind = self._kinds.get(name)
        if kind == "counter":
            return self._counters[name].value
        if kind == "gauge":
            return self._gauges[name].value
        if kind == "histogram":
            return self._histograms[name].snapshot()
        if kind == "probe":
            return self._probes[name]()
        raise KeyError(name)

    def names(self):
        return sorted(self._kinds)

    def snapshot(self):
        """One deterministic dict of every metric, sorted by name."""
        snap = {}
        for name in self.names():
            snap[name] = self.value(name)
        if self.clock is not None:
            snap["snapshot_at_us"] = self.clock.now
        return snap


class _NullInstrument:
    """Counter, gauge and histogram at once; records nothing."""

    __slots__ = ()

    def inc(self, n=1):
        pass

    set = add = observe = inc


class NullMetricsRegistry:
    """What a component publishes through when it was handed no registry
    (built by hand in a test or a bench rig): every factory returns one
    shared no-op instrument, probes are dropped, no name exists."""

    _instrument = _NullInstrument()

    def counter(self, name, bounds=None):
        return self._instrument

    gauge = histogram = counter

    def register_probe(self, name, fn):
        pass

    def value(self, name):
        raise KeyError(name)


#: The default for every ``metrics=None`` parameter.
NULL_METRICS = NullMetricsRegistry()
