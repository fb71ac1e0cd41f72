"""Self-managing equi-depth column histograms (paper Section 3.1).

Key properties reproduced from the paper:

* one infrastructure for all short data types, via an **order-preserving
  hash** to a double, plus a per-type **value width** keeping the domain
  discrete;
* **equi-depth buckets** whose number expands and contracts dynamically as
  the distribution drifts;
* **singleton buckets** (frequent-value statistics) for values comprising
  at least 1% of the column (or 'top N'), capped at 100; a histogram may be
  entirely singletons, the *compressed* representation;
* a **density** value: the average selectivity of a single non-singleton
  value, used for equality estimates and intra-bucket interpolation;
* updates from **query execution feedback** (observed predicate
  selectivities) and from INSERT/UPDATE/DELETE maintenance.
"""

import collections

from repro.common.hashing import order_preserving_hash, value_width
from repro.stats.greenwald import GreenwaldSketch

#: A value is promoted to a singleton bucket at this fraction of the rows.
SINGLETON_FRACTION = 0.01

#: Hard cap on retained singletons ("lies in the range [0,100]").
MAX_SINGLETONS = 100

#: Default number of equi-depth buckets for a fresh histogram.
DEFAULT_TARGET_BUCKETS = 20

#: Buckets beyond 4x the target trigger merges; a bucket holding more than
#: twice the target depth is split.
_MAX_BUCKET_FACTOR = 4


class _Bucket:
    __slots__ = ("low", "high", "count")

    def __init__(self, low, high, count):
        self.low = low
        self.high = high
        self.count = count

    def span(self):
        return max(0.0, self.high - self.low)

    def __repr__(self):
        return "Bucket[%g,%g)=%.1f" % (self.low, self.high, self.count)


class ColumnHistogram:
    """Histogram + frequent-value statistics for one column."""

    def __init__(self, type_name, target_buckets=DEFAULT_TARGET_BUCKETS):
        self.type_name = type_name
        self.value_width = value_width(type_name)
        self.target_buckets = target_buckets
        self._buckets = []          # contiguous, sorted by [low, high)
        self._singletons = {}       # hashed -> [raw_value, count]
        self.null_count = 0.0
        #: Estimated distinct non-singleton values (drives density).
        self.distinct_nonsingleton = 0.0
        #: How many feedback observations have been folded in.
        self.feedback_updates = 0
        #: Observed domain extremes (hashed), used to close open-ended
        #: range feedback so one-sided predicates can seed buckets.
        self._domain_low = None
        self._domain_high = None
        #: Latest known table row count (set by the statistics manager on
        #: feedback).  Mass the histogram has not yet localized is carried
        #: as an *unseen* remainder so selectivities divide by the true
        #: table size even while coverage is partial.
        self.table_total_hint = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, type_name, values, target_buckets=DEFAULT_TARGET_BUCKETS,
              epsilon=0.01):
        """Bulk-build from a value stream (LOAD TABLE / CREATE STATISTICS).

        Frequent values are counted exactly; the remaining distribution is
        summarized with a Greenwald sketch whose boundaries become the
        equi-depth buckets.
        """
        histogram = cls(type_name, target_buckets)
        counter = collections.Counter()
        raw_values = {}
        nulls = 0
        for value in values:
            if value is None:
                nulls += 1
            else:
                hashed = order_preserving_hash(value)
                counter[hashed] += 1
                raw_values.setdefault(hashed, value)
        histogram.null_count = float(nulls)
        total_nonnull = sum(counter.values())
        if total_nonnull == 0:
            return histogram
        # Pick singletons: >= 1% of rows, or everything if the column is
        # low-cardinality enough to fit the compressed representation.
        threshold = max(1.0, SINGLETON_FRACTION * total_nonnull)
        if len(counter) <= MAX_SINGLETONS:
            chosen = list(counter.items())
        else:
            chosen = [
                (hashed, count)
                for hashed, count in counter.most_common(MAX_SINGLETONS)
                if count >= threshold
            ]
        for hashed, count in chosen:
            histogram._singletons[hashed] = [raw_values[hashed], float(count)]
        # Remaining mass goes to equi-depth buckets via the sketch.
        rest = {
            hashed: count
            for hashed, count in counter.items()
            if hashed not in histogram._singletons
        }
        histogram.distinct_nonsingleton = float(len(rest))
        rest_total = sum(rest.values())
        if rest_total > 0:
            sketch = GreenwaldSketch(epsilon)
            for hashed, count in rest.items():
                for __ in range(count):
                    sketch.insert(hashed)
            n_buckets = min(target_buckets, max(1, len(rest)))
            bounds = sketch.boundaries(n_buckets)
            per_bucket = rest_total / n_buckets
            buckets = []
            for low, high in zip(bounds, bounds[1:]):
                if buckets and high <= buckets[-1].high:
                    buckets[-1].count += per_bucket  # degenerate boundary
                else:
                    buckets.append(_Bucket(low, high + 0.0, per_bucket))
            if buckets:
                buckets[-1].high += histogram.value_width  # close the top
            histogram._buckets = buckets
        return histogram

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def bucket_count(self):
        return len(self._buckets)

    @property
    def singleton_count(self):
        return len(self._singletons)

    @property
    def is_compressed(self):
        """Entirely singleton buckets (the compressed representation)."""
        return not self._buckets and bool(self._singletons)

    def known_count(self):
        """Mass the histogram has localized (buckets+singletons+nulls)."""
        return (
            sum(bucket.count for bucket in self._buckets)
            + sum(count for __, count in self._singletons.values())
            + self.null_count
        )

    def unseen_count(self):
        """Rows known to exist (table hint) but not yet localized."""
        if self.table_total_hint is None:
            return 0.0
        return max(0.0, self.table_total_hint - self.known_count())

    def total_count(self):
        # known_count() is two passes over the histogram: take it once
        # (same operands and order as known_count() + unseen_count()).
        known = self.known_count()
        hint = self.table_total_hint
        return known + (0.0 if hint is None else max(0.0, hint - known))

    def note_table_total(self, n_rows):
        """Record the table's current row count (from the manager)."""
        self.table_total_hint = float(n_rows)

    def density(self):
        """Average selectivity of one non-singleton value.

        For a *compressed* histogram (entirely singleton buckets) there are
        no non-singleton values; the density of an average singleton is
        returned instead, so equality estimates on unknown comparands
        (e.g. host parameters) stay sensible.
        """
        total = self.total_count()
        if total <= 0:
            return 0.0
        bucket_mass = sum(bucket.count for bucket in self._buckets)
        if bucket_mass <= 0:
            singleton_mass = sum(
                count for __, count in self._singletons.values()
            )
            if singleton_mass <= 0 or not self._singletons:
                return 0.0
            return (singleton_mass / total) / len(self._singletons)
        distinct = max(1.0, self.distinct_nonsingleton)
        return (bucket_mass / total) / distinct

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #

    def estimate_eq(self, value):
        """Selectivity of ``column = value``."""
        total = self.total_count()
        if total <= 0:
            return 0.0
        if value is None:
            return 0.0  # `= NULL` never matches
        hashed = order_preserving_hash(value)
        if hashed in self._singletons:
            return self._singletons[hashed][1] / total
        if not self._within_buckets(hashed):
            return 0.0
        return self.density()

    def estimate_null(self):
        total = self.total_count()
        if total <= 0:
            return 0.0
        return self.null_count / total

    def estimate_range(self, low=None, high=None, low_inclusive=True,
                       high_inclusive=True):
        """Selectivity of a range predicate (values, not hashes)."""
        low_hash = order_preserving_hash(low) if low is not None else None
        high_hash = order_preserving_hash(high) if high is not None else None
        return self.estimate_range_hashed(
            low_hash, high_hash, low_inclusive, high_inclusive
        )

    def estimate_range_hashed(self, low=None, high=None, low_inclusive=True,
                              high_inclusive=True):
        """Range selectivity over the hashed domain."""
        total = self.total_count()
        if total <= 0:
            return 0.0
        # Normalize to a closed interval using the value width.
        if low is not None and not low_inclusive:
            low = low + self.value_width
        if high is not None and not high_inclusive:
            high = high - self.value_width
        if low is not None and high is not None and low > high:
            return 0.0
        matched = 0.0
        for hashed, (__, count) in self._singletons.items():
            if (low is None or hashed >= low) and (high is None or hashed <= high):
                matched += count
        for bucket in self._buckets:
            matched += self._bucket_overlap(bucket, low, high)
        if matched <= 0.0 and self.unseen_count() > 0:
            # The range misses every localized bucket, but rows the
            # histogram has not yet placed could live there: attribute a
            # conservative share of the unseen mass rather than claiming
            # the range is empty.
            matched = 0.1 * self.unseen_count()
        return min(1.0, matched / total)

    def _bucket_overlap(self, bucket, low, high):
        b_low = bucket.low
        b_high = bucket.high
        clip_low = b_low if low is None else max(b_low, low)
        clip_high = b_high if high is None else min(b_high, high + self.value_width)
        if clip_high <= clip_low:
            return 0.0
        span = bucket.span()
        if span <= 0:
            return bucket.count
        # Uniform-distribution assumption inside the bucket.
        return bucket.count * min(1.0, (clip_high - clip_low) / span)

    def estimate_like_prefix(self, prefix):
        """Selectivity of ``column LIKE 'prefix%'`` via a hashed range."""
        if prefix == "":
            return 1.0
        low = order_preserving_hash(prefix)
        # Everything sharing the prefix hashes into [low, low + slack] where
        # slack covers the unconstrained suffix bytes.
        data = prefix.encode("utf-8", errors="replace")
        free_bytes = max(0, 7 - len(data))
        slack = float((1 << (8 * free_bytes)) - 1) if free_bytes else 0.0
        return self.estimate_range_hashed(low, low + slack)

    def _within_buckets(self, hashed):
        if not self._buckets:
            return False
        return self._buckets[0].low <= hashed < self._buckets[-1].high

    # ------------------------------------------------------------------ #
    # feedback from query execution (Section 3.2)
    # ------------------------------------------------------------------ #

    def feedback_eq(self, value, observed_count):
        """Fold in the observed row count of an equality predicate."""
        if value is None:
            return
        self.feedback_updates += 1
        total = max(1.0, self.total_count())
        hashed = order_preserving_hash(value)
        if hashed in self._singletons:
            self._singletons[hashed][1] = float(observed_count)
            return
        if (
            observed_count >= SINGLETON_FRACTION * total
            and len(self._singletons) < MAX_SINGLETONS
        ):
            # Promote to a singleton, pulling its mass out of the bucket.
            bucket = self._bucket_for(hashed)
            if bucket is not None:
                bucket.count = max(0.0, bucket.count - observed_count)
                self.distinct_nonsingleton = max(
                    0.0, self.distinct_nonsingleton - 1.0
                )
            self._singletons[hashed] = [value, float(observed_count)]
            return
        # Not frequent: refine the density via the implied distinct count.
        bucket = self._bucket_for(hashed)
        if bucket is not None and observed_count > 0:
            implied_distinct = max(1.0, bucket.count / observed_count)
            fraction = bucket.count / max(
                1.0, sum(b.count for b in self._buckets)
            )
            blended = (
                0.8 * self.distinct_nonsingleton
                + 0.2 * (implied_distinct / max(fraction, 1e-9))
            )
            self.distinct_nonsingleton = max(1.0, blended)

    def feedback_range(self, low, high, observed_count, low_inclusive=True,
                       high_inclusive=True):
        """Scale the buckets overlapping [low, high] toward the truth.

        This is the self-tuning-histogram move (cf. Aboulnaga & Chaudhuri,
        the paper's reference [1]).
        """
        self.feedback_updates += 1
        low_hash = order_preserving_hash(low) if low is not None else None
        high_hash = order_preserving_hash(high) if high is not None else None
        if low_hash is not None and not low_inclusive:
            low_hash += self.value_width
        if high_hash is not None and not high_inclusive:
            high_hash -= self.value_width
        self._note_domain(low_hash)
        self._note_domain(high_hash)
        # One-sided predicates close against the observed domain edge.
        if low_hash is None:
            low_hash = self._domain_low
        if high_hash is None:
            high_hash = self._domain_high
        estimated = sum(
            self._bucket_overlap(bucket, low_hash, high_hash)
            for bucket in self._buckets
        )
        singleton_mass = sum(
            count
            for hashed, (__, count) in self._singletons.items()
            if (low_hash is None or hashed >= low_hash)
            and (high_hash is None or hashed <= high_hash)
        )
        target = max(0.0, observed_count - singleton_mass)
        if estimated <= 0.0:
            # No overlapping mass: seed a bucket for this region.
            if target > 0 and low_hash is not None and high_hash is not None:
                self._insert_bucket(low_hash, high_hash + self.value_width, target)
        else:
            # Scale the in-range mass to the observed truth.
            factor_in = target / estimated
            for bucket in self._buckets:
                overlap = self._bucket_overlap(bucket, low_hash, high_hash)
                outside = max(0.0, bucket.count - overlap)
                bucket.count = max(0.0, overlap * factor_in + outside)
        # Reconcile against the table size: localized mass beyond the
        # table's row count must shrink the out-of-range buckets; any
        # deficit stays in the unseen remainder.
        if self.table_total_hint is not None:
            known = self.known_count()
            excess = known - self.table_total_hint
            if excess > 0:
                outside_total = 0.0
                overlaps = []
                for bucket in self._buckets:
                    overlap = self._bucket_overlap(bucket, low_hash, high_hash)
                    overlaps.append(overlap)
                    outside_total += max(0.0, bucket.count - overlap)
                if outside_total > 0:
                    shrink = min(1.0, excess / outside_total)
                    for bucket, overlap in zip(self._buckets, overlaps):
                        outside = max(0.0, bucket.count - overlap)
                        bucket.count = max(
                            0.0, bucket.count - outside * shrink
                        )
        self._rebalance()

    def feedback_null(self, observed_count):
        self.feedback_updates += 1
        self.null_count = float(observed_count)

    # ------------------------------------------------------------------ #
    # DML maintenance
    # ------------------------------------------------------------------ #

    def note_insert(self, value):
        if value is None:
            self.null_count += 1
            return
        hashed = order_preserving_hash(value)
        self._note_domain(hashed)
        if hashed in self._singletons:
            self._singletons[hashed][1] += 1
            return
        bucket = self._bucket_for(hashed)
        if bucket is None:
            self._extend_domain(hashed, hashed)
            bucket = self._bucket_for(hashed)
        if bucket is not None:
            bucket.count += 1
        self._rebalance()

    def note_delete(self, value):
        if value is None:
            self.null_count = max(0.0, self.null_count - 1)
            return
        hashed = order_preserving_hash(value)
        if hashed in self._singletons:
            entry = self._singletons[hashed]
            entry[1] -= 1
            if entry[1] <= 0:
                del self._singletons[hashed]
            return
        bucket = self._bucket_for(hashed)
        if bucket is not None:
            bucket.count = max(0.0, bucket.count - 1)

    # ------------------------------------------------------------------ #
    # dynamic bucket management
    # ------------------------------------------------------------------ #

    def _note_domain(self, hashed):
        if hashed is None:
            return
        if self._domain_low is None or hashed < self._domain_low:
            self._domain_low = hashed
        if self._domain_high is None or hashed > self._domain_high:
            self._domain_high = hashed

    def _bucket_for(self, hashed):
        for bucket in self._buckets:
            if bucket.low <= hashed < bucket.high:
                return bucket
        return None

    def _insert_bucket(self, low, high, count):
        self._buckets.append(_Bucket(low, high, count))
        self._buckets.sort(key=lambda bucket: bucket.low)

    def _extend_domain(self, low, high):
        """Stretch the outermost buckets to cover [low, high]."""
        if not self._buckets:
            if low is not None and high is not None:
                self._insert_bucket(low, high + self.value_width, 0.0)
            return
        if low is not None and low < self._buckets[0].low:
            self._buckets[0].low = low
        if high is not None and high >= self._buckets[-1].high:
            self._buckets[-1].high = high + self.value_width

    def _rebalance(self):
        """Expand/contract the bucket count as the distribution changes."""
        if not self._buckets:
            return
        bucket_mass = sum(bucket.count for bucket in self._buckets)
        if bucket_mass <= 0:
            return
        target_depth = bucket_mass / self.target_buckets
        # Split any bucket far above the target depth.
        result = []
        for bucket in self._buckets:
            if (
                bucket.count > 2.0 * target_depth
                and bucket.span() > 2 * self.value_width
                and len(self._buckets) + len(result) <
                _MAX_BUCKET_FACTOR * self.target_buckets
            ):
                middle = bucket.low + bucket.span() / 2.0
                result.append(_Bucket(bucket.low, middle, bucket.count / 2.0))
                result.append(_Bucket(middle, bucket.high, bucket.count / 2.0))
            else:
                result.append(bucket)
        # Merge adjacent buckets far below the target depth.
        merged = []
        for bucket in result:
            if (
                merged
                and merged[-1].count + bucket.count < 0.5 * target_depth
                and merged[-1].high == bucket.low
            ):
                merged[-1] = _Bucket(
                    merged[-1].low, bucket.high, merged[-1].count + bucket.count
                )
            else:
                merged.append(bucket)
        self._buckets = merged

    # ------------------------------------------------------------------ #
    # access for join histograms
    # ------------------------------------------------------------------ #

    def bucket_view(self):
        """[(low, high, count)] over the hashed domain (for joins)."""
        return [(b.low, b.high, b.count) for b in self._buckets]

    def singleton_view(self):
        """[(hashed, count)] (for joins)."""
        return [
            (hashed, count) for hashed, (__, count) in self._singletons.items()
        ]

    def __repr__(self):
        return "ColumnHistogram(%s: %d buckets, %d singletons, density=%.4g)" % (
            self.type_name, self.bucket_count, self.singleton_count, self.density()
        )
