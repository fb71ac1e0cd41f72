"""DTT calibration (``CALIBRATE DATABASE``, paper Section 4.2).

"For specialized hardware, a CALIBRATE DATABASE statement can determine the
read DTT curve from the actual system.  The write DTT curve is approximated
using the read curve as a baseline."

Calibration drives a *device* — anything with ``size_pages``,
``read_page(page_no) -> cost_us`` and ``write_page(page_no) -> cost_us`` —
through random reads confined to windows of varying band size, averages the
measured per-page cost, and fits a :class:`~repro.dtt.curve.DTTCurve`.
"""

import collections
import random

from repro.common.control import Decision, decision_ring
from repro.common.errors import CalibrationError, IOFaultError, TransientIOError
from repro.dtt.curve import DTTCurve
from repro.dtt.model import DTTModel, READ, WRITE
from repro.profiling.metrics import NULL_METRICS

#: Band sizes probed by default: logarithmically spaced, like Figure 2(b).
DEFAULT_BANDS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Calibration drives the device *directly* (no volume in between), so it
#: carries its own bounded retry for injected transient faults.
_CALIBRATION_RETRIES = 5


def _measured_io(op, page):
    """One calibration transfer, retrying injected transient faults.

    The failed attempts' latency is deliberately excluded from the
    measurement — a DTT curve models the healthy device, not the chaos
    plan — but a persistently failing device aborts calibration typed.
    """
    attempt = 0
    while True:
        try:
            return op(page)
        except TransientIOError as exc:
            attempt += 1
            if attempt > _CALIBRATION_RETRIES:
                raise IOFaultError(
                    "calibration I/O on page %d still failing after %d "
                    "retries (%s)" % (page, _CALIBRATION_RETRIES, exc)
                ) from exc

#: Fraction of the read cost attributed to a write at the same band size
#: when approximating the write curve from the read baseline.  Writes are
#: asynchronous and schedulable, hence cheaper at large bands; at band 1
#: the advantage is small.
_WRITE_FRACTION_SEQUENTIAL = 0.95
_WRITE_FRACTION_RANDOM = 0.60


def calibrate_read_curve(device, bands=DEFAULT_BANDS, samples_per_band=64, seed=0):
    """Measure the device's read DTT curve.

    For each band size, ``samples_per_band`` page reads are issued at
    uniformly random offsets within a window of that many pages, and the
    mean per-page cost becomes the curve's control point.  Band sizes
    larger than the device are clamped to the device size (and
    deduplicated), so small devices still produce a valid curve.
    """
    return _measure_curve(device, "read_page", bands, samples_per_band, seed)


def _measure_curve(device, transfer, bands, samples_per_band, seed):
    """The band sweep shared by read and write calibration; ``transfer``
    names the device method being timed."""
    if samples_per_band < 1:
        raise CalibrationError("need at least one sample per band")
    if device.size_pages < 1:
        raise CalibrationError("cannot calibrate an empty device")
    op = getattr(device, transfer)
    rng = random.Random(seed)
    points = []
    seen_bands = set()
    for band in sorted(bands):
        band = min(int(band), device.size_pages)
        if band < 1 or band in seen_bands:
            continue
        seen_bands.add(band)
        base = 0
        if device.size_pages > band:
            base = rng.randrange(device.size_pages - band)
        total_us = 0.0
        for __ in range(samples_per_band):
            page = base + rng.randrange(band)
            total_us += _measured_io(op, page)
        points.append((band, total_us / samples_per_band))
    if not points:
        raise CalibrationError("no band sizes were measurable on this device")
    return DTTCurve(points)


def approximate_write_curve(read_curve):
    """Derive a write curve from a measured read curve.

    The write fraction blends from ~1.0 at band 1 (sequential writes gain
    little) toward :data:`_WRITE_FRACTION_RANDOM` at the largest measured
    band (async writes gain the most where seeks dominate).
    """
    points = read_curve.points
    if len(points) == 1:
        band, cost = points[0]
        return DTTCurve([(band, cost * _WRITE_FRACTION_SEQUENTIAL)])
    first_band = points[0][0]
    last_band = points[-1][0]
    span = last_band - first_band
    write_points = []
    for band, cost in points:
        if span == 0:
            fraction = _WRITE_FRACTION_SEQUENTIAL
        else:
            mix = (band - first_band) / span
            fraction = (
                _WRITE_FRACTION_SEQUENTIAL
                + mix * (_WRITE_FRACTION_RANDOM - _WRITE_FRACTION_SEQUENTIAL)
            )
        write_points.append((band, cost * fraction))
    return DTTCurve(write_points)


def calibrate_write_curve(device, bands=DEFAULT_BANDS, samples_per_band=64,
                          seed=0):
    """Measure the device's write DTT curve directly.

    The paper approximates writes from the read baseline — an assumption
    that holds for rotational disks (async, schedulable writes are
    cheaper) but is backwards on flash, where erase-before-write makes
    writes *dearer* than reads.  Direct write calibration is the paper's
    Section 6 item "better modeling of write performance on removable
    media".
    """
    return _measure_curve(device, "write_page", bands, samples_per_band, seed)


class RetryRecalibrator:
    """Fault-aware recalibration: re-measure the device when statements
    keep paying injected-fault retries.

    A device that has started stalling (injected transient faults model
    exactly that) makes the catalog's DTT model optimistic: the optimizer
    keeps pricing I/O at healthy-device cost while every statement burns
    retry backoff on top.  This governor watches the per-statement retry
    count over a sliding window of recent statements; when the mean
    crosses the threshold it re-runs device calibration — measured on
    the device *as it now behaves* — and installs the result, so costing
    tracks the hardware the workload actually experiences.

    One full window of cooldown follows every trigger (successful or
    not): calibration itself drives the device and must not be able to
    re-trigger itself off its own retries.
    """

    def __init__(self, server, window=32, threshold=2.0,
                 samples_per_band=16, metrics=None, decisions=None):
        self.server = server
        self.window = max(1, int(window))
        self.threshold = float(threshold)
        self.samples_per_band = samples_per_band
        self.recalibrations = 0
        self.recalibrations_aborted = 0
        self._recent = collections.deque(maxlen=self.window)
        self._cooldown = 0
        #: Triggers, as :class:`~repro.common.control.Decision` records
        #: whose before/after are the catalog's DTT model.
        self.decisions = decision_ring(decisions)
        metrics = metrics or NULL_METRICS
        self._m_recalibrations = metrics.counter("dtt.recalibrations")
        self._m_aborted = metrics.counter("dtt.recalibrations_aborted")

    def observe(self, statement_retries):
        """Fold one finished statement's retry count in; returns True
        when this observation triggered a recalibration."""
        self._recent.append(int(statement_retries))
        if self._cooldown > 0:
            self._cooldown -= 1
            return False
        if len(self._recent) < self.window:
            return False
        mean_retries = sum(self._recent) / len(self._recent)
        if mean_retries < self.threshold:
            return False
        return self._recalibrate(mean_retries)

    def _recalibrate(self, mean_retries):
        server = self.server
        before = server.catalog.dtt_model
        self._cooldown = self.window
        self._recent.clear()
        try:
            model = calibrate_device(
                server.disk, server.config.page_size,
                samples_per_band=self.samples_per_band,
            )
        except (CalibrationError, IOFaultError):
            # The device is too sick to even measure right now; keep the
            # old model and let the cooldown expire before trying again.
            model = None
            self.recalibrations_aborted += 1
            self._m_aborted.inc()
        self.decisions.append(Decision(
            server.clock.now, "dtt",
            "recalibrate" if model is not None else "recalibrate-aborted",
            before, model if model is not None else before,
            {"mean_retries": mean_retries},
        ))
        if model is None:
            return False
        server.catalog.dtt_model = model
        self.recalibrations += 1
        self._m_recalibrations.inc()
        if server.tracer is not None:
            server.tracer.record_system(
                "dtt-recalibrate", server.clock.now,
                "trigger=retry-window window=%d" % self.window,
            )
        return True


def calibrate_device(device, page_size, bands=DEFAULT_BANDS,
                     samples_per_band=64, seed=0, measure_writes=False):
    """Full calibration: measure reads and build a model.

    The write curve is approximated from the read baseline by default
    (the paper's behaviour); pass ``measure_writes=True`` to measure it
    directly instead — essential on removable/flash media, where the
    approximation inverts the true read/write relationship.
    """
    read_curve = calibrate_read_curve(
        device, bands=bands, samples_per_band=samples_per_band, seed=seed
    )
    if measure_writes:
        write_curve = calibrate_write_curve(
            device, bands=bands, samples_per_band=samples_per_band, seed=seed
        )
    else:
        write_curve = approximate_write_curve(read_curve)
    model = DTTModel("calibrated")
    model.set_curve(READ, page_size, read_curve)
    model.set_curve(WRITE, page_size, write_curve)
    return model
