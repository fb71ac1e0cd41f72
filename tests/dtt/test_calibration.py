"""Unit tests for DTT calibration against simulated devices."""

import pytest

from repro.common import KiB, SimClock
from repro.common.errors import CalibrationError
from repro.dtt import (
    DTTCurve,
    approximate_write_curve,
    calibrate_device,
    calibrate_read_curve,
)
from repro.storage import FlashDisk, RotationalDisk


def test_calibrated_hdd_curve_rises_with_band():
    disk = RotationalDisk(SimClock(), 2_000_000, seed=11)
    curve = calibrate_read_curve(disk, samples_per_band=48, seed=5)
    assert curve.cost_us(1) < curve.cost_us(1024) < curve.cost_us(65536)


def test_calibrated_flash_curve_is_flat():
    disk = FlashDisk(SimClock(), 2_000_000, read_us=400)
    curve = calibrate_read_curve(disk, samples_per_band=16)
    assert curve.cost_us(1) == pytest.approx(curve.cost_us(65536), rel=0.05)


def test_bands_clamped_to_device_size():
    disk = FlashDisk(SimClock(), 100)
    curve = calibrate_read_curve(disk, bands=(1, 10, 10_000), samples_per_band=4)
    assert curve.points[-1][0] == 100


def test_empty_device_rejected():
    class EmptyDevice:
        size_pages = 0

    with pytest.raises(CalibrationError):
        calibrate_read_curve(EmptyDevice())


def test_zero_samples_rejected():
    disk = FlashDisk(SimClock(), 100)
    with pytest.raises(CalibrationError):
        calibrate_read_curve(disk, samples_per_band=0)


def test_calibration_deterministic_for_seed():
    def run():
        disk = RotationalDisk(SimClock(), 500_000, seed=9)
        return calibrate_read_curve(disk, samples_per_band=16, seed=2).points

    assert run() == run()


class TestWriteApproximation:
    def test_write_below_read_at_large_band(self):
        read = DTTCurve([(1, 100), (1000, 8000)])
        write = approximate_write_curve(read)
        assert write.cost_us(1000) < read.cost_us(1000)

    def test_write_close_to_read_at_band_one(self):
        read = DTTCurve([(1, 100), (1000, 8000)])
        write = approximate_write_curve(read)
        assert write.cost_us(1) == pytest.approx(95, rel=0.01)

    def test_single_point_read_curve(self):
        write = approximate_write_curve(DTTCurve([(1, 400)]))
        assert write.cost_us(1) == pytest.approx(380)


def test_calibrate_device_builds_full_model():
    disk = RotationalDisk(SimClock(), 1_000_000, seed=4)
    model = calibrate_device(disk, page_size=4 * KiB, samples_per_band=24)
    read_big = model.cost_us("read", 4 * KiB, 10_000)
    write_big = model.cost_us("write", 4 * KiB, 10_000)
    assert write_big < read_big
    assert model.cost_us("read", 4 * KiB, 1) < read_big


class TestWriteCalibration:
    """Section 6 future work: measure writes directly on removable media."""

    def test_flash_write_approximation_is_backwards(self):
        """The read-derived approximation claims writes are cheaper; on
        flash the truth is the opposite — motivating direct measurement."""
        from repro.dtt import calibrate_write_curve

        disk = FlashDisk(SimClock(), 131_072, read_us=390, write_us=1180)
        read_curve = calibrate_read_curve(disk, samples_per_band=16)
        approximated = approximate_write_curve(read_curve)
        measured = calibrate_write_curve(disk, samples_per_band=16)
        band = 1024
        assert approximated.cost_us(band) < read_curve.cost_us(band)
        assert measured.cost_us(band) > read_curve.cost_us(band)
        assert measured.cost_us(band) == pytest.approx(1180, rel=0.05)

    def test_measure_writes_flag(self):
        disk = FlashDisk(SimClock(), 131_072, read_us=390, write_us=1180)
        default_model = calibrate_device(disk, 4 * KiB, samples_per_band=8)
        honest_model = calibrate_device(
            disk, 4 * KiB, samples_per_band=8, measure_writes=True
        )
        assert default_model.cost_us("write", 4 * KiB, 100) < 390
        assert honest_model.cost_us("write", 4 * KiB, 100) > 1000

    def test_rotational_approximation_remains_reasonable(self):
        """On spinning disks the approximation is directionally right, so
        the default stays the paper's behaviour."""
        from repro.dtt import calibrate_write_curve

        disk = RotationalDisk(SimClock(), 1_000_000, seed=6)
        read_curve = calibrate_read_curve(disk, samples_per_band=24, seed=6)
        measured = calibrate_write_curve(disk, samples_per_band=24, seed=6)
        approximated = approximate_write_curve(read_curve)
        band = 10_000
        # Both agree that rotational writes undercut reads at large bands.
        assert measured.cost_us(band) < read_curve.cost_us(band)
        assert approximated.cost_us(band) < read_curve.cost_us(band)

    def test_write_calibration_validation(self):
        from repro.common.errors import CalibrationError
        from repro.dtt import calibrate_write_curve

        disk = FlashDisk(SimClock(), 100)
        with pytest.raises(CalibrationError):
            calibrate_write_curve(disk, samples_per_band=0)


class TestRetryRecalibrator:
    """Fault-aware recalibration records every trigger as a decision."""

    def make_server(self):
        from repro import Server, ServerConfig
        from repro.faults import FaultPlan

        return Server(ServerConfig(
            start_buffer_governor=False, fault_plan=FaultPlan(seed=5),
        ))

    def test_trigger_installs_a_model_and_records_it(self):
        server = self.make_server()
        recalibrator = server.dtt_recalibrator
        before = server.catalog.dtt_model
        triggered = [recalibrator.observe(3) for __ in range(32)]
        assert triggered == [False] * 31 + [True]
        [decision] = server.decisions
        assert (decision.loop, decision.action) == ("dtt", "recalibrate")
        assert decision.before is before
        assert decision.after is server.catalog.dtt_model is not before
        assert decision.inputs == {"mean_retries": 3.0}

    def test_quiet_statements_record_nothing(self):
        server = self.make_server()
        for __ in range(64):
            assert not server.dtt_recalibrator.observe(1)
        assert len(server.decisions) == 0

    def test_aborted_calibration_keeps_the_model(self, monkeypatch):
        from repro.dtt import calibration

        def sick_device(*args, **kwargs):
            raise CalibrationError("device too sick to measure")

        monkeypatch.setattr(calibration, "calibrate_device", sick_device)
        server = self.make_server()
        before = server.catalog.dtt_model
        for __ in range(32):
            server.dtt_recalibrator.observe(4)
        [decision] = server.decisions
        assert decision.action == "recalibrate-aborted"
        assert decision.before is decision.after is before
        assert server.catalog.dtt_model is before
        assert server.dtt_recalibrator.recalibrations_aborted == 1
