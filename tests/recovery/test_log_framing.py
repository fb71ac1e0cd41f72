"""Durable log framing: checksummed pages, master record, torn tails."""

import pytest

from repro.common import SimClock
from repro.common.errors import IOFaultError
from repro.faults import FaultPlan
from repro.faults.plan import LOG_FORCE_ERROR, FaultRates
from repro.storage import (
    FlashDisk,
    GroupCommitCoordinator,
    TransactionLog,
    Volume,
)
from repro.storage.log import INSERT, RECORDS_PER_PAGE, tear_page


@pytest.fixture
def volume():
    return Volume(FlashDisk(SimClock(), 10_000))


@pytest.fixture
def log_file(volume):
    return volume.create_file("txn.log")


def _fill(log, txn_id, rows, commit=True):
    log.begin(txn_id)
    for row in range(rows):
        log.log_change(txn_id, INSERT, "t", row, after=(txn_id, row))
    if commit:
        _commit(log, txn_id)


def _commit(log, txn_id):
    """Commit through the one commit path; with no scheduler the
    coordinator forces the log inline."""
    GroupCommitCoordinator(lambda: log, SimClock()).commit(txn_id)


def _tear_last_page(log_file):
    return tear_page(log_file, log_file.page_count - 1)


class TestFraming:
    def test_forced_pages_are_framed_and_checksummed(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, RECORDS_PER_PAGE)  # > one page with BEGIN/COMMIT
        assert log_file.page_count >= 3  # master + 2 data pages
        for page_no in range(1, log_file.page_count):
            payload = log_file.read(page_no)
            assert set(payload) == {"first_lsn", "records", "checksum"}
            assert payload["records"]
        master = log_file.read(0)
        assert master["kind"] == "master"

    def test_open_round_trips_records_and_txn_state(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, 5)
        log.begin(2)
        log.log_change(2, INSERT, "t", 9, after=(2, 9))
        log.force()  # durable but uncommitted: txn 2 is a loser

        reopened = TransactionLog.open(log_file)
        assert reopened.record_count() == log.durable_lsn + 1
        assert reopened.committed_txns() == {1}
        assert reopened.active_txns() == {2}
        original = log.loaded_records()[: reopened.record_count()]
        assert reopened.loaded_records() == original

    def test_unforced_tail_is_lost_on_open(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, 3)
        durable = log.durable_lsn
        log.begin(2)
        log.log_change(2, INSERT, "t", 7, after=(2, 7))  # never forced

        reopened = TransactionLog.open(log_file)
        assert reopened.record_count() == durable + 1
        assert reopened.active_txns() == set()


class TestTornTail:
    def test_torn_page_detected_and_dropped(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, 3)
        _fill(log, 2, 3)
        assert _tear_last_page(log_file)

        reopened = TransactionLog.open(log_file)
        assert reopened.torn_pages_dropped >= 1
        # Whatever the tear destroyed is gone; earlier history survives
        # whole pages at a time.
        assert reopened.record_count() < log.record_count()
        assert 1 in reopened.committed_txns()

    def test_appends_after_torn_open_reuse_the_torn_slots(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, 3)
        _fill(log, 2, 3)
        _tear_last_page(log_file)
        pages_before = log_file.page_count

        reopened = TransactionLog.open(log_file)
        _fill(reopened, 3, 3)
        # The torn page was overwritten in place, not leaked as a hole.
        assert log_file.page_count <= pages_before + 1
        final = TransactionLog.open(log_file)
        assert 3 in final.committed_txns()

    def test_lsn_stays_monotonic_across_torn_reopen(self, log_file):
        """Records destroyed by a tear must not resurrect: LSNs continue
        from the surviving durable prefix and the replaced page wins."""
        log = TransactionLog(log_file)
        _fill(log, 1, 3)
        _fill(log, 2, 3)
        _tear_last_page(log_file)
        reopened = TransactionLog.open(log_file)
        resume_lsn = reopened.peek_next_lsn()
        assert resume_lsn == reopened.durable_lsn + 1
        _fill(reopened, 3, 1)
        final = TransactionLog.open(log_file)
        lsns = [record.lsn for record in final.loaded_records()]
        assert lsns == sorted(lsns)
        assert len(lsns) == len(set(lsns))


class TestMasterRecord:
    def test_open_scans_from_last_complete_checkpoint(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, 40)
        log.checkpoint_end(log.checkpoint_begin((), {}))
        _fill(log, 2, 5)

        reopened = TransactionLog.open(log_file)
        # The scan started at the master's checkpoint page: the loaded
        # window is partial history.
        assert reopened.base_lsn > 0
        assert reopened.last_checkpoint is not None
        assert 2 in reopened.committed_txns()

    def test_full_scan_loads_everything(self, log_file):
        log = TransactionLog(log_file)
        _fill(log, 1, 40)
        log.checkpoint_end(log.checkpoint_begin((), {}))
        _fill(log, 2, 5)

        full = TransactionLog.open(log_file, full_scan=True)
        assert full.base_lsn == 0
        assert full.committed_txns() == {1, 2}


class TestForceFaults:
    def test_force_error_exhausts_retry_budget(self, log_file):
        rates = FaultRates(log_force_error=1.0)
        plan = FaultPlan(11, rates=rates).bind(SimClock())
        log = TransactionLog(log_file, fault_plan=plan)
        log.begin(1)
        log.log_change(1, INSERT, "t", 0, after=(1,))
        with pytest.raises(IOFaultError):
            _commit(log, 1)
        # The failed commit leaves the transaction active and retryable.
        assert 1 in log.active_txns()
        assert 1 not in log.committed_txns()
        assert plan.retries == rates.io_retry_limit

    def test_site_budget_bounds_the_injections(self, log_file):
        rates = FaultRates(log_force_error=1.0)
        plan = FaultPlan(11, rates=rates, budgets={LOG_FORCE_ERROR: 2})
        plan.bind(SimClock())
        log = TransactionLog(log_file, fault_plan=plan)
        _fill(log, 1, 3)  # commit succeeds once the budget is exhausted
        assert plan.injected == 2
        assert plan.retries == 2
        assert plan.site_budget_remaining(LOG_FORCE_ERROR) == 0
        assert 1 in log.committed_txns()
