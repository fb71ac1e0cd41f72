"""Unit tests for the transaction log."""

import pytest

from repro.common import SimClock
from repro.common.errors import TransactionError
from repro.storage import (
    FlashDisk,
    GroupCommitCoordinator,
    TransactionLog,
    Volume,
)
from repro.storage.log import COMMIT, DELETE, INSERT, UPDATE


@pytest.fixture
def log_file():
    return Volume(FlashDisk(SimClock(), 10_000)).create_file("txn.log")


@pytest.fixture
def log(log_file):
    return TransactionLog(log_file)


def _commit(log, txn_id):
    """Commit through the one commit path; with no scheduler the
    coordinator forces the log inline."""
    return GroupCommitCoordinator(lambda: log, SimClock()).commit(txn_id)


def test_begin_assigns_lsn(log):
    record = log.begin(1)
    assert record.lsn == 0
    assert record.kind == "BEGIN"


def test_double_begin_rejected(log):
    log.begin(1)
    with pytest.raises(TransactionError):
        log.begin(1)


def test_change_requires_active_txn(log):
    with pytest.raises(TransactionError):
        log.log_change(99, INSERT, "t", 1, after=(1,))


def test_unknown_change_kind_rejected(log):
    log.begin(1)
    with pytest.raises(TransactionError):
        log.log_change(1, "MUTATE", "t", 1)


def test_commit_forces_log(log):
    log.begin(1)
    log.log_change(1, INSERT, "t", 1, after=(1, "a"))
    ticket = _commit(log, 1)
    assert log.loaded_records()[ticket.lsn].kind == COMMIT
    assert log.durable_lsn == ticket.lsn
    assert log.committed_txns() == {1}


def test_commit_without_begin_rejected(log):
    with pytest.raises(TransactionError):
        _commit(log, 5)


def test_rollback_marks_inactive(log):
    log.begin(1)
    log.rollback(1)
    with pytest.raises(TransactionError):
        log.log_change(1, INSERT, "t", 1)


def test_undo_chain_reverse_order(log):
    log.begin(1)
    log.log_change(1, INSERT, "t", 1, after=(1,))
    log.log_change(1, UPDATE, "t", 1, before=(1,), after=(2,))
    log.log_change(1, DELETE, "t", 1, before=(2,))
    chain = log.undo_chain(1)
    assert [record.kind for record in chain] == [DELETE, UPDATE, INSERT]


def test_redo_only_committed_and_durable(log):
    log.begin(1)
    log.log_change(1, INSERT, "t", 1, after=(1,))
    _commit(log, 1)
    log.begin(2)
    log.log_change(2, INSERT, "t", 2, after=(2,))
    # txn 2 never commits.
    redo = log.redo_records()
    assert [record.txn_id for record in redo] == [1]


def test_crash_discards_undurable_tail(log, log_file):
    log.begin(1)
    log.log_change(1, INSERT, "t", 1, after=(1,))
    _commit(log, 1)
    durable_count = log.record_count()
    log.begin(2)
    log.log_change(2, INSERT, "t", 2, after=(2,))
    reopened = TransactionLog.open(log_file)  # what a crash leaves
    assert reopened.record_count() == durable_count
    assert reopened.redo_records()[-1].txn_id == 1


def test_force_writes_pages(log):
    log.begin(1)
    for row in range(100):
        log.log_change(1, INSERT, "t", row, after=(row,))
    pages = log.force()
    assert pages >= 3  # 101 records at 32/page
    assert log.force() == 0  # nothing new to write


def test_checkpoint_forces(log):
    log.begin(1)
    log.log_change(1, INSERT, "t", 1, after=(1,))
    record = log.checkpoint_end(log.checkpoint_begin((), {}))
    assert record.kind == "CKPT_END"
    assert log.durable_lsn == record.lsn


def test_checkpoint_snapshots_active_and_dirty(log):
    log.begin(7)
    log.log_change(7, INSERT, "t", 1, after=(1,))
    begin = log.checkpoint_begin(log.active_txns(), {("table:t", 0): 1})
    assert begin.kind == "CKPT_BEGIN"
    assert begin.after["active"] == [7]
    assert begin.after["dpt"] == [("table:t", 0, 1)]
    end = log.checkpoint_end(begin)
    assert end.after["begin_lsn"] == begin.lsn
    assert log.last_checkpoint.lsn == begin.lsn
