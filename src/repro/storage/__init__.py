"""Simulated storage: disk devices, volumes, paged files, and the log.

A SQL Anywhere database is "stored as ordinary OS files ... a main database
file, a separate transaction log file, and up to 12 additional database
files" (paper Section 1).  This package reproduces that structure on top of
simulated devices that charge per-I/O microseconds to the shared virtual
clock.  Three device families are provided:

* :class:`~repro.storage.disk.RotationalDisk` — seek + rotational latency +
  transfer, the substrate for the calibration experiment (Figure 2b);
* :class:`~repro.storage.disk.FlashDisk` — uniform access times (Figure 3);
* :class:`~repro.storage.disk.ModelBackedDisk` — charges straight from a
  DTT model, so estimate-vs-actual comparisons are exact by construction.
"""

from repro.storage.disk import Disk, FlashDisk, ModelBackedDisk, RotationalDisk
from repro.storage.pagedfile import PagedFile, Volume
from repro.storage.log import (
    CommitTicket,
    GroupCommitConfig,
    GroupCommitCoordinator,
    LogRecord,
    TransactionLog,
)

__all__ = [
    "Disk",
    "RotationalDisk",
    "FlashDisk",
    "ModelBackedDisk",
    "Volume",
    "PagedFile",
    "TransactionLog",
    "LogRecord",
    "GroupCommitConfig",
    "GroupCommitCoordinator",
    "CommitTicket",
]
