"""Crash recovery: ARIES-lite restart, checkpoint governance, crash harness.

The durability half of the paper's holistic self-management: restart
recovery replays the transaction log against the surviving volume
(:mod:`repro.recovery.restart`), the checkpoint governor bounds how much
of that replay a crash can ever cost (:mod:`repro.recovery.checkpoint`),
and the crash harness proves committed-exactly semantics at seeded crash
points (:mod:`repro.recovery.harness`).
"""

from repro.recovery.checkpoint import (
    CheckpointConfig,
    CheckpointGovernor,
    CkptSample,
)
from repro.recovery.harness import (
    CHECKPOINT,
    CrashHarness,
    CrashPoint,
    CrashReport,
    GroupCommitCrashHarness,
    VerificationError,
    check_indexes_match_heap,
    state_fingerprint,
)
from repro.recovery.restart import RecoveryManager, RecoveryReport

__all__ = [
    "CHECKPOINT",
    "CheckpointConfig",
    "CheckpointGovernor",
    "CkptSample",
    "CrashHarness",
    "CrashPoint",
    "CrashReport",
    "GroupCommitCrashHarness",
    "RecoveryManager",
    "RecoveryReport",
    "VerificationError",
    "check_indexes_match_heap",
    "state_fingerprint",
]
