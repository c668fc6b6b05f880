"""Crash-consistent durable storage shared by every on-disk consumer.

Three pieces (docs/ROBUSTNESS.md has the guarantees table):

:mod:`repro.store.fs`
    the durability primitives — ``fsync(dirfd)`` after rename, and the
    full write-temp → fsync → rename → fsync(dir) publish sequence;
:mod:`repro.store.durable`
    :class:`DurableLog` — the append-only log with checksummed
    snapshots, segment compaction, generation headers, and recovery to
    a consistent prefix from a crash at any byte.  Batch sweep
    journals, the service job store, platform run journals and fleet
    sweep journals are all this class;
:mod:`repro.store.fsck`
    offline integrity checking (``repro fsck``) over the batch cache,
    the run registry, and durable logs, with quarantine-based repair.
"""

from repro.store.durable import (
    KILL_POINTS,
    DurableLog,
    JournalMismatch,
    Serialized,
    record_crc,
    snapshot_checksum,
)
from repro.store.fs import (
    atomic_replace,
    atomic_write_json,
    atomic_write_text,
    fsync_dir,
)
from repro.store.fsck import FsckIssue, FsckReport, fsck_paths

__all__ = [
    "KILL_POINTS",
    "DurableLog",
    "FsckIssue",
    "FsckReport",
    "JournalMismatch",
    "Serialized",
    "atomic_replace",
    "atomic_write_json",
    "atomic_write_text",
    "fsck_paths",
    "fsync_dir",
    "record_crc",
    "snapshot_checksum",
]
