"""Crash-consistent durable log: segments + checksummed snapshots.

:class:`DurableLog` generalises an append-only JSONL journal (one
fingerprinted header, one flushed line per record) into a store that stays
both *consistent* and *bounded* over a long service lifetime:

* **append-only segments** — records land as flushed JSONL lines, each
  carrying its global index and a CRC; a crash loses at most the line
  in flight, which recovery truncates away (the legacy behaviour);
* **checksummed snapshots** — every ``snapshot_every`` records the full
  logical state is serialised into a ``sha256``-checksummed snapshot
  file, published by write-temp → fsync → rename → fsync(parent dir);
* **segment compaction** — once a snapshot at record ``N`` is durable,
  sealed segments entirely below the *previous retained* snapshot are
  deleted, so recovery replays a bounded tail instead of the whole
  history;
* **generation headers** — every segment header names its generation
  and the global index of its first record, so recovery can stitch an
  arbitrary crash state (mid-seal, mid-snapshot, mid-compaction,
  mid-append, torn at any byte) back into a consistent prefix.

The on-disk layout is a family of sibling files around the caller's
path (``jobs.jsonl`` stays the *active segment*, so legacy v1 journals
upgrade in place on open)::

    jobs.jsonl                                  # active segment (appends)
    jobs.jsonl.000000000100.000000000200.seg    # sealed segment [100, 200)
    jobs.jsonl.000002.snap                      # snapshot: state at N, gen 2
    jobs.jsonl.000001.snap                      # previous snapshot (retained)

Two snapshots are retained (``keep_snapshots``), and segments are only
deleted below the *older* one — a bit-flip in the newest snapshot is
therefore recoverable: it is quarantined (renamed ``*.corrupt``) and
recovery falls back to the previous snapshot plus the retained
segments.  The crash-campaign harness (:mod:`repro.chaos_campaign`)
drives a SIGKILL or torn write into every phase of this state machine
via the ``REPRO_CHAOS`` kill-points named below and asserts exactly
that recovery contract (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import zlib
from collections.abc import Mapping
from pathlib import Path

from repro.store.fs import fsync_dir


class _LazyChaos:
    """Deferred import of :mod:`repro.runtime.chaos`.

    ``runtime.supervisor`` re-exports :class:`JournalMismatch` from
    here, so importing chaos at module scope here would be
    circular whenever ``repro.store`` loads before ``repro.runtime``.
    The first attribute access swaps in the real module.
    """

    def __getattr__(self, name):
        from repro.runtime import chaos as real
        globals()["chaos"] = real
        return getattr(real, name)


chaos = _LazyChaos()

__all__ = [
    "DurableLog",
    "JournalMismatch",
    "KILL_POINTS",
    "SEGMENT_VERSION",
    "SNAPSHOT_VERSION",
    "Serialized",
    "record_crc",
    "snapshot_checksum",
]

#: Header version written by legacy single-file journals (and by a fresh
#: gen-0 log, byte-for-byte — the upgrade is purely additive).
LEGACY_VERSION = 1

#: Header version for post-snapshot segments (adds ``gen`` and ``base``).
SEGMENT_VERSION = 2

#: Snapshot file schema version.
SNAPSHOT_VERSION = 1

#: The chaos kill-points of the snapshot/compaction state machine, in
#: execution order.  ``REPRO_CHAOS="kill=durable.<name>,hard=1"`` dies
#: there; the campaign harness sweeps all of them.
KILL_POINTS = (
    "durable.append",
    "durable.seal",
    "durable.snap-write",
    "durable.snap-rename",
    "durable.reopen",
    "durable.compact",
)


class JournalMismatch(ValueError):
    """An existing journal/log belongs to a different configuration, or
    is damaged beyond what crash recovery may silently repair."""


def record_crc(index: int, key, value) -> int:
    """CRC32 over the canonical JSON of one record (torn/bit-flip guard)."""
    payload = json.dumps([index, key, value], sort_keys=True,
                         separators=(",", ":"))
    return zlib.crc32(payload.encode("utf-8"))


def snapshot_checksum(body: dict) -> str:
    """sha256 over the canonical JSON of a snapshot, ``sha256`` excluded."""
    slim = {k: v for k, v in body.items() if k != "sha256"}
    return hashlib.sha256(
        json.dumps(slim, sort_keys=True).encode("utf-8")
    ).hexdigest()


class Serialized:
    """A snapshot item value kept only as its canonical JSON text
    (``json.dumps(value, sort_keys=True)``).

    A ``compact_items`` hook may return these instead of plain values, so
    a value that has not changed since the last snapshot is not
    serialised again: consumers cache one per unchanged record.  The log
    writes :attr:`text` and keeps the object itself in
    :attr:`DurableLog.completed`, which decodes it on each read; the
    hook gets the same object back at the next snapshot.  Building one
    from another reuses its text.
    """

    __slots__ = ("text",)

    def __init__(self, value):
        self.text = (value.text if isinstance(value, Serialized)
                     else json.dumps(value, sort_keys=True))

    @property
    def value(self):
        """A fresh decoding of :attr:`text`."""
        return json.loads(self.text)


class _Items(Mapping):
    """:attr:`DurableLog.completed`: a value a compactor returned as
    :class:`Serialized` stays that text and is decoded on each read, so
    a compacted item costs its text and nothing more."""

    def __init__(self, pairs=()):
        self.raw = dict(pairs)

    def __getitem__(self, key):
        value = self.raw[key]
        return value.value if isinstance(value, Serialized) else value

    def __setitem__(self, key, value):
        self.raw[key] = value

    def __contains__(self, key):
        return key in self.raw

    def __iter__(self):
        return iter(self.raw)

    def __len__(self):
        return len(self.raw)


#: Stands in for a :class:`Serialized` value (or the items) while the rest
#: of a snapshot is encoded in one ``json.dumps``; the marker's JSON text is
#: then replaced by the real text.
_HOLE = "\x00repro.durable.hole\x00"
_HOLE_JSON = json.dumps(_HOLE)


def _items_pieces(items) -> list:
    """``json.dumps(items, sort_keys=True)`` for ``[key, value]`` pairs
    whose values may be :class:`Serialized`, as pieces to write in order:
    one encoding pass for the rest, with each stored text spliced into
    its place, so the table's text is never copied into one string."""
    texts = [v.text for _, v in items if isinstance(v, Serialized)]
    parts = json.dumps(
        [[k, _HOLE if isinstance(v, Serialized) else v] for k, v in items],
        sort_keys=True,
    ).split(_HOLE_JSON)
    if len(parts) != len(texts) + 1:
        # The marker also occurs inside a key or a plain value.
        return ["[" + ", ".join(
            f"[{json.dumps(k, sort_keys=True)}, "
            + (v.text if isinstance(v, Serialized)
               else json.dumps(v, sort_keys=True))
            + "]"
            for k, v in items
        ) + "]"]
    spliced = [""] * (2 * len(texts) + 1)
    spliced[0::2] = parts
    spliced[1::2] = texts
    return spliced


def _joined(pieces, size: int):
    """The concatenation of ``pieces`` in strings of about ``size``
    characters, so no text the length of the whole is ever built."""
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= size:
            yield "".join(batch)
            batch, length = [], 0
    yield "".join(batch)


def _around_items(header: dict) -> tuple:
    """``json.dumps({**header, "items": items}, sort_keys=True)`` for
    scalar header values, as the text before and after the items'."""
    text = json.dumps(dict(header, items=_HOLE), sort_keys=True)
    # Only sha256 (hex) and snapshot (int) sort after "items".
    head, _, tail = text.rpartition(_HOLE_JSON)
    return head, tail


def _freeze(key):
    """JSON round-trips tuples to lists; normalise for dict lookup."""
    return tuple(key) if isinstance(key, list) else key


def _thaw(key):
    """Inverse of :func:`_freeze` for snapshot serialisation."""
    return list(key) if isinstance(key, tuple) else key


def _quarantine(path: Path) -> Path:
    """Rename a damaged file to ``<name>.corrupt`` (post-mortem, not
    deletion); a stale quarantine of the same name is overwritten."""
    target = path.with_name(path.name + ".corrupt")
    os.replace(path, target)
    fsync_dir(path.parent)
    return target


class DurableLog:
    """Crash-consistent append log with snapshots and compaction.

    ``path`` is the active-segment file (legacy journals upgrade in
    place); ``fingerprint`` guards against replaying a log written by a
    different configuration.  ``snapshot_every=N`` snapshots + compacts
    after every N appended records (``None`` disables both, reproducing
    the legacy single-file journal exactly).  ``compact_items`` is an
    optional hook ``items -> items`` applied to the ``[key, value]``
    pair list as it is snapshotted — event-sourced consumers (the job
    store) use it to collapse a job's event history into one restore
    record, which is what turns bounded *replay* into bounded *state*.
    Its values may be :class:`Serialized`, so records that did not
    change since the last snapshot are not serialised again; the pairs
    it is handed carry the :class:`Serialized` values it returned last
    time, undecoded.

    After open, :attr:`replayed` is the number of records read back from
    segment files (the recovery cost a snapshot bounds) and
    :attr:`recovered_from_snapshot` says whether a snapshot seeded the
    state — the numbers the compaction acceptance gate asserts on.
    """

    def __init__(
        self,
        path,
        fingerprint,
        *,
        snapshot_every: int | None = None,
        compact_items=None,
        keep_snapshots: int = 2,
    ):
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        if keep_snapshots < 2:
            raise ValueError("keep_snapshots < 2 breaks snapshot-corruption "
                             "fallback; use at least 2")
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self._compact_items = compact_items
        self.completed: Mapping = _Items()
        #: Global index of the next record to append.
        self.count = 0
        #: Records read back from segment files at open (recovery cost).
        self.replayed = 0
        #: True when a snapshot seeded the recovered state.
        self.recovered_from_snapshot = False
        self.gen = 0
        self._active_base = 0   # global index of the active segment's 1st record
        self._snap_count = 0    # record count covered by the newest snapshot
        #: Snapshot file name -> the record count it covers, for the
        #: snapshots this log has read or written (spares _prune a parse).
        self._snap_counts: dict = {}
        self._offset = 0        # durable byte length of the active segment
        self._fh = None
        self._open()

    # -- discovery ---------------------------------------------------------

    def _snapshot_paths(self) -> list:
        """Snapshot files, newest generation first."""
        found = []
        for child in self.path.parent.glob(f"{self.path.name}.*.snap"):
            stem = child.name[len(self.path.name) + 1:-len(".snap")]
            if stem.isdigit():
                found.append((int(stem), child))
        return [p for _, p in sorted(found, reverse=True)]

    def _segment_paths(self) -> list:
        """Sealed segments as ``(base, end, path)``, ordered by base."""
        found = []
        for child in self.path.parent.glob(f"{self.path.name}.*.seg"):
            stem = child.name[len(self.path.name) + 1:-len(".seg")]
            parts = stem.split(".")
            if len(parts) == 2 and all(p.isdigit() for p in parts):
                found.append((int(parts[0]), int(parts[1]), child))
        return sorted(found)

    def _clear_tmp(self) -> None:
        """Unlink temp files a crash left mid-publish (never published,
        so never part of the recovered state)."""
        for child in self.path.parent.glob(f"{self.path.name}.*.tmp*"):
            try:
                child.unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass

    # -- recovery ----------------------------------------------------------

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clear_tmp()
        snapshots = self._snapshot_paths()
        segments = self._segment_paths()
        had_any = bool(snapshots or segments or self.path.exists())
        self._restore_snapshot(snapshots)
        self._replay_segments(segments, fresh_dir=not had_any)
        self._open_active()
        self._prune()

    def _restore_snapshot(self, snapshots: list) -> None:
        """Seed state from the newest *valid* snapshot; quarantine any
        damaged ones met on the way down (bit-flip fallback)."""
        for snap in snapshots:
            try:
                body = json.loads(snap.read_text(encoding="utf-8"))
                if body.get("snapshot") != SNAPSHOT_VERSION:
                    raise ValueError(f"unsupported snapshot version "
                                     f"{body.get('snapshot')!r}")
                if body.get("sha256") != snapshot_checksum(body):
                    raise ValueError("checksum mismatch")
                items = body["items"]
                count = int(body["count"])
                gen = int(body["gen"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                where = _quarantine(snap)
                warnings.warn(
                    f"durable log {self.path}: snapshot {snap.name} is "
                    f"damaged ({exc}); quarantined to {where.name}, "
                    f"falling back to the previous snapshot + segments",
                    RuntimeWarning,
                    stacklevel=4,
                )
                continue
            if body.get("fingerprint") != self.fingerprint:
                raise JournalMismatch(
                    f"snapshot {snap} was written by a different "
                    f"configuration; refusing to resume (delete the log "
                    f"to restart)"
                )
            for key, value in items:
                self.completed[_freeze(key)] = value
            self._snap_counts[snap.name] = count
            self.count = count
            self.gen = gen
            self._snap_count = count
            self.recovered_from_snapshot = True
            return

    def _replay_segments(self, segments: list, *, fresh_dir: bool) -> None:
        """Replay sealed segments then the active one, in base order,
        skipping records the snapshot already covers."""
        ordered = [(base, end, path, False) for base, end, path in segments]
        if self.path.exists():
            ordered.append((None, None, self.path, True))
        if not ordered:
            if fresh_dir:
                return  # brand-new log
            return  # snapshot-only state (crash before reopen)
        for i, (_base, _end, path, is_active) in enumerate(ordered):
            final = i == len(ordered) - 1
            self._replay_one(path, final=final, is_active=is_active,
                             lone=len(ordered) == 1
                             and not self.recovered_from_snapshot)

    def _replay_one(self, path: Path, *, final: bool, is_active: bool,
                    lone: bool) -> None:
        raw = path.read_bytes()
        lines = raw.decode("utf-8", errors="replace").splitlines(keepends=True)
        if not lines:
            if lone:
                raise JournalMismatch(f"journal {path} is empty (no header)")
            # A zero-byte active segment: the crash landed between
            # creating the file and writing its header.  The snapshot +
            # sealed segments already hold the state; recreate it.
            self._discard_segment(path, is_active)
            return
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            if not lone and final:
                # Torn header of the segment being created at the crash.
                self._discard_segment(path, is_active)
                return
            raise JournalMismatch(
                f"journal {path} has an unreadable header: {exc}"
            ) from None
        version = header.get("journal")
        if version == LEGACY_VERSION:
            base = 0
        elif version == SEGMENT_VERSION:
            base = int(header.get("base", 0))
        else:
            raise JournalMismatch(
                f"journal {path} has unsupported version {version!r}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise JournalMismatch(
                f"journal {path} was written by a different sweep "
                f"configuration; refusing to resume (delete it to restart)"
            )
        if base > self.count:
            raise JournalMismatch(
                f"journal {path} starts at record {base} but only "
                f"{self.count} records are accounted for — a segment is "
                f"missing; refusing to resume from a damaged log"
            )
        offset = len(lines[0].encode("utf-8"))
        index = base
        for lineno, line in enumerate(lines[1:], start=1):
            entry, ok = self._parse_record(line, index)
            if not ok:
                if final and lineno == len(lines) - 1:
                    # A SIGKILL/power cut landed mid-append: the final
                    # line is partial.  Truncate it away so the file is
                    # valid JSONL again; the in-flight item reruns.
                    warnings.warn(
                        f"journal {path}: dropping partially-written "
                        f"final line ({len(line)} bytes) — the item in "
                        f"flight at the crash will rerun",
                        RuntimeWarning,
                        stacklevel=5,
                    )
                    with open(path, "r+b") as fh:
                        fh.truncate(offset)
                        fh.flush()
                        os.fsync(fh.fileno())
                    break
                raise JournalMismatch(
                    f"journal {path} line {lineno + 1} is corrupt but not "
                    f"the final line; refusing to resume from a damaged "
                    f"journal (delete it to restart)"
                )
            if index >= self.count:
                self.completed[_freeze(entry["key"])] = entry["value"]
                self.count = index + 1
                self.replayed += 1
            index += 1
            offset += len(line.encode("utf-8"))
        if is_active:
            self._active_base = base
            self._offset = offset
            if version == SEGMENT_VERSION:
                self.gen = max(self.gen, int(header.get("gen", 0)))

    def _parse_record(self, line: str, index: int):
        """``(entry, ok)`` for one record line; CRC-checked when present."""
        try:
            entry = json.loads(line)
            key = entry["key"]
            value = entry["value"]
        except (ValueError, KeyError, TypeError):
            return None, False
        if "n" in entry and entry["n"] != index:
            return None, False
        if "c" in entry and entry["c"] != record_crc(
            entry.get("n", index), key, value
        ):
            return None, False
        return entry, True

    def _discard_segment(self, path: Path, is_active: bool) -> None:
        """Drop a segment the crash never finished creating."""
        try:
            path.unlink()
        except OSError:  # pragma: no cover
            pass
        fsync_dir(path.parent)

    def _open_active(self) -> None:
        if self.path.exists():
            self._fh = open(self.path, "a", encoding="utf-8")
            return
        self._create_active()

    def _create_active(self) -> None:
        """Write a fresh active segment with its generation header."""
        if self.gen == 0 and self.count == 0:
            # Byte-identical to the legacy v1 journal: old readers (and
            # old tests) see exactly the file they always saw.
            header = {"journal": LEGACY_VERSION,
                      "fingerprint": self.fingerprint}
        else:
            header = {
                "journal": SEGMENT_VERSION,
                "fingerprint": self.fingerprint,
                "gen": self.gen,
                "base": self.count,
            }
        self._active_base = self.count
        line = json.dumps(header) + "\n"
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(self.path.parent)
        # O_APPEND: every write lands at the current EOF, so a rollback
        # truncation (ENOSPC) is transparently healed by the next append.
        self._fh = open(self.path, "a", encoding="utf-8")
        self._offset = len(line.encode("utf-8"))

    # -- appends -----------------------------------------------------------

    def record(self, key, value) -> None:
        """Append one record (immediately flushed); snapshots when due.

        Stays consistent under a failed write: if the OS (or injected
        chaos) errors mid-line, the torn bytes are truncated back to the
        last durable record before the error propagates — a caller that
        catches ``OSError`` keeps a usable, consistent store.

        A due snapshot (``snapshot_every``) is taken at the *start* of
        the append, never after it: event-sourced consumers journal
        first and apply to memory second, so the only moment their
        in-memory state is guaranteed to cover every journaled record —
        which is what the snapshot compactor serialises — is before the
        next record goes in.
        """
        chaos.maybe_kill("durable.append")
        if (
            self.snapshot_every is not None
            and self.count - self._snap_count >= self.snapshot_every
        ):
            self.snapshot()
        index = self.count
        entry = {
            "n": index,
            "key": key,
            "value": value,
            "c": record_crc(index, key, value),
        }
        data = json.dumps(entry) + "\n"
        torn_at = chaos.torn_offset((self.path.name, index),
                                    len(data.encode("utf-8")))
        if torn_at is not None:
            # A power cut mid-append: persist a seeded prefix of the
            # record, then die.  Recovery must truncate it away.
            self._fh.write(data.encode("utf-8")[:torn_at]
                           .decode("utf-8", errors="ignore"))
            self._fh.flush()
            os.fsync(self._fh.fileno())
            chaos.chaos_die(f"injected torn write at record {index}")
        try:
            chaos.maybe_enospc((self.path.name, index))
            self._fh.write(data)
            self._fh.flush()
        except OSError:
            self._rollback()
            raise
        self._offset += len(data.encode("utf-8"))
        self.completed[_freeze(key)] = value
        self.count = index + 1

    def _rollback(self) -> None:
        """Truncate the active segment back to its last durable record."""
        try:
            self._fh.flush()
        except OSError:  # pragma: no cover - flush may re-raise ENOSPC
            pass
        with open(self.path, "r+b") as fh:
            fh.truncate(self._offset)
            fh.flush()
            os.fsync(fh.fileno())

    # -- snapshot + compaction state machine -------------------------------

    def snapshot(self) -> None:
        """Snapshot the full state, roll the active segment, compact.

        Safe to crash at any byte of any phase: each phase's kill-point
        name is listed in :data:`KILL_POINTS` and recovery handles every
        intermediate state (see the campaign harness).
        """
        if self.count == self._snap_count:
            return  # nothing new since the last snapshot
        # Phase 1 — seal: the active segment becomes immutable.
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        sealed = self.path.with_name(
            f"{self.path.name}.{self._active_base:012d}.{self.count:012d}.seg"
        )
        os.replace(self.path, sealed)
        fsync_dir(self.path.parent)
        chaos.maybe_kill("durable.seal")

        # Phase 2 — write the snapshot to a temp file and fsync it.  The
        # items are serialised once, canonically, and each piece of that
        # text is checksummed as it is written (snapshot_checksum of the
        # parsed file gives the same digest).
        items = [[_thaw(k), v] for k, v in self.completed.raw.items()]
        if self._compact_items is not None:
            items = self._compact_items(items)
            self.completed = _Items((_freeze(k), v) for k, v in items)
        header = {
            "snapshot": SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint,
            "gen": self.gen + 1,
            "count": self.count,
        }
        # The head is the same with and without the sha256 (it sorts
        # after the items), so only the tail waits for the digest.
        head, tail = _around_items(header)
        snap = self.path.with_name(f"{self.path.name}.{self.gen + 1:06d}.snap")
        tmp = snap.with_name(snap.name + ".tmp")
        digest = hashlib.sha256()
        with open(tmp, "wb") as fh:
            for text in _joined((head, *_items_pieces(items)), 1 << 20):
                data = text.encode("utf-8")
                digest.update(data)
                fh.write(data)
            digest.update(tail.encode("utf-8"))
            header["sha256"] = digest.hexdigest()
            fh.write(_around_items(header)[1].encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        self._snap_counts[snap.name] = self.count
        chaos.maybe_kill("durable.snap-write")

        # Phase 3 — publish the snapshot: rename + parent-dir fsync.
        os.replace(tmp, snap)
        fsync_dir(self.path.parent)
        chaos.maybe_kill("durable.snap-rename")

        # Phase 4 — reopen: fresh active segment for the new generation.
        self.gen += 1
        self._snap_count = self.count
        self._create_active()
        chaos.maybe_kill("durable.reopen")

        # Phase 5 — compact: drop history the retained snapshots cover.
        self._prune()

    def _prune(self) -> None:
        """Delete snapshots beyond retention and segments fully covered
        by the *oldest retained* snapshot.  Pure garbage collection:
        safe to crash anywhere and safe to re-run on every open."""
        snapshots = self._snapshot_paths()
        keep = snapshots[: self.keep_snapshots]
        removed = False
        for snap in snapshots[self.keep_snapshots:]:
            try:
                snap.unlink()
                removed = True
            except OSError:  # pragma: no cover
                pass
            chaos.maybe_kill("durable.compact")
        if len(keep) >= 2:
            # Segments are only deleted below the *older* retained
            # snapshot: until a second snapshot exists, corruption of
            # the sole snapshot would otherwise be unrecoverable.
            floors = []
            for snap in keep:
                count = self._snap_counts.get(snap.name)
                if count is None:
                    try:
                        body = json.loads(snap.read_text(encoding="utf-8"))
                        count = self._snap_counts[snap.name] = int(
                            body["count"])
                    except (OSError, ValueError, KeyError, TypeError):
                        count = 0  # damaged snapshot covers nothing
                floors.append(count)
            floor = min(floors)
            for base, end, path in self._segment_paths():
                if end <= floor:
                    try:
                        path.unlink()
                        removed = True
                    except OSError:  # pragma: no cover
                        pass
                    chaos.maybe_kill("durable.compact")
        if removed:
            fsync_dir(self.path.parent)

    # -- lifecycle ---------------------------------------------------------

    def sync(self) -> None:
        """Flush buffered lines and fsync them to disk."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush, fsync, and close: recorded lines survive power loss."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DurableLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
