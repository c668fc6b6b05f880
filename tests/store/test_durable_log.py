"""The crash-consistent durable log: segments, snapshots, compaction."""

import json
import warnings

import pytest

from repro.runtime import chaos
from repro.store import (
    DurableLog,
    JournalMismatch,
    Serialized,
    snapshot_checksum,
)

FP = "test-durable-v1"


def fill(log, n, start=0):
    for i in range(start, n):
        log.record(i, {"v": i * i})


def family(path):
    return sorted(p.name for p in path.parent.iterdir())


class TestLegacyCompat:
    def test_fresh_log_writes_v1_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP) as log:
            log.record("a", {"x": 1})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"journal": 1, "fingerprint": FP}

    def test_round_trip_without_snapshots(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP) as log:
            fill(log, 10)
        with DurableLog(path, FP) as log:
            assert log.count == 10
            assert log.replayed == 10
            assert not log.recovered_from_snapshot
            assert log.completed[3] == {"v": 9}
        assert family(path) == ["j.jsonl"]  # single file, like always

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP):
            pass
        with pytest.raises(JournalMismatch):
            DurableLog(path, "other-config")

    def test_tuple_keys_survive_json(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP, snapshot_every=2) as log:
            for i in range(5):
                log.record((i, "evt"), {"v": i})
        with DurableLog(path, FP, snapshot_every=2) as log:
            assert (3, "evt") in log.completed

    def test_torn_final_line_truncated_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP) as log:
            fill(log, 4)
        with open(path, "a") as fh:
            fh.write('{"n": 4, "key": 4, "val')  # power cut mid-append
        with pytest.warns(RuntimeWarning, match="partially-written"):
            log = DurableLog(path, FP)
        assert log.count == 4
        log.record(4, {"v": 16})  # the in-flight record reruns cleanly
        log.close()
        with DurableLog(path, FP) as log:
            assert log.count == 5

    def test_interior_corruption_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP) as log:
            fill(log, 4)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalMismatch):
            DurableLog(path, FP)

    def test_empty_lone_file_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(JournalMismatch):
            DurableLog(path, FP)


class TestValidation:
    def test_snapshot_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            DurableLog(tmp_path / "j.jsonl", FP, snapshot_every=0)

    def test_keep_snapshots_floor(self, tmp_path):
        with pytest.raises(ValueError):
            DurableLog(tmp_path / "j.jsonl", FP, snapshot_every=4,
                       keep_snapshots=1)


class TestSnapshots:
    def test_snapshot_bounds_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP, snapshot_every=8) as log:
            fill(log, 30)
        names = family(path)
        assert any(n.endswith(".snap") for n in names)
        with DurableLog(path, FP, snapshot_every=8) as log:
            assert log.count == 30
            assert log.recovered_from_snapshot
            assert log.replayed <= 8
            assert log.completed == {i: {"v": i * i} for i in range(30)}

    def test_compaction_retains_two_snapshots(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP, snapshot_every=4) as log:
            fill(log, 50)
        snaps = [n for n in family(path) if n.endswith(".snap")]
        assert len(snaps) == 2
        # Every sealed segment still on disk is above the older snapshot.
        older = min(
            json.loads((path.parent / s).read_text())["count"] for s in snaps
        )
        for name in family(path):
            if name.endswith(".seg"):
                end = int(name[: -len(".seg")].split(".")[-1])
                assert end > older

    def test_v1_journal_upgrades_in_place(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP) as log:  # legacy: no snapshots
            fill(log, 12)
        with DurableLog(path, FP, snapshot_every=4) as log:
            fill(log, 20, start=12)
        with DurableLog(path, FP, snapshot_every=4) as log:
            assert log.count == 20
            assert log.recovered_from_snapshot
            assert log.completed[0] == {"v": 0}  # pre-upgrade history kept

    def test_compact_items_hook(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def keep_last(items):
            return items[-1:]

        with DurableLog(path, FP, snapshot_every=4,
                        compact_items=keep_last) as log:
            fill(log, 9)
        with DurableLog(path, FP, snapshot_every=4,
                        compact_items=keep_last) as log:
            # Snapshot at count=8 holds only record 7; the tail replays.
            assert log.count == 9
            assert set(log.completed) == {7, 8}

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP, snapshot_every=4) as log:
            fill(log, 20)
        snaps = sorted(path.parent.glob("j.jsonl.*.snap"))
        newest = snaps[-1]
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        newest.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            log = DurableLog(path, FP, snapshot_every=4)
        try:
            assert log.count == 20
            assert log.recovered_from_snapshot  # the previous one
            assert log.completed == {i: {"v": i * i} for i in range(20)}
            assert newest.with_name(newest.name + ".corrupt").exists()
        finally:
            log.close()

    def test_snapshot_text_is_the_canonical_json_it_checksums(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with DurableLog(path, FP, snapshot_every=4) as log:
            log.record("k", {"b": [1.5, None, "é"], "a": {"y": 1, "x": 2}})
            fill(log, 8, start=1)
        snap = sorted(path.parent.glob("j.jsonl.*.snap"))[-1]
        text = snap.read_text(encoding="utf-8")
        body = json.loads(text)
        assert body["sha256"] == snapshot_checksum(body)
        assert text == json.dumps(body, sort_keys=True)

    def test_serialized_values_are_written_as_given(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def pre_serialize(items):
            return [[k, Serialized(v)] for k, v in items]

        with DurableLog(path, FP, snapshot_every=4,
                        compact_items=pre_serialize) as log:
            fill(log, 9)
            # In memory the log keeps values, not their text.
            assert log.completed == {i: {"v": i * i} for i in range(9)}
        with DurableLog(path, FP, snapshot_every=4) as log:
            assert log.recovered_from_snapshot
            assert log.completed == {i: {"v": i * i} for i in range(9)}

    def test_a_value_holding_the_splice_marker_is_written_exactly(
            self, tmp_path):
        from repro.store.durable import _HOLE

        path = tmp_path / "j.jsonl"

        def pre_serialize(items):
            return [[k, Serialized(v)] if k % 2 else [k, v] for k, v in items]

        with DurableLog(path, FP, snapshot_every=4,
                        compact_items=pre_serialize) as log:
            for i in range(9):
                log.record(i, {"v": _HOLE * i})
        with DurableLog(path, FP, snapshot_every=4) as log:
            assert log.recovered_from_snapshot
            assert log.completed == {i: {"v": _HOLE * i} for i in range(9)}

    def test_a_snapshot_larger_than_one_write_is_canonical(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def pre_serialize(items):
            return [[k, Serialized(v)] if k % 2 else [k, v] for k, v in items]

        big = "x" * 50_000  # 40 values: the text spans several writes
        with DurableLog(path, FP, snapshot_every=40,
                        compact_items=pre_serialize) as log:
            for i in range(41):
                log.record(i, {"v": i, "pad": big})
        snap = sorted(path.parent.glob("j.jsonl.*.snap"))[-1]
        text = snap.read_text(encoding="utf-8")
        assert len(text) > 1 << 20  # more than one 1 MB write
        body = json.loads(text)
        assert body["sha256"] == snapshot_checksum(body)
        assert text == json.dumps(body, sort_keys=True)
        with DurableLog(path, FP, snapshot_every=40) as log:
            assert log.completed == {
                i: {"v": i, "pad": big} for i in range(41)}

    def test_snapshot_checksum_covers_items(self):
        body = {"snapshot": 1, "count": 2, "items": [[1, 2]]}
        digest = snapshot_checksum(body)
        assert snapshot_checksum({**body, "sha256": digest}) == digest
        assert snapshot_checksum({**body, "items": [[1, 3]]}) != digest


class TestEnospc:
    def test_rollback_keeps_store_usable(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        log = DurableLog(path, FP)
        fill(log, 3)
        chaos.reset_chaos_counters()
        monkeypatch.setenv(chaos.CHAOS_ENV, "enospc=1")
        with pytest.raises(OSError):
            log.record(3, {"v": 9})
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert log.count == 3  # the failed append left no trace
        log.record(3, {"v": 9})  # retry on the same handle succeeds
        log.close()
        with DurableLog(path, FP) as log:
            assert log.count == 4
            assert log.completed[3] == {"v": 9}

    def test_rollback_survives_reopen(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        log = DurableLog(path, FP)
        fill(log, 3)
        chaos.reset_chaos_counters()
        monkeypatch.setenv(chaos.CHAOS_ENV, "enospc=1")
        with pytest.raises(OSError):
            log.record(3, {"v": 9})
        monkeypatch.delenv(chaos.CHAOS_ENV)
        log.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reopen must not need repairs
            with DurableLog(path, FP) as log:
                assert log.count == 3
