"""Tests for seed-replicated batch runs."""

import pytest

from repro import LRUPolicy, SharedStrategy
from repro.analysis import batch_run, summarize
from repro.runtime.supervisor import SweepError
from repro.workloads import uniform_workload


def make_workload(seed):
    return uniform_workload(2, 40, 5, seed=seed)


def fail_on_seed_5(seed):
    if seed == 5:
        raise ValueError("distinctive-workload-error")
    return make_workload(seed)


def make_strategy():
    return SharedStrategy(LRUPolicy)


class TestBatchRun:
    def test_serial(self):
        result = batch_run(
            "S_LRU", make_workload, make_strategy, 4, 1, seeds=range(4)
        )
        assert result.seeds == (0, 1, 2, 3)
        assert len(result.faults) == 4
        assert result.min_faults <= result.mean_faults <= result.max_faults
        assert result.std_faults >= 0
        assert result.mean_makespan > 0

    def test_parallel_matches_serial(self):
        serial = batch_run(
            "x", make_workload, make_strategy, 4, 1, seeds=range(4)
        )
        parallel = batch_run(
            "x",
            make_workload,
            make_strategy,
            4,
            1,
            seeds=range(4),
            parallel=True,
            max_workers=2,
        )
        assert serial.faults == parallel.faults
        assert serial.makespans == parallel.makespans

    def test_parallel_chunks_of_seeds_match_serial(self):
        # 40 seeds on 2 workers: every job carries a chunk of 5 seeds.
        serial = batch_run(
            "x", make_workload, make_strategy, 4, 1, seeds=range(40)
        )
        parallel = batch_run(
            "x", make_workload, make_strategy, 4, 1, seeds=range(40),
            parallel=True, max_workers=2,
        )
        assert parallel == serial

    def test_parallel_replica_error_carries_the_worker_traceback(self):
        with pytest.raises(SweepError) as exc_info:
            batch_run(
                "x", fail_on_seed_5, make_strategy, 4, 1, seeds=range(8),
                parallel=True, max_workers=2,
            )
        assert "distinctive-workload-error" in str(exc_info.value)
        assert "Traceback" in str(exc_info.value)

    def test_deterministic_per_seed(self):
        a = batch_run("x", make_workload, make_strategy, 4, 1, seeds=[7])
        b = batch_run("x", make_workload, make_strategy, 4, 1, seeds=[7])
        assert a.faults == b.faults

    def test_summary_table(self):
        results = [
            batch_run("S_LRU", make_workload, make_strategy, 4, 1, range(3)),
            batch_run("S_LRU_tau3", make_workload, make_strategy, 4, 3, range(3)),
        ]
        table = summarize(results)
        text = table.format_ascii()
        assert "S_LRU" in text and "mean" in text
        assert len(table.rows) == 2


class TestResultCache:
    def test_warm_run_hits_and_matches(self, tmp_path):
        base = batch_run("x", make_workload, make_strategy, 4, 1, range(4))
        cold = batch_run(
            "x", make_workload, make_strategy, 4, 1, range(4),
            cache=True, cache_dir=tmp_path,
        )
        warm = batch_run(
            "x", make_workload, make_strategy, 4, 1, range(4),
            cache=True, cache_dir=tmp_path,
        )
        assert cold.cache_hits == 0
        assert warm.cache_hits == 4
        assert base.faults == cold.faults == warm.faults
        assert base.makespans == cold.makespans == warm.makespans

    def test_key_separates_configurations(self, tmp_path):
        batch_run(
            "x", make_workload, make_strategy, 4, 1, range(3),
            cache=True, cache_dir=tmp_path,
        )
        other_tau = batch_run(
            "x", make_workload, make_strategy, 4, 2, range(3),
            cache=True, cache_dir=tmp_path,
        )
        other_k = batch_run(
            "x", make_workload, make_strategy, 5, 1, range(3),
            cache=True, cache_dir=tmp_path,
        )
        assert other_tau.cache_hits == 0
        assert other_k.cache_hits == 0

    def test_parallel_with_cache(self, tmp_path):
        serial = batch_run(
            "x", make_workload, make_strategy, 4, 1, range(4),
            cache=True, cache_dir=tmp_path,
        )
        parallel = batch_run(
            "x", make_workload, make_strategy, 4, 1, range(4),
            parallel=True, max_workers=2, cache=True, cache_dir=tmp_path,
        )
        assert parallel.faults == serial.faults
        assert parallel.cache_hits == 4

    def test_corrupt_entry_recomputed(self, tmp_path):
        from repro.analysis.batch import _cache_root

        batch_run(
            "x", make_workload, make_strategy, 4, 1, [0],
            cache=True, cache_dir=tmp_path,
        )
        (entry,) = list(_cache_root(tmp_path).rglob("*.json"))
        entry.write_text("{ truncated")
        again = batch_run(
            "x", make_workload, make_strategy, 4, 1, [0],
            cache=True, cache_dir=tmp_path,
        )
        assert again.cache_hits == 0
        assert again.faults == batch_run(
            "x", make_workload, make_strategy, 4, 1, [0]
        ).faults

    def test_info_and_clear(self, tmp_path):
        from repro.analysis import cache_info, clear_cache

        batch_run(
            "x", make_workload, make_strategy, 4, 1, range(3),
            cache=True, cache_dir=tmp_path,
        )
        info = cache_info(tmp_path)
        assert info["entries"] == 3 and info["bytes"] > 0
        assert clear_cache(tmp_path) == 3
        assert cache_info(tmp_path)["entries"] == 0

    def test_cli_cache_command(self, tmp_path, capsys):
        from repro.cli import main

        batch_run(
            "x", make_workload, make_strategy, 4, 1, range(2),
            cache=True, cache_dir=tmp_path,
        )
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        assert "entries   : 2" in capsys.readouterr().out
        assert main(["cache", "--dir", str(tmp_path), "--clear"]) == 0
        assert "removed 2" in capsys.readouterr().out


class TestCacheFingerprint:
    """The cache key must separate strategies whose display *name* collides
    but whose configuration differs (the v1 key aliased them)."""

    def test_same_name_different_config_distinct_keys(self):
        from repro.analysis.batch import _replica_key
        from repro.policies import LRUKPolicy

        w = make_workload(0)
        two = SharedStrategy(lambda: LRUKPolicy(k=2))
        three = SharedStrategy(lambda: LRUKPolicy(k=3))
        assert two.name == three.name  # the very aliasing that broke v1
        assert _replica_key(w, two, 4, 1) != _replica_key(w, three, 4, 1)

    def test_same_name_different_config_no_shared_entry(self, tmp_path):
        from repro.policies import LRUKPolicy

        first = batch_run(
            "k2", make_workload, lambda: SharedStrategy(lambda: LRUKPolicy(k=2)),
            4, 1, range(3), cache=True, cache_dir=tmp_path,
        )
        second = batch_run(
            "k3", make_workload, lambda: SharedStrategy(lambda: LRUKPolicy(k=3)),
            4, 1, range(3), cache=True, cache_dir=tmp_path,
        )
        assert first.cache_hits == 0
        assert second.cache_hits == 0  # v1 would have served k=2's entries

    def test_partition_in_key(self):
        from repro.analysis.batch import _replica_key
        from repro.strategies import StaticPartitionStrategy

        w = make_workload(0)
        a = StaticPartitionStrategy([3, 1], LRUPolicy)
        b = StaticPartitionStrategy([2, 2], LRUPolicy)
        assert _replica_key(w, a, 4, 1) != _replica_key(w, b, 4, 1)

    def test_version_bump_orphans_old_entries(self, tmp_path):
        """Keys embed CACHE_VERSION and live under a versioned root, so a
        v1 entry can never be read back by the current code."""
        import repro.analysis.batch as batch_mod
        from repro.analysis.batch import _cache_root

        assert batch_mod.CACHE_VERSION == 3
        assert _cache_root(tmp_path).name == "v3"
        v1 = tmp_path / "batch" / "v1" / "ab" / ("a" * 64 + ".json")
        v1.parent.mkdir(parents=True)
        v1.write_text('{"faults": 0, "makespan": 0}')
        res = batch_run(
            "x", make_workload, make_strategy, 4, 1, [0],
            cache=True, cache_dir=tmp_path,
        )
        assert res.cache_hits == 0
        assert res.faults[0] > 0  # recomputed, not the poisoned v1 entry


class TestExpectedFaults:
    def test_randomized_marking_bounds(self):
        """E[MARK_random] lies between OPT (Belady) and the deterministic
        worst case on the cyclic pathology — the Fiat et al. separation."""
        from repro import RandomizedMarkingPolicy, SharedStrategy
        from repro.analysis import expected_faults
        from repro.sequential import belady_faults

        seq = [i % 4 for i in range(80)]  # cycle of 4 in 3 cells
        est = expected_faults(
            lambda s: SharedStrategy(RandomizedMarkingPolicy(seed=s)),
            [seq],
            cache_size=3,
            tau=0,
            trials=20,
        )
        assert belady_faults(seq, 3) <= est.mean <= len(seq)
        assert est.low <= est.mean <= est.high
        assert len(est.samples) == 20

    def test_deterministic_strategy_zero_width(self):
        from repro import LRUPolicy, SharedStrategy
        from repro.analysis import expected_faults

        est = expected_faults(
            lambda s: SharedStrategy(LRUPolicy),
            [[1, 2, 3, 1, 2, 3]],
            cache_size=2,
            tau=0,
            trials=5,
        )
        assert est.half_width == 0.0

    def test_trials_validation(self):
        import pytest

        from repro import LRUPolicy, SharedStrategy
        from repro.analysis import expected_faults

        with pytest.raises(ValueError):
            expected_faults(
                lambda s: SharedStrategy(LRUPolicy), [[1]], 1, 0, trials=1
            )

    def test_randomized_beats_deterministic_marking_on_cycle(self):
        """The textbook randomized-vs-deterministic separation: on the
        (k+1)-page cycle deterministic marking faults everywhere while
        randomized MARK's expectation is strictly lower."""
        from repro import (
            MarkingPolicy,
            RandomizedMarkingPolicy,
            SharedStrategy,
            simulate,
        )
        from repro.analysis import expected_faults

        seq = [i % 4 for i in range(120)]
        det = simulate([seq], 3, 0, SharedStrategy(MarkingPolicy)).total_faults
        est = expected_faults(
            lambda s: SharedStrategy(RandomizedMarkingPolicy(seed=s)),
            [seq],
            cache_size=3,
            tau=0,
            trials=20,
        )
        assert det == len(seq)
        assert est.high < det
