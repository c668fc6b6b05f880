"""Tests for the analysis harness (tables, ratios, sweeps)."""

import pytest

from repro import LRUPolicy, SharedStrategy, StaticPartitionStrategy, Workload
from repro.analysis import Table, fault_ratio, run_strategies, sweep


class TestTable:
    def test_ascii_alignment(self):
        t = Table("demo", ["a", "bb"])
        t.add_row(1, 2.5)
        t.add_row(100, 0.123456)
        text = t.format_ascii()
        assert "demo" in text
        lines = text.splitlines()
        assert len(lines) == 5
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_markdown(self):
        t = Table("demo", ["x"])
        t.add_row(3)
        md = t.format_markdown()
        assert "| x |" in md
        assert "| 3 |" in md

    def test_wrong_arity(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_float_formatting(self):
        t = Table("demo", ["v"])
        t.add_row(1234567.0)
        t.add_row(0.0001)
        t.add_row(float("nan"))
        text = t.format_ascii()
        assert "nan" in text

    def test_extend(self):
        t = Table("demo", ["a"])
        t.extend([[1], [2]])
        assert len(t.rows) == 2

    def test_str(self):
        assert "demo" in str(Table("demo", ["a"]))


class TestHarness:
    def setup_method(self):
        self.w = Workload([[1, 2, 3, 1, 2, 3], [10, 11, 10, 11, 10, 11]])

    def test_run_strategies(self):
        results = run_strategies(
            self.w, 4, 1, [SharedStrategy(LRUPolicy), StaticPartitionStrategy([2, 2], LRUPolicy)]
        )
        assert len(results) == 2
        assert results[0].name == "S_LRU"
        assert results[0].total_faults > 0

    def test_fault_ratio_between_strategies(self):
        ratio, alg, ref = fault_ratio(
            self.w, 4, 1, SharedStrategy(LRUPolicy), SharedStrategy(LRUPolicy)
        )
        assert ratio == 1.0
        assert alg == ref

    def test_fault_ratio_against_constant(self):
        ratio, alg, ref = fault_ratio(
            self.w, 4, 1, SharedStrategy(LRUPolicy), 4
        )
        assert ref == 4
        assert ratio == alg / 4

    def test_fault_ratio_zero_reference(self):
        ratio, _, _ = fault_ratio(self.w, 4, 1, SharedStrategy(LRUPolicy), 0)
        assert ratio == float("inf")

    def test_sweep_serial(self):
        out = sweep([1, 2, 3], lambda x: x * x)
        assert out == [(1, 1), (2, 4), (3, 9)]
