"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, make_strategy
from repro.strategies import (
    AdaptiveWorkingSetPartition,
    FlushWhenFullStrategy,
    LruMimicDynamicPartition,
    SharedStrategy,
    StaticPartitionStrategy,
)


class TestStrategySpecs:
    def test_shared(self):
        assert isinstance(make_strategy("S_LRU", 8, 2), SharedStrategy)
        assert isinstance(make_strategy("S_FITF", 8, 2), SharedStrategy)

    def test_static(self):
        s = make_strategy("sP_eq_FIFO", 8, 2)
        assert isinstance(s, StaticPartitionStrategy)
        assert s.partition == (4, 4)

    def test_dynamic(self):
        assert isinstance(
            make_strategy("dP_ws_LRU", 8, 2), AdaptiveWorkingSetPartition
        )
        assert isinstance(
            make_strategy("dP_lemma3", 8, 2), LruMimicDynamicPartition
        )

    def test_fwf(self):
        assert isinstance(make_strategy("FWF", 8, 2), FlushWhenFullStrategy)

    def test_bad_specs(self):
        with pytest.raises(SystemExit):
            make_strategy("S_MAGIC", 8, 2)
        with pytest.raises(SystemExit):
            make_strategy("nonsense", 8, 2)


class TestCommands:
    def test_experiment(self, capsys):
        assert main(["experiment", "E2"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "REPRODUCED" in out

    def test_experiment_markdown(self, capsys):
        assert main(["experiment", "E2", "--markdown"]) == 0
        assert capsys.readouterr().out.startswith("### E2")

    def test_panel(self, capsys):
        code = main(
            [
                "panel",
                "--workload",
                "uniform",
                "-p",
                "2",
                "-n",
                "100",
                "-K",
                "8",
                "--tau",
                "1",
                "--strategies",
                "S_LRU",
                "S_FITF",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S_LRU" in out and "S_FITF" in out

    def test_generate_simulate_opt_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "w.trace"
        assert (
            main(
                [
                    "generate",
                    "--workload",
                    "uniform",
                    "-p",
                    "2",
                    "-n",
                    "6",
                    "-K",
                    "3",
                    "--output",
                    str(trace),
                ]
            )
            == 0
        )
        assert trace.exists()
        assert (
            main(
                [
                    "simulate",
                    "--workload-file",
                    str(trace),
                    "--strategy",
                    "S_LRU",
                    "-K",
                    "3",
                    "--tau",
                    "1",
                    "--trace",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "total faults" in out
        assert (
            main(
                ["opt", "--workload-file", str(trace), "-K", "3", "--tau", "1"]
            )
            == 0
        )
        assert "optimal total faults" in capsys.readouterr().out

    def test_opt_budget_degrades(self, tmp_path, capsys):
        trace = tmp_path / "w.trace"
        main(
            ["generate", "--workload", "uniform", "-p", "2", "-n", "8",
             "-K", "3", "--output", str(trace)]
        )
        exact_code = main(
            ["opt", "--workload-file", str(trace), "-K", "3", "--tau", "1"]
        )
        assert exact_code == 0
        exact = int(
            capsys.readouterr().out.split("optimal total faults :")[1]
            .splitlines()[0]
        )
        degraded_code = main(
            ["opt", "--workload-file", str(trace), "-K", "3", "--tau", "1",
             "--max-states", "3"]
        )
        out = capsys.readouterr().out
        assert degraded_code == 2
        assert "DEGRADED" in out
        lower, upper = out.split("[")[1].split("]")[0].split(",")
        assert float(lower) <= exact <= float(upper)

    def test_opt_refuses_big_instances(self, tmp_path):
        trace = tmp_path / "big.trace"
        main(
            [
                "generate",
                "--workload",
                "uniform",
                "-p",
                "4",
                "-n",
                "100",
                "-K",
                "8",
                "--output",
                str(trace),
            ]
        )
        with pytest.raises(SystemExit, match="refusing"):
            main(["opt", "--workload-file", str(trace), "-K", "8"])

    def test_report_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        # Run the two fastest experiments only?  report runs all; at small
        # scale that is a few seconds — acceptable once per suite.
        code = main(["report", "--output", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "### E1" in text and "### E14" in text

    def test_all_generator_names(self, tmp_path):
        for name in ("zipf", "cyclic", "phased", "graph", "lemma4", "theorem1"):
            out = tmp_path / f"{name}.trace"
            assert (
                main(
                    [
                        "generate",
                        "--workload",
                        name,
                        "-p",
                        "2",
                        "-n",
                        "50",
                        "-K",
                        "8",
                        "--output",
                        str(out),
                    ]
                )
                == 0
            )


class TestTimelineAndProfile:
    def test_timeline_generated_workload(self, capsys):
        code = main(
            [
                "timeline",
                "--workload",
                "theorem1",
                "-p",
                "2",
                "-n",
                "100",
                "-K",
                "8",
                "--tau",
                "1",
                "--width",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "core 0" in out and "X" in out

    def test_timeline_from_file(self, tmp_path, capsys):
        trace = tmp_path / "w.trace"
        main(
            [
                "generate",
                "--workload",
                "cyclic",
                "-p",
                "2",
                "-n",
                "20",
                "-K",
                "4",
                "--output",
                str(trace),
            ]
        )
        assert (
            main(
                [
                    "timeline",
                    "--workload-file",
                    str(trace),
                    "-K",
                    "4",
                    "--width",
                    "30",
                ]
            )
            == 0
        )
        assert "faults=" in capsys.readouterr().out

    def test_profile(self, capsys):
        code = main(
            ["profile", "--workload", "zipf", "-p", "2", "-n", "100", "-K", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "footprint" in out

    def test_bal_strategy_spec(self):
        from repro.strategies import ProgressBalancingStrategy

        assert isinstance(make_strategy("S_BAL", 8, 2), ProgressBalancingStrategy)


class TestVerifyCommand:
    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["verify", "--fuzz", "30", "-q"]) == 0
        out = capsys.readouterr().out
        assert "30 fuzz case(s)" in out
        assert "all engines agree" in out

    def test_corpus_replay(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).resolve().parent / "corpus" / "verify"
        assert (
            main(["verify", "--fuzz", "5", "--corpus", str(corpus), "-q"]) == 0
        )
        out = capsys.readouterr().out
        assert "7 corpus case(s)" in out

    def test_injected_bug_exits_one_and_saves(
        self, tmp_path, capsys, monkeypatch
    ):
        import inspect
        import types

        import repro.core.kernels as kernels_mod
        import repro.core.kernels.shared as shared_mod

        legal = "if busy_until[q] >= t or pinned_at.get(q) == t:"
        source = inspect.getsource(shared_mod)
        assert legal in source
        patched = types.ModuleType(shared_mod.__name__)
        exec(
            compile(
                source.replace(legal, "if busy_until[q] >= t:"),
                shared_mod.__file__,
                "exec",
            ),
            patched.__dict__,
        )
        monkeypatch.setitem(
            kernels_mod.KERNELS, "S_FIFO", patched.fast_shared_fifo
        )

        save_dir = tmp_path / "failures"
        code = main(
            [
                "verify", "--fuzz", "300", "-q",
                "--strategies", "S_FIFO",
                "--save-failures", str(save_dir),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "kernel_mismatch [S_FIFO]" in out
        saved = list(save_dir.glob("*.json"))
        assert len(saved) == 1

        from repro.verify import load_case

        case = load_case(saved[0])
        assert case.num_cores <= 3
        assert case.total_requests <= 10


def test_cli_import_leaves_scipy_and_networkx_unloaded():
    """Every ``repro`` command, ``repro serve`` included, imports the CLI;
    scipy.stats (about a second) and networkx load only where used."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
