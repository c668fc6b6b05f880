"""CLI surface of the platform: run, runs, compare (both modes), panel."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"name": "clitest", "experiments": ["E2"], "scale": "small"}
        ),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def runs_dir(tmp_path):
    return tmp_path / "runs"


def _run(spec_file, runs_dir, *extra):
    return main(
        ["run", str(spec_file), "--runs-dir", str(runs_dir), "-q", *extra]
    )


class TestRunVerb:
    def test_run_then_cache_hit(self, spec_file, runs_dir, capsys):
        assert _run(spec_file, runs_dir) == 0
        first = capsys.readouterr().out
        assert "run " in first and "ran" in first
        assert "1 REPRODUCED" in first

        assert _run(spec_file, runs_dir) == 0
        assert "cached" in capsys.readouterr().out

    def test_set_override_changes_run_id(self, spec_file, runs_dir, capsys):
        assert _run(spec_file, runs_dir) == 0
        base_id = capsys.readouterr().out.split()[1].rstrip(":")
        assert _run(spec_file, runs_dir, "--set", "model.tau=3") == 0
        new_id = capsys.readouterr().out.split()[1].rstrip(":")
        assert new_id != base_id

    def test_bad_spec_is_systemexit(self, tmp_path, runs_dir):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiments": ["E99"]}), encoding="utf-8")
        with pytest.raises(SystemExit, match="unknown experiment"):
            _run(bad, runs_dir)

    def test_runs_listing(self, spec_file, runs_dir, capsys):
        assert main(["runs", "--runs-dir", str(runs_dir)]) == 0
        assert "no completed runs" in capsys.readouterr().out
        _run(spec_file, runs_dir)
        capsys.readouterr()
        assert main(["runs", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "clitest" in out and "ok" in out


class TestCompareVerb:
    def test_identical_run_compares_empty(self, spec_file, runs_dir, capsys):
        _run(spec_file, runs_dir)
        rid = capsys.readouterr().out.split()[1].rstrip(":")
        code = main(["compare", rid, rid, "--runs-dir", str(runs_dir)])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_runs_gate_nonzero(self, spec_file, runs_dir, capsys):
        _run(spec_file, runs_dir)
        rid_a = capsys.readouterr().out.split()[1].rstrip(":")
        _run(spec_file, runs_dir, "--set", "model.K=4")
        rid_b = capsys.readouterr().out.split()[1].rstrip(":")
        code = main(["compare", rid_a, rid_b, "--runs-dir", str(runs_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "difference(s)" in out

    def test_markdown_rendering(self, spec_file, runs_dir, capsys):
        _run(spec_file, runs_dir)
        rid = capsys.readouterr().out.split()[1].rstrip(":")
        code = main(
            ["compare", rid, rid, "--runs-dir", str(runs_dir), "--markdown"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("# Run diff")

    def test_unknown_ref_is_systemexit(self, runs_dir):
        with pytest.raises(SystemExit, match="no completed run"):
            main(["compare", "feed", "f00d", "--runs-dir", str(runs_dir)])

    def test_single_ref_rejected(self, spec_file, runs_dir, capsys):
        _run(spec_file, runs_dir)
        rid = capsys.readouterr().out.split()[1].rstrip(":")
        with pytest.raises(SystemExit, match="exactly two"):
            main(["compare", rid, "--runs-dir", str(runs_dir)])


class TestPanelAndAlias:
    _PANEL_ARGS = [
        "--workload", "uniform", "-p", "2", "-n", "100", "-K", "8",
        "--strategies", "S_LRU",
    ]

    def test_panel_verb(self, capsys):
        assert main(["panel", *self._PANEL_ARGS]) == 0
        out = capsys.readouterr().out
        assert "S_LRU" in out and "faults" in out

