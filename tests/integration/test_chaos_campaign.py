"""The scripted chaos-campaign harness (`repro chaos`), end to end.

Runs a representative subset of the real subprocess campaigns — each
boots ``python -m repro.chaos_campaign --drive ...`` children, kills
them for real (``os._exit``) at scheduled fault points, and asserts the
recovery invariants.  The full set, server campaigns included, runs as
``repro chaos --campaign all --seed 0`` in the CI ``chaos-campaign``
job; this test keeps the harness itself honest under plain
``pytest -m chaos``.
"""

import pytest

from repro import chaos_campaign

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize(
    "name", ["torn_final_write", "snapshot_bitflip", "enospc_append"]
)
def test_campaign_passes(name, capsys):
    assert chaos_campaign.run_campaigns(name, seed=0) == 0
    out = capsys.readouterr().out
    assert f"ok    {name}" in out
    assert "1/1 campaign(s) ok" in out


def test_unknown_campaign_is_usage_error(capsys):
    assert chaos_campaign.run_campaigns("frobnicate") == 2


def test_a_crashing_campaign_hides_no_other_verdict(monkeypatch, capsys):
    """A campaign that raises something other than CampaignFailure fails
    on its own line, and the campaigns after it still run."""

    def violated(workdir, seed):
        chaos_campaign._require(False, "scripted violation")

    def crashes(workdir, seed):
        raise RuntimeError("scripted crash")

    def passes(workdir, seed):
        return {}

    monkeypatch.setattr(
        chaos_campaign,
        "CAMPAIGNS",
        {"violated": violated, "crashes": crashes, "passes": passes},
    )
    assert chaos_campaign.run_campaigns("all", seed=0) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL  ")]
    assert len(fails) == 2
    assert fails[0].startswith("FAIL  violated: CampaignFailure: ")
    assert fails[1] == "FAIL  crashes: RuntimeError: scripted crash"
    assert "Traceback (most recent call last):" in lines
    assert "ok    passes" in lines
    assert lines[-1].startswith(
        "chaos: 2 campaign(s) FAILED: violated, crashes"
    )


def test_registry_covers_every_fault_family():
    """The campaign set must keep exercising every injected fault kind
    (a regression here would silently shrink chaos coverage)."""
    assert set(chaos_campaign.CAMPAIGNS) == {
        "crash_at_record",
        "torn_final_write",
        "snapshot_bitflip",
        "enospc_append",
        "sigkill_mid_compaction",
        "sweep_resume",
        "chaosnet_sweep",
        "compaction_gate",
        "service_lifecycle",
        "overload",
        "fleet_sigkill",
        "platform_lifecycle",
    }
