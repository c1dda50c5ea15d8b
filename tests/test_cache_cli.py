"""``python -m repro cache``: stats, evict and clear over the artifact
store a one-shot sweep fills, and the usage errors for malformed
budgets."""

import json

import pytest

from repro.__main__ import main as repro_main


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A cache directory a two-seed ``difftest`` wrote: one entry per
    seed."""
    root = str(tmp_path_factory.mktemp("cache"))
    assert repro_main(["difftest", "--seeds", "2", "--ccm", "0,64",
                       "-j", "1", "--cache-dir", root]) == 0
    return root


def _cache_json(capsys, *argv):
    capsys.readouterr()
    assert repro_main(["cache", *argv, "--json", "-"]) == 0
    return json.loads(capsys.readouterr().out)


def test_stats_counts_sweep_entries(filled, capsys):
    stats = _cache_json(capsys, "stats", "--cache-dir", filled)
    assert stats["entries"] == 2
    assert stats["total_bytes"] > 0
    assert stats["budget_bytes"] is None


def test_evict_without_budget_is_an_error(filled, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_BUDGET", raising=False)
    assert repro_main(["cache", "evict", "--cache-dir", filled]) == 2
    assert "no budget configured" in capsys.readouterr().err


def test_evict_under_budget_keeps_everything(filled, capsys):
    result = _cache_json(capsys, "evict", "--budget", "1G",
                         "--cache-dir", filled)
    assert result["evicted"] == 0
    assert result["entries"] == 2
    assert result["budget_bytes"] == 1 << 30


def test_clear_leaves_no_entries(tmp_path, capsys):
    root = str(tmp_path)
    assert repro_main(["difftest", "--seeds", "1", "--ccm", "0",
                       "-j", "1", "--cache-dir", root]) == 0
    assert _cache_json(capsys, "clear", "--cache-dir", root)["cleared"] == 1
    assert _cache_json(capsys, "stats", "--cache-dir", root)["entries"] == 0


@pytest.mark.parametrize("budget", ["12Q", "lots", "-1", "nan"])
def test_malformed_budget_flag_is_a_usage_error(tmp_path, capsys, budget):
    with pytest.raises(SystemExit) as info:
        repro_main(["cache", "evict", f"--budget={budget}",
                    "--cache-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "argument --budget: invalid byte count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cache", "stats"],
    ["difftest", "--seeds", "1"],
    ["harness", "table1", "--routines", "fmin"],
    ["harness", "--whole-program", "--routines", "3"],
])
def test_malformed_budget_variable_is_a_usage_error(tmp_path, capsys,
                                                    monkeypatch, argv):
    monkeypatch.setenv("REPRO_CACHE_BUDGET", "lots")
    with pytest.raises(SystemExit) as info:
        repro_main([*argv, "--cache-dir", str(tmp_path)])
    assert info.value.code == 2
    assert ("$REPRO_CACHE_BUDGET: invalid byte count 'lots'"
            in capsys.readouterr().err)
