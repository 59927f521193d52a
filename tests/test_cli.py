"""Command line behaviour: exit codes, outputs, setting precedence."""

import os

import pytest

from crowdmw.cli import main
from crowdmw.harness import SWEEP_HEADER


def test_bare_run_prints_reference_totals(capsys):
    assert main(["run", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "visitor totals: man=10 other=12 woman=21" in out
    assert "room totals: Room1=2 Room2=5 Room3=5 Room4=4" in out
    assert "leader: node 3" in out
    assert "conserved=yes" in out
    assert "datagrams: sent=28 dropped=0 delivered=28" in out


def test_run_refuses_the_removed_mode_flag(capsys):
    # Every commit holds both counting modes; there is no flag to pick one.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "room"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_run_writes_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "report")
    assert main(["run", "--seed", "1", "--out", out_dir]) == 0
    for name in ("events.log", "metrics.csv", "summary.csv",
                 "store.journal"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    assert f"report written to {out_dir}" in capsys.readouterr().out


def test_run_into_a_used_out_dir_starts_afresh(tmp_path, capsys):
    # A second run into the same directory replaces the first's journal
    # rather than recovering it, so it counts its own readings.
    out_dir = str(tmp_path / "report")
    names = ("events.log", "metrics.csv", "summary.csv", "store.journal")
    runs = []
    for _ in range(2):
        assert main(["run", "--seed", "1", "--out", out_dir]) == 0
        files = []
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as handle:
                files.append(handle.read())
        runs.append((capsys.readouterr().out, files))
    assert runs[1] == runs[0]
    assert "commits=2 " in runs[0][0]


def test_run_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "small.scenario"
    scenario.write_text("visitors = 8\ncycles = 3\nseed = 5\n",
                        encoding="utf-8")
    assert main(["run", "--scenario", str(scenario)]) == 0
    assert "committed cycles:" in capsys.readouterr().out


def test_run_missing_scenario_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.scenario")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_scenario_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text("nodes = banana\n", encoding="utf-8")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "bad value" in capsys.readouterr().err


def test_run_bad_workload_scenario_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "roomless.scenario"
    scenario.write_text("visitors = 30\nrooms = 0\n", encoding="utf-8")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "rooms must be >= 1" in capsys.readouterr().err


def test_run_past_the_key_timestamps_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "endless.scenario"
    scenario.write_text(f"cycles = 2\ncycle_ms = {2 ** 42}\n",
                        encoding="utf-8")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "the run must end by" in capsys.readouterr().err


def test_run_fault_naming_no_node_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "stray.scenario"
    scenario.write_text("nodes = 3\nfault = kill_node@100:9\n",
                        encoding="utf-8")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert "[9] name no scenario node" in capsys.readouterr().err
    # Node 3 exists in the file, but not once --nodes shrinks the run.
    scenario.write_text("nodes = 3\nfault = kill_node@100:3\n",
                        encoding="utf-8")
    assert main(["run", "--scenario", str(scenario), "--nodes", "2"]) == 2
    assert "[3] name no scenario node" in capsys.readouterr().err


def test_environment_sets_nothing(tmp_path, capsys, monkeypatch):
    # A run's seed and backend come from its flags or its scenario file;
    # a CROWDMW_<FLAG> variable changes nothing.
    scenario = tmp_path / "seeded.scenario"
    scenario.write_text("visitors = 5\nseed = 1\n", encoding="utf-8")
    assert main(["run", "--scenario", str(scenario)]) == 0
    plain = capsys.readouterr().out
    for flag, value in (("seed", "2"), ("backend", "udp")):
        monkeypatch.setenv(f"CROWDMW_{flag.upper()}", value)
    assert main(["run", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out == plain


def test_fixtures_verb(capsys):
    assert main(["fixtures"]) == 0
    names = capsys.readouterr().out.split()
    assert "table1" in names
    assert "empty" in names


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--visitors", "0,10", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3


def test_sweep_to_file(tmp_path, capsys):
    out = str(tmp_path / "sub" / "sweep.csv")
    assert main(["sweep", "--visitors", "5", "--out", out]) == 0
    with open(out, "r", encoding="utf-8") as handle:
        assert handle.readline().strip() == SWEEP_HEADER


def test_sweep_bad_counts(capsys):
    assert main(["sweep", "--visitors", "ten"]) == 2
    assert "bad visitor counts" in capsys.readouterr().err
    # The old request-count flag is gone: argparse refuses it.
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--requests", "0,40"])
    assert exit_info.value.code == 2


def test_election_demo_shows_takeover(capsys):
    assert main(["election-demo", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "killed" in out
    assert "leader_claimed" in out
    assert "final leader: node" in out


def test_unknown_verb_exits_parser():
    with pytest.raises(SystemExit):
        main(["defragment"])
