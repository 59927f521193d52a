"""Self-tests of the benchmark: ``python3 -m pytest bench``.

They run each workload at a tiny size, so they take seconds, and they
leave the timings alone: they check that every metric in
``BENCHMARK.json`` is reported with its unit and that the correctness
gate and the deadlock accounting behave.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _wrong_oracle(readings, mode):
    totals = run.sequential_oracle(readings, mode)
    return {key: count + 1 for key, count in totals.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_pass_reports_every_metric_with_its_unit(workload, trace):
    doc = run.measure(workload, 5, 0, bool(trace), tiny=True)
    assert doc["failed_runs"] == 0, doc["failures"]
    result = json.loads(run.result_line(doc))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for line in run.render(doc).splitlines()[1:len(wanted) + 1]:
        name, value, unit = line.split()[:3]
        assert result["metrics"][name]["unit"] == unit


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_traced_layer_self_times_add_up_to_traced_run():
    doc = run.measure("trickle", 5, 0, True, tiny=True)
    metrics = doc["metrics"]
    layers_sum = sum(metrics[f"{layer}.self_s"][0]
                     for layer in run.layers.LAYERS)
    traced = metrics["harness.traced_run_s"][0]
    assert layers_sum == pytest.approx(traced, rel=0.05)
    assert os.path.getsize(doc["spans_file"]) > 0


def test_gate_trips_on_a_wrong_oracle():
    doc = run.measure("crowd-peak", 5, 0, False, tiny=True,
                      oracle=_wrong_oracle)
    assert doc["failed_runs"] == doc["runs"]
    assert any(f.startswith("oracle:") for f in doc["failures"])
    assert json.loads(run.result_line(doc))["correct"] is False


def test_command_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    measure = run.measure

    def wrong(workload, seed, seconds, trace):
        return measure(workload, seed, seconds, trace, tiny=True,
                       oracle=_wrong_oracle)

    monkeypatch.setattr(run, "measure", wrong)
    code = run.main(["--workload", "trickle", "--seed", "5", "--seconds",
                     "0", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1 and json.loads(last)["correct"] is False


def test_forced_deadlock_counts_as_failed_slots(monkeypatch):
    original = run.SimCluster.run

    def stalls_halfway(self, until_ms):
        original(self, until_ms / 2)
        raise run.ScenarioDeadlock("forced by the test")

    monkeypatch.setattr(run.SimCluster, "run", stalls_halfway)
    doc = run.measure("crowd-peak", 5, 0, False, tiny=True)
    value, unit, base = doc["metrics"]["commit_ratio"]
    assert doc["failed_runs"] == 0, doc["failures"]
    assert 0 < value < 1
    assert "ScenarioDeadlock" in base
    result = json.loads(run.result_line(doc))
    assert result["correct"] is True
    assert result["failed"] == round((1 - value) * result["attempted"])


def test_exits_nonzero_without_the_program_sources():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    for name in ("run.py", "layers.py"):
        shutil.copy(os.path.join(run.ROOT, "bench", name),
                    os.path.join(bare, "bench", name))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "trickle",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
