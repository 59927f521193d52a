"""Seeded benchmark of the crowdmw simulator.

    python3 bench/run.py --workload crowd-peak --seed 7 --seconds 50 --trace 0

One call runs one workload in this process on ``harness.SimCluster``
(construct, ``start()``, ``run()``), again and again until ``--seconds``
have passed, and checks the outputs of every run.  It prints a report,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``layers.py`` with ``--trace 1``.  It exits 1 when a check
fails.  Run details, hashes and the span dump go to ``bench/out/``.

``--seed`` is ``ScenarioConfig.seed``: it seeds the visitor stream, the
network's loss and latency draws and the node nonces, so one seed gives
one byte-identical run.  ``attempted`` counts the slots run and
``failed`` the slots that ended without a commit.

``failover-wide`` runs here but is not in ``BENCHMARK.json``: at 60
nodes and 2 % loss whether a slot commits is close to a coin flip, so
over 30 seeds ``commit_ratio`` ranged over 3/24-11/24 and
``takeover_ms`` over 3.8-36 s, more than any run length in the time
budget averages out.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")
WORK_DIR = os.path.join(OUT_DIR, "work")

if not os.path.isfile(os.path.join(SRC, "crowdmw", "__init__.py")):
    sys.exit(f"bench: no crowdmw sources under {SRC}")
sys.path.insert(0, SRC)

import crowdmw  # noqa: E402
from crowdmw.domain import CountMode  # noqa: E402
from crowdmw.harness import (  # noqa: E402
    ScenarioConfig,
    ScenarioDeadlock,
    SimCluster,
    build_metrics,
    parse_fault,
)
from crowdmw.mapreduce import sequential_oracle  # noqa: E402
from crowdmw.store import JournalStore  # noqa: E402

import layers  # noqa: E402

if os.path.dirname(os.path.abspath(crowdmw.__file__)) != os.path.join(
        SRC, "crowdmw"):
    sys.exit(f"bench: imported crowdmw from {crowdmw.__file__}, not {SRC}")

# Sizes: crowd-peak fills 0.58 of the busiest (tag, room, ms) lanes,
# below simgen's probing knee.  trickle stays below its capacity knee:
# past it a slot's submissions miss the submit window and every later
# slot resubmits them, so datagrams snowball (2-10x the readings).
# Seeds 0-199 stayed below it at 1 750 visitors; 1 of 100 crossed it
# at 2 000, 3 of 20 at 2 250 and 7 of 10 at 2 500.
WORKLOADS = {
    "crowd-peak": dict(nodes=5, cycles=8, visitors=15000),
    "failover-wide": dict(nodes=60, cycles=24, visitors=400, loss_rate=0.02,
                          faults=("kill_leader@4100",
                                  "partition@9000+3000:1,2,3",
                                  "kill_leader@14100", "kill_leader@30100")),
    "trickle": dict(nodes=5, cycles=24, visitors=1750, entries_per_part=1,
                    transmission_us_per_byte=15.0),
}

# Small versions of the same shapes, for the self-tests.
TINY = {
    "crowd-peak": dict(cycles=3, visitors=300),
    "failover-wide": dict(nodes=8, cycles=8, visitors=40,
                          faults=("kill_leader@4100",
                                  "partition@9000+2000:1,2",
                                  "kill_leader@12100")),
    "trickle": dict(cycles=4, visitors=60),
}


def make_config(workload: str, seed: int,
                tiny: bool = False) -> ScenarioConfig:
    params = dict(WORKLOADS[workload])
    if tiny:
        params.update(TINY[workload])
    faults = tuple(parse_fault(text) for text in params.pop("faults", ()))
    return ScenarioConfig(seed=seed, faults=faults, **params)


# ---------------------------------------------------------------------------
# One run and its checks.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    setup_s: float
    run_s: float
    cpu_s: float
    committed_readings: int
    committed_slots: int
    deadlock_ms: Optional[float]
    failures: list
    events: Optional[list]
    events_sha: str
    journal_sha: str
    journal_bytes: int
    readings: int
    network: dict


def check_outputs(cluster, store, oracle=sequential_oracle) -> list:
    """Conservation and oracle checks; returns what failed, if anything.

    Conservation uses the identities of ``Reconciliation.conserves()``,
    recomputed from the cluster's public state and the store's ack
    watermarks.  The store's totals must equal ``oracle`` over exactly
    the readings under those watermarks.
    """
    marks = store.ack_watermarks()
    committed = []
    pending = stranded = 0
    for node_id, items in cluster.ingested.items():
        mark = marks.get(node_id, -1)
        killed = cluster.nodes[node_id].killed
        for seq, reading in items:
            if seq <= mark:
                committed.append(reading)
            elif killed:
                stranded += 1
            else:
                pending += 1
    injected = sum(s.injected_count() for s in cluster.sources.values())
    ingested = sum(len(items) for items in cluster.ingested.values())
    undelivered = sum(len(s.remaining()) for s in cluster.sources.values())
    deduplicated = sum(n.dedupe_dropped for n in cluster.nodes.values())
    totals = {CountMode.VISITOR: store.totals("visitor"),
              CountMode.ROOM: store.totals("room")}
    store_total = sum(totals[CountMode.ROOM].values())
    failures = []
    if len(committed) != store_total:
        failures.append(f"conservation: {len(committed)} readings under ack "
                        f"watermarks, store counts {store_total}")
    if ingested != len(committed) + pending + stranded:
        failures.append(f"conservation: ingested {ingested} != committed "
                        f"{len(committed)} + pending {pending} + stranded "
                        f"{stranded}")
    if injected != ingested + deduplicated + undelivered:
        failures.append(f"conservation: injected {injected} != ingested "
                        f"{ingested} + deduplicated {deduplicated} + "
                        f"undelivered {undelivered}")
    for mode, got in totals.items():
        want = oracle(committed, mode)
        if got != want:
            failures.append(f"oracle: {mode.value} totals {got} != {want}")
    return failures


def _sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_once(config: ScenarioConfig, journal: str, *, tracer=None,
             oracle=sequential_oracle, keep_events: bool = False
             ) -> RunResult:
    """Build, start and run one cluster on a fresh journal, then check it.

    A ``ScenarioDeadlock`` ends the run; the slots it leaves without a
    commit count as failed slots.  The event lines are returned only with
    ``keep_events``, so that repeated runs do not pile them up in memory.
    """
    if os.path.exists(journal):
        os.remove(journal)
    gc.collect()
    store = JournalStore(journal)
    try:
        t0 = time.perf_counter()
        cluster = SimCluster(config, store)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.attach(cluster)
        deadlock_ms = None
        # Set-up materialises the run's whole input stream, which a
        # deployment never holds at once; freezing it keeps the cyclic
        # collector from re-scanning it all through the run (that scan
        # was ~40 % of crowd-peak's run_s and most of its noise).
        gc.freeze()
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            cluster.start()
            cluster.run(float(config.cycles * config.cycle_duration_ms))
        except ScenarioDeadlock:
            deadlock_ms = cluster.clock.now_ms()
        finally:
            w1 = time.perf_counter()
            c1 = time.process_time()
            gc.unfreeze()
        failures = check_outputs(cluster, store, oracle)
        slots = sum(1 for c in store.committed_cycles() if c < config.cycles)
        committed = sum(store.totals("room").values())
        network = {"sent": cluster.network.sent,
                   "dropped": cluster.network.dropped,
                   "delivered": cluster.network.delivered}
        readings = len(cluster.ledger) if cluster.ledger is not None else 0
        events = cluster.events
    finally:
        store.close()
    events_text = "".join(line + "\n" for line in events).encode("utf-8")
    return RunResult(
        setup_s=t1 - t0, run_s=w1 - w0, cpu_s=c1 - c0,
        committed_readings=committed, committed_slots=slots,
        deadlock_ms=deadlock_ms, failures=failures, events=events,
        events_sha=hashlib.sha256(events_text).hexdigest(),
        journal_sha=_sha256_file(journal),
        journal_bytes=os.path.getsize(journal),
        readings=readings, network=network,
    )


def check_repeats(runs: list) -> None:
    """Runs of one seed must leave byte-identical events and journals."""
    first = runs[0]
    for index, run in enumerate(runs[1:], start=1):
        if (run.events_sha, run.journal_sha) != (first.events_sha,
                                                 first.journal_sha):
            run.failures.append(f"determinism: run {index} events/journal "
                                f"differ from run 0 of the same seed")


# ---------------------------------------------------------------------------
# End-to-end metrics.
# ---------------------------------------------------------------------------


def tail_percentile(samples: list) -> tuple:
    """(value, percentile, n): the highest rank with 10 samples beyond it.

    With 10 samples or fewer no rank has 10 beyond it; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def takeover_samples(config: ScenarioConfig, commits: list) -> tuple:
    """Virtual ms from each leaderless moment to the next commit.

    The leaderless moments are the ``kill_leader`` faults; a workload
    without one has a single moment, the cold start at t=0.  A moment
    with no later commit counts up to the end of the run (censored).
    """
    moments = [f.at_ms for f in config.faults if f.kind == "kill_leader"]
    label = "kill_leader faults"
    if not moments:
        moments, label = [0.0], "cold start"
    end = float(config.cycles * config.cycle_duration_ms)
    samples = []
    censored = 0
    for moment in moments:
        later = [t for t in commits if t > moment]
        if later:
            samples.append(min(later) - moment)
        else:
            samples.append(end - moment)
            censored += 1
    return samples, label, censored


def end_to_end(config: ScenarioConfig, runs: list, peak_rss_kb: int) -> dict:
    """name -> (value, unit, base) over the runs of one seed."""
    first = runs[0]
    report = build_metrics(first.events, config.cycle_duration_ms)
    commits = [c.finished_ms for c in report.cycles if c.outcome == "commit"]
    response = report.response_ms
    tail, tail_pct, n = tail_percentile(response)
    takeover, label, censored = takeover_samples(config, commits)
    count = len(runs)
    rates = [r.committed_readings / r.cpu_s for r in runs if r.cpu_s > 0]
    failed_slots = config.cycles - first.committed_slots
    deadlock = ("" if first.deadlock_ms is None else
                f", ScenarioDeadlock at {first.deadlock_ms:.0f} ms")
    return {
        "setup_s": (statistics.median(r.setup_s for r in runs), "s",
                    f"median of {count} runs"),
        "run_s": (statistics.median(r.run_s for r in runs), "s",
                  f"median of {count} runs"),
        "readings_per_cpu_s": (statistics.median(rates) if rates else 0.0,
                               "1/s",
                               f"{first.committed_readings} committed "
                               f"readings / run-phase CPU s, median of "
                               f"{count} runs"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB",
                        "ru_maxrss of this process after its first run"),
        "commit_ratio": (first.committed_slots / config.cycles, "ratio",
                         f"{first.committed_slots}/{config.cycles} slots "
                         f"committed, {failed_slots} failed{deadlock}"),
        "response_ms_p50": (statistics.median(response) if response else 0.0,
                            "virtual_ms", f"p50 of {n} samples"),
        "response_ms_tail": (tail, "virtual_ms",
                             f"p{tail_pct:.1f} of {n} samples"),
        "takeover_ms": (statistics.median(takeover), "virtual_ms",
                        f"median over {len(takeover)} {label}"
                        + (f", {censored} censored at run end"
                           if censored else "")),
    }


# ---------------------------------------------------------------------------
# Driving a workload.
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False, oracle=sequential_oracle) -> dict:
    """Run one workload for ``seconds``; return the result document."""
    config = make_config(workload, seed, tiny)
    os.makedirs(WORK_DIR, exist_ok=True)
    journal = os.path.join(WORK_DIR, f"{workload}.journal")
    runs, traced = [], []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        runs.append(run_once(config, journal, oracle=oracle,
                             keep_events=not runs))
        if len(runs) == 1:
            # Later runs add allocator fragmentation, not program memory.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            traced.append(layers.traced_run(
                config,
                lambda tracer: run_once(config, journal, tracer=tracer,
                                        oracle=oracle, keep_events=True),
                journal, first=not traced))
    check_repeats(runs + [t.run for t in traced])
    if trace:
        metrics = layers.layer_metrics(traced, runs, WORK_DIR)
    else:
        metrics = end_to_end(config, runs, peak_rss_kb)
    every = runs + [t.run for t in traced]
    failed = [r for r in every if r.failures]
    doc = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "config": dataclasses.asdict(config),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "runs": len(every), "failed_runs": len(failed),
        "slots": config.cycles * len(every),
        "failed_slots": sum(config.cycles - r.committed_slots for r in every),
        "failures": sorted({f for r in failed for f in r.failures}),
        "events_sha256": runs[0].events_sha,
        "journal_sha256": runs[0].journal_sha,
        "metrics": metrics,
        "samples": {"setup_s": [r.setup_s for r in runs],
                    "run_s": [r.run_s for r in runs],
                    "cpu_s": [r.cpu_s for r in runs],
                    "traced_run_s": [t.run.run_s for t in traced]},
    }
    if trace:
        doc["spans_file"] = layers.write_spans(
            traced[0], os.path.join(OUT_DIR, f"{workload}-seed{seed}"))
    return doc


def render(doc: dict) -> str:
    lines = [f"{doc['workload']} seed={doc['seed']} trace={doc['trace']} "
             f"python={doc['python']} nproc={doc['nproc']} "
             f"runs={doc['runs']} (failed checks: {doc['failed_runs']}) "
             f"slots={doc['slots']} (no commit: {doc['failed_slots']})"]
    width = max(len(name) for name in doc["metrics"])
    for name, (value, unit, base) in doc["metrics"].items():
        lines.append(f"  {name:<{width}}  {value:>14.6g} {unit:<10}  {base}")
    lines.append(f"  events.log sha256 {doc['events_sha256']}")
    lines.append(f"  journal    sha256 {doc['journal_sha256']}")
    for failure in doc["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    return "\n".join(lines)


def result_line(doc: dict) -> str:
    return json.dumps({
        "correct": doc["failed_runs"] == 0,
        "attempted": doc["slots"],
        "failed": doc["failed_slots"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in doc["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, default=str)
    print(render(doc))
    print(result_line(doc))
    return 0 if doc["failed_runs"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
