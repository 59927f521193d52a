"""Command line entry points for running scenarios and sweeps.

A flag beats the scenario file's value for the settings both give.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from typing import Optional, Sequence

from crowdmw import harness, simgen
from crowdmw.domain import MiddlewareError
from crowdmw.harness import (
    ConfigError,
    ScenarioConfig,
    ScenarioReport,
    load_scenario,
)
from crowdmw.transport import TransportMode


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.scenario is not None:
        config = load_scenario(args.scenario)
    else:
        # A bare run demonstrates the fixed single-source workload.
        config = ScenarioConfig(fixture="table1")
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.backend is not None:
        overrides["backend"] = TransportMode(args.backend)
    if args.cycles is not None:
        overrides["cycles"] = args.cycles
    if args.nodes is not None:
        overrides["nodes"] = args.nodes
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _print_report(report: ScenarioReport) -> None:
    cycles = ",".join(str(c) for c in report.committed_cycles)
    print(f"committed cycles: {cycles if cycles else '(none)'}")
    for label, counts in (("visitor", report.visitor_totals),
                          ("room", report.room_totals)):
        totals = " ".join(f"{key}={value}"
                          for key, value in sorted(counts.items()))
        print(f"{label} totals: {totals if totals else '(empty)'}")
    leader = f"node {report.leader_id}" if report.leader_id else "(none)"
    print(f"leader: {leader}")
    print(f"commits={report.commits} aborts={report.aborts}")
    recon = report.reconciliation
    print(
        "readings: "
        f"injected={recon.injected} ingested={recon.ingested} "
        f"deduplicated={recon.deduplicated} "
        f"committed={recon.committed} pending={recon.pending_live} "
        f"stranded={recon.stranded_killed} "
        f"undelivered={recon.undelivered} "
        f"conserved={'yes' if recon.conserves() else 'NO'}"
    )
    print(f"datagrams: sent={report.datagrams_sent} "
          f"dropped={report.datagrams_dropped} "
          f"delivered={report.datagrams_delivered}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        store_path = os.path.join(args.out, "store.journal")
        # A run starts from an empty journal, as it does without --out.
        if os.path.isfile(store_path):
            os.remove(store_path)
        report = harness.run_scenario(config, store_path)
        harness.emit_report(report, args.out)
        _print_report(report)
        print(f"report written to {args.out}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "store.journal")
            report = harness.run_scenario(config, store_path)
            _print_report(report)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        counts = [int(item) for item in args.visitors.split(",") if item]
    except ValueError:
        raise ConfigError(f"bad visitor counts: {args.visitors!r}")
    text = harness.sweep_csv(harness.sweep_load(counts, seed=args.seed))
    if args.out is not None:
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"sweep written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    for name in simgen.list_fixtures():
        print(name)
    return 0


def _cmd_election_demo(args: argparse.Namespace) -> int:
    cycle_ms = 2000
    config = ScenarioConfig(
        nodes=args.nodes,
        cycles=4,
        seed=args.seed,
        visitors=12,
        cycle_duration_ms=cycle_ms,
        faults=(harness.FaultSpec(kind="kill_leader",
                                  at_ms=1.25 * cycle_ms),),
    )
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "store.journal")
        report = harness.run_scenario(config, store_path)
    interesting = ("leader_claimed", "killed", " commit cycle=",
                   " abort cycle=", "unreachable")
    for line in report.events:
        if any(token in line for token in interesting):
            print(line)
    print(f"final leader: node {report.leader_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdmw",
        description="Crowd-monitoring middleware scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and print totals")
    run.add_argument("--scenario", help="scenario file path")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--backend", choices=("sim", "udp"), default=None)
    run.add_argument("--out", help="directory for events.log and CSVs")
    run.add_argument("--cycles", type=int, default=None)
    run.add_argument("--nodes", type=int, default=None)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="goodput and latency versus offered load",
        description="Run the trickle shape (5 nodes, 24 two-second "
                    "cycles, one reading per submission datagram) once "
                    "per visitor count.")
    sweep.add_argument("--visitors", default="0,1000,2000,2500,3000",
                       help="comma-separated visitor counts")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", help="CSV output path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    fixtures = sub.add_parser("fixtures", help="list bundled fixtures")
    fixtures.set_defaults(func=_cmd_fixtures)

    demo = sub.add_parser("election-demo",
                          help="kill the leader mid-run and show takeover")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--nodes", type=int, default=3)
    demo.set_defaults(func=_cmd_election_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MiddlewareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
