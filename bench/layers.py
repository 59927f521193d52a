"""Per-layer metrics for the crowdmw benchmark: a span tracer and kernels.

The tracer wraps calls into each crowdmw module's public functions from
the outside, at the name each call site looks up: ``crowdmw.runtime``
binds ``crc64``, ``partition``, ``reduce_segment`` and friends by
``from ... import``, so those are patched in ``crowdmw.runtime`` as well
as in ``crowdmw.mapreduce``.  Only per-message and per-batch calls are
wrapped.  Per-pair costs (``KeyValuePair`` runs ~260 k times in one
crowd-peak run) come from the kernel rates at the bottom instead.

A span is (name, start, end, parent, slot, size), slot being
``clock.now_ms() // cycle_ms`` at its start (-1 during set-up).  A
layer's self time is its spans' time minus their child spans' time, so
the self times of the spans under ``SimCluster.start`` and
``SimCluster.run`` add up to the traced ``run_s``.

Metrics named ``<function>.s`` are wall seconds inside those calls,
children included, over set-up and run; ``.self_s`` excludes children.
"""

import contextlib
import dataclasses
import os
import random
import statistics
import time
from typing import Callable, Optional

from crowdmw import election, harness, mapreduce, runtime, simgen, store
from crowdmw import transport
from crowdmw.domain import CountMode, KeyValuePair, TagCategory
from crowdmw.mapreduce import CycleResult

LAYERS = ("simgen", "mapreduce", "transport", "runtime", "store", "election",
          "harness")

SETUP_ROOTS = {"harness.SimCluster.__init__"}
RUN_ROOTS = {"harness.SimCluster.start", "harness.SimCluster.run"}


def _arg_len(args, result) -> int:
    return len(args[0])


def _result_len(args, result) -> int:
    return len(result)


class Tracer:
    """In-memory span recorder; ``installed()`` patches the call sites."""

    def __init__(self) -> None:
        self.spans: list = []
        self.partition_inputs: list = []
        self._stack: list = []
        self._clock = None
        self._cycle_ms = 1

    def attach(self, cluster) -> None:
        """Key later spans by the cluster's slot."""
        self._clock = cluster.clock
        self._cycle_ms = cluster.config.cycle_duration_ms

    def _partition_size(self, args, result) -> int:
        self.partition_inputs.append(args[0])
        return len(args[0])

    def _targets(self) -> list:
        """(owner, attribute, span name, size function) for every wrap."""
        cluster, node = harness.SimCluster, runtime.Node
        journal = store.JournalStore
        return [
            (cluster, "__init__", "harness.SimCluster.__init__", None),
            (cluster, "start", "harness.SimCluster.start", None),
            (cluster, "run", "harness.SimCluster.run", None),
            (simgen, "generate_stream", "simgen.generate_stream", None),
            (runtime, "dedupe_readings", "simgen.dedupe_readings", None),
            (mapreduce, "crc64", "mapreduce.crc64", _arg_len),
            (runtime, "crc64", "mapreduce.crc64", _arg_len),
            (runtime, "sort_pairs", "mapreduce.sort_pairs", None),
            (runtime, "partition", "mapreduce.partition",
             self._partition_size),
            (runtime, "reduce_segment", "mapreduce.reduce_segment", None),
            (runtime, "derive_room_segment", "mapreduce.derive_room_segment",
             None),
            (runtime, "merge_partials", "mapreduce.merge_partials", None),
            (runtime, "parse_pairs", "mapreduce.parse_pairs", None),
            (transport, "encode_message", "transport.encode_message",
             _result_len),
            (transport, "decode_message", "transport.decode_message", None),
            (transport.SimulatedNetwork, "dispatch_next",
             "transport.SimulatedNetwork.dispatch_next", None),
            (node, "start", "runtime.Node.start", None),
            (node, "on_message", "runtime.Node.on_message", None),
            (node, "advance", "runtime.Node.advance", None),
            (runtime, "build_submission_parts",
             "runtime.build_submission_parts", None),
            (runtime.ClientBuffer, "entries", "runtime.ClientBuffer.entries",
             None),
            (journal, "upsert_node", "store.upsert_node", None),
            (journal, "upsert_nodes", "store.upsert_nodes", None),
            (journal, "commit_results", "store.commit_results", None),
            (journal, "snapshot_nodes", "store.snapshot_nodes", None),
            (journal, "ack_watermarks", "store.ack_watermarks", None),
            (election, "register_node", "election.register_node", None),
            (election, "claim_leadership", "election.claim_leadership", None),
            (election, "live_records", "election.live_records", None),
            (election, "elect_leader", "election.elect_leader", None),
        ]

    def _wrap(self, name: str, fn: Callable, size) -> Callable:
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            clock = tracer._clock
            slot = -1 if clock is None else int(clock.now_ms()
                                                // tracer._cycle_ms)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, slot, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if size is not None:
                record[5] = size(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, size in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Summaries of one traced run.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TracedRun:
    run: object
    names: dict          # span name -> [calls, seconds, self seconds, size]
    layer_self: dict     # phase -> layer -> self seconds
    crc_partition_bytes: int
    recover_s: float
    metrics: dict = dataclasses.field(default_factory=dict)
    partition_inputs: Optional[list] = None
    spans: Optional[list] = None


def _phases(spans: list) -> list:
    phases = []
    for name, _, _, parent, _, _ in spans:
        if parent >= 0:
            phases.append(phases[parent])
        elif name in SETUP_ROOTS:
            phases.append("setup")
        elif name in RUN_ROOTS:
            phases.append("run")
        else:
            phases.append(None)
    return phases


def summarise(tracer: Tracer, run, recover_s: float) -> TracedRun:
    spans = tracer.spans
    phases = _phases(spans)
    children = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    names: dict = {}
    layer_self = {"setup": {}, "run": {}}
    crc_partition_bytes = 0
    for index, (name, start, end, parent, _, size) in enumerate(spans):
        phase = phases[index]
        if phase is None:
            continue  # calls made by the benchmark's own checks
        own = end - start - children[index]
        row = names.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
        row[3] += size
        layer = name.split(".", 1)[0]
        layer_self[phase][layer] = layer_self[phase].get(layer, 0.0) + own
        if (name == "mapreduce.crc64" and parent >= 0
                and spans[parent][0] == "mapreduce.partition"):
            crc_partition_bytes += size
    return TracedRun(run=run, names=names, layer_self=layer_self,
                     crc_partition_bytes=crc_partition_bytes,
                     recover_s=recover_s)


def traced_run(config, execute: Callable, journal: str, *,
               first: bool) -> TracedRun:
    """``execute(tracer)`` under a fresh tracer, then time journal recovery.

    Only the first traced run keeps its spans and partition inputs (for
    the dump and the kernels); every run keeps its metrics.
    """
    tracer = Tracer()
    with tracer.installed():
        run = execute(tracer)
    recover = []
    for _ in range(3):
        t0 = time.perf_counter()
        reopened = store.JournalStore(journal)
        recover.append(time.perf_counter() - t0)
        reopened.close()
    traced = summarise(tracer, run, statistics.median(recover))
    traced.metrics = _one_run(config, traced)
    run.events = None
    if first:
        traced.spans = tracer.spans
        traced.partition_inputs = tracer.partition_inputs
    return traced


def write_spans(traced: TracedRun, prefix: str) -> str:
    """Write the span dump and the per-layer self-time table; return path."""
    spans = traced.spans
    origin = spans[0][1] if spans else 0.0
    path = prefix + "-spans.tsv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tname\tstart_us\tend_us\tparent\tslot\tsize\n")
        for index, (name, start, end, parent, slot, size) in enumerate(spans):
            handle.write(f"{index}\t{name}\t{(start - origin) * 1e6:.1f}\t"
                         f"{(end - origin) * 1e6:.1f}\t{parent}\t{slot}\t"
                         f"{size}\n")
    with open(prefix + "-layers.tsv", "w", encoding="utf-8") as handle:
        handle.write("phase\tlayer\tself_s\n")
        for phase, table in traced.layer_self.items():
            for layer in sorted(table):
                handle.write(f"{phase}\t{layer}\t{table[layer]:.6f}\n")
    return path


# ---------------------------------------------------------------------------
# Event-derived protocol figures.
# ---------------------------------------------------------------------------


def _event_fields(line: str) -> tuple:
    parts = line.split(" ")
    fields = dict(p.split("=", 1) for p in parts if "=" in p)
    verb = parts[2] if len(parts) > 2 and "=" not in parts[2] else ""
    return float(fields["t"]), int(fields["node"]), verb, fields


def ping_rtts(events: list) -> list:
    """Virtual ms from a node's last PING to a peer to that peer's PONG.

    ``build_metrics`` pairs pongs with pings first-in first-out per node,
    so under loss a pong gets matched with a ping that was dropped.
    """
    sent, rtts = {}, []
    for line in events:
        if " kind=ping " not in line and " kind=pong " not in line:
            continue
        t, node, verb, fields = _event_fields(line)
        if verb == "send" and fields["kind"] == "ping":
            sent[(node, fields["to"])] = t
        elif verb == "recv" and fields["kind"] == "pong":
            peer = f"node{fields['from']}:7000"
            if (node, peer) in sent:
                rtts.append(t - sent.pop((node, peer)))
    return rtts


def leader_waits(events: list) -> tuple:
    """Virtual ms per leader cycle: collect end -> consolidate -> commit."""
    collected, consolidated = {}, {}
    submit, reduce = [], []
    for line in events:
        if " phase " not in line and " commit " not in line:
            continue
        t, node, verb, fields = _event_fields(line)
        key = (node, fields.get("cycle"))
        if verb == "phase" and fields["to"] == "consolidating":
            collected[key] = t
        elif (verb == "phase" and fields["from"] == "consolidating"
              and fields["to"] == "dispatching"):
            consolidated[key] = t
            if key in collected:
                submit.append(t - collected[key])
        elif verb == "commit" and key in consolidated:
            reduce.append(t - consolidated[key])
    return submit, reduce


# ---------------------------------------------------------------------------
# Kernel rates at fixed sizes, on pairs captured from the traced run.
# ---------------------------------------------------------------------------

KERNEL_PAIRS = 50_000
CRC_BYTES = 256 * 1024
CODEC_ROUNDTRIPS = 20_000
JOURNAL_COMMITS = 20


def _median_rate(work: float, fn: Callable, repeats: int) -> float:
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        rates.append(work / (time.perf_counter() - t0))
    return statistics.median(rates)


def kernel_rates(partition_inputs: list, work_dir: str) -> dict:
    """name -> (value, unit, base) for the per-pair and per-byte kernels."""
    captured = [pair for pairs in partition_inputs for pair in pairs]
    if not captured:
        raise RuntimeError("the traced run partitioned no pairs")
    sample = [captured[i % len(captured)] for i in range(KERNEL_PAIRS)]
    origin = (f"{KERNEL_PAIRS} pairs cycled from {len(captured)} partition "
              f"inputs")
    text = mapreduce.serialize_pairs(sample).encode("utf-8")
    crc_input = (text * (CRC_BYTES // len(text) + 1))[:CRC_BYTES]
    raw = [(p.key, p.value) for p in sample]
    frame = transport.Message(kind=transport.MessageKind.SEGMENT_ASSIGN,
                              sender=1, cycle_id=0,
                              payload=text[:transport.MAX_PAYLOAD])
    shuffled = list(sample)
    random.Random(0).shuffle(shuffled)

    def codec() -> None:
        encode, decode = transport.encode_message, transport.decode_message
        for _ in range(CODEC_ROUNDTRIPS):
            decode(encode(frame))

    def pipeline() -> None:
        segments = mapreduce.partition(mapreduce.sort_pairs(shuffled),
                                       range(1, 6))
        visitor = [mapreduce.reduce_segment(s, CountMode.VISITOR)
                   for s in segments]
        room = [mapreduce.reduce_segment(mapreduce.derive_room_segment(s),
                                         CountMode.ROOM) for s in segments]
        mapreduce.merge_partials(visitor, CountMode.VISITOR)
        mapreduce.merge_partials(room, CountMode.ROOM)

    return {
        "mapreduce.crc64.mb_per_s": (
            _median_rate(CRC_BYTES / 1e6, lambda: mapreduce.crc64(crc_input),
                         5), "MB/s", f"{CRC_BYTES} bytes of pair text"),
        "domain.pair_build_per_s": (
            _median_rate(KERNEL_PAIRS,
                         lambda: [KeyValuePair(k, v) for k, v in raw], 5),
            "1/s", origin),
        "transport.codec_roundtrip_per_s": (
            _median_rate(CODEC_ROUNDTRIPS, codec, 5), "1/s",
            f"encode+decode of a {len(frame.payload) + transport.HEADER_LEN}"
            f"-byte frame"),
        "mapreduce.pipeline_pairs_per_s": (
            _median_rate(KERNEL_PAIRS, pipeline, 3), "1/s",
            f"sort+partition(5)+reduce both modes+merge, {origin}"),
        "store.commit_ms": (_journal_commit_ms(work_dir), "ms",
                            f"median of {JOURNAL_COMMITS} fsync'd "
                            f"commit_results"),
    }


def _journal_commit_ms(work_dir: str) -> float:
    path = os.path.join(work_dir, "kernel.journal")
    if os.path.exists(path):
        os.remove(path)
    journal = store.JournalStore(path)
    times = []
    try:
        for cycle in range(JOURNAL_COMMITS):
            result = CycleResult(
                cycle_id=cycle,
                visitor_aggregates={tag: 1000 + cycle for tag in TagCategory},
                room_aggregates={room: 250 for room in range(1, 5)},
                total_readings=1000)
            t0 = time.perf_counter()
            journal.commit_results(result, committed_at=cycle * 2000,
                                   acks={n: cycle for n in range(1, 6)})
            times.append(time.perf_counter() - t0)
    finally:
        journal.close()
    return statistics.median(times) * 1000.0


# ---------------------------------------------------------------------------
# The per-layer metric set.
# ---------------------------------------------------------------------------


def _one_run(config, traced: TracedRun) -> dict:
    """name -> (value, unit, base) for one traced run."""
    run, names = traced.run, traced.names
    slots = config.cycles

    def calls(*keys):
        return sum(names.get(k, [0])[0] for k in keys)

    def secs(*keys):
        return sum(names.get(k, [0, 0.0])[1] for k in keys)

    def own(key):
        return names.get(key, [0, 0.0, 0.0])[2]

    def size(key):
        return names.get(key, [0, 0.0, 0.0, 0])[3]

    def count_events(marker):
        return sum(1 for line in run.events if marker in line)

    submit, reduce = leader_waits(run.events)
    rtts = ping_rtts(run.events)
    committed = run.committed_readings
    net = run.network
    crc_bytes = size("mapreduce.crc64")
    bytes_sent = size("transport.encode_message")
    writes = ("store.upsert_node", "store.upsert_nodes",
              "store.commit_results")
    end = config.cycles * config.cycle_duration_ms
    faults = sum(1 for f in config.faults if f.at_ms < end)
    steps = (calls("runtime.Node.advance")
             + calls("transport.SimulatedNetwork.dispatch_next") + faults)
    scheduler = own("harness.SimCluster.run")
    run_self = traced.layer_self["run"]
    claims = calls("election.claim_leadership")

    def p50(samples):
        return statistics.median(samples) if samples else 0.0

    def per(a, b):
        return a / b if b else 0.0

    metrics = {
        "simgen.generate_stream.s": (secs("simgen.generate_stream"), "s",
                                     "set-up"),
        "simgen.readings": (run.readings, "count",
                            f"from {config.visitors} visitors"),
        "simgen.dedupe_readings.s": (
            secs("simgen.dedupe_readings"), "s",
            f"{calls('simgen.dedupe_readings')} calls"),
        "mapreduce.crc64.bytes": (crc_bytes, "bytes",
                                  f"{calls('mapreduce.crc64')} calls"),
        "mapreduce.crc64.s": (secs("mapreduce.crc64"), "s",
                              f"{calls('mapreduce.crc64')} calls"),
        "mapreduce.crc_passes": (
            per(crc_bytes, traced.crc_partition_bytes), "ratio",
            f"{crc_bytes} CRC bytes / {traced.crc_partition_bytes} bytes of "
            f"segment text built by partition"),
        "mapreduce.sort_partition.s": (
            secs("mapreduce.sort_pairs", "mapreduce.partition"), "s",
            f"{calls('mapreduce.partition')} partitions"),
        "mapreduce.reduce.s": (
            secs("mapreduce.reduce_segment",
                 "mapreduce.derive_room_segment"), "s",
            f"{calls('mapreduce.reduce_segment')} reduce_segment calls"),
        "mapreduce.merge.s": (secs("mapreduce.merge_partials"), "s",
                              f"{calls('mapreduce.merge_partials')} calls"),
        "mapreduce.parse_pairs.s": (secs("mapreduce.parse_pairs"), "s",
                                    f"{calls('mapreduce.parse_pairs')} "
                                    f"calls"),
        "transport.datagrams_sent": (net["sent"], "count", "datagrams"),
        "transport.datagrams_dropped": (net["dropped"], "count",
                                        f"of {net['sent']} sent"),
        "transport.datagrams_delivered": (net["delivered"], "count",
                                          f"of {net['sent']} sent"),
        "transport.bytes_sent": (bytes_sent, "bytes",
                                 f"{net['sent']} frames incl. header"),
        "transport.codec.s": (
            secs("transport.encode_message", "transport.decode_message"),
            "s", f"{calls('transport.encode_message')} encodes + "
                 f"{calls('transport.decode_message')} decodes"),
        "transport.datagrams_per_committed_reading": (
            per(net["sent"], committed), "ratio",
            f"{net['sent']} / {committed} committed readings"),
        "transport.bytes_per_committed_reading": (
            per(bytes_sent, committed), "ratio",
            f"{bytes_sent} / {committed} committed readings"),
        "runtime.on_message.self_s": (
            own("runtime.Node.on_message"), "s",
            f"{calls('runtime.Node.on_message')} messages"),
        "runtime.advance.self_s": (own("runtime.Node.advance"), "s",
                                   f"{calls('runtime.Node.advance')} calls"),
        "runtime.build_submission_parts.s": (
            secs("runtime.build_submission_parts"), "s",
            f"{calls('runtime.build_submission_parts')} calls"),
        "runtime.buffer_entries.s": (
            secs("runtime.ClientBuffer.entries"), "s",
            f"{calls('runtime.ClientBuffer.entries')} calls"),
        "runtime.fallback_reduces": (count_events(" fallback_reduce "),
                                     "count", f"over {slots} slots"),
        "runtime.integrity_retries": (count_events(" integrity_retry "),
                                      "count", f"over {slots} slots"),
        "runtime.submit_wait_vms_p50": (
            p50(submit), "virtual_ms",
            f"collect end -> consolidate, p50 of {len(submit)} leader "
            f"cycles"),
        "runtime.reduce_wait_vms_p50": (
            p50(reduce), "virtual_ms",
            f"consolidate -> commit, p50 of {len(reduce)} commits"),
        "store.writes": (calls(*writes), "count",
                         "upsert_node + upsert_nodes + commit_results, "
                         "one fsync each"),
        "store.write.s": (secs(*writes), "s", f"{calls(*writes)} writes"),
        "store.writes_per_slot": (per(calls(*writes), slots), "ratio",
                                  f"{calls(*writes)} / {slots} slots"),
        "store.snapshot_nodes.calls": (calls("store.snapshot_nodes"),
                                       "count", f"over {slots} slots"),
        "store.snapshot_nodes.s": (secs("store.snapshot_nodes"), "s",
                                   f"{calls('store.snapshot_nodes')} calls"),
        "store.ack_watermarks.s": (secs("store.ack_watermarks"), "s",
                                   f"{calls('store.ack_watermarks')} calls"),
        "store.journal_bytes": (run.journal_bytes, "bytes",
                                "finished journal"),
        "store.recover_s": (traced.recover_s, "s",
                            "reopen the finished journal, median of 3"),
        "election.register_node.calls": (
            calls("election.register_node"), "count",
            f"over {slots} slots and set-up"),
        "election.register_node.s": (
            secs("election.register_node"), "s",
            f"{calls('election.register_node')} calls"),
        "election.leader_claims": (claims, "count", f"over {slots} slots"),
        "election.claims_per_slot": (per(claims, slots), "ratio",
                                     f"{claims} / {slots} slots"),
        "election.unreachable": (count_events(" unreachable node="), "count",
                                 f"over {slots} slots"),
        "election.ping_rtt_vms_p50": (
            p50(rtts), "virtual_ms", f"p50 of {len(rtts)} ping round trips"),
        "harness.steps": (steps, "count",
                          "Node.advance + dispatch_next + faults applied"),
        "harness.scheduler.self_s": (
            scheduler, "s", "SimCluster.run minus its child spans"),
        "harness.scheduler.us_per_step": (per(scheduler * 1e6, steps), "us",
                                          f"over {steps} steps"),
        "harness.traced_run_s": (
            run.run_s, "s",
            f"layer self times sum to "
            f"{100.0 * per(sum(run_self.values()), run.run_s):.1f}% of it"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (run_self.get(layer, 0.0), "s",
                                      "self time under start() + run()")
    return metrics


def layer_metrics(traced: list, untraced: list, work_dir: str) -> dict:
    """Per-layer metrics: medians over the traced runs, plus kernels."""
    per_run = [t.metrics for t in traced]
    metrics = {}
    for name, (value, unit, base) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        if len(set(values)) > 1:
            value = statistics.median(values)
            base = f"{base}; median of {len(values)} traced runs"
        metrics[name] = (value, unit, base)
    traced_s = statistics.median(t.run.run_s for t in traced)
    untraced_s = statistics.median(r.run_s for r in untraced)
    metrics["harness.trace_overhead"] = (
        traced_s / untraced_s, "ratio",
        f"traced run_s {traced_s:.4f} / untraced {untraced_s:.4f}, medians "
        f"of {len(traced)} and {len(untraced)} runs")
    metrics.update(kernel_rates(traced[0].partition_inputs, work_dir))
    return metrics
