"""The traced run: per-layer metrics, never the end-to-end ones.

``--trace 1`` replays the workload's generated inputs at successively
deeper *public* entry points and wraps each call in a span::

    {"trace": k, "span": id, "parent": id|null, "name": ..., "start_ns": ..., "end_ns": ...}

``trace`` is the request (or window) index; the span one level
shallower is the parent.  The calls of one trace run one after the
other, not nested in time -- the nesting is the layering:

    read    client.estimate  (ServiceClient over TCP to the subprocess server)
              +- protocol.codec          (the four frames of the round trip)
              +- engine.request          (ServiceEngine, in process)
                   +- service.estimate   (EstimationService.estimate)
                        +- query.parse       (parse_xpath)
                        +- estimation.estimate (AnswerSizeEstimator.estimate)

    write   client.window    (16 frames, one sendall, 16 acks, subprocess server)
              +- server.admit            (OpSpec.from_request x16)
              +- server.resolve          (OpSpec.resolve x16)
              +- service.apply_batch     (durable in-process service)
                   +- batch.apply        (the same ops on a non-durable twin)
                   +- wal.encode         (encode_ops)
                   +- wal.append_fsync   (WriteAheadLog.log_batch, scratch log)

A layer's self time is its span minus its child spans, so the self
times of one trace add up to its root span exactly.  Spans stay in
memory and are written to ``trace.jsonl`` when the run ends.  The three
copies of the state (subprocess server, durable service, twin) receive
the same windows, so they stay at the same LSN throughout.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.datasets.xmark import generate_xmark
from repro.labeling.dynamic import GapExhausted, plan_insert
from repro.labeling.interval import label_forest
from repro.predicates.base import TagPredicate
from repro.predicates.catalog import PredicateCatalog
from repro.query.xpath import parse_xpath
from repro.service import EstimationService, FaultPlan, ServiceEngine
from repro.service.batch import normalize_ops
from repro.service.faults import WAL_FSYNC, WAL_WRITE
from repro.service.protocol import decode_frame, encode_frame
from repro.service.server import OpSpec
from repro.service.wal import (
    LOG_NAME,
    WriteAheadLog,
    encode_ops,
    list_checkpoints,
    load_checkpoint,
)
from repro.workloads.metrics import ErrorSummary
from repro.xmltree.parser import parse_document
from repro.xmltree.writer import write_document

import harness
import workloads

HERE = Path(__file__).resolve().parent
from harness import RunResult, Server, Tally, p50, percentile, resolve_group
from workloads import OPEN_RATE, WINDOW_OPS, Plan

#: Every per-layer metric: (name, unit, better).  BENCHMARK.json lists
#: the same names; README.md says which end-to-end metric each should move.
PER_LAYER = (
    ("client.ping_rtt_us", "us", "lower"),
    ("client.est_p90_ms", "ms", "lower"),
    ("client.est_p99_ms", "ms", "lower"),
    ("client.mix_est_ops_s", "1/s", "higher"),
    ("client.mix_est_p50_ms", "ms", "lower"),
    ("client.mix_est_p99_ms", "ms", "lower"),
    ("client.gen_late_ms_max", "ms", "lower"),
    ("client.max_rate_ok", "1/s", "higher"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("server.wire_self_us", "us", "lower"),
    ("server.dispatch_self_us", "us", "lower"),
    ("server.window_self_ms", "ms", "lower"),
    ("server.admit_us", "us", "lower"),
    ("server.resolve_us", "us", "lower"),
    ("server.flushes", "count", "lower"),
    ("server.ops_per_flush", "count", "higher"),
    ("server.largest_group", "count", "higher"),
    ("query.parse_us", "us", "lower"),
    ("estimation.estimate_us", "us", "lower"),
    ("estimation.cold_estimate_us", "us", "lower"),
    ("estimation.coefficient_invalidations_per_window", "count", "lower"),
    ("estimation.qerror_p90", "ratio", "lower"),
    ("estimation.qerror_max", "ratio", "lower"),
    ("batch.fixed_ms", "ms", "lower"),
    ("batch.per_op_ms", "ms", "lower"),
    ("service.estimate_self_us", "us", "lower"),
    ("service.apply_batch_ms", "ms", "lower"),
    ("service.rebuild_ms", "ms", "lower"),
    ("service.snapshot_us", "us", "lower"),
    ("service.rebuilds", "count", "lower"),
    ("service.rebalances", "count", "lower"),
    ("labeling.label_ms", "ms", "lower"),
    ("labeling.plan_insert_us", "us", "lower"),
    ("catalog.register_all_ms", "ms", "lower"),
    ("histograms.build_ms", "ms", "lower"),
    ("histograms.summary_bytes", "bytes", "lower"),
    ("xmltree.parse_ms", "ms", "lower"),
    ("xmltree.write_ms", "ms", "lower"),
    ("wal.encode_ms", "ms", "lower"),
    ("wal.append_fsync_ms", "ms", "lower"),
    ("wal.fsyncs_per_window", "count", "lower"),
    ("wal.writes_per_window", "count", "lower"),
    ("wal.bytes_per_op", "bytes", "lower"),
    ("wal.checkpoint_ms", "ms", "lower"),
    ("wal.checkpoint_full_ms", "ms", "lower"),
    ("wal.checkpoint_bytes", "bytes", "lower"),
    ("wal.checkpoints", "count", "lower"),
    ("wal.compact_ms", "ms", "lower"),
    ("wal.write_amp", "ratio", "lower"),
    ("recovery.load_ms", "ms", "lower"),
    ("recovery.replay_ms", "ms", "lower"),
    ("recovery.batches_replayed", "count", "lower"),
    ("recovery.lazy_open_ms", "ms", "lower"),
    ("recovery.rss_mb", "MB", "lower"),
    ("process.import_ms", "ms", "lower"),
    ("datasets.generate_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    trace: int
    span: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; ``write`` dumps JSON lines at the end."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.spans: list[Span] = []
        self._clock = clock

    def call(self, trace: int, parent: Optional[int], name: str,
             fn: Callable, *args):
        """Run ``fn(*args)`` inside a span; returns ``(result, span id)``."""
        start = self._clock()
        result = fn(*args)
        end = self._clock()
        self.spans.append(Span(trace, len(self.spans), parent, name, start, end))
        return result, len(self.spans) - 1

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> self time in ns: the span minus its child spans."""
    own = {span.span: span.ns for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.ns
    return own


def layer_table(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: count, median span and median self time (us), and
    the name's total self time (us).  The totals of the names under one
    root add up to that root's total span."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    return {
        name: {
            "count": len(group),
            "span_p50_us": statistics.median(s.ns for s in group) / 1e3,
            "self_p50_us": statistics.median(own[s.span] for s in group) / 1e3,
            "self_total_us": sum(own[s.span] for s in group) / 1e3,
            "span_total_us": sum(s.ns for s in group) / 1e3,
        }
        for name, group in by_name.items()
    }


def print_layer_table(table: dict[str, dict[str, float]], root: str) -> None:
    print(f"  {'span':<26}{'count':>7}{'span p50 us':>14}{'self p50 us':>14}{'self total ms':>15}")
    for name, row in table.items():
        print(f"  {name:<26}{row['count']:>7}{row['span_p50_us']:>14.1f}"
              f"{row['self_p50_us']:>14.1f}{row['self_total_us'] / 1e3:>15.2f}")
    print(f"  sum of self totals {sum(r['self_total_us'] for r in table.values()) / 1e3:.2f} ms"
          f" == {root} span total {table[root]['span_total_us'] / 1e3:.2f} ms")


# -- helpers -----------------------------------------------------------------


def timed_ms(fn: Callable, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - started) * 1e3


def timed_us(fn: Callable, *args):
    result, ms = timed_ms(fn, *args)
    return result, ms * 1e3


def import_ms() -> float:
    """Wall time of ``import repro.cli`` in a fresh interpreter, minus
    the interpreter's own start-up."""
    def launch(code: str) -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env={"PYTHONPATH": str(harness.REPO_ROOT / "src"), "PATH": ""},
        )
        return (time.perf_counter() - started) * 1e3

    return (statistics.median(launch("import repro.cli") for _ in range(3))
            - statistics.median(launch("pass") for _ in range(3)))


def new_files(directory: Path, seen: dict[str, int]) -> int:
    """Bytes of checkpoint files that appeared since the last call."""
    added = 0
    for path in directory.iterdir():
        if path.name != LOG_NAME and path.name not in seen and path.is_file():
            seen[path.name] = path.stat().st_size
            added += seen[path.name]
    return added


# -- the traced run ----------------------------------------------------------


class TracedRun:
    """One traced run: three copies of the state fed the same inputs.

    ``server`` is the subprocess under test (wire spans), ``durable`` an
    in-process service with its own WAL directory (engine, service,
    apply_batch, checkpoint and recovery spans), ``twin`` an in-process
    service without a log (the non-durable baseline and the oracle)."""

    def __init__(self, plan: Plan, seed: int, work_dir: Path, cache_dir: Path) -> None:
        self.plan = plan
        self.work_dir = work_dir
        self.tally = Tally()
        self.errors: list[str] = []
        self.m: dict[str, float] = {}
        self.tracer = Tracer()
        self.data, _ = workloads.dataset(plan.scale, cache_dir)
        self.pool = workloads.query_pool(seed)
        self.singles = [harness.estimate_request(q) for q in self.pool]
        self.stream = workloads.window_stream(seed, plan.scale)
        self.wal_dir = work_dir / "wal-inprocess"
        self.faults = FaultPlan()  # no rules: it only counts device calls

    def run(self) -> RunResult:
        self.build()
        self.server = Server(self.data, self.work_dir / "wal-server")
        self.server.spawn()
        try:
            self.client = self.server.client()
            self.engine = ServiceEngine(self.durable, max_ops=WINDOW_OPS, linger=0.005)
            self.warm_up()
            read_table = self.read_peel()
            # the engine pins a read view of the epoch it last flushed;
            # the write peel applies batches below it, so it must go, or
            # every later batch maintains overlays for a dead reader
            self.engine.close()
            self.open_loop_rates()
            write_table = self.write_peel()
            final = self.agree()
            self.batch_costs()
            self.checkpoints()
            self.recovery(final)
        finally:
            self.server.kill()
            self.durable.close()
        m = self.m
        if m["trace.overhead_ratio"] > 1.10:
            print(f"WARNING: traced root span p50 is {m['trace.overhead_ratio']:.3f}x "
                  "the untraced round trip (budget 1.10)")
        trace_path = HERE / ".work" / f"trace-{self.plan.name}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        self.tracer.write(trace_path)
        print(f"read path, spans in {trace_path}:")
        print_layer_table(read_table, "client.estimate")
        print("write path:")
        print_layer_table(write_table, "client.window")
        metrics = {name: (float(m[name]), unit) for name, unit, _ in PER_LAYER}
        return RunResult(metrics, {}, {}, self.tally.attempted, self.tally.failed,
                         self.errors)

    # -- stages ---------------------------------------------------------------

    def build(self) -> None:
        """The cold build stage by stage: what ``setup_s`` is made of."""
        m, scale = self.m, self.plan.scale
        document, m["datasets.generate_ms"] = timed_ms(
            generate_xmark, seed=workloads.DATA_SEED, scale=scale)
        text, m["xmltree.write_ms"] = timed_ms(write_document, document)
        if text != self.data.read_text():
            self.errors.append("regenerated document differs from the cached data file")
        parsed, m["xmltree.parse_ms"] = timed_ms(parse_document, text)
        del text
        tree, m["labeling.label_ms"] = timed_ms(label_forest, [document], spacing=64)
        registered, m["catalog.register_all_ms"] = timed_ms(
            PredicateCatalog(tree).register_all_tags)
        del tree
        # the twin owns the generated document, the durable service the parsed one
        self.twin = twin = EstimationService(document)
        self.durable = EstimationService.open_durable(
            self.wal_dir, parsed,
            checkpoint_every=16, keep_checkpoints=2, auto_compact=True)
        self.durable.attach_fault_plan(self.faults)

        def build_histograms() -> None:
            for stats in registered:
                twin.position_histogram(stats.predicate)
                twin.coverage_histogram(stats.predicate)

        _, m["histograms.build_ms"] = timed_ms(build_histograms)
        store = self.work_dir / "summaries.pgf"
        twin.save_statistics(store)
        m["histograms.summary_bytes"] = store.stat().st_size
        m["process.import_ms"] = import_ms()

    def warm_up(self) -> None:
        """Boot answers must agree; then both read paths go past the
        server's mode switch (see README) before anything is timed."""
        values = harness.answer_pool(self.client, self.pool)
        self.tally.add(len(self.pool))
        want = [r.value for r in self.twin.estimate_many(self.pool)]
        durable = [r.value for r in self.durable.estimate_many(self.pool)]
        if values != want or durable != want:
            self.errors.append(
                "boot estimates differ between server, durable service and twin")
        harness.closed_loop(self.client, self.singles, self.plan.warmup_reads, self.tally)
        for request in itertools.islice(
                itertools.cycle(self.singles), self.plan.warmup_reads):
            self.engine.request(request)
        pings = harness.closed_loop(self.client, [{"op": "ping"}], 1000, self.tally)
        self.m["client.ping_rtt_us"] = p50(pings) * 1e6

    def read_peel(self) -> dict[str, dict[str, float]]:
        """One pass per layer over the same requests, outermost first.

        Passes, not per-request interleaving: the subprocess server
        answers back-to-back requests exactly as in the untraced loop
        it is compared with, instead of idling while the harness runs
        the in-process layers."""
        m, tracer, durable = self.m, self.tracer, self.durable
        count = max(len(self.pool), self.plan.segments * self.plan.segment_reads)
        queries = [self.pool[k % len(self.pool)] for k in range(count)]
        requests = [self.singles[k % len(self.pool)] for k in range(count)]
        # the untraced round trip, half before and half after the traced
        # pass, so that a drift of the host's speed does not read as overhead
        untraced = harness.closed_loop(self.client, requests, count // 2, self.tally)
        wire = [tracer.call(k, None, "client.estimate", self.client.estimate, q)
                for k, q in enumerate(queries)]
        untraced += harness.closed_loop(self.client, requests, count // 2, self.tally)
        engine = [tracer.call(k, wire[k][1], "engine.request", self.engine.request, r)
                  for k, r in enumerate(requests)]
        for k, request in enumerate(requests):
            tracer.call(k, wire[k][1], "protocol.codec",
                        codec_round_trip, request, engine[k][0])
        service = [tracer.call(k, engine[k][1], "service.estimate", durable.estimate, q)
                   for k, q in enumerate(queries)]
        parsed = [tracer.call(k, service[k][1], "query.parse", parse_xpath, q)
                  for k, q in enumerate(queries)]
        deep = [tracer.call(k, service[k][1], "estimation.estimate",
                            durable.estimator.estimate, parsed[k][0])
                for k in range(count)]
        differing = sum(
            not (wire[k][0] == engine[k][0].get("value")
                 == service[k][0].value == deep[k][0].value)
            for k in range(count))
        self.tally.add(count, differing)
        if differing:
            self.errors.append(f"{differing} estimates differ between the read layers")
        self.read_spans = len(tracer.spans)
        table = layer_table(tracer.spans)
        m["trace.overhead_ratio"] = (
            table["client.estimate"]["span_p50_us"] / (p50(untraced) * 1e6))
        m["server.wire_self_us"] = table["client.estimate"]["self_p50_us"]
        m["server.dispatch_self_us"] = table["engine.request"]["self_p50_us"]
        m["service.estimate_self_us"] = table["service.estimate"]["self_p50_us"]
        m["query.parse_us"] = table["query.parse"]["span_p50_us"]
        m["estimation.estimate_us"] = table["estimation.estimate"]["span_p50_us"]
        m["protocol.encode_us"], m["protocol.decode_us"] = codec_split(
            [(request, reply) for request, (reply, _) in zip(self.singles, engine)])
        return table

    def open_loop_rates(self) -> None:
        """Latency at three fixed rates; the highest that holds a 2 ms
        median without a growing backlog."""
        m = self.m
        m["client.max_rate_ok"] = 0.0
        count = max(100, self.plan.open_reads // 2)
        for rate in (250.0, OPEN_RATE, 1000.0):
            latencies, lateness = harness.open_loop(
                self.client, self.singles, count, rate, self.tally)
            # no growing backlog: the last tenth of the schedule starts
            # no later than the rest did (or than two send intervals)
            tail = count // 10
            steady = max(lateness[-tail:]) <= max(max(lateness[:-tail]), 2.0 / rate)
            if p50(latencies) <= 2e-3 and steady:
                m["client.max_rate_ok"] = rate
            if rate == OPEN_RATE:
                m["client.est_p90_ms"] = percentile(latencies, 0.90) * 1e3
                m["client.est_p99_ms"] = percentile(latencies, 0.99) * 1e3
                m["client.gen_late_ms_max"] = max(lateness) * 1e3

    def write_peel(self) -> dict[str, dict[str, float]]:
        m, tracer, plan = self.m, self.tracer, self.plan
        durable, twin = self.durable, self.twin
        writer = harness.WindowWriter(self.server.address, self.tally)
        seen: dict[str, int] = {}
        new_files(self.wal_dir, seen)  # the initial checkpoint
        initial_files = len(seen)
        checkpoint_bytes = inserted_xml = 0
        # The durable service compacts its log after every checkpoint,
        # so the log's size says little; the scratch log receives the
        # same records and keeps them all.
        scratch = WriteAheadLog(self.work_dir / "scratch.log")
        scratch_start = scratch.path.stat().st_size
        cold: list[float] = []
        windows = plan.warmup_windows + plan.windows
        for k in range(windows):
            requests = next(self.stream)
            trace = self.read_spans + k
            _, root = tracer.call(trace, None, "client.window", writer.send, requests)
            specs, _ = tracer.call(
                trace, root, "server.admit",
                lambda: [OpSpec.from_request(r) for r in requests])
            ops, _ = tracer.call(trace, root, "server.resolve", resolve_group, durable, specs)
            _, applied = tracer.call(
                trace, root, "service.apply_batch", durable.apply_batch, ops)
            # the log's share of that call, measured on the twin's
            # (identical) pre-batch state and the scratch log ...
            log_ops = normalize_ops(resolve_group(twin, specs))
            encoded, _ = tracer.call(trace, applied, "wal.encode", encode_ops, twin, log_ops)
            lsn, _ = tracer.call(
                trace, applied, "wal.append_fsync", scratch.log_batch, encoded)
            scratch.mark_committed(lsn)
            # ... and the same batch without any log
            tracer.call(trace, applied, "batch.apply",
                        twin.apply_batch, resolve_group(twin, specs))
            inserted_xml += sum(len(r.get("xml", "")) for r in requests)
            checkpoint_bytes += new_files(self.wal_dir, seen)
            _, us = timed_us(durable.estimate, self.pool[0])
            cold.append(us)
        scratch.close()
        log_bytes = scratch.path.stat().st_size - scratch_start
        table = layer_table(tracer.spans[self.read_spans:])
        m["server.window_self_ms"] = table["client.window"]["self_p50_us"] / 1e3
        m["server.admit_us"] = table["server.admit"]["span_p50_us"] / WINDOW_OPS
        m["server.resolve_us"] = table["server.resolve"]["span_p50_us"] / WINDOW_OPS
        m["service.apply_batch_ms"] = table["batch.apply"]["span_p50_us"] / 1e3
        m["wal.encode_ms"] = table["wal.encode"]["span_p50_us"] / 1e3
        m["wal.append_fsync_ms"] = table["wal.append_fsync"]["span_p50_us"] / 1e3
        m["wal.fsyncs_per_window"] = self.faults.hits(WAL_FSYNC) / windows
        m["wal.writes_per_window"] = self.faults.hits(WAL_WRITE) / windows
        m["wal.bytes_per_op"] = log_bytes / (windows * WINDOW_OPS)
        m["wal.checkpoints"] = (len(seen) - initial_files) / 2
        m["wal.write_amp"] = (log_bytes + checkpoint_bytes) / inserted_xml
        m["estimation.cold_estimate_us"] = statistics.median(cold)
        m["estimation.coefficient_invalidations_per_window"] = (
            durable.stats.coefficient_invalidations / windows)

        # a closed-loop reader beside the writer, for a few windows
        stop = threading.Event()
        mixed = [next(self.stream) for _ in range(max(1, plan.windows // 4))]
        with ThreadPoolExecutor(max_workers=1) as threads:
            beside = threads.submit(
                harness.closed_loop, self.client, self.singles, 10**9, self.tally, stop)
            started = time.perf_counter()
            try:
                for requests in mixed:
                    writer.send(requests)
            finally:
                elapsed = time.perf_counter() - started
                stop.set()
            durations = beside.result()
        writer.close()
        m["client.mix_est_ops_s"] = len(durations) / elapsed
        m["client.mix_est_p50_ms"] = p50(durations) * 1e3
        m["client.mix_est_p99_ms"] = percentile(durations, 0.99) * 1e3
        # bring the two in-process copies up to the server's state
        for requests in mixed:
            specs = [OpSpec.from_request(r) for r in requests]
            durable.apply_batch(resolve_group(durable, specs))
            twin.apply_batch(resolve_group(twin, specs))
        return table

    def agree(self) -> list[float]:
        """The three copies received the same windows: same answers."""
        m, twin, durable = self.m, self.twin, self.durable
        final = harness.answer_pool(self.client, self.pool, strong=True)
        self.tally.add(len(self.pool))
        want = [r.value for r in twin.estimate_many(self.pool)]
        differing = sum(a != b for a, b in zip(final, want))
        differing += sum(
            a.value != b for a, b in zip(durable.estimate_many(self.pool), want))
        self.tally.add(0, differing)
        if differing:
            self.errors.append(f"{differing} post-churn estimates differ between the copies")
        stats = self.client.stats()
        if (stats["nodes"], stats["rebuilds"]) != (len(twin), twin.stats.rebuilds):
            self.errors.append("server nodes/rebuilds differ from the twin's")
        server = stats["server"]
        m["server.flushes"] = server["flushes"]
        m["server.ops_per_flush"] = server["ops_admitted"] / server["flushes"]
        m["server.largest_group"] = server["largest_group"]
        m["service.rebuilds"] = durable.stats.rebuilds
        m["service.rebalances"] = durable.stats.rebalances
        sample = self.pool[:len(workloads.HAND_QUERIES)]
        exact = [twin.real_answer(query) for query in sample]
        summary = ErrorSummary.from_pairs(list(zip(want, exact)))
        m["estimation.qerror_p90"] = summary.p90
        m["estimation.qerror_max"] = summary.worst
        return final

    def batch_costs(self) -> None:
        """Fixed vs marginal cost of a batch (1-op batches against the
        16-op ones of the write peel), label planning, snapshots and a
        full rebuild -- on the twin, which is not compared again."""
        m, twin = self.m, self.twin
        fixed: list[float] = []
        plans: list[float] = []
        for request in next(self.stream)[:8]:
            spec = OpSpec.from_request(request)
            if spec.kind == "insert":
                op = spec.resolve(twin)[0]
                members = twin.catalog.stats(TagPredicate(spec.target["tag"])).node_indices
                parent = int(members[spec.target["ordinal"] - 1])
                try:
                    _, us = timed_us(plan_insert, twin.tree, parent, op.subtree, op.position)
                    plans.append(us)
                except GapExhausted:
                    pass  # the service rebalances; there is no plan to time
            _, ms = timed_ms(twin.apply_batch, resolve_group(twin, [spec]))
            fixed.append(ms)
        m["batch.fixed_ms"] = statistics.median(fixed)
        m["batch.per_op_ms"] = (
            (m["service.apply_batch_ms"] - m["batch.fixed_ms"]) / (WINDOW_OPS - 1))
        m["labeling.plan_insert_us"] = statistics.median(plans) if plans else 0.0
        snapshots = []
        for _ in range(50):
            snapshot, us = timed_us(twin.snapshot)
            snapshot.close()
            snapshots.append(us)
        m["service.snapshot_us"] = statistics.median(snapshots)
        _, m["service.rebuild_ms"] = timed_ms(twin.rebuild)

    def checkpoints(self) -> None:
        m, durable = self.m, self.durable
        specs = [OpSpec.from_request(r) for r in next(self.stream)]
        durable.apply_batch(resolve_group(durable, specs))
        seen: dict[str, int] = {}
        new_files(self.wal_dir, seen)
        _, m["wal.checkpoint_ms"] = timed_ms(durable.checkpoint)
        m["wal.checkpoint_bytes"] = new_files(self.wal_dir, seen)
        _, m["wal.checkpoint_full_ms"] = timed_ms(durable.checkpoint, full=True)
        _, m["wal.compact_ms"] = timed_ms(durable.compact)
        # a lazy open stays lazy only while no batch lies past the
        # checkpoint, which is the case right now
        clean = self.work_dir / "wal-clean"
        shutil.copytree(self.wal_dir, clean)
        lazy, m["recovery.lazy_open_ms"] = timed_ms(
            EstimationService.open_durable, clean, lazy=True)
        lazy.close()

    def recovery(self, final: list[float]) -> None:
        """Load and replay timed apart on copies of the durable
        directory; then the subprocess server's own kill -> restart."""
        m, durable = self.m, self.durable
        # leave the workload's replay length behind the newest checkpoint
        # (the service cuts one every 16 batches and after a rebuild)
        past = 0
        while past != max(1, self.plan.replay_batches):
            specs = [OpSpec.from_request(r) for r in next(self.stream)]
            result = durable.apply_batch(resolve_group(durable, specs))
            past = 0 if result.rebuilt or past + 1 >= 16 else past + 1
        crashed = self.work_dir / "wal-crashed"
        shutil.copytree(self.wal_dir, crashed)
        recovered, total = timed_ms(EstimationService.open_durable, crashed)
        m["recovery.batches_replayed"] = recovered.recovery_info.batches_replayed
        recovered.close()
        _, m["recovery.load_ms"] = timed_ms(
            load_checkpoint, crashed, max(list_checkpoints(crashed)))
        m["recovery.replay_ms"] = total - m["recovery.load_ms"]
        self.client.close()
        self.server.kill()
        self.server.spawn()
        with self.server.client() as client:
            after = harness.answer_pool(client, self.pool, strong=True)
        self.tally.add(len(self.pool), sum(a != b for a, b in zip(after, final)))
        if after != final:
            self.errors.append("estimates after recovery differ from those before the kill")
        m["recovery.rss_mb"] = self.server.rss_peak_mb()


def run_traced(plan: Plan, seed: int, work_dir: Path, cache_dir: Path) -> RunResult:
    return TracedRun(plan, seed, work_dir, cache_dir).run()


def codec_round_trip(request: dict, reply: dict) -> None:
    """The codec work of one round trip: both frames encoded, both decoded."""
    decode_frame(encode_frame(request))
    json.loads(encode_frame(reply))


def codec_split(frames: Sequence[tuple[dict, dict]]) -> tuple[float, float]:
    """Median microseconds to encode and to decode one frame, over the
    workload's request frames and the replies to them."""
    encode: list[float] = []
    decode: list[float] = []
    clock = time.perf_counter
    for pair in frames:
        for obj in pair:
            started = clock()
            raw = encode_frame(obj)
            middle = clock()
            json.loads(raw)
            encode.append((middle - started) * 1e6)
            decode.append((clock() - middle) * 1e6)
    return statistics.median(encode), statistics.median(decode)
