"""The untraced run: one ``repro.cli serve`` subprocess driven over TCP.

Every end-to-end metric comes from here.  All four workloads run the
same five stages -- boot, read, write, crash, check -- and differ in
scale, in how much of each stage they run and in whether the reader
runs beside the writer (``Plan.order``).  The stages share one server
process; nothing here imports a traced code path.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.service import EstimationService, ServiceClient
from repro.service.server import OpSpec
from repro.workloads.metrics import ErrorSummary
from repro.xmltree.parser import parse_document

import workloads
from workloads import OPEN_RATE, WINDOW_OPS, Plan

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Flags of the server under test; everything else is the shipped
#: default (fsync per group, --checkpoint-every 16, --keep-checkpoints 2,
#: compaction on).
SERVE_FLAGS = (
    "--listen", "127.0.0.1:0", "--script", "/dev/null",
    "--batch-size", str(WINDOW_OPS), "--linger-ms", "5",
)
_RECOVERED = re.compile(r"checkpoint lsn (\d+), (\d+) replayed")


# -- arithmetic --------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def segment_median(samples: Sequence[float], segments: int,
                   reduce: Callable[[Sequence[float]], float]) -> float:
    """Median of ``reduce`` over ``segments`` equal, consecutive slices.

    One host stall lands in one slice and moves one of the reduced
    values; the median of the slices ignores it."""
    size = len(samples) // segments
    if size < 1:
        raise ValueError(f"{len(samples)} samples cannot fill {segments} segments")
    return statistics.median(
        reduce(samples[i * size:(i + 1) * size]) for i in range(segments)
    )


def p50(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


# -- the server under test ---------------------------------------------------


class Server:
    """One ``python -m repro.cli serve`` subprocess on a WAL directory."""

    def __init__(self, data: Path, wal_dir: Path) -> None:
        self.data = data
        self.wal_dir = wal_dir
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None
        #: ``(checkpoint_lsn, batches_replayed)`` printed by a recovering boot
        self.recovered: Optional[tuple[int, int]] = None

    def spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.recovered = None
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(self.data),
             "--wal-dir", str(self.wal_dir), *SERVE_FLAGS],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        for line in self.process.stdout:
            match = _RECOVERED.search(line)
            if match:
                self.recovered = (int(match.group(1)), int(match.group(2)))
            if line.startswith("listening on"):
                host, _, port = line.split()[-1].rpartition(":")
                self.address = (host, int(port))
                return
        raise RuntimeError(f"server exited during boot (status {self.process.wait()})")

    def client(self) -> ServiceClient:
        return ServiceClient(*self.address, timeout=120.0)

    def rss_peak_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def kill(self) -> None:
        """SIGKILL and reap: nothing the process buffered survives."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()
        self.process = None


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# -- traffic -----------------------------------------------------------------


def estimate_request(query: str) -> dict:
    return {"op": "estimate", "query": query}


def answer_pool(client: ServiceClient, pool: Sequence[str],
                strong: bool = False) -> list[float]:
    """The pool's estimates, one request per query, in pool order.

    ``strong`` reads queue behind the writer thread.  The passes that
    are compared bit-for-bit need them: the server acks a window
    *before* it swaps the lock-free read view, so a weak read sent
    right after the 16th ack may still answer from the previous epoch."""
    values = []
    for query in pool:
        request = estimate_request(query)
        if strong:
            request["strong"] = True
        reply = client.request(request)
        if not reply.get("ok"):
            raise RuntimeError(f"estimate {query!r} refused: {reply.get('error')}")
        values.append(reply["value"])
    return values


@dataclass
class Tally:
    """Requests attempted and failed (refused, errored or mismatching)."""

    attempted: int = 0
    failed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, attempted: int, failed: int = 0) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed


def closed_loop(client: ServiceClient, requests: Sequence[dict], count: int,
                tally: Tally, stop: Optional[threading.Event] = None) -> list[float]:
    """``count`` round-trips back to back (or until ``stop`` is set);
    returns each one's seconds."""
    durations: list[float] = []
    failed = 0
    clock = time.perf_counter
    n = len(requests)
    k = 0
    while k < count and not (stop is not None and stop.is_set()):
        started = clock()
        reply = client.request(requests[k % n])
        durations.append(clock() - started)
        if not reply.get("ok"):
            failed += 1
        k += 1
    tally.add(k, failed)
    return durations


def open_loop(client: ServiceClient, requests: Sequence[dict], count: int,
              rate: float, tally: Tally,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep,
              ) -> tuple[list[float], list[float]]:
    """``count`` requests on a fixed schedule of ``rate`` per second.

    Request ``k`` is due at ``t0 + k/rate`` whatever happened to its
    predecessors, and its latency is timed from that due time: when the
    server (or the host) stalls, the requests that should have been
    sent meanwhile are charged the wait.  Returns ``(latencies,
    lateness)`` in seconds, lateness being send time minus due time."""
    latencies: list[float] = []
    lateness: list[float] = []
    failed = 0
    n = len(requests)
    t0 = clock()
    for k in range(count):
        due = t0 + k / rate
        while True:
            remaining = due - clock()
            if remaining <= 0:
                break
            if remaining > 3e-4:
                # sleep most of the gap, spin the rest: a late wake-up
                # would be charged to the server as latency
                sleep(remaining - 2e-4)
        sent = clock()
        reply = client.request(requests[k % n])
        done = clock()
        lateness.append(sent - due)
        latencies.append(done - due)
        if not reply.get("ok"):
            failed += 1
    tally.add(count, failed)
    return latencies, lateness


class WindowWriter:
    """The single writer connection: one window per round-trip.

    ``send`` writes the 16 frames with one ``sendall`` and waits for the
    16 acks, so with ``--batch-size 16 --linger-ms 5`` each window is one
    admission group.  The groups the server actually formed are read
    back from the acks (``coalesced``), and the in-process twin applies
    exactly those groups, so a window the server split under a host
    stall still checks out -- it only shows as ``split_windows``."""

    def __init__(self, address: tuple[str, int], tally: Tally) -> None:
        self.sock = socket.create_connection(address, timeout=120.0)
        self.file = self.sock.makefile("rb")
        self.tally = tally
        self.seconds: list[float] = []
        self.rebuilt: list[bool] = []
        self.groups: list[list[dict]] = []
        self.group_rebuilt: list[bool] = []
        self.node_delta = 0
        self.split_windows = 0
        self.lsn = 0
        self.past_checkpoint = 0

    def send(self, requests: list[dict]) -> None:
        payload = workloads.window_frames(requests)
        started = time.perf_counter()
        self.sock.sendall(payload)
        acks = [json.loads(self.file.readline()) for _ in requests]
        self.seconds.append(time.perf_counter() - started)
        failed = [ack for ack in acks if not ack.get("ok")]
        self.tally.add(len(requests), len(failed))
        if failed:
            raise RuntimeError(f"window refused: {failed[0]}")
        self.rebuilt.append(any(ack["rebuilt"] for ack in acks))
        if acks[0]["coalesced"] != len(requests):
            self.split_windows += 1
        self.node_delta += sum(
            ack["nodes"] if ack["op"] == "insert" else -ack["nodes"] for ack in acks)
        self.account(requests, acks)

    def account(self, requests: list[dict], acks: list[dict]) -> None:
        """Read the admission groups back from the acks and follow the
        server's checkpoint rule: one LSN per group; a checkpoint every
        16 LSNs, or right after a rebuild re-bucketed the label space."""
        start = 0
        while start < len(requests):
            size = acks[start]["coalesced"]
            self.groups.append(requests[start:start + size])
            self.group_rebuilt.append(acks[start]["rebuilt"])
            self.lsn += 1
            self.past_checkpoint += 1
            if acks[start]["rebuilt"] or self.past_checkpoint >= 16:
                self.past_checkpoint = 0
            start += size

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def resolve_group(service: EstimationService, specs: Sequence[OpSpec]) -> list:
    """Batch ops for one admission group, every target resolved against
    the state the group starts from -- as the admission batcher does."""
    return [spec.resolve(service)[0] for spec in specs]


def apply_groups(twin: EstimationService, groups: Sequence[list[dict]]) -> None:
    """Apply update groups to the in-process twin: one ``apply_batch`` each."""
    for group in groups:
        specs = [OpSpec.from_request(request) for request in group]
        twin.apply_batch(resolve_group(twin, specs))


# -- the run -----------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    #: numbers that must repeat exactly for one seed
    counts: dict[str, int]
    #: harness-side numbers that are printed but never gated
    client: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    errors: list[str]

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


class WorkloadRun:
    """One untraced run of one workload: boot, read, write, check, crash."""

    def __init__(self, plan: Plan, seed: int, work_dir: Path, cache_dir: Path,
                 log: Callable[[str], None] = print) -> None:
        self.plan = plan
        self.work_dir = work_dir
        self.log = log
        self.tally = Tally()
        self.errors: list[str] = []
        self.reads: dict[str, float] = {}
        self.client_side: dict[str, tuple[float, str]] = {}
        self.data, generate_ms = workloads.dataset(plan.scale, cache_dir)
        self.client_side["datasets.generate_ms"] = (generate_ms, "ms")
        self.pool = workloads.query_pool(seed)
        self.singles = [estimate_request(q) for q in self.pool]
        twigs = self.pool[len(workloads.HAND_QUERIES):]
        self.batched = [
            {"op": "estimate", "queries": twigs[i:i + 16]}
            for i in range(0, len(twigs), 16)
        ]
        self.stream = workloads.window_stream(seed, plan.scale)
        # The oracle: a from-scratch in-process service on the same
        # document.  At 5e5 nodes a second build and a second pass over
        # the windows do not fit the run's budget; that workload checks
        # the server against itself (recovery equality, ack arithmetic,
        # counters) and leaves the twin to its traced run.
        self.twin: Optional[EstimationService] = None
        if plan.twin:
            self.twin = EstimationService(parse_document(self.data.read_text()))
        self.server: Optional[Server] = None
        self.client: Optional[ServiceClient] = None
        self.writer: Optional[WindowWriter] = None

    def check(self, name: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{name}: got {got!r}, want {want!r}")

    def check_estimates(self, name: str, got: Sequence[float],
                        want: Sequence[float]) -> None:
        """Bit-for-bit equality of two passes over the pool; every
        differing estimate is a failed request."""
        differing = [
            f"{query} {a!r} != {b!r}"
            for query, a, b in zip(self.pool, got, want) if a != b
        ]
        self.tally.add(0, len(differing))
        if differing:
            self.errors.append(f"{name}: {len(differing)} differ, first {differing[0]}")

    def twin_estimates(self) -> list[float]:
        return [result.value for result in self.twin.estimate_many(self.pool)]

    def run(self) -> RunResult:
        plan = self.plan
        try:
            setups = self.boot()
            if plan.order == "read":
                self.read_stage()
                self.write_stage()
            elif plan.order == "write":
                self.write_stage()
                self.read_stage()
            else:
                self.read_stage()
                self.write_stage(reader=True)
            self.writer.close()
            final_values, stats, qerror = self.check_stage()
            rss_peak_mb = self.server.rss_peak_mb()
            self.client.close()
            recoveries, durable_bytes = self.crash_stage(final_values)
        finally:
            if self.server is not None:
                self.server.kill()
        # Rebuild windows (relabel + rebuild + full checkpoint in the
        # foreground, ~4x a plain window) are timed on their own: how
        # many a run meets depends on the seed, and one more or less
        # would swing a mean over all windows by several percent.
        writer = self.writer
        measured = list(zip(writer.seconds, writer.rebuilt))[plan.warmup_windows:]
        plain = [seconds for seconds, rebuilt in measured if not rebuilt]
        rebuilds = [seconds for seconds, rebuilt in measured if rebuilt]
        if rebuilds:
            self.client_side["service.rebuild_window_ms"] = (
                statistics.median(rebuilds) * 1e3, "ms")
        self.client_side["server.split_windows"] = (float(writer.split_windows), "count")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "est_ops_s": (self.reads["est_ops_s"], "1/s"),
            "est_p50_ms": (self.reads["est_p50_ms"], "ms"),
            "twig_batch_ms": (self.reads["twig_batch_ms"], "ms"),
            "upd_ops_s": (WINDOW_OPS * len(plain) / sum(plain), "1/s"),
            "upd_win_p50_ms": (statistics.median(plain) * 1e3, "ms"),
            "recover_s": (statistics.median(recoveries), "s"),
            "rss_peak_mb": (rss_peak_mb, "MB"),
            "space_amp": (durable_bytes / self.data.stat().st_size, "ratio"),
            "qerror_gmean": (qerror, "ratio"),
        }
        counts = {
            "lsn": writer.lsn,
            "rebuilds": stats["rebuilds"],
            "nodes": stats["nodes"],
            "dir_bytes": durable_bytes,
            "batches_replayed": plan.replay_batches,
        }
        return RunResult(metrics, counts, self.client_side, self.tally.attempted,
                         self.tally.failed, self.errors)

    # -- stages ---------------------------------------------------------------

    def boot(self) -> list[float]:
        """``setup_s`` samples: spawn on a fresh WAL directory until the
        pool has been answered once.  The last boot stays up."""
        setups: list[float] = []
        want = self.twin_estimates() if self.twin is not None else None
        for boot in range(self.plan.boots):
            wal_dir = self.work_dir / f"wal-{boot}"
            self.server = Server(self.data, wal_dir)
            started = time.perf_counter()
            self.server.spawn()
            self.client = self.server.client()
            values = answer_pool(self.client, self.pool)
            setups.append(time.perf_counter() - started)
            self.tally.add(len(self.pool))
            if want is not None:
                self.check_estimates(
                    f"boot {boot} estimates vs in-process build", values, want)
            if boot < self.plan.boots - 1:
                self.client.close()
                self.server.kill()
                shutil.rmtree(wal_dir)
        self.base_nodes = self.client.stats()["nodes"]
        self.writer = WindowWriter(self.server.address, self.tally)
        self.log(f"  boot: {self.plan.boots} x, {self.base_nodes:,} nodes")
        return setups

    def read_stage(self) -> None:
        plan, client, tally = self.plan, self.client, self.tally
        closed_loop(client, self.singles, plan.warmup_reads, tally)
        self.reads["est_ops_s"] = self.closed_loop_rate()
        latencies, lateness = open_loop(
            client, self.singles, plan.open_reads, OPEN_RATE, tally)
        segments = max(1, min(10, plan.open_reads // 100))
        self.reads["est_p50_ms"] = segment_median(latencies, segments, p50) * 1e3
        self.client_side["client.est_p90_ms"] = (percentile(latencies, 0.90) * 1e3, "ms")
        self.client_side["client.est_p99_ms"] = (percentile(latencies, 0.99) * 1e3, "ms")
        self.client_side["client.gen_late_ms_max"] = (max(lateness) * 1e3, "ms")
        calls = closed_loop(client, self.batched, plan.batch_calls, tally)
        segments = max(1, min(10, plan.batch_calls // 10))
        self.reads["twig_batch_ms"] = segment_median(calls, segments, p50) * 1e3

    def closed_loop_rate(self) -> float:
        """Median segment throughput of two closed-loop connections."""
        plan = self.plan
        half = len(self.singles) // 2

        def work(slot: int) -> list[float]:
            # the second connection starts half a pool in, so the two
            # do not ask the same query at the same moment
            requests = self.singles[slot * half:] + self.singles[:slot * half]
            with self.server.client() as connection:
                return [
                    sum(closed_loop(connection, requests, plan.segment_reads, self.tally))
                    for _ in range(plan.segments)
                ]

        with ThreadPoolExecutor(max_workers=2) as threads:
            per_connection = list(threads.map(work, (0, 1)))
        return statistics.median(
            sum(plan.segment_reads / seconds[i] for seconds in per_connection)
            for i in range(plan.segments)
        )

    def write_stage(self, reader: bool = False) -> None:
        plan, writer = self.plan, self.writer
        for _ in range(plan.warmup_windows):
            writer.send(next(self.stream))
        stop = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as threads:
            beside = threads.submit(
                closed_loop, self.client, self.singles, 10**9 if reader else 0,
                self.tally, stop)
            started = time.perf_counter()
            try:
                # at least plan.windows, then on until the kill will find
                # the intended number of committed batches past the
                # newest checkpoint
                while (len(writer.seconds) < plan.warmup_windows + plan.windows
                       or writer.past_checkpoint != plan.replay_batches):
                    if len(writer.seconds) > plan.warmup_windows + plan.windows + 96:
                        raise RuntimeError(
                            f"no run of {plan.replay_batches} windows without a "
                            "rebuild or checkpoint in 96 extra windows")
                    writer.send(next(self.stream))
            finally:
                elapsed = time.perf_counter() - started
                stop.set()
            durations = beside.result()
        if reader:
            self.client_side["client.mix_est_ops_s"] = (len(durations) / elapsed, "1/s")
            self.client_side["client.mix_est_p50_ms"] = (p50(durations) * 1e3, "ms")
            self.client_side["client.mix_est_p99_ms"] = (
                percentile(durations, 0.99) * 1e3, "ms")
        self.log(f"  writes: {len(writer.seconds)} windows "
                 f"({sum(writer.rebuilt)} rebuilt, {writer.split_windows} split)")

    def check_stage(self) -> tuple[list[float], dict, float]:
        """The churned server against the twin and against its own acks."""
        writer, client = self.writer, self.client
        final_values = answer_pool(client, self.pool, strong=True)
        self.tally.add(len(self.pool))
        stats = client.stats()
        server = stats["server"]
        self.check("server flushes vs groups acked", server["flushes"], len(writer.groups))
        self.check("last_committed_lsn", stats["last_committed_lsn"], writer.lsn)
        self.check("ops_admitted", server["ops_admitted"],
                   sum(len(group) for group in writer.groups))
        self.check("ops_failed (server)", server["ops_failed"], 0)
        self.check("nodes vs acks", stats["nodes"], self.base_nodes + writer.node_delta)
        self.check("rebuilds vs acks", stats["rebuilds"],
                   sum(1 for group_rebuilt in writer.group_rebuilt if group_rebuilt))
        if self.twin is not None:
            apply_groups(self.twin, writer.groups)
            self.check_estimates(
                "post-churn estimates vs twin", final_values, self.twin_estimates())
            self.check("nodes vs twin", stats["nodes"], len(self.twin))
            self.check("rebuilds vs twin", stats["rebuilds"], self.twin.stats.rebuilds)
            self.check("lsn vs twin batches", stats["last_committed_lsn"],
                       self.twin.stats.batches)
        hand = len(workloads.HAND_QUERIES)
        exact = [client.exact(query) for query in self.pool[:hand]]
        self.tally.add(hand)
        summary = ErrorSummary.from_pairs(list(zip(final_values[:hand], exact)))
        return final_values, stats, summary.geometric_mean

    def crash_stage(self, final_values: Sequence[float]) -> tuple[list[float], int]:
        """``recover_s`` samples: SIGKILL, restart on the same
        directory, first pool estimate answered; then every pool
        estimate must equal its value before the kill."""
        recoveries: list[float] = []
        durable_bytes = 0
        for drill in range(self.plan.drills):
            self.server.kill()
            if drill == 0:
                durable_bytes = dir_bytes(self.server.wal_dir)
            started = time.perf_counter()
            self.server.spawn()
            client = self.server.client()
            first = client.request(self.singles[0])
            recoveries.append(time.perf_counter() - started)
            values = answer_pool(client, self.pool, strong=True)
            self.tally.add(len(self.pool) + 1)
            self.check_estimates(
                f"drill {drill}: estimates after recovery vs before the kill",
                [first.get("value")] + values[1:], final_values)
            self.check(f"drill {drill}: batches replayed",
                       self.server.recovered and self.server.recovered[1],
                       self.plan.replay_batches)
            client.close()
        return recoveries, durable_bytes


def run_workload(plan: Plan, seed: int, work_dir: Path, cache_dir: Path,
                 log: Callable[[str], None] = print) -> RunResult:
    """Run one workload untraced and return its end-to-end metrics."""
    return WorkloadRun(plan, seed, work_dir, cache_dir, log).run()
