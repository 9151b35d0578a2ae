"""Tests of the end-to-end benchmark's own machinery.

The arithmetic the metrics rest on (segment medians, percentiles, span
self times, open-loop due-time accounting), the determinism of the
generators, and a ``--quick`` smoke of all four workload shapes against
a tiny (scale 1) server.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- generators --------------------------------------------------------------


def first_windows(seed: int, scale: int, count: int) -> list[list[dict]]:
    return list(itertools.islice(workloads.window_stream(seed, scale), count))


def test_generators_are_pure_functions_of_seed_and_scale():
    assert workloads.query_pool(7) == workloads.query_pool(7)
    assert workloads.query_pool(7) != workloads.query_pool(8)
    frames = [workloads.window_frames(w) for w in first_windows(7, 4, 20)]
    again = [workloads.window_frames(w) for w in first_windows(7, 4, 20)]
    assert frames == again
    assert frames != [workloads.window_frames(w) for w in first_windows(8, 4, 20)]
    # a longer stream extends a shorter one
    assert first_windows(7, 4, 30)[:20] == first_windows(7, 4, 20)


def test_pool_shape_is_the_same_for_every_seed():
    for seed in (1, 2, 3):
        pool = workloads.query_pool(seed)
        assert len(pool) == 64
        assert pool[:16] == list(workloads.HAND_QUERIES)


def test_windows_hold_sixteen_ops_that_cannot_collide():
    for requests in first_windows(3, 1, 200):
        assert len(requests) == workloads.WINDOW_OPS
        deletes = [r["node"]["ordinal"] for r in requests if r["op"] == "delete"]
        assert len(deletes) == len(set(deletes))
        assert all(1 <= ordinal <= 60 for ordinal in deletes)
        assert workloads.window_frames(requests).count(b"\n") == workloads.WINDOW_OPS


def test_dataset_is_cached_and_repeatable(tmp_path):
    path, generate_ms = workloads.dataset(1, tmp_path / "a")
    assert generate_ms > 0
    assert workloads.dataset(1, tmp_path / "a") == (path, 0.0)
    other, _ = workloads.dataset(1, tmp_path / "b")
    assert path.read_bytes() == other.read_bytes()


def test_plans_scale_counts_not_deadlines():
    plan = workloads.PLANS["upd_write"]
    half = plan.scaled(5.0)
    assert half.windows == round(plan.windows / 2)
    assert half.open_reads == plan.open_reads // 2
    assert (half.scale, half.boots, half.drills, half.replay_batches) == (
        plan.scale, plan.boots, plan.drills, plan.replay_batches)
    assert plan.scaled(10.0) == plan
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: plan.why for name, plan in workloads.PLANS.items()}


# -- arithmetic --------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.percentile(samples, 0.5) == 3.0
    assert harness.percentile(samples, 0.9) == 5.0
    assert harness.percentile(samples, 0.2) == 1.0
    assert harness.percentile([7.0], 0.99) == 7.0


def test_segment_median_ignores_one_stalled_segment():
    samples = [1.0] * 10 + [100.0] * 10 + [2.0] * 10 + [3.0] * 10 + [1.0] * 10
    # segment p50s are 1, 100, 2, 3, 1 -> median 2
    assert harness.segment_median(samples, 5, harness.p50) == 2.0
    # a remainder that does not fill a segment is dropped
    assert harness.segment_median([1.0, 2.0, 3.0, 4.0, 9.0], 2, max) == 3.0
    with pytest.raises(ValueError):
        harness.segment_median([1.0], 2, max)


def test_self_times_telescope_to_the_root():
    ticks = itertools.count(0, 10)
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def spend(ns: int) -> None:
        for _ in range(ns // 10 - 1):
            next(ticks)

    _, root = tracer.call(0, None, "client.estimate", spend, 100)
    _, engine = tracer.call(0, root, "engine.request", spend, 60)
    tracer.call(0, root, "protocol.codec", spend, 10)
    _, service = tracer.call(0, engine, "service.estimate", spend, 40)
    tracer.call(0, service, "query.parse", spend, 10)
    tracer.call(0, service, "estimation.estimate", spend, 20)
    own = tracing.self_times(tracer.spans)
    assert [own[s.span] for s in tracer.spans] == [30, 20, 10, 10, 10, 20]
    assert sum(own.values()) == tracer.spans[root].ns == 100
    table = tracing.layer_table(tracer.spans)
    assert sum(row["self_total_us"] for row in table.values()) == pytest.approx(
        table["client.estimate"]["span_total_us"])


def test_trace_file_has_one_json_span_per_line(tmp_path):
    tracer = tracing.Tracer()
    _, root = tracer.call(3, None, "client.estimate", lambda: None)
    tracer.call(3, root, "engine.request", lambda: None)
    tracer.write(tmp_path / "trace.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [set(line) for line in lines] == [
        {"trace", "span", "parent", "name", "start_ns", "end_ns"}] * 2
    assert (lines[0]["parent"], lines[1]["parent"], lines[1]["trace"]) == (None, 0, 3)


class FakeClock:
    """Time moves when someone sleeps or serves a request -- and by a
    microsecond per reading, so that a loop spinning on the clock ends."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1e-6
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()

    class StallingClient:
        calls = 0

        def request(self, request: dict) -> dict:
            # every round trip takes 1 ms, the third one stalls 50 ms
            StallingClient.calls += 1
            clock.now += 0.050 if StallingClient.calls == 3 else 0.001
            return {"ok": True}

    tally = harness.Tally()
    latencies, lateness = harness.open_loop(
        StallingClient(), [{"op": "ping"}], 10, 100.0, tally,
        clock=clock, sleep=clock.sleep)
    assert tally.attempted == 10 and tally.failed == 0
    near = lambda seconds: pytest.approx(seconds, abs=1e-4)  # noqa: E731
    # due every 10 ms: requests 0 and 1 are on time and take 1 ms
    assert latencies[:2] == [near(0.001), near(0.001)]
    # request 2 is due at 20 ms and done at 70 ms
    assert latencies[2] == near(0.050)
    # requests 3..6 were due at 30..60 ms but go out after the stall,
    # back to back: each is charged its wait, measured from its due time
    assert lateness[3] == near(0.040)
    assert latencies[3] == near(0.041)
    assert latencies[4] == near(0.032)
    assert latencies[6] == near(0.014)
    # by request 8 (due at 80 ms) the generator has caught up
    assert lateness[8] == near(0.0)
    assert latencies[9] == near(0.001)


def test_window_writer_reads_the_servers_groups_back_from_the_acks():
    writer = harness.WindowWriter.__new__(harness.WindowWriter)
    writer.groups, writer.group_rebuilt, writer.lsn, writer.past_checkpoint = [], [], 0, 14
    requests = [{"op": "delete", "k": k} for k in range(16)]
    acks = [{"coalesced": 9, "rebuilt": False}] * 9 + [{"coalesced": 7, "rebuilt": False}] * 7
    writer.account(requests, acks)
    assert [len(g) for g in writer.groups] == [9, 7]
    # LSN 15, then LSN 16 reaches the checkpoint interval
    assert (writer.lsn, writer.past_checkpoint) == (2, 0)
    writer.account(requests, [{"coalesced": 16, "rebuilt": True}] * 16)
    assert (writer.lsn, writer.past_checkpoint) == (3, 0)
    writer.account(requests, [{"coalesced": 16, "rebuilt": False}] * 16)
    assert (writer.lsn, writer.past_checkpoint) == (4, 1)


# -- smoke -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.PLANS))
def test_quick_smoke_of_every_workload_shape(name, tmp_path):
    plan = workloads.PLANS[name].quick()
    result = harness.run_workload(
        plan, 1, tmp_path, tmp_path / "cache", log=lambda line: None)
    assert result.errors == []
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value, unit = result.metrics[metric["name"]]
        assert value > 0 and unit == metric["unit"]
    assert result.counts["batches_replayed"] == plan.replay_batches
    assert result.counts["lsn"] >= plan.warmup_windows + plan.windows


def test_quick_traced_run_and_command_line(tmp_path):
    out = tmp_path / "runs.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", "mixed_rw",
         "--seed", "2", "--seconds", "10", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: entry["unit"] for name, entry in last["metrics"].items()}
    assert json.loads(out.read_text())["workload"] == "mixed_rw"
