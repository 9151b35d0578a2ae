"""Concurrent serve tier: admission batching + TCP front-end.

Three layers are exercised:

* :class:`~repro.service.server.ServiceEngine` directly -- the
  single-writer admission batcher: coalescing, per-op attribution when
  a grouped flush fails (state as if the failing ops were never
  admitted, checked differentially against a control service),
  session-disconnect cancellation, barrier semantics, pinned
  snapshots;
* :class:`~repro.service.server.EstimationServer` +
  :class:`~repro.service.client.ServiceClient` over real sockets --
  round trips for every op, pipelining order, the malformed-frame
  fuzz (one error frame per bad line, connection intact), concurrent
  clients coalescing into shared admission batches, mid-batch
  disconnect, graceful shutdown;
* the differential acceptance check: concurrent-client outcomes are
  bit-identical to a single-caller control service applying the same
  acknowledged operations.
"""

import json
import random
import socket
import threading
import time

import pytest

from repro.predicates.base import TagPredicate
from repro.service import (
    EstimationService,
    MAX_LINE_BYTES,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import decode_frame, encode_frame
from repro.service.server import (
    EstimationServer,
    ServiceEngine,
    parse_listen,
    serve_forever,
)
from repro.xmltree.tree import Document, Element
from tests.service.test_batch import QUERIES, prime, random_document, random_subtree

WAIT = 30.0  # generous per-request timeout; every test finishes in ms


def make_service(seed: int = 7, nodes: int = 60) -> EstimationService:
    service = EstimationService(
        random_document(random.Random(seed), nodes),
        grid_size=6,
        spacing=64,
        rebuild_threshold=0.95,
    )
    prime(service)
    return service


@pytest.fixture
def engine():
    service = make_service()
    eng = ServiceEngine(service)
    yield eng
    eng.close()
    service.close()


def subtree_xml(seed: int) -> str:
    """A deterministic insertable snippet (serialised random subtree)."""

    def render(element: Element) -> str:
        inner = "".join(
            render(child) for child in element.children if isinstance(child, Element)
        )
        return f"<{element.tag}>{inner}</{element.tag}>"

    return render(random_subtree(random.Random(seed)))


class TestServiceEngine:
    def test_ping_and_unknown_op(self, engine):
        assert engine.request({"op": "ping"}) == {"ok": True, "op": "ping"}
        response = engine.request({"op": "frobnicate"})
        assert response["ok"] is False and "unknown op" in response["error"]
        response = engine.request({"no-op": 1})
        assert response["ok"] is False

    def test_weak_and_strong_estimates_and_read_your_writes(self, engine):
        weak = engine.request({"op": "estimate", "query": QUERIES[0]})
        assert weak["ok"] and weak["value"] >= 0
        before = weak["value"]
        ok = engine.request(
            {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/></a>"}
        )
        assert ok["ok"] and ok["nodes"] == 2
        # A strong estimate is a barrier: it must see the insert.
        strong = engine.request(
            {"op": "estimate", "query": "//a//b", "strong": True}
        )
        assert strong["ok"]
        # The writer refreshed the lock-free view after the flush, so
        # even weak reads see the write once the response arrived.
        weak_after = engine.request({"op": "estimate", "query": QUERIES[0]})
        assert weak_after["ok"]
        assert engine.stats.view_refreshes >= 1
        del before  # values may legitimately coincide; no assertion

    def test_estimate_many_and_exact_and_execute(self, engine):
        many = engine.request({"op": "estimate", "queries": QUERIES})
        assert many["ok"] and len(many["values"]) == len(QUERIES)
        exact = engine.request({"op": "exact", "query": QUERIES[0]})
        assert exact["ok"] and isinstance(exact["value"], int)
        executed = engine.request({"op": "execute", "query": QUERIES[0]})
        assert executed["ok"] and executed["rows"] == exact["value"]
        assert executed["cost"] > 0

    def test_update_responses_match_legacy_fields(self, engine):
        service = engine.service
        nodes = len(service)
        ok = engine.request(
            {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/><c/></a>"}
        )
        assert ok == {
            "ok": True,
            "op": "insert",
            "nodes": 3,
            "rebuilt": ok["rebuilt"],
            "coalesced": 1,
        }
        assert len(service) == nodes + 3
        gone = engine.request({"op": "delete", "node": {"tag": "a", "ordinal": 1}})
        assert gone["ok"] and gone["nodes"] >= 1

    def test_target_errors_use_legacy_wording(self, engine):
        response = engine.request(
            {"op": "delete", "node": {"tag": "zzz", "ordinal": 2}}
        )
        assert response["ok"] is False
        assert response["error"] == "only 0 elements with tag 'zzz' (wanted #2)"
        response = engine.request({"op": "delete", "node": {"index": 10_000}})
        assert "outside the tree" in response["error"]
        response = engine.request(
            {"op": "insert", "parent": {"tag": "root"}, "xml": "<broken"}
        )
        assert response["ok"] is False  # admission-time XML validation

    def test_ids_echoed_on_success_and_error(self, engine):
        ok = engine.request({"op": "stats", "id": "abc"})
        assert ok["ok"] and ok["id"] == "abc"
        bad = engine.request({"op": "nope", "id": 9})
        assert bad["ok"] is False and bad["id"] == 9

    def test_stats_includes_server_counters(self, engine):
        engine.request({"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"})
        stats = engine.request({"op": "stats"})
        assert stats["ok"]
        assert stats["nodes"] == len(engine.service)
        assert stats["server"]["flushes"] >= 1
        assert stats["server"]["ops_admitted"] >= 1
        assert stats["epoch"] == engine.service.epoch

    def test_snapshot_pin_read_release(self, engine):
        pinned = engine.request({"op": "snapshot"})
        assert pinned["ok"]
        sid = pinned["snapshot"]
        before = engine.request({"op": "estimate", "query": "//a//b", "snapshot": sid})
        engine.request(
            {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/></a>"}
        )
        after_pinned = engine.request(
            {"op": "estimate", "query": "//a//b", "snapshot": sid}
        )
        assert after_pinned["value"] == before["value"]  # bit-stable
        live = engine.request({"op": "estimate", "query": "//a//b", "strong": True})
        assert live["value"] != before["value"]
        released = engine.request({"op": "release", "snapshot": sid})
        assert released["ok"]
        gone = engine.request({"op": "estimate", "query": "//a//b", "snapshot": sid})
        assert gone["ok"] is False and "unknown snapshot" in gone["error"]
        # Releasing twice is an error response, not a crash.
        assert engine.request({"op": "release", "snapshot": sid})["ok"] is False

    def test_batch_request_is_atomic(self, engine):
        service = engine.service
        nodes = len(service)
        epoch = service.epoch
        response = engine.request(
            {
                "op": "batch",
                "ops": [
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"},
                    {"op": "delete", "node": {"tag": "zzz"}},
                ],
            }
        )
        assert response["ok"] is False
        assert "only 0 elements with tag 'zzz'" in response["error"]
        assert len(service) == nodes  # nothing admitted
        assert service.epoch == epoch  # no epoch published either
        ok = engine.request(
            {
                "op": "batch",
                "ops": [
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"},
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<b><c/></b>"},
                ],
            }
        )
        assert ok["ok"] and ok["ops"] == 2 and ok["nodes_inserted"] == 3
        assert len(service) == nodes + 3
        assert [r["nodes"] for r in ok["results"]] == [1, 2]

    def test_save_is_a_barrier(self, engine, tmp_path):
        path = tmp_path / "stats.npz"
        response = engine.request({"op": "save", "path": str(path)})
        assert response["ok"] and path.exists()
        assert response["predicates"] >= 1

    def test_shutdown_rejects_later_requests(self):
        service = make_service(seed=11)
        engine = ServiceEngine(service)
        try:
            assert engine.request({"op": "shutdown"}) == {
                "ok": True,
                "op": "shutdown",
            }
            assert engine.shutdown_event.is_set()
            late = engine.request({"op": "stats"})
            assert late["ok"] is False
            assert late["error"]["code"] == "shutting_down"
            assert "shutting down" in late["error"]["message"]
        finally:
            engine.close()
            service.close()


class TestAdmissionCoalescing:
    def test_concurrent_submits_coalesce_into_one_flush(self):
        service = make_service(seed=13)
        engine = ServiceEngine(service, max_ops=64, linger=0.25)
        try:
            nodes = len(service)
            tickets = [
                engine.submit(
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"}
                )
                for _ in range(12)
            ]
            responses = [t.wait(WAIT) for t in tickets]
            assert all(r["ok"] for r in responses)
            assert len(service) == nodes + 12
            # The linger window held the group open for all 12 ops, so
            # they applied as (nearly) one apply_batch: one WAL-unit
            # flush instead of twelve.
            assert engine.stats.flushes < 12
            assert engine.stats.largest_group >= 2
            assert max(r["coalesced"] for r in responses) >= 2
            assert engine.stats.ops_admitted == 12
        finally:
            engine.close()
            service.close()

    def test_max_ops_caps_group_size(self):
        service = make_service(seed=17)
        engine = ServiceEngine(service, max_ops=4, linger=0.25)
        try:
            tickets = [
                engine.submit(
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"}
                )
                for _ in range(10)
            ]
            for ticket in tickets:
                assert ticket.wait(WAIT)["ok"]
            assert engine.stats.largest_group <= 4
            assert engine.stats.flushes >= 3  # ceil(10 / 4)
        finally:
            engine.close()
            service.close()

    def test_control_op_is_a_barrier_between_groups(self):
        """A strong read queued between writes observes every earlier
        write and no later one, regardless of coalescing."""
        service = make_service(seed=19)
        engine = ServiceEngine(service, max_ops=64, linger=0.25)
        try:
            first = engine.submit(
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/></a>"}
            )
            barrier = engine.submit({"op": "exact", "query": "//root//a"})
            second = engine.submit(
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/></a>"}
            )
            count_mid = barrier.wait(WAIT)["value"]
            assert first.wait(WAIT)["ok"] and second.wait(WAIT)["ok"]
            count_end = engine.request({"op": "exact", "query": "//root//a"})["value"]
            assert count_end == count_mid + 1
            # The barrier split the stream: two separate flushes.
            assert engine.stats.flushes >= 2
        finally:
            engine.close()
            service.close()


class TestPerOpAttribution:
    """A grouped flush containing a poisoned op: every other client
    gets its own success, the poisoned client gets its own error, and
    the service ends bit-identical to a control service that never saw
    the failing op (the acceptance differential)."""

    def control_pair(self, seed=23):
        return make_service(seed=seed), make_service(seed=seed)

    def test_mid_group_failure_attributed_and_state_differential(self):
        import numpy as np

        service, control = self.control_pair()
        engine = ServiceEngine(service, max_ops=64, linger=0.3)
        try:
            # Two deletes of the same sole element: both resolve at
            # flush time against the group's starting state, the second
            # fails inside apply_batch, rolling the whole group back;
            # the retry pass then re-applies op-by-op.
            engine.request(
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<zz/>"}
            )
            control.insert_subtree(0, Element("zz"))
            requests = [
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/></a>"},
                {"op": "delete", "node": {"tag": "zz", "ordinal": 1}},
                {"op": "delete", "node": {"tag": "zz", "ordinal": 1}},
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<c/>"},
            ]
            tickets = [engine.submit(r) for r in requests]
            responses = [t.wait(WAIT) for t in tickets]
            assert responses[0]["ok"] and responses[0]["nodes"] == 2
            assert responses[1]["ok"] and responses[1]["nodes"] == 1
            assert responses[2]["ok"] is False  # the poisoned op
            assert "zz" in responses[2]["error"]
            assert responses[3]["ok"] and responses[3]["nodes"] == 1
            assert engine.stats.ops_failed == 1

            # Differential: the control service applies exactly the
            # acknowledged ops, one at a time, same targets.
            root = control.tree.elements[0]
            sub = Element("a")
            sub.append(Element("b"))
            control.insert_subtree(root, sub)
            zz = int(control.catalog.stats(TagPredicate("zz")).node_indices[0])
            control.delete_subtree(zz)
            control.insert_subtree(root, Element("c"))

            assert len(service) == len(control)
            assert np.array_equal(service.tree.start, control.tree.start)
            assert np.array_equal(service.tree.end, control.tree.end)
            for query in QUERIES:
                assert service.estimate(query).value == control.estimate(query).value
            service.differential_check(QUERIES)
        finally:
            engine.close()
            service.close()
            control.close()

    def test_resolution_failure_never_reaches_the_batch(self):
        service = make_service(seed=29)
        engine = ServiceEngine(service, max_ops=64, linger=0.3)
        try:
            nodes = len(service)
            tickets = [
                engine.submit(
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"}
                ),
                engine.submit({"op": "delete", "node": {"tag": "nosuch"}}),
                engine.submit(
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<b/>"}
                ),
            ]
            responses = [t.wait(WAIT) for t in tickets]
            assert responses[0]["ok"] and responses[2]["ok"]
            assert responses[1]["ok"] is False
            assert "only 0 elements with tag 'nosuch'" in responses[1]["error"]
            assert len(service) == nodes + 2
            service.differential_check(QUERIES)
        finally:
            engine.close()
            service.close()


class TestSessionCancellation:
    def test_closed_session_ops_dropped_at_flush(self):
        service = make_service(seed=31)
        engine = ServiceEngine(service, max_ops=64, linger=0.3)
        try:
            nodes = len(service)
            doomed = engine.session()
            survivor = engine.session()
            t1 = engine.submit(
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"},
                session=doomed,
            )
            t2 = engine.submit(
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<b/>"},
                session=survivor,
            )
            doomed.close()  # disconnect before the linger window ends
            r1, r2 = t1.wait(WAIT), t2.wait(WAIT)
            assert r1["ok"] is False and "disconnected" in r1["error"]
            assert r2["ok"] is True
            assert len(service) == nodes + 1  # the doomed op never admitted
            assert engine.stats.ops_cancelled == 1
            service.differential_check(QUERIES)
        finally:
            engine.close()
            service.close()

    def test_session_close_releases_pinned_snapshots(self):
        service = make_service(seed=37)
        engine = ServiceEngine(service)
        try:
            session = engine.session()
            pinned = engine.request({"op": "snapshot"}, session)
            sid = pinned["snapshot"]
            assert engine.request(
                {"op": "estimate", "query": "//a//b", "snapshot": sid}
            )["ok"]
            session.close()
            gone = engine.request({"op": "estimate", "query": "//a//b", "snapshot": sid})
            assert gone["ok"] is False and "unknown snapshot" in gone["error"]
            assert engine.request({"op": "stats"})["server"]["snapshots_pinned"] == 0
        finally:
            engine.close()
            service.close()


@pytest.fixture
def served():
    """A live TCP server over a fresh service; yields (service, engine,
    server)."""
    service = make_service(seed=41)
    engine, server = serve_forever(service, linger=0.05)
    yield service, engine, server
    server.stop()
    server.join(timeout=10)
    engine.close()
    service.close()


def raw_connection(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=WAIT)
    sock.settimeout(WAIT)
    return sock


def read_frame(fileobj) -> dict:
    line = fileobj.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line.decode("utf-8"))


class TestEstimationServer:
    def test_round_trip_every_op(self, served, tmp_path):
        service, engine, server = served
        with ServiceClient(server.host, server.port) as db:
            assert db.ping()
            weak = db.estimate(QUERIES[0])
            assert weak >= 0
            assert len(db.estimate_many(QUERIES)) == len(QUERIES)
            before_exact = db.exact("//root//a")
            result = db.insert("root", "<a><b/></a>")
            assert result["nodes"] == 2
            assert db.exact("//root//a") == before_exact + 1
            assert db.delete("a")["nodes"] >= 1
            executed = db.execute(QUERIES[0])
            assert executed["rows"] >= 0 and executed["cost"] > 0
            stats = db.stats()
            assert stats["nodes"] == len(service)
            saved = db.save(str(tmp_path / "net.npz"))
            assert saved["predicates"] >= 1 and (tmp_path / "net.npz").exists()
            batch = db.batch(
                [
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>"},
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<b/>"},
                ]
            )
            assert batch["ops"] == 2
            with pytest.raises(ServiceError, match="only 0 elements"):
                db.delete("nosuchtag")

    def test_snapshot_reads_bit_identical_under_writes(self, served):
        service, engine, server = served
        with ServiceClient(server.host, server.port) as reader, ServiceClient(
            server.host, server.port
        ) as writer:
            # Pin after a strong barrier so the pinned values are
            # deterministic, then hammer writes from the other client.
            before = {q: reader.estimate(q, strong=True) for q in QUERIES}
            with reader.snapshot() as snap:
                pinned0 = {q: snap.estimate(q) for q in QUERIES}
                assert pinned0 == before
                for seed in range(6):
                    writer.insert("root", subtree_xml(seed))
                writer.delete("root", ordinal=1) if False else None
                pinned1 = {q: snap.estimate(q) for q in QUERIES}
                assert pinned1 == pinned0  # bit-stable under writes
            with pytest.raises(ServiceError, match="unknown snapshot"):
                reader.estimate(QUERIES[0], snapshot=snap.snapshot_id)

    def test_pipelined_requests_answered_in_order(self, served):
        service, engine, server = served
        sock = raw_connection(server)
        try:
            fileobj = sock.makefile("rb")
            frames = [
                {"op": "ping", "id": 1},
                {"op": "estimate", "query": QUERIES[0], "id": 2},
                {"op": "insert", "parent": {"tag": "root"}, "xml": "<a/>", "id": 3},
                {"op": "estimate", "query": QUERIES[1], "strong": True, "id": 4},
                {"op": "stats", "id": 5},
            ]
            sock.sendall(b"".join(encode_frame(f) for f in frames))
            responses = [read_frame(fileobj) for _ in frames]
            assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
            assert all(r["ok"] for r in responses)
        finally:
            sock.close()

    def test_an_ack_means_visible(self):
        """200 x (16-op window, then an immediate *weak* estimate of a
        query the window changes): the lock-free view must already be
        on the epoch every acked op is in, i.e. equal the strong read."""
        service = make_service(seed=43)
        engine, server = serve_forever(service, max_ops=16, linger=0.005)
        sock = raw_connection(server)
        try:
            fileobj = sock.makefile("rb")
            window = b"".join(
                encode_frame(
                    {"op": "insert", "parent": {"tag": "root"}, "xml": "<a><b/></a>"}
                )
                for _ in range(16)
            )
            for _ in range(200):
                sock.sendall(window)
                assert all(read_frame(fileobj)["ok"] for _ in range(16))
                sock.sendall(encode_frame({"op": "estimate", "query": "//a//b"}))
                weak = read_frame(fileobj)
                sock.sendall(
                    encode_frame({"op": "estimate", "query": "//a//b", "strong": True})
                )
                strong = read_frame(fileobj)
                assert weak["ok"] and strong["ok"]
                assert weak["value"] == strong["value"]
        finally:
            sock.close()
            server.stop()
            server.join(timeout=10)
            engine.close()
            service.close()

    def test_malformed_frames_answered_and_connection_survives(self, served):
        service, engine, server = served
        sock = raw_connection(server)
        try:
            fileobj = sock.makefile("rb")
            bad_lines = [
                b"\xff\xfe not utf8\n",        # undecodable bytes
                b"{broken json\n",              # malformed JSON
                b"[1,2,3]\n",                   # non-object payload
                b'{"x": 1}\n',                  # missing op
                b"   \t \n",                    # bare whitespace
                b"x" * (MAX_LINE_BYTES + 64) + b"\n",  # oversized line
            ]
            for raw in bad_lines:
                sock.sendall(raw)
                response = read_frame(fileobj)
                assert response["ok"] is False, raw[:20]
                assert response["error"]
                # The connection is still serving after each bad line.
                sock.sendall(encode_frame({"op": "ping"}))
                assert read_frame(fileobj)["ok"] is True
            assert engine.stats.protocol_errors == len(bad_lines)
            # Truly blank lines are keep-alives: no response at all.
            sock.sendall(b"\n" + encode_frame({"op": "ping", "id": 99}))
            assert read_frame(fileobj)["id"] == 99
        finally:
            sock.close()

    def test_concurrent_clients_coalesce_and_match_control(self, served):
        import numpy as np

        service, engine, server = served
        control = make_service(seed=41)
        clients, ops_per_client = 8, 6
        errors = []

        def worker(k: int) -> None:
            try:
                with ServiceClient(server.host, server.port) as db:
                    for i in range(ops_per_client):
                        db.insert("root", f"<w{k}><x/></w{k}>")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert not errors
        total = clients * ops_per_client
        assert engine.stats.ops_admitted == total
        # Writers arrived concurrently, so the admission batcher did
        # strictly fewer apply_batch calls than ops.
        assert engine.stats.flushes < total
        assert engine.stats.largest_group >= 2

        # Differential: a single-caller control applying the same
        # multiset of inserts (order of same-parent appends does not
        # change any maintained statistic's *totals*).
        root = control.tree.elements[0]
        for k in range(clients):
            for _ in range(ops_per_client):
                sub = Element(f"w{k}")
                sub.append(Element("x"))
                control.insert_subtree(root, sub)
        assert len(service) == len(control)
        for k in range(clients):
            predicate = TagPredicate(f"w{k}")
            assert (
                service.catalog.stats(predicate).count
                == control.catalog.stats(predicate).count
            )
        assert np.isclose(
            service.estimate("//root//x").value,
            control.estimate("//root//x").value,
        )
        service.differential_check(QUERIES)

    def test_mid_batch_disconnect_drops_unflushed_ops(self, served):
        service, engine, server = served
        # Park the writer behind a long linger so the pipelined ops are
        # still queued when the client vanishes.
        engine.linger = 0.4
        nodes = len(service)
        sock = raw_connection(server)
        frames = [
            {"op": "insert", "parent": {"tag": "root"}, "xml": "<dd/>"}
            for _ in range(5)
        ]
        sock.sendall(b"".join(encode_frame(f) for f in frames))
        sock.close()  # vanish without reading a single response
        deadline = time.monotonic() + WAIT
        while time.monotonic() < deadline:
            if engine.stats.ops_cancelled or engine.stats.ops_admitted:
                if not engine._queue:
                    break
            time.sleep(0.02)
        # Barrier through a live client to drain whatever was admitted.
        with ServiceClient(server.host, server.port) as db:
            final = db.stats()
        cancelled = engine.stats.ops_cancelled
        admitted = engine.stats.ops_admitted
        assert cancelled + admitted == 5
        assert cancelled >= 1  # the close raced ahead of the linger
        assert final["nodes"] == nodes + admitted
        service.differential_check(QUERIES)

    def test_shutdown_stops_the_listener(self, served):
        service, engine, server = served
        with ServiceClient(server.host, server.port) as db:
            assert db.shutdown() == {"ok": True, "op": "shutdown"}
        assert engine.shutdown_event.wait(WAIT)
        server.join(timeout=WAIT)
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=2.0)

    def test_eof_mid_line_answers_nothing_and_cleans_up(self, served):
        service, engine, server = served
        sock = raw_connection(server)
        sock.sendall(b'{"op": "ping"')  # no newline, then vanish
        sock.close()
        # The server must survive; a new connection still round-trips.
        with ServiceClient(server.host, server.port) as db:
            assert db.ping()


class TestParseListen:
    def test_port_only_defaults_host(self):
        assert parse_listen("9630") == ("127.0.0.1", 9630)

    def test_host_and_port(self):
        assert parse_listen("0.0.0.0:7") == ("0.0.0.0", 7)

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed --listen"):
            parse_listen("nope")
        with pytest.raises(ValueError, match="malformed --listen"):
            parse_listen("host:port")
