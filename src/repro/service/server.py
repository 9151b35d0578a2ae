"""Concurrent serve tier: admission batching + asyncio TCP front-end.

Two classes promote :class:`~repro.service.service.EstimationService`
from a single-caller library into a multi-client server:

* :class:`ServiceEngine` -- the **admission batcher**.  One dedicated
  writer thread owns every state transition of the service.  Concurrent
  writers submit individual ``insert``/``delete`` requests; the writer
  drains whatever is queued (up to ``max_ops``, optionally lingering
  ``linger`` seconds for stragglers) and applies the group as **one**
  :meth:`~repro.service.service.EstimationService.apply_batch` call --
  one WAL record and one fsync for the whole group, which is where the
  multi-client throughput win comes from.  Responses stay per-request:
  when a grouped flush fails, the group is retried one op at a time
  (the rollback left the service bit-identical to its pre-batch state),
  so every client learns the fate of exactly its own op and the state
  ends as if the failing ops were never admitted.

  Reads never enter that queue: ``estimate`` runs lock-free against the
  engine's *read view* -- a pinned
  :class:`~repro.service.snapshot.ServiceSnapshot` the writer refreshes
  (O(1), epoch pin swap) after each flush -- or against a client-pinned
  snapshot (``snapshot``/``release``), so they never block behind a
  writer.  ``estimate`` with ``"strong": true``, ``exact``, ``execute``,
  ``stats``, ``save``, ``snapshot`` and ``shutdown`` are *barriers*:
  they queue behind (and first flush) every earlier-admitted write,
  giving read-your-writes to the session that issued them.

* :class:`EstimationServer` -- the asyncio TCP front-end speaking the
  line-delimited JSON protocol of :mod:`repro.service.protocol`.  Each
  connection may pipeline requests; responses are written strictly in
  request order.  A malformed frame produces one error frame and the
  connection keeps serving.  Disconnecting releases the session's
  pinned snapshots and *cancels* its queued-but-unflushed writes --
  they are dropped at flush time as if never admitted.

The stdin ``serve`` loop and the ``client`` subcommand drive the same
:meth:`ServiceEngine.request` entry point, so the interactive command
language and the network protocol cannot drift apart.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.predicates.base import TagPredicate
from repro.service.batch import BatchError, DeleteOp, InsertOp, NodeRef
from repro.service.faults import NET_RECV, NET_SEND
from repro.service.protocol import (
    MAX_LINE_BYTES,
    OverloadedError,
    ProtocolError,
    ReadOnlyError,
    ShuttingDownError,
    StaleLsnError,
    decode_frame,
    encode_frame,
    error_response,
    exception_response,
)

#: Idle-stream heartbeat: a subscribed follower receives at least one
#: frame this often, carrying the primary's committed LSN (the lag
#: yardstick) and doubling as the dead-primary detector.
REPL_KEEPALIVE_SECONDS = 0.5
#: Raw payload bytes per ``repl.record`` frame.  Base64 inflates by 4/3
#: and followers refuse any line over ``MAX_LINE_BYTES`` (1 MiB), while
#: admission batching can coalesce many near-cap client ops into ONE
#: WAL record -- so large records ship as a chunk sequence (``more``
#: marks every frame but the last) the follower reassembles by LSN.
#: 512 KiB raw -> ~683 KiB encoded, comfortably under the line cap.
REPL_RECORD_CHUNK_BYTES = 512 * 1024
from repro.xmltree.parser import parse_document


def _locate(service, target: dict) -> int:
    """Pre-order index of an update target description.

    ``{"index": i}`` is taken literally; ``{"tag": t, "ordinal": k}``
    finds the k-th element (1-based, default 1) with the tag, with the
    same wording the serve loop has always used for misses.
    """
    if not isinstance(target, dict):
        raise ValueError(f"malformed target {target!r}")
    if "index" in target:
        index = int(target["index"])
        if not 0 <= index < len(service.tree):
            raise IndexError(f"node index {index} outside the tree")
        return index
    tag = target.get("tag")
    if not isinstance(tag, str) or not tag:
        raise ValueError(f"malformed target {target!r}")
    ordinal = int(target.get("ordinal", 1))
    if ordinal < 1:
        raise ValueError(f"ordinal must be >= 1, got {ordinal}")
    indices = service.catalog.stats(TagPredicate(tag)).node_indices
    if len(indices) < ordinal:
        raise ValueError(
            f"only {len(indices)} elements with tag {tag!r} (wanted #{ordinal})"
        )
    return int(indices[ordinal - 1])


def _detached_subtree(xml: str):
    """Parse an XML snippet into a detached element ready to insert."""
    snippet = parse_document(xml)
    subtree = snippet.root_element
    snippet.children.remove(subtree)
    subtree.parent = None
    return subtree


@dataclass
class OpSpec:
    """One admitted update, resolved lazily at flush time.

    Targets are descriptions (tag/ordinal or index), not node handles:
    they resolve in the writer thread against the database state the
    flush starts from, exactly like the batched serve loop always has.
    The XML of an insert is validated at admission (the submitting
    client gets the parse error) but re-parsed at each resolution, so a
    retry after a rolled-back group always splices fresh elements.
    """

    kind: str  # "insert" | "delete"
    target: dict
    xml: Optional[str] = None
    position: Optional[int] = None

    @classmethod
    def from_request(cls, request: dict) -> "OpSpec":
        op = request["op"]
        if op == "insert":
            xml = request.get("xml")
            if not isinstance(xml, str) or not xml.strip():
                raise ValueError('insert needs an "xml" snippet')
            parse_document(xml)  # admission-time validation
            position = request.get("position")
            return cls(
                "insert",
                request.get("parent", {}),
                xml=xml,
                position=None if position is None else int(position),
            )
        if op == "delete":
            return cls("delete", request.get("node", {}))
        raise ValueError(f"not an update op: {op!r}")

    def resolve(self, service) -> tuple[Any, int]:
        """``(InsertOp | DeleteOp, node_count)`` against the current tree.

        Pre-batch :class:`~repro.service.batch.NodeRef` targets (not
        raw indices) go into the batch op, so a grouped flush keeps
        targeting the right nodes however earlier ops of the same group
        shift the numbering.
        """
        index = _locate(service, self.target)
        if self.kind == "insert":
            subtree = _detached_subtree(self.xml)
            return (
                InsertOp(NodeRef(index), subtree, self.position),
                sum(1 for _ in subtree.iter()),
            )
        sub = service.tree.subtree_slice(index)
        return DeleteOp(NodeRef(index)), sub.stop - sub.start


class Ticket:
    """One queued request: the submitter blocks (or registers a
    callback) until the writer thread resolves it with a response."""

    __slots__ = ("request", "spec", "specs", "session", "response", "_event", "_callback")

    def __init__(
        self,
        request: dict,
        *,
        spec: Optional[OpSpec] = None,
        specs: Optional[list[OpSpec]] = None,
        session: Optional["Session"] = None,
        callback: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.request = request
        self.spec = spec
        self.specs = specs
        self.session = session
        self.response: Optional[dict] = None
        self._event = threading.Event()
        self._callback = callback

    def resolve(self, response: dict) -> None:
        if "id" not in response and "id" in self.request:
            response["id"] = self.request["id"]
        self.response = response
        self._event.set()
        if self._callback is not None:
            self._callback(response)

    def wait(self, timeout: Optional[float] = None) -> dict:
        if not self._event.wait(timeout):
            raise TimeoutError("request timed out waiting for the writer thread")
        return self.response  # type: ignore[return-value]


class Session:
    """Per-client state: liveness and the snapshots the client pinned.

    ``closed`` is the cancellation signal: the writer thread drops a
    closed session's queued updates at flush time, so a disconnect
    leaves the service as if those ops were never admitted.
    """

    __slots__ = ("engine", "closed", "snapshot_ids", "_lock")

    def __init__(self, engine: "ServiceEngine") -> None:
        self.engine = engine
        self.closed = False
        self.snapshot_ids: set[int] = set()
        self._lock = threading.Lock()

    def close(self) -> None:
        self.closed = True
        with self._lock:
            sids = list(self.snapshot_ids)
            self.snapshot_ids.clear()
        for sid in sids:
            self.engine._drop_snapshot(sid)


@dataclass
class EngineStats:
    """Admission-tier counters (the service keeps its own)."""

    requests: int = 0
    flushes: int = 0
    ops_admitted: int = 0
    ops_failed: int = 0
    ops_cancelled: int = 0
    ops_deduped: int = 0
    ops_rejected: int = 0
    sessions_evicted: int = 0
    largest_group: int = 0
    view_refreshes: int = 0
    protocol_errors: int = 0


#: Ops executed inline by the submitting thread, never queued.  Health
#: is deliberately immediate: it must answer even when the writer is
#: wedged behind a slow flush or the service is degraded.
_IMMEDIATE_OPS = frozenset({"ping", "release", "health"})
#: Ops the writer thread runs as barriers (pending writes flush first).
_CONTROL_OPS = frozenset(
    {"estimate", "exact", "execute", "stats", "save", "snapshot", "batch",
     "resume", "shutdown"}
)


class ServiceEngine:
    """Single-writer admission engine over one ``EstimationService``.

    All mutation flows through one writer thread; reads run on the
    calling thread against pinned epoch views.  ``max_ops`` caps the
    ops coalesced into one ``apply_batch`` call; ``linger`` (seconds,
    ``None`` = greedy) holds a non-full group open for stragglers once
    at least one op is pending.

    ``max_queue`` bounds the admission queue: past the high-water mark
    ``submit`` fast-rejects with :class:`OverloadedError` instead of
    letting one fast writer grow the queue without limit.
    ``dedup_window`` sizes the idempotency LRU -- the last N committed
    request keys with their recorded replies, so a client retry of an
    acked-but-lost mutation replays the reply instead of re-applying.
    """

    def __init__(
        self,
        service,
        *,
        max_ops: int = 64,
        linger: Optional[float] = None,
        max_queue: Optional[int] = None,
        dedup_window: int = 1024,
    ) -> None:
        if max_ops < 1:
            raise ValueError("max_ops must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.service = service
        self.max_ops = max_ops
        self.linger = linger if linger else None
        self.max_queue = max_queue
        self.dedup_window = max(0, int(dedup_window))
        #: Idempotency LRU: key -> recorded success reply.  Touched only
        #: by the writer thread (flush paths), so it needs no lock.
        self._dedup: "OrderedDict[str, dict]" = OrderedDict()
        self.stats = EngineStats()
        self.shutdown_event = threading.Event()
        self._on_shutdown: list[Callable[[], None]] = []
        self._cond = threading.Condition()
        self._queue: list[Ticket] = []
        self._stopping = False
        self._failed: Optional[BaseException] = None
        self._snapshots: dict[int, Any] = {}
        self._snapshot_ids = itertools.count(1)
        self._repl_hub = None
        self._repl_lock = threading.Lock()
        self._view = service.snapshot()
        self._writer = threading.Thread(
            target=self._run, name="admission-writer", daemon=True
        )
        self._writer.start()

    # -- public API --------------------------------------------------------

    def session(self) -> Session:
        return Session(self)

    @property
    def mode(self) -> str:
        """``SERVING`` | ``DEGRADED`` | ``SHUTTING_DOWN`` -- the health
        state machine (shutdown wins: a degraded service draining for
        exit reports SHUTTING_DOWN)."""
        if self._stopping:
            return "SHUTTING_DOWN"
        if getattr(self.service, "degraded", False):
            return "DEGRADED"
        return "SERVING"

    def request(self, request: dict, session: Optional[Session] = None) -> dict:
        """Synchronous dispatch: immediate ops run inline, everything
        else queues to the writer thread and blocks for the response."""
        try:
            op = request.get("op")
            if not isinstance(op, str):
                raise ProtocolError('request is missing a string "op" field')
            if op in _IMMEDIATE_OPS or (op == "estimate" and self._is_weak(request)):
                self.stats.requests += 1
                return self._immediate(request, session)
            return self.submit(request, session).wait()
        except Exception as exc:
            return exception_response(exc, request)

    def submit(
        self,
        request: dict,
        session: Optional[Session] = None,
        callback: Optional[Callable[[dict], None]] = None,
    ) -> Ticket:
        """Queue one request for the writer thread.

        Raises on malformed requests (the op never queues); the ticket
        resolves with the response once the writer reaches it.
        """
        op = request.get("op")
        self.stats.requests += 1
        if op in ("insert", "delete"):
            ticket = Ticket(
                request,
                spec=OpSpec.from_request(request),
                session=session,
                callback=callback,
            )
        elif op == "batch":
            ops = request.get("ops")
            if not isinstance(ops, list):
                raise ValueError('batch needs an "ops" list')
            specs = [OpSpec.from_request(entry) for entry in ops]
            ticket = Ticket(request, specs=specs, session=session, callback=callback)
        elif op in _CONTROL_OPS:
            ticket = Ticket(request, session=session, callback=callback)
        else:
            raise ProtocolError(f"unknown op {op!r}")
        with self._cond:
            if self._failed is not None:
                raise RuntimeError(f"admission writer died: {self._failed}")
            if self._stopping:
                raise ShuttingDownError("service is shutting down")
            if self.max_queue is not None and len(self._queue) >= self.max_queue:
                self.stats.ops_rejected += 1
                raise OverloadedError(
                    f"admission queue at its high-water mark ({self.max_queue})",
                    retry_after_ms=50.0,
                )
            self._queue.append(ticket)
            self._cond.notify_all()
        return ticket

    @property
    def replication_hub(self):
        """The primary-side streaming hub, created on first use.

        ``None`` when the service has no WAL attached -- replication
        needs a log to ship.
        """
        if self._repl_hub is None and getattr(self.service, "wal_attached", False):
            with self._repl_lock:
                if self._repl_hub is None:
                    from repro.service.replica import ReplicationHub

                    self._repl_hub = ReplicationHub(self.service)
        return self._repl_hub

    def on_shutdown(self, callback: Callable[[], None]) -> None:
        """Register a callable fired once when ``shutdown`` is admitted."""
        self._on_shutdown.append(callback)

    def close(self) -> None:
        """Stop the writer (flushing admitted work) and drop all pins."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        self._writer.join(timeout=60)
        for sid in list(self._snapshots):
            self._drop_snapshot(sid)
        if self._view is not None:
            self._view.close()
            self._view = None

    # -- immediate (lock-free) ops -----------------------------------------

    def _is_weak(self, request: dict) -> bool:
        return not request.get("strong") or "snapshot" in request

    def _immediate(self, request: dict, session: Optional[Session]) -> dict:
        response = self._immediate_response(request, session)
        if "id" not in response and "id" in request:
            response["id"] = request["id"]
        return response

    def _immediate_response(self, request: dict, session: Optional[Session]) -> dict:
        op = request["op"]
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "health":
            return self._health_response()
        if op == "release":
            sid = int(request.get("snapshot", 0))
            if not self._drop_snapshot(sid):
                return error_response(f"unknown snapshot {sid}", request)
            if session is not None:
                with session._lock:
                    session.snapshot_ids.discard(sid)
            return {"ok": True, "op": "release", "snapshot": sid}
        # weak estimate: current read view or a client-pinned snapshot
        if "snapshot" in request:
            view = self._snapshots.get(int(request["snapshot"]))
            if view is None:
                return error_response(
                    f"unknown snapshot {request['snapshot']}", request
                )
        else:
            view = self._view
        return self._estimate_on(view, request)

    def _health_response(self) -> dict:
        """Liveness + mode + load, served without touching the queue.

        Reads racy counters without the condition lock -- health must
        answer while the writer is mid-flush or wedged, and a depth off
        by one is fine for an operator signal.
        """
        service = self.service
        wal: dict[str, Any] = {"attached": service.wal_attached}
        if service.wal_attached:
            wal["lag"] = int(service._last_lsn - service._last_checkpoint_lsn)
            wal["last_lsn"] = int(service._last_lsn)
        else:
            wal["lag"] = 0
        response: dict[str, Any] = {
            "ok": True,
            "op": "health",
            "mode": self.mode,
            "queue_depth": len(self._queue),
            "epoch": int(service.epoch),
            "wal": wal,
            "last_committed_lsn": int(service._last_lsn),
        }
        replication = self._replication_status()
        if replication is not None:
            response["replication"] = replication
        if getattr(service, "degraded", False):
            response["degraded_reason"] = service.degraded_reason
        return response

    def _replication_status(self) -> Optional[dict]:
        """Role + lag, for health/stats.  ``None`` off the replication
        paths (a plain primary with no subscribers stays quiet)."""
        service = self.service
        status = getattr(service, "replica_status", None)
        if getattr(service, "follower_of", None) is not None:
            out: dict[str, Any] = {
                "role": "follower",
                "primary": service.follower_of,
                "last_applied_lsn": int(service._last_lsn),
            }
            if status is not None:
                source = int(status.get("source_committed_lsn", service._last_lsn))
                lag = max(0, source - int(service._last_lsn))
                out["replica_lag_lsns"] = lag
                applied_at = status.get("applied_at")
                if lag > 0 and applied_at is not None:
                    out["replica_lag_seconds"] = max(0.0, time.time() - applied_at)
                else:
                    out["replica_lag_seconds"] = 0.0
                out["connected"] = bool(status.get("connected", False))
                if status.get("error"):
                    out["error"] = str(status["error"])
            return out
        hub = self._repl_hub
        if hub is not None and hub.subscriber_count > 0:
            return {"role": "primary", "subscribers": hub.subscriber_count}
        return None

    @staticmethod
    def _estimate_on(view, request: dict) -> dict:
        queries = request.get("queries")
        if queries is not None:
            results = view.estimate_many(list(queries))
            return {"ok": True, "values": [r.value for r in results]}
        query = request.get("query")
        if not query:
            raise ValueError("usage: estimate <query>")
        result = view.estimate(query)
        return {"ok": True, "value": result.value, "epoch": view.epoch}

    # -- writer thread -----------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                group, control = self._collect()
                if group:
                    self._flush_group(group)
                elif control is not None:
                    self._execute_control(control)
                else:
                    return  # stopping, queue drained
        except BaseException as exc:  # pragma: no cover - defensive
            with self._cond:
                self._failed = exc
                pending, self._queue = self._queue, []
            for ticket in pending:
                ticket.resolve(error_response(f"admission writer died: {exc}"))
            raise

    def _collect(self) -> tuple[list[Ticket], Optional[Ticket]]:
        """Block until work is available.

        Returns ``(update_group, None)`` or ``([], control_ticket)``;
        ``([], None)`` only when stopping with an empty queue.  Updates
        accumulate until the group is full, a control op is next (it
        must observe the flush), or the queue drains (after ``linger``
        seconds, when configured).
        """
        group: list[Ticket] = []
        deadline: Optional[float] = None
        with self._cond:
            while True:
                while self._queue and len(group) < self.max_ops:
                    head = self._queue[0]
                    if head.request["op"] not in ("insert", "delete"):
                        if group:
                            return group, None
                        return [], self._queue.pop(0)
                    group.append(self._queue.pop(0))
                if len(group) >= self.max_ops:
                    return group, None
                if group:
                    if self.linger is None or self._stopping:
                        return group, None
                    if deadline is None:
                        deadline = time.monotonic() + self.linger
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return group, None
                    self._cond.wait(remaining)
                else:
                    if self._stopping:
                        return [], None
                    self._cond.wait()

    def _live(self, group: list[Ticket]) -> list[Ticket]:
        """Drop ops whose client went away before the flush."""
        live = []
        for ticket in group:
            if ticket.session is not None and ticket.session.closed:
                self.stats.ops_cancelled += 1
                ticket.resolve(
                    error_response("client disconnected before admission", ticket.request)
                )
            else:
                live.append(ticket)
        return live

    # -- idempotent dedup (writer thread only) ------------------------------

    @staticmethod
    def _idem_key(request: dict) -> Optional[str]:
        key = request.get("idem")
        return key if isinstance(key, str) and key else None

    def _dedup_record(self, request: dict, response: dict) -> None:
        """Remember a *committed* reply under its idempotency key.

        Only success replies are recorded: a failed op was never
        applied, so retrying it is safe and should really retry.  The
        stored copy drops ``id`` (each delivery echoes its own).
        """
        key = self._idem_key(request)
        if key is None or self.dedup_window == 0 or not response.get("ok"):
            return
        self._dedup[key] = {k: v for k, v in response.items() if k != "id"}
        self._dedup.move_to_end(key)
        while len(self._dedup) > self.dedup_window:
            self._dedup.popitem(last=False)

    def _dedup_replay(self, ticket: Ticket) -> bool:
        """Replay the recorded reply for a retried key, if one exists."""
        key = self._idem_key(ticket.request)
        if key is None:
            return False
        stored = self._dedup.get(key)
        if stored is None:
            return False
        self._dedup.move_to_end(key)
        self.stats.ops_deduped += 1
        response = dict(stored)
        response["deduped"] = True
        ticket.resolve(response)
        return True

    def _finish_op(self, ticket: Ticket, nodes: int, rebuilt: bool, coalesced: int) -> None:
        response = self._op_response(ticket, nodes, rebuilt, coalesced)
        self._dedup_record(ticket.request, response)
        ticket.resolve(response)

    def _flush_group(self, group: list[Ticket]) -> None:
        """One coalesced ``apply_batch`` for a group of single-op tickets,
        with per-op attribution on failure."""
        service = self.service
        if getattr(service, "degraded", False):
            # Sticky read-only: reject the whole group fast (dedup
            # still replays committed retries -- they *did* apply).
            for ticket in self._live(group):
                if self._dedup_replay(ticket):
                    continue
                self.stats.ops_failed += 1
                ticket.resolve(error_response(ReadOnlyError(
                    f"service is read-only (degraded): {service.degraded_reason}"
                ), ticket.request))
            return
        resolved: list[tuple[Ticket, Any, int]] = []
        deferred: list[Ticket] = []
        group_keys: set[str] = set()
        for ticket in self._live(group):
            if self._dedup_replay(ticket):
                continue
            key = self._idem_key(ticket.request)
            if key is not None:
                if key in group_keys:
                    # Duplicate key *within* this group: hold it back
                    # until the first instance commits, then replay.
                    deferred.append(ticket)
                    continue
                group_keys.add(key)
            try:
                op, nodes = ticket.spec.resolve(service)
            except Exception as exc:
                self.stats.ops_failed += 1
                ticket.resolve(exception_response(exc, ticket.request))
                continue
            resolved.append((ticket, op, nodes))
        # Every ack below is sent only after the read view moved to the
        # epoch that holds its op: an ack means visible.
        if resolved:
            try:
                result = service.apply_batch([op for _, op, _ in resolved])
            except BatchError as exc:
                if exc.applied:
                    # Every op applied; only the summary flush failed and
                    # the service re-synchronised with a rebuild.  Report
                    # success.
                    self._record_flush(len(resolved))
                    self._refresh_view()
                    for ticket, _, nodes in resolved:
                        self._finish_op(ticket, nodes, True, len(resolved))
                else:
                    self._retry_singly([t for t, _, _ in resolved])
            except Exception:
                # First-op failure: apply_batch re-raised the original
                # error with the pre-batch state restored (a WAL append
                # failure degrades the service and applies nothing --
                # the singly retries then get coded read_only errors).
                self._retry_singly([t for t, _, _ in resolved])
            else:
                self._record_flush(result.ops)
                self._refresh_view()
                for ticket, _, nodes in resolved:
                    self._finish_op(ticket, nodes, result.rebuilt, result.ops)
        if deferred:
            self._retry_singly(deferred)

    def _retry_singly(self, tickets: list[Ticket]) -> None:
        """A grouped flush was rolled back (state bit-identical to
        pre-batch, so the read view is still current); re-apply one op
        at a time so each client learns the fate of exactly its own op
        and failing ops are never admitted."""
        service = self.service
        for ticket in tickets:
            if self._dedup_replay(ticket):
                continue
            try:
                op, nodes = ticket.spec.resolve(service)
                result = service.apply_batch([op])
            except Exception as exc:
                if getattr(exc, "applied", False):
                    self._refresh_view()  # the op stayed applied
                self.stats.ops_failed += 1
                ticket.resolve(exception_response(exc, ticket.request))
                continue
            self._record_flush(result.ops)
            self._refresh_view()
            self._finish_op(ticket, nodes, result.rebuilt, result.ops)

    @staticmethod
    def _op_response(ticket: Ticket, nodes: int, rebuilt: bool, coalesced: int) -> dict:
        return {
            "ok": True,
            "op": ticket.request["op"],
            "nodes": nodes,
            "rebuilt": rebuilt,
            "coalesced": coalesced,
        }

    def _record_flush(self, ops: int) -> None:
        self.stats.flushes += 1
        self.stats.ops_admitted += ops
        self.stats.largest_group = max(self.stats.largest_group, ops)

    def _refresh_view(self) -> None:
        """Swap the lock-free read view to the just-published epoch.

        O(1): snapshot construction pins the new epoch, the swap is one
        reference assignment, and closing the old view only drops its
        pin (readers mid-estimate on it keep answering -- a closed
        snapshot stays fully readable)."""
        old = self._view
        self._view = self.service.snapshot()
        self.stats.view_refreshes += 1
        if old is not None:
            old.close()

    # -- barrier ops -------------------------------------------------------

    def _execute_control(self, ticket: Ticket) -> None:
        try:
            response = self._control_response(ticket)
        except Exception as exc:
            response = exception_response(exc, ticket.request)
        ticket.resolve(response)
        if ticket.request["op"] == "shutdown" and response.get("ok"):
            # Fire the teardown hooks only after the requester has its
            # response in hand, so the acknowledgment can flush before
            # the front-end starts closing connections.
            self.shutdown_event.set()
            for callback in self._on_shutdown:
                callback()

    def _control_response(self, ticket: Ticket) -> dict:
        service = self.service
        request = ticket.request
        op = request["op"]
        if op == "estimate":
            return self._estimate_on(service, request)
        if op == "exact":
            query = request.get("query")
            if not query:
                raise ValueError("usage: exact <query>")
            return {"ok": True, "value": int(service.real_answer(query))}
        if op == "execute":
            query = request.get("query")
            if not query:
                raise ValueError("usage: execute <query>")
            outcome = service.execute(query)
            return {
                "ok": True,
                "rows": len(outcome.bindings),
                "cost": float(outcome.choice.best.total),
            }
        if op == "stats":
            stats = self.stats
            replication = self._replication_status()
            return {
                "ok": True,
                "nodes": len(service),
                "predicates": len(service.catalog),
                "dirty": service.dirty_fraction,
                "rebuilds": service.stats.rebuilds,
                "epoch": service.epoch,
                "mode": self.mode,
                **({"replication": replication} if replication else {}),
                "last_committed_lsn": int(service._last_lsn),
                "server": {
                    "requests": stats.requests,
                    "flushes": stats.flushes,
                    "ops_admitted": stats.ops_admitted,
                    "ops_failed": stats.ops_failed,
                    "ops_cancelled": stats.ops_cancelled,
                    "ops_deduped": stats.ops_deduped,
                    "ops_rejected": stats.ops_rejected,
                    "sessions_evicted": stats.sessions_evicted,
                    "largest_group": stats.largest_group,
                    "snapshots_pinned": len(self._snapshots),
                },
            }
        if op == "save":
            path = request.get("path")
            if not path:
                raise ValueError("usage: save <path.npz>")
            written = service.save_statistics(path)
            return {"ok": True, "predicates": written, "path": str(path)}
        if op == "snapshot":
            snap = service.snapshot()
            sid = next(self._snapshot_ids)
            self._snapshots[sid] = snap
            if ticket.session is not None:
                with ticket.session._lock:
                    ticket.session.snapshot_ids.add(sid)
            return {"ok": True, "snapshot": sid, "epoch": snap.epoch}
        if op == "batch":
            return self._apply_batch_request(ticket)
        if op == "resume":
            result = service.resume_writes()
            self._refresh_view()
            return {"ok": True, "op": "resume", **result}
        if op == "shutdown":
            with self._cond:
                self._stopping = True
                self._cond.notify_all()
            return {"ok": True, "op": "shutdown"}
        raise ProtocolError(f"unknown op {op!r}")

    def _apply_batch_request(self, ticket: Ticket) -> dict:
        """An explicit ``batch`` request: all-or-nothing admission.

        Any resolution or operation failure rejects the whole batch and
        the service stays (bit-identically) as if it was never
        admitted -- the semantics the batched serve loop has always
        had.  The whole batch is one WAL record + one fsync.
        """
        service = self.service
        key = self._idem_key(ticket.request)
        if key is not None:
            stored = self._dedup.get(key)
            if stored is not None:
                # Retried batch whose first delivery committed: replay.
                self._dedup.move_to_end(key)
                self.stats.ops_deduped += 1
                return {**stored, "deduped": True}
        ops = []
        nodes = []
        for spec in ticket.specs or []:
            op, count = spec.resolve(service)
            ops.append(op)
            nodes.append(count)
        if not ops:
            return {"ok": True, "op": "batch", "results": [], "ops": 0,
                    "nodes_inserted": 0, "nodes_deleted": 0, "rebuilt": False}
        result = service.apply_batch(ops)
        self._record_flush(result.ops)
        self._refresh_view()
        response = {
            "ok": True,
            "op": "batch",
            "ops": result.ops,
            "inserts": result.inserts,
            "deletes": result.deletes,
            "nodes_inserted": result.nodes_inserted,
            "nodes_deleted": result.nodes_deleted,
            "rebuilt": result.rebuilt,
            "results": [
                {"ok": True, "nodes": count, "rebuilt": result.rebuilt}
                for count in nodes
            ],
        }
        self._dedup_record(ticket.request, response)
        return response

    def _drop_snapshot(self, sid: int) -> bool:
        snap = self._snapshots.pop(sid, None)
        if snap is None:
            return False
        snap.close()  # idempotent + thread-safe
        return True


class EstimationServer:
    """Asyncio TCP front-end for a :class:`ServiceEngine`.

    Runs its event loop on a dedicated thread so the synchronous CLI
    can keep its stdin session on the main thread.  Per connection,
    requests may pipeline; responses are written strictly in request
    order.  Queued ops resolve through thread-safe callbacks into the
    loop; weak reads run on the default executor so estimation work
    never stalls the loop.

    ``client_timeout`` (seconds) evicts a stalled client: a connection
    that sends nothing for that long is closed and its unflushed ops
    are cancelled through the :class:`Session` path.  ``max_inflight``
    caps queued requests per connection (excess gets an ``overloaded``
    fast-reject frame, the connection stays usable).  ``drain_timeout``
    bounds how long teardown waits for the responder to flush pending
    replies before cancelling it.  ``faults`` arms a
    :class:`~repro.service.faults.FaultPlan` over the network points.
    """

    def __init__(
        self,
        engine: ServiceEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_timeout: float = 5.0,
        client_timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
        faults=None,
    ) -> None:
        if drain_timeout <= 0:
            raise ValueError("drain_timeout must be > 0")
        if client_timeout is not None and client_timeout <= 0:
            raise ValueError("client_timeout must be > 0")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.engine = engine
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.client_timeout = client_timeout
        self.max_inflight = max_inflight
        self.faults = faults
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._thread_main, name="estimation-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        self.engine.on_shutdown(self.stop)

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - startup races
            self._startup_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._connections: set = set()
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=2 * MAX_LINE_BYTES,
        )
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Graceful drain: connections that already have their final
            # responses (e.g. the shutdown acknowledgment) get a moment
            # to flush and see the client hang up; stragglers are cut.
            if self._connections:
                done, pending = await asyncio.wait(
                    self._connections, timeout=1.0
                )
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)

    # -- per-connection ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        engine = self.engine
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        session = engine.session()
        responses: asyncio.Queue = asyncio.Queue()
        responder = asyncio.create_task(self._respond(responses, writer))
        # The outer except absorbs teardown cancellation so the task
        # ends cleanly (asyncio's stream machinery re-raises a stored
        # CancelledError noisily otherwise); state is released in the
        # inner finally either way.
        try:
            subscribe = await self._connection_loop(
                engine, loop, session, reader, responses
            )
            if subscribe is not None:
                # Replication handover: flush the request/response
                # pipeline (the subscribe handshake rides out with it),
                # then the connection becomes a one-way record stream.
                responses.put_nowait(None)
                try:
                    await asyncio.wait_for(responder, timeout=self.drain_timeout)
                    drained = True
                except BaseException:
                    responder.cancel()
                    await asyncio.gather(responder, return_exceptions=True)
                    drained = False
                responder = None
                if drained:
                    await self._stream_replication(reader, writer, subscribe)
        except asyncio.CancelledError:
            pass
        finally:
            session.close()
            if responder is not None:
                responses.put_nowait(None)
                try:
                    await asyncio.wait_for(responder, timeout=self.drain_timeout)
                except BaseException:
                    # Timeout (wait_for already cancelled it), teardown
                    # cancellation, or a responder crash: make sure the
                    # task is cancelled AND awaited, so a slow client
                    # never leaks a responder still pending on its queue.
                    responder.cancel()
                    await asyncio.gather(responder, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except BaseException:
                pass
            if task is not None:
                self._connections.discard(task)

    async def _connection_loop(
        self, engine, loop, session, reader, responses
    ) -> None:
        """Read frames until EOF, dispatching each in request order.

        The per-connection in-flight count lives in a one-cell list
        mutated only on the loop thread: incremented at dispatch,
        decremented by each future's done callback (``call_soon`` runs
        those on the loop thread too), so it needs no lock.
        """
        inflight = [0]
        while True:
            if self.client_timeout is not None:
                try:
                    raw = await asyncio.wait_for(
                        self._read_line(reader), timeout=self.client_timeout
                    )
                except asyncio.TimeoutError:
                    # Stalled client: evict.  The finally in the handler
                    # closes the session, cancelling unflushed ops.
                    engine.stats.sessions_evicted += 1
                    break
            else:
                raw = await self._read_line(reader)
            if raw is None:
                break
            if raw == b"" or raw == b"\n":
                continue  # blank keep-alive line
            if self.faults is not None:
                rule = self.faults.network(NET_RECV, len(raw))
                if rule is not None:
                    if rule.action in ("stall", "delay"):
                        await asyncio.sleep(rule.delay)
                    else:
                        break  # injected disconnect after the read
            fut = loop.create_future()
            await responses.put(fut)
            try:
                request = decode_frame(raw)
            except ProtocolError as exc:
                engine.stats.protocol_errors += 1
                fut.set_result(error_response(str(exc)))
                continue
            op = request.get("op")
            if isinstance(op, str) and op.startswith("repl."):
                if op == "repl.subscribe":
                    # Off the loop: the handshake's base_lsn() poll (and
                    # a first access constructing the hub's WalTailer)
                    # re-reads the whole log after a compaction swap.
                    handshake = await loop.run_in_executor(
                        None, self._subscribe_handshake, request
                    )
                    fut.set_result(handshake)
                    if handshake.get("ok"):
                        # Hand the connection over to the record stream.
                        return request
                    continue
                if op in ("repl.manifest", "repl.fetch"):
                    self._dispatch_replication(loop, fut, request)
                    continue
                engine.stats.protocol_errors += 1
                fut.set_result(error_response(f"unknown op {op!r}", request))
                continue
            if op in _IMMEDIATE_OPS or (
                op == "estimate" and engine._is_weak(request)
            ):
                engine.stats.requests += 1
                self._dispatch_immediate(loop, fut, request, session)
                continue
            if (
                self.max_inflight is not None
                and inflight[0] >= self.max_inflight
            ):
                engine.stats.ops_rejected += 1
                fut.set_result(error_response(OverloadedError(
                    f"connection already has {inflight[0]} requests in "
                    f"flight (cap {self.max_inflight})",
                    retry_after_ms=50.0,
                ), request))
                continue
            inflight[0] += 1
            fut.add_done_callback(
                lambda _f: inflight.__setitem__(0, inflight[0] - 1)
            )
            try:
                engine.submit(
                    request,
                    session,
                    callback=lambda resp, f=fut: self._fulfil_threadsafe(
                        loop, f, resp
                    ),
                )
            except Exception as exc:
                self._fulfil(fut, exception_response(exc, request))

    @staticmethod
    def _fulfil(fut: "asyncio.Future", response: dict) -> None:
        if not fut.done():
            fut.set_result(response)

    @classmethod
    def _fulfil_threadsafe(cls, loop, fut: "asyncio.Future", response: dict) -> None:
        """Resolve a connection future from the writer thread.

        The loop may already be closed when an op outlives its server
        (teardown under drain_timeout, or engine.close flushing after
        server shutdown); the client is gone either way, so the
        response is simply dropped.
        """
        try:
            loop.call_soon_threadsafe(cls._fulfil, fut, response)
        except RuntimeError:
            pass

    def _dispatch_immediate(self, loop, fut, request: dict, session: Session) -> None:
        def work() -> dict:
            try:
                return self.engine._immediate(request, session)
            except Exception as exc:
                return error_response(str(exc), request)

        task = loop.run_in_executor(None, work)
        task.add_done_callback(
            lambda t: self._fulfil(fut, t.result() if t.exception() is None
                                   else exception_response(t.exception(), request))
        )

    async def _read_line(self, reader) -> Optional[bytes]:
        """One raw line, or ``None`` on EOF.

        The stream limit is double the protocol's line cap, so a line
        that is merely oversized (1-2 MB) still arrives whole and is
        refused by the decoder with the connection intact.  A line past
        the stream limit is unrecoverable mid-stream; it is answered
        with an error frame by the caller seeing ``OVERSIZED``.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial if exc.partial else None
        except asyncio.LimitOverrunError:
            # Drain up to the newline so the connection could in theory
            # continue, then surface one oversized-line error.
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk or b"\n" in chunk:
                    break
            return b" " * (MAX_LINE_BYTES + 1)  # forces an oversized-line error
        except ConnectionError:
            return None

    async def _respond(self, responses: "asyncio.Queue", writer) -> None:
        while True:
            fut = await responses.get()
            if fut is None:
                return
            response = await fut
            if not await self._send_frame(writer, response):
                return

    async def _send_frame(self, writer, response: dict) -> bool:
        """Write one frame, mediated by the NET_SEND fault point.

        Returns ``False`` when the connection is gone (injected or
        real); ``drain()`` per frame is the send-side backpressure --
        a slow reader stalls its own stream, nobody else's.
        """
        frame = encode_frame(response)
        if self.faults is not None:
            rule = self.faults.network(NET_SEND, len(frame))
            if rule is not None:
                if rule.action in ("stall", "delay"):
                    await asyncio.sleep(rule.delay)
                else:
                    # "torn" sends a strict prefix of the frame (no
                    # newline) before hanging up -- the mid-frame
                    # disconnect clients must detect and retry;
                    # "disconnect"/"error" hang up before a byte.
                    if rule.action == "torn" and len(frame) > 1:
                        cut = max(1, min(
                            len(frame) - 1,
                            int(len(frame) * rule.torn_fraction),
                        ))
                        try:
                            writer.write(frame[:cut])
                            await writer.drain()
                        except (ConnectionError, RuntimeError):
                            pass
                    try:
                        writer.close()
                    except Exception:
                        pass
                    return False
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            return False
        return True

    # -- replication streaming ---------------------------------------------

    def _subscribe_handshake(self, request: dict) -> dict:
        """Validate a ``repl.subscribe`` and build its handshake frame."""
        hub = self.engine.replication_hub
        if hub is None:
            return error_response(
                "replication requires a durable service (no WAL attached)",
                request,
            )
        from_lsn = request.get("from_lsn")
        if not isinstance(from_lsn, int) or isinstance(from_lsn, bool) or from_lsn < 0:
            self.engine.stats.protocol_errors += 1
            return error_response(
                'repl.subscribe needs an integer "from_lsn" >= 0', request
            )
        base = hub.base_lsn()
        if from_lsn < base:
            return error_response(
                StaleLsnError(
                    f"from_lsn {from_lsn} is below the compaction "
                    f"watermark {base}; re-bootstrap from a checkpoint"
                ),
                request,
            )
        response = {
            "ok": True,
            "op": "repl.subscribe",
            "from_lsn": from_lsn,
            "committed": hub.committed_lsn,
            "base": base,
        }
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _dispatch_replication(self, loop, fut, request: dict) -> None:
        """Run a manifest/fetch request on the executor (file I/O)."""

        def work() -> dict:
            try:
                # Resolved on the executor: a first access constructs
                # the hub (WalTailer over the whole log) off the loop.
                hub = self.engine.replication_hub
                if hub is None:
                    raise ValueError(
                        "replication requires a durable service "
                        "(no WAL attached)"
                    )
                if request["op"] == "repl.manifest":
                    out = {"ok": True, "op": "repl.manifest", **hub.manifest()}
                else:
                    out = {"ok": True, "op": "repl.fetch", **hub.read_chunk(
                        request.get("name"),
                        request.get("offset", 0),
                        request.get("limit"),
                    )}
                if "id" in request:
                    out["id"] = request["id"]
                return out
            except Exception as exc:
                return exception_response(exc, request)

        task = loop.run_in_executor(None, work)
        task.add_done_callback(
            lambda t: self._fulfil(fut, t.result() if t.exception() is None
                                   else exception_response(t.exception(), request))
        )

    async def _stream_replication(self, reader, writer, request: dict) -> None:
        """Ship committed records to one subscribed follower.

        The subscriber's cursor only moves forward, so a record is sent
        at most once per subscription even when ``compact()`` rewrites
        the log file underneath (the tailer rescans the new inode and
        the cursor skips everything already delivered).  When there is
        nothing to ship the stream waits on the commit notifier with a
        keepalive timeout, so followers can measure lag while idle and
        detect a dead primary.  Any further frame from the subscriber
        (a duplicate subscribe included) is refused and ends the
        stream; EOF ends it quietly.
        """
        engine = self.engine
        hub = engine.replication_hub
        loop = asyncio.get_running_loop()
        cursor = int(request["from_lsn"])
        wake = asyncio.Event()

        def _notify(_lsn: int) -> None:
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:
                pass

        stop = asyncio.Event()
        intruder: list = []

        async def _watch_client() -> None:
            # The record stream is one-way; the reader side only
            # detects EOF (clean unsubscribe) or protocol misuse.
            while True:
                raw = await self._read_line(reader)
                if raw is None:
                    stop.set()
                    return
                if raw in (b"", b"\n"):
                    continue
                intruder.append(raw)
                stop.set()
                return

        hub.add_subscriber(_notify)
        watcher = asyncio.create_task(_watch_client())
        stopper = asyncio.create_task(stop.wait())
        try:
            while not engine.shutdown_event.is_set() and not stop.is_set():
                batch = await loop.run_in_executor(None, hub.poll, cursor)
                if cursor < batch.base_lsn:
                    await self._send_frame(writer, error_response(
                        StaleLsnError(
                            f"resume point {cursor} fell below the "
                            f"compaction watermark {batch.base_lsn} "
                            "mid-stream; re-bootstrap from a checkpoint"
                        ),
                    ))
                    return
                sent_any = False
                for lsn, payload in batch.records:
                    if stop.is_set():
                        break
                    # A record larger than one line ships as a chunk
                    # sequence; the group is never torn mid-record by
                    # ``stop`` (it is at most a few frames long).
                    chunks = [
                        payload[i : i + REPL_RECORD_CHUNK_BYTES]
                        for i in range(0, len(payload), REPL_RECORD_CHUNK_BYTES)
                    ] or [payload]
                    for index, chunk in enumerate(chunks):
                        frame = {
                            "op": "repl.record",
                            "lsn": lsn,
                            "committed": hub.committed_lsn,
                            "raw": base64.b64encode(chunk).decode("ascii"),
                        }
                        if index + 1 < len(chunks):
                            frame["more"] = True
                        ok = await self._send_frame(writer, frame)
                        if not ok:
                            return
                    cursor = lsn
                    sent_any = True
                if sent_any:
                    continue  # drain everything available before waiting
                wake.clear()
                if hub.committed_lsn > cursor:
                    continue  # raced a commit between poll and clear
                waiter = asyncio.create_task(wake.wait())
                done, _pending = await asyncio.wait(
                    {waiter, stopper},
                    timeout=REPL_KEEPALIVE_SECONDS,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:  # idle: keepalive carries the lag signal
                    waiter.cancel()
                    await asyncio.gather(waiter, return_exceptions=True)
                    # base_lsn() polls the log (a full re-read after a
                    # compaction swap): keep it off the event loop.
                    base = await loop.run_in_executor(None, hub.base_lsn)
                    ok = await self._send_frame(writer, {
                        "op": "repl.keepalive",
                        "committed": hub.committed_lsn,
                        "base": base,
                    })
                    if not ok:
                        return
                elif waiter not in done:
                    waiter.cancel()
                    await asyncio.gather(waiter, return_exceptions=True)
            if intruder:
                await self._send_frame(writer, error_response(
                    "connection is a replication stream; further requests "
                    "(including duplicate repl.subscribe) are not accepted",
                ))
        finally:
            hub.remove_subscriber(_notify)
            for task in (watcher, stopper):
                task.cancel()
            await asyncio.gather(watcher, stopper, return_exceptions=True)


def parse_listen(value: str) -> tuple[str, int]:
    """``"PORT"`` or ``"HOST:PORT"`` -> ``(host, port)``."""
    host, _, port = value.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"malformed --listen address {value!r}") from None


def serve_forever(service, host: str = "127.0.0.1", port: int = 0, **engine_options):
    """Convenience constructor: engine + running TCP server."""
    engine = ServiceEngine(service, **engine_options)
    server = EstimationServer(engine, host=host, port=port)
    server.start()
    return engine, server


__all__ = [
    "EstimationServer",
    "EngineStats",
    "OpSpec",
    "ServiceEngine",
    "Session",
    "Ticket",
    "parse_listen",
    "serve_forever",
]
