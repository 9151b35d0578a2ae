"""Durability for the estimation service: write-ahead log + checkpoints.

The online tier keeps every maintained structure bit-identical to a
from-scratch build while absorbing updates -- but only in memory.  This
module makes that state survive a crash, with the classic log-then-apply
discipline:

* every update batch is **normalized, serialised, and appended to an
  append-only log** (:class:`WriteAheadLog`) -- length-prefixed,
  CRC32-checksummed records -- and ``fsync``'d *before*
  ``apply_batch`` mutates any state.  After the batch applies, a
  ``commit`` marker is appended (``abort`` if the batch rolled back);
  markers ride to disk with the next record's fsync, which is safe
  because recovery treats an unmarked logged batch as redo work and a
  rolled-back batch leaves no state to redo;
* **periodic checkpoints** pair the versioned summary store
  (:func:`~repro.histograms.store.save_summary_pages`) with a state
  archive holding the serialized document forest, the exact label
  arrays (labels are path-dependent under gap allocation, so they
  cannot be re-derived from the documents), and the log sequence
  number (LSN) of the last batch the checkpoint covers.  Both sides
  are written as mmap-friendly **page files**
  (:mod:`repro.storage.pagefile`) by default -- checksummed,
  64-byte-aligned raw segments a warm start maps instead of
  decompressing -- while legacy ``.npz`` checkpoints keep loading
  transparently (and ``container="npz"`` keeps writing them);
* **recovery** (:func:`open_durable` via
  :meth:`~repro.service.service.EstimationService.open_durable`) loads
  the newest checkpoint whose files validate -- falling back to older
  ones on corruption -- and replays the log suffix through
  ``apply_batch``.  A torn or corrupted tail is detected by the
  checksum, cleanly truncated, and never replayed partially: a record
  either replays whole or not at all, so the recovered service is
  bit-identical to an uninterrupted run over the committed prefix.

Log format
----------

``wal.log`` starts with the 8-byte magic ``b"WPJWAL1\\n"`` followed by
records.  Each record is ``<u32 payload-length> <u32 crc32(payload)>
<payload>`` (little-endian); the payload is compact JSON::

    {"lsn": 7, "type": "batch", "single": false, "ops": [...]}
    {"lsn": 7, "type": "commit"}
    {"lsn": 7, "type": "abort"}

Batch ops are the normalized :class:`~repro.service.batch.InsertOp` /
:class:`~repro.service.batch.DeleteOp` forms.  Subtrees are serialized
as XML text; operation targets are encoded so replay resolves them with
exactly the live path's sequential semantics:

* ``["index", i]`` -- a raw integer target, interpreted against the
  tree as mutated by the batch's earlier operations (passed through);
* ``["node", i]`` -- an :class:`~repro.xmltree.tree.Element` handle
  that exists in the pre-batch tree, recorded as its pre-batch
  pre-order index and re-materialised as a handle before replay;
* ``["op", j, k]`` -- a handle into the subtree inserted by the
  batch's ``j``-th operation, at pre-order offset ``k``.

Checkpoints are ``ckpt-<lsn>.summaries.pgf`` (the binary summary
store) plus ``ckpt-<lsn>.state.pgf`` (documents + label arrays + meta)
-- or the legacy ``.npz`` pair; either spelling is accepted, and a
checkpoint exists only when one *complete* pair does.  The summary
store's document fingerprint must match the restored label table, so a
torn checkpoint write is never half-loaded.  Opening with
``lazy=True`` serves straight from the mapped page files: label
arrays and histogram pages are zero-copy mmap views, and the element
forest is decoded only if something actually touches it.
"""

from __future__ import annotations

import bisect
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.histograms.store import (
    SummaryFormatError,
    tree_fingerprint,
    tree_fingerprint_from_parts,
)
from repro.service.batch import BatchError, DeleteOp, InsertOp, NodeRef
from repro.storage.pagefile import (
    PageFile,
    encode_page_file,
    mapped_paths,
    open_array_container,
)
from repro.service.faults import (
    CKPT_FSYNC,
    CKPT_RENAME,
    CKPT_WRITE,
    DIR_FSYNC,
    WAL_FSYNC,
    WAL_WRITE,
    FaultPlan,
    fire,
)
from repro.xmltree.parser import parse_document
from repro.xmltree.tree import Document, Element, Text
from repro.xmltree.writer import write_document, write_node

WAL_MAGIC = b"WPJWAL1\n"
LOG_NAME = "wal.log"
CHECKPOINT_PREFIX = "ckpt-"
STATE_SUFFIX = ".state.npz"
SUMMARY_SUFFIX = ".summaries.npz"
PAGED_STATE_SUFFIX = ".state.pgf"
PAGED_SUMMARY_SUFFIX = ".summaries.pgf"
#: Default container for new checkpoints: ``"pagefile"`` (mmap-friendly
#: aligned segments) or ``"npz"`` (legacy compressed archives).  Either
#: kind loads transparently regardless of this setting.
CHECKPOINT_CONTAINER = "pagefile"
_CONTAINER_SUFFIXES = {
    "pagefile": (PAGED_STATE_SUFFIX, PAGED_SUMMARY_SUFFIX),
    "npz": (STATE_SUFFIX, SUMMARY_SUFFIX),
}
#: After this many consecutive delta checkpoints, the next one re-bases
#: (writes a full checkpoint) so old bases -- and the log records they
#: pin -- can be reclaimed by retention and compaction.
MAX_DELTA_CHAIN = 8
_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
# "base" is the compaction watermark: records at or below its lsn were
# dropped by compact(), so recovery must not fall back to a checkpoint
# older than it (the replay suffix those checkpoints need is gone).
_RECORD_TYPES = ("batch", "commit", "abort", "base")

# -- v2 binary payloads ------------------------------------------------------
#
# Outer framing is identical to v1 (<u32 len> <u32 crc32> <payload>), so
# offsets, torn-tail truncation, and byte-for-byte compaction work
# unchanged on mixed logs.  Payloads self-discriminate by first byte:
# 0x7B ("{") is a v1 JSON record, _V2_MARKER a binary v2 record,
# anything else is corruption.  A v2 payload is
#
#   <u8 marker> <u8 type> <i64 lsn>                      -- all records
#   <u8 flags> <u32 n_ops>                               -- batch only
#   op_kind  u8[n]    0=insert 1=delete
#   ref_kind u8[n]    0=["index",a] 1=["node",a] 2=["op",a,b]
#   ref_a    i64[n]
#   ref_b    i64[n]
#   position i64[n]   -1 = None
#   xml_off  i64[n+1] cumulative byte offsets into the xml blob
#   xml blob          concatenated utf-8 subtree texts (empty for deletes)
#
# i.e. raw little-endian array dumps -- no JSON round-trip, no
# per-field tokenization.
_V2_MARKER = 0xB2
_V2_HEAD = struct.Struct("<BBq")
_V2_BATCH_HEAD = struct.Struct("<BI")
_TARGET_KINDS = ("index", "node", "op")


def _encode_payload_v2(obj: dict) -> bytes:
    record_type = obj["type"]
    head = _V2_HEAD.pack(
        _V2_MARKER, _RECORD_TYPES.index(record_type), int(obj["lsn"])
    )
    if record_type != "batch":
        return head
    ops = obj["ops"]
    n = len(ops)
    op_kinds = np.empty(n, dtype=np.uint8)
    ref_kinds = np.empty(n, dtype=np.uint8)
    ref_a = np.zeros(n, dtype=np.int64)
    ref_b = np.zeros(n, dtype=np.int64)
    positions = np.full(n, -1, dtype=np.int64)
    lengths = np.zeros(n + 1, dtype=np.int64)
    chunks: list[bytes] = []
    for k, op in enumerate(ops):
        if op["kind"] == "insert":
            op_kinds[k] = 0
            ref = op["parent"]
            chunk = op["xml"].encode("utf-8")
            chunks.append(chunk)
            lengths[k + 1] = len(chunk)
            if op.get("position") is not None:
                positions[k] = op["position"]
        else:
            op_kinds[k] = 1
            ref = op["node"]
        ref_kinds[k] = _TARGET_KINDS.index(ref[0])
        ref_a[k] = ref[1]
        if len(ref) > 2:
            ref_b[k] = ref[2]
    flags = 1 if obj.get("single") else 0
    return b"".join(
        [
            head,
            _V2_BATCH_HEAD.pack(flags, n),
            op_kinds.tobytes(),
            ref_kinds.tobytes(),
            ref_a.tobytes(),
            ref_b.tobytes(),
            positions.tobytes(),
            np.cumsum(lengths).tobytes(),
            *chunks,
        ]
    )


class ColumnarOps:
    """Zero-copy view over a v2 batch record's operation columns.

    The original v2 decoder expanded every operation into a dict before
    anything looked at it; at replay scale that per-op Python loop
    dominated log reads.  This view keeps the columns as the numpy
    arrays sliced straight out of the (already CRC-checked) payload and
    materialises the dict spelling only on demand -- indexing,
    iteration, and equality all yield exactly the dicts the reference
    decoder produced, while the replay fast path in :func:`decode_ops`
    reads the columns directly and never asks for them.
    """

    __slots__ = (
        "op_kinds",
        "ref_kinds",
        "ref_a",
        "ref_b",
        "positions",
        "xml_offsets",
        "blob",
    )

    def __init__(
        self, op_kinds, ref_kinds, ref_a, ref_b, positions, xml_offsets, blob
    ):
        self.op_kinds = op_kinds
        self.ref_kinds = ref_kinds
        self.ref_a = ref_a
        self.ref_b = ref_b
        self.positions = positions
        self.xml_offsets = xml_offsets
        self.blob = blob

    def __len__(self) -> int:
        return len(self.op_kinds)

    def entry(self, k: int) -> dict:
        """Op ``k`` in the v1 dict spelling."""
        ref_kind = int(self.ref_kinds[k])
        a = int(self.ref_a[k])
        ref = (
            ["op", a, int(self.ref_b[k])]
            if ref_kind == 2
            else [_TARGET_KINDS[ref_kind], a]
        )
        if int(self.op_kinds[k]) == 0:
            position = int(self.positions[k])
            lo, hi = int(self.xml_offsets[k]), int(self.xml_offsets[k + 1])
            return {
                "kind": "insert",
                "parent": ref,
                "xml": self.blob[lo:hi].decode("utf-8"),
                "position": None if position < 0 else position,
            }
        return {"kind": "delete", "node": ref}

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self.entry(k) for k in range(len(self))[key]]
        return self.entry(range(len(self))[key])

    def __iter__(self):
        for k in range(len(self)):
            yield self.entry(k)

    def __eq__(self, other):
        if isinstance(other, ColumnarOps):
            other = list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarOps({list(self)!r})"


def _decode_payload_v2(payload: bytes) -> Optional[dict]:
    """Decode a v2 binary payload; ``None`` marks it corrupt (the
    framing CRC already passed, so this is defense in depth).

    Batch records come back with ``"ops"`` as a :class:`ColumnarOps`
    view -- validation is fully vectorized and no per-op objects are
    built here.  The view compares equal to (and iterates as) the
    dict list the reference decoder produces, pinned by the
    differential test against :func:`_decode_payload_v2_reference`.
    """
    try:
        marker, type_code, lsn = _V2_HEAD.unpack_from(payload, 0)
        if marker != _V2_MARKER or type_code >= len(_RECORD_TYPES):
            return None
        record_type = _RECORD_TYPES[type_code]
        if record_type != "batch":
            if len(payload) != _V2_HEAD.size:
                return None
            return {"lsn": lsn, "type": record_type}
        offset = _V2_HEAD.size
        flags, n = _V2_BATCH_HEAD.unpack_from(payload, offset)
        offset += _V2_BATCH_HEAD.size
        fixed = 2 * n + 8 * 3 * n + 8 * (n + 1)
        if offset + fixed > len(payload):
            return None
        op_kinds = np.frombuffer(payload, np.uint8, n, offset)
        offset += n
        ref_kinds = np.frombuffer(payload, np.uint8, n, offset)
        offset += n
        ref_a = np.frombuffer(payload, np.int64, n, offset)
        offset += 8 * n
        ref_b = np.frombuffer(payload, np.int64, n, offset)
        offset += 8 * n
        positions = np.frombuffer(payload, np.int64, n, offset)
        offset += 8 * n
        xml_offsets = np.frombuffer(payload, np.int64, n + 1, offset)
        offset += 8 * (n + 1)
        blob = payload[offset:]
        if (
            (op_kinds > 1).any()
            or (ref_kinds > 2).any()
            or (n and int(xml_offsets[0]) != 0)
            or (np.diff(xml_offsets) < 0).any()
            or int(xml_offsets[-1]) != len(blob)
        ):
            return None
        return {
            "lsn": lsn,
            "type": "batch",
            "single": bool(flags & 1),
            "ops": ColumnarOps(
                op_kinds, ref_kinds, ref_a, ref_b, positions, xml_offsets, blob
            ),
        }
    except (struct.error, UnicodeDecodeError, ValueError):
        return None


def _decode_payload_v2_reference(payload: bytes) -> Optional[dict]:
    """Pre-vectorization per-op decoder, kept as the bit-identity
    reference the differential tests pin :func:`_decode_payload_v2`
    against (mixed v1/v2 logs, every record type)."""
    try:
        marker, type_code, lsn = _V2_HEAD.unpack_from(payload, 0)
        if marker != _V2_MARKER or type_code >= len(_RECORD_TYPES):
            return None
        record_type = _RECORD_TYPES[type_code]
        if record_type != "batch":
            if len(payload) != _V2_HEAD.size:
                return None
            return {"lsn": lsn, "type": record_type}
        offset = _V2_HEAD.size
        flags, n = _V2_BATCH_HEAD.unpack_from(payload, offset)
        offset += _V2_BATCH_HEAD.size
        fixed = 2 * n + 8 * 3 * n + 8 * (n + 1)
        if offset + fixed > len(payload):
            return None
        op_kinds = np.frombuffer(payload, np.uint8, n, offset)
        offset += n
        ref_kinds = np.frombuffer(payload, np.uint8, n, offset)
        offset += n
        ref_a = np.frombuffer(payload, np.int64, n, offset)
        offset += 8 * n
        ref_b = np.frombuffer(payload, np.int64, n, offset)
        offset += 8 * n
        positions = np.frombuffer(payload, np.int64, n, offset)
        offset += 8 * n
        xml_offsets = np.frombuffer(payload, np.int64, n + 1, offset)
        offset += 8 * (n + 1)
        blob = payload[offset:]
        if (
            (op_kinds > 1).any()
            or (ref_kinds > 2).any()
            or (n and int(xml_offsets[0]) != 0)
            or (np.diff(xml_offsets) < 0).any()
            or int(xml_offsets[-1]) != len(blob)
        ):
            return None
        ops: list[dict] = []
        offs = xml_offsets.tolist()
        for k, (op_kind, ref_kind, a, b, position) in enumerate(
            zip(
                op_kinds.tolist(),
                ref_kinds.tolist(),
                ref_a.tolist(),
                ref_b.tolist(),
                positions.tolist(),
            )
        ):
            ref = (
                ["op", a, b]
                if ref_kind == 2
                else [_TARGET_KINDS[ref_kind], a]
            )
            if op_kind == 0:
                ops.append(
                    {
                        "kind": "insert",
                        "parent": ref,
                        "xml": blob[offs[k] : offs[k + 1]].decode("utf-8"),
                        "position": None if position < 0 else position,
                    }
                )
            else:
                ops.append({"kind": "delete", "node": ref})
        return {
            "lsn": lsn,
            "type": "batch",
            "single": bool(flags & 1),
            "ops": ops,
        }
    except (struct.error, UnicodeDecodeError, ValueError):
        return None


def _encode_record_payload(obj: dict, codec: str) -> bytes:
    if codec == "binary":
        return _encode_payload_v2(obj)
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


class WalError(RuntimeError):
    """The durable directory cannot be recovered (no valid checkpoint)."""


@dataclass
class WalRecord:
    """One decoded log record with its byte extent in the file."""

    lsn: int
    type: str
    payload: dict
    offset: int
    end_offset: int


@dataclass
class RecoveryInfo:
    """What one :func:`open_durable` recovery did."""

    checkpoint_lsn: int
    batches_replayed: int
    batches_skipped: int
    truncated_bytes: int
    next_lsn: int


# -- log reading -------------------------------------------------------------


def decode_payload(payload: bytes) -> Optional[dict]:
    """Decode one record payload (v1 JSON or v2 binary) to its record
    object, or ``None`` when it is neither -- the self-discrimination
    every log reader and the replication stream share."""
    if payload[:1] == b"{":  # v1 JSON payload
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("lsn"), int)
            or obj.get("type") not in _RECORD_TYPES
        ):
            return None
        return obj
    if payload[:1] == bytes([_V2_MARKER]):  # v2 binary payload
        return _decode_payload_v2(payload)
    return None


def _parse_records(
    data: bytes, offset: int
) -> tuple[list[WalRecord], int]:
    """Decode intact records of a log image starting at ``offset``;
    stops at the first torn or corrupted record (the crash tail)."""
    records: list[WalRecord] = []
    while True:
        if offset + _HEADER.size > len(data):
            break
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            break
        obj = decode_payload(payload)
        if obj is None:
            break
        records.append(WalRecord(obj["lsn"], obj["type"], obj, offset, end))
        offset = end
    return records, offset


def read_records(path: Union[str, Path]) -> tuple[list[WalRecord], int]:
    """Decode every intact record of a log file.

    Returns ``(records, valid_end)``: the records whose length prefix,
    checksum, and payload all validate, in file order, and the byte
    offset one past the last of them.  Decoding stops at the first torn
    or corrupted record -- everything from there on is the crash tail
    and must be truncated, never partially replayed.  A missing file or
    a torn magic header yields ``([], 0)``.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    if len(data) < len(WAL_MAGIC) or not data.startswith(WAL_MAGIC):
        return [], 0
    return _parse_records(data, len(WAL_MAGIC))


class WriteAheadLog:
    """Append-only, checksummed log of update batches.

    Opening an existing log truncates any torn tail (detected by
    :func:`read_records`) so appends continue from the last intact
    record; opening a fresh path writes the magic header.  ``append``
    of a batch record is fsync'd before returning -- that is the
    durability point the service relies on; commit/abort markers are
    flushed but ride to disk with the next fsync.
    """

    def __init__(
        self,
        path: Union[str, Path],
        scanned: Optional[tuple[list[WalRecord], int]] = None,
        codec: str = "binary",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if codec not in ("binary", "json"):
            raise ValueError(f"unknown WAL codec {codec!r}")
        self.path = Path(path)
        self.codec = codec
        #: Fault-injection plan consulted before every write/fsync
        #: (``None`` = no injection; see :mod:`repro.service.faults`).
        self.faults = faults
        # Frames of unsynced markers, held in process until the next
        # fsync'd append (group commit): one buffered write per batch
        # instead of one OS write per logical record.
        self._pending = bytearray()
        records, valid_end = (
            scanned if scanned is not None else read_records(self.path)
        )
        # LSN 0 is reserved for the directory's initial checkpoint (the
        # pre-update state), so the first logged batch is LSN 1.
        self.next_lsn = max((r.lsn for r in records), default=0) + 1
        if self.path.exists() and valid_end > 0:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
            self._fh = open(self.path, "ab")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "wb")
            self._fh.write(WAL_MAGIC)
            self._sync()

    def _append(self, obj: dict, sync: bool) -> None:
        payload = _encode_record_payload(obj, self.codec)
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if not sync:
            # Markers only need to be durable by the *next* fsync (an
            # unmarked logged batch is redo work either way), so they
            # ride in the same write as the next synced record.
            self._pending += frame
            return
        if self._pending:
            frame = bytes(self._pending) + frame
            self._pending.clear()
        self._write(frame)
        self._sync()

    def _write(self, frame: bytes) -> None:
        """One log write, mediated by the fault plan: an injected torn
        write puts a strict prefix on disk (the crash-tail shape
        recovery truncates) before the error surfaces."""
        if self.faults is not None:
            data, fault = self.faults.intercept_write(WAL_WRITE, frame)
            if fault is not None:
                if data:
                    self._fh.write(data)
                    try:
                        self._fh.flush()
                    except OSError:  # pragma: no cover - double fault
                        pass
                raise fault
        self._fh.write(frame)

    def _flush_pending(self) -> None:
        if self._pending:
            self._write(bytes(self._pending))
            self._pending.clear()

    def _sync(self) -> None:
        fire(self.faults, WAL_FSYNC)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def log_batch(self, encoded_ops: list[dict], single: bool = False) -> int:
        """Durably append a batch record; returns its LSN.

        The record is fsync'd before this returns -- nothing of the
        batch may mutate service state until then.
        """
        lsn = self.next_lsn
        self.next_lsn += 1
        self._append(
            {"lsn": lsn, "type": "batch", "single": single, "ops": encoded_ops},
            sync=True,
        )
        return lsn

    def append_raw(self, payload: bytes, lsn: int, sync: bool = False) -> None:
        """Append an already-encoded record payload verbatim.

        The replication path ships the primary's record payload bytes
        unchanged; appending them verbatim keeps the follower's log a
        byte-exact suffix copy, so follower recovery is *the same code
        path* as primary recovery.  ``lsn`` is the payload's own LSN and
        only advances ``next_lsn``.  Followers default to ``sync=False``:
        a torn tail is truncated on restart and re-shipped from the
        resume LSN, so per-record fsync buys nothing.
        """
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if self._pending:
            frame = bytes(self._pending) + frame
            self._pending.clear()
        self._write(frame)
        if sync:
            self._sync()
        self.next_lsn = max(self.next_lsn, lsn + 1)

    def mark_committed(self, lsn: int) -> None:
        """Record that the batch applied (buffered; see class docs)."""
        self._append({"lsn": lsn, "type": "commit"}, sync=False)

    def mark_aborted(self, lsn: int) -> None:
        """Record that the batch rolled back and must not be replayed."""
        self._append({"lsn": lsn, "type": "abort"}, sync=True)

    def sync(self) -> None:
        """Force every buffered marker to disk (checkpoint prologue)."""
        self._flush_pending()
        self._sync()

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._flush_pending()
            self._sync()
            self._fh.close()


@dataclass
class TailBatch:
    """One :meth:`WalTailer.poll` result.

    ``records`` holds ``(lsn, payload_bytes)`` pairs for committed batch
    records strictly above the caller's cursor, in LSN order; the
    payload bytes are shipped verbatim so followers append a byte-exact
    copy.  ``base_lsn`` is the log's current compaction watermark: a
    subscriber whose cursor is below it can no longer be served from
    this log and must re-bootstrap from a checkpoint.
    """

    base_lsn: int
    last_lsn: int
    records: list[tuple[int, bytes]]


class WalTailer:
    """LSN-addressed tailing reader over a live (or dead) log file.

    Re-parses only the newly appended suffix on each poll, and falls
    back to a full rescan whenever the file was swapped (``compact()``
    replaces the inode) or shrank (resume truncation).  Every shipped
    record is a whole, CRC-validated frame -- a torn or mid-copy tail
    simply isn't shipped yet -- and the per-call ``after_lsn`` cursor
    means a record is delivered at most once to a given subscriber even
    across a compaction that rewrites the file around it.

    Thread-safe: concurrent subscribers poll through one shared lock.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._buf = b""
        self._valid_end = 0
        self._ino: Optional[int] = None
        self._base = 0
        self._aborted: set[int] = set()
        self._commits: set[int] = set()
        self._batch_lsns: list[int] = []
        self._batches: list[WalRecord] = []

    def _ingest(self, records: list[WalRecord]) -> None:
        for record in records:
            if record.type == "batch":
                self._batch_lsns.append(record.lsn)
                self._batches.append(record)
            elif record.type == "commit":
                self._commits.add(record.lsn)
            elif record.type == "abort":
                self._aborted.add(record.lsn)
            elif record.type == "base":
                self._base = max(self._base, record.lsn)

    def _refresh(self) -> None:
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            self._reset()
            return
        if (
            self._ino is not None
            and st.st_ino == self._ino
            and st.st_size == len(self._buf)
        ):
            return
        if self._ino is None or st.st_ino != self._ino or st.st_size < len(self._buf):
            # Swapped (compaction) or truncated (resume): rescan whole.
            try:
                with open(self.path, "rb") as fh:
                    ino = os.fstat(fh.fileno()).st_ino
                    data = fh.read()
            except FileNotFoundError:
                self._reset()
                return
            self._reset()
            self._ino = ino
            if not data.startswith(WAL_MAGIC):
                return
            self._buf = data
            records, self._valid_end = _parse_records(data, len(WAL_MAGIC))
            self._ingest(records)
            return
        # Same inode, grew: read and parse just the appended suffix.
        with open(self.path, "rb") as fh:
            if os.fstat(fh.fileno()).st_ino != self._ino:
                # Swapped between stat and open; next poll rescans.
                return
            fh.seek(len(self._buf))
            suffix = fh.read()
        self._buf += suffix
        records, self._valid_end = _parse_records(self._buf, self._valid_end)
        self._ingest(records)

    def poll(
        self,
        after_lsn: int,
        committed_floor: Optional[int] = None,
        limit: int = 256,
    ) -> TailBatch:
        """Return committed batch records with ``after_lsn < lsn``.

        ``committed_floor`` is the caller's authoritative committed LSN
        (the primary's in-process ``_last_lsn``); commit markers in the
        file lag it because they are group-committed.  When ``None``,
        only records with an on-disk commit marker ship -- the offline
        tail mode.  Abort-marked records never ship.
        """
        with self._lock:
            self._refresh()
            out: list[tuple[int, bytes]] = []
            start = bisect.bisect_right(self._batch_lsns, after_lsn)
            last = self._batch_lsns[-1] if self._batch_lsns else 0
            for record in self._batches[start:]:
                if len(out) >= limit:
                    break
                if record.lsn in self._aborted:
                    continue
                if committed_floor is not None:
                    if record.lsn > committed_floor:
                        break
                elif record.lsn not in self._commits:
                    break
                payload = self._buf[
                    record.offset + _HEADER.size : record.end_offset
                ]
                out.append((record.lsn, payload))
            return TailBatch(base_lsn=self._base, last_lsn=last, records=out)


# -- op (de)serialisation ----------------------------------------------------


def encode_ops(service, plan: Sequence[Union[InsertOp, DeleteOp]]) -> list[dict]:
    """Serialise a normalized batch against the service's pre-batch tree.

    Must run before any operation mutates the tree: element handles are
    resolved through the *current* numbering (``NodeRef`` targets already
    carry it), and subtrees are written out while still detached.
    """
    tree = service.tree
    inserted: dict[int, tuple[int, int]] = {}
    out: list[dict] = []
    for op_index, op in enumerate(plan):
        if isinstance(op, InsertOp):
            if op.subtree.parent is not None:
                raise ValueError(
                    "subtree to insert must be detached (parent is None)"
                )
            out.append(
                {
                    "kind": "insert",
                    "parent": _encode_target(tree, op.parent, inserted),
                    "xml": write_node(op.subtree),
                    "position": None if op.position is None else int(op.position),
                }
            )
            for local, element in enumerate(op.subtree.iter()):
                inserted[id(element)] = (op_index, local)
        else:
            out.append(
                {"kind": "delete", "node": _encode_target(tree, op.node, inserted)}
            )
    return out


def _encode_target(tree, target, inserted: dict[int, tuple[int, int]]):
    if isinstance(target, NodeRef):
        return ["node", int(target.index)]
    if not isinstance(target, Element):
        return ["index", int(target)]
    slot = inserted.get(id(target))
    if slot is not None:
        return ["op", slot[0], slot[1]]
    try:
        return ["node", tree.index_of(target)]
    except KeyError:
        raise ValueError(
            "operation targets an element not in the tree"
        ) from None


def decode_ops(service, entries: Sequence[dict]) -> list[Union[InsertOp, DeleteOp]]:
    """Rebuild a replayable batch from its logged form.

    Runs against the recovered pre-batch tree; ``["node", i]`` refs
    become :class:`~repro.service.batch.NodeRef` targets, which the
    batch applier tracks through earlier splices exactly as it did the
    live handles.
    """
    if isinstance(entries, ColumnarOps):
        return _decode_ops_columnar(entries)
    subtrees: list[Optional[list[Element]]] = []
    ops: list[Union[InsertOp, DeleteOp]] = []
    for entry in entries:
        if entry["kind"] == "insert":
            subtree = _parse_subtree(entry["xml"])
            ops.append(
                InsertOp(
                    _decode_target(entry["parent"], subtrees),
                    subtree,
                    entry.get("position"),
                )
            )
            subtrees.append(list(subtree.iter()))
        else:
            ops.append(DeleteOp(_decode_target(entry["node"], subtrees)))
            subtrees.append(None)
    return ops


def _decode_ops_columnar(cols: ColumnarOps) -> list[Union[InsertOp, DeleteOp]]:
    """Replay fast path over a v2 record's columns: one ``tolist`` per
    column instead of a dict per op.  Targets resolve *before* the op's
    subtree joins the lookup list, preserving the op-reference ordering
    semantics of the dict path (an op can only reference earlier ops).
    """
    subtrees: list[Optional[list[Element]]] = []
    ops: list[Union[InsertOp, DeleteOp]] = []
    offs = cols.xml_offsets.tolist()
    blob = cols.blob
    for k, (op_kind, ref_kind, a, b, position) in enumerate(
        zip(
            cols.op_kinds.tolist(),
            cols.ref_kinds.tolist(),
            cols.ref_a.tolist(),
            cols.ref_b.tolist(),
            cols.positions.tolist(),
        )
    ):
        if ref_kind == 0:
            target = a
        elif ref_kind == 1:
            target = NodeRef(a)
        else:
            nodes = subtrees[a]
            if nodes is None:
                raise ValueError(
                    f"logged target references a delete op: {['op', a, b]!r}"
                )
            target = nodes[b]
        if op_kind == 0:
            subtree = _parse_subtree(blob[offs[k] : offs[k + 1]].decode("utf-8"))
            ops.append(
                InsertOp(target, subtree, None if position < 0 else position)
            )
            subtrees.append(list(subtree.iter()))
        else:
            ops.append(DeleteOp(target))
            subtrees.append(None)
    return ops


def _decode_target(ref, subtrees: list[Optional[list[Element]]]):
    kind = ref[0]
    if kind == "index":
        return int(ref[1])
    if kind == "node":
        return NodeRef(int(ref[1]))
    if kind == "op":
        nodes = subtrees[int(ref[1])]
        if nodes is None:
            raise ValueError(f"logged target references a delete op: {ref!r}")
        return nodes[int(ref[2])]
    raise ValueError(f"unknown logged target kind {ref!r}")


def _parse_subtree(xml: str) -> Element:
    snippet = parse_document(xml)
    subtree = snippet.root_element
    snippet.children.remove(subtree)
    subtree.parent = None
    return subtree


# -- checkpoints -------------------------------------------------------------


def _checkpoint_pairs(
    directory: Union[str, Path], lsn: int
) -> dict[str, tuple[Path, Path]]:
    """Candidate ``(state, summary)`` pairs for ``lsn`` per container,
    in resolution preference order (pagefile before legacy npz)."""
    stem = f"{CHECKPOINT_PREFIX}{lsn:016d}"
    directory = Path(directory)
    return {
        container: (
            directory / (stem + state_suffix),
            directory / (stem + summary_suffix),
        )
        for container, (state_suffix, summary_suffix) in _CONTAINER_SUFFIXES.items()
    }


def checkpoint_paths(
    directory: Union[str, Path], lsn: int, container: Optional[str] = None
) -> tuple[Path, Path]:
    """The ``(state, summary)`` paths of checkpoint ``lsn``.

    An explicit ``container`` names that pair unconditionally (the
    write path uses this).  With ``container=None`` the first
    *complete* on-disk pair wins, pagefile preferred -- so readers
    resolve whatever spelling a checkpoint was actually written in --
    and when neither pair is complete, the default-container pair is
    returned (the target of a checkpoint about to be written).
    """
    pairs = _checkpoint_pairs(directory, lsn)
    if container is not None:
        return pairs[container]
    for pair in pairs.values():
        if pair[0].exists() and pair[1].exists():
            return pair
    return pairs[CHECKPOINT_CONTAINER]


def list_checkpoints(directory: Union[str, Path]) -> list[int]:
    """LSNs of the directory's complete checkpoints, newest first.

    A checkpoint is complete only when **one complete canonical pair**
    (state + summaries, in the same container) exists -- pagefile and
    legacy ``.npz`` both count, and an incomplete pair in one container
    never masks a complete pair in the other.  The glob may surface
    stray files whose name parses to an LSN but is not the canonical
    ``%016d`` spelling; requiring the canonical paths (rather than
    trusting the globbed path for one half) keeps such strays -- and a
    crash that renamed only one half -- from ever being offered to
    recovery.
    """
    directory = Path(directory)
    lsns: set[int] = set()
    for state_suffix in (PAGED_STATE_SUFFIX, STATE_SUFFIX):
        for path in directory.glob(f"{CHECKPOINT_PREFIX}*{state_suffix}"):
            raw = path.name[len(CHECKPOINT_PREFIX) : -len(state_suffix)]
            if not raw.isdigit():
                continue
            lsn = int(raw)
            if lsn in lsns:
                continue
            for state_path, summary_path in _checkpoint_pairs(
                directory, lsn
            ).values():
                if state_path.exists() and summary_path.exists():
                    lsns.add(lsn)
                    break
    return sorted(lsns, reverse=True)


def _encode_forest(documents, tree) -> tuple[dict, dict]:
    """Numpy-native encoding of the document forest, aligned with the
    label table's pre-order: tag codes, attribute map, and text nodes
    with their exact child slots.

    Recovery rebuilds the ``Element`` objects directly from these
    arrays instead of tokenizing the serialized XML -- an order of
    magnitude faster at checkpoint scale, and the reason
    replay-from-checkpoint beats rebuild-from-documents.  Document-level
    text nodes (which XML cannot round-trip) are encoded with negative
    owner indices: ``owner = -(doc_index + 1)``.
    """
    elements = tree.elements
    vocab: dict[str, int] = {}
    codes = np.empty(len(elements), dtype=np.int64)
    attributes: dict[str, dict] = {}
    text_owner: list[int] = []
    text_slot: list[int] = []
    text_chunks: list[bytes] = []
    for index, element in enumerate(elements):
        codes[index] = vocab.setdefault(element.tag, len(vocab))
        if element.attributes:
            attributes[str(index)] = dict(element.attributes)
        for slot, child in enumerate(element.children):
            if isinstance(child, Text):
                text_owner.append(index)
                text_slot.append(slot)
                text_chunks.append(child.value.encode("utf-8"))
    for doc_index, document in enumerate(documents):
        for slot, child in enumerate(document.children):
            if isinstance(child, Text):
                text_owner.append(-(doc_index + 1))
                text_slot.append(slot)
                text_chunks.append(child.value.encode("utf-8"))
    offsets = np.zeros(len(text_chunks) + 1, dtype=np.int64)
    if text_chunks:
        offsets[1:] = np.cumsum([len(chunk) for chunk in text_chunks])
    arrays = {
        "fast.tags": codes,
        "fast.text_owner": np.asarray(text_owner, dtype=np.int64),
        "fast.text_slot": np.asarray(text_slot, dtype=np.int64),
        "fast.text_offsets": offsets,
        "fast.text_data": np.frombuffer(b"".join(text_chunks), dtype=np.uint8)
        if text_chunks
        else np.empty(0, dtype=np.uint8),
    }
    meta = {
        "tag_vocab": [tag for tag, _ in sorted(vocab.items(), key=lambda kv: kv[1])],
        "attributes": attributes,
        "doc_roots": [
            sum(1 for child in document.children if isinstance(child, Element))
            for document in documents
        ],
    }
    return arrays, meta


def _decode_forest(archive, fast_meta, parent_index):
    """Inverse of :func:`_encode_forest`: the documents plus the
    pre-order element list (identity-aligned with the label table)."""
    from repro.utils.arrays import group_by_code

    vocab = fast_meta["tag_vocab"]
    codes = archive["fast.tags"]
    elements = [Element(vocab[int(code)]) for code in codes.tolist()]
    for raw_index, attrs in fast_meta["attributes"].items():
        elements[int(raw_index)].attributes = dict(attrs)
    # Children grouped per parent in one argsort pass, then attached
    # with bulk list assignment instead of a per-node append call.
    parent_array = np.asarray(parent_index, dtype=np.int64)
    roots = [elements[i] for i in np.flatnonzero(parent_array < 0).tolist()]
    for parent, slots in group_by_code(parent_array).items():
        if parent < 0:
            continue
        parent_element = elements[parent]
        children = [elements[i] for i in slots.tolist()]
        for child in children:
            child.parent = parent_element
        parent_element.children = children
    text_owner = archive["fast.text_owner"].tolist()
    text_slot = archive["fast.text_slot"].tolist()
    offsets = archive["fast.text_offsets"].tolist()
    blob = bytes(archive["fast.text_data"])
    for k, (owner, slot) in enumerate(zip(text_owner, text_slot)):
        if owner < 0:
            continue  # document-level: attached once documents exist
        node = Text(blob[offsets[k] : offsets[k + 1]].decode("utf-8"))
        owner_element = elements[owner]
        node.parent = owner_element
        owner_element.children.insert(slot, node)
    documents = []
    cursor = 0
    for count in fast_meta["doc_roots"]:
        document = Document()
        for root in roots[cursor : cursor + count]:
            document.append(root)
        cursor += count
        documents.append(document)
    if cursor != len(roots):
        raise SummaryFormatError(
            f"checkpoint forest has {len(roots)} roots but the document "
            f"layout covers {cursor}"
        )
    for k, (owner, slot) in enumerate(zip(text_owner, text_slot)):
        if owner >= 0:
            continue
        node = Text(blob[offsets[k] : offsets[k + 1]].decode("utf-8"))
        document = documents[-owner - 1]
        node.parent = document
        document.children.insert(slot, node)
    return documents, elements


def _fsync_path(path: Path, faults: Optional[FaultPlan] = None) -> None:
    """Force a file's contents to stable storage."""
    fire(faults, CKPT_FSYNC)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_directory(directory: Path, faults: Optional[FaultPlan] = None) -> None:
    """Force directory entries (renames) to stable storage; best-effort
    on platforms that cannot fsync a directory handle.  An *injected*
    failure raises (the hardening under test is the caller's reaction
    to a device that reports the error instead of eating it)."""
    fire(faults, DIR_FSYNC)
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _numerator_arrays(service) -> tuple[list[str], dict[str, np.ndarray]]:
    """Maintained coverage numerators (integer pair counts) as archive
    members.  They are part of the recoverable state: without them the
    first replayed batch would re-walk the tree once per maintained
    coverage.  Only tag predicates round-trip (matching the summary
    store's policy)."""
    from repro.predicates.base import TagPredicate

    numerator_tags: list[str] = []
    numerator_arrays: dict[str, np.ndarray] = {}
    for predicate, numerators in service._numerators.items():
        if not isinstance(predicate, TagPredicate):
            continue
        slot = len(numerator_tags)
        numerator_tags.append(predicate.tag)
        # Sorted code order equals sorted tuple-key order, so the
        # archive bytes match what the per-entry encoder produced.
        numerator_arrays[f"cvgnum{slot}.keys"] = numerators.quad_array()
        numerator_arrays[f"cvgnum{slot}.counts"] = np.asarray(
            numerators.counts, dtype=np.int64
        )
    return numerator_tags, numerator_arrays


def _base_meta(service, lsn: int, numerator_tags: list[str]) -> dict:
    return {
        "lsn": lsn,
        "spacing": service.spacing,
        "grid_size": service.grid_size,
        "grid_kind": service.grid_kind,
        "rebuild_threshold": service.rebuild_threshold,
        "max_label": int(service.tree.max_label),
        "dirty_nodes": int(service._dirty_nodes),
        "documents": len(service.documents),
        "coverage_numerators": numerator_tags,
    }


def _encode_state_delta(service, base_lsn: int, base_nodes: int) -> tuple[dict, dict]:
    """Delta encoding of the current state against the last *full*
    checkpoint, driven by the service's splice tracker.

    Gap labeling guarantees that between full relabels a surviving
    node's start/end/level never change and its text/attributes are
    never touched by the service's update API, so the delta is:

    * ``incr.runs`` -- ``(current_start, base_start, length)`` triples
      mapping maximal contiguous surviving ranges back to the base
      checkpoint (label values, tags, text, and attributes of those
      nodes are *not* re-archived);
    * per net-inserted node: its labels, its parent's current index,
      its exact child slot in the parent's children list (text nodes
      included, so reconstruction reproduces the live layout
      bit-exactly), tag/attributes, and owned text.

    Net-deleted base nodes need no encoding: reconstruction derives
    them as the base indices not covered by any run and detaches each
    deleted root from its surviving parent (or document).
    """
    tree = service.tree
    tracker = service._ckpt_tracker
    survivors = np.flatnonzero(tracker >= 0)
    base_idx = tracker[survivors]
    if survivors.size:
        breaks = (
            np.flatnonzero((np.diff(survivors) != 1) | (np.diff(base_idx) != 1)) + 1
        )
        starts = np.concatenate([np.zeros(1, dtype=np.int64), breaks])
        ends = np.concatenate([breaks, np.asarray([survivors.size], dtype=np.int64)])
        runs = np.stack(
            [survivors[starts], base_idx[starts], ends - starts], axis=1
        ).astype(np.int64)
    else:
        runs = np.empty((0, 3), dtype=np.int64)

    new_positions = np.flatnonzero(tracker < 0)
    vocab: dict[str, int] = {}
    codes = np.empty(len(new_positions), dtype=np.int64)
    slots = np.empty(len(new_positions), dtype=np.int64)
    attributes: dict[str, dict] = {}
    text_owner: list[int] = []
    text_slot: list[int] = []
    text_chunks: list[bytes] = []
    for local, current in enumerate(new_positions.tolist()):
        element = tree.elements[current]
        codes[local] = vocab.setdefault(element.tag, len(vocab))
        if element.attributes:
            attributes[str(local)] = dict(element.attributes)
        parent_element = tree.elements[int(tree.parent_index[current])]
        slots[local] = parent_element.children.index(element)
        for slot, child in enumerate(element.children):
            if isinstance(child, Text):
                text_owner.append(local)
                text_slot.append(slot)
                text_chunks.append(child.value.encode("utf-8"))
    offsets = np.zeros(len(text_chunks) + 1, dtype=np.int64)
    if text_chunks:
        offsets[1:] = np.cumsum([len(chunk) for chunk in text_chunks])
    arrays = {
        "incr.runs": runs,
        "incr.new_start": np.ascontiguousarray(tree.start[new_positions]),
        "incr.new_end": np.ascontiguousarray(tree.end[new_positions]),
        "incr.new_level": np.ascontiguousarray(tree.level[new_positions]),
        "incr.new_parent": np.ascontiguousarray(tree.parent_index[new_positions]),
        "incr.new_slot": slots,
        "incr.new_tags": codes,
        "incr.text_owner": np.asarray(text_owner, dtype=np.int64),
        "incr.text_slot": np.asarray(text_slot, dtype=np.int64),
        "incr.text_offsets": offsets,
        "incr.text_data": np.frombuffer(b"".join(text_chunks), dtype=np.uint8)
        if text_chunks
        else np.empty(0, dtype=np.uint8),
    }
    meta = {
        "base_lsn": int(base_lsn),
        "base_nodes": int(base_nodes),
        "nodes": len(tree),
        "tag_vocab": [tag for tag, _ in sorted(vocab.items(), key=lambda kv: kv[1])],
        "attributes": attributes,
    }
    return arrays, meta


def _write_state_archive(
    path: Path,
    arrays: dict,
    directory: Path,
    faults: Optional[FaultPlan] = None,
    container: str = "npz",
) -> int:
    tmp = path.with_suffix(".tmp")
    fire(faults, CKPT_WRITE)
    with open(tmp, "wb") as handle:
        if container == "pagefile":
            handle.write(encode_page_file(arrays))
        else:
            np.savez_compressed(handle, **arrays)
        handle.flush()
        fire(faults, CKPT_FSYNC)
        os.fsync(handle.fileno())
    fire(faults, CKPT_RENAME)
    os.replace(tmp, path)
    _fsync_directory(directory, faults)
    return path.stat().st_size


def write_checkpoint(
    service, directory: Union[str, Path], lsn: int, force_full: bool = False
) -> None:
    """Persist the service's recoverable state as checkpoint ``lsn``.

    Two files, each written to a temporary name, fsync'd, and atomically
    renamed (summaries first, then the directory entry itself synced):
    a checkpoint only becomes *visible* (both files present) once both
    writes are durable, so neither a crash mid-checkpoint nor a power
    failure right after it can leave a half-readable "newest"
    checkpoint.

    Checkpoints are **incremental** whenever they can be: the summary
    archive re-writes only histogram pages whose epoch changed since
    the previous checkpoint (everything else is a manifest reference to
    the checkpoint file that last archived the page), and the state
    archive stores a splice delta against the last *full* checkpoint
    instead of the whole forest.  A checkpoint falls back to full when
    no valid delta base exists (first checkpoint, recovery, a relabel /
    rebuild invalidated the tracker), when ``force_full`` is set, or
    when the delta has grown past a quarter of the tree (at which point
    re-basing is cheaper for every later checkpoint).  The state meta's
    ``refs`` list names every older checkpoint this one depends on, so
    retention and compaction never prune a referenced base.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    container = getattr(service, "_ckpt_container", None) or CHECKPOINT_CONTAINER
    state_path, summary_path = checkpoint_paths(directory, lsn, container=container)
    tree = service.tree

    tracker = service._ckpt_tracker
    prior = service._ckpt_prior
    incremental = (
        not force_full
        and tracker is not None
        and len(tracker) == len(tree)
        and prior is not None
        and lsn > prior["base_lsn"]
        # Bound the reference chain: a delta base stays live (and keeps
        # its log suffix alive) for as long as deltas point at it, so
        # re-base periodically to let retention + compaction advance.
        and prior.get("deltas_since_base", 0) < MAX_DELTA_CHAIN
    )
    if incremental:
        inserted = int(np.count_nonzero(tracker < 0))
        deleted = int(prior["base_nodes"]) - (len(tracker) - inserted)
        if (inserted + deleted) * 4 >= max(1, len(tree)):
            incremental = False

    from repro.histograms.store import save_summary_pages, summary_page_refs

    faults = getattr(service, "_fault_plan", None)
    summary_tmp = summary_path.with_suffix(".tmp")
    fire(faults, CKPT_WRITE)
    index = save_summary_pages(
        service.estimator,
        summary_tmp,
        lsn,
        prior=prior["summaries"] if incremental and prior else None,
        container=container,
    )
    _fsync_path(summary_tmp, faults)
    fire(faults, CKPT_RENAME)
    os.replace(summary_tmp, summary_path)

    numerator_tags, numerator_arrays = _numerator_arrays(service)
    meta = _base_meta(service, lsn, numerator_tags)
    summary_refs = {
        int(row[key])
        for row in index.values()
        for key in ("at", "cvg_at")
        if key in row and int(row[key]) != lsn
    }
    if incremental:
        delta_arrays, delta_meta = _encode_state_delta(
            service, prior["base_lsn"], prior["base_nodes"]
        )
        meta["incremental"] = delta_meta
        meta["refs"] = sorted(summary_refs | {int(prior["base_lsn"])})
        arrays = {**delta_arrays, **numerator_arrays}
    else:
        meta["refs"] = sorted(summary_refs)
        arrays = {
            "start": np.ascontiguousarray(tree.start, dtype=np.int64),
            "end": np.ascontiguousarray(tree.end, dtype=np.int64),
            "level": np.ascontiguousarray(tree.level, dtype=np.int64),
            "parent_index": np.ascontiguousarray(tree.parent_index, dtype=np.int64),
            **numerator_arrays,
        }
        fast_arrays, fast_meta = _encode_forest(service.documents, tree)
        meta["fast"] = fast_meta
        arrays.update(fast_arrays)
        for doc_index, document in enumerate(service.documents):
            arrays[f"doc{doc_index}"] = np.frombuffer(
                write_document(document).encode("utf-8"), dtype=np.uint8
            )
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    _write_state_archive(state_path, arrays, directory, faults, container=container)

    # A re-checkpoint of the same LSN under a different container would
    # otherwise leave a stale twin pair that path resolution could
    # prefer over the bytes just written; drop the other spelling now
    # that this one is durable (mapped files are left for retention).
    mapped = mapped_paths()
    for other, pair in _checkpoint_pairs(directory, lsn).items():
        if other == container:
            continue
        victims = [path for path in pair if path.exists()]
        if victims and not any(path.resolve() in mapped for path in victims):
            for path in victims:
                path.unlink()
            _fsync_directory(directory)

    # Both files are durable: adopt the new checkpoint as the delta
    # baseline for the next one.
    if incremental:
        service._ckpt_prior = {
            **prior,
            "lsn": lsn,
            "summaries": index,
            "deltas_since_base": prior.get("deltas_since_base", 0) + 1,
        }
    else:
        service._ckpt_prior = {
            "lsn": lsn,
            "base_lsn": lsn,
            "base_nodes": len(tree),
            "summaries": index,
            "deltas_since_base": 0,
        }
        service._reset_tracker()


@dataclass
class _LoadedCheckpoint:
    lsn: int
    meta: dict
    documents: list[Document]
    start: np.ndarray
    end: np.ndarray
    level: np.ndarray
    parent_index: np.ndarray
    summaries: "object"  # LoadedSummaries
    numerators: dict  # tag -> {(i, j, m, n): int}
    elements: Optional[list] = None  # pre-order, aligned with the arrays
    #: Open :class:`PageFile` the label arrays (and deferred forest)
    #: view, for a lazy load; holding it here keeps the mapping alive
    #: and visible to retention.
    backing: Optional[PageFile] = None
    #: Pre-computed tree fingerprint (lazy loads hash the stored tag
    #: codes instead of touching ``Element`` objects).
    fingerprint: Optional[str] = None
    #: Stored pre-order tag codes + vocabulary (lazy loads only): lets
    #: the service seed its per-tag index without the forest.
    tag_codes: Optional[np.ndarray] = None
    tag_vocab: Optional[list] = None
    lazy: bool = False


def _decode_numerators(archive, meta) -> dict:
    from repro.histograms.coverage import CoverageNumerators

    g = int(meta["grid_size"])
    numerators = {}
    for slot, tag in enumerate(meta.get("coverage_numerators", [])):
        keys = np.asarray(archive[f"cvgnum{slot}.keys"], dtype=np.int64)
        counts = np.asarray(archive[f"cvgnum{slot}.counts"], dtype=np.int64)
        codes = ((keys[:, 0] * g + keys[:, 1]) * g + keys[:, 2]) * g + keys[:, 3]
        numerators[tag] = CoverageNumerators(g, codes, counts)
    return numerators


def _label_array(values) -> np.ndarray:
    """A stored label column as int64, copying only when the stored
    dtype differs -- a mapped page-file segment stays a zero-copy view."""
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return arr
    return arr.astype(np.int64)


def _derived_elements(documents) -> list[Element]:
    elements: list[Element] = []
    for document in documents:
        for child in document.children:
            if isinstance(child, Element):
                elements.extend(child.iter())
    return elements


def _apply_state_delta(base: "_LoadedCheckpoint", archive, meta, state_path):
    """Reconstruct a delta checkpoint's exact state over its base.

    Mutates the freshly decoded base forest (nothing else references
    it): detaches every net-deleted subtree root, builds the inserted
    elements, and splices each inserted node into its parent's children
    at the archived slot -- reproducing the live children layout (text
    interleaving included) bit-exactly.  Any inconsistency between the
    delta and its base raises
    :class:`~repro.histograms.store.SummaryFormatError`, which recovery
    treats like any other corrupt checkpoint.
    """
    incr = meta["incremental"]
    n_cur = int(incr["nodes"])
    base_n = len(base.start)
    runs = archive["incr.runs"].astype(np.int64).reshape(-1, 3)
    new_start = archive["incr.new_start"].astype(np.int64)
    new_end = archive["incr.new_end"].astype(np.int64)
    new_level = archive["incr.new_level"].astype(np.int64)
    new_parent = archive["incr.new_parent"].astype(np.int64)
    new_slot = archive["incr.new_slot"].astype(np.int64)
    new_tags = archive["incr.new_tags"].astype(np.int64)

    start = np.empty(n_cur, dtype=np.int64)
    end = np.empty(n_cur, dtype=np.int64)
    level = np.empty(n_cur, dtype=np.int64)
    parent_index = np.empty(n_cur, dtype=np.int64)
    survivor_mask = np.zeros(n_cur, dtype=bool)
    cur_of_base = np.full(base_n, -1, dtype=np.int64)
    for c0, b0, length in runs.tolist():
        if length <= 0 or c0 < 0 or b0 < 0 or c0 + length > n_cur or b0 + length > base_n:
            raise SummaryFormatError(f"{state_path} delta run {(c0, b0, length)} out of bounds")
        if survivor_mask[c0 : c0 + length].any():
            raise SummaryFormatError(f"{state_path} delta runs overlap")
        start[c0 : c0 + length] = base.start[b0 : b0 + length]
        end[c0 : c0 + length] = base.end[b0 : b0 + length]
        level[c0 : c0 + length] = base.level[b0 : b0 + length]
        survivor_mask[c0 : c0 + length] = True
        cur_of_base[b0 : b0 + length] = np.arange(c0, c0 + length, dtype=np.int64)
    new_positions = np.flatnonzero(~survivor_mask)
    if len(new_positions) != len(new_start):
        raise SummaryFormatError(
            f"{state_path} delta covers {len(new_positions)} inserted slots "
            f"but archives {len(new_start)}"
        )
    start[new_positions] = new_start
    end[new_positions] = new_end
    level[new_positions] = new_level

    # Survivor parents: a surviving node's parent always survives, so
    # the base parent maps through; a miss means the delta is corrupt.
    for c0, b0, length in runs.tolist():
        base_parents = base.parent_index[b0 : b0 + length]
        mapped = np.where(base_parents < 0, -1, cur_of_base[np.clip(base_parents, 0, None)])
        if np.any((base_parents >= 0) & (mapped < 0)):
            raise SummaryFormatError(
                f"{state_path} delta deletes the parent of a surviving node"
            )
        parent_index[c0 : c0 + length] = mapped
    if np.any((new_parent < 0) | (new_parent >= n_cur)):
        raise SummaryFormatError(f"{state_path} delta has an inserted node without a parent")
    parent_index[new_positions] = new_parent

    # Elements: survivors from the base forest, inserted ones fresh.
    base_elements = (
        base.elements if base.elements is not None else _derived_elements(base.documents)
    )
    if len(base_elements) != base_n:
        raise SummaryFormatError(f"{state_path} base checkpoint elements misaligned")
    elements: list = [None] * n_cur
    for c0, b0, length in runs.tolist():
        elements[c0 : c0 + length] = base_elements[b0 : b0 + length]

    # Detach net-deleted subtree roots (a deleted node whose base
    # parent survives or was a document root).
    for d in np.flatnonzero(cur_of_base < 0).tolist():
        p = int(base.parent_index[d])
        if p == -1 or cur_of_base[p] >= 0:
            victim = base_elements[d]
            victim.parent.children.remove(victim)
            victim.parent = None

    vocab = incr["tag_vocab"]
    inserted = [Element(vocab[int(code)]) for code in new_tags.tolist()]
    for raw_local, attrs in incr.get("attributes", {}).items():
        inserted[int(raw_local)].attributes = dict(attrs)
    for position, element in zip(new_positions.tolist(), inserted):
        elements[position] = element

    # Children placement: every inserted element (and every text node
    # owned by one) carries its exact slot in its parent's children
    # list; inserting in ascending slot order reproduces the layout.
    placements: dict[int, list[tuple[int, object]]] = {}
    for local, element in enumerate(inserted):
        placements.setdefault(int(new_parent[local]), []).append(
            (int(new_slot[local]), element)
        )
    text_owner = archive["incr.text_owner"].tolist()
    text_slot = archive["incr.text_slot"].tolist()
    offsets = archive["incr.text_offsets"].tolist()
    blob = bytes(archive["incr.text_data"])
    for k, (owner_local, slot) in enumerate(zip(text_owner, text_slot)):
        owner_position = int(new_positions[int(owner_local)])
        node = Text(blob[offsets[k] : offsets[k + 1]].decode("utf-8"))
        placements.setdefault(owner_position, []).append((int(slot), node))
    for parent_position, entries in placements.items():
        parent_element = elements[parent_position]
        for slot, node in sorted(entries, key=lambda item: item[0]):
            if slot > len(parent_element.children):
                raise SummaryFormatError(
                    f"{state_path} delta child slot {slot} beyond the "
                    f"parent's children"
                )
            node.parent = parent_element
            parent_element.children.insert(slot, node)

    return base.documents, elements, start, end, level, parent_index


def _load_state(
    directory: Union[str, Path],
    lsn: int,
    allow_delta: bool = True,
    lazy: bool = False,
) -> _LoadedCheckpoint:
    """Load (and for delta checkpoints, reconstruct) one checkpoint's
    state archive; ``summaries`` is left unset.

    ``lazy=True`` is honoured for *full* checkpoints whose state lives
    in a page file with the fast forest encoding: the label arrays come
    back as zero-copy mmap views, the ``Element`` decode is deferred
    behind :mod:`repro.storage.lazy` proxies, and the open mapping
    rides on ``backing``.  Anything else (legacy ``.npz``, delta
    checkpoints, XML-only archives) silently degrades to an eager load.
    """
    state_path = checkpoint_paths(directory, lsn)[0]
    try:
        archive = open_array_container(state_path)
    except Exception as exc:
        raise SummaryFormatError(
            f"{state_path} is not a checkpoint state archive: {exc}"
        ) from exc
    lazy = bool(lazy) and isinstance(archive, PageFile)
    fingerprint = None
    tag_codes = tag_vocab = None
    try:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        elements = None
        if "incremental" in meta:
            if not allow_delta:
                raise SummaryFormatError(
                    f"{state_path} chains a delta onto another delta"
                )
            lazy = False
            base = _load_state(
                directory, int(meta["incremental"]["base_lsn"]), allow_delta=False
            )
            (
                documents,
                elements,
                start,
                end,
                level,
                parent_index,
            ) = _apply_state_delta(base, archive, meta, state_path)
        else:
            start = _label_array(archive["start"])
            end = _label_array(archive["end"])
            level = _label_array(archive["level"])
            parent_index = _label_array(archive["parent_index"])
            if "fast" not in meta:
                lazy = False
                documents = [
                    parse_document(bytes(archive[f"doc{k}"]).decode("utf-8"))
                    for k in range(int(meta["documents"]))
                ]
            elif lazy:
                from repro.storage.lazy import (
                    LazyDocuments,
                    LazyElements,
                    LazyForestState,
                )

                fast_meta = meta["fast"]
                tag_vocab = list(fast_meta["tag_vocab"])
                tag_codes = np.asarray(archive["fast.tags"], dtype=np.int64)
                if len(tag_codes) != len(start):
                    raise SummaryFormatError(
                        f"{state_path} stores {len(tag_codes)} tag codes "
                        f"for {len(start)} labels"
                    )
                if len(tag_codes) and (
                    int(tag_codes.min()) < 0
                    or int(tag_codes.max()) >= len(tag_vocab)
                ):
                    raise SummaryFormatError(
                        f"{state_path} tag codes fall outside the vocabulary"
                    )
                # Validating the fingerprint needs labels + tags only,
                # so a lazy open never touches the forest segments.
                fingerprint = tree_fingerprint_from_parts(
                    start, end, (tag_vocab[c] for c in tag_codes.tolist())
                )
                state = LazyForestState(
                    lambda: _decode_forest(archive, fast_meta, parent_index),
                    expected_documents=len(fast_meta["doc_roots"]),
                    expected_elements=len(start),
                )
                documents = LazyDocuments(state)
                elements = LazyElements(state)
            else:
                # Numpy-native forest: rebuild the elements without
                # tokenizing the XML members (kept for fidelity).
                documents, elements = _decode_forest(
                    archive, meta["fast"], parent_index
                )
        numerators = _decode_numerators(archive, meta)
    except SummaryFormatError:
        archive.close()
        raise
    except Exception as exc:
        archive.close()
        raise SummaryFormatError(
            f"{state_path} checkpoint state is corrupt: {exc}"
        ) from exc
    if not lazy:
        # A PageFile with exported views survives this close (it
        # releases on the last view drop); an npz handle just closes.
        archive.close()
    if not (len(start) == len(end) == len(level) == len(parent_index)):
        raise SummaryFormatError(f"{state_path} label arrays disagree in length")
    return _LoadedCheckpoint(
        lsn=int(meta["lsn"]),
        meta=meta,
        documents=documents,
        start=start,
        end=end,
        level=level,
        parent_index=parent_index,
        summaries=None,
        numerators=numerators,
        elements=elements,
        backing=archive if lazy else None,
        fingerprint=fingerprint,
        tag_codes=tag_codes,
        tag_vocab=tag_vocab,
        lazy=lazy,
    )


def checkpoint_refs(directory: Union[str, Path], lsn: int) -> set[int]:
    """Older checkpoints that ``lsn`` depends on (delta base + summary
    page references), from its state meta.  Unreadable metas yield the
    empty set -- such a checkpoint cannot recover anyway."""
    state_path = checkpoint_paths(directory, lsn)[0]
    try:
        with open_array_container(state_path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        return {int(ref) for ref in meta.get("refs", [])}
    except Exception:
        return set()


def load_checkpoint(
    directory: Union[str, Path], lsn: int, lazy: bool = False
) -> _LoadedCheckpoint:
    """Load and validate one checkpoint; raises
    :class:`~repro.histograms.store.SummaryFormatError` on any
    malformed, truncated, mismatched, or unresolvable file (including a
    referenced older checkpoint that is itself missing or corrupt).
    Both the checkpoint and its references resolve in whichever
    container they were written -- a pagefile delta may reference a
    legacy ``.npz`` base and vice versa."""
    from repro.histograms.store import load_summary_pages

    directory = Path(directory)
    summary_path = checkpoint_paths(directory, lsn)[1]
    opened: dict[int, object] = {}
    try:

        def resolve(ref_lsn: int):
            if ref_lsn not in opened:
                ref_path = checkpoint_paths(directory, ref_lsn)[1]
                try:
                    opened[ref_lsn] = open_array_container(ref_path)
                except Exception as exc:
                    raise SummaryFormatError(
                        f"{summary_path} references checkpoint {ref_lsn} "
                        f"whose summary archive is unreadable: {exc}"
                    ) from exc
            return opened[ref_lsn]

        summaries = load_summary_pages(summary_path, resolve=resolve)
    finally:
        # A PageFile whose segments were adopted zero-copy survives
        # this close until the last adopted page drops it.
        for archive in opened.values():
            archive.close()
    checkpoint = _load_state(directory, lsn, lazy=lazy)
    checkpoint.summaries = summaries
    return checkpoint


# -- retention + log compaction -----------------------------------------------


@dataclass
class CompactStats:
    """What one :func:`compact` pass did."""

    base_lsn: int
    records_dropped: int
    log_bytes_before: int
    log_bytes_after: int
    checkpoints_pruned: list[int]


def live_checkpoint_lsns(
    directory: Union[str, Path], keep_checkpoints: Optional[int] = None
) -> set[int]:
    """The checkpoints that must survive retention: the newest
    ``keep_checkpoints`` complete ones plus everything they reference
    transitively (delta bases, summary-page archives).  ``None`` keeps
    all of them."""
    directory = Path(directory)
    lsns = list_checkpoints(directory)
    if keep_checkpoints is None:
        kept = set(lsns)
    else:
        kept = set(lsns[: max(1, int(keep_checkpoints))])
    live: set[int] = set()
    queue = sorted(kept, reverse=True)
    while queue:
        lsn = queue.pop()
        if lsn in live:
            continue
        live.add(lsn)
        queue.extend(checkpoint_refs(directory, lsn) - live)
    return live


def prune_checkpoints(
    directory: Union[str, Path], keep_checkpoints: Optional[int]
) -> list[int]:
    """Delete checkpoints outside the retention set, plus stray
    temporary files; the directory entry is fsync'd afterwards so a
    crash mid-prune can strand at worst a *dead* checkpoint (whose load
    fails cleanly and falls back), never a live manifest referencing a
    deleted file -- referenced bases are always in the retention set.

    Retention is **mapping-aware**: a checkpoint any file of which is
    currently mmap'd in this process (a lazy service, a live snapshot
    holding zero-copy pages) is deferred even when it falls outside the
    retention set -- the next prune reclaims it once the last mapping
    drops.  Every container spelling of a pruned LSN is unlinked, so a
    re-checkpoint that switched formats leaves no orphaned twin.

    Returns the pruned LSNs (newest first -- also the deletion order,
    so a referencing delta dies before its base).
    """
    directory = Path(directory)
    live = live_checkpoint_lsns(directory, keep_checkpoints)
    mapped = mapped_paths()
    pruned: list[int] = []
    for lsn in list_checkpoints(directory):  # newest first
        if lsn in live:
            continue
        victims = [
            path
            for pair in _checkpoint_pairs(directory, lsn).values()
            for path in pair
            if path.exists()
        ]
        if any(path.resolve() in mapped for path in victims):
            continue
        for path in victims:
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass
        pruned.append(lsn)
    for stray in directory.glob("*.tmp"):
        stray.unlink()
    _fsync_directory(directory)
    return pruned


def compact(
    directory: Union[str, Path],
    keep_checkpoints: Optional[int] = None,
    wal: Optional[WriteAheadLog] = None,
) -> CompactStats:
    """Compact a durable directory: truncate the log's dead prefix and
    prune superseded checkpoints.

    Log records at or below the oldest *live* checkpoint (see
    :func:`live_checkpoint_lsns`) can never be replayed again -- every
    recoverable checkpoint starts at or after them -- so the log is
    rewritten without them.  The new log leads with a ``base``
    watermark record carrying that LSN: recovery refuses to use a
    checkpoint older than the watermark (its replay suffix is gone), so
    even a crash that strands a superseded checkpoint on disk can never
    cause a silently divergent recovery.  Retained records are copied
    byte-for-byte (checksums included), the new log is written to a
    temporary file, fsync'd, and atomically renamed -- a crash at any
    point leaves either the old or the new log, both fully recoverable.

    ``wal`` is the directory's open log handle when compacting a live
    service; it is flushed, closed around the rename, and reopened for
    appends.  A directory with no complete checkpoint is left alone.
    """
    directory = Path(directory)
    log_path = directory / LOG_NAME
    records, valid_end = read_records(log_path)
    raw = log_path.read_bytes() if log_path.exists() else b""
    live = live_checkpoint_lsns(directory, keep_checkpoints)
    old_base = max((r.lsn for r in records if r.type == "base"), default=0)
    if not live:
        return CompactStats(old_base, 0, len(raw), len(raw), [])
    base = max(min(live), old_base)

    dropped = sum(1 for r in records if r.type != "base" and r.lsn <= base)
    if dropped == 0:
        # Nothing to truncate (common while a delta chain pins its full
        # base): skip the O(log) rewrite entirely -- leaving the
        # watermark where it is stays safe, because every checkpoint
        # still has its full replay suffix -- and only prune.
        pruned = prune_checkpoints(directory, keep_checkpoints)
        return CompactStats(old_base, 0, len(raw), len(raw), pruned)

    keep_records = [r for r in records if r.type != "base" and r.lsn > base]
    payload = _encode_record_payload(
        {"lsn": base, "type": "base"},
        wal.codec if wal is not None else "binary",
    )
    chunks = [WAL_MAGIC, _HEADER.pack(len(payload), zlib.crc32(payload)), payload]
    chunks.extend(raw[r.offset : r.end_offset] for r in keep_records)
    new_bytes = b"".join(chunks)

    faults = wal.faults if wal is not None else None
    if wal is not None:
        wal.sync()
        wal._fh.close()
    try:
        tmp = directory / (LOG_NAME + ".tmp")
        fire(faults, CKPT_WRITE)
        with open(tmp, "wb") as handle:
            handle.write(new_bytes)
            handle.flush()
            fire(faults, CKPT_FSYNC)
            os.fsync(handle.fileno())
        fire(faults, CKPT_RENAME)
        os.replace(tmp, log_path)
        _fsync_directory(directory, faults)
    finally:
        # Reopen the append handle no matter what: a failed rewrite
        # (say ENOSPC) leaves the old log intact on disk, and the live
        # service must keep appending to it rather than dying on a
        # closed file for every later update.
        if wal is not None:
            wal._fh = open(log_path, "ab")

    pruned = prune_checkpoints(directory, keep_checkpoints)
    return CompactStats(
        base_lsn=base,
        records_dropped=dropped,
        log_bytes_before=len(raw),
        log_bytes_after=len(new_bytes),
        checkpoints_pruned=pruned,
    )


def seed_log(
    path: Union[str, Path], base_lsn: int, codec: str = "binary"
) -> None:
    """Write a fresh log whose only record is a ``base`` watermark.

    Exactly the head :func:`compact` leaves: recovery over it loads the
    checkpoint at ``base_lsn`` (refusing anything older) and replays
    nothing.  Follower bootstrap seeds its directory with this so the
    transferred checkpoint plus an empty replay suffix recover, and the
    apply loop's first shipped record lands at ``base_lsn + 1``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _encode_record_payload({"lsn": int(base_lsn), "type": "base"}, codec)
    frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(WAL_MAGIC + frame)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# -- durable open / recovery -------------------------------------------------


def create_durable(
    documents,
    directory: Union[str, Path],
    *,
    grid_size: int = 10,
    grid: str = "uniform",
    spacing: int = 64,
    rebuild_threshold: float = 0.25,
    n_workers: int = 1,
    checkpoint_every: int = 16,
    keep_checkpoints: Optional[int] = None,
    auto_compact: bool = False,
):
    """Initialise a fresh durable directory around a new service."""
    from repro.service.service import EstimationService

    directory = Path(directory)
    service = EstimationService(
        documents,
        grid_size=grid_size,
        grid=grid,
        spacing=spacing,
        rebuild_threshold=rebuild_threshold,
        n_workers=n_workers,
    )
    write_checkpoint(service, directory, 0)
    wal = WriteAheadLog(directory / LOG_NAME)
    service._attach_wal(
        wal,
        directory,
        checkpoint_every,
        last_lsn=0,
        keep_checkpoints=keep_checkpoints,
        auto_compact=auto_compact,
    )
    service.recovery_info = None
    return service


def open_durable(
    directory: Union[str, Path],
    documents=None,
    *,
    grid_size: int = 10,
    grid: str = "uniform",
    spacing: int = 64,
    rebuild_threshold: float = 0.25,
    n_workers: int = 1,
    checkpoint_every: int = 16,
    keep_checkpoints: Optional[int] = None,
    auto_compact: bool = False,
    lazy: bool = False,
):
    """Open a durable estimation service rooted at ``directory``.

    A directory with existing state (a log or any checkpoint) is
    *recovered*: the newest valid checkpoint is loaded, the log suffix
    replayed, and the torn tail (if any) truncated -- ``documents`` and
    the grid/spacing keyword arguments are ignored, because the durable
    state fixes them.  A fresh directory requires ``documents`` and is
    initialised with a checkpoint at LSN 0.  ``keep_checkpoints``
    bounds checkpoint retention (older ones are pruned after each new
    checkpoint, minus anything still referenced); ``auto_compact``
    additionally compacts the log after every checkpoint.

    ``lazy=True`` warm-starts from the checkpoint's mmap'd page files
    instead of materialising the forest up front: label arrays and
    histogram pages are zero-copy views of the mapping, estimation over
    registered tag predicates works immediately, and the ``Element``
    objects are decoded only when something actually touches them (an
    update batch, a structural scan).  WAL-suffix replay forces the
    forest, so a lazy open stays lazy exactly when the log holds no
    batches past the checkpoint.  Legacy ``.npz`` checkpoints ignore
    the flag and load eagerly.
    """
    directory = Path(directory)
    has_state = (directory / LOG_NAME).exists() or bool(list_checkpoints(directory))
    if not has_state:
        if documents is None:
            raise WalError(
                f"{directory} holds no durable state and no documents were "
                f"given to initialise it"
            )
        return create_durable(
            documents,
            directory,
            grid_size=grid_size,
            grid=grid,
            spacing=spacing,
            rebuild_threshold=rebuild_threshold,
            n_workers=n_workers,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            auto_compact=auto_compact,
        )
    return _recover(
        directory,
        n_workers=n_workers,
        checkpoint_every=checkpoint_every,
        keep_checkpoints=keep_checkpoints,
        auto_compact=auto_compact,
        lazy=lazy,
    )


def _single_target(target):
    return target.index if isinstance(target, NodeRef) else target


def apply_logged_batch(service, payload: dict, committed: bool = False) -> bool:
    """Apply one logged batch record exactly as recovery replay does.

    Shared by crash recovery and the follower apply loop -- a follower
    that has applied records up to LSN N is bit-identical to
    ``open_durable`` recovery of a log truncated at N *because they run
    this same function*.  Returns ``True`` when the batch applied
    (including the repaired-and-committed :class:`BatchError` shape) and
    ``False`` when it rolled back, leaving the pre-batch state.  A batch
    known to have committed live that cannot be reproduced raises
    :class:`WalError`: continuing would silently diverge every later
    record's pre-batch references.
    """
    service._replaying = True
    try:
        ops = decode_ops(service, payload["ops"])
        if payload.get("single") and len(ops) == 1:
            # One op: its pre-batch index *is* the current index.
            op = ops[0]
            if isinstance(op, InsertOp):
                service.insert_subtree(
                    _single_target(op.parent), op.subtree, op.position
                )
            else:
                service.delete_subtree(_single_target(op.node))
        else:
            service.apply_batch(ops)
        return True
    except BatchError as exc:
        # applied=True: the live run hit the same flush failure,
        # repaired with a rebuild, and committed -- state matches.
        # applied=False: rolled back, bit-identical to pre-batch.
        return bool(exc.applied)
    except Exception as exc:
        if committed:
            raise WalError(
                f"replay of committed batch lsn {payload.get('lsn')} "
                f"failed: {exc}"
            ) from exc
        # Unmarked record: the live run crashed mid-apply (or failed
        # the same way before writing its abort marker); the
        # rolled-back applier left the pre-batch state.
        return False
    finally:
        service._replaying = False


def _recover(
    directory: Path,
    n_workers: int,
    checkpoint_every: int,
    keep_checkpoints: Optional[int] = None,
    auto_compact: bool = False,
    lazy: bool = False,
):
    records, valid_end = read_records(directory / LOG_NAME)
    raw_size = (
        (directory / LOG_NAME).stat().st_size
        if (directory / LOG_NAME).exists()
        else 0
    )

    checkpoint = service = None
    last_error: Optional[Exception] = None
    # Compaction watermark: records at or below it were dropped, so a
    # checkpoint older than it is missing its replay suffix and must
    # never be used -- even if a crash mid-prune left it on disk.
    base_watermark = max((r.lsn for r in records if r.type == "base"), default=0)
    for lsn in list_checkpoints(directory):
        if lsn < base_watermark:
            continue
        try:
            # Both the file loads and the cross-file validation
            # (fingerprint, element-count alignment) must pass for a
            # checkpoint to be usable; a mismatched pair falls back to
            # an older checkpoint exactly like a corrupt file.
            checkpoint = load_checkpoint(directory, lsn, lazy=lazy)
            service = _service_from_checkpoint(checkpoint, n_workers)
            break
        except SummaryFormatError as exc:
            last_error = exc
    if service is None:
        raise WalError(
            f"{directory} has no loadable checkpoint; cannot recover"
            + (f" (last error: {last_error})" if last_error else "")
        )
    # Re-arm the incremental checkpointer from the stored manifest
    # *before* replay, so the splice tracker composes the replayed
    # batches over the recovered baseline.
    _seed_checkpoint_prior(service, directory, checkpoint)

    aborted = {r.lsn for r in records if r.type == "abort"}
    committed = {r.lsn for r in records if r.type == "commit"}
    replayed = skipped = 0
    for record in records:
        if record.type != "batch" or record.lsn <= checkpoint.lsn:
            continue
        if record.lsn in aborted:
            skipped += 1
            continue
        if apply_logged_batch(
            service, record.payload, committed=record.lsn in committed
        ):
            replayed += 1
        else:
            skipped += 1

    # Truncate the torn tail; reuse the scan instead of re-reading.
    wal = WriteAheadLog(directory / LOG_NAME, scanned=(records, valid_end))
    last_lsn = max(
        (r.lsn for r in records if r.type == "batch"), default=checkpoint.lsn
    )
    service._attach_wal(
        wal,
        directory,
        checkpoint_every,
        last_lsn=last_lsn,
        keep_checkpoints=keep_checkpoints,
        auto_compact=auto_compact,
    )
    service._last_checkpoint_lsn = checkpoint.lsn
    service.recovery_info = RecoveryInfo(
        checkpoint_lsn=checkpoint.lsn,
        batches_replayed=replayed,
        batches_skipped=skipped,
        truncated_bytes=max(0, raw_size - valid_end),
        next_lsn=wal.next_lsn,
    )
    return service


def _seed_checkpoint_prior(
    service, directory: Path, checkpoint: _LoadedCheckpoint
) -> None:
    """Re-arm the incremental checkpointer straight out of recovery.

    The in-memory prior index (histogram epoch -> archive location)
    used to die with the process, forcing the first post-recovery
    checkpoint to re-archive everything.  The stored manifest carries
    the same facts, and the summary loader adopts stored epoch ids
    (with a global floor so they are never re-issued), so rebuilding
    the index here lets the next checkpoint reference every unchanged
    page -- and cut a state delta against the recovered base -- exactly
    as an uninterrupted run would have.

    Only *full* checkpoints with epoch-addressed manifests qualify;
    anything else leaves the prior unset and the next checkpoint
    re-bases (the old behavior).
    """
    if "incremental" in checkpoint.meta:
        return
    from repro.histograms.store import read_summary_manifest

    summary_path = checkpoint_paths(directory, checkpoint.lsn)[1]
    try:
        manifest = read_summary_manifest(summary_path)
    except Exception:
        return
    lsn = checkpoint.lsn
    index: dict[str, dict] = {}
    for entry in manifest.get("predicates", []):
        if "epoch" not in entry or "name" not in entry:
            return  # pre-epoch manifest: nothing referenceable
        row = {
            "epoch": int(entry["epoch"]),
            "at": int(entry["ref"]) if entry.get("ref") is not None else lsn,
        }
        if entry.get("has_coverage"):
            if "cvg_epoch" not in entry:
                return
            row["cvg_epoch"] = int(entry["cvg_epoch"])
            row["cvg_at"] = (
                int(entry["cvg_ref"]) if entry.get("cvg_ref") is not None else lsn
            )
        index[entry["name"]] = row
    service._ckpt_prior = {
        "lsn": lsn,
        "base_lsn": lsn,
        "base_nodes": len(checkpoint.start),
        "summaries": index,
        "deltas_since_base": 0,
    }
    service._reset_tracker()


def _service_from_checkpoint(checkpoint: _LoadedCheckpoint, n_workers: int):
    """Materialise a service from checkpointed documents + labels +
    summaries, without rebuilding any persisted statistic.

    For a lazy checkpoint the tree is assembled around the proxy lists
    (bypassing ``LabeledTree.__init__``'s defensive ``list()`` copy,
    which would force the forest) and the catalog's per-tag index is
    seeded from the stored tag-code segment -- so registration,
    estimation, and the fingerprint check below all complete without a
    single ``Element`` existing.
    """
    from repro.estimation.estimator import AnswerSizeEstimator
    from repro.labeling.interval import LabeledTree
    from repro.predicates.base import TagPredicate
    from repro.predicates.catalog import PredicateCatalog
    from repro.service.service import EstimationService, ServiceStats
    from repro.utils.arrays import group_by_code

    meta = checkpoint.meta
    if checkpoint.elements is not None:
        elements = checkpoint.elements
    else:
        elements = []
        for document in checkpoint.documents:
            for child in document.children:
                if isinstance(child, Element):
                    elements.extend(child.iter())
    # A lazy proxy answers len() from the checkpoint metadata, so this
    # alignment check stays free either way.
    if len(elements) != len(checkpoint.start):
        raise SummaryFormatError(
            f"checkpoint documents hold {len(elements)} elements but the "
            f"label arrays cover {len(checkpoint.start)}"
        )

    service = EstimationService.__new__(EstimationService)
    service.documents = checkpoint.documents
    service.grid_size = int(meta["grid_size"])
    service.grid_kind = meta["grid_kind"]
    service.spacing = int(meta["spacing"])
    service.rebuild_threshold = float(meta["rebuild_threshold"])
    service.n_workers = n_workers
    service.stats = ServiceStats()
    service._pool = None
    service._init_wal_state()
    if checkpoint.lazy:
        tree = LabeledTree.__new__(LabeledTree)
        tree.elements = elements
        tree.start = checkpoint.start
        tree.end = checkpoint.end
        tree.level = checkpoint.level
        tree.parent_index = checkpoint.parent_index
        tree.max_label = int(meta["max_label"])
        tree._index_of = None
        # Advertise the mapping to the sharded statistics builder:
        # workers re-open the page file read-only instead of receiving
        # pickled array copies.  The identity fields double as a
        # staleness guard (any relabel replaces the arrays).
        tree.mapped_labels = {
            "path": str(checkpoint.backing.path),
            "start": checkpoint.start,
            "end": checkpoint.end,
            "codes": checkpoint.tag_codes,
            "vocab": checkpoint.tag_vocab,
        }
        service.tree = tree
    else:
        service.tree = LabeledTree(
            elements,
            checkpoint.start,
            checkpoint.end,
            checkpoint.level,
            checkpoint.parent_index,
            int(meta["max_label"]),
        )
    service._ckpt_backing = checkpoint.backing
    loaded = checkpoint.summaries
    fingerprint = (
        checkpoint.fingerprint
        if checkpoint.fingerprint is not None
        else tree_fingerprint(service.tree)
    )
    if loaded.fingerprint != fingerprint:
        raise SummaryFormatError(
            "checkpoint summaries do not match the checkpointed documents "
            "(fingerprint mismatch)"
        )
    service.catalog = PredicateCatalog(service.tree)
    if checkpoint.lazy:
        vocab = checkpoint.tag_vocab
        grouped = group_by_code(checkpoint.tag_codes)
        for group in grouped.values():
            group.setflags(write=False)
        service.catalog._tag_indices = {
            vocab[code]: group for code, group in grouped.items()
        }
    service.estimator = AnswerSizeEstimator(
        service.tree, grid_size=service.grid_size, catalog=service.catalog
    )
    service.estimator.grid = loaded.grid
    service._numerators = {}
    service._dirty_nodes = int(meta.get("dirty_nodes", 0))
    service._optimizer = None
    service._executor = None
    for row in loaded.summaries:
        if row.kind != "tag" or row.tag is None:
            continue
        predicate = TagPredicate(row.tag)
        # Register before installing, as warm_start does: an installed
        # histogram must be catalog-tracked or later updates drift.
        service.catalog.register(predicate)
        service.estimator._position_cache[predicate] = row.position
        if row.coverage is not None:
            service.estimator._coverage_cache[predicate] = row.coverage
    for tag, numerators in checkpoint.numerators.items():
        predicate = TagPredicate(tag)
        service.catalog.register(predicate)
        service._numerators[predicate] = numerators
    return service
