"""Batched update application for the estimation service.

:meth:`~repro.service.service.EstimationService.apply_batch` applies a
whole sequence of subtree inserts and deletes as one unit.  The final
database state is exactly what applying the operations one at a time
would produce (operations are interpreted *sequentially*: an index
refers to the tree as left by the operations before it, and a node
inserted earlier in the batch can be the parent -- or the victim -- of
a later operation).  What changes is the maintenance cost model:

* the **label splices** run in one pass over the operations
  (:func:`repro.labeling.dynamic.plan_insert` /
  :func:`~repro.labeling.dynamic.apply_insert` /
  :func:`~repro.labeling.dynamic.apply_delete`), tracking every node's
  position through the batch with vectorised shift arrays;
* operations **coalesce**: a node inserted and then deleted inside the
  same batch contributes to no summary at all, and every summary sees
  only the batch's *net* node deltas;
* the **position and TRUE histograms** take one signed accumulation
  flush each (:meth:`~repro.histograms.position.PositionHistogram.apply_signed_delta`)
  instead of per-update passes;
* the **catalog** rebuilds each predicate's index array with one
  vectorised gather + merge (:meth:`~repro.predicates.catalog.PredicateCatalog.apply_batch`),
  re-checking no-overlap once per predicate;
* **coverage numerators** are patched from two vectorised
  nearest-member passes (net-deleted nodes against the pre-batch label
  table, net-inserted nodes against the post-batch one), and each
  coverage histogram's fractions are re-derived once;
* every touched **pH-join coefficient / level histogram** is
  invalidated once per batch.

The batch is also the atomicity unit for rebuild decisions: the dirty
threshold is evaluated once against the batch's total touched nodes.
A label-gap exhaustion mid-batch first tries a *local* rebalance
(:func:`repro.labeling.dynamic.rebalance_for_insert`): labels are
respread inside the smallest ancestor region wide enough to make room,
the moved slice's surviving nodes are re-filed in every maintained
summary by the flush (``-old`` / ``+new`` cells), and the batch stays
on the incremental path.  Only when no ancestor region is wide enough
does the batch fall back to relabeling the whole forest and finishing
under a full statistics rebuild.  Batches are atomic with respect
to failures: every operation's document-model mutation is journalled as
it is applied, and if a later operation fails -- even half-way through
its own splice -- the journal is unwound and the pre-batch label table
is restored, so the service is left bit-identical to its pre-batch
state before :class:`BatchError` propagates.  The pre-batch references
stay valid because splices replace the label arrays and never write an
element list that was handed out (the applier takes its rollback image
with :meth:`~repro.labeling.interval.LabeledTree.share_elements`, so the
first splice of the batch copies the list once and the rest edit that
copy in place).  (Summary maintenance has
not started at that point: histograms, catalog, and coverage numerators
are only touched by the flush, which runs after every operation
succeeded.)  A failure *inside* the flush is repaired with a full
rebuild instead -- the batch's operations stay applied
(``BatchError.applied`` distinguishes the two outcomes for durability
layers that must decide between replaying and skipping the batch).

Net-delta correctness rests on two invariants of subtree updates: a
surviving node's labels and ancestor chain never change within a batch
(splices never relabel or reparent existing nodes; the one exception,
a local rebalance, reports exactly which slice it moved so the flush
can re-file those nodes), and a deleted node's covering predicate
ancestors are deleted with it only if the node itself is inside the
deleted subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.histograms.coverage import CellPair
from repro.histograms.grid import GridSpec
from repro.labeling.dynamic import (
    GapExhausted,
    apply_delete,
    apply_insert,
    plan_insert,
    rebalance_for_insert,
)
from repro.labeling.interval import label_forest, relabel_preorder
from repro.predicates.base import Predicate
from repro.xmltree.tree import Element


@dataclass(frozen=True)
class NodeRef:
    """An operation target by pre-order index in the *pre-batch* tree.

    The in-memory twin of the write-ahead log's ``["node", i]``: unlike
    a bare ``int`` (interpreted against the tree as earlier operations
    of the batch left it), the applier tracks it through those
    operations exactly like an :class:`Element` handle -- without ever
    needing an element -> index map.
    """

    index: int


Target = Union[Element, int, NodeRef]


@dataclass
class InsertOp:
    """Insert ``subtree`` under ``parent`` at element-child rank
    ``position`` (``None`` appends as the last child)."""

    parent: Target
    subtree: Element
    position: Optional[int] = None


@dataclass
class DeleteOp:
    """Delete ``node`` and its whole subtree."""

    node: Target


BatchOp = Union[InsertOp, DeleteOp, tuple]


@dataclass
class BatchResult:
    """What one :meth:`~repro.service.service.EstimationService.apply_batch`
    call did."""

    ops: int
    inserts: int
    deletes: int
    nodes_inserted: int
    nodes_deleted: int
    rebuilt: bool
    predicates_changed: int
    coefficients_invalidated: int
    dirty_fraction: float


class BatchError(RuntimeError):
    """A batch failed part-way through.

    ``applied`` tells what state the service was left in:

    * ``False`` -- an *operation* failed: the batch was rolled back and
      the service is bit-identical to its pre-batch state (labels,
      structure, and every maintained summary untouched);
    * ``True`` -- every operation applied but the summary *flush*
      failed: the post-batch document state stays, and the service was
      re-synchronised with a full statistics rebuild.

    Durability layers use the flag to mark the batch's write-ahead-log
    record committed (``True``) or aborted (``False``).
    """

    def __init__(self, message: str, applied: bool = False) -> None:
        super().__init__(message)
        self.applied = applied


def normalize_ops(ops: Sequence[BatchOp]) -> list[Union[InsertOp, DeleteOp]]:
    """Accept ``InsertOp``/``DeleteOp`` objects or plain tuples
    (``("insert", parent, subtree[, position])`` / ``("delete", node)``)."""
    out: list[Union[InsertOp, DeleteOp]] = []
    for op in ops:
        if isinstance(op, (InsertOp, DeleteOp)):
            out.append(op)
            continue
        kind = op[0]
        if kind == "insert":
            if len(op) == 3:
                out.append(InsertOp(op[1], op[2]))
            elif len(op) == 4:
                out.append(InsertOp(op[1], op[2], op[3]))
            else:
                raise ValueError(f"malformed insert op {op!r}")
        elif kind == "delete":
            if len(op) != 2:
                raise ValueError(f"malformed delete op {op!r}")
            out.append(DeleteOp(op[1]))
        else:
            raise ValueError(f"unknown batch op kind {kind!r}")
    return out


@dataclass
class _InsertRecord:
    """One applied insert, with its nodes' positions tracked through
    every later operation of the batch."""

    elements: list[Element]
    positions: np.ndarray
    alive: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.alive is None:
            self.alive = np.ones(len(self.elements), dtype=bool)


class BatchApplier:
    """Single-use applier for one update batch over one service."""

    def __init__(self, service) -> None:
        self.service = service
        self.tree = service.tree
        self.records: list[_InsertRecord] = []
        self.inserted_slot: dict[int, tuple[_InsertRecord, int]] = {}
        self.deleted_old: list[np.ndarray] = []
        self.touched = 0
        self.inserts = 0
        self.deletes = 0
        self.nodes_inserted = 0
        self.nodes_deleted = 0
        self.degraded = False
        self.rebalances = 0
        # Pre-batch indices of surviving nodes whose labels a local
        # rebalance moved; the flush re-files their cells (-old/+new).
        self.moved_old = np.empty(0, dtype=np.int64)
        # id(element) -> pre-batch index, for this batch's element
        # targets only.
        self._initial_index: dict[int, int] = {}
        # Document-model journal for rollback: ("insert", subtree_root)
        # and ("delete", element, parent, child_slot) entries in apply
        # order, recorded *before* each mutation so a failure half-way
        # through an operation is still unwound.
        self._undo: list[tuple] = []

    # -- public entry ------------------------------------------------------

    def apply(self, ops: Sequence[BatchOp]) -> BatchResult:
        service = self.service
        plan = normalize_ops(ops)
        if not plan:
            return BatchResult(0, 0, 0, 0, 0, False, 0, 0, service.dirty_fraction)
        service._sync_coverage_numerators()

        # Element handles resolve through the pre-batch numbering plus
        # position tracking; their indices must be looked up before the
        # first splice shifts anything.  (A miss is an element inserted
        # earlier in this batch -- ``inserted_slot`` will know it -- or
        # one not in the tree, which ``_resolve`` reports.)
        for op in plan:
            target = op.parent if isinstance(op, InsertOp) else op.node
            if isinstance(target, Element):
                try:
                    self._initial_index[id(target)] = self.tree.index_of(target)
                except KeyError:
                    pass

        # Pre-batch view: splices replace the label arrays and never
        # write an element list that was handed out, so plain references
        # are a consistent snapshot -- and double as the rollback image.
        self.start0 = self.tree.start
        self.end0 = self.tree.end
        self.parent0 = self.tree.parent_index
        self.level0 = self.tree.level
        self.max_label0 = self.tree.max_label
        self.elements0 = self.tree.share_elements()
        self.tracker0 = service._ckpt_tracker  # replaced, never mutated
        self.orig_pos = np.arange(len(self.tree), dtype=np.int64)

        applied = 0
        try:
            for op in plan:
                if isinstance(op, InsertOp):
                    self._apply_insert(op)
                else:
                    self._apply_delete(op)
                applied += 1
            self._compose_tracker()
        except Exception as exc:
            self._rollback()
            if applied == 0:
                raise  # first operation failed; pre-batch state restored
            raise BatchError(
                f"batch operation {applied} failed after {applied} earlier "
                f"operation(s) were applied; the batch was rolled back and "
                f"the service is in its pre-batch state: {exc}",
                applied=False,
            ) from exc

        predicted = service._dirty_nodes + self.touched
        threshold = service.rebuild_threshold * max(1, len(self.tree))
        if self.degraded or predicted > threshold:
            service._dirty_nodes = predicted
            try:
                service.rebuild(from_documents=False, catalog_in_sync=False)
            except Exception as exc:
                # The operations are all applied; only the eager
                # rebuild died.  Flag that for durability layers (the
                # record must replay, not be skipped).
                raise BatchError(
                    f"rebuild failed after all {applied} operation(s) were "
                    f"applied: {exc}",
                    applied=True,
                ) from exc
            self._count_into_stats()
            return self._result(rebuilt=True, changed=0, invalidated=0)

        try:
            changed, invalidated = self._flush_deltas()
        except Exception as exc:
            # Operations are all applied; only summary maintenance is
            # suspect.  Re-derive everything from the (consistent)
            # post-batch label table.
            service._dirty_nodes = predicted
            service.rebuild(from_documents=False, catalog_in_sync=False)
            self._count_into_stats()
            raise BatchError(
                f"summary flush failed after all {applied} operation(s) were "
                f"applied; service rebuilt to stay consistent: {exc}",
                applied=True,
            ) from exc
        service._dirty_nodes = predicted
        service._optimizer = None
        service._executor = None
        service._publish_epoch()
        self._count_into_stats()
        service.stats.coefficient_invalidations += invalidated
        return self._result(rebuilt=False, changed=changed, invalidated=invalidated)

    def _rollback(self) -> None:
        """Unwind every document-model mutation and restore the
        pre-batch label table, leaving the service bit-identical to its
        state when :meth:`apply` was entered.

        Safe against half-applied operations: journal entries are
        recorded before the mutations they describe, and the label
        arrays are restored wholesale from the pre-batch references
        (splices and relabels replace arrays rather than writing into
        them, so those references are still the pre-batch values).
        Catalog, histograms, and coverage numerators need no undo --
        the flush that touches them only runs after every operation
        succeeded.
        """
        for entry in reversed(self._undo):
            if entry[0] == "insert":
                subtree = entry[1]
                if subtree.parent is not None:
                    subtree.parent.children.remove(subtree)
                    subtree.parent = None
            else:
                _, element, parent, slot = entry
                element.parent = parent
                parent.children.insert(slot, element)
        self.tree.replace_contents(
            self.elements0,
            self.start0,
            self.end0,
            self.level0,
            self.parent0,
            self.max_label0,
        )
        self.service._ckpt_tracker = self.tracker0

    # -- splice pass -------------------------------------------------------

    def _resolve(self, target: Target) -> int:
        """Current pre-order index of an operation target.

        Integers are interpreted against the tree as already mutated by
        the batch's earlier operations (sequential semantics); elements
        resolve through the position tracking, so handles stay valid no
        matter how earlier operations shifted the numbering, and so do
        :class:`NodeRef` pre-batch indices.
        """
        if isinstance(target, NodeRef):
            initial = target.index
            if not 0 <= initial < len(self.orig_pos):
                raise IndexError(f"node index {initial} outside the tree")
        elif not isinstance(target, Element):
            index = int(target)
            if not 0 <= index < len(self.tree):
                raise IndexError(f"node index {index} outside the tree")
            return index
        else:
            key = id(target)
            slot = self.inserted_slot.get(key)
            if slot is not None:
                record, local = slot
                if not record.alive[local]:
                    raise ValueError(
                        "operation targets a node deleted earlier in the batch"
                    )
                return int(record.positions[local])
            initial = self._initial_index.get(key)
            if initial is None:
                raise ValueError("operation targets an element not in the tree")
        current = int(self.orig_pos[initial])
        if current < 0:
            raise ValueError(
                "operation targets a node deleted earlier in the batch"
            )
        return current

    def _shift_up(self, position: int, size: int) -> None:
        self.orig_pos[self.orig_pos >= position] += size
        for record in self.records:
            record.positions[record.positions >= position] += size

    def _apply_insert(self, op: InsertOp) -> None:
        parent_index = self._resolve(op.parent)
        subtree = op.subtree
        if subtree.parent is not None:
            raise ValueError("subtree to insert must be detached (parent is None)")
        try:
            plan = plan_insert(self.tree, parent_index, subtree, op.position)
        except GapExhausted:
            plan = self._rebalanced_plan(parent_index, subtree, op.position)
            if plan is None:
                self.degraded = True
                # The relabel moves every surviving node's labels, so
                # the incremental-state delta against the last full
                # checkpoint no longer describes this tree.  (Rollback
                # restores the pre-batch tracker; the degraded batch
                # otherwise ends in a rebuild, which keeps it
                # invalidated.)
                self.service._ckpt_tracker = None
                relabel_preorder(self.tree, self.service.spacing)
                try:
                    plan = plan_insert(
                        self.tree, parent_index, subtree, op.position
                    )
                except GapExhausted:
                    self._oversized_insert(parent_index, op)
                    return
        self._undo.append(("insert", subtree))
        self.service._attach_child(
            self.tree.elements[parent_index], subtree, op.position
        )
        apply_insert(self.tree, plan)
        self._shift_up(plan.position, plan.size)
        self._track_insert(plan.elements, plan.position)

    def _rebalanced_plan(self, parent_index: int, subtree, position):
        """Try to make room for an exhausted-gap insert with a *local*
        label rebalance instead of a full-forest relabel.

        On success the batch stays on the incremental path
        (``degraded`` is not set): only the rebalanced slice's labels
        moved, its surviving pre-batch nodes are queued for the
        flush's moved-node re-file, and the retried
        :func:`~repro.labeling.dynamic.plan_insert` is returned.
        Returns ``None`` when no ancestor region is wide enough (or,
        defensively, when the retry still cannot fit), sending the
        caller down the existing full-relabel path.
        """
        need = sum(1 for _ in subtree.iter())
        region = rebalance_for_insert(self.tree, parent_index, need, position)
        if region is None:
            return None
        lo, hi = region
        # Labels moved, so the incremental-checkpoint delta no longer
        # describes this tree (the moved slice is label-, not
        # structure-, dirty, which the tracker cannot express).
        self.service._ckpt_tracker = None
        moved = np.flatnonzero((self.orig_pos >= lo) & (self.orig_pos < hi))
        if moved.size:
            self.moved_old = np.union1d(self.moved_old, moved)
            self.touched += int(moved.size)
        self.rebalances += 1
        try:
            return plan_insert(self.tree, parent_index, subtree, position)
        except GapExhausted:
            return None

    def _oversized_insert(self, parent_index: int, op: InsertOp) -> None:
        """A subtree larger than any fresh gap: attach it and relabel
        the whole forest by walking the documents (rare degraded path)."""
        parent_element = self.tree.elements[parent_index]
        self._undo.append(("insert", op.subtree))
        self.service._attach_child(parent_element, op.subtree, op.position)
        self.service._ckpt_tracker = None  # whole-forest relabel
        labeled = label_forest(self.service.documents, spacing=self.service.spacing)
        self.tree.replace_contents(
            labeled.elements,
            labeled.start,
            labeled.end,
            labeled.level,
            labeled.parent_index,
            labeled.max_label,
        )
        position = self.tree.index_of(op.subtree)
        elements = list(op.subtree.iter())
        self._shift_up(position, len(elements))
        self._track_insert(elements, position)

    def _track_insert(self, elements: list[Element], position: int) -> None:
        record = _InsertRecord(
            elements=elements,
            positions=position + np.arange(len(elements), dtype=np.int64),
        )
        self.records.append(record)
        for local, element in enumerate(elements):
            self.inserted_slot[id(element)] = (record, local)
        self.touched += len(elements)
        self.inserts += 1
        self.nodes_inserted += len(elements)

    def _apply_delete(self, op: DeleteOp) -> None:
        index = self._resolve(op.node)
        sub = self.tree.subtree_slice(index)
        position, count = sub.start, sub.stop - sub.start

        in_range = np.flatnonzero(
            (self.orig_pos >= position) & (self.orig_pos < position + count)
        )
        if in_range.size:
            self.deleted_old.append(in_range)
            self.orig_pos[in_range] = -1
        self.orig_pos[self.orig_pos >= position + count] -= count
        for record in self.records:
            dead = (
                record.alive
                & (record.positions >= position)
                & (record.positions < position + count)
            )
            record.alive[dead] = False
            record.positions = np.where(
                record.positions >= position + count,
                record.positions - count,
                record.positions,
            )

        element = self.tree.elements[index]
        parent_element = element.parent
        self._undo.append(
            ("delete", element, parent_element, parent_element.children.index(element))
        )
        parent_element.children.remove(element)
        element.parent = None
        apply_delete(self.tree, index)
        self.touched += count
        self.deletes += 1
        self.nodes_deleted += count

    def _compose_tracker(self) -> None:
        """Carry the incremental-checkpoint tracker across the whole
        splice pass in one scatter: surviving pre-batch nodes keep their
        full-checkpoint index at their post-batch position, everything
        else was inserted since (``-1``).  A mid-batch rebalance or
        relabel already dropped the tracker, and it stays dropped."""
        service = self.service
        if service._ckpt_tracker is None:
            return
        alive = np.flatnonzero(self.orig_pos >= 0)
        tracker = np.full(len(self.tree), -1, dtype=np.int64)
        tracker[self.orig_pos[alive]] = self.tracker0[alive]
        service._ckpt_tracker = tracker

    # -- net-delta flush ---------------------------------------------------

    def _net_inserted(self) -> list[tuple[int, Element]]:
        out: list[tuple[int, Element]] = []
        for record in self.records:
            for local in np.flatnonzero(record.alive).tolist():
                out.append((int(record.positions[local]), record.elements[local]))
        return out

    def _flush_deltas(self) -> tuple[int, int]:
        """Apply the batch's net deltas to every maintained summary.

        Returns ``(predicates changed, coefficient kernels dropped)``.
        """
        service = self.service
        estimator = service.estimator
        grid = estimator.grid
        tree = self.tree

        inserted = self._net_inserted()
        ins_pos = np.asarray([p for p, _ in inserted], dtype=np.int64)
        del_old = (
            np.sort(np.concatenate(self.deleted_old))
            if self.deleted_old
            else np.empty(0, dtype=np.int64)
        )
        # Surviving nodes a mid-batch rebalance moved: every summary
        # counted them at their pre-batch cells and must re-file them at
        # their post-batch ones.  (Moved nodes deleted later in the
        # batch are already in ``del_old`` with pre-batch labels --
        # their rebalanced labels never reached any summary.)
        moved = self.moved_old
        if moved.size:
            moved = moved[self.orig_pos[moved] >= 0]
        moved_cur = self.orig_pos[moved]

        ins_cols = grid.buckets(tree.start[ins_pos])
        ins_rows = grid.buckets(tree.end[ins_pos])
        del_cols = grid.buckets(self.start0[del_old])
        del_rows = grid.buckets(self.end0[del_old])
        signs = np.concatenate(
            [
                np.ones(len(ins_pos), dtype=np.int64),
                -np.ones(len(del_old), dtype=np.int64),
            ]
        )

        if estimator._true_hist is not None:
            estimator._true_hist.apply_signed_delta(
                np.concatenate([ins_cols, del_cols]),
                np.concatenate([ins_rows, del_rows]),
                signs,
            )
            if moved.size:
                estimator._true_hist.apply_signed_delta(
                    np.concatenate(
                        [grid.buckets(tree.start[moved_cur]),
                         grid.buckets(self.start0[moved])]
                    ),
                    np.concatenate(
                        [grid.buckets(tree.end[moved_cur]),
                         grid.buckets(self.end0[moved])]
                    ),
                    np.concatenate(
                        [
                            np.ones(moved.size, dtype=np.int64),
                            -np.ones(moved.size, dtype=np.int64),
                        ]
                    ),
                )

        # Old membership must be captured before the catalog remaps it:
        # deleted nodes pair with the members they had when deleted.
        old_members: dict[Predicate, tuple[np.ndarray, bool]] = {
            predicate: (
                service.catalog.stats(predicate).node_indices,
                service.catalog.stats(predicate).no_overlap,
            )
            for predicate in service._numerators
        }

        changed = service.catalog.apply_batch(self.orig_pos, inserted)

        invalidated = 0
        for predicate, (added, removed_old) in changed.items():
            histogram = estimator._position_cache.get(predicate)
            if histogram is not None:
                histogram.apply_signed_delta(
                    np.concatenate(
                        [grid.buckets(tree.start[added]),
                         grid.buckets(self.start0[removed_old])]
                    ),
                    np.concatenate(
                        [grid.buckets(tree.end[added]),
                         grid.buckets(self.end0[removed_old])]
                    ),
                    np.concatenate(
                        [
                            np.ones(len(added), dtype=np.int64),
                            -np.ones(len(removed_old), dtype=np.int64),
                        ]
                    ),
                )
            invalidated += estimator.invalidate_derived(predicate)
            if predicate not in service._numerators:
                # Membership changed under a coverage the service does
                # not maintain: force a from-scratch rebuild on next use.
                estimator._coverage_cache.pop(predicate, None)

        if moved.size:
            # Re-file moved members in every cached per-predicate
            # summary.  Membership itself is untouched by a rebalance
            # (it depends on the element, not its labels), so the
            # post-batch catalog identifies the moved members directly.
            derived = (
                set(estimator._position_cache)
                | set(estimator._level_cache)
                | set(estimator._coefficient_cache)
            )
            for predicate in derived:
                members = service.catalog.stats(predicate).node_indices
                if members.size:
                    slots = np.minimum(
                        np.searchsorted(members, moved_cur), members.size - 1
                    )
                    hit = members[slots] == moved_cur
                else:
                    hit = np.zeros(moved.size, dtype=bool)
                if not hit.any():
                    continue
                sel_old = moved[hit]
                sel_cur = moved_cur[hit]
                histogram = estimator._position_cache.get(predicate)
                if histogram is not None:
                    histogram.apply_signed_delta(
                        np.concatenate(
                            [grid.buckets(tree.start[sel_cur]),
                             grid.buckets(self.start0[sel_old])]
                        ),
                        np.concatenate(
                            [grid.buckets(tree.end[sel_cur]),
                             grid.buckets(self.end0[sel_old])]
                        ),
                        np.concatenate(
                            [
                                np.ones(sel_cur.size, dtype=np.int64),
                                -np.ones(sel_old.size, dtype=np.int64),
                            ]
                        ),
                    )
                invalidated += estimator.invalidate_derived(predicate)
            # Coverages the service does not maintain numerators for
            # cannot be delta-patched; moved cells make them stale.
            for predicate in list(estimator._coverage_cache):
                if predicate not in service._numerators:
                    estimator._coverage_cache.pop(predicate, None)

        for predicate in list(service._numerators):
            stats = service.catalog.stats(predicate)
            if not stats.effective_no_overlap:
                del service._numerators[predicate]
                estimator._coverage_cache.pop(predicate, None)
                continue
            members_old, flag_old = old_members[predicate]
            # Moved nodes re-file on both sides of the patch: their
            # pre-batch pairs leave with the pre-batch table, their
            # post-batch pairs arrive with the current one.  A moved
            # *member*'s covered nodes all sit inside the rebalanced
            # slice (they are its descendants), so keying the pass on
            # moved covered-nodes captures every pair either side of
            # which moved.
            lost_nodes = (
                np.concatenate([del_old, moved]) if moved.size else del_old
            )
            gained_nodes = (
                np.concatenate([ins_pos, moved_cur]) if moved.size else ins_pos
            )
            lost_codes, lost_counts = _covering_pairs(
                self.start0, self.end0, self.parent0,
                lost_nodes, members_old, flag_old, grid,
            )
            gained_codes, gained_counts = _covering_pairs(
                tree.start, tree.end, tree.parent_index,
                gained_nodes, stats.node_indices, stats.no_overlap, grid,
            )
            service._numerators[predicate] = service._numerators[predicate].patch(
                gained_codes, gained_counts, lost_codes, lost_counts,
                owner=predicate.name,
            )
            service._install_coverage(predicate)
        return len(changed), invalidated

    # -- bookkeeping -------------------------------------------------------

    def _count_into_stats(self) -> None:
        stats = self.service.stats
        stats.batches += 1
        stats.rebalances += self.rebalances
        stats.inserts += self.inserts
        stats.deletes += self.deletes
        stats.nodes_inserted += self.nodes_inserted
        stats.nodes_deleted += self.nodes_deleted

    def _result(self, rebuilt: bool, changed: int, invalidated: int) -> BatchResult:
        return BatchResult(
            ops=self.inserts + self.deletes,
            inserts=self.inserts,
            deletes=self.deletes,
            nodes_inserted=self.nodes_inserted,
            nodes_deleted=self.nodes_deleted,
            rebuilt=rebuilt,
            predicates_changed=changed,
            coefficients_invalidated=invalidated,
            dirty_fraction=self.service.dirty_fraction,
        )


def _covering_pairs(
    starts: np.ndarray,
    ends: np.ndarray,
    parents: np.ndarray,
    nodes: np.ndarray,
    members: np.ndarray,
    no_overlap: bool,
    grid: GridSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Count ``(cell(node), cell(covering member))`` pairs for a node
    subset against one consistent label table.

    Returns sorted packed pair codes with counts (the
    :class:`~repro.histograms.coverage.CoverageNumerators` layout).
    With the no-overlap property (in the data), each node's unique
    covering member comes from the shared
    :func:`~repro.histograms.parallel.covering_members` kernel;
    otherwise the nearest member ancestor comes from the vectorized
    parent-chain walk (the semantics the per-update maintenance path
    uses for schema-asserted no-overlap predicates).
    """
    from repro.histograms.parallel import covering_members, nearest_member_ancestors

    empty = np.empty(0, dtype=np.int64)
    if nodes.size == 0 or members.size == 0:
        return empty, empty
    g = grid.size
    if no_overlap:
        node_idx, member_idx = covering_members(starts, ends, members, nodes)
    else:
        node_idx, member_idx = nearest_member_ancestors(parents, members, nodes)
    if node_idx.size == 0:
        return empty, empty

    keys = (
        (grid.buckets(starts[node_idx]) * g + grid.buckets(ends[node_idx]))
        * (g * g)
        + grid.buckets(starts[member_idx]) * g
        + grid.buckets(ends[member_idx])
    )
    return np.unique(keys, return_counts=True)
