"""Gap-aware dynamic maintenance of interval labels.

The pre-order numbering of :func:`~repro.labeling.interval.label_forest`
is dense by default, which makes any structural update a full relabel.
For the online statistics service the forest is labeled with a
``spacing`` factor instead, leaving unused integer positions between
consecutive labels; this module allocates labels *inside* those gaps so
that a subtree can be inserted in place:

* :func:`plan_insert` finds the open label interval at the insertion
  point (as a new child of a parent, at any child position) and assigns
  start/end labels to every node of the incoming subtree, spreading them
  evenly over the gap so nested future inserts keep room of their own;
* :func:`apply_insert` splices the planned nodes into the labeled
  tree's flat arrays;
* :func:`apply_delete` removes a subtree's contiguous pre-order slice,
  returning its labels to the gap pool.

When an insertion point's gap cannot hold the incoming subtree,
:func:`plan_insert` raises :class:`GapExhausted` -- the signal for the
service layer that labels must be reassigned (a full rebuild).  All
splices keep every invariant of the labeling (``start < end``, strict
nesting, pre-order ``start`` order), so histograms built from the
mutated tree are exactly what a fresh build over the same tree yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.labeling.interval import LabeledTree
from repro.xmltree.tree import Element


class GapExhausted(RuntimeError):
    """The label gap at an insertion point cannot hold the new subtree."""


@dataclass
class InsertPlan:
    """A fully-labeled pending insertion.

    Attributes
    ----------
    position:
        Pre-order index where the new nodes are spliced in (one past the
        parent's current last descendant).
    elements:
        The subtree's elements in pre-order.
    start, end, level, parent_index:
        Label arrays for the new nodes, aligned with ``elements``;
        ``parent_index`` already uses post-splice global numbering.
    stride:
        The gap step the labels were spread with (diagnostic).
    """

    position: int
    elements: list[Element]
    start: np.ndarray
    end: np.ndarray
    level: np.ndarray
    parent_index: np.ndarray
    stride: int

    @property
    def size(self) -> int:
        return len(self.elements)


def gap_after_last_child(tree: LabeledTree, parent: int) -> tuple[int, int]:
    """The open label interval ``(lo, hi)`` for a new last child.

    ``lo`` is the largest label already used inside the parent's subtree
    (the parent's own start when it is a leaf), ``hi`` the parent's end
    label; new labels must fall strictly between the two.
    """
    sub = tree.subtree_slice(parent)
    if sub.stop > parent + 1:
        lo = int(tree.end[parent + 1 : sub.stop].max())
    else:
        lo = int(tree.start[parent])
    return lo, int(tree.end[parent])


def child_indices(tree: LabeledTree, parent: int) -> np.ndarray:
    """Pre-order indices of the direct element children of ``parent``."""
    sub = tree.subtree_slice(parent)
    offset = parent + 1
    return offset + np.flatnonzero(tree.parent_index[offset : sub.stop] == parent)


def gap_for_insert(
    tree: LabeledTree, parent: int, child_position: Optional[int] = None
) -> tuple[int, int, int]:
    """The open label interval and splice point for a planned insertion.

    Returns ``(lo, hi, position)``: labels of the new subtree must fall
    strictly inside ``(lo, hi)``, and its nodes are spliced into the
    pre-order arrays at ``position``.  ``child_position`` is the 0-based
    rank among the parent's element children the new subtree takes
    (existing children at that rank and later shift right); ``None`` or
    the current child count appends as the last child.
    """
    if child_position is None:
        lo, hi = gap_after_last_child(tree, parent)
        return lo, hi, tree.subtree_slice(parent).stop
    if child_position < 0:
        raise ValueError(f"child position must be >= 0, got {child_position}")
    children = child_indices(tree, parent)
    if child_position >= len(children):
        lo, hi = gap_after_last_child(tree, parent)
        return lo, hi, tree.subtree_slice(parent).stop
    follower = int(children[child_position])
    if child_position == 0:
        lo = int(tree.start[parent])
    else:
        lo = int(tree.end[children[child_position - 1]])
    return lo, int(tree.start[follower]), follower


def slice_subtree_sizes(depth: np.ndarray, pslot: np.ndarray) -> np.ndarray:
    """Per-node subtree sizes for a pre-order slice, bottom-up.

    ``depth`` holds relative depths (top nodes of the slice at 1),
    ``pslot`` in-slice parent slots (-1 for top nodes).  One stable
    grouping by depth, then ``np.add.at`` folds each level's finished
    sizes into its parents -- O(n) work plus one kernel call per level.
    """
    sizes = np.ones(len(depth), dtype=np.int64)
    if len(depth) == 0:
        return sizes
    order = np.argsort(depth, kind="stable")
    sorted_d = depth[order]
    cuts = np.flatnonzero(
        np.concatenate(([True], sorted_d[1:] != sorted_d[:-1]))
    )
    groups = np.split(order, cuts[1:])
    for group in reversed(groups[1:]):  # deepest level first; top level has no in-slice parent
        np.add.at(sizes, pslot[group], sizes[group])
    return sizes


def spread_labels(
    depth: np.ndarray,
    pslot: np.ndarray,
    base: int,
    stride: int,
    hole_event: Optional[int] = None,
    hole_width: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized enter/exit label assignment for a pre-order slice.

    Node ``k`` (0-based pre-order slot, relative depth ``d_k``) has
    enter event ``e_k = 2k - d_k + 1`` and exit event
    ``e_k + 2*s_k - 1`` with ``s_k`` its subtree size; event ``t``
    receives label ``base + stride * (t + 1)`` -- exactly the sequence
    the sequential enter/exit walk emits.  When ``hole_event`` is set,
    events at or past it shift by ``hole_width``, reserving that many
    event positions (for a splice that will land inside the slice).
    """
    k = np.arange(len(depth), dtype=np.int64)
    sizes = slice_subtree_sizes(depth, pslot)
    entry = 2 * k - depth + 1
    exit_ = entry + 2 * sizes - 1
    if hole_event is not None:
        entry = np.where(entry >= hole_event, entry + hole_width, entry)
        exit_ = np.where(exit_ >= hole_event, exit_ + hole_width, exit_)
    starts = base + stride * (entry + 1)
    ends = base + stride * (exit_ + 1)
    return starts, ends


def _spread_labels_python(
    depth: np.ndarray,
    pslot: np.ndarray,
    base: int,
    stride: int,
    hole_event: Optional[int] = None,
    hole_width: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-vectorization enter/exit walk behind :func:`spread_labels`,
    kept as the bit-identity reference for the differential tests and
    the scale benchmark: one stack frame per event, one label per step,
    the hole skipped by bumping the counter when its event arrives."""
    n = len(depth)
    starts = np.empty(n, dtype=np.int64)
    ends = np.empty(n, dtype=np.int64)
    children: list[list[int]] = [[] for _ in range(n)]
    tops: list[int] = []
    for slot in range(n):
        p = int(pslot[slot])
        (tops if p < 0 else children[p]).append(slot)
    stack = [(slot, True) for slot in reversed(tops)]
    counter = base
    event = 0
    while stack:
        slot, entering = stack.pop()
        if hole_event is not None and event == hole_event:
            counter += stride * hole_width
        counter += stride
        event += 1
        if entering:
            starts[slot] = counter
            stack.append((slot, False))
            for child in reversed(children[slot]):
                stack.append((child, True))
        else:
            ends[slot] = counter
    return starts, ends


def plan_insert(
    tree: LabeledTree,
    parent: int,
    subtree: Element,
    child_position: Optional[int] = None,
) -> InsertPlan:
    """Label ``subtree`` for insertion as a child of node ``parent``.

    ``child_position`` selects the 0-based rank among the parent's
    element children (default: append as last child).  Walks the
    detached subtree in the same enter/exit order the offline labeler
    uses, assigning labels ``lo + stride * k`` so the new nodes spread
    evenly over the available gap.  Raises :class:`GapExhausted` when
    the gap has fewer free integer positions than the subtree needs
    (two labels per element).
    """
    if not 0 <= parent < len(tree):
        raise IndexError(f"parent index {parent} outside the tree")
    if subtree.parent is not None:
        raise ValueError("subtree to insert must be detached (parent is None)")
    # One light DFS collects pre-order slots, parent slots, and relative
    # depths; all label arithmetic after it is vectorized.  The walk
    # visits children in the same reversed-stack order as
    # ``Element.iter``, so slot numbering matches the offline labeler.
    elements: list[Element] = []
    parent_slots: list[int] = []
    depths: list[int] = []
    walk: list[tuple[Element, int, int]] = [(subtree, -1, 1)]
    while walk:
        node, pslot, d = walk.pop()
        slot = len(elements)
        elements.append(node)
        parent_slots.append(pslot)
        depths.append(d)
        for child in reversed(list(node.child_elements())):
            walk.append((child, slot, d + 1))

    need = 2 * len(elements)
    lo, hi, position = gap_for_insert(tree, parent, child_position)
    gap = hi - lo - 1
    if gap < need:
        raise GapExhausted(
            f"insertion under node {parent} needs {need} labels, gap has {gap}"
        )
    stride = gap // need
    parent_level = int(tree.level[parent])

    depth = np.asarray(depths, dtype=np.int64)
    pslot = np.asarray(parent_slots, dtype=np.int64)
    starts, ends = spread_labels(depth, pslot, lo, stride)
    levels = parent_level + depth
    parents = np.where(pslot < 0, parent, position + pslot)

    return InsertPlan(
        position=position,
        elements=elements,
        start=starts,
        end=ends,
        level=levels,
        parent_index=parents,
        stride=stride,
    )


def _plan_insert_python(
    tree: LabeledTree,
    parent: int,
    subtree: Element,
    child_position: Optional[int] = None,
) -> InsertPlan:
    """Pre-vectorization sequential walk, kept as the bit-identity
    reference for the differential tests and the scale benchmark."""
    if not 0 <= parent < len(tree):
        raise IndexError(f"parent index {parent} outside the tree")
    if subtree.parent is not None:
        raise ValueError("subtree to insert must be detached (parent is None)")
    elements = list(subtree.iter())
    need = 2 * len(elements)
    lo, hi, position = gap_for_insert(tree, parent, child_position)
    gap = hi - lo - 1
    if gap < need:
        raise GapExhausted(
            f"insertion under node {parent} needs {need} labels, gap has {gap}"
        )
    stride = gap // need
    parent_level = int(tree.level[parent])
    slot_of = {id(e): k for k, e in enumerate(elements)}

    starts = np.empty(len(elements), dtype=np.int64)
    ends = np.empty(len(elements), dtype=np.int64)
    levels = np.empty(len(elements), dtype=np.int64)
    parents = np.empty(len(elements), dtype=np.int64)

    counter = lo
    # Entry frames are (element, level); exit frames (None, slot).
    stack: list[tuple[Element | None, int]] = [(subtree, parent_level + 1)]
    while stack:
        node, value = stack.pop()
        counter += stride
        if node is None:
            ends[value] = counter
            continue
        slot = slot_of[id(node)]
        starts[slot] = counter
        levels[slot] = value
        parents[slot] = (
            parent if node is subtree else position + slot_of[id(node.parent)]
        )
        stack.append((None, slot))
        for child in reversed(list(node.child_elements())):
            stack.append((child, value + 1))

    return InsertPlan(
        position=position,
        elements=elements,
        start=starts,
        end=ends,
        level=levels,
        parent_index=parents,
        stride=stride,
    )


def apply_insert(tree: LabeledTree, plan: InsertPlan) -> None:
    """Splice a planned insertion into the tree's flat arrays.

    The label arrays are *replaced*, never written in place, and the
    element list is edited in place only while the tree owns it: a list
    that was ever handed out (:meth:`LabeledTree.share_elements`) is
    never written again -- :meth:`LabeledTree.own_elements` copies it
    first.  So a reader that grabbed references before the splice keeps
    a complete, internally consistent pre-splice view (the contract
    O(1) service snapshots rely on).
    """
    pos, size = plan.position, plan.size
    shifted_parents = np.where(
        tree.parent_index >= pos, tree.parent_index + size, tree.parent_index
    )
    tree.own_elements()[pos:pos] = plan.elements
    tree.start = np.concatenate([tree.start[:pos], plan.start, tree.start[pos:]])
    tree.end = np.concatenate([tree.end[:pos], plan.end, tree.end[pos:]])
    tree.level = np.concatenate([tree.level[:pos], plan.level, tree.level[pos:]])
    tree.parent_index = np.concatenate(
        [shifted_parents[:pos], plan.parent_index, shifted_parents[pos:]]
    )
    tree.invalidate_element_index()


def rebalance_for_insert(
    tree: LabeledTree,
    parent: int,
    need_elements: int,
    child_position: Optional[int] = None,
) -> Optional[tuple[int, int]]:
    """Respread labels locally so an exhausted gap can hold an insert.

    Walks up from ``parent`` to the smallest ancestor region whose label
    interval can hold its current occupants plus ``need_elements`` new
    nodes at integer stride, then respreads the region's labels evenly
    with a hole of ``2 * need_elements`` event positions reserved at the
    splice point.  Only ``tree.start``/``tree.end`` change (replaced,
    never written in place), only for nodes strictly inside the region;
    structure, levels and the region root's own labels are untouched.

    Returns the moved pre-order slice ``(lo, hi)`` (``hi`` exclusive) so
    the caller can patch maintained statistics, or ``None`` when no
    ancestor interval is wide enough (the full-relabel fallback).
    """
    region = parent
    while True:
        hi_idx = tree.subtree_slice(region).stop
        n_slice = hi_idx - region - 1
        width = int(tree.end[region]) - int(tree.start[region]) - 1
        stride = width // (2 * (n_slice + need_elements))
        if stride >= 1:
            break
        region = int(tree.parent_index[region])
        if region < 0:
            return None

    base = int(tree.start[region])
    lo_idx = region + 1
    depth = tree.level[lo_idx:hi_idx] - int(tree.level[region])
    region_parents = tree.parent_index[lo_idx:hi_idx]
    pslot = np.where(region_parents == region, -1, region_parents - lo_idx)
    sizes = slice_subtree_sizes(depth, pslot)
    entry = 2 * np.arange(n_slice, dtype=np.int64) - depth + 1

    children = child_indices(tree, parent)
    if child_position is None or child_position >= len(children):
        if parent == region:
            hole_event = 2 * n_slice
        else:
            slot = parent - lo_idx
            hole_event = int(entry[slot]) + 2 * int(sizes[slot]) - 1
    else:
        hole_event = int(entry[int(children[child_position]) - lo_idx])
    hole_width = 2 * need_elements

    exit_ = entry + 2 * sizes - 1
    entry = np.where(entry >= hole_event, entry + hole_width, entry)
    exit_ = np.where(exit_ >= hole_event, exit_ + hole_width, exit_)
    new_start = tree.start.copy()
    new_end = tree.end.copy()
    new_start[lo_idx:hi_idx] = base + stride * (entry + 1)
    new_end[lo_idx:hi_idx] = base + stride * (exit_ + 1)
    tree.start = new_start
    tree.end = new_end
    return lo_idx, hi_idx


def apply_delete(tree: LabeledTree, index: int) -> tuple[int, int]:
    """Remove node ``index`` and its whole subtree from the label table.

    Returns ``(position, count)`` of the removed pre-order slice.  The
    freed labels rejoin the gap at the parent, available to later
    inserts.  The caller is responsible for the document-model side
    (detaching the element from its parent's child list).  As with
    :func:`apply_insert`, the label arrays are replaced and the element
    list is written only while owned (copied first if it was ever
    handed out), preserving pre-splice views.
    """
    if not 0 <= index < len(tree):
        raise IndexError(f"node index {index} outside the tree")
    sub = tree.subtree_slice(index)
    pos, count = sub.start, sub.stop - sub.start
    keep = np.ones(len(tree), dtype=bool)
    keep[pos : pos + count] = False
    parents = tree.parent_index[keep]
    parents = np.where(parents >= pos + count, parents - count, parents)
    del tree.own_elements()[pos : pos + count]
    tree.start = tree.start[keep]
    tree.end = tree.end[keep]
    tree.level = tree.level[keep]
    tree.parent_index = parents
    tree.invalidate_element_index()
    return pos, count
