"""Start/end interval labeling of node-labeled trees.

The numbering scheme follows the paper (Section 3.1):

* all documents in the database are merged into a single mega-tree under
  a dummy root;
* ``start`` labels are assigned by a pre-order numbering;
* the ``end`` label of a node is at least as large as its own start label
  and larger than the end label of any of its descendants.

We realise this with a single global counter that increments on element
entry (producing ``start``) and on element exit (producing ``end``).
That yields labels with three useful properties the rest of the library
relies on:

1. ``start < end`` strictly for every node;
2. ``u`` is a proper ancestor of ``v`` iff
   ``u.start < v.start and v.end < u.end``;
3. any two intervals are either disjoint or strictly nested (Lemma 1).

The result is a :class:`LabeledTree`: flat, numpy-backed arrays indexed by
pre-order node id.  Keeping labels out of the tree nodes keeps the data
model clean and makes bulk histogram construction a vectorised operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.xmltree.tree import Document, Element


@dataclass(frozen=True)
class IntervalLabel:
    """The (start, end, level) label of one node."""

    start: int
    end: int
    level: int

    def contains(self, other: "IntervalLabel") -> bool:
        """True if ``other`` is strictly inside this interval."""
        return self.start < other.start and other.end < self.end

    def disjoint(self, other: "IntervalLabel") -> bool:
        """True if the two intervals do not intersect."""
        return self.end < other.start or other.end < self.start


class LabeledTree:
    """Interval labels for every element of a database (mega-)tree.

    Attributes
    ----------
    elements:
        The element nodes in pre-order (mega-tree order across documents).
    start, end, level:
        Numpy int64 arrays, aligned with ``elements``.
    parent_index:
        For each node, the pre-order index of its parent element, or -1
        for document roots (children of the implicit dummy root).
    max_label:
        The largest label assigned (the dummy root's end label); the
        histogram grid spans ``[0, max_label]``.
    """

    #: Whether ``elements`` is this tree's private list (safe to splice
    #: in place).  Shared by default: trees assembled with ``__new__``
    #: (:meth:`shared_view`, the lazy-open path) adopt a list someone
    #: else may hold.  See :meth:`share_elements` for the rule.
    _owns_elements = False

    def __init__(
        self,
        elements: Sequence[Element],
        start: np.ndarray,
        end: np.ndarray,
        level: np.ndarray,
        parent_index: np.ndarray,
        max_label: int,
    ) -> None:
        self.elements = list(elements)
        self._owns_elements = True
        self.start = start
        self.end = end
        self.level = level
        self.parent_index = parent_index
        self.max_label = max_label
        self._index_of: Optional[dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def shared_view(cls, source: "LabeledTree") -> "LabeledTree":
        """A frozen view sharing ``source``'s containers by reference.

        O(1): no array or list is copied.  Sound because every
        maintenance path *replaces* the label arrays rather than writing
        into them, and the element list is taken with
        :meth:`share_elements` -- a list that was ever handed out is
        never written again (see
        :func:`repro.labeling.dynamic.apply_insert` /
        :func:`~repro.labeling.dynamic.apply_delete` and
        :meth:`replace_contents`), so the view stays a complete
        pre-mutation state forever.  This is what service snapshots pin.
        """
        view = cls.__new__(cls)
        view.elements = source.share_elements()
        view.start = source.start
        view.end = source.end
        view.level = source.level
        view.parent_index = source.parent_index
        view.max_label = source.max_label
        view._index_of = None
        return view

    def replace_contents(
        self,
        elements: Sequence[Element],
        start: np.ndarray,
        end: np.ndarray,
        level: np.ndarray,
        parent_index: np.ndarray,
        max_label: int,
    ) -> None:
        """Wholesale in-place replacement of the label table.

        Keeps the :class:`LabeledTree` object identity, so long-lived
        views of the database (catalogs, executors, estimation services)
        survive a full relabeling without re-wiring their references.
        """
        self.elements = list(elements)
        self._owns_elements = True
        self.start = start
        self.end = end
        self.level = level
        self.parent_index = parent_index
        self.max_label = max_label
        self._index_of = None

    def share_elements(self) -> list[Element]:
        """Hand the element list out by reference (O(1)).

        The rule every holder relies on: *a list that was ever handed
        out is never written again*.  The tree gives up ownership here,
        so the next splice copies first (:meth:`own_elements`) and the
        holder keeps a complete pre-splice state forever.
        """
        self._owns_elements = False
        return self.elements

    def own_elements(self) -> list[Element]:
        """The element list, private to this tree and safe to edit in
        place -- copied first (once) if it was ever handed out."""
        if not self._owns_elements:
            self.elements = list(self.elements)
            self._owns_elements = True
        return self.elements

    def invalidate_element_index(self) -> None:
        """Drop the element-identity index after a structural mutation."""
        self._index_of = None

    def label_of(self, index: int) -> IntervalLabel:
        """The :class:`IntervalLabel` of the node at pre-order ``index``."""
        return IntervalLabel(
            int(self.start[index]), int(self.end[index]), int(self.level[index])
        )

    def index_of(self, element: Element) -> int:
        """Pre-order index of an element (O(1) after first call)."""
        if self._index_of is None:
            self._index_of = {id(e): i for i, e in enumerate(self.elements)}
        return self._index_of[id(element)]

    def is_ancestor(self, u: int, v: int) -> bool:
        """True if node ``u`` is a proper ancestor of node ``v``."""
        return bool(self.start[u] < self.start[v] and self.end[v] < self.end[u])

    def iter_labels(self) -> Iterator[IntervalLabel]:
        """Yield labels in pre-order."""
        for i in range(len(self.elements)):
            yield self.label_of(i)

    def subtree_slice(self, index: int) -> slice:
        """Pre-order slice covering node ``index`` and all its descendants.

        Pre-order contiguity: the descendants of a node occupy the
        positions immediately after it, up to the first node whose start
        exceeds the node's end.
        """
        hi = int(np.searchsorted(self.start, self.end[index]))
        return slice(index, hi)

    def validate(self) -> None:
        """Check the structural invariants; raise AssertionError if broken.

        Used by tests and by the property-based suite -- not on hot paths.
        """
        assert np.all(self.start < self.end), "start must be < end"
        order = np.argsort(self.start)
        assert np.array_equal(order, np.arange(len(self))), "pre-order start labels"
        for i in range(len(self)):
            p = int(self.parent_index[i])
            if p >= 0:
                assert self.start[p] < self.start[i] < self.end[i] < self.end[p]


def relabel_preorder(tree: LabeledTree, spacing: int = 1) -> None:
    """Reassign all labels of ``tree`` in place, without walking elements.

    The pre-order sequence of a :class:`LabeledTree` is exactly its
    array order, so the enter/exit counter of :func:`label_forest` can
    be replayed arithmetically: when node ``i`` (0-based, level ``l``,
    subtree size ``s``) is entered, ``i`` nodes have been entered before
    it and ``i - (l - 1)`` of them already exited, so its start label is
    ``spacing * (2i - l + 2)`` and its end label follows ``2s - 1``
    events later.  The result is bit-identical to
    ``label_forest(documents, spacing)`` over the same forest, at the
    cost of three vectorised array expressions instead of a Python DFS
    -- the relabeling path of the online service's rebuild.

    ``level``, ``parent_index``, and ``elements`` are untouched (the
    structure does not change, only the numbering), and ``start`` /
    ``end`` are replaced with new arrays so snapshots holding the old
    arrays keep a consistent pre-relabel view.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be >= 1, got {spacing}")
    n = len(tree)
    if n == 0:
        tree.start = np.empty(0, dtype=np.int64)
        tree.end = np.empty(0, dtype=np.int64)
        tree.max_label = spacing
        return
    idx = np.arange(n, dtype=np.int64)
    sizes = np.searchsorted(tree.start, tree.end) - idx
    start = spacing * (2 * idx - tree.level + 2)
    tree.end = start + spacing * (2 * sizes - 1)
    tree.start = start
    tree.max_label = spacing * (2 * n + 1)


def label_document(document: Document, spacing: int = 1) -> LabeledTree:
    """Label a single document; see :func:`label_forest`."""
    return label_forest([document], spacing=spacing)


def label_forest(documents: Sequence[Document], spacing: int = 1) -> LabeledTree:
    """Merge ``documents`` under a dummy root and label every element.

    The dummy root itself is not materialised: it would have
    ``start = 0`` and ``end = max_label``, and no predicate ever selects
    it.  Labels of real nodes start at 1.

    ``spacing`` stretches the numbering: consecutive labels are assigned
    ``spacing`` apart, leaving ``spacing - 1`` unused integer positions
    between any two used labels.  Those gaps are what
    :mod:`repro.labeling.dynamic` allocates from when subtrees are
    inserted in place, so an online service can absorb updates without
    relabeling the whole database.  ``spacing=1`` (the default) is the
    paper's dense numbering.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be >= 1, got {spacing}")
    elements: list[Element] = []
    starts: list[int] = []
    ends: list[int] = []
    levels: list[int] = []
    parents: list[int] = []

    counter = spacing  # 0 is reserved for the dummy root's start position
    # Iterative DFS; entry frames hold (element, parent_index, level),
    # exit frames (None, own_slot, _) -- the slot rides on the frame, so
    # no per-node lookup table is needed to patch end labels.
    stack: list[tuple[Optional[Element], int, int]] = []
    for document in reversed(documents):
        roots = [c for c in document.children if isinstance(c, Element)]
        for root in reversed(roots):
            stack.append((root, -1, 1))

    while stack:
        node, index, level = stack.pop()
        if node is None:  # exit frame: index is this node's slot
            ends[index] = counter
            counter += spacing
            continue
        slot = len(elements)
        elements.append(node)
        starts.append(counter)
        ends.append(-1)  # patched on exit
        levels.append(level)
        parents.append(index)
        counter += spacing
        stack.append((None, slot, level))
        for child in reversed(list(node.child_elements())):
            stack.append((child, slot, level + 1))

    max_label = counter  # dummy root's end
    return LabeledTree(
        elements,
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        np.asarray(levels, dtype=np.int64),
        np.asarray(parents, dtype=np.int64),
        max_label,
    )
