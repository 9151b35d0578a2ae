"""Batch update application: batched == sequential, pinned differentially.

The contract: ``apply_batch(ops)`` leaves the database in exactly the
state sequential application of ``ops`` produces -- same element
structure always, bit-identical labels / statistics / estimates
whenever neither side performed a full rebuild (rebuild *timing* is the
one documented divergence: the batch evaluates the dirty threshold once
per batch, sequential application once per update, and rebuilds
re-bucket the label space).  On top of the equivalence property, both
sides must independently pass ``differential_check`` -- every
maintained structure bit-identical to a from-scratch build -- after
every sequence.

120 random sequences (3 configurations x 40 seeds) exercise mixed
inserts (at random child positions) and deletes, including inserts
under nodes inserted earlier in the same batch and deletes of nodes
inserted earlier in the same batch.
"""

import random

import numpy as np
import pytest

from repro.predicates.base import TagPredicate
from repro.service import BatchError, DeleteOp, EstimationService, InsertOp, NodeRef
from repro.xmltree.tree import Document, Element

TAGS = ["a", "b", "c", "d", "e"]
QUERIES = ["//a//b", "//b//c", "//root//d", "//a//a", "//c//e", "//e//b"]


def random_document(rng: random.Random, nodes: int) -> Document:
    document = Document()
    root = Element("root")
    document.append(root)
    spine = [root]
    for _ in range(nodes - 1):
        parent = rng.choice(spine[-8:])
        child = Element(rng.choice(TAGS))
        parent.append(child)
        spine.append(child)
    return document


def random_subtree(rng: random.Random) -> Element:
    size = rng.randrange(1, 6)
    root = Element(rng.choice(TAGS))
    spine = [root]
    for _ in range(size - 1):
        child = Element(rng.choice(TAGS))
        rng.choice(spine).append(child)
        spine.append(child)
    return root


def clone_subtree(element: Element) -> Element:
    clone = Element(element.tag, element.attributes)
    for child in element.children:
        if isinstance(child, Element):
            clone.append(clone_subtree(child))
    return clone


def prime(service: EstimationService) -> None:
    service.estimate_many(QUERIES)
    for tag in TAGS:
        predicate = TagPredicate(tag)
        service.position_histogram(predicate)
        service.coverage_histogram(predicate)
        service.estimator.level_histogram(predicate)
    _ = service.estimator.true_histogram


def make_pair(seed: int, grid_size: int, spacing: int, threshold: float):
    """Two identical primed services over independently built but equal
    documents."""
    services = []
    for _ in range(2):
        document = random_document(random.Random(seed), 50)
        service = EstimationService(
            document,
            grid_size=grid_size,
            spacing=spacing,
            rebuild_threshold=threshold,
        )
        prime(service)
        services.append(service)
    return services


def record_sequence(service: EstimationService, rng: random.Random, ops: int):
    """Apply a random valid sequence to ``service`` one op at a time,
    returning the recorded (replayable) operation descriptions."""
    recorded = []
    for _ in range(ops):
        if rng.random() < 0.7 or len(service) < 12:
            target = rng.randrange(len(service))
            subtree = random_subtree(rng)
            position = rng.choice([None, 0, 1, 2])
            recorded.append(("insert", target, subtree, position))
            service.insert_subtree(target, clone_subtree(subtree), position=position)
        else:
            target = rng.randrange(1, len(service))
            recorded.append(("delete", target))
            service.delete_subtree(target)
    return recorded


CONFIGS = [
    # (grid_size, spacing, rebuild_threshold, ops)
    (5, 64, 0.95, 8),
    (6, 256, 0.9, 12),
    (4, 16, 0.5, 8),  # small gaps + low threshold: mid-batch rebuilds
]


@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
@pytest.mark.parametrize("seed", range(40))
def test_batched_matches_sequential(config_index, seed):
    grid_size, spacing, threshold, ops = CONFIGS[config_index]
    sequential, batched = make_pair(seed, grid_size, spacing, threshold)
    recorded = record_sequence(
        sequential, random.Random(5000 * config_index + seed), ops
    )
    result = batched.apply_batch(
        [
            InsertOp(op[1], clone_subtree(op[2]), op[3])
            if op[0] == "insert"
            else DeleteOp(op[1])
            for op in recorded
        ]
    )
    # Structure is always identical, rebuilds or not.
    assert [e.tag for e in sequential.tree.elements] == [
        e.tag for e in batched.tree.elements
    ]
    assert np.array_equal(
        sequential.tree.parent_index, batched.tree.parent_index
    )
    # Both sides uphold the maintenance contract independently.
    sequential.differential_check(QUERIES)
    batched.differential_check(QUERIES)
    if sequential.stats.rebuilds == 0 and not result.rebuilt:
        # No re-bucketing anywhere: labels and estimates are bit-equal.
        assert np.array_equal(sequential.tree.start, batched.tree.start)
        assert np.array_equal(sequential.tree.end, batched.tree.end)
        for query in QUERIES:
            assert (
                sequential.estimate(query).value == batched.estimate(query).value
            )


def test_insert_under_node_inserted_in_same_batch():
    service, reference = make_pair(1, 5, 64, 0.95)
    parent = Element("a")
    child = Element("b")
    grandchild = Element("c")
    service.apply_batch(
        [
            InsertOp(0, parent),
            InsertOp(parent, child),
            InsertOp(child, grandchild, 0),
        ]
    )
    reference.insert_subtree(0, clone_subtree(parent))
    assert [e.tag for e in service.tree.elements] == [
        e.tag for e in reference.tree.elements
    ]
    service.differential_check(QUERIES)


def test_delete_of_node_inserted_in_same_batch_coalesces():
    service, _ = make_pair(2, 5, 64, 0.95)
    baseline = {q: service.estimate(q).value for q in QUERIES}
    doomed = random_subtree(random.Random(3))
    result = service.apply_batch([InsertOp(0, doomed), DeleteOp(doomed)])
    assert not result.rebuilt
    service.differential_check(QUERIES)
    for query, value in baseline.items():
        assert service.estimate(query).value == value


def test_delete_by_element_handle_after_shifting_inserts():
    """Element handles stay valid however earlier batch ops shift the
    numbering."""
    service, reference = make_pair(3, 5, 64, 0.95)
    victim = service.tree.elements[len(service) // 2]
    ref_victim = reference.tree.elements[len(reference) // 2]
    filler = [InsertOp(0, Element("e"), 0) for _ in range(3)]
    service.apply_batch(filler + [DeleteOp(victim)])
    for op in [InsertOp(0, Element("e"), 0) for _ in range(3)]:
        reference.insert_subtree(op.parent, op.subtree, position=op.position)
    reference.delete_subtree(ref_victim)
    assert [e.tag for e in service.tree.elements] == [
        e.tag for e in reference.tree.elements
    ]
    service.differential_check(QUERIES)


def test_batch_gap_exhaustion_relabels_and_stays_consistent():
    document = Document()
    root = Element("root")
    document.append(root)
    root.append(Element("a"))
    service = EstimationService(document, grid_size=4, spacing=2, rebuild_threshold=0.9)
    prime(service)
    # spacing 2 leaves 1-label gaps: the batch must relabel mid-flight.
    result = service.apply_batch(
        [InsertOp(0, Element("b")), InsertOp(0, Element("c"))]
    )
    assert result.rebuilt
    assert service.stats.rebuilds >= 1
    service.differential_check(["//root//a", "//root//b", "//root//c"])


def test_batch_dirty_threshold_triggers_one_rebuild_at_end():
    service, _ = make_pair(4, 5, 512, 0.05)
    rng = random.Random(11)
    result = service.apply_batch(
        [InsertOp(rng.randrange(len(service)), random_subtree(rng)) for _ in range(8)]
    )
    assert result.rebuilt
    assert service.stats.rebuilds == 1  # once per batch, not per op
    service.differential_check(QUERIES)


def capture_state(service):
    return (
        [e.tag for e in service.tree.elements],
        service.tree.start.copy(),
        service.tree.end.copy(),
        service.tree.parent_index.copy(),
        {q: service.estimate(q).value for q in QUERIES},
        {q: service.real_answer(q) for q in QUERIES},
    )


def assert_pre_batch_state(service, state):
    """The service is bit-identical to its pre-batch capture."""
    tags, start, end, parents, estimates, real = state
    assert [e.tag for e in service.tree.elements] == tags
    assert np.array_equal(service.tree.start, start)
    assert np.array_equal(service.tree.end, end)
    assert np.array_equal(service.tree.parent_index, parents)
    for query in QUERIES:
        assert service.estimate(query).value == estimates[query], query
        assert service.real_answer(query) == real[query], query
    service.differential_check(QUERIES)


def test_batch_error_mid_batch_rolls_back_whole_batch():
    service, _ = make_pair(5, 5, 64, 0.95)
    attached = Element("zz")
    service.tree.elements[0].append(attached)  # not via the service
    service.rebuild()  # resync after the out-of-band edit
    before = capture_state(service)
    with pytest.raises(BatchError) as excinfo:
        service.apply_batch(
            [InsertOp(0, Element("b")), InsertOp(0, attached)]  # not detached
        )
    assert excinfo.value.applied is False
    # The whole batch -- including the completed prefix -- was undone.
    assert service.catalog.stats(TagPredicate("zz")).count == 1  # pre-batch
    assert_pre_batch_state(service, before)


def test_batch_first_op_error_leaves_service_untouched():
    service, _ = make_pair(6, 5, 64, 0.95)
    before = capture_state(service)
    with pytest.raises(IndexError):
        service.apply_batch([DeleteOp(10**9)])
    assert_pre_batch_state(service, before)


class TestMidBatchFaultInjection:
    """Force a failure in every phase of ``BatchApplier.apply`` and pin
    the rollback contract: the service ends bit-identical to its
    pre-batch state, with every maintained summary untouched."""

    def make(self, seed=21):
        service, _ = make_pair(seed, 5, 64, 0.95)
        return service, capture_state(service)

    def prefix(self):
        """Two valid leading ops so the failure hits mid-batch."""
        return [
            InsertOp(0, Element("b")),
            InsertOp(0, Element("c"), 0),
        ]

    def test_resolve_phase_bad_index(self):
        service, before = self.make(21)
        with pytest.raises(BatchError) as excinfo:
            service.apply_batch(self.prefix() + [DeleteOp(10**9)])
        assert excinfo.value.applied is False
        assert_pre_batch_state(service, before)

    def test_resolve_phase_foreign_element(self):
        service, before = self.make(22)
        with pytest.raises(BatchError):
            service.apply_batch(self.prefix() + [DeleteOp(Element("nowhere"))])
        assert_pre_batch_state(service, before)

    def test_resolve_phase_target_deleted_earlier_in_batch(self):
        service, before = self.make(23)
        doomed = random_subtree(random.Random(9))
        with pytest.raises(BatchError, match="deleted earlier"):
            service.apply_batch(
                [InsertOp(0, doomed), DeleteOp(doomed), InsertOp(doomed, Element("e"))]
            )
        assert_pre_batch_state(service, before)

    @pytest.mark.parametrize("k", [1, 8, 15])
    def test_noderef_window_failing_at_op_k(self, k):
        """A 16-op window of pre-batch ``NodeRef`` targets whose op
        ``k`` fails: element list (by identity), levels, the
        incremental-checkpoint tracker and every summary come back."""
        service, _ = make_pair(40 + k, 5, 64, 0.95)
        service._reset_tracker()  # as after a full checkpoint ...
        service.insert_subtree(0, Element("a"))  # ... with a delta on top
        service.delete_subtree(len(service) - 2)
        before = capture_state(service)
        elements = list(service.tree.elements)
        level = service.tree.level.copy()
        max_label = service.tree.max_label
        tracker = service._ckpt_tracker.copy()

        rng = random.Random(k)
        tree = service.tree
        leaves = [
            i for i in range(1, len(tree)) if tree.subtree_slice(i).stop == i + 1
        ]
        doomed = rng.choice(leaves)
        parents = [i for i in range(len(tree)) if i != doomed]
        ops = [DeleteOp(NodeRef(doomed))]
        for _ in range(15):
            ops.append(
                InsertOp(
                    NodeRef(rng.choice(parents)),
                    random_subtree(rng),
                    rng.choice([None, 0, 1]),
                )
            )
        ops[k] = InsertOp(NodeRef(doomed), Element("e"))
        with pytest.raises(BatchError, match="deleted earlier") as excinfo:
            service.apply_batch(ops)
        assert excinfo.value.applied is False
        assert len(service.tree.elements) == len(elements)
        assert all(a is b for a, b in zip(service.tree.elements, elements))
        assert np.array_equal(service.tree.level, level)
        assert service.tree.max_label == max_label
        assert np.array_equal(service._ckpt_tracker, tracker)
        assert_pre_batch_state(service, before)

    def test_validation_phase_attached_subtree(self):
        service, before = self.make(24)
        attached = service.tree.elements[3]
        with pytest.raises(BatchError):
            service.apply_batch(self.prefix() + [InsertOp(0, attached)])
        assert_pre_batch_state(service, before)

    def test_plan_phase_negative_position(self):
        service, before = self.make(25)
        with pytest.raises(BatchError):
            service.apply_batch(
                self.prefix() + [InsertOp(0, Element("d"), -3)]
            )
        assert_pre_batch_state(service, before)

    def test_insert_splice_phase(self, monkeypatch):
        """A crash half-way through an insert op -- after the subtree is
        attached to the document but before the label splice -- still
        rolls back cleanly."""
        import repro.service.batch as batch_module

        service, before = self.make(26)
        calls = {"n": 0}
        real_apply_insert = batch_module.apply_insert

        def flaky(tree, plan):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected splice failure")
            return real_apply_insert(tree, plan)

        monkeypatch.setattr(batch_module, "apply_insert", flaky)
        with pytest.raises(BatchError, match="injected splice failure"):
            service.apply_batch(
                self.prefix() + [InsertOp(0, random_subtree(random.Random(3)))]
            )
        assert_pre_batch_state(service, before)

    def test_delete_splice_phase(self, monkeypatch):
        """A crash half-way through a delete op -- after the element is
        detached from its parent -- restores it at its original slot."""
        import repro.service.batch as batch_module

        service, before = self.make(27)

        def exploding(tree, index):
            raise RuntimeError("injected delete failure")

        monkeypatch.setattr(batch_module, "apply_delete", exploding)
        with pytest.raises(BatchError, match="injected delete failure"):
            service.apply_batch(self.prefix() + [DeleteOp(5)])
        assert_pre_batch_state(service, before)

    def test_failure_after_mid_batch_relabel_restores_original_labels(self):
        """Gap exhaustion relabels the whole forest mid-batch; a later
        failure must still roll back to the *pre-relabel* labels."""
        document = Document()
        root = Element("root")
        document.append(root)
        root.append(Element("a"))
        service = EstimationService(
            document, grid_size=4, spacing=2, rebuild_threshold=0.9
        )
        prime(service)
        before = capture_state(service)
        # spacing 2 leaves 1-label gaps: the second insert forces the
        # mid-batch relabel, the third op then fails.
        with pytest.raises(BatchError):
            service.apply_batch(
                [
                    InsertOp(0, Element("b")),
                    InsertOp(0, Element("c")),
                    DeleteOp(10**9),
                ]
            )
        assert_pre_batch_state(service, before)

    def test_flush_phase_failure_keeps_batch_and_rebuilds(self, monkeypatch):
        """A failure in summary maintenance (after every op applied)
        keeps the post-batch documents and repairs with a rebuild;
        ``BatchError.applied`` reports the difference."""
        from repro.service.batch import BatchApplier

        service, _ = self.make(28)
        rebuilds_before = service.stats.rebuilds

        def exploding_flush(self):
            raise AssertionError("injected flush failure")

        monkeypatch.setattr(BatchApplier, "_flush_deltas", exploding_flush)
        with pytest.raises(BatchError, match="injected flush failure") as excinfo:
            service.apply_batch(self.prefix())
        assert excinfo.value.applied is True
        assert service.stats.rebuilds == rebuilds_before + 1
        # The batch's ops stayed applied and the rebuild restored
        # consistency.
        assert service.catalog.stats(TagPredicate("b")).count >= 1
        service.differential_check(QUERIES)


def test_empty_batch_is_a_noop():
    service, _ = make_pair(7, 5, 64, 0.95)
    result = service.apply_batch([])
    assert result.ops == 0 and not result.rebuilt
    assert service.stats.batches == 0
    service.differential_check(QUERIES)


def test_batch_accepts_plain_tuples():
    service, reference = make_pair(8, 5, 64, 0.95)
    sub = random_subtree(random.Random(2))
    service.apply_batch(
        [("insert", 0, clone_subtree(sub), 1), ("delete", len(service) // 2)]
    )
    reference.insert_subtree(0, clone_subtree(sub), position=1)
    reference.delete_subtree(len(reference) // 2)
    assert [e.tag for e in service.tree.elements] == [
        e.tag for e in reference.tree.elements
    ]
    service.differential_check(QUERIES)


def test_batch_reports_net_and_gross_counts():
    service, _ = make_pair(9, 5, 64, 0.95)
    doomed = Element("a")
    result = service.apply_batch(
        [InsertOp(0, doomed), InsertOp(0, Element("b")), DeleteOp(doomed)]
    )
    assert result.ops == 3
    assert result.inserts == 2 and result.deletes == 1
    assert result.nodes_inserted == 2 and result.nodes_deleted == 1
    assert service.stats.batches == 1
    service.differential_check(QUERIES)
