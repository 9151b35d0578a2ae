"""O(batch) write windows: the element-list ownership rule, the
``NodeRef`` target kind, and the log that carries it.

Three contracts are pinned, none by timing:

* **hand-out-then-never-write** -- a ``tree.elements`` list that was
  ever shared (snapshot, pinned server view, a batch's rollback image)
  is never written again; the live tree copies it at most once per
  batch and otherwise splices its own list in place;
* **one target, one representation** -- a batch expressed with
  pre-batch ``NodeRef`` indices is indistinguishable (log bytes, final
  state) from the same batch expressed with ``Element`` handles, and
  fails with the same errors;
* **no element -> index map on the served path** -- an engine flush, a
  crash-recovery replay and a follower's apply of a 16-op group all
  work with ``LabeledTree.index_of`` made to raise.
"""

import random
import shutil

import numpy as np
import pytest

from repro.labeling.interval import LabeledTree
from repro.service import (
    BatchError,
    DeleteOp,
    EstimationService,
    InsertOp,
    NodeRef,
)
from repro.service.replica import Follower, bootstrap_follower
from repro.service.server import OpSpec, serve_forever
from repro.service.wal import LOG_NAME
from repro.xmltree.tree import Element
from tests.service.test_batch import (
    QUERIES,
    clone_subtree,
    make_pair,
    random_document,
    random_subtree,
)
from tests.service.test_replication import WAIT, wait_caught_up
from tests.service.test_wal import assert_state, make_durable, state_of


def tags(elements):
    return [e.tag for e in elements]


def window(service, rng, size=16):
    """A valid mixed window as ``(kind, pre-batch index, subtree, position)``
    rows: inserts under distinct parents (a second append under one
    parent finds its gap used up), deletes of distinct leaves that no
    row targets."""
    tree = service.tree
    leaves = [i for i in range(1, len(tree)) if tree.subtree_slice(i).stop == i + 1]
    doomed = rng.sample(leaves, 3)
    parents = rng.sample([i for i in range(len(tree)) if i not in doomed], size)
    rows = []
    for k in range(size):
        if k % 5 == 4:
            rows.append(("delete", doomed.pop(), None, None))
        else:
            rows.append(
                ("insert", parents.pop(), random_subtree(rng), rng.choice([None, 0, 2]))
            )
    return rows


def as_ops(rows, target):
    """``rows`` as batch ops; ``target(index)`` picks the representation.
    Subtrees are cloned so one window can be applied to many services."""
    return [
        InsertOp(target(index), clone_subtree(subtree), position)
        if kind == "insert"
        else DeleteOp(target(index))
        for kind, index, subtree, position in rows
    ]


def full_state(service):
    return {
        **state_of(service),
        "level": service.tree.level.copy(),
        "parent": service.tree.parent_index.copy(),
        "max_label": service.tree.max_label,
    }


def assert_full_state(service, expected):
    assert_state(service, expected)
    assert np.array_equal(service.tree.level, expected["level"])
    assert np.array_equal(service.tree.parent_index, expected["parent"])
    assert service.tree.max_label == expected["max_label"]


@pytest.fixture
def copies(monkeypatch):
    """Counts the element-list copies ``own_elements`` makes."""
    made = []
    real = LabeledTree.own_elements

    def counting(tree):
        before = tree.elements
        out = real(tree)
        if out is not before:
            made.append(len(out))
        return out

    monkeypatch.setattr(LabeledTree, "own_elements", counting)
    return made


class TestOwnershipRule:
    def test_snapshot_keeps_its_list_and_the_service_gets_another(self):
        service, _ = make_pair(3, 5, 64, 0.95)
        snapshot = service.snapshot()
        held = snapshot.tree.elements
        assert held is service.tree.elements  # O(1): shared by reference
        contents = list(held)
        service.apply_batch(as_ops(window(service, random.Random(1)), NodeRef))
        assert snapshot.tree.elements is held
        assert len(held) == len(contents)
        assert all(a is b for a, b in zip(held, contents))
        assert service.tree.elements is not held
        assert len(snapshot) == len(contents) != len(service)
        service.differential_check(QUERIES)

    def test_at_most_one_copy_per_batch(self, copies):
        service, _ = make_pair(4, 5, 64, 0.95)
        rng = random.Random(2)
        for done in (1, 2):  # no view taken in between
            service.apply_batch(as_ops(window(service, rng), NodeRef))
            assert len(copies) <= done
        service.differential_check(QUERIES)

    def test_single_op_loop_copies_once_not_once_per_op(self, copies):
        service, _ = make_pair(5, 5, 64, 0.95)
        rng = random.Random(3)
        service.snapshot()  # hand the list out once, up front
        for _ in range(10):
            service.insert_subtree(rng.randrange(len(service)), random_subtree(rng))
        service.delete_subtree(len(service) - 1)
        assert len(copies) == 1
        service.differential_check(QUERIES)

    def test_a_view_between_single_ops_forces_the_next_copy(self, copies):
        service, _ = make_pair(6, 5, 64, 0.95)
        views = []
        for k in range(3):
            views.append((service.snapshot(), tags(service.tree.elements)))
            service.insert_subtree(5 * k, Element("a"))  # roomy gaps: no rebuild
            assert len(copies) == k + 1
        for view, expected in views:
            assert tags(view.tree.elements) == expected

    def test_lazily_opened_service_splices_and_old_snapshot_reads_old_forest(
        self, tmp_path
    ):
        service = make_durable(tmp_path / "wal")
        service.checkpoint(full=True)
        old_tags = tags(service.tree.elements)
        rows = window(service, random.Random(4))
        service.close()

        lazy = EstimationService.open_durable(tmp_path / "wal", lazy=True)
        proxy = lazy.tree.elements
        assert not proxy.materialized
        before = lazy.snapshot()
        lazy.apply_batch(as_ops(rows, NodeRef))
        assert before.tree.elements is proxy
        assert lazy.tree.elements is not proxy
        assert tags(before.tree.elements) == old_tags
        assert tags(lazy.tree.elements) != old_tags
        lazy.differential_check(QUERIES)
        live = state_of(lazy)
        lazy.close()
        recovered = EstimationService.open_durable(tmp_path / "wal")
        assert_state(recovered, live)
        recovered.close()


class TestNodeRefTargets:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_log_bytes_and_same_state_as_element_handles(self, tmp_path, seed):
        by_handle = make_durable(tmp_path / "handles", seed=seed)
        by_ref = make_durable(tmp_path / "refs", seed=seed)
        try:
            for round_ in range(3):
                rows = window(by_handle, random.Random(10 * seed + round_))
                by_handle.apply_batch(
                    as_ops(rows, lambda i: by_handle.tree.elements[i])
                )
                by_ref.apply_batch(as_ops(rows, NodeRef))
            for service in (by_handle, by_ref):
                service._wal.sync()
            assert (tmp_path / "refs" / LOG_NAME).read_bytes() == (
                tmp_path / "handles" / LOG_NAME
            ).read_bytes()
            assert_full_state(by_ref, full_state(by_handle))
            by_ref.differential_check(QUERIES)
        finally:
            by_handle.close()
            by_ref.close()

    @pytest.mark.parametrize("seed", range(6))
    def test_one_tracker_scatter_per_batch(self, seed):
        """The incremental-checkpoint tracker a batch composes in one
        pass: every node's index at the last full checkpoint, ``-1`` for
        nodes inserted since, dropped only by a rebalance or rebuild."""
        service = EstimationService(
            random_document(random.Random(seed), 300),
            grid_size=5,
            spacing=4096,
            rebuild_threshold=0.95,
        )
        rng = random.Random(seed)
        tracked = 0
        for _ in range(6):
            if service._ckpt_tracker is None:  # as a full checkpoint does
                service._reset_tracker()
                held = list(service.tree.elements)  # keeps the ids unique
                origin = {id(e): i for i, e in enumerate(held)}
            moved = service.stats.rebalances + service.stats.rebuilds
            service.apply_batch(as_ops(window(service, rng), NodeRef))
            if service._ckpt_tracker is None:
                assert service.stats.rebalances + service.stats.rebuilds > moved
                continue
            tracked += 1
            assert service._ckpt_tracker.dtype == np.int64
            assert service._ckpt_tracker.tolist() == [
                origin.get(id(e), -1) for e in service.tree.elements
            ]
        assert tracked >= 2

    def test_out_of_range_is_an_index_error(self):
        service, _ = make_pair(7, 5, 64, 0.95)
        before = state_of(service)
        for bad in (len(service), -1, 10**9):
            with pytest.raises(IndexError, match="outside the tree"):
                service.apply_batch([DeleteOp(NodeRef(bad))])
        assert_state(service, before)

    def test_node_deleted_earlier_in_the_batch(self):
        service, _ = make_pair(8, 5, 64, 0.95)
        before = state_of(service)
        victim = len(service) - 1
        with pytest.raises(
            BatchError, match="operation targets a node deleted earlier in the batch"
        ) as excinfo:
            service.apply_batch(
                [DeleteOp(NodeRef(victim)), InsertOp(NodeRef(victim), Element("a"))]
            )
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert_state(service, before)

    def test_index_is_pre_batch_however_earlier_ops_shift_the_numbering(self):
        service, _ = make_pair(9, 5, 64, 0.95)
        target = service.tree.elements[len(service) - 1]
        service.apply_batch(
            [
                InsertOp(NodeRef(0), random_subtree(random.Random(5)), 0),  # shifts all
                InsertOp(NodeRef(len(service) - 1), Element("zz")),
            ]
        )
        (placed,) = [e for e in service.tree.elements if e.tag == "zz"]
        assert placed.parent is target

    def test_resolve_counts_the_deleted_subtree(self):
        service, _ = make_pair(10, 5, 64, 0.95)
        for index in range(len(service)):
            op, count = OpSpec("delete", {"index": index}).resolve(service)
            assert op == DeleteOp(NodeRef(index))
            assert count == sum(1 for _ in service.tree.elements[index].iter())

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_v1_and_v2_records_replay_to_the_live_state(self, tmp_path, codec):
        # big enough that three windows stay under the rebuild threshold
        # (a rebuild would cut a checkpoint and leave nothing to replay)
        service = make_durable(tmp_path / "wal", seed=11, nodes=400)
        service._wal.codec = codec
        rng = random.Random(6)
        for _ in range(3):
            service.apply_batch(as_ops(window(service, rng), NodeRef))
        service.insert_subtree(service.tree.elements[3], Element("b"))  # single-op record
        live = full_state(service)
        service.close()
        recovered = EstimationService.open_durable(tmp_path / "wal")
        assert recovered.recovery_info.batches_replayed == 4
        assert_full_state(recovered, live)
        recovered.differential_check(QUERIES)
        recovered.close()


def test_served_replayed_and_replicated_paths_build_no_element_map(
    tmp_path, monkeypatch
):
    primary = make_durable(tmp_path / "primary")
    engine, server = serve_forever(primary, max_ops=16, linger=5.0)
    bootstrap_follower(tmp_path / "follower", server.host, server.port)
    replica = EstimationService.open_durable(tmp_path / "follower")
    follower = Follower(replica, None, server.host, server.port, read_timeout=5.0)
    follower.start()
    try:
        rows = window(primary, random.Random(7))

        def forbidden(self, element):
            raise AssertionError("index_of called on the served path")

        monkeypatch.setattr(LabeledTree, "index_of", forbidden)

        tickets = [
            engine.submit(
                {"op": "delete", "node": {"index": index}}
                if kind == "delete"
                else {
                    "op": "insert",
                    "parent": {"index": index},
                    "xml": f"<{subtree.tag}><e/></{subtree.tag}>",
                    "position": position,
                }
            )
            for kind, index, subtree, position in rows
        ]
        responses = [t.wait(WAIT) for t in tickets]
        assert all(r["ok"] for r in responses), responses
        assert engine.stats.largest_group == 16 and engine.stats.flushes == 1
        live = state_of(primary)

        wait_caught_up(replica, int(primary._last_lsn))
        assert_state(replica, live)

        primary._wal.sync()
        shutil.copytree(tmp_path / "primary", tmp_path / "crashed")
        recovered = EstimationService.open_durable(tmp_path / "crashed")
        assert recovered.recovery_info.batches_replayed == 1
        assert_state(recovered, live)
        recovered.close()
    finally:
        follower.stop(WAIT)
        replica.close()
        server.stop()
        server.join(WAIT)
        engine.close()
        primary.close()
