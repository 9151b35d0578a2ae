"""Differential property tests: incremental maintenance == full rebuild.

The contract pinned here is the service's whole reason to exist: after
ANY sequence of subtree inserts and deletes, every maintained structure
-- catalog membership and overlap flags, position / TRUE / coverage /
level histograms, and the estimates computed from them -- is
*bit-identical* to a from-scratch build over the final document state.

Coverage: 240 seeded random update sequences (4 configurations x 60
seeds), with hot caches primed *before* the updates so the delta paths
(not lazy rebuilds) are what is being verified, plus mid-sequence checks
and dedicated rebuild-trigger cases.
"""

import random

import numpy as np
import pytest

from repro.estimation import AnswerSizeEstimator
from repro.predicates.base import TagPredicate
from repro.service import EstimationService
from repro.service.server import OpSpec
from repro.xmltree.tree import Document, Element
from repro.xmltree.writer import write_node

TAGS = ["a", "b", "c", "d", "e"]


def random_document(rng: random.Random, nodes: int) -> Document:
    """A random tree over a small tag alphabet (recursive nesting)."""
    document = Document()
    root = Element("root")
    document.append(root)
    spine = [root]
    for _ in range(nodes - 1):
        parent = rng.choice(spine[-8:])  # bias toward recent nodes: depth
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


def prime(service: EstimationService, queries) -> None:
    """Build every summary kind up front so updates exercise deltas."""
    service.estimate_many(queries)
    for tag in TAGS:
        predicate = TagPredicate(tag)
        service.position_histogram(predicate)
        service.coverage_histogram(predicate)
        service.estimator.level_histogram(predicate)
    _ = service.estimator.true_histogram


def apply_random_op(service: EstimationService, rng: random.Random) -> None:
    if rng.random() < 0.6 or len(service) < 20:
        parent = rng.randrange(len(service))
        # Cover the whole child-position surface: append (None), front,
        # and arbitrary mid-list ranks (clamped past-the-end included).
        position = rng.choice([None, None, 0, 1, 2, 5])
        service.insert_subtree(parent, random_subtree(rng), position=position)
    else:
        victim = rng.randrange(1, len(service))  # keep the root
        service.delete_subtree(victim)


QUERIES = ["//a//b", "//b//c", "//root//d", "//a//a", "//c//e", "//e//b"]

# 4 configurations x 60 seeds = 240 independent random update sequences.
CONFIGS = [
    # (grid_size, grid_kind, spacing, rebuild_threshold, ops)
    (5, "uniform", 16, 0.9, 8),
    (7, "uniform", 8, 0.9, 10),   # small gaps: exercises mid-sequence rebuilds
    (4, "equi-depth", 16, 0.9, 8),
    (6, "uniform", 16, 0.15, 10),  # low threshold: dirty-fraction rebuilds
]


@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
@pytest.mark.parametrize("seed", range(60))
def test_random_sequence_matches_full_rebuild(config_index, seed):
    grid_size, grid_kind, spacing, threshold, ops = CONFIGS[config_index]
    rng = random.Random(1000 * config_index + seed)
    document = random_document(rng, nodes=rng.randrange(30, 70))
    service = EstimationService(
        document,
        grid_size=grid_size,
        grid=grid_kind,
        spacing=spacing,
        rebuild_threshold=threshold,
    )
    prime(service, QUERIES)
    for step in range(ops):
        apply_random_op(service, rng)
        if step % 4 == 3:
            service.differential_check()
    service.differential_check(QUERIES)


def random_window(service: EstimationService, rng: random.Random, size: int):
    """``size`` wire requests forming one admission group: every target
    is an index into the *pre-window* tree, and none falls inside a
    subtree an earlier request of the window deletes."""
    tree = service.tree
    dead = np.zeros(len(tree), dtype=bool)
    requests = []
    for _ in range(size):
        alive = np.flatnonzero(~dead)
        if rng.random() < 0.6 or len(alive) < 20:
            position = rng.choice([None, None, 0, 1, 2, 5])
            requests.append(
                {
                    "op": "insert",
                    "parent": {"index": int(alive[rng.randrange(len(alive))])},
                    "xml": write_node(random_subtree(rng)),
                    "position": position,
                }
            )
        else:
            victim = int(alive[rng.randrange(1, len(alive))])  # keep the root
            dead[tree.subtree_slice(victim)] = True
            requests.append({"op": "delete", "node": {"index": victim}})
    return requests


@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
@pytest.mark.parametrize("seed", range(60))
def test_random_windows_through_opspec_match_full_rebuild(config_index, seed):
    """The same 240 sequences, driven the way the serve tier drives
    them: 4-op windows whose every op goes through ``OpSpec.resolve``
    (pre-window ``NodeRef`` targets) into one ``apply_batch``."""
    grid_size, grid_kind, spacing, threshold, ops = CONFIGS[config_index]
    rng = random.Random(1000 * config_index + seed)
    document = random_document(rng, nodes=rng.randrange(30, 70))
    service = EstimationService(
        document,
        grid_size=grid_size,
        grid=grid_kind,
        spacing=spacing,
        rebuild_threshold=threshold,
    )
    prime(service, QUERIES)
    for done in range(0, ops, 4):
        requests = random_window(service, rng, min(4, ops - done))
        result = service.apply_batch(
            [OpSpec.from_request(r).resolve(service)[0] for r in requests]
        )
        assert result.ops == len(requests)
        service.differential_check()
    service.differential_check(QUERIES)


def test_coverage_fractions_bit_identical_after_updates():
    """Coverage fractions come from integer numerators over TRUE counts;
    after updates the floats must be *equal*, not merely close.

    The document keeps a dedicated ``sect`` layer that is never nested,
    so its no-overlap coverage histogram survives (and is maintained
    through) every update.
    """
    rng = random.Random(7)
    document = Document()
    root = Element("root")
    document.append(root)
    sections = []
    for _ in range(8):
        section = Element("sect")
        root.append(section)
        sections.append(section)
    for _ in range(40):
        rng.choice(sections).append(Element(rng.choice(TAGS)))
    service = EstimationService(document, grid_size=5, spacing=16, rebuild_threshold=0.9)
    prime(service, QUERIES)
    sect = TagPredicate("sect")
    assert service.coverage_histogram(sect) is not None
    for _ in range(12):
        # Insert below (or delete from) the sect layer only, keeping
        # the no-overlap property alive while its coverage changes.
        sect_indices = service.catalog.stats(sect).node_indices
        if rng.random() < 0.7:
            parent = int(rng.choice(sect_indices))
            service.insert_subtree(parent, random_subtree(rng))
        else:
            parent = int(rng.choice(sect_indices))
            children = list(service.tree.elements[parent].child_elements())
            if children:
                service.delete_subtree(rng.choice(children))
    assert service.catalog.stats(sect).no_overlap
    reference = AnswerSizeEstimator(service.tree, grid_size=5)
    reference.grid = service.estimator.grid
    ours_entries = dict(service.estimator._coverage_cache[sect].entries())
    theirs_entries = dict(reference.coverage_histogram(sect).entries())
    assert set(ours_entries) == set(theirs_entries)
    assert len(ours_entries) > 0
    for key, fraction in ours_entries.items():
        assert fraction == theirs_entries[key]  # bitwise float equality
    service.differential_check(QUERIES + ["//sect//a", "//root//sect"])


def test_estimates_after_updates_equal_rebuild_estimates():
    rng = random.Random(21)
    document = random_document(rng, 60)
    service = EstimationService(document, grid_size=6, spacing=16, rebuild_threshold=0.9)
    prime(service, QUERIES)
    for _ in range(10):
        apply_random_op(service, rng)
    reference = AnswerSizeEstimator(service.tree, grid_size=6)
    reference.grid = service.estimator.grid
    for query in QUERIES + ["//root//a", "//d//c"]:
        assert service.estimate(query).value == reference.estimate(query).value


def test_catalog_membership_tracks_tree_exactly():
    rng = random.Random(33)
    document = random_document(rng, 40)
    service = EstimationService(document, grid_size=5, spacing=16, rebuild_threshold=0.9)
    prime(service, QUERIES)
    for _ in range(15):
        apply_random_op(service, rng)
    for tag in TAGS:
        stats = service.catalog.stats(TagPredicate(tag))
        expected = np.asarray(
            [i for i, e in enumerate(service.tree.elements) if e.tag == tag],
            dtype=np.int64,
        )
        assert np.array_equal(stats.node_indices, expected)
        assert stats.count == len(expected)


def test_gap_exhaustion_triggers_rebuild_and_stays_consistent():
    document = Document()
    root = Element("root")
    document.append(root)
    root.append(Element("a"))
    service = EstimationService(document, grid_size=4, spacing=2, rebuild_threshold=0.9)
    prime(service, ["//root//a"])
    rebuilds_before = service.stats.rebuilds
    # spacing 2 leaves a 1-label gap: any insert must relabel.
    result = service.insert_subtree(0, Element("b"))
    assert result.rebuilt
    assert service.stats.rebuilds == rebuilds_before + 1
    service.differential_check(["//root//a", "//root//b"])


def test_dirty_threshold_triggers_rebuild():
    rng = random.Random(5)
    document = random_document(rng, 40)
    service = EstimationService(
        document, grid_size=5, spacing=512, rebuild_threshold=0.05
    )
    prime(service, QUERIES)
    results = [
        service.insert_subtree(rng.randrange(len(service)), random_subtree(rng))
        for _ in range(6)
    ]
    assert any(r.rebuilt for r in results)
    assert service.stats.rebuilds >= 1
    assert service.dirty_fraction <= 0.05 + 1e-9 or service.stats.rebuilds > 0
    service.differential_check(QUERIES)


def test_positional_inserts_match_full_rebuild():
    """Dedicated positional-insert differential: every child rank of a
    wide node, interleaved with deletes, stays bit-identical."""
    rng = random.Random(77)
    document = Document()
    root = Element("root")
    document.append(root)
    for _ in range(6):
        root.append(Element(rng.choice(TAGS)))
    service = EstimationService(document, grid_size=5, spacing=64, rebuild_threshold=0.9)
    prime(service, QUERIES)
    for step in range(12):
        kids = sum(1 for _ in service.tree.elements[0].child_elements())
        position = rng.randrange(0, kids + 2)
        service.insert_subtree(0, random_subtree(rng), position=position)
        if step % 3 == 2 and kids > 2:
            service.delete_subtree(rng.randrange(1, len(service)))
        service.differential_check()
    service.differential_check(QUERIES)


def test_estimate_many_routes_through_batched_estimator_path():
    """The service facade must hand workloads to the estimator's batch
    API (dedup + shared coefficient kernels), not loop over estimate."""
    rng = random.Random(55)
    document = random_document(rng, 50)
    service = EstimationService(document, grid_size=5, spacing=32, rebuild_threshold=0.9)
    results = service.estimate_many(["//a//b", "//a//b", "//b//c"])
    assert results[0] is results[1]  # dedup only happens on the batch path
    for query, result in zip(["//a//b", "//a//b", "//b//c"], results):
        assert result.value == service.estimate(query).value
    # And the snapshot read path shares the same batched machinery.
    snapshot = service.snapshot()
    snap_results = snapshot.estimate_many(["//a//b", "//a//b"])
    assert snap_results[0] is snap_results[1]


def test_updates_only_invalidate_changed_coefficients():
    """The pH-join coefficient cache survives updates that do not touch
    its descendant operand (the Section 3.3 reuse under maintenance)."""
    rng = random.Random(9)
    document = random_document(rng, 50)
    service = EstimationService(document, grid_size=5, spacing=32, rebuild_threshold=0.9)
    prime(service, QUERIES)
    for tag in TAGS:
        service.estimator.join_coefficients(TagPredicate(tag))
    kernels_before = dict(service.estimator._coefficient_cache)
    subtree = Element("a")  # touches only tag 'a'
    result = service.insert_subtree(0, subtree)
    assert result.coefficients_invalidated == 1  # reported per kernel dropped
    cache = service.estimator._coefficient_cache
    assert TagPredicate("a") not in cache  # invalidated
    assert TagPredicate("a") not in service.estimator._level_cache
    for tag in TAGS[1:]:
        assert cache[TagPredicate(tag)] is kernels_before[TagPredicate(tag)]
    service.differential_check(QUERIES)
