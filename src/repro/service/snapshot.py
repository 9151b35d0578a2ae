"""Snapshot-isolated readers over a live estimation service.

:meth:`~repro.service.service.EstimationService.snapshot` returns a
:class:`ServiceSnapshot`: an immutable view of the label table, the
predicate catalog, and every built histogram, against which readers can
estimate (and execute) without ever observing a half-applied update or
batch.  Snapshots **pin an epoch** (see :mod:`repro.histograms.epoch`):

* the **label arrays and the element list** are shared by reference --
  every maintenance path (splices, vectorised relabels, full rebuilds)
  *replaces* the label arrays on the live tree rather than mutating
  them, and *a list that was ever handed out is never written again*
  (:meth:`~repro.labeling.interval.LabeledTree.share_elements`: the
  live tree copies its element list before the first splice after a
  snapshot and edits only that private copy in place), so a
  snapshot's references stay internally consistent forever;
* the catalog's per-predicate index arrays are shared the same way
  (index arrays are rebuilt, never written in place); the per-predicate
  stats rows are shallow-copied because the live side mutates those
  records -- O(#predicates), no per-node work;
* **histograms maintained by in-place cell deltas** (position
  histograms, the TRUE histogram) are pinned as epoch views
  (:meth:`~repro.histograms.position.PositionHistogram.snapshot_view`):
  the live overlay is sealed in O(1) and the view shares the frozen
  page and sealed layers by reference -- **zero per-cell copies**.
  Later maintenance writes a fresh overlay (and eventually a fresh
  page), never the pinned state.  Coverage/level histograms and
  coefficient kernels, which the live side replaces wholesale on
  invalidation, are shared;
* the pinned epoch is **refcounted** through the service's
  :class:`~repro.histograms.epoch.EpochRegistry`: sealed pages the
  live side has merged past are freed when the last snapshot of their
  epoch is released (:meth:`close`, the context-manager exit, or GC).

Construction cost is therefore O(#predicates) -- independent of the
tree size and of the histogram cell counts.  A snapshot taken *before*
an update keeps answering from the pre-update statistics, and a
snapshot taken *after*
:meth:`~repro.service.service.EstimationService.apply_batch` returns is
indistinguishable from a service freshly built over the post-batch
documents (the snapshot test suite pins both directions).  Snapshots
answer lazily like the live estimator: a predicate first touched
through the snapshot builds its histogram against the snapshot's frozen
label table and caches it snapshot-locally.

Known boundary (deliberately preserved across the epoch refactor, and
pinned by a test): snapshots freeze the *label table*, not the element
objects -- document-side children lists and text nodes are shared with
the live tree.  Estimates and executions over structural (tag)
predicates are fully isolated; a content predicate first scanned
through an old snapshot reads element text as it is *now*, not as it
was.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from repro.engine.executor import PlanExecutor
from repro.estimation.estimator import AnswerSizeEstimator, Query
from repro.estimation.result import EstimationResult
from repro.histograms.coverage import CoverageHistogram
from repro.histograms.position import PositionHistogram
from repro.labeling.interval import LabeledTree
from repro.optimizer.optimizer import Optimizer
from repro.predicates.base import Predicate
from repro.predicates.catalog import PredicateCatalog
from repro.query.pattern import PatternTree


class ServiceSnapshot:
    """A frozen, read-only view of one service state.

    Exposes the read API of the service (:meth:`estimate`,
    :meth:`estimate_many`, :meth:`execute`, :meth:`real_answer`,
    histogram accessors); construction performs no per-cell and no
    per-node copying.  Usable as a context manager; :meth:`close`
    releases the epoch pin (idempotent -- GC releases it too).
    """

    def __init__(self, service) -> None:
        tree = LabeledTree.shared_view(service.tree)
        catalog = PredicateCatalog(tree)
        catalog._stats = {
            predicate: replace(stats)
            for predicate, stats in service.catalog._stats.items()
        }
        if service.catalog._tag_indices is not None:
            catalog._tag_indices = dict(service.catalog._tag_indices)

        source = service.estimator
        estimator = AnswerSizeEstimator(
            tree, grid_size=source.grid.size, catalog=catalog
        )
        estimator.grid = source.grid  # same frozen bucket geometry object
        estimator.schema = source.schema
        estimator._true_hist = (
            source._true_hist.snapshot_view()
            if source._true_hist is not None
            else None
        )
        estimator._position_cache = {
            predicate: histogram.snapshot_view()
            for predicate, histogram in source._position_cache.items()
        }
        estimator._coverage_cache = dict(source._coverage_cache)
        estimator._level_cache = dict(source._level_cache)
        estimator._coefficient_cache = dict(source._coefficient_cache)

        self.tree = tree
        self.catalog = catalog
        self.estimator = estimator
        self.epoch = service.epoch
        pinned = list(estimator._position_cache.values())
        if estimator._true_hist is not None:
            pinned.append(estimator._true_hist)
        self._pin = service.epoch_registry.pin(service.epoch, pinned)
        self._optimizer: Optional[Optimizer] = None
        self._executor: Optional[PlanExecutor] = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the epoch pin (idempotent, thread-safe).

        Once every snapshot of an epoch is closed, sealed pages the
        live service no longer references become unreachable and are
        freed.  The snapshot itself keeps answering (it still holds its
        own references); closing only ends its participation in the
        epoch refcount.  A double ``close()`` -- including a ``close()``
        after context-manager exit, or two racing closes on different
        threads -- decrements the registry's refcount exactly once
        (:meth:`~repro.histograms.epoch.EpochPin.release` claims its one
        release under the registry lock), so it can never free pages a
        *different* snapshot of the same epoch still pins.
        """
        self._pin.release()

    def __enter__(self) -> "ServiceSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- read API ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tree)

    def estimate(self, query: Query) -> EstimationResult:
        return self.estimator.estimate(query)

    def estimate_many(self, queries: Sequence[Query]) -> list[EstimationResult]:
        """Batched estimation with the PR 1 dedup/coefficient-cache
        path, against the frozen state."""
        return self.estimator.estimate_many(queries)

    def real_answer(self, query: Query) -> int:
        return self.estimator.real_answer(query)

    def position_histogram(self, predicate: Predicate) -> PositionHistogram:
        return self.estimator.position_histogram(predicate)

    def coverage_histogram(self, predicate: Predicate) -> Optional[CoverageHistogram]:
        return self.estimator.coverage_histogram(predicate)

    def execute(self, query: Union[str, PatternTree]):
        """Optimize and run a twig query against the frozen state.

        Returns the same :class:`~repro.service.service.ExecutionOutcome`
        shape as the live service.
        """
        from repro.service.service import ExecutionOutcome

        pattern = self.estimator._as_pattern(query)
        if self._optimizer is None:
            self._optimizer = Optimizer(self.estimator)
        if self._executor is None:
            self._executor = PlanExecutor(self.tree, self.catalog)
        choice = self._optimizer.choose_plan(pattern)
        bindings, stats = self._executor.execute(pattern, choice.best.plan)
        return ExecutionOutcome(choice=choice, bindings=bindings, stats=stats)
