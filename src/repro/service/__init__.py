"""Online statistics service: estimation state kept correct under updates.

The offline layers build histograms in one pass over a frozen document;
this package owns a *live* database -- the labeled tree, its predicate
catalog, and every histogram -- and keeps all of it consistent while
documents take inserts and deletes, the way a production optimizer's
statistics subsystem must.  See
:class:`~repro.service.service.EstimationService`.
"""

from repro.service.batch import BatchError, BatchResult, DeleteOp, InsertOp, NodeRef
from repro.service.client import (
    ClientSnapshot,
    ClientTimeout,
    ReplicaSet,
    ServiceClient,
    ServiceError,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service.protocol import (
    MAX_LINE_BYTES,
    CodedError,
    OverloadedError,
    ProtocolError,
    ReadOnlyError,
    ShuttingDownError,
    StaleLsnError,
)
from repro.service.replica import (
    Follower,
    ReplicaError,
    ReplicationHub,
    StaleFollowerError,
    bootstrap_follower,
)
from repro.service.server import EstimationServer, ServiceEngine
from repro.service.service import EstimationService, ServiceStats, UpdateResult
from repro.service.snapshot import ServiceSnapshot
from repro.service.wal import (
    CompactStats,
    RecoveryInfo,
    WalError,
    WalTailer,
    WriteAheadLog,
    compact,
)

__all__ = [
    "BatchError",
    "BatchResult",
    "ClientSnapshot",
    "ClientTimeout",
    "CodedError",
    "CompactStats",
    "DeleteOp",
    "EstimationServer",
    "EstimationService",
    "FaultPlan",
    "FaultRule",
    "Follower",
    "InsertOp",
    "MAX_LINE_BYTES",
    "NodeRef",
    "OverloadedError",
    "ProtocolError",
    "ReadOnlyError",
    "ReplicaError",
    "ReplicaSet",
    "ReplicationHub",
    "ShuttingDownError",
    "StaleFollowerError",
    "StaleLsnError",
    "RecoveryInfo",
    "ServiceClient",
    "ServiceEngine",
    "ServiceError",
    "ServiceSnapshot",
    "ServiceStats",
    "UpdateResult",
    "WalError",
    "WalTailer",
    "WriteAheadLog",
    "bootstrap_follower",
    "compact",
]
