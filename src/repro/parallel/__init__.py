"""Parallel inference executor (DESIGN.md S24).

Multi-core execution for the sharded Algorithm 1/2 pipeline and the
experiment sweeps: a thread/process :class:`ShardExecutor` with
zero-copy shared-memory transport, and the persistent
:class:`SweepExecutor` pool behind
:class:`repro.experiments.sweep.SweepRunner`.
"""

from repro.parallel.executor import (
    ENV_WORKERS,
    MODES,
    ShardExecutor,
    ShardResult,
    ShardTopology,
    SweepExecutor,
    default_infer_workers,
    resolve_shard_mode,
    shard_contribution,
    shard_topology,
)
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    IncidenceDescriptor,
    IncidenceShare,
    MeasurementDescriptor,
    MeasurementShare,
    SegmentRegistry,
    SharedArrayHandle,
    TransportStats,
    attach,
    attach_measurements,
    REGISTRY,
    reset_transport_stats,
    shm_available,
    transport_stats,
)

__all__ = [
    "ENV_WORKERS",
    "MODES",
    "REGISTRY",
    "SEGMENT_PREFIX",
    "IncidenceDescriptor",
    "IncidenceShare",
    "MeasurementDescriptor",
    "MeasurementShare",
    "SegmentRegistry",
    "SharedArrayHandle",
    "ShardExecutor",
    "ShardResult",
    "ShardTopology",
    "SweepExecutor",
    "TransportStats",
    "attach",
    "attach_measurements",
    "default_infer_workers",
    "reset_transport_stats",
    "resolve_shard_mode",
    "shard_contribution",
    "shard_topology",
    "shm_available",
    "transport_stats",
]
