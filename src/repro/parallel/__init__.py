"""Parallel inference executor (DESIGN.md S24).

Multi-core execution for the sharded Algorithm 1/2 pipeline and the
experiment sweeps: the inline/thread :class:`ShardExecutor`, and the
persistent :class:`SweepExecutor` process pool behind
:class:`repro.experiments.sweep.SweepRunner`.
"""

from repro.parallel.executor import (
    ENV_WORKERS,
    ShardExecutor,
    ShardResult,
    ShardTopology,
    SweepExecutor,
    default_infer_workers,
    shard_evidence,
    shard_topology,
)

__all__ = [
    "ENV_WORKERS",
    "ShardExecutor",
    "ShardResult",
    "ShardTopology",
    "SweepExecutor",
    "default_infer_workers",
    "shard_evidence",
    "shard_topology",
]
