"""The execution layer: where a session's tasks run.

Sits between the storage layer (:mod:`repro.storage`) and the serving
layer (:mod:`repro.service`).  The session runs the one evaluation loop
-- plan lookup and compilation, explosion fallback, result cache, one
task per query or per (query, shard), union, result caching,
projection -- and hands each task to its :class:`Executor`, which only
places it: in the caller (:class:`SerialExecutor`), on a worker pool
(:class:`ParallelExecutor`), or on shard-worker servers
(:class:`repro.net.RemoteExecutor`, :class:`repro.net.ReplicatedExecutor`).
"""

from repro.exec.executor import (
    POOL_KINDS,
    Executor,
    ParallelExecutor,
    SerialExecutor,
)

__all__ = [
    "POOL_KINDS",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
]
