"""The execution layer: the one loop that runs deduplicated queries.

Sits between the storage layer (:mod:`repro.storage`) and the serving
layer (:mod:`repro.service`): a session hands each batch to its
:class:`Executor`, whose :meth:`Executor.execute` is the same sequence
for every executor -- plan lookup and compilation, explosion fallback,
result cache, one task per query or per (query, shard), union, result
caching, projection.  The executors differ only in where a task runs:
in the caller (:class:`SerialExecutor`), on a worker pool
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
