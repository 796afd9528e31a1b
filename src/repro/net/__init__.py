"""The network tier: query serving over TCP.

Turns the library into a service, the fourth layer of the stack
(storage -> execution -> serving -> **network**):

- :mod:`repro.net.protocol` -- the length-prefixed wire protocol;
  FDBP-framed payloads mean results travel *factorised*;
- :mod:`repro.net.server` -- the asyncio TCP server behind
  ``repro serve`` (pipelining, admission backpressure, wave-coalesced
  evaluation, graceful drain, ``STATS``);
- :mod:`repro.net.client` -- the synchronous
  :class:`~repro.net.client.RemoteSession`, mirroring
  :class:`~repro.service.session.QuerySession`;
- :mod:`repro.net.remote` -- :class:`~repro.net.remote.RemoteExecutor`,
  the executor loop with its tasks sent to worker hosts: each task
  walks a chain of workers (retry on the next with timeouts and
  jittered backoff, quarantine with half-open probes, a loud local
  degrade only when the whole chain failed); its chain is every
  worker;
- :mod:`repro.net.cluster` -- :class:`~repro.net.cluster.ClusterMap`
  (consistent-hash replicated shard ownership) and
  :class:`~repro.net.cluster.ReplicatedExecutor` (the same wire path
  with each shard's R ring replicas as its chain).
"""

from repro.net.client import NetError, RemoteSession, parse_address
from repro.net.cluster import ClusterMap, ReplicatedExecutor
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.net.remote import RemoteExecutor
from repro.net.server import (
    DEFAULT_HOST,
    OwnershipError,
    QueryServer,
    ServerThread,
)

__all__ = [
    "ClusterMap",
    "DEFAULT_HOST",
    "DEFAULT_MAX_FRAME",
    "DEFAULT_PORT",
    "NetError",
    "OwnershipError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryServer",
    "RemoteExecutor",
    "RemoteSession",
    "ReplicatedExecutor",
    "ServerThread",
    "parse_address",
]
