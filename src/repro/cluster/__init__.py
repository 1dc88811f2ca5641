"""The parallel testing substrate (§6, Fig. 2).

An :class:`~repro.cluster.explorer_node.ClusterExplorer` coordinates a
set of :class:`~repro.cluster.manager.NodeManager` instances.  The
explorer turns faults into :class:`~repro.cluster.messages.TestRequest`
messages; each manager converts the scenario to injector configuration
via its plugins, runs the startup/test/cleanup scripts, lets its sensors
measure the run, and replies with a
:class:`~repro.cluster.messages.TestReport`.

Four execution fabrics are provided:

* :class:`~repro.cluster.local.LocalCluster` — concurrency over a
  thread pool (this process plays every node; GIL-bound for the pure
  Python simulator);
* :class:`~repro.cluster.process_pool.ProcessPoolCluster` — real
  multi-core execution over warm worker processes with chunked
  round-robin dispatch (the closest analogue to the paper's one-manager
  -per-machine EC2 deployment);
* :class:`~repro.cluster.local.VirtualCluster` — deterministic
  *virtual-time* execution used by the §7.7 scalability experiment: the
  paper measured wall-clock scaling on 1-14 EC2 nodes, which we
  substitute with an explicit accounting of per-node busy time (valid
  because tests are independent — the "embarrassing parallelism" the
  paper leans on);
* :class:`~repro.cluster.socket_fabric.SocketFabric` — the *networked
  multi-node* fabric: a manager serves the length-prefixed wire
  protocol of :mod:`~repro.cluster.wire` over TCP (JSON control
  frames, a batched binary data plane) while :class:`~repro.cluster.socket_fabric.ExplorerNode`
  processes connect, advertise capacity, and pull work with
  backpressure — the paper's actual 10-node/EC2 deployment shape (§4;
  see docs/DISTRIBUTED.md and docs/PERFORMANCE.md).  The fleet is
  *elastic*: idle slots steal backlog from the most
  loaded node, and nodes join mid-campaign and leave gracefully
  (drain-then-deregister).  Its scheduling is one pure state machine,
  :mod:`~repro.cluster.fleet`, that the manager and node drive with
  events and a clock reading.

Batch width per round is a fixed positive int (the fabric's width by
default): a campaign's round boundaries, and therefore its history
digest, are a function of its spec and never of the wall clock.

Every fabric can be hardened with the
:mod:`~repro.cluster.fault_tolerance` layer —
:class:`~repro.cluster.fault_tolerance.FaultTolerantFabric` adds
report validation and retry with exponential backoff around any of
them.  The process pool always runs on that loop, replacing dead or
hung workers (past its ``dispatch_deadline``) before each retry; the
socket fabric also drops nodes silent past their liveness bound.  The
:class:`~repro.cluster.chaos.ChaosCluster` test double sabotages
dispatches on purpose (kills, corrupt and dropped reports) to prove the
recovery machinery actually recovers.
"""

from repro.cluster.chaos import ChaosCluster
from repro.cluster.explorer_node import ClusterExplorer, ExecutionFabric
from repro.cluster.fault_tolerance import (
    FabricHealth,
    FaultTolerantFabric,
    RetryPolicy,
)
from repro.cluster.local import LocalCluster, VirtualCluster
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest
from repro.cluster.process_pool import ProcessPoolCluster
from repro.cluster.scripts import ScriptTarget, UserScripts
from repro.cluster.socket_fabric import ExplorerNode, SocketFabric
from repro.cluster.wire import PROTOCOL_VERSION, WireError

__all__ = [
    "ChaosCluster",
    "ClusterExplorer",
    "ExecutionFabric",
    "ExplorerNode",
    "FabricHealth",
    "FaultTolerantFabric",
    "LocalCluster",
    "NodeManager",
    "PROTOCOL_VERSION",
    "ProcessPoolCluster",
    "RetryPolicy",
    "ScriptTarget",
    "SocketFabric",
    "WireError",
    "TestReport",
    "TestRequest",
    "UserScripts",
    "VirtualCluster",
]
