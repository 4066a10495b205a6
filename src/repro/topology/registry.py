"""The solution registry: every deployment the harness can build.

This is the single source of truth for solution names.  Each entry is a
:class:`~repro.topology.spec.DeploymentSpec`, and :func:`build_server`
is the one assembler: it turns a spec (or its registered name) into a
wired server on a given environment/link/filesystem, for the benchmark
application or for one that brings its own offload callbacks and host
handler (§9).  The bench harness, the figure benchmarks, the examples
and both applications all resolve names here — there is no
string-dispatch ladder anywhere else.

A solution *is* its spec.  Figure 16's table is transport × file path ×
"offload or not", and that is how a server is composed:

========== =========================================================
filesystem the execution stage
========== =========================================================
``OS``     ``OsFileExecution`` (application handler or plain files)
``DDS``    ``DdsBackend`` (file library → DPU file service)
========== =========================================================

============== =====================================================
transport      what stands around the execution stage
============== =====================================================
``NONE``       nothing; the client pays ``NO_TRANSPORT``
``TCP``        wire + PCIe forward → OS TCP → app network → · → wire
``REDY``       wire → ``RedyTransport`` (spin pollers) → · → wire
``SMB`` /      the per-operation ``SmbExchange`` *is* the execution
``SMB_DIRECT`` stage (credits, wire, transport, protocol, OS files)
============== =====================================================

With ``offload`` the traffic director and offload engine front the DDS
file service instead: :class:`~repro.topology.sharding.
ShardedOffloadServer` on ``dpu_count`` DPUs (one for the paper's DDS) —
the only deployment that is a class, because it has behaviour of its
own (host fallback, commit chain, resilience, membership).

The ten ``headline`` entries are the solutions charted in Figure 16, in
chart order; the remaining entries are the ablations (zero-copy off) and
the multi-DPU sharded deployments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from ..hardware.specs import (
    BENCH_APP_NET,
    HOST_OS_TCP,
    NO_TRANSPORT,
    RDMA_VERBS,
    StackSpec,
)
from .spec import DeploymentSpec, FilesystemKind, TransportKind

if TYPE_CHECKING:
    from ..core.api import OffloadCallbacks
    from ..core.server import PipelineServer
    from ..hardware.nic import NetworkLink
    from ..sim import Environment
    from ..storage.filesystem import DdsFileSystem

__all__ = ["SOLUTIONS", "headline_solutions", "resolve", "build_server"]


def _specs() -> Tuple[DeploymentSpec, ...]:
    tcp = TransportKind.TCP
    dds = FilesystemKind.DDS
    os_ = FilesystemKind.OS
    return (
        # -- the ten Figure 16 solutions, chart order ------------------
        DeploymentSpec(
            "local-os", "① Windows files on local SSDs",
            TransportKind.NONE, os_, headline=True,
        ),
        DeploymentSpec(
            "local-dds", "② DDS files on local SSDs (DPU execution)",
            TransportKind.NONE, dds, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "smb", "③ SMB remote mount over TCP",
            TransportKind.SMB, os_, headline=True,
        ),
        DeploymentSpec(
            "smb-direct", "④ SMB Direct (SMB over RDMA)",
            TransportKind.SMB_DIRECT, os_, headline=True,
        ),
        DeploymentSpec(
            "baseline", "⑤ sockets TCP + Windows files",
            tcp, os_, headline=True,
        ),
        DeploymentSpec(
            "dds-files", "⑥ sockets TCP + DDS file library",
            tcp, dds, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "redy-os", "⑦ Redy RPC + Windows files",
            TransportKind.REDY, os_, headline=True,
        ),
        DeploymentSpec(
            "redy-dds", "⑧ Redy RPC + DDS file library",
            TransportKind.REDY, dds, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "dds-offload", "⑨ DDS offloading over TCP",
            tcp, dds, offload=True, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "dds-offload-rdma", "⑩ DDS offloading over RDMA",
            TransportKind.RDMA, dds, offload=True, dpu_count=1,
            headline=True,
        ),
        # -- ablations -------------------------------------------------
        DeploymentSpec(
            "dds-files-copy",
            "⑥ with zero-copy disabled (Figure 18 ablation)",
            tcp, dds, dpu_count=1, copy_mode=True,
        ),
        DeploymentSpec(
            "dds-offload-copy",
            "⑨ with zero-copy disabled (Figure 23 ablation)",
            tcp, dds, offload=True, dpu_count=1, copy_mode=True,
        ),
        # -- multi-DPU scale-out ---------------------------------------
        DeploymentSpec(
            "dds-offload-shard2",
            "⑨ sharded across 2 DPUs (consistent-hash shard map)",
            tcp, dds, offload=True, dpu_count=2,
        ),
        DeploymentSpec(
            "dds-offload-shard4",
            "⑨ sharded across 4 DPUs (consistent-hash shard map)",
            tcp, dds, offload=True, dpu_count=4,
        ),
    )


#: Name → spec, in documentation order.
SOLUTIONS: Dict[str, DeploymentSpec] = {
    spec.name: spec for spec in _specs()
}


def headline_solutions() -> Tuple[str, ...]:
    """The ten Figure 16 solution names, in chart order."""
    return tuple(
        name for name, spec in SOLUTIONS.items() if spec.headline
    )


def resolve(solution: Union[str, DeploymentSpec]) -> DeploymentSpec:
    """Look a solution up by name (specs pass through unchanged)."""
    if isinstance(solution, DeploymentSpec):
        return solution
    spec = SOLUTIONS.get(solution)
    if spec is None:
        raise ValueError(f"unknown solution: {solution!r}")
    return spec


def build_server(
    solution: Union[str, DeploymentSpec],
    env: "Environment",
    link: "NetworkLink",
    filesystem: "DdsFileSystem",
    callbacks: Optional["OffloadCallbacks"] = None,
    host_app: Optional[Callable] = None,
    app_net_spec: StackSpec = BENCH_APP_NET,
) -> "PipelineServer":
    """Wire the server a spec describes.

    The server is composed from the spec's columns (module docstring),
    so registering a new solution is *only* adding a
    :class:`DeploymentSpec` as long as it composes the existing stages.

    An application enters by the same door (§9): ``callbacks`` are
    Table 1's four offload functions (used where there is an offload
    engine), ``host_app`` its handler for requests the host serves
    (``(IoRequest) -> generator returning an IoResponse``, on the OS
    file path and on the offload server's host fallback; default plain
    file semantics), ``app_net_spec`` its own network module on the
    sockets path (the offload server's split connection keeps the
    benchmark app's: a pinned cost model, DESIGN §8).  Its files it
    reaches through ``execution.device(file_id)``
    (``shards[0].backend.device`` behind a director).
    """
    spec = resolve(solution)
    if spec.offload:
        from .sharding import ShardedOffloadServer

        return ShardedOffloadServer(
            env, link, filesystem, spec.dpu_count,
            callbacks=callbacks,
            host_app=host_app,
            copy_mode=spec.copy_mode,
            rdma_transport=spec.transport is TransportKind.RDMA,
        )

    from ..core.server import PipelineServer
    from .stages import (
        DdsBackend,
        OsFileExecution,
        TransportStage,
        WireEgress,
        WireIngress,
    )

    server = PipelineServer(env, link)
    server.filesystems = [filesystem]
    pool = server.host_pool
    transport = spec.transport
    if transport in (TransportKind.SMB, TransportKind.SMB_DIRECT):
        from ..baselines.smb import SmbExchange

        execution = SmbExchange(
            env, link, filesystem, pool,
            direct=transport is TransportKind.SMB_DIRECT,
        )
        server.client_spec = execution.transport.spec
        server.set_pipeline([execution], execution=execution)
        return server
    if spec.filesystem is FilesystemKind.DDS:
        execution = DdsBackend(env, pool, filesystem, spec.copy_mode)
    else:
        execution = OsFileExecution(
            env, filesystem, pool,
            app_handler=host_app,
            # Only the sockets baseline answers a failed file operation;
            # the local and Redy paths surface it.
            catch_errors=transport is TransportKind.TCP,
        )
    if transport is TransportKind.NONE:
        server.client_spec = NO_TRANSPORT
        stages = [execution]
    elif transport is TransportKind.REDY:
        from ..baselines.redy import RedyTransport

        server.client_spec = RDMA_VERBS
        # RDMA writes land in user memory directly: no NIC->host kernel
        # forward hop on ingest.
        stages = [
            WireIngress(env, link, forward_latency=False),
            RedyTransport(env, pool),
            execution,
            WireEgress(env, link),
        ]
    else:
        server.client_spec = HOST_OS_TCP
        stages = [
            WireIngress(env, link, forward_latency=True),
            TransportStage(env, HOST_OS_TCP, pool),
            TransportStage(env, app_net_spec, pool),
            execution,
            WireEgress(env, link),
        ]
    server.set_pipeline(stages, execution=execution)
    if spec.filesystem is FilesystemKind.DDS:
        # Last: the service threads take their sequence numbers after
        # the host side's completion pumps (bring-up order is pinned).
        execution.start()
    return server
