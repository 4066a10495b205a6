"""SMB and SMB Direct remote file services (Figure 16 ③ and ④).

SMB mounts a remote disk: every file operation becomes its own protocol
round trip — there is *no application-level batching*, which is exactly
why Figure 16 shows both SMB variants far below application-controlled
disaggregation.  SMB Direct replaces the TCP transport with RDMA, which
cuts transport CPU and latency but keeps the per-operation protocol
behaviour.

Because the protocol is per-operation, the whole exchange — credit
grant, wire hops, transport, protocol, OS file I/O — is one execution
stage (:class:`SmbExchange`); the pipeline has no message-granularity
ingest or completion stages at all.
"""

from __future__ import annotations

from typing import Generator

from ..core.messages import IoRequest
from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.specs import (
    HOST_OS_TCP,
    MICROSECOND,
    RDMA_VERBS,
    StackSpec,
)
from ..net.stack import StackLayer
from ..sim import Environment, Resource
from ..storage.filesystem import DdsFileSystem
from ..storage.osfs import OsFileSystem
from ..topology.stages import Stage, StageKind

__all__ = ["SmbExchange", "SMB_PROTOCOL"]

#: SMB server-side protocol processing per operation (marshalling,
#: credit management, signing bookkeeping) on top of the transport.
SMB_PROTOCOL = StackSpec(
    name="smb-protocol",
    per_message_core_time=9.0 * MICROSECOND,
    per_byte_core_time=1.2e-9,
    per_message_latency=18 * MICROSECOND,
)


class SmbExchange(Stage):
    """One SMB operation end to end, gated by session credits.

    A mounted remote disk has no batching: each request is its own
    protocol exchange, even if the benchmark client handed over several
    at once.  ``direct=True`` gives SMB Direct (RDMA transport).  The
    session grants a bounded number of credits (outstanding operations),
    which caps throughput no matter how hard the client pushes.
    """

    kind = StageKind.EXECUTION

    #: Outstanding-operation credits per session.
    CREDITS = 32

    def __init__(
        self,
        env: Environment,
        link: NetworkLink,
        filesystem: DdsFileSystem,
        host_pool: CpuPool,
        direct: bool,
    ) -> None:
        super().__init__("smb-exchange")
        self.env = env
        self.link = link
        transport_spec = RDMA_VERBS if direct else HOST_OS_TCP
        self.transport = StackLayer(env, transport_spec, host_pool)
        self.protocol = StackLayer(env, SMB_PROTOCOL, host_pool)
        self.osfs = OsFileSystem(env, filesystem, host_pool)
        self.credits = Resource(env, capacity=self.CREDITS)

    def serve(self, request: IoRequest) -> Generator:
        grant = self.credits.request()
        yield grant
        try:
            yield from self.link.transmit(
                "client_to_server", request.wire_size
            )
            yield self.env.now + self.link.spec.host_forward
            yield from self.transport.process(request.wire_size)
            yield from self.protocol.process(request.wire_size)
            response = yield from self.osfs.serve(request)
            yield from self.protocol.process(response.wire_size)
            yield from self.transport.process(response.wire_size)
            yield from self.link.transmit(
                "server_to_client", response.wire_size
            )
        finally:
            self.credits.release()
        return response
