"""Declarative deployment topology: *what* a solution is, not how to wire it.

A :class:`DeploymentSpec` names the axes the paper varies across its ten
charted solutions (Figure 16) and its ablations: which transport the
client speaks, which file path executes requests (OS filesystem vs. the
DDS file service), whether the DPU offload engine is in front, how many
DPU shards serve the namespace, and the zero-copy toggle.  The registry
(:mod:`repro.topology.registry`) turns a spec into a fully wired server.

Validation happens at construction so an impossible topology (e.g. the
OS file path on a DPU, or sharding without the offload director that
does the steering) fails loudly at spec time instead of producing a
half-wired simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["TransportKind", "FilesystemKind", "DeploymentSpec"]


class TransportKind(enum.Enum):
    """The client↔server transport a deployment uses."""

    #: No network at all — client and storage share the machine.
    NONE = "none"
    #: Kernel sockets TCP (the paper's Windows-sockets baseline).
    TCP = "tcp"
    #: RDMA verbs user-level transport.
    RDMA = "rdma"
    #: SMB remote mount over TCP.
    SMB = "smb"
    #: SMB Direct (SMB protocol over RDMA).
    SMB_DIRECT = "smb-direct"
    #: Redy-style RPC: RDMA verbs plus dedicated spin-polling cores.
    REDY = "redy"


class FilesystemKind(enum.Enum):
    """Which file path executes requests."""

    #: The host OS filesystem (kernel file path + serialized I/O section).
    OS = "os"
    #: The DDS file service on the DPU, reached via the file library.
    DDS = "dds"


@dataclass(frozen=True)
class DeploymentSpec:
    """One deployment, declaratively.

    Attributes
    ----------
    name:
        Registry key; also the string the bench harness accepts.
    summary:
        One-line description shown in docs and ``--list`` output.
    transport:
        Client↔server transport (``NONE`` for local deployments).
    filesystem:
        OS file path or DDS file service.
    offload:
        Put the traffic director + offload engine in front (§5-§6).
    dpu_count:
        Machine shape.  ``dpu_count > 1`` shards the namespace across
        DPUs with a consistent-hash shard map in each traffic director.
    copy_mode:
        Disable zero-copy (the Figure 18/23 ablations).
    headline:
        True for the ten solutions charted in Figure 16.
    """

    name: str
    summary: str
    transport: TransportKind
    filesystem: FilesystemKind
    offload: bool = False
    dpu_count: int = 0
    copy_mode: bool = False
    headline: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a deployment needs a name")
        if self.dpu_count < 0:
            raise ValueError("dpu_count must be non-negative")
        if self.filesystem is FilesystemKind.OS:
            if self.dpu_count != 0:
                raise ValueError(
                    f"{self.name}: the OS file path runs on the host; "
                    "dpu_count must be 0"
                )
            if self.copy_mode:
                raise ValueError(
                    f"{self.name}: copy_mode only applies to the DDS path"
                )
            if self.offload:
                raise ValueError(
                    f"{self.name}: offloading requires the DDS file service"
                )
        else:
            if self.dpu_count < 1:
                raise ValueError(
                    f"{self.name}: the DDS file service lives on a DPU; "
                    "dpu_count must be >= 1"
                )
        if self.offload:
            if self.transport not in (TransportKind.TCP, TransportKind.RDMA):
                raise ValueError(
                    f"{self.name}: the traffic director fronts TCP or RDMA "
                    "flows only"
                )
        else:
            if self.dpu_count > 1:
                raise ValueError(
                    f"{self.name}: multi-DPU sharding needs the offload "
                    "director to steer requests between shards"
                )
            if self.transport is TransportKind.RDMA:
                raise ValueError(
                    f"{self.name}: plain RDMA without offload is the Redy "
                    "deployment; use TransportKind.REDY"
                )
        if (
            self.transport in (TransportKind.SMB, TransportKind.SMB_DIRECT)
            and self.filesystem is not FilesystemKind.OS
        ):
            raise ValueError(
                f"{self.name}: the SMB server only mounts the OS file path"
            )
