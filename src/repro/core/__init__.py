"""DDS core: storage path, network path, offload engine, servers, client."""

from .._lazy import lazy_exports
from .api import OffloadCallbacks, ReadOp, WriteOp, passthrough_callbacks
from .dma_ring import DmaRingChannel, RingTransferModel, RingTransferResult
from .file_library import DdsFileLibrary, NotificationGroup, PollMode
from .file_service import DpuFileService
from .messages import IoRequest, IoResponse, OpCode
from .offload_engine import Context, ContextStatus, OffloadEngine
from .traffic_director import TrafficDirector

# The server and client modules are loaded lazily (PEP 562): the servers
# are built from repro.topology stages, and those stages import this
# package's leaf modules — eager imports here would close that loop.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "server": ("PipelineServer",),
    "client": ("ClientConfig", "ClientResult", "WorkloadClient", "DdsClient"),
    "retry": ("RetryPolicy", "CircuitBreaker"),
    "dedup": ("RequestDedup",),
})

__all__ = [
    "CircuitBreaker",
    "ClientConfig",
    "ClientResult",
    "Context",
    "ContextStatus",
    "DdsClient",
    "DdsFileLibrary",
    "DmaRingChannel",
    "DpuFileService",
    "IoRequest",
    "IoResponse",
    "NotificationGroup",
    "OffloadCallbacks",
    "OffloadEngine",
    "OpCode",
    "PipelineServer",
    "PollMode",
    "ReadOp",
    "RequestDedup",
    "RetryPolicy",
    "RingTransferModel",
    "RingTransferResult",
    "TrafficDirector",
    "WorkloadClient",
    "WriteOp",
    "passthrough_callbacks",
]
