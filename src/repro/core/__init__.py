"""DDS core: storage path, network path, offload engine, servers, client."""

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
_LAZY = {
    "PipelineServer": "server",
    "ClientConfig": "client",
    "ClientResult": "client",
    "WorkloadClient": "client",
    "DdsClient": "client",
    "RetryPolicy": "retry",
    "CircuitBreaker": "retry",
    "RequestDedup": "dedup",
}

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


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
