"""Network substrate: packets, TCP, TCP-splitting PEP, stack cost models."""

from .._lazy import lazy_exports
from .packet import WILDCARD, AppSignature, FiveTuple, Segment
from .stack import StackLayer

# The TCP model and the PEP are §5.2's own experiments; no server path
# imports them, so they load on first use (PEP 562).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "tcp": ("MSS", "TcpReceiver", "TcpSender", "TcpStats"),
    "pep": ("LengthPrefixFramer", "NaiveOffloadPath", "TcpSplittingPep"),
})

__all__ = [
    "AppSignature",
    "FiveTuple",
    "LengthPrefixFramer",
    "MSS",
    "NaiveOffloadPath",
    "Segment",
    "StackLayer",
    "TcpReceiver",
    "TcpSender",
    "TcpSplittingPep",
    "TcpStats",
    "WILDCARD",
]
