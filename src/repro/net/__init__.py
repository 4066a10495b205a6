"""Network substrate: packets, TCP, TCP-splitting PEP, stack cost models."""

from .packet import WILDCARD, AppSignature, FiveTuple, Segment
from .pep import LengthPrefixFramer, NaiveOffloadPath, TcpSplittingPep
from .stack import StackLayer
from .tcp import MSS, TcpReceiver, TcpSender, TcpStats

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
