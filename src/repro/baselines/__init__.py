"""Comparison-system stages for Figure 16's ten-solution study (§8.4)."""

from .redy import RedyTransport
from .smb import SMB_PROTOCOL, SmbExchange

__all__ = ["RedyTransport", "SMB_PROTOCOL", "SmbExchange"]
