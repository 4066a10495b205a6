"""ddslint fixture: imports nothing in the module uses (DDS601)."""

from __future__ import annotations

import os
import struct as packer
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, List, Optional

import xml.dom

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

__all__ = ["deque", "first"]


def first(items: List[int], scale: "Decimal") -> "Optional[int]":
    # Mentioning OrderedDict in a comment or a plain string is not a use.
    label = "OrderedDict"
    return items[0] if items and label else None
