"""Lazy package façades (PEP 562): a submodule loads on first use.

A package ``__init__`` re-exports its public names, but importing a
submodule that nothing on a run's path executes still costs every
process its compile, its objects and whatever it imports in turn.  A
package lists such names here instead::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "scheduler": ("InterleavingScheduler", "RandomStrategy"),
    })

``from package import InterleavingScheduler`` then imports
``package.scheduler`` the first time it runs and caches the name in the
package, so later lookups are plain global reads.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    namespace: Dict[str, Any],
    lazy: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package with lazy names.

    ``lazy`` maps a submodule (relative to ``package``) to the names it
    exports; ``namespace`` is the package's ``globals()``.
    """
    owner = {name: module for module, names in lazy.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
