"""The one owner of the repo's keyed digest: ``blake2b``.

Ingress RSS (``net/packet.py``), the filesystem's metadata checksums
(``storage/filesystem.py``), replica state digests
(``topology/replication.py``) and the scenario kit's cluster digest
(``bench/harness.py``) all hash with BLAKE2b.  CPython ships its own
``_blake2`` module and ``hashlib.blake2b`` is bound only from it, never
from OpenSSL (``hashlib.blake2b is _blake2.blake2b``).  Importing it
from ``_blake2`` gives the same object, so the same bytes, without
``import hashlib`` also mapping OpenSSL's libcrypto (about 3.5 MiB
resident) for an algorithm that never calls it.
"""

from _blake2 import blake2b  # type: ignore

__all__ = ["blake2b"]
