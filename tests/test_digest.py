"""``repro.digest.blake2b``: the same digest ``hashlib`` gives, without it."""

import hashlib

from hypothesis import given, strategies as st

from repro.digest import blake2b

payloads = st.binary(max_size=512)
sizes = st.sampled_from((8, 16))


@given(payloads, sizes)
def test_digest_and_hexdigest_match_hashlib(payload, size):
    ours = blake2b(payload, digest_size=size)
    theirs = hashlib.blake2b(payload, digest_size=size)
    assert ours.digest() == theirs.digest()
    assert ours.hexdigest() == theirs.hexdigest()


@given(st.lists(payloads, max_size=6), sizes)
def test_chained_updates_match_hashlib(chunks, size):
    ours = blake2b(digest_size=size)
    theirs = hashlib.blake2b(digest_size=size)
    for chunk in chunks:
        ours.update(chunk)
        theirs.update(chunk)
    assert ours.digest() == theirs.digest() == hashlib.blake2b(
        b"".join(chunks), digest_size=size
    ).digest()


def test_on_cpython_it_is_hashlibs_constructor():
    assert blake2b is hashlib.blake2b

