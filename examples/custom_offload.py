#!/usr/bin/env python
"""Writing your own offload plan with the Table 1 API (§6.1).

DDS offloading is customized with four functions.  This example builds a
small content-addressed blob store: clients GET blobs by a 64-bit id,
the host PUTs blobs wherever it likes, and cache-on-write keeps the DPU
able to serve every GET for a blob the host has persisted — including
after overwrites, thanks to invalidate-on-read plus re-caching.

Run:  python examples/custom_offload.py
"""

from typing import List, Optional, Sequence, Tuple

from repro.core import IoRequest, OffloadCallbacks, OpCode, ReadOp, WriteOp
from repro.hardware import NetworkLink
from repro.net import FiveTuple
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.topology.registry import build_server

BLOB_BYTES = 512


def blob_callbacks() -> OffloadCallbacks:
    """Offload plan: key = blob id (the request's tag field)."""

    def cache(write_op: WriteOp) -> List[Tuple[int, tuple]]:
        # The host prefixes each blob with its 8-byte id; cache the
        # location of every blob contained in the write.
        payload = write_op.context or b""
        items = []
        for start in range(0, len(payload) - BLOB_BYTES + 1, BLOB_BYTES):
            blob_id = int.from_bytes(payload[start : start + 8], "little")
            items.append(
                (blob_id, (write_op.file_id, write_op.offset + start))
            )
        return items

    def invalidate(read_op: ReadOp) -> List[int]:
        return []  # GET-only remote workload: nothing to invalidate

    def off_pred(
        requests: Sequence[IoRequest], table
    ) -> Tuple[List[IoRequest], List[IoRequest]]:
        host, dpu = [], []
        for request in requests:
            if request.op is OpCode.READ and request.tag in table:
                dpu.append(request)
            else:
                host.append(request)
        return host, dpu

    def off_func(request: IoRequest, table) -> Optional[ReadOp]:
        entry = table.lookup(request.tag)
        if entry is None:
            return None
        file_id, offset = entry
        return ReadOp(file_id, offset, BLOB_BYTES)

    return OffloadCallbacks(off_pred, off_func, cache, invalidate)


def make_blob(blob_id: int, fill: int) -> bytes:
    return blob_id.to_bytes(8, "little") + bytes([fill]) * (BLOB_BYTES - 8)


def main() -> None:
    env = Environment()
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(32 << 20)))
    fs.create_directory("blobs")
    file_id = fs.create_file("blobs", "store")
    server = build_server(
        "dds-offload", env, NetworkLink(env), fs, callbacks=blob_callbacks()
    )
    dpu = server.shards[0]
    flow = FiveTuple("10.0.0.9", 999, "10.0.0.1", 5000)

    def roundtrip(requests):
        responses = []
        done = server.submit(flow, requests, responses.append)
        env.run(until=done)
        return responses

    # 1. PUT three blobs (writes run on the host; cache-on-write fires
    #    in the DPU file service as they are persisted).
    puts = [
        IoRequest(
            OpCode.WRITE, i, file_id, i * BLOB_BYTES, BLOB_BYTES,
            make_blob(1000 + i, fill=i),
        )
        for i in range(3)
    ]
    assert all(r.ok for r in roundtrip(puts))
    print(f"PUT 3 blobs; cache table now holds {len(dpu.cache_table)}")

    # 2. GET them by id — all served by the DPU.
    gets = [
        IoRequest(OpCode.READ, 10 + i, file_id, 0, BLOB_BYTES, tag=1000 + i)
        for i in range(3)
    ]
    responses = roundtrip(gets)
    for response in sorted(responses, key=lambda r: r.request_id):
        blob_id = int.from_bytes(response.data[:8], "little")
        print(f"GET blob {blob_id}: fill byte {response.data[8]}")
    print(
        f"offloaded={dpu.director.requests_offloaded} "
        f"to_host={dpu.director.requests_to_host}"
    )

    # 3. A GET for an unknown id falls through to the host (which
    #    reports it missing in this toy store).
    missing = IoRequest(OpCode.READ, 99, file_id, 0, BLOB_BYTES, tag=4242)
    try:
        roundtrip([missing])
    except Exception:
        pass
    print(
        "unknown blob id -> host path "
        f"(to_host now {dpu.director.requests_to_host})"
    )


if __name__ == "__main__":
    main()
