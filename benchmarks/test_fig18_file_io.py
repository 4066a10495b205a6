"""Figure 18: DPU-backed file I/O throughput, zero-copy vs. copies (§8.5).

Paper: the storage path's zero-copy discipline (requests used in place,
responses pre-allocated, §4.3) increases host-issued file throughput by
up to 93% over a design that pays memory copies to accommodate
asynchronous I/O; the gap widens with request size.
"""

from _tables import emit, kops

from repro.core import DdsFileLibrary, DpuFileService
from repro.hardware import DPU_CPU, HOST_CPU, CpuPool, DmaEngine
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev

SIZES = (1024, 4096, 16384, 65536)
OUTSTANDING = 96
TOTAL_OPS = 2500


def measure(size: int, copy_mode: bool) -> float:
    """Host-issued read IOPS at one request size."""
    env = Environment()
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(96 << 20)))
    fs.create_directory("d")
    fid = fs.create_file("d", "f")
    fs.preallocate(fid, 64 << 20)
    service = DpuFileService(
        env,
        fs,
        CpuPool(env, speed=DPU_CPU.speed),
        CpuPool(env, speed=DPU_CPU.speed),
        copy_mode=copy_mode,
    )
    library = DdsFileLibrary(
        env, CpuPool(env, HOST_CPU), service, DmaEngine(env)
    )
    service.start()
    group = library.create_poll()
    library.poll_add(group, fid)
    slots = (64 << 20) // size

    def issuer():
        import random

        rng = random.Random(7)
        for i in range(TOTAL_OPS):
            offset = rng.randrange(slots) * size
            yield from library.read_file(fid, offset, size)

    def poller():
        for _ in range(TOTAL_OPS):
            yield from library.poll_wait(group)

    def throttled_issuer():
        # Keep a bounded window so queueing stays realistic.
        import random

        rng = random.Random(7)
        issued = 0
        while issued < TOTAL_OPS:
            in_flight = library.operations_issued - library.completions_polled
            if in_flight >= OUTSTANDING:
                yield env.timeout(2e-6)
                continue
            offset = rng.randrange(slots) * size
            yield from library.read_file(fid, offset, size)
            issued += 1

    env.process(throttled_issuer())
    done = env.process(poller())
    env.run(until=done)
    return TOTAL_OPS / env.now


def run_figure():
    results = {}
    rows = []
    for size in SIZES:
        zero_copy = measure(size, copy_mode=False)
        with_copies = measure(size, copy_mode=True)
        results[size] = (zero_copy, with_copies)
        rows.append(
            (
                size,
                kops(zero_copy),
                kops(with_copies),
                f"+{(zero_copy / with_copies - 1) * 100:.0f}%",
            )
        )
    emit(
        "fig18",
        "DPU-backed file reads: zero-copy vs copy throughput",
        ("request bytes", "zero-copy", "with copies", "gain"),
        rows,
    )
    return results


def test_fig18_file_io(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    gains = {
        size: zero / copies for size, (zero, copies) in results.items()
    }
    # Zero-copy always wins meaningfully...
    for size in SIZES:
        assert gains[size] > 1.25, size
    # ...with the largest gain at a copy-dominated mid size (the paper's
    # "up to 93%"); at 64 KiB both paths converge on device bandwidth.
    peak = max(gains.values())
    assert 1.5 < peak < 2.8
    assert peak > gains[1024]
