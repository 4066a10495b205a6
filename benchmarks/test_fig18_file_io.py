"""Figure 18: DPU-backed file I/O throughput, zero-copy vs. copies (§8.5).

The storage path's zero-copy discipline (requests used in place,
responses pre-allocated, §4.3) against a design that pays memory copies
to accommodate asynchronous I/O, by request size.
"""

from _tables import INCREASING, Claim, above, bench, between, each, emit, kops

from repro.core import DdsFileLibrary, DpuFileService
from repro.hardware import DPU_CPU, HOST_CPU, CpuPool, DmaEngine
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev

SIZES = (1024, 4096, 16384, 65536)
OUTSTANDING = 96
TOTAL_OPS = 2500


def _gains(results):
    return [zero / copies for zero, copies in results.values()]


CLAIMS = (
    Claim("fig18", "zero-copy / copy IOPS, per size", "zero-copy wins", _gains, each(above(1.25))),
    Claim("fig18", "largest zero-copy gain", "up to +93%",
          lambda r: max(_gains(r)), between(1.5, 2.8)),
    Claim("fig18", "gain at 1 KiB, largest gain", "gap widens with request size",
          lambda r: [_gains(r)[SIZES.index(1024)], max(_gains(r))], INCREASING),
)


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
        rows, CLAIMS, results,
    )
    return results


test_fig18_file_io = bench(run_figure)
