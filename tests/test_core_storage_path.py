"""Integration tests for the unified storage path (§4).

Host file library -> DMA ring channel -> DPU file service -> SPDK ->
filesystem, and responses back.  Real bytes travel the whole path.
"""

import pytest

from repro.core import DdsFileLibrary, DpuFileService, PollMode
from repro.hardware import DPU_CPU, HOST_CPU, CpuPool, DmaEngine
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev

from .conftest import run


def make_stack(copy_mode=False):
    env = Environment()
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(32 << 20)), segment_size=1 << 16)
    dma = DmaEngine(env)
    dma_core = CpuPool(env, speed=DPU_CPU.speed)
    spdk_core = CpuPool(env, speed=DPU_CPU.speed)
    service = DpuFileService(env, fs, dma_core, spdk_core, copy_mode=copy_mode)
    host = CpuPool(env, HOST_CPU)
    library = DdsFileLibrary(env, host, service, dma)
    service.start()
    return env, fs, service, library, host


class TestLibraryNamespace:
    def test_create_directory_and_file(self):
        env, fs, _svc, library, _host = make_stack()

        def main():
            yield from library.create_directory("data")
            fid = yield from library.create_file("data", "pages")
            return fid

        fid = run(env, main())
        assert fs.file_size(fid) == 0

    def test_poll_add_requires_unique_group(self):
        env, fs, _svc, library, _host = make_stack()

        def main():
            yield from library.create_directory("d")
            return (yield from library.create_file("d", "f"))

        fid = run(env, main())
        g1, g2 = library.create_poll(), library.create_poll()
        library.poll_add(g1, fid)
        with pytest.raises(ValueError):
            library.poll_add(g2, fid)

    def test_io_without_group_rejected(self):
        env, fs, _svc, library, _host = make_stack()

        def main():
            yield from library.create_directory("d")
            fid = yield from library.create_file("d", "f")
            yield from library.read_file(fid, 0, 10)

        with pytest.raises(ValueError, match="notification group"):
            run(env, main())


class TestEndToEndIo:
    def _file_with_group(self, library):
        def setup():
            yield from library.create_directory("d")
            fid = yield from library.create_file("d", "f")
            group = library.create_poll()
            library.poll_add(group, fid)
            return fid, group

        return setup()

    def test_write_then_read_roundtrip(self):
        env, fs, service, library, _host = make_stack()

        def main():
            fid, group = yield from self._file_with_group(library)
            write_id = yield from library.write_file(fid, 0, b"hello dpu")
            rid, ok, _data = yield from library.poll_wait(group)
            assert rid == write_id and ok
            read_id = yield from library.read_file(fid, 0, 9)
            rid, ok, data = yield from library.poll_wait(group)
            assert rid == read_id and ok
            return data

        assert run(env, main()) == b"hello dpu"
        _env = env

    def test_read_error_propagates(self):
        env, _fs, service, library, _host = make_stack()

        def main():
            fid, group = yield from self._file_with_group(library)
            yield from library.read_file(fid, 0, 100)  # beyond EOF
            _rid, ok, data = yield from library.poll_wait(group)
            return ok, data

        ok, data = run(env, main())
        assert not ok and data is None
        assert service.request_errors == 1

    def test_many_concurrent_operations_complete(self):
        env, _fs, service, library, host = make_stack()
        count = 60

        def issuer(fid, group):
            for i in range(count):
                yield from library.write_file(
                    fid, i * 64, f"chunk-{i:04d}".encode().ljust(64, b".")
                )

        def main():
            fid, group = yield from self._file_with_group(library)
            env.process(issuer(fid, group))
            completed = 0
            while completed < count:
                _rid, ok, _data = yield from library.poll_wait(group)
                assert ok
                completed += 1
            data = yield from library.read_file(fid, 5 * 64, 10)
            _rid, ok, data = yield from library.poll_wait(group)
            return data

        assert run(env, main()) == b"chunk-0005"
        assert service.requests_executed == count + 1

    def test_gather_write_and_scatter_read(self):
        env, _fs, _svc, library, _host = make_stack()

        def main():
            fid, group = yield from self._file_with_group(library)
            yield from library.write_gather(
                fid, 0, [b"aaaa", b"bb", b"cccccc"]
            )
            yield from library.poll_wait(group)
            yield from library.read_scatter(fid, 0, [4, 2, 6])
            _rid, ok, chunks = yield from library.poll_wait(group)
            assert ok
            return chunks

        assert run(env, main()) == [b"aaaa", b"bb", b"cccccc"]

    def test_nonblocking_poll_returns_none_when_idle(self):
        env, _fs, _svc, library, _host = make_stack()

        def main():
            fid, group = yield from self._file_with_group(library)
            result = yield from library.poll_wait(
                group, PollMode.NON_BLOCKING
            )
            return result

        assert run(env, main()) is None

    def test_unknown_poll_mode_rejected(self):
        env, _fs, _svc, library, _host = make_stack()

        def main():
            fid, group = yield from self._file_with_group(library)
            yield from library.poll_wait(group, "bogus")

        with pytest.raises(ValueError, match="poll mode"):
            run(env, main())

    def test_copy_mode_is_slower(self):
        def elapsed(copy_mode):
            env, _fs, _svc, library, _host = make_stack(copy_mode)

            def main():
                yield from library.create_directory("d")
                fid = yield from library.create_file("d", "f")
                group = library.create_poll()
                library.poll_add(group, fid)
                for i in range(20):
                    yield from library.write_file(fid, i * 8192, bytes(8192))
                for _ in range(20):
                    yield from library.poll_wait(group)

            run(env, main())
            return env.now

        assert elapsed(True) > elapsed(False)

    def test_host_cpu_cost_is_small(self):
        """§4.2: the library is thin — issuing and polling costs ~1 us."""
        env, _fs, _svc, library, host = make_stack()

        def main():
            fid, group = yield from self._file_with_group(library)
            for i in range(50):
                yield from library.write_file(fid, i * 16, b"0123456789abcdef")
            for _ in range(50):
                yield from library.poll_wait(group)

        run(env, main())
        per_op = host.busy_time / 50
        assert per_op < 3e-6  # well under the OS filesystem's ~15 us
