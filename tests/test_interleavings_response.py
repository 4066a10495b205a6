"""Interleaving + property tests for the three-tail response buffer (§4.3).

The interleaving scenario runs allocate / complete / harvest / deliver as
separate logical threads and checks ``TailC <= TailB <= TailA`` (plus
monotonicity and capacity bounds) at every schedule point.  The
hypothesis suite drives arbitrary operation sequences — including
``force=True`` flushes — against the invariants, and pins down that
``mark_delivered`` rejects out-of-order batches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import (
    ExplorationFailure,
    Scenario,
    explore_bounded,
    explore_random,
)
from repro.concurrency.hooks import yield_point
from repro.concurrency.invariants import ResponseBufferChecker
from repro.structures import ResponseBuffer, ResponseStatus


# ----------------------------------------------------------------------
# interleaving scenario
# ----------------------------------------------------------------------
def _response_scenario(request_count=3, delivery_batch=40):
    def build():
        buffer = ResponseBuffer(4096, delivery_batch=delivery_batch)
        checker = ResponseBufferChecker(buffer)
        allocated = []
        delivered = []

        def allocator():
            for request_id in range(request_count):
                response = buffer.allocate(request_id, 16 + 8 * request_id)
                assert response is not None  # capacity sized generously
                allocated.append(response)

        def completer():
            done = 0
            for _attempt in range(request_count * 6):
                if done == request_count:
                    break
                for response in list(allocated):
                    if response.status is ResponseStatus.PENDING:
                        response.complete(
                            ResponseStatus.SUCCESS, b"x" * (response.size - 16)
                        )
                        done += 1

        def harvester():
            for _poll in range(6):
                buffer.harvest()
                batch = buffer.take_delivery()
                if batch:
                    buffer.mark_delivered(batch)
                    delivered.extend(batch)

        def on_done():
            # Finish everything from the (uncontrolled) main thread, then
            # the terminal state must be fully drained and ordered.
            for response in allocated:
                if response.status is ResponseStatus.PENDING:
                    response.complete(ResponseStatus.SUCCESS, b"")
            buffer.harvest()
            batch = buffer.take_delivery(force=True)
            buffer.mark_delivered(batch)
            delivered.extend(batch)
            checker.finish()
            assert buffer.tail_completed == buffer.tail_buffered
            assert buffer.tail_buffered == buffer.tail_allocated
            assert [r.request_id for r in delivered] == list(
                range(request_count)
            )

        tasks = [
            ("alloc", allocator),
            ("complete", completer),
            ("harvest", harvester),
        ]
        return (tasks, checker.check, on_done)

    return Scenario("response-buffer", build)


def test_response_buffer_thousand_random_schedules():
    stats = explore_random(_response_scenario(), schedules=1000)
    assert stats.schedules == 1000


def test_response_buffer_small_delivery_batch_schedules():
    # delivery_batch=1: every harvested span is immediately deliverable,
    # maximizing TailB/TailC movement against concurrent allocation.
    stats = explore_random(
        _response_scenario(delivery_batch=1), schedules=400
    )
    assert stats.schedules == 400


def test_response_buffer_bounded_exploration():
    stats = explore_bounded(
        _response_scenario(request_count=2),
        preemption_bound=2,
        max_schedules=300,
    )
    assert stats.schedules > 0


# ----------------------------------------------------------------------
# take_delivery lost-response regression (found by ddslint, PR 4)
# ----------------------------------------------------------------------
class _BuggySnapshotBuffer(ResponseBuffer):
    """``take_delivery`` as originally shipped: snapshot, then clear.

    ddslint flagged the compound (DDS102 on ``_buffered``, and DDS201:
    no schedule point between the two halves, so the PR 2 harness could
    never interleave there).  A ``harvest`` landing between
    ``list(self._buffered)`` and ``.clear()`` has its responses wiped
    without ever being returned: they are never delivered, and TailC can
    never catch TailB.  The shipped fix drains with ``popleft`` so only
    returned responses leave the deque.
    """

    def take_delivery(self, force=False):
        if not force and not self.should_deliver():
            return []
        yield_point("resp.deliver", ("resp", id(self), "buffered"))
        batch = list(self._buffered)
        yield_point("resp.deliver", ("resp", id(self), "buffered"))
        self._buffered.clear()
        return batch


def _snapshot_scenario(buffer_cls, request_count=4):
    def build():
        buffer = buffer_cls(4096, delivery_batch=1)
        for request_id in range(request_count):
            response = buffer.allocate(request_id, 24)
            assert response is not None
            response.complete(ResponseStatus.SUCCESS, b"d" * 24)
        delivered = []

        def harvester():
            for _poll in range(request_count):
                buffer.harvest()

        def deliverer():
            for _poll in range(request_count):
                delivered.extend(buffer.take_delivery(force=True))

        def on_done():
            buffer.harvest()
            delivered.extend(buffer.take_delivery(force=True))
            assert sorted(r.request_id for r in delivered) == list(
                range(request_count)
            ), "a buffered response was discarded without delivery"

        tasks = [("harvest", harvester), ("deliver", deliverer)]
        return (tasks, lambda _record=None: None, on_done)

    return Scenario("response-snapshot-delivery", build)


def test_snapshot_take_delivery_loses_responses_fail_before():
    with pytest.raises(ExplorationFailure):
        explore_random(
            _snapshot_scenario(_BuggySnapshotBuffer), schedules=400
        )


def test_popleft_take_delivery_survives_same_schedules_pass_after():
    stats = explore_random(_snapshot_scenario(ResponseBuffer), schedules=400)
    assert stats.schedules == 400


# ----------------------------------------------------------------------
# one harvester: the file service's two cores against one buffer
# ----------------------------------------------------------------------
# ``_DDSLINT_EXEMPT`` justifies ``tail_buffered`` and ``_pending`` by
# the DMA thread being *the* harvester.  ``harvest`` is check-then-pop:
# with a second harvester, the head both saw completed is popped by one
# of them and the other pops its successor, completed or not.  The SPDK
# worker's back-pressure loop used to be that second harvester.
def _drive(generator):
    """Run a simulation generator with every wait granted at once."""
    try:
        generator.send(None)
        while True:
            generator.send(None)
    except StopIteration:
        pass


def _file_service_scenario(stray_harvester):
    from repro.core import DmaRingChannel, DpuFileService, IoRequest, OpCode
    from repro.hardware import CpuPool, DmaEngine
    from repro.sim import Environment

    def build():
        env = Environment()
        service = DpuFileService(env, None, CpuPool(env), CpuPool(env))
        # Room for two 40-byte responses: the third waits for a delivery.
        service.RESPONSE_BUFFER_BYTES = 96
        service.DELIVERY_BATCH_BYTES = 1
        channel = DmaRingChannel(env, DmaEngine(env))
        service.register_channel(channel)
        buffer = service._response_buffers[id(channel)]
        in_flight = [buffer.allocate(request_id, 24) for request_id in (1, 2)]
        delivered = []
        mark_delivered = buffer.mark_delivered
        buffer.mark_delivered = lambda batch: (
            delivered.extend(batch), mark_delivered(batch)
        )

        def completer():  # the I/O completions, in submission order
            for response in in_flight:
                response.complete(ResponseStatus.SUCCESS, b"d" * 24)

        def dma_thread():  # the delivery half of its polling cycle
            for _cycle in range(4):
                _drive(service._deliver(channel, force=True))

        def spdk_worker():  # one request through the real intake loop
            worker = service._spdk_worker()
            worker.send(None)  # parked on the I/O queue
            request = IoRequest(OpCode.READ, 3, 1, 0, 24)
            before = buffer.tail_allocated
            worker.send((channel, request))
            for _retry in range(6):  # the back-pressure loop, bounded
                if buffer.tail_allocated != before:
                    break
                worker.send(None)
            worker.close()

        def stray():
            for _poll in range(4):
                buffer.harvest()

        def check(_record=None):
            buffer.check_invariants()
            for response in list(buffer._buffered) + delivered:
                assert response.status is not ResponseStatus.PENDING, (
                    f"response {response.request_id} passed TailB "
                    "before its I/O completed"
                )

        tasks = [
            ("complete", completer),
            ("dma", dma_thread),
            ("stray" if stray_harvester else "spdk",
             stray if stray_harvester else spdk_worker),
        ]
        return (tasks, check, check)

    return Scenario("file-service-harvesters", build)


def test_a_second_harvester_races_the_first():
    # Seen as a PENDING response behind TailB or a pop from an emptied
    # queue, depending on the schedule.
    with pytest.raises(ExplorationFailure):
        explore_random(_file_service_scenario(True), schedules=400)


def test_file_service_cores_leave_harvesting_to_the_dma_thread():
    stats = explore_random(_file_service_scenario(False), schedules=400)
    assert stats.schedules == 400


# ----------------------------------------------------------------------
# hypothesis property tests (satellite)
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=6),
    swap=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mark_delivered_rejects_out_of_order_batches(sizes, swap):
    buffer = ResponseBuffer(4096, delivery_batch=1)
    responses = []
    for request_id, size in enumerate(sizes):
        response = buffer.allocate(request_id, size)
        response.complete(ResponseStatus.SUCCESS, b"d" * size)
        responses.append(response)
    buffer.harvest()
    batch = buffer.take_delivery(force=True)
    assert [r.request_id for r in batch] == list(range(len(sizes)))
    # Any reordering or hole at the front must be rejected.
    first = swap.draw(st.integers(min_value=1, max_value=len(batch) - 1))
    shuffled = [batch[first]] + [r for r in batch if r is not batch[first]]
    with pytest.raises(RuntimeError, match="out of order"):
        buffer.mark_delivered(shuffled)


def test_mark_delivered_accepts_in_order_and_advances_tailc():
    buffer = ResponseBuffer(1024, delivery_batch=1)
    for request_id in range(3):
        buffer.allocate(request_id, 8).complete(ResponseStatus.SUCCESS, b"a" * 8)
    buffer.harvest()
    batch = buffer.take_delivery(force=True)
    buffer.mark_delivered(batch)
    assert buffer.tail_completed == buffer.tail_buffered == buffer.tail_allocated


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(min_value=0, max_value=48)),
        st.tuples(st.just("complete"), st.integers(min_value=0, max_value=64)),
        st.tuples(st.just("harvest"), st.just(0)),
        st.tuples(st.just("deliver"), st.booleans()),
    ),
    max_size=80,
)


@given(ops=_OPS)
@settings(max_examples=120, deadline=None)
def test_invariants_hold_across_arbitrary_operation_sequences(ops):
    """check_invariants holds after every op, including force flushes."""
    buffer = ResponseBuffer(512, delivery_batch=32)
    pending = []  # allocated, not yet completed
    delivered_ids = []
    next_id = 0
    for op, arg in ops:
        if op == "allocate":
            response = buffer.allocate(next_id, arg)
            if response is not None:
                pending.append(response)
                next_id += 1
        elif op == "complete":
            if pending:
                response = pending.pop(arg % len(pending))
                status = (
                    ResponseStatus.SUCCESS
                    if arg % 3
                    else ResponseStatus.IO_ERROR
                )
                payload = b"p" * (response.size - buffer.HEADER_BYTES)
                response.complete(status, payload)
        elif op == "harvest":
            buffer.harvest()
        else:  # deliver
            buffer.harvest()
            batch = buffer.take_delivery(force=arg)
            buffer.mark_delivered(batch)
            delivered_ids.extend(r.request_id for r in batch)
        buffer.check_invariants()
        assert buffer.deliverable_bytes >= 0
    # Delivery preserved request order over everything delivered.
    assert delivered_ids == sorted(delivered_ids)
