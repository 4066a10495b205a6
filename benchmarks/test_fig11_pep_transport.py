"""Figure 11 (§5.2): partial offloading vs. TCP's end-to-end semantics.

If the DPU silently consumes offloaded packets, the host's TCP sees
sequence gaps and duplicate ACKs and the client resends what the DPU
already served.  DDS's traffic director is a TCP-splitting
performance-enhancing proxy instead; both paths run on the real TCP
state machines here.
"""

from _tables import Claim, above, at_least, bench, emit, equals

from repro.net import (
    LengthPrefixFramer,
    NaiveOffloadPath,
    TcpReceiver,
    TcpSender,
    TcpSplittingPep,
)

MESSAGES = 60
MESSAGE_BYTES = 600

NAIVE = "dup ACKs -> client resends offloaded data"
CLAIMS = (
    Claim("fig11", "naive: host dup ACKs", NAIVE,
          lambda r: r["naive host"].dup_acks_sent, at_least(3)),
    Claim("fig11", "naive: segments resent", NAIVE, lambda r: r["naive"].retransmissions, above(0)),
    Claim("fig11", "pep: segments resent", "transport transparency",
          lambda r: r["pep"].retransmissions, equals(0)),
    Claim("fig11", "pep: fast retransmits", "transport transparency",
          lambda r: r["pep"].fast_retransmits, equals(0)),
    Claim("fig11", "pep: host dup ACKs", "transport transparency",
          lambda r: r["pep host"].dup_acks_sent, equals(0)),
    Claim("fig11", "pep: messages offloaded + forwarded", "every message",
          lambda r: len(r["split"].offloaded) + len(r["split"].forwarded), equals(MESSAGES)),
)


def _client():
    sender = TcpSender(initial_cwnd=64)
    messages = [bytes([65 + i % 26]) * MESSAGE_BYTES for i in range(MESSAGES)]
    for message in messages:
        sender.write(LengthPrefixFramer.encode(message))
    return sender, messages


def run_naive():
    """Every other segment is consumed by the DPU, un-proxied."""
    sender, _messages = _client()
    segments = sender.transmit()
    offloaded = {s.seq for i, s in enumerate(segments) if i % 2 == 1}
    path = NaiveOffloadPath(lambda s: s.seq in offloaded)
    for _round in range(60):
        progress = False
        for segment in segments:
            ack = path.on_client_segment(segment)
            if ack is None:
                continue
            retransmits = sender.on_ack(ack.ack)
            if retransmits:
                progress = True
                segments = retransmits
                break
        else:
            segments = sender.transmit()
            progress = bool(segments)
        if not progress:
            break
    return sender, path


def run_pep():
    """The same split, through the TCP-splitting PEP."""
    sender, _messages = _client()
    toggle = [0]

    def off_pred(_message):
        toggle[0] += 1
        return toggle[0] % 2 == 1

    pep = TcpSplittingPep(off_pred)
    host = TcpReceiver()
    for _round in range(200):
        segments = sender.transmit()
        if not segments and sender.bytes_in_flight == 0:
            break
        for segment in segments:
            ack, host_segments = pep.on_client_segment(segment)
            sender.on_ack(ack.ack)
            for host_segment in host_segments:
                pep.on_host_ack(host.on_segment(host_segment))
    return sender, pep, host


def run_figure():
    naive_sender, naive_path = run_naive()
    pep_sender, pep, host = run_pep()
    results = {
        "naive": naive_sender.stats, "naive host": naive_path.host_receiver.stats,
        "pep": pep_sender.stats, "pep host": host.stats, "split": pep,
    }
    rows = [
        (
            "naive-offload",
            naive_path.host_receiver.stats.dup_acks_sent,
            naive_sender.stats.fast_retransmits,
            naive_sender.stats.retransmissions,
        ),
        (
            "dds-pep",
            host.stats.dup_acks_sent,
            pep_sender.stats.fast_retransmits,
            pep_sender.stats.retransmissions,
        ),
    ]
    emit(
        "fig11",
        "transport behaviour under partial offloading",
        ("path", "dup ACKs", "fast rtx events", "segments resent"),
        rows, CLAIMS, results,
    )
    return results


test_fig11_pep_transport = bench(run_figure)
