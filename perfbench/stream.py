"""stream_hetero and stream_homo_lend: a publisher process streaming
bursts to one forked subscriber process over a real link.

The generator (publisher) sends burst ``k`` with
``PbioConnection.send_batch_native`` — one call per same-type run — as
long as fewer than :data:`WINDOW` bursts are unacknowledged (a closed
loop with one client and one connection).  The peer (subscriber)
receives with ``recv_batch``, checks every record against the reference
and, once the last record of a burst is checked, acknowledges it over a
side channel with its ``CLOCK_MONOTONIC`` time, so a burst's latency is
"send started" to "last record verified" across the two processes.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from repro.abi import SPARC_V8, X86, MachineDescription, layout_record
from repro.core import IOContext
from repro.core.connection import PbioConnection
from repro.net import sockets
from repro.net.shm import auto_connect
from repro.net.sockets import SocketTransport
from repro.net.transport import TransportError

from . import harness
from .instrument import Instrument, counters

#: bursts in flight before the publisher waits for an acknowledgement.
#: With 2, the subscriber ran dry whenever an acknowledgement's wake-up
#: was slow, and the rate varied by a third between runs; with 8 it
#: always has a burst queued.
WINDOW = 8
LINK_TIMEOUT_S = 60.0
ACK_TIMEOUT_S = 30.0
#: ring size per direction: a window of 100 KB-record bursts fits
RING_CAPACITY = 8 << 20
#: bursts between moves of both processes to the next CPU (harness.Placement)
ROTATE_BURSTS = 64
#: bursts per block of the measured window (harness.Meter)
BLOCK_UNITS = 2 * ROTATE_BURSTS


@dataclass(frozen=True)
class StreamConfig:
    sender: MachineDescription
    receiver: MachineDescription
    #: same-host zero-copy path: the link is upgraded to the shm ring and
    #: the subscriber receives lent views (``recv_batch(lend=True)``)
    #: instead of dicts
    zero_copy: bool


HETERO = StreamConfig(SPARC_V8, X86, zero_copy=False)
HOMO_LEND = StreamConfig(X86, X86, zero_copy=True)


def _peer(inp, cfg: StreamConfig, port: int, ctl: socket.socket, traced: bool) -> None:
    sock = socket.create_connection(("127.0.0.1", port), timeout=LINK_TIMEOUT_S)
    link = SocketTransport(sock)
    link.set_timeout(LINK_TIMEOUT_S)
    if cfg.zero_copy:
        link = auto_connect(link, "client", timeout_s=LINK_TIMEOUT_S)
        link.set_timeout(LINK_TIMEOUT_S)
    ctx = IOContext(cfg.receiver)
    layouts = [layout_record(s, cfg.receiver) for s in inp.schemas]
    for schema in inp.schemas:
        ctx.expect(schema)
    oracles = inp.oracles[("view" if cfg.zero_copy else "dict", cfg.receiver.name)]
    conn = PbioConnection(ctx, link)
    inst = Instrument() if traced else None
    if inst:
        inst.transport(link)
        inst.context(ctx, decode_layouts=layouts)
        inst.connection(conn)

    state = {"unit": 0, "pos": 0, "ok": 0, "bad": 0}
    expected = [inp.unit(0)]

    def consume(batch) -> None:
        for record in batch:
            t, i = expected[0][state["pos"]]
            if oracles[t].check(i, record):
                state["ok"] += 1
            else:
                state["bad"] += 1
            state["pos"] += 1
            if state["pos"] == len(expected[0]):
                harness.send_ack(ctl, state["unit"], state["ok"], state["bad"])
                state["unit"] += 1
                state.update(pos=0, ok=0, bad=0)
                expected[0] = inp.unit(state["unit"])

    if inst:
        consume = inst.app(consume)
    error = None
    try:
        while True:
            try:
                batch = conn.recv_batch(on_error="skip", lend=cfg.zero_copy)
            except TransportError:
                break  # the publisher closed the link after its last ack
            consume(batch)
            del batch  # lent views release their buffers before the next receive
    except Exception as exc:  # reported to the generator, which counts the loss
        error = repr(exc)
    finally:
        link.close()
    harness.send_report(
        ctl,
        {
            # the socket's receive-buffer lease pool exists once lend mode used it
            "counters": counters([ctx], [p for p in (sockets._recv_pool,) if p is not None]),
            "maxrss_kb": harness.maxrss_kb(),
            "error": error,
        },
        inst.tracer.columns() if inst else None,
    )


def generate(inp, cfg: StreamConfig, meter, traced: bool, scratch: str) -> dict:
    """One repetition.  ``meter=None`` stops after the priming burst
    (a set-up-only repetition)."""
    t_start, cpu_start = harness.now_ns(), harness.cpu_ns()
    placement = harness.Placement(ROTATE_BURSTS)
    ctl, ctl_peer = socket.socketpair()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(LINK_TIMEOUT_S)
    port = listener.getsockname()[1]

    def peer_body() -> None:
        listener.close()
        ctl.close()
        _peer(inp, cfg, port, ctl_peer, traced)

    pid = harness.fork_peer(peer_body)
    placement.add(pid)
    ctl_peer.close()
    sock, _ = listener.accept()
    listener.close()
    link = SocketTransport(sock)
    link.set_timeout(LINK_TIMEOUT_S)
    tcp = link
    if cfg.zero_copy:
        link = auto_connect(link, "server", capacity=RING_CAPACITY, directory=scratch)
        link.set_timeout(LINK_TIMEOUT_S)
    ctx = IOContext(cfg.sender)
    handles = [ctx.register_format(s) for s in inp.schemas]
    conn = PbioConnection(ctx, link)
    inst = Instrument() if traced else None
    if inst:
        inst.transport(link)
        inst.context(ctx)
        inst.connection(conn)

    sent = acked = attempted = failed = 0
    sent_at: dict[int, int] = {}
    setup_s = setup_wall_s = None
    stop = False
    error = None
    while True:
        while not stop and sent - acked < WINDOW:
            if inst:
                inst.tracer.unit_id = sent
            placement.unit(sent)
            sent_at[sent] = harness.now_ns()
            for t, natives in inp.unit_runs(sent):
                conn.send_batch_native(handles[t], natives)
            attempted += len(inp.unit(sent))
            sent += 1
            if meter is None:
                stop = True  # set-up only: the priming burst and nothing else
        if acked == sent:
            break
        try:
            unit, t_done, ok, bad, peer_cpu = harness.recv_ack(ctl, ACK_TIMEOUT_S)
        except (TimeoutError, EOFError) as exc:
            error = repr(exc)
            break
        if unit != acked:
            error = f"acknowledgement for burst {unit}, expected {acked}"
            break
        acked += 1
        failed += bad
        if unit == 0:
            setup_wall_s = (t_done - t_start) / 1e9
            setup_s = (harness.cpu_ns() - cpu_start + peer_cpu) / 1e9
        if meter is not None:
            meter.unit_done(
                harness.now_ns(), t_done - sent_at.pop(unit), ok,
                lambda peer_cpu=peer_cpu: harness.cpu_ns() + peer_cpu,
            )
            stop = stop or meter.done
    # Records of bursts never acknowledged are lost: timeouts or a dead peer.
    failed += sum(len(inp.unit(k)) for k in range(acked, sent))
    link.close()
    if tcp is not link:
        tcp.close()
    report, columns = {}, {}
    try:
        report, columns = harness.recv_report(ctl, ACK_TIMEOUT_S)
    except (TimeoutError, EOFError) as exc:
        error = error or repr(exc)
    status = harness.reap(pid, 10.0)
    if status != 0:
        error = error or f"peer exited with status {status}"
    error = error or report.get("error")
    if error and failed == 0:
        failed = 1  # never report a broken run as clean
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "peak_rss_mb": (harness.maxrss_kb() + report.get("maxrss_kb", 0)) / 1024,
    }
    if meter is not None and meter.done:
        out.update(meter.result())
    if inst:
        out["spans"] = {"generator": inst.tracer.columns(), "peer": columns}
        out["counters"] = {"generator": counters([ctx]), "peer": report.get("counters", {})}
        out["deliverer"] = "peer"
    return out
