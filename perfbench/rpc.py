"""rpc_mixed: a SPARC_V8 ``RpcClient`` calling an X86 ``RpcServer``
served by ``AsyncServer`` + ``rpc_handler`` in a forked peer.

One echo operation per paper-mixture record size; one call in flight at
a time (a closed loop with one client and one connection).  The reply
must equal the request the client sent.
"""

from __future__ import annotations

import mmap
import resource
import socket
import struct

from repro.abi import SPARC_V8, X86, layout_record
from repro.core.rpc import RpcClient, RpcInterface, RpcOperation, RpcServer
from repro.net.aio import AsyncServer, rpc_handler
from repro.net.sockets import SocketTransport
from repro.net.transport import TransportError

from . import harness
from .instrument import Instrument, counters
from .spans import LAYER_INDEX

OBJECT_KEY = b"echo"
#: calls between moves of the client and server to the next CPU
#: (harness.Placement)
ROTATE_CALLS = 256
#: calls per block of the measured window (harness.Meter)
BLOCK_UNITS = 2 * ROTATE_CALLS
CALL_TIMEOUT_S = 30.0
_PORT = struct.Struct("<I")
_STATS = struct.Struct("<qq")  # peer cpu_ns, maxrss_kb after its latest call


def _interface(schemas) -> tuple[RpcInterface, list[str]]:
    ops = [f"echo_{s.name}" for s in schemas]
    return RpcInterface("Echo", [RpcOperation(op, s, s) for op, s in zip(ops, schemas)]), ops


def _traced_steps(inst: Instrument, steps):
    """``RpcServer.serve_steps`` with one ``core.rpc.server`` span per
    call, from the first frame of the call to the reply.  The transport
    the server was handed is wrapped the first time it is seen."""
    tracer = inst.tracer
    seen: set[int] = set()

    def traced(transport):
        if id(transport) not in seen:
            seen.add(id(transport))
            inst.transport(transport)
        gen = steps(transport)
        try:
            demand = next(gen)
        except StopIteration:
            return
        frame = yield demand
        idx = tracer.begin(LAYER_INDEX["core.rpc.server"])
        try:
            while True:
                try:
                    demand = gen.send(frame)
                except StopIteration:
                    return
                frame = yield demand
        finally:
            tracer.finish(idx, 1)

    return traced


def _server(inp, ctl: socket.socket, stats: mmap.mmap, traced: bool) -> None:
    iface, ops = _interface(inp.schemas)
    server = RpcServer(X86, iface)

    def echo(request: dict) -> dict:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        _STATS.pack_into(stats, 0, int((ru.ru_utime + ru.ru_stime) * 1e9), ru.ru_maxrss)
        return request

    inst = Instrument() if traced else None
    if inst:
        inst.context(
            server.ctx,
            decode_layouts=[layout_record(s, X86) for s in inp.schemas],
            encode_layouts=[layout_record(s, X86) for s in inp.schemas],
        )
        server.serve_steps = _traced_steps(inst, server.serve_steps)
        echo = inst.app(echo)
    server.register(OBJECT_KEY, {op: echo for op in ops})
    aio = AsyncServer(rpc_handler(server), once=True)
    _host, port = aio.bind()
    harness.send_msg(ctl, _PORT.pack(port))
    aio.run()
    harness.send_report(
        ctl,
        {"counters": counters([server.ctx]), "maxrss_kb": harness.maxrss_kb(), "error": None},
        inst.tracer.columns() if inst else None,
    )


def generate(inp, meter, traced: bool, scratch: str) -> dict:
    t_start, cpu_start = harness.now_ns(), harness.cpu_ns()
    placement = harness.Placement(ROTATE_CALLS)
    ctl, ctl_peer = socket.socketpair()
    stats = mmap.mmap(-1, _STATS.size)  # anonymous MAP_SHARED: survives the fork

    def peer_body() -> None:
        ctl.close()
        _server(inp, ctl_peer, stats, traced)

    pid = harness.fork_peer(peer_body)
    placement.add(pid)
    ctl_peer.close()
    iface, ops = _interface(inp.schemas)
    error = None
    attempted = failed = 0
    setup_s = setup_wall_s = None
    report, columns = {}, {}
    client = RpcClient(SPARC_V8, iface)
    layouts = [layout_record(s, SPARC_V8) for s in inp.schemas]
    oracles = inp.oracles[("dict", SPARC_V8.name)]
    inst = Instrument() if traced else None
    transport = None
    try:
        (port,) = _PORT.unpack(harness.recv_msg(ctl, CALL_TIMEOUT_S))
        sock = socket.create_connection(("127.0.0.1", port), timeout=CALL_TIMEOUT_S)
        transport = SocketTransport(sock)
        transport.set_timeout(CALL_TIMEOUT_S)
        invoke = client.invoke
        if inst:
            inst.transport(transport)
            inst.context(client.ctx, decode_layouts=layouts, encode_layouts=layouts)
            invoke = inst.tracer.traced("core.rpc.client", invoke)

        def check(t: int, i: int, reply) -> bool:
            return oracles[t].check(i, reply)

        if inst:
            check = inst.app(check)

        def peer_cpu() -> int:
            return _STATS.unpack_from(stats, 0)[0]

        k = 0
        while True:
            if inst:
                inst.tracer.unit_id = k
            placement.unit(k)
            unit = inp.unit(k)
            t0 = harness.now_ns()
            ok = 0
            for t, i in unit:
                attempted += 1
                reply = invoke(transport, OBJECT_KEY, ops[t], inp.values[t][i])
                if check(t, i, reply):
                    ok += 1
                else:
                    failed += 1
            t1 = harness.now_ns()
            if k == 0:
                setup_wall_s = (t1 - t_start) / 1e9
                setup_s = (harness.cpu_ns() - cpu_start + peer_cpu()) / 1e9
                if meter is None:
                    break
            meter.unit_done(t1, t1 - t0, ok, lambda: harness.cpu_ns() + peer_cpu())
            if meter.done:
                break
            k += 1
    except (TransportError, TimeoutError, EOFError, OSError) as exc:
        error = repr(exc)
        failed += 1
    finally:
        if transport is not None:
            transport.close()  # the server's once=True loop ends with this connection
    try:
        report, columns = harness.recv_report(ctl, CALL_TIMEOUT_S)
    except (TimeoutError, EOFError) as exc:
        error = error or repr(exc)
    status = harness.reap(pid, 10.0)
    if status != 0:
        error = error or f"server exited with status {status}"
    if error and failed == 0:
        failed = 1
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
        out["counters"] = {"generator": counters([client.ctx]), "peer": report.get("counters", {})}
        out["deliverer"] = "generator"
    return out
