"""fanout_durable: one process, one thread, four subscribers.

A ``DurablePublisher`` journals each 32-record burst of 1 KB records to
an on-disk WAL and publishes it into an ``EventChannel`` with:

* an X86 durable subscriber receiving dicts;
* a SPARC_V8 durable subscriber receiving views (conversion runs here);
* a ``WireTap`` feeding a ``Relay`` over ``InMemoryPipe`` links, with
  two X86 downstreams decoded by ``read_batch`` — one takes every
  record, the other only those passing :data:`inputs.FILTER_EXPR`.

Acknowledgements from the durable subscribers must drain the WAL after
every burst.  A record counts as delivered once every subscriber that
should see it has it, checked against the reference.
"""

from __future__ import annotations

import os

from repro.abi import SPARC_V8, X86, layout_record
from repro.core import IOContext
from repro.core import encoder as enc
from repro.net import durable
from repro.net.channel import EventChannel
from repro.net.durable import DurablePublisher
from repro.net.relay import Relay
from repro.net.transport import InMemoryPipe

from . import harness
from .inputs import FILTER_EXPR, passes_filter
from .instrument import Instrument, counters
from .spans import wrap_methods

_DATA_KINDS = (enc.MSG_DATA, enc.MSG_DATA_SEQ)
#: bursts between moves to the next CPU (harness.Placement)
ROTATE_BURSTS = 64
#: bursts per block of the measured window (harness.Meter)
BLOCK_UNITS = 2 * ROTATE_BURSTS


class _Sink:
    """What one subscriber received during the current burst."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.got: list = []

    def handler(self, record) -> None:
        self.got.append(record)

    def verify(self, expected: list[int]) -> tuple[list[bool], bool]:
        """Per expected record: delivered, in order, and equal; plus
        whether more records arrived than were expected."""
        got, self.got = self.got, []
        ok = [self.oracle.check(i, g) for i, g in zip(expected, got)]
        ok += [False] * (len(expected) - len(ok))
        return ok, len(got) > len(expected)


def generate(inp, meter, traced: bool, scratch: str) -> dict:
    t_start, cpu_start = harness.now_ns(), harness.cpu_ns()
    placement = harness.Placement(ROTATE_BURSTS)
    schema = inp.schemas[0]
    x86_layout = layout_record(schema, X86)
    inst = Instrument() if traced else None
    if inst:
        inst.encoder()
        wal_bytes = [0]
        pack_frame = durable.pack_frame

        def counted_pack_frame(payload):
            frame = pack_frame(payload)
            wal_bytes[0] += len(frame)
            return frame

        durable.pack_frame = counted_pack_frame  # bytes the WAL writes

    channel = EventChannel()
    pub_ctx = IOContext(X86)
    handle = pub_ctx.register_format(schema)
    pub = DurablePublisher(channel, pub_ctx, wal_dir=os.path.join(scratch, "wal"))

    dict_oracle = inp.oracles[("dict", X86.name)][0]
    dict_sink = _Sink(dict_oracle)
    view_sink = _Sink(inp.oracles[("view", SPARC_V8.name)][0])
    down_all = _Sink(dict_oracle)
    down_filtered = _Sink(dict_oracle)
    dict_ctx, view_ctx = IOContext(X86), IOContext(SPARC_V8)
    all_ctx, filtered_ctx = IOContext(X86), IOContext(X86)
    for ctx in (dict_ctx, view_ctx, all_ctx, filtered_ctx):
        ctx.expect(schema)

    up_in, up_out = InMemoryPipe().endpoints()
    all_in, all_out = InMemoryPipe().endpoints()
    filtered_in, filtered_out = InMemoryPipe().endpoints()
    relay = Relay()
    handlers = [dict_sink.handler, view_sink.handler]
    if inst:
        tr = inst.tracer
        for link in (up_in, up_out, all_in, all_out, filtered_in, filtered_out):
            inst.transport(link)
        inst.context(pub_ctx)
        for ctx in (dict_ctx, all_ctx, filtered_ctx):
            inst.context(ctx, decode_layouts=[x86_layout])
        inst.context(view_ctx)
        wrap_methods(tr, pub, "net.durable.publish", ("publish_native_batch",),
                     count=lambda a, r: len(a[1]))
        wrap_methods(tr, pub.wal, "net.durable.wal_append", ("append", "_append_parsed"))
        wrap_methods(tr, pub.wal, "net.durable.ack", ("ack",))
        wrap_methods(tr, channel, "net.channel.publish", ("_publish_batch", "_publish_message"))
        wrap_methods(tr, channel, "net.durable.ack", ("route_ack",))
        wrap_methods(tr, relay, "net.relay.forward", ("forward", "forward_batch"))
        wrap_methods(tr, relay, "net.relay.forward", ("pump_batch",), count=lambda a, r: r or 0)
        handlers = [inst.app(h) for h in handlers]
        unacked_peak = [0]
        append_parsed = pub.wal._append_parsed

        def sampled_append(entries):
            append_parsed(entries)
            unacked_peak[0] = max(unacked_peak[0], pub.wal.unacked_count)

        pub.wal._append_parsed = sampled_append

    cursor = os.path.join(scratch, "cursor-{}")
    dict_sub = channel.subscribe_durable(
        dict_ctx, handlers[0], cursor_path=cursor.format("dict"), on_error="suppress"
    )
    view_sub = channel.subscribe_durable(
        view_ctx, handlers[1], cursor_path=cursor.format("view"), on_error="suppress"
    )
    # subscribe_durable has no deliver= parameter; the attribute it would
    # set is public on every Subscription.
    view_sub.deliver = "view"
    channel.attach_wire(up_in.send)
    all_link = relay.attach(all_in)
    filtered_link = relay.attach(filtered_in, format_name=schema.name, filter_expr=FILTER_EXPR)
    if inst:
        for sub in (dict_sub, view_sub):
            wrap_methods(tr, sub, "net.durable.subscribe", ("_offer", "_offer_batch"))
            wrap_methods(tr, sub, "net.durable.ack", ("_send_ack",))

    def read_downstream(link, ctx, sink) -> None:
        while link.pending():
            frames = link.recv_many()
            decoded = ctx.read_batch(frames, on_error="skip")
            for frame, value in zip(frames, decoded):
                if enc.message_kind(frame) in _DATA_KINDS:
                    sink.got.append(value)

    def check_burst(unit) -> tuple[int, int]:
        expected = [i for _t, i in unit]
        passing = [i for i in expected if passes_filter(inp.refs[0][i])]
        verdicts = [s.verify(expected) for s in (dict_sink, view_sink, down_all)]
        filtered_ok, extra = down_filtered.verify(passing)
        ok = bad = 0
        flags = iter(filtered_ok)
        for j, i in enumerate(expected):
            good = all(v[0][j] for v in verdicts)
            if passes_filter(inp.refs[0][i]):
                good = next(flags) and good
            ok += good
            bad += not good
        if extra or any(v[1] for v in verdicts):
            bad += 1  # deliveries nobody published
        return ok, bad

    if inst:
        read_downstream = inst.app(read_downstream)
        check_burst = inst.app(check_burst)

    attempted = failed = 0
    setup_s = setup_wall_s = None
    k = 0
    while True:
        if inst:
            tr.unit_id = k
        placement.unit(k)
        unit = inp.unit(k)
        t0 = harness.now_ns()
        pub.publish_native_batch(handle, inp.unit_runs(k)[0][1])
        while up_out.pending():
            relay.pump_batch(up_out)
        read_downstream(all_out, all_ctx, down_all)
        read_downstream(filtered_out, filtered_ctx, down_filtered)
        ok, bad = check_burst(unit)
        if pub.unacked_count:
            # not drained by the acknowledgements: not durably delivered
            ok, bad = 0, len(unit)
        t1 = harness.now_ns()
        attempted += len(unit)
        failed += bad
        if k == 0:
            setup_wall_s = (t1 - t_start) / 1e9
            setup_s = (harness.cpu_ns() - cpu_start) / 1e9
            if meter is None:
                break
        meter.unit_done(t1, t1 - t0, ok, harness.cpu_ns)
        if meter.done:
            break
        k += 1
    failed += pub.unacked_count
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": attempted,
        "failed": failed,
        "error": None,
        "peak_rss_mb": harness.maxrss_kb() / 1024,
    }
    layer_counters = counters([pub_ctx, dict_ctx, view_ctx, all_ctx, filtered_ctx])
    pub.close()
    dict_sub.close()
    view_sub.close()
    if meter is not None and meter.done:
        out.update(meter.result())
    if inst:
        published = attempted
        delivered = (
            dict_sub.metrics.value("delivered")
            + view_sub.metrics.value("delivered")
            + all_link.metrics.value("forwarded")
            + filtered_link.metrics.value("forwarded")
        )
        passed = filtered_link.metrics.value("forwarded")
        dropped = filtered_link.metrics.value("filtered_out")
        out["extra"] = {
            "net.channel.deliveries_per_rec": delivered / published,
            "net.relay.filter_pass_share": passed / max(1, passed + dropped),
            "net.durable.wal_bytes_per_rec": wal_bytes[0] / published,
            "net.durable.unacked_peak": unacked_peak[0],
        }
        out["spans"] = {"generator": inst.tracer.columns()}
        out["counters"] = {"generator": layer_counters}
        out["deliverer"] = "generator"
    return out
