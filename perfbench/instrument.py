"""Which entry points a traced run wraps, layer by layer.

Each helper takes an instance the workload built and wraps the public
calls other layers make into it (see :mod:`perfbench.spans`).
"""

from __future__ import annotations

from repro.abi import codec_for
from repro.core import encoder

from .spans import Tracer, wrap_function, wrap_methods

# Work counts of a span from the wrapped call's (args, result).
_frames_in = lambda args, result: len(args[0])  # bound send_many(frames)
_frames_out = lambda args, result: len(result) if result else 0
_leased_out = lambda args, result: len(result[0]) if result else 0  # (frames, lease)
_batch_in = lambda args, result: len(args[1])  # pipeline method: args[0] is self


def counters(contexts, pools=()) -> dict:
    """The layers' own counters, summed over ``contexts`` (their decode
    pipelines and buffer pools) and any further buffer ``pools``."""
    out: dict[str, float] = {}

    def add(metrics, prefix: str = "") -> None:
        for name, value in metrics.counters().items():
            out[prefix + name] = out.get(prefix + name, 0) + value

    for ctx in contexts:
        add(ctx.metrics)
        add(ctx.pipeline.pool.metrics, "pool.")
    for pool in pools:
        add(pool.metrics, "pool.")
    return out


class Instrument:
    """One process's tracer plus the wrapping helpers that feed it."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._codecs: set[int] = set()
        self._encoder_patched = False

    def transport(self, transport) -> None:
        """``net.transport`` send and receive entry points (with CPU time,
        so receive-side waiting is told apart from work)."""
        tr = self.tracer
        wrap_methods(tr, transport, "net.transport.send", ("send", "send_segments"), cpu=True)
        wrap_methods(tr, transport, "net.transport.send", ("send_many",), count=_frames_in, cpu=True)
        wrap_methods(tr, transport, "net.transport.recv", ("recv",), cpu=True)
        wrap_methods(tr, transport, "net.transport.recv", ("recv_many",), count=_frames_out, cpu=True)
        wrap_methods(
            tr, transport, "net.transport.recv", ("recv_many_leased",), count=_leased_out, cpu=True
        )

    def context(self, ctx, *, decode_layouts=(), encode_layouts=()) -> None:
        """An IOContext: its decode pipeline, its encode and announce
        calls, and the codecs that materialize or encode its records."""
        tr = self.tracer
        self.encoder()
        wrap_methods(
            tr, ctx.pipeline, "core.runtime.pipeline.decode",
            ("decode_batch", "decode_batch_native"), count=_batch_in,
        )
        wrap_methods(
            tr, ctx.pipeline, "core.runtime.pipeline.decode",
            ("decode", "decode_view", "decode_native", "ingest"),
        )
        wrap_methods(tr, ctx, "core.encoder.encode", ("encode", "encode_native", "write_batch"))
        wrap_methods(tr, ctx, "core.negotiation.announce", ("announce",))
        for layout in decode_layouts:
            self._codec(codec_for(layout), "decode", "abi.encoding.materialize")
        for layout in encode_layouts:
            self._codec(codec_for(layout), "encode", "abi.encoding.encode")

    def _codec(self, codec, name: str, layer: str) -> None:
        key = id(codec), name
        if key not in self._codecs:  # layouts (and so codecs) are shared per process
            self._codecs.add(key)
            wrap_methods(self.tracer, codec, layer, (name,))

    def encoder(self) -> None:
        """The data-message framing functions of ``repro.core.encoder``."""
        if not self._encoder_patched:
            self._encoder_patched = True
            for name in ("encode_data_message", "encode_data_segments", "encode_data_seq"):
                wrap_function(self.tracer, encoder, name, "core.encoder.encode")

    def connection(self, conn) -> None:
        """PbioConnection's burst send and receive (negotiation, framing
        glue) around the transport and pipeline calls it makes."""
        tr = self.tracer
        wrap_methods(tr, conn, "core.connection.send", ("send_batch_native",),
                     count=lambda a, r: len(a[1]))
        wrap_methods(tr, conn, "core.connection.recv", ("recv_batch",), count=_frames_out)

    def app(self, fn):
        """The benchmark's own work (checking records, the servant)."""
        return self.tracer.traced("bench.app", fn)
