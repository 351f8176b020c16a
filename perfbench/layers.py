"""Per-layer metrics of a traced repetition.

Times are self times (a span minus what its child spans cover), summed
over the spans that started inside the measured window, divided by the
window's records, frames, bursts or calls.  Ratios come from the
layers' own ``Metrics`` counters, read after the run.  A layer that does
not run on a workload reports 0.
"""

from __future__ import annotations

from .spans import SpanSet

#: every per-layer metric with its unit and which way is better; the
#: prediction table in ``predictions.json`` says which end-to-end metric
#: each should move, on which workload
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("abi.encoding.materialize_us_per_rec", "us", "lower"),
    ("abi.encoding.encode_us_per_rec", "us", "lower"),
    ("core.encoder.encode_us_per_rec", "us", "lower"),
    ("core.runtime.pipeline.decode_us_per_rec", "us", "lower"),
    ("core.runtime.pipeline.frames_per_group", "count", "higher"),
    ("core.runtime.pipeline.zero_copy_share", "ratio", "higher"),
    ("core.conversion.fallback_share", "ratio", "lower"),
    ("core.connection.send_us_per_rec", "us", "lower"),
    ("core.connection.recv_us_per_rec", "us", "lower"),
    ("net.transport.send_us_per_frame", "us", "lower"),
    ("net.transport.recv_us_per_frame", "us", "lower"),
    ("net.transport.recv_wait_us_per_frame", "us", "lower"),
    ("net.transport.frames_per_recv", "count", "higher"),
    ("core.runtime.pool.reuse_ratio", "ratio", "higher"),
    ("core.runtime.pool.leaked", "count", "lower"),
    ("core.runtime.cache.converters_generated", "count", "lower"),
    ("core.runtime.cache.generation_s", "s", "lower"),
    ("core.negotiation.announcements_sent", "count", "lower"),
    ("core.rpc.client_us_per_call", "us", "lower"),
    ("core.rpc.server_us_per_call", "us", "lower"),
    ("net.channel.publish_us_per_rec", "us", "lower"),
    ("net.channel.deliveries_per_rec", "count", "higher"),
    ("net.relay.forward_us_per_frame", "us", "lower"),
    ("net.relay.filter_pass_share", "ratio", "higher"),
    ("net.durable.publish_us_per_rec", "us", "lower"),
    ("net.durable.wal_append_us_per_rec", "us", "lower"),
    ("net.durable.wal_bytes_per_rec", "B", "lower"),
    ("net.durable.ack_us_per_burst", "us", "lower"),
    ("net.durable.unacked_peak", "count", "lower"),
    ("net.durable.subscribe_us_per_rec", "us", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _merge(rows: list[dict]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for totals in rows:
        for layer, row in totals.items():
            acc = out.setdefault(layer, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return out


def compute(rep: dict, untraced_records_per_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced repetition's spans and counters.

    ``rep["spans"]`` maps a process role to its span columns; the role
    named by ``rep["deliverer"]`` is the one whose records are counted
    as delivered, and its window wall time is the base of
    ``bench.unattributed_share``.
    """
    t0, t1 = rep["window_ns"]
    sets = {role: SpanSet(cols) for role, cols in rep["spans"].items() if cols}
    window = _merge([s.layer_totals(t0, t1) for s in sets.values()])
    whole = _merge([s.layer_totals(0, 2**63 - 1) for s in sets.values()])
    counters: dict[str, float] = {}
    for role_counters in rep["counters"].values():
        for name, value in role_counters.items():
            counters[name] = counters.get(name, 0) + value

    def row(layer: str) -> dict[str, float]:
        return window.get(layer, {"self_ns": 0, "wall_ns": 0, "cpu_ns": 0, "count": 0, "spans": 0})

    records = rep["records"]
    units = rep["units"]

    def per_rec(layer: str) -> float:
        return _div(row(layer)["self_ns"] / 1e3, records)

    send, recv = row("net.transport.send"), row("net.transport.recv")
    zero_copy = counters.get("zero_copy_decodes", 0)
    converted = counters.get("converted_decodes", 0)
    reused = counters.get("pool.buffers_reused", 0)
    allocated = counters.get("pool.buffers_allocated", 0)
    deliverer = sets.get(rep["deliverer"])
    attributed = 0
    if deliverer is not None:
        mine = deliverer.layer_totals(t0, t1)
        attributed = sum(r["self_ns"] for layer, r in mine.items() if not layer.startswith("bench."))
    out = {
        "abi.encoding.materialize_us_per_rec": per_rec("abi.encoding.materialize"),
        "abi.encoding.encode_us_per_rec": per_rec("abi.encoding.encode"),
        "core.encoder.encode_us_per_rec": per_rec("core.encoder.encode"),
        "core.runtime.pipeline.decode_us_per_rec": per_rec("core.runtime.pipeline.decode"),
        "core.runtime.pipeline.frames_per_group": _div(
            counters.get("decode.batch.messages", 0), counters.get("decode.batch.groups", 0)
        ),
        "core.runtime.pipeline.zero_copy_share": _div(zero_copy, zero_copy + converted),
        "core.conversion.fallback_share": _div(counters.get("decode.batch.fallback", 0), converted),
        "core.connection.send_us_per_rec": per_rec("core.connection.send"),
        "core.connection.recv_us_per_rec": per_rec("core.connection.recv"),
        "net.transport.send_us_per_frame": _div(send["cpu_ns"] / 1e3, send["count"]),
        "net.transport.recv_us_per_frame": _div(recv["cpu_ns"] / 1e3, recv["count"]),
        "net.transport.recv_wait_us_per_frame": _div(
            (recv["self_ns"] - recv["cpu_ns"]) / 1e3, recv["count"]
        ),
        "net.transport.frames_per_recv": _div(recv["count"], recv["spans"]),
        "core.runtime.pool.reuse_ratio": _div(reused, reused + allocated),
        "core.runtime.pool.leaked": counters.get("pool.leaked", 0),
        "core.runtime.cache.converters_generated": counters.get("converters_generated", 0),
        "core.runtime.cache.generation_s": counters.get("generation_time_s", 0.0),
        "core.negotiation.announcements_sent": whole.get("core.negotiation.announce", {}).get(
            "spans", 0
        ),
        "core.rpc.client_us_per_call": _div(
            row("core.rpc.client")["self_ns"] / 1e3, row("core.rpc.client")["spans"]
        ),
        "core.rpc.server_us_per_call": _div(
            row("core.rpc.server")["self_ns"] / 1e3, row("core.rpc.server")["spans"]
        ),
        "net.channel.publish_us_per_rec": per_rec("net.channel.publish"),
        "net.channel.deliveries_per_rec": 0.0,
        "net.relay.forward_us_per_frame": _div(
            row("net.relay.forward")["self_ns"] / 1e3, row("net.relay.forward")["count"]
        ),
        "net.relay.filter_pass_share": 0.0,
        "net.durable.publish_us_per_rec": per_rec("net.durable.publish"),
        "net.durable.wal_append_us_per_rec": per_rec("net.durable.wal_append"),
        "net.durable.wal_bytes_per_rec": 0.0,
        "net.durable.ack_us_per_burst": _div(row("net.durable.ack")["self_ns"] / 1e3, units),
        "net.durable.unacked_peak": 0,
        "net.durable.subscribe_us_per_rec": per_rec("net.durable.subscribe"),
        "bench.trace_overhead_ratio": _div(untraced_records_per_s, rep["records_per_s"]),
        "bench.unattributed_share": 1.0 - _div(attributed, t1 - t0),
    }
    out.update(rep.get("extra", {}))
    if set(out) != {name for name, _u, _b in PER_LAYER}:
        raise RuntimeError("per-layer metrics out of sync with PER_LAYER")
    return out
