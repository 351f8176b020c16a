"""A tiny-scale pass of every workload: each record arrives and verifies,
the traced pass yields every per-layer metric, and the oracle catches a
wrong record."""

import pytest

from perfbench import harness, inputs, layers, run

GENERATE = run.generators()

#: per-layer metrics that must be non-zero where that layer runs
RUNS_ON = {
    "stream_hetero": (
        "abi.encoding.materialize_us_per_rec",
        "core.runtime.pipeline.decode_us_per_rec",
        "core.encoder.encode_us_per_rec",
        "net.transport.send_us_per_frame",
        "net.transport.frames_per_recv",
        "core.runtime.cache.converters_generated",
        "core.negotiation.announcements_sent",
    ),
    "stream_homo_lend": (
        "core.runtime.pipeline.zero_copy_share",
        "core.encoder.encode_us_per_rec",
        "net.transport.recv_us_per_frame",
    ),
    "rpc_mixed": (
        "core.rpc.client_us_per_call",
        "core.rpc.server_us_per_call",
        "core.runtime.pool.reuse_ratio",
        "abi.encoding.materialize_us_per_rec",
    ),
    "fanout_durable": (
        "net.channel.publish_us_per_rec",
        "net.relay.forward_us_per_frame",
        "net.durable.wal_append_us_per_rec",
        "net.durable.wal_bytes_per_rec",
        "net.durable.ack_us_per_burst",
        "net.durable.unacked_peak",
    ),
}


@pytest.fixture(autouse=True)
def no_warmup(monkeypatch):
    monkeypatch.setattr(harness, "WARMUP_S", 0.0)


def _run(workload, tmp_path, *, traced=False, measure=True, tamper=None):
    inp = inputs.BUILDERS[workload](7)
    if tamper:
        tamper(inp)
        inputs.build_oracles(inp)

    def body():
        generate, _block_units = GENERATE[workload]
        meter = harness.Meter(0.3, 20, 5.0, 8) if measure else None
        out = generate(inp, meter, traced, str(tmp_path))
        if traced:
            out["per_layer"] = layers.compute(out, out["records_per_s"])
        for key in ("spans", "counters", "extra"):
            out.pop(key, None)
        return out

    return harness.run_in_child(body, 120)


@pytest.mark.parametrize("workload", sorted(GENERATE))
def test_tiny_pass_verifies_every_record(workload, tmp_path):
    out = _run(workload, tmp_path)
    assert out["error"] is None
    assert out["failed"] == 0
    assert out["attempted"] >= out["records"] > 0
    assert out["records_per_s"] > 0 and out["cpu_us_per_record"] > 0
    assert out["units"] >= 20 and out["latency_p50_us"] > 0
    assert 0 < out["setup_s"] < 30 and out["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", sorted(GENERATE))
def test_traced_pass_reports_every_layer(workload, tmp_path):
    out = _run(workload, tmp_path, traced=True)
    assert out["failed"] == 0
    per_layer = out["per_layer"]
    assert set(per_layer) == {name for name, _u, _b in layers.PER_LAYER}
    for name in RUNS_ON[workload]:
        assert per_layer[name] > 0, name
    assert 0.0 <= per_layer["bench.unattributed_share"] < 1.0
    if workload == "stream_homo_lend":
        assert per_layer["core.runtime.pipeline.zero_copy_share"] == 1.0
    if workload == "fanout_durable":
        share = per_layer["net.relay.filter_pass_share"]
        assert per_layer["net.channel.deliveries_per_rec"] == pytest.approx(3 + share)


def test_setup_only_repetition(tmp_path):
    out = _run("stream_hetero", tmp_path, measure=False)
    assert out["failed"] == 0 and out["setup_s"] > 0
    assert "records_per_s" not in out


def _wrong_node_id(inp):
    inp.refs[0][0]["node_id"] += 1  # pool record 0 of type 0 is in the priming unit


@pytest.mark.parametrize("workload", ["stream_hetero", "stream_homo_lend", "rpc_mixed"])
def test_oracle_counts_a_wrong_record(workload, tmp_path):
    out = _run(workload, tmp_path, measure=False, tamper=_wrong_node_id)
    assert out["failed"] >= 1


def test_fanout_oracle_counts_a_wrong_record(tmp_path):
    def tamper(inp):
        first = inp.unit(0)[0][1]
        inp.refs[0][first]["node_id"] += 1

    out = _run("fanout_durable", tmp_path, measure=False, tamper=tamper)
    assert out["failed"] >= 1
