"""Seeded inputs for every workload, and the reference they are checked against.

Everything here runs before any timing starts, in the parent process,
so each forked generator and peer inherits the same records, native
byte images and send schedule: the program under test only ever sees
the generated records, and the receiving side knows, from the seed
alone, which record must arrive next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abi import SPARC_V8, X86, CType, FieldDecl, RecordSchema, codec_for, layout_record
from repro.workloads import mechanical
from repro.workloads.generators import random_record
from repro.workloads.trace import TraceEntry, TraceSpec

from .oracle import DictOracle, ViewOracle

BURST = 32
#: distinct records per type: enough that no two consecutive bursts
#: repeat, few enough that inputs build in about a second
POOL = {"mech_100b": 256, "mech_1kb": 128, "mech_10kb": 32, "mech_100kb": 8, "event_log": 128}
#: cyclic schedule length (bursts, or calls for rpc_mixed)
SCHEDULE = 1024
#: stream_hetero: weight of the string-bearing ``event_log`` type drawn
#: beside the paper mixture's 70 : 20 : 8 : 2.  An assumption, not a
#: measured share: about one record in eleven carries strings.
EVENT_LOG_WEIGHT = 10.0
#: stream_homo_lend record mix (10 KB : 100 KB)
HOMO_WEIGHTS = {"mech_10kb": 8, "mech_100kb": 2}

#: The string-bearing record type mixed into stream_hetero: an
#: application event log line (var-length host and message strings).
EVENT_LOG = RecordSchema(
    "event_log",
    [
        FieldDecl("event_id", CType.INT),
        FieldDecl("severity", CType.SHORT),
        FieldDecl("timestamp", CType.DOUBLE),
        FieldDecl("host", CType.STRING),
        FieldDecl("message", CType.STRING),
        FieldDecl("counters", CType.INT, 8),
    ],
)

#: fanout_durable's filtered relay downstream; ``passes_filter`` is the
#: same predicate evaluated on the reference record
FILTER_EXPR = "node_id % 4 == 1"


def passes_filter(record: dict) -> bool:
    return record["node_id"] % 4 == 1


def _reference(record: dict) -> dict:
    """The record with long sequences as numpy arrays, so that
    ``records_equal`` compares them in one vectorised call."""
    out = {}
    for name, value in record.items():
        if isinstance(value, (tuple, np.ndarray)) and len(value) >= 16:
            value = np.array(value)
        out[name] = value
    return out


@dataclass
class Inputs:
    """One workload's generated records and send schedule."""

    schemas: list[RecordSchema]
    #: refs[type][i]: the reference value dict of pool record i
    refs: list[list[dict]]
    #: natives[machine name][type][i]: the record's native bytes
    natives: dict[str, list[list[bytes]]]
    #: units[k]: one burst (or call) as (type, pool index) pairs; unit 0
    #: is the priming unit, which carries every type once, and units
    #: 1.. repeat ``units[1:]`` cyclically
    units: list[list[tuple[int, int]]]
    #: values[type][i]: what the application sends where it sends value
    #: dicts (rpc_mixed): equal to refs, but separate objects, so a
    #: program that altered its input could not alter the reference too
    values: list[list[dict]] = field(default_factory=list)
    #: oracles[(kind, machine name)][type]: record checkers, built here
    #: so that no process spends set-up time on them
    oracles: dict = field(default_factory=dict)
    #: runs[k]: units[k] as consecutive same-type runs of native bytes on
    #: the sending machine, ready for ``send_batch_native``
    runs: list[list[tuple[int, list[bytes]]]] = field(default_factory=list)

    def unit(self, k: int) -> list[tuple[int, int]]:
        return self.units[k] if k == 0 else self.units[1 + (k - 1) % (len(self.units) - 1)]

    def unit_runs(self, k: int) -> list[tuple[int, list[bytes]]]:
        return self.runs[k] if k == 0 else self.runs[1 + (k - 1) % (len(self.runs) - 1)]


def build_oracles(inp: Inputs, *specs) -> None:
    """(Re)build the record checkers, for the given ``(kind, machine)``
    pairs or else for every pair built before (after editing ``refs``)."""
    machines = {m.name: m for m in (SPARC_V8, X86)}
    for kind, machine in specs or [(k, machines[m]) for k, m in inp.oracles]:
        layouts = [layout_record(s, machine) for s in inp.schemas]
        if kind == "dict":
            checkers = [DictOracle(inp.refs[t], layouts[t]) for t in range(len(layouts))]
        else:
            natives = inp.natives[machine.name]
            checkers = [ViewOracle(inp.refs[t], natives[t], layouts[t]) for t in range(len(layouts))]
        inp.oracles[(kind, machine.name)] = checkers


def _pools(schemas, rng, machines) -> tuple[list[list[dict]], dict[str, list[list[bytes]]]]:
    refs, natives = [], {m.name: [] for m in machines}
    codecs = {m.name: [codec_for(layout_record(s, m)) for s in schemas] for m in machines}
    for t, schema in enumerate(schemas):
        records = [random_record(schema, rng) for _ in range(POOL[schema.name])]
        refs.append([_reference(r) for r in records])
        for m in machines:
            natives[m.name].append([codecs[m.name][t].encode(r) for r in records])
    return refs, natives


def _runs(units, natives_by_type) -> list[list[tuple[int, list[bytes]]]]:
    out = []
    for unit in units:
        runs: list[tuple[int, list[bytes]]] = []
        for t, i in unit:
            if runs and runs[-1][0] == t:
                runs[-1][1].append(natives_by_type[t][i])
            else:
                runs.append((t, [natives_by_type[t][i]]))
        out.append(runs)
    return out


def _mixture(rng, schemas, weights: dict[str, float], n: int) -> list[tuple[int, int]]:
    """``n`` (type, pool index) draws in trace order: shuffled blocks that
    each hold ``round(weight)`` records of every type exactly.

    The rare large records take much of the time, so drawing each record
    independently would let the seed, not the program, move the rate by
    the luck of how many a run holds.
    """
    index = {s.name: t for t, s in enumerate(schemas)}
    block = [index[name] for name, w in weights.items() for _ in range(round(w))]
    out: list[tuple[int, int]] = []
    while len(out) < n:
        for t in rng.permutation(block):
            out.append((int(t), int(rng.integers(POOL[schemas[t].name]))))
    return out[:n]


def _bursts(draws: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    return [draws[k : k + BURST] for k in range(0, len(draws), BURST)]


def stream_hetero(seed: int) -> Inputs:
    """Paper-mixture records plus event-log lines, all in trace order.

    Bursts of 32 records are cut from one trace-order sequence drawn from
    ``TraceSpec.paper_mixture()`` with ``event_log`` as a fifth entry of
    weight :data:`EVENT_LOG_WEIGHT`, so same-type runs, and hence decode
    groups, have the mixture's natural lengths.  String runs that short
    stay below the var-length columnar pass's threshold and take the
    scalar converter.  Sent from SPARC_V8, received on X86.
    """
    rng = np.random.default_rng(seed)
    spec = TraceSpec(TraceSpec.paper_mixture().entries + [TraceEntry(EVENT_LOG, EVENT_LOG_WEIGHT)])
    schemas = spec.schemas()
    refs, natives = _pools(schemas, rng, (SPARC_V8, X86))
    weights = {e.schema.name: e.weight for e in spec.entries}
    units = [[(t, 0) for t in range(len(schemas))]]
    units += _bursts(_mixture(rng, schemas, weights, SCHEDULE * BURST))
    inp = Inputs(schemas, refs, natives, units)
    inp.runs = _runs(units, natives[SPARC_V8.name])
    build_oracles(inp, ("dict", X86))
    return inp


def stream_homo_lend(seed: int) -> Inputs:
    """10 KB and 100 KB mechanical records, X86 to X86."""
    rng = np.random.default_rng(seed)
    schemas = [mechanical.schema_for_size("10kb"), mechanical.schema_for_size("100kb")]
    refs, natives = _pools(schemas, rng, (X86,))
    units = [[(0, 0), (1, 0)]] + _bursts(_mixture(rng, schemas, HOMO_WEIGHTS, SCHEDULE * BURST))
    inp = Inputs(schemas, refs, natives, units)
    inp.runs = _runs(units, natives[X86.name])
    build_oracles(inp, ("view", X86))
    return inp


def rpc_mixed(seed: int) -> Inputs:
    """One echo call per unit; unit 0 primes every operation once.
    Calls follow the paper mixture (70 : 20 : 8 : 2) in trace order."""
    rng = np.random.default_rng(seed)
    spec = TraceSpec.paper_mixture()
    schemas = spec.schemas()
    refs, natives = _pools(schemas, rng, (SPARC_V8,))
    values = [[_reference(r) for r in pool] for pool in refs]
    weights = {e.schema.name: e.weight for e in spec.entries}
    units = [[(t, 0) for t in range(len(schemas))]]
    units += [[draw] for draw in _mixture(rng, schemas, weights, 4 * SCHEDULE)]
    inp = Inputs(schemas, refs, natives, units, values=values)
    build_oracles(inp, ("dict", SPARC_V8))
    return inp


def fanout_durable(seed: int) -> Inputs:
    """32-record bursts of 1 KB records, published from X86."""
    rng = np.random.default_rng(seed)
    schemas = [mechanical.schema_for_size("1kb")]
    refs, natives = _pools(schemas, rng, (X86, SPARC_V8))
    pool = POOL["mech_1kb"]
    units = [[(0, int(rng.integers(pool))) for _ in range(BURST)] for _ in range(SCHEDULE + 1)]
    inp = Inputs(schemas, refs, natives, units)
    inp.runs = _runs(units, natives[X86.name])
    build_oracles(inp, ("dict", X86), ("view", SPARC_V8))
    return inp


BUILDERS = {
    "stream_hetero": stream_hetero,
    "stream_homo_lend": stream_homo_lend,
    "rpc_mixed": rpc_mixed,
    "fanout_durable": fanout_durable,
}
