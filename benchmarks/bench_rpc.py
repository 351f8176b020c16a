"""Extension benchmark — RPC marshalling: PBIO-RPC vs the CORBA ORB.

Section 4.3 casts receiver conversion as the RPC marshalling problem and
claims runtime-generated conversions rival compile-time stubs (USC).
This bench runs the same calculator interface over both RPC stacks:

* CORBA: compile-time-style CDR stubs, element-wise marshal/unmarshal on
  both ends, every call;
* PBIO-RPC: NDR — the homogeneous case marshals nothing; the
  heterogeneous case pays one DCG conversion per direction.

Both measured as synchronous call round-trips over in-memory pipes (no
network term, isolating the marshalling cost the paper discusses).
"""

import pytest

import support
from repro.abi import RecordSchema
from repro.core import RpcClient, RpcInterface, RpcOperation, RpcServer
from repro.net import InMemoryPipe, Transport, best_of
from repro.wire.iiop import Interface, ObjectAdapter, Operation, OrbClient

REQ = RecordSchema.from_pairs("solve_req", [("rhs", "double[64]"), ("tol", "double")])
REP = RecordSchema.from_pairs("solve_rep", [("x", "double[64]"), ("iters", "int")])

REQUEST = {"rhs": tuple(float(i) for i in range(64)), "tol": 1e-9}


def solve(req):
    return {"x": tuple(v * 0.5 for v in req["rhs"]), "iters": 12}


def corba_stack(client_machine, server_machine):
    interface = Interface("Solver", [Operation("solve", REQ, REP)])
    pipe = InMemoryPipe()
    client = OrbClient(client_machine, interface)
    adapter = ObjectAdapter(server_machine, interface)
    adapter.register(b"solver", {"solve": solve})

    class Loop:
        def send(self, data):
            pipe.a.send(data)
            pipe.b.send(adapter.handle(pipe.b.recv()))

        def recv(self):
            return pipe.a.recv()

    transport = Loop()
    return lambda: client.invoke(transport, b"solver", "solve", REQUEST)


def pbio_stack(client_machine, server_machine):
    interface = RpcInterface("Solver", [RpcOperation("solve", REQ, REP)])
    pipe = InMemoryPipe()
    client = RpcClient(client_machine, interface)
    server = RpcServer(server_machine, interface)
    server.register(b"solver", {"solve": solve})

    class Loop(Transport):
        def send(self, data):
            pipe.a.send(data)

        def recv(self):
            while pipe.b.pending() and not pipe.a.pending():
                server.serve_one(pipe.b)
            return pipe.a.recv()

        def close(self):
            pass

    transport = Loop()
    call = lambda: client.invoke(transport, b"solver", "solve", REQUEST)  # noqa: E731
    call()  # warm: announcements + converters
    return call


CASES = {
    "CORBA homogeneous": lambda: corba_stack(support.I86, support.I86),
    "CORBA heterogeneous": lambda: corba_stack(support.I86, support.SPARC),
    "PBIO homogeneous": lambda: pbio_stack(support.I86, support.I86),
    "PBIO heterogeneous": lambda: pbio_stack(support.I86, support.SPARC),
}


@pytest.mark.parametrize("case", list(CASES))
def test_rpc_call(benchmark, case):
    call = CASES[case]()
    benchmark.group = "rpc round-trip (64-double args)"
    benchmark(call)


def test_shape_pbio_rpc_cheaper():
    times = {name: best_of(CASES[name](), repeats=5, inner=5) for name in CASES}
    # PBIO beats the ORB in both configurations (no per-element stubs)...
    assert times["PBIO homogeneous"] < times["CORBA homogeneous"]
    assert times["PBIO heterogeneous"] < times["CORBA heterogeneous"]
    # ...while CORBA pays marshalling even between identical machines.
    assert times["CORBA homogeneous"] > 0.5 * times["CORBA heterogeneous"]
