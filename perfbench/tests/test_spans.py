"""Self-time arithmetic and the span tracer."""

from perfbench.spans import LAYER_INDEX, SpanSet, Tracer, self_times, wrap_methods


def test_self_time_subtracts_children():
    # root [0, 100) with children [10, 30) and [50, 60); grandchild [12, 20)
    start = [0, 10, 12, 50]
    end = [100, 30, 20, 60]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [70, 12, 8, 10]


def test_overlapping_children_count_once():
    # two children overlapping on [20, 30): covered = [10, 40) = 30
    assert self_times([0, 10, 20], [100, 30, 40], [-1, 0, 0])[0] == 70


def test_children_are_clipped_to_the_parent():
    # a child that (by clock skew) pokes out of its parent never makes
    # the parent's self time negative
    # parent [10, 50): children cover [10, 20) and [40, 50) of it
    assert self_times([10, 5, 40], [50, 20, 70], [-1, 0, 0]) == [20, 15, 30]


def test_leaf_and_root_only():
    assert self_times([3], [9], [-1]) == [6]
    assert self_times([], [], []) == []


def test_tracer_nesting_and_same_layer_merge():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.traced("abi.encoding.materialize", inner)

    def outer(x):
        # calling the same layer's entry point again joins the open span
        return again(traced_inner(x))

    again = tracer.traced("core.runtime.pipeline.decode", lambda x: x)
    traced_outer = tracer.traced("core.runtime.pipeline.decode", outer, count=lambda a, r: 7)
    assert traced_outer(1) == 2
    spans = SpanSet(tracer.columns())
    assert list(spans.layer) == [
        LAYER_INDEX["core.runtime.pipeline.decode"],
        LAYER_INDEX["abi.encoding.materialize"],
    ]
    assert list(spans.parent) == [-1, 0]
    assert list(spans.count) == [7, 1]
    totals = spans.layer_totals(0, 2**63 - 1)
    decode = totals["core.runtime.pipeline.decode"]
    child = totals["abi.encoding.materialize"]
    assert decode["self_ns"] + child["wall_ns"] == decode["wall_ns"]


def test_wrap_methods_on_slots_and_dict_instances():
    class Slotted:
        __slots__ = ("n",)

        def __init__(self):
            self.n = 0

        def work(self, k):
            self.n += k
            return self.n

    class Plain:
        def work(self, k):
            return k * 2

    tracer = Tracer()
    s, p = Slotted(), Plain()
    wrap_methods(tracer, s, "net.relay.forward", ("work",), count=lambda a, r: a[1])
    wrap_methods(tracer, p, "net.relay.forward", ("work", "absent"), count=lambda a, r: a[0])
    assert s.work(3) == 3 and p.work(4) == 8
    assert isinstance(s, Slotted) and type(s) is not Slotted
    assert type(Slotted()) is Slotted  # only the wrapped instance moved
    assert list(SpanSet(tracer.columns()).count) == [3, 4]
