import importlib

import pytest

from tracing import PER_LAYER, Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        Span("c", 9.0, 12.0, 0),  # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0])


def test_wrapped_calls_nest_under_their_caller():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(traced_inner(x))

    assert tracer.wrap("outer", outer, work=lambda args, result: result)(1) == 3
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert tracer.spans[0].work == 3
    own = self_times(tracer.spans)
    assert own[0] + tracer.spans[1].duration + tracer.spans[2].duration == pytest.approx(
        tracer.spans[0].duration
    )


def test_layer_metrics_per_scenario():
    sim = "harness.experiments.simulate_peak_statistics"
    spans = [
        Span("poweralloc.max_min_allocate", 0.0, 10.0, None),
        Span("poweralloc.feasibility", 1.0, 3.0, 0, work=1.0),
        Span("poweralloc.linprog", 1.0, 2.0, 1),
        Span("poweralloc.linprog", 2.0, 3.0, 1),  # one retry
        Span("poweralloc.feasibility", 4.0, 6.0, 0, work=0.0),
        Span("poweralloc.linprog", 4.0, 6.0, 4),
        Span("radar.calibrate_threshold", 10.0, 14.0, None),
        Span(sim, 10.0, 14.0, 6, work=100.0),  # H0
        Span(sim, 14.0, 16.0, None, work=50.0),  # H1
        Span("radar.statistic_map_from_correlation", 14.0, 15.0, 8, work=50.0),
    ]
    got = layer_metrics(spans, {"channel.hbar_matrix": 4}, n_scenarios=2, root_s=20.0)
    assert set(got) == set(PER_LAYER) - {"trace.overhead_frac"}
    assert got["poweralloc.max_min_allocate.s"] == 5.0
    assert got["poweralloc.max_min_allocate.share"] == 0.5
    assert got["poweralloc.feasibility.calls"] == 1.0
    assert got["poweralloc.feasibility.feasible_frac"] == 0.5
    assert got["poweralloc.linprog.calls"] == 1.5
    assert got["poweralloc.linprog.retries"] == 0.5
    assert got["channel.hbar_matrix.calls"] == 2.0
    assert got[f"{sim}.s"] == 3.0
    assert got[f"{sim}.self_s"] == 2.5
    assert got[f"{sim}.trials"] == 75.0
    assert got["radar.statistic_map_from_correlation.maps"] == 25.0
    assert got["harness.experiments.pd_trial_frac"] == pytest.approx(50.0 / 150.0)
    assert got["estimation.estimate_all.s"] == 0.0


def test_installed_wraps_module_attributes_and_restores_them():
    poweralloc = importlib.import_module("jcsim.poweralloc")
    experiments = importlib.import_module("jcsim.harness.experiments")
    originals = (poweralloc.linprog, experiments.max_min_allocate)
    tracer = Tracer()
    with tracer.installed():
        assert poweralloc.linprog is not originals[0]
        assert poweralloc.linprog.__wrapped__ is originals[0]
        assert experiments.max_min_allocate.__wrapped__ is originals[1]
    assert (poweralloc.linprog, experiments.max_min_allocate) == originals
