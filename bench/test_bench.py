"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import re

import pytest

import compare
import run
import spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _steps(clock: FakeClock, layers: spans.LayerClock, script) -> None:
    """Run (time, "push"/"pop", layer) steps against the layer clock."""
    for at, op, layer in script:
        clock.now = at
        if op == "push":
            layers.push(layer)
        else:
            layers.pop()


def test_nested_span_self_time_excludes_children() -> None:
    clock = FakeClock()
    layers = spans.LayerClock(clock)
    _steps(clock, layers, [
        (0, "push", "load"), (1, "push", "crypto"), (3, "push", "cost"),
        (4, "pop", None), (6, "pop", None), (10, "pop", None),
    ])
    assert layers.self_s == {"load": 5.0, "crypto": 4.0, "cost": 1.0}
    assert layers.is_idle()


def test_same_layer_reentry_merges_into_the_open_span() -> None:
    clock = FakeClock()
    layers = spans.LayerClock(clock)
    _steps(clock, layers, [
        (0, "push", "crypto"), (1, "push", "crypto"), (2, "push", "cost"),
        (3, "pop", None), (4, "pop", None), (5, "pop", None),
    ])
    assert layers.self_s == {"crypto": 4.0, "cost": 1.0}


def test_layer_reentered_below_another_layer_gets_its_own_span() -> None:
    clock = FakeClock()
    layers = spans.LayerClock(clock)
    _steps(clock, layers, [
        (0, "push", "app"), (1, "push", "sgx"), (2, "push", "app"),
        (5, "pop", None), (6, "pop", None), (8, "pop", None),
    ])
    assert layers.self_s == {"app": 6.0, "sgx": 2.0}


def _pass(serve_s: float, marks, events: int = 10) -> run.Pass:
    return run.Pass(
        setup_s=0.1, serve_s=serve_s, marks=list(marks),
        dispatch_ms=[1.0] * (len(marks) - 1), reconcile_s=0.0, events=events,
        failed=0, digest="d", problems=[], modeled={},
    )


def test_bench_remainder_closes_the_sum_to_the_traced_wall() -> None:
    w = run.Workload("t", "routing", clients=1, batch=1, events=10, layers=())
    counts = run.LayerCounts(
        self_s={layer: 0.0 for layer in spans.LAYERS} | {"crypto": 3.0, "load": 4.5},
        layer_calls={layer: 0 for layer in spans.LAYERS},
        calls={}, bytes={}, cache_hits=0, cache_lookups=0,
    )
    traced = run.TracedPass(_pass(10.0, [2.0, 4.0, 10.0]), counts)
    untraced = [_pass(8.0, [1.5, 3.0, 8.0])]
    metrics = run.layer_metrics(w, [traced], untraced)
    assert metrics["bench.self_s"] == pytest.approx(2.5)
    total = metrics["bench.self_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in spans.LAYERS
    )
    assert total == pytest.approx(10.0)
    shares = metrics["bench.share"] + sum(
        metrics[f"{layer}.share"] for layer in spans.LAYERS
    )
    assert shares == pytest.approx(1.0)
    assert metrics["trace_overhead"] == pytest.approx(10.0 / 8.0 - 1.0)


def test_serve_estimate_takes_each_block_from_its_fastest_pass() -> None:
    slow_start = _pass(0, [3.0, 4.0])
    slow_end = _pass(0, [1.0, 5.0])
    assert run.serve_estimate([slow_start, slow_end]) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "n, p",
    [(6000, 99), (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90),
     (99, 80), (50, 80), (49, 50), (8, 50), (1, 50)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n: int, p: int) -> None:
    assert run.tail_percentile(n) == p


def test_metric_names_are_well_formed_and_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    per_layer = {
        f"{layer}.{kind}"
        for layer in list(spans.LAYERS) + ["bench"]
        for kind in ("self_s", "share", "calls")
    } - {"bench.calls"}
    assert per_layer <= set(run.PER_LAYER_UNITS)
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_emits_every_metric_at_one_fiftieth_scale(name: str) -> None:
    for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
        result, modeled = run.measure(
            run.WORKLOADS[name], seed=0, seconds=0, trace=trace, scale=50
        )
        assert result["correct"], modeled["problems"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(units)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
            assert math.isfinite(metric["value"])
    if name == "routing_observed":
        _result, routing = run.measure(
            run.WORKLOADS["routing"], seed=0, seconds=0, trace=False, scale=50
        )
        assert modeled["digest"] == routing["digest"]


def test_spans_restore_every_patched_name() -> None:
    from repro.crypto import mac
    from repro.net import channel

    original_fn = mac.hmac_sha256
    original_method = vars(channel.SecureRecordChannel)["protect"]
    with spans.installed(spans.LayerClock()):
        assert mac.hmac_sha256 is not original_fn
        assert vars(channel.SecureRecordChannel)["protect"] is not original_method
    assert mac.hmac_sha256 is original_fn
    assert vars(channel.SecureRecordChannel)["protect"] is original_method


def test_unresolvable_entry_point_fails_before_patching(monkeypatch) -> None:
    from repro.crypto import mac

    original = mac.hmac_sha256
    layers = dict(spans.LAYERS, crypto=spans.LAYERS["crypto"] + ("repro.crypto.mac:nope",))
    monkeypatch.setattr(spans, "LAYERS", layers)
    with pytest.raises(spans.SpanError, match="nope"):
        with spans.installed(spans.LayerClock()):
            pass
    assert mac.hmac_sha256 is original


def test_generators_cannot_be_spanned() -> None:
    def gen():
        yield 1

    with pytest.raises(spans.SpanError, match="generator"):
        spans._kind(gen, "x:gen")


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10, 10.1, 10.2, 9.9], [12, 12.1, 11.9, 12.2], "higher", "better"),
        ([10, 10.1, 10.2, 9.9], [8, 8.1, 7.9, 8.2], "higher", "worse"),
        ([10, 10.1, 10.2, 9.9], [10.05, 10.1, 9.95, 10.0], "higher", "within bound"),
        ([5, 10, 15, 20], [6, 11, 16, 19], "lower", "unresolved"),
        ([5, 6, 7, 8], [20, 30, 40, 50], "lower", "worse"),
    ],
)
def test_compare_verdicts(a, b, better, expected) -> None:
    assert compare.verdict(a, b, better, 0.1)[0] == expected


def test_observed_pins_equal_routing_pins() -> None:
    events = run.WORKLOADS["routing"].events
    for key, digest in run.PINNED_DIGESTS.items():
        name, _events, seed = key.split(":")
        if name == "routing_observed":
            assert digest == run.PINNED_DIGESTS[f"routing:{events}:{seed}"]
