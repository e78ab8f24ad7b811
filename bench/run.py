#!/usr/bin/env python3
"""The end-to-end load benchmark: five workloads, host metrics, layer spans.

Run one workload in this process; the last line printed is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``::

    python3 bench/run.py --workload routing --seed 0 --seconds 20 --trace 0

Run every workload ``--repeat`` times, each run in a fresh child
process one after another, and write all results to ``--out``
(``--trace 1`` adds one traced run per workload)::

    python3 bench/run.py --seed 1 --repeat 5 --out bench/out/a.json

A run repeats one *pass* of its workload until ``--seconds`` have gone
by.  Every pass serves the same seeded arrivals from a cold crypto
cache, so passes differ only in host noise.  A pass is timed in two
parts: set-up (building the backend and the arrival schedule, up to
the moment the engine starts serving) and serving (the rest, including
``obs.reconcile`` on the observed workload).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (after the path set-up)
from repro import obs  # noqa: E402
from repro.crypto import cache as crypto_cache  # noqa: E402
from repro.load.cohorts import run_load_cohorts  # noqa: E402
from repro.load.engine import run_load_engine  # noqa: E402
from repro.load.report import bench_json, validate_bench, weighted_percentile  # noqa: E402

SHARDS = 2
N_ASES = 24
#: A run always makes at least this many passes, so set-up is
#: measured several times and every block has several samples.
MIN_PASSES = 3
#: Serving time is split into this many blocks of dispatches.
BLOCKS = 64
#: Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99, 95, 90, 80)
#: A child run that takes longer than this has hung.
CHILD_TIMEOUT_S = 900

ENGINE_ENTRIES = (
    "repro.load.engine:LoadEngine.run",
    "repro.load.cohorts:CohortLoadEngine.run_stream",
)
DISPATCH_ENTRIES = (
    "repro.load.engine:_RoutingBackend.dispatch",
    "repro.load.engine:_TorBackend.dispatch",
    "repro.load.engine:_MiddleboxBackend.dispatch",
    "repro.load.cohorts:_CohortCache.dispatch",
)
#: Backend dispatches that execute for real (the cohort cache's own
#: dispatch replays instead when it hits).
EXECUTED_ENTRIES = DISPATCH_ENTRIES[:3]
PK_ENTRIES = (
    "repro.crypto.dh:generate_keypair",
    "repro.crypto.dh:shared_secret",
    "repro.crypto.rsa:rsa_sign",
    "repro.crypto.rsa:rsa_verify",
    "repro.crypto.rsa:generate_rsa_keypair",
    "repro.crypto.schnorr:schnorr_sign",
    "repro.crypto.schnorr:schnorr_verify",
)
ECALL_ENTRIES = (
    "repro.sgx.enclave:Enclave.ecall",
    "repro.sgx.enclave:Enclave.ecall_batch",
)
CHARGE_PREFIX = "repro.cost.accountant:CostAccountant.charge_"
RECORD_ENTRY = "repro.net.channel:SecureRecordChannel.protect"
TRANSMIT_ENTRY = "repro.net.network:Network.transmit"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix: which engine, how many clients, what batch."""

    name: str
    scenario: str
    clients: int
    batch: int
    #: events per pass
    events: int
    cohorts: bool = False
    observed: bool = False
    #: layers the traced run must see called while serving
    layers: Tuple[str, ...] = ("crypto", "sgx", "channel", "cost", "load", "app")


#: Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("routing", "routing", clients=1000, batch=8, events=6000),
        Workload(
            "routing_scale", "routing", clients=1_000_000, batch=1,
            events=10_000, cohorts=True,
        ),
        Workload(
            "tor", "tor", clients=1000, batch=1, events=8,
            layers=("crypto", "sgx", "channel", "kernel", "cost", "load", "app"),
        ),
        Workload(
            "middlebox", "middlebox", clients=1000, batch=4, events=128,
            layers=("crypto", "sgx", "channel", "kernel", "cost", "load", "app"),
        ),
        Workload(
            "routing_observed", "routing", clients=1000, batch=8, events=6000,
            observed=True,
            layers=("crypto", "sgx", "channel", "cost", "obs", "load", "app"),
        ),
    )
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: sha256 of each pass's bench_json, keyed "workload:events:seed".
PINNED_DIGESTS: Dict[str, str] = json.loads(
    (BENCH_DIR / "digests.json").read_text()
)


def tail_percentile(n: int) -> int:
    """The highest of p99/p95/p90/p80 with at least ten of ``n``
    samples beyond it (nearest rank); the median when none has."""
    for p in TAIL_PERCENTILES:
        rank = min(max(1, -(-p * n // 100)), n)
        if n - rank >= 10:
            return p
    return 50


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile, as the load report computes it."""
    return weighted_percentile([(v, 1) for v in sorted(values)], p)


class PassProbe:
    """Marks when the engine starts serving and when each dispatch ends.

    ``on_start`` runs at that moment, before the engine does any work.
    """

    def __init__(self) -> None:
        self.on_start: Optional[Callable[[], None]] = None
        self.reset()

    def reset(self) -> None:
        self.start: Optional[float] = None
        self.dispatch_starts: List[float] = []
        self.dispatch_ends: List[float] = []
        self._depth = 0

    def _engine(self, fn):
        def wrapper(*args, **kwargs):
            if self.on_start is not None:
                self.on_start()
            self.start = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapper

    def _dispatch(self, fn):
        def wrapper(*args, **kwargs):
            outer = not self._depth
            self._depth += 1
            if outer:
                self.dispatch_starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if outer:
                    self.dispatch_ends.append(time.perf_counter())

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as undo:
            for specs, make in ((ENGINE_ENTRIES, self._engine),
                                (DISPATCH_ENTRIES, self._dispatch)):
                for spec in specs:
                    for owner, name, fn, _entry in spans.resolve(spec):
                        undo.enter_context(spans.patched(owner, name, make(fn)))
            yield


@dataclasses.dataclass
class Pass:
    """What one pass measured and produced."""

    setup_s: float
    serve_s: float
    #: seconds from the engine start to the end of each dispatch, then
    #: to the end of serving
    marks: List[float]
    dispatch_ms: List[float]
    reconcile_s: float
    events: int
    failed: int
    digest: str
    problems: List[str]
    modeled: Dict[str, object]


def run_pass(w: Workload, seed: int, events: int, probe: PassProbe) -> Pass:
    """Serve ``events`` seeded arrivals once, from a cold crypto cache."""
    # Free the previous pass's reference cycles now, so neither its
    # memory nor its collection lands inside this pass.
    gc.collect()
    crypto_cache.clear_all()
    probe.reset()
    problems: List[str] = []
    reconcile_s = 0.0
    runner = run_load_cohorts if w.cohorts else run_load_engine
    kwargs = dict(
        n_clients=w.clients, n_shards=SHARDS, batch=w.batch, seed=seed,
        n_events=events, n_ases=N_ASES,
    )
    with probe.installed():
        begin = time.perf_counter()
        if w.observed:
            # The health path: metrics ride on the tracer, and the
            # trace is reconciled against the accountants at the end.
            tracer = obs.Tracer(metrics=obs.MetricsRegistry())
            with obs.tracing(tracer), tracer.span("load", kind="scenario"):
                result = runner(w.scenario, **kwargs)
            before = time.perf_counter()
            try:
                obs.reconcile(tracer)
            except (obs.ReconcileError, obs.MetricsReconcileError) as exc:
                problems.append(f"reconcile: {exc}")
            reconcile_s = time.perf_counter() - before
        else:
            result = runner(w.scenario, **kwargs)
        end = time.perf_counter()
    if probe.start is None:
        raise RuntimeError(f"{w.name}: the load engine never started")
    text = bench_json(result)
    doc = json.loads(text)
    problems += validate_bench(doc)
    digest = hashlib.sha256(text.encode()).hexdigest()
    pinned = PINNED_DIGESTS.get(f"{w.name}:{events}:{seed}")
    if pinned is not None and digest != pinned:
        problems.append(f"bench_json digest {digest} != pinned {pinned}")
    served = result.served
    tail = tail_percentile(served)
    failed = result.outcomes.get("failed", 0)
    return Pass(
        setup_s=probe.start - begin,
        serve_s=end - probe.start,
        marks=[t - probe.start for t in probe.dispatch_ends + [end]],
        dispatch_ms=[
            1e3 * (e - s)
            for s, e in zip(probe.dispatch_starts, probe.dispatch_ends)
        ],
        reconcile_s=reconcile_s,
        events=events,
        failed=failed,
        digest=digest,
        problems=problems,
        modeled={
            "latency_p50_cycles": result.percentile(50),
            "latency_tail_cycles": result.percentile(tail),
            "tail_percentile": tail,
            "latency_samples": served,
            "events_per_gcycle": doc["throughput"]["events_per_gcycle"],
            "crossings_per_event": doc["crossings"]["per_event"],
            "failed_share": failed / served if served else 0.0,
            "digest": digest,
        },
    )


def serve_estimate(passes: Sequence[Pass]) -> float:
    """Serving seconds of one pass with host noise filtered out.

    Every pass does the same work, so block k of one pass is the same
    dispatches as block k of another.  A block's time is taken from
    the pass that ran it fastest: neighbours on a shared host only
    ever slow a block down.
    """
    n = len(passes[0].marks)
    if any(len(p.marks) != n for p in passes):
        raise RuntimeError("passes dispatched different plans")
    blocks = min(BLOCKS, n)
    cuts = [round(k * n / blocks) for k in range(1, blocks + 1)]
    total = 0.0
    prev = 0
    for cut in cuts:
        total += min(
            p.marks[cut - 1] - (p.marks[prev - 1] if prev else 0.0)
            for p in passes
        )
        prev = cut
    return total


def lower_median(items: Sequence, key: Callable):
    """The item whose ``key`` is the median (the lower one of two)."""
    return sorted(items, key=key)[(len(items) - 1) // 2]


@dataclasses.dataclass
class LayerCounts:
    """Cumulative span and call counters at one moment of a traced pass."""

    self_s: Dict[str, float]
    layer_calls: Dict[str, int]
    calls: Dict[str, int]
    bytes: Dict[str, int]
    cache_hits: int
    cache_lookups: int

    @classmethod
    def read(cls, clock: spans.LayerClock,
             stats: Dict[str, spans.EntryStats]) -> "LayerCounts":
        layer_calls = {layer: 0 for layer in spans.LAYERS}
        for s in stats.values():
            layer_calls[s.layer] += s.calls
        hits = lookups = 0
        for entry in crypto_cache.cache_stats().values():
            hits += entry["hits"]
            lookups += entry["hits"] + entry["misses"]
        return cls(
            self_s={layer: clock.self_s.get(layer, 0.0) for layer in spans.LAYERS},
            layer_calls=layer_calls,
            calls={e: s.calls for e, s in stats.items()},
            bytes={e: s.bytes for e, s in stats.items()},
            cache_hits=hits,
            cache_lookups=lookups,
        )

    def __sub__(self, base: "LayerCounts") -> "LayerCounts":
        return LayerCounts(
            self_s={k: v - base.self_s[k] for k, v in self.self_s.items()},
            layer_calls={k: v - base.layer_calls[k] for k, v in self.layer_calls.items()},
            calls={k: v - base.calls[k] for k, v in self.calls.items()},
            bytes={k: v - base.bytes[k] for k, v in self.bytes.items()},
            cache_hits=self.cache_hits - base.cache_hits,
            cache_lookups=self.cache_lookups - base.cache_lookups,
        )


@dataclasses.dataclass
class TracedPass:
    run: Pass
    #: what the pass did while serving
    counts: LayerCounts


def run_traced_pass(w: Workload, seed: int, events: int,
                    probe: PassProbe) -> TracedPass:
    """One pass under layer spans; the counts cover serving only."""
    clock = spans.LayerClock()
    at_start: List[LayerCounts] = []
    with spans.installed(clock) as stats:
        def snapshot() -> None:
            if not clock.is_idle():
                raise spans.SpanError("a span is open when serving starts")
            at_start.append(LayerCounts.read(clock, stats))

        probe.on_start = snapshot
        try:
            run = run_pass(w, seed, events, probe)
        finally:
            probe.on_start = None
        return TracedPass(run, LayerCounts.read(clock, stats) - at_start[0])


def layer_metrics(w: Workload, traced: Sequence[TracedPass],
                  untraced: Sequence[Pass]) -> Dict[str, float]:
    """Per-layer metrics of the median traced pass."""
    median = lower_median(traced, key=lambda p: p.run.serve_s)
    t, c = median.run, median.counts
    wall = t.serve_s
    events = t.events
    for layer in w.layers:
        if not c.layer_calls[layer]:
            raise spans.SpanError(
                f"{w.name}: layer '{layer}' recorded no calls while serving"
            )

    def per_event(entries: Sequence[str]) -> float:
        return sum(c.calls.get(e, 0) for e in entries) / events

    out: Dict[str, float] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = c.self_s[layer]
        out[f"{layer}.share"] = c.self_s[layer] / wall
        out[f"{layer}.calls"] = c.layer_calls[layer]
    bench_s = wall - sum(c.self_s.values())
    out["bench.self_s"] = bench_s
    out["bench.share"] = bench_s / wall
    out["crypto.pk_ops_per_event"] = per_event(PK_ENTRIES)
    out["crypto.cache_hit_ratio"] = (
        c.cache_hits / c.cache_lookups if c.cache_lookups else 0.0
    )
    out["channel.records_per_event"] = per_event((RECORD_ENTRY,))
    out["channel.bytes_per_event"] = c.bytes.get(RECORD_ENTRY, 0) / events
    out["sgx.ecalls_per_event"] = per_event(ECALL_ENTRIES)
    planned = len(t.dispatch_ms)
    executed = sum(c.calls.get(e, 0) for e in EXECUTED_ENTRIES)
    out["load.cohort_hit_ratio"] = 1.0 - executed / planned
    out["cost.charges_per_event"] = per_event(
        [e for e in c.calls if e.startswith(CHARGE_PREFIX)]
    )
    out["obs.reconcile_s"] = t.reconcile_s
    out["kernel.transmits_per_event"] = per_event((TRANSMIT_ENTRY,))
    durations = lower_median(untraced, key=lambda p: p.serve_s).dispatch_ms
    out["load.dispatch_ms_p50"] = percentile(durations, 50)
    out["load.dispatch_ms_tail"] = percentile(
        durations, tail_percentile(len(durations))
    )
    out["trace_overhead"] = (
        serve_estimate([p.run for p in traced]) / serve_estimate(untraced) - 1.0
    )
    return out


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            scale: int = 1) -> Tuple[dict, Dict[str, object]]:
    """Run passes for ``seconds``; return (driver result, modeled outputs).

    ``scale`` divides the pass size (tests run at 1/50).
    """
    events = max(1, w.events // scale)
    probe = PassProbe()
    untraced: List[Pass] = []
    traced: List[TracedPass] = []
    began = time.perf_counter()
    while True:
        t = time.perf_counter()
        if trace and len(traced) < len(untraced):
            traced.append(run_traced_pass(w, seed, events, probe))
        else:
            untraced.append(run_pass(w, seed, events, probe))
        now = time.perf_counter()
        # Stop once another pass would overrun the budget.
        fewest = min(len(untraced), len(traced)) if trace else len(untraced)
        if fewest >= MIN_PASSES and now - began + (now - t) > seconds:
            break
    passes = untraced + [p.run for p in traced]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"passes disagree on bench_json: {sorted(digests)}")
    if trace:
        metrics = layer_metrics(w, traced, untraced)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "events_per_s": events / serve_estimate(untraced),
            "setup_s": statistics.median(p.setup_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": sum(p.events for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    modeled = dict(passes[0].modeled, passes=len(passes), problems=problems)
    return result, modeled


def _run_one(args: argparse.Namespace) -> int:
    result, modeled = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1
    )
    for msg in modeled["problems"]:  # type: ignore[union-attr]
        print(f"FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print("modeled " + json.dumps(modeled, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; its result plus its modeled outputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(ROOT),
    )
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}"
        )
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("modeled "):
            out["modeled"] = json.loads(line[len("modeled "):])
    return out


def _orchestrate(args: argparse.Namespace) -> int:
    report: Dict[str, object] = {
        "seed": args.seed, "seconds": args.seconds, "runs": {}, "layers": {},
    }
    ok = True
    for name in WORKLOADS:
        runs = [_child(name, args.seed, args.seconds, 0) for _ in range(args.repeat)]
        report["runs"][name] = runs  # type: ignore[index]
        ok &= all(r["correct"] for r in runs)
        for metric, unit in END_TO_END_UNITS.items():
            median = statistics.median(r["metrics"][metric]["value"] for r in runs)
            print(f"{name:18s} {metric:14s} {median:.6g} {unit}", flush=True)
        if args.trace:
            traced = _child(name, args.seed, args.seconds, 1)
            report["layers"][name] = traced  # type: ignore[index]
            ok &= traced["correct"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per workload when no --workload is given")
    parser.add_argument("--out", default="bench/out/runs.json",
                        help="where the runs of every workload are written")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return _run_one(args)
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
