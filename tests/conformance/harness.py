"""The knob lattice: one switch per wall-clock fast path, and its oracle.

Every fast path in the package is an optimization only: whatever a run
models (report bytes, integer counters, fault logs, traces and health
series) must be byte-identical with each fast path on or off, alone
and in any combination.  This module is where the test suite flips
them together.  A :class:`Knobs` vector names one point of the
lattice, :func:`applied` puts the process at that point, and
:func:`outputs` runs a scenario there and returns everything it
modeled, digested per field.  The crypto caches flip through the
package's own switch; burst charging, the event kernel and the DPI
walk flip by swapping in the frozen oracles of ``tests/oracles/``
(for ``CostAccountant.charge_burst``, :func:`repro.net.sim.create`
and ``dpi.AhoCorasick``).

The all-oracle vector :data:`ORACLE` runs the frozen reference kernel,
per-field charging, cold crypto and the frozen reference automaton walk
without the cohort memo.  :func:`assert_matches` compares a sample with
that vector (or another baseline), reusing baseline runs across
samples.

Program-level suites (kernel, rings, DPI) take their example budgets
from :func:`examples`, so ``--hypothesis-profile`` scales them all.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
from typing import Callable, Dict, Optional

from hypothesis import settings
from hypothesis import strategies as st

from repro import experiments, faults, obs
from repro.cost import CostAccountant
from repro.cost import context as cost_context
from repro.crypto import cache
from repro.errors import ReproError
from repro.load.cohorts import run_load_cohorts
from repro.load.engine import run_load_engine
from repro.load.report import bench_json
from repro.middlebox import dpi
from repro.net import sim
from repro.obs.metrics import MetricsRegistry, openmetrics_timeseries
from repro.obs.slo import (
    export_health_timeseries,
    format_health_report,
    run_health,
)
from tests.oracles import sim_reference
from tests.oracles.charge_reference import charge_burst_per_field
from tests.oracles.dpi_reference import ReferenceAhoCorasick


def examples(n: int) -> int:
    """``n`` examples under the default profile, scaled with the loaded one."""
    base = settings.get_profile("default").max_examples
    return max(1, n * settings().max_examples // base)


@dataclasses.dataclass(frozen=True)
class Knobs:
    """One point of the lattice; the defaults are the shipped fast paths."""

    kernel: str = "fast"  # or "reference": the frozen heap scheduler
    burst: bool = True  # CostAccountant.charge_burst coalescing
    caches: bool = True  # crypto.cache memos and tables, warm or cold
    memo: bool = False  # the load engine's cohort dispatch memo
    dpi: str = "compiled"  # or "reference": the frozen automaton walk
    observer: str = "none"  # or "tracer", or "metrics" (a metered tracer)


ORACLE = Knobs(kernel="reference", burst=False, caches=False, dpi="reference")

KNOBS = st.builds(
    Knobs,
    kernel=st.sampled_from(["fast", "reference"]),
    burst=st.booleans(),
    caches=st.booleans(),
    memo=st.booleans(),
    dpi=st.sampled_from(["compiled", "reference"]),
    observer=st.sampled_from(["none", "tracer", "metrics"]),
)

_COMPILED = dpi.AhoCorasick
_KERNELS = {"fast": sim.create, "reference": sim_reference.Simulator}
_BURST = CostAccountant.charge_burst


class _ReferenceWalk(_COMPILED):
    """The compiled automaton with its plain walk swapped for the frozen
    reference walker.  EPC-resident scans (``search_paged``) stay
    compiled: only they model page touches."""

    def __init__(self, patterns, layout="hot-first"):
        super().__init__(patterns, layout=layout)
        self.search = self.scan = ReferenceAhoCorasick(patterns).search


_OBSERVERS = {
    "none": lambda: None,
    "tracer": obs.Tracer,
    "metrics": lambda: obs.Tracer(metrics=MetricsRegistry()),
}


@contextlib.contextmanager
def applied(knobs: Knobs):
    """Run the block at ``knobs``; yields the observer's tracer or None."""
    create = _KERNELS[knobs.kernel]  # an unknown name changes nothing
    prior_create, prior_walk = sim.create, dpi.AhoCorasick
    prior_burst = CostAccountant.charge_burst
    CostAccountant.charge_burst = _BURST if knobs.burst else charge_burst_per_field
    dpi.AhoCorasick = _ReferenceWalk if knobs.dpi == "reference" else _COMPILED
    sim.create = create
    try:
        with contextlib.nullcontext() if knobs.caches else cache.disabled():
            yield _OBSERVERS[knobs.observer]()
    finally:
        sim.create, dpi.AhoCorasick = prior_create, prior_walk
        CostAccountant.charge_burst = prior_burst


def without_cohort_families(text: str) -> str:
    """Drop the memo's own ``load_cohort_*`` lines from an export."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if "load_cohort_" not in line
    )


# -- scenarios: (seed, memo, tracer) -> {field: modeled output} -------------

Scenario = Callable[[int, bool, Optional[obs.Tracer]], Dict[str, object]]


def table(run, fmt) -> Scenario:
    return lambda seed, memo, tracer: {"report": fmt(run(trace=tracer))}


def load(app: str, clients: int, shards: int, batch: int,
         regions: Optional[int] = None) -> Scenario:
    def scenario(seed, memo, tracer):
        runner = run_load_cohorts if memo else run_load_engine
        with experiments._traced(tracer, "load"):
            result = runner(app, clients, shards, batch, seed, regions=regions)
        return {
            "report": bench_json(result),
            "steady_counters": result.steady_counters,
            "shard_stats": result.shard_stats,
            "outcomes": result.outcomes,
        }

    return scenario


def fault_scenario(app: str) -> Scenario:
    def scenario(seed, memo, tracer):
        with experiments._traced(tracer, "faults"):
            return {"fingerprint": experiments.run_fault_scenario(app)}

    return scenario


def health(batch: int) -> Scenario:
    """``python -m repro health routing --batch B``: always metered."""

    def scenario(seed, memo, tracer):
        report = run_health("routing", seed=seed, batch=batch, cohorts=memo)
        return {
            "verdict": without_cohort_families(format_health_report(report)),
            "trace": obs.trace_event_json(report.tracer),
            "health": without_cohort_families(
                export_health_timeseries(report)
            ),
        }

    return scenario


@cache.memoize_charged(name="lattice-leaf")
def _leaf(normal: int, sgx: int, crossings: int, switchless: int) -> int:
    """A memoized leaf charging each counter field: its replays land
    every field through one ``charge_burst``, which the ``burst=False``
    arm charges field by field."""
    cost_context.charge_normal(normal)
    cost_context.charge_sgx(sgx)
    cost_context.current_accountant().charge_crossing(crossings)
    cost_context.charge_allocation(crossings)
    cost_context.charge_switchless(switchless)
    return normal


def charges(seed, memo, tracer):
    """A seeded stream of leaf calls, repeating often enough to hit."""
    rng = random.Random(seed)
    with experiments._traced(tracer, "charges"):
        acct = CostAccountant("charges")
        with cost_context.use_accountant(acct), acct.attribute("enclave:leaf"):
            for _ in range(300):
                _leaf(rng.choice([0, 7, 90_000, 400_000]), rng.randrange(3),
                      rng.randrange(2), rng.randrange(3))
    return {"counters": {d: c.as_dict() for d, c in acct.domains().items()}}


#: What the lattice property samples.
SCENARIOS: Dict[str, Scenario] = {
    "table1": table(experiments.run_table1, experiments.format_table1),
    "table2": table(experiments.run_table2, experiments.format_table2),
    "table3": table(experiments.run_table3, experiments.format_table3),
    "table4": table(
        lambda trace: experiments.run_table4(
            n_ases=8, seed=b"golden", trace=trace
        ),
        lambda r: experiments.format_table4(*r),
    ),
    "switchless": table(
        lambda trace: experiments.run_switchless_ablation(
            batch_sizes=(1, 10), n_ocalls=20, trace=trace
        ),
        experiments.format_switchless_ablation,
    ),
    "charges": charges,
    "load routing": load("routing", 40, 3, 4),
    "load routing tree": load("routing", 40, 4, 2, regions=2),
    "load tor": load("tor", 8, 2, 4),
    "load middlebox": load("middlebox", 24, 2, 4),
    **{f"faults {app}": fault_scenario(app)
       for app in experiments.FAULT_SCENARIOS},
}

#: Shapes pinned as explicit examples instead of sampled.
PINNED: Dict[str, Scenario] = {
    # python -m repro load routing --clients 1000 --shards 2 --batch 8
    "load routing 1000": load("routing", 1000, 2, 8),
    "health routing batch 1": health(1),
    "health routing batch 8": health(8),
}


# -- running and comparing --------------------------------------------------


def _digest(value: object) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(value.encode()).hexdigest()


def outputs(scenario: Scenario, seed: int, fault: Optional[str],
            knobs: Knobs) -> Dict[str, str]:
    """Run one sample; returns the digest of each modeled output."""
    plan = faults.matrix_plan(fault, seed) if fault else None
    with applied(knobs) as tracer:
        try:
            with faults.active(plan) if plan else contextlib.nullcontext():
                out = scenario(seed, knobs.memo, tracer)
            out["outcome"] = "ok"
        except ReproError as exc:
            out = {"outcome": type(exc).__name__}
    if fault is None and "outcomes" in out:
        # A fault-free load run serves every event, at any knob setting.
        assert set(out["outcomes"]) == {"ok"}, out["outcomes"]
    if plan is not None:
        out["fault_log"] = plan.log.digest()
    if tracer is not None:
        out["trace"] = obs.trace_event_json(tracer)
        if tracer.metrics is not None:
            out["health"] = without_cohort_families(
                openmetrics_timeseries(tracer.metrics)
            )
    return {name: _digest(value) for name, value in out.items()}


_BASELINES: Dict[tuple, Dict[str, str]] = {}


def _baseline(scenario: Scenario, seed, fault, knobs) -> Dict[str, str]:
    key = (scenario, seed, fault, knobs)
    if key not in _BASELINES:
        _BASELINES[key] = outputs(scenario, seed, fault, knobs)
    return _BASELINES[key]


def assert_matches(scenario: Scenario, seed: int, fault: Optional[str],
                   knobs: Knobs, baseline: Knobs = ORACLE) -> None:
    """The sample at ``knobs`` equals ``baseline`` on every output.

    Report fields compare with the unobserved baseline, so observing
    must not perturb them; trace and health fields compare with the
    baseline under the same observer.
    """
    expected = dict(_baseline(
        scenario, seed, fault,
        dataclasses.replace(baseline, memo=False, observer="none"),
    ))
    if knobs.observer != "none":
        observed = _baseline(
            scenario, seed, fault,
            dataclasses.replace(baseline, memo=False, observer=knobs.observer),
        )
        expected.update(
            (name, observed[name]) for name in ("trace", "health")
            if name in observed
        )
    got = outputs(scenario, seed, fault, knobs)
    diverged = sorted(
        name for name in got.keys() | expected.keys()
        if got.get(name) != expected.get(name)
    )
    assert not diverged, (
        f"{', '.join(diverged)} diverged from {baseline} at {knobs} "
        f"(seed {seed}, fault {fault})"
    )
