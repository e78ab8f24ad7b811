"""Every fast path, in any combination, models exactly what the oracle does.

One property samples a scenario, a seed, a fault class and a knob
vector, and holds the sample byte-identical to the all-oracle vector
(see harness.py).  A second property samples the modeled mechanisms
(rings, switchless, EPC-resident DPI tables), which change charges by
design, under the fault-matrix contract instead: the application
result equals the fault-free one, or the run stops with a typed
``repro.errors`` exception.

A failing sample prints a ``@reproduce_failure`` blob; under the
``nightly`` profile it is also kept in the ``.hypothesis/`` example
database and replayed first on the next run.
"""

import contextlib

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.errors import ReproError
from repro.middlebox.scenarios import MiddleboxScenario
from repro.tor.deployment import TorDeployment, TorDeploymentConfig
from tests.conformance.harness import (
    KNOBS,
    PINNED,
    SCENARIOS,
    Knobs,
    applied,
    assert_matches,
    examples,
)

FAULTS = st.sampled_from([None] + sorted(faults.FAULT_CLASSES))
SEEDS = st.integers(min_value=0, max_value=3)
LATTICE = settings(
    max_examples=examples(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pinned(test):
    """Pin every table, and the burst knob's one reachable composition
    (charge_burst against the per-field sequence), on the shipped fast
    paths under a metered tracer; then the shapes CI used to diff by
    hand, with and without the memo."""
    for name in ("charges", "table1", "table2", "table3", "table4",
                 "switchless"):
        test = example(
            scenario=name, seed=0, fault=None, knobs=Knobs(observer="metrics")
        )(test)
    pins = [("load routing 1000", 0)] + [
        (f"health routing batch {batch}", seed)
        for batch in (1, 8) for seed in (0, 1)
    ]
    for name, seed in pins:
        for memo in (False, True):
            test = example(
                scenario=name, seed=seed, fault=None, knobs=Knobs(memo=memo)
            )(test)
    return test


@LATTICE
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    seed=SEEDS,
    fault=FAULTS,
    knobs=KNOBS,
)
@_pinned
def test_sample_matches_oracle(scenario, seed, fault, knobs):
    runner = SCENARIOS.get(scenario) or PINNED[scenario]
    assert_matches(runner, seed, fault, knobs)


# -- modeled mechanisms: the fault-matrix contract --------------------------


def _app_result(app, rings, switchless, epc):
    """The A9 fault-matrix apps (experiments.run_fault_scenario), with
    each mechanism switchable instead of always on."""
    if app == "tor":
        deployment = TorDeployment(
            TorDeploymentConfig(
                phase=2, n_relays=4, n_exits=4, n_authorities=2,
                seed=b"fault-matrix-tor", rings=rings,
            )
        )
        outcome = deployment.run_client_request(payload=b"GET /faults")
        return outcome["reply"], outcome["intact"]
    result = MiddleboxScenario(
        n_middleboxes=2,
        rules=[("r", b"NOMATCH", "alert")],
        seed=b"fault-matrix-mbox",
        switchless=switchless,
        rings=rings,
        epc_dpi=epc,
    ).run([b"hello", b"fault-injection"], pipeline=True)
    return result.replies, result.blocked


_FAULT_FREE = {}


@LATTICE
@given(
    app=st.sampled_from(["tor", "middlebox"]),
    rings=st.booleans(),
    switchless=st.booleans(),
    epc=st.booleans(),
    seed=SEEDS,
    fault=FAULTS,
    knobs=KNOBS,
)
def test_mechanisms_keep_app_results(
    app, rings, switchless, epc, seed, fault, knobs
):
    if app not in _FAULT_FREE:
        _FAULT_FREE[app] = _app_result(app, False, False, False)
    plan = faults.matrix_plan(fault, seed) if fault else None
    active = faults.active(plan) if plan else contextlib.nullcontext()
    with applied(knobs) as tracer, obs.tracing(tracer), active:
        try:
            result = _app_result(app, rings, switchless, epc)
        except ReproError:
            assert fault is not None, "a fault-free run failed"
            return
    assert result == _FAULT_FREE[app], "application result diverged"
