"""Differential scheduler-conformance suite: fast kernel vs reference.

The fast two-lane calendar-queue kernel (:mod:`repro.net.sim`) must be
*observationally identical* to the frozen pre-rewrite heap scheduler
(:mod:`tests.oracles.sim_reference`).  Hypothesis generates small
process/queue/timeout programs; an interpreter runs each program
lock-step on both kernels and the observation logs must match exactly:

* event execution order and the simulated clock at every step;
* queue deliveries, timeout firings, join results and re-raised
  process exceptions (type and message);
* ``run()`` return value, final ``now``, orphan-failure aborts;
* the per-domain integer cost counters charged by the program
  (``CostAccountant`` with exact-integer reconciliation is the
  oracle — any divergence in execution order shows up as a
  different counter total).

Budget: 25 generated programs per property under the default
hypothesis profile, scaled by ``--hypothesis-profile`` (see
tests/conformance/harness.py); the ``slow``-marked variant runs 8x
that on deeper programs.  A falsified program prints its
``@reproduce_failure`` blob.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.accountant import CostAccountant
from repro.errors import SimTimeout
from repro.net import sim
from tests.conformance.harness import examples
from tests.oracles import sim_reference

EXAMPLES = examples(25)

_SPAWN_BUDGET = 16  # bounds mutually-recursive spawn ops

# -- the program interpreter ------------------------------------------------
#
# A program is a list of process specs; a spec is a list of ops:
#   ("sleep", dt)          yield sim.sleep(dt)
#   ("yield",)             yield None (zero-delay reschedule)
#   ("put", q)             put onto queue q
#   ("get", q, timeout)    blocking get (timeout may be None)
#   ("spawn", spec_idx)    launch a fresh instance of program[spec_idx]
#   ("join", k)            yield the k-th process spawned so far
#   ("return", v)          finish early with result v
#   ("raise",)             die with ValueError (orphan unless joined)
#
# The interpreter is deliberately kernel-agnostic: it only uses the
# public Simulator/MessageQueue/Process API, so the same closure tree
# drives both kernels and every observable difference is the kernel's.


def run_program(sim_mod, program, until=None, max_events=10_000_000):
    simulator = sim_mod.Simulator()
    accountant = CostAccountant("conformance")
    queues = [simulator.queue(f"q{i}") for i in range(2)]
    log = []
    spawned = []
    budget = [_SPAWN_BUDGET]
    pids = itertools.count()

    def launch(spec_idx):
        pid = next(pids)
        process = simulator.spawn(body(program[spec_idx], pid), f"p{pid}")
        spawned.append(process)
        return process

    def body(spec, pid):
        domain = f"dom{pid % 3}"
        for step, op in enumerate(spec):
            log.append(("at", pid, step, op[0], simulator.now))
            kind = op[0]
            with accountant.attribute(domain):
                accountant.charge_normal(1)
                if kind == "sleep":
                    accountant.charge_sgx(2)
                elif kind == "put":
                    accountant.charge_crossing()
            if kind == "sleep":
                yield simulator.sleep(op[1])
            elif kind == "yield":
                yield None
            elif kind == "put":
                queues[op[1] % len(queues)].put((pid, step))
            elif kind == "get":
                try:
                    item = yield queues[op[1] % len(queues)].get(timeout=op[2])
                    log.append(("got", pid, step, item, simulator.now))
                except SimTimeout as exc:
                    log.append(("timeout", pid, step, str(exc), simulator.now))
            elif kind == "spawn":
                if budget[0] > 0:
                    budget[0] -= 1
                    launch(op[1] % len(program))
            elif kind == "join":
                if not spawned:
                    continue
                target = spawned[op[1] % len(spawned)]
                try:
                    result = yield target
                    log.append(("joined", pid, step, result, simulator.now))
                except Exception as exc:  # noqa: BLE001 - logged verbatim
                    log.append(
                        ("join-raised", pid, step, type(exc).__name__, str(exc))
                    )
            elif kind == "return":
                return op[1]
            elif kind == "raise":
                raise ValueError(f"boom-{pid}-{step}")

    for spec_idx in range(len(program)):
        launch(spec_idx)

    exc_obs = None
    returned = None
    try:
        returned = simulator.run(until=until, max_events=max_events)
    except Exception as exc:  # noqa: BLE001 - normalized below
        if "exceeded" in str(exc):
            # The kernels word their exhaustion reports differently (the
            # fast one names the oldest runnable process); conformance
            # only requires that both give up after the same event.
            exc_obs = ("exhausted",)
        else:
            cause = exc.__cause__
            exc_obs = (
                type(exc).__name__,
                str(exc),
                type(cause).__name__ if cause is not None else None,
                str(cause) if cause is not None else None,
            )
    return {
        "log": log,
        "returned": returned,
        "now": simulator.now,
        "exc": exc_obs,
        "queue_depths": [len(q) for q in queues],
        "alive": [p.alive for p in spawned],
        "results": [(p.result, type(p.error).__name__ if p.error else None)
                    for p in spawned],
        "counters": {
            domain: counter.as_dict()
            for domain, counter in accountant.domains().items()
        },
    }


def assert_conformant(program, until=None, max_events=10_000_000):
    fast = run_program(sim, program, until=until, max_events=max_events)
    reference = run_program(
        sim_reference, program, until=until, max_events=max_events
    )
    assert fast == reference


# -- generated programs -----------------------------------------------------

# Heavy repetition in the pools forces same-timestamp collisions, and
# 1e-18 exercises the float-underflow path (now + dt == now for now
# large enough), which the fast kernel must route to its now-lane.
_dt = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 3.0, 1e-18])
_timeout = st.sampled_from([None, None, 0.0, 0.25, 0.5, 1.0])
_queue_idx = st.integers(min_value=0, max_value=1)

_op = st.one_of(
    st.tuples(st.just("sleep"), _dt),
    st.tuples(st.just("yield")),
    st.tuples(st.just("put"), _queue_idx),
    st.tuples(st.just("get"), _queue_idx, _timeout),
    st.tuples(st.just("spawn"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("join"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("return"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("raise")),
)
_program = st.lists(
    st.lists(_op, max_size=8), min_size=1, max_size=4
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(program=_program)
def test_property_generated_programs_conform(program):
    assert_conformant(program)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    program=_program,
    until=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
)
def test_property_bounded_runs_conform(program, until):
    assert_conformant(program, until=until)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    program=_program,
    max_events=st.sampled_from([1, 5, 12, 40]),
)
def test_property_exhaustion_conforms(program, max_events):
    assert_conformant(program, max_events=max_events)


@pytest.mark.slow
@settings(max_examples=EXAMPLES * 8, deadline=None)
@given(
    program=st.lists(st.lists(_op, max_size=12), min_size=1, max_size=6),
    until=st.one_of(st.none(), st.sampled_from([0.5, 1.0, 4.0])),
)
def test_property_deep_programs_conform(program, until):
    assert_conformant(program, until=until)


# -- deterministic conformance pins ----------------------------------------
#
# Named scenarios the rewrite is most likely to get subtly wrong; each
# runs through the same differential harness so both kernels are pinned.


def test_same_timestamp_fifo_order():
    """Zero-delay wakeups interleaved with equal-time sleeps execute in
    scheduling order, never sorted or batched out of order."""
    assert_conformant(
        [
            [("yield",), ("sleep", 1.0), ("put", 0)],
            [("sleep", 1.0), ("yield",), ("put", 0)],
            [("sleep", 1.0), ("sleep", 0.0), ("get", 0, None), ("get", 0, None)],
        ]
    )


def test_timeout_vs_delivery_tie():
    """A put and a get-timeout on the same timestamp (the PR 2 fix)."""
    assert_conformant(
        [
            [("sleep", 1.0), ("put", 0)],
            [("get", 0, 1.0)],
        ]
    )


def test_join_result_and_exception():
    assert_conformant(
        [
            [("spawn", 1), ("spawn", 2), ("join", 1), ("join", 2)],
            [("sleep", 0.5), ("return", 3)],
            [("sleep", 0.25), ("raise",)],
        ]
    )


def test_orphan_failure_aborts_identically():
    assert_conformant([[("sleep", 0.5)], [("sleep", 0.25), ("raise",)]])


def test_until_time_creep_from_stale_timeout():
    """A satisfied get leaves its (stale) timeout scheduled; both
    kernels let it creep the clock forward rather than cancelling."""
    assert_conformant(
        [
            [("get", 0, 5.0)],
            [("sleep", 1.0), ("put", 0)],
        ]
    )
    # And the creep interacts with until the same way on both sides.
    assert_conformant(
        [
            [("get", 0, 5.0)],
            [("sleep", 1.0), ("put", 0)],
        ],
        until=3.0,
    )


def test_exhaustion_conformance_and_typed_error():
    program = [[("yield",)] * 6 for _ in range(3)]
    assert_conformant(program, max_events=7)

    # The fast kernel's exhaustion error is the typed SimError.
    simulator = sim.Simulator()

    def spinner():
        while True:
            yield None

    simulator.spawn(spinner(), "spinner")
    with pytest.raises(sim.SimError, match="exceeded 7 events"):
        simulator.run(max_events=7)


def test_interrupt_conforms():
    def scenario(sim_mod):
        simulator = sim_mod.Simulator()
        log = []

        def sleeper():
            try:
                yield simulator.sleep(10.0)
                log.append("woke")
            except Exception as exc:  # noqa: BLE001
                log.append((type(exc).__name__, str(exc)))

        def killer(victim):
            yield simulator.sleep(1.0)
            victim.interrupt("stopped by host")

        victim = simulator.spawn(sleeper(), "victim")
        watcher = simulator.spawn(killer(victim), "killer")
        end = simulator.run()
        return log, end, victim.alive, watcher.alive

    assert scenario(sim) == scenario(sim_reference)
    log, end, victim_alive, _ = scenario(sim)
    assert log == [("NetworkError", "stopped by host")]
    # The stale 10s sleep entry still creeps the clock (reference
    # semantics: nothing is ever cancelled).
    assert end == 10.0
    assert not victim_alive
