"""Ring-conformance differential suite (sync mode vs async mode).

Hypothesis generates random ocall programs — interleavings of calls
carrying their own modeled payload cost, reap barriers and flushes —
and runs each program through BOTH modes of ``RingPair``:

* **sync** (switchless calls): ``call`` enqueues, harvests and reads;
* **async**: ``submit`` N descriptors, harvest and reap later.

The contract asserted for every program:

1. **identical results** — each call's return value, keyed by ticket;
2. **identical final state** — the payload side-effect log, in order
   (rings service strictly in submission order);
3. **integer-equal cost counters modulo the modeled boundary layer** —
   subtract each arm's boundary-layer charges (computed exactly from
   its stats x its mode's ``CostModel`` constants, never measured) and the
   remaining payload cost must match to the instruction;
4. **exact reconciliation** — a traced ring arm's span tree must
   account for every charged instruction (``obs.reconcile``).

Budget: 25 programs under the default hypothesis profile, scaled by
``--hypothesis-profile`` (see tests/conformance/harness.py).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cost import DEFAULT_MODEL
from repro.cost import context as cost_context
from repro.crypto.drbg import Rng
from repro.sgx import RingPair, SgxPlatform
from tests.conformance.harness import examples

ENCLAVE_DOMAIN = "enclave:conformance"


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------

# A program is a list of:
#   ("call", value)  — one async-able ocall carrying value-dependent cost
#   ("barrier",)     — reap every outstanding ticket (in order)
#   ("flush",)       — service the ring without reaping (sync: no-op)
_program = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("barrier")),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=60,
)
_geometry = st.fixed_dictionaries(
    {
        "harvest_depth": st.integers(min_value=1, max_value=10),
        "capacity": st.integers(min_value=1, max_value=8),
    }
)


def _payload(log, value):
    """The ocall body: value-dependent modeled cost + a side effect."""
    cost_context.charge_normal(23 + 7 * (value % 13))
    log.append(value)
    return value * value + 1


# ---------------------------------------------------------------------------
# The two arms
# ---------------------------------------------------------------------------


def _run_sync(program):
    """The sync mode: every call completes synchronously, inline."""
    platform = SgxPlatform("conf-sync", rng=Rng(b"conf-sync"))
    queue = RingPair(platform, "ocall", ENCLAVE_DOMAIN, mode="sync", worker=True)
    log = []
    results = {}
    ticket = 0
    before = platform.accountant.snapshot()
    for op in program:
        if op[0] == "call":
            results[ticket] = queue.call(_payload, (log, op[1]))
            ticket += 1
        # barrier/flush: nothing in flight, nothing to do.
    total = _sum_counters(platform.accountant.delta(before))
    return results, log, total, queue.stats


def _run_rings(program, geometry, tracer=None):
    """The async regime: post, then harvest at barriers/boundaries."""
    with obs.tracing(tracer) if tracer is not None else _null_context():
        platform = SgxPlatform("conf-rings", rng=Rng(b"conf-rings"))
        ring = RingPair(
            platform,
            "ocall",
            ENCLAVE_DOMAIN,
            capacity=geometry["capacity"],
            harvest_depth=geometry["harvest_depth"],
            worker=True,
        )
        log = []
        results = {}
        outstanding = []
        before = platform.accountant.snapshot()
        for op in program:
            if op[0] == "call":
                outstanding.append(ring.submit(_payload, (log, op[1])))
            elif op[0] == "barrier":
                for ticket in outstanding:
                    results[ticket] = ring.reap(ticket)
                outstanding = []
            else:
                ring.flush()
        for ticket in outstanding:
            results[ticket] = ring.reap(ticket)
        total = _sum_counters(platform.accountant.delta(before))
    return results, log, total, ring.stats


def _null_context():
    import contextlib

    return contextlib.nullcontext()


def _sum_counters(delta):
    from repro.cost import Counter

    total = Counter()
    for counter in delta.values():
        total += counter
    return total


# ---------------------------------------------------------------------------
# Exact boundary-layer cost, from stats x model constants
# ---------------------------------------------------------------------------


def _boundary(stats, model, descriptor_normal):
    """(normal, sgx, crossings) the ring plumbing cost; the two modes
    differ only in what one descriptor costs (a sync call is never
    reaped, so its ``reaped`` stays 0)."""
    crossings = stats.fallback_crossings + stats.recovery_crossings
    normal = (
        stats.submitted * descriptor_normal
        + stats.reaped * model.ring_reap_normal
        + stats.polls * model.ring_poll_normal
        + stats.spins * model.ring_spin_normal
        + stats.wakeups * model.ring_wakeup_normal
        + crossings * (model.trampoline_normal + model.ring_fallback_normal)
    )
    return normal, 2 * crossings, crossings


# ---------------------------------------------------------------------------
# The differential check
# ---------------------------------------------------------------------------


def _check_conformance(program, geometry):
    sync_results, sync_log, sync_total, sync_stats = _run_sync(program)
    ring_results, ring_log, ring_total, ring_stats = _run_rings(
        program, geometry
    )
    model = DEFAULT_MODEL  # both platforms run the paper's constants

    # 1. identical results per ticket
    assert ring_results == sync_results, "results diverged"
    # 2. identical final state (submission-order servicing)
    assert ring_log == sync_log, "side-effect log diverged"
    # 3. counters integer-equal after subtracting each arm's modeled
    #    boundary layer — the payload cost must be untouched by the
    #    transport it rode on.
    sync_b = _boundary(sync_stats, model, model.switchless_slot_normal)
    ring_b = _boundary(ring_stats, model, model.ring_submit_normal)
    assert ring_total.normal_instructions - ring_b[0] == (
        sync_total.normal_instructions - sync_b[0]
    ), "payload normal-instruction cost diverged"
    assert ring_total.sgx_instructions - ring_b[1] == (
        sync_total.sgx_instructions - sync_b[1]
    ), "sgx-instruction cost diverged"
    assert ring_total.enclave_crossings - ring_b[2] == (
        sync_total.enclave_crossings - sync_b[2]
    ), "crossing count diverged"
    assert (
        ring_total.switchless_calls == sync_total.switchless_calls
    ), "switchless-call count diverged"
    # Books must balance internally too.
    assert ring_stats.reaped == sync_stats.submitted
    assert ring_stats.completed >= ring_stats.reaped


# ---------------------------------------------------------------------------
# The suites
# ---------------------------------------------------------------------------


@settings(max_examples=examples(25), deadline=None)
@given(program=_program, geometry=_geometry)
def test_conformance_random_programs(program, geometry):
    _check_conformance(program, geometry)


class TestKnownPrograms:
    """Deterministic corner programs, always run (no hypothesis)."""

    GEOMETRY = {"harvest_depth": 4, "capacity": 4}

    def test_empty_barriers_only(self):
        _check_conformance([("barrier",), ("flush",), ("barrier",)], self.GEOMETRY)

    def test_single_call(self):
        _check_conformance([("call", 7)], self.GEOMETRY)

    def test_burst_past_every_boundary(self):
        # 13 calls against capacity 4 / depth 4: overflows, harvests
        # and the final implicit barrier all fire.
        _check_conformance(
            [("call", v) for v in range(13)] + [("barrier",)], self.GEOMETRY
        )

    def test_flush_between_bursts(self):
        _check_conformance(
            [("call", 1), ("call", 2), ("flush",), ("call", 3), ("barrier",)],
            self.GEOMETRY,
        )

    def test_tiny_capacity_geometry(self):
        geometry = dict(self.GEOMETRY, capacity=2)
        _check_conformance([("call", v) for v in range(9)], geometry)


class TestTracedReconciliation:
    def test_ring_arm_reconciles_exactly(self):
        """Every instruction the ring arm charges is visible to the
        span tree: obs.reconcile is exact, and the ring's typed
        instants all appear."""
        tracer = obs.Tracer()
        program = [("call", v) for v in range(9)] + [("barrier",)]
        # Depth 6 outlasts the worker's spin budget: it sleeps after the
        # fourth call and the fifth rings its doorbell.
        geometry = {"harvest_depth": 6, "capacity": 8}
        _run_rings(program, geometry, tracer=tracer)
        obs.reconcile(tracer)  # raises ReconcileError on any mismatch
        names = {i.name for i in tracer.instants}
        assert "ring_submit" in names
        assert "ring_reap" in names
        assert "switchless_hit" in names
        assert "ring_worker_sleep" in names
        assert "ring_worker_wake" in names


class TestEndToEndAdoption:
    """The rings knob must be invisible to application results."""

    def test_middlebox_rings_byte_identical_lockstep(self):
        from repro.middlebox.scenarios import MiddleboxScenario

        payloads = [b"alpha", b"SECRET-TOKEN inside", b"omega"]
        base = MiddleboxScenario(n_middleboxes=1, seed=b"conf-mbox").run(
            payloads, pipeline=False
        )
        rung = MiddleboxScenario(
            n_middleboxes=1, seed=b"conf-mbox", rings=True
        ).run(payloads, pipeline=False)
        assert rung.replies == base.replies
        assert rung.alerts == base.alerts
        assert rung.stats == base.stats
        assert rung.provisioned == base.provisioned

    def test_middlebox_rings_pipelined_same_replies(self):
        from repro.middlebox.scenarios import MiddleboxScenario

        payloads = [b"p%d" % i for i in range(8)]
        base = MiddleboxScenario(n_middleboxes=2, seed=b"conf-pipe").run(
            payloads, pipeline=True
        )
        rung = MiddleboxScenario(
            n_middleboxes=2, seed=b"conf-pipe", rings=True, ring_depth=4
        ).run(payloads, pipeline=True)
        assert rung.replies == base.replies
        assert rung.stats == base.stats

    def test_middlebox_rings_block_rule_still_blocks(self):
        from repro.middlebox.scenarios import MiddleboxScenario

        rules = [("kill", b"DROP-ME", "block")]
        rung = MiddleboxScenario(
            n_middleboxes=1, rules=rules, seed=b"conf-block", rings=True
        ).run([b"ok", b"please DROP-ME now", b"after"], pipeline=False)
        assert rung.blocked
        assert rung.replies == [b"OK:ok"]

    @pytest.mark.parametrize("n_middleboxes", [1, 2])
    @pytest.mark.parametrize("rings", [False, True])
    def test_pipelined_block_rule(self, rings, n_middleboxes):
        # A pipelined client keeps records in flight past a block
        # verdict; the pump that did not block must drop them, not
        # crash the flow process on the closed stream.  At equal client
        # shape, rings do not change the replies.
        from repro.middlebox.scenarios import MiddleboxScenario

        rules = [("r", b"NOMATCH", "alert"), ("kill", b"DROP-ME", "block")]
        result = MiddleboxScenario(
            n_middleboxes=n_middleboxes,
            rules=rules,
            seed=b"conf-pipe-block",
            rings=rings,
        ).run([b"hello", b"fault-injection", b"DROP-ME", b"after"], pipeline=True)
        assert result.replies == []
        assert result.blocked

    def test_tor_rings_byte_identical_client_result(self):
        from repro.tor.deployment import TorDeployment, TorDeploymentConfig

        def run(rings):
            deployment = TorDeployment(
                TorDeploymentConfig(
                    phase=2, n_relays=4, seed=b"conf-tor", rings=rings
                )
            )
            return deployment.run_client_request(b"GET /conformance")

        assert run(True) == run(False)
