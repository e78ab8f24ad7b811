"""The load engine: determinism, report schema, exact reconciliation."""

import dataclasses
import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.crypto import rsa
from repro.errors import ReproError
from repro.load.clients import (
    ClientEvent,
    FingerprintTap,
    event_log_fingerprint,
    generate_events,
)
from repro.load.cohorts import run_load_cohorts
from repro.load.engine import (
    LOAD_SCENARIOS,
    default_n_events,
    make_backend,
    plan_dispatches,
    run_load_engine,
)
from repro.load.report import SCHEMA, bench_doc, bench_json, validate_bench
from repro.middlebox.scenarios import MiddleboxScenario
from repro.routing.controller import InterDomainController
from repro.routing.deployment import build_policies
from repro.routing.messages import encode_routes_msg
from repro.sgx.quoting import AttestationAuthority
from tests.oracles import event_fingerprint as oracle

_ints = st.integers(min_value=-(2**70), max_value=2**70)
#: Ops that need JSON escaping (quotes, backslashes, control and
#: non-ASCII characters, a lone surrogate) besides arbitrary text.
_ops = st.one_of(
    st.sampled_from(
        ["route_request", '"', "\\", "\n\t\x00", "é", "\u2028", "\ud800"]
    ),
    st.text(max_size=12),
)
_event_logs = st.lists(
    st.builds(
        ClientEvent, seq=_ints, client_id=_ints, arrival=_ints, op=_ops, key=_ints
    ),
    max_size=30,
)


class TestEventGeneration:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_clients=st.integers(min_value=1, max_value=50),
        n_events=st.integers(min_value=1, max_value=80),
    )
    def test_same_seed_same_event_log(self, seed, n_clients, n_events):
        keys = list(range(1, 20))
        first = generate_events("routing", n_clients, n_events, keys, seed)
        second = generate_events("routing", n_clients, n_events, keys, seed)
        assert event_log_fingerprint(first) == event_log_fingerprint(second)
        assert [e.as_dict() for e in first] == [e.as_dict() for e in second]

    def test_as_dict_matches_dataclass_fields_in_order(self):
        for event in generate_events("routing", 3, 5, [1, 2], seed=4):
            assert list(event.as_dict().items()) == list(
                dataclasses.asdict(event).items()
            )

    @settings(max_examples=200, deadline=None)
    @given(events=_event_logs)
    def test_fingerprint_matches_json_oracle(self, events):
        expected = oracle.event_log_fingerprint(events)
        assert event_log_fingerprint(events) == expected
        tap = FingerprintTap(iter(events))
        assert list(tap) == events
        assert tap.hexdigest() == expected

    def test_fingerprint_needs_a_drained_stream(self):
        tap = FingerprintTap(generate_events("routing", 3, 5, [1, 2], seed=4))
        with pytest.raises(ReproError):
            tap.hexdigest()

    def test_different_seeds_differ(self):
        keys = list(range(1, 20))
        a = generate_events("routing", 10, 50, keys, seed=0)
        b = generate_events("routing", 10, 50, keys, seed=1)
        assert event_log_fingerprint(a) != event_log_fingerprint(b)

    def test_arrivals_are_open_loop_and_monotone(self):
        events = generate_events("routing", 5, 60, [1, 2, 3], seed=7)
        arrivals = [e.arrival for e in events]
        assert arrivals == sorted(arrivals)
        assert all(e.seq == i for i, e in enumerate(events))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ReproError):
            generate_events("routing", 0, 1, [1], seed=0)
        with pytest.raises(ReproError):
            generate_events("routing", 1, 0, [1], seed=0)
        with pytest.raises(ReproError):
            generate_events("routing", 1, 1, [], seed=0)
        with pytest.raises(ReproError):
            generate_events("no-such-scenario", 1, 1, [1], seed=0)


class TestDeterminism:
    def test_bench_json_byte_identical_across_runs(self):
        kwargs = dict(n_clients=40, n_shards=2, batch=4, seed=3)
        first = bench_json(run_load_engine("routing", **kwargs))
        second = bench_json(run_load_engine("routing", **kwargs))
        assert first == second

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            run_load_engine("bogus", n_clients=1, n_shards=1, batch=1, seed=0)

    def test_plan_covers_every_event_once(self):
        keys = make_backend("routing", 1, 1, 24, 0).keys()
        events = generate_events(
            "routing", 50, default_n_events("routing", 50), keys, 0
        )
        plan = list(plan_dispatches(events, n_slots=3, batch=4))
        dispatched = [e for _, batch_events in plan for e in batch_events]
        assert sorted(id(e) for e in dispatched) == sorted(id(e) for e in events)
        assert all(len(batch_events) <= 4 for _, batch_events in plan)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bench_load_bytes_across_kernels(self, seed):
        from tests.conformance.harness import Knobs, applied

        kwargs = dict(n_clients=30, n_shards=2, batch=4, seed=seed)
        fast = bench_json(run_load_engine("routing", **kwargs))
        with applied(Knobs(kernel="reference")):
            reference = bench_json(run_load_engine("routing", **kwargs))
        assert reference == fast


class TestReport:
    def _doc(self):
        result = run_load_engine("routing", n_clients=30, n_shards=2, batch=4, seed=0)
        return bench_doc(result)

    def test_generated_doc_validates(self):
        doc = self._doc()
        assert validate_bench(doc) == []
        assert doc["schema"] == SCHEMA
        # The canonical file form parses back to the same document.
        result = run_load_engine("routing", n_clients=30, n_shards=2, batch=4, seed=0)
        assert json.loads(bench_json(result)) == doc

    def test_validation_catches_missing_and_wrong(self):
        doc = self._doc()
        broken = dict(doc)
        del broken["crossings"]
        assert any("crossings" in p for p in validate_bench(broken))

        wrong_schema = dict(doc, schema="repro.load/99")
        assert any("schema" in p for p in validate_bench(wrong_schema))

        bad_sum = dict(doc, outcomes={"ok": 1})
        assert any("sum" in p for p in validate_bench(bad_sum))

        bad_class = dict(doc, outcomes={"mystery": doc["throughput"]["events"]})
        assert any("mystery" in p for p in validate_bench(bad_class))

        with pytest.raises(ReproError):
            validate_bench([1, 2, 3])


class TestEquivalence:
    def test_served_routes_match_unsharded_controller(self):
        """Every reply the sharded, batched, enclave-hosted deployment
        serves is byte-identical to the plain in-process controller's
        answer for the same AS (ISSUE acceptance gate)."""
        result = run_load_engine(
            "routing", n_clients=12, n_shards=2, batch=4, seed=1,
            n_events=16, keep_payloads=True,
        )
        assert result.outcomes == {"ok": 16}
        topology, policies = build_policies(24, b"load-routing-1")
        reference = InterDomainController()
        for policy in policies.values():
            reference.submit_policy(policy)
        reference.compute_routes()

        # The result keeps replies by seq; each event's key comes from
        # the regenerated arrival log.
        events = generate_events("routing", 12, 16, sorted(topology.asns), 1)
        assert sorted(result.payloads) == [event.seq for event in events]
        for event in events:
            assert result.payloads[event.seq] == encode_routes_msg(
                reference.routes_for(event.key)
            )

    def test_reconcile_exact_on_traced_run(self):
        """S=1/K=1 under the tracer reconciles integer-for-integer
        against the cost accountants (obs.reconcile raises otherwise)."""
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            run_load_engine(
                "routing", n_clients=8, n_shards=1, batch=1, seed=0, n_events=8
            )
        assert obs.reconcile(tracer)  # non-empty per-domain breakdown

    def test_traced_shard_crash_reconciles(self):
        kwargs = dict(n_clients=30, n_shards=2, batch=4, seed=0)
        with faults.active(faults.matrix_plan("shard_crash", 2)):
            untraced = bench_json(run_load_engine("routing", **kwargs))
        tracer = obs.Tracer()
        plan = faults.matrix_plan("shard_crash", 2)
        with obs.tracing(tracer), faults.active(plan):
            traced = bench_json(run_load_engine("routing", **kwargs))
        assert plan.log.events, "the plan never fired — test proves nothing"
        assert traced == untraced
        obs.reconcile(tracer)  # raises ReconcileError on any drift


class TestScenarios:
    def test_scenario_registry(self):
        assert LOAD_SCENARIOS == ("middlebox", "routing", "tor")

    def test_tor_scenario_serves_events(self):
        result = run_load_engine("tor", n_clients=4, n_shards=1, batch=2,
                                 seed=0, n_events=4)
        assert sum(result.outcomes.values()) == 4
        assert result.outcomes.get("ok") == 4

    def test_middlebox_scenario_serves_events(self):
        result = run_load_engine("middlebox", n_clients=3, n_shards=1, batch=2,
                                 seed=0, n_events=3)
        assert sum(result.outcomes.values()) == 3
        assert result.outcomes.get("ok") == 3


#: sha256 of bench_json for small runs.  The tor and middlebox bytes
#: depend on every DH, Schnorr and RSA result along the way, so a
#: change to the public-key arithmetic that alters any value fails here.
#: The routing bytes cover, through the AES block counts, every record
#: length sent over the inter-shard channels, encoded route replies
#: included.
PINNED_BENCH_DIGESTS = {
    ("tor", 0): "dbed765921f742aa85c1ca00072fe3ee723057274ce15f5643da6e84afa1ebe6",
    ("tor", 1): "7394384a60f4b11848a5fce3d1da2323ca6c635cdc55680f1bf87799ffc9e7ff",
    ("middlebox", 0): "acc16a8dee4606fa1bd7181968dd2778ff61d1620b80352d5034d227ba48a2ba",
    ("middlebox", 1): "85a8623c70acc56437df496f4c2419d37fde36054bb8be538064771d2ddc68de",
    ("routing", 0): "f44f8d015e4aca3fc6869885345e6eb7b9e6607d988ef49f68881931c3beded2",
    ("routing", 1): "35f6be4661a0132e17f59c2d809829ddf81771d25f6241519be2d492ca29d84e",
}

PINNED_RUNS = {
    "tor": dict(n_clients=4, n_shards=1, batch=2, n_events=4),
    "middlebox": dict(n_clients=3, n_shards=1, batch=2, n_events=3),
    "routing": dict(n_clients=20, n_shards=2, batch=4, n_events=40),
}

#: Cohort-tier routing run whose replayed dispatches fast-forward the
#: inter-shard channels (26 skipped query/reply record pairs), so the
#: skipped reply lengths reach the later dispatches' AES charges.
PINNED_COHORT_DIGEST = "c6ae13f66f93a1a73bb572afbc37ae696635a2e84c2f6f7d72010eff3640365f"

#: Per-client routing runs under the shard_crash fault class: replies
#: re-sent on re-registration and served by the adopting shard.
PINNED_CRASH_DIGESTS = {
    0: "4707ca4c74f7d6fb81592552173a998f4a5e059b80d2e63dedcfe94494574708",
    1: "9f05ad20ef3e7f81e5c732d35483d71fdbdb9467191a4f73b19ca171db40edf9",
}

#: Middlebox runs long enough that one run-wide trust world serves many
#: flows (6 dispatches each).  Digests were computed while every flow
#: still built its own authority, author key and CA, so they pin that
#: sharing the world changes no byte of the report.
PINNED_MIDDLEBOX_LONG_RUN = dict(n_clients=12, n_shards=1, batch=2, n_events=12)
PINNED_MIDDLEBOX_LONG_DIGESTS = {
    0: "c5b75a041d7bf7be1ea2754fbd04b4ef4367835aaebdcad04ff4d7de3992f281",
    1: "663d0c1886c7c96033e043fcb35ed67932d9b8d9fcd2c89201d8a4a56a248fb6",
}
PINNED_MIDDLEBOX_COHORT_DIGEST = (
    "05d18f8553145e75b3cd191c8d86399aa31ab6f72c76bcd62158fd332626505c"
)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("scenario,seed", sorted(PINNED_BENCH_DIGESTS))
    def test_bench_json_matches_pinned_digest(self, scenario, seed):
        text = bench_json(run_load_engine(scenario, seed=seed, **PINNED_RUNS[scenario]))
        assert _sha256(text) == PINNED_BENCH_DIGESTS[(scenario, seed)]

    def test_routing_cohorts_match_pinned_digest(self):
        result = run_load_cohorts("routing", 300, 2, 1, 1, n_ases=8)
        assert _sha256(bench_json(result)) == PINNED_COHORT_DIGEST

    @pytest.mark.parametrize("seed", sorted(PINNED_CRASH_DIGESTS))
    def test_routing_shard_crash_matches_pinned_digest(self, seed):
        plan = faults.matrix_plan("shard_crash", seed)
        with faults.active(plan):
            result = run_load_engine(
                "routing", n_clients=20, n_shards=2, batch=4, seed=seed, n_events=60
            )
        assert plan.log.events, "the plan never fired — test proves nothing"
        assert _sha256(bench_json(result)) == PINNED_CRASH_DIGESTS[seed]

    @pytest.mark.parametrize("seed", sorted(PINNED_MIDDLEBOX_LONG_DIGESTS))
    def test_long_middlebox_run_matches_pinned_digest(self, seed):
        result = run_load_engine("middlebox", seed=seed, **PINNED_MIDDLEBOX_LONG_RUN)
        assert _sha256(bench_json(result)) == PINNED_MIDDLEBOX_LONG_DIGESTS[seed]

    def test_middlebox_cohorts_match_pinned_digest(self):
        result = run_load_cohorts("middlebox", 16, 1, 3, 0, n_events=18)
        assert _sha256(bench_json(result)) == PINNED_MIDDLEBOX_COHORT_DIGEST


class TestMiddleboxTrustRoots:
    def test_one_world_serves_every_flow(self, monkeypatch):
        calls = {"scenarios": 0, "authorities": 0, "rsa_keygens": 0}

        def counting(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return wrapper

        real_keygen = rsa.generate_rsa_keypair
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("generate_rsa_keypair") is real_keygen:
                monkeypatch.setattr(
                    module, "generate_rsa_keypair", counting("rsa_keygens", real_keygen)
                )
        monkeypatch.setattr(
            AttestationAuthority,
            "__init__",
            counting("authorities", AttestationAuthority.__init__),
        )
        monkeypatch.setattr(
            MiddleboxScenario,
            "__init__",
            counting("scenarios", MiddleboxScenario.__init__),
        )
        result = run_load_engine("middlebox", seed=0, **PINNED_MIDDLEBOX_LONG_RUN)
        assert result.outcomes == {"ok": 12}
        # Six flows; one authority, plus its architectural signer and
        # the enclave author's key, for the whole run.
        assert calls == {"scenarios": 6, "authorities": 1, "rsa_keygens": 2}
