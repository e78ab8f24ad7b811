"""Fault-matrix regression suite (EXPERIMENTS.md A9).

Each app scenario (routing, Tor, middlebox) runs under every
single-fault class from :data:`repro.faults.FAULT_CLASSES`.  The
contract: the scenario either recovers to a result *byte-identical*
to its fault-free run, or fails with a typed ``repro.errors``
exception — never a hang, never a silent wrong answer.  The matrix
itself is computed once (module fixture); the parametrized tests
pin each cell's obligations.
"""

import itertools
import os

import pytest

from repro import experiments, faults
from repro.errors import ReproError

SCENARIOS = experiments.FAULT_SCENARIOS
CLASSES = sorted(faults.FAULT_CLASSES)
# Go-back-N + the segment checksum must fully absorb pure network
# faults: these cells are required to be "ok", not just typed.
NETWORK_CLASSES = ("drop", "duplicate", "reorder", "delay", "corrupt")
# CI runs the suite once per seed; locally the default seed is 0.
SEED = int(os.environ.get("FAULT_MATRIX_SEED", "0"))


def _dump_logs(result):
    """Write each cell's FaultLog to $FAULT_LOG_DIR (CI artifacts)."""
    out_dir = os.environ.get("FAULT_LOG_DIR")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    for (scenario, fault_class), cell in result["matrix"].items():
        name = f"{scenario}-{fault_class}-seed{SEED}.json"
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(cell["log"].to_json())


@pytest.fixture(scope="module")
def matrix():
    result = experiments.run_fault_matrix(seed=SEED)
    _dump_logs(result)
    return result


@pytest.mark.parametrize("fault_class", CLASSES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cell_never_silently_wrong(matrix, scenario, fault_class):
    cell = matrix["matrix"][(scenario, fault_class)]
    # "diverged" means the run completed with a result that differs
    # from the fault-free fingerprint — always a bug.  (A typed
    # failure is recorded as the exception's class name; a hang is
    # impossible because every scenario bounds its sim.run.)
    assert cell["outcome"] != "diverged", cell


@pytest.mark.parametrize("fault_class", NETWORK_CLASSES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_network_faults_always_recover(matrix, scenario, fault_class):
    cell = matrix["matrix"][(scenario, fault_class)]
    assert cell["outcome"] == "ok", cell


# (outcome, faults_injected) of every cell at the two CI seeds.  The two
# typed cells are intended fail-closed outcomes (EXPERIMENTS.md A9):
# Tor x ocall_fail loses two ocall:recv_packets, leaving too few relays,
# so tor/client.py select_path raises TorError("not enough relays...");
# middlebox x mac_corrupt corrupts one channel:initiator record during
# provisioning, failing the mbox-client process (NetworkError).  The
# log digest is deliberately not pinned: Writer.varint and
# SchnorrSignature.encode write integers at minimal width, so some
# datagram lengths depend on key values, and a change to key generation
# can move which datagram a seeded network fault hits.
PINNED_CELLS = {
    0: {
        "routing": {
            "aex_storm": ("ok", 30),
            "corrupt": ("ok", 3),
            "delay": ("ok", 4),
            "drop": ("ok", 3),
            "duplicate": ("ok", 4),
            "egetkey_fail": ("ok", 2),
            "lost_completion": ("ok", 0),
            "mac_corrupt": ("ok", 1),
            "ocall_fail": ("ok", 2),
            "paging_storm": ("ok", 0),
            "quote_reject": ("ok", 1),
            "reorder": ("ok", 4),
            "ring_worker_stall": ("ok", 0),
            "shard_crash": ("ok", 0),
            "worker_stall": ("ok", 0),
        },
        "tor": {
            "aex_storm": ("ok", 50),
            "corrupt": ("ok", 5),
            "delay": ("ok", 14),
            "drop": ("ok", 10),
            "duplicate": ("ok", 15),
            "egetkey_fail": ("ok", 2),
            "lost_completion": ("ok", 5),
            "mac_corrupt": ("ok", 1),
            "ocall_fail": ("TorError", 2),
            "paging_storm": ("ok", 0),
            "quote_reject": ("ok", 1),
            "reorder": ("ok", 14),
            "ring_worker_stall": ("ok", 5),
            "shard_crash": ("ok", 0),
            "worker_stall": ("ok", 0),
        },
        "middlebox": {
            "aex_storm": ("ok", 5),
            "corrupt": ("ok", 3),
            "delay": ("ok", 5),
            "drop": ("ok", 3),
            "duplicate": ("ok", 5),
            "egetkey_fail": ("ok", 2),
            "lost_completion": ("ok", 4),
            "mac_corrupt": ("NetworkError", 1),
            "ocall_fail": ("ok", 2),
            "paging_storm": ("ok", 1),
            "quote_reject": ("ok", 1),
            "reorder": ("ok", 5),
            "ring_worker_stall": ("ok", 0),
            "shard_crash": ("ok", 0),
            "worker_stall": ("ok", 2),
        },
    },
    1: {
        "routing": {
            "aex_storm": ("ok", 25),
            "corrupt": ("ok", 1),
            "delay": ("ok", 4),
            "drop": ("ok", 4),
            "duplicate": ("ok", 4),
            "egetkey_fail": ("ok", 2),
            "lost_completion": ("ok", 0),
            "mac_corrupt": ("ok", 1),
            "ocall_fail": ("ok", 2),
            "paging_storm": ("ok", 0),
            "quote_reject": ("ok", 1),
            "reorder": ("ok", 4),
            "ring_worker_stall": ("ok", 0),
            "shard_crash": ("ok", 0),
            "worker_stall": ("ok", 0),
        },
        "tor": {
            "aex_storm": ("ok", 50),
            "corrupt": ("ok", 2),
            "delay": ("ok", 11),
            "drop": ("ok", 8),
            "duplicate": ("ok", 11),
            "egetkey_fail": ("ok", 2),
            "lost_completion": ("ok", 6),
            "mac_corrupt": ("ok", 1),
            "ocall_fail": ("TorError", 2),
            "paging_storm": ("ok", 0),
            "quote_reject": ("ok", 1),
            "reorder": ("ok", 11),
            "ring_worker_stall": ("ok", 6),
            "shard_crash": ("ok", 0),
            "worker_stall": ("ok", 0),
        },
        "middlebox": {
            "aex_storm": ("ok", 6),
            "corrupt": ("ok", 1),
            "delay": ("ok", 4),
            "drop": ("ok", 4),
            "duplicate": ("ok", 4),
            "egetkey_fail": ("ok", 2),
            "lost_completion": ("ok", 5),
            "mac_corrupt": ("NetworkError", 1),
            "ocall_fail": ("ok", 2),
            "paging_storm": ("ok", 2),
            "quote_reject": ("ok", 1),
            "reorder": ("ok", 4),
            "ring_worker_stall": ("ok", 0),
            "shard_crash": ("ok", 0),
            "worker_stall": ("ok", 3),
        },
    },
}


@pytest.mark.parametrize("fault_class", CLASSES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cell_outcome_and_count_pinned(matrix, scenario, fault_class):
    if SEED not in PINNED_CELLS:
        pytest.skip(f"no pinned matrix for seed {SEED}")
    cell = matrix["matrix"][(scenario, fault_class)]
    expected = PINNED_CELLS[SEED][scenario][fault_class]
    assert (cell["outcome"], cell["faults_injected"]) == expected, cell


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_recovers_under_at_least_five_classes(matrix, scenario):
    ok = [
        fault_class
        for fault_class in CLASSES
        if matrix["matrix"][(scenario, fault_class)]["outcome"] == "ok"
    ]
    assert len(ok) >= 5, ok


@pytest.mark.parametrize(
    "fault_class", ["ocall_fail", "egetkey_fail", "quote_reject", "aex_storm"]
)
def test_platform_faults_really_injected_and_absorbed(matrix, fault_class):
    # The routing scenario exercises every platform site; its cells
    # must show real injections (not vacuous zero-fault "ok"s).
    cell = matrix["matrix"][("routing", fault_class)]
    assert cell["faults_injected"] > 0
    assert cell["outcome"] == "ok", cell


def test_worker_stall_exercises_switchless_fallback(matrix):
    cell = matrix["matrix"][("middlebox", "worker_stall")]
    assert cell["faults_injected"] > 0
    assert cell["outcome"] == "ok", cell


RING_CLASSES = ("ring_worker_stall", "lost_completion")


@pytest.mark.parametrize("fault_class", RING_CLASSES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_ring_faults_recover(matrix, scenario, fault_class):
    # Ring faults hit the exitless v2 path: a stalled worker degrades
    # to the one-crossing recovery drain, a lost completion is
    # re-serviced at harvest.  Either way the result must match the
    # fault-free fingerprint exactly.
    cell = matrix["matrix"][(scenario, fault_class)]
    assert cell["outcome"] == "ok", cell


@pytest.mark.parametrize(
    "scenario,fault_class",
    [
        ("tor", "ring_worker_stall"),
        ("tor", "lost_completion"),
        ("middlebox", "lost_completion"),
    ],
)
def test_ring_faults_really_injected(matrix, scenario, fault_class):
    # These cells run live ring workers, so the plan must have real
    # injection sites — a vacuous zero-fault "ok" would mean the
    # scenario stopped exercising the rings.  (The middlebox
    # ring_worker_stall cell is deliberately absent: its ocall ring
    # is worker-less, so there is no worker to stall.)
    cell = matrix["matrix"][(scenario, fault_class)]
    assert cell["faults_injected"] > 0, cell


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fault_class", RING_CLASSES)
def test_ring_fault_recovery_reproducible(fault_class, seed):
    # Same seed -> byte-identical FaultLog for the ring classes, at
    # both CI seeds.  Ring recovery must be as deterministic as the
    # rings themselves.
    digests = []
    counts = []
    for _ in range(2):
        plan = faults.matrix_plan(fault_class, seed=seed)
        with faults.active(plan):
            experiments.run_fault_scenario("tor")
        digests.append(plan.log.digest())
        counts.append(plan.log.counts())
    assert digests[0] == digests[1]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fault_log_reproducible_across_runs(scenario):
    # Same seed, same workload -> byte-identical FaultLog.
    digests = []
    counts = []
    for _ in range(2):
        plan = faults.matrix_plan("drop", seed=7)
        with faults.active(plan):
            experiments.run_fault_scenario(scenario)
        digests.append(plan.log.digest())
        counts.append(plan.log.counts())
    assert digests[0] == digests[1]
    assert counts[0] == counts[1]


def test_paging_storm_really_injected_and_absorbed(matrix):
    # The middlebox scenario runs with EPC-resident DPI tables, so the
    # paging_storm class has live eviction targets on the scan path;
    # the evicted rows must fault back in byte-identically (outcome
    # "ok" = result matched the fault-free fingerprint exactly).
    cell = matrix["matrix"][("middlebox", "paging_storm")]
    assert cell["faults_injected"] > 0
    assert cell["outcome"] == "ok", cell


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_paging_storm_never_diverges(matrix, scenario):
    # Routing and Tor don't attach DPI tables to the EPC (zero
    # injection opportunities — a vacuous ok); the middlebox cell is
    # the live one.  None may diverge.
    cell = matrix["matrix"][(scenario, "paging_storm")]
    assert cell["outcome"] == "ok", cell


# -- fault pairs --------------------------------------------------------------
#
# Two classes composed in one plan (EXPERIMENTS.md A9, "Fault pairs").
# The contract is the single-class one: "ok" or a typed repro.errors
# exception, never "diverged".


def _pair_cell(matrix, scenario, pair, seed):
    """(outcome, faults_injected) of ``scenario`` under both classes."""
    rules = [rule for fault_class in pair for rule in faults.FAULT_CLASSES[fault_class]]
    plan = faults.FaultPlan(seed, rules)
    baseline = matrix["baselines"][scenario]
    return experiments.run_fault_cell(scenario, plan, baseline), len(plan.log)


# The two ocall failures break the provisioning attestation, so the one
# MAC corruption lands on the client's first TLS data record instead of
# a provisioning record; the server's TLS layer rejects it and the flow
# dies with no middlebox block verdict.  Reporting that as a policy
# block (blocked=True, no replies) would be a silently wrong answer.
PINNED_PAIR_CELLS = {
    ("middlebox", ("mac_corrupt", "ocall_fail"), 0): ("MiddleboxError", 3),
    ("middlebox", ("mac_corrupt", "ocall_fail"), 1): ("MiddleboxError", 3),
    ("middlebox", ("ocall_fail", "mac_corrupt"), 0): ("MiddleboxError", 3),
    ("middlebox", ("ocall_fail", "mac_corrupt"), 1): ("MiddleboxError", 3),
}


@pytest.mark.parametrize("cell", sorted(PINNED_PAIR_CELLS))
def test_pair_cell_outcome_pinned(matrix, cell):
    scenario, pair, seed = cell
    assert _pair_cell(matrix, scenario, pair, seed) == PINNED_PAIR_CELLS[cell]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_fault_pair_ok_or_typed(matrix, scenario, seed):
    # All 105 unordered pairs of the 15 classes.  An untyped exception
    # propagates and fails the test on its own.
    diverged = [
        pair
        for pair in itertools.combinations(CLASSES, 2)
        if _pair_cell(matrix, scenario, pair, seed)[0] == "diverged"
    ]
    assert diverged == []


def test_matrix_rejects_unknown_fault_class():
    with pytest.raises(ReproError, match="unknown fault class"):
        faults.matrix_plan("cosmic_ray")


# -- cohort tier under faults -------------------------------------------------
#
# The cohort tier's dispatch-replay cache must stay a pure optimization
# even while a fault plan is live: caching is bypassed until the plan
# exhausts (decisions consume plan state), then resumes.  Crash
# recovery and the go-back-N network recovery must therefore be
# byte-identical between tiers — report bytes AND the FaultLog the
# plan accumulated.

COHORT_FAULT_CLASSES = ("shard_crash",) + NETWORK_CLASSES


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fault_class", COHORT_FAULT_CLASSES)
def test_cohort_tier_fault_equivalence(fault_class, seed):
    from repro.load.cohorts import run_load_cohorts
    from repro.load.engine import run_load_engine
    from repro.load.report import bench_json

    texts, digests = [], []
    for runner in (run_load_engine, run_load_cohorts):
        plan = faults.matrix_plan(fault_class, seed=seed)
        with faults.active(plan):
            result = runner("routing", 40, 3, 2, seed)
        texts.append(bench_json(result))
        digests.append(plan.log.digest())
    assert texts[0] == texts[1], f"{fault_class} seed {seed}: tiers diverged"
    assert digests[0] == digests[1]


@pytest.mark.parametrize("seed", [0, 1])
def test_cohort_crash_recovery_reproducible(seed):
    from repro.load.cohorts import run_load_cohorts
    from repro.load.report import bench_json

    texts = []
    for _ in range(2):
        plan = faults.matrix_plan("shard_crash", seed=seed)
        with faults.active(plan):
            texts.append(bench_json(run_load_cohorts("routing", 40, 3, 2, seed)))
    assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "shards, reason",
    [(3, "load_cohort_bypass_faults"), (1, "load_cohort_bypass_lost")],
)
def test_cohort_bypass_is_counted_and_leaves_report_unchanged(shards, reason):
    from repro import obs
    from repro.load.cohorts import run_load_cohorts
    from repro.load.report import bench_json
    from repro.obs.metrics import MetricsRegistry

    plan = faults.matrix_plan("shard_crash", seed=0)
    with faults.active(plan):
        untraced = bench_json(run_load_cohorts("routing", 40, shards, 2, 0))
    registry = MetricsRegistry(interval=10_000_000)
    plan = faults.matrix_plan("shard_crash", seed=0)
    with faults.active(plan), obs.tracing(obs.Tracer(metrics=registry)):
        traced = bench_json(run_load_cohorts("routing", 40, shards, 2, 0))
    assert registry.total(reason) > 0
    assert traced == untraced
