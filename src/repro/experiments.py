"""Reusable implementations of the paper's evaluation experiments.

Each ``run_*`` function executes one of the paper's tables/figures
against the live system and returns structured results; each
``format_*`` renders them next to the paper's reported values.  The
benchmark harness (``benchmarks/``) and the CLI (``python -m repro``)
both build on these, so the numbers you see are always from the same
code paths the tests assert on.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cost import Counter, cycles, format_count, format_table
from repro.errors import ReproError
from repro.crypto.aes import AES
from repro.crypto.drbg import Rng
from repro.crypto.modes import ecb_encrypt
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import MTU
from repro.sgx import (
    AttestationAuthority,
    AttestationChallengerProgram,
    AttestationConfig,
    AttestationTargetProgram,
    EnclaveProgram,
    IdentityPolicy,
    SgxPlatform,
    run_attestation,
)

__all__ = [
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "run_table3",
    "format_table3",
    "run_table4",
    "format_table4",
    "run_figure3",
    "format_figure3",
    "run_switchless_ablation",
    "format_switchless_ablation",
    "run_rings_ablation",
    "format_rings_ablation",
    "FAULT_SCENARIOS",
    "run_fault_scenario",
    "run_fault_matrix",
    "format_fault_matrix",
    "LOAD_SCENARIOS",
    "run_load",
    "format_load",
    "run_load_ablation",
    "format_load_ablation",
]


@contextlib.contextmanager
def _traced(trace: Optional[obs.Tracer], name: str):
    """Run one scenario under an optional tracer.

    ``trace=None`` (the default everywhere) is a pass-through, so
    untraced runs stay byte-identical to the pre-tracing code paths.
    With a tracer, the whole scenario runs inside a root ``scenario``
    span so every charge — including ones made outside any
    instrumented site — lands somewhere :func:`repro.obs.reconcile`
    can account for.
    """
    if trace is None:
        yield
        return
    with obs.tracing(trace), trace.span(name, kind="scenario"):
        yield


# ---------------------------------------------------------------------------
# Table 1 — remote attestation
# ---------------------------------------------------------------------------

TABLE1_PAPER = {
    ("target", False): (20, 154e6),
    ("target", True): (20, 4338e6),
    ("quoting", False): (17, 125e6),
    ("quoting", True): (17, 125e6),
    ("challenger", False): (8, 124e6),
    ("challenger", True): (8, 348e6),
}


def _one_attestation(with_dh: bool) -> Dict[str, Counter]:
    authority = AttestationAuthority(Rng(b"table1"))
    author = generate_rsa_keypair(512, Rng(b"table1-author"))
    remote = SgxPlatform("remote", authority, rng=Rng(b"remote"))
    local = SgxPlatform("local", authority, rng=Rng(b"local"))
    target = remote.load_enclave(
        AttestationTargetProgram(), author_key=author, name="target"
    )
    challenger = local.load_enclave(
        AttestationChallengerProgram(), author_key=author, name="challenger"
    )
    challenger.ecall(
        "configure_attestation",
        authority.verification_info(),
        IdentityPolicy.for_mrenclave(target.identity.mrenclave),
        AttestationConfig(with_dh=with_dh),
    )
    remote_before = remote.accountant.snapshot()
    local_before = local.accountant.snapshot()
    run_attestation(challenger, target)
    remote_delta = remote.accountant.delta(remote_before)
    local_delta = local.accountant.delta(local_before)
    return {
        "target": remote_delta["enclave:target"],
        "quoting": remote_delta["enclave:quoting"],
        "challenger": local_delta["enclave:challenger"],
    }


def run_table1(trace: Optional[obs.Tracer] = None) -> Dict[bool, Dict[str, Counter]]:
    """Both columns of Table 1 (one attestation each)."""
    with _traced(trace, "table1"):
        return {False: _one_attestation(False), True: _one_attestation(True)}


def format_table1(results: Dict[bool, Dict[str, Counter]]) -> str:
    rows = []
    for role in ("target", "quoting", "challenger"):
        for with_dh in (False, True):
            counter = results[with_dh][role]
            paper_sgx, paper_normal = TABLE1_PAPER[(role, with_dh)]
            rows.append(
                [
                    f"{role} {'w/ DH' if with_dh else 'w/o DH'}",
                    counter.sgx_instructions,
                    paper_sgx,
                    format_count(counter.normal_instructions),
                    format_count(paper_normal),
                ]
            )
    dh = results[True]
    challenger_cycles = cycles(dh["challenger"])
    remote = Counter()
    remote += dh["target"]
    remote += dh["quoting"]
    remote_cycles = cycles(remote)
    table = format_table(
        ["role", "SGX(U)", "paper", "normal", "paper"],
        rows,
        title="Table 1 — instructions during remote attestation",
    )
    return (
        f"{table}\n"
        f"challenger cycles: {format_count(challenger_cycles)} (paper ~626M)\n"
        f"remote platform cycles: {format_count(remote_cycles)} (paper ~8033M)"
    )


# ---------------------------------------------------------------------------
# Table 2 — packet I/O
# ---------------------------------------------------------------------------

TABLE2_PAPER = {
    (1, False): (6, 13_000),
    (1, True): (6, 97_000),
    (100, False): (204, 136_000),
    (100, True): (204, 972_000),
}


class _PacketSenderProgram(EnclaveProgram):
    def on_load(self, ctx):
        super().on_load(ctx)
        self._cipher = None

    def send_batch(self, n_packets: int, with_crypto: bool) -> int:
        payload = bytes(MTU - 16)
        packets = []
        for _ in range(n_packets):
            if with_crypto:
                if self._cipher is None:
                    self._cipher = AES(self.ctx.rng.bytes(16))
                packets.append(ecb_encrypt(self._cipher, payload))
            else:
                packets.append(payload)
        sent = []
        self.ctx.send_packets(sent.extend, packets)
        return len(sent)


def _measure_send(n_packets: int, with_crypto: bool) -> Counter:
    platform = SgxPlatform("io-host", rng=Rng(b"table2"))
    author = generate_rsa_keypair(512, Rng(b"table2-author"))
    enclave = platform.load_enclave(_PacketSenderProgram(), author_key=author)
    before = platform.accountant.snapshot()
    enclave.ecall("send_batch", n_packets, with_crypto)
    counter = platform.accountant.delta(before)[enclave.domain]
    counter.sgx_instructions -= 2          # exclude the generic ecall pair
    counter.normal_instructions -= 450
    return counter


def run_table2(trace: Optional[obs.Tracer] = None) -> Dict[tuple, Counter]:
    with _traced(trace, "table2"):
        return {
            (n, crypto): _measure_send(n, crypto)
            for n in (1, 100)
            for crypto in (False, True)
        }


def format_table2(results: Dict[tuple, Counter]) -> str:
    rows = []
    for (n_packets, with_crypto), counter in sorted(results.items()):
        paper_sgx, paper_normal = TABLE2_PAPER[(n_packets, with_crypto)]
        rows.append(
            [
                f"{n_packets} pkt {'crypto' if with_crypto else 'w/o crypto'}",
                counter.sgx_instructions,
                paper_sgx,
                format_count(counter.normal_instructions),
                format_count(paper_normal),
            ]
        )
    return format_table(
        ["workload", "SGX(U)", "paper", "normal", "paper"],
        rows,
        title="Table 2 — instructions for packet transmission",
    )


# ---------------------------------------------------------------------------
# Table 3 — attestation counts
# ---------------------------------------------------------------------------


def run_table3(
    n_ases: int = 5,
    n_relays: int = 4,
    n_authorities: int = 3,
    n_middleboxes: int = 3,
    trace: Optional[obs.Tracer] = None,
) -> Dict[str, Dict]:
    with _traced(trace, "table3"):
        return _run_table3(n_ases, n_relays, n_authorities, n_middleboxes)


def _run_table3(
    n_ases: int,
    n_relays: int,
    n_authorities: int,
    n_middleboxes: int,
) -> Dict[str, Dict]:
    from repro.middlebox.scenarios import MiddleboxScenario
    from repro.routing.deployment import run_sgx_routing
    from repro.tor.deployment import TorDeployment, TorDeploymentConfig

    results: Dict[str, Dict] = {}

    routing = run_sgx_routing(n_ases=n_ases, seed=b"table3-routing")
    results["routing"] = {
        "measured": routing.attestations,
        "formula": f"2 x {n_ases} AS controllers (mutual)",
        "expected": 2 * n_ases,
    }

    tor = TorDeployment(
        TorDeploymentConfig(
            phase=2,
            n_relays=n_relays,
            n_exits=n_relays,
            n_authorities=n_authorities,
            seed=b"table3-tor2",
        )
    )
    results["tor_authority"] = {
        "measured": tor.registration_attestations,
        "formula": f"2 x {n_relays} exit nodes x {n_authorities} authorities",
        "expected": 2 * n_relays * n_authorities,
    }
    tor.fetch_consensus()
    results["tor_client"] = {
        "measured": tor.client_attestations,
        "formula": f"{n_authorities} authority nodes",
        "expected": n_authorities,
    }

    scenario = MiddleboxScenario(
        n_middleboxes=n_middleboxes, rules=[("r", b"X", "alert")], seed=b"table3-mbox"
    )
    mbox = scenario.run([b"payload"])
    results["middlebox"] = {
        "measured": mbox.attestations,
        "formula": f"{n_middleboxes} in-path middleboxes",
        "expected": n_middleboxes,
    }
    return results


def format_table3(results: Dict[str, Dict]) -> str:
    labels = {
        "routing": "Inter-domain routing",
        "tor_authority": "Tor network (Authority)",
        "tor_client": "Tor network (Client)",
        "middlebox": "TLS-aware middlebox",
    }
    rows = [
        [labels[key], entry["measured"], entry["formula"]]
        for key, entry in results.items()
    ]
    return format_table(
        ["design", "attestations (measured)", "paper formula"],
        rows,
        title="Table 3 — number of remote attestations per design",
    )


# ---------------------------------------------------------------------------
# Table 4 — routing cost, and Figure 3 — scaling
# ---------------------------------------------------------------------------

TABLE4_PAPER = {
    "idc_native": 74e6,
    "idc_sgx": 135e6,
    "idc_sgx_u": 1448,
    "aslc_native": 13e6,
    "aslc_sgx": 24e6,
    "aslc_sgx_u": 42,
}


def run_table4(
    n_ases: int = 30, seed: bytes = b"table4", trace: Optional[obs.Tracer] = None
):
    from repro.routing.deployment import run_native_routing, run_sgx_routing

    with _traced(trace, "table4"):
        sgx = run_sgx_routing(n_ases=n_ases, seed=seed)
        native = run_native_routing(n_ases=n_ases, seed=seed)
        return sgx, native


def format_table4(sgx, native) -> str:
    aslc_native = sum(
        c.normal_instructions for c in native.as_steady.values()
    ) / len(native.as_steady)
    aslc_sgx = sum(c.normal_instructions for c in sgx.as_steady.values()) / len(
        sgx.as_steady
    )
    aslc_sgx_u = sum(c.sgx_instructions for c in sgx.as_steady.values()) / len(
        sgx.as_steady
    )
    rows = [
        [
            "Inter-domain",
            format_count(native.controller_steady.normal_instructions),
            format_count(TABLE4_PAPER["idc_native"]),
            format_count(sgx.controller_steady.normal_instructions),
            format_count(TABLE4_PAPER["idc_sgx"]),
            sgx.controller_steady.sgx_instructions,
            TABLE4_PAPER["idc_sgx_u"],
        ],
        [
            "AS-local (avg)",
            format_count(aslc_native),
            format_count(TABLE4_PAPER["aslc_native"]),
            format_count(aslc_sgx),
            format_count(TABLE4_PAPER["aslc_sgx"]),
            round(aslc_sgx_u, 1),
            TABLE4_PAPER["aslc_sgx_u"],
        ],
    ]
    idc_overhead = (
        sgx.controller_steady.normal_instructions
        / native.controller_steady.normal_instructions
        - 1
    )
    aslc_overhead = aslc_sgx / aslc_native - 1
    table = format_table(
        ["controller", "w/o SGX", "paper", "w/ SGX", "paper", "SGX(U)", "paper"],
        rows,
        title=f"Table 4 — SDN inter-domain routing costs ({sgx.n_ases} ASes)",
    )
    return (
        f"{table}\n"
        f"inter-domain overhead: {idc_overhead:.0%} (paper 82%)\n"
        f"AS-local overhead:     {aslc_overhead:.0%} (paper 69%)"
    )


# ---------------------------------------------------------------------------
# Switchless ablation — crossings and cycles with the call queue on/off
# ---------------------------------------------------------------------------


class _SwitchlessWorkloadProgram(EnclaveProgram):
    """Drives the two switchless hot paths from inside an enclave."""

    def enable(self, capacity: int = 64, poll_interval: int = 8) -> None:
        self.ctx.enable_switchless(capacity=capacity, poll_interval=poll_interval)

    def burst_ocalls(self, n: int, switchless: bool) -> int:
        """n ocalls in a row — the crossings-per-call workload."""
        done: List[int] = []
        for i in range(n):
            self.ctx.ocall(done.append, i, switchless=switchless)
        return len(done)

    def send_batch(self, n_packets: int, switchless: bool) -> None:
        """One Table 2 packet transmission, optionally switchless."""
        packets = [bytes(MTU - 16)] * n_packets
        self.ctx.send_packets(lambda _pkts: None, packets, switchless=switchless)
        if switchless:
            self.ctx.switchless.flush()


def _measure_workload(method: str, *args) -> Counter:
    """Run one workload ecall; return its cost net of the ecall pair."""
    platform = SgxPlatform("ablation-host", rng=Rng(b"switchless"))
    author = generate_rsa_keypair(512, Rng(b"switchless-author"))
    enclave = platform.load_enclave(_SwitchlessWorkloadProgram(), author_key=author)
    enclave.ecall("enable")
    before = platform.accountant.snapshot()
    enclave.ecall(method, *args)
    delta = platform.accountant.delta(before)
    counter = Counter()
    for domain_counter in delta.values():
        counter += domain_counter
    counter.sgx_instructions -= 2          # exclude the generic ecall pair
    counter.normal_instructions -= 450
    counter.enclave_crossings -= 1
    return counter


def run_switchless_ablation(
    batch_sizes=(1, 10, 100),
    n_ocalls: int = 100,
    trace: Optional[obs.Tracer] = None,
) -> Dict[str, Dict]:
    """Crossings and modeled cycles with the switchless queue on/off.

    Two workloads, mirroring the Table 2 methodology: a burst of
    ``n_ocalls`` ocalls (the per-call crossing cost the queue is built
    to eliminate) and the packet-transmission path across
    ``batch_sizes`` (where batching already amortizes the crossing and
    switchless removes the remainder).
    """
    with _traced(trace, "switchless"):
        ocalls = {
            switchless: _measure_workload("burst_ocalls", n_ocalls, switchless)
            for switchless in (False, True)
        }
        packets = {
            (n, switchless): _measure_workload("send_batch", n, switchless)
            for n in batch_sizes
            for switchless in (False, True)
        }
        return {"n_ocalls": n_ocalls, "ocalls": ocalls, "packets": packets}


def format_switchless_ablation(results: Dict[str, Dict]) -> str:
    def row(label: str, off: Counter, on: Counter) -> List:
        off_cycles = cycles(off)
        on_cycles = cycles(on)
        return [
            label,
            off.enclave_crossings,
            on.enclave_crossings,
            format_count(off_cycles),
            format_count(on_cycles),
            f"{1 - on_cycles / off_cycles:.0%}" if off_cycles else "-",
        ]

    ocalls = results["ocalls"]
    rows = [row(f"{results['n_ocalls']} ocalls", ocalls[False], ocalls[True])]
    for n in sorted({n for n, _ in results["packets"]}):
        rows.append(
            row(
                f"send {n} pkt",
                results["packets"][(n, False)],
                results["packets"][(n, True)],
            )
        )
    return format_table(
        ["workload", "crossings", "switchless", "cycles", "switchless", "saved"],
        rows,
        title="Switchless ablation — queue off vs on (Table 2 methodology)",
    )


# ---------------------------------------------------------------------------
# Rings ablation (A14) — sync vs async crossings on the middlebox record path
# ---------------------------------------------------------------------------


def _measure_record_path(mode: str, depth: int, n_records: int) -> Counter:
    """Cost of pushing ``n_records`` through ``inspect_record``.

    A fresh platform hosts a real :class:`MiddleboxProgram` enclave —
    the same code the proxy scenarios run — and the records transit one
    of three boundary regimes: one genuine crossing per record
    (``ecall``), the synchronous switchless queue (``switchless``), or
    async rings reaped every ``depth`` submissions (``rings``, no
    dedicated in-enclave worker — the exitless regime where one harvest
    crossing drains the whole batch).
    """
    from repro.middlebox.mbox import MiddleboxProgram

    platform = SgxPlatform("rings-ablation-host", rng=Rng(b"rings"))
    author = generate_rsa_keypair(512, Rng(b"rings-author"))
    enclave = platform.load_enclave(MiddleboxProgram(), author_key=author)
    enclave.ecall("configure_dpi", [("r", b"NOMATCH", "alert")], False)
    if mode == "switchless":
        enclave.enable_switchless_ecalls()
    elif mode == "rings":
        enclave.enable_ring_ecalls(
            capacity=max(64, depth), harvest_depth=depth
        )
    records = [b"record-%04d" % i for i in range(n_records)]
    before = platform.accountant.snapshot()
    if mode == "ecall":
        for record in records:
            enclave.ecall("inspect_record", "flow", "c2s", record)
    elif mode == "switchless":
        for record in records:
            enclave.ecall_switchless("inspect_record", "flow", "c2s", record)
    elif mode == "rings":
        for start in range(0, n_records, depth):
            for record in records[start : start + depth]:
                enclave.ecall_submit("inspect_record", "flow", "c2s", record)
            enclave.ecall_reap_all()
    else:
        raise ReproError(f"unknown rings-ablation mode {mode!r}")
    counter = Counter()
    for domain_counter in platform.accountant.delta(before).values():
        counter += domain_counter
    return counter


def run_rings_ablation(
    depths=(1, 2, 4, 8),
    n_records: int = 64,
    trace: Optional[obs.Tracer] = None,
) -> Dict[str, object]:
    """A14: the sync-vs-async crossing grid on the middlebox record path.

    One row per (mode, depth) cell.  ``ecall`` and ``switchless`` are
    depth-independent (recorded once, at depth 1); ``rings`` is swept
    across ``depths``.  The synchronous switchless queue reaches zero
    crossings only by dedicating an in-enclave worker thread (a TCS +
    a core); the rings rows show what the *worker-less* exitless regime
    costs — crossings per record fall as 1/depth while nothing polls.
    """
    with _traced(trace, "rings"):
        grid: List[Dict[str, object]] = []
        for mode, depth in [("ecall", 1), ("switchless", 1)] + [
            ("rings", depth) for depth in depths
        ]:
            counter = _measure_record_path(mode, depth, n_records)
            grid.append(
                {
                    "mode": mode,
                    "depth": depth,
                    "crossings": counter.enclave_crossings,
                    "sgx": counter.sgx_instructions,
                    "normal": round(counter.normal_instructions),
                    "cycles": round(cycles(counter)),
                    "crossings_per_record": round(
                        counter.enclave_crossings / n_records, 4
                    ),
                }
            )
        baseline = grid[0]["crossings"]
        for cell in grid:
            cell["crossing_reduction"] = (
                round(baseline / cell["crossings"], 2)
                if cell["crossings"]
                else float("inf")
            )
        return {"n_records": n_records, "depths": list(depths), "grid": grid}


def format_rings_ablation(results: Dict[str, object]) -> str:
    n_records = results["n_records"]
    rows = []
    for cell in results["grid"]:
        label = (
            cell["mode"]
            if cell["mode"] != "rings"
            else f"rings d={cell['depth']}"
        )
        reduction = cell["crossing_reduction"]
        rows.append(
            [
                label,
                cell["crossings"],
                f"{cell['crossings_per_record']:.3f}",
                format_count(cell["cycles"]),
                "-" if reduction == float("inf") else f"{reduction:.1f}x",
            ]
        )
    return format_table(
        ["regime", "crossings", "per record", "cycles", "reduction"],
        rows,
        title=(
            f"Rings ablation (A14) — {n_records} records through the "
            "middlebox inspect path"
        ),
    )


def run_figure3(
    sweep: List[int] = (5, 10, 15, 20, 25, 30),
    seed: bytes = b"figure3",
    trace: Optional[obs.Tracer] = None,
):
    from repro.routing.deployment import run_native_routing, run_sgx_routing

    series = []
    with _traced(trace, "figure3"):
        for n_ases in sweep:
            sgx = run_sgx_routing(n_ases=n_ases, seed=seed)
            native = run_native_routing(n_ases=n_ases, seed=seed)
            assert sgx.routes == native.routes
            series.append(
                {
                    "n": n_ases,
                    "native": cycles(native.controller_steady),
                    "sgx": cycles(sgx.controller_steady),
                }
            )
    return series


def format_figure3(series) -> str:
    rows = [
        [
            point["n"],
            format_count(point["native"]),
            format_count(point["sgx"]),
            f"{point['sgx'] / point['native'] - 1:.0%}",
        ]
        for point in series
    ]
    return format_table(
        ["# ASes", "cycles w/o SGX", "cycles w/ SGX", "overhead"],
        rows,
        title="Figure 3 — inter-domain controller CPU cycles vs # ASes "
        "(paper: ~90% overhead at scale)",
    )


# ---------------------------------------------------------------------------
# Fault matrix — every app scenario under every injected fault class
# ---------------------------------------------------------------------------

FAULT_SCENARIOS = ("routing", "tor", "middlebox")


def _fingerprint(value: object) -> str:
    """Short stable digest of an application-level result."""
    import hashlib

    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_fault_scenario(scenario: str) -> str:
    """Run one app scenario (small sizing) and fingerprint its result.

    The fingerprint covers only the *application outcome* — routes
    received, bytes echoed — never timing, paths taken or retry counts,
    so a faulted run that recovered correctly fingerprints identically
    to the fault-free run.
    """
    if scenario == "routing":
        from repro.routing.deployment import run_sgx_routing

        result = run_sgx_routing(n_ases=4, seed=b"fault-matrix-routing")
        routes = sorted(
            (asn, sorted((prefix, tuple(route.path)) for prefix, route in per_as.items()))
            for asn, per_as in result.routes.items()
        )
        return _fingerprint(routes)
    if scenario == "tor":
        from repro.tor.deployment import TorDeployment, TorDeploymentConfig

        # rings=True so the ring fault classes have a hot path: the
        # relays' per-cell data plane rides async ecall rings with a
        # live in-enclave worker (stallable, losable completions).
        deployment = TorDeployment(
            TorDeploymentConfig(
                phase=2, n_relays=4, n_exits=4, n_authorities=2,
                seed=b"fault-matrix-tor", rings=True,
            )
        )
        outcome = deployment.run_client_request(payload=b"GET /faults")
        return _fingerprint((outcome["reply"], outcome["intact"]))
    if scenario == "middlebox":
        from repro.middlebox.scenarios import MiddleboxScenario

        # switchless=True so the worker_stall class has a hot path to
        # stall (the provisioning pump rides the call queue);
        # rings=True moves the per-record inspect ecalls onto the
        # worker-less async rings, whose completion writes the
        # lost_completion class can lose; epc_dpi=True backs the DPI
        # automaton with real EPC pages so the paging_storm class has
        # resident rows to evict (the scan must then fault them back
        # in, byte-identically, mid-flow).  The pipelined client lets
        # records batch up in the rings.
        result = MiddleboxScenario(
            n_middleboxes=2,
            rules=[("r", b"NOMATCH", "alert")],
            seed=b"fault-matrix-mbox",
            switchless=True,
            rings=True,
            epc_dpi=True,
        ).run([b"hello", b"fault-injection"], pipeline=True)
        return _fingerprint((result.replies, result.blocked))
    raise ReproError(f"unknown fault scenario {scenario!r}")


def run_fault_cell(scenario: str, plan, baseline: str) -> str:
    """One cell: ``scenario`` under ``plan`` against its fault-free
    fingerprint.  ``ok``, ``diverged``, or the class name of the typed
    ``repro.errors`` exception that stopped the run."""
    from repro import faults

    try:
        with faults.active(plan):
            fingerprint = run_fault_scenario(scenario)
    except ReproError as exc:
        return type(exc).__name__
    return "ok" if fingerprint == baseline else "diverged"


def run_fault_matrix(
    seed: object = 0,
    fault_classes: Optional[List[str]] = None,
    scenarios: Tuple[str, ...] = FAULT_SCENARIOS,
    trace: Optional[obs.Tracer] = None,
) -> Dict[str, object]:
    """The fault-matrix experiment (EXPERIMENTS.md A9).

    Every scenario runs fault-free once (the baseline fingerprint),
    then once per fault class under ``matrix_plan(fault_class, seed)``.
    A cell's outcome is ``ok`` (result byte-identical to the baseline),
    ``diverged`` (it completed with a *different* result — always a
    bug), or the typed ``repro.errors`` exception that stopped it.
    """
    with _traced(trace, "faults"):
        return _run_fault_matrix(seed, fault_classes, scenarios)


def _run_fault_matrix(
    seed: object,
    fault_classes: Optional[List[str]],
    scenarios: Tuple[str, ...],
) -> Dict[str, object]:
    from repro import faults

    classes = list(fault_classes) if fault_classes else sorted(faults.FAULT_CLASSES)
    baselines = {name: run_fault_scenario(name) for name in scenarios}
    matrix: Dict[Tuple[str, str], Dict[str, object]] = {}
    for scenario in scenarios:
        for fault_class in classes:
            plan = faults.matrix_plan(fault_class, seed)
            matrix[(scenario, fault_class)] = {
                "outcome": run_fault_cell(scenario, plan, baselines[scenario]),
                "faults_injected": len(plan.log),
                "log_digest": plan.log.digest()[:12],
                "log": plan.log,
            }
    return {"seed": seed, "baselines": baselines, "matrix": matrix}


def format_fault_matrix(results: Dict[str, object]) -> str:
    matrix: Dict[Tuple[str, str], Dict[str, object]] = results["matrix"]  # type: ignore[assignment]
    rows = [
        [scenario, fault_class, cell["faults_injected"], cell["outcome"],
         cell["log_digest"]]
        for (scenario, fault_class), cell in matrix.items()
    ]
    recovered = sum(1 for cell in matrix.values() if cell["outcome"] == "ok")
    table = format_table(
        ["scenario", "fault class", "injected", "outcome", "log digest"],
        rows,
        title=f"Fault matrix — seed {results['seed']!r} "
        "(ok = result identical to the fault-free run)",
    )
    return f"{table}\nrecovered {recovered}/{len(matrix)} cells"


# ---------------------------------------------------------------------------
# Load — sharded controller scale-out under a seeded open-loop population
# ---------------------------------------------------------------------------

LOAD_SCENARIOS = ("middlebox", "routing", "tor")


def run_load(
    scenario: str = "routing",
    clients: int = 200,
    shards: int = 2,
    batch: int = 8,
    seed: int = 0,
    events: Optional[int] = None,
    n_ases: int = 24,
    trace: Optional[obs.Tracer] = None,
    cohorts: bool = False,
    regions: Optional[int] = None,
) -> Dict[str, object]:
    """One deterministic load run; returns the BENCH_load.json document.

    The workload engine is clocked entirely by the cost model (see
    :mod:`repro.load.engine`): with a fixed seed the returned document
    is byte-identical run over run, so CI can diff two consecutive
    invocations.  ``cohorts`` folds statistically identical clients
    through the dispatch-replay memo (:mod:`repro.load.cohorts`) —
    pinned byte-identical to executing every dispatch — and ``regions``
    deploys the routing shards as a two-level tree.
    """
    from repro.load.cohorts import run_load_cohorts
    from repro.load.engine import run_load_engine
    from repro.load.report import bench_doc

    runner = run_load_cohorts if cohorts else run_load_engine
    with _traced(trace, "load"):
        result = runner(
            scenario,
            n_clients=clients,
            n_shards=shards,
            batch=batch,
            seed=seed,
            n_events=events,
            n_ases=n_ases,
            regions=regions,
        )
    return bench_doc(result)


def format_load(doc: Dict[str, object]) -> str:
    config: Dict[str, object] = doc["config"]  # type: ignore[assignment]
    latency: Dict[str, float] = doc["latency_cycles"]  # type: ignore[assignment]
    throughput: Dict[str, float] = doc["throughput"]  # type: ignore[assignment]
    crossings: Dict[str, float] = doc["crossings"]  # type: ignore[assignment]
    outcomes: Dict[str, int] = doc["outcomes"]  # type: ignore[assignment]
    rows = [
        ["events served", throughput["events"]],
        ["makespan (cycles)", format_count(throughput["makespan_cycles"])],
        ["throughput (events/Gcycle)", f"{throughput['events_per_gcycle']:.2f}"],
        ["latency p50 (cycles)", format_count(latency["p50"])],
        ["latency p90 (cycles)", format_count(latency["p90"])],
        ["latency p99 (cycles)", format_count(latency["p99"])],
        ["enclave crossings / event", f"{crossings['per_event']:.2f}"],
        ["outcomes", ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))],
    ]
    return format_table(
        ["metric", "value"],
        rows,
        title=(
            f"Load — {doc['scenario']} with {config['clients']} clients, "
            f"{config['shards']} shard(s), batch {config['batch']}, "
            f"seed {config['seed']}"
        ),
    )


def run_load_ablation(
    scenario: str = "routing",
    clients: int = 200,
    shard_counts: Tuple[int, ...] = (1, 2, 4, 8),
    batch_sizes: Tuple[int, ...] = (1, 8, 32),
    seed: int = 0,
    n_ases: int = 24,
    trace: Optional[obs.Tracer] = None,
) -> Dict[Tuple[int, int], Dict[str, object]]:
    """Throughput/latency/crossings over the S x K grid (EXPERIMENTS A11)."""
    grid: Dict[Tuple[int, int], Dict[str, object]] = {}
    with _traced(trace, "load-ablation"):
        for shards in shard_counts:
            for batch in batch_sizes:
                grid[(shards, batch)] = run_load(
                    scenario,
                    clients=clients,
                    shards=shards,
                    batch=batch,
                    seed=seed,
                    n_ases=n_ases,
                )
    return grid


def format_load_ablation(grid: Dict[Tuple[int, int], Dict[str, object]]) -> str:
    rows = []
    for (shards, batch), doc in sorted(grid.items()):
        throughput: Dict[str, float] = doc["throughput"]  # type: ignore[assignment]
        latency: Dict[str, float] = doc["latency_cycles"]  # type: ignore[assignment]
        crossings: Dict[str, float] = doc["crossings"]  # type: ignore[assignment]
        rows.append(
            [
                shards,
                batch,
                f"{throughput['events_per_gcycle']:.2f}",
                format_count(latency["p50"]),
                format_count(latency["p99"]),
                f"{crossings['per_event']:.2f}",
            ]
        )
    return format_table(
        ["shards", "batch", "events/Gcycle", "p50 cycles", "p99 cycles",
         "crossings/event"],
        rows,
        title="Load ablation — scale-out (S) x crossing batch (K)",
    )


def run_load_cohort_ablation(
    scenario: str = "routing",
    client_counts: Tuple[int, ...] = (200, 1000),
    shards: int = 4,
    batch: int = 8,
    seed: int = 0,
    n_ases: int = 24,
    region_counts: Tuple[Optional[int], ...] = (None, 2),
    trace: Optional[obs.Tracer] = None,
) -> Dict[Tuple[int, Optional[int], str], Dict[str, object]]:
    """Cohort-vs-per-client tier grid (EXPERIMENTS A16).

    For every client count x shard-tree depth (flat, or a two-level
    tree with R regions) the grid holds both tiers' BENCH documents
    plus their wall-clock cost, and each cohort cell records whether
    its document equals the per-client twin's — the modeled numbers
    are deterministic, only ``wall_seconds`` varies run to run.
    """
    import time as _time

    grid: Dict[Tuple[int, Optional[int], str], Dict[str, object]] = {}
    with _traced(trace, "load-cohort-ablation"):
        for clients in client_counts:
            for regions in region_counts:
                for tier in ("per-client", "cohort"):
                    start = _time.perf_counter()
                    doc = run_load(
                        scenario,
                        clients=clients,
                        shards=shards,
                        batch=batch,
                        seed=seed,
                        n_ases=n_ases,
                        cohorts=tier == "cohort",
                        regions=regions,
                    )
                    grid[(clients, regions, tier)] = {
                        "doc": doc,
                        "wall_seconds": _time.perf_counter() - start,
                    }
    for (clients, regions, tier), cell in grid.items():
        if tier == "cohort":
            twin = grid[(clients, regions, "per-client")]["doc"]
            cell["matches_per_client"] = cell["doc"] == twin
    return grid


def format_load_cohort_ablation(
    grid: Dict[Tuple[int, Optional[int], str], Dict[str, object]]
) -> str:
    rows = []
    order = sorted(
        grid,
        key=lambda k: (k[0], k[1] if k[1] is not None else 0, k[2]),
    )
    for key in order:
        clients, regions, tier = key
        cell = grid[key]
        doc: Dict[str, object] = cell["doc"]  # type: ignore[assignment]
        throughput: Dict[str, float] = doc["throughput"]  # type: ignore[assignment]
        crossings: Dict[str, float] = doc["crossings"]  # type: ignore[assignment]
        if tier == "cohort":
            match = "yes" if cell["matches_per_client"] else "NO"
        else:
            match = "-"
        rows.append(
            [
                clients,
                "flat" if regions is None else f"{regions} regions",
                tier,
                f"{cell['wall_seconds']:.2f}",
                f"{throughput['events_per_gcycle']:.2f}",
                f"{crossings['per_event']:.2f}",
                match,
            ]
        )
    return format_table(
        ["clients", "tree", "tier", "wall s", "events/Gcycle",
         "crossings/event", "== per-client"],
        rows,
        title="Load cohorts — tier x shard-tree depth (A16)",
    )
