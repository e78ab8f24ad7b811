"""Ablation: switchless transitions vs ordinary enclave crossings.

The switchless call queue — the synchronous mode of
``repro.sgx.rings.RingPair`` — replaces the two ~10K-cycle SGX
instructions of each ocall/packet-I/O crossing with a shared-memory
request slot serviced by an untrusted worker.  This
ablation reruns the Table 2 methodology with the queue off and on:

* a 100-ocall burst — the per-call crossing cost the queue eliminates
  entirely (100 crossings -> 0), and
* the packet-transmission path across batch sizes — batching already
  amortizes the crossing; switchless removes the remainder.
"""

from conftest import emit

from repro.cost import DEFAULT_MODEL
from repro.experiments import (
    format_switchless_ablation,
    run_switchless_ablation,
)


def _cycles(counter) -> float:
    return DEFAULT_MODEL.cycles(
        counter.sgx_instructions, counter.normal_instructions
    )


def test_ablation_switchless(once, benchmark):
    results = once(run_switchless_ablation)
    emit(format_switchless_ablation(results))

    # ---- 100-ocall workload: >= 50% fewer crossings (acceptance bar;
    # the queue actually eliminates them entirely while a worker runs).
    off, on = results["ocalls"][False], results["ocalls"][True]
    assert off.enclave_crossings == results["n_ocalls"]
    assert on.enclave_crossings <= off.enclave_crossings // 2
    assert on.enclave_crossings == 0
    assert on.switchless_calls == results["n_ocalls"]
    assert _cycles(on) < _cycles(off)
    benchmark.extra_info["ocall_crossings_off"] = off.enclave_crossings
    benchmark.extra_info["ocall_crossings_on"] = on.enclave_crossings

    # ---- Table 2 packet path: measurable modeled-cycle reduction at
    # every batch size, and no SGX instructions on the switchless side.
    for (n, switchless), counter in results["packets"].items():
        benchmark.extra_info[f"pkt{n}_{'on' if switchless else 'off'}"] = _cycles(
            counter
        )
    for n in sorted({n for n, _ in results["packets"]}):
        off, on = results["packets"][(n, False)], results["packets"][(n, True)]
        assert on.enclave_crossings == 0
        assert on.sgx_instructions == 0
        assert _cycles(on) < 0.5 * _cycles(off), n
