"""Every public method and property of the enclave runtime has a caller.

:class:`~repro.sgx.runtime.EnclaveContext` (what an enclave program
sees of its platform) and :class:`~repro.sgx.rings.RingPair` (the one
crossing-amortization mechanism) are where test-only surface piles up:
front doors and options that no scenario, experiment, CLI command or
fault class reaches.  This guard parses ``src/``, ``bench/``,
``benchmarks/`` and ``examples/`` and requires each public method and
property of both classes to appear there as an attribute
(``obj.name``), not merely as a word.
"""

import ast
import inspect
from pathlib import Path

from repro.sgx.rings import RingPair
from repro.sgx.runtime import EnclaveContext

ROOT = Path(__file__).resolve().parents[2]

#: Public names kept without a caller in the shipped code, each with
#: its reason.
ALLOWED_UNREFERENCED = {
    # The read half of the heap-page API; the enclave-pressure
    # benchmark and the emulator tour only write pages, tests read
    # them back through the EPC with it.
    ("EnclaveContext", "read_heap"),
    # Introspection the ring suites assert on (worker regime, backlog,
    # unreaped tickets); nothing in a run needs to read it back.
    ("RingPair", "worker_running"),
    ("RingPair", "depth"),
    ("RingPair", "in_flight"),
}


def _public_surface(cls):
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, property))
    )


def _attribute_names():
    names = set()
    for top in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            names.update(
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
            )
    return names


def test_every_runtime_method_is_referenced():
    referenced = _attribute_names()
    unreferenced = {
        (cls.__name__, name)
        for cls in (EnclaveContext, RingPair)
        for name in _public_surface(cls)
        if name not in referenced
    }
    # Equality, so an allow-listed name that gains a caller (or goes)
    # leaves the list too.
    assert unreferenced == ALLOWED_UNREFERENCED
