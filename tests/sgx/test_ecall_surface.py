"""Every ecall an enclave program exports has a caller.

An enclave program's source is its measurement
(:func:`repro.sgx.measurement.program_code_bytes`), so a method nothing
invokes still ships inside MRENCLAVE.  This guard walks every
:class:`~repro.sgx.runtime.EnclaveProgram` subclass in the package and
requires each public method to be named somewhere in ``src/`` or
``tests/`` other than its own ``def`` line.  Ecalls are dispatched by
name (``enclave.ecall("name", ...)``), so a plain word search is the
check: a dynamic name built at run time would escape it, and none
exists today.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro
from repro.sgx.runtime import EnclaveProgram

ROOT = Path(__file__).resolve().parents[2]

#: Methods kept without a caller, each because deleting it moves pinned
#: output: the class source is the MRENCLAVE, and the MRENCLAVE reaches
#: modeled costs and signed bytes (DESIGN.md §15).
ALLOWED_UNCALLED = {
    # Deleting its 3 lines moves the seed-1 `health tor` export pin
    # (tests/obs/test_export_pins.py::test_health_timeseries_pinned[tor]).
    ("DirectoryAuthorityProgram", "consensus_entry_count"),
    # Deleting it moves the FaultLog digests of 5 tor network-fault
    # cells at seed 0 and 2 at seed 1: the seeded faults land on other
    # datagrams.  Outcomes and counts stay the same.
    ("OnionRouterEnclaveProgram", "seal_onion_key"),
}


def _program_classes():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    seen, stack = set(), [EnclaveProgram]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen and sub.__module__.startswith("repro."):
                seen.add(sub)
                stack.append(sub)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def _public_methods(cls):
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def _source_lines():
    """Every line of ``src/`` and ``tests/`` except this file's own."""
    lines = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                lines.extend(path.read_text(encoding="utf-8").splitlines())
    return lines


def test_every_enclave_method_is_named_beyond_its_def():
    lines = _source_lines()
    uncalled = set()
    for cls in _program_classes():
        for name in _public_methods(cls):
            word = re.compile(rf"\b{re.escape(name)}\b")
            own_def = re.compile(rf"^\s*def {re.escape(name)}\(")
            if not any(
                word.search(line) and not own_def.match(line) for line in lines
            ):
                uncalled.add((cls.__qualname__, name))
    # Equality, so an allow-listed method that gains a caller (or goes)
    # leaves the list too.
    assert uncalled == ALLOWED_UNCALLED
