"""Layer spans timed from outside the program.

The traced benchmark run wraps a fixed list of public entry points of
``repro``, one list per layer, and keeps one stack of open spans.  A
layer's self time is its span time minus the time of the child spans
of *other* layers opened inside it; re-entering the layer that is
already innermost merges into that span.  Nothing under ``src/`` is
edited: a module function is re-bound in every ``repro.*`` namespace
that imported it, and a method is replaced on the class that defines
it.  :func:`installed` undoes every patch on exit.
"""

from __future__ import annotations

import contextlib
import fnmatch
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: Layer -> entry points, written ``module:function`` or
#: ``module:Class.method``; a ``*`` in a method name matches every
#: method the class defines under that pattern.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "crypto": (
        "repro.crypto.modes:CtrStream.keystream",
        "repro.crypto.mac:hmac_sha256",
        "repro.crypto.kdf:hkdf",
        "repro.crypto.drbg:HmacDrbg.generate",
        "repro.crypto.dh:generate_keypair",
        "repro.crypto.dh:shared_secret",
        "repro.crypto.rsa:rsa_sign",
        "repro.crypto.rsa:rsa_verify",
        "repro.crypto.rsa:generate_rsa_keypair",
        "repro.crypto.numtheory:is_probable_prime",
        "repro.crypto.schnorr:schnorr_sign",
        "repro.crypto.schnorr:schnorr_verify",
    ),
    "sgx": (
        "repro.sgx.enclave:Enclave.ecall",
        "repro.sgx.enclave:Enclave.ecall_batch",
    ),
    "channel": (
        "repro.net.channel:SecureRecordChannel.protect",
        "repro.net.channel:SecureRecordChannel.open",
        "repro.net.channel:SecureRecordChannel.protect_many",
        "repro.net.channel:SecureRecordChannel.open_many",
    ),
    "kernel": (
        "repro.net.sim:Simulator.run",
        "repro.net.network:Network.transmit",
    ),
    "cost": (
        "repro.cost.accountant:CostAccountant.charge_*",
        "repro.cost.accountant:CostAccountant.snapshot",
        "repro.cost.accountant:CostAccountant.delta",
    ),
    "obs": (
        "repro.obs.tracer:Tracer.on_charge",
        "repro.obs.tracer:Tracer.on_instant",
        "repro.obs.tracer:Tracer.on_field",
        "repro.obs.tracer:Tracer.span",
        "repro.obs.metrics:MetricsRegistry.observe_*",
        "repro.obs.metrics:MetricsRegistry.on_clock",
        "repro.obs.export:reconcile",
    ),
    "load": (
        "repro.load.engine:LoadEngine.run",
        "repro.load.cohorts:CohortLoadEngine.run_stream",
        "repro.load.engine:_RoutingBackend.dispatch",
        "repro.load.engine:_TorBackend.dispatch",
        "repro.load.engine:_MiddleboxBackend.dispatch",
        "repro.load.cohorts:_CohortCache.dispatch",
    ),
    "app": (
        "repro.load.shards:ShardControllerProgram.front_requests",
        "repro.load.shards:ShardControllerProgram.take_replies",
        "repro.load.shards:ShardControllerProgram.re_register",
        "repro.routing.messages:encode_routes_msg",
        "repro.routing.messages:decode_msg",
        "repro.tor.deployment:TorDeployment.run_client_request",
        "repro.middlebox.scenarios:MiddleboxScenario.__init__",
        "repro.middlebox.scenarios:MiddleboxScenario.run",
    ),
}

#: Entry points whose calls also add the byte length of their result
#: to the entry's tally (records leaving the channel layer).
SIZED = frozenset({"repro.net.channel:SecureRecordChannel.protect"})


class SpanError(RuntimeError):
    """An entry point could not be resolved or wrapped."""


class LayerClock:
    """Self time per layer from one stack of open spans.

    ``clock`` is injectable so the arithmetic can be tested with a
    fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.self_s: Dict[str, float] = {}
        #: open spans, innermost last: [layer, start, child time, depth]
        self._stack: List[list] = []

    def push(self, layer: str) -> None:
        stack = self._stack
        if stack and stack[-1][0] == layer:
            stack[-1][3] += 1
        else:
            stack.append([layer, self._clock(), 0.0, 1])

    def pop(self) -> None:
        frame = self._stack[-1]
        frame[3] -= 1
        if frame[3]:
            return
        self._stack.pop()
        elapsed = self._clock() - frame[1]
        layer = frame[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    def is_idle(self) -> bool:
        """True when no span is open (a safe point to snapshot)."""
        return not self._stack


class EntryStats:
    """Calls of one entry point and, for sized entries, result bytes."""

    __slots__ = ("layer", "calls", "bytes")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.bytes = 0


class _TimedContext:
    """A context manager whose enter and exit each run as a span."""

    __slots__ = ("_cm", "_layer", "_clock")

    def __init__(self, cm, layer: str, clock: LayerClock) -> None:
        self._cm = cm
        self._layer = layer
        self._clock = clock

    def __enter__(self):
        self._clock.push(self._layer)
        try:
            return self._cm.__enter__()
        finally:
            self._clock.pop()

    def __exit__(self, *exc):
        self._clock.push(self._layer)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._clock.pop()


def _make_wrapper(fn: Callable, kind: str, layer: str, stats: EntryStats,
                  clock: LayerClock) -> Callable:
    push, pop = clock.push, clock.pop
    if kind == "sized":
        def wrapper(*args, **kwargs):
            stats.calls += 1
            push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
            stats.bytes += len(result)
            return result
    elif kind == "context":
        def wrapper(*args, **kwargs):
            stats.calls += 1
            push(layer)
            try:
                cm = fn(*args, **kwargs)
            finally:
                pop()
            return _TimedContext(cm, layer, clock)
    else:
        def wrapper(*args, **kwargs):
            stats.calls += 1
            push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
    wrapper.__wrapped__ = fn
    return wrapper


def _kind(fn: object, spec: str) -> str:
    if not inspect.isfunction(fn):
        raise SpanError(f"{spec}: not a plain function ({type(fn).__name__})")
    if inspect.isgeneratorfunction(fn):
        # A span around a generator would stretch across its yields.
        raise SpanError(f"{spec}: generator functions cannot be spanned")
    if inspect.isgeneratorfunction(inspect.unwrap(fn)):
        return "context"
    return "sized" if spec in SIZED else "plain"


def resolve(spec: str) -> List[Tuple[object, str, Callable, str]]:
    """``spec`` -> [(owner, attribute, function, entry name)]."""
    module_name, _, path = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SpanError(f"{spec}: {exc}") from exc
    if "." not in path:
        fn = getattr(module, path, None)
        if fn is None:
            raise SpanError(f"{spec}: no such function")
        return [(module, path, fn, spec)]
    class_name, _, pattern = path.partition(".")
    cls = getattr(module, class_name, None)
    if not inspect.isclass(cls):
        raise SpanError(f"{spec}: no such class")
    names = sorted(n for n in vars(cls) if fnmatch.fnmatchcase(n, pattern))
    if not names:
        raise SpanError(f"{spec}: the class defines no such method")
    return [
        (cls, name, vars(cls)[name], f"{module_name}:{class_name}.{name}")
        for name in names
    ]


def _namespaces() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextlib.contextmanager
def patched(owner: object, name: str, replacement: object) -> Iterator[None]:
    """Set ``owner.name`` for the duration of the block."""
    original = vars(owner)[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def installed(clock: LayerClock) -> Iterator[Dict[str, EntryStats]]:
    """Wrap every entry point of :data:`LAYERS`; yield entry -> stats.

    Raises :class:`SpanError` before patching anything if an entry
    point cannot be resolved or wrapped.
    """
    plan = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            for owner, name, fn, entry in resolve(spec):
                plan.append((layer, owner, name, fn, entry, _kind(fn, entry)))
    stats: Dict[str, EntryStats] = {}
    with contextlib.ExitStack() as undo:
        for layer, owner, name, fn, entry, kind in plan:
            stats[entry] = EntryStats(layer)
            wrapper = _make_wrapper(fn, kind, layer, stats[entry], clock)
            if inspect.isclass(owner):
                undo.enter_context(patched(owner, name, wrapper))
                continue
            # A module function: re-bind it wherever it was imported.
            for namespace in _namespaces():
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        undo.enter_context(patched(namespace, attr, wrapper))
        yield stats
