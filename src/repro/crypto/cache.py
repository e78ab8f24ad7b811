"""Wall-clock crypto caches — invisible to the cost model.

Every primitive in :mod:`repro.crypto` charges *modeled* instruction
costs through :mod:`repro.cost.context`; the Python work it does to
produce the bytes is pure wall-clock overhead.  This module hosts the
machinery that removes that overhead without perturbing the model:

* a process-wide enable switch (:func:`enabled` / :func:`configure` /
  :func:`disabled`), so cold-path baselines are one call away;
* a registry of every cache so :func:`clear_all` can return the
  process to a cold state (the perf harness and the cache-equivalence
  tests rely on this);
* :func:`burst_charged`, which records a call's charges and lands
  them in the real accountant as one burst, with no table;
* :func:`memoize_charged`, a memoizer for *pure, deterministic*
  functions built on it, which replays the exact integer instruction
  charges the cold computation made, so cached and cold calls are
  indistinguishable to any :class:`~repro.cost.accountant.CostAccountant`;
* detection of the optional C-backed AES kernel (the ``cryptography``
  wheel, the ``aes`` extra) used by :mod:`repro.crypto.aes` for
  byte-identical fast block operations, and the per-stream CTR
  contexts :class:`~repro.crypto.modes.CtrStream` refills from.

The hard invariant, pinned by ``tests/crypto/test_cache_equivalence``:
caches change wall-clock time only.  Ciphertexts, MACs, digests and
every cost counter are byte- and integer-identical with caches on or
off.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cost import context as cost_context

__all__ = [
    "enabled",
    "configure",
    "disabled",
    "clear_all",
    "register",
    "CacheStats",
    "burst_charged",
    "memoize_charged",
    "fast_aes_factory",
]

#: Flipped off by :func:`configure` / :func:`disabled` for cold-path runs.
_ENABLED = True

#: Default bound on memo tables; unique-key workloads (e.g. per-session
#: record keys) must not grow memory without limit.
DEFAULT_MAXSIZE = 16384

#: (cache dict, stats, name) triples for clear_all()/introspection.
_REGISTRY: List[Tuple[dict, "CacheStats", str]] = []


class CacheStats:
    """Hit/miss counters for one cache (perf harness + tests)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def enabled() -> bool:
    """Whether the wall-clock caches (and fast kernels) are active."""
    return _ENABLED


def configure(on: bool) -> None:
    """Globally enable or disable every cache and fast kernel."""
    global _ENABLED
    _ENABLED = bool(on)


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Run the block on the cold path (pure-Python, no memo hits)."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prior


def register(cache: dict, name: str, stats: Optional[CacheStats] = None) -> CacheStats:
    """Track ``cache`` so :func:`clear_all` can empty it; returns stats."""
    if stats is None:
        stats = CacheStats()
    _REGISTRY.append((cache, stats, name))
    return stats


def clear_all() -> None:
    """Empty every registered cache and zero its stats (cold state)."""
    for cache, stats, _name in _REGISTRY:
        cache.clear()
        stats.reset()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Name -> hit/miss counts for every registered cache."""
    out: Dict[str, Dict[str, int]] = {}
    for cache, stats, name in _REGISTRY:
        entry = stats.as_dict()
        entry["entries"] = len(cache)
        out[name] = entry
    return out


def _trim(cache: dict, maxsize: int) -> None:
    """Drop the oldest half of ``cache`` once it outgrows ``maxsize``."""
    if len(cache) < maxsize:
        return
    for key in list(cache.keys())[: maxsize // 2]:
        del cache[key]


# ---------------------------------------------------------------------------
# Charge-replaying memoization
# ---------------------------------------------------------------------------


class _ChargeRecorder:
    """Duck-typed accountant capturing charges for later exact replay.

    Installed as the ambient accountant while a memoized function runs
    cold; the captured integer totals are stored beside the result and
    replayed into the real accountant on both the cold miss and every
    later hit, so the accountant sees identical integers either way.
    ``current_domain`` proxies the real accountant because
    :func:`repro.cost.context.charge_app_normal` inspects it to decide
    the in-enclave inflation factor.
    """

    enabled = True

    def __init__(self, outer: Optional[Any]) -> None:
        self._outer = outer
        self.normal = 0
        self.sgx = 0
        self.crossings = 0
        self.allocations = 0
        self.switchless = 0
        self.faults = 0

    @property
    def current_domain(self) -> str:
        if self._outer is not None:
            return self._outer.current_domain
        return "untrusted"

    def charge_normal(self, count: int) -> None:
        self.normal += int(count)

    def charge_sgx(self, count: int = 1) -> None:
        self.sgx += count

    def charge_crossing(self, count: int = 1) -> None:
        self.crossings += count

    def charge_allocation(self, count: int = 1) -> None:
        self.allocations += count

    def charge_switchless(self, count: int = 1) -> None:
        self.switchless += count

    def charge_fault(self, count: int = 1) -> None:
        self.faults += count

    def charge_burst(
        self,
        sgx: int = 0,
        normal: int = 0,
        crossings: int = 0,
        allocations: int = 0,
        switchless: int = 0,
        faults: int = 0,
    ) -> None:
        self.sgx += sgx
        self.normal += normal
        self.crossings += crossings
        self.allocations += allocations
        self.switchless += switchless
        self.faults += faults

    def charges(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.normal,
            self.sgx,
            self.crossings,
            self.allocations,
            self.switchless,
            self.faults,
        )


def _replay(accountant: Optional[Any], charges: Tuple[int, ...]) -> None:
    if accountant is None:
        return
    normal, sgx, crossings, allocations, switchless, faults = charges
    # One coalesced call per burst; integer- and trace-identical to the
    # per-field charge sequence (charge_burst's contract).
    accountant.charge_burst(
        sgx=sgx,
        normal=normal,
        crossings=crossings,
        allocations=allocations,
        switchless=switchless,
        faults=faults,
    )


def burst_charged(func: Callable) -> Callable:
    """Charge each call's totals as one burst.

    The call runs under a :class:`_ChargeRecorder`; its integer totals
    then land in the real accountant in one replay.  A metrics sample
    whose boundary falls inside the call therefore reads the same as
    if the charges had arrived together, and a raising call still
    lands what it charged before the raise, as one burst too.  The
    wrapper's ``record(*args, **kwargs)`` does the same and returns
    ``(result, charges)`` for :func:`memoize_charged` to keep.
    """

    def record(*args: Any, **kwargs: Any) -> Tuple[Any, Tuple[int, ...]]:
        accountant = cost_context.current_accountant()
        recorder = _ChargeRecorder(accountant)
        try:
            with cost_context.use_accountant(recorder):
                result = func(*args, **kwargs)
        finally:
            _replay(accountant, recorder.charges())
        return result, recorder.charges()

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return record(*args, **kwargs)[0]

    wrapper.record = record  # type: ignore[attr-defined]
    return wrapper


def memoize_charged(
    fn: Optional[Callable] = None,
    *,
    name: Optional[str] = None,
    maxsize: int = DEFAULT_MAXSIZE,
) -> Callable:
    """Memoize a pure function, replaying its exact instruction charges.

    Only for deterministic leaf computations whose sole side effect is
    ambient cost charging (no spans, instants, fault decisions or
    domain switches inside).  The cache key includes the active
    :class:`~repro.cost.model.CostModel` because recorded charges are
    model-dependent.  Unhashable arguments silently take the cold path.

    A call charges its totals as one burst whether it hits, misses or
    runs with caches disabled (:func:`burst_charged`), so a metrics
    sample that falls inside the computation reads the same on every
    path.  Raising calls are not cached.
    """

    def decorate(func: Callable) -> Callable:
        cache: Dict[Any, Tuple[Any, Tuple[int, ...]]] = {}
        stats = register(cache, name or func.__qualname__)
        record = burst_charged(func).record

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = None
            if _ENABLED:
                try:
                    key = (cost_context.current_model(), args,
                           tuple(sorted(kwargs.items())))
                    entry = cache.get(key)
                except TypeError:
                    key = None
                else:
                    if entry is not None:
                        stats.hits += 1
                        _replay(cost_context.current_accountant(), entry[1])
                        return entry[0]
                    stats.misses += 1
            result, charges = record(*args, **kwargs)
            if key is not None:
                _trim(cache, maxsize)
                cache[key] = (result, charges)
            return result

        wrapper.cache = cache  # type: ignore[attr-defined]
        wrapper.stats = stats  # type: ignore[attr-defined]
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate


# ---------------------------------------------------------------------------
# Fast AES kernel (optional, byte-identical)
# ---------------------------------------------------------------------------

_FAST_AES: Optional[Any] = None
_FAST_PROBED = False


def _probe_fast_aes() -> Optional[Any]:
    global _FAST_AES, _FAST_PROBED
    if not _FAST_PROBED:
        _FAST_PROBED = True
        try:
            from cryptography.hazmat.primitives.ciphers import (  # noqa: PLC0415
                Cipher,
                algorithms,
                modes,
            )

            _FAST_AES = (Cipher, algorithms, modes)
        except Exception:  # pragma: no cover — environment without the wheel
            _FAST_AES = None
    return _FAST_AES


def fast_aes_factory(key: bytes) -> Optional[Tuple[Any, Any, Callable[[int], Any]]]:
    """(encryptor, decryptor, CTR opener) for ``key``, or ``None``.

    ECB contexts are stateless per block, so one pair serves every
    block operation for this key.  The opener returns a fresh CTR
    encryptor positioned at a 128-bit counter; it wraps all 128 bits,
    as the T-table path's counter arithmetic does.  A
    :class:`~repro.crypto.modes.CtrStream` opens one lazily at its
    first refill and keeps it only as a cache of its position: the
    stream's counter and buffer stay authoritative, ``skip`` drops the
    context without opening another, and a refill charges the same
    per-block model cost whichever path made its bytes.  AES is AES:
    the output bytes are identical to the from-scratch T-table
    implementation, which the NIST-vector and cache-equivalence tests
    both pin.
    """
    probed = _probe_fast_aes()
    if probed is None:
        return None
    cipher_cls, algorithms, modes = probed
    algorithm = algorithms.AES(key)
    ecb = cipher_cls(algorithm, modes.ECB())

    def open_ctr(counter: int) -> Any:
        return cipher_cls(algorithm, modes.CTR(counter.to_bytes(16, "big"))).encryptor()

    return ecb.encryptor(), ecb.decryptor(), open_ctr
