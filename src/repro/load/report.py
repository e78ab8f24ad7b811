"""BENCH_load.json: the load run's machine-readable report.

The document is fully deterministic: ``json.dumps`` with sorted keys
over values derived only from seeded state and modeled clocks, so two
runs with the same arguments produce byte-identical files (the CI load
job diffs two consecutive runs).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.load.engine import LoadResult

__all__ = [
    "SCHEMA",
    "bench_doc",
    "bench_json",
    "validate_bench",
    "weighted_mean",
    "weighted_percentile",
]

SCHEMA = "repro.load/1"

#: Required top-level keys and the type each must carry.
_REQUIRED: Dict[str, type] = {
    "schema": str,
    "scenario": str,
    "config": dict,
    "throughput": dict,
    "latency_cycles": dict,
    "crossings": dict,
    "outcomes": dict,
    "shards": dict,
    "counters": dict,
    "event_fingerprint": str,
}

_REQUIRED_CONFIG = ("clients", "shards", "batch", "seed", "events", "regions")
_REQUIRED_LATENCY = ("p50", "p90", "p99", "max", "mean")
_REQUIRED_THROUGHPUT = ("events", "makespan_cycles", "events_per_gcycle")


def weighted_mean(samples: Sequence[Tuple[float, int]]) -> float:
    """Mean over weighted ``(value, count)`` samples, sorted by value.

    Float addition is not associative, so the accumulation walks the
    *expanded* multiset in sorted order — the exact add sequence
    ``sum(sorted(latencies))`` performs over one latency per event.
    The report's mean is therefore bit-identical to that oracle, not
    merely close (report bytes are pinned and compared).
    """
    total = 0.0
    n = 0
    for value, count in samples:
        for _ in range(count):
            total += value
        n += count
    return total / n if n else 0.0


def weighted_percentile(samples: Sequence[Tuple[float, int]], p: float) -> float:
    """Nearest-rank percentile over weighted ``(value, count)`` samples.

    Identical to indexing the sorted expansion at
    ``max(1, ceil(p*n/100)) - 1`` — rank arithmetic is all-integer, and
    the cumulative-count walk lands on the same element without
    materializing the expansion.
    """
    n = sum(count for _value, count in samples)
    if n == 0:
        return 0.0
    rank = min(max(1, -(-int(p * n) // 100)), n)  # ceil(p*n/100), clamped
    seen = 0
    for value, count in samples:
        seen += count
        if seen >= rank:
            return value
    return samples[-1][0]  # pragma: no cover - rank <= n always lands


def bench_doc(result: LoadResult) -> dict:
    """Shape a :class:`LoadResult` into the BENCH_load.json document."""
    samples = result.latency_samples
    served = result.served
    crossings = result.steady_counters.get("enclave_crossings", 0)
    makespan = result.makespan_cycles
    return {
        "schema": SCHEMA,
        "scenario": result.scenario,
        "config": {
            "clients": result.n_clients,
            "shards": result.n_shards,
            "batch": result.batch,
            "seed": result.seed,
            "events": result.n_events,
            "regions": result.regions,
        },
        "throughput": {
            "events": served,
            "makespan_cycles": makespan,
            "events_per_gcycle": (
                served / (makespan / 1e9) if makespan > 0 else 0.0
            ),
        },
        "latency_cycles": {
            "p50": weighted_percentile(samples, 50),
            "p90": weighted_percentile(samples, 90),
            "p99": weighted_percentile(samples, 99),
            "max": samples[-1][0] if samples else 0.0,
            "mean": weighted_mean(samples),
        },
        "crossings": {
            "total": crossings,
            "per_event": crossings / served if served else 0.0,
        },
        "outcomes": dict(sorted(result.outcomes.items())),
        "shards": {
            str(shard_id): dict(sorted(stats.items()))
            for shard_id, stats in sorted(result.shard_stats.items())
        },
        "counters": dict(sorted(result.steady_counters.items())),
        "setup_cycles": result.setup_cycles,
        "event_fingerprint": result.event_fingerprint,
    }


def bench_json(result: LoadResult) -> str:
    """The canonical byte-stable serialization of the report."""
    return json.dumps(bench_doc(result), sort_keys=True, indent=2) + "\n"


def validate_bench(doc: object) -> List[str]:
    """Schema check for a BENCH_load.json document.

    Returns a list of human-readable problems — empty means valid.
    Raises :class:`ReproError` only when the document is not a mapping
    at all (nothing sensible to enumerate).
    """
    if not isinstance(doc, dict):
        raise ReproError("BENCH_load document must be a JSON object")
    problems: List[str] = []
    for key, expected in _REQUIRED.items():
        if key not in doc:
            problems.append(f"missing key '{key}'")
        elif not isinstance(doc[key], expected):
            problems.append(
                f"key '{key}' should be {expected.__name__}, "
                f"got {type(doc[key]).__name__}"
            )
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema '{doc['schema']}' != '{SCHEMA}'")
    for key in _REQUIRED_CONFIG:
        if key not in doc["config"]:
            problems.append(f"config missing '{key}'")
    for key in _REQUIRED_LATENCY:
        if key not in doc["latency_cycles"]:
            problems.append(f"latency_cycles missing '{key}'")
        elif not isinstance(doc["latency_cycles"][key], (int, float)):
            problems.append(f"latency_cycles['{key}'] is not a number")
    for key in _REQUIRED_THROUGHPUT:
        if key not in doc["throughput"]:
            problems.append(f"throughput missing '{key}'")
    outcomes = doc["outcomes"]
    served = sum(v for v in outcomes.values() if isinstance(v, int))
    if served != doc["throughput"].get("events"):
        problems.append("outcome counts do not sum to served events")
    for name in outcomes:
        if name not in ("ok", "recovered", "failed"):
            problems.append(f"unknown outcome class '{name}'")
    return problems
