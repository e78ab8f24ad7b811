"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro table1          # remote-attestation instruction counts
    python -m repro table2          # enclave packet-I/O costs
    python -m repro table3          # attestations per design (live runs)
    python -m repro table4          # routing cost, 30 ASes
    python -m repro figure3         # controller scaling sweep
    python -m repro switchless      # switchless-transition ablation
    python -m repro rings           # sync-vs-async crossing grid (A14)
    python -m repro faults          # fault-injection matrix (--seed N)
    python -m repro epcstress       # EPC working-set stress sweep (A17)
        [--seed N] [--smoke] [--frames N] [--layout L] [--out FILE]
    python -m repro all             # everything above, in order
    python -m repro trace table4    # run traced, emit a cycle-accurate trace
        [--format json|folded|prom] [--out DIR]
    python -m repro load routing    # deterministic open-loop load run
        [--clients N] [--shards S] [--batch K] [--seed N] [--out FILE]
        [--cohorts]                 # cohort tier: fold repeat dispatches
        [--regions R] [--ases N]    # two-level shard tree over N ASes
    python -m repro health routing  # metrics + SLO health verdict
        [--seed N] [--clients N] [--shards S] [--batch K]
        [--interval CYCLES] [--fault CLASS] [--out DIR]

``load`` drives the seeded open-loop workload engine (``repro.load``)
against one of the case studies (``routing``, ``tor``, ``middlebox``)
— for routing, against the controller sharded across S enclave
instances with K-request ecall batching — prints the summary table,
and writes the machine-readable ``BENCH_load.json``.  Everything is
clocked by the cost model, so the same seed yields a byte-identical
report file.  ``--cohorts`` switches to the cohort tier: statistically
identical clients fold into dispatch-replay cohorts so million-client
populations finish in minutes with the *byte-identical* report the
per-client engine would have written.  ``--regions R`` deploys the
routing shards as a two-level tree (region heads relay for members)
over the ``--ases``-sized generated Internet topology.

``trace`` runs one scenario with the span tracer attached, asserts the
trace reconciles exactly against the cost accountants, and writes the
export: Chrome/Perfetto ``trace_event`` JSON (open in
https://ui.perfetto.dev or chrome://tracing), folded stacks for
flamegraph tooling, or Prometheus-style metrics text.

``health`` runs one load scenario with the deterministic metrics
registry sampling alongside the tracer, reconciles the series exactly,
evaluates the scenario's SLO set (availability burn rate, fault
recovery, p99 queueing latency, crossing budget) and exits nonzero on
any breach.  ``--fault shard_crash --shards 1`` is the deliberate
breach: the only shard crashes and every later event fails.

``epcstress`` sweeps the DPI automaton's working-set size across the
EPC boundary crossed with the boundary regimes (ecall, batch,
switchless, rings) on a paging-enabled platform with ``--frames`` EPC
frames, prints the sweep table and writes the byte-stable
``BENCH_epcstress.json`` (everything modeled — two runs diff clean).

Ablations and the full statistical harness live under ``benchmarks/``
(``pytest benchmarks/ --benchmark-only -s``); this CLI is the quick,
dependency-free way to see the reproduction next to the paper's
numbers.  Every number it prints is modeled; the reproduction's own
wall-clock speed is measured end to end and per layer by ``bench/``
(``python3 bench/run.py``, see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import experiments

SCENARIOS = (
    "table1", "table2", "table3", "table4", "figure3", "switchless", "rings",
    "faults",
)

#: export format -> file extension for --out
_TRACE_EXT = {"json": "json", "folded": "folded", "prom": "prom"}


def _table1() -> None:
    print(experiments.format_table1(experiments.run_table1()))


def _table2() -> None:
    print(experiments.format_table2(experiments.run_table2()))


def _table3() -> None:
    print(experiments.format_table3(experiments.run_table3()))


def _table4(n_ases: int) -> None:
    sgx, native = experiments.run_table4(n_ases=n_ases)
    print(experiments.format_table4(sgx, native))


def _figure3() -> None:
    print(experiments.format_figure3(experiments.run_figure3()))


def _switchless() -> None:
    print(
        experiments.format_switchless_ablation(
            experiments.run_switchless_ablation()
        )
    )


def _rings() -> None:
    print(experiments.format_rings_ablation(experiments.run_rings_ablation()))


def _faults(seed: int) -> None:
    print(experiments.format_fault_matrix(experiments.run_fault_matrix(seed=seed)))


def _load(args) -> None:
    """Run the load engine and write BENCH_load.json."""
    import json

    from repro.errors import ReproError
    from repro.load.report import bench_json, validate_bench

    clients = args.clients if args.clients is not None else 1000
    shards = args.shards if args.shards is not None else 1
    batch = args.batch if args.batch is not None else 1
    n_ases = args.ases if args.ases is not None else 24
    if args.cohorts:
        from repro.load.cohorts import run_load_cohorts

        result = run_load_cohorts(
            args.scenario,
            n_clients=clients,
            n_shards=shards,
            batch=batch,
            seed=args.seed,
            n_ases=n_ases,
            regions=args.regions,
        )
    else:
        from repro.load.engine import run_load_engine

        result = run_load_engine(
            args.scenario,
            n_clients=clients,
            n_shards=shards,
            batch=batch,
            seed=args.seed,
            n_ases=n_ases,
            regions=args.regions,
        )
    text = bench_json(result)
    problems = validate_bench(json.loads(text))
    if problems:  # pragma: no cover — would be a bug in bench_doc itself
        raise ReproError(
            "generated report fails its own schema: " + "; ".join(problems)
        )
    doc = json.loads(text)
    print(experiments.format_load(doc))
    out = args.out or "BENCH_load.json"
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out}", file=sys.stderr)


def _epcstress(args) -> None:
    """Run the A17 EPC working-set sweep and write the report."""
    from repro.errors import ReproError
    from repro.sgx import epcstress

    doc = epcstress.run_epcstress(
        seed=args.seed,
        smoke=args.smoke,
        frames=(
            args.frames if args.frames is not None
            else epcstress.DEFAULT_FRAMES
        ),
        layout=args.layout,
    )
    problems = epcstress.validate_epcstress(doc)
    if problems:
        raise ReproError(
            "epcstress report fails validation: " + "; ".join(problems)
        )
    print(epcstress.format_epcstress(doc))
    out = args.out or "BENCH_epcstress.json"
    with open(out, "w") as fh:
        fh.write(epcstress.epcstress_json(doc))
    print(f"wrote {out}", file=sys.stderr)


def _health(args) -> None:
    """Run the metrics + SLO health check; raise on any breach."""
    from repro.errors import ReproError
    from repro.obs.slo import (
        export_health_timeseries,
        format_health_report,
        run_health,
    )

    report = run_health(
        args.scenario,
        seed=args.seed,
        clients=args.clients,
        shards=args.shards if args.shards is not None else 2,
        batch=args.batch if args.batch is not None else 8,
        interval=args.interval,
        fault=args.fault,
        cohorts=args.cohorts,
    )
    print(format_health_report(report))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"metrics-{args.scenario}.om")
        with open(path, "w") as fh:
            fh.write(export_health_timeseries(report))
        print(f"wrote {path}", file=sys.stderr)
    if not report.healthy:
        breaches = [r.spec.name for r in report.results if not r.ok]
        raise ReproError("SLO breach: " + ", ".join(breaches))


def _trace(
    scenario: str, fmt: str, out: str, n_ases: int, seed: int, top: int
) -> None:
    """Run ``scenario`` traced, reconcile exactly, emit the export."""
    from repro import obs

    runners = {
        "table1": lambda t: experiments.run_table1(trace=t),
        "table2": lambda t: experiments.run_table2(trace=t),
        "table3": lambda t: experiments.run_table3(trace=t),
        "table4": lambda t: experiments.run_table4(n_ases=n_ases, trace=t),
        "figure3": lambda t: experiments.run_figure3(trace=t),
        "switchless": lambda t: experiments.run_switchless_ablation(trace=t),
        "rings": lambda t: experiments.run_rings_ablation(trace=t),
        "faults": lambda t: experiments.run_fault_matrix(seed=seed, trace=t),
    }
    tracer = obs.Tracer()
    runners[scenario](tracer)
    obs.reconcile(tracer)

    if fmt == "json":
        text = obs.trace_event_json(tracer, indent=2)
    elif fmt == "folded":
        text = obs.folded_stacks(tracer)
    else:
        text = obs.prometheus_text(tracer)

    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{scenario}.{_TRACE_EXT[fmt]}")
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {path}")
    else:
        print(text)

    sgx_clock, normal_clock = tracer.clock
    print(
        f"[trace {scenario}: {len(tracer.spans)} spans, "
        f"{len(tracer.instants)} instants, "
        f"clock {sgx_clock} sgx + {normal_clock} normal instructions "
        f"= {tracer.cycles_at(sgx_clock, normal_clock):.0f} cycles]",
        file=sys.stderr,
    )
    print(f"[top cost sites (n={top})]", file=sys.stderr)
    for name, kind, self_cycles, count in obs.top_cost_sites(tracer, n=top):
        unit = "event(s)" if kind == "event" else "span(s)"
        print(
            f"  {name} ({kind}): {self_cycles:.0f} self-cycles over {count} {unit}",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the evaluation of 'A First Step Towards Leveraging "
            "Commodity TEEs for Network Applications' (HotNets 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=list(SCENARIOS)
        + ["all", "trace", "load", "health", "epcstress"],
        help="which paper artifact to regenerate ('trace' records one, "
             "'load' runs the workload engine, 'health' evaluates SLOs "
             "over sampled metrics, 'epcstress' sweeps DPI working sets "
             "across the EPC boundary)",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(set(SCENARIOS) | set(experiments.LOAD_SCENARIOS)),
        help="scenario to trace, load or health-check (required for "
             "'trace', 'load' and 'health')",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="load/health: open-loop client population size "
             "(default: 1000 for load; per-scenario SLO shape for health)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="load/health: controller shard count for the routing scenario "
             "(default: 1 for load — unsharded; 2 for health)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        help="load/health: requests amortized per enclave crossing "
             "(default: 1 for load; 8 for health)",
    )
    parser.add_argument(
        "--cohorts",
        action="store_true",
        help="load/health: fold statistically identical clients into "
             "cohorts — replay repeat dispatches from a cache instead of "
             "re-executing (byte-identical report, minutes at 10^6 clients)",
    )
    parser.add_argument(
        "--regions",
        type=int,
        default=None,
        help="load: deploy the routing shards as a two-level tree with R "
             "regions — region heads relay secure messages for members "
             "(default: flat single-level sharding)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="epcstress: small problem sizes suitable for CI",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="epcstress: EPC frames on the stress platform (default: 512)",
    )
    parser.add_argument(
        "--layout",
        choices=("hot-first", "insertion"),
        default="hot-first",
        help="epcstress: automaton row layout in EPC pages "
             "(default: hot-first — shallow states packed first)",
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=10_000_000,
        help="health: metrics sample interval in modeled cycles "
             "(default: 10M)",
    )
    parser.add_argument(
        "--fault",
        default=None,
        help="health: activate one repro.faults fault class for the run "
             "(e.g. shard_crash — the deliberate SLO-breach lever)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="trace: cost sites to print in the summary (default: 5)",
    )
    parser.add_argument(
        "--ases",
        type=int,
        default=None,
        help="AS count: table4 topology (default: 30, as in the paper) or "
             "the load scenario's routing population (default: 24)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-plan seed for the faults job (default: 0)",
    )
    parser.add_argument(
        "--format",
        dest="format",
        choices=sorted(_TRACE_EXT),
        default="json",
        help="trace export format (default: json — Chrome/Perfetto trace_event)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write the trace export into (default: stdout)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "trace":
        if args.scenario is None:
            parser.error("'trace' needs a scenario, e.g. python -m repro trace table4")
        if args.scenario not in SCENARIOS:
            parser.error(f"'trace' scenario must be one of {', '.join(SCENARIOS)}")
    elif args.experiment in ("load", "health"):
        if args.scenario is None:
            parser.error(
                f"'{args.experiment}' needs a scenario, e.g. "
                f"python -m repro {args.experiment} routing"
            )
        if args.scenario not in experiments.LOAD_SCENARIOS:
            parser.error(
                f"'{args.experiment}' scenario must be one of "
                + ", ".join(experiments.LOAD_SCENARIOS)
            )
    elif args.scenario is not None:
        parser.error(f"unexpected positional {args.scenario!r} after {args.experiment!r}")

    if args.smoke and args.experiment != "epcstress":
        parser.error("--smoke only applies to 'epcstress'")
    if args.frames is not None and args.experiment != "epcstress":
        parser.error("--frames only applies to 'epcstress'")
    if args.fault is not None and args.experiment != "health":
        parser.error("--fault only applies to 'health'")
    if args.experiment not in ("load", "health"):
        for flag in ("clients", "shards", "batch"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} only applies to 'load' and 'health'")
        if args.cohorts:
            parser.error("--cohorts only applies to 'load' and 'health'")
    if args.regions is not None and args.experiment != "load":
        parser.error("--regions only applies to 'load'")

    jobs = {
        "table1": _table1,
        "table2": _table2,
        "table3": _table3,
        "table4": lambda: _table4(args.ases if args.ases is not None else 30),
        "figure3": _figure3,
        "switchless": _switchless,
        "rings": _rings,
        "faults": lambda: _faults(args.seed),
        "trace": lambda: _trace(
            args.scenario,
            args.format,
            args.out,
            args.ases if args.ases is not None else 30,
            args.seed,
            args.top,
        ),
        "load": lambda: _load(args),
        "health": lambda: _health(args),
        "epcstress": lambda: _epcstress(args),
    }
    if args.experiment in ("trace", "load", "health", "epcstress"):
        selected = [args.experiment]
    elif args.experiment == "all":
        selected = [
            s for s in jobs
            if s not in ("trace", "load", "health", "epcstress")
        ]
    else:
        selected = [args.experiment]
    for name in selected:
        start = time.time()
        try:
            jobs[name]()
        except Exception as exc:  # noqa: BLE001 — CLI boundary
            print(f"[{name} failed: {type(exc).__name__}: {exc}]", file=sys.stderr)
            return 1
        print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
