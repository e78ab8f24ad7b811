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
        [--cohorts]                 # cohort memo: replay repeat dispatches
        [--regions R] [--ases N]    # two-level shard tree over N ASes
    python -m repro health routing  # metrics + SLO health verdict
        [--seed N] [--clients N] [--shards S] [--batch K]
        [--interval CYCLES] [--fault CLASS] [--out DIR]
    python -m repro check load routing ...  # any command, run twice

``load`` drives the seeded open-loop workload engine (``repro.load``)
against one of the case studies (``routing``, ``tor``, ``middlebox``)
— for routing, against the controller sharded across S enclave
instances with K-request ecall batching — prints the summary table,
and writes the machine-readable ``BENCH_load.json``.  Everything is
clocked by the cost model, so the same seed yields a byte-identical
report file.  ``--cohorts`` puts the cohort memo in front of the
engine's dispatch: statistically identical clients fold into
dispatch-replay cohorts so million-client populations finish in
minutes with the *byte-identical* report executing every dispatch
would have written.  ``--regions R`` deploys the
routing shards as a two-level tree (region heads relay for members)
over the ``--ases``-sized generated Internet topology; the default is
one region, where every shard pair holds a direct session.

``trace`` runs one scenario with the span tracer attached, asserts the
trace reconciles exactly against the cost accountants, and writes the
export: Chrome/Perfetto ``trace_event`` JSON (open in
https://ui.perfetto.dev or chrome://tracing; its shape is validated
before it is written), folded stacks for flamegraph tooling, or
Prometheus-style metrics text.

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

``check`` runs any other command twice in one process, each run in its
own scratch directory, and exits nonzero naming every file (or stdout)
the two runs wrote differently; on success it keeps the first run's
files.  ``load`` and ``epcstress`` validate their reports and ``trace``
and ``health`` reconcile, so ``check`` adds only the byte comparison.
Each flag applies only to the commands that read it; anywhere else it
is a usage error.

Ablations and the full statistical harness live under ``benchmarks/``
(``pytest benchmarks/ --benchmark-only -s``); this CLI is the quick,
dependency-free way to see the reproduction next to the paper's
numbers.  Every number it prints is modeled; the reproduction's own
wall-clock speed is measured end to end and per layer by ``bench/``
(``python3 bench/run.py``, see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time

from repro import experiments

#: scenario -> (run(args, tracer), format(result)): a plain run prints
#: the formatted result, ``trace`` runs the same call under a tracer.
SCENARIOS = {
    "table1": (
        lambda a, t: experiments.run_table1(trace=t), experiments.format_table1
    ),
    "table2": (
        lambda a, t: experiments.run_table2(trace=t), experiments.format_table2
    ),
    "table3": (
        lambda a, t: experiments.run_table3(trace=t), experiments.format_table3
    ),
    "table4": (
        lambda a, t: experiments.run_table4(n_ases=_given(a.ases, 30), trace=t),
        lambda result: experiments.format_table4(*result),
    ),
    "figure3": (
        lambda a, t: experiments.run_figure3(trace=t), experiments.format_figure3
    ),
    "switchless": (
        lambda a, t: experiments.run_switchless_ablation(trace=t),
        experiments.format_switchless_ablation,
    ),
    "rings": (
        lambda a, t: experiments.run_rings_ablation(trace=t),
        experiments.format_rings_ablation,
    ),
    "faults": (
        lambda a, t: experiments.run_fault_matrix(seed=_given(a.seed, 0), trace=t),
        experiments.format_fault_matrix,
    ),
}

#: export format -> file extension for --out
_TRACE_EXT = {"json": "json", "folded": "folded", "prom": "prom"}

_LOAD = ("load", "health")
#: --flag -> (the commands that read it, argparse keywords, help); given
#: to any other command, the flag is a usage error.  Every default is
#: None, so a flag given as 0 still counts as given.
_FLAGS = {
    "clients": (_LOAD, {"type": int}, "open-loop client population "
                "(default: 1000 for load, the SLO shape for health)"),
    "shards": (_LOAD, {"type": int}, "routing controller shards "
               "(default: 1 for load, 2 for health)"),
    "batch": (_LOAD, {"type": int}, "requests amortized per enclave "
              "crossing (default: 1 for load, 8 for health)"),
    "cohorts": (_LOAD, {"action": "store_true", "default": None},
                "replay repeat dispatches from the cohort memo "
                "(byte-identical report)"),
    "regions": (("load",), {"type": int}, "deploy the routing shards as a "
                "two-level tree with R regions (default: one region)"),
    "smoke": (("epcstress",), {"action": "store_true", "default": None},
              "small problem sizes suitable for CI"),
    "frames": (("epcstress",), {"type": int},
               "EPC frames on the stress platform (default: 512)"),
    "layout": (("epcstress",), {"choices": ("hot-first", "insertion")},
               "automaton row layout in EPC pages (default: hot-first)"),
    "interval": (("health",), {"type": int},
                 "metrics sample interval in modeled cycles (default: 10M)"),
    "fault": (("health",), {}, "activate one repro.faults class for the run "
              "(shard_crash is the deliberate SLO-breach lever)"),
    "top": (("trace",), {"type": int},
            "cost sites to print in the summary (default: 5)"),
    "format": (("trace",), {"choices": sorted(_TRACE_EXT)},
               "export format (default: json, Chrome/Perfetto trace_event)"),
    "ases": (("table4", "all", "trace", "load"), {"type": int},
             "AS count: the table4 topology (default: 30, as in the paper) "
             "or the routing load population (default: 24)"),
    "seed": (("faults", "all", "trace") + _LOAD + ("epcstress",),
             {"type": int}, "seed (default: 0)"),
    "out": (("trace", "health", "load", "epcstress"), {}, "directory for "
            "the trace or metrics export, or the load or epcstress report"),
}


def _given(value, default):
    """A flag's value, or its default when the flag was not passed."""
    return default if value is None else value


def _load(args) -> None:
    """Run the load engine and write BENCH_load.json."""
    from repro.errors import ReproError
    from repro.load.report import bench_json, validate_bench

    if args.cohorts:
        from repro.load.cohorts import run_load_cohorts as runner
    else:
        from repro.load.engine import run_load_engine as runner
    result = runner(
        args.scenario,
        n_clients=_given(args.clients, 1000),
        n_shards=_given(args.shards, 1),
        batch=_given(args.batch, 1),
        seed=_given(args.seed, 0),
        n_ases=_given(args.ases, 24),
        regions=args.regions,
    )
    text = bench_json(result)
    problems = validate_bench(json.loads(text))
    if problems:  # pragma: no cover — would be a bug in bench_doc itself
        raise ReproError(
            "generated report fails its own schema: " + "; ".join(problems)
        )
    print(experiments.format_load(json.loads(text)))
    out = args.out or "BENCH_load.json"
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out}", file=sys.stderr)


def _epcstress(args) -> None:
    """Run the A17 EPC working-set sweep and write the report."""
    from repro.errors import ReproError
    from repro.sgx import epcstress

    doc = epcstress.run_epcstress(
        seed=_given(args.seed, 0),
        smoke=bool(args.smoke),
        frames=_given(args.frames, epcstress.DEFAULT_FRAMES),
        layout=_given(args.layout, "hot-first"),
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
    from repro.obs.metrics import DEFAULT_SAMPLE_INTERVAL
    from repro.obs.slo import (
        export_health_timeseries,
        format_health_report,
        run_health,
    )

    report = run_health(
        args.scenario,
        seed=_given(args.seed, 0),
        clients=args.clients,
        shards=_given(args.shards, 2),
        batch=_given(args.batch, 8),
        interval=_given(args.interval, DEFAULT_SAMPLE_INTERVAL),
        fault=args.fault,
        cohorts=bool(args.cohorts),
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


def _trace(args) -> None:
    """Run a scenario traced, reconcile exactly, emit the export."""
    from repro import obs

    scenario, fmt = args.scenario, _given(args.format, "json")
    top = _given(args.top, 5)
    tracer = obs.Tracer()
    SCENARIOS[scenario][0](args, tracer)
    obs.reconcile(tracer)

    if fmt == "json":
        text = obs.trace_event_json(tracer, indent=2)
        # Written only if Perfetto can load it: keys, ts order, B/E pairs.
        obs.validate_trace_events(json.loads(text))
    elif fmt == "folded":
        text = obs.folded_stacks(tracer)
    else:
        text = obs.prometheus_text(tracer)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"trace-{scenario}.{_TRACE_EXT[fmt]}")
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


#: commands with their own flags and outputs, beyond the scenarios
COMMANDS = {"trace": _trace, "load": _load, "health": _health, "epcstress": _epcstress}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the evaluation of 'A First Step Towards Leveraging "
            "Commodity TEEs for Network Applications' (HotNets 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=list(SCENARIOS) + ["all", *COMMANDS, "check"],
        help="which paper artifact to regenerate ('trace' records one, "
             "'load' runs the workload engine, 'health' evaluates SLOs "
             "over sampled metrics, 'epcstress' sweeps DPI working sets "
             "across the EPC boundary, 'check <command> ...' runs a "
             "command twice and byte-compares what it wrote)",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(set(SCENARIOS) | set(experiments.LOAD_SCENARIOS)),
        help="scenario to trace, load or health-check (required for "
             "'trace', 'load' and 'health')",
    )
    for flag, (commands, kwargs, text) in _FLAGS.items():
        parser.add_argument(
            f"--{flag}", help=f"{', '.join(commands)}: {text}", **kwargs
        )
    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``; every usage error exits through ``parser.error``."""
    args = parser.parse_args(argv)
    command = args.experiment
    if command == "trace":
        if args.scenario is None:
            parser.error("'trace' needs a scenario, e.g. python -m repro trace table4")
        if args.scenario not in SCENARIOS:
            parser.error(f"'trace' scenario must be one of {', '.join(SCENARIOS)}")
    elif command in ("load", "health"):
        if args.scenario is None:
            parser.error(
                f"'{command}' needs a scenario, e.g. "
                f"python -m repro {command} routing"
            )
        if args.scenario not in experiments.LOAD_SCENARIOS:
            parser.error(
                f"'{command}' scenario must be one of "
                + ", ".join(experiments.LOAD_SCENARIOS)
            )
    elif args.scenario is not None:
        parser.error(f"unexpected positional {args.scenario!r} after {command!r}")
    for flag, (commands, _kwargs, _text) in _FLAGS.items():
        if getattr(args, flag) is not None and command not in commands:
            parser.error(
                f"--{flag} only applies to "
                + ", ".join(f"'{name}'" for name in commands)
            )
    return args


def _run(args, clock: bool = True) -> int:
    """Run the parsed command (every scenario, in order, for ``all``)."""
    selected = list(SCENARIOS) if args.experiment == "all" else [args.experiment]
    for name in selected:
        start = time.time()
        try:
            if name in COMMANDS:
                COMMANDS[name](args)
            else:
                run, fmt = SCENARIOS[name]
                print(fmt(run(args, None)))
        except Exception as exc:  # noqa: BLE001 — CLI boundary
            print(f"[{name} failed: {type(exc).__name__}: {exc}]", file=sys.stderr)
            return 1
        if clock:
            print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    return 0


def _check(parser: argparse.ArgumentParser, argv) -> int:
    """Run ``argv`` twice in this process and byte-compare what it wrote.

    Each run works in its own scratch directory, so everything it
    writes there, and its stdout, is compared; on success the first
    run's files are copied into the working directory.
    """
    if not argv or argv[0] == "check":
        parser.error("'check' needs a command, e.g. python -m repro check load routing")
    if os.path.isabs(_parse(parser, argv).out or ""):
        parser.error("'check' needs a relative --out: each run writes in its own directory")
    runs = []
    for _ in range(2):
        stdout, home = io.StringIO(), os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                with contextlib.redirect_stdout(stdout):
                    status = _run(_parse(parser, argv), clock=False)
            finally:
                os.chdir(home)
            written = {"stdout": stdout.getvalue().encode()}
            for root, _dirs, files in os.walk(scratch):
                for name in files:
                    path = os.path.join(root, name)
                    with open(path, "rb") as fh:
                        written[os.path.relpath(path, scratch)] = fh.read()
        if status:
            sys.stdout.write(stdout.getvalue())
            return status
        runs.append(written)
    first, second = runs
    differ = sorted(
        name for name in first.keys() | second.keys()
        if first.get(name) != second.get(name)
    )
    if differ:
        print(f"[check failed: the two runs wrote different {', '.join(differ)}]",
              file=sys.stderr)
        return 1
    sys.stdout.write(first.pop("stdout").decode())
    for path, data in first.items():
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    print(f"[check: both runs wrote identical stdout and {len(first)} file(s)]")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    if argv[:1] == ["check"]:
        return _check(parser, argv[1:])
    return _run(_parse(parser, argv))


if __name__ == "__main__":
    sys.exit(main())
