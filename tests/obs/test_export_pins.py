"""sha256 pins of every obs export for fixed, seeded metered runs.

The tracer and the metrics registry may change how they record, but
never what they export: a metered routing load run and the three
health time-series must hash to the values pinned here.  The pins were
computed with the eager (per-charge) tracer and registry, so they hold
the charge-log implementation byte-identical to it.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.load import run_load_engine
from repro.obs.slo import export_health_timeseries, run_health


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _metered_routing(seed: int) -> obs.Tracer:
    tracer = obs.Tracer(metrics=obs.MetricsRegistry())
    with obs.tracing(tracer):
        run_load_engine(
            "routing", n_clients=1000, n_shards=2, batch=8, seed=seed,
            n_events=600, n_ases=24,
        )
    return tracer


#: export name -> how to render it from a finished metered tracer.
EXPORTS = {
    "trace_event_json": obs.trace_event_json,
    "folded_stacks": obs.folded_stacks,
    "prometheus_text": obs.prometheus_text,
    "openmetrics_timeseries": lambda t: obs.openmetrics_timeseries(t.metrics),
    "top_cost_sites": lambda t: json.dumps(obs.top_cost_sites(t, 10)),
    "reconcile": lambda t: json.dumps(obs.reconcile(t), sort_keys=True),
}

ROUTING_PINS = {
    0: {
        "trace_event_json": (
            "6d2ead1c68871468eaa5a9aba89dc862d455ea6ce30e1973396d1f3c44ad4ebe"
        ),
        "folded_stacks": (
            "53fee71cb573cc5505437d8d7bd5899d213de879627aaf5d932b909140e7afb4"
        ),
        "prometheus_text": (
            "ce1caf7a6da649b31b6ae5f1b9f1c89e176b52d0886ca2f5bc89373965c1e119"
        ),
        "openmetrics_timeseries": (
            "79e0b4b6ab5e5704c797709e7844b98b938ef757cc87fdf4ac439fa78d766b0b"
        ),
        "top_cost_sites": (
            "fbc4489835b1c75e0c9b6fb7db3753c633db2fe3f41ab0b18158da18ae7b3d20"
        ),
        "reconcile": (
            "f762c20bd4f17545db22fc4b7fa0159a33a61f565fe157db6bfc7c6845761c5f"
        ),
    },
    1: {
        "trace_event_json": (
            "cefcacc9d203f2a5699d65ecde8505f98c3f670d5d1dcf972375da975257101a"
        ),
        "folded_stacks": (
            "2996a40b51a058e0a77f0509fc4b1c8eb14ee2ecffe6f94533998fe54fe8dfc7"
        ),
        "prometheus_text": (
            "1b1664e19567c507d8d00932ac3ad673f4dbd7212b03a846be33663d96f3b020"
        ),
        "openmetrics_timeseries": (
            "72411feacf1f217f31d4c226f9adb7c6a384dd5aa91842dd2fc18591adf945ca"
        ),
        "top_cost_sites": (
            "3d64e27790b6771a345004407f96513d9bc92662abc2eaa178da9a0d693d669c"
        ),
        "reconcile": (
            "57a57cbb2c5cdbd4c9c36a6cb91c5fcf482c07ec1e12ecf2480eebf1323618a0"
        ),
    },
}

HEALTH_PINS = {
    "routing": "00b6f62392cbf043b003cf59206bc541633868e1a9e1c4e5823b62352c013361",
    "tor": "3b5759dd92050d0be5aac5ca44c55608328cdc5552a1ddd8272d5a6e8a3e249c",
    "middlebox": "9ed47739cfcb57113cc573e0b7b526483187b411592afe7771021489a80222b3",
}


@pytest.fixture(scope="module", params=sorted(ROUTING_PINS))
def routing_run(request):
    return request.param, _metered_routing(request.param)


@pytest.mark.parametrize("export", sorted(EXPORTS))
def test_routing_export_pinned(routing_run, export):
    seed, tracer = routing_run
    assert _sha(EXPORTS[export](tracer)) == ROUTING_PINS[seed][export]


@pytest.mark.parametrize("scenario", sorted(HEALTH_PINS))
def test_health_timeseries_pinned(scenario):
    report = run_health(scenario, seed=1)
    assert _sha(export_health_timeseries(report)) == HEALTH_PINS[scenario]
