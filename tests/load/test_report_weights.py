"""Weighted latency statistics vs the brute-force expansion oracle.

The cohort tier stores latencies as sorted ``(value, count)`` pairs;
:func:`repro.load.report.weighted_mean` and
:func:`repro.load.report.weighted_percentile` must return *bit-for-bit*
the floats the per-client path computes over the expanded list — not
merely close, because the BENCH report is diffed byte-wise.  The
oracle here is the literal expansion: repeat each value ``count``
times, then run the per-client arithmetic (repeated adds in sorted
order for the mean, ceil-rank indexing for percentiles).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.report import weighted_mean, weighted_percentile

_values = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
_samples = st.lists(
    st.tuples(_values, st.integers(min_value=1, max_value=9)),
    min_size=1,
    max_size=40,
).map(lambda pairs: sorted(dict(pairs).items()))


def _expand(samples):
    out = []
    for value, count in samples:
        out.extend([value] * count)
    return out


def _oracle_mean(expanded):
    total = 0.0
    for value in expanded:  # identical add order to the per-client path
        total += value
    return total / len(expanded)


def _oracle_percentile(expanded, p):
    rank = min(max(1, -(-int(p * len(expanded)) // 100)), len(expanded))
    return expanded[rank - 1]


class TestWeightedOracle:
    @settings(max_examples=200, deadline=None)
    @given(samples=_samples)
    def test_mean_bit_identical_to_expansion(self, samples):
        assert weighted_mean(samples) == _oracle_mean(_expand(samples))

    @settings(max_examples=200, deadline=None)
    @given(samples=_samples, p=st.integers(min_value=0, max_value=100))
    def test_percentile_bit_identical_to_expansion(self, samples, p):
        assert weighted_percentile(samples, p) == _oracle_percentile(
            _expand(samples), p
        )

    def test_empty_samples(self):
        assert weighted_mean([]) == 0.0
        assert weighted_percentile([], 99) == 0.0

    @pytest.mark.parametrize("p", [0, 50, 90, 99, 100])
    def test_single_value(self, p):
        assert weighted_percentile([(7.5, 3)], p) == 7.5
        assert weighted_mean([(7.5, 3)]) == 7.5

    def test_counts_shift_the_rank(self):
        # 1 copy of 10.0, 99 copies of 20.0: p50 and p99 both land in
        # the heavy bucket; p1 lands in the light one.
        samples = [(10.0, 1), (20.0, 99)]
        assert weighted_percentile(samples, 1) == 10.0
        assert weighted_percentile(samples, 50) == 20.0
        assert weighted_percentile(samples, 99) == 20.0


class TestEngineIntegration:
    def test_load_result_percentiles_match_both_paths(self):
        from repro import obs
        from repro.load.cohorts import run_load_cohorts
        from repro.load.engine import run_load_engine
        from repro.obs.tracer import OBSERVE

        # The engine keeps no per-event record; each event's latency is
        # read back from its load_latency_cycles observation.
        tracer = obs.Tracer(metrics=obs.MetricsRegistry())
        with obs.tracing(tracer):
            result = run_load_engine("routing", 30, 2, 4, 0)
        expanded = sorted(
            rec[2]
            for rec in tracer.records()
            if rec[0] == OBSERVE and rec[1] == "load_latency_cycles"
        )
        assert len(expanded) == result.served == 30
        cohort = run_load_cohorts("routing", 30, 2, 4, 0)
        for p in (50, 90, 99):
            assert result.percentile(p) == _oracle_percentile(expanded, p)
            assert cohort.percentile(p) == result.percentile(p)
