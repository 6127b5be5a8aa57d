"""Open-loop load generator: determinism, accounting, differential."""

from __future__ import annotations

import pytest

from repro.resilience import AdmissionController
from repro.serving import (
    OpenLoopLoadGenerator,
    poisson_schedule,
)

from .conftest import (
    CORPORA,
    baseline_keys,
    corpus_tree,
    make_executor,
    result_keys,
)

pytestmark = pytest.mark.timeout(60)

WORKLOAD = [("site", query) for query in CORPORA["site"][1]]


class TestSchedule:
    def test_same_seed_same_schedule(self):
        first = poisson_schedule(100.0, 60, WORKLOAD, seed=7)
        second = poisson_schedule(100.0, 60, WORKLOAD, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        assert poisson_schedule(100.0, 60, WORKLOAD, seed=7) != poisson_schedule(
            100.0, 60, WORKLOAD, seed=8
        )

    def test_offsets_increase_and_rate_scales(self):
        arrivals = poisson_schedule(100.0, 200, WORKLOAD, seed=1)
        offsets = [arrival.offset_s for arrival in arrivals]
        assert offsets == sorted(offsets)
        # mean inter-arrival ~ 1/rate (loose law-of-large-numbers band)
        mean_gap = offsets[-1] / len(offsets)
        assert 0.5 / 100.0 < mean_gap < 2.0 / 100.0

    def test_bad_inputs_are_refused(self):
        with pytest.raises(ValueError):
            poisson_schedule(0.0, 10, WORKLOAD, seed=1)
        with pytest.raises(ValueError):
            poisson_schedule(10.0, 10, [], seed=1)


class TestRun:
    def test_all_served_and_differentially_correct(self):
        _cluster, executor = make_executor("site", site_count=4)
        arrivals = poisson_schedule(300.0, 40, WORKLOAD, seed=11)
        generator = OpenLoopLoadGenerator(executor, deadline_ms=500.0)
        report = generator.run_sync(arrivals)
        assert report.ok == report.offered == 40
        assert report.wrong == 0 and report.shed == 0
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert outcome.result_key is not None
            assert outcome.latency_ns > 0
        assert len(report.latencies_ns) == 40
        assert report.percentile_ns(0.99) >= report.percentile_ns(0.50)

    def test_identical_seeds_identical_outcomes(self):
        def run_once():
            _cluster, executor = make_executor("site", site_count=4)
            arrivals = poisson_schedule(300.0, 30, WORKLOAD, seed=23)
            report = OpenLoopLoadGenerator(executor, deadline_ms=500.0).run_sync(
                arrivals
            )
            return (
                [outcome.status for outcome in report.outcomes],
                [outcome.result_key for outcome in report.outcomes],
            )

        assert run_once() == run_once()

    def test_burst_sheds_typed_and_counts(self):
        admission = AdmissionController(
            max_concurrent=2, max_queue=2, queue_timeout_s=0.05
        )
        _cluster, executor = make_executor("site", admission=admission)
        arrivals = poisson_schedule(10_000.0, 50, WORKLOAD, seed=3)
        report = OpenLoopLoadGenerator(executor, deadline_ms=500.0).run_sync(
            arrivals
        )
        assert report.ok + report.shed == 50
        assert report.shed > 0, "a 50-deep burst into capacity 4 must shed"
        assert report.wrong == 0
        assert report.shed_rate == report.shed / 50
        statuses = {outcome.status for outcome in report.outcomes}
        assert statuses <= {"ok", "shed"}

    def test_differential_check_flags_wrong_answers(self):
        """Feed the generator deliberately wrong expectations: every
        OK answer must then be counted wrong — proving the check is
        actually wired to the results."""
        _cluster, executor = make_executor("site")
        arrivals = poisson_schedule(300.0, 10, [("site", "//name")], seed=5)
        generator = OpenLoopLoadGenerator(
            executor,
            deadline_ms=500.0,
            expected={("site", "//name"): ("bogus-node-id",)},
        )
        report = generator.run_sync(arrivals)
        assert report.wrong == report.offered == 10

    def test_expected_keys_pass_when_correct(self):
        _cluster, executor = make_executor("site")
        want = executor.select_sync("site", "//name")
        from repro.serving.loadgen import _node_key

        generator = OpenLoopLoadGenerator(
            executor,
            deadline_ms=500.0,
            expected={("site", "//name"): _node_key(want)},
        )
        arrivals = poisson_schedule(300.0, 10, [("site", "//name")], seed=5)
        report = generator.run_sync(arrivals)
        assert report.wrong == 0 and report.ok == 10
        # and those keys match the navigational baseline, closing the loop
        assert result_keys(want, corpus_tree("site")) == baseline_keys(
            "site", "//name"
        )

    def test_paced_run_obeys_schedule(self):
        """pace=True really waits out the arrival gaps (bounded above
        and below), so latency measurements see open-loop spacing."""
        import time

        _cluster, executor = make_executor("site")
        arrivals = poisson_schedule(2000.0, 10, [("site", "//name")], seed=9)
        span_s = arrivals[-1].offset_s
        generator = OpenLoopLoadGenerator(executor, pace=True)
        began = time.perf_counter()
        report = generator.run_sync(arrivals)
        elapsed = time.perf_counter() - began
        assert report.ok == 10
        assert elapsed >= span_s * 0.5
        assert elapsed < span_s + 2.0

    def test_paced_latency_counts_from_due_time(self):
        """A request whose due time passes while another request
        blocks the event loop must report the stall as latency: the
        client waited from its due time, not from when its task got
        to run."""
        import time

        from repro.serving.loadgen import Arrival

        stall_s = 0.1

        class LoopBlockingExecutor:
            """The first select blocks the whole loop; the rest are
            instant."""

            def __init__(self):
                self.calls = 0

            async def select(self, doc, expression, deadline=None):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(stall_s)  # deliberately not awaited
                return []

        arrivals = [
            Arrival(index=i, offset_s=0.001 * (i + 1), doc="d", expression="//x")
            for i in range(3)
        ]
        report = OpenLoopLoadGenerator(LoopBlockingExecutor(), pace=True).run_sync(
            arrivals
        )
        assert report.ok == 3
        stalled = report.outcomes[1:]
        # both were due during the stall; each waited out most of it
        for outcome in stalled:
            assert outcome.latency_ns >= 0.5 * stall_s * 1e9, outcome
        assert report.outcomes[0].latency_ns >= stall_s * 1e9
