"""Unit tests for the serve daemon's job queue (no sockets involved).

The :class:`~repro.server.jobs.JobManager` contract: digests coalesce
while live-or-done, terminal states are sticky, cancel only catches
queued jobs, counters are monotone, and the default runner really solves
a scenario through an explicitly provided service.
"""

import threading
import time

import pytest

from repro.engine import SolveCache, SolveService, SolveStore
from repro.providers import AccessISP, Market, exponential_cp
from repro.scenarios.spec import ScenarioSpec
from repro.server.jobs import TERMINAL_STATES, JobManager, experiment_payload


def tiny_scenario(sid="tiny-a", price=1.0):
    market = Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=price, capacity=1.0),
    )
    return ScenarioSpec(
        scenario_id=sid,
        title="tiny test scenario",
        market=market,
        prices=(0.5, 1.0),
        policy_levels=(0.0, 0.5),
    )


def stub_runner(scn, service):
    return {"solved": scn.scenario_id}


def failing_runner(scn, service):
    raise RuntimeError("solver exploded")


@pytest.fixture
def manager():
    mgr = JobManager(runner=stub_runner, workers=0)  # pump mode
    yield mgr
    mgr.close()


class TestLifecycle:
    def test_submit_pump_done(self, manager):
        job, coalesced = manager.submit(tiny_scenario())
        assert not coalesced
        assert job.state == "queued"
        assert manager.pump()
        assert job.state == "done"
        assert job.result == {"solved": "tiny-a"}
        assert job.error is None
        assert job.finished_at is not None

    def test_failed_job_is_a_record_not_a_crash(self):
        mgr = JobManager(runner=failing_runner, workers=0)
        try:
            job, _ = mgr.submit(tiny_scenario())
            assert mgr.pump()
            assert job.state == "failed"
            assert "solver exploded" in job.error
            assert job.result is None
        finally:
            mgr.close()

    def test_cancel_queued_only(self, manager):
        job, _ = manager.submit(tiny_scenario())
        cancelled = manager.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        # The stale queue token is consumed without running anything.
        assert manager.pump() is False
        assert job.state == "cancelled"

    def test_cancel_unknown_is_none(self, manager):
        assert manager.cancel("job-999") is None

    def test_terminal_states_sticky(self, manager):
        job, _ = manager.submit(tiny_scenario())
        manager.pump()
        assert job.state == "done"
        # Cancel after done: a no-op, not a transition.
        assert manager.cancel(job.job_id).state == "done"

    def test_describe_shapes(self, manager):
        job, _ = manager.submit(tiny_scenario())
        record = job.describe()
        assert record["state"] == "queued"
        assert "result" not in record
        manager.pump()
        assert job.describe(with_result=True)["result"] == {
            "solved": "tiny-a"
        }


class TestCoalescing:
    def test_duplicate_submit_coalesces(self, manager):
        first, c1 = manager.submit(tiny_scenario())
        second, c2 = manager.submit(tiny_scenario())
        assert (c1, c2) == (False, True)
        assert first is second
        # Still one queue token; one pump settles everything.
        assert manager.pump()
        assert manager.pump() is False
        assert manager.stats()["coalesced"] == 1

    def test_done_jobs_keep_coalescing(self, manager):
        first, _ = manager.submit(tiny_scenario())
        manager.pump()
        again, coalesced = manager.submit(tiny_scenario())
        assert coalesced and again is first

    def test_distinct_scenarios_do_not_coalesce(self, manager):
        a, _ = manager.submit(tiny_scenario("tiny-a"))
        b, coalesced = manager.submit(tiny_scenario("tiny-b"))
        assert not coalesced
        assert a.job_id != b.job_id

    def test_failed_and_cancelled_do_not_coalesce(self):
        mgr = JobManager(runner=failing_runner, workers=0)
        try:
            failed, _ = mgr.submit(tiny_scenario())
            mgr.pump()
            assert failed.state == "failed"
            retry, coalesced = mgr.submit(tiny_scenario())
            assert not coalesced and retry.job_id != failed.job_id
            cancelled = mgr.cancel(retry.job_id)
            assert cancelled.state == "cancelled"
            third, coalesced = mgr.submit(tiny_scenario())
            assert not coalesced and third.job_id != retry.job_id
        finally:
            mgr.close()


class TestThreadedWorkers:
    def test_wait_reaches_terminal(self):
        mgr = JobManager(runner=stub_runner, workers=2)
        try:
            jobs = [
                mgr.submit(tiny_scenario(f"tiny-{i}"))[0] for i in range(5)
            ]
            for job in jobs:
                settled = mgr.wait(job.job_id, timeout=30.0)
                assert settled.state == "done"
        finally:
            mgr.close()

    def test_concurrent_duplicate_submits_one_solve(self):
        calls = []
        lock = threading.Lock()

        def counting_runner(scn, service):
            with lock:
                calls.append(scn.scenario_id)
            time.sleep(0.05)
            return {"ok": True}

        mgr = JobManager(runner=counting_runner, workers=2)
        try:
            ids = set()

            def client():
                job, _ = mgr.submit(tiny_scenario())
                mgr.wait(job.job_id, timeout=30.0)
                ids.add(job.job_id)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(ids) == 1  # everyone polled the same job
            assert calls == ["tiny-a"]  # and it solved exactly once
        finally:
            mgr.close()

    def test_close_cancels_pending_and_rejects_submits(self):
        mgr = JobManager(runner=stub_runner, workers=0)
        job, _ = mgr.submit(tiny_scenario())
        mgr.close()
        assert job.state == "cancelled"  # never ran, terminal anyway
        with pytest.raises(RuntimeError):
            mgr.submit(tiny_scenario("tiny-b"))
        mgr.close()  # idempotent


class TestRetainedMemory:
    """Per-job memory: scenarios go at the terminal state, results are
    kept as compact JSON."""

    def test_scenario_table_empties_once_jobs_are_terminal(self):
        mgr = JobManager(runner=stub_runner, workers=0)
        try:
            mgr.submit(tiny_scenario("tiny-a"))
            cancelled, _ = mgr.submit(tiny_scenario("tiny-b"))
            mgr.submit(tiny_scenario("tiny-c"))
            assert len(mgr._scenarios) == 3
            mgr.cancel(cancelled.job_id)
            assert len(mgr._scenarios) == 2
            while mgr.pump():
                pass
            assert mgr._scenarios == {}
            # A cancelled digest resubmits fine: its scenario comes back.
            again, coalesced = mgr.submit(tiny_scenario("tiny-b"))
            assert not coalesced and len(mgr._scenarios) == 1
            assert mgr.pump() and again.state == "done"
            assert mgr._scenarios == {}
        finally:
            mgr.close()

    def test_failed_jobs_release_their_scenario(self):
        mgr = JobManager(runner=failing_runner, workers=0)
        try:
            job, _ = mgr.submit(tiny_scenario())
            assert mgr.pump() and job.state == "failed"
            assert mgr._scenarios == {}
        finally:
            mgr.close()

    def test_described_result_equals_the_runner_dict(self, tmp_path):
        expected = {}

        def runner(scn, service):
            expected.update(
                {
                    "id": scn.scenario_id,
                    "x": [0.1 + 0.2, 1e-300, -0.0, 3],
                    "nested": {"ok": True, "none": None, "s": "é"},
                }
            )
            return dict(expected)

        mgr = JobManager(runner=runner, workers=0)
        try:
            job, _ = mgr.submit(tiny_scenario())
            assert mgr.pump()
            assert job.describe(with_result=True)["result"] == expected
            assert job.result == expected
            # Each access decodes afresh: callers cannot mutate the job.
            job.result["id"] = "mutated"
            assert job.result == expected
        finally:
            mgr.close()

    def test_unserializable_result_fails_the_job(self):
        mgr = JobManager(runner=lambda scn, service: {"x": object()}, workers=0)
        try:
            job, _ = mgr.submit(tiny_scenario())
            assert mgr.pump()
            assert job.state == "failed"
            assert job.error.startswith("TypeError: ")
            assert "not JSON serializable" in job.error
            assert job.result is None
            assert mgr.stats()["failed"] == 1
        finally:
            mgr.close()


class TestStats:
    def test_counters_track_events(self, manager):
        manager.submit(tiny_scenario("tiny-a"))
        manager.submit(tiny_scenario("tiny-a"))
        b, _ = manager.submit(tiny_scenario("tiny-b"))
        manager.cancel(b.job_id)
        manager.pump()
        stats = manager.stats()
        assert stats["submitted"] == 3
        assert stats["coalesced"] == 1
        assert stats["started"] == 1
        assert stats["completed"] == 1
        assert stats["cancelled"] == 1
        assert stats["failed"] == 0
        assert stats["jobs"] == 2
        assert stats["queued"] == 0 and stats["running"] == 0


class TestDefaultRunner:
    def test_solves_through_the_given_service(self, tmp_path):
        service = SolveService(
            cache=SolveCache(),
            store=SolveStore(tmp_path / "store"),
            executor="serial",
        )
        mgr = JobManager(service=service, workers=0)
        try:
            job, _ = mgr.submit(tiny_scenario())
            assert mgr.pump()
            assert job.error is None and job.state == "done"
            result = job.result
            assert result["experiment_id"] == "tiny-a"
            figure_ids = [f["figure_id"] for f in result["figures"]]
            assert "tiny-a-revenue" in figure_ids
            for figure in result["figures"]:
                assert len(figure["x"]) == 2  # the scenario's price axis
                assert all(
                    len(s["y"]) == len(figure["x"]) for s in figure["series"]
                )
            assert all(c["passed"] for c in result["checks"])
            # The solve went through *this* service and its store.
            assert service.counters.computed > 0
            assert len(service.store) > 0
            # A duplicate scenario resubmitted later (fresh manager, same
            # service) replays entirely from the store.
            service.clear_memory()
            service.reset_counters()
            mgr2 = JobManager(service=service, workers=0)
            try:
                job2, _ = mgr2.submit(tiny_scenario())
                assert mgr2.pump()
                assert job2.state == "done"
                assert service.counters.computed == 0
            finally:
                mgr2.close()
        finally:
            mgr.close()
            service.close()

    def test_payload_round_trips_json(self, tmp_path):
        import json as _json

        from repro.experiments.pipeline import run_spec, scenario_experiment

        scn = tiny_scenario()
        result = run_spec(scenario_experiment(scn), scenario=scn)
        payload = experiment_payload(result)
        assert _json.loads(_json.dumps(payload)) == payload
        assert TERMINAL_STATES == {"done", "failed", "cancelled"}
