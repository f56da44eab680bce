"""Cooperative cancellation and per-job timeouts through the worker stack."""

import time

import pytest

from repro.fta.serializers import to_json_document
from repro.service.jobs import JobCancelled, JobQueue, JobStatus, JobTimeout
from repro.service.workers import JobRunner, WorkerPool, _JobGuard
from repro.workloads.library import fire_protection_system


def _tree_doc():
    return to_json_document(fire_protection_system())


class TestJobGuard:
    def test_no_timeout_no_cancel_is_quiet(self):
        queue = JobQueue()
        job = queue.submit("analyze", {})
        queue.claim(timeout=0)
        guard = _JobGuard(job)
        guard.check()
        assert guard() is False

    def test_cancel_event_raises_job_cancelled(self):
        queue = JobQueue()
        job = queue.submit("analyze", {})
        queue.claim(timeout=0)
        job.cancel_event.set()
        guard = _JobGuard(job)
        assert guard() is True
        with pytest.raises(JobCancelled):
            guard.check()

    def test_expired_deadline_raises_job_timeout(self):
        queue = JobQueue()
        job = queue.submit("analyze", {}, timeout=0.001)
        queue.claim(timeout=0)
        time.sleep(0.01)
        guard = _JobGuard(job)
        assert guard() is True
        with pytest.raises(JobTimeout, match="timed out after"):
            guard.check()


class TestRunnerCancellation:
    def test_cancelled_job_raises_before_work(self, tmp_path):
        queue = JobQueue()
        job = queue.submit("analyze", {"tree": _tree_doc()})
        queue.claim(timeout=0)
        job.cancel_event.set()
        runner = JobRunner(store_path=str(tmp_path))
        with pytest.raises(JobCancelled):
            runner.execute(job)

    def test_cancellation_aborts_batch_between_items(self, tmp_path):
        queue = JobQueue()
        documents = [_tree_doc() for _ in range(5)]
        job = queue.submit("batch", {"trees": documents, "analyses": ["mpmcs"]})
        queue.claim(timeout=0)
        runner = JobRunner(store_path=str(tmp_path))
        guard = _JobGuard(job)
        original_check = guard.check
        seen = {"items": 0}

        def counting_check():
            # Cancel once the second item is about to start: the batch must
            # abort there instead of recording the rest as failures.
            seen["items"] += 1
            if seen["items"] == 2:
                job.cancel_event.set()
            original_check()

        guard.check = counting_check
        with pytest.raises(JobCancelled):
            runner._run_batch(job.payload, guard)
        assert seen["items"] == 2

    def test_guard_resets_the_solver_hook_after_execute(self, tmp_path):
        queue = JobQueue()
        job = queue.submit("analyze", {"tree": _tree_doc()})
        queue.claim(timeout=0)
        runner = JobRunner(store_path=str(tmp_path))
        hooks = []
        original = runner._run_analyze

        def recording(payload):
            hooks.append(runner.session.solver.stop_check)
            return original(payload)

        runner._run_analyze = recording
        runner.execute(job)
        assert hooks and callable(hooks[0])
        assert runner.session.solver.stop_check is None


class TestWorkerPoolSettlement:
    def _drain(self, queue, job, timeout=30.0):
        settled = queue.wait(job.id, timeout=timeout)
        assert settled.status.terminal, settled.status
        return settled

    def test_timed_out_job_fails_with_distinguishable_reason(self, tmp_path):
        queue = JobQueue()
        pool = WorkerPool(queue, workers=1, store_path=str(tmp_path))
        pool.start()
        try:
            # Several items: even if the first guard check passes, a later
            # item boundary lands past the 1 ms deadline.
            job = queue.submit(
                "batch",
                {"trees": [_tree_doc() for _ in range(20)], "analyses": ["mpmcs"]},
                timeout=0.001,
            )
            settled = self._drain(queue, job)
            assert settled.status is JobStatus.FAILED
            assert "timed out after" in settled.error
        finally:
            pool.stop()

    def test_cancel_running_job_settles_cancelled(self, tmp_path):
        queue = JobQueue()
        pool = WorkerPool(queue, workers=1, store_path=str(tmp_path), poll_interval=0.02)
        pool.start()
        try:
            # Enough items that the job is still running when cancel lands.
            job = queue.submit(
                "batch",
                {"trees": [_tree_doc() for _ in range(200)], "analyses": ["mpmcs"]},
            )
            deadline = time.monotonic() + 10.0
            while queue.get(job.id).status is JobStatus.QUEUED:
                if time.monotonic() > deadline:
                    pytest.fail("job never started")
                time.sleep(0.005)
            queue.cancel(job.id)
            settled = self._drain(queue, job)
            assert settled.status is JobStatus.CANCELLED
        finally:
            pool.stop()

    def test_untimed_job_still_completes(self, tmp_path):
        queue = JobQueue()
        pool = WorkerPool(queue, workers=1, store_path=str(tmp_path))
        pool.start()
        try:
            job = queue.submit("analyze", {"tree": _tree_doc(), "analyses": ["mpmcs"]})
            settled = self._drain(queue, job)
            assert settled.status is JobStatus.DONE
        finally:
            pool.stop()
