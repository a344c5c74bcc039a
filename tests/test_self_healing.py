"""Self-healing pipelined streaming: the deterministic chaos sweep.

Every test here injects a fault through the ``REPRO_FAULT_PLAN``
grammar (:mod:`repro.engine.faults`) at an exact, repeatable point --
kill worker rendering range r at block b, wedge it, fill its disk,
crash the parent run -- and asserts the pipelined fold
(:mod:`repro.engine.pipelined`) recovers at *range* granularity:
bit-identical rows, no whole-fold serial restart, the recovery visible
on the :class:`~repro.engine.StreamReport`, and a clean
``store.verify()`` afterwards.  Together the module is the
bit-identity sweep over every recovery path: supervised retry, wedge
detection, ENOSPC demotion retry, residual serial escalation, and
crash-resume from published parts (in-process and across a hard
``os._exit``).
"""

import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    StreamReport,
    render_calls,
)
from repro.engine import faults as chaos
from repro.engine import pipelined
from repro.engine.pipelined import shutdown_stream_pool

from tests import fault_injection as injection

SCENE = "town"
SCALE = 0.05
LAYOUT = ("blocked", 8)
GRID = dict(scenes=(SCENE,), layouts=(LAYOUT,), cache_sizes=(1024, 4096),
            line_sizes=(32, 64), assocs=(None, 2), scale=SCALE)


def rows(result):
    return [(r.scene, r.layout, r.config.label(), r.stats)
            for r in result.rows]


def ram_rows(tmp_path):
    return rows(Engine(store=ArtifactStore(tmp_path / "ram")).run(
        ExperimentSpec(**GRID)))


def piped_run(root, stream_workers=2, **kwargs):
    return Engine(store=ArtifactStore(root)).run(
        ExperimentSpec(**GRID), chunk_size=4096,
        stream_workers=stream_workers, **kwargs)


@contextlib.contextmanager
def no_fallback_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    fallbacks = [w for w in caught if "falling back" in str(w.message)]
    assert not fallbacks, [str(w.message) for w in fallbacks]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Chaos env vars must never leak into another test's persistent
    workers: every test starts (and leaves) with no pool."""
    shutdown_stream_pool()
    yield
    shutdown_stream_pool()


class TestFaultPlanGrammar:
    def test_plan_parses_matchers_and_params(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            "kill-worker:range=1,block=2; kill-run:after=3,mode=exit")
        hit = chaos.maybe_fault("render-block", range=1, block=2)
        assert hit is not None and hit.action == "kill-worker"
        assert chaos.maybe_fault("render-block", range=1, block=1) is None
        assert chaos.maybe_fault("ship-block", range=1, block=2) is None
        crash = chaos.maybe_fault("range-complete", after=3)
        assert crash is not None and crash.param("mode") == "exit"
        assert chaos.maybe_fault("range-complete", after=2) is None

    def test_malformed_plans_fail_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "explode-host:range=0")
        with pytest.raises(ValueError, match="unknown action"):
            chaos.active_faults("render-block")
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kill-worker:noequals")
        with pytest.raises(ValueError, match="key=value"):
            chaos.active_faults("render-block")

    def test_scope_once_fires_exactly_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "kill-worker:range=0,scope=once")
        monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path))
        assert chaos.maybe_fault("render-block", range=0, block=0) \
            is not None
        assert chaos.maybe_fault("render-block", range=0, block=5) is None

    def test_scope_once_requires_a_claim_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "kill-worker:range=0,scope=once")
        monkeypatch.delenv("REPRO_FAULT_DIR", raising=False)
        with pytest.raises(ValueError, match="REPRO_FAULT_DIR"):
            chaos.maybe_fault("render-block", range=0, block=0)


class TestStreamReport:
    def test_clean_summary_and_absorb(self):
        report = StreamReport(folds=1)
        assert report.clean
        assert "no recovery" in report.summary()
        other = StreamReport(folds=2, respawns=1, retried_ranges=3,
                             resumed_ranges=2, resumed_parts=7,
                             recovery_s=1.5)
        other.note("range 0: worker died")
        report.absorb(other)
        assert not report.clean
        assert report.folds == 3 and report.respawns == 1
        assert report.retried_ranges == 3 and report.resumed_parts == 7
        summary = report.summary()
        assert "respawn" in summary and "resumed" in summary
        assert report.events == ("range 0: worker died",)

    def test_event_cap(self):
        report = StreamReport()
        for n in range(100):
            report.note(f"event {n}")
        assert len(report.events) == StreamReport._MAX_EVENTS


class TestWorkerFaults:
    def test_worker_kill_retries_only_the_failed_range(self, tmp_path):
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-worker:range=1,block=0,scope=once",
                                  tmp_path / "plan"):
            with no_fallback_warning():
                result = piped_run(tmp_path / "piped")
        assert rows(result) == reference
        report = result.stream_report
        assert report is not None and not report.clean
        assert report.respawns >= 1
        assert report.retried_ranges >= 1
        assert report.residual_ranges == 0  # retry, not serial escalation
        assert report.fallbacks == 0
        scan = ArtifactStore(tmp_path / "piped").verify()
        assert scan["clean"] and scan["bad"] == 0

    def test_wedged_worker_is_killed_and_range_retried(self, tmp_path,
                                                       monkeypatch):
        reference = ram_rows(tmp_path)
        monkeypatch.setenv("REPRO_STREAM_JOB_TIMEOUT", "5")
        with injection.fault_plan(
                "wedge-worker:range=0,block=0,seconds=60,scope=once",
                tmp_path / "plan"):
            with no_fallback_warning():
                result = piped_run(tmp_path / "piped")
        assert rows(result) == reference
        report = result.stream_report
        assert report is not None and report.respawns >= 1
        assert report.retried_ranges >= 1 and report.fallbacks == 0
        assert any("wedged" in event for event in report.events)

    def test_enospc_demotion_retries_on_a_fresh_store(self, tmp_path):
        reference = ram_rows(tmp_path)
        with injection.fault_plan("enospc:range=1,block=0,scope=once",
                                  tmp_path / "plan"):
            with no_fallback_warning():
                result = piped_run(tmp_path / "piped")
        assert rows(result) == reference
        report = result.stream_report
        assert report is not None and report.retried_ranges >= 1
        assert report.fallbacks == 0
        scan = ArtifactStore(tmp_path / "piped").verify()
        assert scan["clean"] and scan["bad"] == 0

    def test_unretryable_range_escalates_serially_not_whole_fold(
            self, tmp_path):
        # scope=always: every attempt of range 0 dies, exhausting the
        # retry budget.  Only that range may escalate to the parent's
        # serial recovery -- the other ranges' pipelined work is kept
        # and the fold never restarts wholesale.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-worker:range=0,block=0"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = piped_run(tmp_path / "piped")
        messages = [str(w.message) for w in caught]
        assert any("residual" in m for m in messages), messages
        assert not any("falling back" in m for m in messages), messages
        assert rows(result) == reference
        report = result.stream_report
        assert report is not None
        assert report.residual_ranges >= 1 and report.fallbacks == 0
        assert report.respawns >= pipelined.STREAM_RETRIES + 1
        scan = ArtifactStore(tmp_path / "piped").verify()
        assert scan["clean"] and scan["bad"] == 0


    def test_stalled_pool_falls_back_resuming_completed_ranges(
            self, tmp_path, monkeypatch):
        # Range 1's worker wedges (the job deadline stays at its 600 s
        # default) while the other worker finishes ranges 0, 2 and 3;
        # the pool then stalls.  The fallback runs the fold's jobs in
        # the parent, folding the three completed ranges from their
        # parts and rendering only range 1.
        reference = ram_rows(tmp_path)
        monkeypatch.setattr(pipelined, "NO_PROGRESS_TIMEOUT_S", 5.0)
        with injection.fault_plan("wedge-worker:range=1,block=0,seconds=120"):
            with pytest.warns(RuntimeWarning, match="falling back"):
                result = piped_run(tmp_path / "piped")
        assert rows(result) == reference
        report = result.stream_report
        assert report.fallbacks == 1
        assert report.resumed_ranges == 3
        assert pipelined._POOL is None
        scan = ArtifactStore(tmp_path / "piped").verify()
        assert scan["clean"] and scan["bad"] == 0


class TestCrashResume:
    def assert_resumed(self, tmp_path, reference, store_root,
                       stream_workers=2):
        """A second run over the crashed store must resume from the
        published parts, re-render only the missing ranges, and publish
        bit-identically."""
        with no_fallback_warning():
            result = piped_run(store_root, stream_workers=stream_workers)
        assert rows(result) == reference
        report = result.stream_report
        assert report is not None
        assert report.resumed_ranges >= 1
        assert report.resumed_parts >= 1
        scan = ArtifactStore(store_root).verify()
        assert scan["clean"] and scan["bad"] == 0
        # Publishing retired the crash-resume metadata: range records
        # (``<digest>.rNNNNN.done.json``), and no other resume file.
        store = ArtifactStore(store_root)
        assert not list(Path(store.root, "traces").glob("*.*.json"))
        return result

    def test_in_process_crash_resumes_from_parts(self, tmp_path):
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        shutdown_stream_pool()  # drop the crashed run's pool state
        self.assert_resumed(tmp_path, reference, tmp_path / "piped")

    def test_crash_after_one_range_resumes_from_parts(self, tmp_path):
        # The earliest resumable crash: a single completed range.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=1,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        shutdown_stream_pool()
        self.assert_resumed(tmp_path, reference, tmp_path / "piped")

    def test_fully_resumed_fold_renders_nothing(self, tmp_path):
        # A crash after every range finished (2 workers x 2 ranges):
        # the rerun folds all four ranges from their parts, renders no
        # triangle, and so must not count as a render.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=4,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        shutdown_stream_pool()
        before = render_calls()
        result = self.assert_resumed(tmp_path, reference, tmp_path / "piped")
        assert result.stream_report.resumed_ranges == 4
        assert render_calls() == before

    def test_pipelined_crash_resumes_in_a_serial_fold(self, tmp_path):
        # The range records belong to the fold, not the pool: a serial
        # rerun (chunk_size only) resumes the ranges the crashed
        # 2-worker fold completed and renders the rest in the parent.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        shutdown_stream_pool()
        result = self.assert_resumed(tmp_path, reference,
                                     tmp_path / "piped", stream_workers=0)
        assert result.stream_report.resumed_ranges >= 2
        assert pipelined._POOL is None

    def test_hard_exit_crash_resumes_across_processes(self, tmp_path):
        # The SIGKILL-equivalent: a subprocess os._exit(42)s mid-fold
        # with no cleanup whatsoever, then a fresh process resumes.
        reference = ram_rows(tmp_path)
        script = tmp_path / "crash.py"
        script.write_text(
            "import sys\n"
            "from repro.engine import ArtifactStore, Engine, "
            "ExperimentSpec\n"
            f"exp = ExperimentSpec(**{GRID!r})\n"
            "Engine(store=ArtifactStore(sys.argv[1])).run(\n"
            "    exp, chunk_size=4096, stream_workers=2)\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAULT_PLAN"] = "kill-run:after=1,mode=exit"
        # File-backed output: the killed parent's workers die with it
        # (PR_SET_PDEATHSIG), but pipes would hang communicate() if one
        # straggled through its teardown.
        log = (tmp_path / "crash.log").open("w")
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "piped")],
            env=env, stdout=log, stderr=log, timeout=300)
        log.close()
        assert proc.returncode == 42, (tmp_path / "crash.log").read_text()
        store = ArtifactStore(tmp_path / "piped")
        assert store.load_render(
            ExperimentSpec(**GRID).trace_specs()[0]) is None
        assert list(Path(store.root, "traces").glob("*.done.json"))
        self.assert_resumed(tmp_path, reference, tmp_path / "piped")


class TestPoolHygiene:
    def test_get_pool_replaces_dead_workers_in_place(self, tmp_path,
                                                     monkeypatch):
        # Workers killed while idle, between folds, are respawned in
        # place, and the respawned pool runs the next fold cleanly: a
        # dead worker must hold nothing its replacements wait on.  A
        # wedged replacement would only be retried after the job
        # deadline, so shorten it to keep a regression fast.
        piped_run(tmp_path / "first")
        pool = pipelined._POOL
        assert pool is not None and pool.alive()
        victims = list(pool.processes)
        for victim in victims:
            victim.terminate()
            victim.join(5)
        assert not pool.alive()
        monkeypatch.setenv("REPRO_STREAM_JOB_TIMEOUT", "5")
        goblet = ExperimentSpec(**dict(GRID, scenes=("goblet",)))
        reference = rows(Engine(store=ArtifactStore(tmp_path / "ram")).run(
            goblet))
        with no_fallback_warning():
            result = Engine(store=ArtifactStore(tmp_path / "second")).run(
                goblet, chunk_size=4096, stream_workers=2)
        assert rows(result) == reference
        report = result.stream_report
        assert report.respawns == 2
        assert report.retried_ranges == 0 and report.residual_ranges == 0
        assert report.fallbacks == 0
        assert pipelined._POOL is pool  # transparent respawn, not a rebuild
        assert pool.alive() and pool.respawns == 2
        assert not ({process.pid for process in pool.processes}
                    & {victim.pid for victim in victims})

    def test_unfinished_fold_breaks_the_pool(self, tmp_path):
        # A fold the parent abandons mid-run leaves workers mid-job;
        # the pool is torn down instead of handed to the next fold.
        pool = pipelined.get_pool(2)
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        assert pipelined._POOL is None
        assert not any(process.is_alive() for process in pool.processes)

    def test_get_pool_rebuilds_on_worker_count_change(self):
        pool = pipelined.get_pool(2)
        bigger = pipelined.get_pool(3)
        assert bigger is not pool
        assert bigger.workers == 3 and bigger.alive()
        assert not pool.alive()  # the old pool was shut down

    def test_forced_shutdown_terminates_workers(self):
        # A broken pool is torn down without reading its pipes: every
        # worker is gone and the next fold builds a fresh pool.
        pool = pipelined.get_pool(2)
        pool.conns[0].send(("render", {"range": 0}))  # a reply nobody reads
        pipelined._break_pool()
        assert pipelined._POOL is None
        assert not any(process.is_alive() for process in pool.processes)
        assert pipelined.get_pool(2) is not pool
