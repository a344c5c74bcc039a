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
import multiprocessing
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
    fingerprint,
    render_calls,
    tiers,
)
from repro.engine import faults as chaos
from repro.engine import pipelined
from repro.engine.runner import StoredTraceStreams

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


class TestFaultPlanGrammar:
    def test_plan_parses_matchers_and_params(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            "kill-worker:range=1,block=2; kill-run:after=3,mode=exit")
        hit = chaos.maybe_fault("render-block", tmp_path, range=1, block=2)
        assert hit is not None and hit.action == "kill-worker"
        assert chaos.maybe_fault("render-block", tmp_path, range=1,
                                 block=1) is None
        assert chaos.maybe_fault("ship-block", tmp_path, range=1,
                                 block=2) is None
        crash = chaos.maybe_fault("range-complete", tmp_path, after=3)
        assert crash is not None and crash.param("mode") == "exit"
        assert chaos.maybe_fault("range-complete", tmp_path,
                                 after=2) is None

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
        assert chaos.maybe_fault("render-block", tmp_path, range=0,
                                 block=0) is not None
        assert chaos.maybe_fault("render-block", tmp_path, range=0,
                                 block=5) is None

    def test_scope_once_claims_under_a_store_without_locks(self, monkeypatch,
                                                          tmp_path):
        # The store's locks/ is made on demand: the first match on a
        # store that has none yet fires, and no later one does -- the
        # claim is the marker file every process sharing the store
        # sees.
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "kill-run:after=2,mode=exit,scope=once")
        root = tmp_path / "store"
        assert chaos.maybe_fault("range-complete", root, after=1) is None
        assert not root.exists()
        assert chaos.maybe_fault("range-complete", root, after=2) \
            is not None
        assert [path.name for path in (root / "locks").iterdir()] == \
            ["fault-0-kill-run.fired"]
        assert chaos.maybe_fault("range-complete", root, after=2) is None


class TestStreamReport:
    def test_clean_and_recovered_summaries(self):
        report = StreamReport(folds=1)
        assert report.clean
        assert "no recovery" in report.summary()
        report = StreamReport(folds=3, respawns=1, retried_ranges=3,
                              resumed_ranges=2, resumed_parts=7,
                              recovery_s=1.5)
        report.note("range 0: worker died")
        assert not report.clean
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
        with injection.fault_plan("kill-worker:range=1,block=0,scope=once"):
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
        monkeypatch.setattr(pipelined, "STREAM_JOB_TIMEOUT_S", 5.0)
        with injection.fault_plan(
                "wedge-worker:range=0,block=0,seconds=60,scope=once"):
            with no_fallback_warning():
                result = piped_run(tmp_path / "piped")
        assert rows(result) == reference
        report = result.stream_report
        assert report is not None and report.respawns >= 1
        assert report.retried_ranges >= 1 and report.fallbacks == 0
        assert any("wedged" in event for event in report.events)

    def test_enospc_demotion_retries_on_a_fresh_store(self, tmp_path):
        reference = ram_rows(tmp_path)
        with injection.fault_plan("enospc:range=1,block=0,scope=once"):
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


    def test_stalled_pool_falls_back_running_only_unfinished_ranges(
            self, tmp_path, monkeypatch):
        # Range 1's worker wedges (the job deadline stays at its 600 s
        # default) while the other worker finishes ranges 0, 2 and 3;
        # the pool then stalls.  The fallback keeps the three finished
        # ranges' states and runs only range 1 in the parent.
        reference = ram_rows(tmp_path)
        in_parent = []
        run_job = pipelined._run_job

        def recorded(store, kind, job, before_block=None):
            in_parent.append(job["range"])
            return run_job(store, kind, job, before_block)

        monkeypatch.setattr(pipelined, "_run_job", recorded)
        monkeypatch.setattr(pipelined, "NO_PROGRESS_TIMEOUT_S", 5.0)
        with injection.fault_plan("wedge-worker:range=1,block=0,seconds=120"):
            with pytest.warns(RuntimeWarning, match="falling back"):
                result = piped_run(tmp_path / "piped")
        assert rows(result) == reference
        assert in_parent == [1]  # workers record into their own copies
        report = result.stream_report
        assert report.fallbacks == 1
        assert not multiprocessing.active_children()
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
        self.assert_resumed(tmp_path, reference, tmp_path / "piped")

    def test_crash_after_one_range_resumes_from_parts(self, tmp_path):
        # The earliest resumable crash: a single completed range.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=1,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        self.assert_resumed(tmp_path, reference, tmp_path / "piped")

    def test_fully_resumed_fold_renders_nothing(self, tmp_path):
        # A crash after every range finished (2 workers x 2 ranges):
        # the rerun folds all four ranges from their parts, renders no
        # triangle, and so must not count as a render.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=4,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        before = render_calls()
        result = self.assert_resumed(tmp_path, reference, tmp_path / "piped")
        assert result.stream_report.resumed_ranges == 4
        assert render_calls() == before

    def test_scope_once_crash_fires_on_a_fresh_store(self, tmp_path):
        # A scope=once kill-run claims its marker in the store's locks/,
        # which a fresh store lacks: the crash fires (no serial
        # fallback hides a failed claim), and a rerun under the same
        # plan finds the marker, does not crash and resumes.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=2,mode=raise,scope=once"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
            self.assert_resumed(tmp_path, reference, tmp_path / "piped")

    def test_pipelined_crash_resumes_in_a_serial_fold(self, tmp_path):
        # The range records belong to the fold, not the pool: a serial
        # rerun (chunk_size only) resumes the ranges the crashed
        # 2-worker fold completed and renders the rest in the parent.
        reference = ram_rows(tmp_path)
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        result = self.assert_resumed(tmp_path, reference,
                                     tmp_path / "piped", stream_workers=0)
        assert result.stream_report.resumed_ranges >= 2
        assert not multiprocessing.active_children()

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
    def test_supervisor_respawns_workers_that_died_idle(self, tmp_path,
                                                        monkeypatch):
        # A worker killed while idle mid-request -- after it reports a
        # range, before its next dispatch -- is found by the next send
        # to it and respawned in place, and the request finishes
        # cleanly: a dead worker must hold nothing its replacement
        # waits on.  A wedged replacement would only be retried after
        # the job deadline, so shorten it to keep a regression fast.
        victims = []
        receive = pipelined._Supervision.receive

        def kill_after_first_range(self, slot):
            progress = receive(self, slot)
            if not victims and self.complete and slot not in self.running:
                victim = self.pool.processes[slot]
                victim.kill()
                victim.join(5)
                victims.append(victim)
            return progress

        monkeypatch.setattr(pipelined._Supervision, "receive",
                            kill_after_first_range)
        monkeypatch.setattr(pipelined, "STREAM_JOB_TIMEOUT_S", 5.0)
        grid = ExperimentSpec(**dict(GRID, scenes=("goblet", SCENE)))
        reference = rows(Engine(store=ArtifactStore(tmp_path / "ram")).run(
            grid))
        with no_fallback_warning():
            result = Engine(store=ArtifactStore(tmp_path / "piped")).run(
                grid, chunk_size=4096, stream_workers=2)
        assert rows(result) == reference
        assert len(victims) == 1 and not victims[0].is_alive()
        report = result.stream_report
        assert report.respawns == 1
        assert report.retried_ranges == 0 and report.residual_ranges == 0
        assert report.fallbacks == 0
        assert not multiprocessing.active_children()

    def test_unfinished_fold_breaks_the_pool(self, tmp_path):
        # A request the parent abandons mid-run leaves workers mid-job;
        # its pool is torn down before the crash leaves the call, so no
        # worker outlives the request.
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                piped_run(tmp_path / "piped")
        assert not multiprocessing.active_children()

    def test_one_pool_run_serves_the_request(self, tmp_path, monkeypatch):
        # Two cold scenes under two layouts: every range of the four
        # folds runs in one supervised run on one pool, every profile
        # is saved, and no worker is left once Engine.run returns.
        grid = ExperimentSpec(**dict(GRID, scenes=("goblet", SCENE),
                                     layouts=(LAYOUT, ("nonblocked",))))
        runs, pools = [], []
        for cls, seen in ((pipelined._Supervision, runs),
                          (pipelined.StreamPool, pools)):
            def recorded(self, *args, _init=cls.__init__, _seen=seen):
                _seen.append(self)
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", recorded)
        reference = rows(Engine(store=ArtifactStore(tmp_path / "ram")).run(
            grid))
        with no_fallback_warning():
            result = Engine(store=ArtifactStore(tmp_path / "piped")).run(
                grid, chunk_size=4096, stream_workers=2)
        assert rows(result) == reference
        assert result.stream_report.folds == 4
        assert len(runs) == 1 and len(pools) == 1
        assert {position for position, _ in runs[0].jobs} == {0, 1, 2, 3}
        assert runs[0].complete == set(runs[0].jobs)
        assert not multiprocessing.active_children()
        assert not any(process.is_alive() for process in pools[0].processes)

        def refuse(*args, **kwargs):
            raise AssertionError("a fully stored grid folded or locked")

        # Every profile was saved: the grid serves from the store, in
        # RAM and pipelined, with no fold, no pool and no lock.
        tiers.clear_process_caches()
        monkeypatch.setattr(StoredTraceStreams, "_compute", refuse)
        monkeypatch.setattr(pipelined, "fold_pipelined", refuse)
        monkeypatch.setattr(ArtifactStore, "single_flight", refuse)
        for options in ({}, {"chunk_size": 4096, "stream_workers": 2}):
            served = Engine(store=ArtifactStore(tmp_path / "piped")).run(
                grid, **options)
            assert rows(served) == reference
        assert len(pools) == 1


    def test_fold_the_parent_could_not_save_is_saved_after_fallback(
            self, tmp_path, monkeypatch):
        # The parent publishes and saves each trace inside the pool run;
        # an error there fails that run, and the fold is saved once the
        # parent has finished the rest -- never dropped.
        from repro.engine import StreamedProfiles

        keep = StreamedProfiles._keep
        failed = []

        def fail_once(self, states):
            if not failed:
                failed.append(self.trace_spec.scene)
                raise RuntimeError("injected save failure")
            keep(self, states)

        monkeypatch.setattr(StreamedProfiles, "_keep", fail_once)
        grid = ExperimentSpec(**dict(GRID, scenes=("goblet", SCENE)))
        reference = rows(Engine(store=ArtifactStore(tmp_path / "ram")).run(
            grid))
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = Engine(
                store=ArtifactStore(tmp_path / "piped")).run(
                    grid, chunk_size=4096, stream_workers=2)
        assert failed == ["goblet"]
        assert rows(result) == reference
        assert result.stream_report.fallbacks == 1
        assert not multiprocessing.active_children()
        tiers.clear_process_caches()
        monkeypatch.setattr(pipelined, "fold_pipelined", None)
        served = Engine(store=ArtifactStore(tmp_path / "piped")).run(
            grid, chunk_size=4096, stream_workers=2)
        assert rows(served) == reference


class TestLockOrder:
    def test_cold_traces_locked_once_in_fingerprint_order(self, tmp_path,
                                                          monkeypatch):
        # flock locks belong to the open file, so a second single_flight
        # on a trace this process holds would wait out LOCK_TIMEOUT_S.
        # A request takes every cold trace's lock once, in fingerprint
        # order (so two processes cannot deadlock), before it sends any
        # range -- whatever order the grid lists its scenes in.
        events = []
        single_flight = ArtifactStore.single_flight
        dispatch = pipelined._Supervision.dispatch

        def recorded_lock(self, kind, digest, *args, **kwargs):
            if kind == "traces":
                events.append(digest)
            return single_flight(self, kind, digest, *args, **kwargs)

        def recorded_dispatch(self):
            before = len(self.running)
            dispatch(self)
            if len(self.running) > before:
                events.append("dispatch")

        monkeypatch.setattr(ArtifactStore, "single_flight", recorded_lock)
        monkeypatch.setattr(pipelined._Supervision, "dispatch",
                            recorded_dispatch)
        scenes = ("goblet", "guitar", SCENE)
        digests = {scene: fingerprint(ExperimentSpec(
            **dict(GRID, scenes=(scene,))).trace_specs()[0].payload())
            for scene in scenes}
        against = sorted(scenes, key=digests.get, reverse=True)
        grid = ExperimentSpec(**dict(GRID, scenes=tuple(against),
                                     layouts=(LAYOUT, ("nonblocked",))))
        Engine(store=ArtifactStore(tmp_path)).run(grid, chunk_size=4096,
                                                  stream_workers=2)
        locks = events[:events.index("dispatch")]
        assert locks == sorted(digests.values())
        assert [event for event in events if event != "dispatch"] == locks
