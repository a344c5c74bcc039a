"""Layer probes: spans around the ``repro`` package's functions, taken
from outside the package.

:func:`install` replaces each function named in :data:`PROBES` -- at
every module binding that refers to it, and on the class for methods --
with a wrapper that records one span per call: name, start, duration and
self time (duration minus the time its child spans cover).  Nothing
under ``src/`` is edited, so an untraced process runs the unmodified
code.

Spans stay in memory.  The process that installed the probes writes them
with :meth:`Recorder.flush`; processes forked from it (the pipelined
``StreamPool`` workers) inherit the wrappers, start an empty buffer at
fork and append each finished top-level span to their own
``spans.<pid>.jsonl``, so a worker that is terminated loses nothing it
finished.  :func:`read_spans` merges every file of a trace directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (span name, "module:attribute") for every probed function.  A span
#: name may cover several functions (the store's four ``load_*``
#: methods are one ``artifacts.load`` layer).
PROBES = (
    ("kernels.to_lines", "repro.core.cache:to_lines"),
    ("kernels.collapse", "repro.core.cache:collapse_consecutive"),
    ("kernels.prev", "repro.core.kernels:previous_occurrences"),
    ("kernels.set_histogram", "repro.core.kernels:set_distance_histogram"),
    ("kernels.dominance", "repro.core.kernels:dominance_counts"),
    ("kernels.partial_from_runs",
     "repro.core.kernels:PartialSetProfile.from_runs"),
    ("kernels.partial_merge", "repro.core.kernels:PartialSetProfile.merge"),
    ("kernels.partial_finalize",
     "repro.core.kernels:PartialSetProfile.finalize"),
    ("kernels.fold_block", "repro.engine.streaming:_fold_block_into"),
    ("scenes.build", "repro.scenes.flight:FlightScene.build"),
    ("scenes.build", "repro.scenes.town:TownScene.build"),
    ("scenes.build", "repro.scenes.guitar:GuitarScene.build"),
    ("scenes.build", "repro.scenes.goblet:GobletScene.build"),
    ("scenes.mipmaps", "repro.scenes.base:SceneData.get_mipmaps"),
    ("pipeline.render", "repro.pipeline.renderer:Renderer.render"),
    ("pipeline.render_blocks",
     "repro.pipeline.renderer:Renderer.render_blocks"),
    ("texture.address_map", "repro.texture.memory:AddressMapper.map"),
    ("texture.place", "repro.texture.memory:place_textures"),
    ("sweep.profile", "repro.core.sweep:TraceStreams.profile"),
    ("artifacts.part_append",
     "repro.engine.artifacts:ChunkedRenderWriter.append"),
    ("artifacts.part_publish",
     "repro.engine.artifacts:ArtifactStore.publish_chunked_sidecar"),
    ("artifacts.save", "repro.engine.artifacts:ArtifactStore.save_render"),
    ("artifacts.save", "repro.engine.artifacts:ArtifactStore.save_addresses"),
    ("artifacts.save", "repro.engine.artifacts:ArtifactStore.save_profile"),
    ("artifacts.save",
     "repro.engine.artifacts:ArtifactStore.save_set_profile"),
    ("artifacts.load", "repro.engine.artifacts:ArtifactStore.load_render"),
    ("artifacts.load", "repro.engine.artifacts:ArtifactStore.load_addresses"),
    ("artifacts.load", "repro.engine.artifacts:ArtifactStore.load_profile"),
    ("artifacts.load",
     "repro.engine.artifacts:ArtifactStore.load_set_profile"),
    ("pipelined.fold", "repro.engine.pipelined:fold_pipelined"),
    ("runner.run", "repro.engine.runner:Engine.run"),
    ("runner.stats_for", "repro.core.kernels:SetDistanceProfile.stats_for"),
    ("runner.curve", "repro.core.stackdist:miss_rate_curve"),
)

#: Probes whose calls return a generator; each ``next()`` is one span.
GENERATORS = frozenset({"pipeline.render_blocks"})


def _extra_dominance(args, result):
    return {"elements": len(args[0])}


def _extra_load(args, result):
    return {"hit": int(result is not None)}


def _extra_render(args, result):
    extra = {"fragments": int(result.n_fragments)}
    for phase, ms in (result.phase_ms or {}).items():
        extra[phase + "_s"] = ms / 1000.0
    return extra


def _extra_address_map(args, result):
    return {"texels": len(args[1])}


def _extra_block(args, block):
    return {"blocks": 1, "fragments": int(block.n_fragments)}


#: Counters recorded on a span from its arguments and result; they are
#: summed per span name.
EXTRAS = {
    "kernels.dominance": _extra_dominance,
    "artifacts.load": _extra_load,
    "pipeline.render": _extra_render,
    "pipeline.render_blocks": _extra_block,
    "texture.address_map": _extra_address_map,
}


class Recorder:
    """Per-process span buffer.  Timestamps come from
    ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), which
    every process on the host shares, so spans of forked workers line
    up with the parent's."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.enabled = True
        self.owner = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.local = threading.local()
        self.pending = []

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def record(self, name, start, duration, child, extra) -> None:
        self.pending.append((name, start, duration, duration - child,
                             threading.get_ident(), extra))
        # Forked workers may be terminated without running any exit
        # hook, so they write each finished top-level span at once.
        if self.pid != self.owner and not self.stack():
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        lines = [json.dumps({"name": name, "ts": start, "dur": duration,
                             "self": own, "pid": self.pid, "tid": tid,
                             **({"x": extra} if extra else {})})
                 for name, start, duration, own, tid, extra in self.pending]
        self.pending = []
        with open(self.directory / f"spans.{self.pid}.jsonl", "a") as out:
            out.write("\n".join(lines) + "\n")


def _span(recorder, name, extra, call):
    """Run ``call()`` as one span; returns its result."""
    if not recorder.enabled:
        return call()
    stack = recorder.stack()
    stack.append(0)
    start = time.perf_counter_ns()
    result = _FAILED
    try:
        result = call()
        return result
    finally:
        duration = time.perf_counter_ns() - start
        child = stack.pop()
        if stack:
            stack[-1] += duration
        recorder.record(name, start, duration, child,
                        extra(result) if extra and result is not _FAILED
                        else None)


_FAILED = object()
_DONE = object()


def _wrap(recorder, name, func):
    extra_of = EXTRAS.get(name)
    if name in GENERATORS:
        @functools.wraps(func)
        def probe(*args, **kwargs):
            inner = func(*args, **kwargs)
            extra = (lambda item: None if item is _DONE
                     else extra_of(args, item)) if extra_of else None

            def stepped():
                while True:
                    item = _span(recorder, name, extra,
                                 lambda: next(inner, _DONE))
                    if item is _DONE:
                        return
                    yield item
            return stepped()
        return probe

    @functools.wraps(func)
    def probe(*args, **kwargs):
        extra = ((lambda result: extra_of(args, result)) if extra_of
                 else None)
        return _span(recorder, name, extra, lambda: func(*args, **kwargs))
    return probe


def _resolve(target: str):
    """``(owner, attribute)`` for ``"module:Class.attr"`` or
    ``"module:function"``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, attribute


def install(directory) -> Recorder:
    """Wrap every :data:`PROBES` function for this process and the
    processes it forks; spans go to ``directory``."""
    import repro.engine  # noqa: F401  (loads every probed module)

    recorder = Recorder(directory)
    for name, target in PROBES:
        owner, attribute = _resolve(target)
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute,
                        classmethod(_wrap(recorder, name, raw.__func__)))
            else:
                setattr(owner, attribute, _wrap(recorder, name, raw))
            continue
        original = getattr(owner, attribute)
        wrapped = _wrap(recorder, name, original)
        # Rebind every module-level name bound to the function
        # (``from .x import f`` copies the binding into the importer).
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return recorder


def read_spans(directory) -> list:
    """Every span written under ``directory``, all processes merged."""
    spans = []
    for path in sorted(Path(directory).glob("spans.*.jsonl")):
        with open(path) as lines:
            spans.extend(json.loads(line) for line in lines if line.strip())
    return spans


def chrome_trace(groups) -> dict:
    """Chrome trace-event JSON (Perfetto, ``chrome://tracing``) for
    ``groups``: ``(label, spans)`` pairs; one pid per process."""
    events = []
    for label, spans in groups:
        for pid in sorted({span["pid"] for span in spans}):
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "args": {"name": f"{label} pid {pid}"}})
        for span in spans:
            events.append({"ph": "X", "name": span["name"],
                           "cat": span["name"].split(".")[0],
                           "pid": span["pid"], "tid": span["tid"],
                           "ts": span["ts"] / 1000.0,
                           "dur": span["dur"] / 1000.0,
                           "args": span.get("x", {})})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
