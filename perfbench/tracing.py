"""In-memory span tracing installed from outside the program.

:func:`install` replaces the public entry points of each layer with thin
wrappers (module attributes and class methods, so every call site that
looks the name up at call time goes through them) that record one span
per call: ``(id, name, start_ns, end_ns, parent_id, slot, extra)``.  The
parent is whatever span is open in the caller's context (a
``contextvars`` variable, so concurrent asyncio tasks keep separate
trees).  ``slot`` — the shared identifier — is read from the owning
process's clock: the service's slot on the server, the driven slot on the
client, the last journaled tick in a shard worker.  ``extra`` carries the
counts measured at that boundary (bytes fed, frames out, requests
blocked, memo hit, ...).

Spans stay in memory and :meth:`Recorder.write` dumps them as JSONL when
the process ends; :func:`load` and :func:`self_times` read them back.
"""

from __future__ import annotations

import contextvars
import gc
import importlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

__all__ = ["Recorder", "install", "load", "covered_ns", "self_times", "outermost"]

#: (span name, module, attribute path, kind); attribute paths with a dot
#: are class methods.  ``kind`` is "sync" or "async".
_COMMON = (
    ("codec.encode", "repro.net.protocol", "encode_message", "sync"),
    ("codec.decode", "repro.net.protocol", "decode_message", "sync"),
    ("framing.feed", "repro.util.framing", "FrameDecoder.feed", "sync"),
)
_CLIENT = (("client.submit", "repro.net.client", "NetClient.submit_nowait", "sync"),)
_SERVICE = (
    ("submit", "repro.service.server", "SchedulingService.submit_nowait", "sync"),
    ("submit", "repro.net.procservice", "ProcessShardedService.submit_nowait", "sync"),
    ("validate_request", "repro.service.server", "validate_slot_request", "sync"),
    ("validate_request", "repro.net.procservice", "validate_slot_request", "sync"),
    ("tick", "repro.service.server", "SchedulingService.tick", "async"),
    ("tick", "repro.net.procservice", "ProcessShardedService.tick", "async"),
    ("admission", "repro.service.tickloop", "InputAdmission.admit", "sync"),
    ("schedule", "repro.service.shard", "ShardWorker.schedule", "sync"),
    ("distribute", "repro.core.distributed", "distribute_grants", "sync"),
    ("distribute", "repro.service.server", "distribute_grants", "sync"),
    ("kernel", "repro.core.first_available", "FirstAvailableScheduler.schedule", "sync"),
    ("kernel", "repro.core.break_first_available",
     "BreakFirstAvailableScheduler.schedule", "sync"),
    ("memo.get", "repro.core.memo", "ScheduleCache.get", "sync"),
    ("validate_schedule", "repro.core.base", "validate_schedule", "sync"),
    ("validate_schedule", "repro.core.distributed", "validate_schedule", "sync"),
    ("resolve", "repro.service.edge", "SubmissionEdge.resolve", "sync"),
    ("resolve", "repro.service.edge", "SubmissionEdge.resolve_rejected", "sync"),
    *(
        ("journal", "repro.service.journal", f"ShardJournal.{m}", "sync")
        for m in (
            "append", "accept", "dequeue", "evict", "grant", "grant_batch",
            "advance", "defer_advance", "flush_deferred", "fault",
            "snapshot_mark", "compact", "rewrite_records",
        )
    ),
    ("journal.write", "repro.service.journal", "MemoryJournal.append", "sync"),
    ("journal.write", "repro.service.journal", "FileJournal.append", "sync"),
    ("snapshot", "repro.service.durability", "DurabilityManager.take_snapshot", "sync"),
    ("telemetry.inc", "repro.service.telemetry", "Counter.inc", "sync"),
    ("telemetry", "repro.service.telemetry", "Gauge.set", "sync"),
    ("telemetry", "repro.service.telemetry", "Histogram.observe", "sync"),
    ("ipc.call", "repro.net.procpool", "ProcessShardPool.call", "sync"),
    ("ipc.call_async", "repro.net.procpool", "ProcessShardPool.call_async", "async"),
)
#: Inside a shard worker the per-shard decision is the module-level
#: ``schedule_output_fiber`` the worker loop calls (there is no ShardWorker).
_WORKER = (
    ("schedule", "repro.net.procpool", "schedule_output_fiber", "sync"),
)


def _extra_for(name: str) -> Callable | None:
    """Counts recorded at a boundary, from (args, result)."""
    if name == "framing.feed":
        return lambda a, r: (len(a[1]), len(r))
    if name == "admission":
        return lambda a, r: (len(a[1]), len(r[2]))
    if name == "kernel":
        return lambda a, r: r.stats.get("reduced_graphs", 0)
    if name == "memo.get":
        return lambda a, r: 0 if r is None else 1
    if name == "journal.write":
        return lambda a, r: len(a[1])
    return None


class Recorder:
    """Collects spans in memory for one process."""

    def __init__(self, side: str) -> None:
        self.side = side
        self.spans: list[tuple] = []
        #: Slot id source; the owner replaces it with its own clock.
        self.slot: Callable[[], int] = lambda: self.slot_hint
        self.slot_hint = -1
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap_sync(self, name: str, fn: Callable, extra: Callable | None):
        spans, current, ids, clock = self.spans, self._current, self._ids, time.perf_counter_ns
        rec = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                current.reset(token)
                spans.append((sid, name, t0, t1, parent, rec.slot(), "raised"))
                raise
            t1 = clock()
            current.reset(token)
            spans.append(
                (sid, name, t0, t1, parent, rec.slot(),
                 None if extra is None else extra(args, result))
            )
            return result

        return wrapper

    def _wrap_async(self, name: str, fn: Callable):
        spans, current, ids, clock = self.spans, self._current, self._ids, time.perf_counter_ns
        rec = self

        async def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            slot = rec.slot()
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
                spans.append((sid, name, t0, t1, parent, slot, None))

        return wrapper

    def _patch(self, name: str, module: str, path: str, kind: str) -> None:
        owner: object = importlib.import_module(module)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        if kind == "async":
            wrapped = self._wrap_async(name, original)
        else:
            wrapped = self._wrap_sync(name, original, _extra_for(name))
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def trace_gc(self) -> None:
        """Record each cyclic-GC pass as a ``gc`` span (extra: generation)
        under whatever span was open when the allocation triggered it."""
        spans, current, ids, clock = self.spans, self._current, self._ids, time.perf_counter_ns
        started = [0]

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                started[0] = clock()
            else:
                spans.append((next(ids), "gc", started[0], clock(), current.get(),
                              self.slot(), info["generation"]))

        gc.callbacks.append(on_gc)
        self._restore.append((None, "gc", on_gc))

    def uninstall(self) -> None:
        """Put every wrapped entry point back (reverse order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if owner is None:
                gc.callbacks.remove(original)
            else:
                setattr(owner, attr, original)

    def write(self, path: str | Path) -> None:
        """Dump the spans as JSONL, one object per span."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, slot, extra in self.spans:
                fh.write(
                    f'{{"id":{sid},"name":"{name}","start_ns":{t0},'
                    f'"end_ns":{t1},"parent":{parent},"slot":{slot},'
                    f'"extra":{json.dumps(extra)}}}\n'
                )


def install(recorder: Recorder) -> Recorder:
    """Wrap the layers seen from ``recorder.side`` ("client", "server" or
    "worker"); returns the recorder (``uninstall`` undoes it)."""
    table = list(_COMMON)
    if recorder.side == "client":
        table += _CLIENT
    else:
        table += _SERVICE
    if recorder.side == "worker":
        table += _WORKER
    for entry in table:
        recorder._patch(*entry)
    if recorder.side != "client":
        recorder.trace_gc()
    if recorder.side == "worker":
        # A worker has no service clock: its slot is the tick after the
        # last one its journals advanced past.
        from repro.service.journal import ShardJournal

        advance = ShardJournal.advance

        def advance_and_note(journal, tick):
            advance(journal, tick)
            recorder.slot_hint = tick + 1

        ShardJournal.advance = advance_and_note
        recorder._restore.append((ShardJournal, "advance", advance))
    return recorder


# -- reading traces back ----------------------------------------------------


def load(path: str | Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def covered_ns(parent: dict, children: list[dict]) -> int:
    """Length of the union of ``children``'s intervals clipped to
    ``parent``'s (children may overlap when they ran in concurrent tasks)."""
    covered, end = 0, parent["start_ns"]
    for c in sorted(children, key=lambda c: c["start_ns"]):
        a, b = max(c["start_ns"], end), min(c["end_ns"], parent["end_ns"])
        if b > a:
            covered += b - a
            end = b
    return covered


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id → self time (ns): its duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    return {
        s["id"]: s["end_ns"] - s["start_ns"] - covered_ns(s, children.get(s["id"], []))
        for s in spans
    }


def outermost(spans: list[dict], prefix: str) -> list[dict]:
    """Spans named ``prefix*`` whose parent is not itself such a span —
    summing these counts nested calls of one layer once."""
    by_id = {s["id"]: s for s in spans}
    picked = []
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        parent = by_id.get(s["parent"])
        if parent is None or not parent["name"].startswith(prefix):
            picked.append(s)
    return picked
