"""Per-layer metrics from the span files of one traced run.

``client.jsonl`` holds the load generator's spans, ``server.jsonl`` the
server process's, ``worker-<pid>.jsonl`` each shard worker's.  Counts are
divided by the traced slots (``/slot``) or requests (``/request``); a
layer a workload never enters reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from pathlib import Path

from tracing import covered_ns, load, outermost, self_times

__all__ = ["layer_metrics", "tail_percentile"]


def _dur_us(s: dict) -> float:
    return (s["end_ns"] - s["start_ns"]) / 1e3


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail_percentile(values: list[float], want: float = 0.99) -> tuple[float, float, int]:
    """``(q, value, n)``: the ``want`` percentile by nearest rank, or the
    highest percentile with at least ten samples beyond it when there are
    too few samples for ``want``."""
    ordered = sorted(values)
    n = len(ordered)
    q = min(want, 1.0 - 10.0 / n) if n > 10 else 0.5
    return q, ordered[max(0, math.ceil(q * n) - 1)], n


def layer_metrics(
    trace_dir: Path, *, slots: int, requests: int, server_cpu_main_s: float
) -> dict[str, float]:
    client = load(trace_dir / "client.jsonl")
    server = load(trace_dir / "server.jsonl")
    workers = [load(p) for p in sorted(trace_dir.glob("worker-*.jsonl"))]
    # Per process, spans grouped by name: index 0 the client, 1 the server.
    processes = []
    for spans in (client, server, *workers):
        groups: dict[str, list[dict]] = defaultdict(list)
        for s in spans:
            groups[s["name"]].append(s)
        processes.append(groups)
    wire_ends, server_only, service_side = processes[:2], processes[1:2], processes[1:]

    def named(name: str, where=processes) -> list[dict]:
        return [s for groups in where for s in groups.get(name, ())]

    def total_us(name: str, where=processes) -> float:
        return sum(_dur_us(s) for s in named(name, where))

    def outer_us(prefix: str) -> float:
        return sum(
            _dur_us(s) for spans in (server, *workers) for s in outermost(spans, prefix)
        )

    m: dict[str, float] = {}
    m["client.submit_us"] = _mean([_dur_us(s) for s in named("client.submit")])
    m["codec.encode_us"] = _mean([_dur_us(s) for s in named("codec.encode")])
    m["codec.decode_us"] = _mean([_dur_us(s) for s in named("codec.decode")])
    m["codec.msgs_per_slot"] = len(named("codec.decode")) / slots
    feeds = named("framing.feed", wire_ends)
    m["wire.bytes_per_request"] = _ratio(sum(s["extra"][0] for s in feeds), requests)
    m["framing.frames_per_read"] = _ratio(sum(s["extra"][1] for s in feeds), len(feeds))

    # Server CPU not inside any traced call: top-level spans of the event
    # loop thread (worker-pool threads' ipc.call excluded), less the time a
    # tick sat waiting on worker replies, which is not CPU.
    by_parent: dict[int, list[dict]] = defaultdict(list)
    for s in server:
        by_parent[s["parent"]].append(s)
    top = [s for s in by_parent[0] if s["name"] != "ipc.call"]
    waiting = sum(
        covered_ns(s, [c for c in by_parent[s["id"]] if c["name"] == "ipc.call_async"])
        for s in top
    )
    traced_ns = sum(s["end_ns"] - s["start_ns"] for s in top) - waiting
    m["netserver.residual_ms_per_slot"] = (server_cpu_main_s * 1e9 - traced_ns) / 1e6 / slots

    submits = named("submit", server_only)
    server_self = self_times(server)
    m["submit.us_per_request"] = _mean([_dur_us(s) for s in submits])
    m["submit.self_us_per_request"] = _mean([server_self[s["id"]] / 1e3 for s in submits])
    m["validate_request.us_per_request"] = _ratio(
        total_us("validate_request", server_only), len(submits)
    )

    ticks = named("tick", server_only)
    tick_ms = [_dur_us(s) / 1e3 for s in ticks]
    m["tick.ms_p50"] = statistics.median(tick_ms) if tick_ms else 0.0
    m["tick.ms_p99"] = tail_percentile(tick_ms)[1] if tick_ms else 0.0
    m["tick.self_ms"] = _mean([server_self[s["id"]] / 1e6 for s in ticks])

    admits = named("admission", server_only)
    m["admission.us_per_slot"] = total_us("admission", server_only) / slots
    m["admission.blocked_ratio"] = _ratio(
        sum(s["extra"][1] for s in admits), sum(s["extra"][0] for s in admits)
    )

    schedules = named("schedule", service_side)
    m["schedule.us_per_shard"] = _mean([_dur_us(s) for s in schedules])
    m["schedule.shards_per_slot"] = len(schedules) / slots
    m["distribute.us_per_slot"] = total_us("distribute", service_side) / slots

    kernels = named("kernel", service_side)
    m["kernel.us_per_call"] = _mean([_dur_us(s) for s in kernels])
    m["kernel.reduced_graphs_per_call"] = _mean([s["extra"] for s in kernels])
    memo = named("memo.get", service_side)
    m["memo.hit_ratio"] = _ratio(sum(s["extra"] for s in memo), len(memo))

    m["validate_schedule.calls_per_shard"] = _ratio(
        len(named("validate_schedule", service_side)), len(schedules)
    )
    m["validate_schedule.us_per_slot"] = total_us("validate_schedule", service_side) / slots
    m["resolve.us_per_request"] = total_us("resolve", server_only) / requests

    writes = named("journal.write", service_side)
    m["journal.records_per_slot"] = len(writes) / slots
    m["journal.bytes_per_slot"] = sum(s["extra"] for s in writes) / slots
    m["journal.us_per_slot"] = outer_us("journal") / slots
    m["snapshot.ms_per_slot"] = total_us("snapshot", service_side) / 1e3 / slots

    m["telemetry.calls_per_request"] = len(named("telemetry.inc", server_only)) / requests
    m["telemetry.us_per_slot"] = outer_us("telemetry") / slots

    collections = named("gc", service_side)
    m["gc.ms_per_slot"] = sum(_dur_us(s) for s in collections) / 1e3 / slots
    gen2 = [_dur_us(s) / 1e3 for s in collections if s["extra"] == 2]
    m["gc.gen2_ms_p50"] = statistics.median(gen2) if gen2 else 0.0

    calls = named("ipc.call", server_only)
    m["ipc.calls_per_slot"] = len(calls) / slots
    call_us = [_dur_us(s) for s in calls]
    m["ipc.roundtrip_us_p50"] = statistics.median(call_us) if call_us else 0.0
    m["ipc.executor_wait_us"] = (
        _mean([_dur_us(s) for s in named("ipc.call_async", server_only)]) - _mean(call_us)
        if calls else 0.0
    )
    return m
