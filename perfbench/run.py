"""Closed-loop, slot-synchronous TCP benchmark of the scheduling service.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-bfa --seed 1 --seconds 10 --trace 0

One load-generator process (this one) drives a ``NetServer`` running in
its own process (``perfbench/server.py``) over one ``NetClient``
connection.  Each slot it writes that slot's pre-generated requests, then
TICK_ADVANCE, and waits for every GRANT/REJECT and the TICK_DONE before
starting the next slot, so grants are a pure function of the seed.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same inputs twice — once with spans recorded in
the client, the server and its workers, once without — and reports the
per-layer metrics plus the tracing overhead.  Either way the correctness
gate (:mod:`gate`) runs after the timed region; a failure exits 1 and
prints no numbers.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple, NoReturn

# This directory is on sys.path when run.py runs as a script; these three
# modules need only the standard library.  Modules that import the program
# (gate, workloads, repro.*) load after main() has found ``src/``.
from layers import layer_metrics, tail_percentile
from procmeter import cpu_seconds, peak_rss_mib
from tracing import Recorder, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working files inside the checkout: journals, traces, the last result.
RUN_DIR = ROOT / ".perfbench-run"

END_TO_END = {
    "slots_per_s": "slot/s",
    "slot_p50_ms": "ms",
    "grant_ratio": "1",
    "setup_s": "s",
    "server_cpu_ms_per_slot": "ms/slot",
    "server_rss_mb": "MiB",
}
#: End-to-end figures printed by every ``--trace 0`` run but left out of the
#: JSON result: ``failed_ratio`` is 0 on a correct run (the result carries it
#: as ``failed`` / ``attempted``), and the slot tail on this kind of shared
#: two-CPU host moves with outside interference far more than any bound a
#: regression gate can hold (see README.md, "Steadiness").
UNGATED_END_TO_END = {
    "slot_p99_ms": "ms",
    "failed_ratio": "1",
}
PER_LAYER = {
    "client.cpu_ms_per_slot": "ms/slot",
    "client.submit_us": "us",
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "codec.msgs_per_slot": "count/slot",
    "wire.bytes_per_request": "B",
    "framing.frames_per_read": "count",
    "netserver.residual_ms_per_slot": "ms/slot",
    "submit.us_per_request": "us",
    "submit.self_us_per_request": "us",
    "validate_request.us_per_request": "us",
    "tick.ms_p50": "ms",
    "tick.ms_p99": "ms",
    "tick.self_ms": "ms",
    "admission.us_per_slot": "us/slot",
    "admission.blocked_ratio": "1",
    "schedule.us_per_shard": "us",
    "schedule.shards_per_slot": "count/slot",
    "distribute.us_per_slot": "us/slot",
    "kernel.us_per_call": "us",
    "kernel.reduced_graphs_per_call": "count",
    "memo.hit_ratio": "1",
    "validate_schedule.calls_per_shard": "count",
    "validate_schedule.us_per_slot": "us/slot",
    "resolve.us_per_request": "us",
    "journal.records_per_slot": "count/slot",
    "journal.bytes_per_slot": "B/slot",
    "journal.us_per_slot": "us/slot",
    "snapshot.ms_per_slot": "ms/slot",
    "telemetry.calls_per_request": "count",
    "telemetry.us_per_slot": "us/slot",
    "ipc.calls_per_slot": "count/slot",
    "ipc.roundtrip_us_p50": "us",
    "ipc.executor_wait_us": "us",
    "workers.cpu_ms_per_slot": "ms/slot",
    "gc.ms_per_slot": "ms/slot",
    "gc.gen2_ms_p50": "ms",
    "trace.slots_per_s": "slot/s",
    "trace.untraced_slots_per_s": "slot/s",
    "trace.overhead_pct": "%",
}

#: Untimed slots that let lazy set-up finish and multi-slot holds fill the
#: channels before a timed region.
WARMUP_SLOTS = 20
#: The timed region is cut into this many equal chunks, each on a server
#: launched for it that drives the input from slot 0 (``setup_s`` is the
#: median launch).  Each chunk is a replicate with its own process state
#: (hash seed, memory layout, placement on the CPUs), and the launches
#: between chunks spread them over the whole run: on a shared host the
#: speed drifts over tens of seconds.
CHUNKS = 4
#: Width of the windows the timed region is cut into.  Long enough to hold
#: the program's own periodic costs (a full collection, a snapshot) several
#: times over; short enough to tell a slow stretch of the host from a quiet
#: one.
WINDOW_S = 2.0
#: A slot whose outcomes take longer than this counts as connection loss.
SLOT_TIMEOUT_S = 30.0
LAUNCH_TIMEOUT_S = 120.0


def _fail(message: str, code: int = 1) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


# -- the server process -------------------------------------------------------


class Server:
    """One launched ``perfbench/server.py`` process and its connection."""

    def __init__(self, proc, workers: list[int], client, setup_s: float,
                 journal_dir: Path | None):
        self.proc = proc
        self.journal_dir = journal_dir
        self.pid = proc.pid
        self.workers = workers
        self.client = client
        self.setup_s = setup_s

    def cpu_seconds(self, workers: bool = True) -> float:
        pids = [self.pid, *self.workers] if workers else [self.pid]
        return sum(cpu_seconds(p) for p in pids)

    def worker_cpu_seconds(self) -> float:
        return sum(cpu_seconds(p) for p in self.workers)

    def peak_rss_mib(self) -> float:
        return sum(peak_rss_mib(p) for p in [self.pid, *self.workers])

    async def close(self) -> None:
        """Close the connection, let the server shut down, reap it."""
        try:
            await self.client.close()
        finally:
            await _reap(self.proc)
            if self.journal_dir is not None:
                shutil.rmtree(self.journal_dir, ignore_errors=True)


async def _reap(proc) -> None:
    if proc.stdin is not None and not proc.stdin.is_closing():
        proc.stdin.close()
    try:
        await asyncio.wait_for(proc.wait(), 60)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.wait()


async def launch(workload, trace_dir: Path | None = None) -> Server:
    """Start a server process; ``setup_s`` runs from launch to WELCOME."""
    from repro.net.client import NetClient

    # server.py puts src/ on its own path; tracing is asked for by flag only.
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_TRACE_DIR"}
    cmd = [sys.executable, str(HERE / "server.py"), "--workload", workload.name]
    journal_dir = None
    if workload.workers:
        journal_dir = RUN_DIR / f"journals-{time.monotonic_ns()}"
        cmd += ["--journal-dir", str(journal_dir)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    t0 = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        *cmd,
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        cwd=str(ROOT),
        env=env,
    )
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), LAUNCH_TIMEOUT_S)
        fields = line.decode().split()
        if not fields or fields[0] != "READY":
            raise RuntimeError(f"server did not start (said {line!r})")
        port, *workers = (int(x) for x in fields[1:])
        client = await NetClient.connect("127.0.0.1", port)
    except BaseException:
        await _reap(proc)
        if journal_dir is not None:
            shutil.rmtree(journal_dir, ignore_errors=True)
        raise
    return Server(proc, workers, client, time.perf_counter() - t0, journal_dir)


# -- the closed loop ----------------------------------------------------------


class Window(NamedTuple):
    """One timed window of a drive."""

    slots_per_s: float
    meter_per_slot: float
    seconds: float
    latencies: list[float]


def quiet_windows(windows: list[Window]) -> list[Window]:
    """The faster half of the full-width windows.

    Interference from outside the benchmark (other tenants of a shared
    host) only ever slows a window down, so the faster half measures the
    program rather than its neighbours, as long as the host is quiet for
    half of the run.  Short windows (cut by a chunk's end) count only when
    there is nothing else, as in smoke runs capped at a few slots.
    """
    full = [w for w in windows if w.seconds >= WINDOW_S / 2] or windows
    cut = statistics.median(w.slots_per_s for w in full)
    return [w for w in full if w.slots_per_s >= cut]


class Drive:
    """Outcomes and timings of the slots driven over one connection."""

    def __init__(self) -> None:
        self.outcomes: list[list[tuple]] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.lost = False
        self.windows: list[Window] = []
        self.meter = None
        self._mark: tuple[float, int, float] | None = None

    @property
    def slots(self) -> int:
        return len(self.outcomes)

    def open_window(self, now: float) -> None:
        self._mark = (now, len(self.latencies), self.meter())

    def close_window(self, now: float) -> None:
        t0, n0, m0 = self._mark
        n1, m1 = len(self.latencies), self.meter()
        if n1 > n0:
            self.windows.append(Window((n1 - n0) / (now - t0), (m1 - m0) / (n1 - n0),
                                       now - t0, self.latencies[n0:n1]))
        self._mark = None


async def drive(client, slots, drv: Drive, *, until: float, min_slots: int,
                max_slots: int, timed: bool, on_slot=None) -> None:
    """Drive slots ``drv.slots, ...`` until the clock passes ``until`` and at
    least ``min_slots`` are done, or ``max_slots`` are done."""
    from gate import GRANT
    from repro.errors import ProtocolError
    from repro.net import protocol as proto

    perf = time.perf_counter
    limit = min(max_slots, len(slots))
    while drv.slots < limit and not drv.lost:
        t = drv.slots
        if t >= min_slots and perf() >= until:
            break
        if on_slot is not None:
            on_slot(t)
        t0 = perf()
        futures = [client.submit_nowait(r) for r in slots[t]]
        try:
            async with asyncio.timeout(SLOT_TIMEOUT_S):
                done = await client.tick()
                results = await asyncio.gather(*futures, return_exceptions=True)
        except (TimeoutError, ProtocolError, OSError) as exc:
            # Timeout or connection loss: record it and stop driving.
            drv.lost = True
            results = [f.result() if f.done() and not f.cancelled()
                       and f.exception() is None else exc for f in futures]
            done = None
        dt = perf() - t0
        row = []
        for res in results:
            if isinstance(res, proto.Grant):
                row.append((GRANT, res.channel, res.slot))
            elif isinstance(res, proto.Reject):
                row.append((res.reason.name, res.slot))
            else:
                row.append(("ERROR", repr(res)))
                drv.failed += 1
        drv.outcomes.append(row)
        if done is not None and done.slot != t + 1:
            drv.lost = True
            row.append(("ERROR", f"TICK_DONE slot {done.slot}, expected {t + 1}"))
            drv.failed += 1
        if timed:
            drv.latencies.append(dt)
            if drv.meter is not None and t0 + dt >= drv._mark[0] + WINDOW_S:
                drv.close_window(t0 + dt)
                drv.open_window(t0 + dt)


# -- one benchmark run ---------------------------------------------------------


def host_loop_ms() -> float:
    """Best of three timings of a fixed pure-Python loop, ms.

    Recorded next to each chunk, outside the timed region, so that a run
    slowed by its host can be told from a slow program: on a shared host
    the speed of plain computation itself drifts.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def meta() -> dict:
    import numpy

    from repro.core import kernels

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.get_backend().name,
    }


async def check_outputs(workload, slots, drives: list[Drive], reference) -> None:
    """Exit 1 (no numbers printed) unless every drive is correct."""
    from gate import check, optimality

    longest = max(d.slots for d in drives)
    await reference.advance(slots[len(reference.outcomes):longest])
    problems = optimality(workload, slots[:longest], reference.outcomes)
    for d in drives:
        problems += check(slots[: d.slots], d.outcomes, reference.outcomes)
        if d.failed or d.lost:
            problems.insert(0, f"{d.failed} failed requests, connection lost: {d.lost}")
    if problems:
        _fail("correctness gate failed:\n  " + "\n  ".join(problems[:10]))


async def run_end_to_end(workload, slots, seconds: float,
                         max_slots: int) -> tuple[dict, dict, list[Drive]]:
    from gate import GRANT

    drives: list[Drive] = []
    setups: list[float] = []
    rss: list[float] = []
    loops: list[float] = []
    min_slots = min(workload.ratio_slots, max_slots)
    for _ in range(CHUNKS):
        server = await launch(workload)
        setups.append(server.setup_s)
        drv = Drive()
        drv.meter = server.cpu_seconds
        drives.append(drv)
        try:
            await drive(server.client, slots, drv, until=0.0, min_slots=0,
                        max_slots=min(WARMUP_SLOTS, max_slots), timed=False)
            loops.append(host_loop_ms())
            start = time.perf_counter()
            drv.open_window(start)
            await drive(server.client, slots, drv, until=start + seconds / CHUNKS,
                        min_slots=min_slots, max_slots=max_slots, timed=True)
            drv.close_window(time.perf_counter())
            rss.append(server.peak_rss_mib())
        finally:
            await server.close()
    latencies = [x for d in drives for x in d.latencies]
    if not latencies:
        _fail("no timed slots (inputs too short)")
    windows = [w for d in drives for w in d.windows]
    quiet = quiet_windows(windows)
    q, p99, n = tail_percentile(latencies)
    # Every drive starts at slot 0 and passed the gate against one
    # reference, so the ratio prefix reads the same in each.
    ratio_slots = drives[0].outcomes[: workload.ratio_slots]
    granted = sum(1 for row in ratio_slots for o in row if o[0] == GRANT)
    submitted = sum(len(row) for row in ratio_slots)
    # Throughput, median latency and CPU come from the quiet windows; the
    # tail is taken over every timed slot.
    metrics = {
        "slots_per_s": statistics.median(w.slots_per_s for w in quiet),
        "slot_p50_ms": statistics.median(x for w in quiet for x in w.latencies) * 1e3,
        "slot_p99_ms": p99 * 1e3,
        "grant_ratio": granted / submitted,
        "setup_s": statistics.median(setups),
        "server_cpu_ms_per_slot": statistics.median(w.meter_per_slot for w in quiet) * 1e3,
        "server_rss_mb": statistics.median(rss),
    }
    details = {
        "timed_slots": len(latencies),
        "slot_p99_percentile": q,
        "slot_p99_samples": n,
        "ratio_slots": len(ratio_slots),
        "setup_s_samples": setups,
        "inputs_exhausted": any(d.slots >= len(slots) for d in drives),
        "host_loop_ms": loops,
        "quiet_windows": len(quiet),
        "window_slots_per_s": [[round(w.slots_per_s, 2) for w in d.windows]
                               for d in drives],
    }
    return metrics, details, drives


async def run_traced(workload, slots, seconds: float, max_slots: int) -> tuple[dict, dict, list[Drive]]:
    trace_dir = RUN_DIR / f"trace-{workload.name}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    limit = min(workload.trace_slots, max_slots)

    # Traced phase: spans on both sides of the wire and in the workers.
    server = await launch(workload, trace_dir)
    traced = Drive()
    recorder = Recorder("client")
    try:
        cpu0 = server.cpu_seconds(workers=False)
        install(recorder)
        wall0 = time.perf_counter()
        try:
            await drive(server.client, slots, traced, until=wall0 + seconds / 2,
                        min_slots=1, max_slots=limit, timed=False,
                        on_slot=lambda t: setattr(recorder, "slot_hint", t))
        finally:
            wall1 = time.perf_counter()
            recorder.uninstall()
        server_cpu_main = server.cpu_seconds(workers=False) - cpu0
    finally:
        await server.close()
    recorder.write(trace_dir / "client.jsonl")

    # Untraced phase over the same slots, for the overhead and the meters.
    server = await launch(workload)
    plain = Drive()
    try:
        cpu0, wcpu0 = time.process_time(), server.worker_cpu_seconds()
        p0 = time.perf_counter()
        await drive(server.client, slots, plain, until=0.0, min_slots=traced.slots,
                    max_slots=traced.slots, timed=False)
        p1 = time.perf_counter()
        client_cpu = time.process_time() - cpu0
        worker_cpu = server.worker_cpu_seconds() - wcpu0
    finally:
        await server.close()

    S = traced.slots
    R = sum(len(r) for r in slots[:S])
    metrics = layer_metrics(trace_dir, slots=S, requests=R,
                            server_cpu_main_s=server_cpu_main)
    metrics["client.cpu_ms_per_slot"] = client_cpu * 1e3 / S
    metrics["workers.cpu_ms_per_slot"] = worker_cpu * 1e3 / S
    traced_rate = S / (wall1 - wall0)
    plain_rate = S / (p1 - p0)
    metrics["trace.slots_per_s"] = traced_rate
    metrics["trace.untraced_slots_per_s"] = plain_rate
    metrics["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    details = {"traced_slots": S, "traced_requests": R, "trace_dir": str(trace_dir)}
    return metrics, details, [traced, plain]


def report(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop slot benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-slots", type=int, default=None,
                        help="cap on driven slots (smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing", 2)
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    from workloads import WORKLOADS, generate_slots

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
    if args.seconds <= 0:
        _fail("--seconds must be > 0", 2)
    RUN_DIR.mkdir(exist_ok=True)

    if args.trace:
        n_slots = workload.trace_slots
    else:
        n_slots = WARMUP_SLOTS + max(
            workload.ratio_slots, math.ceil(workload.max_rate * args.seconds / CHUNKS)
        )
    max_slots = n_slots if args.max_slots is None else min(n_slots, args.max_slots)
    slots = generate_slots(workload, args.seed, max_slots)
    # The inputs live for the whole run: keep the collector from rescanning
    # them, so the load generator's own GC pauses stay out of the timings.
    gc.freeze()
    info = meta()
    print(f"perfbench {workload.name}: {workload.describe()}; seed {args.seed}")
    print("meta " + json.dumps(info, sort_keys=True))

    async def measure():
        from gate import Reference

        reference = Reference(workload)
        try:
            if args.trace:
                result = await run_traced(workload, slots, args.seconds, max_slots)
            else:
                result = await run_end_to_end(workload, slots, args.seconds, max_slots)
            t_gate = time.perf_counter()
            await check_outputs(workload, slots, result[2], reference)
            result[1]["gate_s"] = time.perf_counter() - t_gate
        finally:
            await reference.close()
        return result

    metrics, details, drives = asyncio.run(measure())
    units = PER_LAYER if args.trace else END_TO_END

    attempted = sum(sum(len(r) for r in d.outcomes) for d in drives)
    failed = sum(d.failed for d in drives)
    metrics["failed_ratio"] = failed / attempted
    if args.trace:
        print("per-layer metrics (traced run; overhead in trace.*):")
        report(metrics, units)
    else:
        print("end-to-end metrics:")
        report(metrics, units)
        print(f"also measured, not in the result (p99 = the "
              f"{details['slot_p99_percentile']:.4g} quantile of "
              f"{details['slot_p99_samples']} slots; {failed} of {attempted} failed):")
        report(metrics, UNGATED_END_TO_END)
    print("details " + json.dumps(details))
    (RUN_DIR / f"last-{workload.name}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "meta": info,
         "metrics": metrics, "details": details}, indent=1))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
