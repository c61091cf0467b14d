"""Workload definitions and seeded input generation for the slot benchmark.

A workload fixes the interconnect (``N`` fibers, ``k`` wavelengths, the
conversion scheme and scheduler), the backend behind the TCP server, and
the traffic: every input channel ``(fiber, wavelength)`` independently
emits one request per slot with probability ``p_arrival``, to a uniformly
drawn output fiber, holding it for a geometric number of slots with mean
``mean_duration`` (1 = single-slot).  Inputs are a pure function of
``(workload, seed)`` and are generated before any timing starts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.graphs.conversion import CircularConversion, NonCircularConversion
from repro.net.procservice import ProcessShardedService
from repro.service import SchedulingService
from repro.sim.duration import GeometricDuration
from repro.sim.traffic import BernoulliTraffic

__all__ = ["Workload", "WORKLOADS", "generate_slots", "build_service"]


@dataclass(frozen=True)
class Workload:
    name: str
    n_fibers: int
    k: int
    circular: bool
    e: int
    f: int
    p_arrival: float
    #: Mean of the geometric hold, in slots (1 = single-slot).
    mean_duration: float
    #: 0 = in-process ``SchedulingService``; >= 1 = ``ProcessShardedService``
    #: with that many worker processes and file-backed worker journals.
    workers: int
    #: ``grant_ratio`` is taken over this fixed slot prefix, so it is a
    #: pure function of the seed; every run completes at least these slots.
    ratio_slots: int
    #: Upper bound on slots/s used to size the pre-generated input; a run
    #: that exhausts its inputs ends early (and says so).
    max_rate: int
    #: Slot cap of the traced phase (keeps the in-memory span list small).
    trace_slots: int
    why: str

    @property
    def algorithm(self) -> str:
        return "BFA" if self.circular else "FA"

    def scheme(self):
        cls = CircularConversion if self.circular else NonCircularConversion
        return cls(self.k, self.e, self.f)

    def scheduler(self):
        if self.circular:
            return BreakFirstAvailableScheduler()
        return FirstAvailableScheduler()

    def describe(self) -> str:
        kind = "circular" if self.circular else "non-circular"
        backend = (
            "in-process SchedulingService"
            if self.workers == 0
            else f"ProcessShardedService, {self.workers} workers, file journals"
        )
        return (
            f"N={self.n_fibers} k={self.k} {kind} e={self.e} f={self.f} "
            f"{self.algorithm} p={self.p_arrival} "
            f"mean_duration={self.mean_duration} ({backend})"
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense-bfa",
            n_fibers=16,
            k=16,
            circular=True,
            e=1,
            f=1,
            p_arrival=0.8,
            mean_duration=1,
            workers=0,
            ratio_slots=150,
            max_rate=300,
            trace_slots=120,
            why=(
                "N=16 k=16 circular e=f=1 BFA p=0.8 single-slot in-process: "
                "full contention, ~205 req/slot, per-request path dominates, "
                "memo cache bypassed, no IPC"
            ),
        ),
        Workload(
            name="sparse-fa",
            n_fibers=32,
            k=8,
            circular=False,
            e=1,
            f=1,
            p_arrival=0.1,
            mean_duration=1,
            workers=0,
            ratio_slots=600,
            max_rate=1500,
            trace_slots=600,
            why=(
                "N=32 k=8 non-circular e=f=1 FA p=0.1 single-slot in-process: "
                "~26 req/slot, fixed per-tick cost of 32 shards dominates, "
                "memo cache hit ~0.9"
            ),
        ),
        Workload(
            name="multislot-2proc",
            n_fibers=16,
            k=16,
            circular=True,
            e=1,
            f=1,
            p_arrival=0.2,
            mean_duration=4,
            workers=2,
            ratio_slots=400,
            max_rate=1000,
            trace_slots=400,
            why=(
                "N=16 k=16 circular e=f=1 BFA p=0.2 geometric mean-4 holds, "
                "2 worker processes with file journals: worker IPC, disk "
                "journals, busy[] and SOURCE_BLOCKED"
            ),
        ),
    )
}


def generate_slots(
    workload: Workload, seed: int, n_slots: int
) -> list[list[SlotRequest]]:
    """The first ``n_slots`` slots of ``workload``'s input under ``seed``.

    Draws slot by slot from the simulator's ``BernoulliTraffic`` (uniform
    destinations, geometric holds), so the stream is prefix-stable: the
    first ``m`` slots do not depend on ``n_slots``.  Requests of one slot
    are in input-channel order; a channel emits at most one per slot.
    """
    traffic = BernoulliTraffic(
        workload.n_fibers,
        workload.k,
        workload.p_arrival,
        durations=GeometricDuration(workload.mean_duration),
    )
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    slots: list[list[SlotRequest]] = []
    for t in range(n_slots):
        batch = traffic.arrivals_batch(t, rng)
        slots.append([
            SlotRequest(f, w, o, d)
            for f, w, o, d in zip(
                batch.input_fiber.tolist(), batch.wavelength.tolist(),
                batch.output_fiber.tolist(), batch.duration.tolist(),
            )
        ])
    return slots


def build_service(workload: Workload, journal_dir: str | None = None):
    """The backend the workload serves: in-process, or process-sharded
    with file journals under ``journal_dir``."""
    if workload.workers == 0:
        return SchedulingService(
            workload.n_fibers, workload.scheme(), workload.scheduler()
        )
    return ProcessShardedService(
        workload.n_fibers,
        workload.scheme(),
        workload.scheduler(),
        n_workers=workload.workers,
        journal_dir=journal_dir,
    )
