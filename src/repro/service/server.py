"""The in-process scheduling service: shards on the event loop.

:class:`SchedulingService` turns the paper's per-slot batch schedulers into
a long-running online service.  Callers submit
:class:`~repro.core.distributed.SlotRequest`\\ s at any time; the server
batches everything enqueued since the last tick into one *slot tick* —
the service-side analogue of the simulator's synchronous time slot — and
resolves each request's future with a :class:`ServiceGrant` or
:class:`Rejected`.

The tick itself — drain, admission, commit, advance — is the shared
:class:`~repro.service.pipeline.TickPipeline`.  This module is its
local-shard executor: one :class:`~repro.service.shard.ShardWorker` per
output fiber, scheduled in ascending fiber order on the event loop (so a
tick never suspends), plus what only an in-process backend has — injected
faults, the crash supervisor, and the write-ahead journal and snapshots
the service keeps for its shards.  A shard whose scheduler raises is a
crashed shard: its requests resolve ``SHARD_DOWN`` and the supervisor
restarts it.

Drive ticks yourself (:meth:`SchedulingService.tick`,
:meth:`~SchedulingService.run_ticks` — deterministic, used by tests) or let
:meth:`~SchedulingService.start` run them on a wall-clock interval.
"""

from __future__ import annotations

import asyncio

from repro.core.base import Scheduler
# distribute_grants is unused here but stays importable from this module:
# the benchmark's tracer (perfbench/tracing.py) wraps it under this name.
from repro.core.distributed import (  # noqa: F401
    SlotRequest,
    distribute_grants,
    validate_slot_request,
)
from repro.core.policies import GrantPolicy
from repro.errors import DurabilityError, InvalidParameterError, ShardDownError
from repro.faults import (
    ChannelOutage,
    ConverterDegradation,
    FaultInjector,
    FaultPlan,
    as_injector,
)
from repro.graphs.conversion import ConversionScheme
from repro.service.breaker import BreakerConfig
from repro.service.durability import (
    DurabilityConfig,
    DurabilityManager,
    RecoveredShardState,
)
from repro.service.edge import PendingRequest, Rejected, RejectReason, ServiceGrant
from repro.service.journal import FAULT_CRASH, FAULT_OUTAGE, request_tuple
from repro.service.pipeline import ShardOutcome, TickPipeline
from repro.service.queue import OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig
from repro.service.shard import ShardWorker
from repro.service.supervisor import ShardSupervisor, SupervisorConfig
from repro.service.telemetry import Telemetry, exponential_buckets
from repro.util.validation import check_positive_int

__all__ = [
    "RejectReason",
    "ServiceGrant",
    "Rejected",
    "SchedulingService",
]


#: Occupancy buckets: 1 … 2^19 busy channels.
_OCCUPANCY_BUCKETS = exponential_buckets(1.0, 2.0, 20)


class SchedulingService(TickPipeline):
    """Sharded online scheduling service for an ``N × N`` interconnect.

    Parameters
    ----------
    n_fibers, scheme:
        Interconnect dimensions (``N`` shards, ``k`` wavelengths each).
    scheduler:
        Per-output contention-resolution algorithm, shared by all shards
        (every in-tree scheduler is stateless).
    policy:
        Grant policy among same-wavelength contenders (default:
        deterministic :class:`FixedPriorityPolicy`).
    queue_capacity, overflow, admission:
        Per-shard bounded-queue settings (``None`` = unbounded).
        ``admission`` is the per-tenant weight contract consulted by the
        ``SHED`` overflow policy (ignored otherwise; defaults to
        equal-weight tenants).
    tick_interval:
        Sleep between tick bursts in :meth:`start`'s timer loop, seconds.
    max_batch_per_tick:
        Cap on requests drained per shard per tick (``None`` = all).
    tick_window:
        Ticks :meth:`tick_burst` (and so :meth:`start`'s timer loop) may
        run back to back per event-loop iteration: the first tick always
        runs, and the burst continues — up to ``tick_window`` ticks —
        only while shard queues are non-empty, amortizing per-iteration
        overhead exactly when the service is behind.  Within a burst,
        idle shards' ``ADVANCE`` journal records are deferred and
        coalesced into one batched record
        (:meth:`~repro.service.journal.ShardJournal.defer_advance`);
        any non-idle event on a shard flushes its run first, so grant
        ordering and recovery are unchanged.  Default 1 — every tick is
        its own iteration, the pre-window behavior.
    telemetry:
        Optional shared :class:`Telemetry` registry (default: private).
    faults:
        Optional :class:`~repro.faults.FaultPlan` / shared injector.
        Channel outages darken shard channels, converter degradations
        narrow the affected inputs' schemes, and shard crashes kill the
        owning worker at the scheduled tick (the supervisor restarts it;
        see ``docs/ROBUSTNESS.md``).
    breaker:
        Optional :class:`~repro.service.breaker.BreakerConfig`; when given,
        every shard gets a circuit breaker and submissions to a tripped
        shard fast-fail as ``CIRCUIT_OPEN``.
    supervisor:
        :class:`~repro.service.supervisor.SupervisorConfig` tuning for
        crash detection/restart (a supervisor always runs; this only
        changes its timing).
    durability:
        ``True`` (default) — per-shard write-ahead journal + periodic
        snapshots with the default in-memory backend, exact
        snapshot+journal recovery on restart, and a bounded request-id
        dedup table for exactly-once grants.  Pass a
        :class:`~repro.service.durability.DurabilityConfig` to tune
        (snapshot cadence, file backend, fsync, dedup capacity) or
        ``False``/``None`` to disable, which falls back to the PR 4 aged
        checkpoints.  See ``docs/ROBUSTNESS.md``, "Durability & recovery".
    rate_limit:
        Optional :class:`~repro.service.ratelimit.RateLimitConfig`; when
        given, every submission spends a token from its tenant's bucket
        and an empty bucket resolves the request ``RATE_LIMITED`` at the
        edge (never queued).  Buckets refill at each tick, so limiting is
        deterministic — no clocks (``docs/SERVICE.md``).
    """

    _failure_reason = RejectReason.SHARD_DOWN

    def __init__(
        self,
        n_fibers: int,
        scheme: ConversionScheme,
        scheduler: Scheduler,
        *,
        policy: GrantPolicy | None = None,
        queue_capacity: int | None = None,
        overflow: OverflowPolicy = OverflowPolicy.REJECT,
        admission: TenantAdmission | None = None,
        tick_interval: float = 0.001,
        max_batch_per_tick: int | None = None,
        tick_window: int = 1,
        telemetry: Telemetry | None = None,
        faults: "FaultInjector | FaultPlan | None" = None,
        breaker: BreakerConfig | None = None,
        supervisor: SupervisorConfig | None = None,
        durability: "DurabilityConfig | bool | None" = True,
        rate_limit: "RateLimitConfig | None" = None,
    ) -> None:
        if durability is True:
            durability = DurabilityConfig()
        elif durability is False:
            durability = None
        if durability is not None and not isinstance(durability, DurabilityConfig):
            raise InvalidParameterError(
                "durability must be a DurabilityConfig, True, False, or "
                f"None, got {durability!r}"
            )
        super().__init__(
            n_fibers,
            scheme,
            policy=policy,
            queue_capacity=queue_capacity,
            overflow=overflow,
            admission=admission,
            tick_interval=tick_interval,
            max_batch_per_tick=max_batch_per_tick,
            dedup_capacity=(
                durability.dedup_capacity if durability is not None else 0
            ),
            rate_limit=rate_limit,
            breaker=breaker,
            telemetry=telemetry,
        )
        self.tick_window = check_positive_int(tick_window, "tick_window")
        # True while tick_burst() has a window open: idle-shard ADVANCEs
        # are deferred for coalescing instead of journaled per tick.
        self._window_open = False
        self.scheduler = scheduler
        self._faults = as_injector(faults, self.n_fibers, scheme.k)
        self._degradations: "dict[int, tuple[int, int]] | None" = None
        self.supervisor = ShardSupervisor(supervisor, self.telemetry)
        self.shards = [self._spawn_worker(o) for o in range(self.n_fibers)]
        self.durability: DurabilityManager | None = (
            DurabilityManager(
                durability, self.n_fibers, scheme.k, self.telemetry
            )
            if durability is not None
            else None
        )
        if self.durability is not None:
            self._journals = [
                self.durability.journal(o) for o in range(self.n_fibers)
            ]

        t = self.telemetry
        self._c_shard_crashes = t.counter("server.shard_crashes")
        self._c_fault_outages = t.counter("faults.outages")
        self._c_fault_degradations = t.counter("faults.degradations")
        self._c_fault_crashes = t.counter("faults.crashes")
        self._g_dark = t.gauge("faults.dark_channels")
        self._h_occupancy = t.histogram("server.occupancy_channels", _OCCUPANCY_BUCKETS)

    # Both entry points are defined in this class body (not inherited) so
    # the benchmark's tracer can wrap them through SchedulingService's
    # __dict__; the validation goes through this module's name for the
    # same reason.

    def submit_nowait(
        self,
        request: SlotRequest,
        timeout: float | None = None,
        *,
        timeout_ticks: int | None = None,
        request_id: str | None = None,
    ) -> "asyncio.Future[ServiceGrant | Rejected]":
        """Enqueue ``request`` and return the future of its outcome.

        Must be called from the event loop.  ``timeout`` (seconds) is a
        deadline checked at tick time — a request that no tick has drained
        before the deadline resolves as ``TIMED_OUT``.  ``timeout_ticks``
        is the deterministic flavor: the request expires when a tick
        drains it at ``slot >= submit slot + timeout_ticks`` (so ``0``
        expires at the very next drain).  The two may be combined;
        whichever trips first wins.  Malformed requests
        raise :class:`InvalidParameterError` immediately; overflow of a
        bounded queue resolves the future per the shard's overflow policy.

        ``request_id`` is the caller's idempotency key (ignored when the
        dedup table is disabled).  Resubmitting an id whose original was
        *granted* replays that grant; resubmitting while the original is
        still in flight resolves ``DUPLICATE``.  A rejected original
        releases its id, so the retry is a fresh attempt.  Either way at
        most one copy of the request is ever scheduled — the exactly-once
        half of the retry story (``docs/SERVICE.md``).
        """
        validate_slot_request(request, self.n_fibers, self.scheme.k)
        return self._enqueue(request, timeout, timeout_ticks, request_id)

    async def tick(self) -> int:
        """Run one slot tick; returns the number of grants issued."""
        return await self._tick()

    # -- the local-shard executor (TickPipeline hooks) -----------------------

    def _shard_failed(self, output_fiber: int) -> bool:
        return self.shards[output_fiber].down

    def _begin_tick(self, slot: int) -> None:
        self._degradations = self._apply_faults(slot)

    async def _run_shards(
        self, slot: int, work: dict[int, list[PendingRequest]]
    ) -> dict[int, ShardOutcome]:
        # Shards in fiber order on the event loop.  A shard whose scheduler
        # raises is a crashed shard (ShardDownError, original defect on the
        # chain): it is left out of the result, and the other shards'
        # grants still commit.
        outcomes: dict[int, ShardOutcome] = {}
        for o, pendings in work.items():
            shard = self.shards[o]
            try:
                _, granted, rejected = shard.schedule(
                    [p.request for p in pendings], self._degradations
                )
            except ShardDownError as exc:
                self._crash_shard(shard, slot, exc)
                continue
            if self.durability is not None and granted:
                # Write-ahead: journal the tick's grants (one batched
                # record) before committing any of them.
                self.durability.journal(o).grant_batch(
                    slot,
                    (
                        (
                            g.request.input_fiber,
                            g.request.wavelength,
                            g.channel,
                            g.request.duration,
                        )
                        for g in granted
                    ),
                )
            shard.commit(granted)
            outcomes[o] = granted, rejected
        return outcomes

    def _end_tick(self, slot: int) -> None:
        self._h_occupancy.observe(sum(s.occupancy for s in self.shards))
        for shard in self.shards:
            if self.durability is not None:
                # The connections busy[] tracks live in the interconnect,
                # so the physical clock advances for down shards too —
                # this is what makes recovery pure replay with no aging.
                journal = self.durability.journal(shard.output_fiber)
                if self._window_open:
                    journal.defer_advance(slot)
                else:
                    journal.advance(slot)
            if not shard.down:
                shard.advance()
                if self.durability is None:
                    self.supervisor.note_checkpoint(
                        shard.output_fiber, slot + 1, shard.busy_snapshot()
                    )
        if self.durability is not None and self.durability.due_snapshot(
            slot + 1
        ):
            policy_state = self.policy.export_state()
            for shard in self.shards:
                if shard.down:
                    continue
                self.durability.take_snapshot(
                    shard.output_fiber,
                    slot + 1,
                    shard.busy_snapshot(),
                    (request_tuple(p.request) for p in shard.queue),
                    policy_state,
                )

    def _close(self) -> None:
        if self.durability is not None:
            self.durability.close()

    # -- crash / restart ----------------------------------------------------

    def _crash_shard(
        self, shard: ShardWorker, slot: int, cause: BaseException | None
    ) -> None:
        """A shard died (injected or organic): record it, trip its breaker,
        fail its queued requests fast with ``SHARD_DOWN``."""
        if not shard.down:
            shard.crash(cause)
        o = shard.output_fiber
        self.supervisor.record_crash(o, slot)
        self._c_shard_crashes.inc()
        if self.breakers is not None:
            self.breakers[o].force_open(slot)
        if self.durability is not None:
            journal = self.durability.journal(o)
            journal.fault(slot, FAULT_CRASH)
            if shard.queue.depth:
                journal.dequeue(slot, shard.queue.depth)
        for p in shard.queue.drain():
            self.edge.resolve_rejected(p, RejectReason.SHARD_DOWN, slot)
        self._shard_depth[o].set(0)

    def _spawn_worker(self, output_fiber: int) -> ShardWorker:
        return ShardWorker(
            output_fiber,
            self.scheme,
            self.scheduler,
            self.policy,
            self.queues[output_fiber],
            self.telemetry,
        )

    def _restart_shard(self, output_fiber: int, slot: int) -> None:
        """Spawn a replacement worker (the queue object survives the worker
        — it lives in the server, like a socket outliving the process
        behind it), restored from snapshot+journal replay when durability
        is on, else from the supervisor's aged checkpoint."""
        old = self.shards[output_fiber]
        worker = self._spawn_worker(output_fiber)
        if self.durability is not None:
            state = self._recovered_state(output_fiber, old)
            worker.restore(list(state.busy))
            source = state.source
        else:
            worker.restore(
                self.supervisor.restore_busy(output_fiber, slot, self.scheme.k)
            )
            source = "checkpoint"
        self.shards[output_fiber] = worker
        self.supervisor.mark_restarted(output_fiber, source=source)

    def _recovered_state(
        self, output_fiber: int, old: ShardWorker
    ) -> RecoveredShardState:
        """Run durable recovery and cross-check it against the surviving
        live queue — a disagreement is a crash-consistency defect, not a
        degraded mode, so it raises."""
        assert self.durability is not None
        state = self.durability.recover(output_fiber)
        live = tuple(request_tuple(p.request) for p in old.queue)
        if live != state.queue:
            raise DurabilityError(
                f"shard {output_fiber}: journal-recovered queue "
                f"{state.queue} disagrees with the live queue {live}"
            )
        return state

    def recover_shard(self, output_fiber: int) -> RecoveredShardState:
        """Immediately rebuild one shard from durable state.

        Loads the latest valid snapshot, deterministically replays the
        journal suffix, installs a fresh worker with the rebuilt ``busy[]``
        over the surviving queue, and returns what was recovered.  This is
        the recovery path the kill-at-every-tick equivalence test drives
        directly (the supervisor's delayed ``_restart_shard`` uses the
        same replay); call it at a tick boundary.
        """
        if self.durability is None:
            raise InvalidParameterError(
                "recover_shard needs the service built with durability on"
            )
        old = self.shards[output_fiber]
        state = self._recovered_state(output_fiber, old)
        worker = self._spawn_worker(output_fiber)
        worker.restore(list(state.busy))
        self.shards[output_fiber] = worker
        self.supervisor.mark_restarted(output_fiber, source=state.source)
        return state

    def _apply_faults(self, slot: int) -> "dict[int, tuple[int, int]] | None":
        """Step 0 of a tick: heal due restarts, then apply this slot's
        injected faults.  Returns the active converter degradations."""
        for o in self.supervisor.due_for_restart(slot):
            self._restart_shard(o, slot)
        if self._faults is None:
            return None
        for ev in self._faults.starting_at(slot):
            if isinstance(ev, ChannelOutage):
                self._c_fault_outages.inc()
                if self.durability is not None:
                    # Audit-only record (no replay effect): the fault plan
                    # is re-derivable from its seed, but the journal should
                    # tell the whole story of what hit this shard.
                    self.durability.journal(ev.fiber).fault(
                        slot, FAULT_OUTAGE, ev.wavelength, ev.duration
                    )
            elif isinstance(ev, ConverterDegradation):
                self._c_fault_degradations.inc()
            else:
                self._c_fault_crashes.inc()
        for ev in self._faults.crashes_at(slot):
            self._crash_shard(self.shards[ev.fiber], slot, None)
        mask = self._faults.dark_mask(slot)
        any_dark = bool(mask.any())
        self._g_dark.set(int(mask.sum()))
        for shard in self.shards:
            shard.set_dark(mask[shard.output_fiber] if any_dark else None)
        return self._faults.degradations_at(slot) or None

    # -- bursts (in-process only) ---------------------------------------------

    async def tick_burst(self) -> int:
        """Run one burst of up to ``tick_window`` ticks; returns grants.

        The first tick always runs; the burst continues only while shard
        queues hold work, so an idle service still ticks exactly once per
        timer iteration and a backlogged one catches up ``tick_window``
        slots at a time.  While the window is open, idle shards'
        ``ADVANCE`` records are deferred; the burst ends by flushing every
        shard's run, so the journals are always fully written between
        bursts (a crash *inside* a burst loses at most the open window's
        pure clock advances — see
        :meth:`~repro.service.journal.ShardJournal.defer_advance`).
        """
        self._window_open = self.tick_window > 1
        try:
            granted = await self.tick()
            ticks = 1
            while ticks < self.tick_window and self.queue_depth_total > 0:
                granted += await self.tick()
                ticks += 1
        finally:
            self._window_open = False
            if self.durability is not None:
                for shard in self.shards:
                    self.durability.journal(shard.output_fiber).flush_deferred()
        return granted

    async def _timer_loop(self) -> None:
        while True:
            await self.tick_burst()
            await asyncio.sleep(self.tick_interval)
