"""The multi-process scheduling service: shards in worker processes.

:class:`ProcessShardedService` runs the *same* tick as the in-process
:class:`~repro.service.server.SchedulingService` — it is the same
:class:`~repro.service.pipeline.TickPipeline` (queues, submission edge,
admission, commit, breakers, telemetry) — with a different shard
executor: step 3 (per-output scheduling) and the shards' channel-clock
advance run inside OS worker processes chosen by consistent-hash
placement (:mod:`repro.net.procpool`).

Because the per-output decision is a pure function of (scheme,
scheduler, stateless policy, requests, busy[]) — the paper's
decomposition — moving it across a process boundary cannot change any
grant: the slot-by-slot equivalence gate against
:class:`~repro.sim.engine.SlottedSimulator` holds bit-identically, and
``tests/test_net_equivalence.py`` enforces it, kills included.

What the parent keeps in-process: queues (requests not yet drained),
futures, dedup, admission.  What each worker owns: its shards'
``busy[]`` clocks and their write-ahead journals (its own directory).
A killed worker is respawned by the pool, rebuilds ``busy[]`` by journal
replay, and the in-flight tick is re-delivered idempotently — grants a
dead worker had already journaled are replayed from the journal, never
re-scheduled.  A worker that stays unreachable through the pool's respawn
budget (an edge↔worker partition) degrades gracefully: its shards'
requests resolve ``UNAVAILABLE`` for that tick, its breakers count the
failure, and its clocks catch up by journaled ``ADVANCE`` replay once it
heals.

Statefulness rule: a policy whose mutable state partitions by output
fiber (``state_partitioned_by_output`` — FixedPriority, RoundRobin,
WeightedFair) runs on per-worker instances and ticks fan out in
parallel, one ``run_tick`` call per worker.  A policy with *cross-output*
state (``RandomPolicy``: one RNG feeds every output's draws) runs in
**stateful mode**: the parent owns the canonical policy state and threads
it through one ``run_shard`` call per contended shard, in global fiber
order — each reply ships the post-draw state back — so the draw sequence
is bit-identical to the in-process service and the simulator, at the
price of serializing the contended shards' scheduling; one
``finish_tick`` per worker then advances the clocks.  Crash recovery
stays exact in both modes (see the ``finish_tick`` self-healing note in
:func:`repro.net.procpool.worker_main`).

The shard→worker placement is **live**: the migration engine
(:mod:`repro.service.resharding`, surfaced here as
:meth:`ProcessShardedService.migrate_shard` / :meth:`rebalance`) moves
shards between workers at tick boundaries, and
:meth:`~ProcessShardedService.add_worker` /
:meth:`~ProcessShardedService.remove_worker` grow and shrink the worker
set under the :class:`~repro.service.autoscaler.Autoscaler`.
"""

from __future__ import annotations

import asyncio
import os
from typing import TYPE_CHECKING

from repro.core.distributed import (
    GrantedRequest,
    SlotRequest,
    validate_slot_request,
)
from repro.core.policies import GrantPolicy
from repro.errors import InvalidParameterError, WorkerProcessError
from repro.net.procpool import ProcessShardPool, request_wire_tuple
from repro.service.breaker import BreakerConfig
from repro.service.edge import PendingRequest, Rejected, RejectReason, ServiceGrant
from repro.service.pipeline import ShardOutcome, TickPipeline
from repro.service.queue import OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig
from repro.service.resharding import (
    MigrationReport,
    ShardMigrator,
    ShardMove,
)
from repro.service.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import Scheduler
    from repro.faults.crashpoints import CrashPoints
    from repro.graphs.conversion import ConversionScheme

__all__ = ["ProcessShardedService"]


class ProcessShardedService(TickPipeline):
    """Sharded scheduling service with multi-process shard placement.

    The submission/tick surface is the in-process
    :class:`~repro.service.server.SchedulingService`'s (``submit_nowait``
    / ``submit`` / ``tick`` / ``run_ticks`` / ``drain`` / ``stop``), so
    the TCP front door (:class:`repro.net.server.NetServer`) serves either
    backend unchanged.
    """

    _failure_reason = RejectReason.UNAVAILABLE

    def __init__(
        self,
        n_fibers: int,
        scheme: "ConversionScheme",
        scheduler: "Scheduler",
        *,
        policy: GrantPolicy | None = None,
        n_workers: int = 2,
        journal_dir: str | os.PathLike | None = None,
        queue_capacity: int | None = None,
        overflow: OverflowPolicy = OverflowPolicy.REJECT,
        admission: "TenantAdmission | None" = None,
        max_batch_per_tick: int | None = None,
        tick_interval: float = 0.001,
        dedup_capacity: int = 0,
        rate_limit: "RateLimitConfig | None" = None,
        breaker: BreakerConfig | None = None,
        telemetry: Telemetry | None = None,
        unresponsive_timeout: float = 30.0,
    ) -> None:
        super().__init__(
            n_fibers,
            scheme,
            policy=policy,
            queue_capacity=queue_capacity,
            overflow=overflow,
            admission=admission,
            tick_interval=tick_interval,
            max_batch_per_tick=max_batch_per_tick,
            dedup_capacity=dedup_capacity,
            rate_limit=rate_limit,
            breaker=breaker,
            telemetry=telemetry,
        )
        # Cross-output policy state (RandomPolicy) → stateful mode (module
        # docstring); partitioned policies fan out in parallel.
        self._stateful = not self.policy.state_partitioned_by_output
        self._policy_state = (
            self.policy.export_state() if self._stateful else None
        )
        self.pool = ProcessShardPool(
            self.n_fibers,
            scheme,
            scheduler,
            self.policy,
            n_workers=n_workers,
            journal_dir=journal_dir,
            unresponsive_timeout=unresponsive_timeout,
            telemetry=self.telemetry,
        )
        self._migrator = ShardMigrator(self.pool, self.telemetry)

    # -- introspection -------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    @property
    def placement(self) -> dict[int, int]:
        """shard → worker-process map (consistent-hash, stable)."""
        return dict(self.pool.placement)

    def worker_busy(self, output_fiber: int) -> list[int]:
        """The owning worker process's live ``busy[]`` for one shard
        (crosses the process boundary; tests and debugging)."""
        owner = self.pool.placement[output_fiber]
        return self.pool.call(owner, "busy")[output_fiber]

    # -- submission and ticks ------------------------------------------------

    # Both entry points are defined in this class body (not inherited) so
    # the benchmark's tracer can wrap them through this class's __dict__;
    # the validation goes through this module's name for the same reason.

    def submit_nowait(
        self,
        request: SlotRequest,
        timeout: float | None = None,
        *,
        timeout_ticks: int | None = None,
        request_id: str | None = None,
    ) -> "asyncio.Future[ServiceGrant | Rejected]":
        """Enqueue ``request``; same contract as the in-process service
        (validation, wall-clock and slot deadlines, dedup, overflow
        policy)."""
        validate_slot_request(request, self.n_fibers, self.scheme.k)
        return self._enqueue(request, timeout, timeout_ticks, request_id)

    async def tick(self) -> int:
        """Run one slot tick across the worker processes; returns grants."""
        return await self._tick()

    # -- the worker-process executor (TickPipeline hook) ---------------------

    async def _run_shards(
        self, slot: int, work: dict[int, list[PendingRequest]]
    ) -> dict[int, ShardOutcome]:
        # Every *active* worker runs the tick: workers advance their owned
        # shards' channel clocks even with no requests this slot (the
        # physical clock never skips).  A call that fails through the
        # pool's respawn budget leaves its shards out of ``replies``, so
        # the pipeline resolves their requests UNAVAILABLE.
        loop = asyncio.get_running_loop()
        pool = self.pool
        replies: dict[int, tuple[list, list]] = {}
        if self._stateful:
            # A failed call leaves the canonical pre-draw state in place,
            # so the next reachable shard draws exactly what it would
            # have drawn had the unreachable shard never been contended.
            for o, pendings in work.items():
                try:
                    grants, rejected, self._policy_state = await pool.call_async(
                        loop,
                        pool.placement[o],
                        "run_shard",
                        slot,
                        o,
                        [request_wire_tuple(p.request) for p in pendings],
                        self._policy_state,
                    )
                except WorkerProcessError:
                    continue
                replies[o] = grants, rejected
            # End of tick: every active worker advances its shards,
            # carrying the tick's grants for crash self-healing.
            grants_by_worker: dict[int, dict[int, list]] = {
                w: {} for w in pool.active_workers()
            }
            for o, (grants, _rejected) in replies.items():
                grants_by_worker[pool.placement[o]][o] = grants
            calls = [
                ("finish_tick", w, grants)
                for w, grants in grants_by_worker.items()
            ]
        else:
            payloads: dict[int, list[tuple[int, list[tuple]]]] = {
                w: [] for w in pool.active_workers()
            }
            for o, pendings in work.items():
                payloads[pool.placement[o]].append(
                    (o, [request_wire_tuple(p.request) for p in pendings])
                )
            calls = [
                ("run_tick", w, payload) for w, payload in payloads.items()
            ]
        results = await asyncio.gather(
            *(pool.call_async(loop, w, op, slot, arg) for op, w, arg in calls),
            return_exceptions=True,
        )
        for (op, _w, _arg), result in zip(calls, results):
            if isinstance(result, WorkerProcessError):
                continue
            if isinstance(result, BaseException):
                raise result
            if op == "run_tick":
                for o, grants, rejected in result:
                    replies[o] = grants, rejected
        # Back to request objects: grants as (input, λ, channel, duration)
        # tuples, losers as (input, λ) pairs.
        outcomes: dict[int, ShardOutcome] = {}
        for o, (grants, rejected) in replies.items():
            by_input = {
                (p.request.input_fiber, p.request.wavelength): p.request
                for p in work[o]
            }
            outcomes[o] = (
                [
                    GrantedRequest(by_input[in_f, wl], channel)
                    for in_f, wl, channel, _duration in grants
                ],
                [by_input[pair] for pair in rejected],
            )
        return outcomes

    def _close(self) -> None:
        self.pool.stop()

    # -- live resharding / elasticity ---------------------------------------

    def active_workers(self) -> list[int]:
        """Ascending ids of workers currently accepting shards."""
        return self.pool.active_workers()

    def worker_queue_depth(self, worker_id: int) -> int:
        """Parent-side queued requests bound for ``worker_id``'s shards
        (the autoscaler's hotspot signal — no cross-process call)."""
        return sum(
            self.queues[o].depth for o in self.pool.shards_of(worker_id)
        )

    def migrate_shard(
        self,
        shard: int,
        destination: int,
        *,
        crashpoints: "CrashPoints | None" = None,
    ) -> MigrationReport:
        """Live-migrate one shard to ``destination`` at this tick boundary.

        Call between ticks (never concurrently with :meth:`tick` — the
        quiesce phase of :mod:`repro.service.resharding` is the tick
        boundary itself).  Blocks until the handoff verifies; the
        placement flip is atomic, so the next tick routes the shard to
        its new owner and redelivered grants replay from the transferred
        journal exactly once.
        """
        return self._migrator.migrate(
            shard, destination, crashpoints=crashpoints
        )

    def rebalance(
        self,
        moves: "list[ShardMove] | None" = None,
        *,
        target: dict[int, int] | None = None,
        crashpoints: "CrashPoints | None" = None,
    ) -> list[MigrationReport]:
        """Run many migrations, planned into conflict-free waves.

        Pass explicit ``moves`` or a ``target`` placement (the engine
        diffs it against the live map).  Same tick-boundary contract as
        :meth:`migrate_shard`.
        """
        if (moves is None) == (target is None):
            raise InvalidParameterError(
                "pass exactly one of moves= or target="
            )
        if target is not None:
            moves = self._migrator.moves_to(target)
        return self._migrator.execute(moves, crashpoints=crashpoints)

    def add_worker(self) -> int:
        """Spawn a fresh, empty worker process; returns its id."""
        return self.pool.add_worker()

    def remove_worker(
        self, worker_id: int, *, drain: bool = True
    ) -> list[MigrationReport]:
        """Retire a worker; with ``drain`` (default) its shards are first
        live-migrated to the remaining active workers, least-loaded
        first (deterministic).  Returns the drain's migration reports."""
        reports: list[MigrationReport] = []
        if drain:
            owned = self.pool.shards_of(worker_id)
            others = [
                w for w in self.pool.active_workers() if w != worker_id
            ]
            if owned and not others:
                raise InvalidParameterError(
                    "cannot drain the last active worker"
                )
            load = {w: len(self.pool.shards_of(w)) for w in others}
            moves = []
            for o in owned:
                dest = min(others, key=lambda w: (load[w], w))
                load[dest] += 1
                moves.append(
                    ShardMove(shard=o, source=worker_id, destination=dest)
                )
            reports = self._migrator.execute(moves)
        self.pool.remove_worker(worker_id)
        return reports

    # -- chaos (tests) -------------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker process; the next tick respawns and recovers
        it from its journals (needs ``journal_dir`` for kill durability)."""
        self.pool.kill_worker(worker_id)

