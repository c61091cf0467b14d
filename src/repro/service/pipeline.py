"""The slot-tick pipeline both scheduling services run.

:class:`TickPipeline` is the base of the in-process
:class:`~repro.service.server.SchedulingService` and the multi-process
:class:`~repro.net.procservice.ProcessShardedService`.  Everything above
the shards lives here, once: the per-shard bounded queues, the
:class:`~repro.service.edge.SubmissionEdge` (futures, dedup, reject
counters), blocked-at-source admission
(:class:`~repro.service.tickloop.InputAdmission`), the circuit breakers,
the rate limiter, the slot clock and the ``server.*`` /
``shard.{o}.offered|granted|rejected|queue_depth`` telemetry.

One tick does, in order (mirroring ``SlottedSimulator.step`` exactly, which
is what the equivalence tests rely on):

1. **Drain** each shard's queue, FIFO, in ascending output-fiber order
   (optionally capped at ``max_batch_per_tick``).
2. **Admission**: expire requests past their deadline (``TIMED_OUT``, a
   breaker failure: the shard was too slow) and requests whose input
   channel is still held by an earlier multi-slot grant or by an earlier
   request in this tick (``SOURCE_BLOCKED`` — one laser, one signal).
3. **Run the shards**: the backend's shard executor schedules every
   shard's survivors and commits its grants to the shard's channel state.
4. **Commit**: hold each granted input for the connection's duration,
   resolve every future (grant, ``CONTENTION``, or the backend's failure
   reason for a shard that could not answer) and feed the breakers.
5. **Advance** the input-side clock, refill the rate limiter, bump the
   slot and record the tick.

The shard executor is the part that differs between the services.  A
subclass provides it as five hooks, each called once per tick (or once
per submission for :meth:`_shard_failed`), never once per request in the
tick:

* :meth:`_run_shards` — step 3 (required);
* :meth:`_begin_tick` / :meth:`_end_tick` — backend work before step 1
  and before step 5 (faults and restarts; shard clocks, journals and
  snapshots);
* :meth:`_shard_failed` and :attr:`_failure_reason` — a shard known to
  be unable to answer, refused at submit time, and the reason its
  requests resolve with;
* :meth:`_close` — release the backend at :meth:`stop`.

A backend that journals queue effects (write-ahead) sets ``_journals``
to one :class:`~repro.service.journal.ShardJournal` per shard; the
pipeline then journals every accept, eviction and dequeue before applying
it.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING

from repro.core.distributed import GrantedRequest, SlotRequest
from repro.core.policies import FixedPriorityPolicy, GrantPolicy
from repro.errors import InvalidParameterError, SimulationError
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.edge import (
    PendingRequest,
    Rejected,
    RejectReason,
    ServiceGrant,
    SubmissionEdge,
)
from repro.service.queue import BoundedQueue, OverflowPolicy, TenantAdmission
from repro.service.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.service.telemetry import Telemetry, exponential_buckets
from repro.service.tickloop import InputAdmission
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.conversion import ConversionScheme
    from repro.service.journal import ShardJournal

__all__ = ["ShardOutcome", "TickPipeline"]

#: One shard's answer for a tick: its grants and its contention losers.
ShardOutcome = tuple[list[GrantedRequest], list[SlotRequest]]

#: Tick-duration buckets: 10 µs … ~40 s.
_TICK_BUCKETS = exponential_buckets(10e-6, 2.0, 22)


class TickPipeline:
    """Queues, submission edge and the five-step slot tick (module
    docstring); subclasses supply the shard executor.

    Each subclass also defines ``submit_nowait`` (validate, then
    :meth:`_enqueue`) and ``tick`` (:meth:`_tick`) in its own class body:
    the benchmark's tracer (``perfbench/tracing.py``) wraps both through
    the class ``__dict__`` and the validation through the service
    module's ``validate_slot_request``.
    """

    #: Reject reason for the requests of a shard that could not answer.
    _failure_reason: RejectReason

    def __init__(
        self,
        n_fibers: int,
        scheme: "ConversionScheme",
        *,
        policy: GrantPolicy | None,
        queue_capacity: int | None,
        overflow: OverflowPolicy,
        admission: TenantAdmission | None,
        tick_interval: float,
        max_batch_per_tick: int | None,
        dedup_capacity: int,
        rate_limit: RateLimitConfig | None,
        breaker: BreakerConfig | None,
        telemetry: Telemetry | None,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        self.scheme = scheme
        self.policy = policy if policy is not None else FixedPriorityPolicy()
        if tick_interval < 0:
            raise InvalidParameterError(
                f"tick_interval must be >= 0, got {tick_interval}"
            )
        if max_batch_per_tick is not None:
            check_positive_int(max_batch_per_tick, "max_batch_per_tick")
        self.tick_interval = float(tick_interval)
        self.max_batch_per_tick = max_batch_per_tick
        self.telemetry = t = telemetry if telemetry is not None else Telemetry()
        self.edge = SubmissionEdge(t, dedup_capacity=dedup_capacity)
        self.queues = [
            BoundedQueue(queue_capacity, overflow, admission)
            for _ in range(self.n_fibers)
        ]
        self.breakers: list[CircuitBreaker] | None = (
            [
                CircuitBreaker(breaker, t, shard=o)
                for o in range(self.n_fibers)
            ]
            if breaker is not None
            else None
        )
        self.rate_limiter: TokenBucketLimiter | None = (
            TokenBucketLimiter(rate_limit, t) if rate_limit is not None else None
        )
        self._admission = InputAdmission(self.n_fibers, scheme.k)
        self._journals: "list[ShardJournal] | None" = None
        self._slot = 0
        self._closed = False
        self._timer_task: asyncio.Task[None] | None = None

        shards = range(self.n_fibers)
        self._shard_offered = [t.counter(f"shard.{o}.offered") for o in shards]
        self._shard_granted = [t.counter(f"shard.{o}.granted") for o in shards]
        self._shard_rejected = [t.counter(f"shard.{o}.rejected") for o in shards]
        self._shard_depth = [t.gauge(f"shard.{o}.queue_depth") for o in shards]
        self._c_ticks = t.counter("server.ticks")
        self._h_latency = t.histogram("server.grant_latency_seconds")
        self._h_tick = t.histogram("server.tick_seconds", _TICK_BUCKETS)
        self._g_slot = t.gauge("server.slot")
        self._g_depth = t.gauge("server.queue_depth_total")

    # -- shard executor hooks ------------------------------------------------

    async def _run_shards(
        self, slot: int, work: dict[int, list[PendingRequest]]
    ) -> dict[int, ShardOutcome]:
        """Step 3: schedule and commit each shard in ``work`` (fiber order).
        A shard missing from the result could not answer (crashed,
        unreachable); its requests resolve with :attr:`_failure_reason`."""
        raise NotImplementedError

    def _begin_tick(self, slot: int) -> None:
        """Backend work before the drain (default: none)."""

    def _end_tick(self, slot: int) -> None:
        """Backend work after the commit, before the slot advances
        (default: none)."""

    def _shard_failed(self, output_fiber: int) -> bool:
        """True when the shard is known, at submit time, to be unable to
        answer (default: never)."""
        return False

    def _close(self) -> None:
        """Release the backend; called once, by :meth:`stop`."""

    # -- submission ----------------------------------------------------------

    @property
    def slot(self) -> int:
        """Index of the next slot tick."""
        return self._slot

    @property
    def queue_depth_total(self) -> int:
        return sum(q.depth for q in self.queues)

    def _enqueue(
        self,
        request: SlotRequest,
        timeout: float | None,
        timeout_ticks: int | None,
        request_id: str | None,
    ) -> "asyncio.Future[ServiceGrant | Rejected]":
        """The body of ``submit_nowait`` for an already validated request
        (each service validates with its own module's
        ``validate_slot_request``, then calls this)."""
        if self._closed:
            raise SimulationError("service is stopped")
        if timeout is not None and timeout < 0:
            raise InvalidParameterError(f"timeout must be >= 0, got {timeout}")
        if timeout_ticks is not None and timeout_ticks < 0:
            raise InvalidParameterError(
                f"timeout_ticks must be >= 0, got {timeout_ticks}"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future[ServiceGrant | Rejected] = loop.create_future()
        deadline = None if timeout is None else loop.time() + timeout
        deadline_slot = (
            None if timeout_ticks is None else self._slot + timeout_ticks
        )
        if request_id is not None:
            request_id = self.edge.check_duplicate(
                request, request_id, future, self._slot
            )
            if future.done():
                return future
        pending = PendingRequest(
            request,
            future,
            deadline,
            time.perf_counter(),
            request_id,
            deadline_slot,
        )
        self.edge.note_submitted(request)
        # Submit-time rejects carry no slot: no tick turned them away.
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            request.tenant
        ):
            self.edge.resolve_rejected(pending, RejectReason.RATE_LIMITED)
            return future
        o = request.output_fiber
        breaker = self.breakers[o] if self.breakers is not None else None
        # An open breaker short-circuits for free (not a shard failure —
        # the shard never saw the request); a failed shard is a failure
        # the breaker counts, which is what eventually trips it.
        if breaker is not None and not breaker.allow(self._slot):
            self.edge.resolve_rejected(pending, RejectReason.CIRCUIT_OPEN)
            return future
        if self._shard_failed(o):
            if breaker is not None:
                breaker.record_failure(self._slot)
            self.edge.resolve_rejected(pending, self._failure_reason)
            return future
        self._shard_offered[o].inc()
        queue = self.queues[o]
        shed = queue.policy is OverflowPolicy.SHED
        if self._journals is not None:
            # Write-ahead: journal the queue effect before applying it.
            journal = self._journals[o]
            if shed:
                decision = queue.plan_admit(pending)
                if decision.evict_index is not None:
                    journal.evict(self._slot, decision.evict_index)
                if decision.accepted:
                    journal.accept(self._slot, request)
            else:
                will_accept, will_evict = queue.plan_offer()
                if will_evict:
                    journal.dequeue(self._slot, 1)
                if will_accept:
                    journal.accept(self._slot, request)
        offer = queue.offer(pending)
        if offer.evicted is not None:
            # DROP_OLDEST: the head made room; SHED: the least-deserving
            # request made room.  Either way the victim is lost.
            self.edge.resolve_rejected(
                offer.evicted,
                RejectReason.ADMISSION_SHED if shed else RejectReason.DROPPED,
            )
        if not offer.accepted:
            if shed:
                reason = RejectReason.ADMISSION_SHED
            elif queue.policy is OverflowPolicy.REJECT:
                reason = RejectReason.QUEUE_FULL
            else:
                reason = RejectReason.DROPPED
            self.edge.resolve_rejected(pending, reason)
        self._shard_depth[o].set(queue.depth)
        return future

    async def submit(
        self, request: SlotRequest, timeout: float | None = None
    ) -> ServiceGrant | Rejected:
        """Enqueue ``request`` and await its grant/rejection."""
        return await self.submit_nowait(request, timeout)

    # -- one slot tick -------------------------------------------------------

    async def _tick(self) -> int:
        """Run one slot tick (module docstring); returns grants issued."""
        if self._closed:
            raise SimulationError("service is stopped")
        t0 = time.perf_counter()
        now = asyncio.get_running_loop().time()
        slot = self._slot
        self._begin_tick(slot)

        # 1 + 2: drain and admission, shards in fiber order.
        cap = self.max_batch_per_tick
        work: dict[int, list[PendingRequest]] = {}
        seen_inputs = self._admission.begin_tick()
        for o, queue in enumerate(self.queues):
            if self._journals is not None and queue.depth:
                self._journals[o].dequeue(
                    slot, queue.depth if cap is None else min(queue.depth, cap)
                )
            survivors, expired, blocked = self._admission.admit(
                queue.drain(cap), now, seen_inputs, slot
            )
            self._shard_depth[o].set(queue.depth)
            for p in expired:
                self.edge.resolve_rejected(p, RejectReason.TIMED_OUT, slot)
                if self.breakers is not None:
                    self.breakers[o].record_failure(slot)
            for p in blocked:
                self.edge.resolve_rejected(p, RejectReason.SOURCE_BLOCKED, slot)
            if survivors:
                work[o] = survivors

        # 3: the shard executor.
        outcomes = await self._run_shards(slot, work)

        # 4: commit in fiber order.
        n_granted = 0
        for o, pendings in work.items():
            breaker = self.breakers[o] if self.breakers is not None else None
            outcome = outcomes.get(o)
            if outcome is None:
                for p in pendings:
                    self.edge.resolve_rejected(p, self._failure_reason, slot)
                    if breaker is not None:
                        breaker.record_failure(slot)
                continue
            granted, rejected = outcome
            self._shard_granted[o].inc(len(granted))
            self._shard_rejected[o].inc(len(rejected))
            by_input = {
                (p.request.input_fiber, p.request.wavelength): p
                for p in pendings
            }
            for g in granted:
                r = g.request
                p = by_input[(r.input_fiber, r.wavelength)]
                self._admission.hold(r)
                self.edge.note_granted(r)
                self._h_latency.observe(time.perf_counter() - p.submitted_at)
                self.edge.resolve(p, ServiceGrant(r, g.channel, slot))
                if breaker is not None:
                    breaker.record_success(slot)
            n_granted += len(granted)
            for r in rejected:
                self.edge.resolve_rejected(
                    by_input[(r.input_fiber, r.wavelength)],
                    RejectReason.CONTENTION,
                    slot,
                )
                if breaker is not None:
                    # Losing contention is a *healthy* outcome — the shard
                    # answered; it counts toward closing, not opening.
                    breaker.record_success(slot)

        # 5: advance the clocks and record the tick.
        self._end_tick(slot)
        self._admission.decay()
        if self.rate_limiter is not None:
            self.rate_limiter.advance()
        self._slot += 1
        self._c_ticks.inc()
        self._g_slot.set(self._slot)
        self._g_depth.set(self.queue_depth_total)
        self._h_tick.observe(time.perf_counter() - t0)
        return n_granted

    # -- run modes -----------------------------------------------------------

    async def run_ticks(self, n: int) -> int:
        """Run ``n`` back-to-back ticks (no sleeping); returns total grants."""
        check_positive_int(n, "n")
        return sum([await self.tick() for _ in range(n)])

    async def drain(self, max_ticks: int = 10_000) -> None:
        """Tick until every shard queue is empty (all futures resolved)."""
        ticks = 0
        while self.queue_depth_total > 0:
            if ticks >= max_ticks:
                raise SimulationError(
                    f"queues not drained after {max_ticks} ticks"
                )
            await self.tick()
            ticks += 1

    def start(self) -> None:
        """Run ticks on a background task every ``tick_interval`` seconds."""
        if self._timer_task is not None:
            raise SimulationError("service already started")
        if self._closed:
            raise SimulationError("service is stopped")
        self._timer_task = asyncio.get_running_loop().create_task(
            self._timer_loop(), name="repro-service-ticks"
        )

    async def _timer_loop(self) -> None:
        while True:
            await self.tick()
            await asyncio.sleep(self.tick_interval)

    async def stop(self) -> None:
        """Stop ticking, flush queued requests as ``SHUTDOWN``, release the
        backend.  Idempotent; after ``stop()`` submissions are refused."""
        if self._timer_task is not None:
            self._timer_task.cancel()
            try:
                await self._timer_task
            except asyncio.CancelledError:
                pass
            self._timer_task = None
        if self._closed:
            return
        self._closed = True
        for o, queue in enumerate(self.queues):
            if self._journals is not None and queue.depth:
                self._journals[o].dequeue(self._slot, queue.depth)
            for p in queue.drain():
                self.edge.resolve_rejected(p, RejectReason.SHUTDOWN)
            self._shard_depth[o].set(0)
        self._close()
