"""In-process client API, retrying submission, and a load generator.

:class:`SchedulingClient` is the thin call-site facade
(``submit(request) -> ServiceGrant | Rejected``); :class:`LoadGenerator`
drives a service with the simulator's own traffic models
(:mod:`repro.sim.traffic`), one model slot per service tick, and reports
sustained request rate, grant rate, and exact grant-latency percentiles —
the numbers ``benchmarks/bench_service.py`` sweeps over shard counts.

:meth:`SchedulingClient.submit_with_retry` adds the client half of the
fault story (``docs/ROBUSTNESS.md``): transient refusals — full queues,
drops, timeouts, down shards, open breakers — are retried with exponential
backoff and *full jitter* (``delay ~ U(0, min(max_delay, base·2^attempt))``,
the AWS-style scheme that de-correlates synchronized retry storms), under a
shared :class:`RetryBudget` so a mass outage cannot amplify itself through
retries.  Contention and source-blocked rejections are **not** retried by
default: they are the scheduler's verdict for this slot, not a fault.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.distributed import SlotRequest
from repro.errors import InvalidParameterError
from repro.service.server import (
    Rejected,
    RejectReason,
    SchedulingService,
    ServiceGrant,
)
from repro.service.telemetry import exponential_buckets
from repro.sim.traffic import TrafficModel
from repro.util.rng import make_rng
from repro.util.validation import check_positive_int

__all__ = [
    "RetryPolicy",
    "RetryBudget",
    "SchedulingClient",
    "LoadReport",
    "LoadGenerator",
]

#: Rejection reasons that are transient faults, worth retrying.
#: ``DUPLICATE`` is here because it means "your original is still in
#: flight" — the retry loop should back off and ask again, at which point
#: the server replays the grant or the released id gets a fresh attempt.
RETRYABLE_REASONS = frozenset(
    {
        RejectReason.QUEUE_FULL,
        RejectReason.DROPPED,
        RejectReason.TIMED_OUT,
        RejectReason.SHARD_DOWN,
        RejectReason.CIRCUIT_OPEN,
        RejectReason.DUPLICATE,
    }
)

#: Process-wide client numbering, so every client's request_ids are unique
#: within (at least) one service's dedup table.
_CLIENT_IDS = itertools.count()

#: Attempt-count histogram buckets (1 … 32 attempts).
_ATTEMPT_BUCKETS = exponential_buckets(1.0, 2.0, 6)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter.

    ``max_attempts`` bounds total tries (first attempt included); the sleep
    before retry ``i`` (0-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * 2**i)]``.  ``retryable`` defaults to
    the transient-fault reasons (:data:`RETRYABLE_REASONS`).
    """

    max_attempts: int = 4
    base_delay: float = 0.001
    max_delay: float = 0.05
    retryable: frozenset[RejectReason] = RETRYABLE_REASONS

    def __post_init__(self) -> None:
        check_positive_int(self.max_attempts, "max_attempts")
        if self.base_delay < 0 or self.max_delay < 0:
            raise InvalidParameterError(
                f"delays must be >= 0, got base={self.base_delay}, "
                f"max={self.max_delay}"
            )

    def delay(self, attempt: int, rng) -> float:
        """Jittered sleep before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * (2.0**attempt))
        return float(rng.uniform(0.0, cap)) if cap > 0 else 0.0


class RetryBudget:
    """A shared token bucket that caps total retry amplification.

    Every retry spends one token; every successful first-try-or-retried
    grant refills ``refill_per_success`` tokens (capped at the initial
    ``tokens``).  When the bucket is empty, clients stop retrying and
    surface the rejection — the standard guard against retry storms making
    an outage worse.  One budget is typically shared by every client of a
    service.

    Thread-safe: one budget may be shared by submitters on different
    threads/event loops, so ``try_spend``/``refill`` are a lock-guarded
    read-modify-write (the unlocked float arithmetic they replaced could
    lose or double-count tokens under that sharing —
    ``tests/test_concurrency_audit.py`` pins the exact accounting down).
    """

    def __init__(
        self, tokens: float = 100.0, refill_per_success: float = 0.1
    ) -> None:
        if tokens <= 0:
            raise InvalidParameterError(f"tokens must be > 0, got {tokens}")
        if refill_per_success < 0:
            raise InvalidParameterError(
                f"refill_per_success must be >= 0, got {refill_per_success}"
            )
        self.capacity = float(tokens)
        self.refill_per_success = float(refill_per_success)
        self._tokens = float(tokens)
        self._lock = threading.Lock()

    @property
    def tokens(self) -> float:
        """Tokens currently available."""
        with self._lock:
            return self._tokens

    def try_spend(self) -> bool:
        """Take one token if available; False means stop retrying."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def refill(self) -> None:
        with self._lock:
            self._tokens = min(
                self.capacity, self._tokens + self.refill_per_success
            )

    def __repr__(self) -> str:
        return f"RetryBudget(tokens={self.tokens:.1f}/{self.capacity:.0f})"


class SchedulingClient:
    """Submit requests to a running :class:`SchedulingService`.

    ``seed`` feeds the retry jitter (deterministic chaos runs); telemetry
    for retries lands on the *service's* registry (``client.retries``,
    ``client.retry_exhausted``, ``client.attempts``) so one snapshot shows
    both sides of the conversation.
    """

    def __init__(
        self, service: SchedulingService, seed: int | None = None
    ) -> None:
        self.service = service
        self._rng = make_rng(seed)
        self._client_id = next(_CLIENT_IDS)
        self._request_seq = itertools.count()
        t = service.telemetry
        self._c_retries = t.counter("client.retries")
        self._c_retry_exhausted = t.counter("client.retry_exhausted")
        self._c_wait_timeouts = t.counter("client.wait_timeouts")
        self._h_attempts = t.histogram("client.attempts", _ATTEMPT_BUCKETS)

    def _next_request_id(self) -> str:
        """A fresh idempotency key: unique per client and per request."""
        return f"c{self._client_id}-{next(self._request_seq)}"

    async def submit(
        self, request: SlotRequest, timeout: float | None = None
    ) -> ServiceGrant | Rejected:
        """Submit one request and await its outcome."""
        return await self.service.submit(request, timeout)

    async def submit_many(
        self, requests: Sequence[SlotRequest], timeout: float | None = None
    ) -> list[ServiceGrant | Rejected]:
        """Submit a batch concurrently; outcomes in submission order."""
        futures = [
            self.service.submit_nowait(r, timeout) for r in requests
        ]
        return list(await asyncio.gather(*futures))

    async def submit_with_retry(
        self,
        request: SlotRequest,
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
        budget: RetryBudget | None = None,
        *,
        attempt_timeout: float | None = None,
        request_id: str | None = None,
    ) -> ServiceGrant | Rejected:
        """Submit with backoff+jitter retries on transient-fault rejections.

        Returns the grant, the first non-retryable rejection, or — when
        attempts or the shared budget run out — the *last* rejection seen,
        so the caller always learns the terminal reason.  Deadlines
        (``timeout``) apply per attempt.

        Every attempt carries the same idempotency key (``request_id``,
        auto-stamped when not given), so resubmitting after an
        ``attempt_timeout`` — giving up *waiting* while the original may
        still be queued — cannot double-schedule: the server's dedup table
        replays the original grant or answers ``DUPLICATE``
        (exactly-once; see ``docs/SERVICE.md``).  When every attempt times
        out client-side, returns ``Rejected(TIMED_OUT, slot=None)`` —
        ``slot=None`` marking it as a client-side verdict, not the
        server's.
        """
        policy = policy if policy is not None else RetryPolicy()
        if attempt_timeout is not None and attempt_timeout <= 0:
            raise InvalidParameterError(
                f"attempt_timeout must be > 0, got {attempt_timeout}"
            )
        if request_id is None:
            request_id = self._next_request_id()
        attempts = 0
        outcome: ServiceGrant | Rejected | None = None
        while True:
            future = self.service.submit_nowait(
                request, timeout, request_id=request_id
            )
            attempts += 1
            if attempt_timeout is None:
                outcome = await future
            else:
                try:
                    # shield(): abandoning the wait must not cancel the
                    # request already sitting in the shard queue — the
                    # server still resolves it, and the dedup table turns
                    # the resubmission below into a replayed grant or a
                    # DUPLICATE instead of a double booking.
                    outcome = await asyncio.wait_for(
                        asyncio.shield(future), attempt_timeout
                    )
                except asyncio.TimeoutError:
                    outcome = None
                    self._c_wait_timeouts.inc()
            if isinstance(outcome, ServiceGrant):
                if budget is not None:
                    budget.refill()
                break
            if outcome is not None and outcome.reason not in policy.retryable:
                break
            if attempts >= policy.max_attempts:
                self._c_retry_exhausted.inc()
                break
            if budget is not None and not budget.try_spend():
                self._c_retry_exhausted.inc()
                break
            self._c_retries.inc()
            delay = policy.delay(attempts - 1, self._rng)
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                # Zero-delay retries still yield, so manually driven ticks
                # (tests, chaos drills) can interleave with the retry loop.
                await asyncio.sleep(0)
        self._h_attempts.observe(attempts)
        if outcome is None:
            return Rejected(request, RejectReason.TIMED_OUT, None)
        return outcome


@dataclass
class LoadReport:
    """What a :class:`LoadGenerator` run delivered."""

    offered: int
    granted: int
    rejected_contention: int
    rejected_source: int
    rejected_queue: int
    dropped: int
    timed_out: int
    slots: int
    wall_seconds: float
    #: Fault-path rejections (zero in a fault-free run).
    shard_down: int = 0
    circuit_open: int = 0
    #: Duplicate-id refusals (zero unless callers resubmit request_ids).
    duplicate: int = 0
    #: Exact per-request submit→grant latencies, seconds, sorted ascending.
    grant_latencies: list[float] = field(repr=False, default_factory=list)

    @property
    def requests_per_sec(self) -> float:
        """Sustained offered-request throughput over the run."""
        return self.offered / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def grant_rate(self) -> float:
        return self.granted / self.offered if self.offered else 0.0

    def latency_quantile(self, q: float) -> float:
        """Exact ``q``-quantile of the grant latencies (0.0 when none)."""
        lat = self.grant_latencies
        if not lat:
            return 0.0
        idx = min(len(lat) - 1, max(0, round(q * (len(lat) - 1))))
        return lat[idx]

    @property
    def p50_latency(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_latency(self) -> float:
        return self.latency_quantile(0.99)


class LoadGenerator:
    """Drive a service with a :mod:`repro.sim.traffic` arrival process.

    Each traffic-model slot maps to one service tick: the generator submits
    slot ``t``'s packets, runs one tick, and repeats — then keeps ticking
    until every outstanding future has resolved.  With an unbounded queue,
    no timeout, and one tick per slot this reproduces the
    :class:`~repro.sim.engine.SlottedSimulator` workload exactly (the
    equivalence test in ``tests/test_service_equivalence.py`` checks the
    grants match decision-for-decision).
    """

    def __init__(
        self,
        service: SchedulingService,
        traffic: TrafficModel,
        seed: int | None = None,
        timeout: float | None = None,
    ) -> None:
        if traffic.n_fibers != service.n_fibers or traffic.k != service.scheme.k:
            raise ValueError(
                f"traffic model is {traffic.n_fibers}×{traffic.k}, "
                f"service is {service.n_fibers}×{service.scheme.k}"
            )
        self.service = service
        self.traffic = traffic
        self.timeout = timeout
        self._rng = make_rng(seed)

    async def run(self, n_slots: int) -> LoadReport:
        """Offer ``n_slots`` slots of traffic; returns the load report."""
        check_positive_int(n_slots, "n_slots")
        service = self.service
        futures: list[asyncio.Future] = []
        latencies: list[float] = []

        def _stamp(submitted_at: float, fut: asyncio.Future) -> None:
            # Runs on the loop pass right after the tick resolves the
            # future, so the stamp tracks grant time, not gather time.
            if isinstance(fut.result(), ServiceGrant):
                latencies.append(time.perf_counter() - submitted_at)

        t_start = time.perf_counter()
        for slot in range(n_slots):
            packets = self.traffic.arrivals(slot, self._rng)
            for p in packets:
                request = SlotRequest(
                    p.input_fiber,
                    p.wavelength,
                    p.output_fiber,
                    p.duration,
                    p.priority,
                )
                future = service.submit_nowait(request, self.timeout)
                future.add_done_callback(
                    lambda fut, t=time.perf_counter(): _stamp(t, fut)
                )
                futures.append(future)
            await service.tick()
            # Yield one loop pass so done-callbacks stamp *this* tick's
            # grants now, not in bulk when the run finishes (in-process
            # ticks never suspend, so the loop would otherwise starve).
            await asyncio.sleep(0)
        await service.drain()
        await asyncio.sleep(0)
        results = await asyncio.gather(*futures)
        wall = time.perf_counter() - t_start

        counts = {reason: 0 for reason in RejectReason}
        granted = 0
        for outcome in results:
            if isinstance(outcome, ServiceGrant):
                granted += 1
            else:
                counts[outcome.reason] += 1
        latencies.sort()
        return LoadReport(
            offered=len(futures),
            granted=granted,
            rejected_contention=counts[RejectReason.CONTENTION],
            rejected_source=counts[RejectReason.SOURCE_BLOCKED],
            rejected_queue=counts[RejectReason.QUEUE_FULL],
            dropped=counts[RejectReason.DROPPED],
            timed_out=counts[RejectReason.TIMED_OUT],
            slots=n_slots,
            wall_seconds=wall,
            shard_down=counts[RejectReason.SHARD_DOWN],
            circuit_open=counts[RejectReason.CIRCUIT_OPEN],
            duplicate=counts[RejectReason.DUPLICATE],
            grant_latencies=latencies,
        )
