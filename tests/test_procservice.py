"""The multi-process sharded service: semantics, crashes, recovery.

Worker processes are spawned (not forked), so each service bring-up
costs real time — the tests share stacks where the scenarios allow it.
"""

import asyncio

import pytest

pytestmark = [pytest.mark.net, pytest.mark.slow]

from repro.core.distributed import SlotRequest
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import RandomPolicy
from repro.errors import InvalidParameterError, WorkerProcessError
from repro.graphs.conversion import NonCircularConversion
from repro.net.procpool import (
    POISON_AFTER_GRANT,
    POISON_BEFORE_REPLY,
    POISON_STALL,
    ProcessShardPool,
)
from repro.net.procservice import ProcessShardedService
from repro.service.breaker import BreakerConfig
from repro.service.queue import OverflowPolicy
from repro.service.server import Rejected, RejectReason, ServiceGrant

N_FIBERS, K = 4, 3


def _service(**kwargs) -> ProcessShardedService:
    kwargs.setdefault("n_workers", 2)
    return ProcessShardedService(
        N_FIBERS,
        NonCircularConversion(K, 1, 1),
        FirstAvailableScheduler(),
        **kwargs,
    )


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_stateful_policy_is_accepted(self):
        # Pre-resharding builds refused policies that do not partition by
        # output; stateful mode now threads the canonical policy state
        # through per-shard run_shard calls (see docs/SERVICE.md).
        async def go():
            service = _service(policy=RandomPolicy(seed=1))
            try:
                assert service._stateful
            finally:
                await service.stop()

        run(go())

    def test_placement_covers_every_shard(self):
        async def go():
            service = _service()
            try:
                placement = service.placement
                assert sorted(placement) == list(range(N_FIBERS))
                assert set(placement.values()) <= set(
                    range(service.n_workers)
                )
                # Both workers own shards (bounded-load floor).
                assert len(set(placement.values())) == 2
            finally:
                await service.stop()

        run(go())


class TestTickSemantics:
    def test_grants_contention_and_busy_cross_process(self):
        async def go():
            service = _service()
            try:
                # Three inputs race for output 0 wavelength 0 (reachable
                # channels {0, 1} under (1,1) conversion — some must lose);
                # an independent request on another shard lands too.
                futs = [
                    service.submit_nowait(SlotRequest(i, 0, 0, duration=3))
                    for i in range(3)
                ]
                futs.append(service.submit_nowait(SlotRequest(3, 1, 1)))
                n = await service.tick()
                outcomes = [await f for f in futs]
                grants = [o for o in outcomes if isinstance(o, ServiceGrant)]
                rejects = [o for o in outcomes if isinstance(o, Rejected)]
                assert n == len(grants)
                assert len(grants) + len(rejects) == 4
                # wl 0 reaches 2 channels: the 3-way race grants exactly 2.
                assert sum(
                    1 for g in grants if g.request.output_fiber == 0
                ) == 2
                assert any(g.request.output_fiber == 1 for g in grants)
                assert all(
                    r.reason is RejectReason.CONTENTION for r in rejects
                )
                # The owning worker's busy[] reflects the duration-3 hold
                # (one tick already elapsed at commit).
                busy0 = service.worker_busy(0)
                assert max(busy0) == 2
                # Idle shards' clocks advanced too (no stuck channels).
                assert all(b == 0 for b in service.worker_busy(2))
            finally:
                await service.stop()

        run(go())

    def test_conservation_over_random_load(self):
        async def go():
            import random

            rng = random.Random(42)
            service = _service()
            try:
                futures = []
                for _ in range(60):
                    futures.append(
                        service.submit_nowait(
                            SlotRequest(
                                rng.randrange(N_FIBERS),
                                rng.randrange(K),
                                rng.randrange(N_FIBERS),
                            )
                        )
                    )
                    if rng.random() < 0.3:
                        await service.tick()
                await service.drain()
                # A queue drained at the admission layer can still hold
                # blocked requeues; a few extra ticks settle everything.
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*futures), 30
                )
                granted = sum(
                    1 for o in outcomes if isinstance(o, ServiceGrant)
                )
                rejected = sum(1 for o in outcomes if isinstance(o, Rejected))
                assert granted + rejected == 60
                assert granted > 0
            finally:
                await service.stop()

        run(go())

    def test_dedup_replays_grant_exactly_once(self):
        async def go():
            service = _service(dedup_capacity=16)
            try:
                f1 = service.submit_nowait(
                    SlotRequest(0, 0, 0), request_id="req-1"
                )
                await service.tick()
                out1 = await f1
                assert isinstance(out1, ServiceGrant)
                # Same id again: the original grant replays, nothing is
                # scheduled twice.
                f2 = service.submit_nowait(
                    SlotRequest(0, 0, 0), request_id="req-1"
                )
                out2 = await f2
                assert out2 is out1
                assert service.queue_depth_total == 0
            finally:
                await service.stop()

        run(go())

    def test_queue_overflow_rejects(self):
        async def go():
            service = _service(queue_capacity=2)
            try:
                futs = [
                    service.submit_nowait(SlotRequest(i % N_FIBERS, 0, 0))
                    for i in range(3)
                ]
                out = await futs[2]
                assert isinstance(out, Rejected)
                assert out.reason is RejectReason.QUEUE_FULL
            finally:
                await service.stop()

        run(go())

    def test_stop_flushes_queued_as_shutdown(self):
        async def go():
            service = _service()
            fut = service.submit_nowait(SlotRequest(0, 0, 0))
            await service.stop()
            out = await fut
            assert isinstance(out, Rejected)
            assert out.reason is RejectReason.SHUTDOWN

        run(go())


class TestCrashRecovery:
    def test_kill_worker_respawns_with_busy_intact(self, tmp_path):
        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=5))
                await service.tick()
                assert isinstance(await fut, ServiceGrant)
                busy_before = service.worker_busy(0)
                assert max(busy_before) == 4
                victim = service.placement[0]
                service.kill_worker(victim)
                # The next access respawns the worker; journal replay
                # rebuilds the channel clock exactly.
                assert service.worker_busy(0) == busy_before
                # And ticking still works (clock keeps decaying).
                await service.tick()
                assert max(service.worker_busy(0)) == 3
            finally:
                await service.stop()

        run(go())

    def test_poison_after_grant_redelivery_is_idempotent(self, tmp_path):
        """Worker dies between journaling grants and advancing: the
        parent's retry re-runs the tick on the respawned worker, which
        strips the uncommitted write-ahead and re-schedules — the caller
        sees exactly one grant."""

        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                victim = service.placement[0]
                service.pool.call(victim, "poison", POISON_AFTER_GRANT)
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=2))
                n = await service.tick()
                out = await fut
                assert n == 1
                assert isinstance(out, ServiceGrant)
                assert max(service.worker_busy(0)) == 1
                # Exactly one respawn happened.
                assert service.pool._workers[victim].respawns == 1
            finally:
                await service.stop()

        run(go())

    def test_poison_before_reply_answers_from_journal(self, tmp_path):
        """Worker dies after completing the tick but before replying: the
        redelivered tick is behind the recovered clock, so the respawned
        worker answers from the journal — same grants, not re-scheduled
        against the already-advanced busy[]."""

        async def go():
            service = _service(journal_dir=tmp_path)
            try:
                victim = service.placement[0]
                service.pool.call(victim, "poison", POISON_BEFORE_REPLY)
                fut = service.submit_nowait(SlotRequest(0, 0, 0, duration=4))
                n = await service.tick()
                out = await fut
                assert n == 1
                assert isinstance(out, ServiceGrant)
                # The completed tick advanced before the kill; the journal
                # answer must not double-apply the hold or re-advance.
                assert max(service.worker_busy(0)) == 3
            finally:
                await service.stop()

        run(go())


class TestPoolEdges:
    def test_call_after_stop_raises_typed(self):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        pool.stop()
        pool.stop()  # idempotent
        with pytest.raises(WorkerProcessError, match="stopped"):
            pool.call(0, "busy")

    def test_unknown_op_is_a_typed_error(self):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        try:
            with pytest.raises(WorkerProcessError, match="unknown op"):
                pool.call(0, "no-such-op")
        finally:
            pool.stop()


class TestPartitionUnavailable:
    """Edge↔worker partitions degrade to typed UNAVAILABLE rejects and
    feed the breakers; healing replays missed slots (PR 10)."""

    def test_partition_degrades_then_heals(self):
        async def go():
            service = _service(
                breaker=BreakerConfig(failure_threshold=1, reset_ticks=2)
            )
            try:
                victim = service.placement[0]
                dark = set(service.pool.shards_of(victim))
                healthy_out = next(
                    o for o in range(N_FIBERS) if o not in dark
                )
                service.pool.partition_worker(victim)

                # Slot 0: the dark shard's request degrades UNAVAILABLE;
                # the healthy worker's shard still grants — a partition
                # never blows up the whole tick.
                f_dark = service.submit_nowait(SlotRequest(0, 0, 0))
                f_ok = service.submit_nowait(SlotRequest(1, 0, healthy_out))
                await service.tick()
                out = await f_dark
                assert isinstance(out, Rejected)
                assert out.reason is RejectReason.UNAVAILABLE
                assert isinstance(await f_ok, ServiceGrant)

                # The failure opened shard 0's breaker: the next submit
                # short-circuits CIRCUIT_OPEN without touching the pool.
                out = await service.submit_nowait(SlotRequest(0, 0, 0))
                assert isinstance(out, Rejected)
                assert out.reason is RejectReason.CIRCUIT_OPEN

                # Heal.  The next ticks redeliver the missed slots to the
                # worker (catch-up ADVANCE), and once reset_ticks elapse
                # the half-open probe goes through and closes the breaker.
                service.pool.partition_worker(victim, active=False)
                await service.tick()
                await service.tick()
                f_probe = service.submit_nowait(SlotRequest(0, 0, 0))
                await service.tick()
                assert isinstance(await f_probe, ServiceGrant)

                counters = service.telemetry.snapshot()["counters"]
                assert counters["server.rejected.unavailable"] == 1
                assert counters["server.rejected.circuit_open"] == 1
                # Conservation: every submission resolved exactly once.
                assert counters["server.submitted"] == 4
                assert counters["server.granted"] == 2
                assert (
                    counters["server.granted"]
                    + counters["server.rejected.unavailable"]
                    + counters["server.rejected.circuit_open"]
                    == counters["server.submitted"]
                )
            finally:
                await service.stop()

        run(go())

    def test_partitioned_call_fails_fast_without_respawn(self):
        pool = ProcessShardPool(
            N_FIBERS,
            NonCircularConversion(K, 1, 1),
            FirstAvailableScheduler(),
            None,
            n_workers=1,
        )
        try:
            pool.partition_worker(0)
            with pytest.raises(WorkerProcessError, match="partitioned"):
                pool.call(0, "busy")
            # The process is alive the whole time — a partition is a
            # network condition, not a crash.
            assert pool._workers[0].respawns == 0
            pool.partition_worker(0, active=False)
            pool.call(0, "busy")  # healed: answers again
        finally:
            pool.stop()


class TestUnresponsiveWorker:
    """A wedged (not dead) worker trips the pool's receive timeout and is
    killed + respawned — configurable, observable, fast (PR 10)."""

    def test_stalled_worker_is_replaced_within_timeout(self):
        async def go():
            service = _service(unresponsive_timeout=0.3)
            try:
                victim = service.placement[0]
                # Wedge the worker for far longer than the pool tolerates
                # (but far less than the legacy hardwired 30 s).
                service.pool.call(victim, "poison", POISON_STALL, 2.0)
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                fut = service.submit_nowait(SlotRequest(0, 0, 0))
                n = await service.tick()
                out = await fut
                elapsed = loop.time() - t0
                assert n == 1
                assert isinstance(out, ServiceGrant)
                # One kill + respawn, attributed in telemetry.
                assert service.pool._workers[victim].respawns == 1
                counters = service.telemetry.snapshot()["counters"]
                assert counters["procpool.unresponsive"] >= 1
                # The whole recovery ran on the configured budget, not
                # the old 30-second constant.
                assert elapsed < 10.0
            finally:
                await service.stop()

        run(go())

    def test_unresponsive_timeout_is_validated(self):
        with pytest.raises(InvalidParameterError, match="unresponsive"):
            ProcessShardPool(
                N_FIBERS,
                NonCircularConversion(K, 1, 1),
                FirstAvailableScheduler(),
                None,
                n_workers=1,
                unresponsive_timeout=0.0,
            )


class TestBreakerParity:
    """Both services count a TIMED_OUT request against its shard's
    breaker, so one seeded timeout workload leaves equal breakers."""

    SLOTS, PER_SLOT = 24, 6

    def _workload(self) -> list[list[tuple[SlotRequest, int]]]:
        import random

        rng = random.Random(20260417)
        slots = []
        for _ in range(self.SLOTS):
            channels = rng.sample(range(N_FIBERS * K), self.PER_SLOT)
            slots.append([
                (
                    SlotRequest(c // K, c % K, rng.randrange(2)),
                    rng.randrange(3),
                )
                for c in channels
            ])
        return slots

    async def _drive(self, service) -> list:
        futures = []
        for batch in self._workload():
            futures += [
                service.submit_nowait(r, timeout_ticks=t) for r, t in batch
            ]
            await service.tick()
        while not all(f.done() for f in futures):
            await service.tick()
        return [
            "granted" if isinstance(f.result(), ServiceGrant)
            else f.result().reason.value
            for f in futures
        ]

    def test_timeouts_feed_the_breakers_alike(self):
        from repro.service import SchedulingService

        config = BreakerConfig(failure_threshold=2, reset_ticks=3)
        kwargs = dict(max_batch_per_tick=1, breaker=config)

        async def go():
            results = []
            for service in (
                SchedulingService(
                    N_FIBERS, NonCircularConversion(K, 1, 1),
                    FirstAvailableScheduler(), durability=False, **kwargs,
                ),
                _service(**kwargs),
            ):
                try:
                    reasons = await self._drive(service)
                    results.append((
                        reasons,
                        [
                            (
                                b.state,
                                b._consecutive_failures,
                                b._opened_at_tick,
                            )
                            for b in service.breakers
                        ],
                        {
                            n: v
                            for n, v in service.telemetry.snapshot()[
                                "counters"
                            ].items()
                            if n.startswith(("breaker.", "server.rejected."))
                            or n in ("server.granted", "server.submitted")
                        },
                    ))
                finally:
                    await service.stop()
            return results

        (reasons, breakers, counters), other = run(go())
        assert "timed_out" in reasons and "circuit_open" in reasons
        assert other == (reasons, breakers, counters)

    def test_telemetry_matches_across_services(self):
        """One seeded workload — slot deadlines, contention, source
        blocking, multi-slot holds and breakers — leaves both services
        with the same outcomes and the same telemetry.

        Compared: every ``server.*``, ``tenant.*`` and ``breaker.*``
        counter and gauge; ``shard.{o}.offered/granted/rejected/
        queue_depth``; and the sample counts of
        ``server.grant_latency_seconds`` and ``server.tick_seconds``
        (their values are wall-clock times).  Excluded, because only one
        backend has them: ``shard.{o}.occupancy`` and
        ``server.occupancy_channels`` (busy[] is worker state, not
        reported to the parent — ROADMAP item 5b); ``faults.*`` and
        ``server.shard_crashes``/``server.shard_restarts`` (fault
        injection and crash supervision are in-process only); and
        ``procpool.*`` and ``reshard.*`` (worker processes and live
        resharding are multi-process only).
        """
        import random

        from repro.service import SchedulingService

        rng = random.Random(20261018)
        workload = []
        for _ in range(30):
            channels = rng.sample(range(N_FIBERS * K), 8)
            workload.append([
                (
                    SlotRequest(
                        c // K,
                        c % K,
                        rng.randrange(N_FIBERS),
                        duration=rng.choice((1, 1, 2, 3)),
                    ),
                    rng.randrange(4),
                )
                for c in channels
            ])
        kwargs = dict(
            max_batch_per_tick=2,
            breaker=BreakerConfig(failure_threshold=2, reset_ticks=3),
        )
        shard_metrics = ("offered", "granted", "rejected", "queue_depth")

        def compared(service) -> dict:
            snap = service.telemetry.snapshot()
            values = {
                n: v
                for table in ("counters", "gauges")
                for n, v in snap[table].items()
                if n.startswith(("server.", "tenant.", "breaker."))
                or n.split(".")[-1] in shard_metrics
            }
            for name in ("server.shard_crashes", "server.shard_restarts"):
                values.pop(name, None)
            for name in ("server.grant_latency_seconds", "server.tick_seconds"):
                values[name + ".count"] = snap["histograms"][name]["count"]
            return values

        async def drive(service):
            futures = []
            for batch in workload:
                futures += [
                    service.submit_nowait(r, timeout_ticks=t) for r, t in batch
                ]
                await service.tick()
            while not all(f.done() for f in futures):
                await service.tick()
            return [
                (f.result().channel, f.result().slot)
                if isinstance(f.result(), ServiceGrant)
                else (f.result().reason.value, f.result().slot)
                for f in futures
            ], compared(service)

        async def go():
            results = []
            for service in (
                SchedulingService(
                    N_FIBERS, NonCircularConversion(K, 1, 1),
                    FirstAvailableScheduler(), durability=False, **kwargs,
                ),
                _service(**kwargs),
            ):
                try:
                    results.append(await drive(service))
                finally:
                    await service.stop()
            return results

        (outcomes, telemetry), other = run(go())
        reasons = {o[0] for o in outcomes if isinstance(o[0], str)}
        assert {
            "contention", "source_blocked", "timed_out", "circuit_open",
        } <= reasons
        assert any(not isinstance(o[0], str) for o in outcomes)
        assert telemetry["server.grant_latency_seconds.count"] > 0
        assert telemetry["shard.0.offered"] > 0
        assert other == (outcomes, telemetry)


class TestRateLimitedParity:
    """``RATE_LIMITED`` is a submit-time reject: every backend resolves it
    with no slot, which the wire carries as ``-1``."""

    def test_rate_limited_carries_no_slot_in_every_backend(self):
        from repro.net.client import NetClient
        from repro.net.server import NetServer
        from repro.service import SchedulingService
        from repro.service.ratelimit import RateLimitConfig

        kwargs = dict(rate_limit=RateLimitConfig(rate_per_tick=1, burst=1))
        slots = [
            [SlotRequest(i, 0, i) for i in range(N_FIBERS)] for _ in range(3)
        ]

        async def direct(service):
            rejected = []
            try:
                for batch in slots:
                    futures = [service.submit_nowait(r) for r in batch]
                    await service.tick()
                    rejected += [
                        f.result() for f in futures
                        if isinstance(f.result(), Rejected)
                    ]
            finally:
                await service.stop()
            return rejected

        async def wire(service):
            server = NetServer(service)
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            rejected = []
            try:
                for batch in slots:
                    futures = [client.submit_nowait(r) for r in batch]
                    await client.tick(1)
                    for r, f in zip(batch, futures):
                        reply = await f
                        if not hasattr(reply, "channel"):
                            rejected.append((r, reply.reason, reply.slot))
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            return rejected

        def in_process():
            return SchedulingService(
                N_FIBERS, NonCircularConversion(K, 1, 1),
                FirstAvailableScheduler(), durability=False, **kwargs,
            )

        async def go():
            return (
                await direct(in_process()),
                await direct(_service(**kwargs)),
                await wire(in_process()),
                await wire(_service(**kwargs)),
            )

        local, multi, local_wire, multi_wire = run(go())
        assert local == [
            Rejected(r, RejectReason.RATE_LIMITED, None)
            for batch in slots
            for r in batch[1:]
        ]
        assert multi == local
        expected_wire = [
            (r.request, RejectReason.RATE_LIMITED, -1) for r in local
        ]
        assert local_wire == expected_wire
        assert multi_wire == expected_wire
