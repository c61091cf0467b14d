"""Thread-safety audit regression tests: RetryBudget and ScheduleCache.

Both objects may be shared across threads — a :class:`RetryBudget` by
clients on different threads/event loops, the :class:`ScheduleCache` by
any scheduler instance user code calls from several threads (the
services schedule on the event loop, but the library does not require
that of its callers, and the process pool runs its own I/O threads) — so
their mutations must be lock-guarded read-modify-writes.  These tests
hammer them from many threads and assert *exact* accounting, which the
pre-audit unlocked float arithmetic (``tokens -= 1``) loses under
interleaving.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.memo import ScheduleCache
from repro.service import RetryBudget
from repro.types import Grant, ScheduleResult

N_THREADS = 8


def hammer(fn, n_threads=N_THREADS, iterations=2_000):
    """Run ``fn(thread_index)`` concurrently, starting all threads on a
    barrier so the critical sections actually overlap."""
    barrier = threading.Barrier(n_threads)

    def worker(idx):
        barrier.wait()
        for _ in range(iterations):
            fn(idx)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for f in [pool.submit(worker, i) for i in range(n_threads)]:
            f.result()  # surface worker exceptions


class TestRetryBudget:
    def test_concurrent_spends_are_exact(self):
        """tokens_spent + tokens_left == initial, to the last token."""
        initial = N_THREADS * 1_000.0
        budget = RetryBudget(tokens=initial, refill_per_success=0.0)
        spent = [0] * N_THREADS

        def spend(idx):
            if budget.try_spend():
                spent[idx] += 1

        hammer(spend, iterations=1_500)  # 12k attempts on 8k tokens
        assert sum(spent) == initial
        assert budget.tokens == 0.0
        assert not budget.try_spend()

    def test_concurrent_spend_and_refill_never_lose_tokens(self):
        budget = RetryBudget(tokens=500.0, refill_per_success=1.0)
        counts = {"spent": [0] * N_THREADS, "refilled": [0] * N_THREADS}

        def mix(idx):
            if idx % 2 == 0:
                if budget.try_spend():
                    counts["spent"][idx] += 1
            else:
                budget.refill()
                counts["refilled"][idx] += 1

        hammer(mix, iterations=2_000)
        spent, refilled = sum(counts["spent"]), sum(counts["refilled"])
        # Refills cap at capacity, so the balance is a >= bound plus the
        # hard invariants: never negative, never above capacity.
        assert 0.0 <= budget.tokens <= budget.capacity
        assert budget.tokens >= min(budget.capacity, 500.0 - spent + 0.0)
        assert spent <= 500.0 + refilled

    def test_spend_below_one_token_refuses(self):
        budget = RetryBudget(tokens=2.0, refill_per_success=0.5)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        budget.refill()  # 0.5 tokens: still below the 1-token spend floor
        assert not budget.try_spend()
        budget.refill()
        assert budget.try_spend()


class TestScheduleCache:
    def _result(self, tag):
        return ScheduleResult(
            grants=(Grant(wavelength=tag % 4, channel=tag % 4),),
            request_vector=(1, 0, 0, 0),
            available=(True, True, True, True),
        )

    def test_concurrent_get_put_stays_consistent(self):
        cache = ScheduleCache(maxsize=64)
        keys = [("k", i) for i in range(256)]

        def churn(idx):
            for i, key in enumerate(keys):
                if (i + idx) % 3 == 0:
                    cache.put(key, self._result(i))
                else:
                    got = cache.get(key)
                    if got is not None:
                        assert got == self._result(i)

        hammer(churn, iterations=20)
        stats = cache.stats()
        assert len(cache) == stats["size"] <= 64
        assert stats["hits"] + stats["misses"] > 0

    def test_eviction_accounting_is_exact_under_contention(self):
        cache = ScheduleCache(maxsize=8)

        def insert(idx):
            for i in range(64):
                cache.put((idx, i), self._result(i))

        hammer(insert, iterations=10)
        stats = cache.stats()
        # Every insert beyond capacity evicted exactly one entry.
        inserts = N_THREADS * 10 * 64
        assert stats["evictions"] == inserts - stats["size"]
        assert stats["size"] == 8
