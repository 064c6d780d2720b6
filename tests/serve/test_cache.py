"""The epoch-validated, stale-retaining result cache."""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.serve.cache import ResultCache


class TestLookup:
    def test_miss_then_fresh_hit(self):
        cache = ResultCache()
        assert cache.lookup("k", 0) == ("miss", None)
        cache.store("k", {"answer": 1}, epoch=0)
        state, entry = cache.lookup("k", 0)
        assert state == "fresh"
        assert entry.value == {"answer": 1}
        assert cache.stats.hits == 1

    def test_epoch_bump_makes_entry_stale_not_gone(self):
        cache = ResultCache()
        cache.store("k", {"answer": 1}, epoch=0)
        state, entry = cache.lookup("k", 1)
        assert state == "stale"
        assert entry is not None and entry.epoch == 0
        # Stale classification alone is not a served stale answer.
        assert cache.stats.stale_serves == 0
        cache.record_stale_serve(entry)
        assert cache.stats.stale_serves == 1
        assert entry.stale_hits == 1

    def test_refill_restores_freshness_and_counts_fills(self):
        cache = ResultCache()
        cache.store("k", {"v": 0}, epoch=0)
        cache.store("k", {"v": 1}, epoch=1)
        state, entry = cache.lookup("k", 1)
        assert state == "fresh"
        assert entry.value == {"v": 1}
        assert entry.fills == 2
        assert cache.stats.fills == 2


class TestEviction:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.store("a", 1, epoch=0)
        cache.store("b", 2, epoch=0)
        cache.lookup("a", 0)  # touch a: b becomes least-recent
        cache.store("c", 3, epoch=0)
        assert cache.lookup("b", 0) == ("miss", None)
        assert cache.lookup("a", 0)[0] == "fresh"
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            ResultCache(capacity=0)


class TestSingleFlight:
    def test_lock_is_per_key_and_stable(self):
        async def scenario():
            cache = ResultCache()
            assert cache.lock_for("k") is cache.lock_for("k")
            assert cache.lock_for("k") is not cache.lock_for("other")

        asyncio.run(scenario())

    def test_failed_fill_drops_the_lock_after_its_last_waiter(self):
        async def fill(cache, key, value, entered):
            async with cache.single_flight(key):
                entered.append(cache.lock_for(key))
                await asyncio.sleep(0)
                if value is not None:
                    cache.store(key, value, epoch=0)

        async def scenario():
            cache = ResultCache()
            entered = []
            await asyncio.gather(fill(cache, "k", None, entered),
                                 fill(cache, "k", None, entered))
            # The waiter still found the first fill's lock: it is dropped
            # only after the last request on it leaves.
            assert len(entered) == 2 and entered[0] is entered[1]
            assert cache._locks == {}
            await fill(cache, "stored", 1, entered)
            assert list(cache._locks) == ["stored"]

        asyncio.run(scenario())

    def test_fill_that_raises_drops_its_lock(self):
        async def scenario():
            cache = ResultCache()
            with pytest.raises(RuntimeError):
                async with cache.single_flight("k"):
                    raise RuntimeError("fill failed")
            assert cache._locks == {}
            assert cache._holders == {}

        asyncio.run(scenario())

    def test_fills_of_one_key_stay_serialized(self):
        """Dropping idle locks must not break single flight: a second
        request on the key enters only after the first has left."""
        async def fill(cache, events, name):
            async with cache.single_flight("k"):
                events.append(f"{name} in")
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                events.append(f"{name} out")

        async def scenario():
            cache = ResultCache()
            events = []
            await asyncio.gather(*(fill(cache, events, name)
                                   for name in "abc"))
            return events

        events = asyncio.run(scenario())
        assert events == ["a in", "a out", "b in", "b out", "c in", "c out"]

    def test_evicted_entry_takes_its_lock_along(self):
        async def scenario():
            cache = ResultCache(capacity=1)
            for key in ("a", "b"):
                async with cache.single_flight(key):
                    cache.store(key, key, epoch=0)
            return sorted(cache._locks)

        assert asyncio.run(scenario()) == ["b"]


class TestPayload:
    def test_to_payload_shape(self):
        cache = ResultCache(capacity=8)
        cache.store("k", 1, epoch=0)
        cache.lookup("k", 0)
        payload = cache.to_payload()
        assert payload == {"entries": 1, "capacity": 8, "hits": 1,
                           "stale_serves": 0, "misses": 0, "fills": 1,
                           "evictions": 0}
