"""The serving result cache: epoch-validated, stale-retaining, stampede-safe.

The paper's whole economy is *not recomputing*: a served request whose
(computation, target, parameters) key was answered at the current graph
epoch is a pure cache hit. Two deliberate departures from a plain LRU:

* **Staleness instead of eviction on mutation.** ``POST /mutate`` bumps
  the session epoch; entries written under older epochs become *stale*
  rather than vanishing. A fresh recompute normally replaces them — but
  when the recompute *fails*, the degradation ladder serves the stale
  entry (marked ``"stale": true``) instead of an error.
* **Single-flight fills.** Concurrent identical requests coalesce on a
  per-key :class:`asyncio.Lock`: exactly one computes and fills, the rest
  read the filled entry (the no-cache-stampede property the concurrency
  tests pin down).
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import asyncio


@dataclass
class CacheEntry:
    """One cached result with the epoch it was computed under."""

    value: Any
    epoch: int
    fills: int = 1
    hits: int = 0
    stale_hits: int = 0


@dataclass
class CacheStats:
    hits: int = 0
    stale_serves: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0

    def to_payload(self) -> Dict[str, int]:
        return {"hits": self.hits, "stale_serves": self.stale_serves,
                "misses": self.misses, "fills": self.fills,
                "evictions": self.evictions}


class ResultCache:
    """LRU result cache keyed by canonical request keys.

    ``lookup`` never removes stale entries; they stay until capacity
    pressure evicts them or a fresh fill overwrites them, because a stale
    answer is the last rung of the degradation ladder.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            from repro.errors import ConfigError

            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._locks: Dict[str, asyncio.Lock] = {}
        self._holders: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, epoch: int
               ) -> Tuple[str, Optional[CacheEntry]]:
        """Classify ``key`` against ``epoch``: fresh | stale | miss.

        A fresh hit counts toward ``stats.hits``; stale and miss outcomes
        are *not* counted here — the caller decides whether the stale
        entry is actually served (``record_stale_serve``) or replaced by a
        recompute (``stats.misses`` via ``record_miss``).
        """
        entry = self._entries.get(key)
        if entry is None:
            return "miss", None
        self._entries.move_to_end(key)
        if entry.epoch == epoch:
            entry.hits += 1
            self.stats.hits += 1
            return "fresh", entry
        return "stale", entry

    def record_miss(self) -> None:
        self.stats.misses += 1

    def record_stale_serve(self, entry: CacheEntry) -> None:
        entry.stale_hits += 1
        self.stats.stale_serves += 1

    def store(self, key: str, value: Any, epoch: int) -> CacheEntry:
        previous = self._entries.pop(key, None)
        entry = CacheEntry(value=value, epoch=epoch,
                           fills=(previous.fills + 1 if previous else 1))
        self._entries[key] = entry
        self.stats.fills += 1
        while len(self._entries) > self.capacity:
            evicted_key, _ = self._entries.popitem(last=False)
            self._locks.pop(evicted_key, None)
            self.stats.evictions += 1
        return entry

    def lock_for(self, key: str) -> asyncio.Lock:
        """The single-flight lock serializing fills of ``key``."""
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = asyncio.Lock()
        return lock

    @contextlib.asynccontextmanager
    async def single_flight(self, key: str):
        """Hold ``key``'s fill lock for the body of an ``async with``.

        When the last request holding or awaiting the lock leaves and no
        entry was stored under ``key`` (the fill failed), the lock is
        dropped: failing distinct requests must not grow the lock table.
        """
        lock = self.lock_for(key)
        self._holders[key] = self._holders.get(key, 0) + 1
        try:
            async with lock:
                yield
        finally:
            self._holders[key] -= 1
            if not self._holders[key]:
                del self._holders[key]
                if key not in self._entries and self._locks.get(key) is lock:
                    del self._locks[key]

    def to_payload(self) -> Dict[str, Any]:
        return {"entries": len(self._entries),
                "capacity": self.capacity,
                **self.stats.to_payload()}
