"""Data-cache models for the section 4.3 ablation experiments.

The paper's core evaluation uses a flat 2-cycle memory; section 4.3
discusses qualitatively how a better cache, a write buffer, or a victim
cache would interact with CCM spilling.  These models turn that prose
into measurable experiments: attach one to the simulator and spill
traffic flows through it (stack spills share the address space with
program data, so they *pollute* the cache), while CCM traffic bypasses
it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    victim_hits: int = 0
    write_buffer_absorbed: int = 0

    @property
    def hit_rate(self) -> float:
        """Raw hit rate: write-buffer-absorbed store misses count as
        misses (they do miss the cache — the buffer hides the latency)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def effective_hit_rate(self) -> float:
        """Hit rate by completion latency: a store miss absorbed by the
        write buffer completes at hit latency, so for the section-4.3
        comparison it behaves like a hit.  Counting it as a miss (as
        ``hit_rate`` does) under-reports the write-buffer ablation's
        effective performance; tables report both."""
        if not self.accesses:
            return 0.0
        return (self.hits + self.write_buffer_absorbed) / self.accesses

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.victim_hits += other.victim_hits
        self.write_buffer_absorbed += other.write_buffer_absorbed


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of a set-associative write-back data cache."""

    size_bytes: int = 8192
    line_bytes: int = 32
    associativity: int = 1
    hit_latency: int = 1
    miss_penalty: int = 10
    # extensions for the section 4.3 ablations
    write_buffer: bool = False        # absorbs store misses at hit latency
    victim_entries: int = 0           # fully associative victim cache lines

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


class DataCache:
    """LRU set-associative cache with optional write buffer / victim cache.

    The model tracks tags only (contents live in the simulator's memory
    image); it returns the latency of each access and keeps hit/miss
    statistics, which is all the experiments need.
    """

    def __init__(self, config: CacheConfig):
        if config.n_sets * config.line_bytes * config.associativity != config.size_bytes:
            raise ValueError("cache size must be sets*lines*assoc")
        self.config = config
        # each set is an LRU-ordered list of tags (most recent last)
        self._sets: List[List[int]] = [[] for _ in range(config.n_sets)]
        self._victim: List[int] = []          # line addresses, LRU order
        self.stats = CacheStats()

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]
        self._victim = []
        self.stats = CacheStats()

    def _locate(self, addr: int):
        line = addr // self.config.line_bytes
        set_index = line % self.config.n_sets
        tag = line // self.config.n_sets
        return line, set_index, tag

    def access(self, addr: int, is_store: bool) -> int:
        """Access one address; returns the latency in cycles."""
        cfg = self.config
        self.stats.accesses += 1
        line, set_index, tag = self._locate(addr)
        ways = self._sets[set_index]

        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return cfg.hit_latency

        # victim cache probe (swap on hit)
        if cfg.victim_entries and line in self._victim:
            self._victim.remove(line)
            self.stats.victim_hits += 1
            self.stats.hits += 1
            self._insert(set_index, tag, line)
            return cfg.hit_latency

        self.stats.misses += 1
        if is_store and cfg.write_buffer:
            # write-buffer absorbs the store miss; line is still allocated
            self.stats.write_buffer_absorbed += 1
            self._insert(set_index, tag, line)
            return cfg.hit_latency
        self._insert(set_index, tag, line)
        return cfg.hit_latency + cfg.miss_penalty

    def _insert(self, set_index: int, tag: int, line: int) -> None:
        cfg = self.config
        ways = self._sets[set_index]
        if len(ways) >= cfg.associativity:
            evicted_tag = ways.pop(0)
            self.stats.evictions += 1
            if cfg.victim_entries:
                evicted_line = evicted_tag * cfg.n_sets + set_index
                self._victim.append(evicted_line)
                if len(self._victim) > cfg.victim_entries:
                    self._victim.pop(0)
        ways.append(tag)
