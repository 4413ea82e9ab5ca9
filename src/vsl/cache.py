"""Append-only JSON-lines cache of block ranks.

One record per line: {"n", "d", "b", "p", "q", "mdeg": [...], "prime",
"rank"}.  Records are idempotent by key: re-putting an identical rank is a
no-op, a conflicting rank is corruption and raises.  Unreadable lines are
skipped on load and can be moved aside by gc(), which also drops records
for primes outside the pinned list.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .linalg import PINNED_PRIMES

CACHE_FILENAME = "blocks.jsonl"

CacheKey = tuple[int, int, int, int, int, tuple[int, ...], int]


class CacheCorruption(Exception):
    """The same block key carries two different ranks."""


def record_key(rec: dict) -> CacheKey:
    return (
        int(rec["n"]),
        int(rec["d"]),
        int(rec["b"]),
        int(rec["p"]),
        int(rec["q"]),
        tuple(int(x) for x in rec["mdeg"]),
        int(rec["prime"]),
    )


def _read_records(path: str):
    """(line, key, rank) for each non-blank line of a cache file, stripped;
    key and rank are None when the line is not a readable record."""
    with open(path, encoding="utf-8") as fh:
        for line in filter(None, map(str.strip, fh)):
            try:
                rec = json.loads(line)
                key, rank = record_key(rec), int(rec["rank"])
            except (ValueError, KeyError, TypeError):
                key = rank = None
            yield line, key, rank


@dataclass
class BlockCache:
    """In-memory rank table with optional JSONL persistence."""

    path: str | None = None
    ranks: dict[CacheKey, int] = field(default_factory=dict)
    unreadable: int = 0
    # the lines `put` holds inside `appending`, else None
    _held: list[str] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def open(cls, directory: str | None) -> "BlockCache":
        """Cache backed by DIRECTORY/blocks.jsonl, or memory-only for None."""
        if directory is None:
            return cls()
        os.makedirs(directory, exist_ok=True)
        cache = cls(path=os.path.join(directory, CACHE_FILENAME))
        cache._load()
        return cache

    def _load(self) -> None:
        if self.path is None or not os.path.exists(self.path):
            return
        for _line, key, rank in _read_records(self.path):
            if key is None:
                self.unreadable += 1
                continue
            if self.ranks.get(key, rank) != rank:
                raise CacheCorruption(f"conflicting ranks for {key}")
            self.ranks[key] = rank

    def get(self, key: CacheKey) -> int | None:
        return self.ranks.get(key)

    def put(self, key: CacheKey, rank: int) -> None:
        known = self.ranks.get(key)
        if known is not None:
            if known != rank:
                raise CacheCorruption(
                    f"rank {rank} conflicts with cached {known} for {key}"
                )
            return
        self.ranks[key] = rank
        if self.path is not None:
            n, d, b, p, q, mdeg, prime = key
            rec = {
                "n": n, "d": d, "b": b, "p": p, "q": q,
                "mdeg": list(mdeg), "prime": prime, "rank": rank,
            }
            line = json.dumps(rec, separators=(",", ":")) + "\n"
            if self._held is not None:
                self._held.append(line)
            else:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line)

    @contextmanager
    def appending(self):
        """Within the `with`, `put` holds its new records' lines; they are
        appended in order with one open when it ends, by an exception too,
        so the file gets the same bytes as from one open per record."""
        self._held = []
        try:
            yield self
        finally:
            lines, self._held = self._held, None
            if lines:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.writelines(lines)

    def stats(self) -> dict:
        by_table: dict[str, int] = {}
        by_prime: dict[int, int] = {}
        for (n, d, b, _p, _q, _w, prime) in self.ranks:
            label = f"n={n},d={d},b={b}"
            by_table[label] = by_table.get(label, 0) + 1
            by_prime[prime] = by_prime.get(prime, 0) + 1
        return {
            "records": len(self.ranks),
            "by_table": dict(sorted(by_table.items())),
            "by_prime": dict(sorted(by_prime.items())),
            "unreadable_skipped": self.unreadable,
        }


def cache_stats(directory: str) -> dict:
    """`BlockCache.stats` of DIRECTORY/blocks.jsonl, read only: nothing is
    created, and a missing file has zero records."""
    cache = BlockCache(path=os.path.join(directory, CACHE_FILENAME))
    cache._load()
    return cache.stats()


def cache_gc(directory: str, keep_primes=PINNED_PRIMES) -> dict:
    """Compact the cache file: keep well-formed records at kept primes.

    Unreadable lines are appended to blocks.jsonl.quarantine rather than
    dropped silently.  Returns counts of kept / dropped / quarantined.
    """
    path = os.path.join(directory, CACHE_FILENAME)
    if not os.path.exists(path):
        return {"kept": 0, "dropped": 0, "quarantined": 0}
    keep = set(keep_primes)
    kept_lines: list[str] = []
    bad_lines: list[str] = []
    dropped = 0
    seen: dict[CacheKey, int] = {}
    for line, key, rank in _read_records(path):
        if key is None:
            bad_lines.append(line)
            continue
        if key[-1] not in keep:
            dropped += 1
            continue
        if seen.get(key, rank) != rank:
            raise CacheCorruption(f"conflicting ranks for {key}")
        if key in seen:
            dropped += 1
            continue
        seen[key] = rank
        kept_lines.append(line)
    if bad_lines:
        with open(path + ".quarantine", "a", encoding="utf-8") as fh:
            for line in bad_lines:
                fh.write(line + "\n")
        import warnings

        warnings.warn(
            f"cache_gc: {len(bad_lines)} unreadable record(s) moved to quarantine"
        )
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for line in kept_lines:
            fh.write(line + "\n")
    os.replace(tmp, path)
    return {
        "kept": len(kept_lines),
        "dropped": dropped,
        "quarantined": len(bad_lines),
    }
