from __future__ import annotations

import json
import os

import pytest

from conftest import direct_table

from vsl.bounds import VeroneseParams, h0
from vsl.betti import Engine, betti_table
from vsl.cache import BlockCache, CacheCorruption, cache_gc, cache_stats
from vsl.koszul import orbit_reduce, space_blocks
from vsl.linalg import PINNED_PRIMES, FieldSpec

P1, P2 = PINNED_PRIMES[0], PINNED_PRIMES[1]


def expected_block_keys(params: VeroneseParams) -> set[tuple]:
    """Every cache key `direct_table` must touch, enumerated directly."""
    n, d, b = params.n, params.d, params.b
    keys = set()
    for q in range(0, n + 2):
        for p in range(0, h0(n, d) + 1):
            m_mid = b + q * d
            if p < 0 or p > h0(n, d) or m_mid < 0:
                continue
            mid = space_blocks(n, d, p, m_mid)
            if not mid:
                continue
            reps = [rep for rep, _ in orbit_reduce(mid.keys())]
            if p >= 1:
                keys.update((n, d, b, p, q, rep) for rep in reps)
            if b + (q - 1) * d >= 0 and p + 1 <= h0(n, d):
                keys.update((n, d, b, p + 1, q - 1, rep) for rep in reps)
    return keys


def test_empty_directory_has_zero_records(tmp_path):
    assert cache_stats(str(tmp_path))["records"] == 0


def test_stats_are_read_only(tmp_path):
    # reading the stats of a directory that does not exist creates nothing
    missing = tmp_path / "missing"
    assert cache_stats(str(missing))["records"] == 0
    assert not missing.exists()


def test_record_count_matches_block_enumeration(tmp_path):
    cache = BlockCache.open(str(tmp_path))
    engine = Engine(FieldSpec.prime(P1), cache=cache)
    params = VeroneseParams(2, 2)
    direct_table(params, engine)
    stats = cache.stats()
    expected = expected_block_keys(params)
    assert stats["records"] == len(expected)
    assert set(cache.ranks) == {key + (P1,) for key in expected}
    assert stats["by_table"] == {"n=2,d=2,b=0": len(expected)}


def test_two_primes_give_two_records_per_block(tmp_path):
    params = VeroneseParams(1, 3)
    for prime in (P1, P2):
        engine = Engine(FieldSpec.prime(prime), cache=BlockCache.open(str(tmp_path)))
        direct_table(params, engine)
    stats = cache_stats(str(tmp_path))
    per_key = len(expected_block_keys(params))
    assert stats["by_prime"] == {P1: per_key, P2: per_key}
    assert stats["records"] == 2 * per_key


def test_rerun_is_warm_and_file_is_byte_identical(tmp_path):
    params = VeroneseParams(2, 2)
    engine = Engine(FieldSpec.prime(P1), cache=BlockCache.open(str(tmp_path)))
    betti_table(params, engine)
    path = os.path.join(str(tmp_path), "blocks.jsonl")
    with open(path, "rb") as fh:
        before = fh.read()
    engine2 = Engine(FieldSpec.prime(P1), cache=BlockCache.open(str(tmp_path)))
    table2 = betti_table(params, engine2)
    assert engine2.stats["blocks_ranked"] == 0
    assert engine2.stats["cache_hits"] > 0
    assert table2.dim(1, 1) == 6
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_conflicting_rank_raises_on_put_and_on_load(tmp_path):
    cache = BlockCache.open(str(tmp_path))
    key = (1, 2, 0, 1, 1, (2, 2), P1)
    cache.put(key, 1)
    cache.put(key, 1)  # idempotent
    with pytest.raises(CacheCorruption):
        cache.put(key, 2)
    # a conflicting line on disk is corruption at load time too
    rec = {"n": 1, "d": 2, "b": 0, "p": 1, "q": 1, "mdeg": [2, 2], "prime": P1, "rank": 5}
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.raises(CacheCorruption):
        BlockCache.open(str(tmp_path))


def test_unreadable_lines_are_skipped_and_counted(tmp_path):
    cache = BlockCache.open(str(tmp_path))
    cache.put((1, 2, 0, 1, 1, (2, 2), P1), 1)
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write('{"n": 1, "missing": "fields"}\n')
    reopened = BlockCache.open(str(tmp_path))
    assert reopened.unreadable == 2
    assert reopened.get((1, 2, 0, 1, 1, (2, 2), P1)) == 1
    assert reopened.stats()["unreadable_skipped"] == 2


def test_gc_quarantines_junk_and_drops_foreign_primes(tmp_path):
    cache = BlockCache.open(str(tmp_path))
    cache.put((1, 2, 0, 1, 1, (2, 2), P1), 1)
    cache.put((1, 2, 0, 1, 1, (3, 1), P1), 2)
    foreign = {"n": 1, "d": 2, "b": 0, "p": 1, "q": 1, "mdeg": [2, 2],
               "prime": 1009, "rank": 1}
    dup = {"n": 1, "d": 2, "b": 0, "p": 1, "q": 1, "mdeg": [2, 2],
           "prime": P1, "rank": 1}
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(foreign) + "\n")
        fh.write(json.dumps(dup) + "\n")
        fh.write("###corrupt###\n")
    with pytest.warns(UserWarning, match="quarantine"):
        summary = cache_gc(str(tmp_path))
    assert summary == {"kept": 2, "dropped": 2, "quarantined": 1}
    quarantine = cache.path + ".quarantine"
    with open(quarantine, encoding="utf-8") as fh:
        assert fh.read() == "###corrupt###\n"
    stats = cache_stats(str(tmp_path))
    assert stats["records"] == 2
    assert list(stats["by_prime"]) == [P1]


def test_gc_on_missing_directory_file(tmp_path):
    assert cache_gc(str(tmp_path)) == {"kept": 0, "dropped": 0, "quarantined": 0}


def test_memory_only_cache():
    cache = BlockCache.open(None)
    cache.put((1, 2, 0, 1, 1, (2, 2), P1), 1)
    assert cache.get((1, 2, 0, 1, 1, (2, 2), P1)) == 1
    assert cache.path is None


def test_a_plan_appends_its_new_records_with_one_open(tmp_path, monkeypatch):
    # a certified full (2,3) table opens the cache file once per entry
    # that stores records, and writes the bytes of one open per record; an
    # entry that raises midway still appends the records it stored first
    import vsl.cache
    from vsl.linalg import PrimeDisagreement

    opens = []
    monkeypatch.setattr(
        vsl.cache, "open", lambda *a, **kw: opens.append(a[1:2]) or open(*a, **kw), raising=False
    )
    params, field = VeroneseParams(2, 3), FieldSpec.prime(P1)
    cache = BlockCache.open(str(tmp_path / "plans"))
    betti_table(params, Engine(field, cache, certify_prime=P2))
    planner, seen, storing = Engine(field), set(), 0
    for q in range(params.n + 2):
        for p in range(h0(params.n, params.d) + 1):
            keys = set(planner._route(params, p, q).sizes())
            storing += bool(keys - seen)
            seen |= keys
    assert opens.count(("a",)) == storing < len(cache.ranks) / 10
    reference = BlockCache.open(str(tmp_path / "records"))
    for key, rank in cache.ranks.items():
        reference.put(key, rank)
    with open(cache.path, "rb") as fh, open(reference.path, "rb") as ref:
        assert fh.read() == ref.read()

    cache = BlockCache.open(str(tmp_path / "raised"))
    *stored, last = Engine(field)._plan(params, 3, 1).sizes()
    cache.put((*last[:5], last.mdeg, P2), 10**6)
    with pytest.raises(PrimeDisagreement):
        Engine(field, cache, certify_prime=P2).direct_dim(params, 3, 1)
    assert len(cache.ranks) == 2 * len(stored) + 2
    assert list(BlockCache.open(str(tmp_path / "raised")).ranks.items()) == list(cache.ranks.items())
