from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import direct_table, nullity_rank

import vsl
import vsl.koszul
import vsl.linalg

from vsl.bounds import VeroneseParams, binom, green_vanishing_bound, h0
from vsl.betti import (
    BettiTable,
    Engine,
    ResourceLimits,
    ResourceRefusal,
    _rank_group,
    betti_table,
    duality_check,
    euler_check,
)
from vsl.cache import BlockCache
from vsl.cli import main
from vsl.harness import blockwise_rank, verify
from vsl.koszul import (
    BlockKey,
    block_sizes,
    differential_block,
    differential_blocks,
    orbit_reduce,
    space_blocks,
)
from vsl.linalg import PINNED_PRIMES, FieldSpec, PrimeDisagreement
from vsl.syzygy import cycle_basis


def test_line_quadric_single_syzygy(eng):
    assert eng.kpq_dim(VeroneseParams(1, 2), 1, 1) == 1


def test_twisted_cubic_strand(eng):
    pr = VeroneseParams(1, 3)
    assert eng.kpq_dim(pr, 1, 1) == 3
    assert eng.kpq_dim(pr, 2, 1) == 2
    assert eng.kpq_dim(pr, 3, 1) == 0


def test_plane_cubic_first_linear_syzygies(eng):
    # independent count: quadrics through the image minus nothing, i.e.
    # C(10+1, 2) - h0(2, 6) = 55 - 28 = 27
    assert eng.kpq_dim(VeroneseParams(2, 3), 1, 1) == 27


def test_first_syzygy_count_matches_quadric_count(eng):
    for n, d in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
        expected = binom(h0(n, d) + 1, 2) - h0(n, 2 * d)
        assert eng.kpq_dim(VeroneseParams(n, d), 1, 1) == expected


def test_plane_conic_table(eng):
    table = betti_table(VeroneseParams(2, 2), eng)
    assert [table.dim(p, 1) for p in range(0, 5)] == [0, 6, 8, 3, 0]
    assert table.dim(0, 0) == 1
    for (p, q), dim in table.dims.items():
        if p >= 1 and (p, q) not in ((1, 1), (2, 1), (3, 1)):
            assert dim == 0, (p, q)


def test_quartic_line_strand_is_eagon_northcott(eng):
    table = betti_table(VeroneseParams(1, 4), eng, q_range=(1, 1))
    assert [table.dim(p, 1) for p in (1, 2, 3)] == [6, 8, 3]
    for p in range(0, h0(1, 4) + 1):
        assert table.dim(p, 1) == p * binom(4, p + 1)


def test_plane_cubic_top_strand(eng):
    pr = VeroneseParams(2, 3)
    for p in range(0, 7):
        assert eng.kpq_dim(pr, p, 2) == 0
    assert eng.kpq_dim(pr, 7, 2) == 1


def test_duality_spot_checks(eng):
    for pr, p, q, lhs in (
        (VeroneseParams(2, 3), 7, 2, 1),
        (VeroneseParams(1, 3), 1, 1, 3),
        (VeroneseParams(2, 2), 3, 1, 3),
    ):
        out = duality_check(pr, p, q, eng)
        assert out["verdict"] == "CONSISTENT"
        assert out["lhs"] == out["rhs"] == lhs


def test_duality_partner_entry_computed_directly(eng):
    # the partner of the last plane-cubic entry is a strand-1 group with
    # twist -3 whose incoming space vanishes; dimension 1
    assert eng.kpq_dim(VeroneseParams(2, 3, -3), 0, 1) == 1


def test_green_vanishing_verified_twisted_plane(eng):
    # K_{p,1} = 0 from the bound on, and the entry just below it is nonzero
    pr = VeroneseParams(2, 2, -1)
    assert green_vanishing_bound(pr, 1) == 3
    summary = verify(pr, [1], eng).source_summary()
    assert summary["GREEN_VANISHING"] == "VERIFIED"
    assert eng.kpq_dim(pr, 2, 1) != 0


def test_green_vanishing_verified_line_cubic_edge_gap(eng):
    # vanishing holds from the bound, but here the edge below it is zero
    # too: the bound is not tight at these parameters
    pr = VeroneseParams(1, 3)
    assert green_vanishing_bound(pr, 1) == 4
    summary = verify(pr, [1], eng).source_summary()
    assert summary["GREEN_VANISHING"] == "VERIFIED"
    assert eng.kpq_dim(pr, 3, 1) == 0


def test_strand_zero_twisted_kernel_dimensions(eng):
    # strand 0 with twist d-2 = 1: nonzero exactly for p <= h0(2,1) - 1 = 2
    pr = VeroneseParams(2, 2, 1)
    dims = [eng.kpq_dim(pr, p, 0) for p in range(0, h0(2, 2) + 1)]
    assert [bool(v) for v in dims] == [True, True, True, False, False, False, False]


def test_euler_alternating_sums(eng):
    for pr, ks in (
        (VeroneseParams(1, 3), (1, 2, 3)),
        (VeroneseParams(2, 2), (2, 3, 4)),
    ):
        for k in ks:
            out = euler_check(pr, k, eng)
            assert out["verdict"] == "CONSISTENT", out


def test_kpq_out_of_range_indices_are_zero(eng):
    # `block_sizes` and `space_blocks` alone decide that these complexes
    # vanish: at p = -1, at p = h0 + 1 and in negative degree (b = -3,
    # q = 1) every path that ranks or solves in them finds an empty middle
    # space
    pr = VeroneseParams(1, 2)
    negative = VeroneseParams(1, 2, -3)
    for params, p in ((pr, -1), (pr, h0(1, 2) + 1), (negative, 0), (negative, 1)):
        assert eng.kpq_dim(params, p, 1) == 0
        assert eng.direct_dim(params, p, 1) == 0
        assert cycle_basis(params, p, 1, eng) == []
        assert blockwise_rank(params, p, 1, eng.field.p) == 0
    key = BlockKey(1, 2, -3, 1, 1, (0, 0))
    assert differential_block(key).ncols == differential_blocks([key])[0].ncols == 0


def test_resource_refusal_is_loud_and_skipped_in_tables():
    engine = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]),
        limits=ResourceLimits(max_block_cols=1, max_space_dim=10),
    )
    with pytest.raises(ResourceRefusal):
        engine.kpq_dim(VeroneseParams(2, 2), 2, 1)
    assert engine.stats["refusals"] >= 1
    table = betti_table(VeroneseParams(2, 2), engine, (2, 2), (1, 1))
    assert table.status(2, 1) == "SKIPPED"
    assert "ceiling" in table.skipped[(2, 1)]
    assert "?" in table.ascii()
    row = [r for r in table.csv_rows() if r[0] == 2 and r[1] == 1]
    assert row == [(2, 1, "", "SKIPPED")]


def test_table_renderings(eng):
    table = betti_table(VeroneseParams(1, 2), eng)
    text = table.ascii()
    assert text.splitlines()[0].split() == ["0", "1", "2", "3"]
    assert "total:" in text
    payload = table.to_json_dict()
    assert set(payload) == {"params", "field", "entries", "provenance"}
    assert payload["params"] == {"n": 1, "d": 2, "b": 0}
    assert payload["field"] == f"GF({PINNED_PRIMES[0]})"
    entry = next(e for e in payload["entries"] if e["p"] == 1 and e["q"] == 1)
    assert entry["dim"] == 1 and entry["status"] == "NONZERO"
    json.dumps(payload)  # serializable
    rows = table.csv_rows()
    assert rows[0] == ("p", "q", "dim", "status")


def test_dual_prime_agreement_on_small_tables(eng, eng2):
    for n, d in ((1, 3), (2, 2)):
        pr = VeroneseParams(n, d)
        for q in range(0, n + 2):
            for p in range(0, h0(n, d) + 1):
                assert eng.kpq_dim(pr, p, q) == eng2.kpq_dim(pr, p, q)


def test_prime_disagreement_is_raised_not_averaged():
    # poison the cache with a wrong rank at the certification prime: the
    # engine must surface the mismatch, never silently pick a side
    cache = BlockCache()
    engine = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]),
        cache=cache,
        certify_prime=PINNED_PRIMES[1],
    )
    pr = VeroneseParams(1, 2)
    mdeg = max(space_blocks(1, 2, 1, 2))  # (4,0): its own orbit representative
    cache.put((1, 2, 0, 1, 1, mdeg, PINNED_PRIMES[1]), 99)
    with pytest.raises(PrimeDisagreement):
        engine.direct_dim(pr, 1, 1)


def test_certify_prime_must_differ():
    with pytest.raises(ValueError):
        Engine(
            FieldSpec.prime(PINNED_PRIMES[0]),
            certify_prime=PINNED_PRIMES[0],
        )


@pytest.mark.parametrize("bad", [4, 2, 2**31 + 11])
def test_certify_prime_is_checked_at_construction(bad):
    # refused here, not by the first rank inside a pool worker
    with pytest.raises(ValueError, match="FieldSpec"):
        Engine(FieldSpec.prime(PINNED_PRIMES[0]), certify_prime=bad)


def test_rational_certification_path():
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]), rational_cap=2000)
    table = betti_table(VeroneseParams(1, 3), engine)
    assert engine.stats["rational_certified"] > 0
    assert table.dim(1, 1) == 3
    # the provenance flag is reserved for full dual-prime certification; a
    # rational cap only certifies the blocks within it
    assert table.certified is False
    dual = Engine(
        FieldSpec.prime(PINNED_PRIMES[0]), certify_prime=PINNED_PRIMES[1]
    )
    assert betti_table(VeroneseParams(1, 3), dual).certified is True


def test_rational_cap_certifies_every_block_and_matches_prime_engine(eng):
    # no (1,3) block is wider than 6, so a cap of 10 certifies every rank
    # over the rationals; direct_dim ranks every entry's own complex
    engine_q = Engine(FieldSpec.prime(PINNED_PRIMES[0]), rational_cap=10)
    pr = VeroneseParams(1, 3)
    for q in (0, 1, 2):
        for p in range(0, h0(1, 3) + 1):
            assert engine_q.direct_dim(pr, p, q) == eng.kpq_dim(pr, p, q)
    assert engine_q.stats["blocks_ranked"] > 0
    assert engine_q.stats["rational_certified"] == engine_q.stats["blocks_ranked"]


def test_threaded_engine_matches_serial(eng):
    pr = VeroneseParams(2, 2)
    with Engine(FieldSpec.prime(PINNED_PRIMES[0]), threads=2) as threaded:
        for q in (1, 2):
            for p in range(0, 7):
                assert threaded.kpq_dim(pr, p, q) == eng.kpq_dim(pr, p, q)
    # outside `with` a threaded engine refuses to rank, cached or not: it
    # neither opens a pool of its own nor falls back to serial
    for cache in (threaded.cache, BlockCache()):
        idle = Engine(FieldSpec.prime(PINNED_PRIMES[0]), cache=cache, threads=2)
        with pytest.raises(RuntimeError, match=r"Engine\(threads=2\) ranks only inside"):
            idle.kpq_dim(pr, 2, 1)


@pytest.mark.parametrize("max_block_cols", [None, 20])
def test_pipelined_table_matches_entry_by_entry(tmp_path, max_block_cols):
    # betti_table submits every entry before it collects any.  In the full
    # (2,3) table K_{p,0}'s out-blocks are K_{p-1,1}'s in-blocks, so later
    # entries find keys an earlier pending entry is ranking: every cache hit
    # of a cold run is one.  A 20-column ceiling refuses entries mid-window.
    # At 1 and 2 threads the table, the cache bytes and the stats equal those
    # of ranking the entries one by one, each stored before the next starts
    limits = ResourceLimits() if max_block_cols is None else ResourceLimits(max_block_cols)
    params = VeroneseParams(2, 3)

    def engine(name, threads=1):
        cache = BlockCache.open(str(tmp_path / name))
        return Engine(FieldSpec.prime(PINNED_PRIMES[0]), cache, limits, threads)

    one_by_one = engine("reference")
    expected = BettiTable(params, one_by_one.field, primes=one_by_one.primes)
    for q in range(params.n + 2):
        for p in range(h0(2, 3) + 1):
            try:
                plan = one_by_one._route(params, p, q)
            except ResourceRefusal as refusal:
                expected.skipped[(p, q)] = str(refusal)
                continue
            expected.dims[(p, q)] = one_by_one._dims([plan])[0]
            if plan.via is not None:
                expected.via[(p, q)] = plan.via
    assert one_by_one.stats["cache_hits"] > 0
    assert bool(expected.skipped) == (max_block_cols is not None)
    with open(tmp_path / "reference" / "blocks.jsonl", "rb") as fh:
        expected_bytes = fh.read()
    for threads in (1, 2):
        with engine(f"t{threads}", threads) as pipelined:
            table = betti_table(params, pipelined)
        assert table.to_json_dict() == expected.to_json_dict()
        assert pipelined.stats == one_by_one.stats
        with open(tmp_path / f"t{threads}" / "blocks.jsonl", "rb") as fh:
            assert fh.read() == expected_bytes


@pytest.mark.parametrize("max_block_cols", [None, 20])
@pytest.mark.parametrize("strands", [[1, 2], [2, 1]])
def test_verify_plans_across_strands(tmp_path, strands, max_block_cols):
    # verify ranks all its strands through one engine run, so the later
    # strand's entries find keys the earlier strand's are still ranking.
    # At 1 and 2 threads the report, the cache bytes and the stats equal
    # those of verifying one strand at a time, each stored before the next
    limits = ResourceLimits() if max_block_cols is None else ResourceLimits(max_block_cols)
    params = VeroneseParams(2, 3)

    def engine(name, threads=1):
        cache = BlockCache.open(str(tmp_path / name))
        return Engine(FieldSpec.prime(PINNED_PRIMES[0]), cache, limits, threads)

    one_by_one = engine("reference")
    reports = [verify(params, [q], one_by_one) for q in strands]
    expected = reports[0]
    expected.strands = strands
    expected.rows = [row for report in reports for row in report.rows]
    assert one_by_one.stats["cache_hits"] > 0
    with open(tmp_path / "reference" / "blocks.jsonl", "rb") as fh:
        expected_bytes = fh.read()
    for threads in (1, 2):
        with engine(f"t{threads}", threads) as planned:
            report = verify(params, strands, planned)
        assert report.to_json_dict() == expected.to_json_dict()
        assert planned.stats == one_by_one.stats
        with open(tmp_path / f"t{threads}" / "blocks.jsonl", "rb") as fh:
            assert fh.read() == expected_bytes


def test_partly_warm_cache_across_pipelined_plans(tmp_path):
    # strands 1-2 ranked uncertified leave every key cached at the primary
    # prime.  A certified verify of them reads each of those as a cache hit
    # and ranks the second prime alone, keys that an earlier pending plan
    # ranks included, with the same report, stats and cache bytes at 1 and
    # 2 threads; a poisoned primary record still raises
    params = VeroneseParams(2, 3)
    field = FieldSpec.prime(PINNED_PRIMES[0])
    verify(params, [1, 2], Engine(field, BlockCache.open(str(tmp_path / "seed"))))
    seeded = (tmp_path / "seed" / "blocks.jsonl").read_bytes()
    known = BlockCache.open(str(tmp_path / "seed")).ranks

    def run(name, threads, records):
        (tmp_path / name).mkdir()
        (tmp_path / name / "blocks.jsonl").write_bytes(records)
        cache = BlockCache.open(str(tmp_path / name))
        with Engine(field, cache, threads=threads, certify_prime=PINNED_PRIMES[1]) as engine:
            report = verify(params, [1, 2], engine)
        return report.to_json_dict(), engine.stats, (tmp_path / name / "blocks.jsonl").read_bytes()

    runs = [run(f"t{threads}", threads, seeded) for threads in (1, 2)]
    assert runs[0] == runs[1]
    stats = runs[0][1]
    fresh = [key for key in BlockCache.open(str(tmp_path / "t1")).ranks if key not in known]
    assert {key[-1] for key in fresh} == {PINNED_PRIMES[1]}
    assert len(fresh) == stats["blocks_ranked"]
    assert stats["blocks_ranked"] + stats["cache_hits"] == 2 * stats["dual_prime_checks"]
    assert stats["cache_hits"] > stats["dual_prime_checks"]
    *head, last = seeded.decode().splitlines()
    record = json.loads(last)
    record["rank"] += 1
    poisoned = "\n".join([*head, json.dumps(record, separators=(",", ":"))]) + "\n"
    for threads in (1, 2):
        with pytest.raises(PrimeDisagreement):
            run(f"poisoned-t{threads}", threads, poisoned.encode())


@pytest.mark.parametrize("threads", [1, 2])
def test_engine_enumerates_no_whole_space(monkeypatch, threads):
    # the engine plans from block sizes and assembles each share's blocks
    # from their slices: planning and ranking the (2,4) linear strand,
    # serially or in a pool (whose workers are forked with the patch in
    # place), never calls space_blocks
    def refused(*args):
        raise AssertionError(f"space_blocks{args} was called")

    monkeypatch.setattr(vsl.koszul, "space_blocks", refused)
    with Engine(FieldSpec.prime(PINNED_PRIMES[0]), threads=threads) as engine:
        assert engine.direct_dim(VeroneseParams(2, 4), 5, 1) == 7095
        table = betti_table(VeroneseParams(2, 4), engine, q_range=(1, 1))
    assert engine.stats["blocks_ranked"] > 0
    assert table.dims[(5, 1)] == 7095 and not table.skipped


def _record_ranks(monkeypatch):
    """Record the blocks `vsl.linalg` ranks as (alone, batched): the blocks
    given to `sparse_rank`, and those given to `sparse_ranks` from
    anywhere but `sparse_rank`, which reaches the rounds kernel as a
    one-block `sparse_ranks`."""
    alone, batched, ranking = [], [], []
    real_rank, real_ranks = vsl.linalg.sparse_rank, vsl.linalg.sparse_ranks

    def rank(block, field):
        alone.append(block)
        ranking.append(block)
        try:
            return real_rank(block, field)
        finally:
            ranking.pop()

    def ranks(blocks, field):
        if not ranking:
            batched.extend(blocks)
        return real_ranks(blocks, field)

    monkeypatch.setattr(vsl.linalg, "sparse_rank", rank)
    monkeypatch.setattr(vsl.linalg, "sparse_ranks", ranks)
    return alone, batched


def test_rank_jobs_go_out_largest_first(monkeypatch):
    # jobs are assembled and ranked by descending mid-slice size (an
    # out-block's columns, an in-block's rows), ties in key order, also
    # inside a batch; ranks are stored in `keys` order
    params, p, q = VeroneseParams(2, 4), 5, 1
    mid = block_sizes(2, 4, p, q * 4)
    jobs = []
    real_blocks = vsl.betti.differential_blocks

    def recording_blocks(keys):
        jobs.extend(keys)
        return real_blocks(keys)

    monkeypatch.setattr(vsl.betti, "differential_blocks", recording_blocks)
    _, batched_blocks = _record_ranks(monkeypatch)
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]))
    assert engine.direct_dim(params, p, q) == 7095
    batched = [block.key for block in batched_blocks]
    assert mid[jobs[0].mdeg] == max(mid.values())
    assert jobs == sorted(jobs, key=lambda key: (-mid[key.mdeg], key))
    assert batched and batched == [key for key in jobs if key in batched]
    reps = [rep for rep, _ in orbit_reduce(mid)]
    stored = [(key[3], key[4], key[5]) for key in engine.cache.ranks]
    assert stored == [(p, q, rep) for rep in reps] + [(p + 1, q - 1, rep) for rep in reps]
    assert stored != [(key.p, key.q, key.mdeg) for key in jobs]


def test_rank_jobs_run_no_primality_test(monkeypatch):
    # the engine checks its primes once, when it is built: ranking every
    # block of an entry at two primes runs Miller-Rabin no more
    engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]), certify_prime=PINNED_PRIMES[1])
    calls = []
    real = vsl.linalg.is_prime
    monkeypatch.setattr(vsl.linalg, "is_prime", lambda p: calls.append(p) or real(p))
    assert engine.direct_dim(VeroneseParams(2, 3), 4, 1) > 0
    assert engine.stats["dual_prime_checks"] > 0
    assert calls == []


@pytest.mark.parametrize("window", [((2, 3), (None, None)), ((2, 4), (1, 1))])
def test_batched_ranks_match_per_block_ranks(tmp_path, monkeypatch, window):
    # a run that certifies nothing ranks every block, whatever its size, in
    # batches, none by a per-block `sparse_rank` call; at 1 and 2 threads
    # its report, stats and cache bytes equal those of ranking every block
    # on its own
    (n, d), q_range = window
    params = VeroneseParams(n, d)

    def run(name, threads):
        cache = BlockCache.open(str(tmp_path / name))
        with Engine(FieldSpec.prime(PINNED_PRIMES[0]), cache, threads=threads) as engine:
            table = betti_table(params, engine, q_range=q_range)
        blocks = (tmp_path / name / "blocks.jsonl").read_bytes()
        return table.to_json_dict(), engine.stats, blocks

    # the reference ranks every block on its own by rank-nullity
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            vsl.linalg, "sparse_ranks", lambda blocks, f: [nullity_rank(b, f.p) for b in blocks]
        )
        per_block = run("per-block", 1)
    single, batched = _record_ranks(monkeypatch)
    assert run("t1", 1) == per_block
    assert single == [] and len(batched) == per_block[1]["blocks_ranked"]
    assert run("t2", 2) == per_block


def test_batches_flush_at_batch_max_nnz(tmp_path, monkeypatch):
    # with a small batch bound one share flushes several batches, each as
    # its entries reach the bound and the last at the end of the share, and
    # no rank changes: neither the share's nor a table's
    field = FieldSpec.prime(PINNED_PRIMES[0])

    def run(name):
        engine = Engine(field, BlockCache.open(str(tmp_path / name)))
        table = betti_table(VeroneseParams(2, 3), engine)
        return table.to_json_dict(), engine.stats, (tmp_path / name / "blocks.jsonl").read_bytes()

    # K_{5,1}: 40 blocks, 3,323 entries, the largest 555
    keys = list(Engine(field)._plan(VeroneseParams(2, 3), 5, 1).sizes())
    needs = [(field,)] * len(keys)
    whole = run("whole"), _rank_group(keys, needs, None)
    batches = []
    real = vsl.linalg.sparse_ranks

    def ranks(blocks, field):
        batches.append([block.vals.size for block in blocks])
        return real(blocks, field)

    monkeypatch.setattr(vsl.linalg, "sparse_ranks", ranks)
    monkeypatch.setattr(vsl.linalg, "BATCH_MAX_NNZ", 1000)
    assert run("flushed") == whole[0]
    batches.clear()
    assert _rank_group(keys, needs, None) == whole[1]
    assert len(batches) >= 3 and sum(map(len, batches)) == len(keys)
    for batch in batches[:-1]:
        assert sum(batch[:-1]) < 1000 <= sum(batch)
    assert 0 < sum(batches[-1]) < 1000


def test_batch_ranks_a_key_only_at_the_primes_it_needs(monkeypatch):
    # a key cached at the first prime needs only the second: it is batched
    # for that prime alone, and its result holds that prime alone
    fields = tuple(FieldSpec.prime(prime) for prime in PINNED_PRIMES[:2])
    keys = list(Engine(fields[0])._plan(VeroneseParams(2, 3), 3, 1).sizes())
    calls = []
    real = vsl.linalg.sparse_ranks

    def ranks(blocks, field):
        calls.append((field.p, [block.key for block in blocks]))
        return real(blocks, field)

    monkeypatch.setattr(vsl.linalg, "sparse_ranks", ranks)
    needs = [fields[1:] if i % 2 else fields for i in range(len(keys))]
    ranked = _rank_group(keys, needs, None)
    assert calls == [
        (fields[0].p, keys[::2]),
        (fields[1].p, keys),
    ]
    assert list(ranked) == keys
    for key, need in zip(keys, needs):
        ranks_of_key, exact = ranked[key]
        assert list(ranks_of_key) == [field.p for field in need] and exact is None
        assert len(set(ranks_of_key.values())) == 1


def _cubic_table(cache_dir, build=betti_table, **engine_options):
    """The (2,3) table built by `betti_table` or `direct_table`."""
    with Engine(
        FieldSpec.prime(PINNED_PRIMES[0]), cache=BlockCache.open(cache_dir), **engine_options
    ) as engine:
        return engine, build(VeroneseParams(2, 3), engine)


def _pooled_matches_serial(tmp_path, serial_run, build=betti_table, **engine_options):
    """Rerun the (2,3) table in a pool: the report, the cache contents in
    order, the cache file and the engine stats must equal the serial run's."""
    serial_engine, serial = serial_run
    pooled_engine, pooled = _cubic_table(tmp_path / "pooled", build, threads=2, **engine_options)
    assert pooled.to_json_dict() == serial.to_json_dict()
    assert pooled_engine.stats == serial_engine.stats
    assert list(pooled_engine.cache.ranks.items()) == list(serial_engine.cache.ranks.items())
    files = [tmp_path / side / "blocks.jsonl" for side in ("serial", "pooled")]
    assert files[0].read_bytes() == files[1].read_bytes()


def test_threaded_engine_enforces_block_ceiling(tmp_path):
    limits = ResourceLimits(max_block_cols=20)
    skipped = {}
    for name, build, count in (("direct", direct_table, 23), ("routed", betti_table, 5)):
        serial_run = _cubic_table(tmp_path / name / "serial", build, limits=limits)
        skipped[name] = set(serial_run[1].skipped)
        assert len(skipped[name]) == count
        _pooled_matches_serial(tmp_path / name, serial_run, build, limits=limits)
    # routing never skips an entry the direct complex computes
    assert skipped["routed"] <= skipped["direct"]


def test_refused_side_ranks_no_block_whatever_the_cache_holds():
    # the column ceiling is decided from block sizes before any rank, for
    # out-blocks (K_{3,1}) and in-blocks (K_{0,2}) alike: a refused complex
    # ranks and stores nothing, and a cache filled without the ceiling
    # does not lift the refusal
    cubic = VeroneseParams(2, 3)
    for p, q, cols, message in (
        (3, 1, 20, "block BlockKey(n=2, d=3, b=0, p=3, q=1, mdeg=(6, 4, 2)) "
         "has 30 columns (ceiling 20)"),
        (0, 2, 6, "block BlockKey(n=2, d=3, b=0, p=1, q=1, mdeg=(2, 2, 2)) "
         "has 7 columns (ceiling 6)"),
    ):
        engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]), limits=ResourceLimits(cols))
        for warm in (False, True):
            with pytest.raises(ResourceRefusal) as refusal:
                engine.direct_dim(cubic, p, q)
            assert str(refusal.value) == message
            assert engine.stats["blocks_ranked"] == engine.stats["cache_hits"] == 0
            if not warm:
                assert not engine.cache.ranks
                Engine(engine.field, cache=engine.cache).direct_dim(cubic, p, q)
                assert engine.cache.ranks
        assert engine.stats["refusals"] == 2


def test_threaded_engine_certifies_over_rationals(tmp_path):
    for certify_prime, certified in ((None, 953), (PINNED_PRIMES[1], 2 * 953)):
        options = dict(rational_cap=2000, certify_prime=certify_prime)
        run_dir = tmp_path / str(certify_prime)
        calls = {"rational_rank": [], "differential_blocks": []}

        def counting(module, name, keys_of):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name].extend(keys_of(args[0]))
                return real(*args, **kwargs)
            return counted

        with pytest.MonkeyPatch.context() as mp:
            for module, name, keys_of in (
                (vsl.linalg, "rational_rank", lambda block: [block.key]),
                (vsl.betti, "differential_blocks", list),
            ):
                mp.setattr(module, name, counting(module, name, keys_of))
            serial_run = _cubic_table(run_dir / "serial", direct_table, **options)
        # one assembly and one rational elimination per distinct block,
        # however many primes rank it; each stored rank of it is certified
        for keys in calls.values():
            assert keys and len(keys) == len(set(keys))
        assert len(calls["rational_rank"]) == 953
        assert serial_run[0].stats["rational_certified"] == certified
        _pooled_matches_serial(run_dir, serial_run, direct_table, **options)


def test_certified_blocks_pass_through_the_traced_rank_call(tmp_path, monkeypatch):
    # what the benchmark's certified share counts: in a serial certifying
    # verify, every block ranked over QQ was ranked by a call of
    # vsl.linalg.sparse_rank(block, field), once per field, on a block that
    # carries .key, .nrows and .ncols
    prime_calls, rational_keys = [], []
    real_sparse, real_rational = vsl.linalg.sparse_rank, vsl.linalg.rational_rank

    def sparse(block, field):
        prime_calls.append((block.key, block.nrows, block.ncols, field.p))
        return real_sparse(block, field)

    def rational(block, *args, **kwargs):
        rational_keys.append(block.key)
        return real_rational(block, *args, **kwargs)

    monkeypatch.setattr(vsl.linalg, "sparse_rank", sparse)
    monkeypatch.setattr(vsl.linalg, "rational_rank", rational)
    argv = ["verify", "--n", "2", "--d", "3", "--strands", "1,2", "--certify", "--format", "json"]
    assert main([*argv, "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]) == 0
    primes = sorted({prime for *_, prime in prime_calls})
    assert len(primes) == 2
    per_key: dict = {}
    for key, nrows, ncols, prime in prime_calls:
        assert isinstance(nrows, int) and isinstance(ncols, int)
        per_key.setdefault(key, []).append(prime)
    assert rational_keys
    for key in rational_keys:
        assert sorted(per_key[key]) == primes, key


def test_invariant_checks_survive_optimized_mode():
    # `python -O` strips asserts; an overcounted batched rank must still be
    # refused, and so must a kernel that credits a block more pivots than
    # it has rows or columns
    script = textwrap.dedent("""
        import numpy as np
        import vsl.linalg as linalg
        from vsl import Engine, FieldSpec, InvariantViolation, PINNED_PRIMES, VeroneseParams
        from vsl.koszul import BlockKey, KoszulBlockMatrix
        real = linalg.sparse_ranks
        linalg.sparse_ranks = lambda blocks, field: [rank + 1 for rank in real(blocks, field)]
        engine = Engine(FieldSpec.prime(PINNED_PRIMES[0]))
        try:
            engine.kpq_dim(VeroneseParams(1, 3), 1, 1)
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)
        kernel = linalg._round_elimination
        linalg._round_elimination = lambda *args: np.repeat(kernel(*args), 2)
        block = KoszulBlockMatrix.from_entries(
            BlockKey(1, 1, 0, 1, 1, (0, 0)), 2, 3, [(0, 0, 1), (1, 2, 1)]
        )
        try:
            real([block], engine.field)
        except InvariantViolation as exc:
            print("InvariantViolation:", exc)
        print("debug" if __debug__ else "optimized")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(vsl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "optimized"
    assert lines[0].startswith("InvariantViolation: negative homology")
    assert lines[1] == "InvariantViolation: sparse_ranks: rank 4 of a 2x3 block"
