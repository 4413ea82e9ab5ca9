from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb

import numpy as np

import pytest

import vsl.koszul
from vsl.betti import Engine, _side, betti_table
from vsl.bounds import InvariantViolation, VeroneseParams, h0
from vsl.harness import blockwise_rank, dense_differential
from vsl.koszul import (
    BlockKey,
    block_sizes,
    combination_rank,
    differential_block,
    differential_blocks,
    orbit_reduce,
    orbit_rep,
    space_blocks,
    space_dim,
    wedge_subsets,
)
from vsl.linalg import FieldSpec, dense_rank_mod, sparse_rank
from vsl.polyspace import monomial_basis, mult_table

PRIME = 2147483647
FIELD = FieldSpec.prime(PRIME)


def brute_force_blocks(n: int, d: int, p: int, m: int) -> Counter:
    """Multidegree block sizes by direct enumeration of basis elements."""
    basis_d = monomial_basis(n, d)
    sizes: Counter = Counter()
    for sub in itertools.combinations(range(len(basis_d)), p):
        for mono in monomial_basis(n, m):
            w = list(mono)
            for i in sub:
                for c, e in enumerate(basis_d[i]):
                    w[c] += e
            sizes[tuple(w)] += 1
    return sizes


def test_space_blocks_line_quadric():
    blocks = space_blocks(1, 2, 1, 2)
    got = {mdeg: len(entry[0]) for mdeg, entry in blocks.items()}
    assert got == {(4, 0): 1, (3, 1): 2, (2, 2): 3, (1, 3): 2, (0, 4): 1}
    assert sum(got.values()) == 9 == space_dim(1, 2, 1, 2)


def test_space_blocks_degree_zero_coefficients():
    blocks = space_blocks(1, 2, 0, 0)
    assert {mdeg: len(e[0]) for mdeg, e in blocks.items()} == {(0, 0): 1}


def test_space_blocks_empty_for_negative_degree():
    assert space_blocks(1, 2, 1, -2) == {}


def loop_space_blocks(n: int, d: int, p: int, m: int) -> dict:
    """Reference space_blocks: decodes each block's multidegree by divmod."""
    mons = monomial_basis(n, m)
    if p < 0 or p > h0(n, d) or not mons:
        return {}
    _, weights = wedge_subsets(n, d, p)
    total = p * d + m
    powers = (total + 1) ** np.arange(n + 1, dtype=np.int64)
    mon_w = np.array(mons, dtype=np.int64).reshape(len(mons), n + 1)
    enc = ((weights @ powers)[:, None] + (mon_w @ powers)[None, :]).ravel()
    order = np.argsort(enc, kind="stable")
    enc_sorted = enc[order]
    cuts = np.nonzero(np.diff(enc_sorted))[0] + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [len(enc_sorted)]])
    blocks = {}
    for s, e in zip(starts, ends):
        code = int(enc_sorted[s])
        mdeg = []
        for _ in range(n + 1):
            code, rem = divmod(code, total + 1)
            mdeg.append(rem)
        idx = order[s:e]
        blocks[tuple(mdeg)] = (
            (idx // len(mons)).astype(np.int64),
            (idx % len(mons)).astype(np.int64),
        )
    return blocks


def pinned_table_spaces() -> list[tuple[int, int, int, int]]:
    """(n, d, p, m) of the in, middle and out spaces of every complex the
    engine ranks for the pinned tables: (2,3) at b = 0 and -1, (1,4),
    (2,4) strands 1-2, the (2,5) linear strand at p = 16..21 and the (3,2)
    linear strand."""
    tables = (
        ((2, 3, 0), range(4), None), ((2, 3, -1), range(4), None),
        ((1, 4, 0), range(3), None), ((2, 4, 0), (1, 2), None),
        ((2, 5, 0), (1,), range(16, 22)), ((3, 2, 0), (1,), None),
    )
    spaces = set()
    for (n, d, b), qs, ps in tables:
        for q in qs:
            for p in ps if ps is not None else range(h0(n, d) + 1):
                params, p2, q2 = _side(VeroneseParams(n, d, b), p, q)
                for k in (-1, 0, 1):
                    spaces.add((n, d, p2 + k, params.b + (q2 - k) * d))
    return sorted(spaces)


def test_space_blocks_match_the_divmod_loop_on_the_pinned_tables():
    # and on two (3,2) spaces on either side of 256 blocks
    sides = [(3, 2, 8, 4), (3, 2, 3, 4)]
    assert [len(space_blocks(*space)) for space in sides] == [249, 258]
    for space in pinned_table_spaces() + sides:
        want = loop_space_blocks(*space)
        got = space_blocks(*space)
        assert list(got) == list(want), space
        for mdeg, arrays in want.items():
            for a, b in zip(got[mdeg], arrays):
                assert a.dtype == b.dtype and np.array_equal(a, b), (space, mdeg)


def test_space_blocks_match_enumeration():
    for n, d, p, m in ((1, 2, 1, 2), (1, 3, 2, 3), (2, 2, 2, 2), (2, 2, 3, 4)):
        blocks = space_blocks(n, d, p, m)
        got = {mdeg: len(entry[0]) for mdeg, entry in blocks.items()}
        assert got == dict(brute_force_blocks(n, d, p, m))


def test_block_elements_have_the_advertised_multidegree():
    n, d, p, m = 2, 2, 2, 2
    subs, _ = wedge_subsets(n, d, p)
    basis_d = monomial_basis(n, d)
    mons = monomial_basis(n, m)
    for mdeg, (sub_idx, mon_idx) in space_blocks(n, d, p, m).items():
        for si, ui in zip(sub_idx, mon_idx):
            w = list(mons[ui])
            for i in subs[si]:
                for c, e in enumerate(basis_d[i]):
                    w[c] += e
            assert tuple(w) == mdeg


def test_differential_block_line_quadric_hand_check():
    # at multidegree (2,2) the three source elements {x^2}(x)y^2,
    # {xy}(x)xy, {y^2}(x)x^2 all map to the single target x^2y^2 with +1
    block = differential_block(BlockKey(1, 2, 0, 1, 1, (2, 2)))
    assert (block.nrows, block.ncols) == (1, 3)
    assert sorted(block.entries) == [(0, 0, 1), (0, 1, 1), (0, 2, 1)]
    assert sparse_rank(block, FIELD) == 1


def test_differential_block_rejects_p_zero():
    # the p = 0 map is identically zero and is handled by callers, not here
    with pytest.raises(ValueError, match="need p >= 1"):
        differential_block(BlockKey(1, 2, 0, 0, 1, (2, 0)))


def test_columns_have_p_unit_entries():
    for mdeg in space_blocks(2, 2, 2, 2):
        block = differential_block(BlockKey(2, 2, 0, 2, 1, mdeg))
        per_col = Counter(c for _, c, _ in block.entries)
        assert all(count == 2 for count in per_col.values())
        assert set(per_col) == set(range(block.ncols))
        assert all(v in (1, -1) for _, _, v in block.entries)


@lru_cache(maxsize=None)
def _combinations(size: int, k: int) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """The k-subsets of range(size) in `itertools.combinations` order, and
    each subset's position in that list."""
    subs = list(itertools.combinations(range(size), k))
    return subs, {sub: i for i, sub in enumerate(subs)}


# a reference block reads its source and target spaces, and the keys of one
# space come one after another
_reference_spaces = lru_cache(maxsize=2)(loop_space_blocks)


def _reference_block(key: BlockKey) -> tuple[int, int, list[tuple[int, int, int]]]:
    """The differential block by a plain loop: for each source column in
    order, its p deletions in position order, each row looked up by
    (subset, monomial) in the target slice of the divmod loop."""
    n, d, b, p, q, mdeg = key
    m_src = b + q * d
    src = _reference_spaces(n, d, p, m_src).get(mdeg)
    if m_src < 0 or src is None:
        return 0, 0, []
    tgt = _reference_spaces(n, d, p - 1, m_src + d)[mdeg]
    row_of = {(int(ts), int(tu)): r for r, (ts, tu) in enumerate(zip(tgt[0], tgt[1]))}
    subs, _ = _combinations(h0(n, d), p)
    _, tgt_index = _combinations(h0(n, d), p - 1)
    products = mult_table(n, m_src, d)
    signs = [1 if (p - 1 - j) % 2 == 0 else -1 for j in range(p)]
    entries = []
    for col, (si, ui) in enumerate(zip(src[0], src[1])):
        sub = subs[si]
        for j in range(p):
            row = row_of[(tgt_index[sub[:j] + sub[j + 1:]], int(products[ui, sub[j]]))]
            entries.append((row, col, signs[j]))
    return len(tgt[0]), len(src[0]), entries


@pytest.mark.parametrize("size", range(1, 13))
def test_combination_rank_is_the_itertools_position(size):
    for k in range(size + 1):
        subs = np.array(list(itertools.combinations(range(size), k)), dtype=np.int64)
        ranks = combination_rank(subs.reshape(comb(size, k), k), size)
        assert ranks.tolist() == list(range(comb(size, k))), (size, k)


@pytest.mark.parametrize("k", [0, 1, 2, 68, 69, 70])
def test_combination_rank_where_binomials_pass_int64(k):
    # C(69, 27) > 2^63: from k = 27 the table saturates entries no rank reads
    subs = np.array(_combinations(70, k)[0], dtype=np.int64).reshape(comb(70, k), k)
    assert combination_rank(subs, 70).tolist() == list(range(comb(70, k)))


def test_wedge_subsets_rows_are_the_combinations():
    for p in range(0, 7):
        subs, weights = wedge_subsets(2, 2, p)
        assert subs.dtype == np.int64 and subs.shape == (comb(6, p), p)
        assert [tuple(row) for row in subs.tolist()] == _combinations(6, p)[0]
        assert weights.shape == (comb(6, p), 3)


@pytest.mark.parametrize("n,d", [(2, 3), (2, 4)])
@pytest.mark.parametrize("b", [0, -3])
def test_differential_block_matches_reference_loop(n, d, b):
    # same entries in the same order, on every orbit-rep block of strands 0..2
    blocks = 0
    for q in range(3):
        for p in range(1, h0(n, d) + 1):
            for rep, _ in orbit_reduce(space_blocks(n, d, p, b + q * d)):
                key = BlockKey(n, d, b, p, q, rep)
                block = differential_block(key)
                assert (block.nrows, block.ncols, block.entries) == _reference_block(key), key
                blocks += 1
    assert blocks > 0


@pytest.mark.parametrize("p", [1, 2])
def test_differential_block_matches_reference_loop_past_h0_66(p):
    # h0(4, 4) = 70, where C(h0, j) no longer fits int64 for every j
    for rep, _ in orbit_reduce(space_blocks(4, 4, p, 4)):
        key = BlockKey(4, 4, 0, p, 1, rep)
        block = differential_block(key)
        assert (block.nrows, block.ncols, block.entries) == _reference_block(key), key


@pytest.mark.parametrize("kept", [slice(1, None), slice(None, -1)])
def test_deletion_outside_the_target_slice_is_an_invariant_violation(monkeypatch, kept):
    # drop the first or the last element of the target slice: the deletions
    # that land on it must be refused by name, not as a lookup error
    key = BlockKey(2, 2, 0, 2, 1, (2, 2, 2))
    real_slices = vsl.koszul._slices

    def dropping_slices(n, d, p, m, mdegs):
        subs, mons, sizes = real_slices(n, d, p, m, mdegs)
        if p == key.p - 1:
            return subs[kept], mons[kept], sizes - 1
        return subs, mons, sizes

    monkeypatch.setattr(vsl.koszul, "_slices", dropping_slices)
    with pytest.raises(InvariantViolation, match="deletion image left the multidegree slice"):
        differential_blocks([key])


def _table_keys(params, p_range, q_range) -> list[BlockKey]:
    """The block keys an engine ranks for a window of params, in plan
    order: the window is planned, not ranked."""
    keys = []
    engine = Engine(FIELD)
    engine._dims = lambda plans: [keys.extend(plan.sizes()) or 0 for plan in plans]
    betti_table(params, engine, p_range, q_range)
    return list(dict.fromkeys(keys))


def _same_block(got, want) -> bool:
    """Same key and shape, and the same entry arrays, dtypes included."""
    arrays = zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals))
    return (got.key, got.nrows, got.ncols) == (want.key, want.nrows, want.ncols) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in arrays
    )


@pytest.mark.parametrize("params, p_range, q_range", [
    (VeroneseParams(2, 3), (None, None), (None, None)),
    (VeroneseParams(2, 4), (None, None), (1, 1)),
    (VeroneseParams(2, 5), (16, 21), (1, 1)),
    (VeroneseParams(3, 2), (None, None), (1, 1)),
])
def test_differential_blocks_equal_differential_block(params, p_range, q_range):
    # one mixed-key call equals the per-key calls: one call over every key
    # a table ranks, its (p, q) mixed, and per (p, q) a multidegree of the
    # right degree that has no block and three of the wrong degree: one
    # above a block's, one whose difference with a monomial weight codes
    # like a subset weight (a coordinate carried into the next
    # base-(p*d+1) digit), and one more.  Each block equals its key's own
    # call, the extra keys 0 x 0
    keys = _table_keys(params, p_range, q_range)
    first: dict = {}
    for key in keys:
        first.setdefault(key[:5], key.mdeg)
    extra = [
        BlockKey(n, d, b, p, q, mdeg)
        for (n, d, b, p, q), (top, *rest) in first.items()
        for mdeg in (
            (p * d + b + q * d,) + (0,) * n,
            (top + 1, *rest),
            (top + p * d + 1, rest[0] - 1, *rest[1:]),
            (p * d + b + q * d + 1,) + (0,) * n,
        )
    ]
    got = differential_blocks(keys + extra)
    assert len(first) > 1 and len(got) == len(keys + extra)
    for block, key in zip(got, keys + extra):
        assert _same_block(block, differential_block(key)), key

    def has_block(key):
        return key.mdeg in block_sizes(key.n, key.d, key.p, key.b + key.q * key.d)

    absent = [block for block in got[len(keys):] if not has_block(block.key)]
    assert len(absent) > 3 * len(first)
    assert all(block.nrows == block.ncols == block.vals.size == 0 for block in absent)
    assert differential_blocks([]) == []


def test_block_sizes_equal_the_space_blocks_sizes():
    # in key order, on every pinned space and where a space is empty: p < 0,
    # p > h0 and m < 0
    empty = [(1, 2, -1, 2), (1, 2, h0(1, 2) + 1, 2), (1, 2, 1, -2), (2, 3, 0, -1)]
    for space in pinned_table_spaces() + empty:
        want = {mdeg: len(subs) for mdeg, (subs, _) in space_blocks(*space).items()}
        assert list(block_sizes(*space).items()) == list(want.items()), space
    for space in empty:
        assert block_sizes(*space) == {}


def test_block_sizes_that_miss_the_dimension_are_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(vsl.koszul, "space_dim", lambda *space: 1 + space_dim(*space))
    with pytest.raises(InvariantViolation, match="blocks of degree 2, p=1 do not partition"):
        block_sizes.__wrapped__(2, 2, 1, 2)


def _compose_is_zero(first, second, prime) -> bool:
    cols_first: dict[int, dict[int, int]] = {}
    for r, c, v in first.entries:
        cols_first.setdefault(c, {})[r] = cols_first.setdefault(c, {}).get(r, 0) + v
    cols_second: dict[int, dict[int, int]] = {}
    for r, c, v in second.entries:
        cols_second.setdefault(c, {})[r] = cols_second.setdefault(c, {}).get(r, 0) + v
    for col, mids in cols_first.items():
        acc: dict[int, int] = {}
        for mid, v1 in mids.items():
            for r, v2 in cols_second.get(mid, {}).items():
                acc[r] = (acc.get(r, 0) + v1 * v2) % prime
        if any(acc.values()):
            return False
    return True


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2)])
def test_differential_squares_to_zero(n, d):
    for q in range(0, n + 2):
        for p in range(2, h0(n, d) + 1):
            for mdeg in space_blocks(n, d, p, q * d):
                first = differential_block(BlockKey(n, d, 0, p, q, mdeg))
                second = differential_block(BlockKey(n, d, 0, p - 1, q + 1, mdeg))
                assert _compose_is_zero(first, second, PRIME)


def _orbit_size(rep) -> int:
    return len(set(itertools.permutations(rep)))


def test_orbit_rep_and_size():
    assert orbit_rep((1, 3, 0)) == (3, 1, 0)
    assert _orbit_size((3, 1, 0)) == 6
    assert _orbit_size((2, 2, 0)) == 3
    assert _orbit_size((4, 0)) == 2
    assert _orbit_size((2, 2)) == 1


def test_orbit_reduce_examples():
    assert orbit_reduce([(4, 0), (0, 4)]) == [((4, 0), 2)]
    assert orbit_reduce([(2, 2)]) == [((2, 2), 1)]


def test_orbit_reduce_counts_match_partition_classes():
    mdegs = list(space_blocks(2, 2, 1, 2))
    orbits = orbit_reduce(mdegs)
    assert sum(count for _, count in orbits) == len(mdegs)
    assert len(orbits) == len({tuple(sorted(m, reverse=True)) for m in mdegs})
    for rep, count in orbits:
        assert rep == tuple(sorted(rep, reverse=True))
        assert count == _orbit_size(rep)


def test_permuted_blocks_have_equal_rank_exhaustively():
    # coordinate permutations act on multidegrees without changing rank
    for q in (1, 2):
        for p in range(1, 7):
            ranks: dict[tuple[int, ...], int] = {}
            for mdeg in space_blocks(2, 2, p, 2 * q):
                block = differential_block(BlockKey(2, 2, 0, p, q, mdeg))
                ranks[mdeg] = sparse_rank(block, FIELD)
            for mdeg, rank in ranks.items():
                assert rank == ranks[orbit_rep(mdeg)]


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3)])
def test_blockwise_rank_totals_match_dense(n, d):
    params = VeroneseParams(n, d)
    for q in range(0, n + 2):
        for p in range(1, h0(n, d) + 1):
            dense = dense_rank_mod(dense_differential(params, p, q), PRIME)
            assert blockwise_rank(params, p, q, PRIME) == dense
