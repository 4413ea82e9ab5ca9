from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import lowest_lead_kernel_mod, nullity_rank
from hypothesis import given, settings, strategies as st

import vsl.linalg
from vsl.bounds import h0
from vsl.harness import dense_differential
from vsl.koszul import (
    BlockKey,
    KoszulBlockMatrix,
    differential_block,
    orbit_reduce,
    space_blocks,
)
from vsl.linalg import (
    DEFAULT_DENSE_LIMIT,
    PINNED_PRIMES,
    ROUNDS_MIN_NNZ,
    FieldSpec,
    block_ranks,
    dense_rank_mod,
    echelon_mod,
    is_prime,
    kernel_mod,
    nullspace_mod,
    rational_rank,
    rref_mod,
    solve_mod,
    sparse_rank,
    sparse_ranks,
)

P = PINNED_PRIMES[0]
FIELD = FieldSpec.prime(P)


def _block(entries, nrows, ncols) -> KoszulBlockMatrix:
    key = BlockKey(1, 1, 0, 1, 1, (0, 0))
    return KoszulBlockMatrix.from_entries(key, nrows, ncols, entries)


def primes_from_seed(seed: int, count: int = 2) -> tuple[int, ...]:
    """Deterministic choice of `count` distinct pinned primes from a seed."""
    if count > len(PINNED_PRIMES):
        raise ValueError("not enough pinned primes")
    start = seed % len(PINNED_PRIMES)
    return tuple(
        PINNED_PRIMES[(start + i) % len(PINNED_PRIMES)] for i in range(count)
    )


def rank_modp_fraction_check(m: np.ndarray) -> int:
    """Reference rank over QQ via Fraction elimination."""
    rows = [[Fraction(int(x)) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, nrows):
            f = rows[r][col] / pv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_pinned_primes_are_31_bit_primes_descending():
    assert len(PINNED_PRIMES) == 10
    assert len(set(PINNED_PRIMES)) == 10
    for p in PINNED_PRIMES:
        assert is_prime(p)
        assert 2**30 < p < 2**31
    assert list(PINNED_PRIMES) == sorted(PINNED_PRIMES, reverse=True)
    assert PINNED_PRIMES[0] == 2**31 - 1


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(341)  # Fermat pseudoprime base 2
    assert not is_prime(2147483647 - 1)


def test_field_spec():
    assert FieldSpec.prime(P).label() == f"GF({P})"
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31 + 11)


def test_primes_from_seed():
    a = primes_from_seed(42, 3)
    assert a == primes_from_seed(42, 3)
    assert len(set(a)) == 3
    assert all(p in PINNED_PRIMES for p in a)
    assert primes_from_seed(0, 2) != primes_from_seed(1, 2)
    with pytest.raises(ValueError):
        primes_from_seed(0, 11)


def test_sparse_rank_hand_examples():
    assert sparse_rank(_block([(0, 0, 1), (0, 1, 1), (0, 2, 1)], 1, 3), FIELD) == 1
    assert sparse_rank(_block([], 4, 5), FIELD) == 0
    k = 6
    ident = [(i, i, 1) for i in range(k)]
    assert sparse_rank(_block(ident, k, k), FIELD) == k
    # duplicate entries at one position accumulate (and may cancel)
    assert sparse_rank(_block([(0, 0, 1), (0, 0, -1)], 1, 1), FIELD) == 0


def test_rank_routes_agree_on_random_sign_matrices():
    rng = random.Random(20240904)
    for trial in range(30):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 11)
        entries = []
        for r in range(nrows):
            for c in range(ncols):
                roll = rng.random()
                if roll < 0.35:
                    entries.append((r, c, 1 if roll < 0.175 else -1))
        a = np.zeros((nrows, ncols), dtype=np.int64)
        for r, c, v in entries:
            a[r, c] += v
        expected = rank_modp_fraction_check(a)
        assert dense_rank_mod(a, P) == expected
        assert sparse_rank(_block(entries, nrows, ncols), FIELD) == expected
        assert rational_rank(_block(entries, nrows, ncols)) == expected


@st.composite
def triples_with_cancellation(draw, values=(1, -1), min_size=1):
    """Sparse triples with entries from `values` and repeated positions, some
    of them cancelling, plus rows repeated or scaled into other rows.  The
    flags mark triples to write as their residue mod p, so -1 becomes p-1 and
    a pair can sum to 0 mod p without summing to 0.  With min_size=0 a side
    may be empty, and then so are the triples."""
    nrows = draw(st.integers(min_size, 12))
    ncols = draw(st.integers(min_size, 12))
    if not nrows or not ncols:
        return nrows, ncols, [], []
    cell = st.tuples(
        st.integers(0, nrows - 1), st.integers(0, ncols - 1), st.sampled_from(values)
    )
    entries = draw(st.lists(cell, max_size=60))
    if entries:
        for r, c, v in draw(st.lists(st.sampled_from(entries), max_size=15)):
            entries.append((r, c, draw(st.sampled_from((v, -v)))))
    for _ in range(draw(st.integers(0, 4))):
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        scale = draw(st.sampled_from((1, -1, 2, -3)))
        entries += [(dst, c, scale * v) for r, c, v in list(entries) if r == src]
    flags = draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
    return nrows, ncols, entries, flags


@pytest.mark.parametrize("prime", PINNED_PRIMES[:2])
@settings(max_examples=150, deadline=None)
@given(case=triples_with_cancellation())
def test_sparse_rank_matches_dense_under_cancellation(prime, case):
    nrows, ncols, entries, flags = case
    entries = [(r, c, v % prime if f else v) for (r, c, v), f in zip(entries, flags)]
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in entries:
        a[r, c] += v
    assert sparse_rank(_block(entries, nrows, ncols), FieldSpec.prime(prime)) == dense_rank_mod(
        a, prime
    )


@pytest.mark.parametrize("prime", PINNED_PRIMES[:2])
@settings(max_examples=150, deadline=None)
@given(
    case=triples_with_cancellation(min_size=0),
    transpose=st.booleans(),
    cap=st.sampled_from((None, 0, 3)),
)
def test_rounds_kernel_matches_dense_rank(prime, case, transpose, cap):
    # repeated positions, sums that cancel mod p, values p-1, empty rows
    # and columns, tall and wide shapes; a small round cap takes one pivot
    # (cap 0) or a few per round
    nrows, ncols, entries, flags = case
    entries = [(r, c, v % prime if f else v) for (r, c, v), f in zip(entries, flags)]
    if transpose:
        nrows, ncols, entries = ncols, nrows, [(c, r, v) for r, c, v in entries]
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in entries:
        a[r, c] += v
    block = _block(entries, nrows, ncols)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(vsl.linalg, "ROUND_PRODUCTS_CAP", cap)
        got = sparse_ranks([block], FieldSpec.prime(prime))[0]
    assert got == dense_rank_mod(a, prime)


@pytest.mark.parametrize("prime", PINNED_PRIMES[:2])
def test_rounds_kernel_matches_kernel_mod_on_koszul_blocks(prime):
    # every orbit-representative block of the (2,3) strands 0..3 and of the
    # (2,4) and (3,2) linear strands, whatever its size, but those an
    # engine ranks for the (2,4) linear strand: the next test checks them
    from vsl.bounds import VeroneseParams

    engine_keys = set(_engine_keys(VeroneseParams(2, 4), (1, 1)))
    count = 0
    for n, d, strands in ((2, 3, range(4)), (2, 4, (1,)), (3, 2, (1,))):
        for q in strands:
            for p in range(1, h0(n, d) + 1):
                for mdeg, _ in orbit_reduce(space_blocks(n, d, p, q * d)):
                    key = BlockKey(n, d, 0, p, q, mdeg)
                    if key in engine_keys:
                        continue
                    block = differential_block(key)
                    want = nullity_rank(block, prime)
                    got = sparse_ranks([block], FieldSpec.prime(prime))[0]
                    assert got == want, block.key
                    count += 1
    assert count > 1000


def _engine_keys(params, q_range):
    """The block keys an engine ranks for a window of params, in plan
    order: the window is planned, not ranked."""
    from vsl.betti import Engine, betti_table

    keys = []
    engine = Engine(FIELD)
    engine._dims = lambda plans: [keys.extend(plan.sizes()) or 0 for plan in plans]
    betti_table(params, engine, q_range=q_range)
    return list(dict.fromkeys(keys))


def _engine_blocks(params, q_range):
    """The blocks an engine ranks for a window of params, in plan order."""
    return [differential_block(key) for key in _engine_keys(params, q_range)]


@pytest.mark.parametrize("prime", PINNED_PRIMES[:2])
def test_sparse_ranks_match_kernel_mod_on_engine_blocks(prime):
    # every block an engine ranks for the full (2,3) table and the (2,4)
    # linear strand, each window stacked into one batch
    from vsl.bounds import VeroneseParams

    for params, q_range in ((VeroneseParams(2, 3), (None, None)), (VeroneseParams(2, 4), (1, 1))):
        blocks = _engine_blocks(params, q_range)
        want = [nullity_rank(block, prime) for block in blocks]
        assert len(blocks) > 150 and any(want)
        assert sparse_ranks(blocks, FieldSpec.prime(prime)) == want


def test_sparse_ranks_edge_blocks():
    # no blocks; empty blocks (0x0, 0xk, kx0) before, between and after
    # others, where a pivot's column range starts where an empty one's
    # does; repeats that cancel to 0; repeats that add up
    assert sparse_ranks([], FIELD) == []
    ident = [(i, i, 1) for i in range(3)]
    cases = [
        (ident, 3, 3, 3),
        ([], 0, 0, 0),
        ([], 4, 0, 0),
        ([], 0, 5, 0),
        ([(0, 0, 1), (0, 0, -1), (1, 1, 2), (1, 1, P - 2)], 2, 2, 0),
        ([(0, 1, 1), (0, 1, 1), (1, 0, 3)], 2, 2, 2),
        ([], 3, 0, 0),
        (ident[:2], 2, 4, 2),
        ([], 0, 0, 0),
    ]
    for order in (cases, cases[::-1], cases[1:4]):
        blocks = [_block(entries, nrows, ncols) for entries, nrows, ncols, _ in order]
        assert sparse_ranks(blocks, FIELD) == [rank for *_, rank in order]


def test_sparse_ranks_path_block_in_a_batch():
    # a 700-entry path (column c meets rows c and c + 1) takes its pivots
    # one or two per round; in a batch the other blocks wait for it and
    # every rank is still right
    path = _block([(c + j, c, 1) for c in range(350) for j in (0, 1)], 351, 350)
    rng = random.Random(7)
    noise = [(rng.randrange(40), rng.randrange(30), rng.choice((1, -1))) for _ in range(300)]
    wide = _block([(c, r, v) for r, c, v in noise], 30, 40)
    blocks = [_block(noise, 40, 30), path, _block([(0, 0, 1)], 1, 1), wide]
    want = [nullity_rank(block, P) for block in blocks]
    assert want[1] == 350 and path.vals.size == 700
    assert sparse_ranks(blocks, FIELD) == want


def test_block_ranks_keeps_large_and_certified_blocks_alone(monkeypatch):
    # the blocks of the (2,4) linear strand at two primes, certified up to
    # 300 rows and columns: a block of ROUNDS_MIN_NNZ entries or more, and
    # a certified one, is ranked by `sparse_rank` once per field before the
    # next block is pulled, and no `_round_elimination` call holds a large
    # block with another; a certified block is ranked over QQ once, and
    # every other block only in batches
    from vsl.bounds import VeroneseParams

    cap = 300
    fields = tuple(FieldSpec.prime(prime) for prime in PINNED_PRIMES[:2])
    keys = _engine_keys(VeroneseParams(2, 4), (1, 1))
    events, sizes, stacked, held, exact = [], {}, [], [], []

    def pulled():
        for key in keys:
            block = differential_block(key)
            sizes[key] = (block.vals.size, max(block.nrows, block.ncols))
            events.append(("pull", key))
            yield block

    real_rank, real_ranks = vsl.linalg.sparse_rank, vsl.linalg.sparse_ranks
    real_kernel, real_rational = vsl.linalg._round_elimination, vsl.linalg.rational_rank

    def rank(block, field):
        events.append(("rank", block.key, field.p))
        return real_rank(block, field)

    def ranks(blocks, field):
        stacked.append(blocks)
        try:
            return real_ranks(blocks, field)
        finally:
            stacked.pop()

    def kernel(*args):
        held.append([block.key for block in stacked[-1]])
        return real_kernel(*args)

    def rational(block, **kwargs):
        exact.append(block.key)
        return real_rational(block, **kwargs)

    monkeypatch.setattr(vsl.linalg, "sparse_rank", rank)
    monkeypatch.setattr(vsl.linalg, "sparse_ranks", ranks)
    monkeypatch.setattr(vsl.linalg, "_round_elimination", kernel)
    monkeypatch.setattr(vsl.linalg, "rational_rank", rational)
    ranked = block_ranks(pulled(), [fields] * len(keys), cap)

    large = {key for key in keys if sizes[key][0] >= ROUNDS_MIN_NNZ}
    certified = [key for key in keys if sizes[key][1] <= cap]
    alone = large | set(certified)
    assert large & set(certified) and large - set(certified)
    assert set(certified) - large and set(keys) - alone
    for i, event in enumerate(events):
        if event[0] == "pull" and event[1] in alone:
            assert events[i + 1 : i + 1 + len(fields)] == [("rank", event[1], f.p) for f in fields]
    assert len(events) == len(keys) + len(fields) * len(alone)
    assert any(len(call) > 1 for call in held)
    assert any(call == [key] for call in held for key in large)
    assert all(len(call) == 1 for call in held if large.intersection(call))
    assert exact == certified
    assert list(ranked) == keys
    for key, (by_prime, rational_rank_of_key) in ranked.items():
        assert list(by_prime) == [field.p for field in fields]
        assert len(set(by_prime.values())) == 1
        assert rational_rank_of_key == (by_prime[fields[0].p] if key in certified else None)


def test_sparse_rank_routes_by_entry_count(monkeypatch):
    # a block of ROUNDS_MIN_NNZ entries or more takes the rounds kernel (a
    # one-block `sparse_ranks`) however large, one entry fewer `echelon_mod`,
    # and all give the rank
    calls = []
    for name in ("sparse_ranks", "echelon_mod"):
        real = getattr(vsl.linalg, name)
        monkeypatch.setattr(
            vsl.linalg, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    cases = (
        (ROUNDS_MIN_NNZ - 1, "echelon_mod"),
        (ROUNDS_MIN_NNZ, "sparse_ranks"),
        (199_999, "sparse_ranks"),
        (200_000, "sparse_ranks"),
        (250_000, "sparse_ranks"),
    )
    for nnz, kernel in cases:
        # column c meets rows 2c and 2c + 1 (the last perhaps only 2c), so
        # one round takes every column: rank = number of columns
        entries = [(2 * c + j, c, 1) for c in range((nnz + 1) // 2) for j in (0, 1)][:nnz]
        ncols = (nnz + 1) // 2
        calls.clear()
        assert sparse_rank(_block(entries, 2 * ncols, ncols), FIELD) == ncols
        assert calls == [kernel]


def test_round_pivots_take_the_cheapest_within_the_products_cap(monkeypatch):
    # every round of the largest (2,4) linear-strand block at a small cap:
    # the round's pivots come cheapest first, in distinct rows and columns,
    # and are the first of the uncapped round's pivots; their products sum
    # to at most ROUND_PRODUCTS_CAP unless the round takes one pivot alone.
    # Some rounds are cut short by the cap, some take one pivot above it
    from vsl.bounds import VeroneseParams

    cap = 2_000
    block = max(_engine_blocks(VeroneseParams(2, 4), (1, 1)), key=lambda b: b.vals.size)
    real = vsl.linalg._round_pivots
    rounds = []

    def pivots(rows, cols, nrows, ncols):
        monkeypatch.setattr(vsl.linalg, "ROUND_PRODUCTS_CAP", 1 << 62)
        full = real(rows, cols, nrows, ncols)
        monkeypatch.setattr(vsl.linalg, "ROUND_PRODUCTS_CAP", cap)
        piv = real(rows, cols, nrows, ncols)
        cost = (np.bincount(rows)[rows] - 1) * (np.bincount(cols)[cols] - 1)
        assert np.unique(rows[piv]).size == np.unique(cols[piv]).size == piv.size
        assert np.all(np.diff(cost[piv]) >= 0)
        assert np.array_equal(piv, full[: piv.size])
        products = int(cost[piv].sum())
        assert piv.size == 1 or products <= cap
        rounds.append((piv.size, full.size, products))
        return piv

    monkeypatch.setattr(vsl.linalg, "_round_pivots", pivots)
    assert sparse_ranks([block], FIELD) == [nullity_rank(block, P)]
    assert any(1 < size < whole for size, whole, _ in rounds)
    assert any(size == 1 and products > cap for size, _, products in rounds)


def test_full_matrix_rank_for_line_quadric():
    # the complete strand-1 differential of the quadric embedding of the
    # line: 9 columns onto the 10-dimensional quartic space, rank 5
    from vsl.bounds import VeroneseParams

    a = dense_differential(VeroneseParams(1, 2), 1, 1)
    assert a.shape == (5, 9)
    assert dense_rank_mod(a, P) == 5


def test_blockwise_and_rational_agree_on_veronese_blocks():
    for mdeg in space_blocks(2, 2, 2, 2):
        block = differential_block(BlockKey(2, 2, 0, 2, 1, mdeg))
        assert sparse_rank(block, FIELD) == rational_rank(block)


def test_rational_rank_refuses_oversized_input():
    big = _block([], 3, DEFAULT_DENSE_LIMIT + 1)
    with pytest.raises(ValueError, match="dense limit"):
        rational_rank(big)
    assert rational_rank(big, dense_limit=DEFAULT_DENSE_LIMIT + 1) == 0


def test_rational_rank_on_known_integer_matrix():
    m = [[2, 3, 5], [4, 6, 10], [1, 1, 1]]
    triples = [(r, c, v) for r, row in enumerate(m) for c, v in enumerate(row)]
    assert rational_rank(_block(triples, 3, 3)) == 2
    assert rational_rank(_block([], 3, 3)) == 0


def test_rational_rank_is_not_modular():
    # [[P, 0], [0, 1]] has rank 2 over QQ but rank 1 over GF(P): a
    # certificate reduced mod P would agree with the prime it checks
    block = _block([(0, 0, P), (1, 1, 1)], 2, 2)
    assert rational_rank(block) == 2
    assert sparse_rank(block, FieldSpec.prime(P)) == 1
    # the same entry split into duplicate triples that sum to P
    split = _block([(0, 0, P - 1), (0, 0, 1), (1, 1, 1)], 2, 2)
    assert rational_rank(split) == 2
    # duplicate triples summing to zero vanish at every position
    cancel = [(0, 0, 3), (0, 0, -3), (1, 2, -2), (1, 2, 1), (1, 2, 1), (2, 1, P), (2, 1, -P)]
    assert rational_rank(_block(cancel, 3, 3)) == 0


@settings(max_examples=200, deadline=None)
@given(case=triples_with_cancellation(values=tuple(range(-3, 4))))
def test_rational_rank_matches_fraction_elimination(case):
    nrows, ncols, entries, _ = case
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in entries:
        a[r, c] += v
    assert rational_rank(_block(entries, nrows, ncols)) == rank_modp_fraction_check(a)


@pytest.mark.parametrize("prime", (3, 7, P))
@settings(max_examples=200, deadline=None)
@given(case=triples_with_cancellation(values=tuple(range(-3, 4)), min_size=0))
def test_kernel_mod_is_nullspace_mod_column_for_column(prime, case):
    nrows, ncols, entries, flags = case
    entries = [(r, c, v % prime if f else v) for (r, c, v), f in zip(entries, flags)]
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in entries:
        a[r, c] += v
    kernel = kernel_mod(entries, ncols, prime)
    got = np.zeros((ncols, len(kernel)), dtype=np.int64)
    for j, vec in enumerate(kernel):
        for i, v in vec.items():
            got[i, j] = v
    assert np.array_equal(got, nullspace_mod(a, prime))
    # the leads are where vectors of the column span lead: the pivot
    # columns of the transpose's echelon form, in any insertion order
    leads = echelon_mod(entries, prime)
    assert sorted(leads) == rref_mod(a.T, prime)[1]
    flipped = [(r, ncols - 1 - c, v) for r, c, v in entries]
    assert sorted(echelon_mod(flipped, prime)) == sorted(leads)


@pytest.mark.parametrize("prime", (P, 7))
@pytest.mark.parametrize("n, d", [(2, 3), (1, 4), (3, 2)])
def test_kernel_mod_equals_the_lowest_lead_kernel_block_for_block(n, d, prime):
    # renumbering the rows moves only where stored vectors lead: on every
    # block of the untwisted strands 0..2, for every p, the kernel is the
    # lowest-lead one, vector for vector and in the same order
    for q in range(3):
        for p in range(1, h0(n, d) + 1):
            for mdeg in space_blocks(n, d, p, q * d):
                block = differential_block(BlockKey(n, d, 0, p, q, mdeg))
                got = kernel_mod(block.entries, block.ncols, prime)
                want = lowest_lead_kernel_mod(block.entries, block.ncols, prime)
                assert [sorted(v.items()) for v in got] == [sorted(v.items()) for v in want]


def test_rref_and_nullspace():
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    r, pivots = rref_mod(a, P)
    assert pivots == [0, 1]
    ns = nullspace_mod(a, P)
    assert ns.shape == (3, 1)
    assert not ((a @ ns) % P).any()


def test_solve_mod():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([3, 2], dtype=np.int64)
    x = solve_mod(a, b, P)
    assert x is not None and ((a @ x - b) % P == 0).all()
    inconsistent = np.array([[1, 1], [1, 1]], dtype=np.int64)
    assert solve_mod(inconsistent, np.array([0, 1]), P) is None
