from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vsl.harness import dense_differential
from vsl.koszul import BlockKey, KoszulBlockMatrix, differential_block
from vsl.linalg import (
    DEFAULT_DENSE_LIMIT,
    PINNED_PRIMES,
    FieldSpec,
    bareiss_rank,
    dense_rank_mod,
    is_prime,
    nullspace_mod,
    rational_rank,
    rref_mod,
    solve_mod,
    sparse_rank,
    sparse_rank_entries,
)

P = PINNED_PRIMES[0]
FIELD = FieldSpec.prime(P)


def _block(entries, nrows, ncols) -> KoszulBlockMatrix:
    key = BlockKey(1, 1, 0, 1, 1, (0, 0))
    return KoszulBlockMatrix(key, nrows, ncols, list(entries))


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
    assert FieldSpec.rationals().label() == "QQ"
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31 + 11)
    with pytest.raises(ValueError):
        FieldSpec("rationals", 7)
    with pytest.raises(ValueError):
        FieldSpec("padic", 7)


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
    with pytest.raises(ValueError):
        sparse_rank(_block([], 1, 1), FieldSpec.rationals())


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
        assert sparse_rank_entries(entries, P) == expected
        assert bareiss_rank(a.astype(object)) == expected
        assert rational_rank(_block(entries, nrows, ncols)) == expected


@st.composite
def sign_triples_with_cancellation(draw):
    """Sparse +-1 triples with repeated positions, some of them cancelling,
    plus rows repeated or scaled into other rows.  The flags mark triples to
    write as their residue mod p, so -1 becomes p-1 and a pair can sum to 0
    mod p without summing to 0."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    cell = st.tuples(
        st.integers(0, nrows - 1), st.integers(0, ncols - 1), st.sampled_from((1, -1))
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
@given(case=sign_triples_with_cancellation())
def test_sparse_rank_matches_dense_under_cancellation(prime, case):
    nrows, ncols, entries, flags = case
    entries = [(r, c, v % prime if f else v) for (r, c, v), f in zip(entries, flags)]
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in entries:
        a[r, c] += v
    assert sparse_rank_entries(entries, prime) == dense_rank_mod(a, prime)


def test_full_matrix_rank_for_line_quadric():
    # the complete strand-1 differential of the quadric embedding of the
    # line: 9 columns onto the 10-dimensional quartic space, rank 5
    from vsl.bounds import VeroneseParams

    a = dense_differential(VeroneseParams(1, 2), 1, 1)
    assert a.shape == (5, 9)
    assert dense_rank_mod(a, P) == 5


def test_blockwise_and_rational_agree_on_veronese_blocks():
    from vsl.bounds import VeroneseParams
    from vsl.koszul import block_multidegrees

    for mdeg, _ in block_multidegrees(VeroneseParams(2, 2), 2, 1):
        block = differential_block(BlockKey(2, 2, 0, 2, 1, mdeg))
        assert sparse_rank(block, FIELD) == rational_rank(block)


def test_rational_rank_refuses_oversized_input():
    big = _block([], 3, DEFAULT_DENSE_LIMIT + 1)
    with pytest.raises(ValueError, match="dense limit"):
        rational_rank(big)
    assert rational_rank(big, dense_limit=DEFAULT_DENSE_LIMIT + 1) == 0


def test_bareiss_on_known_integer_matrix():
    m = np.array([[2, 3, 5], [4, 6, 10], [1, 1, 1]], dtype=object)
    assert bareiss_rank(m) == 2
    assert bareiss_rank(np.zeros((3, 3), dtype=object)) == 0


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
