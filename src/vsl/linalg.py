"""Exact rank computation: sparse elimination over word-size prime fields,
dense elimination mod p, and fraction-free rational elimination.

The sparse GF(p) path is the production route for block ranks; the rational
path is a certification oracle for blocks small enough to eliminate densely
without fractions.  Primes come from a fixed list of ten 31-bit primes so a
run can be reproduced and cross-checked at a second prime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# The ten largest 31-bit primes, fixed once: entries of +-1 reduced mod any
# of these keep all elimination arithmetic inside 64-bit integers.
PINNED_PRIMES: tuple[int, ...] = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
    2147483489,
    2147483477,
)

DEFAULT_DENSE_LIMIT = 2000


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for p < 3_215_031_751."""
    if p < 2:
        return False
    for small in (2, 3, 5, 7):
        if p % small == 0:
            return p == small
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field for rank computations: GF(p) or the rationals."""

    kind: str  # "prime" or "rationals"
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "prime":
            if self.p is None or not is_prime(self.p) or self.p % 2 == 0:
                raise ValueError(f"FieldSpec: {self.p} is not an odd prime")
            if self.p >= 2**31:
                raise ValueError(f"FieldSpec: prime {self.p} does not fit in 31 bits")
        elif self.kind == "rationals":
            if self.p is not None:
                raise ValueError("FieldSpec: rationals take no prime")
        else:
            raise ValueError(f"FieldSpec: unknown kind {self.kind!r}")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    def label(self) -> str:
        return f"GF({self.p})" if self.kind == "prime" else "QQ"


class PrimeDisagreement(Exception):
    """Two pinned primes produced different ranks for the same block."""


def sparse_rank(block, field: FieldSpec) -> int:
    """Rank of a sparse sign matrix over GF(p) by Markowitz-style elimination.

    `block` needs .nrows, .ncols and .entries (an iterable of (row, col,
    value) triples; later triples at the same position accumulate).  Pivots
    are chosen fill-aware: the active column with fewest entries, then the
    shortest row in it, ties broken by lowest index, so the elimination
    order is deterministic.  Columns wait in a lazy min-heap keyed by
    (entry count, column): a pivot step re-pushes only the columns of the
    pivot row, the only ones whose counts it can change, and entries whose
    column is gone or whose count is out of date are skipped when popped.
    """
    if field.kind != "prime":
        raise ValueError("sparse_rank runs over a prime field")
    return sparse_rank_entries(block.entries, field.p)


def sparse_rank_entries(entries, p: int) -> int:
    rows: dict[int, dict[int, int]] = {}
    for r, c, v in entries:
        row = rows.setdefault(r, {})
        row[c] = (row.get(c, 0) + v) % p
    cols: dict[int, set[int]] = {}
    for r, row in list(rows.items()):
        for c in [c for c, v in row.items() if v == 0]:
            del row[c]
        if not row:
            del rows[r]
            continue
        for c in row:
            cols.setdefault(c, set()).add(r)

    queue = [(len(colset), c) for c, colset in cols.items()]
    heapq.heapify(queue)
    rank = 0
    while queue:
        # Fill-aware pivot: fewest-entry column, then shortest row in it.
        count, pc = heapq.heappop(queue)
        colset = cols.get(pc)
        if colset is None or len(colset) != count:
            continue
        pr = min(colset, key=lambda r: (len(rows[r]), r))
        rank += 1
        prow = rows.pop(pr)
        for c in prow:
            cols[c].discard(pr)
            if not cols[c]:
                del cols[c]
        inv = pow(prow[pc], -1, p)
        targets = list(cols.get(pc, ()))
        for r in targets:
            row = rows[r]
            f = row[pc] * inv % p
            for c, v in prow.items():
                cur = (row.get(c, 0) - f * v) % p
                if cur:
                    if c not in row:
                        cols.setdefault(c, set()).add(r)
                    row[c] = cur
                elif c in row:
                    del row[c]
                    colset = cols.get(c)
                    if colset is not None:
                        colset.discard(r)
                        if not colset:
                            del cols[c]
            if not row:
                del rows[r]
        for c in prow:
            colset = cols.get(c)
            if colset:
                heapq.heappush(queue, (len(colset), c))
    return rank


def dense_rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a dense integer matrix, vectorized elimination.

    Requires p < 2^31 so products of reduced entries fit in int64.
    """
    m = np.array(a, dtype=np.int64) % p
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = np.nonzero(m[rank:, col])[0]
        if piv.size == 0:
            continue
        pr = rank + piv[0]
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        inv = pow(int(m[rank, col]), -1, p)
        m[rank] = m[rank] * inv % p
        rest = np.nonzero(m[rank + 1:, col])[0]
        if rest.size:
            rows = rank + 1 + rest
            m[rows] = (m[rows] - np.outer(m[rows, col], m[rank])) % p
        rank += 1
    return rank


def rational_rank(block, dense_limit: int = DEFAULT_DENSE_LIMIT) -> int:
    """Exact rank over the rationals by fraction-free (integer) elimination.

    Refuses matrices beyond dense_limit on either side: the caller asked
    for a certificate this routine cannot produce at that size.
    """
    nrows, ncols = block.nrows, block.ncols
    if nrows > dense_limit or ncols > dense_limit:
        raise ValueError(
            f"rational_rank: {nrows}x{ncols} exceeds dense limit {dense_limit}"
        )
    m = np.zeros((nrows, ncols), dtype=object)
    for r, c, v in block.entries:
        m[r, c] += v
    return bareiss_rank(m)


def bareiss_rank(m: np.ndarray) -> int:
    """Fraction-free elimination on an object-dtype integer matrix.

    Classic two-step update new = (piv * a - b * c) // prev_piv; all
    divisions are exact, entries stay integers of minor-determinant size.
    """
    m = m.copy()
    nrows, ncols = m.shape
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if m[r, col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        pv = m[rank, col]
        below = m[rank + 1:, :]
        if below.shape[0]:
            factors = m[rank + 1:, col].copy()
            below[:] = below * pv - np.outer(factors, m[rank, :])
            below[:] = below // prev
        prev = pv
        rank += 1
    return rank


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns)."""
    m = np.array(a, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        pr = rank + nz[0]
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        others = [r for r in np.nonzero(m[:, col])[0] if r != rank]
        for r in others:
            m[r] = (m[r] - m[r, col] * m[rank]) % p
        pivots.append(col)
        rank += 1
    return m, pivots


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning the kernel of a over GF(p)."""
    a = np.array(a, dtype=np.int64)
    nrows, ncols = a.shape
    r, pivots = rref_mod(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve_mod(a: np.ndarray, b: np.ndarray, p: int):
    """One solution x of a x = b over GF(p), or None if inconsistent."""
    a = np.array(a, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64).reshape(-1, 1) % p
    aug = np.hstack([a, b])
    r, pivots = rref_mod(aug, p)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols]
    return x
