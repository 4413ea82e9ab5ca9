"""Block assembly of the Koszul differential for Veronese embeddings.

The complex at strand q has middle term (wedge^p V) (x) H0(b+qd), where V is
the space of degree-d forms.  The differential deletes one wedge factor and
multiplies it into the coefficient form, so it preserves the coordinatewise
torus weight (multidegree) of basis elements.  That makes every differential
block-diagonal over multidegrees, and blocks whose multidegrees differ by a
permutation of coordinates have equal rank, so one representative per sorted
multidegree suffices.

Sign convention: deleting the wedge factor at position j of a p-tuple
carries sign (-1)^(p-1-j), i.e. +1 on the last factor.  Columnwise this is
the front-based sign times the constant (-1)^(p-1), so every rank, kernel
and homology dimension is unchanged; with this choice the differential both
squares to zero and commutes exactly with front-signed contraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .bounds import InvariantViolation, h0
from .polyspace import MultiDegree, monomial_basis, mult_table


class BlockKey(NamedTuple):
    """Identifies one multidegree block of the differential leaving
    (wedge^p V) (x) H0(b + q*d)."""

    n: int
    d: int
    b: int
    p: int
    q: int
    mdeg: MultiDegree


@dataclass
class KoszulBlockMatrix:
    """One block of a Koszul differential as a sparse sign matrix.

    Rows index the multidegree slice of the target space, columns the slice
    of the source space.  Entry i sits at (rows[i], cols[i]) with value
    vals[i], three int64 arrays; `entries` gives the same entries as
    (row, col, value) triples of Python ints.
    """

    key: BlockKey
    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_entries(cls, key: BlockKey, nrows: int, ncols: int, entries) -> KoszulBlockMatrix:
        """The block of (row, col, value) triples (repeats accumulate)."""
        rows, cols, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        return cls(key, nrows, ncols, rows.copy(), cols.copy(), vals.copy())

    @cached_property
    def entries(self) -> list[tuple[int, int, int]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()))

    def dense(self) -> np.ndarray:
        """The block as a dense int64 matrix (repeated positions add up)."""
        a = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        np.add.at(a, (self.rows, self.cols), self.vals)
        return a


@lru_cache(maxsize=32)
def wedge_subsets(n: int, d: int, p: int):
    """All p-subsets of the degree-d monomial basis with their multidegrees.

    Returns (subsets, weights): subsets is the (C(h0, p), p) int64 array of
    monomial indices, one increasing row per subset, rows in
    `itertools.combinations` order; weights the (C(h0, p), n+1) array of
    their exponent sums.
    """
    basis = monomial_basis(n, d)
    count = comb(len(basis), p)
    flat = itertools.chain.from_iterable(itertools.combinations(range(len(basis)), p))
    subs = np.fromiter(flat, dtype=np.int64, count=count * p).reshape(count, p)
    exps = np.array(basis, dtype=np.int64).reshape(len(basis), n + 1)
    return subs, exps[subs].sum(axis=1)


# C(a, j) for a < size, j <= k; entries past int64 saturate, but a rank only
# reads terms of a sum below C(size, k), which fits since codes are int64
@lru_cache(maxsize=None)
def _binomials(size: int, k: int) -> np.ndarray:
    top = np.iinfo(np.int64).max
    rows = [[min(comb(a, j), top) for j in range(k + 1)] for a in range(size)]
    return np.array(rows, dtype=np.int64).reshape(size, k + 1)


def combination_rank(subsets: np.ndarray, size: int) -> np.ndarray:
    """Positions of k-subsets of range(size) in `itertools.combinations` order.

    `subsets` holds one increasing k-subset per row along its last axis.  By
    the combinatorial number system, c_0 < ... < c_(k-1) comes at
    C(size, k) - 1 - sum_i C(size - 1 - c_i, k - i).
    """
    k = subsets.shape[-1]
    later = _binomials(size, k)[size - 1 - subsets, k - np.arange(k)].sum(axis=-1)
    return comb(size, k) - 1 - later


def space_dim(n: int, d: int, p: int, m: int) -> int:
    """Dimension of (wedge^p V) (x) H0(m)."""
    if p < 0:
        return 0
    return comb(h0(n, d), p) * h0(n, m)


# one entry's working set: its middle, out-target and in-source spaces
@lru_cache(maxsize=3)
def space_blocks(n: int, d: int, p: int, m: int):
    """Multidegree decomposition of (wedge^p V) (x) H0(m).

    Returns dict: multidegree tuple -> (subset index array, monomial index
    array), the basis elements of that weight.  Block sizes sum to the full
    dimension.
    """
    mons = monomial_basis(n, m)
    if p < 0 or p > h0(n, d) or not mons:
        return {}
    _, weights = wedge_subsets(n, d, p)
    mon_w = np.array(mons, dtype=np.int64).reshape(len(mons), n + 1)
    total = p * d + m
    powers = (total + 1) ** np.arange(n + 1, dtype=np.int64)
    enc_sub = weights @ powers
    enc_mon = mon_w @ powers
    enc = (enc_sub[:, None] + enc_mon[None, :]).ravel()
    order = np.argsort(enc, kind="stable")
    enc_sorted = enc[order]
    starts = np.flatnonzero(np.diff(enc_sorted, prepend=-1))
    # the base-(total+1) digits of each block's code are its multidegree
    mdegs = enc_sorted[starts, None] // powers % (total + 1)
    nmon = len(mons)
    cuts = starts[1:]
    blocks: dict[MultiDegree, tuple[np.ndarray, np.ndarray]] = dict(zip(
        map(tuple, mdegs.tolist()),
        zip(np.split(order // nmon, cuts), np.split(order % nmon, cuts)),
    ))
    if sum(len(v[0]) for v in blocks.values()) != space_dim(n, d, p, m):
        raise InvariantViolation(f"blocks of degree {m}, p={p} do not partition the space")
    return blocks


def orbit_rep(mdeg: MultiDegree) -> MultiDegree:
    """Canonical representative of a multidegree under coordinate permutation."""
    return tuple(sorted(mdeg, reverse=True))


def orbit_reduce(mdegs) -> list[tuple[MultiDegree, int]]:
    """Group multidegrees into coordinate-permutation orbits.

    Returns (representative, count) pairs, representative sorted descending,
    count the number of input multidegrees in that orbit.  Counts sum to the
    input size.
    """
    groups: dict[MultiDegree, int] = {}
    for w in mdegs:
        rep = orbit_rep(w)
        groups[rep] = groups.get(rep, 0) + 1
    return [(rep, groups[rep]) for rep in sorted(groups, reverse=True)]


def differential_block(key: BlockKey) -> KoszulBlockMatrix:
    """Assemble one multidegree block of the differential at (p, q).

    Columns are the block's basis elements of (wedge^p V) (x) H0(b+qd); each
    has exactly p entries, one per deleted wedge factor, with value the
    deletion sign.  Rows cover the same multidegree slice of the target
    (wedge^(p-1) V) (x) H0(b+(q+1)d).  Empty slices give zero-size matrices;
    a deletion that lands outside the target slice raises InvariantViolation.
    """
    n, d, b, p, q, mdeg = key
    if p < 1:
        raise ValueError(f"differential_block: need p >= 1, got p={p}")
    m_src = b + q * d
    src = space_blocks(n, d, p, m_src).get(mdeg)
    if m_src < 0 or src is None:
        return KoszulBlockMatrix.from_entries(key, 0, 0, [])
    tgt = space_blocks(n, d, p - 1, m_src + d).get(mdeg)
    if tgt is None:
        raise InvariantViolation("deletion image left the multidegree slice")
    si, ui = src
    subs = wedge_subsets(n, d, p)[0][si]
    # rest[c, j] is column c's subset with position j deleted
    kept = np.arange(p - 1)
    rest = subs[:, kept + (kept >= np.arange(p)[:, None])]
    # a target element (sub, mon) is coded sub * h0(m_src + d) + mon
    width = h0(n, m_src + d)
    codes = combination_rank(rest, h0(n, d)) * width + mult_table(n, m_src, d)[ui[:, None], subs]
    tgt_codes = tgt[0] * width + tgt[1]
    order = np.argsort(tgt_codes)
    # a code above every target code would index past the end: clamp it, and
    # let the equality test refuse every code that found no target
    rows = order[np.minimum(np.searchsorted(tgt_codes, codes, sorter=order), len(order) - 1)]
    if not np.array_equal(tgt_codes[rows], codes):
        raise InvariantViolation("deletion image left the multidegree slice")
    # sign of deleting position j from a p-tuple: +1 at the last position
    signs = np.empty_like(rows)
    signs[:] = (-1) ** (p - 1 - np.arange(p))
    cols = np.arange(len(si)).repeat(p)
    return KoszulBlockMatrix(key, len(tgt[0]), len(si), rows.ravel(), cols, signs.ravel())
