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


@lru_cache(maxsize=32)
def _weight_classes(n: int, d: int, p: int):
    """The p-subsets of the degree-d monomial basis grouped by weight.

    Returns (weights, counts, members): the distinct subset weights as a
    (C, n+1) array, how many subsets have each, and every subset index,
    class after class, each class in increasing order.
    """
    _, weights = wedge_subsets(n, d, p)
    powers = (p * d + 1) ** np.arange(n + 1, dtype=np.int64)
    _, at, counts = np.unique(weights @ powers, return_inverse=True, return_counts=True)
    members = np.argsort(at.ravel(), kind="stable")
    return weights[members[np.cumsum(counts) - counts]], counts, members


def _monomial_weights(n: int, m: int) -> np.ndarray:
    mons = monomial_basis(n, m)
    return np.array(mons, dtype=np.int64).reshape(len(mons), n + 1)


@lru_cache(maxsize=8)
def block_sizes(n: int, d: int, p: int, m: int) -> dict[MultiDegree, int]:
    """{multidegree: block size} of (wedge^p V) (x) H0(m), keys in increasing
    base-(p*d + m + 1) code, from the subset-weight classes and the monomial
    weights alone: a class of c subsets and a monomial add c elements to
    the block of their summed weight.  Sizes sum to the full dimension.
    """
    if p < 0 or p > h0(n, d) or m < 0:
        return {}
    class_w, counts, _ = _weight_classes(n, d, p)
    mon_w = _monomial_weights(n, m)
    total = p * d + m
    powers = (total + 1) ** np.arange(n + 1, dtype=np.int64)
    codes, slot = np.unique(np.add.outer(class_w @ powers, mon_w @ powers), return_inverse=True)
    sizes = np.bincount(slot.ravel(), np.repeat(counts, len(mon_w)), codes.size).astype(np.int64)
    if sizes.sum() != space_dim(n, d, p, m):
        raise InvariantViolation(f"blocks of degree {m}, p={p} do not partition the space")
    # the base-(total+1) digits of each block's code are its multidegree
    mdegs = map(tuple, (codes[:, None] // powers % (total + 1)).tolist())
    return dict(zip(mdegs, sizes.tolist()))


def _slices(n: int, d: int, p: int, m: int, mdegs):
    """The multidegree slices of (wedge^p V) (x) H0(m) at mdegs, the one
    enumeration of a block's basis elements: (subset indices, monomial
    indices, slice sizes), the slices one after another in mdegs order,
    each in flat (subset-major) order (an absent or wrong-degree
    multidegree has an empty slice).  The slice of mdeg pairs each monomial
    of weight w with the subsets of weight mdeg - w, one weight class,
    found by code; its elements are merged in increasing subset order.
    """
    want = np.array(mdegs, dtype=np.int64).reshape(len(mdegs), n + 1)
    if p < 0 or p > h0(n, d) or m < 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(len(want), np.int64)
    class_w, counts, members = _weight_classes(n, d, p)
    need = want[:, None] - _monomial_weights(n, m)
    # a weight of degree p*d with no negative entry has base-(p*d+1)
    # digits, so equal codes mean equal weights; classes are in code order
    powers = (p * d + 1) ** np.arange(n + 1, dtype=np.int64)
    class_codes = class_w @ powers
    codes = need @ powers
    cls = np.minimum(np.searchsorted(class_codes, codes), len(class_codes) - 1)
    hit = (class_codes[cls] == codes) & (need >= 0).all(axis=2)
    which, mons = np.nonzero(hit & (want.sum(axis=1) == p * d + m)[:, None])
    cls = cls[which, mons]
    # each (slice, monomial) pair takes its class's members, pair after pair
    lens = counts[cls]
    starts = (np.cumsum(counts) - counts)[cls] - np.cumsum(lens) + lens
    subs = members[np.repeat(starts, lens) + np.arange(lens.sum())]
    owner = np.repeat(which, lens)
    order = np.argsort(owner * len(members) + subs, kind="stable")
    return subs[order], np.repeat(mons, lens)[order], np.bincount(owner, minlength=len(want))


# `syzygy` is the only reader of whole spaces, for the elements of its
# chains: a cycle basis reads its own space, and `projection_factor_check`
# the images' space and that space's incoming space, so three fit.
@lru_cache(maxsize=3)
def space_blocks(n: int, d: int, p: int, m: int):
    """Multidegree decomposition of (wedge^p V) (x) H0(m).

    Returns dict: multidegree tuple -> (subset index array, monomial index
    array), the basis elements of that weight in flat (subset-major) order,
    multidegrees in `block_sizes`' order: the `_slices` of every block of
    the space, split by size.
    """
    mdegs = list(block_sizes(n, d, p, m))
    subs, mons, sizes = _slices(n, d, p, m, mdegs)
    cuts = np.cumsum(sizes)[:-1]
    return dict(zip(mdegs, zip(np.split(subs, cuts), np.split(mons, cuts))))


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


def _assemble(keys: list[BlockKey], src, tgt) -> list[KoszulBlockMatrix]:
    """The differential blocks at keys, which share (n, d, b, p, q), from
    their source and target slices, each side given as (subset indices,
    monomial indices, slice sizes) with the slices in key order.

    Columns are a block's source elements; each has exactly p entries, one
    per deleted wedge factor, with value the deletion sign.  Rows are the
    same multidegree's target elements, in the slice's flat order, so each
    column's target codes are found by one binary search over every
    block's targets.  A block with no columns is 0 x 0; a deletion that
    lands outside its target slice raises InvariantViolation.
    """
    n, d, b, p, q, _ = keys[0]
    (si, ui, ncols), (ti, tu, nrows) = src, tgt
    m_src = b + q * d
    subs = wedge_subsets(n, d, p)[0][si]
    # rest[c, j] is column c's subset with position j deleted
    kept = np.arange(p - 1)
    rest = subs[:, kept + (kept >= np.arange(p)[:, None])]
    # a target element (sub, mon) of the k-th block is coded
    # k * span + sub * width + mon, below the key count times the target
    # space's dimension: the targets' codes increase, and a sentinel above
    # them all ends them, so a code that finds no target finds a larger
    # code and fails the equality test
    width = h0(n, m_src + d)
    span = comb(h0(n, d), p - 1) * width
    at = np.arange(len(keys), dtype=np.int64) * span
    codes = combination_rank(rest, h0(n, d)) * width + mult_table(n, m_src, d)[ui[:, None], subs]
    codes += np.repeat(at, ncols)[:, None]
    tgt_codes = np.append(np.repeat(at, nrows) + ti * width + tu, np.iinfo(np.int64).max)
    rows = np.searchsorted(tgt_codes, codes)
    if not np.array_equal(tgt_codes[rows], codes):
        raise InvariantViolation("deletion image left the multidegree slice")
    col_at, row_at = np.cumsum(ncols) - ncols, np.cumsum(nrows) - nrows
    rows = (rows - np.repeat(row_at, ncols)[:, None]).ravel()
    cols = (np.arange(len(si)) - np.repeat(col_at, ncols)).repeat(p)
    # sign of deleting position j from a p-tuple: +1 at the last position
    signs = np.tile((-1) ** (p - 1 - np.arange(p)), len(si))
    ends = (p * np.cumsum(ncols)).tolist()
    return [
        KoszulBlockMatrix(key, int(nrows[k]) if ncols[k] else 0, int(ncols[k]),
                          rows[a:z], cols[a:z], signs[a:z])
        for k, (key, a, z) in enumerate(zip(keys, [0] + ends, ends))
    ]


def differential_block(key: BlockKey) -> KoszulBlockMatrix:
    """The one block of the differential at key (`differential_blocks`)."""
    return differential_blocks([key])[0]


def differential_blocks(keys) -> list[KoszulBlockMatrix]:
    """The differential block at each key, in key order: the keys of each
    (n, d, b, p, q) are assembled together from their source and target
    slices (`_slices`), one vectorized pass per space, with no whole space
    enumerated; see `_assemble`.  A key with no source elements gives a
    0 x 0 block.
    """
    keys = list(keys)
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key[:5], []).append(i)
    blocks: list = [None] * len(keys)
    for (n, d, b, p, q), at in groups.items():
        if p < 1:
            raise ValueError(f"differential_blocks: need p >= 1, got p={p}")
        mdegs = [keys[i].mdeg for i in at]
        m_src = b + q * d
        src = _slices(n, d, p, m_src, mdegs)
        tgt = _slices(n, d, p - 1, m_src + d, mdegs)
        for i, block in zip(at, _assemble([keys[i] for i in at], src, tgt)):
            blocks[i] = block
    return blocks
