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
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from .bounds import InvariantViolation, VeroneseParams, h0
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
    of the source space; entries are (row, col, +-1) triples.
    """

    key: BlockKey
    nrows: int
    ncols: int
    entries: list[tuple[int, int, int]]


@lru_cache(maxsize=32)
def wedge_subsets(n: int, d: int, p: int):
    """All p-subsets of the degree-d monomial basis with their multidegrees.

    Returns (subsets, weights): subsets is a tuple of index tuples in
    lexicographic order, weights the (len, n+1) array of exponent sums.
    """
    basis = monomial_basis(n, d)
    if p < 0 or p > len(basis):
        return (), np.zeros((0, n + 1), dtype=np.int64)
    subs = tuple(itertools.combinations(range(len(basis)), p))
    exps = np.array(basis, dtype=np.int64).reshape(len(basis), n + 1)
    if p == 0:
        weights = np.zeros((1, n + 1), dtype=np.int64)
    else:
        weights = exps[np.array(subs, dtype=np.int64)].sum(axis=1)
    return subs, weights


@lru_cache(maxsize=32)
def subset_index(n: int, d: int, p: int) -> dict[tuple[int, ...], int]:
    subs, _ = wedge_subsets(n, d, p)
    return {s: i for i, s in enumerate(subs)}


@lru_cache(maxsize=16)
def deletion_table(n: int, d: int, p: int):
    """Per p-subset: indices of its p deletions among (p-1)-subsets, and the
    monomial index deleted at each position."""
    subs, _ = wedge_subsets(n, d, p)
    tgt_index = subset_index(n, d, p - 1)
    del_subs = np.empty((len(subs), p), dtype=np.int64)
    del_mons = np.empty((len(subs), p), dtype=np.int64)
    for i, s in enumerate(subs):
        for j in range(p):
            del_subs[i, j] = tgt_index[s[:j] + s[j + 1:]]
            del_mons[i, j] = s[j]
    return del_subs, del_mons


def space_dim(n: int, d: int, p: int, m: int) -> int:
    """Dimension of (wedge^p V) (x) H0(m)."""
    if p < 0:
        return 0
    return comb(h0(n, d), p) * h0(n, m)


@lru_cache(maxsize=12)
def space_blocks(n: int, d: int, p: int, m: int):
    """Multidegree decomposition of (wedge^p V) (x) H0(m).

    Returns dict: multidegree tuple -> (subset index array, monomial index
    array), the basis elements of that weight.  Block sizes sum to the full
    dimension.
    """
    subs, weights = wedge_subsets(n, d, p)
    mons = monomial_basis(n, m)
    if p < 0 or p > h0(n, d) or not mons or not subs:
        return {}
    mon_w = np.array(mons, dtype=np.int64).reshape(len(mons), n + 1)
    total = p * d + m
    powers = (total + 1) ** np.arange(n + 1, dtype=np.int64)
    enc_sub = weights @ powers
    enc_mon = mon_w @ powers
    enc = (enc_sub[:, None] + enc_mon[None, :]).ravel()
    order = np.argsort(enc, kind="stable")
    enc_sorted = enc[order]
    cuts = np.nonzero(np.diff(enc_sorted))[0] + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [len(enc_sorted)]])
    nmon = len(mons)
    blocks: dict[MultiDegree, tuple[np.ndarray, np.ndarray]] = {}
    for s, e in zip(starts, ends):
        code = int(enc_sorted[s])
        mdeg = []
        for _ in range(n + 1):
            code, rem = divmod(code, total + 1)
            mdeg.append(rem)
        idx = order[s:e]
        blocks[tuple(mdeg)] = (
            (idx // nmon).astype(np.int64),
            (idx % nmon).astype(np.int64),
        )
    if sum(len(v[0]) for v in blocks.values()) != space_dim(n, d, p, m):
        raise InvariantViolation(f"blocks of degree {m}, p={p} do not partition the space")
    return blocks


def block_multidegrees(params: VeroneseParams, p: int, q: int) -> list[tuple[MultiDegree, int]]:
    """Multidegrees of the middle space at (p, q) with their slice sizes,
    largest multidegree first."""
    m = params.b + q * params.d
    blocks = space_blocks(params.n, params.d, p, m)
    return [(w, len(blocks[w][0])) for w in sorted(blocks, reverse=True)]


def orbit_rep(mdeg: MultiDegree) -> MultiDegree:
    """Canonical representative of a multidegree under coordinate permutation."""
    return tuple(sorted(mdeg, reverse=True))


def rep_orbit_size(rep: MultiDegree) -> int:
    """Number of distinct coordinate permutations of a multidegree."""
    size = factorial(len(rep))
    for w in set(rep):
        size //= factorial(rep.count(w))
    return size


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
    (wedge^(p-1) V) (x) H0(b+(q+1)d).  Empty slices give zero-size matrices.
    """
    n, d, b, p, q, mdeg = key
    if p < 1:
        raise ValueError(f"differential_block: need p >= 1, got p={p}")
    m_src = b + q * d
    src = space_blocks(n, d, p, m_src).get(mdeg)
    if m_src < 0 or src is None:
        return KoszulBlockMatrix(key, 0, 0, [])
    tgt = space_blocks(n, d, p - 1, m_src + d).get(mdeg)
    if tgt is None:
        raise InvariantViolation("deletion image left the multidegree slice")
    row_of = {
        (int(ts), int(tu)): r
        for r, (ts, tu) in enumerate(zip(tgt[0], tgt[1]))
    }
    del_subs, del_mons = deletion_table(n, d, p)
    products = mult_table(n, m_src, d)
    # sign of deleting position j from a p-tuple: +1 at the last position
    signs = [1 if (p - 1 - j) % 2 == 0 else -1 for j in range(p)]
    entries: list[tuple[int, int, int]] = []
    for col, (si, ui) in enumerate(zip(src[0], src[1])):
        tsubs = del_subs[si]
        tmons = products[ui, del_mons[si]]
        for j in range(p):
            entries.append((row_of[(int(tsubs[j]), int(tmons[j]))], col, signs[j]))
    return KoszulBlockMatrix(key, len(tgt[0]), len(src[0]), entries)

