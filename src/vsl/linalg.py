"""Exact rank computation: sparse elimination over word-size prime fields,
dense elimination mod p, and sparse fraction-free elimination over ZZ.

The sparse GF(p) path computes every block rank; the rational path
certifies blocks within a size cap with no modular arithmetic.  Primes
come from a fixed list of ten 31-bit primes so a run can be reproduced and
cross-checked at a second prime.

Two GF(p) kernels rank blocks.  The rounds kernel, `_round_elimination`,
picks many compatible pivots at once and eliminates them together with
numpy; it returns each pivot's column.  Each round renumbers the live rows
and columns, so it costs what is left of the matrix, and merges the fill
into the untouched entries, kept sorted, by a stable sort.  `sparse_ranks`
ranks many blocks in one run of it over their block-diagonal stack, so
blocks share its rounds, and counts each block's pivots in its column
range.  `sparse_rank` ranks one block and picks a kernel from its stored
entry count alone: a block of `ROUNDS_MIN_NNZ` entries or more, however
large, is the rounds kernel's one-block case, `sparse_ranks([block],
field)`; a smaller one is ranked by the sparse echelon `echelon_mod`, the
elimination the syzygy layer uses.  One round forms at most
`ROUND_PRODUCTS_CAP` Schur-complement products, so the join's temporaries
stay bounded however large the matrix (the fill of the active matrix is
not).  Both kernels compute the exact rank over GF(p), so ranks, reports
and cache bytes do not depend on which one ran.

`block_ranks` is the one block-rank path, the only place that chooses
between ranking a block on its own and ranking it in a batch: the engine's
rank jobs and the harness's blockwise check both go through it.  It ranks
a block certified over the rationals on its own and batches every other
block, whatever its size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

import numpy as np

from .bounds import InvariantViolation

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

# `sparse_rank` ranks a block of ROUNDS_MIN_NNZ stored entries or more in
# rounds, and a smaller one by `echelon_mod`.  The bound comes from
# per-nnz-bucket timings of one-pivot elimination against rounds: rounds
# win from 750 entries on every strand timed; below that they lose on small
# blocks and only tie on the tall blocks of the (2,5) p=16..21 strand.
ROUNDS_MIN_NNZ = 750

# `block_ranks` ranks uncertified blocks, whatever their size, together by
# `sparse_ranks`, in batches that close once their entries reach
# BATCH_MAX_NNZ.  Stacked blocks share rounds: the 100 blocks of 750
# entries or more of the (2,4) linear strand take 615 rounds one by one and
# 16 in one stack.  The bound keeps a pool worker small: on the pooled
# (2,4) linear strand the workers peaked at 34.9-35.2 MB at 20,000,
# 36.6-36.7 MB at 50,000 and 41.0-41.1 MB at 200,000 (35.8-36.1 MB when
# blocks of 750 entries or more were ranked alone), against the 36.7-36.8
# MB the planning process reaches (ru_maxrss, 2-vCPU Xeon VM).
BATCH_MAX_NNZ = 20_000

# The most Schur-complement products, the sum of |L_k|*|U_k| over its
# pivots, that one round of `_round_elimination` forms: it bounds the
# join's temporaries however large the block.  In the dense tail of a
# large block one pivot forms about 1M products, so a smaller cap leaves
# each late round a few pivots and a re-sort of the whole active matrix:
# at 2^18 the 220K-entry central block of the direct (2,5) K_{7,1} took
# 2.6x as long as one-pivot elimination.  2^24 is the smallest cap tried
# (2^20, 2^22, 2^24) that ranks the 663K-entry central block of K_{9,1}
# no slower than one-pivot elimination (62 s against 67 s).  Peak RSS at
# 2^24, block assembly included: 521 MB on the 220K block and 2,018 MB on
# the 663K one, where one-pivot elimination peaked at 763 and 3,346 MB.
ROUND_PRODUCTS_CAP = 1 << 24


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
    """Coefficient field for rank computations: GF(p), p an odd 31-bit prime."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p % 2 == 0:
            raise ValueError(f"FieldSpec: {self.p} is not an odd prime")
        if self.p >= 2**31:
            raise ValueError(f"FieldSpec: prime {self.p} does not fit in 31 bits")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    def label(self) -> str:
        return f"GF({self.p})"


class PrimeDisagreement(Exception):
    """Two pinned primes produced different ranks for the same block."""


def sparse_rank(block, field: FieldSpec) -> int:
    """Rank of a sparse block over GF(p).

    `block` needs .nrows, .ncols, .entries (an iterable of (row, col,
    value) triples; later triples at the same position accumulate) and the
    same triples as int64 arrays .rows, .cols and .vals.  A block of
    ROUNDS_MIN_NNZ triples or more, however large, is ranked by the rounds
    kernel on its own, `sparse_ranks([block], field)`; a smaller one by
    `echelon_mod`, whose basis has one vector per pivot.
    """
    if block.vals.size < ROUNDS_MIN_NNZ:
        return len(echelon_mod(block.entries, field.p))
    return sparse_ranks([block], field)[0]


def block_ranks(blocks, fields, rational_cap: int | None) -> dict:
    """Ranks of `blocks` over their `fields`: the one block-rank path.

    `blocks` is an iterable of blocks carrying .key (see `sparse_rank`),
    `fields` one tuple of FieldSpecs per block.  A block is certified when
    both of its sides are within rational_cap (None certifies nothing).  A
    certified block is ranked on its own as soon as it is pulled, by
    `sparse_rank` per field and by `rational_rank`.  Every other block,
    whatever its size, waits in a batch, ranked by one `sparse_ranks` call
    per field over the blocks that need it once its entries reach
    BATCH_MAX_NNZ, and at the end; a block that alone reaches the bound
    closes its batch.  Returns {key: ({prime: rank}, rational rank or
    None)} in block order.
    """
    ranked: dict = {}
    batch: list = []
    nnz = 0

    def flush() -> None:
        for field in dict.fromkeys(field for _, need in batch for field in need):
            members = [block for block, need in batch if field in need]
            for block, rank in zip(members, sparse_ranks(members, field)):
                ranked[block.key][0][field.p] = rank
        batch.clear()

    for block, need in zip(blocks, fields):
        if rational_cap is not None and max(block.nrows, block.ncols) <= rational_cap:
            ranked[block.key] = (
                {field.p: sparse_rank(block, field) for field in need},
                rational_rank(block, dense_limit=rational_cap),
            )
            continue
        ranked[block.key] = ({}, None)
        batch.append((block, need))
        nnz += block.vals.size
        if nnz >= BATCH_MAX_NNZ:
            flush()
            nnz = 0
    flush()
    return ranked


_NO_SCORE = np.iinfo(np.int64).max


def sparse_ranks(blocks, field: FieldSpec) -> list[int]:
    """Ranks over GF(p) of `blocks`, in order, by one rounds elimination of
    their block-diagonal stack.

    Each block needs .nrows, .ncols and its entries as int64 arrays .rows,
    .cols and .vals.  Its rows and columns are offset by the rows and
    columns of the blocks before it, the stack is eliminated once by
    `_round_elimination`, and each block's rank is the number of pivots in
    its column range.  A block-diagonal matrix stays block-diagonal under
    elimination, so the blocks share rounds without meeting, and a block
    whose elimination ends drops out of the live rows and columns of every
    later round.  A block given a rank above min(nrows, ncols) raises
    InvariantViolation.
    """
    if not blocks:
        return []
    nrows = np.array([block.nrows for block in blocks], dtype=np.int64)
    ncols = np.array([block.ncols for block in blocks], dtype=np.int64)
    row_at, col_at = np.cumsum(nrows) - nrows, np.cumsum(ncols) - ncols
    sizes = [block.vals.size for block in blocks]
    pivots = _round_elimination(
        np.concatenate([block.rows for block in blocks]) + np.repeat(row_at, sizes),
        np.concatenate([block.cols for block in blocks]) + np.repeat(col_at, sizes),
        np.concatenate([block.vals for block in blocks]),
        int(ncols.sum()),
        field.p,
    )
    # an empty block shares its start with the next one: side="right"
    # credits a pivot to the last block starting at or before its column
    owner = np.searchsorted(col_at, pivots, side="right") - 1
    ranks = np.bincount(owner, minlength=len(blocks))
    over = np.flatnonzero(ranks > np.minimum(nrows, ncols))
    if over.size:
        i = int(over[0])
        raise InvariantViolation(
            f"sparse_ranks: rank {ranks[i]} of a {nrows[i]}x{ncols[i]} block"
        )
    return ranks.tolist()


def _round_elimination(rows, cols, vals, ncols: int, p: int) -> np.ndarray:
    """The columns of the pivots of an elimination over GF(p), by rounds of
    compatible pivots, of the matrix with ncols columns and entries
    (rows[i], cols[i], vals[i]) (repeats accumulate): the one rounds
    kernel.

    Each round scores every entry by its Markowitz cost (row count - 1) *
    (column count - 1), ties to the earlier position in row-major order,
    and takes as candidates the entries cheapest in both their row and
    their column.  A candidate whose row holds another candidate's column
    is dropped, the cheaper of the two kept, so the pivot submatrix is
    diagonal; the cheapest entry always stays, so every round makes
    progress.  Pivots are then taken in cost order while their products
    |L_k|*|U_k| sum to at most ROUND_PRODUCTS_CAP (at least one pivot), and
    all are eliminated at once: the Schur complement is the rest of the
    matrix plus, for every pivot k, its column entries a_ik times its row
    entries u_kj scaled by -1/a_kk, joined on k, summed mod p per position
    with zeros dropped.  rank = pivots + rank(Schur complement).  Values
    stay below p < 2^31, so every product stays below 2^62.

    Between rounds the active matrix is its sorted row-major keys and their
    values.  Each round numbers its live rows and columns afresh, in order,
    so every per-round array is as large as what is left of the matrix and
    entries keep their row-major positions, hence the same pivots.  It
    keys its untouched entries in that numbering, still sorted, writes the
    fill behind them, and a stable sort merges the fill into their sorted
    run instead of sorting it again.
    """
    key = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64) % p
    # live[c] is the original column of live column c
    live, width = np.arange(ncols), ncols
    pivot_cols = [np.empty(0, dtype=np.int64)]
    while True:
        # sort, sum repeats mod p and drop zeros; the stable sort merges the
        # fill into the untouched entries' sorted run.  Each array is
        # rebound as soon as it is replaced, so its old copy is freed
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        del order
        new = np.empty(key.size, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        if not new.all():
            starts = np.flatnonzero(new)
            key = key[starts]
            vals = np.add.reduceat(vals, starts)
            vals %= p
            del starts
        del new
        nonzero = vals != 0
        key = key[nonzero]
        vals = vals[nonzero]
        del nonzero
        if not vals.size:
            return np.concatenate(pivot_cols)
        # number the live rows and columns in order: keys keep their order
        rows, cols = np.divmod(key, width)
        del key
        new_row = np.empty(rows.size, dtype=bool)
        new_row[0] = True
        np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
        rows = np.cumsum(new_row) - 1
        del new_row
        seen = np.zeros(width, dtype=bool)
        seen[cols] = True
        live, width = live[seen], int(np.count_nonzero(seen))
        cols = (np.cumsum(seen) - 1)[cols]
        del seen
        nrows = int(rows[-1]) + 1
        piv = _round_pivots(rows, cols, nrows, width)
        k = piv.size
        piv_of_row = np.full(nrows, -1)
        piv_of_row[rows[piv]] = np.arange(k)
        piv_of_col = np.full(width, -1)
        piv_of_col[cols[piv]] = np.arange(k)
        kr, kc = piv_of_row[rows], piv_of_col[cols]
        in_row, in_col = kr >= 0, kc >= 0
        both = in_row & in_col
        if not k or np.count_nonzero(both) != k or not np.array_equal(kr[both], kc[both]):
            raise InvariantViolation("_round_elimination: pivot submatrix is not diagonal")
        pivot_cols.append(live[cols[piv]])
        inv = _inverses(vals[piv], p)
        # L: pivot-column entries off the pivot rows; U: pivot-row entries
        # off the pivot columns, scaled by the pivot's inverse.  A pivot's U
        # entries are one run of its row: `first` is where that run starts
        low = in_col & ~in_row
        lk, li, lv = kc[low], rows[low], p - vals[low]
        up = in_row & ~in_col
        uk, uj = kr[up], cols[up]
        uv = vals[up] * inv[uk] % p
        per_pivot = np.bincount(uk, minlength=k)
        in_order = np.argsort(rows[piv])
        first = np.empty(k, dtype=np.int64)
        first[in_order] = np.cumsum(per_pivot[in_order]) - per_pivot[in_order]
        reps = per_pivot[lk]
        rest = ~(in_row | in_col)
        del kr, kc, in_row, in_col, both, low, up
        key = rows[rest] * width + cols[rest]
        vals = vals[rest]
        del rows, cols, rest
        if total := int(reps.sum()):
            # L entry e meets each U entry of its pivot: `ui` walks that
            # pivot's run of the U arrays once per L entry.  The fill is
            # written behind the untouched entries, which the join's peak
            # then holds once
            ui = np.arange(total) + np.repeat(first[lk] - (np.cumsum(reps) - reps), reps)
            n = key.size
            key = np.concatenate([key, np.repeat(li * width, reps)])
            key[n:] += uj[ui]
            vals = np.concatenate([vals, np.repeat(lv, reps)])
            vals[n:] *= uv[ui]
            vals[n:] %= p
            del ui


def _inverses(vals, p: int) -> np.ndarray:
    """1/v mod p for each v of vals, nonzero and reduced mod p, by a product
    tree: products of pairs, level by level, up to one product, which alone
    is inverted by `pow`; then down again, each inverse times its sibling
    is the inverse of the other.  About 3 products per value and one `pow`:
    at 1,024 values 135 us, against 495 us for Fermat powers v^(p-2) and
    1.4 ms for one `pow` per value (2-vCPU Xeon VM); at one value it is one
    `pow`."""
    size, levels = vals.size, []
    while vals.size > 1:
        if vals.size % 2:
            vals = np.append(vals, 1)
        levels.append(vals)
        vals = vals[0::2] * vals[1::2] % p
    inv = np.array([pow(v, -1, p) for v in vals.tolist()], dtype=np.int64)
    for pairs in reversed(levels):
        inv, half = np.empty(pairs.size, dtype=np.int64), inv[: pairs.size // 2]
        inv[0::2] = half * pairs[1::2] % p
        inv[1::2] = half * pairs[0::2] % p
    return inv[:size]


def _round_pivots(rows, cols, nrows: int, ncols: int) -> np.ndarray:
    """Positions of one round's pivots, cheapest first: see
    `_round_elimination`, whose rows are sorted and whose every row and
    column in range(nrows) and range(ncols) holds an entry.  Its per-entry
    scores die with the call, before the round's Schur complement is
    formed."""
    row_count = np.bincount(rows, minlength=nrows)
    col_count = np.bincount(cols, minlength=ncols)
    cost = (row_count[rows] - 1) * (col_count[cols] - 1)
    # cost in the high bits, position in the low 32: one comparable score
    score = np.minimum(cost, 1 << 30) << 32 | np.arange(rows.size)
    # each row is one run of the sorted rows
    row_best = np.minimum.reduceat(score, np.cumsum(row_count) - row_count)
    col_best = np.full(ncols, _NO_SCORE)
    np.minimum.at(col_best, cols, score)
    keep = (score == row_best[rows]) & (score == col_best[cols])
    row_cand = np.full(nrows, -1)
    row_cand[rows[keep]] = score[keep]
    col_cand = np.full(ncols, -1)
    col_cand[cols[keep]] = score[keep]
    by_row, by_col = row_cand[rows], col_cand[cols]
    clash = (by_row >= 0) & (by_col >= 0) & ~keep
    # of two candidates whose row and column meet, drop the dearer one
    keep[np.maximum(by_row[clash], by_col[clash]) & 0xFFFFFFFF] = False
    piv = np.flatnonzero(keep)
    piv = piv[np.argsort(score[piv])]
    products = np.cumsum(cost[piv])
    return piv[: max(1, int(np.searchsorted(products, ROUND_PRODUCTS_CAP, side="right")))]


def dense_rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a dense integer matrix."""
    return len(rref_mod(a, p)[1])


def rational_rank(block, dense_limit: int = DEFAULT_DENSE_LIMIT) -> int:
    """Exact rank over the rationals by sparse fraction-free elimination.

    Columns enter, in index order, an echelon basis of primitive integer
    vectors keyed by leading (lowest) row.  A column meeting a stored pivot
    becomes v <- a*v - b*pivot, a = pv/g, b = f/g, g = gcd(pv, f) of the two
    leading entries, divided by its content.  Every step is invertible over
    QQ and nothing is reduced mod p, so this independently checks the GF(p)
    path.  Refuses matrices beyond dense_limit on either side.
    """
    nrows, ncols = block.nrows, block.ncols
    if nrows > dense_limit or ncols > dense_limit:
        raise ValueError(
            f"rational_rank: {nrows}x{ncols} exceeds dense limit {dense_limit}"
        )
    columns: dict[int, dict[int, int]] = {}
    for r, c, v in block.entries:
        col = columns.setdefault(c, {})
        col[r] = col.get(r, 0) + v
    basis: dict[int, dict[int, int]] = {}
    for c in sorted(columns):
        vec = {r: v for r, v in columns[c].items() if v}
        while vec:
            g = gcd(*vec.values())
            if g != 1:
                vec = {r: v // g for r, v in vec.items()}
            lead = min(vec)
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = vec
                break
            g = gcd(pivot[lead], vec[lead])
            a, b = pivot[lead] // g, vec[lead] // g
            if a != 1:
                vec = {r: a * v for r, v in vec.items()}
            for r, v in pivot.items():
                if x := vec.get(r, 0) - b * v:
                    vec[r] = x
                else:
                    del vec[r]
    return len(basis)


def echelon_mod(entries, p: int) -> dict[int, dict[int, int]]:
    """Sparse echelon basis over GF(p) of the columns of (row, col, value)
    triples (repeats accumulate), as {lead: vector}, each vector monic at its
    lead (lowest row).  Columns enter in index order and reduce at their lead
    until it is new.  The leads are where vectors of the column span lead.
    A column's rows wait in a heap, each pushed once: a reduction only adds
    rows above its lead, and a row that cancels stays in the column at 0,
    still queued, so only a row new to the column is pushed; popped zeros
    are skipped and never stored."""
    columns: dict[int, dict[int, int]] = {}
    for r, c, v in entries:
        col = columns.setdefault(c, {})
        col[r] = col.get(r, 0) + v
    basis: dict[int, dict[int, int]] = {}
    for c in sorted(columns):
        vec = {r: x for r, v in columns[c].items() if (x := v % p)}
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            if not (f := vec[lead := heapq.heappop(heap)]):
                continue
            if (stored := basis.get(lead)) is None:
                inv = pow(f, -1, p)
                basis[lead] = {r: v * inv % p for r, v in vec.items() if v}
                break
            for r, v in stored.items():
                if (cur := vec.get(r)) is None:
                    vec[r] = -f * v % p
                    heapq.heappush(heap, r)
                else:
                    vec[r] = (cur - f * v) % p
    return basis


def kernel_mod(entries: list, ncols: int, p: int) -> list[dict[int, int]]:
    """`nullspace_mod`'s kernel basis, column for column, as {col: value}.
    Column c enters `echelon_mod` with a 1 at row top - c, below the matrix
    and in reversed order, so a column that reduces to zero on the matrix's
    rows leads at its own 1 and is left as its combination of columns.
    That basis depends only on the column order, not on where the stored
    vectors lead, so the matrix rows are renumbered to lead where little
    fill follows: by the first column that reaches them, latest lowest, ties
    to the higher row.  A column that reaches a row no earlier column did
    then leads there at once, with no reduction."""
    first: dict[int, int] = {}
    for r, c, _ in entries:
        first[r] = min(first.get(r, c), c)
    rank = {r: i for i, r in enumerate(sorted(first, key=lambda r: (first[r], r), reverse=True))}
    top = len(rank) - 1 + ncols
    basis = echelon_mod(
        [(rank[r], c, v) for r, c, v in entries] + [(top - c, c, 1) for c in range(ncols)], p
    )
    return [{top - k: v for k, v in b.items()} for lead, b in basis.items() if lead > top - ncols]


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns).

    The one dense elimination: each pivot clears its column from every
    other row in one outer-product update.  Requires p < 2^31 so products
    of reduced entries fit in int64.
    """
    m = np.array(a, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        pr = rank + nz[0]
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        others = np.nonzero(m[:, col])[0]
        others = others[others != rank]
        if others.size:
            # the pivot row is zero left of col, so only columns col: change
            update = np.outer(m[others, col], m[rank, col:])
            m[others, col:] = (m[others, col:] - update) % p
        pivots.append(col)
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
