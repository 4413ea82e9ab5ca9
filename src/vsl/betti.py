"""Graded Betti numbers by blockwise exact rank computation.

dim K_{p,q} = dim middle - rank(out-differential) - rank(in-differential),
evaluated one multidegree block at a time with coordinate-permutation orbits
collapsed to a single representative.  Oversized work is refused with an
explicit ResourceRefusal rather than attempted; refused table entries are
reported as skipped, never silently as zero.

On P^n, Green's duality K_{p,q}(b) = K_{r-n-p, n+1-q}(-n-1-b)^dual holds for
every twist b, because P^n has no intermediate line-bundle cohomology
(Green, J. Diff. Geom. 19, 1984).  Each entry can therefore be computed on
either side; `_side` picks the smaller one from sizes alone.
"""

from __future__ import annotations

import concurrent.futures
import os
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .bounds import (
    InvariantViolation,
    VeroneseParams,
    duality_partner,
    h0,
)
from .cache import BlockCache, CacheKey
from .koszul import (
    BlockKey,
    block_sizes,
    differential_blocks,
    orbit_reduce,
    space_dim,
)
from .linalg import BATCH_MAX_NNZ, FieldSpec, PrimeDisagreement, block_ranks


class ResourceRefusal(RuntimeError):
    """The requested computation exceeds the configured ceilings."""


@dataclass(frozen=True)
class ResourceLimits:
    """Explicit ceilings; exceeding one refuses the work with a message."""

    max_block_cols: int = 250_000
    max_space_dim: int = 30_000_000


# entry statuses, and the verdicts of the reports that grade entries
ZERO = "ZERO"
NONZERO = "NONZERO"
SKIPPED = "SKIPPED"
CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"


def _cost(params: VeroneseParams, p: int, q: int) -> int:
    """Closed-form size of the complex that computes K_{p,q} at params.

    The space dims of its in, middle and out terms; 0 when the middle term
    vanishes, since the entry is then 0 without any rank.
    """
    n, d, b = params.n, params.d, params.b
    if not space_dim(n, d, p, b + q * d):
        return 0
    return sum(space_dim(n, d, p + k, b + (q - k) * d) for k in (-1, 0, 1))


def _side(params: VeroneseParams, p: int, q: int) -> tuple[VeroneseParams, int, int]:
    """The entry whose complex is ranked first for K_{p,q} at params.

    The duality partner when its `_cost` is strictly smaller, so a tie goes
    direct.  Nothing is enumerated to decide.
    """
    p2, q2, b2 = duality_partner(params, p, q)
    dual = (VeroneseParams(params.n, params.d, b2), p2, q2)
    if _cost(*dual) < _cost(params, p, q):
        return dual
    return params, p, q


def _rank_group(
    keys: list[BlockKey], fields: list[tuple[FieldSpec, ...]], rational_cap: int | None
) -> dict[BlockKey, tuple[dict[int, int], int | None]]:
    """Assemble each key's block once, in order, and rank it over its
    fields (the engine's, checked once when it was built) by
    `linalg.block_ranks`: one share, one pool task, the engine's only rank
    work.  Blocks are assembled by `koszul.differential_blocks` from their
    slices alone, BATCH_MAX_NNZ entries' worth at a time (a block's entries
    are its columns times p, known from `block_sizes`), so a worker holds
    about one batch and never a whole space.  Returns {key: ({prime: rank},
    rational rank or None)} in key order; `Engine._dims` compares these
    ranks and stores them.
    """

    def blocks():
        chunk, nnz = [], 0
        for key in keys:
            chunk.append(key)
            nnz += key.p * block_sizes(key.n, key.d, key.p, key.b + key.q * key.d).get(key.mdeg, 0)
            if nnz >= BATCH_MAX_NNZ:
                yield from differential_blocks(chunk)
                chunk, nnz = [], 0
        yield from differential_blocks(chunk)

    return block_ranks(blocks(), fields, rational_cap)


class _Plan(NamedTuple):
    """One entry's block work, decided from sizes: per orbit of its middle
    space (count, mid size, out key, in key), a key None where that
    differential vanishes, and the partner index it is computed through."""

    orbits: list[tuple[int, int, BlockKey | None, BlockKey | None]]
    via: dict | None = None

    def sizes(self) -> dict[BlockKey, int]:
        """Each block key with its orbit's mid size, out-blocks first."""
        return {o[i]: o[1] for i in (2, 3) for o in self.orbits if o[i] is not None}


class Engine:
    """Computes and caches block ranks over one prime field.

    certify_prime: optional second pinned prime; every block rank is
    recomputed there and a mismatch raises PrimeDisagreement (never
    averaged away).  `primes` holds the field's prime, then certify_prime
    if given, and `fields` their FieldSpecs, built once for every rank job.
    rational_cap: blocks with both sides at most this size are additionally
    certified by fraction-free rational elimination.

    Every entry goes plan -> rank -> sum.  `_plan` checks its blocks against
    the ceilings from sizes alone (`koszul.block_sizes`), `_route` plans the
    side `_side` picks, and `_dims` deals the uncached blocks of a run of
    plans into `threads` shares before it collects, stores and sums any.
    Each share is one `_rank_group`, which assembles only its own blocks,
    from their slices (`koszul.differential_blocks`), and ranks through
    `linalg.block_ranks`: that alone decides which blocks are ranked on
    their own and which together.  No engine process enumerates a whole
    space.
    `kpq_dim` and `direct_dim` run one plan; `betti_table` and `verify` run
    their whole window.  Reports, cache files and stats do not depend on
    `threads` or on the order jobs run in, nor refusals on the cache.
    A serial engine ranks its one share in place.  With threads > 1 the
    engine ranks only inside `with engine:`, which owns one process pool
    until the `with` ends: its workers, at most one per usable CPU, are
    forked at the first pooled rank and serve the command.
    """

    def __init__(
        self,
        field: FieldSpec,
        cache: BlockCache | None = None,
        limits: ResourceLimits | None = None,
        threads: int = 1,
        certify_prime: int | None = None,
        rational_cap: int | None = None,
    ) -> None:
        self.field = field
        self.cache = cache if cache is not None else BlockCache()
        self.limits = limits if limits is not None else ResourceLimits()
        self.threads = max(1, threads)
        # checked here: a bad prime would otherwise first fail in a pool worker
        self.fields = (field,) if certify_prime is None else (field, FieldSpec.prime(certify_prime))
        self.certify_prime = certify_prime
        self.rational_cap = rational_cap
        if certify_prime == field.p:
            raise ValueError("certification prime must differ from the primary prime")
        self.primes = tuple(f.p for f in self.fields)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self.stats = {
            "blocks_ranked": 0,
            "cache_hits": 0,
            "dual_prime_checks": 0,
            "rational_certified": 0,
            "refusals": 0,
        }

    def __enter__(self) -> Engine:
        if self.threads > 1:
            # shares are still dealt `threads` ways: results do not change
            usable = getattr(os, "sched_getaffinity", None)
            cpus = len(usable(0)) if usable else os.cpu_count() or 1
            self._pool = concurrent.futures.ProcessPoolExecutor(min(self.threads, cpus))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(cancel_futures=exc_type is not None)

    # -- plan -> rank -> sum -----------------------------------------------

    def _cache_key(self, key: BlockKey, prime: int) -> CacheKey:
        return (key.n, key.d, key.b, key.p, key.q, key.mdeg, prime)

    def _dims(self, plans: Iterable[_Plan]) -> list[int]:
        """dim of each planned entry: the engine's one rank path.

        Plans are taken one at a time, each submitted before the next is
        made.  A plan's jobs are its keys with a prime the cache lacks that
        no earlier plan is ranking, dealt largest mid size first (an
        out-block's columns, an in-block's rows), ties in key order, each to
        the `threads` share with the least mid size so far.  Each nonempty
        share is one `_rank_group`, a pool task, or run here and now when
        there is no pool: a serial engine is the one-share case.  After the
        last plan, each plan's keys and primes are read from the cache in
        order: a hit counts as one, and a miss takes its key's job's rank,
        checked against the rational rank, then stored and counted.
        """
        if self.threads > 1 and self._pool is None:
            raise RuntimeError(f"Engine(threads={self.threads}) ranks only inside `with engine:`")
        jobs: dict[BlockKey, concurrent.futures.Future] = {}
        submitted = []
        for plan in plans:
            sizes = plan.sizes()
            todo = {}
            for key in sizes:
                need = tuple(
                    f for f in self.fields if self.cache.get(self._cache_key(key, f.p)) is None
                )
                if need and key not in jobs:
                    todo[key] = need
            shares: list[list[BlockKey]] = [[] for _ in range(self.threads)]
            loads = [0] * self.threads
            for key in sorted(todo, key=lambda key: (-sizes[key], key)):
                least = loads.index(min(loads))
                shares[least].append(key)
                loads[least] += sizes[key]
            for share in filter(None, shares):
                task = (share, list(map(todo.get, share)), self.rational_cap)
                if self._pool is None:
                    job: concurrent.futures.Future = concurrent.futures.Future()
                    job.set_result(_rank_group(*task))
                else:
                    job = self._pool.submit(_rank_group, *task)
                jobs.update(dict.fromkeys(share, job))
            submitted.append(plan)
        dims = []
        for plan in submitted:
            ranks: dict[BlockKey | None, int] = {}
            # a plan's new records reach the cache file with one open
            with self.cache.appending():
                for key in plan.sizes():
                    both = []
                    for prime in self.primes:
                        rank = self.cache.get(self._cache_key(key, prime))
                        if rank is None:
                            fresh, exact = jobs[key].result()[key]
                            rank = fresh[prime]
                            if exact is not None and exact != rank:
                                raise PrimeDisagreement(
                                    f"rational rank {exact} != GF({prime}) rank {rank} at {key}"
                                )
                            self.cache.put(self._cache_key(key, prime), rank)
                            self.stats["blocks_ranked"] += 1
                            self.stats["rational_certified"] += exact is not None
                        else:
                            self.stats["cache_hits"] += 1
                        both.append(rank)
                    if len(both) == 2:
                        self.stats["dual_prime_checks"] += 1
                        if both[0] != both[1]:
                            raise PrimeDisagreement(
                                f"GF({self.primes[0]}) rank {both[0]} != "
                                f"GF({self.primes[1]}) rank {both[1]} at {key}"
                            )
                    ranks[key] = both[0]
            total = 0
            for count, mid, out, into in plan.orbits:
                # a vanishing differential (key None) has rank 0
                hom = mid - ranks.get(out, 0) - ranks.get(into, 0)
                if hom < 0:
                    raise InvariantViolation(
                        f"negative homology contribution at {(out or into).mdeg}"
                    )
                total += count * hom
            dims.append(total)
        return dims

    def _check_space(self, params: VeroneseParams, p: int, m: int) -> int:
        dim = space_dim(params.n, params.d, p, m)
        if dim > self.limits.max_space_dim:
            self.stats["refusals"] += 1
            raise ResourceRefusal(
                f"space dimension {dim} at {params.label()}, p={p}, deg {m} "
                f"exceeds ceiling {self.limits.max_space_dim}"
            )
        return dim

    def _plan(self, params: VeroneseParams, p: int, q: int, via: dict | None = None) -> _Plan:
        """K_{p,q} at params on its own complex, orbit-reduced blockwise, as
        a `_Plan` with the given via.

        Every block is checked against the column ceiling from
        `block_sizes`, cached or not, and a refusal raises ResourceRefusal
        before any block is ranked.  An out-block's columns are a mid
        block; an in-block can exceed the ceiling only when its whole space
        does, so the in-space's sizes are computed only then.  No space is
        enumerated.
        """
        n, d, b = params.n, params.d, params.b
        m_mid = b + q * d
        self._check_space(params, p, m_mid)
        mid_sizes = block_sizes(n, d, p, m_mid)
        if not mid_sizes:
            return _Plan([], via)
        m_in = b + (q - 1) * d
        want_in = m_in >= 0 and p + 1 <= h0(n, d)
        in_dim = self._check_space(params, p + 1, m_in) if want_in else 0
        orbits = [
            (
                count,
                mid_sizes[rep],
                BlockKey(n, d, b, p, q, rep) if p >= 1 else None,
                BlockKey(n, d, b, p + 1, q - 1, rep) if want_in else None,
            )
            for rep, count in orbit_reduce(mid_sizes.keys())
        ]
        ceiling = self.limits.max_block_cols
        cols = [(out, mid) for _, mid, out, _ in orbits if out is not None]
        if in_dim > ceiling:
            in_sizes = block_sizes(n, d, p + 1, m_in)
            cols += [(k, in_sizes[k.mdeg]) for *_, k in orbits if k.mdeg in in_sizes]
        for key, ncols in cols:
            if ncols > ceiling:
                self.stats["refusals"] += 1
                raise ResourceRefusal(f"block {key} has {ncols} columns (ceiling {ceiling})")
        return _Plan(orbits, via)

    def _route(self, params: VeroneseParams, p: int, q: int) -> _Plan:
        """K_{p,q}'s plan on the side `_side` picks.  A partner the ceilings
        refuse falls back to the direct complex, so routing never skips an
        entry `direct_dim` computes."""
        side = _side(params, p, q)
        if side != (params, p, q):
            try:
                return self._plan(*side, {"p": side[1], "q": side[2], "b": side[0].b})
            except ResourceRefusal:
                pass
        return self._plan(params, p, q)

    def kpq_dim(self, params: VeroneseParams, p: int, q: int) -> int:
        """dim K_{p,q} at params, on the side `_route` picks."""
        return self._dims([self._route(params, p, q)])[0]

    def direct_dim(self, params: VeroneseParams, p: int, q: int) -> int:
        """dim K_{p,q} at params by its own complex; see `_plan`."""
        return self._dims([self._plan(params, p, q)])[0]


@dataclass
class BettiTable:
    """Computed table slice with three-valued entry status: the one entry
    record, which `betti` renders and `verify` grades.

    dims holds every successfully computed entry (zeros included); skipped
    maps refused entries to the refusal reason; via maps each entry computed
    through its duality partner to the partner's index.
    """

    params: VeroneseParams
    field: FieldSpec
    dims: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    skipped: dict[tuple[int, int], str] = dc_field(default_factory=dict)
    via: dict[tuple[int, int], dict] = dc_field(default_factory=dict)
    primes: tuple[int, ...] = ()
    certified: bool = False

    def keys(self) -> list[tuple[int, int]]:
        """The (p, q) of every entry, computed or skipped, in sorted order."""
        return sorted(self.dims.keys() | self.skipped.keys())

    def status(self, p: int, q: int) -> str:
        dim = self.dims.get((p, q))
        if dim is None:
            return SKIPPED
        return NONZERO if dim else ZERO

    def dim(self, p: int, q: int) -> int | None:
        return self.dims.get((p, q))

    def ascii(self) -> str:
        """Betti-diagram style rendering: rows q, columns p, '.' for zero,
        '?' for skipped, blank outside the computed entries."""
        keys = self.keys()
        ps, qs = sorted({p for p, _ in keys}), sorted({q for _, q in keys})
        def cell(p: int, q: int) -> str:
            if (p, q) not in keys:
                return ""
            return {SKIPPED: "?", ZERO: "."}.get(self.status(p, q), str(self.dims.get((p, q))))
        totals = []
        for p in ps:
            col = [self.dims.get((p, q)) for q in qs]
            known = [v for v in col if v is not None]
            totals.append(str(sum(known)) if len(known) == len(col) else "?")
        head = [""] + [str(p) for p in ps]
        rows = [head, ["total:"] + totals]
        for q in qs:
            rows.append([f"{q}:"] + [cell(p, q) for p in ps])
        widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
        return "\n".join(
            " ".join(x.rjust(w) for x, w in zip(r, widths)) for r in rows
        )

    def csv_rows(self) -> list[tuple]:
        return [("p", "q", "dim", "status")] + [
            (p, q, self.dims.get((p, q), ""), self.status(p, q))
            for p, q in self.keys()
        ]

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.as_json(),
            "field": self.field.label(),
            "entries": [
                {
                    "p": p,
                    "q": q,
                    "dim": self.dims.get((p, q)),
                    "status": self.status(p, q),
                    **(
                        {"reason": self.skipped[(p, q)]}
                        if (p, q) in self.skipped
                        else {}
                    ),
                    **({"via": self.via[(p, q)]} if (p, q) in self.via else {}),
                }
                for p, q in self.keys()
            ],
            "provenance": {
                "primes": list(self.primes),
                "certified": self.certified,
            },
        }


def _table(params: VeroneseParams, engine: Engine, entries: list[tuple[int, int]]) -> BettiTable:
    """The entries (p, q) of params, refusals recorded as skipped, all
    through one `Engine._dims`: the pool never waits for one entry to finish
    before it gets the next one's blocks."""
    certified = engine.certify_prime is not None
    table = BettiTable(params, engine.field, primes=engine.primes, certified=certified)
    planned = []

    def plans():
        for entry in entries:
            try:
                plan = engine._route(params, *entry)
            except ResourceRefusal as refusal:
                table.skipped[entry] = str(refusal)
                continue
            planned.append((entry, plan.via))
            yield plan

    dims = engine._dims(plans())
    for (entry, via), dim in zip(planned, dims):
        table.dims[entry] = dim
        if via is not None:
            table.via[entry] = via
    return table


def betti_table(
    params: VeroneseParams,
    engine: Engine,
    p_range: tuple[int | None, int | None] = (None, None),
    q_range: tuple[int | None, int | None] = (None, None),
) -> BettiTable:
    """Compute a rectangle of the Betti table, refusals recorded as skipped.

    Its entries, q by q and p ascending within each q, go plan -> rank ->
    sum through one `Engine._dims` (see `_table`).  An end given as None
    defaults to the edge of everything that can be nonzero: p in
    [0, h0(n,d)] and q in [0, n+1].
    """
    (p_lo, p_hi), (q_lo, q_hi) = p_range, q_range
    p_hi = h0(params.n, params.d) if p_hi is None else p_hi
    q_hi = params.n + 1 if q_hi is None else q_hi
    qs, ps = range(q_lo or 0, q_hi + 1), range(p_lo or 0, p_hi + 1)
    return _table(params, engine, [(p, q) for q in qs for p in ps])


def duality_check(params: VeroneseParams, p: int, q: int, engine: Engine) -> dict:
    """Compare dim K_{p,q} with its Serre-dual partner entry.

    Both sides are computed directly: a routed engine would compute them
    on the same side and compare a number with itself.
    """
    p2, q2, b2 = duality_partner(params, p, q)
    partner = VeroneseParams(params.n, params.d, b2)
    try:
        lhs = engine.direct_dim(params, p, q)
        rhs = engine.direct_dim(partner, p2, q2)
    except ResourceRefusal as refusal:
        return {"p": p, "q": q, "verdict": SKIPPED, "reason": str(refusal)}
    return {
        "p": p,
        "q": q,
        "partner": {"p": p2, "q": q2, "b": b2},
        "lhs": lhs,
        "rhs": rhs,
        "verdict": CONSISTENT if lhs == rhs else VIOLATION,
    }


def euler_check(params: VeroneseParams, k: int, engine: Engine) -> dict:
    """Alternating sums along p + q = k: space dims vs homology dims.

    Ranks cancel in pairs along the strand, so the two alternating sums
    must agree; this ties every computed rank to its neighbours.
    """
    n, d, b = params.n, params.d, params.b
    lhs = 0
    rhs = 0
    for p in range(0, h0(n, d) + 1):
        m = b + (k - p) * d
        if m < 0:
            continue
        sign = -1 if p % 2 else 1
        lhs += sign * space_dim(n, d, p, m)
        rhs += sign * engine.kpq_dim(params, p, k - p)
    return {"k": k, "alternating_space_sum": lhs, "alternating_homology_sum": rhs,
            "verdict": CONSISTENT if lhs == rhs else VIOLATION}
