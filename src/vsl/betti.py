"""Graded Betti numbers by blockwise exact rank computation.

dim K_{p,q} = dim middle - rank(out-differential) - rank(in-differential),
evaluated one multidegree block at a time with coordinate-permutation orbits
collapsed to a single representative.  Oversized work is refused with an
explicit ResourceRefusal rather than attempted; refused table entries are
reported as skipped, never silently as zero.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field as dc_field
from itertools import repeat

from .bounds import (
    InvariantViolation,
    VeroneseParams,
    duality_partner,
    green_vanishing_bound,
    h0,
)
from .cache import BlockCache, CacheKey
from .koszul import (
    BlockKey,
    differential_block,
    orbit_reduce,
    space_blocks,
    space_dim,
)
from .linalg import (
    FieldSpec,
    PrimeDisagreement,
    rational_rank,
    sparse_rank,
)


class ResourceRefusal(RuntimeError):
    """The requested computation exceeds the configured ceilings."""


@dataclass(frozen=True)
class ResourceLimits:
    """Explicit ceilings; exceeding one refuses the work with a message."""

    max_block_cols: int = 250_000
    max_space_dim: int = 30_000_000
    dense_limit: int = 2000  # rational certification size cap


ZERO = "ZERO"
NONZERO = "NONZERO"
SKIPPED = "SKIPPED"


def _rank_job(
    key: BlockKey, primes: tuple[int, ...], limits: ResourceLimits, rational_cap: int | None
) -> tuple[dict[int, int], int | None] | ResourceRefusal:
    """Assemble one block once and rank it: the Engine's only rank work.

    The column ceiling is applied here and a refusal is returned as a
    value, so a pooled run can meet it in serial order.  The block is
    ranked at every prime in `primes`, and over the rationals when both
    sides are within rational_cap, or always when `primes` is empty (the
    rationals engine).  Returns ({prime: rank}, rational rank or None);
    `Engine._rank_blocks` compares these ranks and stores them.
    """
    block = differential_block(key)
    if block.ncols > limits.max_block_cols:
        return ResourceRefusal(
            f"block {key} has {block.ncols} columns "
            f"(ceiling {limits.max_block_cols})"
        )
    ranks = {prime: sparse_rank(block, FieldSpec.prime(prime)) for prime in primes}
    exact = None
    if not primes or (
        rational_cap is not None
        and block.nrows <= rational_cap
        and block.ncols <= rational_cap
    ):
        exact = rational_rank(block, dense_limit=limits.dense_limit)
    return ranks, exact


class Engine:
    """Computes and caches block ranks for one coefficient field.

    certify_prime: optional second pinned prime; every block rank is
    recomputed there and a mismatch raises PrimeDisagreement (never
    averaged away).  rational_cap: blocks with both sides at most this
    size are additionally certified by fraction-free rational elimination.

    Block ranks go through one path: `_rank_job` applies the column
    ceiling and computes the prime and rational ranks, serially or in a
    process pool; `_rank_blocks` then compares the rational rank with each
    fresh prime rank, stores ranks in key and prime order, compares the
    two primes, and raises a refusal at the key where a serial run meets
    it.  Reports, cache files and stats therefore do not depend on
    `threads`.
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
        self.certify_prime = certify_prime
        self.rational_cap = rational_cap
        if certify_prime is not None and field.kind == "prime" and certify_prime == field.p:
            raise ValueError("certification prime must differ from the primary prime")
        self.stats = {
            "blocks_ranked": 0,
            "cache_hits": 0,
            "dual_prime_checks": 0,
            "rational_certified": 0,
            "refusals": 0,
        }

    # -- block-level ranks ------------------------------------------------

    def _cache_key(self, key: BlockKey, prime: int) -> CacheKey:
        return (key.n, key.d, key.b, key.p, key.q, key.mdeg, prime)

    def _rank_blocks(self, keys: list[BlockKey]) -> dict[BlockKey, int]:
        """Rank blocks through `_rank_job`, serially or across a process pool.

        Jobs cover the keys with an uncached engine prime (every key for
        the rationals engine).  A serial run maps them lazily, so it stops
        at the first refusal; a pool runs them all, in sorted key order.
        Either way their results are checked and stored in `keys` order.
        """
        primes = []
        if self.field.kind == "prime":
            primes = [self.field.p]
            if self.certify_prime is not None:
                primes.append(self.certify_prime)
        cached = {
            key: {prime: self.cache.get(self._cache_key(key, prime)) for prime in primes}
            for key in keys
        }
        todo = {
            key: tuple(prime for prime, rank in found.items() if rank is None)
            for key, found in cached.items()
            if not primes or None in found.values()
        }
        fixed = (repeat(self.limits), repeat(self.rational_cap))
        if self.threads > 1 and len(todo) >= 4:
            order = sorted(todo)
            with concurrent.futures.ProcessPoolExecutor(self.threads) as pool:
                done = dict(zip(order, pool.map(
                    _rank_job, order, map(todo.get, order), *fixed, chunksize=8
                )))
            outcomes = map(done.get, todo)
        else:
            outcomes = map(_rank_job, todo, todo.values(), *fixed)
        out: dict[BlockKey, int] = {}
        for key in keys:
            fresh, exact = {}, None
            if key in todo:
                outcome = next(outcomes)
                if isinstance(outcome, ResourceRefusal):
                    self.stats["refusals"] += 1
                    raise outcome
                fresh, exact = outcome
            ranks = []
            for prime, rank in cached[key].items():
                if rank is not None:
                    self.stats["cache_hits"] += 1
                else:
                    rank = fresh[prime]
                    if exact is not None and exact != rank:
                        raise PrimeDisagreement(
                            f"rational rank {exact} != GF({prime}) rank {rank} at {key}"
                        )
                    self.cache.put(self._cache_key(key, prime), rank)
                    self.stats["blocks_ranked"] += 1
                    self.stats["rational_certified"] += exact is not None
                ranks.append(rank)
            if len(ranks) == 2:
                self.stats["dual_prime_checks"] += 1
                if ranks[0] != ranks[1]:
                    raise PrimeDisagreement(
                        f"GF({primes[0]}) rank {ranks[0]} != "
                        f"GF({primes[1]}) rank {ranks[1]} at {key}"
                    )
            out[key] = ranks[0] if ranks else exact
        return out

    # -- homology ranks ----------------------------------------------------

    def _check_space(self, params: VeroneseParams, p: int, m: int) -> None:
        dim = space_dim(params.n, params.d, p, m)
        if dim > self.limits.max_space_dim:
            self.stats["refusals"] += 1
            raise ResourceRefusal(
                f"space dimension {dim} at {params.label()}, p={p}, deg {m} "
                f"exceeds ceiling {self.limits.max_space_dim}"
            )

    def kpq_dim(self, params: VeroneseParams, p: int, q: int) -> int:
        """dim K_{p,q} at params, orbit-reduced blockwise computation."""
        n, d, b = params.n, params.d, params.b
        m_mid = b + q * d
        if p < 0 or p > h0(n, d) or m_mid < 0:
            return 0
        self._check_space(params, p, m_mid)
        mid_blocks = space_blocks(n, d, p, m_mid)
        if not mid_blocks:
            return 0
        orbits = orbit_reduce(mid_blocks.keys())
        m_in = b + (q - 1) * d
        want_out = p >= 1
        want_in = m_in >= 0 and p + 1 <= h0(n, d)
        if want_in:
            self._check_space(params, p + 1, m_in)
        keys_out = [BlockKey(n, d, b, p, q, rep) for rep, _ in orbits] if want_out else []
        keys_in = (
            [BlockKey(n, d, b, p + 1, q - 1, rep) for rep, _ in orbits] if want_in else []
        )
        ranks = self._rank_blocks(keys_out + keys_in)
        total = 0
        for rep, count in orbits:
            mid = len(mid_blocks[rep][0])
            r_out = ranks[BlockKey(n, d, b, p, q, rep)] if want_out else 0
            r_in = ranks[BlockKey(n, d, b, p + 1, q - 1, rep)] if want_in else 0
            hom = mid - r_out - r_in
            if hom < 0:
                raise InvariantViolation(f"negative homology contribution at {rep}")
            total += count * hom
        return total


@dataclass
class BettiTable:
    """Computed table slice with three-valued entry status.

    dims holds every successfully computed entry (zeros included); skipped
    maps refused entries to the refusal reason.
    """

    params: VeroneseParams
    field: FieldSpec
    dims: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    skipped: dict[tuple[int, int], str] = dc_field(default_factory=dict)
    primes: tuple[int, ...] = ()
    certified: bool = False

    def status(self, p: int, q: int) -> str:
        if (p, q) in self.skipped:
            return SKIPPED
        dim = self.dims.get((p, q))
        if dim is None:
            return SKIPPED
        return NONZERO if dim else ZERO

    def dim(self, p: int, q: int) -> int | None:
        return self.dims.get((p, q))

    def nonzero_range(self, q: int) -> tuple[int, int] | None:
        ps = [p for (p, qq), v in self.dims.items() if qq == q and v]
        return (min(ps), max(ps)) if ps else None

    def p_values(self) -> list[int]:
        keys = set(self.dims) | set(self.skipped)
        return sorted({p for p, _ in keys})

    def q_values(self) -> list[int]:
        keys = set(self.dims) | set(self.skipped)
        return sorted({q for _, q in keys})

    def ascii(self) -> str:
        """Betti-diagram style rendering: rows q, columns p, '.' for zero,
        '?' for skipped."""
        ps, qs = self.p_values(), self.q_values()
        def cell(p: int, q: int) -> str:
            if (p, q) in self.skipped:
                return "?"
            v = self.dims.get((p, q))
            if v is None:
                return ""
            return str(v) if v else "."
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
        out = [("p", "q", "dim", "status")]
        for (p, q) in sorted(set(self.dims) | set(self.skipped)):
            if (p, q) in self.skipped:
                out.append((p, q, "", SKIPPED))
            else:
                dim = self.dims[(p, q)]
                out.append((p, q, dim, NONZERO if dim else ZERO))
        return out

    def to_json_dict(self) -> dict:
        return {
            "params": {"n": self.params.n, "d": self.params.d, "b": self.params.b},
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
                }
                for (p, q) in sorted(set(self.dims) | set(self.skipped))
            ],
            "provenance": {
                "primes": list(self.primes),
                "certified": self.certified,
            },
        }


def betti_table(
    params: VeroneseParams,
    engine: Engine,
    p_range: tuple[int, int] | None = None,
    q_range: tuple[int, int] | None = None,
) -> BettiTable:
    """Compute a rectangle of the Betti table, refusals recorded as skipped.

    Defaults cover everything that can be nonzero: p in [0, h0(n,d)] and
    q in [0, n+1].
    """
    n = params.n
    p_lo, p_hi = p_range if p_range else (0, h0(n, params.d))
    q_lo, q_hi = q_range if q_range else (0, n + 1)
    primes = [engine.field.p] if engine.field.kind == "prime" else []
    if engine.certify_prime is not None:
        primes.append(engine.certify_prime)
    table = BettiTable(
        params,
        engine.field,
        primes=tuple(primes),
        certified=engine.certify_prime is not None,
    )
    for q in range(q_lo, q_hi + 1):
        for p in range(p_lo, p_hi + 1):
            try:
                table.dims[(p, q)] = engine.kpq_dim(params, p, q)
            except ResourceRefusal as refusal:
                table.skipped[(p, q)] = str(refusal)
    return table


def duality_check(params: VeroneseParams, p: int, q: int, engine: Engine) -> dict:
    """Compare dim K_{p,q} with its Serre-dual partner entry."""
    p2, q2, b2 = duality_partner(params, p, q)
    partner = VeroneseParams(params.n, params.d, b2)
    try:
        lhs = engine.kpq_dim(params, p, q)
        rhs = engine.kpq_dim(partner, p2, q2)
    except ResourceRefusal as refusal:
        return {"p": p, "q": q, "verdict": SKIPPED, "reason": str(refusal)}
    return {
        "p": p,
        "q": q,
        "partner": {"p": p2, "q": q2, "b": b2},
        "lhs": lhs,
        "rhs": rhs,
        "verdict": "CONSISTENT" if lhs == rhs else "VIOLATION",
    }


def green_vanishing_check(
    params: VeroneseParams, q: int, engine: Engine, p_cap: int | None = None
) -> dict:
    """Verify K_{p,q} = 0 for all p >= h0(n, b + q d), and report the edge.

    Rows run from the bound to the last p with a nonzero middle space.  The
    entry one below the bound is reported (dimension and nonzeroness) but
    not asserted: the bound is sharp for some parameter families, not all.
    """
    bound = green_vanishing_bound(params, q)
    top = h0(params.n, params.d)
    if p_cap is not None:
        top = min(top, p_cap)
    rows = []
    ok = True
    for p in range(bound, top + 1):
        dim = engine.kpq_dim(params, p, q)
        rows.append((p, dim))
        if dim:
            ok = False
    edge_p = bound - 1
    edge_dim = engine.kpq_dim(params, edge_p, q) if edge_p >= 0 else None
    return {
        "q": q,
        "bound": bound,
        "rows": rows,
        "all_zero_from_bound": ok,
        "edge_p": edge_p,
        "edge_dim": edge_dim,
        "edge_nonzero": bool(edge_dim),
        "verdict": "CONSISTENT" if ok else "VIOLATION",
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
            "verdict": "CONSISTENT" if lhs == rhs else "VIOLATION"}
