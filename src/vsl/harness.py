"""Verification harness: computed strands vs predicted ranges, plus a pinned
self-test of the package's internal consistency on desk-scale inputs.

A verification row never conflates outcomes: a refused computation is
SKIPPED, an inapplicable statement is OUT_OF_APPLICABILITY, and only a
computed dimension contradicting an applicable statement is a VIOLATION.
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import (
    RangePrediction,
    Source,
    VeroneseParams,
    binom,
    duality_partner,
    h0,
    projection_codim,
    range_predictions,
)
from .betti import (
    CONSISTENT, SKIPPED, VIOLATION, Engine, _table, duality_check, euler_check
)
from .cache import BlockCache
from .koszul import BlockKey, block_sizes, differential_block, differential_blocks, space_blocks
from .linalg import FieldSpec, PINNED_PRIMES, block_ranks, dense_rank_mod
from .polyspace import monomial_basis, monomial_index, multiply
from .syzygy import (
    ChainSpace,
    alpha_chain,
    apply_differential,
    cycle_basis,
    ev_D,
    projection_factor_check,
    sample_general_points,
    twist_identification_check,
)

OUT_OF_APPLICABILITY = "OUT_OF_APPLICABILITY"


@dataclass
class VerificationRow:
    p: int
    q: int
    dim: int | None
    skipped_reason: str | None
    checks: list[dict]
    via: dict | None = None

    @property
    def verdict(self) -> str:
        if self.skipped_reason is not None:
            return SKIPPED
        if any(c["verdict"] == VIOLATION for c in self.checks):
            return VIOLATION
        if any(c["verdict"] == CONSISTENT for c in self.checks):
            return CONSISTENT
        if any(c["verdict"] == OUT_OF_APPLICABILITY for c in self.checks):
            return OUT_OF_APPLICABILITY
        return CONSISTENT  # no statement speaks about this entry


@dataclass
class VerificationReport:
    params: VeroneseParams
    field: FieldSpec
    strands: list[int]
    p_max: int
    p_min: int = 0
    rows: list[VerificationRow] = dc_field(default_factory=list)

    def source_summary(self) -> dict[str, str]:
        """Per statement: VERIFIED if every applicable claim checked out."""
        out: dict[str, str] = {}
        for src in Source:
            verdicts = [
                c["verdict"]
                for row in self.rows
                for c in row.checks
                if c["source"] == src.value
            ]
            if not verdicts:
                continue
            if VIOLATION in verdicts:
                out[src.value] = VIOLATION
            elif SKIPPED in verdicts:
                out[src.value] = SKIPPED
            elif CONSISTENT in verdicts:
                out[src.value] = "VERIFIED"
            else:
                out[src.value] = OUT_OF_APPLICABILITY
        return out

    def ok(self) -> bool:
        return all(row.verdict in (CONSISTENT, OUT_OF_APPLICABILITY) for row in self.rows)

    def degeneracy_note(self) -> str:
        note = (
            f"entries with p > {self.p_max} have zero middle space"
            if self.p_max >= h0(self.params.n, self.params.d)
            else f"entries with p > {self.p_max} not examined"
        )
        if self.p_min > 0:
            note = f"entries with p < {self.p_min} not examined; {note}"
        return note

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.as_json(),
            "field": self.field.label(),
            "strands": self.strands,
            **({"p_min": self.p_min} if self.p_min else {}),
            "p_max": self.p_max,
            "degeneracy_note": self.degeneracy_note(),
            "rows": [
                {
                    "p": row.p,
                    "q": row.q,
                    "dim": row.dim,
                    **(
                        {"skipped_reason": row.skipped_reason}
                        if row.skipped_reason
                        else {}
                    ),
                    **({"via": row.via} if row.via else {}),
                    "verdict": row.verdict,
                    "checks": row.checks,
                }
                for row in self.rows
            ],
            "summary": self.source_summary(),
        }

    def text(self) -> str:
        lines = [
            f"verification {self.params.label()} over {self.field.label()}, "
            f"strands {self.strands}, "
            + (f"{self.p_min} <= " if self.p_min else "")
            + f"p <= {self.p_max}"
        ]
        for row in self.rows:
            dim = "?" if row.dim is None else row.dim
            detail = "; ".join(
                f"{c['source']}:{c['verdict']}" for c in row.checks
            ) or "no claims"
            lines.append(f"  K_{{{row.p},{row.q}}} = {dim:>6}  {row.verdict:<22} {detail}")
        lines.append("summary: " + ", ".join(
            f"{k}={v}" for k, v in self.source_summary().items()
        ))
        return "\n".join(lines)


def _check_prediction(
    pred: RangePrediction, p: int, dim: int | None, skipped: str | None
) -> dict:
    """One statement's verdict on an entry; a skipped entry is SKIPPED."""
    if skipped is not None:
        return {"source": pred.source.value, "q": pred.q, "verdict": SKIPPED, "reason": skipped}
    base = {
        "source": pred.source.value,
        "q": pred.q,
        "lo": pred.lo,
        "hi": pred.hi,
        "reason": pred.reason,
    }
    if not pred.applicable:
        return {**base, "verdict": OUT_OF_APPLICABILITY}
    expected = pred.expected(p)
    if expected is None:
        return {**base, "verdict": CONSISTENT, "claim": "none at this p"}
    ok = (dim == 0) if expected == "zero" else (dim != 0)
    return {
        **base,
        "claim": expected,
        "verdict": CONSISTENT if ok else VIOLATION,
    }


def verify(
    params: VeroneseParams,
    strands: list[int],
    engine: Engine,
    p_max: int | None = None,
    p_min: int = 0,
) -> VerificationReport:
    """Compute whole strands and grade every published claim against them.

    Each strand is a table row with p from p_min to p_max (default: the
    wedge size bound h0(n,d), beyond which every entry is zero for
    dimension reasons); rows carry its dims, refusals and the duality
    partner an entry was computed through, if any.  All strands are one
    table, so no strand waits for the one before it (see `_table`).
    """
    cap = h0(params.n, params.d) if p_max is None else p_max
    report = VerificationReport(params, engine.field, list(strands), cap, p_min)
    ps = range(p_min, cap + 1)
    table = _table(params, engine, [(p, q) for q in strands for p in ps])
    for q in strands:
        preds = range_predictions(params, q)
        for p in ps:
            dim, skipped = table.dim(p, q), table.skipped.get((p, q))
            checks = [_check_prediction(pr, p, dim, skipped) for pr in preds]
            report.rows.append(
                VerificationRow(p, q, dim, skipped, checks, table.via.get((p, q)))
            )
    return report


# -- independent dense oracle --------------------------------------------------


def dense_differential(params: VeroneseParams, p: int, q: int) -> np.ndarray:
    """Full matrix of the differential at (p, q), built naively.

    Enumerates the complete source and target bases (no multidegree
    grouping) and transcribes the deletion formula with front-based signs.
    Serves as the independent route for block-vs-dense rank equality; ranks
    are insensitive to the per-column sign difference from the block path.
    """
    n, d, b = params.n, params.d, params.b
    m_src = b + q * d
    if p < 1 or m_src < 0:
        return np.zeros((0, 0), dtype=np.int64)
    basis_d = monomial_basis(n, d)
    src_mons = monomial_basis(n, m_src)
    tgt_mons_index = monomial_index(n, m_src + d)
    src_subs = list(itertools.combinations(range(len(basis_d)), p))
    tgt_subs_index = {
        s: i
        for i, s in enumerate(itertools.combinations(range(len(basis_d)), p - 1))
    }
    nsrc = len(src_subs) * len(src_mons)
    ntgt = len(tgt_subs_index) * len(tgt_mons_index)
    a = np.zeros((ntgt, nsrc), dtype=np.int64)
    nmon_tgt = len(tgt_mons_index)
    for ci, (sub, mono_i) in enumerate(
        (s, m) for s in range(len(src_subs)) for m in range(len(src_mons))
    ):
        s = src_subs[sub]
        mono = src_mons[mono_i]
        for j in range(p):
            tsub = tgt_subs_index[s[:j] + s[j + 1:]]
            tmon = tgt_mons_index[multiply(mono, basis_d[s[j]])]
            a[tsub * nmon_tgt + tmon, ci] += -1 if j % 2 else 1
    return a


def blockwise_rank(params: VeroneseParams, p: int, q: int, prime: int) -> int:
    """Orbit-free blockwise rank total (every block, no orbit shortcut),
    assembled by `differential_blocks` and ranked through `block_ranks`,
    the engine's own assembly and block-rank path."""
    n, d, b = params.n, params.d, params.b
    m_src = b + q * d
    if p < 1:
        return 0
    keys = [BlockKey(n, d, b, p, q, mdeg) for mdeg in block_sizes(n, d, p, m_src)]
    fields = itertools.repeat((FieldSpec.prime(prime),))
    ranked = block_ranks(differential_blocks(keys), fields, None)
    return sum(ranks[prime] for ranks, _ in ranked.values())


# -- selftest ------------------------------------------------------------------


@dataclass
class SelfTestResult:
    checks: list[tuple[str, bool, str]] = dc_field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def text(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            mark = "pass" if ok else "FAIL"
            lines.append(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
        lines.append(
            f"{sum(ok for _, ok, _ in self.checks)}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines)


def _compose_blocks(a, b) -> bool:
    """Is the composite of two sparse blocks zero (b applied after a)?"""
    if not a.entries or not b.entries:
        return True
    return not (b.dense() @ a.dense()).any()


def selftest(fast: bool = False) -> SelfTestResult:
    """Pinned desk-scale invariant suite; every check is deterministic."""
    import random

    result = SelfTestResult()
    prime, prime2 = PINNED_PRIMES[0], PINNED_PRIMES[1]
    eng = Engine(FieldSpec.prime(prime))

    # binomial ladder identities tying the bounds to each other
    ok = True
    for n in range(1, 7):
        for d in range(1, 13):
            if binom(d + n, n) - binom(d + n - 1, n - 1) != binom(d + n - 1, n):
                ok = False
            s = projection_codim(VeroneseParams(n, d))
            if binom(d - 2 + n, n) + s != binom(d + n - 1, n) + binom(d + n - 2, n - 2):
                ok = False
            pr = VeroneseParams(n, d)
            for p in range(0, 12):
                for q in range(0, n + 2):
                    p2, q2, b2 = duality_partner(pr, p, q)
                    back = duality_partner(VeroneseParams(n, d, b2), p2, q2)
                    if back != (p, q, 0):
                        ok = False
    result.record("bound identities and duality involution", ok)

    # differential squares to zero, blockwise, on pinned tables
    ok = True
    for (n, d) in ((1, 3), (2, 2)):
        for q in range(0, n + 2):
            for p in range(2, h0(n, d) + 1):
                m_src = q * d
                blocks = space_blocks(n, d, p, m_src)
                for mdeg in blocks:
                    b1 = differential_block(BlockKey(n, d, 0, p, q, mdeg))
                    b2 = differential_block(BlockKey(n, d, 0, p - 1, q + 1, mdeg))
                    if not _compose_blocks(b1, b2):
                        ok = False
    result.record("differential squares to zero (blockwise)", ok)

    # block totals equal dense full-matrix ranks
    ok = True
    detail = ""
    for (n, d) in ((1, 2), (1, 3)) if fast else ((1, 2), (1, 3), (2, 2)):
        pr = VeroneseParams(n, d)
        for q in range(0, n + 2):
            for p in range(1, h0(n, d) + 1):
                dense = dense_rank_mod(dense_differential(pr, p, q), prime)
                blox = blockwise_rank(pr, p, q, prime)
                if dense != blox:
                    ok = False
                    detail = f"(n={n},d={d},p={p},q={q}): dense {dense} vs blocks {blox}"
    result.record("block-vs-dense rank equality", ok, detail)

    # two pinned primes agree
    ok = True
    eng2 = Engine(FieldSpec.prime(prime2))
    for (n, d) in ((1, 3), (2, 2)):
        pr = VeroneseParams(n, d)
        for q in (0, 1, 2):
            for p in range(0, h0(n, d) + 1):
                if eng.kpq_dim(pr, p, q) != eng2.kpq_dim(pr, p, q):
                    ok = False
    result.record("dual-prime agreement", ok)

    # duality spot checks
    checks = [
        (VeroneseParams(2, 3), 7, 2),
        (VeroneseParams(1, 3), 1, 1),
        (VeroneseParams(2, 2), 3, 1),
    ]
    ok = all(duality_check(pr, p, q, eng)["verdict"] == CONSISTENT for pr, p, q in checks)
    result.record("duality partner dimensions agree", ok)

    # contraction commutes with the differential on random chains
    rng = random.Random(20240901)
    ok = True
    pr = VeroneseParams(2, 2)
    space = ChainSpace(pr, 3, 1, prime)
    mons = monomial_basis(2, 2)
    subs = list(itertools.combinations(range(len(mons)), 3))
    for _ in range(5 if fast else 20):
        coeffs = {
            (subs[rng.randrange(len(subs))], rng.randrange(len(mons))): rng.randrange(1, prime)
            for _ in range(6)
        }
        phi = tuple(rng.randrange(prime) for _ in mons)
        lhs = apply_differential(space.shifted(-1, 0), alpha_chain(space, coeffs, [phi]))
        rhs = alpha_chain(space.shifted(-1, +1), apply_differential(space, coeffs), [phi])
        if lhs != rhs:
            ok = False
    result.record("contraction commutes with the differential", ok)

    # three-fold contraction equals composed single contractions up to the
    # sign (-1)^(s(s-1)/2) of reversing the order of s contractions, on the
    # last random chain and random functionals (a hyperplane's points would
    # contract most chains to 0)
    phis = [tuple(rng.randrange(prime) for _ in mons) for _ in range(3)]
    composed, sp = coeffs, space
    for phi in phis:
        composed = alpha_chain(sp, composed, [phi])
        sp = sp.shifted(-1, 0)
    multi = alpha_chain(space, coeffs, phis)
    ok = bool(multi) and multi == {k: -v % prime for k, v in composed.items()}
    result.record("multi-point contraction matches composition up to sign", ok)

    # factorization through the hyperplane-vanishing subspace, on the
    # nonzero images of the plane cubic's p = 5 basis (the conic's vanish)
    cubic = VeroneseParams(2, 3)
    images = ev_D(cycle_basis(cubic, 5, 1, eng), sample_general_points(cubic, prime, seed=5))
    images = [image for image in images if image.coeffs]
    ok = bool(images) and all(projection_factor_check(image)["factors"] for image in images)
    result.record("projected classes factor through x_0-divisible wedges", ok)

    # twist identification
    ok = all(
        twist_identification_check(2, 2, p, eng)["verdict"] == CONSISTENT
        for p in range(0, 4)
    )
    result.record("twisted strand-1 equals strand-0 identification", ok)

    # Euler characteristic along antidiagonals
    ok = True
    for pr_k in ((VeroneseParams(1, 3), (1, 2, 3)), (VeroneseParams(2, 2), (2, 3, 4))):
        pr2, ks = pr_k
        for k in ks:
            if euler_check(pr2, k, eng)["verdict"] != CONSISTENT:
                ok = False
    result.record("alternating sums along antidiagonals", ok)

    # cache round-trip
    with tempfile.TemporaryDirectory() as tmp:
        c1 = BlockCache.open(tmp)
        e_cached = Engine(FieldSpec.prime(prime), cache=c1)
        val1 = e_cached.kpq_dim(VeroneseParams(2, 2), 2, 1)
        c2 = BlockCache.open(tmp)
        e_replay = Engine(FieldSpec.prime(prime), cache=c2)
        val2 = e_replay.kpq_dim(VeroneseParams(2, 2), 2, 1)
        ok = val1 == val2 and e_replay.stats["blocks_ranked"] == 0
        with open(c1.path, encoding="utf-8") as fh:
            lines1 = fh.read()
        with open(c2.path, encoding="utf-8") as fh:
            lines2 = fh.read()
        ok = ok and lines1 == lines2
    result.record("cache round-trip is byte-identical and warm", ok)

    return result
