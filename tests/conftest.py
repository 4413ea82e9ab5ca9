from __future__ import annotations

import itertools

import numpy as np
import pytest

from vsl.betti import BettiTable, Engine, ResourceRefusal
from vsl.bounds import VeroneseParams, h0
from vsl.koszul import BlockKey, KoszulBlockMatrix, differential_block, space_blocks, wedge_subsets
from vsl.linalg import FieldSpec, PINNED_PRIMES, echelon_mod, kernel_mod, nullspace_mod, rref_mod
from vsl.polyspace import PointOverField
from vsl.syzygy import KoszulClass, alpha_chain, point_functional
from vsl.wedge import det_mod


@pytest.fixture(scope="session")
def eng() -> Engine:
    """Shared engine at the first pinned prime; block ranks accumulate."""
    return Engine(FieldSpec.prime(PINNED_PRIMES[0]))


@pytest.fixture(scope="session")
def eng2() -> Engine:
    """Independent engine at the second pinned prime for agreement checks."""
    return Engine(FieldSpec.prime(PINNED_PRIMES[1]))


def block_from_entries(key: BlockKey, nrows: int, ncols: int, entries) -> KoszulBlockMatrix:
    """The block of (row, col, value) triples (repeats accumulate)."""
    rows, cols, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return KoszulBlockMatrix(key, nrows, ncols, rows.copy(), cols.copy(), vals.copy())


def direct_table(params: VeroneseParams, engine: Engine) -> BettiTable:
    """The full table of params with every entry computed on its own complex
    by `Engine.direct_dim`, in `betti_table`'s order; refusals are skipped."""
    table = BettiTable(
        params, engine.field, primes=engine.primes, certified=engine.certify_prime is not None
    )
    for q in range(0, params.n + 2):
        for p in range(0, h0(params.n, params.d) + 1):
            try:
                table.dims[(p, q)] = engine.direct_dim(params, p, q)
            except ResourceRefusal as refusal:
                table.skipped[(p, q)] = str(refusal)
    return table


def dense_cycle_basis(params: VeroneseParams, p: int, q: int, prime: int) -> list[dict]:
    """The coefficients of a basis of K_{p,q} by the dense algorithm, the
    reference for `cycle_basis`: per block, in descending multidegree order,
    `nullspace_mod` of the outgoing block densified, then the kernel columns
    that are pivots of `rref_mod` of [incoming image | kernel]."""
    n, d, b = params.n, params.d, params.b
    m = b + q * d
    if p < 0 or p > h0(n, d) or m < 0:
        return []
    blocks = space_blocks(n, d, p, m)
    subsets = wedge_subsets(n, d, p)[0]
    classes = []
    for mdeg in sorted(blocks, reverse=True):
        si, ui = blocks[mdeg]
        elements = [(tuple(subsets[i].tolist()), int(u)) for i, u in zip(si, ui)]
        if p >= 1:
            kern = nullspace_mod(differential_block(BlockKey(n, d, b, p, q, mdeg)).dense(), prime)
        else:
            kern = np.eye(len(elements), dtype=np.int64)
        a, width = kern, 0
        if kern.shape[1] and b + (q - 1) * d >= 0 and p + 1 <= h0(n, d):
            a_in = differential_block(BlockKey(n, d, b, p + 1, q - 1, mdeg)).dense()
            a, width = np.hstack([a_in, kern]), a_in.shape[1]
        for c in rref_mod(a, prime)[1]:
            if c >= width:
                classes.append({elements[i]: int(a[i, c]) for i in np.nonzero(a[:, c])[0]})
    return classes


def lowest_lead_kernel_mod(entries: list, ncols: int, p: int) -> list[dict]:
    """The reference for `kernel_mod`: the same canonical kernel with every
    stored vector leading at its lowest matrix row, the rows not renumbered.
    Column c enters `echelon_mod` with a 1 at row top - c, below the matrix
    and in reversed order, so a column that reduces to zero on the matrix's
    rows leads at its own 1 and is left as its combination of columns."""
    top = max((r for r, _, _ in entries), default=-1) + ncols
    basis = echelon_mod(entries + [(top - c, c, 1) for c in range(ncols)], p)
    return [{top - k: v for k, v in b.items()} for lead, b in basis.items() if lead > top - ncols]


def nullity_rank(block, p: int) -> int:
    """The reference rank of a block over GF(p), by rank-nullity through
    `kernel_mod`, an elimination apart from both rank kernels."""
    return block.ncols - len(kernel_mod(block.entries, block.ncols, p))


def single_contraction(space, coeffs: dict, phi) -> dict:
    """Contraction of a raw chain by one functional, written out apart from
    `vsl.wedge` as the reference for `alpha_chain`: deleting wedge position
    j contributes (-1)^j * phi(v_j)."""
    out: dict = {}
    for (sub, ui), val in coeffs.items():
        for j, idx in enumerate(sub):
            key = (sub[:j] + sub[j + 1:], ui)
            out[key] = (out.get(key, 0) + (-1) ** j * phi[idx] * val) % space.prime
    return {k: v for k, v in out.items() if v}


def loop_contraction(space, coeffs: dict, functionals: list) -> dict:
    """The s-fold contraction of a raw chain by per-term loops, the reference
    for `alpha_chain` and `ev_D`: each s-subset J of a term's wedge
    positions is deleted with sign (-1)^(sum of J) and the `det_mod` minor
    of the functionals at the deleted factors."""
    out: dict = {}
    for (sub, ui), val in coeffs.items():
        for cut in itertools.combinations(range(len(sub)), len(functionals)):
            minor = det_mod([[phi[sub[j]] for j in cut] for phi in functionals], space.prime)
            key = (tuple(i for j, i in enumerate(sub) if j not in cut), ui)
            out[key] = (out.get(key, 0) + (-1) ** sum(cut) * minor * val) % space.prime
    return {k: v for k, v in out.items() if v}


def scaled(cls: KoszulClass, c: int) -> KoszulClass:
    """c times a class."""
    return KoszulClass(cls.space, {k: v * c for k, v in cls.coeffs.items()})


def plus(a: KoszulClass, b: KoszulClass) -> KoszulClass:
    """The sum of two classes of one space."""
    assert a.space == b.space
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, 0) + v
    return KoszulClass(a.space, out)


def random_point(n: int, prime: int, rng) -> PointOverField:
    """A random point of P^n over GF(prime)."""
    while True:
        raw = tuple(rng.randrange(prime) for _ in range(n + 1))
        if any(raw):
            return PointOverField.make(raw, prime)


def ev_at_point(cls: KoszulClass, point: PointOverField) -> KoszulClass:
    """The class contracted by evaluation at one point: `alpha_chain` with
    one functional."""
    phi = point_functional(cls.space.params, point)
    return KoszulClass(cls.space.shifted(-1, 0), alpha_chain(cls.space, cls.coeffs, [phi]))


# One pass/fail line per acceptance criterion, echoed at the end of the run.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {number}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
