"""Cycle-level maps on Koszul cohomology: the multi-point contraction
attached to a hyperplane (ev_D, applied to a list of classes of one space;
alpha_chain with one functional is the single-point contraction),
factorization through the subspace of forms vanishing on the hyperplane,
and the degree-drop chain of implications for linear-strand vanishing.

Every solve runs inside multidegree blocks, modulo the image of the
incoming block, on sparse echelons over GF(p) (`echelon_mod`,
`kernel_mod`); no block is made dense.  A cycle basis keeps the canonical
kernel vectors the incoming image does not reach; a map's rank on homology
is rank[B | images] - rank[B], B the incoming image; image = d(y) + z, z
on the forms vanishing on the hyperplane, is solvable exactly when the
image's column is free in the kernel of [incoming block | z's elements |
image].

Chains are sparse dicts keyed by (wedge index tuple, coefficient monomial
index).  ev_D contracts many chains at once as numpy terms.  Blocks are
assembled from slices by `koszul.differential_blocks`, many per call: a
cycle basis a chunk of blocks at a time, a homology-level solve all the
blocks it touches at once.  The cycle law is checked in bulk, once per
chunk of blocks by cycle_basis and once per batch of classes by ev_D, not
class by class.  The hyperplane is always x_0 = 0; its point count s
equals the number of degree-d monomials free of x_0.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .bounds import InvariantViolation, VeroneseParams, binom, h0, projection_codim
from .betti import CONSISTENT, VIOLATION, Engine
from .koszul import (
    BlockKey, KoszulBlockMatrix, combination_rank, differential_blocks, space_blocks, wedge_subsets,
)
from .linalg import echelon_mod, kernel_mod
from .polyspace import (
    MultiDegree, PointOverField, evaluate, monomial_basis, mult_table, restriction_split,
)
from .wedge import Functional, deletions, det_mod, minor_table, wedge_with

ChainKey = tuple[tuple[int, ...], int]
ChainCoeffs = dict[ChainKey, int]
# the terms of chains 0..k-1 of one space: owner chain, wedge subsets (T, p),
# monomial indices and values in GF(p)
Terms = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# products per batch of a bulk check or contraction, and out-block entries
# per chunk of a cycle basis: bounds the memory of the numpy terms and of
# the assembled blocks at (2,4) p >= 6
_BATCH = 1 << 14


class GenericityError(Exception):
    """Sampled points failed the general-position determinant certificate."""


@dataclass(frozen=True)
class ChainSpace:
    """The term (wedge^p V) (x) H0(b + q*d) with coefficients in GF(prime)."""

    params: VeroneseParams
    p: int
    q: int
    prime: int

    @property
    def m(self) -> int:
        return self.params.b + self.q * self.params.d

    def shifted(self, dp: int, dq: int) -> "ChainSpace":
        return ChainSpace(self.params, self.p + dp, self.q + dq, self.prime)

    def key_mdeg(self, key: ChainKey) -> tuple[int, ...]:
        n, d = self.params.n, self.params.d
        basis_d = monomial_basis(n, d)
        mono = monomial_basis(n, self.m)[key[1]]
        w = list(mono)
        for i in key[0]:
            for c, e in enumerate(basis_d[i]):
                w[c] += e
        return tuple(w)


def normalize(space: ChainSpace, coeffs: ChainCoeffs) -> ChainCoeffs:
    return {key: v for key, val in coeffs.items() if (v := val % space.prime)}


def _terms(space: ChainSpace, chains: list[ChainCoeffs]) -> Terms:
    keys = [key for coeffs in chains for key in coeffs]
    owner = np.repeat(np.arange(len(chains)), [len(coeffs) for coeffs in chains])
    subs = np.array([sub for sub, _ in keys], dtype=np.int64).reshape(len(keys), space.p)
    mons = np.array([ui for _, ui in keys], dtype=np.int64)
    vals = [v % space.prime for coeffs in chains for v in coeffs.values()]
    return owner, subs, mons, np.array(vals, dtype=np.int64)


def _chains(terms: Terms, count: int) -> list[ChainCoeffs]:
    out: list[ChainCoeffs] = [{} for _ in range(count)]
    for j, sub, ui, v in zip(*(x.tolist() for x in terms)):
        out[j][tuple(sub), ui] = v
    return out


def _sums(owner: np.ndarray, codes: np.ndarray, vals: np.ndarray, prime: int):
    """vals summed mod p over equal (owner, code) pairs: for each nonzero
    sum, by owner then code, the position of one of its terms, and the sum."""
    key = owner * (int(codes.max(initial=0)) + 1) + codes
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sums = np.add.reduceat(vals[order], starts) % prime if len(starts) else vals
    return order[starts[sums != 0]], sums[sums != 0]


def _collect(space: ChainSpace, owner, subs, mons, vals) -> Terms:
    """Terms (T, C) summed mod p at each (owner, element) of the space; the
    nonzero sums, by owner, then wedge subset, then monomial."""
    owner, subs = np.repeat(owner, vals.shape[1]), subs.reshape(vals.size, space.p)
    mons, vals = np.broadcast_to(mons, vals.shape).ravel(), vals.ravel()
    n = space.params.n
    codes = combination_rank(subs, h0(n, space.params.d)) * h0(n, space.m) + mons
    first, sums = _sums(owner, codes, vals, space.prime)
    return owner[first], subs[first], mons[first], sums


def _differential(space: ChainSpace, terms: Terms) -> Terms:
    """The Koszul differential of the terms (needs p >= 1)."""
    owner, subs, mons, vals = terms
    deleted, rest, signs = deletions(subs, 1)
    product = mult_table(space.params.n, space.m, space.params.d)[mons[:, None], deleted[..., 0]]
    vals = vals[:, None] * signs * (-1) ** (space.p - 1) % space.prime  # +1 on the last position
    return _collect(space.shifted(-1, +1), owner, rest, product, vals)


def apply_differential(space: ChainSpace, coeffs: ChainCoeffs) -> ChainCoeffs:
    """Koszul differential on a chain: delete a wedge factor (sign +1 on the
    last position) and multiply it into the coefficient form."""
    if space.p == 0 or not coeffs:
        return {}
    return _chains(_differential(space, _terms(space, [coeffs])), 1)[0]


def is_cycle(space: ChainSpace, coeffs: ChainCoeffs) -> bool:
    if space.p == 0 or space.m + space.params.d < 0:
        return True
    return not apply_differential(space, coeffs)


@dataclass(frozen=True)
class KoszulClass:
    """A cohomology class with an explicit cycle representative.

    The cycle condition is machine-checked at construction: a non-cycle
    representative raises immediately rather than corrupting later checks.
    `cycle_basis` and `ev_D` build theirs with `_checked`, after their bulk
    checks.
    """

    space: ChainSpace
    coeffs: ChainCoeffs

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", normalize(self.space, self.coeffs))
        if not is_cycle(self.space, self.coeffs):
            raise ValueError("representative is not a cycle")

    @classmethod
    def _checked(cls, space: ChainSpace, coeffs: ChainCoeffs) -> KoszulClass:
        """A class whose reduced representative its caller checked in bulk."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)
        return self


def _one_space(classes: list[KoszulClass]) -> ChainSpace:
    """The space all of the (nonempty) classes live in."""
    space = classes[0].space
    if any(cls.space != space for cls in classes):
        raise ValueError("classes live in different spaces")
    return space


# -- block-level bases --------------------------------------------------------


def _block_elements(space: ChainSpace, mdeg) -> list[ChainKey]:
    n, d = space.params.n, space.params.d
    entry = space_blocks(n, d, space.p, space.m).get(tuple(mdeg))
    if entry is None:
        return []
    subs = wedge_subsets(n, d, space.p)[0][entry[0]]
    return [(tuple(sub), ui) for sub, ui in zip(subs.tolist(), entry[1].tolist())]


def _block_keys(space: ChainSpace, mdegs) -> list[BlockKey]:
    """The keys of the space's out-blocks at mdegs; at space.shifted(+1, -1),
    those of its in-blocks, 0 x 0 where the incoming term vanishes."""
    par = space.params
    return [BlockKey(par.n, par.d, par.b, space.p, space.q, tuple(mdeg)) for mdeg in mdegs]


def _batches(items: list, sizes: list[int]):
    """items in consecutive lists of about _BATCH total size."""
    ends = itertools.accumulate(sizes)
    for _, batch in itertools.groupby(zip(ends, items), key=lambda t: t[0] // _BATCH):
        yield [item for _, item in batch]


def _check_kernel(
    blocks: list[KoszulBlockMatrix], kernels: list[list[dict[int, int]]], prime: int
) -> None:
    """Raise unless every block times each of its kernel vectors is 0: bulk
    products over the blocks' entries, their columns numbered one block
    after another and each column's p entries found by one sort, a batch of
    vectors at a time.  A vector meets only its own block's rows, so rows
    keep their block's numbering."""
    col_at = np.cumsum([0] + [block.ncols for block in blocks])
    order = np.argsort(
        np.concatenate([b.cols + at for b, at in zip(blocks, col_at)]), kind="stable"
    )
    rows = np.concatenate([b.rows for b in blocks])[order].reshape(col_at[-1], -1)
    signs = np.concatenate([b.vals for b in blocks])[order].reshape(rows.shape)
    vectors = [(at, vec) for at, kernel in zip(col_at.tolist(), kernels) for vec in kernel]
    for batch in _batches(vectors, [len(vec) * rows.shape[1] for _, vec in vectors]):
        cols = [at + c for at, vec in batch for c in vec]
        vals = np.array([v for _, vec in batch for v in vec.values()], dtype=np.int64)
        owner = np.repeat(np.arange(len(batch)), [len(vec) * rows.shape[1] for _, vec in batch])
        products = (signs[cols] * vals[:, None] % prime).ravel()
        if len(_sums(owner, rows[cols].ravel(), products, prime)[1]):
            raise InvariantViolation("a kernel vector is not a cycle")


def cycle_basis(params: VeroneseParams, p: int, q: int, engine: Engine) -> list[KoszulClass]:
    """Representatives of a basis of K_{p,q}, a chunk of multidegree blocks
    at a time.

    The blocks are walked in descending order, in chunks of about _BATCH
    out-block entries (p per element).  A chunk's out-blocks are assembled
    by one `differential_blocks` call; within each block, the canonical
    kernel basis of the outgoing differential (`kernel_mod`) keeps free
    column j's vector unless an image vector restricted to the free
    columns ends at j, found as the image's trailing pivots.  All kernel
    vectors of a chunk pass one bulk differential check, and the in-blocks
    of its blocks with a kernel are assembled by one more call.  The total
    count must agree with `kpq_dim`, and does by construction of both
    paths from the same block matrices.
    """
    prime = engine.field.p
    space = ChainSpace(params, p, q, prime)
    blocks = space_blocks(params.n, params.d, p, space.m)
    mdegs = sorted(blocks, reverse=True)
    classes: list[KoszulClass] = []
    for chunk in _batches(mdegs, [p * len(blocks[mdeg][0]) for mdeg in mdegs]):
        if p:
            outs = differential_blocks(_block_keys(space, chunk))
            kernels = [kernel_mod(out.entries, out.ncols, prime) for out in outs]
        else:
            kernels = [kernel_mod([], len(blocks[mdeg][0]), prime) for mdeg in chunk]
        live = [i for i, kernel in enumerate(kernels) if kernel]
        if p and live:
            _check_kernel([outs[i] for i in live], [kernels[i] for i in live], prime)
        ins = differential_blocks(_block_keys(space.shifted(+1, -1), [chunk[i] for i in live]))
        for i, a_in in zip(live, ins):
            kernel = kernels[i]
            # kernel[k] is 1 at its free column, its largest index; keyed -k,
            # an image vector leads at its last nonzero free coordinate
            rev = {max(vec): -k for k, vec in enumerate(kernel)}
            image = [(rev[r], c, v) for r, c, v in a_in.entries if r in rev]
            dropped = {-lead for lead in echelon_mod(image, prime)}
            elements = _block_elements(space, chunk[i])
            classes += [
                KoszulClass._checked(space, {elements[k]: vec[k] for k in sorted(vec)})
                for k, vec in enumerate(kernel) if k not in dropped
            ]
    expected = engine.kpq_dim(params, p, q)
    if len(classes) != expected:
        raise InvariantViolation(
            f"cycle count {len(classes)} != homology dimension {expected}"
        )
    return classes


# -- evaluation maps ----------------------------------------------------------


def point_functional(params: VeroneseParams, point: PointOverField) -> Functional:
    """Values of all degree-d basis monomials at a point."""
    basis = monomial_basis(params.n, params.d)
    return tuple(evaluate(mono, point) for mono in basis)


def _contract(space: ChainSpace, terms: Terms, minors: np.ndarray, s: int) -> Terms:
    """The s-fold contraction of the terms, each deleted s-subset weighted by
    its entry in the table of minors (`wedge.minor_table`)."""
    owner, subs, mons, vals = terms
    deleted, rest, signs = deletions(subs, s)
    coeffs = minors[combination_rank(deleted, h0(space.params.n, space.params.d))] * signs
    coeffs = coeffs % space.prime * vals[:, None] % space.prime
    return _collect(space.shifted(-s, 0), owner, rest, mons[:, None], coeffs)


def alpha_chain(
    space: ChainSpace, coeffs: ChainCoeffs, functionals: list[Functional]
) -> ChainCoeffs:
    """s-fold minor-weighted contraction on a raw chain (no cycle check, needs
    p >= s), by ev_D's formula; one functional gives the single contraction."""
    minors = minor_table(functionals, space.params.n, space.params.d, space.prime)
    return _chains(_contract(space, _terms(space, [coeffs]), minors, len(functionals)), 1)[0]


def genericity_certificate(
    params: VeroneseParams, points: list[PointOverField]
) -> int:
    """Determinant certifying the points impose independent conditions.

    Rows are points, columns the degree-d monomials missing x_0 (the forms
    that see the hyperplane); nonzero determinant means general position.
    """
    n, d = params.n, params.d
    _, transversal = restriction_split(n, d)
    s = len(transversal)
    if len(points) != s:
        raise ValueError(f"need exactly s={s} points, got {len(points)}")
    basis = monomial_basis(n, d)
    rows = [[evaluate(basis[i], pt) for i in transversal] for pt in points]
    return det_mod(rows, points[0].prime)


# point sets sample_general_points draws before it gives up
_SAMPLE_ATTEMPTS = 50


def sample_general_points(params: VeroneseParams, prime: int, seed: int) -> list[PointOverField]:
    """Seeded points of the hyperplane x_0 = 0 passing the certificate.

    Resamples the whole set on certificate failure; gives up loudly after
    _SAMPLE_ATTEMPTS (tiny fields can genuinely lack general enough points).
    """
    s = projection_codim(params)
    rng = random.Random(seed)
    last_det = 0
    for _ in range(_SAMPLE_ATTEMPTS):
        pts = [
            PointOverField.random_on_hyperplane(params.n, prime, rng)
            for _ in range(s)
        ]
        last_det = genericity_certificate(params, pts)
        if last_det:
            return pts
    raise GenericityError(
        f"no general-position set of {s} points after {_SAMPLE_ATTEMPTS} attempts "
        f"(last determinant {last_det} mod {prime})"
    )


def ev_D(classes: list[KoszulClass], points: list[PointOverField]) -> list[KoszulClass]:
    """s-fold contraction attached to the hyperplane's point set, applied to
    classes of one space.

    Each s-element choice of wedge positions is deleted with the minor of
    point-evaluation values as coefficient.  Equals the composition of the
    single-point contractions up to one overall sign, so all rank and
    vanishing conclusions are shared.  Requires p >= s and certified points,
    checked once per call.  One table holds the minors of all s-subsets,
    checked against the points: its entry on the monomials free of x_0 is
    the certificate, and its wedge with each point's functional is 0 (a
    wrong minor is still a contraction, by another s-form, and would pass
    the cycle law).  The classes are contracted in batches of numpy terms,
    each batch's images checked as cycles in bulk.
    """
    if not classes:
        return []
    space = _one_space(classes)
    n, d, prime = space.params.n, space.params.d, space.prime
    s = len(points)
    if space.p < s:
        raise ValueError(f"ev_D: need p >= s, got p={space.p}, s={s}")
    certificate = genericity_certificate(space.params, points)
    if certificate == 0:
        raise GenericityError("points fail the general-position certificate")
    functionals = [point_functional(space.params, pt) for pt in points]
    minors = minor_table(functionals, n, d, prime)
    transversal = combination_rank(np.array([restriction_split(n, d)[1]]), h0(n, d))[0]
    if minors[transversal] != certificate or any(
        wedge_with(np.array(phi), minors, n, d, s + 1, prime).any() for phi in functionals
    ):
        raise InvariantViolation("ev_D: the minors are not those of the points")
    target = space.shifted(-s, 0)
    images: list[KoszulClass] = []
    for batch in _batches(classes, [len(cls.coeffs) * comb(space.p, s) for cls in classes]):
        terms = _contract(space, _terms(space, [cls.coeffs for cls in batch]), minors, s)
        if target.p and len(_differential(target, terms)[0]):
            raise InvariantViolation("an image is not a cycle")
        images += [KoszulClass._checked(target, coeffs) for coeffs in _chains(terms, len(batch))]
    return images


# -- homology-level solves ----------------------------------------------------


def _block_columns(
    space: ChainSpace, chains: list[ChainCoeffs]
) -> dict[MultiDegree, tuple[list[ChainKey], list[tuple[int, int, int]]]]:
    """Each block the chains touch: its elements, and the chains over them as
    (element position, chain index, value) triples."""
    parts: dict[MultiDegree, list[tuple[ChainKey, int, int]]] = {}
    for j, coeffs in enumerate(chains):
        for key, val in coeffs.items():
            parts.setdefault(space.key_mdeg(key), []).append((key, j, val))
    out = {}
    for mdeg, terms in parts.items():
        elements = _block_elements(space, mdeg)
        pos = {key: i for i, key in enumerate(elements)}
        out[mdeg] = elements, [(pos[key], j, val) for key, j, val in terms]
    return out


def induced_map_rank(images: list[KoszulClass]) -> int:
    """Rank of the homology-level map that sends a basis of its source to
    these image cycles: dim((span(images) + B) / B), B the image of the
    incoming differential, which is rank[B | images] - rank[B].

    Only the blocks the images touch enter: B holds their incoming blocks on
    its diagonal and the image columns, numbered after B's, run across all
    of them.  A block the images miss adds the same rank to both terms.
    Both ranks are sizes of sparse echelon bases (`echelon_mod`).
    """
    if not images:
        return 0
    space = _one_space(images)
    incoming: list[tuple[int, int, int]] = []
    chains: list[tuple[int, int, int]] = []
    row = width = 0
    blocks = _block_columns(space, [img.coeffs for img in images])
    ins = differential_blocks(_block_keys(space.shifted(+1, -1), blocks))
    for (elements, terms), a_in in zip(blocks.values(), ins):
        incoming += [(row + r, width + c, v) for r, c, v in a_in.entries]
        chains += [(row + r, j, v) for r, j, v in terms]
        row, width = row + len(elements), width + a_in.ncols
    after = [(r, width + j, v) for r, j, v in chains]
    prime = space.prime
    return len(echelon_mod(incoming + after, prime)) - len(echelon_mod(incoming, prime))


# -- factorization and chain-of-implications checks ---------------------------


def projection_factor_check(image: KoszulClass) -> dict:
    """Does a multi-point contraction (a class ev_D returned) land, modulo
    boundaries, inside the wedge of the forms vanishing on the hyperplane?

    Solves image = d(y) + z one multidegree block at a time, in descending
    order, with z constrained to basis elements whose wedge factors are all
    divisible by x_0: `kernel_mod` of [incoming block | selectors of z |
    image].  Returns the verdict and, on success, the boundary witness y,
    the negated incoming part of the image column's kernel vector, or the
    first block without a solution.
    """
    space = image.space
    prime = space.prime
    divisible, _ = restriction_split(space.params.n, space.params.d)
    allowed = set(divisible)
    up = space.shifted(+1, -1)
    witness: ChainCoeffs = {}
    blocks = _block_columns(space, [image.coeffs])
    mdegs = sorted(blocks, reverse=True)
    for mdeg, a_in in zip(mdegs, differential_blocks(_block_keys(up, mdegs))):
        elements, target = blocks[mdeg]
        chosen = [i for i, (sub, _ui) in enumerate(elements) if set(sub) <= allowed]
        width, last = a_in.ncols, a_in.ncols + len(chosen)
        selectors = [(i, width + k, 1) for k, i in enumerate(chosen)]
        # the target column is free exactly when it is solvable, and its
        # kernel vector, the last one, is 1 there and minus a solution before
        kernel = kernel_mod(a_in.entries + selectors + [(r, last, v) for r, _, v in target],
                            last + 1, prime)
        if not kernel or last not in kernel[-1]:
            return {"factors": False, "witness": None, "mdeg_failed": mdeg}
        up_elements = _block_elements(up, mdeg)
        for i, v in sorted(kernel[-1].items()):
            if i < width:
                witness[up_elements[i]] = -v % prime
    bdry = apply_differential(up, witness)
    residual = {k: image.coeffs.get(k, 0) - bdry.get(k, 0) for k in image.coeffs | bdry}
    residual = normalize(space, residual)
    if not all(set(sub) <= allowed for (sub, _ui) in residual):
        raise InvariantViolation("factorization residual leaves the hyperplane forms")
    return {"factors": True, "witness": witness, "residual_support": len(residual)}


def twist_identification_check(
    n: int, degree: int, p: int, engine: Engine
) -> dict:
    """The strand-1 group twisted by O(-1) equals the strand-0 group twisted
    by O(degree-1): both are the kernel of the same map, since each has a
    vanishing incoming coefficient space.  Computed independently here."""
    lhs = engine.kpq_dim(VeroneseParams(n, degree, -1), p, 1)
    rhs = engine.kpq_dim(VeroneseParams(n, degree, degree - 1), p, 0)
    return {
        "n": n,
        "degree": degree,
        "p": p,
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "verdict": CONSISTENT if lhs == rhs else VIOLATION,
    }


def theorem_chain_check(params: VeroneseParams, p: int, engine: Engine) -> dict:
    """One step of the vanishing argument for the linear strand.

    first  = dim K_{p,1} at (n, d);
    second = dim K_{p-s,1} at (n, d-1) twisted by O(-1), s the hyperplane
             projection codimension.
    Within the projection's range p > s, nonvanishing of the first forces
    nonvanishing of the second; for p at or above the vanishing threshold
    C(d+n-1, n) + C(d+n-2, n-2) the second must vanish (its index reaches
    the Green bound C(d-2+n, n)), and hence so must the first.  The argument
    is about the untwisted table, so a twist b != 0 raises ValueError.
    """
    if params.b:
        raise ValueError(f"theorem_chain_check: needs the untwisted table, got b = {params.b}")
    n, d = params.n, params.d
    s = projection_codim(params)
    first = engine.kpq_dim(params, p, 1)
    if d >= 2 and p - s >= 0:
        second = engine.kpq_dim(VeroneseParams(n, d - 1, -1), p - s, 1)
    else:
        # degree-0 coefficient bundle or negative wedge index: zero space
        second = 0
    threshold = binom(d + n - 1, n) + binom(d + n - 2, n - 2)
    green_bound = binom(d - 2 + n, n)
    in_scope = p > s
    ok = True
    notes = []
    if in_scope and first and not second:
        ok = False
        notes.append("projection range: first nonzero but second zero")
    if p >= threshold:
        if second:
            ok = False
            notes.append("second fails its Green bound")
        if first:
            ok = False
            notes.append("first fails the vanishing threshold")
        if p - s < green_bound:
            raise InvariantViolation(
                f"p - s = {p - s} below the Green bound {green_bound} of the second map"
            )
    return {
        "params": params.label(),
        "p": p,
        "s": s,
        "first": first,
        "second": second,
        "threshold": threshold,
        "green_bound_second": green_bound,
        "implication_in_scope": in_scope,
        "verdict": CONSISTENT if ok else VIOLATION,
        "notes": notes,
    }
