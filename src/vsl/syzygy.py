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
index).  The hyperplane is always x_0 = 0; its point count s equals the
number of degree-d monomials free of x_0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bounds import InvariantViolation, VeroneseParams, binom, h0, projection_codim
from .betti import CONSISTENT, VIOLATION, Engine
from .koszul import BlockKey, KoszulBlockMatrix, differential_block, space_blocks, wedge_subsets
from .linalg import echelon_mod, kernel_mod
from .polyspace import (
    MultiDegree,
    PointOverField,
    evaluate,
    monomial_basis,
    mult_table,
    restriction_split,
)
from .wedge import Functional, alpha_terms, det_mod

ChainKey = tuple[tuple[int, ...], int]
ChainCoeffs = dict[ChainKey, int]


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
    out = {}
    for key, val in coeffs.items():
        v = val % space.prime
        if v:
            out[key] = v
    return out


def apply_differential(space: ChainSpace, coeffs: ChainCoeffs) -> ChainCoeffs:
    """Koszul differential on a chain: delete a wedge factor (sign +1 on the
    last position) and multiply it into the coefficient form."""
    product = mult_table(space.params.n, space.m, space.params.d).tolist()
    p, prime = space.p, space.prime
    out: ChainCoeffs = {}
    for (sub, ui), val in coeffs.items():
        for j, i in enumerate(sub):
            sign = 1 if (p - 1 - j) % 2 == 0 else -1
            key = (sub[:j] + sub[j + 1:], product[ui][i])
            out[key] = (out.get(key, 0) + sign * val) % prime
    return {k: v for k, v in out.items() if v}


def is_cycle(space: ChainSpace, coeffs: ChainCoeffs) -> bool:
    if space.p == 0 or space.m + space.params.d < 0:
        return True
    return not apply_differential(space, coeffs)


@dataclass(frozen=True)
class KoszulClass:
    """A cohomology class with an explicit cycle representative.

    The cycle condition is machine-checked at construction: a non-cycle
    representative raises immediately rather than corrupting later checks.
    """

    space: ChainSpace
    coeffs: ChainCoeffs

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", normalize(self.space, self.coeffs))
        if not is_cycle(self.space, self.coeffs):
            raise ValueError("representative is not a cycle")


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


def _block_key(space: ChainSpace, mdeg) -> BlockKey:
    par = space.params
    return BlockKey(par.n, par.d, par.b, space.p, space.q, tuple(mdeg))


def _incoming(space: ChainSpace, mdeg) -> KoszulBlockMatrix:
    """Block mdeg of the differential into the space; 0 x 0 when the incoming
    term vanishes."""
    return differential_block(_block_key(space.shifted(+1, -1), mdeg))


def cycle_basis(params: VeroneseParams, p: int, q: int, engine: Engine) -> list[KoszulClass]:
    """Representatives of a basis of K_{p,q}, one multidegree block at a time.

    Within each block: the canonical kernel basis of the outgoing
    differential (`kernel_mod`), keeping free column j's vector unless an
    image vector restricted to the free columns ends at j, found as the
    image's trailing pivots.  The total count must agree with `kpq_dim`, and
    does by construction of both paths from the same block matrices.
    """
    prime = engine.field.p
    space = ChainSpace(params, p, q, prime)
    n, d = params.n, params.d
    if p < 0 or p > h0(n, d) or space.m < 0:
        return []
    blocks = space_blocks(n, d, p, space.m)
    classes: list[KoszulClass] = []
    for mdeg in sorted(blocks, reverse=True):
        elements = _block_elements(space, mdeg)
        out = differential_block(_block_key(space, mdeg)).entries if p >= 1 else []
        kernel = kernel_mod(out, len(elements), prime)
        if not kernel:
            continue
        # kernel[i] is 1 at its free column, its largest index; keyed -i, an
        # image vector leads at its last nonzero free coordinate
        rev = {max(vec): -i for i, vec in enumerate(kernel)}
        image = [(rev[r], c, v) for r, c, v in _incoming(space, mdeg).entries if r in rev]
        dropped = {-lead for lead in echelon_mod(image, prime)}
        for i, vec in enumerate(kernel):
            if i not in dropped:
                classes.append(KoszulClass(space, {elements[k]: vec[k] for k in sorted(vec)}))
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


def alpha_chain(
    space: ChainSpace,
    coeffs: ChainCoeffs,
    functionals: list[Functional],
    cache: dict | None = None,
) -> ChainCoeffs:
    """s-fold minor-weighted contraction on a raw chain (no cycle check);
    one functional gives the single contraction.  cache, if given, holds the
    minors by index tuple, and calls with the same functionals may share it."""
    out: ChainCoeffs = {}
    for (sub, ui), val in coeffs.items():
        for rest, c in alpha_terms(sub, functionals, space.prime, cache):
            key = (rest, ui)
            out[key] = (out.get(key, 0) + val * c) % space.prime
    return {k: v for k, v in out.items() if v}


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
    prime = points[0].prime
    rows = [
        [evaluate(basis[i], pt) for i in transversal]
        for pt in points
    ]
    return det_mod(rows, prime)


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
    checked once per call; the classes share one table of minors.
    """
    if not classes:
        return []
    space = _one_space(classes)
    s = len(points)
    if space.p < s:
        raise ValueError(f"ev_D: need p >= s, got p={space.p}, s={s}")
    if genericity_certificate(space.params, points) == 0:
        raise GenericityError("points fail the general-position certificate")
    functionals = [point_functional(space.params, pt) for pt in points]
    minors: dict = {}
    return [
        KoszulClass(space.shifted(-s, 0), alpha_chain(space, cls.coeffs, functionals, minors))
        for cls in classes
    ]


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
    for mdeg, (elements, terms) in _block_columns(space, [img.coeffs for img in images]).items():
        a_in = _incoming(space, mdeg)
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
    for mdeg in sorted(blocks, reverse=True):
        elements, target = blocks[mdeg]
        a_in = _incoming(space, mdeg)
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
    residual = dict(image.coeffs)
    bdry = apply_differential(up, witness) if witness else {}
    for key, val in bdry.items():
        residual[key] = (residual.get(key, 0) - val) % prime
    residual = {k: v for k, v in residual.items() if v}
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
