"""Cycle-level maps on Koszul cohomology: contraction by point evaluations,
the multi-point contraction attached to a hyperplane, factorization through
the subspace of forms vanishing on the hyperplane, and the degree-drop chain
of implications for linear-strand vanishing.

Chains are sparse dicts keyed by (wedge index tuple, coefficient monomial
index).  The hyperplane is always x_0 = 0; its point count s equals the
number of degree-d monomials free of x_0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import InvariantViolation, VeroneseParams, binom, h0, projection_codim
from .betti import Engine
from .koszul import BlockKey, differential_block, space_blocks, wedge_subsets
from .linalg import dense_rank_mod, nullspace_mod, rref_mod, solve_mod
from .polyspace import (
    PointOverField,
    evaluate,
    monomial_basis,
    monomial_index,
    multiply,
    restriction_split,
)
from .wedge import Functional, alpha_terms, contract_terms, det_mod

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
    n, d = space.params.n, space.params.d
    basis_d = monomial_basis(n, d)
    mons = monomial_basis(n, space.m)
    tgt_index = monomial_index(n, space.m + d)
    p, prime = space.p, space.prime
    out: ChainCoeffs = {}
    for (sub, ui), val in coeffs.items():
        mono = mons[ui]
        for j, i in enumerate(sub):
            sign = 1 if (p - 1 - j) % 2 == 0 else -1
            key = (sub[:j] + sub[j + 1:], tgt_index[multiply(mono, basis_d[i])])
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

    def scaled(self, c: int) -> "KoszulClass":
        prime = self.space.prime
        return KoszulClass(
            self.space, {k: v * c % prime for k, v in self.coeffs.items()}
        )

    def plus(self, other: "KoszulClass") -> "KoszulClass":
        if self.space != other.space:
            raise ValueError("classes live in different spaces")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = (out.get(k, 0) + v) % self.space.prime
        return KoszulClass(self.space, out)


# -- block-level bases --------------------------------------------------------


def _block_elements(space: ChainSpace, mdeg) -> list[ChainKey]:
    n, d = space.params.n, space.params.d
    subs_all, _ = wedge_subsets(n, d, space.p)
    blocks = space_blocks(n, d, space.p, space.m)
    entry = blocks.get(tuple(mdeg))
    if entry is None:
        return []
    return [(subs_all[int(si)], int(ui)) for si, ui in zip(entry[0], entry[1])]


def _block_key(space: ChainSpace, mdeg) -> BlockKey:
    par = space.params
    return BlockKey(par.n, par.d, par.b, space.p, space.q, tuple(mdeg))


def _dense_block(key: BlockKey) -> np.ndarray:
    blk = differential_block(key)
    a = np.zeros((blk.nrows, blk.ncols), dtype=np.int64)
    for r, c, v in blk.entries:
        a[r, c] += v
    return a


def cycle_basis(params: VeroneseParams, p: int, q: int, engine: Engine) -> list[KoszulClass]:
    """Representatives of a basis of K_{p,q}, one multidegree block at a time.

    Within each block: kernel vectors of the outgoing differential, kept
    only when independent modulo the incoming image.  The total count must
    agree with the blockwise dimension computation, and does by construction
    of both paths from the same block matrices.
    """
    if engine.field.kind != "prime":
        raise ValueError("cycle_basis needs a prime field engine")
    prime = engine.field.p
    space = ChainSpace(params, p, q, prime)
    n, d = params.n, params.d
    if p < 0 or p > h0(n, d) or space.m < 0:
        return []
    blocks = space_blocks(n, d, p, space.m)
    classes: list[KoszulClass] = []
    m_in = params.b + (q - 1) * d
    for mdeg in sorted(blocks, reverse=True):
        elements = _block_elements(space, mdeg)
        nmid = len(elements)
        if p >= 1:
            a_out = _dense_block(_block_key(space, mdeg))
            kern = nullspace_mod(a_out, prime)
        else:
            kern = np.eye(nmid, dtype=np.int64)
        if kern.shape[1] == 0:
            continue
        rows: list[np.ndarray] = []
        if m_in >= 0 and p + 1 <= h0(n, d):
            a_in = _dense_block(_block_key(space.shifted(+1, -1), mdeg))
            if a_in.shape[1]:
                img_rref, piv = rref_mod(a_in.T, prime)
                rows = [img_rref[i] for i in range(len(piv))]
        for k in range(kern.shape[1]):
            vec = kern[:, k] % prime
            residue = _reduce_against(vec, rows, prime)
            if residue is None:
                continue
            rows.append(residue)
            coeffs = {
                elements[i]: int(vec[i]) for i in np.nonzero(vec)[0]
            }
            classes.append(KoszulClass(space, coeffs))
    expected = engine.kpq_dim(params, p, q)
    if len(classes) != expected:
        raise InvariantViolation(
            f"cycle count {len(classes)} != homology dimension {expected}"
        )
    return classes


def _reduce_against(vec: np.ndarray, rows: list[np.ndarray], prime: int):
    """Reduce vec by echelonized rows; None if it vanishes, else the reduced
    vector normalized to leading coefficient 1 (appended-row form)."""
    v = vec % prime
    for row in rows:
        lead = int(np.nonzero(row)[0][0])
        if v[lead]:
            v = (v - int(v[lead]) * row) % prime
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        return None
    return v * pow(int(v[nz[0]]), -1, prime) % prime


# -- evaluation maps ----------------------------------------------------------


def point_functional(params: VeroneseParams, point: PointOverField) -> Functional:
    """Values of all degree-d basis monomials at a point."""
    basis = monomial_basis(params.n, params.d)
    return tuple(evaluate(mono, point) for mono in basis)


def ev_point(cls: KoszulClass, point: PointOverField) -> KoszulClass:
    """Contract the wedge part by evaluation at one point; coefficient forms
    are untouched.  Sends cycles to cycles and boundaries to boundaries."""
    space = cls.space
    if space.p < 1:
        raise ValueError("ev_point: need p >= 1")
    if point.prime != space.prime:
        raise ValueError("point lives over a different prime")
    phi = point_functional(space.params, point)
    out: ChainCoeffs = {}
    for (sub, ui), val in cls.coeffs.items():
        for rest, c in contract_terms(sub, phi, space.prime):
            key = (rest, ui)
            out[key] = (out.get(key, 0) + val * c) % space.prime
    return KoszulClass(space.shifted(-1, 0), out)


def contract_chain(
    space: ChainSpace, coeffs: ChainCoeffs, phi: Functional
) -> ChainCoeffs:
    """Single contraction on a raw chain (no cycle requirement)."""
    out: ChainCoeffs = {}
    for (sub, ui), val in coeffs.items():
        for rest, c in contract_terms(sub, phi, space.prime):
            key = (rest, ui)
            out[key] = (out.get(key, 0) + val * c) % space.prime
    return {k: v for k, v in out.items() if v}


def alpha_chain(
    space: ChainSpace, coeffs: ChainCoeffs, functionals: list[Functional]
) -> ChainCoeffs:
    """s-fold minor-weighted contraction on a raw chain (no cycle check)."""
    gamma_cache: dict = {}
    out: ChainCoeffs = {}
    for (sub, ui), val in coeffs.items():
        for rest, c in alpha_terms(sub, functionals, space.prime, gamma_cache):
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


def sample_general_points(
    params: VeroneseParams, prime: int, seed: int, max_attempts: int = 50
) -> list[PointOverField]:
    """Seeded points of the hyperplane x_0 = 0 passing the certificate.

    Resamples the whole set on certificate failure; gives up loudly after
    max_attempts (tiny fields can genuinely lack general enough points).
    """
    s = projection_codim(params)
    rng = random.Random(seed)
    last_det = 0
    for _ in range(max_attempts):
        pts = [
            PointOverField.random_on_hyperplane(params.n, prime, rng)
            for _ in range(s)
        ]
        last_det = genericity_certificate(params, pts)
        if last_det:
            return pts
    raise GenericityError(
        f"no general-position set of {s} points after {max_attempts} attempts "
        f"(last determinant {last_det} mod {prime})"
    )


def ev_D(cls: KoszulClass, points: list[PointOverField]) -> KoszulClass:
    """s-fold contraction attached to the hyperplane's point set.

    Each s-element choice of wedge positions is deleted with the minor of
    point-evaluation values as coefficient.  Equals the composition of the
    single-point contractions up to one overall sign, so all rank and
    vanishing conclusions are shared.  Requires p >= s and certified points.
    """
    space = cls.space
    s = len(points)
    if space.p < s:
        raise ValueError(f"ev_D: need p >= s, got p={space.p}, s={s}")
    if genericity_certificate(space.params, points) == 0:
        raise GenericityError("points fail the general-position certificate")
    functionals = [point_functional(space.params, pt) for pt in points]
    out = alpha_chain(space, cls.coeffs, functionals)
    return KoszulClass(space.shifted(-s, 0), out)


# -- homology-level solves ----------------------------------------------------


def _support_mdegs(space: ChainSpace, coeffs: ChainCoeffs) -> list[tuple[int, ...]]:
    return sorted({space.key_mdeg(k) for k in coeffs}, reverse=True)


def _block_vector(
    space: ChainSpace, coeffs: ChainCoeffs, mdeg, elements: list[ChainKey]
) -> np.ndarray:
    pos = {key: i for i, key in enumerate(elements)}
    v = np.zeros(len(elements), dtype=np.int64)
    for key, val in coeffs.items():
        if space.key_mdeg(key) == mdeg:
            v[pos[key]] = val
    return v


def is_boundary(cls: KoszulClass) -> tuple[bool, ChainCoeffs | None]:
    """Decide membership in the image of the incoming differential, block by
    block; on success returns a preimage chain as witness."""
    space = cls.space
    params = space.params
    m_in = params.b + (space.q - 1) * params.d
    if not cls.coeffs:
        return True, {}
    if m_in < 0 or space.p + 1 > h0(params.n, params.d):
        return False, None
    up = space.shifted(+1, -1)
    witness: ChainCoeffs = {}
    for mdeg in _support_mdegs(space, cls.coeffs):
        elements = _block_elements(space, mdeg)
        target = _block_vector(space, cls.coeffs, mdeg, elements)
        a_in = _dense_block(_block_key(up, mdeg))
        if a_in.shape[1] == 0:
            return False, None
        x = solve_mod(a_in, target, space.prime)
        if x is None:
            return False, None
        up_elements = _block_elements(up, mdeg)
        for i in np.nonzero(x)[0]:
            witness[up_elements[int(i)]] = int(x[i])
    check = apply_differential(up, witness)
    if normalize(space, check) != cls.coeffs:
        raise InvariantViolation("boundary witness does not map onto the class")
    return True, witness


def homology_coordinates(
    cls: KoszulClass, basis: list[KoszulClass]
) -> np.ndarray:
    """Coordinates of a cycle in a homology basis, solved blockwise against
    basis representatives plus the incoming image."""
    space = cls.space
    prime = space.prime
    coords = np.zeros(len(basis), dtype=np.int64)
    params = space.params
    m_in = params.b + (space.q - 1) * params.d
    up = space.shifted(+1, -1)
    support = _support_mdegs(space, cls.coeffs)
    for mdeg in support:
        elements = _block_elements(space, mdeg)
        target = _block_vector(space, cls.coeffs, mdeg, elements)
        cols: list[np.ndarray] = []
        owners: list[int] = []
        for idx, b in enumerate(basis):
            if b.space != space:
                raise ValueError("basis class in a different space")
            vec = _block_vector(space, b.coeffs, mdeg, elements)
            if vec.any():
                cols.append(vec)
                owners.append(idx)
        a_in = None
        if m_in >= 0 and space.p + 1 <= h0(params.n, params.d):
            a_in = _dense_block(_block_key(up, mdeg))
        width = len(cols) + (a_in.shape[1] if a_in is not None else 0)
        if width == 0:
            raise ValueError("cycle not representable: empty solve")
        a = np.zeros((len(elements), width), dtype=np.int64)
        for j, vec in enumerate(cols):
            a[:, j] = vec
        if a_in is not None and a_in.shape[1]:
            a[:, len(cols):] = a_in
        x = solve_mod(a, target, prime)
        if x is None:
            raise ValueError("cycle is not in span(basis) + image")
        for j, idx in enumerate(owners):
            coords[idx] = (coords[idx] + int(x[j])) % prime
    # blockwise solves may disagree only on class coordinates shared across
    # blocks; basis classes are single-block, so sums are well-defined
    return coords


def induced_map_rank(
    classes: list[KoszulClass],
    images: list[KoszulClass],
    target_basis: list[KoszulClass],
    prime: int,
) -> int:
    """Rank of a homology-level map given classes and their image cycles."""
    if len(classes) != len(images):
        raise ValueError("need one image per class")
    if not target_basis:
        return 0
    mat = np.zeros((len(target_basis), len(classes)), dtype=np.int64)
    for j, img in enumerate(images):
        mat[:, j] = homology_coordinates(img, target_basis)
    return dense_rank_mod(mat, prime)


# -- factorization and chain-of-implications checks ---------------------------


def projection_factor_check(
    cls: KoszulClass, points: list[PointOverField]
) -> dict:
    """Does the multi-point contraction land, modulo boundaries, inside the
    wedge of the forms vanishing on the hyperplane?

    Solves ev_D(cls) = d(y) + z blockwise, with z constrained to basis
    elements whose wedge factors are all divisible by x_0.  Returns the
    verdict and, on success, the boundary witness y.
    """
    image = ev_D(cls, points)
    space = image.space
    params = space.params
    prime = space.prime
    divisible, _ = restriction_split(params.n, params.d)
    allowed = set(divisible)
    up = space.shifted(+1, -1)
    m_in = params.b + (space.q - 1) * params.d
    witness: ChainCoeffs = {}
    for mdeg in _support_mdegs(space, image.coeffs):
        elements = _block_elements(space, mdeg)
        target = _block_vector(space, image.coeffs, mdeg, elements)
        a_in = None
        if m_in >= 0 and space.p + 1 <= h0(params.n, params.d):
            a_in = _dense_block(_block_key(up, mdeg))
        n_bnd = a_in.shape[1] if a_in is not None else 0
        selectors = [
            i for i, (sub, _ui) in enumerate(elements) if set(sub) <= allowed
        ]
        a = np.zeros((len(elements), n_bnd + len(selectors)), dtype=np.int64)
        if n_bnd:
            a[:, :n_bnd] = a_in
        for j, i in enumerate(selectors):
            a[i, n_bnd + j] = 1
        x = solve_mod(a, target, prime)
        if x is None:
            return {"factors": False, "witness": None, "mdeg_failed": mdeg}
        if n_bnd:
            up_elements = _block_elements(up, mdeg)
            for i in np.nonzero(x[:n_bnd])[0]:
                witness[up_elements[int(i)]] = int(x[i])
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
        "verdict": "CONSISTENT" if lhs == rhs else "VIOLATION",
    }


def theorem_chain_check(params: VeroneseParams, p: int, engine: Engine) -> dict:
    """One step of the vanishing argument for the linear strand.

    first  = dim K_{p,1} at (n, d);
    second = dim K_{p-s,1} at (n, d-1) twisted by O(-1), s the hyperplane
             projection codimension.
    Within the projection's range p > s, nonvanishing of the first forces
    nonvanishing of the second; for p at or above the vanishing threshold
    C(d+n-1, n) + C(d+n-2, n-2) the second must vanish (its index reaches
    the Green bound C(d-2+n, n)), and hence so must the first.
    """
    n, d = params.n, params.d
    s = projection_codim(params)
    first = engine.kpq_dim(VeroneseParams(n, d), p, 1)
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
        "verdict": "CONSISTENT" if ok else "VIOLATION",
        "notes": notes,
    }
