from __future__ import annotations

import itertools
import random
from math import comb

import numpy as np
import pytest
from conftest import dense_cycle_basis, ev_at_point, plus, random_point, scaled

import vsl.koszul
import vsl.syzygy
from vsl.betti import Engine
from vsl.bounds import InvariantViolation, VeroneseParams, h0, projection_codim
from vsl.harness import dense_differential
from vsl.linalg import PINNED_PRIMES, FieldSpec, dense_rank_mod, solve_mod
from vsl.polyspace import PointOverField, monomial_basis, restriction_split
from vsl.syzygy import (
    ChainSpace,
    GenericityError,
    KoszulClass,
    alpha_chain,
    apply_differential,
    cycle_basis,
    ev_D,
    genericity_certificate,
    normalize,
    induced_map_rank,
    point_functional,
    projection_factor_check,
    sample_general_points,
    theorem_chain_check,
    twist_identification_check,
)

PRIME = PINNED_PRIMES[0]


def random_chain(rng, space: ChainSpace, terms: int = 5) -> dict:
    size = len(monomial_basis(space.params.n, space.params.d))
    nmons = len(monomial_basis(space.params.n, space.m))
    subs = list(itertools.combinations(range(size), space.p))
    return {
        (subs[rng.randrange(len(subs))], rng.randrange(nmons)): rng.randrange(1, PRIME)
        for _ in range(terms)
    }


def test_cycle_basis_sizes(eng):
    assert len(cycle_basis(VeroneseParams(1, 2), 1, 1, eng)) == 1
    assert len(cycle_basis(VeroneseParams(2, 2), 3, 1, eng)) == 3
    assert cycle_basis(VeroneseParams(2, 2), 4, 1, eng) == []
    assert cycle_basis(VeroneseParams(1, 2), 5, 1, eng) == []


@pytest.mark.parametrize("prime", (PRIME, 7))
@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (1, 4), (3, 2)])
def test_cycle_basis_equals_the_dense_algorithm(n, d, prime):
    # class for class and coefficient for coefficient, in the same order,
    # also at a prime small enough for entries to cancel; every twist and
    # strand at p <= 2, and the whole untwisted strand 1 that `maps ev` reads
    eng = Engine(FieldSpec.prime(prime))
    cases = set(itertools.product((-1, 0, 1), (0, 1, 2), (0, 1, 2)))
    cases |= {(0, 1, p) for p in range(h0(n, d) + 1)}
    for b, q, p in sorted(cases):
        params = VeroneseParams(n, d, b)
        got = [list(cls.coeffs.items()) for cls in cycle_basis(params, p, q, eng)]
        want = [list(coeffs.items()) for coeffs in dense_cycle_basis(params, p, q, prime)]
        assert got == want, (b, q, p)


def test_cycle_basis_fits_the_space_blocks_cache(eng, monkeypatch):
    # a cycle basis enumerates one whole space, its own, once, for its
    # elements; its out- and in-blocks are assembled a chunk of keys at a
    # time by `differential_blocks`, never key by key through
    # `differential_block`
    from vsl.koszul import space_blocks

    def refused(key):
        raise AssertionError(f"differential_block({key}) was called")

    for module in (vsl.koszul, vsl.syzygy):
        monkeypatch.setattr(module, "differential_block", refused, raising=False)
    space_blocks.cache_clear()
    assert len(cycle_basis(VeroneseParams(2, 3), 4, 1, eng)) == 189
    info = space_blocks.cache_info()
    assert info.misses == 1 and info.hits > 0


@pytest.mark.parametrize("n, d, p", [(2, 3, 4), (2, 2, 3)])
def test_cycle_basis_chunks_change_nothing(eng, monkeypatch, n, d, p):
    # at the default bound the whole space is one chunk, as in every golden
    # `maps ev` case ((2,3) p=5 has 12,600 out-block entries): one call
    # assembles its out-blocks and one its in-blocks.  At a bound of 1
    # entry every block is a chunk of its own, and the classes are the
    # same, coefficient for coefficient and in the same order
    params = VeroneseParams(n, d)
    calls: list[int] = []
    real = vsl.syzygy.differential_blocks

    def counted(keys):
        calls.append(len(keys))
        return real(keys)

    monkeypatch.setattr(vsl.syzygy, "differential_blocks", counted)
    whole = [list(cls.coeffs.items()) for cls in cycle_basis(params, p, 1, eng)]
    assert whole and len(calls) == 2
    calls.clear()
    monkeypatch.setattr(vsl.syzygy, "_BATCH", 1)
    chunked = [list(cls.coeffs.items()) for cls in cycle_basis(params, p, 1, eng)]
    assert chunked == whole
    assert len(calls) > 2 and max(calls) == 1


def test_cycle_basis_refuses_a_kernel_vector_that_is_not_a_cycle(eng, monkeypatch):
    # each chunk's kernels are checked by one bulk differential over its
    # stacked out-blocks, under python -O too: doubling a vector's 1 at its
    # free column c adds e_c, and column c of the differential is not zero
    real = vsl.syzygy.kernel_mod

    def off_kernel(entries, ncols, prime):
        kernel = real(entries, ncols, prime)
        for vec in kernel[:1]:
            vec[max(vec)] = 2
        return kernel

    monkeypatch.setattr(vsl.syzygy, "kernel_mod", off_kernel)
    with pytest.raises(InvariantViolation, match="not a cycle"):
        cycle_basis(VeroneseParams(2, 3), 5, 1, eng)


@pytest.mark.parametrize("bound", [None, 1])
def test_cycle_basis_refuses_a_non_cycle_in_the_last_chunk(eng, monkeypatch, bound):
    # the last kernel vector of the last block with a kernel, corrupted as
    # above: at the default bound it sits at the end of the one stacked
    # chunk, past every other block's columns; at a bound of 1 entry, in
    # the last chunk of many
    if bound:
        monkeypatch.setattr(vsl.syzygy, "_BATCH", bound)
    params = VeroneseParams(2, 3)
    real = vsl.syzygy.kernel_mod
    sizes: list[int] = []

    def counted(entries, ncols, prime):
        kernel = real(entries, ncols, prime)
        sizes.append(len(kernel))
        return kernel

    monkeypatch.setattr(vsl.syzygy, "kernel_mod", counted)
    cycle_basis(params, 5, 1, eng)
    last, calls = max(i for i, size in enumerate(sizes) if size), itertools.count()

    def off_kernel(entries, ncols, prime):
        kernel = real(entries, ncols, prime)
        if next(calls) == last:
            kernel[-1][max(kernel[-1])] = 2
        return kernel

    monkeypatch.setattr(vsl.syzygy, "kernel_mod", off_kernel)
    with pytest.raises(InvariantViolation, match="not a cycle"):
        cycle_basis(params, 5, 1, eng)
    assert next(calls) > last


def test_koszul_class_rejects_non_cycles():
    space = ChainSpace(VeroneseParams(1, 2), 1, 1, PRIME)
    with pytest.raises(ValueError, match="not a cycle"):
        KoszulClass(space, {((0,), 2): 1})
    zero = KoszulClass(space, {})
    assert zero.coeffs == {}


def test_class_algebra(eng):
    basis = cycle_basis(VeroneseParams(2, 2), 3, 1, eng)
    combo = plus(basis[0], scaled(basis[1], 7))
    assert combo.space == basis[0].space
    doubled = plus(combo, combo)
    for key, val in combo.coeffs.items():
        assert doubled.coeffs[key] == 2 * val % PRIME


def test_ev_point_sends_boundaries_to_boundaries(eng):
    rng = random.Random(20240905)
    params = VeroneseParams(1, 3)
    up = ChainSpace(params, 3, 0, PRIME)
    mid = ChainSpace(params, 2, 1, PRIME)
    for _ in range(20):
        y = random_chain(rng, up, terms=3)
        boundary = KoszulClass(mid, apply_differential(up, y))
        image = ev_at_point(boundary, random_point(1, PRIME, rng))
        assert induced_map_rank([image]) == 0


def test_ev_point_zero_functional_on_support():
    # a point whose evaluations vanish on every wedge factor in the support
    # contracts the chain to zero
    space = ChainSpace(VeroneseParams(1, 3), 2, 1, PRIME)
    chain = {((0, 1), 0): 5, ((1, 2), 3): 9}
    pt = PointOverField.make((0, 1), PRIME)  # only x_1^3 evaluates nonzero
    phi = point_functional(space.params, pt)
    assert phi == (0, 0, 0, 1)
    assert alpha_chain(space, chain, [phi]) == {}


def test_ev_point_induced_map_is_nonzero(eng):
    rng = random.Random(6)
    params = VeroneseParams(1, 3)
    classes = cycle_basis(params, 2, 1, eng)
    assert (len(classes), eng.kpq_dim(params, 1, 1)) == (2, 3)
    pt = random_point(1, PRIME, rng)
    assert induced_map_rank([ev_at_point(c, pt) for c in classes]) >= 1


def test_genericity_certificate_and_determinism():
    params = VeroneseParams(2, 2)
    pts_a = sample_general_points(params, PRIME, seed=3)
    pts_b = sample_general_points(params, PRIME, seed=3)
    assert pts_a == pts_b
    assert len(pts_a) == projection_codim(params) == 3
    assert all(p.coords[0] == 0 for p in pts_a)
    assert genericity_certificate(params, pts_a) != 0
    with pytest.raises(ValueError, match="exactly"):
        genericity_certificate(params, pts_a[:2])


def test_genericity_failure_is_loud():
    # over GF(2) the hyperplane has three points; four can never be in
    # general position, so resampling must give up with the named error
    with pytest.raises(GenericityError, match="general-position"):
        sample_general_points(VeroneseParams(2, 3), 2, seed=0)


def test_ev_d_single_point_is_plain_contraction(eng):
    params = VeroneseParams(1, 4)
    pts = sample_general_points(params, PRIME, seed=1)
    assert len(pts) == 1
    classes = cycle_basis(params, 2, 1, eng)
    for cls, image in zip(classes, ev_D(classes, pts), strict=True):
        assert image.coeffs == ev_at_point(cls, pts[0]).coeffs


def test_ev_d_needs_enough_wedge_factors(eng):
    params = VeroneseParams(2, 2)
    pts = sample_general_points(params, PRIME, seed=1)
    cls = cycle_basis(params, 2, 1, eng)[0]
    with pytest.raises(ValueError, match="p >= s"):
        ev_D([cls], pts)


def test_ev_d_to_vanishing_target_is_null_homologous(eng):
    params = VeroneseParams(2, 2)
    pts = sample_general_points(params, PRIME, seed=2)
    assert eng.kpq_dim(params, 0, 1) == 0
    images = ev_D(cycle_basis(params, 3, 1, eng), pts)
    assert len(images) == 3
    assert induced_map_rank(images) == 0


def test_ev_d_commutes_with_differential_on_raw_chains():
    rng = random.Random(20240906)
    params = VeroneseParams(2, 2)
    pts = sample_general_points(params, PRIME, seed=4)
    phis = [point_functional(params, pt) for pt in pts]
    src = ChainSpace(params, 4, 1, PRIME)
    for _ in range(15):
        y = random_chain(rng, src, terms=4)
        d_then_alpha = alpha_chain(src.shifted(-1, +1), apply_differential(src, y), phis)
        alpha_then_d = apply_differential(src.shifted(-3, 0), alpha_chain(src, y, phis))
        assert d_then_alpha == alpha_then_d


def test_ev_d_scalar_equivariance(eng):
    params = VeroneseParams(2, 2)
    pts = sample_general_points(params, PRIME, seed=5)
    cls = cycle_basis(params, 3, 1, eng)[1]
    lam = 3141592
    a, b = ev_D([scaled(cls, lam), cls], pts)
    assert a.coeffs == scaled(b, lam).coeffs


def test_ev_d_maps_a_basis_with_one_certificate_and_one_minor_table(eng, monkeypatch):
    # (2,3) p=5: s = 4 points, h0 = 10 wedge factors; one table holds the
    # minors of all C(10, 4) 4-subsets, whichever of the 105 classes asks
    params = VeroneseParams(2, 3)
    pts = sample_general_points(params, PRIME, seed=0)
    classes = cycle_basis(params, 5, 1, eng)
    one_by_one = [ev_D([cls], pts)[0] for cls in classes]
    calls = {"genericity_certificate": 0, "minor_table": 0}
    sizes = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = func(*args, **kwargs)
            if name == "minor_table":
                sizes.append(len(out))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(vsl.syzygy, name, counted(name, getattr(vsl.syzygy, name)))
    images = ev_D(classes, pts)
    assert calls == {"genericity_certificate": 1, "minor_table": 1}
    assert sizes == [comb(10, 4)]
    assert len(images) == len(classes) == 105
    assert [img.coeffs for img in images] == [img.coeffs for img in one_by_one]
    assert {img.space for img in images} == {classes[0].space.shifted(-4, 0)}


@pytest.mark.parametrize("which", ["one", "all"])
def test_ev_d_refuses_a_corrupted_minor(eng, monkeypatch, which):
    # a changed table of minors is still a contraction, by another s-form,
    # so its images are still cycles; ev_D checks the table itself.  Its
    # wedge with each point's functional must be 0, which one changed minor
    # breaks, and its minor on the monomials free of x_0 must be the
    # genericity certificate, which a doubled table breaks
    params = VeroneseParams(2, 3)
    pts = sample_general_points(params, PRIME, seed=0)
    classes = cycle_basis(params, 5, 1, eng)
    real = vsl.syzygy.minor_table

    def corrupted(*args):
        table = real(*args).copy()
        if which == "one":
            table[0] = (table[0] + 1) % PRIME
        else:
            table = 2 * table % PRIME
        return table

    monkeypatch.setattr(vsl.syzygy, "minor_table", corrupted)
    with pytest.raises(InvariantViolation, match="minors"):
        ev_D(classes, pts)


def test_ev_d_refuses_an_image_that_is_not_a_cycle(eng, monkeypatch):
    # the images' differential is checked in bulk: one more unit on one
    # image term (p - s = 1, so its differential is not zero) raises
    params = VeroneseParams(2, 3)
    pts = sample_general_points(params, PRIME, seed=0)
    classes = cycle_basis(params, 5, 1, eng)
    real = vsl.syzygy._contract

    def bumped(*args):
        owner, subs, mons, vals = real(*args)
        vals = vals.copy()
        vals[0] = (vals[0] + 1) % PRIME
        return owner, subs, mons, vals

    monkeypatch.setattr(vsl.syzygy, "_contract", bumped)
    with pytest.raises(InvariantViolation, match="not a cycle"):
        ev_D(classes, pts)


def test_ev_d_of_no_classes_and_of_two_spaces(eng):
    params = VeroneseParams(2, 3)
    pts = sample_general_points(params, PRIME, seed=0)
    assert ev_D([], pts) == []
    mixed = [cycle_basis(params, 5, 1, eng)[0], cycle_basis(params, 6, 1, eng)[0]]
    with pytest.raises(ValueError, match="different spaces"):
        ev_D(mixed, pts)


def test_projection_factor_check_on_conic_classes(eng):
    params = VeroneseParams(2, 2)
    pts = sample_general_points(params, PRIME, seed=6)
    basis = cycle_basis(params, 3, 1, eng)
    for image in ev_D(basis, pts):
        out = projection_factor_check(image)
        assert out["factors"] is True
        assert out["residual_support"] == 0  # image here is exactly a boundary
    for image in ev_D([scaled(cls, 271828) for cls in basis], pts):
        assert projection_factor_check(image)["factors"] is True


def test_projection_factor_check_zero_class(eng):
    params = VeroneseParams(2, 2)
    pts = sample_general_points(params, PRIME, seed=7)
    zero = KoszulClass(ChainSpace(params, 3, 1, PRIME), {})
    out = projection_factor_check(ev_D([zero], pts)[0])
    assert out == {"factors": True, "witness": {}, "residual_support": 0}


def test_projection_factor_check_on_line_quartic(eng):
    params = VeroneseParams(1, 4)
    pts = sample_general_points(params, PRIME, seed=8)
    for image in ev_D(cycle_basis(params, 2, 1, eng), pts):
        assert projection_factor_check(image)["factors"] is True


def test_induced_rank_stable_across_general_point_sets(eng):
    # twenty different certified point sets induce maps of one common rank
    params = VeroneseParams(2, 3)
    classes = cycle_basis(params, 6, 1, eng)
    ranks = set()
    for seed in range(20):
        pts = sample_general_points(params, PRIME, seed=seed)
        ranks.add(induced_map_rank(ev_D(classes, pts)))
    assert len(ranks) == 1
    assert ranks.pop() > 0


def test_is_boundary_detects_non_boundaries(eng):
    # each basis class is nonzero modulo boundaries
    for cls in cycle_basis(VeroneseParams(1, 3), 1, 1, eng):
        assert induced_map_rank([cls]) == 1


def test_is_boundary_witness_verifies(eng):
    # a boundary factors with nothing left over, and the factor check's
    # witness maps onto it
    rng = random.Random(9)
    params = VeroneseParams(2, 2)
    up = ChainSpace(params, 4, 0, PRIME)
    mid = ChainSpace(params, 3, 1, PRIME)
    y = random_chain(rng, up, terms=4)
    cls = KoszulClass(mid, apply_differential(up, y))
    assert cls.coeffs
    out = projection_factor_check(cls)
    assert out["residual_support"] == 0
    assert normalize(mid, apply_differential(up, out["witness"])) == cls.coeffs


def test_induced_map_rank_of_a_basis_is_full(eng):
    # the identity map on K_{3,1} of the plane conic: a cycle basis, or any
    # other spanning set, has full rank modulo boundaries
    params = VeroneseParams(2, 2)
    basis = cycle_basis(params, 3, 1, eng)
    assert induced_map_rank(basis) == len(basis) == 3
    assert induced_map_rank([plus(basis[0], scaled(basis[2], 5)), basis[2], basis[1]]) == 3
    assert induced_map_rank([basis[0], scaled(basis[0], 5), basis[2]]) == 2
    assert induced_map_rank([]) == 0
    # a boundary adds nothing, and alone has rank 0
    up = ChainSpace(params, 4, 0, PRIME)
    bd = KoszulClass(basis[0].space, apply_differential(up, random_chain(random.Random(4), up)))
    assert bd.coeffs
    assert induced_map_rank([bd]) == 0
    assert induced_map_rank([plus(basis[0], bd), basis[1], plus(basis[2], bd)]) == 3
    # classes spanning several multidegree blocks are exact, not refused
    basis = cycle_basis(VeroneseParams(2, 3), 2, 1, eng)
    space = basis[0].space
    assert space.key_mdeg(next(iter(basis[0].coeffs))) != space.key_mdeg(
        next(iter(basis[1].coeffs))
    )
    spanning = [plus(basis[0], basis[1])] + basis[1:]
    assert induced_map_rank(spanning) == len(basis)
    assert induced_map_rank(spanning[:2]) == 2
    with pytest.raises(ValueError, match="different spaces"):
        induced_map_rank([basis[0], cycle_basis(params, 3, 1, eng)[0]])


def _whole_space(space: ChainSpace) -> tuple[np.ndarray, dict]:
    """The incoming differential over the whole space from `dense_differential`,
    with the space's row count also when the incoming term vanishes, and the
    row of each chain element: its wedge subset's itertools.combinations
    index times the monomial count, plus its monomial index.  No multidegree
    block enters."""
    params = space.params
    nwedge = len(monomial_basis(params.n, params.d))
    nmons = len(monomial_basis(params.n, space.m))
    subsets = itertools.combinations(range(nwedge), space.p)
    rows = {(sub, ui): i * nmons + ui for i, sub in enumerate(subsets) for ui in range(nmons)}
    d_in = dense_differential(params, space.p + 1, space.q - 1)
    if not len(d_in):
        d_in = np.zeros((len(rows), 0), dtype=np.int64)
    return d_in, rows


def _block_free_rank(images: list[KoszulClass]) -> int:
    """rank[D | images] - rank[D] over the whole space, D the incoming
    differential."""
    d_in, rows = _whole_space(images[0].space)
    cols = np.zeros((len(rows), len(images)), dtype=np.int64)
    for j, img in enumerate(images):
        for key, val in img.coeffs.items():
            cols[rows[key], j] = val
    return dense_rank_mod(np.hstack([d_in, cols]), PRIME) - dense_rank_mod(d_in, PRIME)


def _block_free_factors(cls: KoszulClass) -> bool:
    """Whether cls = d(y) + z is solvable over the whole space, z supported
    on the elements whose wedge factors are all divisible by x_0: `solve_mod`
    of [D | selector columns] against cls."""
    d_in, rows = _whole_space(cls.space)
    divisible = set(restriction_split(cls.space.params.n, cls.space.params.d)[0])
    chosen = [i for (sub, _ui), i in rows.items() if set(sub) <= divisible]
    selectors = np.zeros((len(rows), len(chosen)), dtype=np.int64)
    selectors[chosen, range(len(chosen))] = 1
    target = np.zeros(len(rows), dtype=np.int64)
    for key, val in cls.coeffs.items():
        target[rows[key]] = val
    return solve_mod(np.hstack([d_in, selectors]), target, PRIME) is not None


@pytest.mark.parametrize(
    "b, p", [pytest.param(0, 5, id="5"), pytest.param(0, 6, id="6"), pytest.param(-1, 4, id="b-1_4")]
)
def test_induced_map_rank_matches_a_block_free_reference(eng, b, p):
    # at b = -1 the incoming term of the images' space vanishes (m = -1):
    # B is empty, and the one nonzero image of each point set is a multiple
    # of a single element, so its combinations stay in one block
    params = VeroneseParams(2, 3, b)
    rng = random.Random(20241018 + p)
    classes = cycle_basis(params, p, 1, eng)
    for seed in range(3):
        pts = sample_general_points(params, PRIME, seed=seed)
        images = ev_D(classes, pts)
        rank = induced_map_rank(images)
        assert rank == _block_free_rank(images) > 0
        # random combinations of nonzero images plus a random boundary where
        # there are boundaries, each spread over many blocks at b = 0; more
        # of them than the rank
        nonzero = [img for img in images if img.coeffs]
        space = images[0].space
        up = space.shifted(+1, -1)
        combos = []
        for _ in range(8):
            boundary = apply_differential(up, random_chain(rng, up, terms=3)) if up.m >= 0 else {}
            combo = KoszulClass(space, boundary)
            for img in rng.sample(nonzero, min(3, len(nonzero))):
                combo = plus(combo, scaled(img, rng.randrange(1, PRIME)))
            combos.append(combo)
            assert induced_map_rank(combos) == _block_free_rank(combos)
        if b == 0:
            assert len({combo.space.key_mdeg(key) for key in combos[0].coeffs}) > 1


@pytest.mark.parametrize("b, p, count", [(0, 5, 40), (-1, 4, 105)])
def test_projection_factor_check_matches_a_block_free_reference(eng, b, p, count):
    # unprojected cycle classes mostly do not factor, so both verdicts occur;
    # a failing block is one the chain touches.  The verdict is a property
    # of the class, so adding a random boundary, where the incoming term
    # does not vanish, keeps it
    params = VeroneseParams(2, 3, b)
    rng = random.Random(20241019)
    classes = cycle_basis(params, p, 1, eng)[:count]
    up = classes[0].space.shifted(+1, -1)
    verdicts = []
    for cls in classes:
        want = _block_free_factors(cls)
        shifted = [cls]
        if up.m >= 0:
            boundary = KoszulClass(cls.space, apply_differential(up, random_chain(rng, up)))
            shifted.append(plus(cls, boundary))
        for chain in shifted:
            out = projection_factor_check(chain)
            assert out["factors"] is want
            if not want:
                assert out["witness"] is None
                assert out["mdeg_failed"] in {chain.space.key_mdeg(key) for key in chain.coeffs}
        verdicts.append(want)
    assert len(verdicts) == count and set(verdicts) == {True, False}


def test_theorem_chain_refuses_a_twist(eng):
    # the degree-drop argument is about the untwisted table; a twist must
    # not be dropped silently under a twisted label
    with pytest.raises(ValueError, match="untwisted"):
        theorem_chain_check(VeroneseParams(2, 3, 1), 4, eng)


def test_twist_identification_examples(eng):
    out = twist_identification_check(2, 2, 2, eng)
    assert out["equal"] is True and out["lhs"] > 0
    out = twist_identification_check(2, 2, 3, eng)
    assert out["equal"] is True and out["lhs"] == 0
    out = twist_identification_check(1, 1, 0, eng)
    assert out["equal"] is True and out["lhs"] == 1
    assert out["verdict"] == "CONSISTENT"


def test_twist_identification_full_strands(eng):
    for n, degree in ((1, 2), (1, 3), (2, 2)):
        for p in range(0, h0(n, degree) + 1):
            assert twist_identification_check(n, degree, p, eng)["equal"] is True


def test_theorem_chain_examples(eng):
    out = theorem_chain_check(VeroneseParams(3, 2), 7, eng)
    assert (out["first"], out["second"]) == (0, 0)
    assert out["verdict"] == "CONSISTENT"
    for p in range(0, 11):
        out = theorem_chain_check(VeroneseParams(2, 3), p, eng)
        assert out["verdict"] == "CONSISTENT", out
        if 1 <= p <= 6:
            assert out["first"] > 0
        if out["implication_in_scope"] and out["first"]:
            assert out["second"] > 0
    out = theorem_chain_check(VeroneseParams(1, 3), 3, eng)
    assert (out["first"], out["second"]) == (0, 0)
    assert out["verdict"] == "CONSISTENT"
