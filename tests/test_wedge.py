from __future__ import annotations

import itertools
import random

import pytest
from conftest import loop_contraction, single_contraction

import vsl.syzygy
from vsl.betti import Engine
from vsl.bounds import VeroneseParams
from vsl.linalg import PINNED_PRIMES, FieldSpec
from vsl.polyspace import monomial_basis
from vsl.syzygy import (
    ChainSpace,
    KoszulClass,
    alpha_chain,
    cycle_basis,
    ev_D,
    point_functional,
    sample_general_points,
)
from vsl.wedge import det_mod, minor_table

PRIME = 2147483647


def _random_chain(rng, space: ChainSpace, terms: int = 5) -> dict:
    size = len(monomial_basis(space.params.n, space.params.d))
    nmons = len(monomial_basis(space.params.n, space.m))
    subs = list(itertools.combinations(range(size), space.p))
    return {
        (subs[rng.randrange(len(subs))], rng.randrange(nmons)): rng.randrange(1, PRIME)
        for _ in range(terms)
    }


def _scaled(chain: dict, c: int) -> dict:
    return {key: val * c % PRIME for key, val in chain.items()}


def test_contraction_derivation_signs():
    # contracting v_0 ^ v_1 gives phi(v_0) v_1 - phi(v_1) v_0
    # (the s = 1 case of the minor-weighted contraction)
    phi = (3, 5, 0)
    space = ChainSpace(VeroneseParams(1, 2), 2, 1, PRIME)
    chain = {((0, 1), 2): 1}
    assert alpha_chain(space, chain, [phi]) == {((1,), 2): 3, ((0,), 2): PRIME - 5}
    # dual functional of the first factor picks out the second
    dual0 = (1, 0, 0)
    assert alpha_chain(space, chain, [dual0]) == {((1,), 2): 1}


def test_contraction_squares_to_zero():
    rng = random.Random(20240902)
    size = len(monomial_basis(2, 2))  # 6
    for p in (2, 3, 5):
        space = ChainSpace(VeroneseParams(2, 2), p, 1, PRIME)
        for _ in range(25):
            chain = _random_chain(rng, space, terms=4)
            phi = tuple(rng.randrange(PRIME) for _ in range(size))
            once = alpha_chain(space, chain, [phi])
            assert alpha_chain(space.shifted(-1, 0), once, [phi]) == {}


def test_contraction_anticommutes():
    rng = random.Random(3)
    size = len(monomial_basis(2, 2))
    space = ChainSpace(VeroneseParams(2, 2), 3, 1, PRIME)
    down = space.shifted(-1, 0)
    for _ in range(10):
        chain = _random_chain(rng, space, terms=4)
        phi = tuple(rng.randrange(PRIME) for _ in range(size))
        psi = tuple(rng.randrange(PRIME) for _ in range(size))
        ab = alpha_chain(down, alpha_chain(space, chain, [psi]), [phi])
        ba = alpha_chain(down, alpha_chain(space, chain, [phi]), [psi])
        total = dict(ab)
        for key, val in ba.items():
            total[key] = (total.get(key, 0) + val) % PRIME
        assert not any(total.values())


def test_det_mod():
    assert det_mod([[2, 1], [1, 1]], PRIME) == 1
    assert det_mod([[1, 2], [2, 4]], PRIME) == 0
    assert det_mod([[0, 1], [1, 0]], PRIME) == PRIME - 1


def test_gamma_antisymmetry():
    # the minor table gamma: det_mod's minor on every 3-subset of the
    # degree-2 plane monomials, negated by swapping two functionals, zero
    # with a repeated one
    rng = random.Random(5)
    size = len(monomial_basis(2, 2))
    phis = [tuple(rng.randrange(PRIME) for _ in range(size)) for _ in range(3)]
    table = minor_table(phis, 2, 2, PRIME)
    subsets = list(itertools.combinations(range(size), 3))
    assert table.tolist() == [det_mod([[phi[i] for i in sub] for phi in phis], PRIME) for sub in subsets]
    swapped = minor_table([phis[1], phis[0], phis[2]], 2, 2, PRIME)
    assert swapped.tolist() == [(-g) % PRIME for g in table.tolist()]
    assert not minor_table([phis[0], phis[1], phis[0]], 2, 2, PRIME).any()


def test_alpha_one_functional_is_contraction():
    rng = random.Random(17)
    size = len(monomial_basis(2, 2))
    space = ChainSpace(VeroneseParams(2, 2), 3, 1, PRIME)
    for _ in range(10):
        chain = _random_chain(rng, space, terms=4)
        phi = tuple(rng.randrange(PRIME) for _ in range(size))
        assert alpha_chain(space, chain, [phi]) == single_contraction(space, chain, phi)


def test_alpha_paired_block_example():
    # v = w_0 ^ w_1 ^ u with the two functionals dual to w_0, w_1 and
    # vanishing on u: the double contraction leaves +-u
    space = ChainSpace(VeroneseParams(1, 3), 3, 1, PRIME)  # basis size 4
    phi0 = (1, 0, 0, 0)
    phi1 = (0, 1, 0, 0)
    out = alpha_chain(space, {((0, 1, 3), 0): 1}, [phi0, phi1])
    # gamma is the identity minor; deleting positions {0,1} carries sign -1
    assert out == {((3,), 0): PRIME - 1}


def test_alpha_requires_enough_factors(eng):
    # ev_D refuses p < s; p = s is allowed and lands in wedge degree zero
    params = VeroneseParams(1, 3)  # s = 1
    pts = sample_general_points(params, PRIME, seed=0)
    with pytest.raises(ValueError, match="p >= s"):
        ev_D([KoszulClass(ChainSpace(params, 0, 1, PRIME), {})], pts)
    assert {img.space.p for img in ev_D(cycle_basis(params, 1, 1, eng), pts)} == {0}
    space = ChainSpace(params, 1, 1, PRIME)
    assert alpha_chain(space, {((2,), 0): 1}, [(1, 1, 1, 1)]) == {((), 0): 1}


def test_alpha_matches_composed_contractions_up_to_global_sign():
    # the s-fold minor-weighted contraction equals the composite of single
    # contractions up to one sign depending only on s; 100 random chains
    rng = random.Random(20240903)
    size = len(monomial_basis(2, 2))
    s = 3
    expected_sign = (-1) ** (s * (s - 1) // 2)
    space = ChainSpace(VeroneseParams(2, 2), 5, 1, PRIME)
    for _ in range(100):
        chain = _random_chain(rng, space)
        phis = [tuple(rng.randrange(PRIME) for _ in range(size)) for _ in range(s)]
        fast = alpha_chain(space, chain, phis)
        slow, sp = chain, space
        for phi in phis:
            slow = single_contraction(sp, slow, phi)
            sp = sp.shifted(-1, 0)
        assert fast == _scaled(slow, expected_sign % PRIME)


def test_alpha_scales_linearly_in_each_functional():
    # rescaling any one functional rescales the whole output, so every
    # rank/vanishing verdict downstream is scale-invariant
    rng = random.Random(99)
    size = len(monomial_basis(2, 2))
    space = ChainSpace(VeroneseParams(2, 2), 4, 1, PRIME)
    chain = _random_chain(rng, space)
    phis = [tuple(rng.randrange(PRIME) for _ in range(size)) for _ in range(2)]
    lam = 123457
    scaled = [tuple(x * lam % PRIME for x in phis[0]), phis[1]]
    assert alpha_chain(space, chain, scaled) == _scaled(alpha_chain(space, chain, phis), lam)


def test_alpha_terms_antisymmetry_kills_repeated_functional():
    phi = (2, 3, 5, 7)
    space = ChainSpace(VeroneseParams(1, 3), 3, 1, PRIME)
    assert alpha_chain(space, {((0, 1, 2), 0): 1, ((1, 2, 3), 1): 4}, [phi, phi]) == {}


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_alpha_chain_equals_the_loop_reference(s):
    # the numpy contraction against per-term loops with det_mod minors, on
    # chains of repeated and cancelling terms, for every s up to p
    rng = random.Random(20241020 + s)
    size = len(monomial_basis(2, 2))
    space = ChainSpace(VeroneseParams(2, 2), 4, 1, PRIME)
    for _ in range(20):
        chain = _random_chain(rng, space, terms=8)
        phis = [tuple(rng.randrange(PRIME) for _ in range(size)) for _ in range(s)]
        assert alpha_chain(space, chain, phis) == loop_contraction(space, chain, phis)


@pytest.mark.parametrize("batch", [64, 1 << 14])
@pytest.mark.parametrize("prime", PINNED_PRIMES[:2])
def test_ev_d_equals_the_loop_reference(prime, batch, monkeypatch):
    # every image of the (2,3) p = 5 basis, at two primes, in one batch and
    # in many small ones
    monkeypatch.setattr(vsl.syzygy, "_BATCH", batch)
    params = VeroneseParams(2, 3)
    classes = cycle_basis(params, 5, 1, Engine(FieldSpec.prime(prime)))
    pts = sample_general_points(params, prime, seed=1)
    phis = [point_functional(params, pt) for pt in pts]
    images = ev_D(classes, pts)
    assert any(img.coeffs for img in images)
    for cls, img in zip(classes, images, strict=True):
        assert img.coeffs == loop_contraction(cls.space, cls.coeffs, phis)
