from __future__ import annotations

import random

import pytest
from conftest import random_point

from vsl.bounds import binom, h0
from vsl.polyspace import (
    PointOverField,
    evaluate,
    monomial_basis,
    monomial_index,
    mult_table,
    multiply,
    restriction_split,
)

PRIME = 2147483647


def test_basis_degree_two_on_line():
    assert monomial_basis(1, 2) == ((2, 0), (1, 1), (0, 2))


def test_basis_sizes_and_edge_cases():
    assert len(monomial_basis(2, 3)) == 10
    assert monomial_basis(2, -1) == ()
    assert monomial_basis(2, 0) == ((0, 0, 0),)
    for n in range(1, 4):
        for m in range(0, 6):
            assert len(monomial_basis(n, m)) == h0(n, m)


def test_basis_order_is_graded_reverse_lex():
    for n in range(1, 4):
        for m in range(1, 5):
            basis = monomial_basis(n, m)
            assert basis[0] == (m,) + (0,) * n  # pure power of x_0 first
            assert basis[-1] == (0,) * n + (m,)  # pure power of x_n last
            keys = [tuple(reversed(e)) for e in basis]
            assert keys == sorted(keys)


def test_monomial_index_roundtrip():
    for n, m in ((1, 3), (2, 2), (3, 2)):
        index = monomial_index(n, m)
        for i, mono in enumerate(monomial_basis(n, m)):
            assert index[mono] == i


def test_multiply():
    assert multiply((2, 0), (1, 1)) == (3, 1)
    assert multiply((1, 2, 0), (0, 0, 0)) == (1, 2, 0)
    a, b = (2, 0, 0), (1, 1, 1)
    assert sum(multiply(a, b)) == sum(a) + sum(b)
    with pytest.raises(ValueError):
        multiply((1, 0), (1, 0, 0))


def test_mult_table_matches_direct_products():
    table = mult_table(2, 2, 3)
    src = monomial_basis(2, 2)
    mul = monomial_basis(2, 3)
    idx = monomial_index(2, 5)
    for i, a in enumerate(src):
        for j, b in enumerate(mul):
            assert table[i, j] == idx[multiply(a, b)]


def test_restriction_split():
    basis = monomial_basis(2, 2)
    divisible, transversal = restriction_split(2, 2)
    assert [basis[i] for i in transversal] == [(0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert all(basis[i][0] > 0 for i in divisible)
    assert len(restriction_split(3, 2)[1]) == 6
    for d in range(1, 5):
        assert len(restriction_split(1, d)[1]) == 1
    # sizes: transversal count is C(d+n-1, n-1)
    for n in range(1, 4):
        for d in range(1, 5):
            assert len(restriction_split(n, d)[1]) == binom(d + n - 1, n - 1)


def test_point_normalization():
    pt = PointOverField.make((3, 6), PRIME)
    assert pt.coords[0] == 1
    with pytest.raises(ValueError):
        PointOverField((2, 1), PRIME)  # first nonzero coordinate not 1
    with pytest.raises(ValueError):
        PointOverField.make((0, 0), PRIME)
    rng = random.Random(11)
    for _ in range(20):
        p = random_point(2, PRIME, rng)
        lead = next(c for c in p.coords if c)
        assert lead == 1
        q = PointOverField.random_on_hyperplane(2, PRIME, rng)
        assert q.coords[0] == 0


def test_evaluate():
    pt = PointOverField.make((1, 1), PRIME)
    assert evaluate((2, 0), pt) == 1
    on_hyperplane = PointOverField.make((0, 5, 7), PRIME)
    assert evaluate((1, 1, 0), on_hyperplane) == 0
    assert evaluate((0, 0, 0), on_hyperplane) == 1
    with pytest.raises(ValueError):
        evaluate((1, 0), on_hyperplane)


def test_evaluate_is_multiplicative():
    rng = random.Random(7)
    pt = random_point(2, PRIME, rng)
    for _ in range(20):
        a = random.choice(monomial_basis(2, 2))
        b = random.choice(monomial_basis(2, 3))
        assert (
            evaluate(multiply(a, b), pt)
            == evaluate(a, pt) * evaluate(b, pt) % PRIME
        )
