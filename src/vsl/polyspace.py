"""Monomial bases of the spaces of forms on P^n, and points over prime fields.

Monomials are exponent tuples of length n+1.  Bases are listed in graded
reverse-lexicographic order, largest first, so e.g. the degree-2 forms on P^1
come out as x^2, xy, y^2.  The ordering is fixed once and for all: every
wedge index, matrix row and cached rank in this package refers to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bounds import InvariantViolation, h0

# A monomial is its exponent vector; a multidegree is the same kind of tuple
# (coordinatewise total torus weight of a wedge-tensor basis element).
Monomial = tuple[int, ...]
MultiDegree = tuple[int, ...]


def monomial_degree(m: Monomial) -> int:
    return sum(m)


@lru_cache(maxsize=None)
def monomial_basis(n: int, m: int) -> tuple[Monomial, ...]:
    """Degree-m monomials in n+1 variables, grevlex order, largest first.

    Empty for m < 0.  Between monomials of the same degree, a is larger
    than b when the last nonzero entry of a - b is negative; sorting by the
    reversed exponent tuple realizes this.
    """
    if n < 1:
        raise ValueError(f"monomial_basis: need n >= 1, got n={n}")
    if m < 0:
        return ()
    exps = []
    for combo in itertools.combinations_with_replacement(range(n + 1), m):
        e = [0] * (n + 1)
        for i in combo:
            e[i] += 1
        exps.append(tuple(e))
    exps.sort(key=lambda e: tuple(reversed(e)))
    if len(exps) != h0(n, m):
        raise InvariantViolation(f"monomial_basis({n}, {m}) has {len(exps)} elements")
    return tuple(exps)


@lru_cache(maxsize=None)
def monomial_index(n: int, m: int) -> dict[Monomial, int]:
    """Inverse of monomial_basis: exponent tuple -> position."""
    return {mono: i for i, mono in enumerate(monomial_basis(n, m))}


def multiply(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials in the same variable set."""
    if len(a) != len(b):
        raise ValueError(f"multiply: mismatched variable counts {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def mult_table(n: int, m: int, d: int):
    """2D array: index of (degree-m monomial i) * (degree-d monomial j).

    Entry [i, j] is the position of the product in monomial_basis(n, m+d).
    """
    import numpy as np

    src = monomial_basis(n, m)
    mul = monomial_basis(n, d)
    idx = monomial_index(n, m + d)
    table = np.empty((len(src), len(mul)), dtype=np.int64)
    for i, a in enumerate(src):
        for j, b in enumerate(mul):
            table[i, j] = idx[multiply(a, b)]
    return table


def restriction_split(n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of degree-d monomials divisible by x_0, and those without x_0.

    The second list spans the restriction of the degree-d forms to the fixed
    hyperplane x_0 = 0; the first spans the forms vanishing on it.  Together
    they partition monomial_basis(n, d).
    """
    basis = monomial_basis(n, d)
    divisible = tuple(i for i, mono in enumerate(basis) if mono[0] > 0)
    transversal = tuple(i for i, mono in enumerate(basis) if mono[0] == 0)
    if len(divisible) + len(transversal) != len(basis):
        raise InvariantViolation("restriction_split does not partition the basis")
    return divisible, transversal


@dataclass(frozen=True)
class PointOverField:
    """A point of P^n with coordinates in GF(prime), scaled so the first
    nonzero coordinate is 1."""

    coords: tuple[int, ...]
    prime: int

    def __post_init__(self) -> None:
        if len(self.coords) < 2:
            raise ValueError("need at least 2 homogeneous coordinates")
        if any(not 0 <= c < self.prime for c in self.coords):
            raise ValueError("coordinates must be reduced mod the prime")
        lead = next((c for c in self.coords if c != 0), None)
        if lead is None:
            raise ValueError("all coordinates are zero")
        if lead != 1:
            raise ValueError("point is not normalized (first nonzero coord != 1)")

    @classmethod
    def make(cls, raw: tuple[int, ...], prime: int) -> "PointOverField":
        """Reduce mod prime and normalize the first nonzero coordinate to 1."""
        reduced = [c % prime for c in raw]
        lead = next((c for c in reduced if c != 0), None)
        if lead is None:
            raise ValueError("cannot normalize the zero tuple")
        inv = pow(lead, -1, prime)
        return cls(tuple(c * inv % prime for c in reduced), prime)

    @classmethod
    def random(cls, n: int, prime: int, rng) -> "PointOverField":
        while True:
            raw = tuple(rng.randrange(prime) for _ in range(n + 1))
            if any(raw):
                return cls.make(raw, prime)

    @classmethod
    def random_on_hyperplane(cls, n: int, prime: int, rng) -> "PointOverField":
        """Random point of the fixed hyperplane x_0 = 0."""
        while True:
            raw = (0,) + tuple(rng.randrange(prime) for _ in range(n))
            if any(raw):
                return cls.make(raw, prime)


def evaluate(mono: Monomial, point: PointOverField) -> int:
    """Value of a monomial at a point, in GF(point.prime)."""
    if len(mono) != len(point.coords):
        raise ValueError("monomial and point live in different variable sets")
    val = 1
    for e, c in zip(mono, point.coords):
        if e:
            val = val * pow(c, e, point.prime) % point.prime
    return val
