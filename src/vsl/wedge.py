"""Exterior algebra over the space of degree-d forms: the s-fold contraction
of a basis wedge, whose coefficients are s x s minors of functional values.
With one functional it is the plain contraction, (-1)^j * phi(v_j) for
deleting position j.

A wedge basis element is a strictly increasing tuple of indices into the
fixed monomial basis.  All coefficients live in GF(prime).
"""

from __future__ import annotations

import itertools

# Values of a linear functional on the degree-d monomial basis, reduced mod p.
Functional = tuple[int, ...]


def det_mod(rows: list[list[int]], prime: int) -> int:
    """Determinant of a small square matrix over GF(prime)."""
    m = [row[:] for row in rows]
    size = len(m)
    det = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] % prime), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col] % prime
        inv = pow(m[col][col], -1, prime)
        for r in range(col + 1, size):
            f = m[r][col] * inv % prime
            if f:
                m[r] = [(a - f * b) % prime for a, b in zip(m[r], m[col])]
    return det % prime


def gamma_value(
    functionals: list[Functional],
    indices: tuple[int, ...],
    prime: int,
    cache: dict | None = None,
) -> int:
    """Determinant det[ functionals[a](v_{indices[b]}) ] over GF(prime).

    This is the coefficient with which an s-tuple of deleted wedge factors
    enters the s-fold contraction.  Antisymmetric in both the functionals
    and the indices.
    """
    if cache is not None and indices in cache:
        return cache[indices]
    rows = [[phi[i] % prime for i in indices] for phi in functionals]
    val = det_mod(rows, prime)
    if cache is not None:
        cache[indices] = val
    return val


def alpha_terms(
    key: tuple[int, ...],
    functionals: list[Functional],
    prime: int,
    gamma_cache: dict | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """Terms of the s-fold contraction of one basis wedge.

    Sums over s-element position subsets J = {j_1 < ... < j_s}: each
    contributes (-1)^(j_1+...+j_s) times the minor of functional values at
    the deleted factors, on the wedge of the remaining p-s factors.
    """
    s = len(functionals)
    p = len(key)
    out = []
    for positions in itertools.combinations(range(p), s):
        deleted = tuple(key[j] for j in positions)
        g = gamma_value(functionals, deleted, prime, gamma_cache)
        if not g:
            continue
        if sum(positions) % 2:
            g = prime - g
        pos_set = set(positions)
        rest = tuple(idx for j, idx in enumerate(key) if j not in pos_set)
        out.append((rest, g))
    return out
