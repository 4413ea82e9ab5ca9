"""Exterior algebra over the space of degree-d forms: the s-fold contraction
of a basis wedge deletes each s-subset J of its positions, with sign
(-1)^(j_1+...+j_s) and the s x s minor of functional values at the deleted
factors as coefficient.  With one functional it is the plain contraction,
(-1)^j * phi(v_j) for deleting position j.

A wedge basis element is a strictly increasing tuple of indices into the
fixed monomial basis; a table over the k-subsets of that basis follows
their `itertools.combinations` order (`koszul.combination_rank`).  All
coefficients live in GF(prime).
"""

from __future__ import annotations

import itertools

import numpy as np

from .koszul import combination_rank, wedge_subsets

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


def deletions(subs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of subs (T, p) with each k-subset J of its positions deleted,
    J in `itertools.combinations` order: the deleted entries (T, C, k), the
    kept entries (T, C, p - k) and the signs (-1)^(sum of J) (C,)."""
    p = subs.shape[1]
    cut = list(itertools.combinations(range(p), k))
    kept = np.array([[j for j in range(p) if j not in row] for row in cut], dtype=np.int64)
    cut = np.array(cut, dtype=np.int64).reshape(len(cut), k)
    return subs[:, cut], subs[:, kept.reshape(len(cut), p - k)], 1 - 2 * (cut.sum(axis=1) % 2)


def wedge_with(phi: np.ndarray, table: np.ndarray, n: int, d: int, k: int, prime: int):
    """phi ^ omega on every k-subset S of the basis, omega a table over the
    (k-1)-subsets: the sum over positions t of (-1)^t phi(S_t) omega(S - S_t)."""
    deleted, rest, signs = deletions(wedge_subsets(n, d, k)[0], 1)
    terms = phi[deleted[..., 0]] * table[combination_rank(rest, len(phi))] % prime
    return (terms * signs).sum(axis=1) % prime


def minor_table(functionals: list[Functional], n: int, d: int, prime: int) -> np.ndarray:
    """det[functionals[a](v_(S_b))] over GF(prime) on every s-subset S of the
    degree-d monomials, s = len(functionals): Laplace expansion along the
    last functional, det_k = (-1)^(k-1) phi_k ^ det_(k-1), one numpy pass per
    functional."""
    table = np.ones(1, dtype=np.int64)
    for k, phi in enumerate(np.array(functionals, dtype=np.int64) % prime, 1):
        table = wedge_with(phi, table, n, d, k, prime) * (-1) ** (k - 1) % prime
    return table
