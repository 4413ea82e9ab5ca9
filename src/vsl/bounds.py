"""Closed-form bounds and predicted (non)vanishing ranges for Veronese syzygies.

Everything here is exact integer arithmetic on binomial coefficients.  The
functions compute, for the d-fold Veronese embedding of projective n-space
(optionally twisted by O(b)), the published bounds on which graded Betti
numbers K_{p,q} can be nonzero: the conjectured nonvanishing interval for
each strand, the proven vanishing thresholds for the linear strand, the
vanishing threshold for the top strand q = n, Green's vanishing bound, and
the duality pairing between table entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class InvariantViolation(RuntimeError):
    """A mathematical invariant the computation relies on does not hold.

    Raised explicitly rather than by `assert`, so `python -O` keeps the
    check: a violated invariant means a wrong rank or a wrong basis, never
    a result to report.
    """


def binom(a: int, k: int) -> int:
    """Binomial coefficient C(a, k), exact.

    Returns 0 when k < 0 or k > a.  A negative upper index is rejected:
    every formula in this package is arranged so its upper index is
    nonnegative, and a negative one signals a caller bug.
    """
    if a < 0:
        raise ValueError(f"binom: negative upper index {a}")
    if k < 0 or k > a:
        return 0
    return math.comb(a, k)


def h0(n: int, m: int) -> int:
    """Dimension of the space of degree-m forms in n+1 variables.

    Equals C(m+n, n); zero for m < 0 (no sections of negative degree).
    """
    if n < 1:
        raise ValueError(f"h0: need n >= 1, got {n}")
    if m < 0:
        return 0
    return math.comb(m + n, n)


@dataclass(frozen=True)
class VeroneseParams:
    """The d-fold embedding of P^n, with coefficients twisted by O(b).

    n >= 1 is the dimension of the source projective space, d >= 1 the
    degree of the embedding line bundle, b the twist of the coefficient
    bundle (b = 0 is the untwisted Betti table).
    """

    n: int
    d: int
    b: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got d={self.d}")

    @property
    def r(self) -> int:
        """Dimension of the ambient projective space of the embedding."""
        return h0(self.n, self.d) - 1

    def label(self) -> str:
        if self.b == 0:
            return f"(n={self.n}, d={self.d})"
        return f"(n={self.n}, d={self.d}, b={self.b})"


class Source(str, Enum):
    """Which published statement a predicted range comes from."""

    EL_CONJ = "EL_CONJ"
    LINEAR_CONJ = "LINEAR_CONJ"
    MAIN_THM = "MAIN_THM"
    QN_THM = "QN_THM"
    GREEN_VANISHING = "GREEN_VANISHING"
    GB_VANISHING = "GB_VANISHING"
    DUALITY_TRIVIAL = "DUALITY_TRIVIAL"


# Sources whose prediction is an if-and-only-if nonvanishing interval;
# all others predict vanishing on their interval and say nothing off it.
_IFF_SOURCES = {Source.EL_CONJ}


@dataclass(frozen=True)
class RangePrediction:
    """A predicted vanishing/nonvanishing interval [lo, hi] for one strand.

    For Source.EL_CONJ the claim is "K_{p,q} != 0 exactly for lo <= p <= hi";
    for every other source it is "K_{p,q} = 0 for lo <= p <= hi".  An open
    end is represented by None.  applicable records whether the statement's
    hypotheses hold at these parameters; reason says why or why not.
    """

    source: Source
    q: int
    lo: int | None
    hi: int | None
    applicable: bool
    reason: str

    def contains(self, p: int) -> bool:
        if self.lo is not None and p < self.lo:
            return False
        if self.hi is not None and p > self.hi:
            return False
        return True

    def expected(self, p: int) -> str | None:
        """'zero', 'nonzero', or None when the statement makes no claim at p."""
        if self.source in _IFF_SOURCES:
            return "nonzero" if self.contains(p) else "zero"
        return "zero" if self.contains(p) else None


def el_range(params: VeroneseParams, q: int) -> RangePrediction:
    """Conjectured nonvanishing interval for K_{p,q} of the untwisted table.

    For 1 <= q <= n the claim is that K_{p,q}(P^n, O(d)) != 0 exactly for

        C(d+q, q) - C(d-1, q) - q  <=  p  <=
        C(d+n, n) - C(d+n-q, n-q) + C(n, n-q) - q - 1,

    asserted for d >= n + 1 (applicable is False below that).
    """
    n, d = params.n, params.d
    if not 1 <= q <= n:
        raise ValueError(f"el_range: need 1 <= q <= n, got q={q}, n={n}")
    lo = binom(d + q, q) - binom(d - 1, q) - q
    hi = binom(d + n, n) - binom(d + n - q, n - q) + binom(n, n - q) - q - 1
    applicable = d >= n + 1
    reason = (
        f"nonvanishing conjecture for strand q={q}, d >= n+1 holds"
        if applicable
        else f"d={d} < n+1={n + 1}: outside the conjecture's degree range"
    )
    return RangePrediction(Source.EL_CONJ, q, lo, hi, applicable, reason)


def linear_conj_bound(params: VeroneseParams) -> int:
    """Conjectured vanishing threshold for the linear strand, n >= 2.

    K_{p,1}(P^n, O(d)) = 0 is predicted for all p >= C(d+n-1, n) + n - 1.
    """
    n, d = params.n, params.d
    if n < 2:
        raise ValueError(f"linear_conj_bound: need n >= 2, got n={n}")
    return binom(d + n - 1, n) + n - 1

def main_thm_bound(params: VeroneseParams) -> int:
    """Proven vanishing threshold for the linear strand, n >= 3.

    K_{p,1}(P^n, O(d)) = 0 for all p >= C(d+n-1, n) + C(d+n-2, n-2).
    For n = 3 this reads C(d+2, 3) + d + 1.  The threshold exceeds the
    conjectured one by C(d+n-2, n-2) - (n-1) >= 0, with equality at d = 1.
    """
    n, d = params.n, params.d
    if n < 3:
        raise ValueError(f"main_thm_bound: need n >= 3, got n={n}")
    return binom(d + n - 1, n) + binom(d + n - 2, n - 2)


def qn_thm_bound(params: VeroneseParams) -> int:
    """Proven lower vanishing threshold for the top strand q = n.

    For n >= 2 and d >= n + 1, K_{p,n}(P^n, O(d)) = 0 for all
    p <= C(d+n, n) - C(d-1, n) - n - 1 (one below the conjectured interval).
    """
    n, d = params.n, params.d
    if n < 2:
        raise ValueError(f"qn_thm_bound: need n >= 2, got n={n}")
    if d < n + 1:
        raise ValueError(f"qn_thm_bound: need d >= n+1, got d={d}, n={n}")
    return binom(d + n, n) - binom(d - 1, n) - n - 1


def projection_codim(params: VeroneseParams) -> int:
    """Number of conditions cut by the degree-d forms vanishing on a hyperplane.

    Equals C(d+n-1, n-1), the count of degree-d monomials in the n hyperplane
    coordinates; identically h0(n, d) - h0(n, d-1).
    """
    n, d = params.n, params.d
    s = binom(d + n - 1, n - 1)
    if s != h0(n, d) - h0(n, d - 1):
        raise InvariantViolation(
            f"projection_codim: C({d + n - 1}, {n - 1}) != h0({n}, {d}) - h0({n}, {d - 1})"
        )
    return s


def green_vanishing_bound(params: VeroneseParams, q: int) -> int:
    """Green's vanishing threshold: K_{p,q} = 0 for p >= h0(n, b + q*d)."""
    if q < 0:
        raise ValueError(f"green_vanishing_bound: need q >= 0, got {q}")
    return h0(params.n, params.b + q * params.d)


def duality_partner(params: VeroneseParams, p: int, q: int) -> tuple[int, int, int]:
    """Index of the Serre-dual Betti table entry.

    K_{p,q}(P^n, O(b); O(d)) pairs with K_{p',q'}(P^n, O(b'); O(d)) where
    p' = r - n - p, q' = n + 1 - q, b' = -n - 1 - b and r = h0(n, d) - 1.
    Applying the map twice returns (p, q, b): it is an involution.
    """
    n = params.n
    r = params.r
    return (r - n - p, n + 1 - q, -n - 1 - params.b)


def gb_bound(d: int) -> int:
    """Quadratic strand vanishing threshold on the plane, valid for all d >= 1.

    K_{p,2}(P^2, O(d)) = 0 for p < 3d - 2.
    """
    if d < 1:
        raise ValueError(f"gb_bound: need d >= 1, got {d}")
    return 3 * d - 2


def range_predictions(params: VeroneseParams, q: int) -> list[RangePrediction]:
    """All published range predictions that speak about strand q at params.

    Statements whose hypotheses exclude these parameters outright (e.g. the
    n >= 3 vanishing theorem at n = 2) are omitted; statements that exist but
    whose degree hypothesis fails are included with applicable=False.
    """
    n, d, b = params.n, params.d, params.b
    preds: list[RangePrediction] = []
    if b == 0 and 1 <= q <= n:
        preds.append(el_range(params, q))
    deg_ok = d >= n + 1
    deg_reason = "" if deg_ok else f" (inapplicable: d={d} < n+1={n + 1})"
    if b == 0 and q == 1 and n >= 2:
        preds.append(
            RangePrediction(
                Source.LINEAR_CONJ,
                q,
                linear_conj_bound(params),
                None,
                deg_ok,
                "conjectured linear-strand vanishing" + deg_reason,
            )
        )
    if b == 0 and q == 1 and n >= 3:
        preds.append(
            RangePrediction(
                Source.MAIN_THM,
                q,
                main_thm_bound(params),
                None,
                True,
                "proven linear-strand vanishing, n >= 3",
            )
        )
    if b == 0 and q == n and n >= 2:
        if deg_ok:
            preds.append(
                RangePrediction(
                    Source.QN_THM,
                    q,
                    None,
                    qn_thm_bound(params),
                    True,
                    "proven top-strand vanishing below the predicted interval",
                )
            )
        else:
            preds.append(
                RangePrediction(
                    Source.QN_THM,
                    q,
                    None,
                    None,
                    False,
                    "top-strand vanishing theorem" + deg_reason,
                )
            )
    if b == 0 and q == 2 and n == 2:
        preds.append(
            RangePrediction(
                Source.GB_VANISHING,
                q,
                None,
                gb_bound(d) - 1,
                True,
                "quadratic-strand vanishing on the plane, p < 3d-2",
            )
        )
    if b == 0 and q == n:
        preds.append(
            RangePrediction(
                Source.DUALITY_TRIVIAL,
                q,
                h0(n, d) - n,
                None,
                True,
                "dual entry has negative wedge index",
            )
        )
    preds.append(
        RangePrediction(
            Source.GREEN_VANISHING,
            q,
            green_vanishing_bound(params, q),
            None,
            True,
            "vanishing for p >= h0(n, b + q*d)",
        )
    )
    return preds
