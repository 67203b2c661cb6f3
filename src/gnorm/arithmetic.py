"""Number-theoretic predicates behind the transitive-colouring obstructions.

Everything here is exact integer / rational arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Optional

from .errors import InvalidParameter, OutOfScopeParameters


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    for f in range(2, isqrt(n) + 1):
        if n % f == 0:
            return f
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_prime_factor(n) == n


def is_prime_power(n: int) -> bool:
    """n = p^a for a prime p and a >= 1."""
    if n < 2:
        return False
    p = _least_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


# -- the classification of edge-transitive self-complementary r-graphs ----------


def _class_a_case(k: int, r: int) -> Optional[int]:
    if r == 1 and k % 2 == 0:
        return 1
    if r == 2 and k % 4 == 1 and is_prime_power(k):
        return 2
    if r == 3 and k % 4 == 2 and is_prime_power(k - 1):
        return 3
    if r >= 3 and r % 2 == 1 and k == r + 1:
        return 4
    if r >= 7 and r % 4 == 3 and is_prime_power(r + 2) and k in (r + 2, r + 3):
        return 5
    return None


def class_A_membership(k: int, r: int) -> bool:
    """Existence of an edge-transitive self-complementary k-vertex r-graph.

    The published clause list is checked for (k, r) and, via the
    edge-complementation duality, for (k, k-r); the duality closure also
    covers small pairs such as (5, 3) that the clauses alone miss.
    """
    if not (k > r >= 1):
        raise InvalidParameter(f"need k > r >= 1, got ({k}, {r})")
    return _class_a_case(k, r) is not None or _class_a_case(k, k - r) is not None


# -- the integrality obstruction ---------------------------------------------------


@dataclass(frozen=True)
class IntegralityResult:
    d: Fraction
    is_integer: bool
    t: int
    k: int
    s: int
    case: str  # "i" or "ii"

    def to_json(self) -> dict:
        return {
            "d": [self.d.numerator, self.d.denominator],
            "is_integer": self.is_integer,
            "t": self.t,
            "k": self.k,
            "s": self.s,
            "case": self.case,
        }


def kneser_integrality_test(n: int, r: int) -> IntegralityResult:
    """Exact star-count average for H(n, r) with odd r = 2t - 1:

        d = 2 * C(n-t, t-1) * C(k, s-1) * C(3t-1, t) / C(2t-1, t),

    k = n - r, s = k - r.  A transitive colouring forces d to be an integer,
    so a non-integer value certifies that none exists.  Applicable when
    t >= 2 and n = 2r + 1, or t >= 4 even and n in {2r+2, 2r+3}.
    """
    if r % 2 == 0 or r < 3:
        raise OutOfScopeParameters(f"need odd r >= 3, got r = {r}")
    t = (r + 1) // 2
    case = None
    if t >= 2 and n == 2 * r + 1:
        case = "i"
    elif t >= 4 and t % 2 == 0 and n in (2 * r + 2, 2 * r + 3):
        case = "ii"
    if case is None:
        raise OutOfScopeParameters(
            f"hypotheses not met for (n, r) = ({n}, {r}): "
            "need n = 2r+1 (any odd r >= 3) or n in {2r+2, 2r+3} with (r+1)/2 even >= 4"
        )
    k = n - r
    s = k - r
    d = Fraction(2 * comb(n - t, t - 1) * comb(k, s - 1) * comb(3 * t - 1, t),
                 comb(2 * t - 1, t))
    return IntegralityResult(d, d.denominator == 1, t, k, s, case)
