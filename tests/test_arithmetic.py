"""Exact arithmetic predicates: class membership, admissibility, primes,
integrality."""

from fractions import Fraction
from math import comb

import pytest

from gnorm.errors import InvalidParameter, OutOfScopeParameters
from gnorm.arithmetic import (
    _class_a_case,
    class_A_membership,
    is_prime,
    is_prime_power,
    kneser_integrality_test,
)


def ref_is_prime(n: int) -> bool:
    """Odd-only trial division, as ``is_prime`` did before it shared the
    least-prime-factor search with ``is_prime_power``."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def ref_is_prime_power(n: int) -> bool:
    """n = p^a for a prime p and a >= 1, by its own factor search."""
    if n < 2:
        return False
    p = None
    m = n
    for f in range(2, n + 1):
        if f * f > m:
            break
        if m % f == 0:
            p = f
            while m % f == 0:
                m //= f
            break
    if p is None:
        return True  # n itself is prime
    return m == 1


class TestPrimePowers:
    def test_values(self):
        assert is_prime_power(2) and is_prime_power(27) and is_prime_power(49)
        assert not is_prime_power(1) and not is_prime_power(12)
        assert is_prime(2) and not is_prime(1) and is_prime(97)

    def test_matches_the_separate_trial_divisions(self):
        for n in range(-5, 20_000):
            assert is_prime(n) is ref_is_prime(n), n
            assert is_prime_power(n) is ref_is_prime_power(n), n


class TestClassMembership:
    def test_examples(self):
        # each clause fires for its own pair, which is then a member
        for k, r, case in ((4, 1, 1), (5, 2, 2), (6, 3, 3), (4, 3, 4), (9, 7, 5)):
            assert _class_a_case(k, r) == case
            assert class_A_membership(k, r) is True
        assert class_A_membership(7, 2) is False

    def test_duality_closure_fills_gaps(self):
        # the 3-graph of cyclic consecutive triples on 5 points exists, so
        # (5, 3) is a member even though no direct clause covers it: the
        # clause fires for the dual pair (5, 2)
        assert _class_a_case(5, 3) is None and _class_a_case(5, 2) == 2
        assert class_A_membership(5, 3) is True

    def test_duality_exhaustive(self):
        for k in range(2, 17):
            for r in range(1, k):
                assert class_A_membership(k, r) == class_A_membership(k, k - r)

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            class_A_membership(3, 3)
        with pytest.raises(InvalidParameter):
            class_A_membership(3, 0)


class TestKneserAdmissible:
    def test_examples(self):
        # H(n, r) reads the class-A clauses at k = n - r
        assert _class_a_case(3 - 1, 1) == 1
        assert _class_a_case(4 - 1, 1) is None
        assert _class_a_case(9 - 3, 3) == 3
        assert _class_a_case(7 - 3, 3) == 4
        assert _class_a_case(16 - 7, 7) == 5
        assert _class_a_case(8 - 3, 3) is None

    def test_clauses_at_n_minus_r_are_the_list_stated_for_h(self):
        # certificates cite _class_a_case(n - r, r) as the H(n, r) case list
        from gnorm.verification import _published_kneser_case
        for n in range(3, 120):
            for r in range(1, (n - 1) // 2 + 1):
                assert (_class_a_case(n - r, r) is not None) == _published_kneser_case(n, r), (n, r)


class TestIntegrality:
    def test_pinned_7_3(self):
        res = kneser_integrality_test(7, 3)
        assert res.d == Fraction(100, 3)
        assert not res.is_integer and res.case == "i"
        assert (res.t, res.k, res.s) == (2, 4, 1)

    def test_11_5(self):
        res = kneser_integrality_test(11, 5)
        assert not res.is_integer

    def test_case_ii(self):
        # r = 7 gives t = 4: both n = 16 and n = 17 fall under case ii
        for n in (16, 17):
            res = kneser_integrality_test(n, 7)
            assert res.case == "ii" and not res.is_integer

    def test_guards(self):
        with pytest.raises(OutOfScopeParameters):
            kneser_integrality_test(9, 3)  # n != 2r+1 and t = 2 odd-case only
        with pytest.raises(OutOfScopeParameters):
            kneser_integrality_test(7, 2)  # even r

    def test_non_integrality_grid(self):
        # every in-scope pair must come out non-integer; a transitive
        # colouring would make the count an integer, so this is the
        # obstruction doing its job across the board
        for r in range(3, 16, 2):
            res = kneser_integrality_test(2 * r + 1, r)
            assert not res.is_integer

    def test_formula_reconstruction(self):
        # recompute d from scratch for one case as an independent check
        n, r = 7, 3
        t, k = 2, 4
        s = k - r
        want = Fraction(2 * comb(n - t, t - 1) * comb(k, s - 1) * comb(3 * t - 1, t),
                        comb(2 * t - 1, t))
        assert kneser_integrality_test(n, r).d == want
