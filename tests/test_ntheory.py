from math import isqrt

import pytest

from blockbounds import DomainError
from blockbounds.ntheory import (
    MAX_UNIT_GROUP,
    MR_LIMIT,
    _iroot,
    is_prime,
    multiplicative_order,
    prime_and_phi,
    prime_power_decomposition,
    unit_group_closure,
)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)
    ]


def test_is_prime_on_pseudoprimes_and_large_inputs():
    # strong pseudoprimes to ever more prime bases, Carmichael numbers and
    # the composite Mersenne number 2^59 - 1 are all composite
    for n in (2047, 1373653, 3215031751, 3825123056546413051,
              318665857834031151167461, 561, 41041, 2**59 - 1):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 1000000007):
        assert is_prime(n)
    # MR_LIMIT is the least strong pseudoprime to every base up to 41: it and
    # everything above it is refused unless a small factor decides it
    with pytest.raises(DomainError):
        is_prime(MR_LIMIT)
    with pytest.raises(DomainError):
        is_prime(2**89 - 1)
    assert not is_prime(2**89)
    assert not is_prime(41 * MR_LIMIT)


def test_integer_root_is_the_floor():
    for k in range(1, 7):
        for n in range(3000):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    assert _iroot(3**30, 30) == 3
    assert _iroot(3**30 - 1, 30) == 2
    assert _iroot((2**61 - 1) ** 3 + 5, 3) == 2**61 - 1


def test_prime_power_decomposition_finds_huge_prime_powers():
    for q in range(2, 5000):  # against the smallest factor by trial division
        p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
        k = next(k for k in range(q.bit_length() + 1) if q % p ** (k + 1))
        if p**k == q:
            assert prime_power_decomposition(q) == (p, k)
        else:
            with pytest.raises(ValueError):
                prime_power_decomposition(q)
    for p in (2, 3, 5, 7, 31):
        for k in range(1, 9):
            assert prime_power_decomposition(p**k) == (p, k)
    assert prime_power_decomposition(3**30) == (3, 30)
    assert prime_power_decomposition(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power_decomposition((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert prime_and_phi(2**61 - 1) == (2**61 - 1, 2**61 - 2)
    assert prime_and_phi(3**30) == (3, 2 * 3**29) and prime_and_phi(1) == (0, 1)
    for q in (1, 6, 12, 36, 100, 3**30 * 2, 2**59 - 1):
        with pytest.raises(ValueError):
            prime_power_decomposition(q)
        if q > 1:
            with pytest.raises(ValueError):
                prime_and_phi(q)
    with pytest.raises(DomainError, match="too large to test"):
        prime_and_phi(2**89 - 1)


def test_unit_group_closure_is_bounded():
    # 3 has order 2^16 modulo 2^18; adding -1 doubles the group
    assert len(unit_group_closure(2**18, [3])) == MAX_UNIT_GROUP
    with pytest.raises(DomainError):
        unit_group_closure(2**18, [3, -1])
    with pytest.raises(DomainError):
        unit_group_closure(3**30, [2])
    assert unit_group_closure(9, [2]) == (1, 2, 4, 5, 7, 8)
    assert multiplicative_order(2, 9) == 6 and multiplicative_order(5, 1) == 1
