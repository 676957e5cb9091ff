"""Small integer-arithmetic helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# MR_LIMIT (Sorenson and Webster 2015); larger inputs are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981

# Largest subgroup of (Z/q)^x that unit_group_closure lists, and the largest
# phi(q) that check_unit_count allows; every catalog uses q <= 81.
MAX_UNIT_GROUP = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; DomainError for n >= MR_LIMIT without a
    small factor."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41 and below 43^2
        return True
    if n >= MR_LIMIT:
        raise DomainError(f"{n} is too large to test for primality (limit {MR_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton steps from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, k >= 1; DomainError for non prime powers."""
    if q < 2:
        raise DomainError(f"{q} is not a prime power")
    for p in _MR_BASES:
        if q % p == 0:
            k = valuation(q, p)
            if p**k == q:
                return p, k
            raise DomainError(f"{q} is not a prime power")
    # every prime factor exceeds 41 > 2^5, so q = p^k has k <= bits / 5; the
    # largest exponent first, so a huge prime power is found by its root
    for k in range(q.bit_length() // 5, 0, -1):
        p = _iroot(q, k)
        if p**k == q and is_prime(p):
            return p, k
    raise DomainError(f"{q} is not a prime power")


def valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n; 0 for n = 1."""
    if n == 0:
        raise DomainError("the valuation of 0 is infinite")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def is_power_of(q: int, p: int) -> bool:
    """True iff q = p**k for some k >= 0."""
    return q >= 1 and q == p ** valuation(q, p)


def check_prime_and_power(p: int, q: int):
    """Refuse unless p is a prime and q a power of p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not a prime")
    if not is_power_of(q, p):
        raise DomainError(f"q = {q} is not a power of p = {p}")


@lru_cache(maxsize=64)
def prime_and_phi(q: int) -> tuple[int, int]:
    """(p, phi(q)) for a prime power q = p^k; q = 1 gives (0, 1), the
    phi(1) = 1 convention.  Cached: every element of one cyclotomic
    conductor asks for the same pair."""
    if q == 1:
        return 0, 1
    p, _ = prime_power_decomposition(q)
    return p, q - q // p


def part_of(n: int, p: int) -> tuple[int, int]:
    """Split n = n_p * n_p' into its p-part and p'-part."""
    np_ = p ** valuation(n, p)
    return np_, n // np_


def units_mod(q: int) -> tuple[int, ...]:
    if q == 1:
        return (1,)
    return tuple(x for x in range(1, q) if gcd(x, q) == 1)


def closure(seed, images):
    """Yield ``seed`` and everything reachable from it, breadth first, once each.

    ``images(x)`` returns the successors of x.  Elements are yielded as they
    are found, so a caller can stop at the first one it rejects.
    """
    seen = {seed}
    yield seed
    frontier = [seed]
    while frontier:
        new = []
        for a in frontier:
            for b in images(a):
                if b not in seen:
                    seen.add(b)
                    new.append(b)
                    yield b
        frontier = new


def unit_group_closure(q: int, generators) -> tuple[int, ...]:
    """Subgroup of (Z/q)^x generated by the given units, as a sorted tuple."""
    if q == 1:
        return (1,)
    gens = []
    for g in generators:
        g %= q
        if gcd(g, q) != 1:
            raise DomainError(f"generator {g} is not a unit modulo {q}")
        gens.append(g)
    elements = []
    for x in closure(1, lambda a: [a * g % q for g in gens]):
        if len(elements) == MAX_UNIT_GROUP:
            raise DomainError(
                f"the units generate more than {MAX_UNIT_GROUP} elements modulo {q}"
            )
        elements.append(x)
    return tuple(sorted(elements))


def multiplicative_order(g: int, q: int) -> int:
    if q == 1:
        return 1
    if gcd(g, q) != 1:
        raise DomainError(f"{g} is not a unit modulo {q}")
    o, x = 1, g % q
    while x != 1:
        x = x * g % q
        o += 1
    return o


def check_unit_count(q: int, purpose: str):
    """Refuse, naming ``purpose``, a prime power q with more than
    MAX_UNIT_GROUP units, before any is listed."""
    if prime_and_phi(q)[1] > MAX_UNIT_GROUP:
        raise DomainError(f"more than {MAX_UNIT_GROUP} units modulo {q} {purpose}")


def unit_of_order(q: int, n: int) -> int:
    """Some unit of multiplicative order n modulo the prime power q (brute-force
    search), within ``check_unit_count``."""
    check_unit_count(q, "to search")
    for g in units_mod(q):
        if multiplicative_order(g, q) == n:
            return g
    raise DomainError(f"(Z/{q})^x has no element of order {n}")
