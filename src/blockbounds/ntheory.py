"""Small integer-arithmetic helpers shared across the package."""

from __future__ import annotations

from math import gcd


def is_prime(n: int) -> bool:
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


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, k >= 1. Raises for non prime powers."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for f in range(2, q + 1):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n; 0 for n = 1."""
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def is_power_of(q: int, p: int) -> bool:
    """True iff q = p**k for some k >= 0."""
    return q >= 1 and q == p ** valuation(q, p)


def euler_phi_prime_power(q: int) -> int:
    """phi(q) for a prime power q, with the convention phi(1) = 1."""
    if q == 1:
        return 1
    p, _ = prime_power_decomposition(q)
    return q - q // p


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
            raise ValueError(f"{g} is not a unit modulo {q}")
        gens.append(g)
    return tuple(sorted(closure(1, lambda a: [a * g % q for g in gens])))


def multiplicative_order(g: int, q: int) -> int:
    if q == 1:
        return 1
    if gcd(g, q) != 1:
        raise ValueError(f"{g} is not a unit modulo {q}")
    o, x = 1, g % q
    while x != 1:
        x = x * g % q
        o += 1
    return o


def unit_of_order(q: int, n: int) -> int:
    """Some unit of multiplicative order n modulo q (brute-force search)."""
    for g in units_mod(q):
        if multiplicative_order(g, q) == n:
            return g
    raise ValueError(f"(Z/{q})^x has no element of order {n}")
