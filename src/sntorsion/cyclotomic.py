"""The Moebius and totient functions and Galois traces of roots of unity.

The only trace ever needed is the trace of a root of unity from a
cyclotomic field down to Q, which is a Ramanujan sum with a Moebius/totient
closed form: an integer, so k times a multiplicity is an integer form.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .partitions import factorize


def mobius(k: int) -> int:
    """Moebius function."""
    if k < 1:
        raise ValueError("k must be >= 1")
    factors = factorize(k)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(k: int) -> int:
    """Euler totient."""
    if k < 1:
        raise ValueError("k must be >= 1")
    result = k
    for p in factorize(k):
        result = result // p * (p - 1)
    return result


@cache
def ramanujan_sum(k: int, m: int) -> int:
    """Trace from Q(zeta_k) to Q of zeta_k^m: mu(k/g) phi(k)/phi(k/g),
    g = gcd(k, m)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = gcd(k, m % k)
    return mobius(k // g) * euler_phi(k) // euler_phi(k // g)
