"""Cycle-type combinatorics of the symmetric group S_n.

Partitions are plain tuples of weakly decreasing positive integers; the
degree n is their sum.  Conjugacy classes of S_n are identified with cycle
types, and the classes of j disjoint r-cycles (r prime) get the short label
``r.j``.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import isqrt, lcm

Partition = tuple[int, ...]


class IntegerTooLong(ValueError):
    """Decimal text with more digits than int() converts."""


def read_int(text: str, negative: bool = False) -> int:
    """The integer that text writes in ASCII decimal digits, after a
    leading '-' only when `negative` allows one: a ValueError for any other
    text, such as a '+', a '_', white space or a non-ASCII digit, all of
    which int() reads.  More digits after the leading zeros than int()
    converts is an IntegerTooLong, also a ValueError, so a caller that
    bounds the number can tell it apart."""
    digits = text[1:] if negative and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    try:
        value = int(digits.lstrip("0") or "0")
    except ValueError:  # the digits are fine: there are too many of them
        raise IntegerTooLong(f"{text!r} has more digits than int() converts") from None
    return -value if len(digits) < len(text) else value


def check_partition(mu: Partition) -> Partition:
    """Validate that mu is a weakly decreasing tuple of positive parts."""
    if not mu:
        raise ValueError("empty partition (n = 0 is not supported)")
    if any(p < 1 for p in mu):
        raise ValueError(f"partition {mu} has a part < 1")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition {mu} is not weakly decreasing")
    return mu


def smallest_factor(k: int) -> int:
    """The smallest divisor d > 1 of k >= 2, k itself when k is prime: trial
    division by 2 and the odd d <= sqrt(k), stopping at the first divisor."""
    return next((d for d in chain([2], range(3, isqrt(k) + 1, 2)) if k % d == 0), k)


# the first 13 primes: a strong probable prime to every one of them is prime
# below PRIME_TEST_BOUND (Sorenson and Webster, 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(k: int) -> bool:
    """Whether k is prime, by deterministic Miller-Rabin; a ValueError for
    k >= PRIME_TEST_BOUND, where the bases decide nothing.  Divisibility by
    the bases alone decides every k with a base as a factor and every
    k < 41^2; any other k is prime exactly when it is a strong probable
    prime to each base."""
    if k >= PRIME_TEST_BOUND:
        raise ValueError(f"{k} is past the bound of the primality test")
    for b in _BASES:
        if k % b == 0:
            return k == b
    if k < 41 * 41:
        return k > 1
    # k - 1 = d * 2^s with d odd
    s = ((k - 1) & (1 - k)).bit_length() - 1
    d = (k - 1) >> s
    for b in _BASES:
        x = pow(b, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def factorize(k: int) -> dict[int, int]:
    """The prime factorization {prime: exponent} of k >= 1, primes increasing."""
    factors: dict[int, int] = {}
    while k > 1:
        d = smallest_factor(k)
        factors[d] = factors.get(d, 0) + 1
        k //= d
    return factors


def prime_cycles(r: int, j: int, n: int) -> Partition:
    """The cycle type of the class r.j of S_n: j disjoint r-cycles, r prime."""
    if not is_prime(r):
        raise ValueError(f"class label {r}.{j}: {r} is not prime")
    if j < 1 or r * j > n:
        raise ValueError(f"class label {r}.{j} does not fit in S_{n}")
    return (r,) * j + (1,) * (n - r * j)


@cache
def all_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in lexicographically decreasing order."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def gen(total: int, largest: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@cache
def element_order(mu: Partition) -> int:
    """Order of a permutation of cycle type mu: the lcm of the parts."""
    check_partition(mu)
    return lcm(*mu)


@cache
def parity(mu: Partition) -> int:
    """Sign of a permutation of cycle type mu, +1 or -1."""
    check_partition(mu)
    return -1 if (sum(mu) - len(mu)) % 2 else 1
