"""Exact ordinary character values of S_n.

The canonical evaluator is the Murnaghan-Nakayama border-strip recursion,
implemented on beta-numbers (first-column hook lengths).  Degrees come from
the hook-length formula, which doubles as an independent cross-check of the
recursion at the identity.  The closed-form values of the distinguished
characters on the classes ``r.j`` are oracles for the recursion, never the
other way around; they live with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

from .partitions import Partition, check_partition


@cache
def character_value(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character chi_lam at cycle type mu."""
    check_partition(lam)
    check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"{lam} and {mu} are partitions of different integers")
    return _mn(lam, mu)


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    # Beta-numbers of lam: strictly decreasing, removing a border strip of
    # length `strip` moves one bead down by `strip`; the sign is (-1)^(number
    # of beads jumped over), which equals the leg-length parity.
    m = len(lam)
    beta = [lam[i] + m - 1 - i for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        t = b - strip
        if t >= 0 and t not in bset:
            height = sum(1 for c in beta if t < c < b)
            nset = sorted(bset - {b} | {t}, reverse=True)
            nlam = tuple(v - (m - 1 - i) for i, v in enumerate(nset))
            nlam = tuple(p for p in nlam if p > 0)
            total += (-1) ** height * _mn(nlam, rest)
    return total


@cache
def degree(lam: Partition) -> int:
    """chi_lam(1) by the hook-length formula."""
    check_partition(lam)
    conj = conjugate_partition(lam)
    num = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            num //= row - j + conj[j] - i - 1
    return num


def conjugate_partition(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    check_partition(lam)
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


NAMED_CHARACTERS = ("principal", "sgn", "pi", "rho", "tau", "pi_sgn", "hook4")


@dataclass(frozen=True)
class NamedCharacter:
    """One of the distinguished characters with a fixed partition shape."""

    name: str
    n: int

    def __post_init__(self) -> None:
        if self.name not in NAMED_CHARACTERS:
            raise ValueError(f"unknown character name {self.name!r}")
        if self.name == "hook4" and self.n != 7:
            raise ValueError("hook4 is the S_7 character of partition (4,1,1,1)")
        check_partition(self.partition)

    @property
    def partition(self) -> Partition:
        n = self.n
        return {
            "principal": (n,),
            "sgn": (1,) * n,
            "pi": (n - 1, 1),
            "rho": (n - 2, 1, 1),
            "tau": (n - 3, 2, 1),
            "pi_sgn": (2,) + (1,) * (n - 2),
            "hook4": (4, 1, 1, 1),
        }[self.name]
