"""Exact ordinary character values of S_n.

The canonical evaluator is the Murnaghan-Nakayama border-strip recursion,
implemented on beta-numbers (first-column hook lengths).  Degrees come from
the hook-length formula, which doubles as an independent cross-check of the
recursion at the identity.  The closed-form values of the distinguished
characters on the classes ``r.j`` are oracles for the recursion, never the
other way around; they live with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

from contextlib import suppress
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


def _mn(lam: Partition, mu: Partition) -> int:
    # one border strip per cycle part longer than 1, longest first, kept as
    # signed counts of the shapes reached so that the depth does not grow
    # with the number of parts; the fixed points that remain at a shape add
    # its value at the identity, its degree
    shapes = {lam: 1}
    for strip in mu:
        if strip == 1:
            break
        reached: dict[Partition, int] = {}
        for shape, count in shapes.items():
            for sign, rest in _border_strips(shape, strip):
                reached[rest] = reached.get(rest, 0) + sign * count
        shapes = {shape: count for shape, count in reached.items() if count}
    return sum(count * (degree(shape) if shape else 1) for shape, count in shapes.items())


def _border_strips(lam: Partition, strip: int):
    """(sign, lam minus the strip) for each border strip of length `strip`.

    On beta-numbers of lam (strictly decreasing), removing a border strip
    of length `strip` moves one bead down by `strip`; the sign is (-1)^(number
    of beads jumped over), which equals the leg-length parity.
    """
    m = len(lam)
    beta = [lam[i] + m - 1 - i for i in range(m)]
    bset = set(beta)
    for b in beta:
        t = b - strip
        if t >= 0 and t not in bset:
            height = sum(1 for c in beta if t < c < b)
            nset = sorted(bset - {b} | {t}, reverse=True)
            nlam = tuple(v - (m - 1 - i) for i, v in enumerate(nset))
            yield (-1) ** height, tuple(p for p in nlam if p > 0)


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


def named_partition(name: str, n: int) -> Partition:
    """The partition of the distinguished character `name` of S_n; a
    ValueError when its formula gives no partition of n."""
    if name not in NAMED_CHARACTERS:
        raise ValueError(f"unknown character {name!r}; known: {', '.join(NAMED_CHARACTERS)}")
    lam = {
        "principal": (n,),
        "sgn": (1,) * n,
        "pi": (n - 1, 1),
        "rho": (n - 2, 1, 1),
        "tau": (n - 3, 2, 1),
        "pi_sgn": (2,) + (1,) * (n - 2),
        "hook4": (4, 1, 1, 1),
    }[name]
    with suppress(ValueError):
        if sum(check_partition(lam)) == n:
            return lam
    raise ValueError(f"{name} is not a character of S_{n}")
