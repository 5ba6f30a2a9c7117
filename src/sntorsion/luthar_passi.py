"""Partial-augmentation bookkeeping and eigenvalue-multiplicity formulas.

A hypothetical normalized torsion unit u of order k is described by one
integer vector of partial augmentations per power u^d (d a proper divisor
of k).  For a rational-valued character the multiplicity of a fixed
k-th-root-of-unity eigenvalue is an integer affine expression in the partial
augmentations over k; with the top level left symbolic it becomes an
AffineForm over k whose required non-negative-integrality drives all
exclusions.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .cyclotomic import ramanujan_sum
from .partitions import (
    Partition,
    check_partition,
    element_order,
    is_prime,
    parity,
    prime_cycles,
    read_int,
)


def format_cycle_type(ct: Partition) -> str:
    """The cycle type as text: each distinct cycle length c, repeated m
    times, as 'c^m' ('c' when m = 1), longest first, joined by '+'."""
    pieces = []
    for c in sorted(set(ct), reverse=True):
        m = ct.count(c)
        pieces.append(f"{c}^{m}" if m > 1 else f"{c}")
    return "+".join(pieces)


# the most parts a class read from text may have: its repeats are summed
# and compared with this cap before any part is repeated
MAX_CLASS_PARTS = 100_000


def parse_cycle_type(token: str, n: int) -> Partition:
    """Inverse of format_cycle_type for degree n; ValueError on unreadable
    text, a cycle length or repeat below 1, parts that do not sum to n, or
    more than MAX_CLASS_PARTS parts.  Each piece is read as a pair (c, m)
    of ASCII integers (read_int; a '-' is read, so that the range check
    names it) and checked before any part is repeated, so a huge repeat is
    rejected without building it."""
    pieces: list[tuple[int, int]] = []
    try:
        for piece in token.split("+"):
            c_s, hat, m_s = piece.partition("^")
            m = read_int(m_s, negative=True) if hat else 1
            pieces.append((read_int(c_s, negative=True), m))
    except ValueError:
        raise ValueError(f"unreadable cycle type {token!r}") from None
    if any(c < 1 or m < 1 for c, m in pieces):
        raise ValueError(f"cycle type {token!r} has a cycle length or repeat below 1")
    if sum(c * m for c, m in pieces) != n:
        raise ValueError(f"cycle type {token} is not a partition of {n}")
    if sum(m for _, m in pieces) > MAX_CLASS_PARTS:
        raise ValueError(f"cycle type {token} has more than {MAX_CLASS_PARTS} parts")
    parts = [c for c, m in pieces for _ in range(m)]
    return check_partition(tuple(sorted(parts, reverse=True)))


@cache
def _class_rj(ct: Partition) -> tuple[int, int] | None:
    """(r, j) when ct is j disjoint r-cycles with r prime, else None."""
    r = max(ct)
    if is_prime(r) and set(ct) <= {r, 1}:
        return r, ct.count(r)
    return None


def format_class(ct: Partition) -> str:
    """Short name of a class: 'r.j' when it is j disjoint r-cycles, '1' for
    the identity, otherwise the cycle type with '+' and '^'."""
    rj = _class_rj(ct)
    if rj is not None:
        return f"{rj[0]}.{rj[1]}"
    return "1" if max(ct) == 1 else format_cycle_type(ct)


def class_sort_key(ct: Partition):
    """Canonical variable order: classes r.j by (r descending, j ascending),
    composite cycle types afterwards."""
    rj = _class_rj(ct)
    if rj is not None:
        return (0, -rj[0], rj[1])
    return (1, tuple(-p for p in ct))


def _in_class_order(items) -> tuple:
    """The (class, value) pairs of items, sorted by class_sort_key."""
    return tuple(sorted(items, key=lambda kv: class_sort_key(kv[0])))


def _check_kind(kind: str) -> None:
    if kind not in ("S", "A"):
        raise ValueError(f"unknown group kind {kind!r}; expected 'S' or 'A'")


def in_group(ct: Partition, kind: str) -> bool:
    """Whether the elements of S_n cycle type ct lie in S_n (kind "S") or
    in A_n (kind "A"): every cycle type for S_n, the even ones for A_n.
    Any other kind is a ValueError."""
    _check_kind(kind)
    return kind == "S" or parity(ct) == 1


@cache
def _allowed_support(n: int, k: int, kind: str) -> tuple[Partition, ...]:
    _check_kind(kind)
    # the order divides k exactly when every cycle length does, so only the
    # partitions of n into such lengths are built (not all p(n) of them):
    # each is a non-increasing choice of cycles longer than 1, padded with
    # fixed points; the empty choice is the identity
    cycles = [c for c in reversed(_divisors(k)) if 1 < c <= n]
    support = []
    stack = [((), n, 0)]
    while stack:
        longer, rest, i = stack.pop()
        mu = longer + (1,) * rest
        if longer and in_group(mu, kind):
            support.append(mu)
        stack.extend(
            (longer + (c,), rest - c, j) for j, c in enumerate(cycles[i:], i) if c <= rest
        )
    return tuple(sorted(support, key=class_sort_key))


def allowed_support(n: int, k: int, kind: str = "S") -> list[Partition]:
    """Classes on which a normalized unit of order k in Z S_n (kind "S") or
    Z A_n (kind "A") can have a non-zero partial augmentation: element order
    divides k, identity excluded, and only even classes for A_n (in_group).
    Any other kind is a ValueError; in_group is the one place that reads
    the kind.

    Each class is one S_n cycle type, which is sound for A_n too: a cycle
    type with distinct odd parts (the 11-cycles in A_12, say) splits into
    two A_n classes, but a row restricted from S_n (ordinary_row) takes the
    same value on both halves, so every form depends only on the sum of the
    two partial augmentations, which the one variable stands for.
    """
    if k < 2:
        raise ValueError("unit order must be >= 2")
    return list(_allowed_support(n, k, kind))


_class, _value = itemgetter(0), itemgetter(1)  # the class and value of a (class, value) pair


@cache
def _support_problem(ct: Partition, n: int, k: int) -> str | None:
    """Why a unit of order k in Z S_n can have no partial augmentation on
    the class ct, or None when it can: ct must be a class of S_n, of an
    order that divides k and is 1 exactly when k is.  A malformed cycle
    type is a ValueError, which is not cached."""
    if sum(ct) != n:
        return f"class {ct} does not live in S_{n}"
    order = element_order(ct)
    if k == 1:
        if order != 1:
            return "order-1 unit is supported on the identity only"
    elif order == 1 or k % order != 0:
        return f"class {format_class(ct)} (order {order}) cannot support a unit of order {k}"
    return None


def check_support(classes, n: int, k: int) -> None:
    """Raise the ValueError of _support_problem for the first of `classes`
    that cannot support a unit of order k in Z S_n."""
    for ct in classes:
        if (problem := _support_problem(ct, n, k)) is not None:
            raise ValueError(problem)


class _AugFields(NamedTuple):
    """The fields of an AugVector, which checks them before it is built."""

    k: int
    n: int
    entries: tuple[tuple[Partition, int], ...]


class AugVector(_AugFields):
    """Partial augmentations of a normalized unit of order k in Z S_n: the
    tuple (k, n, entries).

    Every vector is validated when it is built: its values sum to 1, each
    class passes check_support, whose verdict is computed once per
    (class, n, k), and no class is listed twice."""

    __slots__ = ()

    def __new__(cls, k: int, n: int, entries: tuple[tuple[Partition, int], ...]) -> "AugVector":
        total = sum(map(_value, entries))
        if total != 1:
            raise ValueError(f"partial augmentations sum to {total}, not 1")
        check_support(map(_class, entries), n, k)
        if len(dict(entries)) < len(entries):
            raise ValueError("a class is listed twice")
        return _AugFields.__new__(cls, k, n, entries)

    @staticmethod
    def make(k: int, n: int, entries: dict[Partition, int]) -> "AugVector":
        items = {ct: eps for ct, eps in entries.items() if eps}
        for ct in items:
            element_order(ct)  # validates each class once (cached), before the sort
        return AugVector(k, n, _in_class_order(items.items()))

    def value(self, ct: Partition) -> int:
        element_order(ct)  # ValueError on a malformed cycle type
        return next((eps for c, eps in self.entries if c == ct), 0)


def forced_vector(n: int, s: int) -> AugVector:
    """The unique possible augmentation vector when S_n has a single class
    of order s (s prime with floor(n/s) = 1): eps = 1 there."""
    if not is_prime(s) or n // s != 1:
        raise ValueError(f"no unique class of order {s} in degree {n}")
    return AugVector.make(s, n, {prime_cycles(s, 1, n): 1})


class CharacterRow:
    """Exact integer values of a rational-valued character on a list of
    classes: an ordinary character when modulus is None, a Brauer character
    modulo the prime modulus otherwise, which has no value on the classes
    of order divisible by it.  A row reaches a unit of order k when it has
    a value on every class that can support such a unit.

    A row is immutable.  It compares and hashes as the tuple
    (name, degree, modulus, values), and that hash is taken once, when the
    row is built."""

    __slots__ = ("name", "degree", "modulus", "values", "_by_class", "_hash")

    def __init__(
        self,
        name: str,
        degree: int,
        modulus: int | None = None,
        values: tuple[tuple[Partition, int], ...] = (),
    ):
        if modulus is not None and not is_prime(modulus):
            raise ValueError(f"brauer modulus {modulus} is not prime")
        for ct, v in values:
            order = element_order(ct)
            if order == 1 and v != degree:
                raise ValueError(f"identity value {v} differs from degree {degree}")
            if modulus is not None and order % modulus == 0:
                raise ValueError(
                    f"class {format_class(ct)} is {modulus}-singular in a brauer({modulus}) row"
                )
        by_class = dict(values)
        if len(by_class) < len(values):
            raise ValueError(f"row {name} lists a class twice")
        fields = (name, degree, modulus, values)
        # object.__setattr__ passes the row's own __setattr__, which refuses
        for slot, value in zip(self.__slots__, (*fields, by_class, hash(fields))):
            object.__setattr__(self, slot, value)

    @staticmethod
    def make(
        name: str, degree: int, values: dict[Partition, int], modulus: int | None = None
    ) -> "CharacterRow":
        for ct in values:
            element_order(ct)  # validates each class once (cached), before the sort
        return CharacterRow(name, degree, modulus, _in_class_order(values.items()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.degree, self.modulus, self.values) == (
            other.name, other.degree, other.modulus, other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"CharacterRow(name={self.name!r}, degree={self.degree!r}, "
            f"modulus={self.modulus!r}, values={self.values!r})"
        )

    def value(self, ct: Partition) -> int:
        # the keys of values are validated cycle types, so a hit needs no
        # check; element_order validates a miss (ValueError on a bad key)
        v = self._by_class.get(ct)
        if v is not None:
            return v
        if element_order(ct) == 1:
            return self.degree
        raise KeyError(f"row {self.name} has no value at class {format_class(ct)}")


def char_value_on_unit(row: CharacterRow, aug: AugVector) -> int:
    """Linear extension of the character to the group ring: sum of
    eps_C * row(C) over the support."""
    return sum(eps * row.value(ct) for ct, eps in aug.entries)


class AffineForm(NamedTuple):
    """(sum of c * eps_C + constant) / den over the augmentation variables,
    one per class (cycle type), with integers c, constant and den > 0."""

    coeffs: tuple[tuple[Partition, int], ...]
    constant: int
    den: int

    @staticmethod
    def make(coeffs: dict[Partition, int], constant: int) -> "AffineForm":
        items = {v: c for v, c in coeffs.items() if c}
        return AffineForm(_in_class_order(items.items()), constant, 1)


def top_coeffs(
    row: CharacterRow, k: int, ell: int, variables: list[Partition]
) -> tuple[tuple[Partition, int], ...]:
    """The linear part of k times the multiplicity of zeta^ell for a unit of
    order k in the top-level augmentation variables: the integer coefficient
    ramanujan_sum(k, ell) * row(C) of each variable C, zeros dropped, in
    class order.  It does not read the lower levels.

    A brauer row with modulus coprime to k works verbatim: the multiplicity
    formula has the same shape, and every class of order dividing k is
    modulus-regular.  A brauer row whose modulus divides k is a ValueError:
    it cannot constrain units of order k.
    """
    if row.modulus is not None and k % row.modulus == 0:
        raise ValueError(
            f"row {row.name} is a brauer({row.modulus}) row; it cannot constrain "
            f"units of order {k}"
        )
    top_trace = ramanujan_sum(k, ell)
    coeffs = {ct: top_trace * row.value(ct) for ct in variables}
    return _in_class_order((ct, c) for ct, c in coeffs.items() if c)


def _divisors(k: int) -> list[int]:
    """The divisors of k in increasing order, read off those up to sqrt(k)."""
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return small + [k // d for d in reversed(small) if d * d != k]


def level_traces(k: int, ell: int) -> dict[int, int]:
    """The trace ramanujan_sum(k // d, ell) of zeta^ell's share on each
    proper power level d > 1 of a unit of order k, in increasing d."""
    return {d: ramanujan_sum(k // d, ell) for d in _divisors(k)[1:-1]}


def orbit_residues(k: int) -> list[int]:
    """One residue per Galois orbit: the divisors of k (mod k, so k maps
    to 0).  For rational-valued rows mu_ell depends only on gcd(ell, k)."""
    return sorted(d % k for d in _divisors(k))
