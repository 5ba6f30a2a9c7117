"""Structural constraints on torsion units, as standalone predicates.

Each filter encodes one proved statement about units of composite order:
the hypotheses of Theorem 3.2, the primitive-root multiplicity of the
natural (deleted permutation) character, the weighted-sum condition on the
order-q part of an order-pq unit, and the even/odd augmentation
constraints for units of order 2p.
Keeping them as named predicates lets reports attribute every elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import ClassLabel, is_prime, parity
from .luthar_passi import AugVector, UnitProfile


def spectral_hypotheses(n: int, p: int, q: int) -> bool:
    """The hypotheses n >= 7, p > n/2, q >= 3 of Theorem 3.2, under which the
    q-power weighted sum and the natural character's spectral equalities
    mu_1(u, pi) = 0, mu_q(u, pi) = 1 hold for an order-pq unit."""
    return n >= 7 and 2 * p > n and q >= 3


def mu1_pi_closed_form_pq(profile: UnitProfile, n: int, p: int, q: int) -> Fraction:
    """Multiplicity of a primitive pq-th root of unity under the natural
    character, for an order-pq unit when S_n has no element of order pq:

        (1/pq) [ q sum_j j (eps_{q.j}(u^p) - eps_{q.j}(u))
               + p sum_k k (eps_{p.k}(u^q) - eps_{p.k}(u)) ]
    """
    if p + q <= n:
        raise ValueError(f"S_{n} has elements of order {p * q}; formula does not apply")
    if profile.k != p * q or profile.n != n:
        raise ValueError("profile does not describe an order-pq unit in S_n")
    top = profile.level(1)
    total = Fraction(0)
    for r, power in ((q, p), (p, q)):
        lower = profile.level(power)
        for j in range(1, n // r + 1):
            cls = ClassLabel(r, j, n)
            total += Fraction(r * j) * (lower.value(cls) - top.value(cls))
    return total / (p * q)


def filter_order_q_powers(
    n: int, p: int, q: int, candidates: list[AugVector]
) -> list[AugVector]:
    """Keep the order-q vectors that can be the p-th power of an order-pq
    unit: the weighted sum sum_j j*eps_{q.j} must be 0, or 1 when
    p + q is n or n + 1."""
    if not spectral_hypotheses(n, p, q):
        raise ValueError(f"hypotheses n >= 7, p > n/2, q >= 3 fail for ({n}, {p}, {q})")
    if not (is_prime(p) and is_prime(q)):
        raise ValueError("p and q must be prime")
    kept = []
    for v in candidates:
        s = sum(j * v.value(ClassLabel(q, j, n)) for j in range(1, n // q + 1))
        if s == 0 or (s == 1 and p + q in (n, n + 1)):
            kept.append(v)
    return kept


def epsilon_subset(aug: AugVector, subset: str) -> int:
    """Generalized partial augmentation over the even or odd classes."""
    want = 1 if subset == "even" else -1 if subset == "odd" else None
    if want is None:
        raise ValueError("subset must be 'even' or 'odd'")
    return sum(eps for ct, eps in aug.entries if parity(ct) == want)


def filter_lemma_4_2(profile: UnitProfile) -> bool:
    """For a unit of order 2p: the A_n-augmentations of u and u^p agree and
    lie in {0, 1}."""
    k = profile.k
    p = k // 2
    if k % 2 or not is_prime(p) or p == 2:
        raise ValueError(f"order {k} is not 2p for an odd prime p")
    top = epsilon_subset(profile.level(1), "even")
    power = epsilon_subset(profile.level(p), "even")
    return top == power and top in (0, 1)


def filter_lemma_4_3(p: int, aug: AugVector) -> bool:
    """For the involution part u^p of an order-2p unit in Z S_p: the
    j-weighted sums of eps_{2.j} over odd j and over even j both vanish."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if aug.n != p:
        raise ValueError(f"augmentation vector lives in S_{aug.n}, not S_{p}")
    if aug.k != 2:
        raise ValueError("expected an order-2 augmentation vector")
    odd_sum = sum(
        j * aug.value(ClassLabel(2, j, p)) for j in range(1, p // 2 + 1, 2)
    )
    even_sum = sum(
        j * aug.value(ClassLabel(2, j, p)) for j in range(2, p // 2 + 1, 2)
    )
    return odd_sum == 0 and even_sum == 0
