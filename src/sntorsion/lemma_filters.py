"""Structural constraints on torsion units, as standalone predicates.

Each filter encodes one proved statement about units of composite order:
the hypotheses of Theorem 3.2, the weighted-sum condition on the order-q
part of an order-pq unit, and the weighted involution sums of Lemma 4.3
for units of order 2p.
Keeping them as named predicates lets reports attribute every elimination.
The closed form of the natural character's primitive-root multiplicity,
an oracle for the affine forms, lives with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

from .partitions import is_prime, prime_cycles
from .luthar_passi import AugVector


def spectral_hypotheses(n: int, p: int, q: int) -> bool:
    """The hypotheses n >= 7, p > n/2, q >= 3 of Theorem 3.2, under which the
    q-power weighted sum and the natural character's spectral equalities
    mu_1(u, pi) = 0, mu_q(u, pi) = 1 hold for an order-pq unit."""
    return n >= 7 and 2 * p > n and q >= 3


def filter_order_q_powers(n: int, p: int, q: int, candidates: list) -> list:
    """Keep the order-q vectors that can be the p-th power of an order-pq
    unit: the weighted sum sum_j j*eps_{q.j} must be 0, or 1 when
    p + q is n or n + 1.  A candidate is an AugVector, or anything else
    with its entries (a solver.RawVector), and the kept ones are returned
    as given.  Each vector's sum is one pass over its entries, each class
    weighted by a dict that maps q.j to j and any other class to 0."""
    if not spectral_hypotheses(n, p, q):
        raise ValueError(f"hypotheses n >= 7, p > n/2, q >= 3 fail for ({n}, {p}, {q})")
    if not (is_prime(p) and is_prime(q)):
        raise ValueError("p and q must be prime")
    weight = {prime_cycles(q, j, n): j for j in range(1, n // q + 1)}.get
    allowed = (0, 1) if p + q in (n, n + 1) else (0,)
    kept = []
    for v in candidates:
        s = 0
        for ct, eps in v.entries:
            s += weight(ct, 0) * eps
        if s in allowed:
            kept.append(v)
    return kept


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
        j * aug.value(prime_cycles(2, j, p)) for j in range(1, p // 2 + 1, 2)
    )
    even_sum = sum(
        j * aug.value(prime_cycles(2, j, p)) for j in range(2, p // 2 + 1, 2)
    )
    return odd_sum == 0 and even_sum == 0
