"""Structural filters for composite-order units."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sntorsion.characters import character_value, degree, named_partition
from conftest import UnitProfile, candidatewise_filter, mu1_pi_closed_form_pq, multiplicity

from sntorsion.lemma_filters import filter_lemma_4_3, filter_order_q_powers
from sntorsion.luthar_passi import AugVector, CharacterRow, allowed_support, forced_vector
from sntorsion.partitions import is_prime, prime_cycles


def pi_row(n, k):
    lam = named_partition("pi", n)
    return CharacterRow.make(
        "pi", degree(lam), {ct: character_value(lam, ct) for ct in allowed_support(n, k)}
    )


def random_profile(rng, n, p, q):
    """A random integer profile of a hypothetical order-pq unit with the
    forced order-p power."""
    top_classes = allowed_support(n, p * q)
    t = [rng.randint(-3, 3) for _ in top_classes[:-1]]
    top = AugVector.make(
        p * q, n, dict(zip(top_classes, t + [1 - sum(t)]))
    )
    q_classes = allowed_support(n, q)
    e = [rng.randint(-4, 4) for _ in q_classes[:-1]]
    vq = AugVector.make(q, n, dict(zip(q_classes, e + [1 - sum(e)])))
    return UnitProfile.make(p * q, n, {1: top, p: vq, q: forced_vector(n, p)})


def hypothesis_triples():
    for n in range(7, 18):
        for p in range(n // 2 + 1, n + 1):
            if not is_prime(p):
                continue
            for q in (3, 5, 7, 11, 13):
                if q == p or q > n or p + q <= n:
                    continue
                yield n, p, q


def test_closed_form_matches_the_generic_formula():
    rng = random.Random(20260823)
    for n, p, q in hypothesis_triples():
        row = pi_row(n, p * q)
        for _ in range(40):
            profile = random_profile(rng, n, p, q)
            assert mu1_pi_closed_form_pq(profile, n, p, q) == multiplicity(profile, row, 1)


def test_closed_form_rejects_groups_with_order_pq_elements():
    profile = random_profile(random.Random(1), 13, 11, 3)
    with pytest.raises(ValueError):
        mu1_pi_closed_form_pq(profile, 14, 11, 3)


def vec(n, q, entries):
    return AugVector.make(
        q, n, {prime_cycles(q, j + 1, n): e for j, e in enumerate(entries)}
    )


def test_filter_order_q_powers_keeps_the_allowed_weighted_sums():
    # S_11, p=7, q=5: p+q-1 = n, so weighted sums 0 and 1 both pass
    cands = [vec(11, 5, t) for t in [(1, 0), (2, -1), (0, 1), (-1, 2), (3, -2)]]
    kept = filter_order_q_powers(11, 7, 5, cands)
    sums = [c.value(prime_cycles(5, 1, 11)) + 2 * c.value(prime_cycles(5, 2, 11)) for c in kept]
    assert all(s in (0, 1) for s in sums)
    assert vec(11, 5, (1, 0)) in kept and vec(11, 5, (2, -1)) in kept
    assert vec(11, 5, (0, 1)) not in kept  # weighted sum 2


def test_filter_order_q_powers_is_strict_outside_p_plus_q_near_n():
    # S_13, p=11, q=7: p+q = 18, so only weighted sum 0 survives; the forced
    # candidate has weighted sum 1 and dies
    kept = filter_order_q_powers(13, 11, 7, [vec(13, 7, (1,))])
    assert kept == []


@st.composite
def order_q_candidates(draw):
    """(n, p, q, candidates): order-q vectors on the classes q.j of S_n,
    for an (n, p, q) with the hypotheses of Theorem 3.2, p + q in {n, n + 1}
    or not."""
    n, p, q = draw(st.sampled_from([(7, 5, 3), (7, 7, 3), (8, 5, 3), (11, 7, 5), (12, 11, 3),
                                    (13, 11, 3), (13, 7, 5), (14, 13, 3)]))
    classes = allowed_support(n, q)
    candidates = []
    for _ in range(draw(st.integers(0, 8))):
        size = len(classes) - 1
        eps = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        candidates.append(AugVector.make(q, n, dict(zip(classes, [1 - sum(eps), *eps]))))
    return n, p, q, candidates


def test_the_one_pass_filter_keeps_what_the_per_candidate_filter_keeps():
    seen = set()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(order_q_candidates())
    def check(drawn):
        n, p, q, candidates = drawn
        kept = filter_order_q_powers(n, p, q, candidates)
        assert kept == candidatewise_filter(n, p, q, candidates)
        seen.update((v in kept, p + q in (n, n + 1)) for v in candidates)

    check()
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


def test_filter_order_q_powers_checks_its_hypotheses():
    with pytest.raises(ValueError):
        filter_order_q_powers(13, 5, 3, [])  # p <= n/2
    with pytest.raises(ValueError):
        filter_order_q_powers(6, 5, 3, [])  # n < 7


def test_filter_lemma_4_3_examples():
    assert not filter_lemma_4_3(7, vec(7, 2, (1, 0, 0)))  # odd sum 1
    assert filter_lemma_4_3(11, vec(11, 2, (1, 2, -2, -1, 1)))
    with pytest.raises(ValueError):
        filter_lemma_4_3(7, vec(11, 2, (1, 0, 0, 0, 0)))  # wrong ambient degree
    with pytest.raises(ValueError):
        filter_lemma_4_3(4, vec(4, 2, (1, 0)))  # p not an odd prime


def brute_force_lemma_4_3(p, bound=10):
    """All normalized vectors in the box whose two weighted sums vanish.

    The odd-indexed and even-indexed equations decouple, so the box scan
    factors into two independent scans."""
    m = p // 2
    odd_js = [j for j in range(1, m + 1) if j % 2]
    even_js = [j for j in range(1, m + 1) if j % 2 == 0]

    def zero_sum(js):
        out = []
        for combo in itertools.product(range(-bound, bound + 1), repeat=len(js)):
            if sum(j * e for j, e in zip(js, combo)) == 0:
                out.append(dict(zip(js, combo)))
        return out

    for odd in zero_sum(odd_js):
        for even in zero_sum(even_js):
            entries = {**odd, **even}
            if sum(entries.values()) != 1:
                continue
            yield tuple(entries[j] for j in range(1, m + 1))


def test_filter_lemma_4_3_matches_brute_force():
    for p in (5, 7, 11):
        passing = set(brute_force_lemma_4_3(p))
        for t in passing:
            assert filter_lemma_4_3(p, vec(p, 2, t))
        if p in (5, 7):
            assert passing == set()


def test_no_normalized_vector_passes_for_p_seven():
    assert list(brute_force_lemma_4_3(7)) == []
