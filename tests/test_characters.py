"""Ordinary character values: recursion, degrees, closed forms."""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import UnsupportedClosedForm, class_size, closed_form_value, identity_partition

from sntorsion.characters import character_value, conjugate_partition, degree, named_partition
from sntorsion.partitions import all_partitions, is_prime, parity, prime_cycles

pairs = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(
        st.sampled_from(all_partitions(n)), st.sampled_from(all_partitions(n))
    )
)


def test_known_s4_table():
    # classes: 1^4, 2+1^2, 2^2, 3+1, 4
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    for lam, values in table.items():
        assert [character_value(lam, mu) for mu in classes] == values


@given(pairs)
def test_mn_at_identity_matches_the_hook_length_degree(pair):
    lam, _ = pair
    n = sum(lam)
    assert character_value(lam, identity_partition(n)) == degree(lam)


@given(pairs)
def test_conjugate_twists_by_the_sign_character(pair):
    lam, mu = pair
    assert character_value(conjugate_partition(lam), mu) == parity(mu) * character_value(lam, mu)


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition((5,)) == (1, 1, 1, 1, 1)
    assert conjugate_partition(conjugate_partition((6, 3, 3, 1))) == (6, 3, 3, 1)


def test_column_orthogonality_small():
    for n in range(1, 8):
        for mu in all_partitions(n):
            for nu in all_partitions(n):
                s = sum(
                    character_value(lam, mu) * character_value(lam, nu)
                    for lam in all_partitions(n)
                )
                expected = factorial(n) // class_size(mu) if mu == nu else 0
                assert s == expected


def test_degree_examples():
    assert degree((6, 1)) == 6
    assert degree((5, 1, 1)) == 15
    assert degree((4, 2, 1)) == 35
    assert degree((4, 1, 1, 1)) == 20


def test_named_character_partitions():
    assert named_partition("pi", 13) == (12, 1)
    assert named_partition("rho", 13) == (11, 1, 1)
    assert named_partition("tau", 13) == (10, 2, 1)
    assert named_partition("pi_sgn", 13) == (2,) + (1,) * 11
    assert named_partition("hook4", 7) == (4, 1, 1, 1)
    with pytest.raises(ValueError):
        named_partition("hook4", 8)
    with pytest.raises(ValueError):
        named_partition("nonesuch", 7)


def test_named_partitions_are_partitions_of_n():
    # (2,) + (1,) * (n - 2) is (2,) at n = 1, a partition of 2
    with pytest.raises(ValueError, match=r"^pi_sgn is not a character of S_1$"):
        named_partition("pi_sgn", 1)
    with pytest.raises(ValueError, match=r"^hook4 is not a character of S_8$"):
        named_partition("hook4", 8)
    with pytest.raises(ValueError, match=r"^rho is not a character of S_2$"):
        named_partition("rho", 2)
    assert named_partition("pi_sgn", 2) == (2,)


def _all_rj(n):
    for r in range(2, n + 1):
        if not is_prime(r):
            continue
        for j in range(1, n // r + 1):
            yield r, j


@settings(deadline=None)
@given(st.integers(min_value=7, max_value=16))
def test_closed_forms_agree_with_the_recursion(n):
    for char_name in ("pi", "pi_sgn", "rho", "tau"):
        lam = named_partition(char_name, n)
        assert closed_form_value(char_name, n) == degree(lam)
        for r, j in _all_rj(n):
            try:
                expected = closed_form_value(char_name, n, r, j)
            except UnsupportedClosedForm:
                continue
            assert expected == character_value(lam, prime_cycles(r, j, n)), (char_name, n, r, j)


def test_rho_closed_form_is_only_stated_for_one_or_two_cycles():
    with pytest.raises(UnsupportedClosedForm):
        closed_form_value("rho", 13, 3, 3)


def test_hook4_values_for_degree_seven():
    lam = named_partition("hook4", 7)
    assert degree(lam) == 20
    assert character_value(lam, prime_cycles(3, 1, 7)) == 2
    assert character_value(lam, prime_cycles(3, 2, 7)) == 2
    assert character_value(lam, prime_cycles(5, 1, 7)) == 0
