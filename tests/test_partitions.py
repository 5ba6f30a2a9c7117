"""Partition and conjugacy-class bookkeeping."""

from math import factorial, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import class_size, identity_partition, power_cycle_type

from sntorsion.luthar_passi import format_class
from sntorsion.partitions import (
    PRIME_TEST_BOUND,
    IntegerTooLong,
    all_partitions,
    check_partition,
    element_order,
    factorize,
    is_prime,
    parity,
    prime_cycles,
    read_int,
)

# number of partitions of n, for 1 <= n <= 20
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                    231, 297, 385, 490, 627]


partitions_of = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.sampled_from(all_partitions(n))
)


def test_counts_match_the_partition_numbers():
    for n, expected in enumerate(PARTITION_COUNTS, start=1):
        assert len(all_partitions(n)) == expected


def test_partitions_are_lex_decreasing_and_unique():
    for n in range(1, 13):
        parts = all_partitions(n)
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))
        assert all(sum(mu) == n for mu in parts)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((3, 0))
    with pytest.raises(ValueError):
        check_partition(())


def test_cached_order_and_parity_reject_bad_partitions_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            element_order((1, 2))
        with pytest.raises(ValueError):
            parity((3, 0))


def test_identity_partition():
    assert identity_partition(5) == (1, 1, 1, 1, 1)
    assert element_order(identity_partition(5)) == 1


@given(partitions_of, st.integers(min_value=1, max_value=40))
def test_power_cycle_type_reduces_the_order(mu, d):
    nu = power_cycle_type(mu, d)
    assert sum(nu) == sum(mu)
    k = element_order(mu)
    assert element_order(nu) == k // _gcd(k, d)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_power_cycle_type_examples():
    # a 6-cycle squared is two 3-cycles; cubed is three 2-cycles
    assert power_cycle_type((6,), 2) == (3, 3)
    assert power_cycle_type((6,), 3) == (2, 2, 2)
    assert power_cycle_type((6, 4), 2) == (3, 3, 2, 2)


@given(partitions_of)
def test_element_order_is_the_lcm(mu):
    assert element_order(mu) == lcm(*mu)


@given(partitions_of, st.integers(min_value=1, max_value=12))
def test_parity_is_a_homomorphism_under_powers(mu, d):
    # sign(g^d) = sign(g)^d
    assert parity(power_cycle_type(mu, d)) == parity(mu) ** d


def test_class_sizes_sum_to_the_group_order():
    for n in range(1, 11):
        assert sum(class_size(mu) for mu in all_partitions(n)) == factorial(n)


def test_class_size_examples():
    assert class_size((2, 1, 1)) == 6  # transpositions in S_4
    assert class_size((3, 1)) == 8  # 3-cycles in S_4
    assert class_size((13,)) == factorial(12)


def test_class_label_round_trip():
    ct = prime_cycles(3, 2, 13)
    assert ct == (3, 3) + (1,) * 7
    assert format_class(ct) == "3.2"
    assert element_order(ct) == 3


def test_prime_cycles_rejects_classes_outside_s_n():
    with pytest.raises(ValueError, match=r"^class label 4\.1: 4 is not prime$"):
        prime_cycles(4, 1, 13)
    with pytest.raises(ValueError, match=r"^class label 3\.0 does not fit in S_13$"):
        prime_cycles(3, 0, 13)
    with pytest.raises(ValueError, match=r"^class label 3\.5 does not fit in S_13$"):
        prime_cycles(3, 5, 13)


def test_is_prime_small_values():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_brute_force():
    for k in range(-2, 2000):
        assert is_prime(k) == (k >= 2 and all(k % d for d in range(2, k))), k


def test_is_prime_agrees_with_trial_division_below_10_to_the_5():
    # a sieve of Eratosthenes is the trial division of every k at once
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for d in range(2, isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    assert [k for k in range(limit) if is_prime(k)] == [k for k in range(limit) if sieve[k]]


@pytest.mark.parametrize("k, prime", [
    (2**61 - 1, True),  # a Mersenne prime
    (1000000007, True),
    (1000000016000000063, False),  # (10^9 + 7)(10^9 + 9)
    (3215031751, False),  # 151 * 751 * 28351, a strong pseudoprime to 2, 3, 5 and 7
    (41 * 43, False),  # the least composite that no base divides
    ((2**61 - 1) * 1000003, False),  # two primes, close to the bound
])
def test_is_prime_decides_large_numbers_at_once(k, prime):
    assert is_prime(k) is prime


def test_is_prime_rejects_numbers_past_its_bound():
    with pytest.raises(ValueError, match="past the bound of the primality test"):
        is_prime(PRIME_TEST_BOUND)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=-(10**30), max_value=10**30))
def test_read_int_reads_what_str_writes(k):
    assert read_int(str(k), negative=True) == k
    if k >= 0:
        assert read_int(str(k)) == k == read_int("000" + str(k))


@pytest.mark.parametrize("text, negative", [
    ("", False), ("-", True), ("-7", False), ("--7", True), ("+7", False), ("+7", True),
    ("7_000", False), (" 7", False), ("7\n", False), ("\u0667", False), ("1\u00b2", False),
    ("\uff17", False), ("0x1f", False), ("1e3", False), ("7.0", False),
])
def test_read_int_takes_only_ascii_digits(text, negative):
    # int() reads every one of these but "", "-", "--7", "1\u00b2", "0x1f", "1e3" and "7.0"
    with pytest.raises(ValueError, match="is not an integer"):
        read_int(text, negative)


def test_read_int_tells_too_many_digits_apart():
    with pytest.raises(IntegerTooLong):
        read_int("9" * 5000)
    with pytest.raises(IntegerTooLong):
        read_int("-" + "9" * 5000, negative=True)
    # leading zeros are not counted
    assert read_int("0" * 5000 + "7") == 7
    assert issubclass(IntegerTooLong, ValueError)


def test_factorize_multiplies_back_with_prime_keys():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    for k in range(1, 2000):
        factors = factorize(k)
        assert list(factors) == sorted(factors)
        assert all(is_prime(r) and e >= 1 for r, e in factors.items())
        product = 1
        for r, e in factors.items():
            product *= r**e
        assert product == k
