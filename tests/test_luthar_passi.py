"""Augmentation vectors, multiplicities, affine forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    UnitProfile,
    affine_form,
    cleared_form,
    coeff,
    eliminate,
    evaluate,
    lower_constant,
    multiplicity,
    parse_class,
    power_cycle_type,
)

from sntorsion.characters import character_value, degree, named_partition
from sntorsion.luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    char_value_on_unit,
    class_sort_key,
    forced_vector,
    format_class,
    format_cycle_type,
    level_traces,
    orbit_residues,
    parse_cycle_type,
)
from sntorsion.partitions import (
    all_partitions,
    element_order,
    is_prime,
    parity,
    prime_cycles,
)


def ordinary_row(name, n, k):
    lam = named_partition(name, n)
    return CharacterRow.make(
        name, degree(lam),
        {ct: character_value(lam, ct) for ct in allowed_support(n, k)},
    )


def element_profile(mu, n):
    """The profile of an actual group element with cycle type mu."""
    k = element_order(mu)
    levels = {}
    for d in range(1, k):
        if k % d == 0:
            levels[d] = AugVector.make(k // d, n, {power_cycle_type(mu, d): 1})
    return UnitProfile.make(k, n, levels)


def test_allowed_support_order_for_s13_order33():
    support = allowed_support(13, 33)
    assert [format_class(ct) for ct in support] == ["11.1", "3.1", "3.2", "3.3", "3.4"]


def test_allowed_support_excludes_identity_and_respects_divisibility():
    support = allowed_support(8, 15)
    orders = {element_order(ct) for ct in support}
    assert orders == {3, 5, 15}  # includes the composite 5+3 class of order 15


def test_allowed_support_in_a_n_is_the_even_part_of_the_s_n_support():
    primes = [r for r in range(2, 14) if is_prime(r)]
    orders = set(primes) | {2 * p for p in primes if p > 2}
    orders |= {p * q for p in primes for q in primes if q < p}
    for n in range(1, 14):
        for k in sorted(orders):
            even = [ct for ct in allowed_support(n, k) if parity(ct) == 1]
            assert allowed_support(n, k, "A") == even


def test_allowed_support_matches_the_filter_over_all_partitions():
    # allowed_support builds only the partitions into cycle lengths dividing
    # k; the oracle filters every partition of n by element order and parity
    for n in range(1, 15):
        for k in range(2, 201):
            for kind in ("S", "A"):
                expected = sorted(
                    (
                        mu for mu in all_partitions(n)
                        if element_order(mu) != 1 and k % element_order(mu) == 0
                        and (kind == "S" or parity(mu) == 1)
                    ),
                    key=class_sort_key,
                )
                assert allowed_support(n, k, kind) == expected, (n, k, kind)


def test_format_and_parse_class_round_trip():
    for n in range(1, 13):
        for ct in all_partitions(n):
            assert parse_class(format_class(ct), n) == ct
            assert parse_cycle_type(format_cycle_type(ct), n) == ct


def test_aug_vector_validation():
    with pytest.raises(ValueError):  # augmentations must sum to 1
        AugVector.make(3, 7, {prime_cycles(3, 1, 7): 2})
    with pytest.raises(ValueError):  # order-5 class cannot support an order-3 unit
        AugVector.make(3, 7, {prime_cycles(5, 1, 7): 1})
    v = AugVector.make(3, 7, {prime_cycles(3, 1, 7): 2, prime_cycles(3, 2, 7): -1})
    assert v.value(prime_cycles(3, 1, 7)) == 2
    assert v.value(prime_cycles(3, 2, 7)) == -1


def test_aug_vector_rejects_a_repeated_class():
    # the entries sum to 1, but value would read 2 at c, char_value_on_unit
    # the sum 1, and the order-q filter either entry
    c = prime_cycles(3, 1, 7)
    with pytest.raises(ValueError, match="^a class is listed twice$"):
        AugVector(3, 7, ((c, 2), (c, -1)))


def test_aug_vector_rejects_malformed_cycle_types():
    with pytest.raises(ValueError, match="not weakly decreasing"):
        AugVector.make(3, 7, {(1, 3, 3): 1})
    with pytest.raises(ValueError, match="part < 1"):
        AugVector.make(3, 7, {(3, 3, 1, 0): 1})
    v = AugVector.make(3, 7, {(3, 3, 1): 1})
    with pytest.raises(ValueError, match="not weakly decreasing"):
        v.value((1, 3, 3))
    with pytest.raises(ValueError, match="part < 1"):
        v.value((3, 3, 1, 0))
    # each maker checks a class before its sort key, which would fail on
    # the empty tuple with max() of an empty sequence
    for call in (
        lambda: AugVector.make(3, 7, {(): 1}),
        lambda: CharacterRow.make("x", 1, {(1,) * 7: 1, (): 0}),
        lambda: v.value(()),
    ):
        with pytest.raises(ValueError, match="empty partition"):
            call()
    with pytest.raises(ValueError, match="not weakly decreasing"):
        CharacterRow.make("x", 1, {(1,) * 7: 1, (1, 3, 3): 0})


def test_forced_vector():
    v = forced_vector(13, 11)
    assert v.value(prime_cycles(11, 1, 13)) == 1
    with pytest.raises(ValueError):
        forced_vector(13, 3)  # four classes of order 3


def test_character_row_validation():
    with pytest.raises(ValueError):  # identity value must equal the degree
        CharacterRow.make("bad", 5, {(1, 1, 1): 4})
    with pytest.raises(ValueError):  # 2-singular class in a brauer(2) row
        CharacterRow.make("bad", 5, {(2, 1): 1}, modulus=2)
    with pytest.raises(ValueError):
        CharacterRow.make("bad", 5, {(3,): 1}, modulus=4)


def test_character_row_rejects_a_repeated_class():
    c = prime_cycles(3, 1, 7)
    with pytest.raises(ValueError, match="^row r lists a class twice$"):
        CharacterRow("r", 7, None, ((c, 1), (c, 4)))


def test_character_row_value_lookups():
    row = CharacterRow.make("r", 6, {(3, 1, 1, 1): 3, prime_cycles(3, 2, 6): 0})
    assert row.value((3, 1, 1, 1)) == 3
    assert row.value((3, 3)) == 0
    assert row.value(prime_cycles(3, 1, 6)) == 3
    assert row.value(prime_cycles(3, 2, 6)) == 0
    assert row.value((1,) * 6) == 6  # the identity gives the degree
    assert row == CharacterRow.make("r", 6, {(3, 3): 0, (3, 1, 1, 1): 3})
    with pytest.raises(ValueError, match="not weakly decreasing"):
        row.value((1, 3, 1, 1))
    with pytest.raises(ValueError, match="part < 1"):
        row.value((3, 3, 0))
    with pytest.raises(KeyError, match="no value at class 2.1"):
        row.value((2, 1, 1, 1, 1))
    with pytest.raises(KeyError, match="no value at class 5.1"):
        row.value(prime_cycles(5, 1, 6))


def test_char_value_on_unit_is_linear():
    row = ordinary_row("pi", 7, 3)
    v = AugVector.make(3, 7, {prime_cycles(3, 1, 7): 2, prime_cycles(3, 2, 7): -1})
    assert char_value_on_unit(row, v) == 2 * row.value(prime_cycles(3, 1, 7)) - row.value(
        prime_cycles(3, 2, 7)
    )


def test_multiplicities_of_group_elements_are_nonnegative_integers():
    n = 7
    for mu in all_partitions(n):
        k = element_order(mu)
        if k == 1:
            continue
        profile = element_profile(mu, n)
        for name in ("pi", "rho", "tau"):
            row = ordinary_row(name, n, k)
            total = Fraction(0)
            for ell in range(k):
                m = multiplicity(profile, row, ell)
                assert m.denominator == 1 and m >= 0, (mu, name, ell)
                total += m
            assert total == row.degree


def test_multiplicity_requires_a_complete_profile():
    v3 = AugVector.make(3, 13, {prime_cycles(3, 1, 13): 1})
    incomplete = UnitProfile.make(33, 13, {1: AugVector.make(33, 13, {prime_cycles(11, 1, 13): 1}), 11: v3})
    with pytest.raises(ValueError):
        multiplicity(incomplete, ordinary_row("pi", 13, 33), 0)


def test_affine_form_evaluates_to_the_multiplicity():
    # fixing the top level turns the affine form into the exact multiplicity
    n, k = 8, 15
    classes = allowed_support(n, k)
    row = ordinary_row("pi", n, k)
    mu = (5, 3)
    profile = element_profile(mu, n)
    lower = {d: profile.level(d) for d in (3, 5)}
    for ell in orbit_residues(k):
        form = affine_form(row, k, ell, lower, classes)
        point = {ct: profile.level(1).value(ct) for ct in classes}
        assert evaluate(form, point) == multiplicity(profile, row, ell)


def test_affine_forms_of_composite_orders_read_every_proper_level():
    # S_8 has elements of orders 4 and 8 (a divisor at sqrt(k)), 6, 10 and
    # 15 (one divisor below sqrt(k)) and 12 (two below); at each element the
    # form is the multiplicity of its eigenvalue
    n = 8
    orders = set()
    for mu in all_partitions(n):
        k = element_order(mu)
        if k == 1 or is_prime(k):
            continue
        orders.add(k)
        profile = element_profile(mu, n)
        classes = allowed_support(n, k)
        lower = {d: profile.level(d) for d in range(2, k) if k % d == 0}
        point = {ct: profile.level(1).value(ct) for ct in classes}
        for name in ("pi", "rho"):
            row = ordinary_row(name, n, k)
            for ell in orbit_residues(k):
                form = affine_form(row, k, ell, lower, classes)
                assert evaluate(form, point) == multiplicity(profile, row, ell), (mu, name, ell)
    assert orders == {4, 6, 8, 10, 12, 15}


def test_lower_constant_names_the_first_level_that_is_not_fixed():
    profile = element_profile((4, 3, 1), 8)
    row = ordinary_row("pi", 8, 12)
    levels = {d: profile.level(d) for d in (2, 3, 4, 6)}
    for missing in (2, 3, 4, 6):
        values = {d: char_value_on_unit(row, v) for d, v in levels.items() if d < missing}
        with pytest.raises(ValueError, match=f"^level {missing} of the unit is not fixed$"):
            lower_constant(row, level_traces(12, 1), values)


def test_affine_form_rejects_brauer_rows_of_dividing_modulus():
    ct = prime_cycles(2, 1, 7)
    row = CharacterRow.make("b", 5, {ct: 2}, modulus=3)
    with pytest.raises(ValueError):
        affine_form(row, 6, 0, {}, [ct])


def test_affine_form_eliminate_by_the_augmentation():
    a = parse_class("3.1", 7)
    b = parse_class("3.2", 7)
    aug = AffineForm.make({a: 1, b: 1}, 0)
    f = cleared_form({a: Fraction(1, 2), b: Fraction(3, 2)}, 1)
    g = eliminate(f, a, aug, 1)
    assert coeff(g, a) == 0
    assert coeff(g, b) == 1
    assert Fraction(g.constant, g.den) == Fraction(3, 2)


def test_orbit_residues():
    assert orbit_residues(15) == [0, 1, 3, 5]
    assert orbit_residues(33) == [0, 1, 3, 11]
    assert orbit_residues(7) == [0, 1]


def test_orbit_residues_and_level_traces_read_every_divisor():
    # both walk the divisors up to sqrt(k); a scan of 1..k gives the same
    for k in range(1, 400):
        divisors = [d for d in range(1, k + 1) if k % d == 0]
        assert orbit_residues(k) == sorted(d % k for d in divisors), k
        assert list(level_traces(k, 1)) == divisors[1:-1], k


def test_class_sort_key_orders_primes_descending_then_j_ascending():
    labels = ["3.2", "11.1", "3.1", "2.1"]
    cts = sorted((parse_class(lab, 13) for lab in labels), key=class_sort_key)
    assert [format_class(ct) for ct in cts] == ["11.1", "3.1", "3.2", "2.1"]
