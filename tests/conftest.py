"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from sntorsion.cases import load_bundled_table
from sntorsion.luthar_passi import AffineForm
from sntorsion.partitions import Partition
from sntorsion.solver import FeasibilitySystem


@pytest.fixture(scope="session")
def s13_order3_table():
    return load_bundled_table("s13-mod2-order3.tbl")


@pytest.fixture(scope="session")
def s13_order33_table():
    return load_bundled_table("s13-mod2-order33.tbl")


def brute_force_solutions(system: FeasibilitySystem, bound: int) -> list[tuple[int, ...]]:
    """All integer points of the system inside the box [-bound, bound]^vars,
    by exhaustive scan with cleared denominators."""
    nvar = len(system.variables)
    constraints = []  # (int coeffs, int const, kind, den*target)
    for f, target, _ in system.equalities:
        den = 1
        for _, c in f.coeffs:
            den = den * c.denominator // _gcd(den, c.denominator)
        den = den * f.constant.denominator // _gcd(den, f.constant.denominator)
        coeffs = [int(den * coeff(f, v)) for v in system.variables]
        constraints.append((coeffs, int(den * f.constant), "eq", den * target))
    for f, _ in system.nonneg_integral:
        den = 1
        for _, c in f.coeffs:
            den = den * c.denominator // _gcd(den, c.denominator)
        den = den * f.constant.denominator // _gcd(den, f.constant.denominator)
        coeffs = [int(den * coeff(f, v)) for v in system.variables]
        constraints.append((coeffs, int(den * f.constant), "nonneg-int", den))
    found = []
    for point in itertools.product(range(-bound, bound + 1), repeat=nvar):
        ok = True
        for coeffs, const, kind, aux in constraints:
            value = const + sum(c * x for c, x in zip(coeffs, point))
            if kind == "eq":
                if value != aux:
                    ok = False
                    break
            else:
                # form value is value/aux; needs to be an integer >= 0
                if value < 0 or value % aux:
                    ok = False
                    break
        if ok:
            found.append(point)
    return found


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def coeff(form: AffineForm, var: Partition) -> Fraction:
    """The coefficient of var in form (0 when absent)."""
    for v, c in form.coeffs:
        if v == var:
            return c
    return Fraction(0)


def evaluate(form: AffineForm, point: dict[Partition, int]) -> Fraction:
    """The exact value of form at point (absent variables count as 0)."""
    return form.constant + sum(c * point.get(v, 0) for v, c in form.coeffs)


def eliminate(
    form: AffineForm, var: Partition, equality: AffineForm, target: Fraction | int
) -> AffineForm:
    """Substitute var in form using `equality = target` (which must involve
    var), as the paper does with the augmentation when it prints a form."""
    pivot = coeff(equality, var)
    if pivot == 0:
        raise ValueError("equality does not involve the eliminated variable")
    # var = (target - constant - sum_other) / pivot
    factor = coeff(form, var) / pivot
    coeffs = {v: c for v, c in form.coeffs if v != var}
    for v, c in equality.coeffs:
        if v != var:
            coeffs[v] = coeffs.get(v, Fraction(0)) - factor * c
    const = form.constant + factor * (Fraction(target) - equality.constant)
    return AffineForm.make(coeffs, const)
