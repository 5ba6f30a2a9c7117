"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Every criterion is checked exactly (integer/rational arithmetic throughout;
the only tolerance is the 1e-6 rounding guard inside the independent
floating-point oracle of criterion 5) and carries a wall-clock budget.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import factorial

from test_lemma_filters import brute_force_lemma_4_3, hypothesis_triples, random_profile
from test_solver import CORPUS

from sntorsion.cases import load_bundled_table, load_golden, run_case
from sntorsion.characters import character_value, degree, named_partition
from sntorsion.lemma_filters import filter_lemma_4_3
from sntorsion.luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    forced_vector,
)
from sntorsion.partitions import all_partitions, element_order, is_prime, prime_cycles
from sntorsion.solver import enumerate_system

from conftest import (
    UnitProfile,
    affine_form,
    brute_force_solutions,
    class_size,
    coeff,
    eliminate,
    mu1_pi_closed_form_pq,
    multiplicity,
    parse_class,
    power_cycle_type,
)


@contextmanager
def criterion(num, desc, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s (budget {limit_s}s)"
    print(f"criterion {num} ({desc}): pass [{elapsed:.2f}s < {limit_s}s]")


def _primes_with_j(n):
    for r in range(2, n + 1):
        if is_prime(r):
            for j in range(1, n // r + 1):
                yield r, j


# ---------------------------------------------------------------------------
# 1. closed-form conformance of the distinguished ordinary characters


def test_criterion_1_character_closed_forms():
    with criterion(1, "character closed forms, 7<=n<=20", 10):
        for n in range(7, 21):
            pi = named_partition("pi", n)
            pi_sgn = named_partition("pi_sgn", n)
            rho = named_partition("rho", n)
            tau = named_partition("tau", n)
            assert character_value(rho, (1,) * n) == (n - 1) * (n - 2) // 2
            assert 3 * character_value(tau, (1,) * n) == n * (n - 2) * (n - 4)
            for r, j in _primes_with_j(n):
                ct = prime_cycles(r, j, n)
                assert character_value(pi, ct) == n - 1 - r * j
                if r == 2:
                    assert character_value(pi_sgn, ct) == (-1) ** j * (n - 1 - 2 * j)
                # the printed two-row table for rho: stated for odd primes
                if r != 2 and j == 1:
                    assert character_value(rho, ct) == (n - 1) * (n - 2) // 2 - r * (2 * n - r - 3) // 2
                if r != 2 and j == 2:
                    assert character_value(rho, ct) == (n - 1) * (n - 2) // 2 - r * (2 * n - 2 * r - 3)
                # the cubic formula for tau: stated away from 3-cycles
                if r != 3:
                    f = n - r * j
                    assert 3 * character_value(tau, ct) == f * ((f - 1) * (f - 5) + 3)


# ---------------------------------------------------------------------------
# 2. the order-15 hand-worked exclusion in Z S_7


def test_criterion_2_order15_example():
    with criterion(2, "order-15 exclusion in Z S_7", 1):
        n = 7
        lam = named_partition("hook4", n)
        classes = allowed_support(n, 15)
        c31, c32, c51 = (parse_class(s, n) for s in ("3.1", "3.2", "5.1"))
        assert [degree(lam)] + [character_value(lam, ct) for ct in (c31, c32, c51)] == [20, 2, 2, 0]

        row = CharacterRow.make("hook4", 20, {ct: character_value(lam, ct) for ct in classes})
        lower = {3: forced_vector(n, 5), 5: AugVector.make(3, n, {prime_cycles(3, 1, n): 1})}
        aug = AffineForm.make({ct: 1 for ct in classes}, 0)
        expected = {0: ({c51: F(-16, 15)}, F(8, 3)), 5: ({c51: F(8, 15)}, F(2, 3))}
        for ell, (coeffs, const) in expected.items():
            form = eliminate(affine_form(row, 15, ell, lower, classes), c31, aug, 1)
            assert F(form.constant, form.den) == const
            for ct in classes:
                assert coeff(form, ct) == coeffs.get(ct, 0)

        report = run_case("s7-3x5")
        assert report.verdict == "excluded"


# ---------------------------------------------------------------------------
# 3. the order-33 exclusion in Z S_13 against every printed coefficient

# order-3 stage: (row, ell) -> coefficients on eps_{3.1..3.4} and constant
S13_ORDER3 = {
    ("phi2_3", 0): ([F(-64, 3), F(32, 3), F(-16, 3), F(8, 3)], F(64, 3)),
    ("phi2_3", 1): ([F(32, 3), F(-16, 3), F(8, 3), F(-4, 3)], F(64, 3)),
    ("phi2_4", 0): ([F(68, 3), F(26, 3), F(2, 3), F(-4, 3)], F(64, 3)),
    ("phi2_4", 1): ([F(-34, 3), F(-13, 3), F(-1, 3), F(2, 3)], F(64, 3)),
    ("phi2_5", 0): ([F(-64), F(16), F(0), F(-4)], F(96)),
    ("phi2_6", 0): ([F(152, 3), F(32, 3), F(2, 3), F(8, 3)], F(208, 3)),
}

# order-33 stage coefficients: (row, ell) -> (a_{3.1..3.4}, a_{11.1})
S13_ORDER33_A = {
    ("phi2_3", 0): ([F(-640, 33), F(320, 33), F(-160, 33), F(80, 33)], F(-40, 33)),
    ("phi2_3", 11): ([F(320, 33), F(-160, 33), F(80, 33), F(-40, 33)], F(20, 33)),
    ("phi2_4", 0): ([F(680, 33), F(260, 33), F(20, 33), F(-40, 33)], F(-40, 33)),
    ("phi2_4", 11): ([F(-340, 33), F(-130, 33), F(-10, 33), F(20, 33)], F(20, 33)),
    ("phi2_2", 0): ([F(60, 11), F(40, 11), F(20, 11), F(0)], F(20, 33)),
    ("phi2_2", 11): ([F(-30, 11), F(-20, 11), F(-10, 11), F(0)], F(-10, 33)),
    ("phi2_5", 0): ([F(-640, 11), F(160, 11), F(0), F(-40, 11)], F(40, 33)),
    ("phi2_5", 11): ([F(320, 11), F(-80, 11), F(0), F(20, 11)], F(-20, 33)),
}

# order-33 stage constants per group: candidate -> {(row, ell): b}
S13_GROUP1_B = {
    (-1, 0, 6, -4): {("phi2_3", 0): F(-20, 33), ("phi2_3", 11): F(76, 33)},
    (0, 0, 3, -2): {("phi2_3", 0): F(-20, 33), ("phi2_3", 11): F(76, 33)},
    (1, 0, 0, 0): {("phi2_3", 0): F(-20, 33), ("phi2_3", 11): F(76, 33)},
    (-1, 1, 5, -4): {("phi2_3", 0): F(28, 33), ("phi2_3", 11): F(52, 33)},
    (0, 1, 2, -2): {("phi2_3", 0): F(28, 33), ("phi2_3", 11): F(52, 33)},
    (1, 1, -1, 0): {("phi2_3", 0): F(28, 33), ("phi2_3", 11): F(52, 33)},
    (-1, 2, 3, -3): {("phi2_3", 0): F(100, 33), ("phi2_3", 11): F(16, 33)},
    (0, 2, 0, -1): {("phi2_3", 0): F(100, 33), ("phi2_3", 11): F(16, 33)},
    (1, 2, -3, 1): {("phi2_3", 0): F(100, 33), ("phi2_3", 11): F(16, 33)},
    (-1, 2, 2, -2): {("phi2_3", 0): F(124, 33), ("phi2_3", 11): F(4, 33)},
    (0, 2, -1, 0): {("phi2_3", 0): F(124, 33), ("phi2_3", 11): F(4, 33)},
    (1, 2, -4, 2): {("phi2_3", 0): F(124, 33), ("phi2_3", 11): F(4, 33)},
}
S13_GROUP2_B = {
    (-1, 1, 4, -3): {("phi2_4", 0): F(2, 3), ("phi2_4", 11): F(5, 3)},
    (0, 1, 1, -1): {("phi2_4", 0): F(76, 33), ("phi2_4", 11): F(28, 33)},
    # published constant reads -130/33; the recomputed value is +130/33
    (1, 1, -2, 1): {("phi2_4", 0): F(130, 33), ("phi2_4", 11): F(1, 33)},
    (-1, 3, 1, -2): {("phi2_4", 0): F(64, 33), ("phi2_4", 11): F(34, 33)},
    (0, 3, -2, 0): {("phi2_4", 0): F(118, 33), ("phi2_4", 11): F(7, 33)},
}
S13_GROUP3_B = {
    (1, 3, -5, 2): {
        ("phi2_2", 0): F(46, 33),
        # published constant reads 10/3; the recomputed value is 10/33
        ("phi2_2", 11): F(10, 33),
        ("phi2_5", 0): F(236, 33),
        ("phi2_5", 11): F(344, 33),
    },
}


def test_criterion_3_s13_order33_tables():
    with criterion(3, "order-33 exclusion in Z S_13, printed tables", 60):
        n = 13
        t3 = load_bundled_table("s13-mod2-order3.tbl")
        t33 = load_bundled_table("s13-mod2-order33.tbl")
        q_classes = allowed_support(n, 3)
        for (name, ell), (coeffs, const) in S13_ORDER3.items():
            form = affine_form(t3.row(name), 3, ell, {}, q_classes)
            assert F(form.constant, form.den) == const, (name, ell)
            assert [coeff(form, ct) for ct in q_classes] == coeffs, (name, ell)

        classes = allowed_support(n, 33)  # 11.1 first, then 3.1 .. 3.4
        threes = [parse_class(f"3.{j}", n) for j in range(1, 5)]
        eleven = parse_class("11.1", n)

        def top_form(name, ell, cand):
            lower = {
                3: forced_vector(n, 11),
                11: AugVector.make(3, n, dict(zip(threes, cand))),
            }
            return affine_form(t33.row(name), 33, ell, lower, classes)

        group_bs = [S13_GROUP1_B, S13_GROUP2_B, S13_GROUP3_B]
        for bs in group_bs:
            for cand, entries in bs.items():
                for (name, ell), b in entries.items():
                    form = top_form(name, ell, cand)
                    assert F(form.constant, form.den) == b, (cand, name, ell)
                    a3, a11 = S13_ORDER33_A[(name, ell)]
                    assert [coeff(form, ct) for ct in threes] == a3, (name, ell)
                    assert coeff(form, eleven) == a11, (name, ell)

        # the two published constants corrected above genuinely differ from
        # their printed form
        assert F(130, 33) != F(-130, 33) and F(10, 33) != F(10, 3)

        report = run_case("s13-3x11")
        assert report.stage_q["raw_count"] == 141
        assert report.stage_q["filters"][-1]["count_after"] == 18
        sizes = [len(g["pairs"]) for g in report.stage_pq["groups"]]
        assert sorted(sizes, reverse=True) == [12, 5, 1]
        assert all(
            pair["status"] == "infeasible"
            for g in report.stage_pq["groups"] for pair in g["pairs"]
        )
        assert report.verdict == "excluded"


# ---------------------------------------------------------------------------
# 4. the four desk instances settled by ordinary characters alone


def test_criterion_4_desk_instances():
    for case_id, np_ in (
        ("thm32-11-7-5", (11, 7, 5)),
        ("thm32-13-11-7", (13, 11, 7)),
        ("thm32-17-11-7", (17, 11, 7)),
        ("thm32-17-13-11", (17, 13, 11)),
    ):
        with criterion(4, f"ordinary-row exclusion {np_}", 10):
            report = run_case(case_id)
            n, p, q = np_
            assert (report.n, report.p, report.q) == (n, p, q)
            assert report.verdict == "excluded", case_id


# ---------------------------------------------------------------------------
# 5. multiplicities vs an independent high-precision root-of-unity oracle


def test_criterion_5_multiplicity_oracle():
    with criterion(5, "multiplicity oracle, n<=8", 60):
        from mpmath import mp, mpc, exp, pi as mp_pi

        mp.dps = 30

        for n in range(2, 9):
            partitions = all_partitions(n)
            for mu in partitions:
                k = element_order(mu)
                if k == 1:
                    continue
                levels = {
                    d: AugVector.make(k // d, n, {power_cycle_type(mu, d): 1})
                    for d in range(1, k) if k % d == 0
                }
                profile = UnitProfile.make(k, n, levels)
                support = allowed_support(n, k)
                for lam in partitions:
                    row = CharacterRow.make(
                        "chi", degree(lam),
                        {ct: character_value(lam, ct) for ct in support},
                    )
                    powers = [degree(lam)] + [
                        character_value(lam, power_cycle_type(mu, t)) for t in range(1, k)
                    ]
                    total = 0
                    for ell in range(k):
                        oracle = sum(
                            powers[t] * exp(mpc(0, -2) * mp_pi * t * ell / k)
                            for t in range(k)
                        ) / k
                        assert abs(oracle.imag) < 1e-6
                        rounded = int(oracle.real + (0.5 if oracle.real > 0 else -0.5))
                        assert abs(oracle.real - rounded) < 1e-6, (mu, lam, ell)
                        assert multiplicity(profile, row, ell) == rounded, (mu, lam, ell)
                        total += rounded
                    assert total == degree(lam)


# ---------------------------------------------------------------------------
# 6. lemma cross-checks: closed form and parity filter vs brute force


def test_criterion_6_lemma_cross_checks():
    with criterion(6, "lemma closed form and parity filter", 30):
        rng = random.Random(715517)
        for n, p, q in hypothesis_triples():
            pi_lam = named_partition("pi", n)
            row = CharacterRow.make(
                "pi", n - 1,
                {ct: character_value(pi_lam, ct) for ct in allowed_support(n, p * q)},
            )
            for _ in range(1000):
                profile = random_profile(rng, n, p, q)
                assert mu1_pi_closed_form_pq(profile, n, p, q) == multiplicity(profile, row, 1)

        counts = {}
        survivors = {}
        for p in (5, 7, 11, 13):
            survivors[p] = set(brute_force_lemma_4_3(p))
            counts[p] = len(survivors[p])

        def vec(p, entries):
            return AugVector.make(
                2, p, {prime_cycles(2, j + 1, p): e for j, e in enumerate(entries)}
            )

        # exhaustive agreement over the box where that is tractable
        import itertools

        for p in (5, 7, 11):
            m = p // 2
            passing = set()
            for head in itertools.product(range(-10, 11), repeat=m - 1):
                last = 1 - sum(head)
                if not -10 <= last <= 10:
                    continue
                t = head + (last,)
                if filter_lemma_4_3(p, vec(p, t)):
                    passing.add(t)
            assert passing == survivors[p], p
        # for p = 13 every brute-force solution passes and random non-solutions fail
        for t in survivors[13]:
            assert filter_lemma_4_3(13, vec(13, t))
        rng13 = random.Random(20260823)
        for _ in range(2000):
            head = tuple(rng13.randint(-10, 10) for _ in range(5))
            last = 1 - sum(head)
            if not -10 <= last <= 10:
                continue
            t = head + (last,)
            assert filter_lemma_4_3(13, vec(13, t)) == (t in survivors[13])

        assert counts == {5: 0, 7: 0, 11: 61, 13: 660}
        # nothing survives for p = 7 once the augmentation equality is imposed
        assert survivors[7] == set()

        grid = load_golden("lemma43-grid")["extras"]["grid"]
        assert {int(k): v["solutions_in_box"] for k, v in grid.items()} == counts


# ---------------------------------------------------------------------------
# 7. solver vs box brute force, and determinism


def test_criterion_7_solver_oracle():
    with criterion(7, "solver oracle equivalence and determinism", 60):
        for builder in CORPUS:
            system = builder()
            report = enumerate_system(system)
            assert sorted(report.solutions) == sorted(brute_force_solutions(system, 50))
        a = run_case("s13-3x11")
        b = run_case("s13-3x11")
        assert a.canonical_json() == b.canonical_json()


# ---------------------------------------------------------------------------
# 8. column-sum orthogonality of the full character tables


def test_criterion_8_orthogonality():
    with criterion(8, "first orthogonality relation, n<=10", 30):
        for n in range(1, 11):
            partitions = all_partitions(n)
            for lam in partitions:
                total = sum(
                    class_size(mu) * character_value(lam, mu) ** 2 for mu in partitions
                )
                assert total == factorial(n), lam
