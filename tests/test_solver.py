"""Exact integer enumeration: oracle equivalence, determinism, verdicts."""

import inspect
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    HermiteSplit, affine_form, as_bounds, brute_force_solutions, cleared_form, coeff,
    concrete_solve, covolume_squared, eliminate, fm_chain, is_pair_system, leafwise_solutions,
    normalize, parse_class, pinned_recession_ray, row_major_lattice, scratch_lattice,
    solutionwise_recheck,
)

from sntorsion.characters import character_value, degree, named_partition
from sntorsion.lemma_filters import filter_order_q_powers
from sntorsion.luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    forced_vector,
)
from sntorsion import cases as cases_mod, solver
from sntorsion.cases import _case_thm32, run_case
from sntorsion.partitions import prime_cycles
from sntorsion.solver import (
    FeasibilitySystem,
    enumerate_system,
    has_element_of_order,
    report_aug_vectors,
    solve_order_pq,
    solve_prime_order,
)


def ordinary_row(name, n, k):
    lam = named_partition(name, n)
    return CharacterRow.make(
        name, degree(lam), {ct: character_value(lam, ct) for ct in allowed_support(n, k)}
    )


def var(token, n):
    return parse_class(token, n)


# ---------------------------------------------------------------------------
# integer linear algebra


def solve_integer_system(rows, rhs, nvar):
    """All integer solutions of rows . x = rhs as (x0, kernel basis), or None,
    read off the solver's lattice with no slack columns."""
    lat = solver._lattice(solver._Matrix(rows, nvar, len(rows)), ())
    y = solver._particular(lat, rhs)
    if y is None:
        return None
    x0 = [sum(a * b for a, b in zip(row, y)) for row in lat.u]
    return x0, [list(col) for col in zip(*(row[lat.rank:] for row in lat.u))]


def test_solve_integer_system_parametrizes_all_solutions():
    # x + 2y + 3z = 6
    res = solve_integer_system([[1, 2, 3]], [6], 3)
    assert res is not None
    x0, basis = res
    assert x0[0] + 2 * x0[1] + 3 * x0[2] == 6
    assert len(basis) == 2
    for b in basis:
        assert b[0] + 2 * b[1] + 3 * b[2] == 0


def test_solve_integer_system_detects_divisibility_obstructions():
    assert solve_integer_system([[2, 4]], [3], 2) is None  # 2x+4y=3 has no integer solution
    assert solve_integer_system([[2, 4]], [6], 2) is not None


def test_solve_integer_system_checks_consistency_of_dependent_rows():
    assert solve_integer_system([[1, 1], [2, 2]], [1, 3], 2) is None
    res = solve_integer_system([[1, 1], [2, 2]], [1, 2], 2)
    assert res is not None


@st.composite
def integer_matrices(draw, dens=None):
    """(rows, nvar, neq, kept) for _lattice: neq + nform rows over nvar
    variables and nform slacks, and a subset of the forms kept.  As in a
    _matrix, each of the neq equality rows is zero on the slack columns.
    With a strategy `dens`, each slack-link row is that of a _matrix too:
    -den on its own slack column, with den drawn from `dens`, and 0 on the
    other slack columns."""
    nvar, neq, nform = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    entries = st.lists(st.integers(-6, 6), min_size=nvar, max_size=nvar)
    links = st.lists(st.integers(-6, 6), min_size=nvar + nform, max_size=nvar + nform)
    rows = tuple(tuple(draw(entries)) + (0,) * nform for _ in range(neq))
    if dens is None:
        rows += tuple(tuple(draw(links)) for _ in range(nform))
    else:
        for j in range(nform):
            slacks = [0] * nform
            slacks[j] = -draw(dens)
            rows += (tuple(draw(entries)) + tuple(slacks),)
    kept = tuple(j for j in range(nform) if draw(st.booleans()))
    return rows, nvar, neq, kept


def lattice(rows, nvar, neq, kept):
    """The solver's lattice of the kept forms of a fresh matrix."""
    return solver._lattice(solver._Matrix(rows, nvar, neq), kept)


def assert_matches_row_major(lat, rows, nvar, neq, kept):
    oracle = row_major_lattice(rows, nvar, neq, kept)
    for name in HermiteSplit._fields:
        assert getattr(lat, name) == getattr(oracle, name), name


@settings(max_examples=300, derandomize=True, deadline=None)
@given(integer_matrices())
def test_lattice_matches_the_row_major_elimination(drawn):
    assert_matches_row_major(lattice(*drawn), *drawn)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(integer_matrices(), st.data())
def test_lattices_continue_the_matrix_equality_pass_as_a_fresh_elimination(drawn, data):
    # every lattice of one matrix continues the matrix's one pass over the
    # equality rows; each must equal the elimination of its kept rows from
    # scratch, field by field, whichever forms it keeps and in which order
    # the lattices are built
    rows, nvar, neq, kept = drawn
    matrix = solver._Matrix(rows, nvar, neq)
    for _ in range(3):
        lat = matrix.lattice(kept)
        oracle = scratch_lattice(rows, nvar, neq, kept)
        for name in solver._Lattice._fields:
            assert getattr(lat, name) == getattr(oracle, name), name
        # the chain's rows give every constant lam . K
        slacks = data.draw(st.lists(st.integers(-9, 9), min_size=len(kept), max_size=len(kept)))
        assert_chain_rows_evaluate_to_lam_k(lat, slacks)
        kept = tuple(j for j in range(len(rows) - neq) if data.draw(st.booleans()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(integer_matrices())
def test_one_multiplier_chain_rows_are_their_slack_rows(drawn):
    # a combination of two chain rows has the slack indices of both, so a
    # row with one multiplier is a slack row itself, with multiplier 1: it
    # keeps only its index, and its coefficients are that slack's row on w
    lat = lattice(*drawn)
    singles = [row for level, _ in lat.bounds for row in level]
    assert all(coeffs == lat.slack_w[i] for coeffs, i in singles)


def test_the_rank_test_keeps_the_lattice_exactly_when_the_covolumes_agree():
    # the kept forms' ranks mod each prime of a squarefree den decide
    # whether their integrality alone gives the lattice of every form's: the
    # kept lattice contains the full one, so the two are equal exactly when
    # their covolumes are.  A den with a square factor always says no
    seen = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(integer_matrices(dens=st.sampled_from([1, 2, 3, 4, 6, 12])))
    def check(drawn):
        rows, nvar, neq, kept = drawn
        every = tuple(range(len(rows) - neq))
        same = solver._Matrix(rows, nvar, neq).same_lattice(kept)
        if any(rows[neq + j][nvar + j] % 4 == 0 for j in every):
            assert not same
            seen["square"] += 1
        else:
            full = covolume_squared(rows, nvar, neq, every)
            assert same == (covolume_squared(rows, nvar, neq, kept) == full)
            seen[same] += 1

    check()
    assert set(seen) == {"square", True, False}


def chain_rows(lat):
    """Every row of a lattice's chain as (level, coeffs, lam): level d for
    a row of bounds[d], None for a row with no coordinate, and lam its
    (slack index, multiplier) pairs; a one-multiplier row keeps only its
    slack index, as its multiplier is 1."""
    rows = []
    for d, (singles, sums) in enumerate(lat.bounds):
        rows += [(d, coeffs, ((i, 1),)) for coeffs, i in singles]
        rows += [(d, coeffs, tuple(zip(idx, ms))) for coeffs, idx, ms in sums]
    zero = (0,) * lat.wdim
    rows += [(None, zero, ((i, 1),)) for i in lat.nonneg]
    rows += [(None, zero, tuple(zip(idx, ms))) for idx, ms in lat.sums]
    return rows


def assert_chain_rows_evaluate_to_lam_k(lat, slacks):
    """Each level's bounds evaluate to its rows with the constant lam . K,
    and a row with no coordinate holds exactly when lam . K >= 0: the
    search rejects K at once when one does not, and finds a lattice whose
    first coordinate is open unbounded when all do."""

    def constant(lam):
        return sum(m * slacks[i] for i, m in lam)

    rows = chain_rows(lat)
    for d, bounds in enumerate(lat.bounds):
        expected = Counter((coeffs, constant(lam)) for level, coeffs, lam in rows if level == d)
        assert Counter(solver._evaluated(bounds, slacks)) == expected
    if any(constant(lam) < 0 for level, _, lam in rows if level is None):
        assert solver._search(lat, slacks) == ("infeasible", 0)
    elif lat.open == 0:
        assert solver._search(lat, slacks) == ("unbounded", 0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(integer_matrices(), st.integers(2, 6), st.data())
def test_scaling_a_row_by_a_positive_integer_scales_only_its_echelon_row(drawn, g, data):
    # a multiplicity form is cleared by the unit's order, which is a positive
    # multiple of the lcm of its reduced denominators: the pivots (least
    # |entry|) and the multipliers (a // b) do not see the factor, so only
    # the scaled row's echelon row changes, and the particular solution
    # does not
    rows, nvar, neq, kept = drawn
    kept_rows = [*range(neq), *(neq + j for j in kept)]
    assume(kept_rows)
    i = data.draw(st.integers(0, len(kept_rows) - 1))
    cols = [*range(nvar), *(nvar + j for j in kept)]
    z = data.draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
    # rows . z, each entry moved by at most 1, so that some have no solution
    rhs = [
        sum(rows[r][c] * x for c, x in zip(cols, z)) + data.draw(st.integers(-1, 1))
        for r in kept_rows
    ]

    def scale(vectors, k):
        return tuple(
            tuple(g * a for a in v) if j == k else v for j, v in enumerate(vectors)
        )

    lat = lattice(rows, nvar, neq, kept)
    big = lattice(scale(rows, kept_rows[i]), nvar, neq, kept)
    for name in ("pivot_col", "u", "slack_y", "slack_w", "rank", "wdim"):
        assert getattr(big, name) == getattr(lat, name), name
    assert big.echelon == scale(lat.echelon, i)
    big_rhs = [g * b if j == i else b for j, b in enumerate(rhs)]
    assert solver._particular(big, big_rhs) == solver._particular(lat, rhs)


def test_thm32_12_11_3_lattices_match_the_row_major_elimination(monkeypatch):
    built = []
    real = solver._lattice

    def checked(matrix, kept):
        lat = real(matrix, kept)
        assert_matches_row_major(lat, matrix.rows, matrix.nvar, matrix.neq, kept)
        built.append(kept)
        return lat

    monkeypatch.setattr(solver, "_lattice", checked)
    _case_thm32(12, 11, 3)
    assert built


# ---------------------------------------------------------------------------
# enumeration corpus (each <= 3 variables, verified against box brute force)


def example_order15_system():
    n = 7
    hook = CharacterRow.make(
        "hook4", 20,
        {prime_cycles(3, 1, n): 2, prime_cycles(3, 2, n): 2, prime_cycles(5, 1, n): 0},
    )
    classes = allowed_support(n, 15)

    lower = {
        3: forced_vector(n, 5),
        5: AugVector.make(3, n, {prime_cycles(3, 1, n): 1}),
    }
    forms = [
        (affine_form(hook, 15, ell, lower, classes), f"mu_{ell}(hook4)") for ell in (0, 5)
    ]
    return FeasibilitySystem.build(classes, [], forms)


def unique_point_system():
    v = var("5.1", 7)
    forms = [
        (AffineForm.make({v: 1}, -1), "eps - 1"),
        (AffineForm.make({v: -1}, 1), "1 - eps"),
    ]
    return FeasibilitySystem.build([v], [], forms)


def congruence_infeasible_system():
    # eps = 1 with the form (eps + 1)/2 integral and in [0, 4]: feasible;
    # tightening to (eps + 2)/4 integral breaks it by a congruence
    v = var("3.1", 7)
    forms = [
        (cleared_form({v: Fraction(1, 4)}, Fraction(2, 4)), "quarter"),
        (AffineForm.make({v: 1}, 10), "box low"),
        (AffineForm.make({v: -1}, 10), "box high"),
    ]
    return FeasibilitySystem.build([v], [], forms)


def two_var_box_system():
    a, b = var("3.1", 7), var("3.2", 7)
    forms = [
        (AffineForm.make({a: 1, b: 2}, 5), "f1"),
        (AffineForm.make({a: -1, b: 1}, 3), "f2"),
        (cleared_form({a: Fraction(1, 2), b: Fraction(-1, 2)}, 4), "half-diff"),
        (AffineForm.make({a: -1, b: -1}, 7), "cap"),
    ]
    return FeasibilitySystem.build([a, b], [], forms)


def three_var_system():
    a, b, c = var("3.1", 13), var("3.2", 13), var("3.3", 13)
    forms = [
        (cleared_form({a: Fraction(2, 3), b: Fraction(-1, 3), c: 1}, 2), "f1"),
        (AffineForm.make({a: -1, b: 1, c: -1}, 4), "f2"),
        (AffineForm.make({a: 1, b: 1, c: 1}, 1), "f3"),
        (AffineForm.make({a: -1, b: -1, c: -1}, 5), "f4"),
        (AffineForm.make({b: -1}, 3), "f5"),
        (AffineForm.make({a: 1, c: -1}, 6), "f6"),
    ]
    return FeasibilitySystem.build([a, b, c], [], forms)


CORPUS = [
    example_order15_system,
    unique_point_system,
    congruence_infeasible_system,
    two_var_box_system,
    three_var_system,
]


@pytest.mark.parametrize("builder", CORPUS)
def test_enumeration_matches_box_brute_force(builder):
    system = builder()
    report = enumerate_system(system)
    assert report.status in ("infeasible", "solutions")
    expected = brute_force_solutions(system, 50)
    assert sorted(report.solutions) == sorted(expected)
    if report.status == "infeasible":
        assert expected == []
        assert report.certificate  # at least one named form
        # the certificate forms alone, with the other equalities, already
        # leave the box empty
        core = FeasibilitySystem.build(
            list(system.variables),
            [eq for eq in system.equalities if eq[2] != "augmentation"],
            [form for form in system.nonneg_integral if form[1] in report.certificate],
        )
        assert brute_force_solutions(core, 50) == []


def test_unique_point_system_solves_to_one():
    report = enumerate_system(unique_point_system())
    assert report.status == "solutions"
    assert report.solutions == [(1,)]


def test_congruence_infeasibility_is_detected_despite_rational_feasibility():
    report = enumerate_system(congruence_infeasible_system())
    assert report.status == "infeasible"
    assert "quarter" in report.certificate


def test_unbounded_systems_report_a_ray():
    # a single form that no augmentation vector can violate
    a, b = var("3.1", 7), var("3.2", 7)
    forms = [(AffineForm.make({}, 1), "constant one")]
    system = FeasibilitySystem.build([a, b], [], forms)
    report = enumerate_system(system)
    assert report.status == "unbounded"
    assert report.ray is not None and any(report.ray)
    # the ray keeps the augmentation equality homogeneously satisfied
    assert sum(report.ray) == 0


def one_point_violating_system():
    # the augmentation pins eps = 1, which the form eps - 2 >= 0 rules out
    v = var("5.1", 7)
    forms = [
        (AffineForm.make({v: 1}, 0), "eps"),
        (AffineForm.make({v: 1}, -2), "eps - 2"),
    ]
    return FeasibilitySystem.build([v], [], forms)


def constant_slack_system():
    # on the augmentation line a + b = 1 the form a + b + 2 is 3 everywhere
    a, b = var("3.1", 7), var("3.2", 7)
    return FeasibilitySystem.build([a, b], [], [(AffineForm.make({a: 1, b: 1}, 2), "a + b + 2")])


@pytest.mark.parametrize("builder, free, wdim, status, solutions, certificate, ray, nodes", [
    (unique_point_system, 0, 0, "solutions", [(1,)], [], None, 1),
    (one_point_violating_system, 0, 0, "infeasible", [], ["eps - 2"], None, 0),
    (constant_slack_system, 1, 0, "unbounded", [], [], (-1, 1), 1),
])
def test_degenerate_lattices_take_the_one_search_path(
    builder, free, wdim, status, solutions, certificate, ray, nodes
):
    # no slack moves on these lattices: the projection chain is empty and
    # the search has one leaf, the particular point, unless a constant
    # slack is already negative
    system = builder()
    lat = solver._matrix(system).lattice(tuple(range(len(system.nonneg_integral))))
    assert (lat.nfree, lat.wdim) == (free, wdim)
    report = enumerate_system(system)
    assert report.status == status
    assert report.solutions == solutions
    assert report.certificate == certificate
    assert report.ray == ray
    assert report.stats["nodes"] == nodes


def free_direction_system():
    # 0 <= a <= 3 and 0 <= b <= 2 bound the slack-moving coordinates, so
    # the lattice has 12 integer points; c - d moves no form
    a, b, c, d = (var(token, 13) for token in ("3.1", "3.2", "3.3", "3.4"))
    forms = [
        (AffineForm.make({a: 1}, 0), "a"),
        (AffineForm.make({a: -1}, 3), "3 - a"),
        (AffineForm.make({b: 1}, 0), "b"),
        (AffineForm.make({b: -1}, 2), "2 - b"),
    ]
    return FeasibilitySystem.build([a, b, c, d], [], forms)


def test_a_lattice_with_free_directions_stops_at_its_first_point():
    system = free_direction_system()
    lat = solver._matrix(system).lattice((0, 1, 2, 3))
    assert (lat.nfree, lat.wdim) == (1, 2)
    report = enumerate_system(system)
    # the first point decides the report: unbounded along the first free
    # direction, found on the path root -> w0 -> w1 (a full search visits
    # 1 + 4 + 12 = 17 nodes)
    assert report.status == "unbounded"
    assert report.ray == (0, 0, 1, -1)
    assert report.solutions == []
    assert report.stats["nodes"] == lat.wdim + 1


def test_recession_ray_moves_the_first_open_coordinate():
    # the relaxation is open along several coordinates; the ray is the one
    # read off the first of them
    a, b, c = var("3.1", 13), var("3.2", 13), var("3.3", 13)
    forms = [
        (cleared_form({a: 1, b: Fraction(1, 2), c: Fraction(-1, 3)}, 2), "f1"),
        (cleared_form({a: Fraction(1, 4), b: 1, c: 1}, 2), "f2"),
    ]
    report = enumerate_system(FeasibilitySystem.build([a, b, c], [], forms))
    assert report.status == "unbounded"
    assert report.ray == (0, 1, -1)


@st.composite
def relaxations(draw):
    """(ineqs, wdim): up to six rows coeffs . w + const >= 0 over wdim
    slack-moving coordinates, normalized as _solve builds them."""
    wdim = draw(st.integers(1, 4))
    rows = st.tuples(st.lists(st.integers(-3, 3), min_size=wdim, max_size=wdim), st.integers(-4, 4))
    ineqs = {
        normalize(tuple(coeffs), const)
        for coeffs, const in draw(st.lists(rows, max_size=6)) if any(coeffs)
    }
    return ineqs, wdim


@settings(max_examples=500, derandomize=True, deadline=None)
@given(relaxations())
def test_recession_ray_read_off_the_search_chain_matches_the_pinned_chain(drawn):
    ineqs, wdim = drawn
    chain = fm_chain(ineqs, wdim)
    assume(chain is not None)
    open_vars = [d for d, rows in enumerate(chain) if len({c[d] > 0 for c, _ in rows if c[d]}) < 2]
    assume(open_vars)
    var = open_vars[0]
    ray = solver._recession_ray(as_bounds(chain), var)
    assert ray == pinned_recession_ray(ineqs, wdim, var)
    assert ray[var] and all(sum(a * r for a, r in zip(c, ray)) >= 0 for c, _ in ineqs)


def test_infeasible_core_is_minimal_for_the_order15_system():
    report = enumerate_system(example_order15_system())
    assert report.status == "infeasible"
    assert sorted(report.certificate) == ["mu_0(hook4)", "mu_5(hook4)"]


def test_enumeration_is_deterministic():
    for builder in CORPUS:
        r1 = enumerate_system(builder())
        r2 = enumerate_system(builder())
        assert r1.status == r2.status
        assert r1.solutions == r2.solutions
        assert r1.certificate == r2.certificate


def public_deletion_filter(system):
    """The greedy infeasible core, re-solving every trial through the public
    API: drop one form at a time and keep it dropped while the rest stays
    infeasible."""
    core = list(system.nonneg_integral)
    for form in system.nonneg_integral:
        trial = [g for g in core if g is not form]
        sub = FeasibilitySystem(system.variables, system.equalities, tuple(trial))
        if enumerate_system(sub).status == "infeasible":
            core = trial
    return [name for _, name in core]


def fixed_at_a_nonnegative_integer(system, form):
    """Whether form is constant on the real solutions of the system's
    equalities, at a non-negative integer: eliminate one variable per
    equality from the form and the later equalities, and see whether only
    a constant is left."""
    equalities = [(f, Fraction(target)) for f, target, _ in system.equalities]
    while equalities:
        (eq, target), *equalities = equalities
        if eq.coeffs:
            v = eq.coeffs[0][0]
            form = eliminate(form, v, eq, target)
            equalities = [(eliminate(f, v, eq, target), t) for f, t in equalities]
    value = Fraction(form.constant, form.den)
    return not form.coeffs and value >= 0 and value.denominator == 1


def fixed_forms_system():
    # a = 2 and a + b + c = 1: the form a is 2 and b + c is -1 on every
    # solution, and b moves along the one direction (0, 1, -1)
    a, b, c = var("3.1", 7), var("3.2", 7), var("5.1", 7)
    forms = [
        (AffineForm.make({a: 1}, 0), "a"),
        (AffineForm.make({b: 1, c: 1}, 0), "b + c"),
        (AffineForm.make({b: 1}, 0), "b"),
    ]
    return FeasibilitySystem.build([a, b, c], [(AffineForm.make({a: 1}, 0), 2, "a = 2")], forms)


def test_the_core_gives_no_trial_to_a_form_fixed_at_a_nonnegative_integer(monkeypatch):
    system = fixed_forms_system()
    assert [fixed_at_a_nonnegative_integer(system, f) for f, _ in system.nonneg_integral] == [
        True, False, False
    ]
    lat = solver._matrix(system).lattice((0, 1, 2))
    # the slack rows of u on the w coordinates
    assert [any(row) for row in lat.slack_w] == [False, False, True]
    tried, searched = [], []
    real_trial, real_search = solver._Matrix.trial, solver._search

    def trying(matrix, kept):
        tried.append(kept)
        return real_trial(matrix, kept)

    def searching(lat, slacks, leaves=None):
        if leaves is None:
            searched.append(type(lat))
        return real_search(lat, slacks, leaves)

    monkeypatch.setattr(solver._Matrix, "trial", trying)
    monkeypatch.setattr(solver, "_search", searching)
    report = enumerate_system(system)
    monkeypatch.undo()
    assert report.status == "infeasible"
    assert report.certificate == public_deletion_filter(system) == ["b + c"]
    # "a" (form 0, fixed at 2) is dropped by no trial and kept by none;
    # "b + c" (fixed at -1) gets its trial and stays, and "b" is dropped.
    # Every den is 1, so each trial searches the system's lattice
    assert tried == [(2,), (1,)]
    assert searched == [solver._Trial] * 2


def test_infeasible_core_matches_the_public_deletion_filter_on_the_corpus():
    infeasible = 0
    for builder in CORPUS:
        system = builder()
        report = enumerate_system(system)
        if report.status == "infeasible":
            infeasible += 1
            assert report.certificate == public_deletion_filter(system)
    assert infeasible >= 2


PAIR_CASES = {
    "thm32-12-11-3": lambda: _case_thm32(12, 11, 3),
    "thm32-11-7-5": lambda: run_case("thm32-11-7-5"),
    "s7-3x5": lambda: run_case("s7-3x5"),
}


# every infeasible pair of thm32-12-11-3 has a free direction and four pi
# forms that the pi equalities fix
@pytest.mark.parametrize("case_id", ["thm32-12-11-3", "thm32-11-7-5", "s7-3x5"])
def test_infeasible_core_matches_the_public_deletion_filter_on_a_case(case_id, monkeypatch):
    seen = []
    real = solver.enumerate_system

    def recording(system, matrix=None):
        report = real(system, matrix)
        seen.append((system, report))
        return report

    # every system the case enumerates: its order-q system and every pair system
    monkeypatch.setattr(solver, "enumerate_system", recording)
    PAIR_CASES[case_id]()
    monkeypatch.undo()
    infeasible = [(system, rep) for system, rep in seen if rep.status == "infeasible"]
    assert infeasible
    for system, report in infeasible:
        assert report.certificate == public_deletion_filter(system)


@pytest.mark.parametrize("case_id, statuses", [
    ("thm32-12-11-3", {"infeasible": 76, "unbounded": 14}),
    ("thm32-11-7-5", {"infeasible": 2}),
    ("s7-3x5", {"infeasible": 1}),
])
def test_pairs_sharing_lattices_report_like_fresh_solves(case_id, statuses, monkeypatch):
    seen = []
    real = solver.enumerate_system

    def recording(system, matrix=None):
        report = real(system, matrix)
        if is_pair_system(system):
            seen.append((system, report))
        return report

    monkeypatch.setattr(solver, "enumerate_system", recording)
    PAIR_CASES[case_id]()
    monkeypatch.undo()
    assert Counter(report.status for _, report in seen) == statuses
    for system, report in seen:
        assert report == enumerate_system(system)


@pytest.mark.parametrize("case_id", sorted(PAIR_CASES))
def test_pair_systems_have_the_forms_of_fresh_affine_forms(case_id, monkeypatch):
    systems, calls = [], []
    real_enumerate, real_pq = solver.enumerate_system, cases_mod.solve_order_pq

    def recording(system, matrix=None):
        if is_pair_system(system):
            systems.append(system)
        return real_enumerate(system, matrix)

    def captured(*args, **kwargs):
        out = real_pq(*args, **kwargs)
        bound = inspect.signature(real_pq).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments, out[1]))
        return out

    monkeypatch.setattr(solver, "enumerate_system", recording)
    monkeypatch.setattr(cases_mod, "solve_order_pq", captured)
    PAIR_CASES[case_id]()
    monkeypatch.undo()
    expected = []
    for args, results in calls:
        p, q, pi_row = args["p"], args["q"], args["pi_row"]
        classes = allowed_support(args["n"], p * q, args["kind"])
        groups = {grp["name"]: grp for grp in args["row_groups"]}
        for result in results:
            lower = {p: result.q_candidate, q: result.p_candidate}
            forms = [
                affine_form(row, p * q, ell, lower, classes)
                for row, ell in groups[result.group]["rows_and_ells"]
            ]
            pi_forms = [] if pi_row is None else [
                affine_form(pi_row, p * q, ell, lower, classes) for ell in (1, q)
            ]
            expected.append((forms, pi_forms))
    assert len(systems) == len(expected) > 0
    for system, (forms, pi_forms) in zip(systems, expected):
        assert [f for f, _ in system.nonneg_integral] == forms
        assert [f for f, _, _ in system.equalities[:-1]] == pi_forms


def test_form_parts_are_built_once_per_row_group(monkeypatch):
    built = Counter()
    per_call = []
    real_pq = cases_mod.solve_order_pq

    def counting(name, key):
        real = getattr(solver, name)

        def wrapper(*args):
            built[name, key(*args)] += 1
            return real(*args)

        monkeypatch.setattr(solver, name, wrapper)

    counting("top_coeffs", lambda row, k, ell, variables: (row.name, ell))
    counting("level_traces", lambda k, ell: ell)
    counting("char_value_on_unit", lambda row, unit: (row.name, unit.k))

    def measured(*args, **kwargs):
        built.clear()
        out = real_pq(*args, **kwargs)
        per_call.append((dict(built), len(out[1])))
        return out

    monkeypatch.setattr(cases_mod, "solve_order_pq", measured)
    _case_thm32(12, 11, 3)
    _case_thm32(12, 11, 3)
    (first, pairs), again = per_call
    # one row group: pi, rho and tau at the residues of orbit_residues(33);
    # the pi equalities read (pi, 1) and (pi, 3), which the rows already
    # have, and each row is read once on each distinct lower vector: the
    # order-3 power of each pair, and the forced order-11 power, which is
    # the same in every pair
    ells = (0, 1, 3, 11)
    names = ("pi", "rho", "tau")
    assert first == {
        **{("top_coeffs", (name, ell)): 1 for name in names for ell in ells},
        **{("level_traces", ell): 1 for ell in ells},
        **{("char_value_on_unit", (name, 3)): pairs for name in names},
        **{("char_value_on_unit", (name, 11)): 1 for name in names},
    }
    assert pairs == 90
    assert again == (first, pairs)


def test_lattices_are_shared_within_one_solve_order_pq_call_only(monkeypatch):
    # one Hermite pass over the equality rows per matrix, one continuation
    # of it per distinct (rows, kept forms) lattice, and one reduction of
    # the system lattice's kept slack rows per distinct (rows, kept forms)
    # core trial, as every trial here searches its system's lattice
    hermite_calls = 0
    lattices, trials, matrices = set(), set(), []
    per_call = []
    real_hermite, real_lattice, real_trial, real_pq = (
        solver._column_hermite, solver._lattice, solver._Matrix.trial, cases_mod.solve_order_pq
    )

    def counting(*args):
        nonlocal hermite_calls
        hermite_calls += 1
        return real_hermite(*args)

    def recording(matrix, kept):
        lattices.add((matrix.rows, kept))
        if not any(known is matrix for known in matrices):
            matrices.append(matrix)
        return real_lattice(matrix, kept)

    def trying(matrix, kept):
        trials.add((matrix.rows, kept))
        return real_trial(matrix, kept)

    def measured(*args, **kwargs):
        lattices.clear()
        trials.clear()
        matrices.clear()
        before = hermite_calls
        out = real_pq(*args, **kwargs)
        per_call.append((hermite_calls - before, len(lattices), len(trials), len(matrices)))
        return out

    monkeypatch.setattr(solver, "_column_hermite", counting)
    monkeypatch.setattr(solver, "_lattice", recording)
    monkeypatch.setattr(solver._Matrix, "trial", trying)
    monkeypatch.setattr(cases_mod, "solve_order_pq", measured)
    _case_thm32(12, 11, 3)
    _case_thm32(12, 11, 3)
    (calls, distinct, tried, shared), again = per_call
    assert shared == 1
    assert 0 < calls == distinct + tried + shared
    assert again == (calls, distinct, tried, shared)


def test_thm32_12_11_3_pairs_visit_131_dfs_nodes(monkeypatch):
    nodes = []
    real = solver.enumerate_system

    def recording(system, matrix=None):
        report = real(system, matrix)
        if is_pair_system(system):
            nodes.append(report.stats["nodes"])
        return report

    monkeypatch.setattr(solver, "enumerate_system", recording)
    _case_thm32(12, 11, 3)
    assert (len(nodes), sum(nodes)) == (90, 131)


@pytest.mark.parametrize("run, matrices, structures, trials", [
    # the four pi forms of each of the 76 infeasible pairs get no trial
    (lambda: _case_thm32(12, 11, 3), 1, 19, 608),
    # three row groups: three matrices whose trials keep the same forms
    (lambda: run_case("s13-3x11"), 3, 8, 38),
], ids=["thm32-12-11-3", "s13-3x11"])
def test_core_trials_build_one_structure_per_matrix_and_kept_forms(
    run, matrices, structures, trials, monkeypatch
):
    builds, tried, fallbacks, current, in_core = [], [], [], None, False
    real_lattice, real_shared, real_trial, real_core, real_pq = (
        solver._lattice, solver._shared_trial, solver._Matrix.trial,
        solver._infeasible_core, cases_mod.solve_order_pq,
    )

    def falling_back(matrix, kept):
        if in_core:
            fallbacks.append((matrix.rows, kept))
        return real_lattice(matrix, kept)

    def trying(matrix, kept):
        nonlocal current
        current = (matrix.rows, kept)
        return real_trial(matrix, kept)

    def sharing(lat, kept):
        builds.append(current)
        return real_shared(lat, kept)

    def recording(system, matrix, slacks):
        nonlocal in_core
        in_core = True
        core = real_core(system, matrix, slacks)
        in_core = False
        rows = solver._matrix(system).rows
        # a form that the equalities fix at a non-negative integer gets no
        # trial and no trial keeps it; the greedy filter's trial of each
        # other form i keeps the earlier such forms that stayed in the core
        # and every later one
        names = [name for _, name in system.nonneg_integral]
        final = {names.index(name) for name in core}
        live = [
            i for i, (f, _) in enumerate(system.nonneg_integral)
            if not fixed_at_a_nonnegative_integer(system, f)
        ]
        for i in live:
            tried.append((rows, tuple(j for j in live if j > i or (j < i and j in final))))
        return core

    def measured(*args, **kwargs):
        builds.clear()
        tried.clear()
        return real_pq(*args, **kwargs)

    monkeypatch.setattr(solver, "_lattice", falling_back)
    monkeypatch.setattr(solver, "_shared_trial", sharing)
    monkeypatch.setattr(solver._Matrix, "trial", trying)
    monkeypatch.setattr(solver, "_infeasible_core", recording)
    monkeypatch.setattr(cases_mod, "solve_order_pq", measured)
    run()
    # each (matrix, kept forms) structure a trial needs is built once, on
    # its first trial, on its system's lattice, and never for the other
    # trials that keep the same forms; no trial builds a lattice of its own
    assert Counter(builds) == Counter(set(tried))
    assert (len({rows for rows, _ in tried}), len(builds), len(tried)) == (matrices, structures, trials)
    assert fallbacks == []


def half_equality_system():
    # a/2 + 1/2 = 1 with the augmentation: the one point is a = 1, b = 0
    a, b = var("3.1", 7), var("3.2", 7)
    equalities = [(cleared_form({a: Fraction(1, 2)}, Fraction(1, 2)), 1, "half")]
    forms = [
        (AffineForm.make({b: 1}, 5), "b low"),
        (AffineForm.make({b: -1}, 5), "b high"),
    ]
    return FeasibilitySystem.build([a, b], equalities, forms)


@pytest.mark.parametrize("builder, point, broken", [
    (unique_point_system, (2,), "equality"),
    (three_var_system, (100, -99, 0), "form"),
    # f1 = 2a/3 - b/3 + c + 2 is 8/3 at (1, 0, 0), where every other form
    # is a non-negative integer and the augmentation holds
    (three_var_system, (1, 0, 0), "form f1"),
    # a/2 + 1/2 is 3/2 at (2, -1): it misses 1 by a half, and the
    # augmentation holds
    (half_equality_system, (2, -1), "equality half"),
])
def test_enumerate_system_rejects_a_solution_that_violates_the_system(
    builder, point, broken, monkeypatch
):
    real = solver._solve

    def tampered(*args, **kwargs):
        report = real(*args, **kwargs)
        report.solutions = [point]
        return report

    monkeypatch.setattr(solver, "_solve", tampered)
    with pytest.raises(RuntimeError, match=f"violates {broken}"):
        enumerate_system(builder())


def recheck_system():
    # a/2 a non-negative integer and b + 5 >= 0, with the augmentation
    # a + b = 1: (2, -1) and (6, -5) are solutions
    a, b = var("3.1", 7), var("3.2", 7)
    forms = [
        (cleared_form({a: Fraction(1, 2)}, 0), "a/2"),
        (AffineForm.make({b: 1}, 5), "b + 5"),
    ]
    return FeasibilitySystem.build([a, b], [], forms)


def recheck_outcome(recheck, system, solutions) -> str | None:
    try:
        recheck(system, solutions)
    except RuntimeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("bad, broken", [
    ((2, 0), "equality augmentation"),
    ((8, -7), "form b + 5"),  # b + 5 = -2
    ((1, 0), "form a/2"),  # a/2 = 1/2
    # at one solution an equality is named before a form: a/2 = 1/2 too
    ((1, 1), "equality augmentation"),
])
def test_recheck_names_the_first_violating_solution_after_good_ones(bad, broken):
    # the good solutions come first, and a later one, (0, 0), violates the
    # augmentation: the column-wise re-check still names the first one
    system = recheck_system()
    solutions = [(2, -1), (6, -5), bad, (0, 0)]
    message = f"solver point {bad} violates {broken}"
    assert recheck_outcome(solver._recheck, system, solutions) == message
    assert recheck_outcome(solutionwise_recheck, system, solutions) == message
    assert recheck_outcome(solver._recheck, system, solutions[:2]) is None


def test_the_column_recheck_raises_as_the_per_solution_recheck():
    seen = Counter()

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(st.one_of(random_systems(max_vars=3, box=True), random_systems(max_vars=3, box=False)),
           st.data())
    def check(drawn, data):
        system, _ = drawn
        nvar = len(system.variables)
        report = enumerate_system(system)
        points = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * nvar), max_size=5))
        solutions = data.draw(st.permutations(report.solutions[:4] + points))
        outcome = recheck_outcome(solver._recheck, system, solutions)
        assert outcome == recheck_outcome(solutionwise_recheck, system, solutions)
        if outcome is None:
            seen["passes"] += 1
        else:
            seen["equality" if " violates equality " in outcome else "form"] += 1

    check()
    # both kinds of violation are named, and some lists pass
    assert {"passes", "equality", "form"} <= set(seen)


def test_solve_reads_the_leaves_a_column_at_a_time_as_one_leaf_at_a_time():
    seen = Counter()

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(st.one_of(random_systems(max_vars=4, box=True), random_systems(max_vars=4, box=False)),
           st.booleans(), st.data())
    def check(drawn, every_form, data):
        system, _ = drawn
        matrix = solver._matrix(system)
        nform = len(system.nonneg_integral)
        kept = tuple(j for j in range(nform) if every_form or data.draw(st.booleans()))
        lat = matrix.lattice(kept)
        rhs = solver._rhs(system)
        y = solver._particular(lat, rhs[:matrix.neq] + [rhs[matrix.neq + j] for j in kept])
        if y is None:
            return
        slacks = solver._slack_values(lat, y)
        leaves = []
        status, nodes = solver._search(lat, slacks, leaves)
        report = solver._solve(lat, y, slacks, system.variables)
        assert (report.status, report.stats["nodes"]) == (status, nodes)
        if status == "solutions":
            # the leaves come in increasing order, one node each
            assert leaves == sorted(set(leaves)) and nodes >= len(leaves)
            assert report.solutions == leafwise_solutions(lat, y, leaves)
            seen[min(len(leaves), 3), lat.wdim > 1] += 1

    check()
    assert {(1, False), (3, False), (3, True)} <= set(seen)


# ---------------------------------------------------------------------------
# property tests on random systems

PROPERTY_VARS = [var(token, 13) for token in ("3.1", "3.2", "3.3", "3.4")]
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def random_systems(draw, max_vars, box):
    """Random forms with denominators <= 5 over 1..max_vars variables.  With
    box, every variable also gets the forms x + B and -x + B, B <= 6, and
    the draw is (system, B); without, one extra equality may be added and
    the draw is (system, None)."""
    variables = PROPERTY_VARS[: draw(st.integers(1, max_vars))]

    def form():
        coeffs = {v: draw(small_fractions) for v in variables}
        return cleared_form(coeffs, draw(small_fractions))

    forms = [(form(), f"f{j}") for j in range(draw(st.integers(1, 3)))]
    equalities = []
    bound = None
    if box:
        bound = draw(st.integers(0, 6))
        for k, v in enumerate(variables):
            forms.append((AffineForm.make({v: 1}, bound), f"x{k} >= -B"))
            forms.append((AffineForm.make({v: -1}, bound), f"x{k} <= B"))
    elif draw(st.booleans()):
        equalities.append((form(), draw(st.integers(-3, 3)), "extra"))
    return FeasibilitySystem.build(variables, equalities, forms), bound


def linear_part(form, system, ray):
    return sum(coeff(form, v) * r for v, r in zip(system.variables, ray))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(random_systems(max_vars=3, box=True))
def test_boxed_random_systems_match_brute_force(drawn):
    system, bound = drawn
    report = enumerate_system(system)
    expected = brute_force_solutions(system, bound)
    assert report.status in ("infeasible", "solutions")
    assert report.solutions == expected
    assert (report.status == "infeasible") == (expected == [])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(random_systems(max_vars=4, box=False))
def test_unbounded_random_systems_report_a_recession_ray(drawn):
    system, _ = drawn
    report = enumerate_system(system)
    if report.status != "unbounded":
        return
    ray = report.ray
    assert any(ray)
    for f, _, _ in system.equalities:
        assert linear_part(f, system, ray) == 0
    for f, _ in system.nonneg_integral:
        assert linear_part(f, system, ray) >= 0


def half_integer_a_system():
    # a + b + c + d = 1, b >= 0, b <= -1 and 2a + 1 = 0: the relaxation of
    # the last two forms holds a = -1/2, and no integer a does
    a, b, c, d = PROPERTY_VARS
    forms = [
        (AffineForm.make({b: 1}, 0), "b"),
        (AffineForm.make({b: -1}, -1), "-b - 1"),
        (AffineForm.make({a: 2}, 1), "2a + 1"),
        (AffineForm.make({a: -2}, -1), "-2a - 1"),
    ]
    return FeasibilitySystem.build([a, b, c, d], [], forms)


def test_a_shared_trial_frees_the_system_directions_that_move_no_kept_slack():
    # keeping only the forms in a, b moves no kept slack of the system's
    # lattice: the trial frees it, finds no integer a = -1/2 and is
    # infeasible, as on the kept forms' own lattice.  Left as a coordinate
    # that no row bounds, b would read as open and the trial as unbounded
    system = half_integer_a_system()
    matrix = solver._matrix(system)
    lat = matrix.lattice((0, 1, 2, 3))
    slacks = solver._slack_values(lat, solver._particular(lat, solver._rhs(system)))
    kept = (2, 3)
    trial = solver._shared_trial(lat, kept)
    assert (lat.wdim, lat.nfree, trial.wdim, trial.nfree) == (2, 1, 1, 2)
    at_kept = [slacks[j] for j in kept]
    assert solver._search(trial, at_kept)[0] == "infeasible"
    assert solver._search(matrix.lattice(kept), at_kept)[0] == "infeasible"


def test_core_trials_from_the_system_point_match_trials_from_their_own():
    # a trial keeps a subset of its system's rows, so the system's integer
    # point solves it too, and the trial's own point differs from it by an
    # integer kernel vector: on the trial's own lattice the search ranges
    # move by integers, and the status and node count stay.  With that
    # point, a trial whose kept forms have the system's lattice
    # (same_lattice) searches the system's lattice instead: it has the same
    # integer points and the same relaxation, so the status stays.  The
    # extra form x0 + 1/2 is never an integer, so the system has no point
    # and each trial falls back to its own lattice and point; -x0 - 7 is
    # integral and, in a box |x0| <= 6, never >= 0.  Dens up to 5 clear to
    # 4 and 12 too, whose square factor sends a trial to its own lattice
    seen = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.one_of(random_systems(max_vars=3, box=True), random_systems(max_vars=3, box=False)),
        st.sampled_from(["", "x0 + 1/2", "-x0 - 7"]),
        st.data(),
    )
    def check(drawn, extra, data):
        system, _ = drawn
        if extra:
            x0 = system.variables[0]
            form = (
                cleared_form({x0: 1}, Fraction(1, 2)) if "/" in extra
                else AffineForm.make({x0: -1}, -7)
            )
            system = FeasibilitySystem(
                system.variables, system.equalities, (*system.nonneg_integral, (form, extra))
            )
        matrix, rhs = solver._matrix(system), solver._rhs(system)
        neq, nform = len(system.equalities), len(system.nonneg_integral)
        system_point = solver._particular(matrix.lattice(tuple(range(nform))), rhs)
        kept_of, trials, substitutions = {}, [], 0
        real_lattice, real_trial, real_search, real_particular = (
            solver._lattice, solver._Matrix.trial, solver._search, solver._particular
        )

        def building(matrix, kept):
            lat = real_lattice(matrix, kept)
            kept_of[id(lat)] = kept
            return lat

        def trying(matrix, kept):
            trial = real_trial(matrix, kept)
            kept_of[id(trial)] = kept
            return trial

        def substituting(lat, rhs):
            nonlocal substitutions
            substitutions += 1
            return real_particular(lat, rhs)

        def searching(lat, slacks, leaves=None):
            found = real_search(lat, slacks, leaves)
            if leaves is None:
                kept = kept_of[id(lat)]
                own = real_lattice(matrix, kept)
                y = real_particular(own, rhs[:neq] + [rhs[neq + j] for j in kept])
                at_own = real_search(own, solver._slack_values(own, y))
                shared = isinstance(lat, solver._Trial)
                trials.append((kept, shared, found, at_own, real_search(own, slacks)))
            return found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_lattice", building)
            mp.setattr(solver._Matrix, "trial", trying)
            mp.setattr(solver, "_search", searching)
            mp.setattr(solver, "_particular", substituting)
            report = enumerate_system(system)
        for kept, shared, found, at_own, at_system_point in trials:
            assert found[0] == at_own[0]
            assert at_system_point == at_own
            assert shared == (system_point is not None and matrix.same_lattice(kept))
            if not shared:
                assert found == at_own
            point = system_point is not None
            seen["shared" if shared else "own lattice" if point else "own point"] += 1
        if extra == "x0 + 1/2":
            assert system_point is None and report.status == "infeasible"
        # one forward substitution per system, and one per trial only without
        # a system point, where every form gets its trial
        assert substitutions == 1 + (nform if system_point is None else 0)
        # any kept forms with the system's lattice, not only a core's: the
        # system's lattice gives each the status of the kept forms' own
        kept = tuple(j for j in range(nform) if data.draw(st.booleans()))
        if system_point is not None and matrix.same_lattice(kept):
            lat = matrix.lattice(tuple(range(nform)))
            at_kept = [solver._slack_values(lat, system_point)[j] for j in kept]
            status = solver._search(solver._shared_trial(lat, kept), at_kept)[0]
            assert status == solver._search(matrix.lattice(kept), at_kept)[0]
            seen["any kept", status] += 1

    check()
    assert {"shared", "own lattice", "own point"} <= set(seen)
    assert {("any kept", status) for status in ("infeasible", "solutions", "unbounded")} <= set(seen)


def parity_system():
    # a + b = 1 with a even and 0 <= a <= 1: the relaxation holds a = 1,
    # so only the parity of a/2 makes the system infeasible
    a, b = var("3.1", 7), var("3.2", 7)
    forms = [
        (cleared_form({a: Fraction(1, 2)}, 0), "a/2"),
        (AffineForm.make({a: -1}, 1), "1 - a"),
        (AffineForm.make({a: 1}, -1), "a - 1"),
    ]
    return FeasibilitySystem.build([a, b], [], forms)


def test_a_trial_whose_dropped_form_coarsens_the_lattice_falls_back_to_its_own(monkeypatch):
    # dropping a/2 drops the parity of a, so the trial that keeps only the
    # two bounds has more integer points than the system's lattice holds:
    # its ranks mod 2 (0 against 1) say so, and it searches a lattice of
    # its own, where a = 1 is a point.  The other trials keep a/2: a >= 1
    # leaves the even a unbounded, and a <= 1 leaves it 0
    system = parity_system()
    assert [f.den for f, _ in system.nonneg_integral] == [2, 1, 1]
    searched = []
    real_search = solver._search

    def searching(lat, slacks, leaves=None):
        status, nodes = real_search(lat, slacks, leaves)
        if leaves is None:
            searched.append((type(lat), status))
        return status, nodes

    monkeypatch.setattr(solver, "_search", searching)
    report = enumerate_system(system)
    monkeypatch.undo()
    assert report.status == "infeasible"
    assert report.certificate == public_deletion_filter(system) == ["a/2", "1 - a", "a - 1"]
    assert searched == [
        (solver._Lattice, "solutions"), (solver._Trial, "unbounded"), (solver._Trial, "solutions"),
    ]
    matrix = solver._matrix(system)
    assert [matrix.same_lattice(kept) for kept in [(1, 2), (0, 2), (0, 1)]] == [False, True, True]


def assert_chain_rows_combine_the_slack_rows(lat):
    """Each chain row's coefficients are exactly its positive multipliers
    times the lattice's slack rows on w: a row of level d bounds w_d and
    reads no later coordinate, and a row with no coordinate is all zero.
    The rows with one multiplier are kept apart from the others."""

    def combination(lam):
        return tuple(sum(m * lat.slack_w[i][j] for i, m in lam) for j in range(lat.wdim))

    assert len(lat.bounds) == lat.wdim
    for d, coeffs, lam in chain_rows(lat):
        assert lam and all(m > 0 for _, m in lam)
        assert [i for i, _ in lam] == sorted({i for i, _ in lam})
        assert coeffs == combination(lam)
        if d is not None:
            assert coeffs[d] and not any(coeffs[d + 1:])
    many = [idx for _, sums in lat.bounds for _, idx, _ in sums] + [idx for idx, _ in lat.sums]
    assert all(len(idx) > 1 for idx in many)


def test_one_chain_per_lattice_solves_like_the_concrete_chain_of_each_point():
    # a lattice's chain serves every right-hand side: at each point its
    # constants are lam . K, and the solve reports exactly what projecting
    # that point's own slack inequalities reported.  Each lattice is solved
    # at its system's point and at the point of another right-hand side;
    # the extra form -x0 - 7 in a box |x0| <= 6 empties the relaxation
    seen = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.one_of(random_systems(max_vars=3, box=True), random_systems(max_vars=4, box=False)),
        st.booleans(),
        st.data(),
    )
    def check(drawn, empty, data):
        system, _ = drawn
        if empty:
            form = (AffineForm.make({system.variables[0]: -1}, -7), "-x0 - 7")
            system = FeasibilitySystem(
                system.variables, system.equalities, (*system.nonneg_integral, form)
            )
        matrix, rhs = solver._matrix(system), solver._rhs(system)
        rows = matrix.rows
        nvar, neq, nform = len(system.variables), len(system.equalities), len(system.nonneg_integral)
        kept = tuple(j for j in range(nform) if data.draw(st.booleans()))
        lat = solver._lattice(matrix, kept)
        assert_chain_rows_combine_the_slack_rows(lat)
        cols = [*range(nvar), *(nvar + j for j in kept)]
        kept_rows = [*range(neq), *(neq + j for j in kept)]
        z = data.draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
        other = [sum(rows[r][c] * x for c, x in zip(cols, z)) for r in kept_rows]
        for b in ([rhs[r] for r in kept_rows], other):
            y = solver._particular(lat, b)
            slacks = None if y is None else solver._slack_values(lat, y)
            if y is not None:
                assert_chain_rows_evaluate_to_lam_k(lat, slacks)
            report = solver._solve(lat, y, slacks, system.variables)
            assert report == concrete_solve(lat, y, system.variables)
            # a core trial reads only the status, and stops at its first point
            if y is not None:
                trial = concrete_solve(lat, y, system.variables, find_one=True)
                assert solver._search(lat, slacks) == (trial.status, trial.stats["nodes"])
            if y is None:
                seen["no integer point"] += 1
            elif report.status == "infeasible" and report.stats["nodes"] == 0:
                seen["empty relaxation"] += 1
            else:
                seen[report.status] += 1

    check()
    assert set(seen) == {"no integer point", "empty relaxation", "infeasible", "solutions", "unbounded"}


def test_solutions_are_sorted_and_unique():
    report = enumerate_system(two_var_box_system())
    assert report.solutions == sorted(set(report.solutions))


def test_build_always_adds_the_augmentation_equality():
    a, b = var("3.1", 7), var("3.2", 7)
    system = FeasibilitySystem.build([a, b], [], [(AffineForm.make({a: 1, b: 1}, 0), "f")])
    aug, target, name = system.equalities[-1]
    assert (dict(aug.coeffs), aug.constant, target, name) == ({a: 1, b: 1}, 0, 1, "augmentation")


# ---------------------------------------------------------------------------
# the layered strategy


def test_solve_prime_order_s7_q5_with_pi_gives_the_trivial_vector():
    row = ordinary_row("pi", 7, 5)
    report = solve_prime_order(7, "S", 5, [(row, 0), (row, 1)])
    vectors = report_aug_vectors(report, 5, 7)
    assert vectors == [forced_vector(7, 5)]


def test_solve_prime_order_s13_q11_is_forced():
    row = ordinary_row("pi", 13, 11)
    report = solve_prime_order(13, "S", 11, [(row, 0), (row, 1)])
    assert report_aug_vectors(report, 11, 13) == [forced_vector(13, 11)]


def test_report_aug_vectors_equal_make_on_variables_out_of_class_order():
    # the class-order sort runs once per report, not once per solution: on
    # a system whose variables are not in class order, each vector is still
    # AugVector.make of its solution, zeros dropped and classes in order
    a, b = var("3.1", 7), var("3.2", 7)
    augmentation = (AffineForm.make({a: 1, b: 1}, 0), 1, "augmentation")
    forms = ((AffineForm.make({a: 1}, 2), "a low"), (AffineForm.make({a: -1}, 3), "a high"))
    report = enumerate_system(FeasibilitySystem((b, a), (augmentation,), forms))
    assert report.variables == (b, a) and len(report.solutions) == 6
    vectors = report_aug_vectors(report, 3, 7)
    assert vectors == [AugVector.make(3, 7, dict(zip(report.variables, sol))) for sol in report.solutions]
    assert [v.entries for v in vectors] == [
        ((a, 3), (b, -2)), ((a, 2), (b, -1)), ((a, 1),), ((b, 1),), ((a, -1), (b, 2)), ((a, -2), (b, 3)),
    ]
    with pytest.raises(ValueError, match="cannot support a unit of order 5"):
        report_aug_vectors(report, 5, 7)


def test_solve_level_hashes_no_row_per_system(monkeypatch):
    # the rows are numbered once per call: a call with ten lower levels
    # hashes a CharacterRow exactly as often as one with one
    n, p, q = 7, 5, 3
    pi, rho, tau = (ordinary_row(name, n, p * q) for name in ("pi", "rho", "tau"))
    rows_and_ells = [(row, ell) for row in (pi, rho, tau) for ell in (0, 1, 3, 5)]
    equalities = [(pi, 1, 0), (pi, q, 1)]
    lower = {p: AugVector.make(q, n, {prime_cycles(3, 1, n): 1}), q: forced_vector(n, p)}
    classes = allowed_support(n, p * q)
    hashes = 0
    real = CharacterRow.__hash__

    def counting(row):
        nonlocal hashes
        hashes += 1
        return real(row)

    monkeypatch.setattr(CharacterRow, "__hash__", counting)
    counts = []
    for lowers in ([lower], [lower] * 10):
        hashes = 0
        reports = solver._solve_level(classes, p * q, rows_and_ells, equalities, lowers)
        counts.append(hashes)
        assert len(reports) == len(lowers)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("fixed, missing", [((), 3), ((5,), 3), ((3,), 5)])
def test_solve_level_names_the_first_level_that_is_not_fixed(fixed, missing):
    # every form reads the levels 3 and 5 of an order-15 unit, so a system
    # whose lower levels miss one is rejected once, for the first missing
    # level, before its forms are built
    n, p, q = 7, 5, 3
    pi, rho = (ordinary_row(name, n, p * q) for name in ("pi", "rho"))
    vectors = {p: AugVector.make(q, n, {prime_cycles(3, 1, n): 1}), q: forced_vector(n, p)}
    lower = {d: vectors[d] for d in fixed}
    rows_and_ells = [(row, ell) for row in (pi, rho) for ell in (0, 1, 3, 5)]
    with pytest.raises(ValueError, match=f"^level {missing} of the unit is not fixed$"):
        solver._solve_level(allowed_support(n, p * q), p * q, rows_and_ells, [(pi, 1, 0)], [lower])
    # with no forms there is nothing to fix
    assert solver._solve_level(allowed_support(n, p * q), p * q, [], [], [lower])


def test_solve_prime_order_rejects_brauer_rows_of_the_same_modulus():
    row = CharacterRow.make("b", 4, {prime_cycles(2, 1, 7): 2}, modulus=3)
    with pytest.raises(ValueError):
        solve_prime_order(7, "S", 3, [(row, 0)])


def test_one_brauer_check_names_the_row_at_every_order():
    # top_coeffs is the one check; a brauer(3) row constrains neither the
    # order-3 stage nor the order-15 systems
    row = CharacterRow.make("b", 4, {prime_cycles(2, 1, 7): 2}, modulus=3)
    message = r"row b is a brauer\(3\) row; it cannot constrain units of order "
    with pytest.raises(ValueError, match=message + "3$"):
        solve_prime_order(7, "S", 3, [(row, 0)])
    q_rep = AugVector.make(3, 7, {prime_cycles(3, 1, 7): 1})
    with pytest.raises(ValueError, match=message + "15$"):
        solve_order_pq(
            7, "S", 5, 3, [q_rep], [forced_vector(7, 5)],
            [{"name": "main", "members": None, "rows_and_ells": [(row, 0)]}],
        )


def test_solve_prime_order_restricts_to_even_classes_for_alternating_groups():
    row = ordinary_row("pi", 9, 3)
    rep_s = solve_prime_order(9, "S", 3, [(row, 0), (row, 1)])
    rep_a = solve_prime_order(9, "A", 3, [(row, 0), (row, 1)])
    assert set(rep_a.variables) <= set(rep_s.variables)
    from sntorsion.partitions import parity

    assert all(parity(ct) == 1 for ct in rep_a.variables)


def test_solve_order_pq_rejects_groups_with_elements_of_that_order():
    with pytest.raises(ValueError):
        solve_order_pq(8, "S", 5, 3, [], [], [])


def test_every_entry_point_rejects_an_unknown_group_kind():
    # "a" is neither "S" nor "A"; it must not pass as A_n in one check and
    # as S_n in the next
    row = ordinary_row("pi", 11, 5)
    calls = [
        lambda: allowed_support(7, 10, "a"),
        lambda: has_element_of_order(7, 10, "a"),
        lambda: cases_mod.ordinary_row("pi", 11, 35, "a"),
        lambda: cases_mod.run_exclusion("a", 11, 7, 5, [(row, [0, 1])], [], []),
        lambda: solve_order_pq(7, "a", 5, 2, [], [], []),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown group kind 'a'"):
            call()


def test_solve_order_pq_excludes_s7_order_15():
    n = 7
    hook = ordinary_row("hook4", n, 15)
    q_rep = AugVector.make(3, n, {prime_cycles(3, 1, n): 1})
    verdict, results = solve_order_pq(
        n, "S", 5, 3, [q_rep], [forced_vector(n, 5)],
        [{"name": "main", "members": None, "rows_and_ells": [(hook, 0), (hook, 5)]}],
    )
    assert verdict == "excluded"
    assert all(r.report.status == "infeasible" for r in results)


def test_solve_order_pq_surfaces_surviving_candidates():
    # with no constraining rows beyond the augmentation, nothing is excluded
    n = 7
    principal = CharacterRow.make(
        "principal", 1,
        {ct: 1 for ct in allowed_support(n, 15)},
    )
    q_rep = AugVector.make(3, n, {prime_cycles(3, 1, n): 1})
    verdict, results = solve_order_pq(
        n, "S", 5, 3, [q_rep], [forced_vector(n, 5)],
        [{"name": "main", "members": None, "rows_and_ells": [(principal, 0)]}],
    )
    assert verdict == "undecided-unbounded"


def test_solve_order_pq_routes_each_candidate_to_one_row_group():
    n = 7
    hook = ordinary_row("hook4", n, 15)
    c31, c32 = prime_cycles(3, 1, n), prime_cycles(3, 2, n)
    v1, v2 = AugVector.make(3, n, {c31: 1}), AugVector.make(3, n, {c32: 1})
    v3 = AugVector.make(3, n, {c31: 2, c32: -1})
    rows = [(hook, 0), (hook, 5)]

    def group(name, members):
        return {"name": name, "members": members, "rows_and_ells": rows}

    # v2 is in both explicit groups, and the first one wins even after the
    # fallback; v3 is in none, so it falls back to the group without members
    groups = [group("rest", None), group("first", [v1, v2]), group("second", [v2])]
    _, results = solve_order_pq(n, "S", 5, 3, [v1, v2, v3], [forced_vector(n, 5)], groups)
    assert sorted((r.q_candidate.entries, r.group) for r in results) == sorted([
        (v1.entries, "first"), (v2.entries, "first"), (v3.entries, "rest"),
    ])
    with pytest.raises(ValueError, match="candidate not covered by any row group"):
        solve_order_pq(n, "S", 5, 3, [v1, v2], [forced_vector(n, 5)], [group("first", [v1])])


def test_s13_pipeline_counts(s13_order3_table):
    t3 = s13_order3_table
    stage1 = [
        (t3.row("phi2_3"), 0), (t3.row("phi2_3"), 1),
        (t3.row("phi2_4"), 0), (t3.row("phi2_4"), 1),
        (t3.row("phi2_5"), 0), (t3.row("phi2_6"), 0),
    ]
    report = solve_prime_order(13, "S", 3, stage1)
    assert len(report.solutions) == 141
    kept = filter_order_q_powers(13, 11, 3, report_aug_vectors(report, 3, 13))
    assert len(kept) == 18
