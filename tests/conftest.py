"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

import pytest

from sntorsion.cases import load_bundled_table
from sntorsion.cyclotomic import ramanujan_sum
from sntorsion.luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    char_value_on_unit,
    level_traces,
    parse_cycle_type,
    top_coeffs,
)
from sntorsion.partitions import Partition, check_partition, element_order, prime_cycles
from sntorsion.solver import (
    FeasibilitySystem, SolveReport, _chain, _interval, _Lattice, _Matrix, _recession_ray, _Trial,
)


@pytest.fixture(scope="session")
def s13_order3_table():
    return load_bundled_table("s13-mod2-order3.tbl")


@pytest.fixture(scope="session")
def s13_order33_table():
    return load_bundled_table("s13-mod2-order33.tbl")


def brute_force_solutions(
    system: FeasibilitySystem, bound: int, integral: tuple[AffineForm, ...] = ()
) -> list[tuple[int, ...]]:
    """All integer points of the system inside the box [-bound, bound]^vars,
    by exhaustive scan of each form's integer numerator.  Each form of
    `integral` must be an integer too, of either sign."""
    nvar = len(system.variables)

    def numerators(f: AffineForm) -> list[int]:
        coeffs = dict(f.coeffs)
        return [coeffs.get(v, 0) for v in system.variables]

    constraints = []  # (int coeffs, int const, kind, den*target or den)
    for f, target, _ in system.equalities:
        constraints.append((numerators(f), f.constant, "eq", f.den * target))
    for f, _ in system.nonneg_integral:
        constraints.append((numerators(f), f.constant, "nonneg-int", f.den))
    for f in integral:
        constraints.append((numerators(f), f.constant, "int", f.den))
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
                # form value is value/aux; needs to be an integer, and >= 0
                # unless only its integrality is asked
                if value % aux or (kind == "nonneg-int" and value < 0):
                    ok = False
                    break
        if ok:
            found.append(point)
    return found


def cleared_form(coeffs: dict[Partition, Fraction | int], constant: Fraction | int) -> AffineForm:
    """The AffineForm of a rational affine form: its coefficients and
    constant times den, the lcm of their denominators, over den."""
    values = [Fraction(c) for c in (*coeffs.values(), constant)]
    den = lcm(*(c.denominator for c in values))
    *numerators, const = (int(c * den) for c in values)
    return AffineForm.make(dict(zip(coeffs, numerators)), const)._replace(den=den)


def coeff(form: AffineForm, var: Partition) -> Fraction:
    """The rational coefficient of var in form (0 when absent)."""
    return Fraction(dict(form.coeffs).get(var, 0), form.den)


def evaluate(form: AffineForm, point: dict[Partition, int]) -> Fraction:
    """The exact value of form at point (absent variables count as 0)."""
    return Fraction(form.constant + sum(c * point.get(v, 0) for v, c in form.coeffs), form.den)


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
    coeffs = {v: Fraction(c, form.den) for v, c in form.coeffs if v != var}
    for v, c in equality.coeffs:
        if v != var:
            coeffs[v] = coeffs.get(v, Fraction(0)) - factor * Fraction(c, equality.den)
    const = Fraction(form.constant, form.den) + factor * (
        target - Fraction(equality.constant, equality.den)
    )
    return cleared_form(coeffs, const)


def lower_constant(row: CharacterRow, traces: dict[int, int], values: dict[int, int]) -> int:
    """The constant part of k times the multiplicity of zeta^ell for a unit
    of order k: the identity's share row.degree plus the share of every
    proper power level d > 1, given its trace traces[d] (level_traces) and
    the row's value values[d] on the fixed level (char_value_on_unit)."""
    total = row.degree
    for d, trace in traces.items():
        if d not in values:
            raise ValueError(f"level {d} of the unit is not fixed")
        total += values[d] * trace
    return total


def affine_form(
    row: CharacterRow,
    k: int,
    ell: int,
    lower_levels: dict[int, AugVector],
    variables: list[Partition],
) -> AffineForm:
    """Multiplicity of zeta^ell for a unit of order k as an affine form in
    the top-level augmentation variables, with all proper power levels d > 1
    fixed by `lower_levels`: a fresh top_coeffs plus lower_constant, the
    oracle for the forms that the solver shares across systems."""
    values = {d: char_value_on_unit(row, v) for d, v in lower_levels.items()}
    return AffineForm(
        top_coeffs(row, k, ell, variables),
        lower_constant(row, level_traces(k, ell), values),
        k,
    )


def is_pair_system(system: FeasibilitySystem) -> bool:
    """Whether the system is an order-pq pair system of solve_order_pq
    rather than the order-q system of solve_prime_order: its classes have
    more than one element order."""
    return len({element_order(ct) for ct in system.variables}) > 1


# ---------------------------------------------------------------------------
# oracle: the row-major Hermite elimination that solver._lattice replaced,
# with a separate transform u and one appended unit row per kept slack


def row_major_hermite(rows: list[list[int]], ncols: int):
    """Column-style Hermite elimination of a row-major matrix.

    Returns (a, u, pivots): a = rows . u is in column echelon form with its
    pivot columns first, u is unimodular, and pivots lists the (row, column)
    pivot positions of a.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_op(dst: int, src: int, factor: int) -> None:
        for i in range(m):
            a[i][dst] += factor * a[i][src]
        for i in range(ncols):
            u[i][dst] += factor * u[i][src]

    def col_swap(c1: int, c2: int) -> None:
        for i in range(m):
            a[i][c1], a[i][c2] = a[i][c2], a[i][c1]
        for i in range(ncols):
            u[i][c1], u[i][c2] = u[i][c2], u[i][c1]

    pivots: list[tuple[int, int]] = []
    pc = 0
    for row in range(m):
        if pc >= ncols:
            break
        while True:
            nz = [c for c in range(pc, ncols) if a[row][c]]
            if not nz:
                break
            c0 = min(nz, key=lambda c: abs(a[row][c]))
            if c0 != pc:
                col_swap(pc, c0)
            done = True
            for c in range(pc + 1, ncols):
                if a[row][c]:
                    col_op(c, pc, -(a[row][c] // a[row][pc]))
                    if a[row][c]:
                        done = False
            if done:
                break
        if a[row][pc]:
            pivots.append((row, pc))
            pc += 1
    return a, u, pivots


class HermiteSplit(NamedTuple):
    """The fields of solver._Lattice that its Hermite elimination gives."""

    pivot_col: tuple[int | None, ...]
    echelon: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    slack_y: tuple[tuple[int, ...], ...]
    slack_w: tuple[tuple[int, ...], ...]
    rank: int
    wdim: int


def row_major_lattice(rows, nvar: int, neq: int, kept: tuple[int, ...]) -> HermiteSplit:
    """One Hermite elimination of the rows of a solver._matrix that a solve
    keeps: the neq equality rows and the slack-link rows of the forms in
    `kept`, over the nvar variables and those forms' slacks, followed by one
    unit row per kept slack.

    The pivots in the integer rows give the rank and the echelon data of
    _particular; the columns past the rank span the integer kernel.  The
    unit rows only combine those kernel columns, where the integer rows are
    already zero, and their pivots are the slack-moving coordinates w; the
    remaining kernel columns are the directions v.  The rows of u are the
    variables, kept whole, then the slacks, split into their y and w parts.
    """
    cols = [*range(nvar), *(nvar + j for j in kept)]
    sub = [[rows[r][c] for c in cols] for r in [*range(neq), *(neq + j for j in kept)]]
    m, nform, ncols = len(sub), len(kept), len(cols)
    units = [[int(c == nvar + i) for c in range(ncols)] for i in range(nform)]
    a, u, pivots = row_major_hermite(sub + units, ncols)
    rank = sum(row < m for row, _ in pivots)
    wdim = len(pivots) - rank
    # the lattice keeps no v part of a slack row: it is zero
    assert not any(any(r[rank + wdim:]) for r in u[nvar:])
    pivot_of_row = dict(pivots)
    return HermiteSplit(
        tuple(pivot_of_row.get(r) for r in range(m)),
        tuple(tuple(r[:rank]) for r in a[:m]),
        tuple(map(tuple, u[:nvar])),
        tuple(tuple(r[:rank]) for r in u[nvar:]),
        tuple(tuple(r[rank:rank + wdim]) for r in u[nvar:]),
        rank, wdim,
    )


# ---------------------------------------------------------------------------
# oracle: the elimination of solver._lattice, written out again with a
# Hermite elimination of its own


def scratch_hermite(cols: list[list[int]], pivot_rows) -> list[tuple[int, int]]:
    """Column-style Hermite elimination, in place, of a matrix given as its
    list of columns: at most one pivot in each of `pivot_rows`, in order,
    with the pivot columns first.  Returns the (row, column) pivots."""
    ncols = len(cols)
    pivots: list[tuple[int, int]] = []
    pc = 0
    for row in pivot_rows:
        if pc >= ncols:
            break
        while True:
            nz = [c for c in range(pc, ncols) if cols[c][row]]
            if not nz:
                break
            c0 = min(nz, key=lambda c: abs(cols[c][row]))
            cols[pc], cols[c0] = cols[c0], cols[pc]
            src = cols[pc]
            done = True
            for c in range(pc + 1, ncols):
                if cols[c][row]:
                    factor = -(cols[c][row] // src[row])
                    cols[c] = [a + factor * b for a, b in zip(cols[c], src)]
                    if cols[c][row]:
                        done = False
            if done:
                break
        if cols[pc][row]:
            pivots.append((row, pc))
            pc += 1
    return pivots


def scratch_lattice(rows, nvar: int, neq: int, kept: tuple[int, ...]) -> _Lattice:
    """One Hermite elimination of the rows of a solver._matrix that a solve
    keeps, the equality rows included, over the variables and the kept
    forms' slacks, each column stacked over the identity u, then the
    slack rows of u."""
    cols = [*range(nvar), *(nvar + j for j in kept)]
    kept_rows = [*range(neq), *(neq + j for j in kept)]
    m, ncols = len(kept_rows), len(cols)
    stacked = []
    for k, c in enumerate(cols):
        unit = [0] * ncols
        unit[k] = 1
        stacked.append([rows[r][c] for r in kept_rows] + unit)
    pivots = scratch_hermite(stacked, [*range(m), *range(m + nvar, m + ncols)])
    a = list(zip(*stacked)) or [()] * m
    rank = sum(row < m for row, _ in pivots)
    wdim = len(pivots) - rank
    nfree = ncols - len(pivots)
    pivot_of_row = dict(pivots)
    slack_rows = a[m + nvar:]
    return _Lattice(
        tuple(pivot_of_row.get(r) for r in range(m)),
        tuple(r[:rank] for r in a[:m]),
        tuple(a[m:m + nvar]),
        tuple(r[:rank] for r in slack_rows),
        tuple(r[rank:rank + wdim] for r in slack_rows),
        rank, wdim, nfree,
    )


def scratch_search(lat: _Lattice, forms) -> _Trial:
    """What solver._search reads of a lattice that keeps every slack's
    sign: solver._chain of its slack rows on its own coordinates w, with
    no reduction, as solver._Matrix.chain is for a matrix's lattice; slack
    row t is form forms[t]'s, which its multipliers name."""
    return _Trial(lat.wdim, lat.nfree, *_chain(lat.slack_w, lat.wdim, forms))


def mask_of(forms) -> int:
    """The bitmask of form indices in which the solver writes a set of
    forms."""
    return sum(1 << j for j in forms)


def forms_of(mask: int) -> tuple[int, ...]:
    """The form indices of a solver's set of forms, in increasing order."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def kept_matrix(matrix: _Matrix, kept: tuple[int, ...]) -> _Matrix:
    """The solver._Matrix of a matrix's equality rows and the link rows of
    the forms in `kept`, over its variables and those forms' slacks: its
    lattice is solver._lattice(matrix, kept), and its chain keeps those
    forms as its slacks 0, 1, ..."""
    cols = [*range(matrix.nvar), *(matrix.nvar + j for j in kept)]
    rows = [*matrix.rows[:matrix.neq], *(matrix.rows[matrix.neq + j] for j in kept)]
    return _Matrix(tuple(tuple(row[c] for c in cols) for row in rows), matrix.nvar, matrix.neq)


def sign_trial_lattice(rows, nvar: int, neq: int, kept: tuple[int, ...]) -> _Lattice:
    """The scratch_lattice of a core trial of a solver._matrix that keeps
    the sign of the forms in `kept` and the integrality of every form: the
    link row of each other form joins the equality rows, and its slack the
    variables, so the trial's kept slack t is form kept[t]'s."""
    dropped = [j for j in range(len(rows) - neq) if j not in kept]
    cols = [*range(nvar), *(nvar + j for j in dropped), *(nvar + j for j in kept)]
    order = [*range(neq), *(neq + j for j in dropped), *(neq + j for j in kept)]
    moved = [[rows[r][c] for c in cols] for r in order]
    return scratch_lattice(moved, nvar + len(dropped), neq + len(dropped), tuple(range(len(kept))))


# ---------------------------------------------------------------------------
# oracle: the per-solve Fourier-Motzkin elimination of concrete rows
# (coeffs . t + const >= 0) that solver._chain replaced, and the solve that
# projected each system's own slack inequalities with it

Ineq = tuple[tuple[int, ...], int]


def normalize(coeffs: tuple[int, ...], const: int) -> Ineq:
    g = gcd(*coeffs, const)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const = const // g
    return coeffs, const


def fm_eliminate(ineqs: set[Ineq], var: int) -> set[Ineq] | None:
    """Project away one variable; None when a constant row is violated."""
    pos, neg, zero = [], [], []
    for coeffs, const in ineqs:
        c = coeffs[var]
        if c > 0:
            pos.append((coeffs, const))
        elif c < 0:
            neg.append((coeffs, const))
        else:
            zero.append((coeffs, const))
    out: set[Ineq] = set()
    for coeffs, const in zero:
        if any(coeffs):
            out.add(normalize(coeffs, const))
        elif const < 0:
            return None
    for pc, pk in pos:
        for nc, nk in neg:
            a, b = pc[var], -nc[var]
            coeffs = tuple(b * pc[i] + a * nc[i] for i in range(len(pc)))
            const = b * pk + a * nk
            if any(coeffs):
                out.add(normalize(coeffs, const))
            elif const < 0:
                return None
    return out


def fm_chain(ineqs: set[Ineq], nvars: int) -> list[set[Ineq]] | None:
    """One Fourier-Motzkin projection chain: chain[d] holds the rows over
    variables 0..d of the projection of the relaxation, eliminating from the
    last variable down.  None when the relaxation is empty."""
    chain = [ineqs]
    for var in range(nvars - 1, -1, -1):
        rows = fm_eliminate(chain[-1], var)
        if rows is None:
            return None
        chain.append(rows)
    return chain[-2::-1]


def as_bounds(chain: list[set[Ineq]]) -> tuple:
    """An fm_chain in the form of the bounds of solver._chain, as
    solver._recession_ray reads them: each level's rows that bound its own
    variable, kept as one-multiplier rows whose slack index is not read."""
    return tuple((tuple((c, 0) for c, _ in rows if c[d]), ()) for d, rows in enumerate(chain))


def concrete_solve(lat: _Lattice, y, variables, find_one: bool = False) -> SolveReport:
    """solver._solve as it was before the chain moved to the lattice: each
    solve projects its own slack inequalities, constants included, from the
    point u . (y, 0, 0) of the pivot coordinates y (None: no point)."""
    nvar = len(variables)
    report = SolveReport(status="infeasible", variables=variables, stats={"nodes": 0})
    if y is None:
        return report
    point = [sum(a * b for a, b in zip(row, y)) for row in (*lat.u, *lat.slack_y)]
    rank, wdim = lat.rank, lat.wdim
    nfree = nvar + len(lat.slack_w) - rank - wdim
    ineqs: set[Ineq] = set()
    for w_row, const in zip(lat.slack_w, point[nvar:]):
        if any(w_row):
            ineqs.add(normalize(w_row, const))
        elif const < 0:
            return report

    def x_ray(direction) -> tuple[int, ...]:
        ray = [sum(m * d for m, d in zip(row[rank:], direction)) for row in lat.u]
        g = gcd(*ray)
        return tuple(c // g for c in ray) if g > 1 else tuple(ray)

    chain = fm_chain(ineqs, wdim)
    if chain is None:
        return report
    for d, rows in enumerate(chain):
        if len({coeffs[d] > 0 for coeffs, _ in rows if coeffs[d]}) < 2:
            report.status = "unbounded"
            if not find_one:
                report.ray = x_ray(_recession_ray(as_bounds(chain), d))
            return report
    leaves: list[tuple[int, ...]] = []
    nodes = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        nodes += 1
        depth = len(prefix)
        if depth == wdim:
            leaves.append(prefix)
            if find_one or nfree:
                break
        else:
            rows = [(coeffs, const, 0) for coeffs, const in chain[depth]]
            (lo, lo_den), (hi, hi_den), _ = _interval(rows, depth, prefix)
            stack += [prefix + (value,) for value in range(hi // hi_den, -(-lo // lo_den) - 1, -1)]
    report.stats["nodes"] = nodes
    if leaves:
        report.status = "unbounded" if nfree else "solutions"
    if leaves and not find_one:
        if nfree:
            report.ray = x_ray((0,) * wdim + (1,))
        else:
            report.solutions = leafwise_solutions(lat, y, leaves)
    return report


# the per-item loops that solver._solve, solver._recheck and
# lemma_filters.filter_order_q_powers replaced with passes over whole
# columns: the oracles of the column-wise code


def leafwise_solutions(lat: _Lattice, y, leaves) -> list[tuple[int, ...]]:
    """The sorted points u . (y, w, 0) of the leaves w, one leaf at a time."""
    rank = lat.rank
    u_w = [row[rank:] for row in lat.u]
    point = [sum(map(mul, row, y)) for row in lat.u]
    return sorted(
        tuple(x + sum(map(mul, row, w)) for row, x in zip(u_w, point)) for w in leaves
    )


def solutionwise_recheck(system: FeasibilitySystem, solutions) -> None:
    """The re-check of every solution against the system's forms, one
    solution at a time: at the first violating solution, the first
    equality, else form, that it violates is a RuntimeError."""
    index = {v: i for i, v in enumerate(system.variables)}

    def dense(f: AffineForm) -> list[int]:
        row = [0] * len(index)
        for v, c in f.coeffs:
            row[index[v]] += c
        return row

    equalities = [
        (dense(f), f.constant, f.den * target, name) for f, target, name in system.equalities
    ]
    forms = [(dense(f), f.constant, f.den, name) for f, name in system.nonneg_integral]
    for sol in solutions:
        for row, const, value, name in equalities:
            if const + sum(map(mul, row, sol)) != value:
                raise RuntimeError(f"solver point {sol} violates equality {name}")
        for row, const, den, name in forms:
            if (v := const + sum(map(mul, row, sol))) < 0 or v % den:
                raise RuntimeError(f"solver point {sol} violates form {name}")


def candidatewise_filter(n: int, p: int, q: int, candidates: list[AugVector]) -> list[AugVector]:
    """The weighted-sum filter of filter_order_q_powers, one candidate at
    a time: each candidate's entries become a dict, and each class q.j is
    looked up in it."""
    classes = [prime_cycles(q, j, n) for j in range(1, n // q + 1)]
    kept = []
    for v in candidates:
        eps = dict(v.entries)
        s = sum(j * eps.get(ct, 0) for j, ct in enumerate(classes, 1))
        if s == 0 or (s == 1 and p + q in (n, n + 1)):
            kept.append(v)
    return kept


# the oracle for solver._recession_ray, which reads the ray off the search's
# chain: this one projects the pinned homogeneous rows itself, so it is the
# ray to restore if the search stops projecting by Fourier-Motzkin
def pinned_recession_ray(ineqs: set[Ineq], wdim: int, var: int) -> tuple[int, ...]:
    """A nonzero integer direction of the relaxation's recession cone that
    moves variable `var`: one rational point of the homogeneous rows with
    var pinned to +1 or -1, read off their projection chain."""
    hom = {normalize(coeffs, 0) for coeffs, _ in ineqs}
    for sign in (1, -1):
        pin = (tuple(sign if i == var else 0 for i in range(wdim)), -1)
        chain = fm_chain(hom | {pin}, wdim)
        if chain is None:
            continue
        point: list[Fraction] = []
        for d, rows in enumerate(chain):
            lo, hi, _ = _interval([(c, k, 0) for c, k in rows], d, point)
            side = lo if lo is not None else hi
            point.append(Fraction(*side) if side is not None else Fraction(0))
        den = lcm(*(f.denominator for f in point))
        return tuple(int(f * den) for f in point)
    raise RuntimeError("no recession ray found for an unbounded variable")


# ---------------------------------------------------------------------------
# oracles: closed forms and whole-unit formulas that the tests compare the
# package's recursions and affine forms against


def identity_partition(n: int) -> Partition:
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1,) * n


def power_cycle_type(mu: Partition, d: int) -> Partition:
    """Cycle type of sigma^d for sigma of cycle type mu.

    Each cycle of length c falls apart into gcd(c, d) cycles of length
    c / gcd(c, d).
    """
    check_partition(mu)
    if d < 1:
        raise ValueError("exponent must be >= 1")
    parts: list[int] = []
    for c in mu:
        g = gcd(c, d)
        parts.extend([c // g] * g)
    return tuple(sorted(parts, reverse=True))


def class_size(mu: Partition) -> int:
    """Number of permutations of cycle type mu in S_n, n = sum(mu)."""
    check_partition(mu)
    z = 1
    for c in set(mu):
        m = mu.count(c)
        z *= c**m * factorial(m)
    return factorial(sum(mu)) // z


def parse_class(token: str, n: int) -> Partition:
    """Inverse of luthar_passi.format_class for degree n."""
    if token == "1":
        return identity_partition(n)
    if "." in token and "+" not in token and "^" not in token:
        r_s, j_s = token.split(".", 1)
        return prime_cycles(int(r_s), int(j_s), n)
    return parse_cycle_type(token, n)


class UnsupportedClosedForm(ValueError):
    """Raised for a (character, class) pair without a stated closed form."""


def closed_form_value(name: str, n: int, r: int | None = None, j: int | None = None) -> int:
    """Closed-form value of the named character of S_n at the identity (r
    and j None) or at the class r.j, exactly the patterns with a stated
    formula.
    """
    if r is not None:
        prime_cycles(r, j, n)  # ValueError unless r.j is a class of S_n
    cls = "1" if r is None else f"{r}.{j}"
    if name == "pi":
        if r is None:
            return n - 1
        return n - 1 - r * j
    if name == "pi_sgn":
        if r is None:
            return n - 1
        sign = (-1) ** j if r == 2 else 1
        return sign * (n - 1 - r * j)
    if name == "rho":
        if r is None:
            return (n - 1) * (n - 2) // 2
        if r == 2:
            # the 2-cycles contribute beyond the fixed-point count
            raise UnsupportedClosedForm(f"rho has no stated closed form at {cls}")
        if j == 1:
            return (n - 1) * (n - 2) // 2 - r * (2 * n - r - 3) // 2
        if j == 2:
            return (n - 1) * (n - 2) // 2 - r * (2 * n - 2 * r - 3)
        raise UnsupportedClosedForm(f"rho has no stated closed form at {cls}")
    if name == "tau":
        if r == 3:
            # the 3-cycles contribute beyond the fixed-point count
            raise UnsupportedClosedForm(f"tau has no stated closed form at {cls}")
        if r is None:
            num = n * (n - 2) * (n - 4)
        else:
            f = n - r * j
            num = f * ((f - 1) * (f - 5) + 3)
        if num % 3:
            raise UnsupportedClosedForm(f"tau formula is not integral at {cls}")
        return num // 3
    raise UnsupportedClosedForm(f"{name} has no closed-form table")


@dataclass(frozen=True)
class UnitProfile:
    """Augmentation vectors of u^d for every proper divisor d of the order k
    (d = 1 is u itself)."""

    k: int
    n: int
    levels: tuple[tuple[int, AugVector], ...]

    @staticmethod
    def make(k: int, n: int, levels: dict[int, AugVector]) -> "UnitProfile":
        return UnitProfile(k, n, tuple(sorted(levels.items())))

    def __post_init__(self) -> None:
        for d, aug in self.levels:
            if d < 1 or d >= self.k or self.k % d != 0:
                raise ValueError(f"{d} is not a proper divisor of {self.k}")
            if aug.k != self.k // d:
                raise ValueError(f"level {d} must have order {self.k // d}, got {aug.k}")
            if aug.n != self.n:
                raise ValueError("degree mismatch inside profile")

    def level(self, d: int) -> AugVector:
        for dd, aug in self.levels:
            if dd == d:
                return aug
        raise KeyError(f"profile has no level {d}")

    @property
    def complete(self) -> bool:
        present = {d for d, _ in self.levels}
        return all(d in present for d in range(1, self.k) if self.k % d == 0)


def multiplicity(profile: UnitProfile, row: CharacterRow, ell: int) -> Fraction:
    """Multiplicity of zeta^ell as an eigenvalue of the unit under a
    representation affording the (ordinary, rational-valued) row."""
    if row.modulus is not None:
        raise ValueError("multiplicity requires an ordinary character row")
    if not profile.complete:
        raise ValueError("profile is missing a divisor level")
    k = profile.k
    total = Fraction(0)
    for d in range(1, k + 1):
        if k % d:
            continue
        chi = row.degree if d == k else char_value_on_unit(row, profile.level(d))
        total += chi * ramanujan_sum(k // d, ell)
    return total / k


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
            cls = prime_cycles(r, j, n)
            total += Fraction(r * j) * (lower.value(cls) - top.value(cls))
    return total / (p * q)
