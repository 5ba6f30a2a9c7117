"""Exact enumeration of integer partial-augmentation vectors.

A feasibility system consists of affine forms in the augmentation
variables, some pinned to exact integer values (the augmentation equality,
lemma constraints) and some required to be non-negative integers (the
eigenvalue multiplicities).  The solver is exact and self-contained:

1. every "form is an integer" condition, for a form of integers over den
   (the unit's order for a multiplicity), becomes the linear Diophantine
   equation numerator = den * s in a new integer slack s;
2. one column-style Hermite elimination of the equation matrix stacked over
   the identity u, carried on in the slack rows of u, gives the lattice:
   u's columns are split into the pivot coordinates y, the coordinates w
   that move the slacks and the directions v that leave every slack
   unchanged (they can only produce infinite solution families), and each
   row of u reads one variable or slack in (y, w, v); a slack row is zero
   on v.  Forward substitution of the right-hand side in the echelon rows
   gives either a contradiction or y, and so one integer point
   u . (y, 0, 0); every integer solution is that point plus u . (0, w, v),
   each slack is its value at the point plus a linear form in w, and a
   variable is read off its row only at a recorded solution;
3. exact Fourier-Motzkin elimination of the slack inequalities, from the
   last w coordinate down, gives one projection chain per lattice, for
   every right-hand side at once (_chain): each row carries, in place of
   its constant, its non-negative multiplier vector over the slack rows, so
   a solve reads the constant of each row as that vector times the slack
   values at its point.  The chain's rows with no coordinate left must be
   non-negative there, and the first coordinate must have a value (the
   last elimination, read off its range); then the first coordinate the
   chain leaves open on one side, which reads no constant, makes the
   relaxation unbounded, along the lattice's ray.
   Otherwise the depth-first enumeration, a loop over a stack of prefixes,
   fixes the coordinates from the first up and reads the integer range of
   each from the chain by floor division.  It stops at the first integer
   point when that point decides the report: in a core trial, which reads
   only the status, and on a lattice with directions v, which is unbounded
   along the first of them whatever other points exist.

One path decides every lattice, a one-point lattice included: its chain is
empty and its search visits the one leaf.  The eliminations of steps 2 and
3 depend only on the integer matrix, not on the right-hand side, and so
does an unbounded solve's ray: one _lattice holds them all, and a solve
only evaluates the chain's constants at its point (_solve).
Each system runs the forward substitution once, in enumerate_system, and
its core trials start from its integer point: a trial keeps a subset of
the system's rows, so the system's point, restricted to the variables and
the kept slacks, solves the trial too.  The trial's own point differs from
it by an integer kernel vector, so its w coordinates move by an integer
translation, which shifts each search range by an integer and changes no
node count or status.  Only a system without an integer point gives its
trials their own forward substitution.

One function, _solve_level, makes the systems of every level: one row set
over a list of lower levels, once for solve_prime_order and once per row
group for solve_order_pq.  Its systems have the same rows and differ only
in their lower levels, so it makes the linear part of each (row, ell) and
the level traces of each ell once (top_coeffs, level_traces), each row's
values on a system's lower levels once per system, and only the constant
per form (lower_constant).  Its systems share one integer matrix, read off
the first of them, so each contributes only its right-hand side, read off
its forms' constants (_rhs).  The systems and their infeasible-core trials
share one memo of lattices (_Matrix.lattice); it lives as long as the call,
so there is one per row group.  It holds one lattice per tuple of kept
forms (all of them for the system, all but the dropped ones for a core
trial), so a trial eliminates only when its lattice is new.

The infeasible core is a greedy deletion filter: one trial per form, each
re-solving the system without that form and the forms dropped before it.
A form that the equalities fix at a non-negative integer (no lattice
coordinate moves its slack) can never be needed, so it gets no trial; in
the Theorem-3.2 pair systems these are the mu_ell(pi) forms, which the pi
equalities pin.  Every reported solution is re-checked against the
system's original forms in integer arithmetic, independently of the solved
rows.  All of it is integer arithmetic, the recession rays included.

This decides infeasibility even when the rational relaxation is unbounded,
which is how the order-pq systems with few character rows are settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul
from typing import NamedTuple

from .luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    char_value_on_unit,
    class_sort_key,
    level_traces,
    lower_constant,
    top_coeffs,
)
from .lemma_filters import spectral_hypotheses
from .partitions import Partition, element_order, is_prime

# ---------------------------------------------------------------------------
# integer linear algebra


def _column_hermite(cols: list[list[int]], pivot_rows) -> list[tuple[int, int]]:
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


# a sparse non-negative multiplier vector lam over a lattice's slack rows:
# (slack index, multiplier) pairs in increasing index
Multipliers = tuple[tuple[int, int], ...]


class _Lattice(NamedTuple):
    """Everything a solve uses that depends only on the integer matrix, not
    on its right-hand side (see _lattice)."""

    pivot_col: tuple[int | None, ...]  # the pivot column of each row
    echelon: tuple[tuple[int, ...], ...]  # rows . u on the pivot columns
    u: tuple[tuple[int, ...], ...]  # each variable's row of u, in (y, w, v)
    slack_y: tuple[tuple[int, ...], ...]  # each slack's row of u on y
    slack_w: tuple[tuple[int, ...], ...]  # each slack's row of u on w (0 on v)
    rank: int  # the number of pivot coordinates y
    wdim: int  # the number of slack-moving coordinates w
    nfree: int  # the number of free directions v
    # the chain of _chain: a row (coeffs, lam) reads coeffs . w + lam . K >= 0
    levels: tuple[tuple[tuple[tuple[int, ...], Multipliers], ...], ...]  # over w_0..w_d
    constant: tuple[Multipliers, ...]  # the rows with no coordinate: lam . K >= 0
    open: int | None  # the first coordinate its level leaves open on one side
    ray: tuple[int, ...] | None  # an unbounded solve's primitive ray, in the variables


def _lattice(rows, nvar: int, neq: int, kept: tuple[int, ...]) -> _Lattice:
    """One Hermite elimination of the rows of a _matrix that a solve
    keeps: the neq equality rows and the slack-link rows of the forms in
    `kept`, over the nvar variables and those forms' slacks, with the
    Fourier-Motzkin chain and the ray that every right-hand side shares.

    Each column of the one eliminated matrix stacks the m kept rows over
    u, which starts as the identity and so records every column op.  The
    pivots in the kept rows give the rank, the pivot coordinates y and the
    echelon data of _particular; the columns past the rank span the integer
    kernel.  The slack rows of u come next: the row of slack i starts as
    unit row i and reads slack i in the current columns, so its pivots in
    the kernel columns, where the kept rows are already zero, are the
    slack-moving coordinates w; the remaining kernel columns are the nfree
    directions v, on which every slack row is zero.  The lattice keeps the
    nvar variable rows of u whole, each read in the coordinates (y, w, v),
    and each slack row split once into its y part and its w part.

    An unbounded solve's ray does not depend on its point: it is the
    recession ray of the chain's open coordinate, else the first direction
    v, mapped to the variables by u and divided by its gcd.
    """
    cols = [*range(nvar), *(nvar + j for j in kept)]
    kept_rows = [*range(neq), *(neq + j for j in kept)]
    m, ncols = len(kept_rows), len(cols)
    stacked = []
    for k, c in enumerate(cols):
        unit = [0] * ncols
        unit[k] = 1
        stacked.append([rows[r][c] for r in kept_rows] + unit)
    pivots = _column_hermite(stacked, [*range(m), *range(m + nvar, m + ncols)])
    # back to rows: the m kept rows . u, then u; with no columns, m empty rows
    a = list(zip(*stacked)) or [()] * m
    rank = sum(row < m for row, _ in pivots)
    wdim = len(pivots) - rank
    nfree = ncols - len(pivots)
    pivot_of_row = dict(pivots)
    u = tuple(a[m:m + nvar])
    slack_rows = a[m + nvar:]
    slack_w = tuple(r[rank:rank + wdim] for r in slack_rows)
    levels, constant, open_ = _chain(slack_w, wdim)
    ray = None
    if open_ is not None or nfree:
        direction = _recession_ray(levels, open_) if open_ is not None else (0,) * wdim + (1,)
        ray = [sum(map(mul, row[rank:], direction)) for row in u]
        g = gcd(*ray)
        ray = tuple(c // g for c in ray) if g > 1 else tuple(ray)
    return _Lattice(
        tuple(pivot_of_row.get(r) for r in range(m)),
        tuple(r[:rank] for r in a[:m]),
        u,
        tuple(r[:rank] for r in slack_rows),
        slack_w,
        rank, wdim, nfree,
        levels, constant, open_, ray,
    )


def _particular(lat: _Lattice, rhs: list[int]) -> list[int] | None:
    """One integer solution z of rows . z = rhs, the variables then the
    kept slacks, or None when there is none: forward substitution in the
    echelon basis gives the pivot coordinates y, and z = u . (y, 0, 0)."""
    y: list[int] = []
    for row, col in enumerate(lat.pivot_col):
        s = rhs[row] - sum(map(mul, lat.echelon[row], y))
        if col is None:
            if s:
                return None
        elif s % lat.echelon[row][col]:
            return None
        else:
            y.append(s // lat.echelon[row][col])
    return [sum(map(mul, row, y)) for row in (*lat.u, *lat.slack_y)]


# ---------------------------------------------------------------------------
# Fourier-Motzkin on the slack rows of a lattice, for every right-hand side


def _chain(slack_w, wdim: int):
    """One exact Fourier-Motzkin projection chain of the slack inequalities
    slack_w[i] . w + K_i >= 0 of a lattice over its wdim coordinates w,
    eliminating from the last coordinate down, for every value K of the
    kept slacks at once: the levels, constant and open of _Lattice.

    Each row carries, in place of its constant, its multiplier vector lam
    over the slack rows: coeffs is exactly the sum of lam_i * slack_w[i],
    and its constant at K is lam . K.  FM combines coefficients without
    reading constants, so at each K every row is a positive multiple of a
    row of the projection of the concrete inequalities, and the other way
    round: the two chains bound every coordinate by the same rationals,
    and they leave the same coordinates open, which reads no constant.
    A row is divided by the gcd of its coefficients and multipliers, so it
    stays integer.

    The last elimination, of w_0, is not run: each of its rows combines a
    lower and an upper bound of w_0 in levels[0], and its constant is
    negative exactly when that pair leaves w_0 no value, so _solve reads
    them all off w_0's range at the point.
    """
    rows = [(w_row, ((i, 1),)) for i, w_row in enumerate(slack_w) if any(w_row)]
    constant = {((i, 1),): None for i, w_row in enumerate(slack_w) if not any(w_row)}
    levels = [rows] if wdim else []
    # every coordinate before the open one is bounded, so a non-empty
    # relaxation is unbounded along it
    open_ = None
    for var in range(wdim - 1, -1, -1):
        pos, neg, out = [], [], {}
        for row in levels[-1]:
            c = row[0][var]
            if c > 0:
                pos.append(row)
            elif c < 0:
                neg.append(row)
            else:
                out[row] = None
        if not (pos and neg):
            open_ = var
        if var == 0:
            break  # the last elimination is read off w_0's range, see above
        for pc, lam_p in pos:
            a = pc[var]
            for nc, lam_n in neg:
                b = -nc[var]
                coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
                lam = {i: b * m for i, m in lam_p}
                for i, m in lam_n:
                    lam[i] = lam[i] + a * m if i in lam else a * m
                g = gcd(*coeffs, *lam.values())
                lam = tuple(sorted((i, m // g) for i, m in lam.items()))
                if g > 1:
                    coeffs = tuple(c // g for c in coeffs)
                if any(coeffs):
                    out[coeffs, lam] = None
                else:
                    constant[lam] = None
        levels.append(list(out))
    return tuple(map(tuple, reversed(levels))), tuple(constant), open_


def _interval(rows, d: int, prefix) -> tuple[tuple | None, tuple | None]:
    """Exact rational range (lo, hi) of variable d over rows (coeffs, const)
    of chain level d, with variables 0..d-1 pinned to prefix; each side is a
    pair (num, den) with den > 0, and None marks an unbounded side.

    Rows without variable d are not checked: they are rows of level d - 1,
    which a prefix read off the earlier intervals of the chain satisfies.
    """
    lo = hi = None
    for coeffs, const in rows:
        c = coeffs[d]
        if c:
            s = const + sum(map(mul, coeffs, prefix))
            if c > 0:  # x >= -s / c
                if lo is None or -s * lo[1] > lo[0] * c:
                    lo = (-s, c)
            elif hi is None or s * hi[1] < hi[0] * -c:  # x <= s / -c
                hi = (s, -c)
    return lo, hi


def _recession_ray(levels, var: int) -> tuple[int, ...]:
    """A nonzero integer direction of the relaxation's recession cone that
    moves variable `var`, the first one that its chain level leaves open on
    one side; levels[d] holds rows (coeffs, ...) over variables 0..d.  FM
    combines coefficients without reading constants, so levels[d] with its
    constants set to 0 is the projection of the homogeneous rows: every
    earlier variable is 0 on it, var moves to the open side, and each later
    variable is read off its interval there.  The rational point is kept as
    an integer `point` over a positive `scale`: the rows are homogeneous, so
    each bound read at `point` is `scale` times the one at the rational
    point, and point / gcd(scale, *point) is the lcm of the rational point's
    denominators times it, whatever positive multiple of each row a level
    holds."""
    point = [0] * var + [-1 if any(coeffs[var] < 0 for coeffs, _ in levels[var]) else 1]
    scale = 1
    for d in range(var + 1, len(levels)):
        lo, hi = _interval([(coeffs, 0) for coeffs, _ in levels[d]], d, point)
        num, den = lo or hi or (0, 1)
        point = [x * den for x in point] + [num]
        scale *= den
    g = gcd(scale, *point)
    return tuple(x // g for x in point)


# ---------------------------------------------------------------------------
# feasibility systems


@dataclass(frozen=True)
class FeasibilitySystem:
    """Affine-form constraints over an ordered set of augmentation variables."""

    variables: tuple[Partition, ...]
    equalities: tuple[tuple[AffineForm, int, str], ...]
    nonneg_integral: tuple[tuple[AffineForm, str], ...]

    @staticmethod
    def build(
        variables: list[Partition],
        equalities: list[tuple[AffineForm, int, str]],
        nonneg_integral: list[tuple[AffineForm, str]],
    ) -> "FeasibilitySystem":
        """The system over the classes `variables`, with the augmentation
        equality (the partial augmentations sum to 1) appended."""
        variables = sorted(variables, key=class_sort_key)
        augmentation = (AffineForm.make(dict.fromkeys(variables, 1), 0), 1, "augmentation")
        return FeasibilitySystem(
            tuple(variables), (*equalities, augmentation), tuple(nonneg_integral)
        )


@dataclass
class SolveReport:
    """Outcome of an exact enumeration."""

    status: str  # "infeasible" | "solutions" | "unbounded"
    variables: tuple[Partition, ...]
    solutions: list[tuple[int, ...]] = field(default_factory=list)
    certificate: list[str] = field(default_factory=list)
    ray: tuple[int, ...] | None = None
    stats: dict[str, int | float] = field(default_factory=dict)


class _Matrix(NamedTuple):
    """The integer rows of _matrix, which systems with the same linear parts
    share, over nvar variables with the neq equalities first, and the memo
    of the _lattice of each tuple of kept forms: all of them for a system,
    all but the dropped ones for a core trial."""

    rows: tuple[tuple[int, ...], ...]
    nvar: int
    neq: int
    lattices: dict[tuple[int, ...], _Lattice]

    def lattice(self, kept: tuple[int, ...]) -> _Lattice:
        """The lattice of the forms in `kept`, built on its first request."""
        lat = self.lattices.get(kept)
        if lat is None:
            lat = self.lattices[kept] = _lattice(self.rows, self.nvar, self.neq, kept)
        return lat


def _matrix(system: FeasibilitySystem) -> _Matrix:
    """The equality rows, numerator(f) = den * target, then one slack-link
    row per form, numerator(f) - den * slack = 0, over the columns
    (variables, one slack per form), read off the forms' integers, with an
    empty memo; their right-hand side is _rhs."""
    nvar, nform = len(system.variables), len(system.nonneg_integral)
    rows: list[list[int]] = []

    def numerators(f: AffineForm) -> list[int]:
        coeffs = dict(f.coeffs)
        return [coeffs.get(v, 0) for v in system.variables] + [0] * nform

    for f, _, _ in system.equalities:
        rows.append(numerators(f))
    for i, (f, _) in enumerate(system.nonneg_integral):
        row = numerators(f)
        row[nvar + i] = -f.den
        rows.append(row)
    return _Matrix(tuple(map(tuple, rows)), nvar, len(system.equalities), {})


def _rhs(system: FeasibilitySystem) -> list[int]:
    """The right-hand side of the rows of _matrix, read off the forms'
    constants: den * target - constant per equality, -constant per form."""
    return [f.den * target - f.constant for f, target, _ in system.equalities] + [
        -f.constant for f, _ in system.nonneg_integral
    ]


def _evaluated(level, slacks: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """The rows of a chain level, each with its constant lam . K."""
    return [(coeffs, sum(m * slacks[i] for i, m in lam)) for coeffs, lam in level]


def _solve(
    lat: _Lattice,
    point: list[int] | None,
    variables: tuple[Partition, ...],
    find_one: bool = False,
) -> SolveReport:
    """Decide the integer rows of a system, given their _lattice and one
    integer solution `point` of them (the variables, then the kept slacks),
    or None when they have none.

    Every integer solution is point + u . (0, w, v), so each kept slack is
    its value K at the point plus its row of u on w, and the point only
    gives the lattice's chain its constants lam . K.  The search stops at
    the first integer point when that point already decides the report:
    with find_one, where only the status is read and the lattice's ray and
    the solution list are not set, and on a lattice with free directions,
    whose report is unbounded whatever other points exist.
    """
    nvar = len(variables)
    report = SolveReport(status="infeasible", variables=variables, stats={"nodes": 0})
    if point is None:
        return report
    slacks = point[nvar:]
    # the relaxation is empty when a row with no coordinate is negative, or
    # when w_0 has no value: that is the last elimination, which _chain
    # leaves to this range
    if any(sum(m * slacks[i] for i, m in lam) < 0 for lam in lat.constant):
        return report
    # levels[d] is evaluated when the search first reaches depth d
    levels = [_evaluated(level, slacks) for level in lat.levels[:1]]
    if levels:
        lo, hi = _interval(levels[0], 0, ())
        if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
            return report
    if lat.open is not None:
        report.status = "unbounded"
        if not find_one:
            report.ray = lat.ray
        return report

    # depth-first over prefixes of w, each node's children in increasing
    # order: they are pushed in decreasing order and popped in increasing;
    # every side is bounded here, and only its integer part is read
    wdim, nfree = lat.wdim, lat.nfree
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
            if depth == len(levels):
                levels.append(_evaluated(lat.levels[depth], slacks))
            (lo, lo_den), (hi, hi_den) = _interval(levels[depth], depth, prefix)
            stack += [prefix + (value,) for value in range(hi // hi_den, -(-lo // lo_den) - 1, -1)]
    report.stats["nodes"] = nodes
    if leaves:
        report.status = "unbounded" if nfree else "solutions"
    if leaves and not find_one:
        if nfree:
            report.ray = lat.ray
        else:
            # x = point + u . (0, w, 0); distinct leaves give distinct points,
            # as u is invertible and each slack is a function of x
            u_w = [row[lat.rank:] for row in lat.u]
            report.solutions = sorted(
                tuple(x + sum(map(mul, row, w)) for row, x in zip(u_w, point))
                for w in leaves
            )
    return report


def enumerate_system(system: FeasibilitySystem, matrix: _Matrix | None = None) -> SolveReport:
    """Deterministic enumeration of the integer points: all of them, or the
    first on a lattice with free directions, which is unbounded anyway.

    `matrix` holds the system's integer rows and the memo of the lattices
    of its solves; the systems of one _solve_level call share one, as they
    have the same linear parts and differ only in the right-hand side,
    which each reads off its own forms' constants.  By default the system
    and its core trials get a fresh one.
    """
    if matrix is None:
        matrix = _matrix(system)
    lat = matrix.lattice(tuple(range(len(system.nonneg_integral))))
    point = _particular(lat, _rhs(system))
    report = _solve(lat, point, system.variables)
    if report.status == "solutions":
        _recheck(system, report.solutions)
    elif report.status == "infeasible":
        report.certificate = _infeasible_core(system, matrix, point)
    return report


def _recheck(system: FeasibilitySystem, solutions: list[tuple[int, ...]]) -> None:
    """Defensive re-check of every solution against the system's original
    forms, independent of the rows the solver solved: at a point x with
    numerator value = den * f(x), an equality needs value == den * target
    and a form needs value >= 0 and value = 0 (mod den).  Each form becomes
    one dense coefficient row over system.variables once per system, so a
    solution's numerator value is one dot product with it."""
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


def _infeasible_core(
    system: FeasibilitySystem, matrix: _Matrix, point: list[int] | None
) -> list[str]:
    """Greedy minimal subset of the non-negative-integer forms that already
    makes the system infeasible (with all equalities kept).

    `matrix` and `point` are the system's (point None when it has no
    integer point).  A trial keeps some forms and drops the slack-link rows
    and slack columns of the others, so it decides exactly the integer rows
    of the smaller system, with their lattice from the matrix's memo, from
    the system's point restricted to the variables and the kept slacks,
    which solves those rows too, or else from its own.

    A form whose slack no lattice coordinate moves (its row of u is zero on
    w) is fixed by the equalities: it is constant on their real solution
    set, so every trial, which keeps every equality, sees it at its value
    at the system's point.  A form fixed at a non-negative integer is then
    redundant in every trial; the greedy filter would drop it at its turn
    and decide every other form as it does with it, so the core starts
    without it and it gets no trial.  A form fixed at a negative value, and
    every form of a system without an integer point, stays in the loop.
    """
    forms = system.nonneg_integral
    nvar, neq = matrix.nvar, matrix.neq
    live = range(len(forms))
    if point is None:
        rhs = _rhs(system)
    else:
        slacks = zip(matrix.lattice(tuple(live)).slack_w, point[nvar:])
        live = [j for j, (w_row, const) in enumerate(slacks) if any(w_row) or const < 0]
    core = tuple(live)
    for j in live:
        kept = tuple(i for i in core if i != j)
        sub = matrix.lattice(kept)
        if point is None:
            sub_point = _particular(sub, rhs[:neq] + [rhs[neq + i] for i in kept])
        else:
            sub_point = point[:nvar] + [point[nvar + i] for i in kept]
        if _solve(sub, sub_point, system.variables, find_one=True).status == "infeasible":
            core = kept
    return [forms[j][1] for j in core]


# ---------------------------------------------------------------------------
# the layered strategy


def _solve_level(
    classes: list[Partition],
    k: int,
    rows_and_ells: list[tuple[CharacterRow, int]],
    equalities: list[tuple[CharacterRow, int, int]],
    lowers: list[dict[int, AugVector]],
) -> list[SolveReport]:
    """Build and enumerate one order-k system over `classes` per dict of
    lower levels, in the order of `lowers`: the form mu_ell(row) must be a
    non-negative integer for each (row, ell), and mu_ell(row) = target for
    each equality (row, ell, target).  Every system has these rows, so each
    linear part, each ell's level traces, the names, the sorted variables
    with the augmentation, and the integer matrix with its memo of lattices
    are built once per call; each system adds only its forms' constants,
    from each row's values on its lower levels.

    The level's distinct rows are numbered once, and each form and equality
    is prepared once as (row index, row, linear part, level traces, ...).
    A system reads its rows' lower-level values into a list by row index,
    so no row is hashed inside the loop over the lower levels."""
    parts = dict.fromkeys([*rows_and_ells, *((row, ell) for row, ell, _ in equalities)])
    linear = {(row, ell): top_coeffs(row, k, ell, classes) for row, ell in parts}
    traces = {ell: level_traces(k, ell) for ell in dict.fromkeys(ell for _, ell in parts)}
    index = {row: i for i, row in enumerate(dict.fromkeys(row for row, _ in parts))}
    rows = list(index)
    forms_at = [
        (index[row], row, linear[row, ell], traces[ell], f"mu_{ell}({row.name})")
        for row, ell in rows_and_ells
    ]
    pinned_at = [
        (index[row], row, linear[row, ell], traces[ell], target, f"mu_{ell}({row.name}) = {target}")
        for row, ell, target in equalities
    ]
    empty = FeasibilitySystem.build(classes, [], [])
    matrix = None
    reports = []
    for lower in lowers:
        values = [{d: char_value_on_unit(row, v) for d, v in lower.items()} for row in rows]
        forms = tuple(
            (AffineForm(coeffs, lower_constant(row, level, values[i]), k), name)
            for i, row, coeffs, level, name in forms_at
        )
        pinned = tuple(
            (AffineForm(coeffs, lower_constant(row, level, values[i]), k), target, name)
            for i, row, coeffs, level, target, name in pinned_at
        )
        system = FeasibilitySystem(empty.variables, (*pinned, *empty.equalities), forms)
        if matrix is None:
            matrix = _matrix(system)
        reports.append(enumerate_system(system, matrix))
    return reports


def solve_prime_order(
    n: int,
    kind: str,
    q: int,
    rows_and_ells: list[tuple[CharacterRow, int]],
) -> SolveReport:
    """All augmentation vectors of order q consistent with the requested
    multiplicity constraints."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    (report,) = _solve_level(allowed_support(n, q, kind), q, rows_and_ells, [], [{}])
    return report


def report_aug_vectors(report: SolveReport, k: int, n: int) -> list[AugVector]:
    """The order-k augmentation vector of each solution of a report, as
    AugVector.make builds it from the solution's values on the report's
    variables: the variable positions are put in class order once per
    report, and each vector keeps its non-zero entries in that order.
    AugVector validates every vector as it is built."""
    variables = report.variables
    order = sorted(range(len(variables)), key=lambda i: class_sort_key(variables[i]))
    return [
        AugVector(k, n, tuple((variables[i], sol[i]) for i in order if sol[i]))
        for sol in report.solutions
    ]


def has_element_of_order(n: int, k: int, kind: str = "S") -> bool:
    """Whether S_n (kind "S") or A_n (kind "A") has an element of order
    exactly k, for k in {q, 2p, pq}."""
    return any(element_order(ct) == k for ct in allowed_support(n, k, kind))


def _require_no_order_pq(n: int, kind: str, p: int, q: int) -> None:
    """An order-pq run needs a group without elements of order pq."""
    if has_element_of_order(n, p * q, kind):
        raise ValueError(f"{kind}_{n} has elements of order {p * q}; nothing to exclude")


def _require_pi_hypotheses(n: int, p: int, q: int) -> None:
    """The spectral equalities of pi need the hypotheses of Theorem 3.2."""
    if not spectral_hypotheses(n, p, q):
        raise ValueError("spectral equalities need n >= 7, p > n/2, q >= 3")


@dataclass
class PairResult:
    q_candidate: AugVector
    p_candidate: AugVector
    group: str
    report: SolveReport


def solve_order_pq(
    n: int,
    kind: str,
    p: int,
    q: int,
    q_candidates: list[AugVector],
    p_candidates: list[AugVector],
    row_groups: list[dict],
    pi_row: CharacterRow | None = None,
) -> tuple[str, list[PairResult]]:
    """Build and enumerate the top-level order-pq system for every pair of
    power candidates.

    row_groups entries: {"name": str, "members": list[AugVector] | None,
    "rows_and_ells": list[(CharacterRow, ell)]}.  A group with members None
    covers every candidate not claimed by an explicit group.  When pi_row is
    given, the spectral equalities mu_1(u, pi) = 0 and mu_q(u, pi) = 1 are
    added (valid for p > n/2, q >= 3, n >= 7).

    Results come by row group (each named once), one _solve_level call each,
    then by q and p candidate.  Verdict: "excluded" iff every pair is infeasible.
    """
    names = [grp["name"] for grp in row_groups]
    if repeated := [name for i, name in enumerate(names) if name in names[:i]]:
        raise ValueError(f"row group {repeated[0]!r} listed twice")
    _require_no_order_pq(n, kind, p, q)
    classes = allowed_support(n, p * q, kind)

    use_pi = pi_row is not None
    if use_pi:
        _require_pi_hypotheses(n, p, q)

    def group_of(cand: AugVector) -> int:
        fallback = None
        for i, grp in enumerate(row_groups):
            if grp.get("members") is None:
                fallback = i
            elif cand in grp["members"]:
                return i
        if fallback is None:
            raise ValueError("candidate not covered by any row group")
        return fallback

    routed: list[list[AugVector]] = [[] for _ in row_groups]
    for q_cand in q_candidates:
        routed[group_of(q_cand)].append(q_cand)
    pi_equalities = [(pi_row, 1, 0), (pi_row, q, 1)] if use_pi else []
    results = []
    for grp, cands in zip(row_groups, routed):
        pairs = [(q_cand, p_cand) for q_cand in cands for p_cand in p_candidates]
        if pairs:
            lowers = [{p: q_cand, q: p_cand} for q_cand, p_cand in pairs]
            reports = _solve_level(classes, p * q, grp["rows_and_ells"], pi_equalities, lowers)
            results += [PairResult(*pair, grp["name"], rep) for pair, rep in zip(pairs, reports)]

    if any(r.report.status == "unbounded" for r in results):
        verdict = "undecided-unbounded"
    elif all(r.report.status == "infeasible" for r in results):
        verdict = "excluded"
    else:
        verdict = "candidates-survive"
    return verdict, results
