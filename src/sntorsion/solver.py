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
   on v.  The equality rows are zero on every slack column, so their pass
   of the elimination is the same whichever forms a lattice keeps: it runs
   once per matrix (_Matrix), and each lattice continues it.  Forward
   substitution of the right-hand side in the echelon rows gives either a
   contradiction or y, and so one integer point u . (y, 0, 0); every
   integer solution is that point plus u . (0, w, v), and each slack is its
   value K = slack_y . y at the point plus a linear form in w.  A search
   reads only K; a variable is read off its row of u only at a recorded
   solution;
3. exact Fourier-Motzkin elimination of the slack inequalities, from the
   last w coordinate down, gives one projection chain per lattice, for
   every right-hand side at once (_chain): each row carries, in place of
   its constant, its non-negative multiplier vector lam over the slack
   rows, so a search reads the constant of each row as lam . K.  The chain
   keeps its rows in the one form a search evaluates: a row with one
   multiplier is a slack row i itself, with the constant K_i, and the
   others are summed without a generator per row.  The chain's rows with no
   coordinate left must be non-negative at K, and the first coordinate
   must have a value (the last elimination, read off its range); then the
   first coordinate the chain leaves open on one side, which reads no
   constant, makes the relaxation unbounded, along the lattice's ray.
   Otherwise the depth-first enumeration, a loop over a stack of prefixes,
   fixes the coordinates from the first up and reads the integer range of
   each from the chain by floor division.  The range of the last
   coordinate is not pushed: its leaves are appended as one block, and
   the solve reads the variables of all leaves a column at a time, each
   variable's values as its row of u applied to the leaves' columns.  The
   search stops at the first integer point when that point decides the
   status: in a core trial, which reads only the status, and on a lattice
   with directions v, which is unbounded along the first of them whatever
   other points exist.

One path decides every lattice, a one-point lattice included: its chain is
empty and its search visits the one leaf.  The eliminations of steps 2 and
3 depend only on the integer matrix, not on the right-hand side, and so
does an unbounded solve's ray: one _lattice holds them all, and one search
(_search) decides a lattice at its slack values K, giving the status and
the node count; _solve wraps it in a report for a system.  Each system runs
the forward substitution once, in enumerate_system, and its core trials
start from its integer point: a trial keeps a subset of the system's rows,
so the system's point, restricted to the variables and the kept slacks,
solves the trial too, and the trial's K is the system's on the kept
slacks.  On the trial's own lattice, its own point differs from it by an
integer kernel vector, so its w coordinates move by an integer
translation, which shifts each search range by an integer and changes no
node count or status.  Only a system without an integer point gives its
trials their own forward substitution.

One function, _solve_level, makes the systems of every level: one row set
over a list of lower levels, once for solve_prime_order and once per row
group for solve_order_pq.  Its systems have the same rows and differ only
in their lower levels, so it makes the linear part of each (row, ell) and
the level traces of each ell once (top_coeffs, level_traces), and each
row's values on each distinct lower vector once; a system checks once that
its lower levels are all fixed, and each form's constant is one dot product
of those values with its traces.  Each distinct (form, constant) of the
call is one AffineForm.  Its systems share one integer matrix, read off the
first of them, so each contributes only its right-hand side, read off its
forms' constants (_rhs).  The memos live as long as the call or its
matrix: the systems and their infeasible-core trials share the matrix's
pass over the equality rows and its two memos, one per row group: one
lattice per tuple of kept forms (_Matrix.lattice; all of them for a
system), and one trial structure per tuple of kept forms (_Matrix.trial;
all but the dropped ones for a core trial), so a trial builds only when
its kept forms are new.

The infeasible core is a greedy deletion filter: one trial per form, each
the status of one search of the system without that form and the forms
dropped before it, which allocates no report.  A form that the equalities
fix at a non-negative integer (no lattice coordinate moves its slack) can
never be needed, so it gets no trial; in the Theorem-3.2 pair systems these
are the mu_ell(pi) forms, which the pi equalities pin.  A trial of a system
with an integer point searches the system's own lattice when dropping the
other forms' integrality leaves that lattice as it is, which a rank test
decides (_Matrix.same_lattice): for each prime ell of the forms' dens
(squarefree, as every den the package builds is 1, q or pq), the kept
forms' entries on the equalities' integer kernel have the rank mod ell of
every form's.  Such a trial eliminates no lattice of its own: one
_column_hermite of the kept slacks' rows on the system's w frees the
directions that move no kept slack, and _chain runs on the rest
(_shared_trial).  A trial reads only its status, which depends on its
integer points and its real relaxation, not on the basis of its lattice;
the two lattices hold the system's point and are equal, so they give the
same points and the same status, and every core and certificate is the one
the kept forms' own lattices give; only the trials' node counts can
differ.  A trial whose kept forms' lattice is coarser, or of a matrix with
a den that has a square factor, or of a system without an integer point,
searches the kept forms' own lattice.

Every reported solution is re-checked against the system's original forms
in integer arithmetic, independently of the solved rows: each form is
evaluated over all solutions at once, from one column of values per
variable, and a violation names the first violating solution (_recheck).
All of it is integer arithmetic, the recession rays included.

This decides infeasibility even when the rational relaxation is unbounded,
which is how the order-pq systems with few character rows are settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from itertools import compress, repeat
from operator import add, itemgetter, mul
from typing import NamedTuple

from .luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    char_value_on_unit,
    class_sort_key,
    level_traces,
    top_coeffs,
)
from .lemma_filters import spectral_hypotheses
from .partitions import Partition, element_order, factorize, is_prime

# ---------------------------------------------------------------------------
# integer linear algebra


def _column_hermite(cols: list[list[int]], pivot_rows) -> list[tuple[int, int]]:
    """Column-style Hermite elimination, in place, of a matrix given as its
    list of columns: at most one pivot in each of `pivot_rows`, in order,
    with the pivot columns first.  Returns the (row, column) pivots.  In
    each row the first column of least non-zero |entry| is the pivot."""
    ncols = len(cols)
    pivots: list[tuple[int, int]] = []
    pc = 0
    for row in pivot_rows:
        if pc >= ncols:
            break
        while True:
            least = 0
            for c in range(pc, ncols):
                x = abs(cols[c][row])
                if x and (x < least or not least):
                    c0, least = c, x
            if not least:
                break  # no entry left: this row has no pivot
            src = cols[c0]
            cols[c0] = cols[pc]
            cols[pc] = src
            p = src[row]
            done = True
            for c in range(pc + 1, ncols):
                col = cols[c]
                x = col[row]
                if x:
                    factor = x // p
                    cols[c] = [a - factor * b for a, b in zip(col, src)]
                    if x - factor * p:
                        done = False
            if done:
                pivots.append((row, pc))
                pc += 1
                break
    return pivots


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
    # the chain of _chain: a row reads coeffs . w + lam . K >= 0
    bounds: tuple  # per level d, its rows that bound w_d: (singles (coeffs, i), sums)
    nonneg: tuple[int, ...]  # the slacks of the one-multiplier constant rows: K_i >= 0
    sums: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # the others: (indices, multipliers)
    open: int | None  # the first coordinate its level leaves open on one side
    ray: tuple[int, ...] | None  # an unbounded solve's primitive ray, in the variables


def _lattice(matrix: _Matrix, kept: tuple[int, ...]) -> _Lattice:
    """One Hermite elimination of the rows of a _matrix that a solve
    keeps: the neq equality rows and the slack-link rows of the forms in
    `kept`, over the nvar variables and those forms' slacks, with the
    Fourier-Motzkin chain and the ray that every right-hand side shares.

    Each column of the one eliminated matrix stacks the kept rows over u,
    which starts as the identity and so records every column op.  The
    equality rows come first and are zero on the slack columns, so their
    pass is the matrix's own, run once (_Matrix): the lattice continues it
    from its pivot state, with the variable columns it left, each read on
    the kept slack-link rows and on u, then one column per kept slack.  The
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
    nvar, r0 = matrix.nvar, matrix.eq_rank
    nk = len(kept)
    # each column's rows: the nk kept slack-link rows, the nvar variable
    # rows of u, then the nk slack rows of u
    no_slacks, no_vars = [0] * nk, [0] * nvar
    cols = [[on_link[j] for j in kept] + on_u + no_slacks for on_link, on_u in matrix.columns]
    link = [matrix.rows[matrix.neq + j] for j in kept]
    for t, j in enumerate(kept):
        unit = [0] * nk
        unit[t] = 1
        cols.append([row[nvar + j] for row in link] + no_vars + unit)
    # the equality pass left its r0 pivot columns final
    rest = cols[r0:]
    pivots = _column_hermite(rest, [*range(nk), *range(nk + nvar, 2 * nk + nvar)])
    cols[r0:] = rest
    a = list(zip(*cols))
    on_links = sum(row < nk for row, _ in pivots)
    rank = r0 + on_links
    wdim = len(pivots) - on_links
    nfree = len(cols) - r0 - len(pivots)
    pivot_of_row = {row: r0 + c for row, c in pivots}
    u = tuple(a[nk:nk + nvar])
    slack_rows = a[nk + nvar:]
    slack_w = tuple(r[rank:rank + wdim] for r in slack_rows)
    bounds, nonneg, sums, open_ = _chain(slack_w, wdim)
    ray = None
    if open_ is not None or nfree:
        direction = _recession_ray(bounds, open_) if open_ is not None else (0,) * wdim + (1,)
        ray = [sum(map(mul, row[rank:], direction)) for row in u]
        g = gcd(*ray)
        ray = tuple(c // g for c in ray) if g > 1 else tuple(ray)
    # the equality rows are zero past their own pivot columns
    pad = (0,) * (rank - r0)
    return _Lattice(
        matrix.eq_pivot_col + tuple(map(pivot_of_row.get, range(nk))),
        tuple(row + pad for row in matrix.eq_echelon) + tuple(r[:rank] for r in a[:nk]),
        u,
        tuple(r[:rank] for r in slack_rows),
        slack_w,
        rank, wdim, nfree,
        bounds, nonneg, sums, open_, ray,
    )


class _Trial(NamedTuple):
    """What _search reads of a core trial on its system's lattice
    (_shared_trial): the chain of the kept slacks over the wdim coordinates
    w that move them, and the number of the other directions."""

    wdim: int
    nfree: int
    bounds: tuple
    nonneg: tuple[int, ...]
    sums: tuple
    open: int | None


def _shared_trial(lat: _Lattice, kept: tuple[int, ...]) -> _Trial:
    """A core trial that keeps the forms in `kept`, searched on its
    system's lattice `lat`: the kept slacks' rows of slack_w, reduced by
    one _column_hermite so that the pivot columns come first and the
    directions that move no kept slack join the free ones, then the chain
    of the reduced rows on the pivot columns."""
    cols = [list(col) for col in zip(*(lat.slack_w[j] for j in kept))]
    wdim = len(_column_hermite(cols, range(len(kept))))
    slack_w = [tuple(col[t] for col in cols[:wdim]) for t in range(len(kept))]
    return _Trial(wdim, lat.nfree + lat.wdim - wdim, *_chain(slack_w, wdim))


def _rank_mod(rows, ell: int, most: int = -1) -> int:
    """The rank modulo the prime ell of rows of integers mod ell, or `most`
    once it reaches it: each row is reduced by the echelon rows before it,
    each with a 1 at its own pivot and a 0 at every earlier one."""
    echelon: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
        for c, pivot_row in echelon.items():
            f = row[c]
            if f:
                row = [(x - f * y) % ell for x, y in zip(row, pivot_row)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            inv = pow(row[c], -1, ell)
            echelon[c] = [x * inv % ell for x in row]
            if len(echelon) == most:
                break
    return len(echelon)


def _particular(lat: _Lattice, rhs: list[int]) -> list[int] | None:
    """The pivot coordinates y of one integer solution u . (y, 0, 0) of
    rows . z = rhs, the variables then the kept slacks, or None when there
    is none: forward substitution in the echelon basis."""
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
    return y


def _slack_values(lat: _Lattice, y: list[int]) -> list[int]:
    """The kept slacks' values K at the point u . (y, 0, 0)."""
    return [sum(map(mul, row, y)) for row in lat.slack_y]


# ---------------------------------------------------------------------------
# Fourier-Motzkin on the slack rows of a lattice, for every right-hand side


def _chain(slack_w, wdim: int):
    """One exact Fourier-Motzkin projection chain of the slack inequalities
    slack_w[i] . w + K_i >= 0 of a lattice over its wdim coordinates w,
    eliminating from the last coordinate down, for every value K of the
    kept slacks at once: the bounds, nonneg, sums and open of _Lattice.

    Each row carries, in place of its constant, its multiplier vector lam
    over the slack rows, as (slack index, multiplier) pairs in increasing
    index: coeffs is exactly the sum of lam_i * slack_w[i], and its
    constant at K is lam . K.  FM combines coefficients without reading
    constants, so at each K every row is a positive multiple of a row of
    the projection of the concrete inequalities, and the other way round:
    the two chains bound every coordinate by the same rationals, and they
    leave the same coordinates open, which reads no constant.  A row is
    divided by the gcd of its coefficients and multipliers, so it stays
    integer.

    The rows are kept in the form the search evaluates at K: bounds[d]
    holds the rows of level d (over w_0..w_d) that bound w_d, as _interval
    reads no other (the rest pass down to level d - 1), those with one
    multiplier as (coeffs, i) and the others as (coeffs, indices,
    multipliers).  A row with one multiplier is slack row i itself, with
    multiplier 1: a combination of two rows has the indices of both, and
    the two bound w_d from opposite sides, so they are never multiples of
    one slack row.  A row with no coordinate left holds when lam . K >= 0:
    with one multiplier, when K_i >= 0, so nonneg keeps its index i, and
    sums keeps the others as (indices, multipliers).

    The last elimination, of w_0, is not run: each of its rows combines a
    lower and an upper bound of w_0 in bounds[0], and its constant is
    negative exactly when that pair leaves w_0 no value, so _search reads
    them all off w_0's range at the point.
    """
    rows = [(w_row, ((i, 1),)) for i, w_row in enumerate(slack_w) if any(w_row)]
    constant = {((i, 1),): None for i, w_row in enumerate(slack_w) if not any(w_row)}
    bounds = []
    # every coordinate before the open one is bounded, so a non-empty
    # relaxation is unbounded along it
    open_ = None
    for var in range(wdim - 1, -1, -1):
        pos, neg, out = [], [], {}
        for row in rows:
            c = row[0][var]
            if c > 0:
                pos.append(row)
            elif c < 0:
                neg.append(row)
            else:
                out[row] = None
        if not (pos and neg):
            open_ = var
        bounding = pos + neg
        bounds.append((
            tuple((coeffs, lam[0][0]) for coeffs, lam in bounding if len(lam) == 1),
            tuple((coeffs, *zip(*lam)) for coeffs, lam in bounding if len(lam) > 1),
        ))
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
        rows = list(out)
    nonneg = tuple(lam[0][0] for lam in constant if len(lam) == 1)
    sums = tuple(tuple(zip(*lam)) for lam in constant if len(lam) > 1)
    return tuple(reversed(bounds)), nonneg, sums, open_


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
            s = const + sum(map(mul, coeffs, prefix)) if d else const
            if c > 0:  # x >= -s / c
                if lo is None or -s * lo[1] > lo[0] * c:
                    lo = (-s, c)
            elif hi is None or s * hi[1] < hi[0] * -c:  # x <= s / -c
                hi = (s, -c)
    return lo, hi


def _recession_ray(bounds, var: int) -> tuple[int, ...]:
    """A nonzero integer direction of the relaxation's recession cone that
    moves variable `var`, the first one that its chain level leaves open on
    one side; bounds[d] holds the rows (coeffs, ...) over variables 0..d
    that bound variable d, as _chain splits them.  FM combines coefficients
    without reading constants, so the chain with its constants set to 0 is
    the projection of the homogeneous rows: every earlier variable is 0 on
    it, var moves to the open side, and each later variable is read off its
    interval there.  The rational point is kept as an integer `point` over
    a positive `scale`: the rows are homogeneous, so each bound read at
    `point` is `scale` times the one at the rational point, and
    point / gcd(scale, *point) is the lcm of the rational point's
    denominators times it, whatever positive multiple of each row a level
    holds."""
    homogeneous = [[(row[0], 0) for part in level for row in part] for level in bounds]
    point = [0] * var + [-1 if any(c[var] < 0 for c, _ in homogeneous[var]) else 1]
    scale = 1
    for d in range(var + 1, len(bounds)):
        lo, hi = _interval(homogeneous[d], d, point)
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


class _Matrix:
    """The integer rows of _matrix, which systems with the same linear parts
    share, over nvar variables with the neq equalities first; the pass of
    the Hermite elimination over the equality rows, which every lattice of
    the matrix shares; the memo of the _lattice of each tuple of kept forms,
    all of them for a system; and the memo of what the core trial of each
    tuple of kept forms searches at its system's point (trial): the
    system's lattice, when the rank test of same_lattice, whose ranks of
    every form are computed on its first call (moduli), says it is the kept
    forms' lattice, else the kept forms' own.

    An equality row is zero on every slack column, so that pass pivots,
    swaps and combines only the variable columns, whichever forms a lattice
    keeps.  It runs once, on the variable columns stacked over every row and
    the identity, and keeps what each _lattice continues from: its eq_rank
    pivot columns, which no later pass changes, the equalities' pivot
    columns and echelon rows, and each variable column as (its entries on
    the slack-link rows, its column of u)."""

    def __init__(self, rows: tuple[tuple[int, ...], ...], nvar: int, neq: int):
        cols = []
        for c in range(nvar):
            unit = [0] * nvar
            unit[c] = 1
            cols.append([row[c] for row in rows] + unit)
        pivots = _column_hermite(cols, range(neq))
        pivot_of_row = dict(pivots)
        self.rows, self.nvar, self.neq = rows, nvar, neq
        self.eq_rank = len(pivots)
        self.eq_pivot_col = tuple(map(pivot_of_row.get, range(neq)))
        self.eq_echelon = tuple(tuple(col[r] for col in cols[:self.eq_rank]) for r in range(neq))
        self.columns = [(col[neq:len(rows)], col[len(rows):]) for col in cols]
        self.lattices: dict[tuple[int, ...], _Lattice] = {}
        self.trials: dict[tuple[int, ...], _Trial | _Lattice] = {}

    def lattice(self, kept: tuple[int, ...]) -> _Lattice:
        """The lattice of the forms in `kept`, built on its first request."""
        lat = self.lattices.get(kept)
        if lat is None:
            lat = self.lattices[kept] = _lattice(self, kept)
        return lat

    def trial(self, kept: tuple[int, ...]) -> _Trial | _Lattice:
        """What a core trial that keeps the forms in `kept` searches at its
        system's slack values, built on its first request: the system's
        lattice (_shared_trial) when it is the lattice of the kept forms
        (same_lattice), else the kept forms' own."""
        trial = self.trials.get(kept)
        if trial is None:
            if self.same_lattice(kept):
                trial = _shared_trial(self.lattice(tuple(range(len(self.rows) - self.neq))), kept)
            else:
                trial = self.lattice(kept)
            self.trials[kept] = trial
        return trial

    @cached_property
    def moduli(self) -> list | None:
        """For each prime ell of the forms' dens at which some entry is not
        0, the link entries mod ell on the equality-kernel columns of the
        forms whose den ell divides, by form, and their rank mod ell; None
        when a den has a square factor."""
        nvar, neq, kernel = self.nvar, self.neq, self.columns[self.eq_rank:]
        dens = [-self.rows[neq + j][nvar + j] for j in range(len(self.rows) - neq)]
        primes: set[int] = set()
        for den in set(dens):
            factors = factorize(den)
            if any(e > 1 for e in factors.values()):
                return None
            primes.update(factors)
        moduli = []
        for ell in sorted(primes):
            rows = {
                j: [on_link[j] % ell for on_link, _ in kernel]
                for j, den in enumerate(dens) if den % ell == 0
            }
            # a prime at which every entry is 0 constrains no point
            if rank := _rank_mod(rows.values(), ell):
                moduli.append((ell, rows, rank))
        return moduli

    def same_lattice(self, kept: tuple[int, ...]) -> bool:
        """Whether the integer points of the equalities at which the forms
        in `kept` are integers all make every form an integer: whether the
        kept forms' lattice is the one of all forms.

        The equality-kernel columns are a basis of the equalities' integer
        kernel.  From a point where every form is an integer, form j stays
        one at the kernel vector with coordinates t exactly when its entries
        a_j on those columns give a_j . t = 0 (mod den_j), and for a
        squarefree den_j, exactly when that holds mod each prime ell of
        den_j.  Per ell, the rows a_j of the forms that ell divides cut out
        a sublattice of index ell^r, r their rank mod ell, and the kept
        forms' one contains every form's.  The lattices are the
        intersections over the primes, so they are equal exactly when the
        ranks are at every prime.  A den with a square factor says no."""
        moduli = self.moduli
        return moduli is not None and all(
            _rank_mod([rows[j] for j in kept if j in rows], ell, rank) == rank
            for ell, rows, rank in moduli
        )


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
    return _Matrix(tuple(map(tuple, rows)), nvar, len(system.equalities))


def _rhs(system: FeasibilitySystem) -> list[int]:
    """The right-hand side of the rows of _matrix, read off the forms'
    constants: den * target - constant per equality, -constant per form."""
    return [f.den * target - f.constant for f, target, _ in system.equalities] + [
        -f.constant for f, _ in system.nonneg_integral
    ]


def _evaluated(bounds, slacks: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """The rows of a level's bounds (_chain), each with its constant
    lam . K at the slack values K."""
    singles, sums = bounds
    rows = [(coeffs, slacks[i]) for coeffs, i in singles]
    if sums:
        get = slacks.__getitem__
        rows += [(coeffs, sum(map(mul, ms, map(get, idx)))) for coeffs, idx, ms in sums]
    return rows


def _search(
    lat: _Lattice | _Trial, slacks: list[int], leaves: list | None = None
) -> tuple[str, int]:
    """Decide a lattice at the values K of its kept slacks at one integer
    point: the status ("infeasible", "solutions" or "unbounded") and the
    number of search nodes.  A core trial on its system's lattice passes
    its _Trial, which holds every field the search reads.

    Every integer solution is that point plus u . (0, w, v), so each kept
    slack is K plus its row of u on w, and K only gives the lattice's chain
    its constants lam . K.  With `leaves`, a list, the search appends the w
    of every integer point to it, in increasing order: the leaves that
    share their first wdim - 1 coordinates are one block, that prefix with
    each value of the last coordinate's integer range, appended at once
    and counted as that many nodes.  It stops at the first point when that
    point decides the status: without `leaves`, which is a core trial, and
    on a lattice with free directions, which is unbounded along the first
    of them whatever other points exist.  A lattice whose first coordinate
    is open is unbounded once its constant rows hold: w_0 has a value
    whatever the open side reads.
    """
    # the relaxation is empty when a row with no coordinate is negative, or
    # when w_0 has no value: that is the last elimination, which _chain
    # leaves to this range
    for i in lat.nonneg:
        if slacks[i] < 0:
            return "infeasible", 0
    for idx, ms in lat.sums:
        if sum(map(mul, ms, map(slacks.__getitem__, idx))) < 0:
            return "infeasible", 0
    if lat.open == 0:
        return "unbounded", 0
    wdim = lat.wdim
    # the first point decides the status in a core trial and on a lattice
    # with free directions
    decided = None
    if leaves is None or lat.nfree:
        decided = "unbounded" if lat.nfree else "solutions"
    if not wdim:  # the one point w = ()
        if decided is None:
            leaves.append(())
        return decided or "solutions", 1
    # levels[d] is evaluated when the search first reaches depth d
    levels = [_evaluated(lat.bounds[0], slacks)]
    root = lo, hi = _interval(levels[0], 0, ())
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return "infeasible", 0
    if lat.open is not None:
        return "unbounded", 0

    # depth-first over prefixes of w, each node's children in increasing
    # order: they are pushed in decreasing order and popped in increasing;
    # every side is bounded here, and only its integer part is read
    nodes = 0
    last = wdim - 1
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        nodes += 1
        depth = len(prefix)
        if depth == len(levels):
            levels.append(_evaluated(lat.bounds[depth], slacks))
        (lo, lo_den), (hi, hi_den) = _interval(levels[depth], depth, prefix) if depth else root
        top, bottom = hi // hi_den, -(-lo // lo_den)
        if depth < last:
            stack += [prefix + (value,) for value in range(top, bottom - 1, -1)]
        elif top >= bottom:
            if decided is not None:
                return decided, nodes + 1
            leaves += [prefix + (value,) for value in range(bottom, top + 1)]
            nodes += top - bottom + 1
    return ("solutions" if leaves else "infeasible"), nodes


def _solve(
    lat: _Lattice,
    y: list[int] | None,
    slacks: list[int] | None,
    variables: tuple[Partition, ...],
) -> SolveReport:
    """The report of a system's integer rows, given their _lattice, the
    pivot coordinates y of one integer solution and its slack values (both
    None when there is none): the status and node count of _search, the
    lattice's ray when unbounded, and every solution, whose variables are
    read off u only here.

    The solutions are x = u . (y, w, 0) over the leaves w, computed a
    column at a time: each variable's values over all leaves are its value
    at the point plus its row of u on w times the leaves' columns, and the
    rows of those columns are sorted once.  Distinct leaves give distinct
    points, as u is invertible and each slack is a function of x."""
    report = SolveReport(status="infeasible", variables=variables, stats={"nodes": 0})
    if y is None:
        return report
    leaves: list[tuple[int, ...]] = []
    report.status, report.stats["nodes"] = _search(lat, slacks, leaves)
    if report.status == "unbounded":
        report.ray = lat.ray
    elif leaves:
        columns = list(zip(*leaves))  # each coordinate of w over the leaves
        rank, count = lat.rank, len(leaves)
        values = []
        for row in lat.u:
            column = repeat(sum(map(mul, row, y)), count)
            for c, w in zip(row[rank:], columns):
                if c:
                    column = map(add, column, map(c.__mul__, w))
            values.append(column)
        # without variables, zip reads no column: each leaf is the empty point
        report.solutions = sorted(zip(*values)) if values else [()] * count
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
    y = _particular(lat, _rhs(system))
    slacks = None if y is None else _slack_values(lat, y)
    report = _solve(lat, y, slacks, system.variables)
    if report.status == "solutions":
        _recheck(system, report.solutions)
    elif report.status == "infeasible":
        report.certificate = _infeasible_core(system, matrix, slacks)
    return report


def _recheck(system: FeasibilitySystem, solutions: list[tuple[int, ...]]) -> None:
    """Defensive re-check of every solution against the system's original
    forms, independent of the rows the solver solved: at a point x with
    numerator value = den * f(x), an equality needs value == den * target
    and a form needs value >= 0 and value = 0 (mod den).

    Each form is evaluated over all solutions at once, a column at a time:
    its constant plus each coefficient times its variable's column.  A
    violation raises a RuntimeError naming the first violating solution,
    and at that solution the first violated equality, else form, in the
    system's order."""
    if not solutions:
        return
    columns = dict(zip(system.variables, zip(*solutions)))  # each variable's values
    count = len(solutions)

    def numerators(f: AffineForm) -> list[int]:
        column = repeat(f.constant, count)
        for v, c in f.coeffs:
            column = map(add, column, map(c.__mul__, columns[v]))
        return list(column)

    violations = []  # (the first violating solution's index, what it violates)
    for f, target, name in system.equalities:
        value, values = f.den * target, numerators(f)
        if values.count(value) < count:
            i = next(i for i, x in enumerate(values) if x != value)
            violations.append((i, f"equality {name}"))
    for f, name in system.nonneg_integral:
        den, values = f.den, numerators(f)
        if min(values) < 0 or any(map(den.__rmod__, values)):
            i = next(i for i, x in enumerate(values) if x < 0 or x % den)
            violations.append((i, f"form {name}"))
    if violations:
        # min keeps the first of equal indices: equalities, then forms
        i, what = min(violations, key=itemgetter(0))
        raise RuntimeError(f"solver point {solutions[i]} violates {what}")


def _infeasible_core(
    system: FeasibilitySystem, matrix: _Matrix, slacks: list[int] | None
) -> list[str]:
    """Greedy minimal subset of the non-negative-integer forms that already
    makes the system infeasible (with all equalities kept).

    `matrix` and `slacks` are the system's (slacks: its slack values at its
    integer point, None when it has none).  A trial keeps some forms and
    drops the slack-link rows and slack columns of the others, so it
    decides exactly the integer rows of the smaller system.  With a system
    point, which solves those rows too, it is the status of _search at the
    system's values of the kept slacks, on what _Matrix.trial gives: the
    system's lattice when the kept forms have it, with the directions that
    move no kept slack free, else the kept forms' own.  The status depends
    only on the trial's integer points and its relaxation, which the two
    share, so it is the same on both.  Without a system point, it is the
    status at the slack values of the trial's own point on the kept forms'
    own lattice (_Matrix.lattice).

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
    neq = matrix.neq
    live = range(len(forms))
    if slacks is None:
        rhs = _rhs(system)
    else:
        w_rows = matrix.lattice(tuple(live)).slack_w
        live = [j for j, w_row in enumerate(w_rows) if any(w_row) or slacks[j] < 0]
    core = tuple(live)
    for j in live:
        t = core.index(j)  # j stays in the core until its own trial
        kept = core[:t] + core[t + 1:]
        if slacks is None:
            sub = matrix.lattice(kept)
            y = _particular(sub, rhs[:neq] + [rhs[neq + i] for i in kept])
            infeasible = y is None or _search(sub, _slack_values(sub, y))[0] == "infeasible"
        else:
            sub = matrix.trial(kept)
            infeasible = _search(sub, list(map(slacks.__getitem__, kept)))[0] == "infeasible"
        if infeasible:
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
    are built once per call; each system adds only its forms' constants.

    The constant of mu_ell(row) is k times the multiplicity's constant: the
    row's degree, the identity's share, plus its value on each proper power
    level d > 1 of the unit times that level's trace (level_traces).  Every
    form reads the same levels, so each system is checked once, before any
    is solved, for lower levels that fix them all, and each level's vector's
    values on the rows are computed once per call and vector (the forced
    power of order p is the same in every pair system).  The constants then
    go a column at a time: each form's constant over all systems is its
    row's degree plus each trace times its row's column of values on that
    level, so no dot product is taken and no row is hashed per system, and
    each distinct (form, constant) of the call is one AffineForm, shared by
    its systems."""
    parts = dict.fromkeys([*rows_and_ells, *((row, ell) for row, ell, _ in equalities)])
    linear = {(row, ell): top_coeffs(row, k, ell, classes) for row, ell in parts}
    traces = {ell: level_traces(k, ell) for ell in dict.fromkeys(ell for _, ell in parts)}
    levels = list(dict.fromkeys(d for level in traces.values() for d in level))
    index = {row: i for i, row in enumerate(dict.fromkeys(row for row, _ in parts))}
    rows = list(index)
    # each form, then each equality, with what follows it in the system:
    # its name, or its target and name
    tails = [(row, ell, (f"mu_{ell}({row.name})",)) for row, ell in rows_and_ells]
    tails += [(row, ell, (t, f"mu_{ell}({row.name}) = {t}")) for row, ell, t in equalities]
    values: dict[tuple[int, AugVector], list[int]] = {}  # the rows' values on a level
    tables = []  # each system's tables of its levels' values, by row index
    for lower in lowers:
        tables.append([])
        for d in levels:
            if d not in lower:
                raise ValueError(f"level {d} of the unit is not fixed")
            table = values.get((d, lower[d]))
            if table is None:
                table = values[d, lower[d]] = [char_value_on_unit(row, lower[d]) for row in rows]
            tables[-1].append(table)
    # columns[l][i]: row i's values on the l-th level, over the systems
    columns = [list(zip(*level)) for level in zip(*tables)]
    count = len(lowers)
    made = []  # each form's, then equality's, entry in every system
    for row, ell, tail in tails:
        i, coeffs = index[row], linear[row, ell]
        constants = repeat(row.degree, count)
        for trace, column in zip(traces[ell].values(), columns):
            if trace:
                constants = map(add, constants, map(trace.__mul__, column[i]))
        constants = list(constants)
        shared = {c: (AffineForm(coeffs, c, k), *tail) for c in dict.fromkeys(constants)}
        made.append(list(map(shared.__getitem__, constants)))
    nform = len(rows_and_ells)
    empty = FeasibilitySystem.build(classes, [], [])
    matrix = None
    reports = []
    for entries in zip(*made) if made else repeat((), count):
        system = FeasibilitySystem(
            empty.variables, (*entries[nform:], *empty.equalities), entries[:nform]
        )
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
    report, each solution is read in that order by one itemgetter (not at
    all when FeasibilitySystem.build already put the variables in it), and
    each vector keeps its non-zero entries in that order, picked by
    compress.  AugVector validates every vector as it is built."""
    variables = report.variables
    order = sorted(range(len(variables)), key=lambda i: class_sort_key(variables[i]))
    classes = [variables[i] for i in order]
    rows = report.solutions
    if order != list(range(len(order))):  # so two or more variables
        rows = map(itemgetter(*order), rows)
    return [AugVector(k, n, tuple(zip(compress(classes, sol), filter(None, sol)))) for sol in rows]


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
