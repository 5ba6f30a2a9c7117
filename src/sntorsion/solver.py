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
   and each slack is its value K = slack_y . y at the point plus a linear
   form in w.  A search reads only K; a variable is read off its row of u
   only at a recorded solution;
3. exact Fourier-Motzkin elimination of the slack inequalities, from the
   last w coordinate down, gives one projection chain per search, for
   every right-hand side at once (_chain): each row carries, in place of
   its constant, its non-negative multiplier vector lam over the forms, so
   a search reads the constant of each row as lam . K.  The chain keeps its
   rows in the one form a search evaluates: a row of a level with one
   multiplier is the slack row of a form i itself, with the constant K_i,
   and the others are summed without a generator per row.  The chain's
   rows with no coordinate left must be non-negative at K, and the first
   coordinate must have a value (the last elimination, read off its
   range); then the first coordinate the chain leaves open on one side,
   which reads no constant, makes the relaxation unbounded, along the
   matrix's ray.
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
empty and its search visits the one leaf.  Steps 2 and 3 depend only on
the integer matrix, not on the right-hand side: a _Lattice holds step 2,
and a _Trial the chain of the forms whose signs a search keeps, which
_search decides at its system's slack values K, giving the status, the
node count and an infeasible status's proof (see below).  Each system runs
the forward substitution once, in enumerate_system; only one with a point
reads its matrix's search of every form (_Matrix.chain).

Forms have one index space: form j is the system's j-th non-negative
integer form, K_j its slack's value, and j the name of its multiplier in
every chain that keeps it.  Every set of forms, a core, the forms a trial
keeps, a proof, a row's or a generator's support, is the bitmask with bit
j for form j.  So a chain row's support is the bitmask of its
multipliers, and every search, the system's and each core trial's, reads
the system's slack values K as they are.

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
matrix: the systems share the matrix's lattice, search and ray (_Matrix)
and the supports of its search's generators, and their core trials one
answer per set of kept forms to whether its chain is closed
(_Matrix.trial_closed) and one search per set of kept forms that a trial
searches (_Matrix.trial), so a trial builds only when it is searched and
its kept forms are new.

The infeasible core is a greedy deletion filter: one trial per form, each
the status of one search of the system without the sign of that form and
of the forms dropped before it, which allocates no report.  Each
multiplicity is an integer whatever its sign, so a trial keeps every
form's integrality: its integer points are those of the system's lattice,
and a certificate names the forms whose non-negativity the proof needs.
Such a trial eliminates no lattice of its own: one _column_hermite of the
kept slacks' rows on the system's w frees the directions that move no kept
slack, and _chain runs on the rest (_shared_trial); its multipliers name
the system's forms, so it is searched at the system's slack values.  A
form that the equalities fix at a non-negative integer (no lattice
coordinate moves its slack) can never be needed, so it gets no trial; in
the Theorem-3.2 pair systems these are the mu_ell(pi) forms, which the pi
equalities pin.  A system without an integer point is a Hermite
contradiction, which no sign takes part in: its core is the greedy set of
the forms whose integrality that contradiction needs, each trial one
forward substitution on the lattice of the equalities and the kept forms'
link rows.

An infeasible search also returns its proof, the bitmask of the forms
whose inequalities it read: each chain row carries the support of its
multipliers (_chain), _interval names the rows that set each range, and
the search takes their union over every node it visits, or the one row
of an empty relaxation, which it finds at no node.  The core keeps the
last such proof, which no dropped form is in, and decides two kinds of
trial without a search: one that drops a form outside the proof is
infeasible when the trial's chain leaves no coordinate open; and when the
system's search visited a node, so that every trial's relaxation is
non-empty, a trial whose chain leaves a coordinate open is unbounded.
Whether a trial's chain is closed is read off the system's search, with
no chain built: it is closed exactly when the supports of that search's
generators (its rows with no coordinate and the lower/upper pairs of w_0)
that lie inside the kept forms cover them (_infeasible_core), so a
decided trial builds nothing.
Each decision is the status the search would return, so every core is the
greedy filter's.

Every reported solution is re-checked against the system's original forms
in integer arithmetic, independently of the solved rows: each form is
evaluated over all solutions at once, from one column of values per
variable, and a violation names the first violating solution (_recheck).
All of it is integer arithmetic, the recession rays included.

This decides infeasibility even when the rational relaxation is unbounded,
which is how the order-pq systems with few character rows are settled.
"""

from __future__ import annotations

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
    check_support,
    class_sort_key,
    level_traces,
    top_coeffs,
)
from .lemma_filters import spectral_hypotheses
from .partitions import Partition, element_order, is_prime

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
    """What one Hermite elimination of a matrix's kept rows gives, for
    every right-hand side (see _lattice)."""

    pivot_col: tuple[int | None, ...]  # the pivot column of each row
    echelon: tuple[tuple[int, ...], ...]  # rows . u on the pivot columns
    u: tuple[tuple[int, ...], ...]  # each variable's row of u, in (y, w, v)
    slack_y: tuple[tuple[int, ...], ...]  # each slack's row of u on y
    slack_w: tuple[tuple[int, ...], ...]  # each slack's row of u on w (0 on v)
    rank: int  # the number of pivot coordinates y
    wdim: int  # the number of slack-moving coordinates w
    nfree: int  # the number of free directions v


def _forms(mask: int) -> list[int]:
    """The indices of the forms in a set of forms, a bitmask, in order."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _lattice(matrix: _Matrix, kept: int) -> _Lattice:
    """One Hermite elimination of the rows of a _matrix that a solve
    keeps: the neq equality rows and the slack-link rows of the forms in
    the set `kept`, over the nvar variables and those forms' slacks.

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
    and each slack row split once into its y part and its w part.  Each
    slack row is zero right of its pivot, so slack_w is column echelon.
    """
    nvar, neq, forms = matrix.nvar, matrix.neq, _forms(kept)
    columns = [*range(nvar), *(nvar + j for j in forms)]
    rows = [*matrix.rows[:neq], *(matrix.rows[neq + j] for j in forms)]
    m, ncols = len(rows), len(columns)
    cols = []
    for k, c in enumerate(columns):
        unit = [0] * ncols
        unit[k] = 1
        cols.append([row[c] for row in rows] + unit)
    pivots = _column_hermite(cols, [*range(m), *range(m + nvar, m + ncols)])
    # back to rows: the m kept rows . u, then u; with no columns, m empty rows
    a = list(zip(*cols)) or [()] * m
    rank = sum(row < m for row, _ in pivots)
    wdim = len(pivots) - rank
    pivot_of_row = dict(pivots)
    slack_rows = a[m + nvar:]
    return _Lattice(
        tuple(map(pivot_of_row.get, range(m))),
        tuple(r[:rank] for r in a[:m]),
        tuple(a[m:m + nvar]),
        tuple(r[:rank] for r in slack_rows),
        tuple(r[rank:rank + wdim] for r in slack_rows),
        rank, wdim, ncols - len(pivots),
    )


class _Trial(NamedTuple):
    """What _search reads: the chain of the kept slacks over the wdim
    coordinates w that move them, its multipliers named by form index, and
    the number of the other directions, for a system (_Matrix.chain) or a
    core trial (_shared_trial)."""

    wdim: int
    nfree: int
    bounds: tuple  # per level d, its rows that bound w_d: (singles (coeffs, i, support), sums)
    constant: tuple  # the rows with no coordinate, lam . K >= 0: (indices, multipliers, support)
    open: int | None  # the first coordinate its level leaves open on one side


def _shared_trial(lat: _Lattice, kept: int) -> _Trial:
    """A core trial's search, which keeps the signs of the forms in the set
    `kept` and the integrality of every form, so its integer points are
    those of the lattice `lat`: the kept slacks' rows of slack_w, reduced by
    one _column_hermite so that the pivot columns come first and the
    directions that move no kept slack join the free ones, then the chain
    of the reduced rows on the pivot columns."""
    forms = _forms(kept)
    cols = [list(col) for col in zip(*(lat.slack_w[j] for j in forms))]
    wdim = len(_column_hermite(cols, range(len(forms))))
    slack_w = list(zip(*cols[:wdim])) or [()] * len(forms)
    return _Trial(wdim, lat.nfree + lat.wdim - wdim, *_chain(slack_w, wdim, forms))


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


def _chain(slack_w, wdim: int, forms):
    """One exact Fourier-Motzkin projection chain of the slack inequalities
    slack_w[t] . w + K_j >= 0 of a lattice over its wdim coordinates w, row
    t being the slack of form j = forms[t] (in increasing order),
    eliminating from the last coordinate down, for every value K of the
    system's slacks at once: the bounds, constant and open of _Trial.

    Each row carries, in place of its constant, its multiplier vector lam
    over the forms, as (form index, multiplier) pairs in increasing index:
    coeffs is exactly the sum of lam_j times form j's row of slack_w, and
    its constant at K is lam . K.  FM combines coefficients without reading
    constants, so at each K every row is a positive multiple of a row of
    the projection of the concrete inequalities, and the other way round:
    the two chains bound every coordinate by the same rationals, and they
    leave the same coordinates open, which reads no constant.  A row is
    divided by the gcd of its coefficients and multipliers, so it stays
    integer.  Each kept row also carries its support, the bitmask of its
    multipliers' form indices.  A point at which every form of the support
    is non-negative satisfies the row.

    The rows are kept in the form the search evaluates at K: bounds[d]
    holds the rows of level d (over w_0..w_d) that bound w_d, as _interval
    reads no other (the rest pass down to level d - 1), those with one
    multiplier as (coeffs, i, support) and the others as (coeffs, indices,
    multipliers, support).  A row with one multiplier is the slack row of
    form i itself, with multiplier 1: a combination of two rows has the
    indices of both, and the two bound w_d from opposite sides, so they are
    never multiples of one slack row.  A row with no coordinate left holds
    when lam . K >= 0, and constant keeps each as (indices, multipliers,
    support).

    The last elimination, of w_0, is not run: each of its rows combines a
    lower and an upper bound of w_0 in bounds[0], and its constant is
    negative exactly when that pair leaves w_0 no value, so _search reads
    them all off w_0's range at the point.
    """
    # each row is (coeffs, lam, support); a combination's support is the
    # union of its two rows'
    slack_rows = [(w_row, ((j, 1),), 1 << j) for w_row, j in zip(slack_w, forms)]
    rows = [row for row in slack_rows if any(row[0])]
    constant = {lam: mask for w_row, lam, mask in slack_rows if not any(w_row)}
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
            tuple((coeffs, lam[0][0], mask) for coeffs, lam, mask in bounding if len(lam) == 1),
            tuple((coeffs, *zip(*lam), mask) for coeffs, lam, mask in bounding if len(lam) > 1),
        ))
        if var == 0:
            break  # the last elimination is read off w_0's range, see above
        for pc, lam_p, mask_p in pos:
            a = pc[var]
            for nc, lam_n, mask_n in neg:
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
                    out[coeffs, lam, mask_p | mask_n] = None
                else:
                    constant[lam] = mask_p | mask_n
        rows = list(out)
    constant = tuple((*zip(*lam), mask) for lam, mask in constant.items())
    return tuple(reversed(bounds)), constant, open_


def _interval(rows, d: int, prefix) -> tuple[tuple | None, tuple | None, int]:
    """Exact rational range (lo, hi) of variable d over rows (coeffs, const,
    support) of chain level d, with variables 0..d-1 pinned to prefix; each
    side is a pair (num, den) with den > 0, and None marks an unbounded
    side.  The third value is the union of the supports of the rows that
    set lo and hi (the first of equal bounds), 0 for an unbounded side.

    Rows without variable d are not checked: they are rows of level d - 1,
    which a prefix read off the earlier intervals of the chain satisfies.
    """
    lo = hi = None
    lo_mask = hi_mask = 0
    for coeffs, const, mask in rows:
        c = coeffs[d]
        if c:
            s = const + sum(map(mul, coeffs, prefix)) if d else const
            if c > 0:  # x >= -s / c
                if lo is None or -s * lo[1] > lo[0] * c:
                    lo, lo_mask = (-s, c), mask
            elif hi is None or s * hi[1] < hi[0] * -c:  # x <= s / -c
                hi, hi_mask = (s, -c), mask
    return lo, hi, lo_mask | hi_mask


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
    homogeneous = [[(row[0], 0, 0) for part in level for row in part] for level in bounds]
    point = [0] * var + [-1 if any(c[var] < 0 for c, _, _ in homogeneous[var]) else 1]
    scale = 1
    for d in range(var + 1, len(bounds)):
        lo, hi, _ = _interval(homogeneous[d], d, point)
        num, den = lo or hi or (0, 1)
        point = [x * den for x in point] + [num]
        scale *= den
    g = gcd(scale, *point)
    return tuple(x // g for x in point)


# ---------------------------------------------------------------------------
# feasibility systems


class FeasibilitySystem(NamedTuple):
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


class SolveReport:
    """Outcome of an exact enumeration: a mutable record, each of whose
    solutions, certificate and stats starts as a new empty list or dict."""

    __slots__ = ("status", "variables", "solutions", "certificate", "ray", "stats")

    def __init__(
        self,
        status: str,  # "infeasible" | "solutions" | "unbounded"
        variables: tuple[Partition, ...],
        solutions: list[tuple[int, ...]] | None = None,
        certificate: list[str] | None = None,
        ray: tuple[int, ...] | None = None,
        stats: dict[str, int | float] | None = None,
    ):
        self.status, self.variables, self.ray = status, variables, ray
        self.solutions = [] if solutions is None else solutions
        self.certificate = [] if certificate is None else certificate
        self.stats = {} if stats is None else stats

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, f) for f in names] == [getattr(other, f) for f in names]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class _Matrix:
    """The integer rows of _matrix, which systems with the same linear parts
    share, over nvar variables with the neq equalities first, and what
    their solves read, each built on its first use: the one _lattice and
    the search of every form (lattice, chain), an unbounded system's ray,
    the supports of that search's generators (generators), and two memos
    keyed by the set of a core trial's kept forms, a bitmask: whether its
    chain is closed (closed, read off the generators by trial_closed) and,
    for a trial that is searched, its _shared_trial (trials, built by
    trial)."""

    def __init__(self, rows: tuple[tuple[int, ...], ...], nvar: int, neq: int):
        self.rows, self.nvar, self.neq = rows, nvar, neq
        self.trials: dict[int, _Trial] = {}
        self.closed: dict[int, bool] = {}

    @cached_property
    def lattice(self) -> _Lattice:
        """The lattice of every form."""
        return _lattice(self, (1 << len(self.rows) - self.neq) - 1)

    @cached_property
    def chain(self) -> _Trial:
        """The search of every form: the chain of the lattice's slack rows,
        column echelon on w already, so unreduced (unlike _shared_trial)."""
        lat = self.lattice
        return _Trial(lat.wdim, lat.nfree, *_chain(lat.slack_w, lat.wdim, range(len(lat.slack_w))))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The distinct supports of the rows that generate the cone of the
        multipliers lam >= 0 with lam . slack_w = 0: the chain's rows with
        no coordinate, and each lower/upper pair of w_0's rows, which the
        chain's last elimination, left to the search, would combine."""
        chain = self.chain
        supports = {mask for *_, mask in chain.constant}
        level = [row for part in chain.bounds[0] for row in part] if chain.wdim else []
        upper = {row[-1] for row in level if row[0][0] < 0}
        for lower in {row[-1] for row in level if row[0][0] > 0}:
            supports.update(lower | mask for mask in upper)
        return tuple(supports)

    @cached_property
    def ray(self) -> tuple[int, ...]:
        """An unbounded solve's primitive ray in the variables, whatever its
        point: the recession ray of the open coordinate, else the first v."""
        lat, chain = self.lattice, self.chain
        direction = (0,) * chain.wdim + (1,)
        if chain.open is not None:
            direction = _recession_ray(chain.bounds, chain.open)
        ray = [sum(map(mul, row[lat.rank:], direction)) for row in lat.u]
        g = gcd(*ray)
        return tuple(c // g for c in ray)

    def trial(self, kept: int) -> _Trial:
        """What a core trial that keeps the forms in the set `kept` searches
        at its system's slack values, built on its first request."""
        trial = self.trials.get(kept)
        if trial is None:
            trial = self.trials[kept] = _shared_trial(self.lattice, kept)
        return trial

    def trial_closed(self, kept: int) -> bool:
        """Whether the chain of the core trial that keeps the forms in the
        set `kept` leaves no coordinate open, decided on its first request
        without building the trial: the supports of the generators that
        lie inside the kept forms cover them (see _infeasible_core)."""
        closed = self.closed.get(kept)
        if closed is None:
            cover = 0
            for support in self.generators:
                if support & kept == support:
                    cover |= support
            closed = self.closed[kept] = cover == kept
        return closed


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


def _evaluated(bounds, slacks: list[int]) -> list[tuple[tuple[int, ...], int, int]]:
    """The rows of a level's bounds (_chain), each with its constant
    lam . K at the slack values K, and its support."""
    singles, sums = bounds
    rows = [(coeffs, slacks[i], mask) for coeffs, i, mask in singles]
    if sums:
        get = slacks.__getitem__
        rows += [(coeffs, sum(map(mul, ms, map(get, idx))), mask) for coeffs, idx, ms, mask in sums]
    return rows


def _search(
    chain: _Trial, slacks: list[int], leaves: list | None = None
) -> tuple[str, int, int | None]:
    """Decide a lattice at its system's slack values K at one integer
    point, a list indexed by form, of which the chain reads the forms it
    keeps: the status ("infeasible", "solutions" or "unbounded"), the
    number of search nodes and, with "infeasible", the proof's support,
    else None.  A system passes its _Matrix.chain, a core trial its
    _Matrix.trial, each with the same list.

    Every integer solution is that point plus u . (0, w, v), so each kept
    slack is K plus its row of u on w, and K only gives the chain its
    constants lam . K.  With `leaves`, a list, the search appends the w
    of every integer point to it, in increasing order: the leaves that
    share their first wdim - 1 coordinates are one block, that prefix with
    each value of the last coordinate's integer range, appended at once
    and counted as that many nodes.  It stops at the first point when that
    point decides the status: without `leaves`, which is a core trial, and
    on a lattice with free directions, which is unbounded along the first
    of them whatever other points exist.  A lattice with a coordinate open
    is unbounded once its constant rows hold and w_0 has a value, as it
    always has when w_0 is the open one.

    The proof's support is the bitmask of the forms whose inequalities it
    reads (_chain).  At 0 nodes, the relaxation of those forms alone is
    empty: a constant row is negative, or the two rows that set w_0's range
    cross.  Otherwise the proof is the search tree, and its support is the
    union of the supports of the rows that set each visited node's range:
    no integer point of the lattice makes every form of the support
    non-negative, as each such point would lie in the range of every node
    on its path down to a leaf.
    """
    # the relaxation is empty when a row with no coordinate is negative, or
    # when w_0 has no value: that is the last elimination, which _chain
    # leaves to this range
    for idx, ms, mask in chain.constant:
        if sum(map(mul, ms, map(slacks.__getitem__, idx))) < 0:
            return "infeasible", 0, mask
    wdim = chain.wdim
    # the first point decides the status in a core trial and on a lattice
    # with free directions
    decided = None
    if leaves is None or chain.nfree:
        decided = "unbounded" if chain.nfree else "solutions"
    if not wdim:  # the one point w = ()
        if decided is None:
            leaves.append(())
        return decided or "solutions", 1, None
    # levels[d] is evaluated when the search first reaches depth d
    levels = [_evaluated(chain.bounds[0], slacks)]
    root = lo, hi, support = _interval(levels[0], 0, ())
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return "infeasible", 0, support
    if chain.open is not None:
        return "unbounded", 0, None

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
            levels.append(_evaluated(chain.bounds[depth], slacks))
        (lo, lo_den), (hi, hi_den), mask = _interval(levels[depth], depth, prefix) if depth else root
        support |= mask
        top, bottom = hi // hi_den, -(-lo // lo_den)
        if depth < last:
            stack += [prefix + (value,) for value in range(top, bottom - 1, -1)]
        elif top >= bottom:
            if decided is not None:
                return decided, nodes + 1, None
            leaves += [prefix + (value,) for value in range(bottom, top + 1)]
            nodes += top - bottom + 1
    if leaves:
        return "solutions", nodes, None
    return "infeasible", nodes, support


def _solve(
    matrix: _Matrix,
    y: list[int] | None,
    slacks: list[int] | None,
    variables: tuple[Partition, ...],
) -> tuple[SolveReport, int | None]:
    """The report of a system's integer rows, given their _Matrix, the
    pivot coordinates y of one integer solution and its slack values (both
    None when there is none): the status and node count of _search on the
    matrix's chain, read only at a point, the matrix's ray when unbounded,
    and every solution, whose variables are read off u only here; and the
    search's proof, None unless the search found the system infeasible.

    The solutions are x = u . (y, w, 0) over the leaves w, computed a
    column at a time: each variable's values over all leaves are its value
    at the point plus its row of u on w times the leaves' columns, and the
    rows of those columns are sorted once.  Distinct leaves give distinct
    points, as u is invertible and each slack is a function of x."""
    report = SolveReport(status="infeasible", variables=variables, stats={"nodes": 0})
    if y is None:
        return report, None
    leaves: list[tuple[int, ...]] = []
    report.status, report.stats["nodes"], proof = _search(matrix.chain, slacks, leaves)
    if report.status == "unbounded":
        report.ray = matrix.ray
    elif leaves:
        columns = list(zip(*leaves))  # each coordinate of w over the leaves
        rank, count = matrix.lattice.rank, len(leaves)
        values = []
        for row in matrix.lattice.u:
            column = repeat(sum(map(mul, row, y)), count)
            for c, w in zip(row[rank:], columns):
                if c:
                    column = map(add, column, map(c.__mul__, w))
            values.append(column)
        # without variables, zip reads no column: each leaf is the empty point
        report.solutions = sorted(zip(*values)) if values else [()] * count
    return report, proof


def enumerate_system(system: FeasibilitySystem, matrix: _Matrix | None = None) -> SolveReport:
    """Deterministic enumeration of the integer points: all of them, or the
    first on a lattice with free directions, which is unbounded anyway.

    `matrix` holds the system's integer rows and what their solves read
    (_Matrix); the systems of one _solve_level call share one, as they
    have the same linear parts and differ only in the right-hand side,
    which each reads off its own forms' constants.  By default the system
    and its core trials get a fresh one.  The stats of an infeasible report
    count its core trials: those searched, or without an integer point
    checked by a forward substitution ("trials"), and those its proofs
    decide without a search ("decided").
    """
    if matrix is None:
        matrix = _matrix(system)
    lat = matrix.lattice
    y = _particular(lat, _rhs(system))
    slacks = None if y is None else _slack_values(lat, y)
    report, proof = _solve(matrix, y, slacks, system.variables)
    if report.status == "solutions":
        _recheck(system, report.solutions)
    elif report.status == "infeasible":
        stats = report.stats
        report.certificate, stats["trials"], stats["decided"] = _infeasible_core(
            system, matrix, slacks, proof, stats["nodes"]
        )
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
    system: FeasibilitySystem,
    matrix: _Matrix,
    slacks: list[int] | None,
    proof: int | None,
    nodes: int,
) -> tuple[list[str], int, int]:
    """Greedy minimal subset of the non-negative-integer forms that already
    makes the system infeasible (with all equalities kept), and the number
    of its trials that were searched and of those decided without a search.

    `matrix`, `slacks`, `proof` and `nodes` are the system's (slacks: its
    slack values at its integer point, None when it has none; proof and
    nodes: its search's, None and 0 without a point).  The core, each
    trial's kept forms and each proof are sets of forms, bitmasks with bit
    j for form j, and the certificate names the core's forms in form order.
    With a point, a trial drops the signs of some forms and keeps the
    integrality of every form, so its integer points are the system's: it
    is the status of _search at the system's slack values, on the system's
    lattice with the directions that move no kept slack free
    (_Matrix.trial).  Without one, the system is a Hermite contradiction,
    which reads no sign: a trial keeps the integrality of some forms and no
    sign, and is infeasible when the equalities and the kept forms' link
    rows have no integer point (_particular on their _lattice).

    Two kinds of trial with a system point are decided without a search,
    each with the status its search would give, and build no structure:
    only a searched trial calls _Matrix.trial.  The current proof, the
    system's or that of the last searched trial that was infeasible, covers
    the current core: its support is a subset of it, and no point of the
    system's lattice makes every form of the support non-negative.
    (1) A trial that drops a form outside the support, and whose chain
    leaves no coordinate open, is infeasible: its integer points are the
    system's, none of them is feasible, and a closed chain gives the search
    no "unbounded" to return.  The core loses the form and the proof stays,
    as it still covers the core.  (2) When the system's search visited a
    node, its relaxation is non-empty, and so is every trial's, which has
    fewer forms: a trial whose chain leaves a coordinate open is unbounded
    and keeps its form.  Whether a trial's chain is closed comes from the
    system's chain (_Matrix.trial_closed): FM keeps every extreme ray of
    the cone of the multipliers lam >= 0 with lam . slack_w = 0, so the
    generators whose supports lie inside the kept forms generate the lam
    that vanish off them, and by Stiemke's lemma the kept rows leave no
    direction open exactly when one such lam is positive on every kept
    form, that is when those supports cover the kept forms.

    A form whose slack no lattice coordinate moves (its row of u is zero on
    w) is fixed by the equalities: it is constant on their real solution
    set, so every trial, which keeps every equality, sees it at its value
    at the system's point.  A form fixed at a non-negative integer is then
    redundant in every trial; the greedy filter would drop it at its turn
    and decide every other form as it does with it, so the core starts
    without it and it gets no trial.  Its slack row has no coordinate, so
    it is never in a proof's support.
    """
    forms = system.nonneg_integral
    if slacks is None:
        rhs, neq = _rhs(system), matrix.neq
        core, searched, decided = (1 << len(forms)) - 1, len(forms), 0
        for j in range(len(forms)):
            kept = core ^ 1 << j  # j stays in the core until its own trial
            kept_rhs = rhs[:neq] + [rhs[neq + i] for i in _forms(kept)]
            if _particular(_lattice(matrix, kept), kept_rhs) is None:
                core = kept
    else:
        live = [j for j, w_row in enumerate(matrix.lattice.slack_w) if any(w_row) or slacks[j] < 0]
        core, searched, decided = sum(1 << j for j in live), 0, 0
        for j in live:
            kept = core ^ 1 << j
            closed = matrix.trial_closed(kept)
            if not proof >> j & 1 and closed:
                decided += 1  # (1)
                core = kept
                continue
            if nodes and not closed:
                decided += 1  # (2)
                continue
            searched += 1
            status, _, found = _search(matrix.trial(kept), slacks)
            if status == "infeasible":
                core, proof = kept, found
    return [forms[j][1] for j in _forms(core)], searched, decided


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
    with the augmentation, and the integer matrix with its lattice
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


class RawVector(NamedTuple):
    """The entries of the order-k augmentation vector of one solution of a
    report, before any AugVector is built: its non-zero (class, value)
    pairs in class order, which a filter reads as it reads an AugVector's
    (report_raw_vectors)."""

    entries: tuple[tuple[Partition, int], ...]


def report_raw_vectors(report: SolveReport, k: int, n: int) -> list[RawVector]:
    """The entries of the order-k augmentation vector of each solution of a
    report: the variable positions are put in class order once per report,
    each solution is read in that order by one itemgetter (not at all when
    FeasibilitySystem.build already put the variables in it), and each
    vector keeps its non-zero entries in that order, picked by compress.

    What AugVector validates of a vector is checked once per report here,
    not once per solution: each of the report's classes passes
    check_support, and a report's variables are distinct.  Each solution
    sums to 1 when the system has the augmentation equality, as every
    system of FeasibilitySystem.build has and _recheck checks at every
    solution; AugVector(k, n, entries) checks that again for the vectors
    that are built."""
    variables = report.variables
    check_support(variables, n, k)
    order = sorted(range(len(variables)), key=lambda i: class_sort_key(variables[i]))
    classes = [variables[i] for i in order]
    rows = report.solutions
    if order != list(range(len(order))):  # so two or more variables
        rows = map(itemgetter(*order), rows)
    return [RawVector(tuple(zip(compress(classes, sol), filter(None, sol)))) for sol in rows]


def report_aug_vectors(report: SolveReport, k: int, n: int) -> list[AugVector]:
    """The order-k augmentation vector of each solution of a report, built
    and validated from its entries (report_raw_vectors)."""
    return [AugVector(k, n, v.entries) for v in report_raw_vectors(report, k, n)]


def has_element_of_order(n: int, k: int, kind: str) -> bool:
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


class PairResult(NamedTuple):
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
