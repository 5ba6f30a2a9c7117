"""Built-in exclusion cases and the staged pipeline that runs them.

Each case bundles its own input data (ordinary rows computed on the fly,
modular rows from the packaged table files) and produces a CaseReport that
is compared against a golden fixture by the ``verify-paper`` command.
"""

from __future__ import annotations

import time
from importlib import resources

from .characters import character_value, degree, named_partition
from .lemma_filters import filter_lemma_4_3, filter_order_q_powers
from .luthar_passi import (
    AffineForm,
    AugVector,
    CharacterRow,
    allowed_support,
    forced_vector,
    format_class,
    orbit_residues,
)
from .partitions import prime_cycles
from .reports import CaseReport, first_divergence
from .solver import (
    FeasibilitySystem,
    PairResult,
    _require_no_order_pq,
    _require_pi_hypotheses,
    enumerate_system,
    report_aug_vectors,
    solve_order_pq,
    solve_prime_order,
)
from .table_io import TableFile, parse_table


def load_bundled_table(filename: str) -> TableFile:
    text = resources.files("sntorsion").joinpath("data/tables").joinpath(filename).read_text()
    return parse_table(text)


def load_golden(case_id: str) -> dict:
    import json

    text = resources.files("sntorsion").joinpath("data/golden").joinpath(case_id + ".json").read_text()
    return json.loads(text)


def ordinary_row(name: str, n: int, k: int, kind: str = "S") -> CharacterRow:
    """A distinguished ordinary character restricted to the support classes
    of a unit of order k."""
    lam = named_partition(name, n)
    classes = allowed_support(n, k, kind)
    return CharacterRow.make(
        name, degree(lam), {ct: character_value(lam, ct) for ct in classes}
    )


def _aug_to_json(aug: AugVector) -> dict[str, int]:
    return {format_class(ct): eps for ct, eps in aug.entries}


def _pair_json(result: PairResult) -> dict:
    """One order-pq pair of a report: its power candidates, status and
    certificate, plus its solutions or ray when it has them."""
    entry = {
        "q_candidate": _aug_to_json(result.q_candidate),
        "p_candidate": _aug_to_json(result.p_candidate),
        "status": result.report.status,
        "certificate": sorted(result.report.certificate),
    }
    if result.report.status == "solutions":
        entry["solutions"] = [list(sol) for sol in result.report.solutions]
    if result.report.status == "unbounded":
        entry["ray"] = list(result.report.ray)
    return entry


def _rows_json(rows_and_ells: list[tuple[CharacterRow, list[int]]]) -> list[dict]:
    return [{"name": row.name, "ells": list(ells)} for row, ells in rows_and_ells]


def _stage_pq(
    n: int,
    kind: str,
    p: int,
    q: int,
    candidates: list[AugVector],
    p_candidates: list[AugVector],
    stage_pq_groups: list[dict],
    pi_row: CharacterRow | None = None,
) -> tuple[str, dict]:
    """Solve every order-pq pair of the groups (entries as in run_exclusion)
    and return the verdict and the report's stage_pq section."""
    verdict, results = solve_order_pq(
        n, kind, p, q, candidates, p_candidates,
        [
            {**grp, "rows_and_ells": [(row, ell) for row, ells in grp["rows_and_ells"] for ell in ells]}
            for grp in stage_pq_groups
        ],
        pi_row=pi_row,
    )
    return verdict, {
        "groups": [
            {
                "name": grp["name"],
                "rows": _rows_json(grp["rows_and_ells"]),
                "pairs": [_pair_json(r) for r in results if r.group == grp["name"]],
            }
            for grp in stage_pq_groups
        ]
    }


FILTERS = {
    "q-power-weighted-sum": filter_order_q_powers,
}


def run_exclusion(
    kind: str,
    n: int,
    p: int,
    q: int,
    stage_q_rows: list[tuple[CharacterRow, list[int]]],
    stage_pq_groups: list[dict],
    filters: list[str],
    use_pi_equalities: bool = False,
    case_id: str = "custom",
) -> CaseReport:
    """The staged pipeline: enumerate order-q power candidates, filter them,
    then enumerate the order-pq system for every surviving pair.

    stage_pq_groups entries: {"name", "members": list[AugVector] | None,
    "rows_and_ells": list[(CharacterRow, list of ells)]}.
    The group (no element of order pq, a forced order-p power), the filter
    names, and the hypotheses of the filters (each run on no candidates) and
    of the pi equalities are checked before any stage, so their rejection
    does not depend on the rows.
    """
    t0 = time.monotonic()
    _require_no_order_pq(n, kind, p, q)
    for fname in filters:
        if fname not in FILTERS:
            raise ValueError(f"unknown filter {fname!r}; known: {', '.join(FILTERS)}")
    for fname in filters:
        FILTERS[fname](n, p, q, [])
    if use_pi_equalities:
        _require_pi_hypotheses(n, p, q)
    p_candidates = [forced_vector(n, p)]
    report = CaseReport(case_id=case_id, kind=kind, n=n, p=p, q=q)

    pairs = [(row, ell) for row, ells in stage_q_rows for ell in ells]
    s1 = solve_prime_order(n, kind, q, pairs)
    if s1.status == "unbounded":
        report.verdict = "undecided-unbounded"
        report.stage_q = {
            "order": q,
            "rows": _rows_json(stage_q_rows),
            "raw_count": None,
            "unbounded_ray": list(s1.ray),
        }
        report.elapsed_s = time.monotonic() - t0
        return report
    candidates = report_aug_vectors(s1, q, n)
    stage_q = {
        "order": q,
        "rows": _rows_json(stage_q_rows),
        "raw_count": len(candidates),
        "filters": [],
    }
    for fname in filters:
        candidates = FILTERS[fname](n, p, q, candidates)
        stage_q["filters"].append({"name": fname, "count_after": len(candidates)})
    stage_q["survivors"] = [_aug_to_json(c) for c in candidates]
    report.stage_q = stage_q

    pi_row = ordinary_row("pi", n, p * q, kind) if use_pi_equalities else None
    report.verdict, report.stage_pq = _stage_pq(
        n, kind, p, q, candidates, p_candidates, stage_pq_groups, pi_row
    )
    report.elapsed_s = time.monotonic() - t0
    report.validate()
    return report


# ---------------------------------------------------------------------------
# built-in cases


def case_s7_3x5() -> CaseReport:
    """No normalized unit of order 15 in Z S_7.

    The distinguished degree-20 hook character takes the same value on both
    order-3 classes and vanishes on the unique order-5 class, so the
    top-level system does not depend on the power augmentations; a single
    representative power pair therefore covers all of them.
    """
    t0 = time.monotonic()
    n, p, q = 7, 5, 3
    hook = ordinary_row("hook4", n, p * q)
    c31, c32, c51 = prime_cycles(3, 1, n), prime_cycles(3, 2, n), prime_cycles(5, 1, n)
    values = [hook.degree, hook.value(c31), hook.value(c32), hook.value(c51)]
    if hook.value(c31) != hook.value(c32) or hook.value(c51) != 0:
        raise RuntimeError(f"hook4 values {values} are not power-independent")
    q_rep = AugVector.make(q, n, {c31: 1})
    report = CaseReport(case_id="s7-3x5", kind="S", n=n, p=p, q=q)
    report.verdict, report.stage_pq = _stage_pq(
        n, "S", p, q, [q_rep], [forced_vector(n, p)],
        [{"name": "main", "members": None, "rows_and_ells": [(hook, [0, 5])]}],
    )
    report.extras = {
        "hook4_values": values,
        "power_independent": True,
        "note": "the constraining row is constant on all power-support classes, "
        "so one representative power pair decides every case",
    }
    report.elapsed_s = time.monotonic() - t0
    report.validate()
    return report


# the 18 order-3 vectors that survive the weighted-sum filter, in the three
# published groups (each group is settled by the listed rows)
S13_GROUP1 = [(-1, 0, 6, -4), (0, 0, 3, -2), (1, 0, 0, 0), (-1, 1, 5, -4),
              (0, 1, 2, -2), (1, 1, -1, 0), (-1, 2, 3, -3), (0, 2, 0, -1),
              (1, 2, -3, 1), (-1, 2, 2, -2), (0, 2, -1, 0), (1, 2, -4, 2)]
S13_GROUP2 = [(-1, 1, 4, -3), (0, 1, 1, -1), (1, 1, -2, 1), (-1, 3, 1, -2),
              (0, 3, -2, 0)]
S13_GROUP3 = [(1, 3, -5, 2)]


def _s13_vec(t: tuple[int, int, int, int]) -> AugVector:
    return AugVector.make(
        3, 13, {prime_cycles(3, j + 1, 13): t[j] for j in range(4)}
    )


def case_s13_3x11() -> CaseReport:
    """No normalized unit of order 33 in Z S_13, from the bundled 2-modular
    fixture rows."""
    t3 = load_bundled_table("s13-mod2-order3.tbl")
    t33 = load_bundled_table("s13-mod2-order33.tbl")
    stage_q_rows = [
        (t3.row("phi2_3"), [0, 1]),
        (t3.row("phi2_4"), [0, 1]),
        (t3.row("phi2_5"), [0]),
        (t3.row("phi2_6"), [0]),
    ]
    groups = [
        {"name": "group1", "members": [_s13_vec(t) for t in S13_GROUP1],
         "rows_and_ells": [(t33.row("phi2_3"), [0, 11])]},
        {"name": "group2", "members": [_s13_vec(t) for t in S13_GROUP2],
         "rows_and_ells": [(t33.row("phi2_4"), [0, 11])]},
        {"name": "group3", "members": [_s13_vec(t) for t in S13_GROUP3],
         "rows_and_ells": [(t33.row("phi2_2"), [0, 11]), (t33.row("phi2_5"), [0, 11])]},
    ]
    report = run_exclusion(
        "S", 13, 11, 3, stage_q_rows, groups,
        filters=["q-power-weighted-sum"], case_id="s13-3x11",
    )
    report.extras["reference_count_note"] = (
        "a published tally lists 128 order-3 candidates for this case using a "
        "larger row set; the six-row system reproduced here yields 141"
    )
    return report


def _case_thm32(n: int, p: int, q: int) -> CaseReport:
    """Order-pq exclusion from the three distinguished ordinary characters."""
    names = ("pi", "rho", "tau")
    stage_q_rows = [(ordinary_row(nm, n, q), orbit_residues(q)) for nm in names]
    pq_rows = [(ordinary_row(nm, n, p * q), orbit_residues(p * q)) for nm in names]
    return run_exclusion(
        "S", n, p, q, stage_q_rows,
        [{"name": "main", "members": None, "rows_and_ells": pq_rows}],
        filters=["q-power-weighted-sum"], use_pi_equalities=True,
        case_id=f"thm32-{n}-{p}-{q}",
    )


def case_lemma43_grid() -> CaseReport:
    """Involution parts of order-2p units in Z S_p: both weighted sums of the
    involution augmentations vanish.  For p in {5, 7} no normalized integer
    vector satisfies them at all; for p in {11, 13} solutions exist and are
    counted inside the box [-10, 10]^vars."""
    t0 = time.monotonic()
    box = 10
    grid = {}
    for p in (5, 7, 11, 13):
        variables = [prime_cycles(2, j, p) for j in range(1, p // 2 + 1)]
        odd = AffineForm.make({v: j for j, v in enumerate(variables, 1) if j % 2}, 0)
        even = AffineForm.make({v: j for j, v in enumerate(variables, 1) if not j % 2}, 0)
        forms = []
        for v in variables:
            forms.append((AffineForm.make({v: 1}, box), f"box lower {format_class(v)}"))
            forms.append((AffineForm.make({v: -1}, box), f"box upper {format_class(v)}"))
        system = FeasibilitySystem.build(
            variables,
            [(odd, 0, "odd-weighted-sum"), (even, 0, "even-weighted-sum")],
            forms,
        )
        rep = enumerate_system(system)
        count = len(rep.solutions)
        # every solver solution must also pass the standalone predicate
        for aug in report_aug_vectors(rep, 2, p):
            if not filter_lemma_4_3(p, aug):
                raise RuntimeError(f"solver solution {aug} fails the lemma 4.3 predicate")
        grid[str(p)] = {
            "variables": [format_class(ct) for ct in system.variables],
            "status": rep.status,
            "solutions_in_box": count,
        }
    report = CaseReport(case_id="lemma43-grid", kind="S", n=13, verdict="completed")
    report.extras = {
        "box": box,
        "grid": grid,
        "note": "odd/even weighted involution sums with the augmentation "
        "equality; infeasible outright for p in {5, 7}",
    }
    report.elapsed_s = time.monotonic() - t0
    return report


CASES = {
    "s7-3x5": case_s7_3x5,
    "s13-3x11": case_s13_3x11,
    "thm32-11-7-5": lambda: _case_thm32(11, 7, 5),
    "thm32-13-11-7": lambda: _case_thm32(13, 11, 7),
    "thm32-17-11-7": lambda: _case_thm32(17, 11, 7),
    "thm32-17-13-11": lambda: _case_thm32(17, 13, 11),
    "lemma43-grid": case_lemma43_grid,
}


def list_cases() -> list[str]:
    return list(CASES)


def run_case(case_id: str) -> CaseReport:
    if case_id not in CASES:
        raise KeyError(f"unknown case {case_id!r}; known: {', '.join(CASES)}")
    return CASES[case_id]()


def verify_case(case_id: str) -> str | None:
    """Run a case and compare to its golden fixture; None if they match,
    otherwise the first divergent field."""
    report = run_case(case_id)
    golden = load_golden(case_id)
    return first_divergence(golden, report.to_dict())
