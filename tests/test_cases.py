"""Built-in cases against their frozen reports."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import is_pair_system, scratch_lattice

import sntorsion.cases as cases_mod
from sntorsion.cases import (
    CASES,
    _case_thm32,
    list_cases,
    load_golden,
    ordinary_row,
    run_case,
    run_exclusion,
    verify_case,
)
from sntorsion.luthar_passi import orbit_residues
from sntorsion.partitions import is_prime
from sntorsion import reports, solver

REPO = Path(__file__).resolve().parent.parent


def test_registry_contents():
    ids = list_cases()
    assert "s7-3x5" in ids and "s13-3x11" in ids and "lemma43-grid" in ids
    assert len(ids) == len(set(ids)) == 7


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_every_case_matches_its_frozen_report(case_id):
    assert verify_case(case_id) is None


def test_goldens_are_valid_reports():
    # each fresh report that verify_case compares with a golden is validated
    for case_id in CASES:
        golden = load_golden(case_id)
        assert golden["schema"] == reports.SCHEMA
        assert golden["case_id"] == case_id


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_every_golden_is_byte_identical_to_its_fresh_report(case_id):
    # verify_case compares parsed dicts, which forgive key order,
    # indentation and 1 versus 1.0; the golden files are the exact text
    path = REPO / "src" / "sntorsion" / "data" / "golden" / f"{case_id}.json"
    assert path.read_text() == run_case(case_id).canonical_json()


def thm32_rows(n: int, k: int, names=("pi",)):
    return [(ordinary_row(nm, n, k), orbit_residues(k)) for nm in names]


def test_run_exclusion_checks_the_hypotheses_before_any_stage():
    # (8, 7, 2) fails q >= 3; with pi alone its order-2 stage is unbounded,
    # which must not hide that neither the filter nor the pi equalities apply
    for names in (("pi",), ("pi", "rho", "tau")):
        groups = [{"name": "main", "members": None, "rows_and_ells": thm32_rows(8, 14, names)}]
        failed = r"^hypotheses n >= 7, p > n/2, q >= 3 fail for \(8, 7, 2\)$"
        with pytest.raises(ValueError, match=failed):
            run_exclusion("S", 8, 7, 2, thm32_rows(8, 2, names), groups, ["q-power-weighted-sum"])
        with pytest.raises(ValueError, match="^spectral equalities need n >= 7, p > n/2, q >= 3$"):
            run_exclusion("S", 8, 7, 2, thm32_rows(8, 2, names), groups, [], use_pi_equalities=True)


def test_run_exclusion_rejects_a_repeated_row_group_name():
    # the report files each pair under its group's name, so two groups of
    # one name would each list the pairs of both
    names = ("pi", "rho", "tau")
    groups = [
        {"name": "g", "members": [], "rows_and_ells": thm32_rows(11, 35, names)},
        {"name": "g", "members": None, "rows_and_ells": thm32_rows(11, 35, names)},
    ]
    with pytest.raises(ValueError, match="^row group 'g' listed twice$"):
        run_exclusion("S", 11, 7, 5, thm32_rows(11, 5, names), groups, [])
    with pytest.raises(ValueError, match="^row group 'g' listed twice$"):
        solver.solve_order_pq(11, "S", 7, 5, [], [], groups)


def test_s7_case_details():
    rep = run_case("s7-3x5")
    assert (rep.kind, rep.n, rep.p, rep.q) == ("S", 7, 5, 3)
    assert rep.verdict == "excluded"
    assert rep.extras["power_independent"] is True


def test_s13_case_details():
    rep = run_case("s13-3x11")
    assert rep.verdict == "excluded"
    assert rep.stage_q["raw_count"] == 141
    assert rep.stage_q["filters"][-1]["count_after"] == 18
    sizes = {g["name"]: len(g["pairs"]) for g in rep.stage_pq["groups"]}
    assert sorted(sizes.values(), reverse=True) == [12, 5, 1]
    assert all(
        pair["status"] == "infeasible"
        for g in rep.stage_pq["groups"]
        for pair in g["pairs"]
    )


def test_thm32_cases_exclude():
    for case_id in ("thm32-11-7-5", "thm32-13-11-7", "thm32-17-11-7", "thm32-17-13-11"):
        rep = run_case(case_id)
        assert rep.verdict == "excluded", case_id


def test_thm32_vacuous_instances_have_empty_top_stage():
    # when the forced order-q candidate already fails the power filter, the
    # top-level systems are never built
    for case_id in ("thm32-13-11-7", "thm32-17-13-11"):
        rep = run_case(case_id)
        assert rep.stage_q["filters"][-1]["count_after"] == 0
        assert all(g["pairs"] == [] for g in rep.stage_pq["groups"])


def test_lemma43_grid_counts():
    rep = run_case("lemma43-grid")
    grid = rep.extras["grid"]
    assert {k: v["solutions_in_box"] for k, v in grid.items()} == {
        "5": 0, "7": 0, "11": 61, "13": 660,
    }


def test_lemma43_grid_dfs_node_counts(monkeypatch):
    nodes = []
    real = cases_mod.enumerate_system

    def recording(system):
        report = real(system)
        nodes.append(report.stats["nodes"])
        return report

    monkeypatch.setattr(cases_mod, "enumerate_system", recording)
    run_case("lemma43-grid")
    assert nodes == [0, 0, 83, 999]  # p = 5, 7, 11, 13


@pytest.mark.parametrize("n, p, q, ray", [
    (15, 13, 3, [1, -4, 6, -4, 1]),
    (18, 17, 3, [4, -15, 20, -10, 0, 1]),
])
def test_thm32_order3_stage_reports_its_recession_ray(n, p, q, ray):
    rep = _case_thm32(n, p, q)
    assert rep.verdict == "undecided-unbounded"
    assert rep.stage_q["unbounded_ray"] == ray


@pytest.mark.parametrize("n, p, q, full_search_nodes", [(15, 13, 3, 2697), (18, 17, 3, 8020)])
def test_thm32_order3_stage_with_free_directions_stops_at_its_first_point(
    n, p, q, full_search_nodes, monkeypatch
):
    seen = []
    real = solver.enumerate_system

    def recording(system, matrix=None):
        report = real(system, matrix)
        if not is_pair_system(system):
            seen.append((system, report))
        return report

    monkeypatch.setattr(solver, "enumerate_system", recording)
    _case_thm32(n, p, q)
    monkeypatch.undo()
    ((system, report),) = seen
    lat = solver._matrix(system).lattice(tuple(range(len(system.nonneg_integral))))
    assert report.status == "unbounded" and lat.nfree > 0
    # the path to the first leaf, where a search of every point visits
    # full_search_nodes
    assert report.stats["nodes"] == lat.wdim + 1 == 4 < full_search_nodes


def test_thm32_12_11_3_unbounded_pairs_share_one_ray():
    rep = _case_thm32(12, 11, 3)
    pairs = rep.stage_pq["groups"][0]["pairs"]
    assert len(pairs) == 90
    assert sum(pair["status"] == "infeasible" for pair in pairs) == 76
    unbounded = [pair for pair in pairs if pair["status"] == "unbounded"]
    assert len(unbounded) == 14
    assert all(pair["ray"] == [54, -7, 27, -51, -23] for pair in unbounded)


def test_alternating_thm32_instances_take_the_order_pq_path():
    # the Theorem-3.2 instances with n <= 13, each run for A_n with pi, rho
    # and tau on the even classes, like the sweep runs them for S_n
    instances = [
        (n, p, q)
        for n in range(7, 14)
        for p in range(3, n + 1)
        for q in range(3, p)
        if is_prime(p) and is_prime(q) and 2 * p > n and p + q > n
    ]
    verdicts, pairs = {}, 0
    for n, p, q in instances:
        def rows(k):
            return [(ordinary_row(nm, n, k, "A"), orbit_residues(k)) for nm in ("pi", "rho", "tau")]

        rep = run_exclusion(
            "A", n, p, q, rows(q),
            [{"name": "main", "members": None, "rows_and_ells": rows(p * q)}],
            filters=["q-power-weighted-sum"], use_pi_equalities=True,
        )
        verdicts[n, p, q] = rep.verdict
        pairs += sum(len(g["pairs"]) for g in rep.stage_pq["groups"])
    undecided = {(12, 11, 3), (13, 11, 3), (13, 13, 3)}
    assert len(instances) == 22
    assert verdicts == {
        inst: "undecided-unbounded" if inst in undecided else "excluded" for inst in instances
    }
    assert pairs == 537


def test_run_case_is_deterministic():
    a = run_case("s13-3x11")
    b = run_case("s13-3x11")
    assert a.canonical_json() == b.canonical_json()


def test_run_case_rejects_unknown_ids():
    with pytest.raises(KeyError):
        run_case("nonesuch")


def test_verify_case_reports_a_divergence_path(monkeypatch):
    import sntorsion.cases as cases_mod

    real = cases_mod.load_golden

    def corrupted(case_id):
        data = dict(real(case_id))
        data["verdict"] = "candidates-survive"
        return data

    monkeypatch.setattr(cases_mod, "load_golden", corrupted)
    diff = verify_case("s7-3x5")
    assert diff is not None and "verdict" in diff


def test_thm32_sweep_reproduces_the_bench_reference(monkeypatch):
    # every Theorem-3.2 instance of the benchmark sweep (n <= 19) against
    # the verdict and report hash that bench/reference.json records for it,
    # and the search that decides them: systems, DFS nodes of the system
    # reports and of every search (core trials included), core trials,
    # lattice builds, each equal to the elimination from scratch and each
    # a system's, as every core trial searches its system's lattice (none
    # falls back to a lattice of its own) with the status it has on its
    # own, Fourier-Motzkin chains, one per lattice and one per trial
    # structure, the lattices whose ray is a recession ray (a coordinate
    # open) and those with free directions, and forward substitutions, one
    # per system, as every core trial starts from its system's point
    counts = Counter()
    structures = {}  # each trial structure's matrix and kept forms, by id
    real_enumerate, real_search, real_lattice, real_chain, real_particular, real_trial = (
        solver.enumerate_system, solver._search, solver._lattice, solver._chain,
        solver._particular, solver._Matrix.trial,
    )

    def enumerating(system, matrix=None):
        report = real_enumerate(system, matrix)
        counts["systems"] += 1
        counts["system nodes"] += report.stats["nodes"]
        return report

    def trying(matrix, kept):
        trial = real_trial(matrix, kept)
        structures[id(trial)] = (matrix, kept)
        return trial

    def searching(lat, slacks, leaves=None):
        status, nodes = real_search(lat, slacks, leaves)
        counts["solve nodes"] += nodes
        if leaves is None:
            counts["trials"] += 1
            counts["fallbacks"] += isinstance(lat, solver._Lattice)
            matrix, kept = structures[id(lat)]
            own = scratch_lattice(matrix.rows, matrix.nvar, matrix.neq, kept)
            assert real_search(own, slacks)[0] == status
        return status, nodes

    def building(matrix, kept):
        lat = real_lattice(matrix, kept)
        oracle = scratch_lattice(matrix.rows, matrix.nvar, matrix.neq, kept)
        assert lat == oracle
        assert len(kept) == len(matrix.rows) - matrix.neq
        counts["lattices"] += 1
        counts["open"] += lat.open is not None
        counts["free"] += lat.nfree > 0
        return lat

    def projecting(*args):
        counts["chains"] += 1
        return real_chain(*args)

    def substituting(*args):
        counts["particular"] += 1
        return real_particular(*args)

    monkeypatch.setattr(solver, "enumerate_system", enumerating)
    monkeypatch.setattr(solver, "_search", searching)
    monkeypatch.setattr(solver, "_lattice", building)
    monkeypatch.setattr(solver, "_chain", projecting)
    monkeypatch.setattr(solver, "_particular", substituting)
    monkeypatch.setattr(solver._Matrix, "trial", trying)
    reference = json.loads((REPO / "bench" / "reference.json").read_text())["thm32-sweep"]
    assert len(reference) == 67
    for key, expected in reference.items():
        n, p, q = (int(x) for x in key.split("-")[1:])
        report = _case_thm32(n, p, q)
        digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        assert {"verdict": report.verdict, "sha256": digest} == expected, key
    assert counts == {
        "systems": 898, "system nodes": 6219, "solve nodes": 12126, "trials": 4696, "fallbacks": 0,
        "lattices": 106, "chains": 477, "open": 0, "free": 9, "particular": 898,
    }
