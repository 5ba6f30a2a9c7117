"""Built-in cases against their frozen reports."""

import functools
import hashlib
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    forms_of, is_pair_system, mask_of, scratch_lattice, scratch_search, sign_trial_lattice,
)

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
from sntorsion.luthar_passi import AugVector, orbit_residues
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


@pytest.mark.parametrize("stage_q, group", [
    (("pi", "rho", "pi"), ("pi", "rho", "tau")),
    (("pi", "rho", "tau"), ("pi", "tau", "pi")),
], ids=["stage-q", "row-group"])
def test_run_exclusion_rejects_a_repeated_row_before_any_stage(stage_q, group, monkeypatch):
    # a repeated row would carry each of its forms twice; a row may recur
    # in another row group, which solves other pairs
    def unreached(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cases_mod, "solve_prime_order", unreached)
    monkeypatch.setattr(cases_mod, "solve_order_pq", unreached)
    groups = [
        {"name": "g", "members": [], "rows_and_ells": thm32_rows(11, 35, ("pi", "rho", "tau"))},
        {"name": "rest", "members": None, "rows_and_ells": thm32_rows(11, 35, group)},
    ]
    with pytest.raises(ValueError, match="^row 'pi' listed twice$"):
        run_exclusion("S", 11, 7, 5, thm32_rows(11, 5, stage_q), groups, ["q-power-weighted-sum"])


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


def test_lemma43_grid_systems_without_a_point_build_no_chain(monkeypatch):
    # p = 5 and 7 have no integer point: the system is decided by its
    # forward substitution and each of its 4 and 6 core trials by one more,
    # so neither projects a chain; p = 11 and 13 search their one chain
    chains, per_system = 0, []
    real_enumerate, real_chain = cases_mod.enumerate_system, solver._chain

    def projecting(*args):
        nonlocal chains
        chains += 1
        return real_chain(*args)

    def recording(system):
        nonlocal chains
        chains = 0
        report = real_enumerate(system)
        per_system.append((chains, report.stats.get("trials")))
        return report

    monkeypatch.setattr(cases_mod, "enumerate_system", recording)
    monkeypatch.setattr(solver, "_chain", projecting)
    run_case("lemma43-grid")
    assert per_system == [(0, 4), (0, 6), (1, None), (1, None)]  # p = 5, 7, 11, 13


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
    lat = solver._matrix(system).lattice
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
    # reports and of every search (core trials included), core trials
    # searched and decided without a search (each summed from the reports'
    # stats too), lattice builds, each equal to the elimination from
    # scratch and each a system's, as every core trial searches its
    # system's lattice, Fourier-Motzkin chains, one per lattice for its
    # systems' search, each the chain of the lattice's own w, and one per
    # trial structure, which only a searched trial builds, Hermite
    # eliminations, one per lattice and one per trial structure, the system
    # chains with a coordinate open (a recession ray) and those with free
    # directions, and forward substitutions, one per system, as every core
    # trial starts from its system's point.  No search, the system's or a
    # trial's, reads a chain with a coordinate open, and none is infeasible
    # with an empty relaxation (0 nodes): every infeasible proof is a
    # search tree.
    # Every core trial, searched or decided, is replayed: its status on its
    # structure and on the lattice from scratch of the system with the
    # dropped forms' link rows as equalities is infeasible exactly when the
    # core drops its form, and the core's answer to whether its chain is
    # closed is that structure's.  The replay builds its own structures,
    # which are not counted with the program's
    counts = Counter()
    real_enumerate, real_search, real_lattice, real_system_chain, real_chain, real_particular = (
        solver.enumerate_system, solver._search, solver._lattice, solver._Matrix.chain.func,
        solver._chain, solver._particular,
    )
    real_shared, real_hermite, real_core = (
        solver._shared_trial, solver._column_hermite, solver._infeasible_core
    )
    replaying = False

    def enumerating(system, matrix=None):
        report = real_enumerate(system, matrix)
        counts["systems"] += 1
        counts["system nodes"] += report.stats["nodes"]
        if report.status == "infeasible":
            counts["stats trials"] += report.stats["trials"]
            counts["decided"] += report.stats["decided"]
        return report

    def searching(lat, slacks, leaves=None):
        status, nodes, proof = real_search(lat, slacks, leaves)
        counts["solve nodes"] += nodes
        counts["open searches"] += lat.open is not None
        counts["empty proofs"] += status == "infeasible" and not nodes
        if leaves is None:
            counts["trials"] += 1
        return status, nodes, proof

    def coring(system, matrix, slacks, proof, nodes):
        nonlocal replaying
        names, searched, decided = real_core(system, matrix, slacks, proof, nodes)
        assert slacks is not None
        replaying = True
        final = {j for j, (_, name) in enumerate(system.nonneg_integral) if name in names}
        w_rows = matrix.lattice.slack_w
        live = [j for j, w_row in enumerate(w_rows) if any(w_row) or slacks[j] < 0]
        core = mask_of(live)
        for j in live:
            kept = core & ~(1 << j)
            trial = real_shared(matrix.lattice, kept)
            assert matrix.closed[kept] == (trial.open is None)
            status = real_search(trial, slacks)[0]
            forms = forms_of(kept)
            own = sign_trial_lattice(matrix.rows, matrix.nvar, matrix.neq, forms)
            at_kept = [slacks[i] for i in forms]
            assert real_search(scratch_search(own, range(len(forms))), at_kept)[0] == status
            if status == "infeasible":
                core = kept
        assert core == mask_of(final)
        counts["replayed"] += len(live)
        replaying = False
        return names, searched, decided

    def building(matrix, kept):
        lat = real_lattice(matrix, kept)
        oracle = scratch_lattice(matrix.rows, matrix.nvar, matrix.neq, forms_of(kept))
        assert lat == oracle
        assert kept == mask_of(range(len(matrix.rows) - matrix.neq))
        counts["lattices"] += 1
        return lat

    def system_chain(matrix):
        chain = real_system_chain(matrix)
        assert chain == scratch_search(matrix.lattice, range(len(matrix.lattice.slack_w)))
        counts["system chains"] += 1
        counts["open"] += chain.open is not None
        counts["free"] += chain.nfree > 0
        return chain

    system_chain_property = functools.cached_property(system_chain)
    system_chain_property.__set_name__(solver._Matrix, "chain")

    def projecting(*args):
        counts["chains"] += not replaying
        return real_chain(*args)

    def sharing(lat, kept):
        counts["trial structures"] += 1
        return real_shared(lat, kept)

    def eliminating(*args):
        counts["eliminations"] += not replaying
        return real_hermite(*args)

    def substituting(*args):
        counts["particular"] += 1
        return real_particular(*args)

    monkeypatch.setattr(solver, "enumerate_system", enumerating)
    monkeypatch.setattr(solver, "_search", searching)
    monkeypatch.setattr(solver, "_lattice", building)
    monkeypatch.setattr(solver._Matrix, "chain", system_chain_property)
    monkeypatch.setattr(solver, "_chain", projecting)
    monkeypatch.setattr(solver, "_shared_trial", sharing)
    monkeypatch.setattr(solver, "_column_hermite", eliminating)
    monkeypatch.setattr(solver, "_particular", substituting)
    monkeypatch.setattr(solver, "_infeasible_core", coring)
    reference = json.loads((REPO / "bench" / "reference.json").read_text())["thm32-sweep"]
    assert len(reference) == 67
    for key, expected in reference.items():
        n, p, q = (int(x) for x in key.split("-")[1:])
        report = _case_thm32(n, p, q)
        digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        assert {"verdict": report.verdict, "sha256": digest} == expected, key
    assert counts == {
        "systems": 898, "system nodes": 6219, "solve nodes": 8891, "trials": 941,
        "stats trials": 941, "decided": 3755, "replayed": 4696,
        "lattices": 106, "system chains": 106, "trial structures": 108, "chains": 214,
        "eliminations": 214, "open": 0, "free": 9,
        "particular": 898, "open searches": 0, "empty proofs": 0,
    }


def test_the_closed_chain_guard_of_a_decided_drop_changes_sweep_certificates(monkeypatch):
    # the core drops a form outside its proof's support without a search
    # only when the trial's chain leaves no coordinate open: a search of an
    # open chain with a non-empty relaxation says unbounded, so the form
    # stays.  A mutant core without that guard drops such forms and gives
    # other certificates: some sweep reports then differ from
    # bench/reference.json
    source = inspect.getsource(solver._infeasible_core)
    mutant = source.replace(" and closed:", ":")
    assert mutant != source
    namespace = {}
    exec(compile(mutant, solver.__file__, "exec"), vars(solver), namespace)

    def certificates() -> tuple[list, int]:
        seen, real = [], solver.enumerate_system

        def recording(system, matrix=None):
            report = real(system, matrix)
            seen.append(report.certificate)
            return report

        monkeypatch.setattr(solver, "enumerate_system", recording)
        differ = 0
        for key, expected in reference.items():
            n, p, q = (int(x) for x in key.split("-")[1:])
            digest = hashlib.sha256(_case_thm32(n, p, q).canonical_json().encode()).hexdigest()
            differ += digest != expected["sha256"]
        monkeypatch.setattr(solver, "enumerate_system", real)
        return seen, differ

    reference = json.loads((REPO / "bench" / "reference.json").read_text())["thm32-sweep"]
    kept, differ = certificates()
    assert differ == 0
    monkeypatch.setattr(solver, "_infeasible_core", namespace["_infeasible_core"])
    dropped, differ = certificates()
    changed = sum(a != b for a, b in zip(kept, dropped))
    assert len(kept) == len(dropped) == 898
    assert (changed, differ) == (297, 6)


def test_run_exclusion_builds_vectors_only_for_the_filter_survivors(monkeypatch):
    # the weighted-sum filter reads the order-q solutions' entries, called
    # once on all of them, and only its survivors become AugVectors
    built, filtered = [], []
    real_new, real_filter = AugVector.__new__, cases_mod.FILTERS["q-power-weighted-sum"]

    def building(cls, k, n, entries):
        built.append(real_new(cls, k, n, entries))
        return built[-1]

    def filtering(n, p, q, candidates):
        filtered.append(len(candidates))
        return real_filter(n, p, q, candidates)

    monkeypatch.setattr(AugVector, "__new__", staticmethod(building))
    monkeypatch.setitem(cases_mod.FILTERS, "q-power-weighted-sum", filtering)
    report = _case_thm32(13, 11, 3)
    stage_q = report.stage_q
    survivors = len(stage_q["survivors"])
    assert stage_q["raw_count"] > stage_q["filters"][0]["count_after"] == survivors > 0
    # the hypotheses check on no candidates, then one call on every solution
    assert filtered == [0, stage_q["raw_count"]]
    # the forced order-p vector, then one vector per survivor
    assert len(built) == 1 + survivors
