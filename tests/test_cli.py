"""Command-line interface: exit codes, output formats, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sntorsion.cases import list_cases
from sntorsion.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNBOUNDED,
    main,
)
from sntorsion.partitions import PRIME_TEST_BOUND
from sntorsion.table_io import parse_table


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_cases(capsys):
    rc, out, _ = run(capsys, "list-cases")
    assert rc == EXIT_OK
    assert out.splitlines() == list_cases()


def test_chartable_writes_a_parseable_table(capsys):
    rc, out, _ = run(capsys, "chartable", "7", "--char", "pi", "--char", "hook4")
    assert rc == EXIT_OK
    table = parse_table(out)
    assert table.n == 7
    assert table.row("pi").degree == 6
    assert table.row("hook4").degree == 20


@pytest.mark.parametrize("n, names", [
    (1, ["principal", "sgn"]),
    (2, ["pi", "pi_sgn", "principal", "sgn"]),
    (3, ["pi", "pi_sgn", "principal", "rho", "sgn"]),
])
def test_chartable_of_a_small_degree_lists_the_characters_of_s_n(n, names, capsys):
    # by default every named character that exists in S_n
    rc, out, err = run(capsys, "chartable", str(n))
    assert (rc, err) == (EXIT_OK, "")
    table = parse_table(out)
    assert (table.kind, table.n) == ("S", n)
    assert [row.name for row in table.rows] == names


def test_solve_prints_the_ray_of_an_unbounded_order_q_stage(capsys):
    rc, out, _ = run(capsys, "solve", "--group", "S8", "--order", "7x2", "--rows", "pi")
    assert rc == EXIT_UNBOUNDED
    assert "    unbounded along the ray [1, -2, 1, 0]\n" in out
    assert "candidates: None" not in out


def test_chartable_enforces_the_degree_limit(capsys):
    rc, _, err = run(capsys, "chartable", "50")
    assert rc == EXIT_INPUT and "limit" in err
    rc, _, err = run(capsys, "chartable", "10", "--limit", "9")
    assert rc == EXIT_INPUT
    rc, _, err = run(capsys, "chartable", "0")
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("spelling", ["+5", "1_0", " 6", "\u0667"])
def test_chartable_reads_its_integers_as_ascii_digits(spelling, capsys):
    # int() reads each: a '+' sign, a '_' separator, leading white space and
    # an Arabic-Indic digit, and each value is within the limit
    reason = "expected a decimal integer"
    rc, out, err = run(capsys, "chartable", spelling)
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: bad degree {spelling!r}; {reason}\n")
    rc, out, err = run(capsys, "chartable", "5", "--limit", spelling)
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: bad --limit {spelling!r}; {reason}\n")


def test_chartable_rejects_unknown_characters(capsys):
    rc, _, err = run(capsys, "chartable", "7", "--char", "nonesuch")
    assert rc == EXIT_INPUT and "nonesuch" in err
    assert err == (
        "error: unknown character 'nonesuch'; "
        "known: principal, sgn, pi, rho, tau, pi_sgn, hook4\n"
    )


def test_chartable_rejects_a_repeated_character(capsys, tmp_path):
    # a table with one row twice is one that solve --table refuses to read
    out = tmp_path / "t.tbl"
    rc, _, err = run(capsys, "chartable", "5", "--char", "pi", "--char", "pi", "--out", str(out))
    assert (rc, err) == (EXIT_INPUT, "error: row 'pi' listed twice\n")
    assert not out.exists()


@pytest.mark.parametrize("rows", [["pi", "pi"], ["pi:0,1", "pi"]])
def test_solve_rejects_a_repeated_row(rows, capsys):
    # a repeated name would carry each of its forms twice at both stages
    argv = ["solve", "--group", "S7", "--order", "5x3"]
    for spec in rows:
        argv += ["--rows", spec]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (EXIT_INPUT, "", "error: row 'pi' listed twice\n")


@pytest.mark.parametrize("spec", ["pi:", "pi:0,0", "pi:0,3"])
def test_solve_rejects_an_empty_or_repeated_residue_list(spec, capsys):
    # each order-q residue is one form: none would leave the row unused, and
    # a residue repeated modulo q has the same gcd(ell, q), so it would give
    # the same form twice
    rc, out, err = run(capsys, "solve", "--group", "S7", "--order", "5x3", "--rows", spec)
    reason = "expected one or more residues with distinct gcd(ell, 3)"
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: bad --rows {spec!r}; {reason}\n")


@pytest.mark.parametrize(
    "spec", ["pi: \u0661,\u0660", "pi:+1", "pi:0,1_0", "pi:0,1 ", "pi:0,,1", "pi:0,", "pi:,1"]
)
def test_solve_reads_residues_as_ascii_integers(spec, capsys):
    # int() reads the first four: Arabic-Indic digits after a space, a '+'
    # sign, a '_' separator, trailing white space; an empty residue is no
    # integer either, not one to skip; a residue may be negative
    rc, out, err = run(capsys, "solve", "--group", "S7", "--order", "5x3", "--rows", spec)
    reason = "expected name:ell,ell,..."
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: bad --rows {spec!r}; {reason}\n")
    rc, out, _ = run(capsys, "solve", "--group", "S7", "--order", "5x3", "--rows", "pi:-3,1")
    assert rc != EXIT_INPUT and "pi@[-3, 1]" in out


@pytest.mark.parametrize("spec", ["pi:0,1,2", "pi:1,2", "pi:-1,1"])
def test_solve_rejects_two_residues_with_the_same_gcd(spec, capsys):
    # mu_ell of an integer-valued row depends only on gcd(ell, q): residues
    # 1 and 2 modulo 3 both have gcd 1 and would give the same form twice
    rc, out, err = run(capsys, "solve", "--group", "S7", "--order", "5x3", "--rows", spec)
    reason = "expected one or more residues with distinct gcd(ell, 3)"
    assert (rc, out, err) == (EXIT_INPUT, "", f"error: bad --rows {spec!r}; {reason}\n")


@pytest.mark.parametrize("argv", [
    ["chartable", "4", "--char", "tau"],
    ["solve", "--group", "S4", "--order", "3x2", "--rows", "tau"],
])
def test_a_character_that_does_not_exist_in_s_n_is_named(argv, capsys):
    # tau's formula (n - 3, 2, 1) is no partition at n = 4
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (EXIT_INPUT, "", "error: tau is not a character of S_4\n")


def test_solve_excludes_s7_order_15(capsys):
    rc, out, _ = run(
        capsys, "solve", "--group", "S7", "--order", "3x5",
        "--rows", "pi", "--rows", "rho", "--rows", "tau", "--rows", "hook4",
    )
    assert rc == EXIT_OK
    assert "verdict: excluded" in out


def test_solve_structured_output_is_json(capsys):
    rc, out, _ = run(
        capsys, "solve", "--group", "S7", "--order", "3x5",
        "--rows", "pi", "--rows", "hook4", "--format", "structured",
    )
    assert rc == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == "report-v1"
    assert data["verdict"] == "excluded"
    assert data["extras"]["pi_spectral_equalities"] is True
    # the layout of json.dumps, the float elapsed_s included
    assert isinstance(data["elapsed_s"], float)
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_solve_order_is_symmetric_in_its_factors(capsys):
    rc1, out1, _ = run(capsys, "solve", "--group", "S7", "--order", "3x5",
                       "--rows", "pi", "--rows", "hook4", "--format", "structured")
    rc2, out2, _ = run(capsys, "solve", "--group", "S7", "--order", "5x3",
                       "--rows", "pi", "--rows", "hook4", "--format", "structured")
    assert rc1 == rc2 == EXIT_OK
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2


def test_solve_returns_three_when_the_rows_cannot_decide(capsys):
    rc, out, _ = run(capsys, "solve", "--group", "S7", "--order", "3x5",
                     "--rows", "principal")
    assert rc == EXIT_UNBOUNDED
    assert "undecided-unbounded" in out


def test_solve_input_errors(capsys):
    bad = [
        ["solve", "--group", "G7", "--order", "3x5", "--rows", "pi"],
        ["solve", "--group", "S7", "--order", "3x3", "--rows", "pi"],
        ["solve", "--group", "S7", "--order", "4x5", "--rows", "pi"],
        ["solve", "--group", "S7", "--order", "3x5"],
        ["solve", "--group", "S7", "--order", "3x5", "--rows", "nonesuch"],
        ["solve", "--group", "S7", "--order", "3x5", "--rows", "pi",
         "--table", "/nonexistent/path.tbl"],
        # S8 contains elements of order 15, so the run is rejected
        ["solve", "--group", "S8", "--order", "3x5", "--rows", "pi"],
        # built-in rows whose partition does not exist in S_n
        ["solve", "--group", "S4", "--order", "2x3", "--rows", "tau"],
        ["solve", "--group", "S1", "--order", "2x3", "--rows", "pi"],
        ["solve", "--group", "S0", "--order", "3x5", "--rows", "pi"],
    ]
    for argv in bad:
        rc, _, err = run(capsys, *argv)
        assert rc == EXIT_INPUT, argv
        assert err.startswith("error:"), argv


def test_solve_rejects_groups_of_degree_below_two(capsys):
    for group in ("S0", "S1", "A1"):
        rc, out, err = run(capsys, "solve", "--group", group, "--order", "3x5", "--rows", "pi")
        assert rc == EXIT_INPUT, group
        assert out == ""
        assert err.startswith(f"error: bad --group '{group}'"), err


def test_solve_judges_alternating_groups_by_their_own_element_orders(capsys):
    # S_7 has elements of order 10 (a 5-cycle times a transposition), but
    # they are odd, so A_7 has none and the run goes ahead
    rc, out, _ = run(capsys, "solve", "--group", "A7", "--order", "2x5", "--rows", "pi")
    assert rc == EXIT_OK
    assert "verdict: candidates-survive" in out
    # a 5-cycle times a 3-cycle is even, so A_8 has elements of order 15
    rc, _, err = run(capsys, "solve", "--group", "A8", "--order", "3x5", "--rows", "pi")
    assert rc == EXIT_INPUT
    assert "A_8" in err


def test_solve_checks_the_order_pq_preconditions_before_any_stage(capsys):
    # with pi alone the order-q stage is unbounded, which must not hide that
    # S_10 has elements of order 21 and S_11 elements of order 15
    for group, order, pq in (("S10", "3x7", 21), ("S11", "3x5", 15)):
        rc, out, err = run(capsys, "solve", "--group", group, "--order", order, "--rows", "pi")
        assert rc == EXIT_INPUT and out == ""
        assert f"has elements of order {pq}; nothing to exclude" in err
    # A_6 has two classes of order 3, so its order-3 power is not forced
    rc, out, err = run(capsys, "solve", "--group", "A6", "--order", "2x3", "--rows", "pi")
    assert rc == EXIT_INPUT and out == ""
    assert "unique class of order 3" in err and "S_6" not in err


def test_solve_rejects_unknown_filter_names_before_any_stage(capsys):
    # the S7 order-3 stage is unbounded, so a late check would never see
    # the name; the S11 one is bounded
    for argv in (
        ["--group", "S11", "--order", "5x7", "--rows", "pi", "--rows", "rho", "--rows", "tau"],
        ["--group", "S7", "--order", "3x5", "--rows", "hook4:0,5"],
    ):
        rc, out, err = run(capsys, "solve", *argv, "--filters", "bogus")
        assert rc == EXIT_INPUT and out == "", argv
        assert "unknown filter 'bogus'; known: q-power-weighted-sum" in err


def test_solve_rejects_a_repeated_filter_before_any_stage(capsys):
    # a repeated name would run its filter twice and report it twice; the
    # S7 order-3 stage is unbounded, so a late check would never see it
    for argv in (
        ["--group", "S11", "--order", "7x5", "--rows", "pi", "--rows", "rho", "--rows", "tau"],
        ["--group", "S7", "--order", "3x5", "--rows", "hook4:0,5"],
    ):
        rc, out, err = run(capsys, "solve", *argv, "--filters", ",".join(["q-power-weighted-sum"] * 2))
        assert (rc, out, err) == (
            EXIT_INPUT, "", "error: filter 'q-power-weighted-sum' listed twice\n"
        ), argv


def test_solve_checks_the_filter_hypotheses_before_any_stage(capsys):
    # (8, 7, 2) fails q >= 3: with pi alone the order-2 stage is unbounded,
    # which must not hide it; with pi, rho and tau that stage is bounded
    for rows in (["pi"], ["pi", "rho", "tau"]):
        argv = ["--group", "S8", "--order", "2x7", "--filters", "q-power-weighted-sum"]
        for name in rows:
            argv += ["--rows", name]
        rc, out, err = run(capsys, "solve", *argv)
        assert rc == EXIT_INPUT and out == "", rows
        assert "hypotheses n >= 7, p > n/2, q >= 3 fail for (8, 7, 2)" in err


def run_python(*args, timeout):
    """A fresh interpreter with src on its path, run with args;
    TimeoutExpired fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
    )


def run_process(*argv, timeout, python_flags=()):
    """The CLI in a fresh interpreter; TimeoutExpired fails the test."""
    return run_python(*python_flags, "-m", "sntorsion.cli", *argv, timeout=timeout)


@pytest.mark.parametrize("python_flags, modules", [
    ((), ["dataclasses", "inspect"]),
    (("-S",), ["dataclasses", "inspect", "importlib.resources"]),
])
def test_the_cli_starts_without_dataclasses_or_inspect(python_flags, modules):
    # the package's records are NamedTuples and slotted classes, so no
    # start-up pays for dataclasses and the inspect, ast, dis and tokenize
    # it loads; the bundled tables and goldens load importlib.resources
    # when they are read.  Under -S no site start-up (a .pth file) can
    # have loaded it first
    code = f"import sys, sntorsion.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = run_python(*python_flags, "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_paper_passes_with_asserts_stripped():
    proc = run_process("verify-paper", timeout=120, python_flags=["-O"])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert proc.stdout.count(": pass") == len(list_cases())


def test_solve_builds_the_support_of_a_large_degree_without_every_partition():
    # S_70 has 4 * 10^6 partitions; only the two with a 67- or 61-cycle and
    # fixed points can support a unit of order 4087
    proc = run_process(
        "solve", "--group", "S70", "--order", "67x61",
        "--rows", "pi", "--rows", "rho", "--rows", "tau", timeout=10,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "verdict: excluded" in proc.stdout


def test_solve_reads_characters_on_classes_with_many_cycles(capsys):
    # the pi row at order 2 reads the classes 2^j of S_1000, up to 500
    # cycles each; the Murnaghan-Nakayama evaluation does not recurse once
    # per cycle, so the run reaches the group check
    rc, out, err = run(capsys, "solve", "--group", "S1000", "--order", "997x2", "--rows", "pi")
    assert rc == EXIT_INPUT and out == ""
    assert err == "error: S_1000 has elements of order 1994; nothing to exclude\n"


def test_solve_rejects_order_factors_above_the_degree_before_testing_primality():
    proc = run_process(
        "solve", "--group", "S13", "--order", "3x1000000000000000003", "--rows", "pi",
        timeout=5,
    )
    assert proc.returncode == EXIT_INPUT and proc.stdout == ""
    assert proc.stderr == (
        "error: bad --order '3x1000000000000000003'; "
        "the factor 1000000000000000003 exceeds the degree 13\n"
    )


def test_solve_decides_a_huge_semiprime_factor_at_once(capsys):
    # 1000000016000000063 = (10^9 + 7)(10^9 + 9) is within the degree, so
    # it reaches the primality test, which decides it without trial division
    rc, out, err = run(
        capsys, "solve", "--group", "S1000000016000000063",
        "--order", "1000000016000000063x2", "--rows", "pi",
    )
    assert rc == EXIT_INPUT and out == ""
    assert err == "error: --order '1000000016000000063x2' must name two distinct primes\n"


def test_solve_rejects_a_degree_past_the_primality_bound_or_unreadable(capsys):
    bound = PRIME_TEST_BOUND
    for group, reason in [
        (f"S{bound}", f"the degree must be below {bound}"),
        ("A" + "9" * 5000, f"the degree must be below {bound}"),
        ("S1\u00b2", "expected e.g. S13 or A13"),  # a superscript digit
        ("S+13", "expected e.g. S13 or A13"),
        ("S1_3", "expected e.g. S13 or A13"),
        ("S-13", "expected e.g. S13 or A13"),
        ("S" + "0" * 5000 + "1", "the degree must be at least 2"),
    ]:
        rc, out, err = run(capsys, "solve", "--group", group, "--order", "3x5", "--rows", "pi")
        assert rc == EXIT_INPUT and out == ""
        assert err == f"error: bad --group {group!r}; {reason}\n"
    for order, reason in [
        ("3x" + "1" * 5000, "a factor exceeds the degree 13"),
        ("3x1\u00b9", "expected e.g. 3x11"),
        ("3x+5", "expected e.g. 3x11"),
        ("3x5x7", "expected e.g. 3x11"),
    ]:
        rc, out, err = run(capsys, "solve", "--group", "S13", "--order", order, "--rows", "pi")
        assert rc == EXIT_INPUT and out == ""
        assert err == f"error: bad --order {order!r}; {reason}\n"


def test_solve_with_a_table_file_round_trips(tmp_path, capsys):
    path = tmp_path / "s7.tbl"
    rc, _, _ = run(capsys, "chartable", "7", "--out", str(path))
    assert rc == EXIT_OK
    rc, out, _ = run(
        capsys, "solve", "--group", "S7", "--order", "3x5",
        "--table", str(path), "--rows", "pi:0,1", "--rows", "hook4",
    )
    assert rc == EXIT_OK
    assert "verdict: excluded" in out


def test_solve_rejects_a_table_with_a_second_group_directive(tmp_path, capsys):
    path = tmp_path / "s7-as-s9.tbl"
    path.write_text(
        "table-v1\ngroup S 7\nmode ordinary\nclass 3.1 3+1^4 3\ngroup S 9\n"
        "row pi 6\nvalue pi 3.1 3\n"
    )
    rc, out, err = run(
        capsys, "solve", "--group", "S9", "--order", "3x7",
        "--table", str(path), "--rows", "pi",
    )
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == "error: line 5: [bad-group] a second group directive\n"


def test_solve_confines_the_bundled_order3_only_row_to_the_power_stage(capsys):
    tables = Path(__file__).resolve().parents[1] / "src" / "sntorsion" / "data" / "tables"
    rc, out, _ = run(
        capsys, "solve", "--group", "S13", "--order", "3x11",
        "--table", str(tables / "s13-mod2-order3.tbl"),
        "--table", str(tables / "s13-mod2-order33.tbl"),
        "--rows", "phi2_2", "--rows", "phi2_3", "--rows", "phi2_4",
        "--rows", "phi2_5:0", "--rows", "phi2_6:0", "--format", "structured",
    )
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "excluded"
    assert report["extras"]["rows_confined_to_power_stage"] == ["phi2_6"]


S6_ROWS = ["--rows", "psi", "--rows", "pi", "--rows", "rho", "--rows", "tau",
           "--rows", "pi_sgn", "--rows", "sgn"]


def test_solve_confines_a_brauer_row_modulo_p_to_the_order_q_stage(tmp_path, capsys):
    # the natural character of S_6 on its 5-regular classes of order 2
    path = tmp_path / "s6-mod5.tbl"
    path.write_text(
        "table-v1\ngroup S 6\nmode brauer 5\nclass 2.1 2+1^4 2\nclass 2.2 2^2+1^2 2\n"
        "class 2.3 2^3 2\nrow psi 5\nvalue psi 2.1 3\nvalue psi 2.2 1\nvalue psi 2.3 -1\n"
    )
    rc, out, err = run(
        capsys, "solve", "--group", "S6", "--order", "5x2", "--table", str(path),
        *S6_ROWS, "--format", "structured",
    )
    assert (rc, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert report["verdict"] == "excluded"
    assert report["extras"]["rows_confined_to_power_stage"] == ["psi"]
    # psi is a row of the order-2 stage and of no order-10 system
    assert report["stage_q"]["rows"][0] == {"ells": [0, 1], "name": "psi"}
    [group] = report["stage_pq"]["groups"]
    assert "psi" not in [row["name"] for row in group["rows"]]


def test_solve_rejects_a_brauer_row_modulo_q(tmp_path, capsys):
    # a brauer(2) row has no value on the classes of order 2
    path = tmp_path / "s6-mod2.tbl"
    path.write_text(
        "table-v1\ngroup S 6\nmode brauer 2\nclass 3.1 3+1^3 3\nclass 5.1 5+1 5\n"
        "row psi 5\nvalue psi 3.1 2\nvalue psi 5.1 0\n"
    )
    rc, out, err = run(
        capsys, "solve", "--group", "S6", "--order", "5x2", "--table", str(path), *S6_ROWS
    )
    assert (rc, out) == (EXIT_INPUT, "")
    assert err == "error: no table provides row 'psi' on every class of order dividing 2\n"


def test_solve_rejects_a_table_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.tbl"
    path.write_bytes("table-v1\n# caf\u00e9\n".encode("latin-1"))
    rc, out, err = run(
        capsys, "solve", "--group", "S7", "--order", "3x5",
        "--table", str(path), "--rows", "pi",
    )
    assert rc == EXIT_INPUT and out == ""
    assert err.startswith(f"error: table {path} is not UTF-8 text"), err


def test_solve_rejects_tables_for_the_wrong_group(tmp_path, capsys):
    path = tmp_path / "s6.tbl"
    run(capsys, "chartable", "6", "--out", str(path))
    rc, _, err = run(
        capsys, "solve", "--group", "S7", "--order", "3x5",
        "--table", str(path), "--rows", "pi",
    )
    assert rc == EXIT_INPUT and "S6" in err


def test_verify_single_case(capsys):
    rc, out, _ = run(capsys, "verify-paper", "s7-3x5")
    assert rc == EXIT_OK
    assert out.strip() == "s7-3x5: pass"


def test_verify_all_cases(capsys):
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == len(list_cases())
    assert all(line.endswith(": pass") for line in lines)


def test_verify_unknown_case(capsys):
    rc, _, err = run(capsys, "verify-paper", "nonesuch")
    assert rc == EXIT_INPUT


def test_verify_detects_a_corrupted_golden(capsys, monkeypatch):
    import sntorsion.cases as cases_mod

    real = cases_mod.load_golden

    def corrupted(case_id):
        data = dict(real(case_id))
        data["verdict"] = "candidates-survive"
        return data

    monkeypatch.setattr(cases_mod, "load_golden", corrupted)
    rc, out, _ = run(capsys, "verify-paper", "s7-3x5")
    assert rc == EXIT_MISMATCH
    assert "MISMATCH" in out and "verdict" in out


def test_out_flag_writes_to_a_file(tmp_path, capsys):
    path = tmp_path / "cases.txt"
    rc, out, _ = run(capsys, "list-cases", "--out", str(path))
    assert rc == EXIT_OK and out == ""
    assert path.read_text().splitlines() == list_cases()


def test_bad_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
