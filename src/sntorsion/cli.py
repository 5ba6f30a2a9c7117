"""Command-line front end.

Subcommands:
  chartable     write an ordinary character table file
  solve         run the staged exclusion pipeline for one group and order
  verify-paper  run the built-in cases against their golden reports
  list-cases    list built-in case ids

Exit codes: 0 = completed run (any verdict), 2 = input error,
3 = unbounded system, 4 = fixture mismatch in verify mode.
"""

from __future__ import annotations

import argparse
import sys
from math import gcd

from .cases import (
    CASES,
    list_cases,
    ordinary_row,
    run_exclusion,
    verify_case,
)
from .characters import NAMED_CHARACTERS
from .lemma_filters import spectral_hypotheses
from .luthar_passi import allowed_support, orbit_residues
from .partitions import PRIME_TEST_BOUND, IntegerTooLong, is_prime, read_int
from .table_io import TableError, ordinary_table, parse_table, serialize_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNBOUNDED = 3
EXIT_MISMATCH = 4

CHARTABLE_LIMIT = 14


class InputError(Exception):
    pass


def _parse_group(spec: str) -> tuple[str, int]:
    unreadable = f"bad --group {spec!r}; expected e.g. S13 or A13"
    if not spec or spec[0] not in ("S", "A"):
        raise InputError(unreadable)
    try:
        n = read_int(spec[1:])
    except IntegerTooLong:  # past the bound below
        n = PRIME_TEST_BOUND
    except ValueError:
        raise InputError(unreadable) from None
    if n < 2:
        raise InputError(f"bad --group {spec!r}; the degree must be at least 2")
    # every prime factor and modulus of a run is at most the degree, and
    # the primality test decides only numbers below its bound
    if n >= PRIME_TEST_BOUND:
        raise InputError(f"bad --group {spec!r}; the degree must be below {PRIME_TEST_BOUND}")
    return spec[0], n


def _parse_order(spec: str, n: int) -> tuple[int, int]:
    unreadable = f"bad --order {spec!r}; expected e.g. 3x11"
    parts = spec.lower().split("x")
    if len(parts) != 2:
        raise InputError(unreadable)
    try:
        a, b = sorted(map(read_int, parts))
    except IntegerTooLong:
        raise InputError(f"bad --order {spec!r}; a factor exceeds the degree {n}") from None
    except ValueError:
        raise InputError(unreadable) from None
    # checked before the primality test, which takes no number past its
    # bound: a factor above the degree is no element order of the group
    if b > n:
        raise InputError(f"bad --order {spec!r}; the factor {b} exceeds the degree {n}")
    if a == b or not (is_prime(a) and is_prime(b)):
        raise InputError(f"--order {spec!r} must name two distinct primes")
    return b, a  # (p, q) with p > q


def _parse_row_spec(spec: str, q: int) -> tuple[str, list[int] | None]:
    if ":" not in spec:
        return spec, None
    name, text = spec.split(":", 1)
    try:
        ells = [read_int(tok, negative=True) for tok in text.split(",")] if text else []
    except ValueError:
        raise InputError(f"bad --rows {spec!r}; expected name:ell,ell,...") from None
    # each residue is one order-q form, and mu_ell of an integer-valued row
    # depends only on gcd(ell, q): residues with the same gcd give one form
    if not ells or len({gcd(ell, q) for ell in ells}) < len(ells):
        raise InputError(
            f"bad --rows {spec!r}; expected one or more residues with distinct gcd(ell, {q})"
        )
    return name, ells


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_count(text: str, what: str) -> int:
    try:
        return read_int(text)
    except ValueError:
        raise InputError(f"bad {what} {text!r}; expected a decimal integer") from None


def cmd_chartable(args) -> int:
    n, limit = _read_count(args.n, "degree"), _read_count(args.limit, "--limit")
    if n < 1:
        raise InputError(f"degree {n} must be positive")
    if n > limit:
        raise InputError(f"degree {n} exceeds the limit {limit}; raise it with --limit")
    try:
        table = ordinary_table(n, args.char)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(serialize_table(table), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    kind, n = _parse_group(args.group)
    p, q = _parse_order(args.order, n)
    tables = []
    for path in args.table or []:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"table {path} is not UTF-8 text: {exc}") from None
        table = parse_table(text)
        if (table.kind, table.n) != (kind, n):
            raise InputError(
                f"table {path} is for {table.kind}{table.n}, not {kind}{n}"
            )
        tables.append(table)

    def find_row(name: str, k: int, table_rows: list):
        # a brauer row has no value on its singular classes, so it reaches
        # no stage whose support has one
        support = set(allowed_support(n, k, kind))
        for row in table_rows:
            if support <= {ct for ct, _ in row.values}:
                return row
        if name in NAMED_CHARACTERS:
            try:
                return ordinary_row(name, n, k, kind)
            except ValueError as exc:
                raise InputError(str(exc)) from None
        if table_rows:
            raise InputError(
                f"no table provides row {name!r} on every class of order dividing {k}"
            )
        raise InputError(f"row {name!r} found in no table and is not a built-in character")

    row_specs = [_parse_row_spec(s, q) for s in args.rows or []]
    if not row_specs:
        raise InputError("no rows selected; pass --rows at least once")
    stage_q_rows = []
    pq_rows = []
    skipped = []
    for name, ells in row_specs:
        table_rows = [row for table in tables for row in table.rows if row.name == name]
        stage_q_rows.append(
            (find_row(name, q, table_rows), ells if ells is not None else orbit_residues(q))
        )
        # a row only usable at the power stage (missing classes of order p) is
        # silently confined to it
        try:
            pq_rows.append((find_row(name, p * q, table_rows), orbit_residues(p * q)))
        except InputError:
            skipped.append(name)
    if not pq_rows:
        raise InputError(
            f"none of the selected rows covers the order-{p * q} support classes"
        )

    hypotheses = spectral_hypotheses(n, p, q)
    if args.filters is None:
        filters = ["q-power-weighted-sum"] if hypotheses else []
    else:
        filters = [tok for tok in args.filters.split(",") if tok]

    use_pi = hypotheses and any(name == "pi" for name, _ in row_specs)
    try:
        report = run_exclusion(
            kind, n, p, q, stage_q_rows,
            [{"name": "main", "members": None, "rows_and_ells": pq_rows}],
            filters=filters, use_pi_equalities=use_pi,
            case_id=f"{kind.lower()}{n}-{q}x{p}",
        )
    except (ValueError, KeyError) as exc:
        raise InputError(str(exc)) from None
    if use_pi:
        report.extras["pi_spectral_equalities"] = True
    if skipped:
        report.extras["rows_confined_to_power_stage"] = sorted(skipped)
    if args.format == "structured":
        _emit(report.structured_json(), args.out)
    else:
        _emit(report.render_text(), args.out)
    return EXIT_UNBOUNDED if report.verdict == "undecided-unbounded" else EXIT_OK


def cmd_verify_paper(args) -> int:
    ids = list_cases() if args.case == "all" else [args.case]
    for cid in ids:
        if cid not in CASES:
            raise InputError(f"unknown case {cid!r}; known: {', '.join(CASES)}, all")
    status = EXIT_OK
    lines = []
    for cid in ids:
        diff = verify_case(cid)
        if diff is None:
            lines.append(f"{cid}: pass")
        else:
            lines.append(f"{cid}: MISMATCH at {diff}")
            status = EXIT_MISMATCH
    _emit("\n".join(lines) + "\n", args.out)
    return status


def cmd_list_cases(args) -> int:
    _emit("\n".join(list_cases()) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sntorsion",
        description="Exact exclusion of normalized torsion units of order pq "
        "in integral group rings of symmetric and alternating groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_):
        p_.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    p_chart = sub.add_parser("chartable", help="write an ordinary character table file")
    p_chart.add_argument("n", help="symmetric group degree")
    p_chart.add_argument("--char", action="append", metavar="NAME",
                         help="character to include (repeatable; default: the distinguished set)")
    p_chart.add_argument("--limit", default=str(CHARTABLE_LIMIT),
                         help=f"degree limit (default {CHARTABLE_LIMIT})")
    common(p_chart)
    p_chart.set_defaults(func=cmd_chartable)

    p_solve = sub.add_parser("solve", help="run the staged order-pq exclusion pipeline")
    p_solve.add_argument("--group", required=True, metavar="Sn|An", help="e.g. S13")
    p_solve.add_argument("--order", required=True, metavar="PxQ", help="e.g. 3x11")
    p_solve.add_argument("--table", action="append", metavar="PATH",
                         help="character table file (repeatable)")
    p_solve.add_argument("--rows", action="append", metavar="NAME[:ELLS]",
                         help="row and power-stage residues, e.g. phi2_3:0,1 (repeatable)")
    p_solve.add_argument("--filters", metavar="NAMES",
                         help="comma-separated filter names; empty string disables "
                         "(default: q-power-weighted-sum when its hypotheses hold)")
    p_solve.add_argument("--format", choices=("text", "structured"), default="text")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify-paper", help="check built-in cases against golden reports")
    p_verify.add_argument("case", nargs="?", default="all", help="case id or 'all'")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify_paper)

    p_list = sub.add_parser("list-cases", help="list built-in case ids")
    common(p_list)
    p_list.set_defaults(func=cmd_list_cases)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, TableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
