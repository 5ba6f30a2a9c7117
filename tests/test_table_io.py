"""Table-v1 parsing, serialization, and validation codes."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from sntorsion import luthar_passi
from sntorsion.luthar_passi import MAX_CLASS_PARTS, allowed_support
from sntorsion.partitions import PRIME_TEST_BOUND, all_partitions, element_order
from sntorsion.solver import report_aug_vectors, solve_prime_order
from sntorsion.table_io import (
    TableError,
    format_cycle_type,
    ordinary_table,
    parse_cycle_type,
    parse_table,
    serialize_table,
)

GOOD = """\
table-v1
group S 7
mode ordinary
class 1 1^7 1
class 3.1 3+1^4 3          # one 3-cycle
class 3.2 3^2+1 3
class 5.1 5+1^2 5
row pi 6
row sgn 1
value pi 3.1 3
value pi 3.2 0
value pi 5.1 1
value sgn 3.1 1
value sgn 3.2 1
value sgn 5.1 1
"""


def test_parse_a_well_formed_table():
    t = parse_table(GOOD)
    assert (t.kind, t.n, t.modulus) == ("S", 7, None)
    assert [lab for lab, _ in t.classes] == ["1", "3.1", "3.2", "5.1"]
    assert dict(t.classes)["3.2"] == (3, 3, 1)
    row = t.row("pi")
    assert row.degree == 6
    assert row.value((3, 1, 1, 1, 1)) == 3
    with pytest.raises(KeyError):
        t.row("nope")
    with pytest.raises(KeyError):
        dict(t.classes)["9.9"]


def test_cycle_type_round_trip():
    for n in range(1, 13):
        for ct in all_partitions(n):
            assert parse_cycle_type(format_cycle_type(ct), 1, n) == ct
    assert format_cycle_type((3, 1, 1, 1, 1)) == "3+1^4"
    assert parse_cycle_type("1^7", 1, 7) == (1,) * 7


def test_serialize_then_parse_is_the_identity_on_canonical_tables():
    c = parse_table(serialize_table(parse_table(GOOD)))
    # canonicalization is idempotent
    assert parse_table(serialize_table(c)) == c


def test_serialization_is_canonical_under_reordering():
    shuffled = GOOD.replace(
        "class 3.1 3+1^4 3          # one 3-cycle\nclass 3.2 3^2+1 3\n",
        "class 3.2 3^2+1 3\nclass 3.1 3+1^4 3\n",
    )
    assert serialize_table(parse_table(shuffled)) == serialize_table(parse_table(GOOD))


def _expect(code, text):
    with pytest.raises(TableError) as exc:
        parse_table(text)
    assert exc.value.code == code, exc.value


def test_every_error_code():
    _expect("missing-header", "")
    _expect("missing-header", "group S 7\n")
    _expect("bad-syntax", "table-v1\nclass 3.1 3+1^4 3\n")
    _expect("bad-group", "table-v1\ngroup X 7\n")
    _expect("bad-group", "table-v1\ngroup S 0\n")
    _expect("bad-group", "table-v1\nmode ordinary\n")
    _expect("bad-mode", "table-v1\ngroup S 7\nmode brauer 4\n")
    _expect("bad-mode", "table-v1\ngroup S 7\nmode sideways\n")
    _expect("bad-mode", "table-v1\ngroup S 7\n")
    base = "table-v1\ngroup S 7\nmode ordinary\n"
    _expect("bad-class", base)
    _expect("bad-class", base + "class 3.1 3+x 3\n")
    _expect("bad-class", base + "class 3.1 3+1 3\n")  # partition of 4, not 7
    _expect("order-mismatch", base + "class 3.1 3+1^4 5\n")
    _expect("duplicate-class", base + "class 3.1 3+1^4 3\nclass 3.1 3+1^4 3\n")
    _expect(
        "singular-class",
        "table-v1\ngroup S 7\nmode brauer 3\nclass 3.1 3+1^4 3\n",
    )
    cls = base + "class 3.1 3+1^4 3\n"
    _expect("duplicate-row", cls + "row pi 6\nrow pi 6\n")
    _expect("unknown-row", cls + "value pi 3.1 3\n")
    _expect("unknown-class", cls + "row pi 6\nvalue pi 5.1 1\n")
    _expect("duplicate-value", cls + "row pi 6\nvalue pi 3.1 3\nvalue pi 3.1 3\n")
    _expect("missing-value", cls + "row pi 6\n")
    _expect("bad-integer", cls + "row pi six\n")
    _expect(
        "identity-mismatch",
        base + "class 1 1^7 1\nclass 3.1 3+1^4 3\nrow pi 6\nvalue pi 1 5\nvalue pi 3.1 3\n",
    )
    _expect("unknown-directive", base + "frobnicate 1 2 3\n")
    _expect("bad-syntax", cls + "row pi\n")
    _expect("bad-syntax", cls + "value pi 3.1\n")
    _expect("bad-syntax", base + "class 3.1 3+1^4\n")


def test_a_cycle_type_listed_under_two_labels_is_rejected():
    # the two labels would name one class: a row's values at them would be
    # one value, the last read, which serialize_table writes under each
    text = (
        "table-v1\ngroup S 5\nmode ordinary\nclass a 3+1^2 3\nclass b 3+1^2 3\n"
        "row x 4\nvalue x a 1\nvalue x b 7\n"
    )
    with pytest.raises(TableError) as exc:
        parse_table(text)
    assert (exc.value.code, exc.value.line) == ("duplicate-class", 5)
    assert str(exc.value) == "line 5: [duplicate-class] class 'b' has the cycle type of class 'a'"


def test_a_table_of_a_n_rejects_a_class_outside_a_n():
    # a transposition is odd, so 2+1^3 is no class of A_5, and it is one
    # of S_5; the identity and the even 2^2+1 are classes of both
    rows = "row x 1\nvalue x t 1\n"
    with pytest.raises(TableError) as exc:
        parse_table("table-v1\ngroup A 5\nmode ordinary\nclass t 2+1^3 2\n" + rows)
    assert (exc.value.code, exc.value.line) == ("bad-class", 4)
    assert str(exc.value) == "line 4: [bad-class] class t (2+1^3) is not in A_5"
    assert parse_table("table-v1\ngroup S 5\nmode ordinary\nclass t 2+1^3 2\n" + rows).classes == (
        ("t", (2, 1, 1, 1)),
    )
    even = "mode ordinary\nclass 1 1^5 1\nclass t 2^2+1 2\n" + rows
    for kind in "SA":
        table = parse_table(f"table-v1\ngroup {kind} 5\n" + even)
        assert table.classes == (("1", (1, 1, 1, 1, 1)), ("t", (2, 2, 1)))


def test_class_membership_is_decided_for_the_one_class(monkeypatch):
    # the S_200 cycle types of order dividing 12 number about 1.5e6, so a
    # membership test that built them would not finish; parity decides it
    def refuse(*args):
        raise AssertionError("allowed_support called")

    monkeypatch.setattr(luthar_passi, "allowed_support", refuse)
    monkeypatch.setattr(luthar_passi, "_allowed_support", refuse)
    ct = (12,) * 16 + (4, 4)
    for kind in "SA":
        table = parse_table(
            f"table-v1\ngroup {kind} 200\nmode ordinary\nclass a 12^16+4^2 12\n"
            "row x 1\nvalue x a 1\n"
        )
        assert table.classes == (("a", ct),)
    with pytest.raises(TableError) as exc:
        parse_table("table-v1\ngroup A 200\nmode ordinary\nclass a 12^16+4+2^2 12\n")
    assert str(exc.value) == "line 4: [bad-class] class a (12^16+4+2^2) is not in A_200"


@pytest.mark.parametrize("token, message", [
    # a repeat of 0 once parsed as the identity 1^7
    ("3^0+1^7", "repeat below 1"),
    ("3^-1+1^7", "repeat below 1"),
    # above sys.maxsize: the repeat is compared with the degree before any
    # part is repeated, so it builds no list
    ("1^9223372036854775808", "not a partition of 7"),
])
def test_a_class_repeat_below_1_or_past_the_degree_is_rejected(token, message):
    with pytest.raises(TableError) as exc:
        parse_table(f"table-v1\ngroup S 7\nmode ordinary\nclass a {token} 1\n")
    assert (exc.value.code, exc.value.line) == ("bad-class", 4)
    assert message in str(exc.value)


def test_a_second_group_or_mode_directive_is_rejected():
    # a table of S_7 classes must not pass as an S_9 table
    base = "table-v1\ngroup S 7\nmode ordinary\nclass 3.1 3+1^4 3\n"
    with pytest.raises(TableError) as exc:
        parse_table(base + "group S 9\n")
    assert (exc.value.code, exc.value.line) == ("bad-group", 5)
    with pytest.raises(TableError) as exc:
        parse_table(base + "mode brauer 5\n")
    assert (exc.value.code, exc.value.line) == ("bad-mode", 5)
    _expect("bad-group", "table-v1\ngroup S 7\ngroup S 7\n")
    _expect("bad-mode", "table-v1\ngroup S 7\nmode ordinary\nmode ordinary\n")


def test_a_modulus_above_the_degree_is_rejected_before_the_primality_test(monkeypatch):
    # 1000000016000000063 = 1000000007 * 1000000009 takes trial division
    # minutes; the bound is checked once both directives are read, in
    # either order, and no modulus above the degree reaches is_prime
    import sntorsion.table_io as table_io_mod

    tested = []
    real = table_io_mod.is_prime

    def recording(k):
        tested.append(k)
        return real(k)

    monkeypatch.setattr(table_io_mod, "is_prime", recording)
    for text, line in [
        ("table-v1\ngroup S 7\nmode brauer 1000000016000000063\n", 3),
        ("table-v1\nmode brauer 1000000016000000063\ngroup S 7\n", 3),
        ("table-v1\nmode brauer 11\n\ngroup A 7\n", 4),
    ]:
        with pytest.raises(TableError) as exc:
            parse_table(text)
        assert (exc.value.code, exc.value.line) == ("bad-mode", line)
        assert "exceeds the degree 7" in str(exc.value)
    assert tested == []
    _expect("bad-mode", "table-v1\nmode brauer 4\ngroup S 7\n")  # not prime
    assert tested == [4]
    assert parse_table("table-v1\nmode brauer 7\ngroup S 7\nclass 3.1 3+1^4 3\n").modulus == 7


def test_a_huge_degree_and_modulus_are_decided_without_trial_division():
    # (10^9 + 7)(10^9 + 9) is within its own degree, so it reaches the
    # primality test, which decides it at once; a degree at the test's
    # bound would let a modulus past it through, so it is rejected
    semiprime = 1000000016000000063
    with pytest.raises(TableError) as exc:
        parse_table(f"table-v1\ngroup S {semiprime}\nmode brauer {semiprime}\n")
    assert (exc.value.code, exc.value.line) == ("bad-mode", 3)
    assert f"modulus {semiprime} is not prime" in str(exc.value)
    for degree in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 1):
        with pytest.raises(TableError) as exc:
            parse_table(f"table-v1\nmode brauer 2\ngroup A {degree}\n")
        assert (exc.value.code, exc.value.line) == ("bad-group", 3)
        assert f"must be below {PRIME_TEST_BOUND}" in str(exc.value)


@pytest.mark.parametrize("lines, code, message", [
    # int() reads each of these tokens: a non-ASCII digit, a '+' sign, a
    # '_' separator (3_0 would read as 30) and a '-' where no negative
    # value is legal
    (["group S \u0667"], "bad-integer", "degree '\u0667' is not an integer"),
    (["group S 7", "mode ordinary", "class e 1^7 +1"], "bad-integer", "element order '+1'"),
    (["group S 34", "mode ordinary", "class x 3_0^1+1^4 30"], "bad-class",
     "unreadable cycle type '3_0^1+1^4'"),
    (["group S 7", "mode brauer -2"], "bad-integer", "modulus '-2' is not an integer"),
    (["group S 7", "mode ordinary", "class 3.1 3+1^4 3", "row pi -6"], "bad-integer",
     "degree '-6' is not an integer"),
    (["group S 7", "mode ordinary", "class 3.1 3+1^4 3", "row pi 6", "value pi 3.1 \uff13"],
     "bad-integer", "character value '\uff13' is not an integer"),
    # past int()'s digits, a degree is past the primality bound
    (["group S " + "9" * 5000], "bad-group", f"must be below {PRIME_TEST_BOUND}"),
    (["group S 7", "mode ordinary", "class 3.1 3+1^4 3", "row pi 6", "value pi 3.1 " + "9" * 5000],
     "bad-integer", "has too many digits"),
])
def test_table_integers_are_ascii_digits(lines, code, message):
    text = "\n".join(["table-v1", *lines]) + "\n"
    with pytest.raises(TableError) as exc:
        parse_table(text)
    assert (exc.value.code, exc.value.line) == (code, len(lines) + 1)
    assert message in str(exc.value)


def test_a_character_value_may_be_negative_and_digits_may_lead_with_zeros():
    table = parse_table(
        "table-v1\ngroup S 007\nmode ordinary\nclass 3.1 3+1^04 3\nrow psi 06\nvalue psi 3.1 -03\n"
    )
    assert table.n == 7 and table.row("psi").degree == 6
    assert table.row("psi").value((3, 1, 1, 1, 1)) == -3


def test_a_class_past_the_part_cap_is_rejected_before_any_part_is_built():
    # a degree of 10^12 is below the primality bound, and its identity
    # class would be a list of 10^12 parts: the child process has 1 GiB of
    # address space, so building it would fail there, not here
    code = (
        "from sntorsion.table_io import TableError, parse_table\n"
        "try:\n"
        "    parse_table('table-v1\\ngroup S 1000000000000\\nmode ordinary\\n'\n"
        "                'class e 1^1000000000000 1\\n')\n"
        "except TableError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        f"line 4: [bad-class] cycle type 1^1000000000000 has more than {MAX_CLASS_PARTS} parts\n"
    )


def test_the_part_cap_admits_a_class_of_exactly_that_many_parts(monkeypatch):
    monkeypatch.setattr(luthar_passi, "MAX_CLASS_PARTS", 5)
    assert parse_cycle_type("2+1^4", 1, 6) == (2, 1, 1, 1, 1)
    assert parse_cycle_type("1^5", 1, 5) == (1,) * 5
    with pytest.raises(TableError, match="more than 5 parts"):
        parse_cycle_type("1^6", 1, 6)
    with pytest.raises(TableError, match="more than 5 parts"):
        parse_cycle_type("1^3+1^3", 1, 6)


def test_every_bundled_table_names_a_modulus_within_its_degree():
    from sntorsion.cases import load_bundled_table

    names = ["s13-mod2-order3.tbl", "s13-mod2-order33.tbl"]
    assert [(t.n, t.modulus) for t in map(load_bundled_table, names)] == [(13, 2), (13, 2)]


def test_error_carries_the_line_number():
    with pytest.raises(TableError) as exc:
        parse_table("table-v1\ngroup S 7\nmode ordinary\nclass 3.1 3+1^4 5\n")
    assert exc.value.line == 4
    assert "[order-mismatch]" in str(exc.value)
    with pytest.raises(TableError) as exc:
        parse_table("table-v1\ngroup S 7\nmode ordinary\nclass 3.1 3+x 3\n")
    assert str(exc.value) == "line 4: [bad-class] unreadable cycle type '3+x'"


def test_generated_ordinary_tables_round_trip_for_small_degrees():
    for n in range(5, 11):
        c = parse_table(serialize_table(ordinary_table(n)))
        assert parse_table(serialize_table(c)) == c


def test_table_rows_feed_the_pipeline_identically_to_in_memory_rows():
    # computing from the serialized table must give the same enumeration as
    # computing from freshly generated character rows
    n, q = 7, 3
    support = allowed_support(n, q)
    direct = ordinary_table(n)
    reread = parse_table(serialize_table(direct))
    for table in (direct, reread):
        rows = [(table.row("pi"), 0), (table.row("pi"), 1), (table.row("rho"), 0)]
        report = solve_prime_order(n, "S", q, rows)
        vectors = report_aug_vectors(report, q, n)
        assert vectors == report_aug_vectors(
            solve_prime_order(
                n, "S", q,
                [(direct.row("pi"), 0), (direct.row("pi"), 1), (direct.row("rho"), 0)],
            ),
            q, n,
        )
    assert all(sum(v.value(ct) for ct in support) == 1 for v in vectors)
