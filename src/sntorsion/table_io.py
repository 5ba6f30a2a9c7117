"""Line-oriented character-table files (format ``table-v1``).

The format is the only data-interchange surface of the package: modular
(Brauer) character values cannot be computed here from first principles, so
cases needing them read the values from a file.  Ordinary tables can also be
written and re-read, which doubles as a pipeline cross-check.

Grammar (one directive per line; blank lines and ``#`` comments ignored)::

    table     := header group mode class+ row+ value*
    header    := "table-v1"
    group     := "group" ("S" | "A") n
    mode      := "mode" "ordinary" | "mode" "brauer" r
    class     := "class" label cycle-type order
    row       := "row" name degree
    value     := "value" name label integer

    cycle-type := part ("+" part)*      e.g.  3+1^10
    part       := c | c "^" m           (a cycle length, optionally repeated)

Class labels are written in the ``r.j`` shorthand where possible; row names
are free-form opaque labels, and each cycle type has one label.  Classes are
S_n cycle types for ``group A`` as well, each one of an even permutation,
so a row there must take the same value on both halves of a cycle type that
splits in A_n (distinct odd parts): the solver has one variable per cycle
type (see luthar_passi.allowed_support).  Every row must provide a value
for every listed class; the identity class is implicit (its value is the
degree).
Serialization is canonical: classes in the standard class order, rows by
name, and parse(serialize(t)) == t whenever t is already in that order.
"""

from __future__ import annotations

from contextlib import suppress
from typing import NamedTuple

from .characters import NAMED_CHARACTERS, character_value, degree, named_partition
from . import luthar_passi
from .luthar_passi import (
    CharacterRow, class_sort_key, format_class, format_cycle_type, in_group,
)
from .partitions import (
    PRIME_TEST_BOUND,
    IntegerTooLong,
    Partition,
    all_partitions,
    element_order,
    is_prime,
    read_int,
)


class TableError(ValueError):
    """Parse or validation failure, carrying a stable code and location."""

    def __init__(self, code: str, line: int | None, message: str):
        super().__init__(f"line {line}: [{code}] {message}" if line else f"[{code}] {message}")
        self.code = code
        self.line = line


class TableFile(NamedTuple):
    """A validated character table: group, modulus (None for an ordinary
    table), classes, rows."""

    kind: str  # "S" | "A"
    n: int
    modulus: int | None
    classes: tuple[tuple[str, Partition], ...]  # (label, cycle type)
    rows: tuple[CharacterRow, ...]

    def row(self, name: str) -> CharacterRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"table has no row named {name!r}")


def parse_cycle_type(token: str, line: int, n: int) -> Partition:
    """A class's cycle type, which must be a partition of the table's
    degree n; TableError "bad-class" otherwise."""
    try:
        return luthar_passi.parse_cycle_type(token, n)
    except ValueError as exc:
        raise TableError("bad-class", line, str(exc)) from None


def _int(
    token: str, line: int, what: str, negative: bool = False, too_long: int | None = None
) -> int:
    """A table integer, by read_int: ASCII digits, after a '-' only where
    `negative` allows one; TableError "bad-integer" otherwise.  A number of
    more digits than int() converts reads as `too_long` when it is given,
    for a caller that rejects every number that large."""
    try:
        return read_int(token, negative)
    except IntegerTooLong:
        if too_long is None:
            raise TableError("bad-integer", line, f"{what} {token!r} has too many digits") from None
        return too_long
    except ValueError:
        raise TableError("bad-integer", line, f"{what} {token!r} is not an integer") from None


def _check_modulus(modulus: int, n: int, line: int) -> None:
    """A brauer modulus must be a prime r <= n, as only then does S_n have
    r-singular classes to leave out.  The bound comes first, so a modulus
    reaches the primality test only below the degree's own bound."""
    if modulus > n:
        raise TableError("bad-mode", line, f"modulus {modulus} exceeds the degree {n}")
    if not is_prime(modulus):
        raise TableError("bad-mode", line, f"modulus {modulus} is not prime")


def parse_table(text: str) -> TableFile:
    """Parse and fully validate a table-v1 stream."""
    kind = n = mode = modulus = None
    class_labels: dict[str, Partition] = {}  # in the order the classes are listed
    labels_of: dict[Partition, str] = {}  # each cycle type's label
    row_degrees: dict[str, int] = {}  # in the order the rows are listed
    values: dict[str, dict[str, int]] = {}
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_seen:
            if tokens != ["table-v1"]:
                raise TableError("missing-header", lineno, "first directive must be 'table-v1'")
            header_seen = True
            continue
        directive = tokens[0]
        if directive == "group":
            if kind is not None:
                raise TableError("bad-group", lineno, "a second group directive")
            if len(tokens) != 3 or tokens[1] not in ("S", "A"):
                raise TableError("bad-group", lineno, "expected: group S|A <n>")
            kind = tokens[1]
            n = _int(tokens[2], lineno, "degree", too_long=PRIME_TEST_BOUND)
            if n < 1:
                raise TableError("bad-group", lineno, f"degree {n} must be positive")
            # the modulus is at most the degree, and the primality test
            # decides only numbers below its bound
            if n >= PRIME_TEST_BOUND:
                raise TableError(
                    "bad-group", lineno, f"degree {tokens[2]} must be below {PRIME_TEST_BOUND}"
                )
            if modulus is not None:
                _check_modulus(modulus, n, lineno)
        elif directive == "mode":
            if mode is not None:
                raise TableError("bad-mode", lineno, "a second mode directive")
            mode = tokens[1:]
            if len(tokens) == 3 and tokens[1] == "brauer":
                modulus = _int(tokens[2], lineno, "modulus")
                if n is not None:
                    _check_modulus(modulus, n, lineno)
            elif mode != ["ordinary"]:
                raise TableError("bad-mode", lineno, "expected: mode ordinary | mode brauer <r>")
        elif directive == "class":
            if n is None or mode is None:
                raise TableError("bad-syntax", lineno, "class before group/mode directives")
            if len(tokens) != 4:
                raise TableError("bad-syntax", lineno, "expected: class <label> <cycle-type> <order>")
            label = tokens[1]
            if label in class_labels:
                raise TableError("duplicate-class", lineno, f"class {label!r} listed twice")
            ct = parse_cycle_type(tokens[2], lineno, n)
            if ct in labels_of:
                raise TableError(
                    "duplicate-class", lineno,
                    f"class {label!r} has the cycle type of class {labels_of[ct]!r}",
                )
            order = _int(tokens[3], lineno, "element order")
            if order != element_order(ct):
                raise TableError(
                    "order-mismatch", lineno,
                    f"declared order {order} differs from the cycle type's order {element_order(ct)}",
                )
            if not in_group(ct, kind):
                raise TableError("bad-class", lineno, f"class {label} ({tokens[2]}) is not in {kind}_{n}")
            if modulus is not None and order % modulus == 0:
                raise TableError("singular-class", lineno, f"class {label} is {modulus}-singular")
            class_labels[label] = ct
            labels_of[ct] = label
        elif directive == "row":
            if len(tokens) != 3:
                raise TableError("bad-syntax", lineno, "expected: row <name> <degree>")
            name = tokens[1]
            if name in row_degrees:
                raise TableError("duplicate-row", lineno, f"row {name!r} listed twice")
            row_degrees[name] = _int(tokens[2], lineno, "degree")
            values[name] = {}
        elif directive == "value":
            if len(tokens) != 4:
                raise TableError("bad-syntax", lineno, "expected: value <row> <class> <integer>")
            name, label = tokens[1], tokens[2]
            if name not in row_degrees:
                raise TableError("unknown-row", lineno, f"value for undeclared row {name!r}")
            if label not in class_labels:
                raise TableError("unknown-class", lineno, f"value at undeclared class {label!r}")
            if label in values[name]:
                raise TableError("duplicate-value", lineno, f"value ({name}, {label}) given twice")
            v = _int(tokens[3], lineno, "character value", negative=True)
            if element_order(class_labels[label]) == 1 and v != row_degrees[name]:
                raise TableError(
                    "identity-mismatch", lineno,
                    f"identity value {v} differs from declared degree {row_degrees[name]}",
                )
            values[name][label] = v
        else:
            raise TableError("unknown-directive", lineno, f"unknown directive {directive!r}")

    if not header_seen:
        raise TableError("missing-header", None, "empty stream")
    if kind is None or n is None:
        raise TableError("bad-group", None, "no group directive")
    if mode is None:
        raise TableError("bad-mode", None, "no mode directive")
    if not class_labels:
        raise TableError("bad-class", None, "no classes listed")

    rows = []
    for name, row_degree in row_degrees.items():
        row_values = {}
        for label, ct in class_labels.items():
            if element_order(ct) == 1:
                continue  # implicit: the degree
            if label not in values[name]:
                raise TableError("missing-value", None, f"row {name!r} has no value at class {label!r}")
            row_values[ct] = values[name][label]
        try:
            rows.append(CharacterRow.make(name, row_degree, row_values, modulus))
        except ValueError as exc:
            raise TableError("bad-row", None, f"row {name!r}: {exc}") from None

    return TableFile(kind, n, modulus, tuple(class_labels.items()), tuple(rows))


def serialize_table(table: TableFile) -> str:
    """Canonical text form: sorted classes, rows by name, values in class
    order."""
    lines = ["table-v1", f"group {table.kind} {table.n}"]
    lines.append("mode ordinary" if table.modulus is None else f"mode brauer {table.modulus}")
    classes = sorted(table.classes, key=lambda lc: class_sort_key(lc[1]))
    for label, ct in classes:
        lines.append(f"class {label} {format_cycle_type(ct)} {element_order(ct)}")
    for row in sorted(table.rows, key=lambda r: r.name):
        lines.append(f"row {row.name} {row.degree}")
    for row in sorted(table.rows, key=lambda r: r.name):
        for label, ct in classes:
            if element_order(ct) == 1:
                continue
            lines.append(f"value {row.name} {label} {row.value(ct)}")
    return "\n".join(lines) + "\n"


def ordinary_table(n: int, names: list[str] | None = None) -> TableFile:
    """Generate an ordinary TableFile for the named characters, by default
    every distinguished character that named_partition accepts for n, with
    exact computed values on all classes."""
    chars = {}
    for name in NAMED_CHARACTERS if names is None else names:
        # a repeated name, or a requested one that S_n lacks, is an error
        if name in chars:
            raise ValueError(f"row {name!r} listed twice")
        with suppress(ValueError if names is None else ()):
            chars[name] = named_partition(name, n)
    class_list = tuple(
        (format_class(ct), ct) for ct in sorted(all_partitions(n), key=class_sort_key)
    )
    rows = tuple(
        CharacterRow.make(
            name,
            degree(lam),
            {ct: character_value(lam, ct) for _, ct in class_list if element_order(ct) != 1},
        )
        for name, lam in chars.items()
    )
    return TableFile("S", n, None, class_list, rows)
