"""Structured case reports (schema ``report-v1``).

A CaseReport is the audit trail of one exclusion run: which rows constrained
each stage, how many candidates survived each named filter, the per-pair
verdicts of the top-level systems, and the overall verdict.  The canonical
JSON form deliberately omits wall-clock time and search statistics so that
reports are byte-comparable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite

SCHEMA = "report-v1"


def _json_text(value, newline: str = "\n") -> str:
    """Exactly json.dumps(value, indent=2, sort_keys=True) for the value
    types of a report: dicts with str keys, lists, str, int, bool, None and
    finite floats.  json's C encoder runs only without indent, so this
    writer joins the text itself and leaves only the escaping of strings to
    the C escaper.  Any other type, or a key that is not a str, is a
    TypeError; a float that is not finite is a ValueError.  `newline` is
    the line break and indentation of the level the value is nested at:
    its items go one level deeper, and its closing bracket starts a line
    at `newline`.

    A value is dispatched on its exact type, to its writer in _WRITERS.  A
    value of any other type goes to the writer of the nearest class in its
    method resolution order that has one, so that a subclass (an IntEnum, a
    str subclass, an OrderedDict) prints as json.dumps prints it."""
    write = _WRITERS.get(type(value))
    if write is None:
        write = next((_WRITERS[cls] for cls in type(value).__mro__ if cls in _WRITERS), None)
        if write is None:
            raise TypeError(f"{type(value).__name__} {value!r} is not a report value")
    return write(value, newline)


def _float_text(value: float, newline: str) -> str:
    if not isfinite(value):
        raise ValueError(f"float {value!r} is not JSON compliant")
    return float.__repr__(value)


def _list_text(value: list, newline: str) -> str:
    if not value:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"


def _dict_text(value: dict, newline: str) -> str:
    if not value:
        return "{}"
    for key in value:
        if not isinstance(key, str):
            raise TypeError(f"key {key!r} is not a str")
    inner = newline + "  "
    items = [
        encode_basestring_ascii(key) + ": " + _json_text(v, inner)
        for key, v in sorted(value.items())
    ]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


# the writer of each exact type of a report value: (value, newline) -> text
_WRITERS = {
    str: lambda value, newline: encode_basestring_ascii(value),
    int: lambda value, newline: int.__repr__(value),
    bool: lambda value, newline: "true" if value else "false",
    type(None): lambda value, newline: "null",
    float: _float_text,
    list: _list_text,
    dict: _dict_text,
}


@dataclass
class CaseReport:
    """Audit trail of one case run."""

    case_id: str
    kind: str  # "S" | "A"
    n: int
    p: int | None = None
    q: int | None = None
    verdict: str = ""
    stage_q: dict | None = None
    stage_pq: dict | None = None
    extras: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def validate(self) -> None:
        if self.stage_q is not None:
            last = self.stage_q["raw_count"]
            for f in self.stage_q.get("filters", []):
                if f["count_after"] > last:
                    raise ValueError(
                        f"filter {f['name']} increased the candidate count "
                        f"({last} -> {f['count_after']})"
                    )
                last = f["count_after"]
        if self.verdict == "excluded" and self.stage_pq is not None:
            for grp in self.stage_pq["groups"]:
                for pair in grp["pairs"]:
                    if pair["status"] != "infeasible":
                        raise ValueError(
                            "verdict is 'excluded' but a pair is " + pair["status"]
                        )

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema": SCHEMA,
            "case_id": self.case_id,
            "group": f"{self.kind}{self.n}",
            "p": self.p,
            "q": self.q,
            "verdict": self.verdict,
            "stage_q": self.stage_q,
            "stage_pq": self.stage_pq,
            "extras": self.extras,
        }
        if include_timing:
            out["elapsed_s"] = self.elapsed_s
        return out

    def canonical_json(self) -> str:
        """Stable, timing-free serialization used for goldens and
        determinism checks: to_dict() in the layout of
        json.dumps(indent=2, sort_keys=True), and a final newline."""
        return _json_text(self.to_dict()) + "\n"

    def structured_json(self) -> str:
        """The canonical_json layout of to_dict(include_timing=True), as
        `solve --format structured` prints it."""
        return _json_text(self.to_dict(include_timing=True)) + "\n"

    def render_text(self) -> str:
        lines = [f"case {self.case_id}: {self.kind}{self.n}"]
        if self.p and self.q:
            lines[0] += f", order {self.p}*{self.q}"
        if self.stage_q is not None:
            sq = self.stage_q
            lines.append(
                f"  order-{self.q} stage: rows "
                + ", ".join(f"{r['name']}@{r['ells']}" for r in sq["rows"])
            )
            if "unbounded_ray" in sq:
                lines.append(f"    unbounded along the ray {sq['unbounded_ray']}")
            else:
                lines.append(f"    candidates: {sq['raw_count']}")
            for f in sq.get("filters", []):
                lines.append(f"    after {f['name']}: {f['count_after']}")
        if self.stage_pq is not None:
            lines.append(f"  order-{self.p}*{self.q} stage:")
            for grp in self.stage_pq["groups"]:
                rows = ", ".join(f"{r['name']}@{r['ells']}" for r in grp["rows"])
                lines.append(f"    group {grp['name']} ({len(grp['pairs'])} pairs; rows {rows})")
                for pair in grp["pairs"]:
                    cert = (
                        " via " + ", ".join(pair["certificate"])
                        if pair.get("certificate")
                        else ""
                    )
                    lines.append(
                        f"      u^{self.p} = {pair['q_candidate']}: {pair['status']}{cert}"
                    )
        for key, value in sorted(self.extras.items()):
            lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
        lines.append(f"  verdict: {self.verdict}")
        lines.append(f"  elapsed: {self.elapsed_s:.3f}s")
        return "\n".join(lines) + "\n"


def first_divergence(expected: dict, actual: dict, path: str = "$") -> str | None:
    """Locate the first differing field between two report dicts."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                return f"{path}.{key}: unexpected field"
            if key not in actual:
                return f"{path}.{key}: missing field"
            diff = first_divergence(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_divergence(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if expected != actual:
        return f"{path}: {actual!r} != {expected!r}"
    return None
