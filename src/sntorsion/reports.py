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

SCHEMA = "report-v1"


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
        determinism checks."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

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
