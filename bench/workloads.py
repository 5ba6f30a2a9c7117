"""The benchmark's three workloads.

Each workload has a set-up (timed as ``setup_s``), a list of *units* that make
one pass (a unit is one op, or ops that must run in order), ``call`` (the
timed op) and ``observe`` (turns an op's output into the small record that is
compared with ``reference.json``).  The program is imported from ``src/`` of
the checkout this file lives in, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"
GOLDEN_DIR = SRC / "sntorsion" / "data" / "golden"
TABLE_DIR = SRC / "sntorsion" / "data" / "tables"


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1))


def thm32_instances() -> list[tuple[int, int, int]]:
    """All (n, p, q) with 7 <= n <= 19, primes 3 <= q < p <= n, 2p > n and
    p + q > n: the family of the paper's Theorem 3.2."""
    return [
        (n, p, q)
        for n in range(7, 20)
        for p in range(3, n + 1)
        for q in range(3, p)
        if _is_prime(p) and _is_prime(q) and 2 * p > n and p + q > n
    ]


# ---------------------------------------------------------------------------
# output masking: only the wall-clock fields of the CLI output vary by run

_ELAPSED_TEXT = re.compile(r"^(\s*elapsed: )[0-9.]+s$", re.M)
_ELAPSED_JSON = re.compile(r'^(\s*"elapsed_s": )[-+0-9.eE]+(,?)$', re.M)


def mask_timing(text: str) -> str:
    """Blank the ``elapsed:`` line of a text report and ``elapsed_s`` of a
    structured one; everything else must match byte for byte."""
    text = _ELAPSED_TEXT.sub(r"\1<masked>", text)
    return _ELAPSED_JSON.sub(r"\1<masked>\2", text)


def observe_cli(exit_code: int, stdout: str, out_file: str | None) -> dict:
    return {
        "exit": exit_code,
        "stdout_sha256": sha256(mask_timing(stdout)),
        "out_sha256": None if out_file is None else sha256(out_file),
    }


# ---------------------------------------------------------------------------


class Thm32Sweep:
    """One op: ``cases.run_exclusion`` on one Theorem-3.2 instance with the
    ordinary pi/rho/tau rows, then ``canonical_json()`` of its report."""

    name = "thm32-sweep"
    in_process = True

    def setup(self) -> dict:
        from sntorsion import cases
        from sntorsion.luthar_passi import orbit_residues

        self.cases = cases
        self.inputs = {}
        for n, p, q in thm32_instances():
            names = ("pi", "rho", "tau")
            stage_q = [(cases.ordinary_row(nm, n, q), orbit_residues(q)) for nm in names]
            stage_pq = [(cases.ordinary_row(nm, n, p * q), orbit_residues(p * q)) for nm in names]
            self.inputs[f"thm32-{n}-{p}-{q}"] = (n, p, q, stage_q, stage_pq)
        self.units = [[key] for key in self.inputs]
        return {}

    def call(self, key: str):
        n, p, q, stage_q, stage_pq = self.inputs[key]
        report = self.cases.run_exclusion(
            "S", n, p, q, stage_q,
            [{"name": "main", "members": None, "rows_and_ells": stage_pq}],
            filters=["q-power-weighted-sum"], use_pi_equalities=True, case_id=key,
        )
        return report.verdict, report.canonical_json()

    def observe(self, key: str, out) -> dict:
        verdict, text = out
        return {"verdict": verdict, "sha256": sha256(text)}


class S13Modular:
    """One op: ``solver.solve_order_pq`` for one surviving order-3 candidate
    of ``solve --group S13 --order 3x11`` with the bundled 2-modular tables,
    paired with ``forced_vector(13, 11)``.  The table parse and the order-3
    stage are set-up."""

    name = "s13-modular"
    in_process = True
    n, p, q = 13, 11, 3
    # the README's --rows: phi2_5 and phi2_6 with residue 0 only at order 3;
    # phi2_6 has no order-33 row, so 4 rows x orbit_residues(33) = 16 forms
    STAGE_Q_ROWS = (("phi2_2", None), ("phi2_3", None), ("phi2_4", None),
                    ("phi2_5", [0]), ("phi2_6", [0]))
    STAGE_PQ_ROWS = ("phi2_2", "phi2_3", "phi2_4", "phi2_5")

    def setup(self) -> dict:
        from sntorsion import lemma_filters, solver, table_io
        from sntorsion.luthar_passi import forced_vector, format_class, orbit_residues

        self.solver = solver
        n, p, q = self.n, self.p, self.q
        t3 = table_io.parse_table((TABLE_DIR / "s13-mod2-order3.tbl").read_text())
        t33 = table_io.parse_table((TABLE_DIR / "s13-mod2-order33.tbl").read_text())
        # like the CLI, take each order-3 row from the first --table that has it
        t3_names = {row.name for row in t3.rows}
        pairs = [
            ((t3 if name in t3_names else t33).row(name), ell)
            for name, ells in self.STAGE_Q_ROWS
            for ell in (ells if ells is not None else orbit_residues(q))
        ]
        stage_q = solver.solve_prime_order(n, "S", q, pairs)
        candidates = lemma_filters.filter_order_q_powers(
            n, p, q, solver.report_aug_vectors(stage_q, q, n)
        )
        self.p_candidate = forced_vector(n, p)
        self.group = {
            "name": "main",
            "members": None,
            "rows_and_ells": [
                (t33.row(name), ell) for name in self.STAGE_PQ_ROWS for ell in orbit_residues(p * q)
            ],
        }
        self.inputs = {}
        survivors = []
        for cand in candidates:
            entries = {format_class(ct): eps for ct, eps in cand.entries}
            survivors.append(entries)
            self.inputs[",".join(f"{c}={e}" for c, e in entries.items())] = cand
        self.units = [[key] for key in self.inputs]
        return {"survivors": survivors}

    def call(self, key: str):
        return self.solver.solve_order_pq(
            self.n, "S", self.p, self.q, [self.inputs[key]], [self.p_candidate], [self.group]
        )

    def observe(self, key: str, out) -> dict:
        verdict, results = out
        (pair,) = results
        return {
            "verdict": verdict,
            "status": pair.report.status,
            "certificate": sorted(pair.report.certificate),
        }


class CliCold:
    """One op: one fresh ``python -m sntorsion.cli ...`` process.  The
    traced run starts ``cli_launcher.py`` instead, which wraps the program
    from outside and writes its spans to ``SNTBENCH_TRACE_OUT``."""

    name = "cli-cold"
    in_process = False
    COMMANDS = {
        "list-cases": ["list-cases"],
        "chartable-14": ["chartable", "14", "--out", "T"],
        "chartable-7": ["chartable", "7", "--out", "T7"],
        "solve-s7-table": ["solve", "--group", "S7", "--order", "3x5", "--table", "T7",
                           "--rows", "pi:0,1", "--rows", "hook4"],
        "solve-s7-ordinary": ["solve", "--group", "S7", "--order", "3x5", "--rows", "pi",
                              "--rows", "rho", "--rows", "tau", "--rows", "hook4"],
        "solve-s11-structured": ["solve", "--group", "S11", "--order", "5x7", "--rows", "pi",
                                 "--rows", "rho", "--rows", "tau", "--format", "structured"],
        "verify-paper": ["verify-paper"],
    }
    # chartable-7 writes the table that solve-s7-table reads
    UNITS = [["list-cases"], ["chartable-14"], ["chartable-7", "solve-s7-table"],
             ["solve-s7-ordinary"], ["solve-s11-structured"], ["verify-paper"]]

    def setup(self) -> dict:
        import sntorsion.cli  # noqa: F401  (the import the children pay on every op)

        self.workdir = OUT_DIR / f"cli-cold-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SNTBENCH_TRACE_OUT", None)
        self.units = self.UNITS
        return {}

    def out_path(self, key: str) -> Path | None:
        argv = self.COMMANDS[key]
        return self.workdir / argv[argv.index("--out") + 1] if "--out" in argv else None

    def prepare(self, key: str) -> None:
        """Untimed: remove the op's output file so a stale one cannot pass."""
        out = self.out_path(key)
        if out is not None and out.exists():
            out.unlink()

    def call(self, key: str, trace_out: str | None = None):
        argv = self.COMMANDS[key]
        if trace_out is None:
            cmd = [sys.executable, "-m", "sntorsion.cli", *argv]
            env = self.env
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_launcher.py"), *argv]
            env = dict(self.env, SNTBENCH_TRACE_OUT=trace_out)
        proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def observe(self, key: str, out) -> dict:
        code, stdout, _ = out
        path = self.out_path(key)
        text = path.read_text() if path is not None and path.exists() else None
        return observe_cli(code, stdout, text)

    def close(self) -> None:
        for child in self.workdir.iterdir():
            child.unlink()
        self.workdir.rmdir()


WORKLOADS = {cls.name: cls for cls in (Thm32Sweep, S13Modular, CliCold)}
