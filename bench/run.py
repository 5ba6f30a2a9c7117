"""sntorsion benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``thm32-sweep``, ``s13-modular`` or ``cli-cold``; see
README.md beside this file) from the root of a source checkout, checks every
op's output against ``reference.json`` and prints the metrics.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The same result, with its context, is
written to ``.bench_build/result-WORKLOAD-seedN-traceT.json``.

Exit codes: 0 = a result was printed (``correct`` says whether the program's
outputs matched), 2 = the checkout has no program or no reference, 3 = the
worker crashed or overran the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SETUPS = 9  # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0  # the whole run, set-ups included
THM32_GOLDEN = ("thm32-11-7-5", "thm32-13-11-7", "thm32-17-11-7", "thm32-17-13-11")
# op_tail_ms is this percentile of the ops' latencies: on thm32-sweep it
# leaves 6 of 67 ops beyond it, 6 samples a pass, and lands on an op well
# apart from its neighbours, so noise in one op cannot swap one in
TAIL_PERCENTILE = 90
# every time metric is scaled to a host on which worker.probe() takes this
REFERENCE_PROBE_S = 0.002

sys.path.insert(0, str(BENCH_DIR))
from worker import probe  # noqa: E402
from workloads import GOLDEN_DIR, OUT_DIR, WORKLOADS, sha256, thm32_instances  # noqa: E402


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# reference outputs and their anchors in the goldens


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def anchor_problems(workload: str, reference: dict, info: dict) -> list[str]:
    """Checks that tie the stored reference (and the set-up) to the frozen
    goldens and to the expected verdict counts."""
    ref = reference[workload]
    problems = []
    if workload == "thm32-sweep":
        keys = {f"thm32-{n}-{p}-{q}" for n, p, q in thm32_instances()}
        if set(ref) != keys:
            problems.append("reference does not cover exactly the 67 instances")
        counts = Counter(r["verdict"] for r in ref.values())
        if counts != {"excluded": 58, "undecided-unbounded": 9}:
            problems.append(f"reference verdict counts {dict(counts)}")
        for gid in THM32_GOLDEN:
            golden = (GOLDEN_DIR / f"{gid}.json").read_bytes()
            if ref.get(gid, {}).get("sha256") != sha256(golden):
                problems.append(f"{gid} is not byte-identical to its golden")
    elif workload == "s13-modular":
        golden = json.loads((GOLDEN_DIR / "s13-3x11.json").read_text())
        if info.get("survivors") != golden["stage_q"]["survivors"]:
            problems.append("order-3 survivors differ from the s13-3x11 golden")
        if len(ref) != 18 or any(
            r["status"] != "infeasible" or r["verdict"] != "excluded" for r in ref.values()
        ):
            problems.append("reference is not 18 infeasible pairs")
    elif workload == "cli-cold":
        if set(ref) != set(WORKLOADS[workload].COMMANDS):
            problems.append("reference does not cover the cli-cold commands")
        if ref.get("verify-paper", {}).get("exit") != 0:
            problems.append("verify-paper reference does not pass")
    return problems


# ---------------------------------------------------------------------------
# the worker processes


def start_worker(workload: str, trace: bool, deadline: float):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload]
    if trace:
        cmd.append("--trace")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if not line:
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        raise BenchError(f"worker for {workload} exited during set-up (code {proc.returncode})")
    info = json.loads(line)["ready"]
    module = Path(info["module_file"]).resolve()
    if SRC.resolve() not in module.parents:
        stop_worker(proc, {"cmd": "quit"}, deadline)
        raise BenchError(f"worker imported sntorsion from {module}, not from {SRC}")
    return proc, setup_s, info


def stop_worker(proc, cmd: dict, deadline: float) -> dict | None:
    try:
        out, _ = proc.communicate(json.dumps(cmd) + "\n", timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    return json.loads(lines[-1])["result"] if cmd["cmd"] == "run" else None


# ---------------------------------------------------------------------------
# metrics


def scaled(latency: float, probe_before: float, probe_after: float) -> float:
    """A latency at the reference speed: scaled by REFERENCE_PROBE_S over
    the mean of the probes taken just before and just after it."""
    return latency * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)


def op_latencies(records: list, probes: list[float]) -> dict[str, float]:
    """Each op's median latency at the reference speed."""
    samples: dict[str, list[float]] = {}
    for i, (key, latency, *_) in enumerate(records):
        samples.setdefault(key, []).append(scaled(latency, probes[i], probes[i + 1]))
    return {key: statistics.median(v) for key, v in samples.items()}


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE latency by nearest rank, and the number of
    samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, ceil(len(ordered) * TAIL_PERCENTILE / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    per_op = op_latencies(result["records"], result["probes"])
    tail, beyond = tail_latency(list(per_op.values()))
    samples = Counter(rec[0] for rec in result["records"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(per_op.values()) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(per_op) / sum(per_op.values()), "1/s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }
    context = {
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_ops_beyond": beyond,
        "samples_per_op": [min(samples.values()), max(samples.values())],
        "probe_median_s": statistics.median(result["probes"]),
        "setup_samples": setups,
    }
    return metrics, context


def _calls(name):
    return lambda t: t["calls"].get(name, 0)


def _self(name):
    return lambda t: t["self_s"].get(name, 0.0)


def _counter(name):
    return lambda t: t["counters"].get(name, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


_ENUM = "solver.enumerate_system"
_HERMITE = "solver.solve_integer_system"
# metric name -> (unit, value from the trace aggregates); every value is
# the traced set-up plus one pass of ops
PER_LAYER = {
    f"{_ENUM}.calls": ("count", _calls(_ENUM)),
    f"{_ENUM}.self_s": ("s", _self(_ENUM)),
    f"{_HERMITE}.calls": ("count", _calls(_HERMITE)),
    f"{_HERMITE}.self_s": ("s", _self(_HERMITE)),
    "solver.resolves_per_system": ("ratio", _ratio(_calls(_HERMITE), _calls(_ENUM))),
    "solver.dfs_nodes": ("count", _counter("dfs_nodes")),
    "solver.core_kept_ratio": ("ratio", _ratio(_counter("core_kept"), _counter("core_forms"))),
    "solver.status.infeasible": ("count", _counter("status.infeasible")),
    "solver.status.solutions": ("count", _counter("status.solutions")),
    "solver.status.unbounded": ("count", _counter("status.unbounded")),
    "solver.solve_prime_order.self_s": ("s", _self("solver.solve_prime_order")),
    "solver.solve_order_pq.self_s": ("s", _self("solver.solve_order_pq")),
    "luthar_passi.affine_form.calls": ("count", _calls("luthar_passi.affine_form")),
    "luthar_passi.affine_form.self_s": ("s", _self("luthar_passi.affine_form")),
    "luthar_passi.AugVector.make.calls": ("count", _calls("luthar_passi.AugVector.make")),
    "luthar_passi.AugVector.make.self_s": ("s", _self("luthar_passi.AugVector.make")),
    "partitions.check_partition.calls": ("count", _calls("partitions.check_partition")),
    "characters.character_value.calls": ("count", _calls("characters.character_value")),
    "characters.character_value.self_s": ("s", _self("characters.character_value")),
    "cyclotomic.ramanujan_sum.calls": ("count", _calls("cyclotomic.ramanujan_sum")),
    "lemma_filters.filter_order_q_powers.self_s": ("s", _self("lemma_filters.filter_order_q_powers")),
    "lemma_filters.survivor_ratio": ("ratio", _ratio(_counter("filter_kept"), _counter("filter_in"))),
    "table_io.parse_table.self_s": ("s", _self("table_io.parse_table")),
    "table_io.parse_table.bytes": ("B", _counter("parse_bytes")),
    "table_io.serialize_table.self_s": ("s", _self("table_io.serialize_table")),
    "table_io.serialize_table.bytes": ("B", _counter("serialize_bytes")),
    "cases.run_exclusion.self_s": ("s", _self("cases.run_exclusion")),
    "cases.verify_case.self_s": ("s", _self("cases.verify_case")),
    "reports.first_divergence.self_s": ("s", _self("reports.first_divergence")),
    "reports.canonical_json.self_s": ("s", _self("reports.CaseReport.canonical_json")),
    "cli.import_s": ("s", _self("cli.import")),
    "cli.main.self_s": ("s", _self("cli.main")),
}


def per_layer(result: dict) -> tuple[dict, dict]:
    passes, total, setup = result["passes"], result["trace"], result["trace_setup"]
    trace = {
        part: {k: setup[part].get(k, 0) + (v - setup[part].get(k, 0)) / passes
               for k, v in total[part].items()}
        for part in ("calls", "self_s", "counters")
    }
    metrics = {name: (f(trace), unit) for name, (unit, f) in PER_LAYER.items()}
    untraced = sum(rec[1] for rec in result["records"])
    traced = sum(rec[4] for rec in result["records"])
    metrics["trace.unattributed_s"] = (result["unattributed_s"] / passes, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    absent = sorted(name for name in PER_LAYER if metrics[name][0] == 0)
    by_module = Counter()
    for name, seconds in trace["self_s"].items():
        by_module[name.split(".")[0]] += seconds
    covered = sum(by_module.values())
    context = {
        "self_share_by_module": {m: round(s / covered, 4) for m, s in by_module.most_common()},
        "traced_passes": passes,
        "spans_kept": result["spans_kept"],
        "spans_dropped": total["dropped"],
        "spans_file": result["spans_file"],
        "absent": absent,
    }
    return metrics, context


# ---------------------------------------------------------------------------


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def failures(workload: str, result: dict, reference: dict, trace: bool) -> list[str]:
    """One message per failed op execution: an exception, a wrong exit code
    or an output that differs from the reference."""
    ref = reference[workload]
    out = []
    for key, _, obs, note, _, traced_obs in result["records"]:
        for label, got in [(key, obs)] + ([(key + " (traced)", traced_obs)] if trace else []):
            if got != ref.get(key):
                out.append(f"{label}: {got} != reference {ref.get(key)} {note or ''}".strip())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S

    if not (SRC / "sntorsion" / "__init__.py").is_file():
        print(f"error: no sntorsion sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    # one CPU for this process, the worker and its children, so that each
    # probe meets the same neighbours as the op beside it
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        setups = []
        before = probe()
        for i in range(1 if args.trace else SETUPS):
            proc, setup_s, info = start_worker(args.workload, bool(args.trace), deadline)
            after = probe()
            setups.append(scaled(setup_s, before, after))
            before = after
            if i < SETUPS - 1 and not args.trace:
                stop_worker(proc, {"cmd": "quit"}, deadline)
        cmd = {"cmd": "run", "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        result = stop_worker(proc, cmd, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    problems = anchor_problems(args.workload, reference, info)
    failed = failures(args.workload, result, reference, bool(args.trace))
    records = result["records"]
    attempted = len(records) * (2 if args.trace else 1)
    nfailed = len(failed)
    if args.trace:
        metrics, extra = per_layer(result)
    else:
        metrics, extra = end_to_end(result, setups)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": nproc,
        "ops_per_pass": result["ops_per_pass"],
        "passes": result["passes"],
        "ops": len(records),
        "failed_ratio": nfailed / attempted,
        "anchor_problems": problems,
        **extra,
    }

    print("context " + json.dumps(context, sort_keys=True))
    for msg in (problems + failed)[:20]:
        print("FAILED " + msg)
    absent = set(extra.get("absent", ()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + ("  (absent on this workload)" if name in absent else ""))
    if not args.trace:
        print(f"  failed_ratio = {nfailed / attempted:.6g} ratio")
    line = {
        "correct": not problems and nfailed == 0,
        "attempted": attempted,
        "failed": nfailed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples = [[rec[0], rec[1]] for rec in records]
    saved = {"context": context, "samples_s": samples, "probes_s": result["probes"], **line}
    path.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
