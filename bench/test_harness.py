"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest bench/test_harness.py -q

The last test runs the traced thm32-sweep twice (about 30 s).
"""

import contextlib
import io
import json
import random
import subprocess
import sys

import run
from spans import Tracer
from workloads import SRC, WORKLOADS, Thm32Sweep, mask_timing, observe_cli

sys.path.insert(0, str(SRC))


def _cli_stdout(argv):
    from sntorsion import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _record(key, obs):
    # [key, latency, obs, note, traced latency, traced obs]
    return [key, 0.1, obs, None, None, None]


def test_timing_fields_are_the_only_masked_fields():
    reference = run.load_reference()
    key = "solve-s7-ordinary"
    code, stdout = _cli_stdout(WORKLOADS["cli-cold"].COMMANDS[key])
    assert "  elapsed: " in stdout and "  verdict: excluded" in stdout

    other_time = stdout.replace("  elapsed: ", "  elapsed: 98765")
    assert other_time != stdout
    ok = {"records": [_record(key, observe_cli(code, other_time, None))]}
    assert run.failures("cli-cold", ok, reference, trace=False) == []

    changed = other_time.replace("  verdict: excluded", "  verdict: candidates-survive")
    bad = {"records": [_record(key, observe_cli(code, changed, None))]}
    assert len(run.failures("cli-cold", bad, reference, trace=False)) == 1

    wrong_exit = {"records": [_record(key, observe_cli(3, stdout, None))]}
    assert len(run.failures("cli-cold", wrong_exit, reference, trace=False)) == 1


def test_structured_elapsed_is_masked():
    code, stdout = _cli_stdout(WORKLOADS["cli-cold"].COMMANDS["solve-s11-structured"])
    data = json.loads(stdout)
    data["elapsed_s"] = 1234.5
    assert mask_timing(json.dumps(data, indent=2, sort_keys=True) + "\n") == mask_timing(stdout)
    data["verdict"] = "candidates-survive"
    assert mask_timing(json.dumps(data, indent=2, sort_keys=True) + "\n") != mask_timing(stdout)


def test_wrappers_cover_every_binding_and_enumerate_invariant():
    from sntorsion import cases, luthar_passi, solver

    wl = Thm32Sweep()
    wl.setup()
    keys = [k for k in wl.inputs if int(k.split("-")[-1]) >= 5][:10] + ["thm32-19-19-3"]
    originals = (solver.enumerate_system, cases.FILTERS["q-power-weighted-sum"],
                 luthar_passi.AugVector.make)
    tracer = Tracer()
    pairs = 0
    for key in keys:
        tracer.install()
        try:
            assert cases.enumerate_system is solver.enumerate_system is not originals[0]
            assert cases.FILTERS["q-power-weighted-sum"] is not originals[1]
            _, text = wl.call(key)
        finally:
            tracer.uninstall()
        stage_pq = json.loads(text)["stage_pq"]
        if stage_pq is not None:
            pairs += sum(len(group["pairs"]) for group in stage_pq["groups"])
    assert (solver.enumerate_system, cases.FILTERS["q-power-weighted-sum"],
            luthar_passi.AugVector.make) == originals
    assert pairs > 0
    assert tracer.calls["solver.enumerate_system"] == len(keys) + pairs
    assert tracer.calls["lemma_filters.filter_order_q_powers"] > 0
    assert tracer.calls["luthar_passi.AugVector.make"] > 0
    # check_partition is bound in partitions, characters, luthar_passi and table_io
    assert tracer.calls["partitions.check_partition"] > 0


def test_time_metrics_cancel_a_slowdown_the_probes_share():
    floors = {f"op{i}": i / 1000 for i in range(1, 68)}  # 67 ops, like thm32-sweep
    for passes, slow in ((1, 1.0), (3, 1.5), (9, 2.0)):
        records = [[key, floor * slow, None, None, None, None]
                   for _ in range(passes) for key, floor in floors.items()]
        probes = [run.REFERENCE_PROBE_S * slow] * (len(records) + 1)
        records[0][1] *= 3  # one sample the probes missed: the median drops it
        metrics, context = run.end_to_end(
            {"records": records, "probes": probes, "peak_rss_kib": 1024}, [0.1])
        if passes > 1:
            assert abs(metrics["op_p50_ms"][0] - 34.0) < 1e-9
            assert abs(metrics["op_tail_ms"][0] - 61.0) < 1e-9  # p90: 6 ops beyond
            assert abs(metrics["ops_per_s"][0] - 67 / sum(floors.values())) < 1e-9
        assert context["op_tail_ops_beyond"] == 6


def test_same_seed_same_order():
    from worker import pass_order

    units = [[str(i)] for i in range(67)]
    first = pass_order(units, random.Random(7))
    assert first == pass_order(units, random.Random(7))
    other = pass_order(units, random.Random(8))
    assert other != first and sorted(other) == sorted(first)
    # units that must run in order stay together
    cli_units = WORKLOADS["cli-cold"].UNITS
    order = pass_order(cli_units, random.Random(3))
    assert order.index("solve-s7-table") == order.index("chartable-7") + 1


def test_two_seeds_same_checks_and_counts():
    results = []
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "thm32-sweep",
             "--seed", str(seed), "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    a, b = results
    assert a["correct"] and b["correct"]
    assert a["attempted"] == b["attempted"] and a["failed"] == b["failed"] == 0
    counts = [name for name, m in a["metrics"].items()
              if m["unit"] in ("count", "B") or (m["unit"] == "ratio" and not name.startswith("trace."))]
    assert counts
    for name in counts:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
