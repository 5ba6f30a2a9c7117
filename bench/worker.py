"""Benchmark worker: one process, one closed loop, one thread.

Started by ``run.py`` as ``python worker.py WORKLOAD``.  It does the
workload's set-up, prints ``{"ready": ...}`` and waits for one JSON command
on stdin: ``{"cmd": "quit"}`` or ``{"cmd": "run", "seed", "seconds",
"trace"}``.  A run executes whole passes of the workload, each in the order
``random.Random(seed)`` gives, and stops at the pass boundary nearest to
``seconds`` once it has run at least one pass; then it prints
``{"result": ...}`` with every op's latency and output record, and the
``probe()`` times taken before each op and after the last one.

With ``trace`` set the set-up is traced too, and every op runs twice in a
row: untraced, then traced.  The traced twin therefore always meets the
caches its untraced twin filled, so per-layer counts do not depend on the
op order, and the two latencies give the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import tempfile
from time import perf_counter

from spans import Tracer
from workloads import OUT_DIR, SRC, WORKLOADS

PROBE_LOOPS = 20_000


def probe() -> float:
    """Time a fixed pure-Python loop: the host's speed at this moment.  The
    loop touches no data and allocates no object the garbage collector
    tracks, so what the program did before it cannot change its cost."""
    t0 = perf_counter()
    total = 0
    for x in range(PROBE_LOOPS):
        total += x * x % 7
    return perf_counter() - t0


def pass_order(units: list[list[str]], rng: random.Random) -> list[str]:
    order = list(units)
    rng.shuffle(order)
    return [key for unit in order for key in unit]


def timed_op(wl, key: str, tracer: Tracer | None):
    """Run one op; returns (latency_s, observation, note, top-level span
    seconds inside the op)."""
    note = obs = None
    top_before = tracer.top_level_s if tracer else 0.0
    if wl.in_process:
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            out = wl.call(key)
        except Exception as exc:  # a failed op is counted, the loop goes on
            note = repr(exc)
        latency = perf_counter() - t0
        if tracer:
            tracer.uninstall()
        if note is None:
            obs = wl.observe(key, out)
    else:
        wl.prepare(key)
        trace_out = None
        if tracer:
            fd, trace_out = tempfile.mkstemp(prefix="spans-", suffix=".json", dir=wl.workdir)
            os.close(fd)
        t0 = perf_counter()
        out = wl.call(key, trace_out)
        latency = perf_counter() - t0
        obs = wl.observe(key, out)
        if out[0] != 0 or out[2]:
            note = out[2][-500:]
        if trace_out:
            try:
                with open(trace_out) as fh:
                    data, written = (json.loads(line) for line in fh)
                tracer.merge(data["aggregates"], data["spans"])
                latency -= written["write_s"]
            except (OSError, ValueError) as exc:
                note = f"no trace from child: {exc!r}"
            os.unlink(trace_out)
    return latency, obs, note, (tracer.top_level_s - top_before) if tracer else 0.0


def run(wl, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    setup_aggregates = tracer.aggregates() if tracer else None
    rng = random.Random(seed)
    records = []  # [key, latency, obs, note, traced latency, traced obs]
    probes = []  # probe() before each op, and one after the last
    unattributed = 0.0
    passes = 0
    start = perf_counter()
    while True:
        for key in pass_order(wl.units, rng):
            if tracer:
                tracer.op_id = len(records)
            probes.append(probe())
            latency, obs, note, _ = timed_op(wl, key, None)
            record = [key, latency, obs, note, None, None]
            if tracer:
                t_latency, t_obs, t_note, top = timed_op(wl, key, tracer)
                unattributed += t_latency - top
                record[3:] = [note or t_note, t_latency, t_obs]
            records.append(record)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:  # the pass boundary nearest to seconds
            break
    probes.append(probe())
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result = {
        "passes": passes,
        "ops_per_pass": sum(len(unit) for unit in wl.units),
        "records": records,
        "probes": probes,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.aggregates()
        result["trace_setup"] = setup_aggregates
        result["unattributed_s"] = unattributed
        path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write_spans(str(path))
        result["spans_file"] = str(path.relative_to(OUT_DIR.parent))
        result["spans_kept"] = len(tracer.spans)
    return result


def main() -> int:
    name = sys.argv[1]
    traced_setup = len(sys.argv) > 2 and sys.argv[2] == "--trace"
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[name]()
    tracer = None
    if traced_setup:
        import sntorsion.cli  # noqa: F401  (install needs every module loaded)

        tracer = Tracer()
        tracer.op_id = "setup"
        tracer.install()
    try:
        info = wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    import sntorsion

    info["module_file"] = sntorsion.__file__
    print(json.dumps({"ready": info}), flush=True)
    try:
        cmd = json.loads(sys.stdin.readline() or '{"cmd": "quit"}')
        if cmd["cmd"] == "run":
            result = run(wl, cmd["seed"], cmd["seconds"], tracer)
            print(json.dumps({"result": result}), flush=True)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
