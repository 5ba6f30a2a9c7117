"""Regenerate ``reference.json``: run every op of every workload once and
store the record that ``run.py`` compares each timed op against.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known good; it refuses to write a
reference that fails the anchor checks of ``run.py`` (the goldens, the 58/9
Theorem-3.2 verdict split, 18 infeasible S13 pairs, a passing
verify-paper).
"""

import json
import sys

from run import REFERENCE, SRC, anchor_problems
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    reference, infos = {}, {}
    for name, cls in WORKLOADS.items():
        wl = cls()
        infos[name] = wl.setup()
        ref = reference[name] = {}
        for unit in wl.units:
            for key in unit:
                if not wl.in_process:
                    wl.prepare(key)
                ref[key] = wl.observe(key, wl.call(key))
        if hasattr(wl, "close"):
            wl.close()
        print(f"{name}: {len(ref)} ops", flush=True)
    problems = [p for name in WORKLOADS for p in anchor_problems(name, reference, infos[name])]
    if problems:
        print("not written:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
