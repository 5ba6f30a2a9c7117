"""Traced entry point of the cli-cold workload: ``python cli_launcher.py ARGS``
behaves like ``python -m sntorsion.cli ARGS`` and also writes its spans.

It times the import of ``sntorsion.cli`` as the span ``cli.import``, installs
the wrappers of ``spans.Tracer`` and calls ``sntorsion.cli.main(ARGS)``.  The
aggregates and spans go to the file named by ``SNTBENCH_TRACE_OUT``: one
JSON line with them, then one with ``write_s``, the time spent writing them,
which the worker takes off the op's latency.
"""

import json
import os
import sys
from time import perf_counter

from spans import Tracer


def main() -> int:
    tracer = Tracer()
    t0 = perf_counter()
    import sntorsion.cli

    tracer.span("cli.import", t0, perf_counter())
    tracer.install()
    try:
        code = sntorsion.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        t_write = perf_counter()
        with open(os.environ["SNTBENCH_TRACE_OUT"], "w") as fh:
            fh.write(json.dumps({"aggregates": tracer.aggregates(), "spans": tracer.spans}))
            fh.write("\n" + json.dumps({"write_s": perf_counter() - t_write}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
