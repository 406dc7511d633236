"""`lagkit check` with the benchmark's tracer installed.

Usage: python bench/traced_cli.py ARGS...   (the arguments of `lagkit`)

Times its own imports of numpy and lagkit (which builds the catalog), installs
the tracer, runs lagkit.cli.main(ARGS) with stdout untouched and, as the last
line of stderr, writes one JSON object with the spans, counters and import
times.  Exits with main's status.
"""

import json
import sys
import time

from tracing import Tracer


def main(argv):
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import lagkit.cli

    t2 = time.perf_counter()
    tracer = Tracer()
    missing = tracer.install()
    try:
        return lagkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        spans, counts = tracer.take()
        record = {
            "spans": spans,
            "counts": counts,
            "missing": missing,
            "imports": {"numpy_s": t1 - t0, "lagkit_s": t2 - t1},
        }
        sys.stderr.write("\n" + json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
