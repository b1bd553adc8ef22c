"""Traced stand-in for `python -m qmeas`: same arguments, same stdout.

Imports qmeas, installs the tracer, calls `qmeas.cli.main` and exits with
its code.  The tracer summary and the import time go to stderr as one line
starting with the worker's trace marker, so stdout stays byte-identical.
"""

import json
import sys
import time

from tracer import TRACE_MARKER, Tracer, summarize


def main() -> int:
    start = time.perf_counter()
    import qmeas.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return qmeas.cli.main(sys.argv[1:])
    finally:
        tracer.restore()
        sys.stdout.flush()
        summary = summarize(tracer.spans, tracer.counts)
        summary["counts"]["cli.import_s"] = import_s
        sys.stderr.write(TRACE_MARKER + json.dumps(summary) + "\n")


if __name__ == "__main__":
    sys.exit(main())
