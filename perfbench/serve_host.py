"""Traced sweep server: ``python perfbench/serve_host.py OUT.json -- ARGS``.

Installs the span wrappers in this process, then runs
``repro.serve.__main__.main(ARGS)`` unchanged.  ``SIGUSR1`` snapshots the
layers' public counters (the load generator sends one at each end of its
timed phase); ``SIGINT`` stops the server, after which the spans and the
snapshots are written to ``OUT.json``.
"""

import json
import signal
import sys

import spans


def main(out_path: str, argv) -> int:
    from repro.serve import __main__ as serve_cli

    rec = spans.SpanRecorder()
    rec.run_id = "server"
    spans.install(rec)
    snapshots = []
    signal.signal(signal.SIGUSR1, lambda *_: snapshots.append(spans.counter_snapshot()))
    try:
        return serve_cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans(), "counts": dict(rec.counts),
                       "snapshots": snapshots}, fh)


if __name__ == "__main__":
    sep = sys.argv.index("--")
    sys.exit(main(sys.argv[1], sys.argv[sep + 1:]))
