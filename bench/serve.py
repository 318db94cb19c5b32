"""Run the placement service as the benchmark's program under test.

Usage: ``python bench/serve.py [--trace] [--cpu N]``

Builds the service with ``make_server(port=0, workers=2)`` and no job
timeout, prints its URL as the first line of standard output, and
serves until SIGTERM. With ``--trace`` the span wrappers of
:mod:`tracing` are installed first, and on SIGTERM the spans are
written to standard output as one JSON list. Untraced and traced runs
differ only by the tracing. ``--cpu`` pins the process, and so every
thread it starts, to one core. The service also stops when its
standard input closes, so it does not outlive the load generator.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # the load generator holds our stdin open; if it dies, stop serving
    threading.Thread(
        target=lambda: (sys.stdin.read(), stop.set()), daemon=True
    ).start()

    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install_service

        recorder = SpanRecorder()
        install_service(recorder)

    from repro.service.api import make_server

    server = make_server(port=0, workers=2, job_timeout=None).start()
    print(server.url, flush=True)
    while not stop.wait(0.2):
        pass
    server.stop()
    if recorder is not None:
        json.dump(recorder.export(), sys.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
