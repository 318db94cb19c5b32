"""Reproduce the paper's artifacts on request: the paper-figures program.

Usage: ``python bench/figures_worker.py [--trace] [--cpu N]``

Reads one ``base_seed`` per line on standard input. For each it runs
the ``figures --fast`` artifact set in process and answers with one
JSON line, ``{"seed": s, "sha256": <digest of the artifact text>}``.
At the end of input, a traced worker writes its spans as one more JSON
line. ``--cpu`` pins the worker to one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def reproduce(base_seed: int) -> str:
    """The text ``figures --fast`` prints, with seeded trials at ``base_seed``."""
    from repro.experiments import (
        run_contention_ablation,
        run_fig3,
        run_fig4,
        run_fig5,
        run_fig7,
        run_fig8,
        run_fig9,
        run_headline,
        run_locality_ablation,
        run_tax_ablation,
    )
    from repro.experiments.headline import run_headline_extended

    fast = dict(trials=2, n_steps=6)
    seeded = dict(fast, base_seed=base_seed)
    artifacts = [
        run_fig3(**seeded),
        run_fig4(**seeded),
        run_fig5(**seeded),
        run_fig7(),
        run_fig8(**seeded),
        run_fig9(**seeded),
        run_headline(**seeded),
        run_headline_extended(),
        run_contention_ablation(**fast),
        run_locality_ablation(**fast),
        run_tax_ablation(**fast),
    ]
    return "".join(artifact.to_text() + "\n\n" for artifact in artifacts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install_compute

        recorder = SpanRecorder()
        install_compute(recorder)
        # rebinds this module's global, so the loop below calls the span
        recorder.wrap(sys.modules[__name__], "reproduce", "experiments")

    for line in sys.stdin:
        seed = int(line)
        if recorder is not None:
            recorder.set_job(str(seed))
        text = reproduce(seed)
        print(json.dumps({"seed": seed, "sha256": digest(text)}), flush=True)
    if recorder is not None:
        print(json.dumps(recorder.export()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
