"""Documentation health: internal links resolve (mirrors the CI job).

The CI ``docs`` job runs ``scripts/check_doc_links.py`` and the
``repro.core``, ``repro.util``, ``repro.des``, ``repro.faults``,
``repro.monitoring``, ``repro.runtime``, ``repro.scheduler``,
``repro.search``, ``repro.configs`` and ``repro.experiments``
doctests; this test keeps the link check in the tier-1 suite so a
broken cross-reference fails locally too.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent


def test_internal_doc_links_resolve(capsys):
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from check_doc_links import main
    finally:
        sys.path.pop(0)
    assert main(["check_doc_links", str(REPO_ROOT)]) == 0, (
        capsys.readouterr().err
    )


def test_scaling_docs_match_bench_script():
    # the worked example in docs/SCALING.md is golden: the table
    # header and the example row must be the exact strings
    # scripts/bench_search.py prints, so the docs cannot drift from
    # the tool
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        from bench_search import (
            SCALING_EXAMPLE_ROW,
            SCALING_HEADER,
            SCALING_RULE,
            format_scaling_row,
        )
    finally:
        sys.path.pop(0)
    text = (REPO_ROOT / "docs" / "SCALING.md").read_text()
    assert SCALING_HEADER in text, "SCALING.md lost the golden header"
    assert SCALING_RULE in text, "SCALING.md lost the table rule"
    example = format_scaling_row(SCALING_EXAMPLE_ROW)
    assert example in text, (
        f"SCALING.md worked example drifted; expected line: {example}"
    )
    # PERFORMANCE.md's shipped table shares the same header format
    perf = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    assert SCALING_HEADER in perf, "PERFORMANCE.md lost the scaling table"


def test_coscheduling_worked_example_is_golden():
    # the two-ensemble walkthrough in docs/COSCHEDULING.md is golden:
    # re-run the scenario and assert every number and reason string in
    # the doc's timeline is what the loop actually produces
    from repro.coschedule import (
        CoScheduler,
        canonical_mixed_deadline_stream,
        fifo_exclusive_schedule,
    )

    text = (REPO_ROOT / "docs" / "COSCHEDULING.md").read_text()
    stream = canonical_mixed_deadline_stream(num_requests=2)
    result = CoScheduler(total_nodes=6).run(stream)
    fifo = fifo_exclusive_schedule(stream, 6)

    for decision in result.decisions:
        assert decision.reason in text, (
            f"COSCHEDULING.md lost the {decision.request} admission "
            f"evidence: {decision.reason}"
        )
    for event in result.timeline:
        if event.kind != "allocation":
            continue
        assert f"t={event.time:.2f}" in text
        for entry in event.detail["entries"]:
            needle = (
                f"{entry['name']} -> offset {entry['node_offset']}, "
                f"{entry['num_nodes']} nodes  "
                f"(U={entry['utility']:.4f}, "
                f"finish {entry['finish_time']:.2f})"
            )
            assert needle in text, (
                f"COSCHEDULING.md timeline drifted; expected: {needle}"
            )
    gain = result.utilization / fifo.utilization
    for needle in (
        f"{result.utilization:.3f}",
        f"{fifo.utilization:.3f}",
        f"{gain:.2f}x",
        f"t={result.makespan:.2f}",
        f"t={fifo.makespan:.2f}",
    ):
        assert needle in text, (
            f"COSCHEDULING.md utilization summary drifted: {needle}"
        )


def test_rescheduling_worked_example_is_golden(capsys):
    # the CLI session in docs/RESCHEDULING.md is golden: re-run the
    # command and require the doc's block to be its exact stdout
    from repro.cli import main

    command = "python -m repro reschedule C1.3 --steps 16 --verify"
    text = (REPO_ROOT / "docs" / "RESCHEDULING.md").read_text()
    block = text.split(f"```console\n$ {command}\n", 1)[1]
    block = block.split("```", 1)[0]
    assert main(command.split()[3:]) == 0
    assert capsys.readouterr().out == block, (
        "RESCHEDULING.md worked example drifted from the CLI output"
    )


def test_fault_models_reference_exists():
    doc = REPO_ROOT / "docs" / "FAULT_MODELS.md"
    text = doc.read_text()
    # the reference documents every model, policy, and the surrogate
    for needle in (
        "RandomFailureModel",
        "CorrelatedFailureModel",
        "NodeFailureModel",
        "ScheduledFailureModel",
        "MarkovModulatedArrivals",
        "WeibullBurstArrivals",
        "retry",
        "restart",
        "degrade",
        "adaptive",
        "Determinism guarantees",
        "surrogate",
    ):
        assert needle in text, f"FAULT_MODELS.md lost section: {needle}"


def test_readme_search_quickstart_runs(capsys):
    # the "Fast placement search" block is the README's only code
    # quickstart for the planning API; execute it so a renamed keyword
    # or a removed option fails here rather than on a reader
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("### Fast placement search", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "find_best_placement" in block
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["evaluated3"] >= namespace["evaluated"] > 0
    assert capsys.readouterr().out
