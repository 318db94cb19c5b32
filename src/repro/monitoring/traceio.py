"""Trace serialization: export/import stage traces as JSON.

Two purposes:

1. **Persistence** — executor traces can be written to disk and
   reloaded later for offline analysis.
2. **External data** — the indicator pipeline (:mod:`repro.core`) only
   needs steady-state stage times; :func:`member_stages_from_trace`
   turns any trace in this format — including one recorded on a real
   system by TAU-style instrumentation — into
   :class:`~repro.core.stages.MemberStages`, making the paper's
   indicators applicable beyond the simulator.

Format: a JSON object ``{"version": 1, "records": [...]}`` where each
record is ``{"component", "stage", "step", "start", "end"}`` with
``stage`` being one of the §3.1 stage codes (S, I_S, W, R, A, I_A).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from repro.core.stages import (
    WARMUP_FRACTION,
    AnalysisStages,
    MemberStages,
    SimulationStages,
    estimate_steady_state,
)
from repro.monitoring.tracer import Stage, StageTracer
from repro.util.errors import ValidationError

FORMAT_VERSION = 1

_STAGE_BY_CODE = {stage.value: stage for stage in Stage}


def tracer_to_dict(tracer: StageTracer) -> dict:
    """Serialize a tracer to a JSON-ready dict."""
    return {
        "version": FORMAT_VERSION,
        "records": [
            {
                "component": r.component,
                "stage": r.stage.value,
                "step": r.step,
                "start": r.start,
                "end": r.end,
            }
            for r in tracer.records
        ],
    }


def tracer_from_dict(payload: dict) -> StageTracer:
    """Rebuild a tracer from :func:`tracer_to_dict` output."""
    if not isinstance(payload, dict) or "records" not in payload:
        raise ValidationError("trace payload must be a dict with 'records'")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    tracer = StageTracer()
    for i, rec in enumerate(payload["records"]):
        try:
            stage = _STAGE_BY_CODE[rec["stage"]]
            tracer.record(
                rec["component"],
                stage,
                int(rec["step"]),
                float(rec["start"]),
                float(rec["end"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed trace record #{i}: {exc}") from exc
    return tracer


def save_trace(tracer: StageTracer, path: Union[str, Path]) -> None:
    """Write a tracer to a JSON file."""
    Path(path).write_text(json.dumps(tracer_to_dict(tracer)))


def load_trace(path: Union[str, Path]) -> StageTracer:
    """Read a tracer from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"trace file is not valid JSON: {exc}") from exc
    return tracer_from_dict(payload)


def member_stages_from_trace(
    tracer: StageTracer,
    simulation: str,
    analyses: Sequence[str],
    warmup_fraction: float = WARMUP_FRACTION,
) -> MemberStages:
    """Estimate a member's steady-state stages from any trace.

    This is the bridge from raw measurements to the paper's math: feed
    the result to :func:`repro.core.efficiency.computational_efficiency`
    and the indicator pipeline.
    """
    if not analyses:
        raise ValidationError("at least one analysis component required")
    sim = SimulationStages(
        compute=estimate_steady_state(
            tracer.durations(simulation, Stage.SIM_COMPUTE), warmup_fraction
        ),
        write=estimate_steady_state(
            tracer.durations(simulation, Stage.SIM_WRITE), warmup_fraction
        ),
    )
    ana_stages = tuple(
        AnalysisStages(
            read=estimate_steady_state(
                tracer.durations(name, Stage.ANA_READ), warmup_fraction
            ),
            analyze=estimate_steady_state(
                tracer.durations(name, Stage.ANA_COMPUTE), warmup_fraction
            ),
        )
        for name in analyses
    )
    return MemberStages(simulation=sim, analyses=ana_stages)
