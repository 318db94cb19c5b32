"""Rolling telemetry over observed stage durations.

The executor's ``_stage`` choke point hands every scheduled stage
instance — its ``(member, component, stage, step, duration)`` tuple,
with the nominal (jittered, drifted) duration — to a
:class:`TelemetryFeed`. The feed compares each *observed* duration
against the *modeled* effective duration the platform predicted for
that component's stage, and folds the ratio into a rolling per-node
window.

Only compute stages (S, A) feed the windows: io stages are priced by
the DTL model, whose bandwidth drift is out of scope for this loop, and
mixing their (always ≈ 1) ratios in would dilute the detector's
signal. The feed never reads the DES clock and never schedules events,
so an instrumented run's trace is byte-identical to a bare one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Tuple

from repro.util.validation import require_positive_int

#: stages whose observed/modeled ratios feed the per-node windows.
TELEMETRY_STAGES: Tuple[str, ...] = ("S", "A")


@dataclass(frozen=True)
class StageObservation:
    """One stage instance's observed-vs-modeled comparison."""

    member: str
    component: str
    stage: str
    step: int
    node: int
    observed: float
    modeled: float

    @property
    def ratio(self) -> float:
        """Observed over modeled duration (1.0 when modeled is zero)."""
        if self.modeled <= 0.0:
            return 1.0
        return self.observed / self.modeled


class TelemetryFeed:
    """Rolling per-node observed/modeled stage-time ratios.

    Parameters
    ----------
    window:
        Number of most-recent compute-stage observations kept per
        node; :meth:`node_ratio` is their mean.
    """

    def __init__(self, window: int = 8) -> None:
        require_positive_int("window", window)
        self.window = window
        self.observations = 0
        self._windows: Dict[int, Deque[float]] = {}

    def observe(self, observation: StageObservation) -> None:
        """Fold one stage observation into its node's window."""
        self.observations += 1
        if observation.stage not in TELEMETRY_STAGES:
            return
        window = self._windows.get(observation.node)
        if window is None:
            window = deque(maxlen=self.window)
            self._windows[observation.node] = window
        window.append(observation.ratio)

    def node_ratio(self, node: int) -> float:
        """Windowed mean observed/modeled ratio for ``node``.

        1.0 for nodes with no observations yet — "no news" must read
        as "on model", never as drift.
        """
        window = self._windows.get(node)
        if not window:
            return 1.0
        return sum(window) / len(window)

    def samples(self, node: int) -> int:
        """Observations currently in ``node``'s window."""
        window = self._windows.get(node)
        return len(window) if window else 0

    def slowdown_factors(self, num_nodes: int) -> Dict[int, float]:
        """Calibrated per-node slowdown map for the re-planner.

        Node → windowed mean ratio, clamped below at 1.0: a node that
        happens to run *faster* than modeled must not be rewarded with
        sub-nominal calibrated costs (that would just be jitter).
        """
        return {
            node: max(1.0, self.node_ratio(node))
            for node in range(num_nodes)
        }

    def reset_node(self, node: int) -> None:
        """Drop a node's window (after a migration changed its load)."""
        self._windows.pop(node, None)

    def reset(self) -> None:
        """Drop every window (a global re-placement happened)."""
        self._windows.clear()
