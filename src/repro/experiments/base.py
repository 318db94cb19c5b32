"""Shared experiment machinery: trial running and result tables."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.configs.base import Configuration, build_spec
from repro.dtl.base import DataTransportLayer
from repro.platform.cluster import Cluster
from repro.runtime.results import ExecutionResult
from repro.runtime.runner import run_ensemble
from repro.util.errors import ValidationError
from repro.util.validation import require_in_range, require_positive_int

#: the paper's measurement protocol: averaged over 5 trials.
DEFAULT_TRIALS = 5
#: 30 000 MD steps at stride 800 -> 37 in situ steps.
DEFAULT_N_STEPS = 37
#: relative per-stage timing jitter applied in each trial.
DEFAULT_NOISE = 0.02


@dataclass
class ExperimentResult:
    """Structured output of one experiment run."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]]
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValidationError(f"{self.experiment_id}: no result rows")
        for row in self.rows:
            missing = [c for c in self.columns if c not in row]
            if missing:
                raise ValidationError(
                    f"{self.experiment_id}: row missing columns {missing}"
                )

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ValidationError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def row_for(self, key_column: str, key: Any) -> Dict[str, Any]:
        """The first row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise ValidationError(f"no row with {key_column}={key!r}")

    def to_text(self) -> str:
        """Render as an aligned text table (what the harness prints)."""
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:.6g}"
            return str(v)

        widths = {
            c: max(len(c), *(len(fmt(r[c])) for r in self.rows))
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        sep = "  ".join("-" * widths[c] for c in self.columns)
        lines = [f"== {self.experiment_id}: {self.title} ==", header, sep]
        for row in self.rows:
            lines.append(
                "  ".join(fmt(row[c]).ljust(widths[c]) for c in self.columns)
            )
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to JSON (floats/ints/strings/bools only in rows)."""
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "columns": self.columns,
                "rows": self.rows,
                "notes": self.notes,
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid experiment JSON: {exc}") from exc
        for key in ("experiment_id", "title", "columns", "rows"):
            if key not in data:
                raise ValidationError(f"experiment JSON missing {key!r}")
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            columns=list(data["columns"]),
            rows=list(data["rows"]),
            notes=data.get("notes", ""),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the result to a JSON file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentResult":
        """Read a result from a JSON file."""
        return cls.from_json(Path(path).read_text())


def run_configuration(
    config: Configuration,
    n_steps: int = DEFAULT_N_STEPS,
    seed: int = 0,
    timing_noise: float = DEFAULT_NOISE,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
) -> ExecutionResult:
    """Run one configuration once."""
    spec = build_spec(config, n_steps=n_steps)
    return run_ensemble(
        spec,
        config.placement(),
        cluster=cluster,
        dtl=dtl,
        seed=seed,
        timing_noise=timing_noise,
    )


def run_configuration_trials(
    config: Configuration,
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    base_seed: int = 0,
    timing_noise: float = DEFAULT_NOISE,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
) -> List[ExecutionResult]:
    """Run one configuration over trials seeded ``base_seed + t``."""
    require_positive_int("trials", trials)
    require_in_range("timing_noise", timing_noise, 0.0, 1.0)
    return [
        run_configuration(
            config,
            n_steps=n_steps,
            seed=base_seed + t,
            timing_noise=timing_noise,
            cluster=cluster,
            dtl=dtl,
        )
        for t in range(trials)
    ]


@functools.lru_cache(maxsize=32)
def _shared_trials(
    config: Configuration,
    trials: int,
    n_steps: int,
    base_seed: int,
    timing_noise: float,
    /,
) -> Tuple[ExecutionResult, ...]:
    """The default-platform trials of ``config``, run once per key.

    Figures 3-5 and 8-9 (and the headline, through 8 and 9) are views
    of the same trial sets, and the ablations' "on" variants run the
    default platform too, so every one of them reads its trials here.
    Keyed by value (``Configuration`` is frozen) and bounded to 32
    sets. Callers only read the results; positional-only arguments keep
    one cache key per set.

    A repeat call returns the same result objects:

    >>> from repro.configs.table2 import get_config
    >>> first = _shared_trials(get_config("C1.5"), 2, 2, 0, 0.0)
    >>> again = _shared_trials(get_config("C1.5"), 2, 2, 0, 0.0)
    >>> again is first and all(a is b for a, b in zip(again, first))
    True
    """
    return tuple(
        run_configuration_trials(
            config,
            trials=trials,
            n_steps=n_steps,
            base_seed=base_seed,
            timing_noise=timing_noise,
        )
    )


def trial_mean(values: Sequence[float]) -> float:
    """Mean over trials (the paper reports 5-trial averages)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValidationError("trial_mean requires at least one value")
    return float(arr.mean())
