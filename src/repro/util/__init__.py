"""Shared utilities: errors, units, statistics, and RNG management.

These helpers are deliberately dependency-light; every other subpackage
of :mod:`repro` may import from here, but :mod:`repro.util` imports only
from the standard library and numpy.
"""

from repro.util.errors import (
    ConfigurationError,
    DTLError,
    PlacementError,
    ProtocolError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.util.rng import RandomSource, spawn_rngs
from repro.util.stats import population_std, trimmed_mean
from repro.util.units import (
    GIB,
    KIB,
    MIB,
    MICROSECONDS,
    MILLISECONDS,
    SECONDS,
    format_bytes,
    format_time,
)
from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_positive_int,
)

__all__ = [
    "ConfigurationError",
    "DTLError",
    "GIB",
    "KIB",
    "MIB",
    "MICROSECONDS",
    "MILLISECONDS",
    "PlacementError",
    "ProtocolError",
    "RandomSource",
    "ReproError",
    "SECONDS",
    "SimulationError",
    "ValidationError",
    "format_bytes",
    "format_time",
    "population_std",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_positive_int",
    "spawn_rngs",
    "trimmed_mean",
]
