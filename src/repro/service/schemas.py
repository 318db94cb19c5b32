"""The service wire format: lossless JSON round-trips.

Everything the service moves over HTTP — ensemble specs, placements,
requests, scores — serializes here, and *only* here, so the one-shot
CLI (``plan --json``) and the service speak the same format. The
round-trip contract is exact, not approximate: ``json.dumps`` renders
floats with ``repr`` and Python parses them back to the identical
IEEE-754 value, so a :class:`~repro.scheduler.objectives
.PlacementScore` that travels through the API carries the very floats
the scorer produced. The verify subsystem's service tier asserts this
with tolerance 0.0.

Component models serialize by *content*, not by reference: every
constructor parameter plus the full
:class:`~repro.platform.contention.WorkloadProfile` — the fields the
:class:`~repro.search.cache.StageCache` fingerprints — so a
deserialized spec scores bit-identically to the original. Only the two
paper model types are wire-transportable; an unknown
:class:`~repro.components.base.ComponentModel` subclass raises
:class:`~repro.util.errors.ValidationError` rather than serializing
lossily.

:func:`canonical_digest` hashes the canonical JSON rendering of a
request (sorted keys, no whitespace), giving the content-addressed key
the :class:`~repro.service.cache.ResultCache` and the deterministic
job ids build on: two semantically identical requests — however they
were constructed — share one digest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Dict, Optional, Tuple

from repro.components.analysis import EigenAnalysisModel
from repro.components.base import ComponentModel
from repro.components.simulation import MDSimulationModel
from repro.coschedule.allocator import ClusterObjective
from repro.coschedule.requests import (
    EnsembleRequest,
    MembershipEvent,
    validate_stream,
)
from repro.faults.recovery import POLICY_NAMES
from repro.platform.contention import WorkloadProfile
from repro.platform.specs import cori_like_node
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.scheduler.objectives import PlacementScore
from repro.scheduler.robust import RobustScore
from repro.search.canonical import component_core_demands, search_space_size
from repro.util.errors import PlacementError, ValidationError
from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_non_negative_int,
    require_positive,
    require_positive_int,
)

#: Wire-format version carried by every request payload.
SCHEMA_VERSION = 1

#: Request kinds the service executes.
REQUEST_KINDS: Tuple[str, ...] = (
    "search",
    "score",
    "rank",
    "reschedule",
    "coschedule",
)

_PROFILE_FIELDS = (
    "working_set_bytes",
    "llc_refs_per_instr",
    "solo_llc_miss_ratio",
    "max_llc_miss_ratio",
    "contention_exponent",
    "base_cpi",
    "instructions_per_unit",
    "miss_penalty_cycles",
)


def _object(label: str, payload) -> dict:
    """``payload`` itself, if the wire value is a JSON object."""
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{label} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# -- components and specs ----------------------------------------------------
def _profile_to_dict(profile: WorkloadProfile) -> dict:
    out = {"name": profile.name}
    for field in _PROFILE_FIELDS:
        out[field] = getattr(profile, field)
    return out


def _profile_from_dict(payload: dict) -> WorkloadProfile:
    return WorkloadProfile(**{k: payload[k] for k in ("name",) + _PROFILE_FIELDS})


def component_to_dict(model: ComponentModel) -> dict:
    """Serialize one component model by content.

    Raises
    ------
    ValidationError
        For model types outside the wire format (custom subclasses
        would round-trip lossily, so they are rejected instead).
    """
    if isinstance(model, MDSimulationModel):
        return {
            "type": "md_simulation",
            "name": model.name,
            "cores": model.cores,
            "natoms": model.natoms,
            "stride": model.stride,
            "seconds_per_atom_step": model.seconds_per_atom_step,
            "serial_fraction": model.serial_fraction,
            "profile": _profile_to_dict(model.profile),
        }
    if isinstance(model, EigenAnalysisModel):
        return {
            "type": "eigen_analysis",
            "name": model.name,
            "cores": model.cores,
            "natoms": model.natoms,
            "single_core_time": model.single_core_time,
            "serial_fraction": model.serial_fraction,
            "profile": _profile_to_dict(model.profile),
        }
    raise ValidationError(
        f"component {model.name!r} has non-serializable type "
        f"{type(model).__qualname__}; wire format supports "
        f"MDSimulationModel and EigenAnalysisModel"
    )


def component_from_dict(payload: dict) -> ComponentModel:
    """Rebuild a component model from its wire dict."""
    kind = _object("component", payload).get("type")
    profile = _profile_from_dict(payload["profile"])
    if kind == "md_simulation":
        return MDSimulationModel(
            name=payload["name"],
            cores=payload["cores"],
            natoms=payload["natoms"],
            stride=payload["stride"],
            seconds_per_atom_step=payload["seconds_per_atom_step"],
            serial_fraction=payload["serial_fraction"],
            profile=profile,
        )
    if kind == "eigen_analysis":
        return EigenAnalysisModel(
            name=payload["name"],
            cores=payload["cores"],
            natoms=payload["natoms"],
            single_core_time=payload["single_core_time"],
            serial_fraction=payload["serial_fraction"],
            profile=profile,
        )
    raise ValidationError(f"unknown component type {kind!r} in payload")


def member_to_dict(member: MemberSpec) -> dict:
    """Serialize one :class:`MemberSpec` (content-complete)."""
    return {
        "name": member.name,
        "n_steps": member.n_steps,
        "simulation": component_to_dict(member.simulation),
        "analyses": [component_to_dict(a) for a in member.analyses],
    }


def member_from_dict(payload: dict) -> MemberSpec:
    """Rebuild one :class:`MemberSpec` from its wire dict."""
    return MemberSpec(
        name=payload["name"],
        simulation=component_from_dict(payload["simulation"]),
        analyses=tuple(
            component_from_dict(a) for a in payload["analyses"]
        ),
        n_steps=payload["n_steps"],
    )


def spec_to_dict(spec: EnsembleSpec) -> dict:
    """Serialize an :class:`EnsembleSpec` (content-complete)."""
    return {
        "name": spec.name,
        "members": [member_to_dict(m) for m in spec.members],
    }


def spec_from_dict(payload: dict) -> EnsembleSpec:
    """Rebuild an :class:`EnsembleSpec`; validation reruns on build."""
    members = tuple(member_from_dict(m) for m in payload["members"])
    return EnsembleSpec(payload["name"], members)


# -- placements --------------------------------------------------------------
def placement_to_dict(placement: EnsemblePlacement) -> dict:
    return {
        "num_nodes": placement.num_nodes,
        "members": [
            {
                "simulation_node": mp.simulation_node,
                "analysis_nodes": list(mp.analysis_nodes),
            }
            for mp in placement.members
        ],
    }


def placement_from_dict(payload: dict) -> EnsemblePlacement:
    return EnsemblePlacement(
        num_nodes=payload["num_nodes"],
        members=tuple(
            MemberPlacement(
                simulation_node=m["simulation_node"],
                analysis_nodes=tuple(m["analysis_nodes"]),
            )
            for m in payload["members"]
        ),
    )


# -- scores ------------------------------------------------------------------
def score_to_dict(score: PlacementScore) -> dict:
    """Serialize a :class:`PlacementScore` (floats survive exactly)."""
    return {
        "placement": placement_to_dict(score.placement),
        "objective": score.objective,
        "ensemble_makespan": score.ensemble_makespan,
        "num_nodes": score.num_nodes,
        "member_indicators": list(score.member_indicators),
        "robust_penalty": score.robust_penalty,
        "utility": score.utility,
    }


def score_from_dict(payload: dict) -> PlacementScore:
    return PlacementScore(
        placement=placement_from_dict(payload["placement"]),
        objective=payload["objective"],
        ensemble_makespan=payload["ensemble_makespan"],
        num_nodes=payload["num_nodes"],
        member_indicators=tuple(payload["member_indicators"]),
        robust_penalty=payload["robust_penalty"],
    )


def robust_score_to_dict(score: RobustScore) -> dict:
    """Serialize a :class:`~repro.scheduler.robust.RobustScore`."""
    return {
        "name": score.name,
        "placement": placement_to_dict(score.placement),
        "objective": score.objective,
        "ideal_objective": score.ideal_objective,
        "mean_inflation": score.mean_inflation,
        "mean_goodput": score.mean_goodput,
        "num_nodes": score.num_nodes,
        "trials": score.trials,
    }


def robust_score_from_dict(payload: dict) -> RobustScore:
    return RobustScore(
        name=payload["name"],
        placement=placement_from_dict(payload["placement"]),
        objective=payload["objective"],
        ideal_objective=payload["ideal_objective"],
        mean_inflation=payload["mean_inflation"],
        mean_goodput=payload["mean_goodput"],
        num_nodes=payload["num_nodes"],
        trials=payload["trials"],
    )


# -- reschedule options ------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RescheduleOptions:
    """Drift scenario + controller knobs for a ``reschedule`` request.

    The drift is a single node-attributed event
    (:class:`~repro.reschedule.drift.DriftEvent`): ``drift_kind``
    selects the shape (``"step"``: a constant factor above 1 and at
    most :data:`~repro.reschedule.drift.DEFAULT_DRIFT_CAP`, from
    ``drift_start`` on; ``"ramp"``: per-step increment), and the
    controller knobs mirror
    :class:`~repro.reschedule.controller.RescheduleController`.
    """

    drift_node: int = 0
    drift_kind: str = "step"
    drift_magnitude: float = 2.5
    drift_start: int = 4
    window: int = 4
    threshold: float = 1.25
    min_dwell: int = 4
    min_gain: float = 0.0
    max_migrations: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift_kind not in ("step", "ramp"):
            raise ValidationError(
                f"unknown drift_kind {self.drift_kind!r}; "
                f"valid: ['step', 'ramp']"
            )
        require_non_negative_int("drift_node", self.drift_node)
        require_non_negative_int("drift_start", self.drift_start)
        # deferred like the worker's reschedule stack: the package pulls
        # in the re-planner, which plain search jobs never need
        from repro.reschedule.drift import DEFAULT_DRIFT_CAP

        # finite and > 0 (a ramp's bound); a step must also exceed 1,
        # and stay within the event's cap, which would clip it silently
        require_positive("drift_magnitude", self.drift_magnitude)
        if self.drift_kind == "step" and not (
            1.0 < self.drift_magnitude <= DEFAULT_DRIFT_CAP
        ):
            raise ValidationError(
                f"step drift_magnitude must be in (1, "
                f"{DEFAULT_DRIFT_CAP:g}], got {self.drift_magnitude!r}"
            )
        require_positive("threshold", self.threshold)
        if self.threshold <= 1.0:
            raise ValidationError(
                f"threshold must be > 1, got {self.threshold!r}"
            )
        require_non_negative("min_gain", self.min_gain)
        require_positive_int("window", self.window)
        require_positive_int("min_dwell", self.min_dwell)
        require_positive_int("max_migrations", self.max_migrations)
        require_non_negative_int("seed", self.seed)


def reschedule_options_to_dict(options: RescheduleOptions) -> dict:
    """Serialize the full options record (attached only when present)."""
    return dataclasses.asdict(options)


def reschedule_options_from_dict(payload: dict) -> RescheduleOptions:
    _object("reschedule", payload)
    defaults = RescheduleOptions()
    return RescheduleOptions(
        **{
            field.name: payload.get(
                field.name, getattr(defaults, field.name)
            )
            for field in dataclasses.fields(RescheduleOptions)
        }
    )


# -- coschedule options ------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CoscheduleOptions:
    """Stream + cluster objective for a ``coschedule`` request.

    ``requests`` is the full ensemble stream (the enclosing
    :class:`PlacementRequest`'s ``spec`` must equal the first stream
    entry's spec, and ``num_nodes`` is the cluster size). The three
    weights configure the :class:`~repro.coschedule.allocator
    .ClusterObjective` (:meth:`objective`), which validates them;
    ``max_partitions`` bounds the allocator's exhaustive grant-lattice
    before it falls back to greedy water-filling.
    """

    requests: Tuple["EnsembleRequest", ...]
    utility_weight: float = 1.0
    fairness_weight: float = 0.0
    deadline_weight: float = 0.0
    max_partitions: int = 20_000

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValidationError(
                "a coschedule request needs at least one stream entry"
            )
        validate_stream(self.requests)
        self.objective()
        require_positive_int("max_partitions", self.max_partitions)

    def objective(self) -> ClusterObjective:
        """The cluster objective the three weights configure."""
        return ClusterObjective(
            utility_weight=self.utility_weight,
            fairness_weight=self.fairness_weight,
            deadline_weight=self.deadline_weight,
        )


def membership_event_to_dict(event: MembershipEvent) -> dict:
    payload = {
        "offset": event.offset,
        "action": event.action,
        "member_name": event.member_name,
    }
    if event.member is not None:
        payload["member"] = member_to_dict(event.member)
    return payload


def membership_event_from_dict(payload: dict) -> MembershipEvent:
    member = _object("membership event", payload).get("member")
    return MembershipEvent(
        offset=payload["offset"],
        action=payload["action"],
        member_name=payload["member_name"],
        member=member_from_dict(member) if member is not None else None,
    )


def ensemble_request_to_dict(request: "EnsembleRequest") -> dict:
    """Serialize one stream entry (optional fields only when set)."""
    payload = {
        "name": request.name,
        "spec": spec_to_dict(request.spec),
        "arrival_time": request.arrival_time,
        "priority": request.priority,
        "min_nodes": request.min_nodes,
    }
    if request.deadline is not None:
        payload["deadline"] = request.deadline
    if request.max_nodes is not None:
        payload["max_nodes"] = request.max_nodes
    if request.membership:
        payload["membership"] = [
            membership_event_to_dict(e) for e in request.membership
        ]
    return payload


def ensemble_request_from_dict(payload: dict) -> "EnsembleRequest":
    from repro.coschedule.requests import EnsembleRequest

    _object("stream entry", payload)
    return EnsembleRequest(
        name=payload["name"],
        spec=spec_from_dict(payload["spec"]),
        arrival_time=payload.get("arrival_time", 0.0),
        deadline=payload.get("deadline"),
        priority=payload.get("priority", 0),
        min_nodes=payload.get("min_nodes", 1),
        max_nodes=payload.get("max_nodes"),
        membership=tuple(
            membership_event_from_dict(e)
            for e in payload.get("membership", [])
        ),
    )


def coschedule_options_to_dict(options: CoscheduleOptions) -> dict:
    """Serialize the full options record (attached only when present)."""
    return {
        "requests": [
            ensemble_request_to_dict(r) for r in options.requests
        ],
        "utility_weight": options.utility_weight,
        "fairness_weight": options.fairness_weight,
        "deadline_weight": options.deadline_weight,
        "max_partitions": options.max_partitions,
    }


def coschedule_options_from_dict(payload: dict) -> CoscheduleOptions:
    _object("coschedule", payload)
    return CoscheduleOptions(
        requests=tuple(
            ensemble_request_from_dict(r) for r in payload["requests"]
        ),
        utility_weight=payload.get("utility_weight", 1.0),
        fairness_weight=payload.get("fairness_weight", 0.0),
        deadline_weight=payload.get("deadline_weight", 0.0),
        max_partitions=payload.get("max_partitions", 20_000),
    )


# -- requests ----------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PlacementRequest:
    """One placement query, as the service understands it.

    ``kind`` selects the execution path:

    - ``"search"`` — exhaustive canonical search over ``num_nodes`` x
      ``cores_per_node`` via :func:`~repro.search.engine
      .find_best_placement`; returns the best score and the candidate
      count;
    - ``"score"`` — score the given ``placement`` via
      :func:`~repro.scheduler.objectives.score_placement`;
    - ``"rank"`` — robust-rank the named ``candidates``. With the
      default ``rank_method="surrogate"`` each candidate is priced in
      closed form (:func:`~repro.scheduler.robust
      .rank_placements_robust`, ``method="surrogate"``);
      ``rank_method="des"`` averages ``trials`` injected DES replicas
      per candidate through the batched delta-replay engine instead;
    - ``"reschedule"`` — run the given ``placement`` through the DES
      twice under the drift scenario in ``reschedule``
      (:class:`RescheduleOptions`): once statically and once with the
      online rescheduling controller attached, returning both
      makespans, the relative improvement, and the migration log.
    - ``"coschedule"`` — run the ensemble stream in ``coschedule``
      (:class:`CoscheduleOptions`) through the cluster-level
      co-scheduler (:class:`~repro.coschedule.loop.CoScheduler`) on a
      ``num_nodes``-node cluster, returning admission decisions,
      completions, the event timeline, and utilization. ``spec`` must
      equal the first stream entry's spec (it keys the digest the
      same way every other kind does).

    A positive ``robust_rate`` prices failures into search/score
    requests through a node-crash
    :class:`~repro.faults.analytic.RobustnessTerm` (weight
    ``robust_weight``, recovery ``policy``); rank requests always use
    ``robust_rate`` as the crash/straggler rate of the ranking's
    failure model.
    """

    kind: str
    spec: EnsembleSpec
    num_nodes: int
    cores_per_node: int = 32
    placement: Optional[EnsemblePlacement] = None
    candidates: Optional[Dict[str, EnsemblePlacement]] = None
    robust_rate: float = 0.0
    robust_weight: float = 1.0
    policy: str = "retry"
    base_seed: int = 0
    rank_method: str = "surrogate"
    trials: int = 3
    reschedule: Optional[RescheduleOptions] = None
    coschedule: Optional[CoscheduleOptions] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValidationError(
                f"unknown request kind {self.kind!r}; "
                f"valid: {list(REQUEST_KINDS)}"
            )
        require_positive_int("num_nodes", self.num_nodes)
        require_positive_int("cores_per_node", self.cores_per_node)
        if self.kind == "score" and self.placement is None:
            raise ValidationError("a 'score' request needs a placement")
        if self.kind == "reschedule" and self.placement is None:
            raise ValidationError(
                "a 'reschedule' request needs a placement to drift"
            )
        if self.kind == "rank" and not self.candidates:
            raise ValidationError(
                "a 'rank' request needs at least one named candidate"
            )
        # placements must fit the worker's physical node (its cores, not
        # ``cores_per_node``, which only budgets searches)
        node_cores = cori_like_node().cores
        if self.kind == "search":
            # the engine's own closed-form refusal: an empty budget or
            # one that oversubscribes the worker's node is a 400, not a
            # job that fails in the worker
            search_space_size(
                tuple(component_core_demands(self.spec)),
                self.num_nodes,
                self.cores_per_node,
                node_cores,
            )
        if self.kind in ("score", "reschedule"):
            self.placement.validate_against(self.spec, node_cores)
        if self.kind == "rank":
            for name, candidate in self.candidates.items():
                try:
                    candidate.validate_against(self.spec, node_cores)
                except PlacementError as exc:
                    message = f"candidate {name!r}: {exc}"
                    raise PlacementError(message) from None
        if self.kind == "coschedule":
            if self.coschedule is None:
                raise ValidationError(
                    "a 'coschedule' request needs a stream in coschedule"
                )
            first = self.coschedule.requests[0]
            if spec_to_dict(first.spec) != spec_to_dict(self.spec):
                raise ValidationError(
                    "a 'coschedule' request's spec must equal the first "
                    f"stream entry's spec (got {self.spec.name!r} vs "
                    f"{first.spec.name!r})"
                )
        require_in_range("robust_rate", self.robust_rate, 0.0, 1.0)
        require_non_negative("robust_weight", self.robust_weight)
        require_non_negative_int("base_seed", self.base_seed)
        if (
            self.reschedule is not None
            and self.placement is not None
            and self.reschedule.drift_node >= self.placement.num_nodes
        ):
            raise ValidationError(
                f"reschedule.drift_node {self.reschedule.drift_node} must "
                f"lie below the placement's {self.placement.num_nodes} nodes"
            )
        if self.policy not in POLICY_NAMES:
            raise ValidationError(
                f"unknown recovery policy {self.policy!r}; "
                f"valid: {list(POLICY_NAMES)}"
            )
        if self.rank_method not in ("surrogate", "des"):
            raise ValidationError(
                f"unknown rank_method {self.rank_method!r}; "
                f"valid: ['surrogate', 'des']"
            )
        require_positive_int("trials", self.trials)

    @functools.cached_property
    def digest(self) -> str:
        """This request's :func:`canonical_digest`, rendered on first use.

        A request is frozen, so its digest is computed once per object.
        """
        rendered = canonical_json(request_to_dict(self))
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def request_to_dict(request: PlacementRequest) -> dict:
    """Serialize a request (including the schema version)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": request.kind,
        "spec": spec_to_dict(request.spec),
        "num_nodes": request.num_nodes,
        "cores_per_node": request.cores_per_node,
        "robust_rate": request.robust_rate,
        "robust_weight": request.robust_weight,
        "policy": request.policy,
        "base_seed": request.base_seed,
    }
    if request.placement is not None:
        payload["placement"] = placement_to_dict(request.placement)
    if request.candidates is not None:
        payload["candidates"] = {
            name: placement_to_dict(p)
            for name, p in request.candidates.items()
        }
    # serialized only when non-default so every digest computed before
    # these fields existed still addresses the same request
    if request.rank_method != "surrogate":
        payload["rank_method"] = request.rank_method
    if request.trials != 3:
        payload["trials"] = request.trials
    if request.reschedule is not None:
        payload["reschedule"] = reschedule_options_to_dict(
            request.reschedule
        )
    if request.coschedule is not None:
        payload["coschedule"] = coschedule_options_to_dict(
            request.coschedule
        )
    return payload


def request_from_dict(payload: dict) -> PlacementRequest:
    """Rebuild a request; unknown schema versions are rejected."""
    version = _object("request", payload).get(
        "schema_version", SCHEMA_VERSION
    )
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )
    placement = payload.get("placement")
    candidates = payload.get("candidates")
    return PlacementRequest(
        kind=payload["kind"],
        spec=spec_from_dict(payload["spec"]),
        num_nodes=payload["num_nodes"],
        cores_per_node=payload.get("cores_per_node", 32),
        placement=(
            placement_from_dict(placement) if placement is not None else None
        ),
        candidates=(
            {
                n: placement_from_dict(p)
                for n, p in _object("candidates", candidates).items()
            }
            if candidates is not None
            else None
        ),
        robust_rate=payload.get("robust_rate", 0.0),
        robust_weight=payload.get("robust_weight", 1.0),
        policy=payload.get("policy", "retry"),
        base_seed=payload.get("base_seed", 0),
        rank_method=payload.get("rank_method", "surrogate"),
        trials=payload.get("trials", 3),
        reschedule=(
            reschedule_options_from_dict(payload["reschedule"])
            if "reschedule" in payload
            else None
        ),
        coschedule=(
            coschedule_options_from_dict(payload["coschedule"])
            if "coschedule" in payload
            else None
        ),
    )


def canonical_json(payload: dict) -> str:
    """The canonical rendering digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_digest(request: PlacementRequest) -> str:
    """Content-addressed key of one request (hex SHA-256).

    Every semantic field participates — spec content, kind, budgets,
    placement/candidates, and the fault model — so two requests share
    a digest iff the service would compute the identical result for
    both. Submission metadata (priority, timeouts) never enters.
    The digest is rendered once per request object and then read from
    :attr:`PlacementRequest.digest`.
    """
    return request.digest
