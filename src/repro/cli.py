"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run <config>``
    Execute one paper configuration (Cf, Cc, C1.1-C1.5, C2.1-C2.8) and
    print the full summary report plus an ASCII Gantt chart.
``figures [--fast]``
    Regenerate every figure/table of the paper and print the data.
``sweep``
    Run the §3.4 analysis-core sweep and print the heuristic's choice.
``plan --members N --analyses K --nodes M [--robust-rate R] [--json]``
    Run the resource-constrained planner and print the resulting plan;
    with ``--robust-rate`` the plan is scored with the analytic
    robustness surrogate (node-level crash domains, weight
    ``--robust-weight``). ``--json`` emits the plan in the service
    wire format (:mod:`repro.service.schemas`) instead of text, so
    one-shot planning and the placement service share one format.
``serve [--port P --workers W --cache-entries E --job-timeout T]``
    Run the placement service: an HTTP/JSON API (``POST /jobs``,
    ``GET /jobs[/<id>]``, ``DELETE /jobs/<id>``, ``GET /health``,
    ``GET /stats``) over a priority job queue, a worker pool draining
    it through the fast search engine, and a digest-keyed result
    cache. See ``docs/SERVICE.md``.
``faults <config> [--rate R --policy P --kinds K --model M]``
    Execute one configuration under fault injection and print the fault
    log, the resilience metrics, and the ideal-vs-robust objective.
    ``--model`` picks the failure process (``random``, ``markov``,
    ``weibull``, ``node``); ``--surrogate`` additionally prints the
    closed-form surrogate prediction next to the measured metrics.
``faults --experiment``
    Run the full resilience sweep (rates x recovery policies) instead.
``faults --validate``
    Run the surrogate-vs-DES validation table instead.
``reschedule <config> [--drift-node N --drift-magnitude M ...]``
    Execute one configuration twice under a node-attributed drift
    scenario — once statically, once with the online rescheduling
    controller attached — and print both makespans, the improvement,
    and the migration log. The flags build a service ``reschedule``
    request, run by the service's own executor. ``--verify`` audits
    the rescheduled run with the invariant checker (migration-aware);
    ``--json`` emits the comparison as JSON.
``coschedule [--requests N --nodes M ...]``
    Co-schedule the canonical mixed-deadline stream on one cluster
    through the service's ``coschedule`` request path, and compare it
    with FIFO exclusive allocation.
``verify [configs...] [--faults] [--service] [--json]``
    Run the differential oracle harness over the canonical Table 2
    scenarios (analytic vs cached search vs surrogate vs DES) and
    print each scenario's divergence report; exits non-zero on any
    divergence. With ``--faults`` the fault surrogate is additionally
    compared against injected DES trials; with ``--service`` each
    scenario is also scored through the HTTP placement service and
    must agree exactly (tier 0) with the direct scorer.
``run --verify`` / ``faults --verify``
    Execute with the runtime invariant checker hooked into the DES
    stage choke point; violations abort the run and the audit summary
    is printed.
``list``
    List the available configurations with their placements.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.configs.table4 import TABLE4_CONFIGS
from repro.faults.recovery import POLICY_NAMES
from repro.monitoring.report import gantt, summary_report
from repro.runtime.runner import run_ensemble
from repro.util.errors import ReproError

ALL_CONFIGS = {**TABLE2_CONFIGS, **TABLE4_CONFIGS}


class UsageError(Exception):
    """A command-line mistake the parser cannot see (exit status 2)."""


def _config(name: str):
    """The named configuration; an unknown name is a usage error."""
    config = ALL_CONFIGS.get(name)
    if config is None:
        raise UsageError(
            f"unknown configuration {name!r}; valid: {sorted(ALL_CONFIGS)}"
        )
    return config


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available configurations (paper Tables 2 and 4):")
    for name, config in ALL_CONFIGS.items():
        members = ", ".join(
            f"(sim@n{m.simulation_node}, ana@{list(m.analysis_nodes)})"
            for m in config.members
        )
        print(f"  {name:5s} nodes={config.num_nodes}  {members}")
        print(f"        {config.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args.config)
    from repro.runtime.executor import EnsembleExecutor

    spec = build_spec(config, n_steps=args.steps)
    executor = EnsembleExecutor(
        spec,
        config.placement(),
        seed=args.seed,
        timing_noise=args.noise,
        verify=args.verify,
    )
    result = executor.run()
    print(summary_report(result))
    print()
    print(gantt(result.tracer, width=args.width))
    if executor.invariant_report is not None:
        print()
        print(executor.invariant_report.to_text())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.configs.base import build_spec
    from repro.runtime.compare import compare_placements, render_comparison

    names = args.configs or ["C1.1", "C1.2", "C1.3", "C1.4", "C1.5"]
    unknown = [n for n in names if n not in ALL_CONFIGS]
    if unknown:
        raise UsageError(f"unknown configurations: {unknown}")
    configs = [ALL_CONFIGS[n] for n in names]
    k = {c.num_analyses_per_member for c in configs}
    n = {c.num_members for c in configs}
    if len(k) != 1 or len(n) != 1:
        raise UsageError(
            "compared configurations must share member/analysis counts"
        )
    spec = build_spec(configs[0], n_steps=args.steps)
    candidates = {c.name: c.placement() for c in configs}
    results = compare_placements(spec, candidates)
    print(render_comparison(results))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
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

    kwargs = dict(trials=2, n_steps=6) if args.fast else {}
    artifacts = [
        run_fig3(**kwargs),
        run_fig4(**kwargs),
        run_fig5(**kwargs),
        run_fig7(),
        run_fig8(**kwargs),
        run_fig9(**kwargs),
        run_headline(**kwargs),
        run_headline_extended(),
        run_contention_ablation(**kwargs),
        run_locality_ablation(**kwargs),
        run_tax_ablation(**kwargs),
    ]
    for artifact in artifacts:
        print(artifact.to_text())
        print()
    if args.output:
        import pathlib

        outdir = pathlib.Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        for artifact in artifacts:
            artifact.save(outdir / f"{artifact.experiment_id}.json")
        print(f"saved {len(artifacts)} JSON artifacts to {outdir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.fig7 import run_fig7

    result = run_fig7(
        sim_cores=args.sim_cores, stride=args.stride, natoms=args.natoms
    )
    print(result.to_text())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.faults.analytic import node_crash_term
    from repro.runtime.spec import EnsembleSpec, default_member
    from repro.scheduler.context import PlanningContext
    from repro.scheduler.planner import ResourceConstrainedPlanner

    spec = EnsembleSpec(
        "cli-plan",
        tuple(
            default_member(
                f"em{i + 1}", num_analyses=args.analyses, n_steps=args.steps
            )
            for i in range(args.members)
        ),
    )
    robustness = node_crash_term(
        args.robust_rate, args.policy, args.robust_weight
    )
    planner = ResourceConstrainedPlanner(
        context=PlanningContext(robustness=robustness)
    )
    plan = planner.plan(spec, num_nodes=args.nodes)
    if args.json:
        from repro.service.schemas import (
            SCHEMA_VERSION,
            placement_to_dict,
            score_to_dict,
            spec_to_dict,
        )

        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "node_budget": args.nodes,
                    "analysis_cores": plan.analysis_cores,
                    "policy": plan.policy_name,
                    "spec": spec_to_dict(plan.spec),
                    "placement": placement_to_dict(plan.placement),
                    "score": score_to_dict(plan.score),
                },
                indent=2,
            )
        )
        return 0
    print(
        f"plan: {args.members} members x (16-core sim + "
        f"{args.analyses} x {plan.analysis_cores}-core analyses) on "
        f"{plan.placement.num_nodes} nodes (budget {args.nodes})"
    )
    for member, mp in zip(plan.spec.members, plan.placement.members):
        print(
            f"  {member.name}: sim@n{mp.simulation_node}, "
            f"analyses@{list(mp.analysis_nodes)}"
        )
    print(
        f"predicted F(P^{{U,A,P}}) = {plan.score.objective:.6f}, "
        f"ensemble makespan = {plan.score.ensemble_makespan:.1f} s"
    )
    if robustness is not None:
        print(
            f"robustness: node-crash rate {args.robust_rate} x weight "
            f"{args.robust_weight} -> penalty "
            f"{plan.score.robust_penalty:.6f}, utility "
            f"{plan.score.utility:.6f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import make_server

    server = make_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_entries=args.cache_entries,
        job_timeout=args.job_timeout,
    )
    print(
        f"placement service listening on {server.url} "
        f"({args.workers} workers, cache {args.cache_entries} entries)"
    )
    print("routes: POST /jobs  GET /jobs[/<id>]  DELETE /jobs/<id>")
    print("        GET /health  GET /stats")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining workers)...")
        server.stop()
    return 0


def _build_failure_model(args: argparse.Namespace, kinds, placement):
    """Construct the failure model selected by ``--model``."""
    from repro.faults import (
        CorrelatedFailureModel,
        MarkovModulatedArrivals,
        NodeFailureModel,
        RandomFailureModel,
        WeibullBurstArrivals,
    )

    if args.model == "markov":
        # bursty variant centred near --rate: quiet/burst regimes with
        # a ~1:5 occupancy split
        process = MarkovModulatedArrivals(
            quiet_rate=args.rate * 0.2,
            burst_rate=min(args.rate * 4.0, 1.0),
            p_enter=0.1,
            p_exit=0.5,
        )
        return CorrelatedFailureModel(process, kinds=kinds, seed=args.seed)
    if args.model == "weibull":
        process = WeibullBurstArrivals(
            mean_gap=max(2.0, 1.0 / max(args.rate, 1e-6)),
            burst_rate=0.8,
        )
        return CorrelatedFailureModel(process, kinds=kinds, seed=args.seed)
    if args.model == "node":
        return NodeFailureModel(placement, rate=args.rate, seed=args.seed)
    return RandomFailureModel(rate=args.rate, kinds=kinds, seed=args.seed)


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultKind, make_policy
    from repro.monitoring.resilience import compute_resilience
    from repro.scheduler.objectives import FINAL_STAGE_ORDER

    if args.experiment:
        from repro.experiments.resilience import run_resilience

        result = run_resilience(
            trials=args.trials,
            n_steps=args.steps,
            base_seed=args.seed,
            timing_noise=args.noise,
        )
        print(result.to_text())
        return 0

    if args.validate:
        from repro.experiments.resilience import run_surrogate_validation

        result = run_surrogate_validation(
            policy=args.policy,
            trials=args.trials,
            n_steps=args.steps,
            base_seed=args.seed,
        )
        print(result.to_text())
        return 0

    if args.config is None:
        raise UsageError(
            "a configuration name is required unless --experiment or "
            "--validate is given"
        )
    config = _config(args.config)
    try:
        kinds = tuple(FaultKind(k) for k in args.kinds.split(","))
    except ValueError:
        raise UsageError(
            f"unknown fault kind in {args.kinds!r}; "
            f"valid: {[k.value for k in FaultKind]}"
        ) from None

    from repro.runtime.executor import EnsembleExecutor

    spec = build_spec(config, n_steps=args.steps)
    placement = config.placement()
    model = _build_failure_model(args, kinds, placement)
    baseline = run_ensemble(
        spec, placement, seed=args.seed, timing_noise=args.noise
    )
    executor = EnsembleExecutor(
        spec,
        placement,
        seed=args.seed,
        timing_noise=args.noise,
        failure_model=model,
        recovery=make_policy(args.policy),
        verify=args.verify,
    )
    result = executor.run()
    print(
        f"{args.config} under injection: model={args.model}, "
        f"rate={args.rate}, policy={args.policy}, kinds={args.kinds}"
    )
    print()
    print(result.fault_log.summary())
    print()
    metrics = compute_resilience(result, baseline.ensemble_makespan)
    print(metrics.to_text())
    if args.surrogate:
        from repro.faults.analytic import surrogate_resilience
        from repro.runtime.analytic import predict_member_stages

        report = surrogate_resilience(
            spec, placement, model, make_policy(args.policy),
            stages=predict_member_stages(spec, placement),
        )
        print()
        print("analytic surrogate prediction:")
        print(report.to_text())
    ideal = baseline.objective(FINAL_STAGE_ORDER)
    robust = result.objective(FINAL_STAGE_ORDER)
    retained = robust / ideal if ideal > 0 else 1.0
    print(
        f"F(P^{{U,A,P}})       ideal {ideal:.6f} -> "
        f"under failures {robust:.6f} ({retained:.1%} retained)"
    )
    if executor.invariant_report is not None:
        print()
        print(executor.invariant_report.to_text())
    return 0


def _cmd_reschedule(args: argparse.Namespace) -> int:
    from repro.service.schemas import PlacementRequest, RescheduleOptions
    from repro.service.workers import execute_reschedule

    config = _config(args.config)
    placement = config.placement()
    request = PlacementRequest(
        kind="reschedule",
        spec=build_spec(config, n_steps=args.steps),
        num_nodes=placement.num_nodes,
        placement=placement,
        reschedule=RescheduleOptions(
            drift_node=args.drift_node,
            drift_kind=args.drift_kind,
            drift_magnitude=args.drift_magnitude,
            drift_start=args.drift_start,
            window=args.window,
            threshold=args.threshold,
            min_dwell=args.min_dwell,
            max_migrations=args.max_migrations,
            seed=args.seed,
        ),
    )
    payload = execute_reschedule(
        request, timing_noise=args.noise, verify=args.verify
    )
    invariants = payload.pop("invariants", None)
    if args.json:
        drift = {
            "node": args.drift_node,
            "kind": args.drift_kind,
            "magnitude": args.drift_magnitude,
            "start_step": args.drift_start,
        }
        print(
            json.dumps(
                {"config": args.config, "drift": drift, **payload},
                indent=2,
            )
        )
        return 0
    summary = payload["controller"]
    print(
        f"{args.config} under {args.drift_kind} drift on node "
        f"{args.drift_node} (x{args.drift_magnitude:g} from step "
        f"{args.drift_start}):"
    )
    print(f"  static makespan      {payload['static_makespan']:10.2f} s")
    print(
        f"  rescheduled makespan {payload['rescheduled_makespan']:10.2f} s "
        f"({payload['improvement']:+.1%})"
    )
    print(
        f"  replans: {summary['replans_triggered']} triggered, "
        f"{summary['replans_accepted']} accepted; "
        f"{summary['migrations']} migrations moved "
        f"{summary['components_moved']} components"
    )
    for record in summary["migration_records"]:
        moves = ", ".join(
            f"{m['component']} n{m['from_node']}->n{m['to_node']}"
            for m in record["moves"]
        )
        print(
            f"    step {record['step']:3d} {record['member']}: "
            f"{moves or 'rebind only'} "
            f"(delay {record['delay']:.4f} s)"
        )
    if invariants is not None:
        print()
        print(invariants.to_text())
    return 0


def _cmd_coschedule(args: argparse.Namespace) -> int:
    from repro.coschedule import (
        canonical_mixed_deadline_stream,
        fifo_exclusive_schedule,
    )
    from repro.service.schemas import CoscheduleOptions, PlacementRequest
    from repro.service.workers import execute_request

    options = CoscheduleOptions(
        requests=tuple(
            canonical_mixed_deadline_stream(
                num_requests=args.requests,
                arrival_spacing=args.spacing,
            )
        ),
        utility_weight=args.utility_weight,
        fairness_weight=args.fairness_weight,
        deadline_weight=args.deadline_weight,
    )
    payload = execute_request(
        PlacementRequest(
            kind="coschedule",
            spec=options.requests[0].spec,
            num_nodes=args.nodes,
            cores_per_node=args.cores,
            robust_rate=args.robust_rate,
            policy=args.policy,
            coschedule=options,
        )
    )
    result = payload["coschedule"]
    fifo = fifo_exclusive_schedule(options.requests, args.nodes, args.cores)
    ratio = (
        result["utilization"] / fifo.utilization
        if fifo.utilization > 0
        else float("inf")
    )
    if args.json:
        print(
            json.dumps(
                {
                    "coschedule": result,
                    "fifo": fifo.to_dict(),
                    "utilization_ratio": ratio,
                },
                indent=2,
            )
        )
        return 0
    print(
        f"co-scheduled {args.requests} ensembles on {args.nodes} x "
        f"{args.cores} cores:"
    )
    for decision in result["decisions"]:
        print(
            f"  [{decision['time']:9.2f}s] {decision['request']:<8} "
            f"{decision['action']:<7} {decision['reason']}"
        )
    print()
    for completion in result["completions"]:
        met = completion["met_deadline"]
        met = "-" if met is None else ("yes" if met else "NO")
        print(
            f"  {completion['name']:<8} finished "
            f"{completion['finished_at']:10.2f}s "
            f"on {completion['nodes_granted']} nodes "
            f"(deadline met: {met}, migrations: {completion['migrations']})"
        )
    print()
    print(
        f"  makespan     co {result['makespan']:10.2f}s   "
        f"fifo {fifo.makespan:10.2f}s"
    )
    print(
        f"  utilization  co {result['utilization']:10.1%}   "
        f"fifo {fifo.utilization:10.1%}   (x{ratio:.2f})"
    )
    print(f"  schedule digest {payload['digest'][:16]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.oracles import verify_scenarios

    reports = verify_scenarios(
        names=args.configs or None,
        n_steps=args.steps,
        include_faults=args.faults,
        include_service=args.service,
    )
    if args.json:
        print(
            json.dumps([r.to_dict() for r in reports], indent=2)
        )
    else:
        for report in reports:
            print(report.to_text(verbose=args.verbose))
    failed = [r.scenario for r in reports if not r.passed]
    if failed:
        print(
            f"divergence detected in: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.platform.specs import cori_like_node
    from repro.reschedule.drift import DEFAULT_DRIFT_CAP

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Workflow-ensemble performance indicators "
        "(ICPP Workshops '21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available configurations")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="execute one configuration")
    p_run.add_argument("config", help="configuration name (e.g. C1.5)")
    p_run.add_argument("--steps", type=int, default=12)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--noise", type=float, default=0.02)
    p_run.add_argument("--width", type=int, default=80)
    p_run.add_argument(
        "--verify",
        action="store_true",
        help="audit the run with the DES invariant checker",
    )
    p_run.set_defaults(func=_cmd_run)

    p_figs = sub.add_parser("figures", help="regenerate all paper artifacts")
    p_figs.add_argument("--fast", action="store_true")
    p_figs.add_argument(
        "--output", help="directory to also save JSON artifacts into"
    )
    p_figs.set_defaults(func=_cmd_figures)

    p_cmp = sub.add_parser(
        "compare", help="rank configurations with the indicator"
    )
    p_cmp.add_argument(
        "configs",
        nargs="*",
        help="configuration names (default: C1.1-C1.5)",
    )
    p_cmp.add_argument("--steps", type=int, default=37)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run the §3.4 core sweep")
    p_sweep.add_argument("--sim-cores", type=int, default=16)
    p_sweep.add_argument("--stride", type=int, default=800)
    p_sweep.add_argument("--natoms", type=int, default=250_000)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plan = sub.add_parser("plan", help="resource-constrained planning")
    p_plan.add_argument("--members", type=int, default=2)
    p_plan.add_argument("--analyses", type=int, default=1)
    p_plan.add_argument("--nodes", type=int, default=2)
    p_plan.add_argument("--steps", type=int, default=37)
    p_plan.add_argument(
        "--robust-rate",
        type=float,
        default=0.0,
        help="node-crash rate for the robustness surrogate "
        "(0 disables the robustness term)",
    )
    p_plan.add_argument(
        "--robust-weight",
        type=float,
        default=1.0,
        help="weight on the expected-inflation penalty",
    )
    p_plan.add_argument(
        "--policy",
        choices=list(POLICY_NAMES),
        default="retry",
        help="recovery policy priced by the robustness term",
    )
    p_plan.add_argument(
        "--json",
        action="store_true",
        help="emit the plan in the service wire format "
        "(repro.service.schemas) instead of text",
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_serve = sub.add_parser(
        "serve", help="run the placement service (HTTP/JSON API)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--workers", type=int, default=2, help="worker pool size"
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="result-cache capacity (LRU)",
    )
    p_serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job execution deadline in seconds (default: none)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_faults = sub.add_parser(
        "faults", help="execute under fault injection"
    )
    p_faults.add_argument(
        "config",
        nargs="?",
        help="configuration name (e.g. C1.5); omit with --experiment",
    )
    p_faults.add_argument(
        "--experiment",
        action="store_true",
        help="run the resilience sweep (rates x recovery policies)",
    )
    p_faults.add_argument(
        "--validate",
        action="store_true",
        help="run the surrogate-vs-DES validation table",
    )
    p_faults.add_argument("--rate", type=float, default=0.05)
    p_faults.add_argument(
        "--policy", choices=list(POLICY_NAMES), default="retry"
    )
    p_faults.add_argument(
        "--model",
        choices=("random", "markov", "weibull", "node"),
        default="random",
        help="failure process: independent (random), bursty "
        "(markov/weibull), or node-level crash domains (node)",
    )
    p_faults.add_argument(
        "--surrogate",
        action="store_true",
        help="also print the closed-form surrogate prediction",
    )
    p_faults.add_argument(
        "--kinds",
        default="crash,straggler",
        help="comma-separated fault kinds to inject",
    )
    p_faults.add_argument("--steps", type=int, default=12)
    p_faults.add_argument("--trials", type=int, default=2)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--noise", type=float, default=0.0)
    p_faults.add_argument(
        "--verify",
        action="store_true",
        help="audit the injected run with the DES invariant checker",
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_resched = sub.add_parser(
        "reschedule",
        help="static vs online-rescheduled execution under drift",
    )
    p_resched.add_argument("config", help="configuration name (e.g. C1.5)")
    p_resched.add_argument("--steps", type=int, default=24)
    p_resched.add_argument("--seed", type=int, default=0)
    p_resched.add_argument("--noise", type=float, default=0.02)
    p_resched.add_argument(
        "--drift-node", type=int, default=0,
        help="node the drift event slows down",
    )
    p_resched.add_argument(
        "--drift-kind", choices=("step", "ramp"), default="step"
    )
    p_resched.add_argument(
        "--drift-magnitude", type=float, default=2.5,
        help=f"inflation factor in (1, {DEFAULT_DRIFT_CAP:g}] (step) or "
        "per-step increment (ramp); a ramp's inflation saturates at "
        f"x{DEFAULT_DRIFT_CAP:g}",
    )
    p_resched.add_argument("--drift-start", type=int, default=4)
    p_resched.add_argument(
        "--window", type=int, default=4,
        help="telemetry/detector window (stage observations per node)",
    )
    p_resched.add_argument(
        "--threshold", type=float, default=1.25,
        help="observed/modeled ratio that trips the detector",
    )
    p_resched.add_argument("--min-dwell", type=int, default=4)
    p_resched.add_argument("--max-migrations", type=int, default=4)
    p_resched.add_argument(
        "--verify",
        action="store_true",
        help="audit the rescheduled run with the invariant checker",
    )
    p_resched.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as JSON",
    )
    p_resched.set_defaults(func=_cmd_reschedule)

    p_cosched = sub.add_parser(
        "coschedule",
        help="co-schedule a stream of ensembles on one shared cluster",
    )
    p_cosched.add_argument(
        "--requests", type=int, default=4,
        help="number of ensembles in the canonical mixed-deadline stream",
    )
    p_cosched.add_argument(
        "--spacing", type=float, default=30.0,
        help="arrival spacing in seconds",
    )
    p_cosched.add_argument(
        "--nodes", type=int, default=6, help="cluster size in nodes"
    )
    node_cores = cori_like_node().cores
    p_cosched.add_argument(
        "--cores", type=int, default=node_cores,
        help=f"cores per node the co-scheduler may grant (default: the "
        f"physical node's {node_cores}). A larger budget makes admission "
        f"reject every ensemble whose placement would put more than "
        f"{node_cores} cores on one node (3 of the 4 canonical ensembles "
        f"at --cores 48); the service's search kind refuses such a budget "
        f"at the door",
    )
    p_cosched.add_argument(
        "--utility-weight", type=float, default=1.0,
        help="weight on the priority-weighted sum of per-ensemble F(P)",
    )
    p_cosched.add_argument(
        "--fairness-weight", type=float, default=0.0,
        help="weight on the max-min (worst per-ensemble utility) term",
    )
    p_cosched.add_argument(
        "--deadline-weight", type=float, default=0.0,
        help="penalty weight per second of predicted deadline overrun",
    )
    p_cosched.add_argument(
        "--robust-rate", type=float, default=0.0,
        help="node-crash rate for the admission deadline probe",
    )
    p_cosched.add_argument(
        "--policy", choices=list(POLICY_NAMES), default="retry"
    )
    p_cosched.add_argument(
        "--json",
        action="store_true",
        help="emit the full schedule and FIFO baseline as JSON",
    )
    p_cosched.set_defaults(func=_cmd_coschedule)

    p_verify = sub.add_parser(
        "verify",
        help="run the differential oracle harness over Table 2 scenarios",
    )
    p_verify.add_argument(
        "configs",
        nargs="*",
        help="Table 2 configuration names (default: all)",
    )
    p_verify.add_argument("--steps", type=int, default=6)
    p_verify.add_argument(
        "--faults",
        action="store_true",
        help="also compare the fault surrogate against DES trials",
    )
    p_verify.add_argument(
        "--service",
        action="store_true",
        help="also score each scenario through the HTTP placement "
        "service and require exact (tier-0) agreement",
    )
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="emit the divergence reports as JSON",
    )
    p_verify.add_argument(
        "--verbose",
        action="store_true",
        help="print every check, not only failures",
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
