"""Command-line interface: drive the framework like the paper's scripts.

::

    python -m repro describe   --level l2 --vms 2
    python -m repro plan       --level l2 --vms 4 --dpdk --mode isolated
    python -m repro throughput --level l1 --scenario p2v
    python -m repro latency    --level baseline --scenario p2v
    python -m repro audit      --level l2 --vms 4
    python -m repro survey
    python -m repro experiments --only fig5-throughput-shared
    python -m repro sweep      --levels baseline l1 l2 --tenants 2 4 \
                               --jobs 4 --out sweep.jsonl

Every subcommand builds the requested deployment from scratch (the
simulated testbed is cheap), so commands compose without shared state.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.deployment import build_deployment, plan_deployment
from repro.core.levels import ResourceMode, SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.units import MPPS, USEC

_LEVELS = {
    "baseline": SecurityLevel.BASELINE,
    "l1": SecurityLevel.LEVEL_1,
    "l2": SecurityLevel.LEVEL_2,
}


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="SPEC.json",
                        help="load the deployment spec from a JSON file "
                             "(overrides the other spec flags)")
    parser.add_argument("--level", choices=sorted(_LEVELS), default="l1",
                        help="security level (default: l1)")
    parser.add_argument("--vms", type=int, default=None,
                        help="vswitch VMs for Level-2 (default: 2)")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--mode", choices=["shared", "isolated"],
                        default="shared")
    parser.add_argument("--dpdk", action="store_true",
                        help="Level-3 user-space datapath (isolated only)")
    parser.add_argument("--baseline-cores", type=int, default=1)
    parser.add_argument("--ports", type=int, default=2, choices=[1, 2])
    parser.add_argument("--scenario", choices=["p2p", "p2v", "v2v"],
                        default="p2v")


def _spec_from(args: argparse.Namespace) -> DeploymentSpec:
    if getattr(args, "config", None):
        import json
        with open(args.config) as handle:
            return DeploymentSpec.from_dict(json.load(handle))
    level = _LEVELS[args.level]
    vms = args.vms
    if vms is None:
        vms = 2 if level is SecurityLevel.LEVEL_2 else 1
    return DeploymentSpec(
        level=level,
        num_tenants=args.tenants,
        num_vswitch_vms=vms,
        resource_mode=(ResourceMode.ISOLATED if args.mode == "isolated"
                       or args.dpdk else ResourceMode.SHARED),
        user_space=args.dpdk,
        baseline_cores=args.baseline_cores,
        nic_ports=args.ports,
    )


def _scenario_from(args: argparse.Namespace) -> TrafficScenario:
    return TrafficScenario(args.scenario)


def cmd_describe(args: argparse.Namespace) -> int:
    deployment = build_deployment(_spec_from(args), _scenario_from(args))
    print(deployment.describe())
    print()
    print(deployment.resource_report().row())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_deployment(_spec_from(args), _scenario_from(args))
    print(plan.dump())
    print(f"\n{len(plan)} primitive operations ({plan.summary()})")
    return 0


def cmd_throughput(args: argparse.Namespace) -> int:
    from repro.perfmodel.paths import throughput
    scenario = _scenario_from(args)
    deployment = build_deployment(_spec_from(args), scenario)
    result = throughput(deployment, scenario,
                        frame_bytes=args.frame_bytes)
    print(f"{deployment.spec.label} {scenario.value} "
          f"({args.frame_bytes} B frames)")
    for flow, rate in sorted(result.rates_pps.items()):
        print(f"  {flow}: {rate / MPPS:.3f} Mpps "
              f"(bottleneck: {result.bottleneck_of[flow]})")
    print(f"aggregate: {result.aggregate_pps / MPPS:.3f} Mpps")
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    from repro.traffic.harness import TestbedHarness
    scenario = _scenario_from(args)
    deployment = build_deployment(_spec_from(args), scenario,
                                  seed=args.seed)
    with TestbedHarness(deployment) as harness:
        harness.configure_tenant_flows(
            rate_per_flow_pps=args.rate_pps / args.tenants,
            frame_bytes=args.frame_bytes)
        result = harness.run(duration=args.duration,
                             warmup=args.duration / 5)
    stats = result.latency_stats()
    print(f"{deployment.spec.label} {scenario.value} @ {args.rate_pps:.0f} pps, "
          f"{args.frame_bytes} B ({stats.count} samples)")
    print(f"  median {stats.median / USEC:.1f} us   "
          f"p25/p75 {stats.p25 / USEC:.1f}/{stats.p75 / USEC:.1f} us   "
          f"p99 {stats.p99 / USEC:.1f} us")
    print(f"  delivered {result.delivered}/{result.sent} "
          f"(loss {result.loss_fraction:.2%})")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.verification import audit_deployment
    from repro.security import assess_compromise, score_principles, tcb_report
    deployment = build_deployment(_spec_from(args), _scenario_from(args))
    print(score_principles(deployment).row())
    print(tcb_report(deployment).row())
    assessment = assess_compromise(deployment)
    print(f"exploits to host: {assessment.exploits_to_host}; "
          f"vswitch blast radius: {assessment.vswitch_blast_radius}; "
          f"extra-layer rule: "
          f"{'met' if assessment.meets_extra_layer_rule else 'NOT met'}")
    report = audit_deployment(deployment)
    print(report.render())
    return 0 if report.ok else 2


def cmd_survey(args: argparse.Namespace) -> int:
    from repro.security.survey import render_table, survey_statistics
    print(render_table())
    stats = survey_statistics()
    print(f"\nmonolithic: {stats['monolithic_fraction']:.0%}  "
          f"co-located: {stats['colocated_fraction']:.0%}  "
          f"kernel-involved: {stats['kernel_involved_fraction']:.0%}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.experiments.runner import experiment_plan, extension_plan
    plan = experiment_plan(quick=not args.full, seed=args.seed)
    if args.extensions:
        plan.extend(extension_plan(quick=not args.full, seed=args.seed))
    available = [key for key, _ in plan]
    if args.only:
        plan = [(k, t) for k, t in plan if args.only in k]
        if not plan:
            print(f"no experiment matches {args.only!r}; available:",
                  ", ".join(sorted(available)), file=sys.stderr)
            return 1
    for key, thunk in sorted(plan):
        before = obs.REGISTRY.snapshot()
        print(thunk().render())
        # The harnesses inside the thunk harvested their cache counters
        # into the registry; the delta is this experiment's share.
        line = obs.cache_efficacy_line(obs.REGISTRY, before)
        if line:
            print(line)
        print()
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run one traced deployment and print/export its telemetry."""
    from repro import obs
    from repro.obs.export import (
        drop_report,
        journey_report,
        tenant_hop_table,
        tenant_latency_table,
        write_prometheus,
        write_spans_jsonl,
    )
    from repro.traffic.harness import TestbedHarness
    scenario = _scenario_from(args)
    deployment = build_deployment(_spec_from(args), scenario,
                                  seed=args.seed)
    tracer = obs.enable_tracing(deployment.sim, capacity=args.span_capacity)
    try:
        harness = TestbedHarness(deployment)
        harness.configure_tenant_flows(
            rate_per_flow_pps=args.rate_pps / args.tenants,
            frame_bytes=args.frame_bytes)
        result = harness.run(duration=args.duration,
                             warmup=args.duration / 5)
        print(f"{deployment.spec.label} {scenario.value} @ "
              f"{args.rate_pps:.0f} pps for {args.duration} s: "
              f"delivered {result.delivered}/{result.sent}, "
              f"{len(tracer.spans)} spans over "
              f"{len(tracer.trace_ids())} traces")
        print()
        print(tenant_latency_table(tracer).render())
        print()
        print(tenant_hop_table(tracer).render())
        drops = drop_report(tracer)
        if drops:
            print()
            print("drops:")
            for line in drops:
                print(f"  {line}")
        line = obs.cache_efficacy_line(obs.REGISTRY)
        if line:
            print()
            print(line)
        for trace_id in tracer.trace_ids()[:args.journeys]:
            print()
            print(journey_report(tracer.journey(trace_id)))
        if args.trace_out:
            count = write_spans_jsonl(tracer, args.trace_out)
            print(f"\nwrote {count} spans to {args.trace_out}")
        if args.metrics_out:
            # Merge the deployment gauges into the run's global registry
            # so the snapshot also carries histogram buckets and pool
            # gauges collected during the run, not just point-in-time
            # deployment state.
            registry = obs.deployment_metrics(deployment,
                                              registry=obs.REGISTRY)
            write_prometheus(registry, args.metrics_out)
            print(f"wrote metrics snapshot to {args.metrics_out}")
    finally:
        obs.disable_tracing()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Cartesian sweep over deployment axes through the scenario engine."""
    from repro import obs
    from repro.scenario import (
        Engine,
        NullStore,
        ProcessPoolBackend,
        ResultStore,
        SequentialBackend,
        SweepGrid,
        build_grid,
        sweep_table,
        write_jsonl,
    )
    from repro.scenario.engine import worker_busy_line
    faults = None
    if args.faults:
        import json
        from repro.faults.plan import FaultPlan
        with open(args.faults) as handle:
            faults = FaultPlan.from_dict(json.load(handle))
    grid = SweepGrid(
        workload=args.workload,
        levels=tuple(args.levels),
        compartments=tuple(args.vms),
        tenants=tuple(args.tenants),
        datapaths=tuple(args.datapaths),
        modes=tuple(args.modes),
        traffic=tuple(args.traffic),
        duration=args.duration,
        frame_bytes=args.frame_bytes,
        rate_pps=args.rate_pps,
        seed=args.seed,
        faults=faults,
        servers=tuple(args.servers),
        placements=tuple(args.placements),
    )
    specs, skipped = build_grid(grid)
    for point in skipped:
        print(f"[skip] {point.point_id}: {point.reason}", file=sys.stderr)
    if not specs:
        print("sweep is empty: every grid point was skipped",
              file=sys.stderr)
        return 1
    backend = (SequentialBackend() if args.jobs == 1
               else ProcessPoolBackend(max_workers=args.jobs,
                                       timeout=args.timeout,
                                       chunk=args.chunk))
    store = NullStore() if args.no_cache else ResultStore(args.cache_dir)
    engine = Engine(backend=backend, store=store)
    try:
        results = engine.run(specs)
    finally:
        if hasattr(backend, "close"):
            backend.close()
    print(sweep_table(grid, specs, results).render())
    computed = sum(1 for r in results if not r.cached)
    cached = len(results) - computed
    line = f"{len(results)} points: {computed} computed, {cached} cached"
    if not args.no_cache:
        line += f" (store: {store.root}, {len(store)} entries)"
    print(line)
    efficacy = obs.cache_efficacy_line(obs.REGISTRY)
    if efficacy:
        print(efficacy)
    if isinstance(backend, ProcessPoolBackend) and computed > 1:
        # Two or more computed points ran on the pool, not in-process
        # (see ProcessPoolBackend.run): the gauges are this sweep's.
        busy = worker_busy_line(obs.REGISTRY)
        if busy:
            print(busy)
    if args.out:
        with open(args.out, "w") as handle:
            count = write_jsonl(handle, specs, results)
        print(f"wrote {count} points to {args.out}")
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    """Place a tenant mix on a fabric and run the hybrid simulation."""
    import time
    from repro import obs
    from repro.errors import ValidationError
    from repro.fabric import (FabricDeployment, FabricTopology, POLICIES,
                              place, placement_cost)
    from repro.fabric.workload import (pick_probe_flows, pick_study_flows,
                                       synth_reqs)
    from repro.measure.reporting import Series, Table
    from repro.units import GBPS

    level = _LEVELS[args.level]
    vms = args.vms if args.vms is not None else (
        2 if level is SecurityLevel.LEVEL_2 else 1)
    spec = DeploymentSpec(level=level, num_tenants=max(4, 2 * vms),
                          num_vswitch_vms=vms, nic_ports=1)
    topology = FabricTopology(
        num_servers=args.servers,
        servers_per_rack=args.servers_per_rack,
        server_link_bps=args.link_gbps * GBPS,
        tor_uplink_bps=args.tor_uplink_gbps * GBPS)
    reqs = synth_reqs(args.tenants, args.seed,
                      demand_pps=args.demand_pps,
                      frame_bytes=args.frame_bytes,
                      zone_size=args.zone_size)
    if args.study_mode == "probes":
        flows = pick_probe_flows(reqs, args.study_flows, args.demand_pps)
    else:
        flows = pick_study_flows(reqs, args.study_flows)

    compartments = max(1, spec.num_compartments)
    table = Table(title=f"placement of {args.tenants} tenants on "
                        f"{args.servers} servers "
                        f"({topology.num_racks} racks)",
                  fmt=lambda v: f"{v:.4g}")
    for policy in sorted(POLICIES):
        try:
            candidate = place(
                reqs, topology, policy=policy,
                compartments_per_server=compartments,
                tenants_per_compartment=args.tenants_per_compartment)
        except ValidationError as exc:
            print(f"[skip] {policy}: {exc}", file=sys.stderr)
            continue
        cost = placement_cost(reqs, candidate, topology)
        series = Series(label=policy + (" *" if policy == args.placement
                                        else ""))
        series.add("hop_cost", cost.hop_cost)
        series.add("inter_server_pps", cost.inter_server_pps)
        series.add("max_link_util", cost.max_link_utilization)
        series.add("servers_used", len(candidate.servers_used()))
        table.add_series(series)
    print(table.render())

    deployment = FabricDeployment(
        spec, topology, reqs, flows, placement=args.placement,
        tenants_per_compartment=args.tenants_per_compartment,
        seed=args.seed)
    warmup = args.duration / 4.0
    start = time.perf_counter()
    hybrid = deployment.run_hybrid(duration=args.duration, warmup=warmup)
    hybrid_wall = time.perf_counter() - start
    fabric_delta = obs.harvest_fabric(deployment.last_cloud.switches,
                                      obs.REGISTRY)

    flow_table = Table(title=f"{len(flows)} flows under study "
                             f"({args.study_mode}; hybrid DES over "
                             f"{hybrid.des_servers} of {args.servers} "
                             f"servers)",
                       fmt=lambda v: f"{v:.4g}")
    for flow in flows:
        series = Series(label=flow.name)
        series.add("offered_pps", flow.rate_pps)
        series.add("delivered_pps", hybrid.delivered_pps[flow.name])
        series.add("fluid_pps", hybrid.predicted_pps.get(flow.name, 0.0))
        flow_table.add_series(series)
    print()
    print(flow_table.render())

    print()
    print("hottest pools (background + study, fluid):")
    for name, utilization in hybrid.bottlenecks(top=5):
        print(f"  {name}: {utilization:.1%}")
    print(f"fluid vs DES on study aggregate: "
          f"{hybrid.fluid_vs_des_error:.2%} "
          f"({hybrid.des_events} DES events, {hybrid_wall:.2f} s wall)")
    forwarded = fabric_delta.get("forwarded", 0.0)
    floods = fabric_delta.get("floods", 0.0)
    if forwarded or floods:
        print(f"fabric: {forwarded:.0f} forwarded, {floods:.0f} flooded")

    error = hybrid.fluid_vs_des_error
    if args.validate:
        start = time.perf_counter()
        pure = deployment.run_pure_des(duration=args.duration,
                                       warmup=warmup)
        pure_wall = time.perf_counter() - start
        aggregate = pure.aggregate_delivered_pps
        error = (abs(hybrid.aggregate_delivered_pps - aggregate)
                 / aggregate if aggregate else 0.0)
        speedup = pure_wall / max(hybrid_wall, 1e-9)
        print(f"pure DES oracle: {aggregate:.0f} pps aggregate, "
              f"{pure.des_events} events, {pure_wall:.2f} s wall")
        print(f"hybrid vs pure DES: {error:.2%} on aggregate study pps, "
              f"{speedup:.1f}x wall-clock speedup")
    if args.check and error > args.tolerance:
        print(f"fabric check FAILED: {error:.2%} disagreement exceeds "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault campaign across security levels: blast radius, MTTR."""
    import json
    from repro.faults.campaign import scenarios, tabulate
    from repro.faults.plan import FaultPlan, scripted_crash
    from repro.scenario import (
        Engine,
        NullStore,
        ProcessPoolBackend,
        ResultStore,
        SequentialBackend,
    )
    if args.plan:
        with open(args.plan) as handle:
            plan = FaultPlan.from_dict(json.load(handle))
    else:
        plan = scripted_crash(compartment=args.crash_index,
                              at=args.duration / 3.0,
                              heartbeat=args.heartbeat,
                              warm_standby=args.warm_standby)
    specs = scenarios(duration=args.duration, seed=args.seed, plan=plan)
    backend = (SequentialBackend() if args.jobs in (None, 1)
               else ProcessPoolBackend(max_workers=args.jobs,
                                       chunk=args.chunk))
    store = NullStore() if args.no_cache else ResultStore(args.cache_dir)
    try:
        results = Engine(backend=backend, store=store).run(specs)
    finally:
        if hasattr(backend, "close"):
            backend.close()
    print(tabulate(results).render())
    repaired = sum(r.values.get("repaired", 0) for r in results)
    violations = sum(r.values.get("violations", 0) for r in results)
    cached = sum(1 for r in results if r.cached)
    print(f"{len(results)} campaigns ({cached} cached): "
          f"{repaired:.0f} repairs, {violations:.0f} invariant violations")
    if args.events_out:
        from repro.obs.journal import write_jsonl
        count = write_jsonl(({"label": spec.display_label, **event}
                             for spec, result in zip(specs, results)
                             for event in result.events), args.events_out)
        print(f"wrote {count} events to {args.events_out}")
    if args.check and (repaired == 0 or violations > 0):
        print(f"chaos check FAILED: {repaired:.0f} repairs, "
              f"{violations:.0f} violations", file=sys.stderr)
        return 2
    return 0


def cmd_billing(args: argparse.Namespace) -> int:
    """Meter the noisy-neighbor workload across Baseline/L1/L2/L3,
    price it, audit reconciliation, and show who pays for faults."""
    import json
    from repro.billing import report as billing_report
    from repro.billing.invoice import invoices_from_records
    from repro.billing.meter import UsageRecord
    from repro.core.spec import (
        DeploymentSpec,
        ResourceMode,
        SecurityLevel,
        TrafficScenario,
    )
    from repro.experiments.noisy_neighbor import WORKLOAD, configurations
    from repro.faults.plan import scripted_crash
    from repro.obs.export import write_invoices_jsonl, write_usage_jsonl
    from repro.scenario import (
        Engine,
        NullStore,
        ProcessPoolBackend,
        ResultStore,
        ScenarioSpec,
        SequentialBackend,
    )

    deployments = configurations()
    # L3: per-tenant compartments on dedicated cores with a user-space
    # (DPDK) datapath -- the paper's strongest isolation point.
    deployments.append(DeploymentSpec(
        level=SecurityLevel.LEVEL_2, num_vswitch_vms=4,
        resource_mode=ResourceMode.ISOLATED, user_space=True))
    warmup = min(0.02, args.duration / 2.0)
    metering = (("metering", True), ("metering_interval", args.interval))

    def make_specs(faults=None):
        return [
            ScenarioSpec(workload=WORKLOAD, deployment=d,
                         traffic=TrafficScenario.P2V,
                         duration=args.duration, warmup=warmup,
                         seed=args.seed, label=d.label, params=metering,
                         faults=faults)
            for d in deployments
        ]

    clean_specs = make_specs()
    # The chaos composition: crash compartment 0 mid-run and see whose
    # bill the recovery lands on.
    chaos_specs = make_specs(faults=scripted_crash(
        compartment=0, at=args.duration / 3.0))
    # The churn composition: the resident control plane's migration and
    # autoscale re-sync work, billed as recovery line items.
    from repro.controlplane.workload import default_plan, scenario
    churn_spec = scenario(default_plan(duration=30.0), seed=args.seed,
                          label="churn", metering=True)

    backend = (SequentialBackend() if args.jobs in (None, 1)
               else ProcessPoolBackend(max_workers=args.jobs,
                                       chunk=args.chunk))
    store = NullStore() if args.no_cache else ResultStore(args.cache_dir)
    try:
        engine = Engine(backend=backend, store=store)
        clean_results = engine.run(clean_specs)
        chaos_results = engine.run(chaos_specs)
        churn_results = engine.run([churn_spec])
    finally:
        if hasattr(backend, "close"):
            backend.close()

    def split(result):
        records = [UsageRecord.from_dict(u) for u in result.usage
                   if u.get("kind") == "usage"]
        summaries = [u for u in result.usage if u.get("kind") == "summary"]
        return records, (summaries[0] if summaries else {})

    invoices_by_label = {}
    scores = {}
    failures = []
    all_records = []
    all_invoices = []
    for spec, result in zip(clean_specs, clean_results):
        records, summary = split(result)
        invoices = invoices_from_records(records)
        invoices_by_label[result.label] = invoices
        scores[result.label] = summary.get("misattribution_score", 0.0)
        if not summary.get("reconciled", False):
            failures.append((result.label, summary.get("failures", ["no summary"])))
        for rec in records:
            all_records.append({"label": result.label, **rec.to_dict()})
        for inv in invoices:
            all_invoices.append({"label": result.label, **inv.to_dict()})

    print(billing_report.cost_table(invoices_by_label).render())
    print()
    print(billing_report.misattribution_table(scores).render())

    payers_by_label = {}
    for spec, result in zip(chaos_specs, chaos_results):
        records, summary = split(result)
        payers_by_label[result.label] = summary.get("fault_payers", {})
        scores[f"{result.label}+fault"] = summary.get(
            "misattribution_score", 0.0)
        if not summary.get("reconciled", False):
            failures.append((f"{result.label}+fault",
                             summary.get("failures", ["no summary"])))
        for inv in invoices_from_records(records):
            all_invoices.append({"label": f"{result.label}+fault",
                                 **inv.to_dict()})
        for rec in records:
            all_records.append({"label": f"{result.label}+fault",
                                **rec.to_dict()})
    print()
    print(billing_report.fault_payer_table(
        payers_by_label,
        title="Who pays for the compartment-0 crash? (resync seconds "
              "charged per tenant)").render())

    churn_payers = {}
    for result in churn_results:
        records, summary = split(result)
        churn_payers[result.label] = summary.get("fault_payers", {})
        if not summary.get("reconciled", False):
            failures.append((result.label,
                             summary.get("failures", ["no summary"])))
        for rec in records:
            all_records.append({"label": result.label, **rec.to_dict()})
        for inv in invoices_from_records(records):
            all_invoices.append({"label": result.label, **inv.to_dict()})
    print()
    print(billing_report.fault_payer_table(
        churn_payers,
        title="Who pays for control-plane churn? (migration + autoscale "
              "re-sync seconds charged per tenant)").render())

    all_results = clean_results + chaos_results + churn_results
    cached = sum(1 for r in all_results if r.cached)
    reconciled = len(all_results) - len(failures)
    print(f"\n{len(all_results)} metered runs "
          f"({cached} cached): {reconciled} reconciled with accounting, "
          f"{len(failures)} failed")
    for label, errs in failures:
        print(f"  {label}: {'; '.join(str(e) for e in errs[:3])}",
              file=sys.stderr)

    if args.usage_out:
        count = write_usage_jsonl(all_records, args.usage_out)
        print(f"wrote {count} usage records to {args.usage_out}")
    if args.invoices_out:
        count = write_invoices_jsonl(all_invoices, args.invoices_out)
        print(f"wrote {count} invoices to {args.invoices_out}")

    if args.check and failures:
        print(f"billing check FAILED: {len(failures)} runs did not "
              f"reconcile with core/accounting", file=sys.stderr)
        return 2
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident control plane through a churn campaign and
    report lifecycle, SLO and autoscaler tables."""
    import json
    from repro.controlplane.plan import ChurnPlan
    from repro.controlplane.workload import default_plan, scenario
    from repro.measure.reporting import Series, Table
    from repro.scenario import (
        Engine,
        NullStore,
        ProcessPoolBackend,
        ResultStore,
        SequentialBackend,
    )

    if args.plan:
        with open(args.plan) as handle:
            plan = ChurnPlan.from_dict(json.load(handle))
    else:
        plan = default_plan(duration=args.duration,
                            arrival_rate=args.arrival_rate,
                            crashes=args.crashes,
                            mean_lifetime=args.mean_lifetime,
                            seedable_repair=args.repair_after)
    spec = scenario(plan, seed=args.seed, label="churn")
    backend = (SequentialBackend() if args.jobs in (None, 1)
               else ProcessPoolBackend(max_workers=args.jobs,
                                       chunk=args.chunk))
    store = NullStore() if args.no_cache else ResultStore(args.cache_dir)
    try:
        results = Engine(backend=backend, store=store).run([spec])
    finally:
        if hasattr(backend, "close"):
            backend.close()
    result = results[0]
    v = result.values

    lifecycle = Table(
        title=f"Tenant lifecycle over {plan.duration:.0f}s of churn "
              f"({'cached' if result.cached else 'fresh'})",
        fmt=lambda x: f"{x:.0f}")
    series = Series(label="tenants")
    for key in ("arrivals", "placements", "departures", "rejections",
                "evictions", "live_final", "active_final"):
        series.add(key.replace("_final", ""), v.get(key, 0.0))
    lifecycle.add_series(series)
    print(lifecycle.render())

    slo = Table(title="Control-plane SLOs", fmt=lambda x: f"{x:.4g}")
    series = Series(label="slo")
    series.add("admit_s", v.get("admission_latency_mean", 0.0))
    series.add("detect_s", v.get("detect_latency_mean", 0.0))
    series.add("downtime_s", v.get("migration_downtime_mean", 0.0))
    series.add("avail", v.get("availability", 0.0))
    series.add("resumed", v.get("migration_resumed_fraction", 0.0))
    slo.add_series(series)
    print()
    print(slo.render())

    healing = Table(title="Self-healing and autoscaling",
                    fmt=lambda x: f"{x:.0f}")
    series = Series(label="pool")
    for key, col in (("crashes", "crashes"), ("detections", "detected"),
                     ("repairs", "repaired"),
                     ("migrations_started", "migr"),
                     ("migrations_completed", "migr_ok"),
                     ("scale_ups", "up"), ("scale_downs", "down"),
                     ("breaker_trips", "breaker"),
                     ("pool_final", "pool"),
                     ("violations", "viol")):
        series.add(col, v.get(key, 0.0))
    healing.add_series(series)
    print()
    print(healing.render())
    print(f"\nrecovery work billed: "
          f"{v.get('recovery_seconds_total', 0.0) * 1e3:.2f} ms across "
          f"{v.get('migrations_completed', 0.0):.0f} migrations "
          f"and {v.get('scale_ups', 0.0):.0f} boots")

    if args.events_out:
        from repro.obs.journal import write_jsonl
        count = write_jsonl(result.events, args.events_out)
        print(f"wrote {count} events to {args.events_out}")

    if args.check:
        problems = []
        if v.get("violations", 0.0) > 0:
            problems.append(f"{v['violations']:.0f} invariant violations")
        if v.get("migration_resumed_fraction", 1.0) < 1.0:
            problems.append("migrated tenants did not all resume")
        if plan.crashes and v.get("migrations_completed", 0.0) <= 0:
            problems.append("crashes injected but nothing migrated")
        if problems:
            print("serve check FAILED: " + "; ".join(problems),
                  file=sys.stderr)
            return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MTS reproduction: build deployments, measure, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in [
        ("describe", cmd_describe, False),
        ("plan", cmd_plan, False),
        ("throughput", cmd_throughput, True),
        ("latency", cmd_latency, True),
        ("audit", cmd_audit, False),
    ]:
        p = sub.add_parser(name)
        _add_spec_args(p)
        if extra:
            p.add_argument("--frame-bytes", type=int, default=64)
        if name == "latency":
            p.add_argument("--rate-pps", type=float, default=10_000)
            p.add_argument("--duration", type=float, default=0.2)
            p.add_argument("--seed", type=int, default=0,
                           help="master seed for the DES run (default: 0)")
        p.set_defaults(func=fn)

    p = sub.add_parser("survey")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("experiments")
    p.add_argument("--only", help="substring filter on experiment ids")
    p.add_argument("--full", action="store_true",
                   help="longer DES windows (more latency samples)")
    p.add_argument("--extensions", action="store_true",
                   help="include the beyond-the-paper experiments")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for every experiment (default: 0)")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "sweep",
        help="cartesian sweep over deployment axes, cached and parallel")
    p.add_argument("--workload", default="fig5.latency",
                   help="workload name (default: fig5.latency); see "
                        "repro.scenario.WORKLOADS")
    p.add_argument("--levels", nargs="+", default=["baseline", "l1", "l2"],
                   choices=["baseline", "l1", "l2"])
    p.add_argument("--vms", nargs="+", type=int, default=[2],
                   help="Level-2 compartment counts (default: 2)")
    p.add_argument("--tenants", nargs="+", type=int, default=[4])
    p.add_argument("--datapaths", nargs="+", default=["kernel"],
                   choices=["kernel", "dpdk"])
    p.add_argument("--modes", nargs="+", default=["shared"],
                   choices=["shared", "isolated"])
    p.add_argument("--traffic", nargs="+", default=["p2v"],
                   choices=["p2p", "p2v", "v2v"])
    p.add_argument("--duration", type=float, default=0.1,
                   help="DES window per point, seconds (default: 0.1)")
    p.add_argument("--frame-bytes", type=int, default=64)
    p.add_argument("--rate-pps", type=float, default=10_000)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per *available* "
                        "core, respecting cgroup/affinity limits; "
                        "1 = in-process sequential)")
    p.add_argument("--chunk", type=int, default=None,
                   help="scenarios per worker batch (default: adaptive, "
                        "~4 batches per worker)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't write the result store")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result store directory (default: .repro-cache)")
    p.add_argument("--out", metavar="SWEEP.jsonl",
                   help="write one JSON line per point")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; per-point seeds fork off it")
    p.add_argument("--faults", metavar="PLAN.json",
                   help="fault campaign applied to every point")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-scenario wall-clock budget in pool workers")
    p.add_argument("--servers", nargs="+", type=int, default=[],
                   help="fabric fleet sizes to grid over "
                        "(fabric.* workloads)")
    p.add_argument("--placements", nargs="+", default=[],
                   choices=["striping", "greedy", "local"],
                   help="placement policies to grid over "
                        "(fabric.* workloads)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "fabric",
        help="place a tenant mix on a multi-rack fabric and run the "
             "hybrid DES+fluid simulation over the flows under study")
    p.add_argument("--servers", type=int, default=16)
    p.add_argument("--servers-per-rack", type=int, default=16)
    p.add_argument("--tenants", type=int, default=64,
                   help="total tenants across the fabric (default: 64)")
    p.add_argument("--level", choices=["l1", "l2"], default="l2")
    p.add_argument("--vms", type=int, default=None,
                   help="vswitch compartments per server (default: 2)")
    p.add_argument("--placement", default="greedy",
                   choices=["striping", "greedy", "local"])
    p.add_argument("--study-flows", type=int, default=2,
                   help="flows simulated per-packet (default: 2)")
    p.add_argument("--study-mode", choices=["pairs", "probes"],
                   default="probes",
                   help="study the heaviest tenant pairs, or cross-group "
                        "probe flows that exercise the fabric "
                        "(default: probes)")
    p.add_argument("--duration", type=float, default=0.2,
                   help="DES window, simulated seconds (default: 0.2)")
    p.add_argument("--frame-bytes", type=int, default=512)
    p.add_argument("--demand-pps", type=float, default=20_000,
                   help="base background demand per tenant group")
    p.add_argument("--zone-size", type=int, default=8,
                   help="tenants per security zone in the synthetic mix "
                        "(default: 8, the per-compartment cap)")
    p.add_argument("--link-gbps", type=float, default=10.0,
                   help="server access-link bandwidth (default: 10)")
    p.add_argument("--tor-uplink-gbps", type=float, default=40.0)
    p.add_argument("--tenants-per-compartment", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--validate", action="store_true",
                   help="also run the pure-DES oracle and report the "
                        "hybrid's disagreement and speedup")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero when the fluid/DES disagreement "
                        "exceeds --tolerance (CI smoke)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="allowed relative disagreement (default: 0.05)")
    p.set_defaults(func=cmd_fabric)

    p = sub.add_parser(
        "chaos",
        help="fault campaign across security levels: blast radius, MTTR")
    p.add_argument("--duration", type=float, default=0.15,
                   help="DES window per campaign, seconds (default: 0.15)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash-index", type=int, default=0,
                   help="compartment to crash (default plan; default: 0)")
    p.add_argument("--heartbeat", type=float, default=0.005,
                   help="watchdog probe period, seconds (default: 0.005)")
    p.add_argument("--warm-standby", action="store_true",
                   help="fail Level-2 compartments over to pre-synced "
                        "standbys instead of cold restarts")
    p.add_argument("--plan", metavar="PLAN.json",
                   help="full fault plan (overrides the default crash)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: in-process)")
    p.add_argument("--chunk", type=int, default=None,
                   help="campaigns per worker batch (default: adaptive)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't write the result store")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result store directory (default: .repro-cache)")
    p.add_argument("--events-out", metavar="EVENTS.jsonl",
                   help="write the inject/detect/recover event log")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless every campaign repaired "
                        "and no invariant was violated (CI smoke)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "billing",
        help="per-tenant metering, invoices, misattribution and "
             "fault-cost attribution across Baseline/L1/L2/L3")
    p.add_argument("--duration", type=float, default=0.06,
                   help="DES window per deployment, seconds "
                        "(default: 0.06; the 2 Mpps noisy-neighbor "
                        "flood is expensive to simulate)")
    p.add_argument("--interval", type=float, default=0.01,
                   help="accounting window length in simulated seconds "
                        "(default: 0.01)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: in-process)")
    p.add_argument("--chunk", type=int, default=None,
                   help="scenarios per worker batch (default: adaptive)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't write the result store")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result store directory (default: .repro-cache)")
    p.add_argument("--usage-out", metavar="USAGE.jsonl",
                   help="write every windowed usage record")
    p.add_argument("--invoices-out", metavar="INVOICES.jsonl",
                   help="write every per-tenant invoice")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless every metered run "
                        "reconciles with core/accounting (CI smoke)")
    p.set_defaults(func=cmd_billing)

    p = sub.add_parser(
        "serve",
        help="resident control plane: tenant churn with admission, "
             "autoscaling and self-healing live migration")
    p.add_argument("--duration", type=float, default=60.0,
                   help="churn horizon, simulated seconds (default: 60)")
    p.add_argument("--arrival-rate", type=float, default=2.0,
                   help="Poisson tenant arrivals per second (default: 2)")
    p.add_argument("--mean-lifetime", type=float, default=30.0,
                   help="mean tenant lifetime, seconds (default: 30)")
    p.add_argument("--crashes", type=int, default=3,
                   help="scripted compartment crashes spread across the "
                        "run (default: 3)")
    p.add_argument("--repair-after", type=float, default=10.0,
                   help="scripted repair delay per crash (default: 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan", metavar="CHURN.json",
                   help="full churn plan (overrides the flags above)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: in-process)")
    p.add_argument("--chunk", type=int, default=None)
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't write the result store")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result store directory (default: .repro-cache)")
    p.add_argument("--events-out", metavar="EVENTS.jsonl",
                   help="write the lifecycle event log")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero on any lifecycle-invariant "
                        "violation or unrecovered migration (CI smoke)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "obs", help="run one traced deployment and dump its telemetry")
    _add_spec_args(p)
    p.add_argument("--frame-bytes", type=int, default=64)
    p.add_argument("--rate-pps", type=float, default=10_000)
    p.add_argument("--duration", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for the DES run (default: 0)")
    p.add_argument("--journeys", type=int, default=1,
                   help="packet journeys to print (default: 1)")
    p.add_argument("--span-capacity", type=int, default=1_000_000)
    p.add_argument("--trace-out", metavar="SPANS.jsonl",
                   help="write all spans as JSON-lines")
    p.add_argument("--metrics-out", metavar="METRICS.prom",
                   help="write a Prometheus text snapshot")
    p.set_defaults(func=cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
