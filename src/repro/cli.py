"""Command-line interface of the reproduction.

``python -m repro <command>`` exposes the main entry points without writing
any Python:

``run``
    One streaming session through the :class:`repro.api.Session` facade:
    protocol x distribution x workload x network with incremental consistency
    checking (``--check-policy fail_fast`` aborts a violating run at the
    first proven violation).  ``--network faulty --net-param drop_rate=0.1``
    injects faults; ``--app bellman_ford`` runs a registered application
    instead of a scripted workload, its result validated against the
    centralised reference ground truth; ``--scenario file.json`` reads the
    whole run from a :class:`repro.spec.ScenarioSpec` file instead.
``apps``
    The application plugin registry: ``list`` shows the registered apps with
    their capability metadata (blocking-protocol support, variables-per-
    process footprint); ``run`` is a convenience spelling of
    ``repro run --app``.
``protocols``
    The protocol plugin registry (``list``): names, claimed criteria,
    replication mode and accepted options, including any third-party
    protocols registered via :func:`repro.spec.register_protocol`.
``reproduce``
    Evaluate the paper-claims ledger (:mod:`repro.analysis.figures`) stage by
    stage — definitions, theorems, Section 3.3, Section 6 — and print every
    claim with its measured value, its expected value or bound and its
    status; exits 1 on any ``FAIL`` (the stages after a failed one are
    reported ``skipped``).
``experiments``
    Scenario-suite orchestrator (``list`` / ``run`` / ``report``): expand the
    registered scenario grids, execute them through the simulator with
    content-hash result caching, and render the aggregated consistency +
    efficiency records (see EXPERIMENTS.md for the claim-to-scenario map).
``hunt``
    Adversarial scenario search (``run`` / ``shrink`` / ``promote`` /
    ``smoke``): sample random scenarios and fault schedules, classify every
    outcome against the protocol's declared guarantee envelope, shrink each
    finding to a minimal reproducer by delta debugging, and promote
    reproducers into the auto-grown ``hunted`` suite (see docs/API.md,
    "Hunting for violations").
``trace``
    Work with exported ``repro-trace-v1`` operation traces (``info`` /
    ``replay``): inspect a trace file, batch-check it with the offline
    oracle, and optionally re-check it through the bounded-memory windowed
    monitor (``--window N``) to compare verdicts and eviction metrics.
    Traces are produced by ``repro run --trace-out FILE``.
``serve``
    The online monitoring service (``run`` / ``smoke``): a long-running
    asyncio server that ingests operation streams over TCP (and tails trace
    files), multiplexes concurrent tenants — each with its own criterion,
    check policy and bounded eviction window — and reports per-tenant
    verdicts plus ingest-lag/backpressure metrics (see docs/API.md, "Online
    monitoring").
``place`` / ``arena`` / ``lint``
    The replica-placement optimizer (``optimize`` / ``report``), the columnar
    engine's sizing report (``info``) and the static analyzer.

Every leaf sub-parser names its handler with ``set_defaults(func=...)`` and
:func:`main` calls ``args.func(args)``; there is no dispatch table to keep in
step with the parser.  The commands that start a run (``run``, ``apps run``,
``arena info``) turn their flags, or their ``--scenario`` file, into one
:class:`repro.spec.ScenarioSpec` (:func:`_spec_from_flags`) and start it with
:meth:`repro.api.Session.from_spec`, so ``ScenarioSpec.validate`` alone judges
the run.  JSON files are read by :func:`_read_json` and written by
:func:`_write_json`: a file that cannot be read or written is an ``error:``
line and exit status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Sequence


def _parse_params(pairs: Optional[Sequence[str]], flag: str) -> dict:
    """Parse repeated ``key=value`` flags, decoding ints/floats/bools."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: {flag} wants key=value, got {pair!r}")
        value: object = raw
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
        params[key] = value
    return params


def _read_json(path: str, what: str, parse: Callable[[Any], Any] = lambda data: data) -> Any:
    """Parse a JSON input file through ``parse``; an unreadable or malformed
    one is a typed error naming the file."""
    from .exceptions import ScenarioSpecError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(json.load(handle))
    except (OSError, ValueError, TypeError) as exc:
        raise ScenarioSpecError(f"cannot read {what} file {path}: {exc}") from None


def _read_trace(path: str, read: Callable[[str], Any]) -> Any:
    """``read(path)`` of a ``repro-trace-v1`` file; an unreadable or malformed
    one is a typed error naming the file."""
    from .exceptions import ScenarioSpecError, TraceFormatError

    try:
        return read(path)
    except (OSError, TraceFormatError) as exc:
        raise ScenarioSpecError(f"cannot read trace file {path}: {exc}") from None


def _write_json(path: str, payload: Any, what: str) -> None:
    """Write a JSON output file (sorted keys, trailing newline); an
    unwritable path is a typed error naming the file."""
    from .exceptions import ReproError

    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise ReproError(f"cannot write {what} file {path}: {exc}") from None


def _load_scenario(path: str):
    """Read a :class:`repro.spec.ScenarioSpec` JSON file.

    A promoted hunt finding wraps its spec: it is unwrapped, so the committed
    reproducers replay directly (``repro run --scenario
    src/repro/experiments/hunted/<slug>.json``).
    """
    from .spec import ScenarioSpec

    data = _read_json(path, "scenario")
    if isinstance(data, dict) and "kind" in data and isinstance(data.get("spec"), dict):
        data = data["spec"]
    return ScenarioSpec.from_dict(data)


def _spec_from_flags(args: argparse.Namespace):
    """The one :class:`repro.spec.ScenarioSpec` a run command describes.

    ``--scenario FILE`` reads it whole (:func:`_load_scenario`); otherwise
    the flags build it.  A flag the command does not declare reads as ``None``
    (``apps run`` has no component flags, ``arena info`` no check flags).
    Either way only :meth:`~repro.spec.ScenarioSpec.validate` judges the
    spec, when ``Session.from_spec`` starts the run.
    """
    from .exceptions import ScenarioSpecError
    from .spec import (
        AppSpec,
        CheckSpec,
        DistributionSpec,
        NetworkSpec,
        ProtocolSpec,
        ScenarioSpec,
        WorkloadSpec,
    )

    flag = vars(args).get
    if flag("scenario"):
        if flag("app") or flag("app_param") or flag("max_steps") is not None:
            raise ScenarioSpecError(
                "--scenario is a complete run specification; pass the app "
                "inside the file, not as flags")
        return _load_scenario(args.scenario)
    app = distribution = workload = None
    if flag("app"):
        app = AppSpec(args.app, _parse_params(args.app_param, "--app-param"),
                      max_steps=args.max_steps)
    components = (flag("distribution") or "random", flag("dist_param"),
                  flag("workload") or "uniform", flag("workload_param"))
    # An app brings its own distribution: component flags that differ from
    # their defaults still join its spec, for ScenarioSpec.validate to refuse.
    if app is None or components != ("random", None, "uniform", None):
        family, dist_params, pattern, workload_params = components
        params = _parse_params(dist_params, "--dist-param")
        if family == "random" and not params:
            # the canonical Section 3.3 comparison distribution
            params = {"processes": 6, "variables": 8, "replicas_per_variable": 3}
        distribution = DistributionSpec(family, params)
        workload = WorkloadSpec(pattern, _parse_params(workload_params, "--workload-param"))
    network = NetworkSpec()
    exact = not flag("heuristic")
    if flag("network"):
        network = NetworkSpec(args.network, _parse_params(args.net_param, "--net-param"))
        if args.network != "reliable" and exact and not args.exact:
            # Fault-injected histories are full of stale reads, the regime
            # where the exact serialization search blows up; default to the
            # polynomial pre-check unless the user insists with --exact.
            exact = False
            print("note: fault injection active, using the polynomial "
                  "pre-check (pass --exact to force the exact search)",
                  file=sys.stderr)
    return ScenarioSpec(
        name="cli",
        protocol=ProtocolSpec(args.protocol),
        distribution=distribution,
        workload=workload,
        app=app,
        network=network,
        check=CheckSpec(enabled=not flag("no_check"),
                        criteria=tuple(flag("criterion") or ()),
                        policy=flag("check_policy"),
                        exact=exact),
        seed=args.seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import Session

    session = Session.from_spec(_spec_from_flags(args), trace_out=args.trace_out,
                                trace_scenario=args.scenario or "")
    report = session.run(until=args.until)
    print(report.summary())
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    if args.verbose and report.history is not None:
        print()
        print(report.history.describe())
    return 0 if report else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .analysis.figures import all_reproductions, reproduction_table

    results = all_reproductions()
    print(reproduction_table(results))
    failures = [r.claim.id for r in results if r.status == "FAIL"]
    if failures:
        skipped = sum(r.status == "skipped" for r in results)
        print(f"\nFAILED: {', '.join(failures)} ({skipped} later claims skipped)",
              file=sys.stderr)
        return 1
    print(f"\nAll {len(results)} claims pass.")
    return 0


def _experiments_specs(args: argparse.Namespace):
    """Resolve ``--scenario``/``--suite`` flags to a list of registered specs."""
    from .experiments import REGISTRY, ScenarioSpecError

    if getattr(args, "scenario", None):
        # dedupe while keeping order: a repeated flag must not double-count
        return [REGISTRY.get(name) for name in dict.fromkeys(args.scenario)]
    suite = getattr(args, "suite", "all")
    if suite != "all" and suite not in REGISTRY.suites():
        raise ScenarioSpecError(
            f"unknown suite {suite!r}; known: {REGISTRY.suites() + ['all']}"
        )
    return REGISTRY.specs(None if suite == "all" else suite)


def _cmd_experiments_list(args: argparse.Namespace) -> int:
    from .analysis.report import render_table

    specs = _experiments_specs(args)
    rows = [{"scenario": s.name,
             "suite": s.suite,
             "paper_ref": s.paper_ref,
             "protocols": ", ".join(s.protocols),
             "runs": len(s.expand()),
             "description": s.description}
            for s in specs]
    print(render_table(rows,
                       columns=["scenario", "suite", "paper_ref", "protocols", "runs"],
                       title="Registered scenarios"))
    if args.verbose:
        print()
        for spec in specs:
            print(f"{spec.name}: {spec.description}")
    return 0


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    from .analysis.report import render_records, render_table
    from .experiments import ResultCache, aggregate_records, run_suite

    specs = _experiments_specs(args)
    if not specs:
        print("no scenarios selected", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    result = run_suite(specs, cache=cache, workers=args.workers, progress=progress)
    if args.per_run:
        print(render_records(result.records, title="Per-run records"))
        print()
    print(render_table(aggregate_records(result.records),
                       title="Aggregated scenario records"))
    print(f"\n{len(result.records)} runs: {result.executed} executed, "
          f"{result.cached} cached, {result.elapsed_s:.2f}s total")
    if args.json:
        _write_json(args.json, [r.to_dict() for r in result.records], "record")
        print(f"records written to {args.json}")
    failures = result.failures
    if failures:
        labels = sorted({f"{r.scenario}:{r.protocol}:s{r.seed}" for r in failures})
        print(f"\nCONSISTENCY FAILURES: {', '.join(labels)}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiments_report(args: argparse.Namespace) -> int:
    from .analysis.report import render_records, render_table
    from .experiments import ScenarioRecord, aggregate_records

    records = _read_json(args.json, "record",
                         lambda data: [ScenarioRecord.from_dict(entry) for entry in data])
    if args.per_run:
        print(render_records(records, title="Per-run records"))
        print()
    print(render_table(aggregate_records(records),
                       title="Aggregated scenario records"))
    return 0


def _hunt_known_findings():
    """The committed reproducer corpus (path, finding) pairs."""
    from .experiments.hunted import HUNTED_DIR
    from .hunt import load_findings_dir

    return load_findings_dir(HUNTED_DIR)


def _cmd_hunt_run(args: argparse.Namespace) -> int:
    import os

    from .experiments.runner import worker_pool
    from .hunt import hunt, write_finding

    known = [] if args.skip_replay else [f for _, f in _hunt_known_findings()]
    progress = (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    with worker_pool(args.jobs) as pool:
        report = hunt(
            budget=args.budget,
            hunter_seed=args.seed,
            known=known,
            pool=pool,
            shrink=not args.no_shrink,
            shrink_budget=args.shrink_budget,
            progress=progress,
        )
    print("\n".join(report.summary_lines()))
    if args.out:
        for finding in report.findings:
            path = write_finding(finding,
                                 os.path.join(args.out, f"{finding.slug()}.json"))
            print(f"wrote {path}")
    if args.json:
        payload = {
            "hunter_seed": report.hunter_seed,
            "budget": report.budget,
            "executed": report.executed,
            "findings": [f.to_dict() for f in report.findings],
            "regressions": [f.to_dict() for f in report.regressions],
        }
        _write_json(args.json, payload, "hunt report")
        print(f"report written to {args.json}")
    if report.regressions:
        print(f"\nCORPUS REGRESSIONS: "
              f"{', '.join(f.slug() for f in report.regressions)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_hunt_shrink(args: argparse.Namespace) -> int:
    from .hunt import (
        Shrinker,
        execute_spec,
        load_finding,
        reproduces_predicate,
        write_finding,
    )

    finding = load_finding(args.file)
    predicate = reproduces_predicate(finding.kind, finding.crash_type)
    if not predicate(finding.spec):
        print(f"error: {args.file} does not reproduce its recorded "
              f"{finding.kind!r} outcome; nothing to shrink", file=sys.stderr)
        return 1
    result = Shrinker(predicate, max_runs=args.budget).shrink(finding.spec)
    print(result.summary())
    outcome = execute_spec(result.spec)
    finding.spec = result.spec
    finding.detail = outcome.detail or finding.detail
    finding.provenance.update({
        "shrink_runs": finding.provenance.get("shrink_runs", 0) + result.runs,
        "shrink_steps": finding.provenance.get("shrink_steps", 0) + result.accepted,
    })
    before, finding.operations = finding.operations, outcome.operations
    path = args.out or args.file
    write_finding(finding, path)
    print(f"wrote {path} (ops {before or '?'} -> {finding.operations})")
    return 0


def _cmd_hunt_promote(args: argparse.Namespace) -> int:
    import os

    from .experiments.hunted import HUNTED_DIR, experiment_from_finding
    from .hunt import PROMOTABLE_KINDS, load_finding, replay_finding, write_finding

    status = 0
    for file in args.file:
        finding = load_finding(file)
        if finding.kind not in PROMOTABLE_KINDS:
            print(f"refused {file}: kind {finding.kind!r} cannot ride the "
                  f"suite runner (promotable: {', '.join(PROMOTABLE_KINDS)})",
                  file=sys.stderr)
            status = 1
            continue
        still, seen = replay_finding(finding)
        if not still:
            print(f"refused {file}: expected {finding.kind!r} but the spec "
                  f"now classifies as {seen!r}", file=sys.stderr)
            status = 1
            continue
        stem = os.path.splitext(os.path.basename(file))[0]
        # lift into an experiment spec now so a malformed finding is
        # rejected at promotion, not at the next import of the suite
        experiment_from_finding(f"hunted-{stem}", finding)
        path = write_finding(finding, os.path.join(HUNTED_DIR, f"{stem}.json"))
        print(f"promoted {path} (runs in the 'hunted' suite as hunted-{stem})")
    return status


def _cmd_hunt_smoke(args: argparse.Namespace) -> int:
    from .experiments.runner import worker_pool
    from .hunt import hunt

    known = [f for _, f in _hunt_known_findings()]
    print(f"replaying {len(known)} committed finding(s) + fixed-seed hunt "
          f"(budget={args.budget}, seed={args.seed})")
    with worker_pool(args.jobs) as pool:
        report = hunt(budget=args.budget, hunter_seed=args.seed, known=known,
                      pool=pool, shrink=False)
    print("\n".join(report.summary_lines()))
    if report.regressions:
        print(f"\nCORPUS REGRESSIONS: "
              f"{', '.join(f.slug() for f in report.regressions)}",
              file=sys.stderr)
        return 1
    print("hunt smoke OK: every committed reproducer still reproduces")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .serve.trace import read_trace

    meta, records = _read_trace(args.file, read_trace)
    reads = sum(1 for r in records if r.is_read)
    print(f"trace               : {args.file}")
    print(f"scenario            : {meta.scenario or '-'}")
    print(f"protocol            : {meta.protocol or '-'}")
    print(f"seed                : {meta.seed if meta.seed is not None else '-'}")
    print(f"criteria            : {', '.join(meta.criteria) or '-'}")
    print(f"operations          : {len(records)} "
          f"({len(records) - reads} writes, {reads} reads)")
    processes = sorted({r.process for r in records})
    print(f"processes           : {len(processes)} {processes}")
    if meta.distribution:
        holders = ", ".join(f"{var}->{sorted(pids)}"
                            for var, pids in sorted(meta.distribution.items()))
        print(f"distribution        : {holders}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .serve.replay import replay_trace, replay_windowed

    report = _read_trace(args.file, lambda path: replay_trace(
        path, criteria=args.criterion or (), exact=not args.heuristic))
    print(report.summary())
    status = 0 if report.consistent else 1
    if args.window:
        criterion = report.criteria[0]
        result, metrics = replay_windowed(
            args.file, criterion=criterion, window=args.window,
            policy=args.policy,
        )
        print(f"windowed ({criterion}, window={args.window}): {result.summary()}")
        print(f"  retained {metrics.retained}/{metrics.ops_fed} ops "
              f"(peak {metrics.peak_retained}), evicted "
              f"{metrics.evicted_proved} proved + {metrics.evicted_forced} "
              f"forced, {metrics.standins} stand-ins")
        batch = report.results[criterion]
        if not result.consistent and batch.consistent:
            # the windowed relations are subsets of the batch relations, so
            # this direction of disagreement is a checker bug, not noise
            print("error: windowed monitor proved a violation the batch "
                  "oracle rejects", file=sys.stderr)
            return 2
        if not result.consistent:
            status = 1
    return status


def _cmd_serve_run(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.service import MonitorService
    from .serve.spec import ServeSpec, TenantSpec, TraceSpec

    if args.config:
        spec = _read_json(args.config, "serve config", ServeSpec.from_dict)
    else:
        tenants = []
        for entry in args.tenant or ():
            name, sep, path = entry.partition("=")
            if not sep or not name or not path:
                print(f"error: --tenant wants NAME=TRACEFILE, got {entry!r}",
                      file=sys.stderr)
                return 2
            tenants.append(TenantSpec(
                name=name, criterion=args.criterion,
                trace=TraceSpec(path, follow=args.follow),
            ))
        spec = ServeSpec(host=args.host, port=args.port, window=args.window,
                         status_interval=args.status_interval,
                         tenants=tuple(tenants))
    spec.validate()
    file_tenants = [t.name for t in spec.tenants if t.trace is not None]
    if args.oneshot and not file_tenants:
        print("error: --oneshot needs at least one file-backed tenant",
              file=sys.stderr)
        return 2

    async def _run() -> int:
        service = MonitorService(spec)
        port = await service.start()
        print(json.dumps({"type": "listening", "host": spec.host,
                          "port": port}, sort_keys=True), flush=True)
        try:
            if args.oneshot:
                while True:
                    live = [service.tenants.get(name) for name in file_tenants]
                    if all(t is not None and t.done.is_set() for t in live):
                        break
                    await asyncio.sleep(0.05)
            else:
                await asyncio.Event().wait()  # serve until interrupted
        finally:
            verdicts = await service.stop()
        return 0 if all(v["consistent"] for v in verdicts) else 1

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0


def _cmd_serve_smoke(args: argparse.Namespace) -> int:
    from .serve.smoke import run_smoke

    return run_smoke()


def _place_profile(args: argparse.Namespace):
    """Resolve the ``repro place`` input flags to an :class:`AccessProfile`."""
    from .exceptions import ScenarioSpecError
    from .place import AccessProfile, synthetic_profile

    if args.profile:
        return AccessProfile.from_dict(_read_json(args.profile, "profile"))
    if args.trace:
        return _read_trace(args.trace, AccessProfile.from_trace)
    if not args.processes or not args.variables:
        raise ScenarioSpecError(
            "repro place needs --profile, --trace, or a synthetic profile "
            "(--processes N --variables M)"
        )
    return synthetic_profile(
        args.processes,
        args.variables,
        accessors_per_variable=args.accessors,
        seed=args.profile_seed,
    )


def _cmd_place_optimize(args: argparse.Namespace) -> int:
    from .place import build_report, measure_overhead, optimize_placement

    profile = _place_profile(args)
    result = optimize_placement(
        profile,
        args.objective,
        mode=args.mode,
        seed=args.seed,
        budget=args.budget,
    )
    measured = None
    if args.measure:
        measured = measure_overhead(result.distribution, args.measure,
                                    seed=args.seed)
    report = build_report(result, profile, measured=measured)
    print(report.render())
    if args.out:
        _write_json(args.out, report.to_dict(), "placement report")
        print(f"report written to {args.out}")
    if measured is not None and measured.get("consistent") != 1.0:
        print(f"error: measured run on {args.measure!r} was not consistent",
              file=sys.stderr)
        return 1
    return 0


def _cmd_place_report(args: argparse.Namespace) -> int:
    from .place import PlacementReport, measure_overhead

    report = PlacementReport.from_dict(_read_json(args.file, "placement report"))
    if args.measure:
        report.measured = measure_overhead(report.distribution(), args.measure,
                                           seed=report.seed)
    print(report.render())
    if args.measure and report.measured.get("consistent") != 1.0:
        print(f"error: measured run on {args.measure!r} was not consistent",
              file=sys.stderr)
        return 1
    return 0


def _cmd_arena_info(args: argparse.Namespace) -> int:
    """``repro arena info``: record a run columnar and print the arena's
    sizes, causal generating edges and memory estimate (no checking)."""
    from .api import Session
    from .arena import arena_info, format_info

    spec = _spec_from_flags(args)
    spec.check.enabled = False
    session = Session.from_spec(spec)
    session.run()
    print(format_info(arena_info(session.recorder.arena)))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the determinism & plugin-contract static analyzer."""
    import os

    from .lint import all_rules, lint_paths
    from .lint.thirdparty import run_third_party

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}  [{rule.scope}]")
        return 0
    paths = list(args.paths or [])
    if not paths:
        paths = [p for p in ("src", "tests", "benchmarks") if os.path.isdir(p)]
    if not paths:
        print("repro lint: no lintable paths found", file=sys.stderr)
        return 2
    diagnostics = lint_paths(paths, select=args.select)
    for diagnostic in diagnostics:
        print(diagnostic.render())
    exit_code = 1 if diagnostics else 0
    summary = (f"repro lint: {len(diagnostics)} finding(s)"
               if diagnostics else "repro lint: clean")
    print(summary)
    if args.third_party:
        third_party_code, notes = run_third_party(paths)
        for note in notes:
            print(note)
        exit_code = max(exit_code, third_party_code)
    return exit_code


def _cmd_apps_list(args: argparse.Namespace) -> int:
    from .analysis.report import render_table
    from .spec import APP_REGISTRY

    rows = [{
        "app": component.name,
        "params": ", ".join(component.params) or "-",
        "blocking protocols": "ok" if component.metadata.get("blocking_ok")
        else "wait-free only",
        "variables/process": component.metadata.get("variables_per_process", "-"),
    } for component in APP_REGISTRY.components()]
    print(render_table(rows, title="Registered applications"))
    if args.verbose:
        print()
        for component in APP_REGISTRY.components():
            print(f"{component.name}: {component.metadata.get('description', '')}")
    return 0


def _cmd_protocols_list(args: argparse.Namespace) -> int:
    from . import spec
    from .analysis.report import render_table

    rows = [{
        "protocol": component.name,
        "criterion": component.metadata.get("criterion", ""),
        "replication": component.metadata.get("replication", ""),
        "options": ", ".join(component.params) or "-",
    } for component in spec.PROTOCOL_REGISTRY.components()]
    print(render_table(rows, title="Registered protocols"))
    if args.verbose:
        print()
        for component in spec.PROTOCOL_REGISTRY.components():
            description = component.metadata.get("description", "")
            print(f"{component.name}: {description}")
        print()
        for title, registry in (
            ("distribution families", spec.DISTRIBUTION_REGISTRY),
            ("workload patterns", spec.WORKLOAD_REGISTRY),
            ("topologies", spec.TOPOLOGY_REGISTRY),
            ("network models", spec.NETWORK_MODEL_REGISTRY),
        ):
            print(f"{title}: {', '.join(registry.names())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Hélary & Milani, 'About the efficiency of "
                    "partial replication to implement Distributed Shared Memory'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(target: argparse.ArgumentParser, *, scripted: bool,
                       session: bool) -> None:
        """Declare the flags :func:`_spec_from_flags` builds a ScenarioSpec
        from: ``scripted`` adds the distribution/workload flags and
        ``--scenario`` (``run``, ``arena info``), ``session`` the check,
        network and application flags of a checked run (``run``,
        ``apps run``)."""
        target.add_argument("--protocol", default="pram_partial",
                            help="protocol name (see 'repro protocols list')")
        target.add_argument("--seed", type=int, default=0)
        if scripted:
            target.add_argument("--distribution", default="random",
                                help="distribution family (full_replication, "
                                     "disjoint_blocks, chain, random, "
                                     "neighbourhood)")
            target.add_argument("--dist-param", action="append", default=None,
                                metavar="K=V",
                                help="distribution family parameter (repeatable)")
            target.add_argument("--workload", default="uniform",
                                help="workload pattern (uniform, single_writer)")
            target.add_argument("--workload-param", action="append", default=None,
                                metavar="K=V",
                                help="workload pattern parameter (repeatable)")
            target.add_argument("--scenario", default=None, metavar="FILE",
                                help="read the whole run from a ScenarioSpec "
                                     "JSON file instead of the flags")
        if not session:
            return
        target.add_argument("--criterion", action="append", default=None,
                            help="criterion to check incrementally (repeatable; "
                                 "default: the protocol's claimed criterion)")
        target.add_argument("--check-policy", default=None,
                            help="finalize | every_op | fail_fast | "
                                 "every:N[:fail_fast]")
        target.add_argument("--heuristic", action="store_true",
                            help="skip the exact serialization search at finalize")
        target.add_argument("--exact", action="store_true",
                            help="force the exact serialization search even under "
                                 "fault injection (can be very slow on "
                                 "stall-heavy histories)")
        target.add_argument("--no-check", action="store_true",
                            help="execute without consistency checking")
        target.add_argument("--verbose", action="store_true",
                            help="also print the recorded history")
        target.add_argument("--network", default=None,
                            help="network model name (reliable, faulty, or a "
                                 "plugin)")
        target.add_argument("--net-param", action="append", default=None,
                            metavar="K=V",
                            help="network model parameter (repeatable), e.g. "
                                 "drop_rate=0.1 latency=0.5")
        target.add_argument("--app-param", action="append", default=None,
                            metavar="K=V",
                            help="application parameter (repeatable), e.g. "
                                 "topology=ring nodes=8")
        target.add_argument("--max-steps", type=int, default=None,
                            help="per-program step budget for application "
                                 "runs (livelocks are diagnosed, not spun out)")
        target.add_argument("--trace-out", default=None, metavar="FILE",
                            help="export the run's delivery log as a "
                                 "repro-trace-v1 JSONL file (replayable with "
                                 "'repro trace replay' and 'repro serve')")

    run = sub.add_parser("run", help="one streaming session with incremental checking")
    add_spec_flags(run, scripted=True, session=True)
    run.add_argument("--until", type=int, default=None,
                     help="drive at most this many workload operations")
    run.add_argument("--app", default=None,
                     help="run a registered application instead of a scripted "
                          "workload (see 'repro apps list')")
    run.set_defaults(func=_cmd_run)

    apps = sub.add_parser("apps",
                          help="application plugin registry (list/run)")
    asub = apps.add_subparsers(dest="apps_command", required=True)
    apps_list = asub.add_parser("list", help="list the registered applications")
    apps_list.add_argument("--verbose", action="store_true",
                           help="also print app descriptions")
    apps_list.set_defaults(func=_cmd_apps_list)
    apps_run = asub.add_parser("run", help="run one registered application")
    apps_run.add_argument("--app", required=True,
                          help="registered application name")
    add_spec_flags(apps_run, scripted=False, session=True)
    # 'apps run' is 'run --app': one handler, without --until and --scenario
    apps_run.set_defaults(func=_cmd_run, until=None, scenario=None)

    reproduce = sub.add_parser(
        "reproduce", help="evaluate the ledger of paper claims, stage by stage")
    reproduce.set_defaults(func=_cmd_reproduce)

    protocols = sub.add_parser("protocols",
                               help="protocol plugin registry (list)")
    psub = protocols.add_subparsers(dest="proto_command", required=True)
    proto_list = psub.add_parser("list", help="list the registered protocols")
    proto_list.add_argument("--verbose", action="store_true",
                            help="also print descriptions and the other "
                                 "component registries")
    proto_list.set_defaults(func=_cmd_protocols_list)

    experiments = sub.add_parser("experiments",
                                 help="scenario-suite orchestrator (list/run/report)")
    esub = experiments.add_subparsers(dest="exp_command", required=True)

    exp_list = esub.add_parser("list", help="list the registered scenarios")
    exp_list.add_argument("--suite", default="all",
                          help="restrict to one suite (paper, stress, ...)")
    exp_list.add_argument("--verbose", action="store_true",
                          help="also print scenario descriptions")
    exp_list.set_defaults(func=_cmd_experiments_list)

    exp_run = esub.add_parser("run", help="run scenarios with result caching")
    exp_run.add_argument("--suite", default="all",
                         help="run one suite (paper, stress) or 'all'")
    exp_run.add_argument("--scenario", action="append", default=None,
                         help="run a named scenario (repeatable; overrides --suite)")
    exp_run.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: .repro-cache)")
    exp_run.add_argument("--no-cache", action="store_true",
                         help="ignore and do not update the result cache")
    exp_run.add_argument("--workers", type=int, default=0,
                         help="fan cache misses out over N processes")
    exp_run.add_argument("--json", default=None,
                         help="also write the per-run records to this JSON file")
    exp_run.add_argument("--per-run", action="store_true",
                         help="print the per-run records, not only the aggregate")
    exp_run.add_argument("--verbose", action="store_true",
                         help="print per-point progress to stderr")
    exp_run.set_defaults(func=_cmd_experiments_run)

    exp_report = esub.add_parser("report",
                                 help="re-render a JSON record file from a past run")
    exp_report.add_argument("--json", required=True,
                            help="record file written by 'experiments run --json'")
    exp_report.add_argument("--per-run", action="store_true",
                            help="print the per-run records, not only the aggregate")
    exp_report.set_defaults(func=_cmd_experiments_report)

    hunt = sub.add_parser(
        "hunt",
        help="adversarial scenario search with automatic shrinking "
             "(run/shrink/promote/smoke)")
    hsub = hunt.add_subparsers(dest="hunt_command", required=True)

    hunt_run = hsub.add_parser(
        "run", help="sample, execute and classify random scenarios; shrink "
                    "every finding to a minimal reproducer")
    hunt_run.add_argument("--budget", type=int, default=200,
                          help="number of trials to sample (default 200)")
    hunt_run.add_argument("--seed", type=int, default=0,
                          help="hunter seed; the same seed and budget "
                               "reproduce the same findings bit for bit")
    hunt_run.add_argument("--jobs", type=int, default=0,
                          help="fan trial execution out over N worker "
                               "processes (one shared pool for the whole "
                               "hunt; findings are identical at any value)")
    hunt_run.add_argument("--out", default=None, metavar="DIR",
                          help="write each finding as a reproducer JSON file "
                               "into this directory")
    hunt_run.add_argument("--json", default=None, metavar="FILE",
                          help="also write the full hunt report as JSON")
    hunt_run.add_argument("--shrink-budget", type=int, default=150,
                          help="max re-executions the shrinker may spend per "
                               "finding (default 150)")
    hunt_run.add_argument("--no-shrink", action="store_true",
                          help="keep findings at their originally sampled size")
    hunt_run.add_argument("--skip-replay", action="store_true",
                          help="do not re-validate the committed reproducer "
                               "corpus before searching")
    hunt_run.add_argument("--verbose", action="store_true",
                          help="print per-trial progress to stderr")
    hunt_run.set_defaults(func=_cmd_hunt_run)

    hunt_shrink = hsub.add_parser(
        "shrink", help="re-shrink one reproducer file in place")
    hunt_shrink.add_argument("file", help="finding JSON written by 'hunt run --out'")
    hunt_shrink.add_argument("--budget", type=int, default=150,
                             help="max re-executions to spend (default 150)")
    hunt_shrink.add_argument("--out", default=None,
                             help="write the shrunk finding here instead of "
                                  "overwriting the input")
    hunt_shrink.set_defaults(func=_cmd_hunt_shrink)

    hunt_promote = hsub.add_parser(
        "promote", help="re-validate findings and commit them into the "
                        "'hunted' experiment suite")
    hunt_promote.add_argument("file", nargs="+",
                              help="finding JSON file(s) to promote")
    hunt_promote.set_defaults(func=_cmd_hunt_promote)

    hunt_smoke = hsub.add_parser(
        "smoke", help="replay every committed reproducer plus a small "
                      "fixed-seed hunt (the CI gate)")
    hunt_smoke.add_argument("--budget", type=int, default=25,
                            help="trials for the fresh-search half (default 25)")
    hunt_smoke.add_argument("--seed", type=int, default=0)
    hunt_smoke.add_argument("--jobs", type=int, default=0,
                            help="worker processes for trial execution")
    hunt_smoke.set_defaults(func=_cmd_hunt_smoke)

    trace = sub.add_parser(
        "trace",
        help="inspect and re-check exported operation traces (info/replay)")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    trace_info = tsub.add_parser("info", help="print a trace file's metadata")
    trace_info.add_argument("file", help="repro-trace-v1 JSONL file")
    trace_info.set_defaults(func=_cmd_trace_info)

    trace_replay = tsub.add_parser(
        "replay", help="batch-check a trace with the offline oracle")
    trace_replay.add_argument("file", help="repro-trace-v1 JSONL file")
    trace_replay.add_argument("--criterion", action="append", default=None,
                              help="criterion to check (repeatable; default: "
                                   "the criteria recorded in the trace)")
    trace_replay.add_argument("--heuristic", action="store_true",
                              help="skip the exact serialization search")
    trace_replay.add_argument("--window", type=int, default=None,
                              help="also run the bounded-memory windowed "
                                   "monitor with this eviction window and "
                                   "compare the verdicts")
    trace_replay.add_argument("--policy", default="fail_fast",
                              help="check policy of the windowed monitor "
                                   "(default fail_fast)")
    trace_replay.set_defaults(func=_cmd_trace_replay)

    serve = sub.add_parser(
        "serve",
        help="online multi-tenant consistency-monitoring service (run/smoke)")
    ssub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = ssub.add_parser(
        "run", help="start the TCP monitoring service")
    serve_run.add_argument("--config", default=None, metavar="FILE",
                           help="ServeSpec JSON file (host/port/window/"
                                "tenants); overrides the flags below")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=0,
                           help="listen port (0 picks an ephemeral port, "
                                "printed on the 'listening' line)")
    serve_run.add_argument("--window", type=int, default=512,
                           help="default eviction window for tenants that do "
                                "not choose their own (default 512)")
    serve_run.add_argument("--status-interval", type=float, default=1.0,
                           help="seconds between status snapshots on stdout "
                                "(0 disables the stream)")
    serve_run.add_argument("--tenant", action="append", default=None,
                           metavar="NAME=TRACEFILE",
                           help="preconfigure a file-backed tenant "
                                "(repeatable)")
    serve_run.add_argument("--criterion", default="causal",
                           help="criterion for --tenant file tenants")
    serve_run.add_argument("--follow", action="store_true",
                           help="tail --tenant trace files for appended "
                                "records instead of stopping at EOF")
    serve_run.add_argument("--oneshot", action="store_true",
                           help="exit (with the combined verdict) once every "
                                "file-backed tenant's stream is finalised")
    serve_run.set_defaults(func=_cmd_serve_run)

    serve_smoke = ssub.add_parser(
        "smoke", help="two-tenant end-to-end smoke over a real socket "
                      "(the CI gate)")
    serve_smoke.set_defaults(func=_cmd_serve_smoke)

    place = sub.add_parser(
        "place",
        help="share-graph replica-placement optimizer (optimize/report)")
    plsub = place.add_subparsers(dest="place_command", required=True)

    place_opt = plsub.add_parser(
        "optimize",
        help="search a variable distribution minimising control-info cost")
    place_opt.add_argument("--profile", default=None, metavar="FILE",
                           help="access-profile JSON ({reads: [[pid, var, "
                                "n], ...], writes: [...]})")
    place_opt.add_argument("--trace", default=None, metavar="FILE",
                           help="build the profile from a repro-trace-v1 file")
    place_opt.add_argument("--processes", type=int, default=0,
                           help="synthetic profile: number of processes")
    place_opt.add_argument("--variables", type=int, default=0,
                           help="synthetic profile: number of variables")
    place_opt.add_argument("--accessors", type=int, default=3,
                           help="synthetic profile: accessors per variable "
                                "(default 3)")
    place_opt.add_argument("--profile-seed", type=int, default=0,
                           help="synthetic profile seed (default 0)")
    place_opt.add_argument("--objective", default="control",
                           help="control | relevant | hoops | replicas")
    place_opt.add_argument("--mode", default="auto",
                           choices=["auto", "exact", "greedy"])
    place_opt.add_argument("--seed", type=int, default=0,
                           help="search seed; same profile + seed = same "
                                "placement")
    place_opt.add_argument("--budget", type=int, default=400,
                           help="evaluation budget of the local search "
                                "(default 400)")
    place_opt.add_argument("--measure", default=None, metavar="PROTOCOL",
                           help="also run the placement through this "
                                "protocol and record measured overhead")
    place_opt.add_argument("--out", default=None, metavar="FILE",
                           help="write the placement report as JSON (its "
                                "holders mapping replays via the 'explicit' "
                                "distribution family)")
    place_opt.set_defaults(func=_cmd_place_optimize)

    place_rep = plsub.add_parser(
        "report", help="re-render (and optionally measure) a placement report")
    place_rep.add_argument("file", help="report JSON from 'place optimize --out'")
    place_rep.add_argument("--measure", default=None, metavar="PROTOCOL",
                           help="run the placement through this protocol "
                                "and refresh the measured numbers")
    place_rep.set_defaults(func=_cmd_place_report)

    arena = sub.add_parser(
        "arena",
        help="columnar history engine introspection (sizes, edge counts, "
             "memory estimates)")
    arsub = arena.add_subparsers(dest="arena_command", required=True)
    ar_info = arsub.add_parser(
        "info",
        help="record a run into an OpArena (checking disabled) and print "
             "its sizes, causal generating edges and memory estimate")
    add_spec_flags(ar_info, scripted=True, session=False)
    ar_info.set_defaults(func=_cmd_arena_info)

    lint = sub.add_parser(
        "lint",
        help="determinism & plugin-contract static analysis (docs/API.md "
             "'Static analysis' lists the rule codes)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src tests "
                           "benchmarks, whichever exist)")
    lint.add_argument("--select", action="append", default=None,
                      metavar="CODE",
                      help="run only the named rule codes (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule code with its summary and scope")
    lint.add_argument("--third-party", action="store_true",
                      help="also run ruff and mypy (skipped with a notice "
                           "when not installed; pinned in the dev extra)")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    from .exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # e.g. ``repro ... | head``: the pipe closing is not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
