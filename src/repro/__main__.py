"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

- ``check FILE``      parse, type-check, causality- and clock-check
- ``lint TARGETS``    static desync-safety analysis (rule codes SIG*/GALS*)
- ``format FILE``     pretty-print back to Signal source
- ``clocks FILE``     clock calculus report
- ``graph FILE``      Graphviz DOT views of the program, signals or clocks
- ``simulate FILE``   run against periodic stimuli, render the trace
- ``desync FILE``     desynchronize and print the transformed program
- ``estimate FILE``   Section 5.2 buffer-size estimation loop
- ``coverage FILE``   stimulus coverage of a simulated trace
- ``verify TARGET``   model-check "signal never present" on the explicit,
  symbolic, bounded or compose backend; TARGET is a Signal file or a
  corpus design ``name[:k=v,...]``, and ``--store`` serves warm reruns
- ``prove TARGET``    static flow-equivalence prover with witnesses
- ``mc stats|prune|clear``  the persistent verification store
- ``faults soak``     fault-injection soak of a built-in GALS design
- ``faults plan``     dump the explicit per-channel fault schedule
- ``recover soak``    recovery soak: hardened deployment vs reference
- ``serve``           run the verification-job service
- ``submit JOBS``     submit jobs to a running service

Stimulus specs (``--stim``) are ``name:period[:phase[:value]]`` —
e.g. ``--stim tick:1 --stim data:3:1:42`` gives an event every instant
and the constant 42 every third instant starting at 1.

Example::

    python -m repro simulate design.sig --stim tick:1 -n 10 --vcd out.vcd
"""

from __future__ import annotations

import argparse
import sys

from repro.clocks import analyze_clocks
from repro.errors import ReproError
from repro.lang import (
    check_program,
    flatten_program,
    format_program,
    parse_program,
)
from repro.lang.analysis import instantaneous_cycles
from repro.sim import simulate
from repro.sim.vcd import write_vcd


def _load(path: str):
    with open(path) as f:
        return parse_program(f.read())


def _stimulus_factory(args):
    """The ``--stim`` specs as a stimulus factory; a malformed spec is a
    usage error."""
    from repro.sim.stimuli import stimulus_factory

    try:
        return stimulus_factory(args.stim or ())
    except ValueError as exc:
        raise SystemExit("{}: --stim: {}".format(args.command, exc))


def _int_values(args):
    """The ``--int-values`` domain; a non-integer item is a usage error."""
    try:
        return tuple(int(v) for v in args.int_values.split(","))
    except ValueError:
        raise SystemExit("{}: bad --int-values {!r}: want comma-separated "
                         "integers".format(args.command, args.int_values))


def cmd_check(args) -> int:
    prog = _load(args.file)
    check_program(prog)
    flat = flatten_program(prog)
    cycles = instantaneous_cycles(flat)
    analysis = analyze_clocks(flat)
    print("{}: {} component(s), {} signals — types OK".format(
        prog.name, len(prog.components), len(flat.signals())))
    if cycles:
        print("CAUSALITY CYCLES: {}".format(cycles))
        return 1
    print("causality: no instantaneous cycles")
    print("clocks: {}".format(
        "input-deterministic (no oracle needed)"
        if analysis.is_input_deterministic()
        else "free clocks present: {}".format(sorted(analysis.free))
    ))
    return 0


_LINT_DESIGNS = (
    "producer_consumer",
    "producer_accumulator",
    "modular_producer_consumer",
    "boolean_producer_consumer",
    "pipeline",
    "request_response",
    "fan_out",
    "token_ring",
)


def _lint_targets(args):
    """Resolve lint targets to ``(label, Program)`` pairs.

    A target is a Signal source file, an example module (``.py`` with a
    zero-argument ``program()``), or the name of a constructor in
    :mod:`repro.designs`; ``--all-designs`` appends the canonical set.
    """
    import os

    from repro import designs
    from repro.lang.ast import Component, Program

    names = list(args.targets)
    if args.all_designs:
        names.extend(_LINT_DESIGNS)
    if not names:
        raise SystemExit("lint: no targets (give a file, a design name, "
                         "or --all-designs)")
    out = []
    for name in names:
        if name.endswith(".py") and os.path.exists(name):
            import importlib.util

            modname = "_lint_{}".format(
                os.path.basename(name)[:-3].replace("-", "_")
            )
            spec = importlib.util.spec_from_file_location(modname, name)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            factory = getattr(module, "program", None)
            if factory is None:
                raise SystemExit(
                    "lint: example {} has no program() constructor".format(name)
                )
            prog = factory()
            if isinstance(prog, Component):
                prog = Program(prog.name, [prog])
            out.append((name, prog))
        elif os.path.exists(name):
            out.append((name, _load(name)))
        elif hasattr(designs, name):
            prog = getattr(designs, name)()
            if isinstance(prog, Component):
                prog = Program(prog.name, [prog])
            out.append((name, prog))
        else:
            raise SystemExit(
                "lint: {!r} is neither a file nor a repro.designs "
                "constructor".format(name)
            )
    return out


def cmd_lint(args) -> int:
    from repro.lang import format_program
    from repro.lint import LintReport, fix_program, lint_program, parse_rates

    def split(values):
        return [p for v in values or [] for p in v.split(",") if p]

    select = split(args.select)
    ignore = split(args.ignore)
    try:
        rates = parse_rates(args.rate or [])
    except ValueError as exc:
        raise SystemExit("lint: {}".format(exc))

    diagnostics = []
    names = []
    for label, prog in _lint_targets(args):
        if args.fix:
            fixed, n = fix_program(prog)
            if n:
                if not label.endswith(".sig"):
                    raise SystemExit(
                        "lint --fix: {} is not a Signal source file".format(
                            label
                        )
                    )
                with open(label, "w") as fh:
                    fh.write(format_program(fixed) + "\n")
                print("fixed {}: {} change(s)".format(label, n))
                prog = _load(label)
        report = lint_program(
            prog,
            file=label,
            rates=rates,
            cut_channels=not args.synchronous,
            select=select,
            ignore=ignore,
        )
        diagnostics.extend(report.diagnostics)
        names.append(prog.name)
    merged = LintReport(
        names[0] if len(names) == 1 else "{} programs".format(len(names)),
        diagnostics,
    )
    if args.json:
        _emit_text(args.json, merged.to_json())
    if args.sarif:
        _emit_text(args.sarif, merged.to_sarif())
    if args.json or args.sarif:
        # digest-flag mode (the `faults soak --json` convention): the text
        # report only renders when no digest went to stdout
        if args.json != "-" and args.sarif != "-":
            print(merged.render_text())
        return 1 if merged.has_errors() else 0
    if args.format == "json":
        text = merged.to_json()
    elif args.format == "sarif":
        text = merged.to_sarif()
    else:
        text = merged.render_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print("wrote {}".format(args.output))
    else:
        print(text)
    return 1 if merged.has_errors() else 0


def cmd_format(args) -> int:
    print(format_program(_load(args.file)))
    return 0


def cmd_clocks(args) -> int:
    flat = flatten_program(_load(args.file))
    print(analyze_clocks(flat).render())
    return 0


def cmd_graph(args) -> int:
    from repro.lang.graph import clock_graph_dot, program_graph_dot, signal_graph_dot

    prog = _load(args.file)
    if args.view == "program":
        print(program_graph_dot(prog))
    elif args.view == "signals":
        print(signal_graph_dot(flatten_program(prog)))
    else:
        print(clock_graph_dot(flatten_program(prog)))
    return 0


def cmd_simulate(args) -> int:
    prog = _load(args.file)
    trace = simulate(prog, _stimulus_factory(args)(), n=args.n)
    columns = args.signals.split(",") if args.signals else None
    print(trace.render(columns))
    if args.vcd:
        write_vcd(args.vcd, trace, component=flatten_program(prog))
        print("\nwrote {}".format(args.vcd))
    return 0


def cmd_desync(args) -> int:
    from repro.desync import desynchronize

    prog = _load(args.file)
    result = desynchronize(
        prog, capacities=args.capacity, kind=args.kind, instrument=args.instrument
    )
    print(format_program(result.program))
    print()
    for ch in result.channels:
        print("% channel {}: {} -> {} (capacity {}, read request {})".format(
            ch.signal, ch.producer, ch.consumer, ch.capacity, ch.rreq))
    return 0


def cmd_estimate(args) -> int:
    from repro.desync import estimate_buffer_sizes

    prog = _load(args.file)
    report = estimate_buffer_sizes(
        prog,
        _stimulus_factory(args),
        horizon=args.n,
        initial=args.initial,
        kind=args.kind,
    )
    print(report.render())
    return 0 if report.converged else 1


_VERIFY_FIGURES = {
    "explicit": "explored {states} states / {transitions} transitions",
    "symbolic": "symbolic: {states} reachable states, {iterations} iterations",
    "bounded": "bounded search to depth {depth}: {explored} reactions",
    "compose": "compose: {method}, {checks} check(s), largest "
               "{largest_check_states} states",
}


def cmd_verify(args) -> int:
    """Model-check ``never <signal>``; warm reruns are served from the
    persistent store."""
    from repro.mc.harness import never_present_verdicts
    from repro.mc.store import MCStore, default_store
    from repro.perf import PERF

    prog = _target(args)
    contracts = {}
    for pair in args.contract or ():
        sig, eq, cname = pair.partition("=")
        if not eq:
            raise SystemExit(
                "verify: bad --contract {!r}: want SIGNAL=NAME".format(pair))
        contracts[sig] = cname
    store = MCStore(args.store) if args.store else default_store()
    with PERF.scope() as scope:
        verdict = next(never_present_verdicts(
            prog,
            args.backend,
            [args.never],
            int_values=_int_values(args),
            always_present=args.always or (),
            never_present=args.never_input or (),
            max_states=args.max_states,
            depth=args.depth,
            contracts=contracts,
            store=store,
        ))
    counts = {name: int(scope.counts.get("mc.store." + name, 0))
              for name in ("hits", "misses", "puts")}
    # answered from the store alone: it hit and explored nothing new
    served = counts["hits"] > 0 and counts["misses"] == 0
    print(_VERIFY_FIGURES[args.backend].format(**verdict.figures)
          + (" [store hit]" if served else ""))
    if verdict.verdict == "proven":
        print("PROVEN: {!r} is never present".format(args.never))
    elif verdict.holds:
        print("SAFE up to depth {}: {!r} never occurred".format(
            args.depth, args.never))
    else:
        print(verdict.counterexample.render())
    if store is not None:
        print("store: {hits} hit(s), {misses} miss(es), {puts} put(s); "
              "{entries} entries".format(
                  entries=store.stats()["entries"], **counts))
    return 0 if verdict.holds else 1


def _target(args):
    """``args.target``: a Signal source path, or corpus shorthand
    ``name[:k=v,...]``.  A target containing ``/`` or ending in ``.sig``
    is always read as a file."""
    import os

    target = args.target
    if "/" in target or target.endswith(".sig") or os.path.exists(target):
        return _load(target)
    from repro.service.jobs import resolve_program

    name, _, rest = target.partition(":")
    params = {}
    for pair in (p for p in rest.split(",") if p):
        key, eq, raw = pair.partition("=")
        if not eq:
            raise SystemExit("{}: bad design param {!r} in {!r}".format(
                args.command, pair, target))
        try:
            params[key] = int(raw)
        except ValueError:
            params[key] = raw == "true" if raw in ("true", "false") else raw
    try:
        return resolve_program({"name": name, "args": params})
    except ValueError as exc:
        raise SystemExit("{}: {}".format(args.command, exc))


def cmd_mc(args) -> int:
    """The persistent verification store: stats, prune, clear."""
    import json

    from repro.mc.store import MCStore, STORE_ENV, default_store

    store = MCStore(args.store) if args.store else default_store()
    if store is None:
        raise SystemExit(
            "mc {}: no store configured (pass --store DIR or set "
            "{})".format(args.mc_command, STORE_ENV)
        )
    if args.mc_command == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
        return 0
    if args.mc_command == "prune":
        evicted = store.prune(args.limit)
        print("evicted {} entry(ies); {} byte(s) on disk".format(
            evicted, store.stats()["bytes"]))
        return 0
    print("removed {} entry(ies)".format(store.clear()))
    return 0


def cmd_prove(args) -> int:
    """Static flow-equivalence prover (PROVEN / REFUTED / unknown)."""
    from repro.lint import parse_rates
    from repro.mc.store import MCStore, default_store
    from repro.prove import prove_flow_equivalence, replay_witness

    prog = _target(args)
    try:
        rates = parse_rates(args.rate or [])
    except ValueError as exc:
        raise SystemExit("prove: {}".format(exc))
    capacities = 1
    cap_map = {}
    for spec in args.capacity or ():
        sig, eq, raw = spec.partition("=")
        try:
            if eq:
                cap_map[sig] = int(raw)
            else:
                capacities = int(spec)
        except ValueError:
            raise SystemExit(
                "prove: bad --capacity {!r}: want N or SIGNAL=N".format(spec)
            )
    if cap_map:
        if capacities != 1:
            raise SystemExit(
                "prove: give either one bare --capacity N or per-signal "
                "SIGNAL=N entries, not both"
            )
        capacities = cap_map
    backpressure = {}
    for pair in args.backpressure or ():
        comp, eq, inp = pair.partition("=")
        if not eq:
            raise SystemExit(
                "prove: bad --backpressure {!r}: want "
                "COMPONENT=INPUT".format(pair)
            )
        backpressure[comp] = inp

    store = MCStore(args.store) if args.store else default_store()
    cert = prove_flow_equivalence(
        prog,
        rates=rates,
        capacities=capacities,
        backend=args.backend,
        int_values=_int_values(args),
        always=tuple(args.always or ()),
        never_input=tuple(args.never_input or ()),
        max_states=args.max_states,
        fifo=args.fifo,
        backpressure=backpressure or None,
        store=store,
    )
    if args.json:
        _emit_json(args.json, cert.to_dict())
    if args.json != "-":
        print("prove {}: {} (method {}, backend {})".format(
            cert.program, cert.verdict.upper(), cert.method, cert.backend))
        for ob in cert.obligations:
            bound = " bound={}".format(ob["bound"]) if "bound" in ob else ""
            print("  {} on {} [capacity {}]: {}{}".format(
                ob["kind"], ob["channel"], ob["capacity"], ob["status"], bound))
        if cert.reason:
            print("  reason: {}".format(cert.reason))
        if cert.witness:
            print("  witness: {} at instant {} ({} stimulus row(s))".format(
                cert.witness["event"], cert.witness["instant"],
                len(cert.witness.get("inputs", []))))
        stats = " ".join(
            "{}={}".format(k, v) for k, v in sorted(cert.stats.items())
        )
        if stats:
            print("  stats: {}".format(stats))
    if args.replay:
        if not cert.witness:
            print("nothing to replay: the certificate carries no witness")
        else:
            rep = replay_witness(prog, cert)
            print(rep.render())
            if not rep.ok:
                return 2
    return {"proven": 0, "refuted": 1}.get(cert.verdict, 2)


_FAULT_DESIGNS = {
    "prodcons": "producer_consumer",
    "prodacc": "producer_accumulator",
    "pipeline": "pipeline",
    "fanout": "fan_out",
}


def cmd_faults(args) -> int:
    from repro import designs
    from repro.faults import EstimateConfig, soak, uniform_plan, weave_faults
    from repro.gals import AsyncNetwork
    from repro.workloads import scenarios

    program = getattr(designs, _FAULT_DESIGNS[args.design])()
    plan = uniform_plan(
        seed=args.seed,
        drop=args.drop,
        duplicate=args.dup,
        reorder=args.reorder,
        window=args.window,
        jitter=args.jitter,
        corrupt=args.corrupt,
        stall=args.stall,
        stall_period=args.stall_period,
    )
    workload = scenarios.steady(
        producer_period=args.period, reader_period=args.reader_period
    )
    if args.action == "plan":
        # materialize the explicit schedule for every channel of the
        # deployed network (no simulation)
        net = AsyncNetwork.from_program(program, workload.gals_schedules())
        schedule = plan.compile()
        for (signal, _consumer), ch in sorted(net.channels.items()):
            print("channel {}:".format(ch.name))
            for i, d in enumerate(schedule.channel(ch.name, signal).prefix(args.n)):
                print(
                    "  push {:>3}: drop={} dup={} shift={} jitter={:.4f} "
                    "corrupt={}".format(
                        i, int(d.drop), d.duplicates, d.shift, d.jitter,
                        int(d.corrupt),
                    )
                )
        return 0
    estimate = None
    if args.estimate:
        if args.design != "prodcons":
            raise SystemExit(
                "--estimate drives p_act/x_rreq stimuli; only --design "
                "prodcons supports it"
            )
        estimate = EstimateConfig(horizon=args.n, hold=args.hold)
    report = soak(
        program, workload, plan, horizon=args.horizon, estimate=estimate
    )
    return _soak_verdict(args, report)


def _soak_verdict(args, report) -> int:
    """Write a soak's JSON digest and render it; exit 0 iff healthy (an
    unhardened soak is healthy iff it is flow-equivalent)."""
    if args.json:
        _emit_json(args.json, {
            "design": args.design,
            "seed": args.seed,
            "horizon": args.horizon,
            **report.summary(),
        })
    if args.json != "-":
        print(report.render())
    return 0 if report.healthy else 1


def _emit_json(path: str, data) -> None:
    import json

    _emit_text(path, json.dumps(data, indent=2, sort_keys=True))


def _emit_text(path: str, text: str) -> None:
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _parse_windows(args, flag):
    """The ``NODE:START:END`` arguments of ``flag`` (``--crash`` or
    ``--stall``) -> {node: ((start, end), ...)}; a malformed one is a
    usage error."""
    out = {}
    for item in getattr(args, flag[2:]) or []:
        try:
            node, lo, hi = item.split(":")
            window = (float(lo), float(hi))
        except ValueError:
            raise SystemExit("{}: {} expects NODE:START:END, got {!r}".format(
                args.command, flag, item))
        out.setdefault(node, []).append(window)
    return {node: tuple(sorted(ws)) for node, ws in out.items()}


def cmd_recover(args) -> int:
    from repro import designs
    from repro.faults import ChannelFaults, FaultPlan, NodeFaults, soak
    from repro.resilience import (
        RecoveryConfig, ReliableConfig, RestartPolicy,
    )
    from repro.workloads import scenarios

    program = getattr(designs, _FAULT_DESIGNS[args.design])()
    channel_spec = ChannelFaults(
        drop=args.drop, duplicate=args.dup, reorder=args.reorder,
        window=args.window, jitter=args.jitter, corrupt=args.corrupt,
    )
    nodes = {}
    for node, windows in _parse_windows(args, "--crash").items():
        nodes[node] = NodeFaults(crash=windows)
    for node, windows in _parse_windows(args, "--stall").items():
        prev = nodes.get(node, NodeFaults())
        nodes[node] = prev._replace(intervals=windows)
    plan = FaultPlan(
        seed=args.seed,
        channels={"*": channel_spec} if channel_spec.active else {},
        nodes=nodes,
    ).validate()
    if args.workload == "burst":
        workload = scenarios.single_burst(
            burst=args.burst, drain_period=args.period
        )
    else:
        workload = scenarios.steady(
            producer_period=args.period, reader_period=args.period
        )
    config = RecoveryConfig(
        channel=ReliableConfig(
            timeout=args.rto, backoff=args.rto_backoff,
            max_retries=args.retries, ack_latency=args.ack_latency,
        ),
        watchdog=args.watchdog,
        checkpoint_interval=args.checkpoint_interval,
        policy=RestartPolicy(
            max_restarts=args.max_restarts, min_spacing=args.restart_spacing
        ),
    )
    report = soak(
        program, workload, plan, horizon=args.horizon, recovery=config
    )
    return _soak_verdict(args, report)


def cmd_serve(args) -> int:
    import signal

    from repro.service import Scheduler, ServiceServer

    scheduler = Scheduler(workers=args.workers)
    server = ServiceServer(scheduler, host=args.host, port=args.port)
    host, port = server.address
    print("repro-service listening on {}:{} ({} worker{})".format(
        host, port, args.workers, "s" if args.workers != 1 else ""))

    def _terminate(signum, frame):
        # same graceful path as Ctrl-C: unwind serve_forever so the
        # scheduler (and its worker processes) shut down too
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _parse_job_shorthand(text: str):
    """``kind:design[:k=v,...]`` — e.g. ``lint:producer_consumer`` or
    ``soak:producer_consumer:seed=3,drop=0.2``.  ``@`` inside a value
    stands for ``:`` (rate words), ``+`` separates list items."""
    fields = text.split(":", 2)
    if len(fields) < 2:
        raise SystemExit(
            "bad job {!r}: want kind:design[:k=v,...]".format(text))
    kind, design = fields[0], fields[1]
    params = {}
    if len(fields) > 2 and fields[2]:
        for pair in fields[2].split(","):
            key, eq, raw = pair.partition("=")
            if not eq:
                raise SystemExit("bad job param {!r} in {!r}".format(pair, text))
            items = [v.replace("@", ":") for v in raw.split("+")]
            values = []
            for item in items:
                if item in ("true", "false"):
                    values.append(item == "true")
                else:
                    try:
                        values.append(int(item))
                    except ValueError:
                        try:
                            values.append(float(item))
                        except ValueError:
                            values.append(item)
            params[key] = values if len(values) > 1 else values[0]
    return {"kind": kind, "design": design, "params": params}


def cmd_submit(args) -> int:
    import json

    from repro.service.client import ServiceClient

    jobs = [_parse_job_shorthand(spec) for spec in args.jobs]
    for path in args.file or []:
        with open(path) as fh:
            loaded = json.load(fh)
        jobs.extend(loaded if isinstance(loaded, list) else [loaded])
    if not jobs:
        raise SystemExit("submit: no jobs (give kind:design[:k=v,...] "
                         "specs or --file)")
    if args.priority:
        for job in jobs:
            job.setdefault("priority", args.priority)
    with ServiceClient(args.host, args.connect) as client:
        ids = client.submit(jobs)
        print("submitted {} job(s): {} .. {}".format(len(ids), ids[0], ids[-1]))
        if not args.wait:
            return 0
        summaries = client.wait(ids, timeout=args.timeout)
        payload = []
        failed = 0
        for summary in summaries:
            line = "{id}  {state:<9} {kind:<9}".format(**summary)
            if summary.get("cache_hit"):
                line += "  [cached]"
            if summary.get("error"):
                line += "  {}".format(summary["error"])
            if summary["state"] != "done":
                failed += 1
            print(line)
            if args.json:
                payload.append(client.result(summary["id"]))
        if args.json:
            # results plus the server-side statistics snapshot, so one
            # artifact carries the service.* cache counters and the
            # persistent mc.store.* counters of this batch
            _emit_json(args.json, {"jobs": payload, "stats": client.stats()})
        return 1 if failed else 0


def cmd_coverage(args) -> int:
    from repro.sim.coverage import measure_coverage

    prog = _load(args.file)
    flat = flatten_program(prog)
    trace = simulate(prog, _stimulus_factory(args)(), n=args.n)
    groups = [g.split(",") for g in (args.group or [])]
    report = measure_coverage(trace, component=flat, clock_groups=groups)
    print(report.render())
    return 0


def _fault_flags(p, design: str, horizon: float) -> None:
    """The flags ``faults`` and ``recover`` share, with each command's
    design and horizon defaults.  ``--stall`` is declared by each: a
    probability for ``faults``, ``NODE:START:END`` windows for
    ``recover``."""
    p.add_argument("--design", choices=sorted(_FAULT_DESIGNS), default=design)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drop", type=float, default=0.0, help="P(drop) per push")
    p.add_argument("--dup", type=float, default=0.0, help="P(duplicate)")
    p.add_argument("--reorder", type=float, default=0.0, help="P(reorder)")
    p.add_argument("--window", type=int, default=2, help="reorder window")
    p.add_argument("--jitter", type=float, default=0.0, help="max extra latency")
    p.add_argument("--corrupt", type=float, default=0.0, help="P(value flip)")
    p.add_argument("--horizon", type=float, default=horizon)
    p.add_argument(
        "--json", metavar="PATH",
        help="write a JSON digest to PATH ('-' for stdout)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Polychronous (Signal) toolkit for GALS design"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, type, causality and clock check")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "lint", help="static desync-safety analysis (SIG*/GALS* rules)"
    )
    p.add_argument(
        "targets", nargs="*",
        help="Signal file, example module (.py), or repro.designs name",
    )
    p.add_argument(
        "--all-designs", action="store_true",
        help="also lint every canonical design in repro.designs",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (sarif: SARIF 2.1.0 for code-scanning UIs)",
    )
    p.add_argument(
        "--select", action="append",
        help="only report codes with these prefixes (comma-separated, "
        "repeatable), e.g. --select SIG002,GALS",
    )
    p.add_argument(
        "--ignore", action="append",
        help="suppress codes with these prefixes (comma-separated, repeatable)",
    )
    p.add_argument(
        "--rate", action="append", metavar="NAME:SPEC",
        help="clock-rate assumption for the buffer-bound rules: "
        "name:period[:phase] or name:CYCLE (e.g. p_act:2, x_rreq:1101)",
    )
    p.add_argument(
        "--synchronous", action="store_true",
        help="lint as a synchronous program (shared edges are wires, "
        "not FIFO channels)",
    )
    p.add_argument(
        "--fix", action="store_true",
        help="rewrite fixable findings in-place (uninitialized pre, "
        "unused inputs); Signal source files only",
    )
    p.add_argument("--output", metavar="PATH", help="write the report to PATH")
    p.add_argument(
        "--json", metavar="PATH",
        help="write the JSON report to PATH ('-' for stdout); exit code "
        "still reflects error findings",
    )
    p.add_argument(
        "--sarif", metavar="PATH",
        help="write the SARIF 2.1.0 report to PATH ('-' for stdout)",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("format", help="pretty-print Signal source")
    p.add_argument("file")
    p.set_defaults(fn=cmd_format)

    p = sub.add_parser("clocks", help="clock calculus report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_clocks)

    p = sub.add_parser("graph", help="export Graphviz DOT views")
    p.add_argument("file")
    p.add_argument(
        "--view", choices=("program", "signals", "clocks"), default="program"
    )
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("simulate", help="simulate with periodic stimuli")
    p.add_argument("file")
    p.add_argument("--stim", action="append", help="name:period[:phase[:value|count]]")
    p.add_argument("-n", type=int, default=20, help="number of instants")
    p.add_argument("--signals", help="comma-separated columns to render")
    p.add_argument("--vcd", help="write a VCD waveform to this path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("desync", help="insert FIFO channels (Theorems 1-2)")
    p.add_argument("file")
    p.add_argument("--capacity", type=int, default=1)
    p.add_argument("--kind", choices=("direct", "chain"), default="direct")
    p.add_argument("--instrument", action="store_true", help="add Figure 4 watchdogs")
    p.set_defaults(fn=cmd_desync)

    p = sub.add_parser("estimate", help="buffer-size estimation loop (Sec 5.2)")
    p.add_argument("file")
    p.add_argument("--stim", action="append", required=True)
    p.add_argument("-n", type=int, default=100, help="horizon per iteration")
    p.add_argument("--initial", type=int, default=1)
    p.add_argument("--kind", choices=("direct", "chain"), default="direct")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser(
        "verify",
        help="model-check 'signal never present' (warm reruns are served "
        "from the store)",
    )
    p.add_argument(
        "target", help="Signal file, or corpus design name[:k=v,...] "
        "(e.g. gals_relay_chain:stages=8)",
    )
    p.add_argument("--never", required=True, help="signal that must never occur")
    p.add_argument(
        "--backend",
        choices=("explicit", "symbolic", "bounded", "compose"),
        default="explicit",
        help="explicit LTS, symbolic BDD (boolean designs), bounded search, "
        "or assume-guarantee decomposition",
    )
    p.add_argument(
        "--contract", action="append", metavar="SIGNAL=NAME",
        help="channel contract for --backend compose "
        "(NAME: free or alternating)",
    )
    p.add_argument("--depth", type=int, default=12, help="bound for --backend bounded")
    p.add_argument("--int-values", default="0,1", help="integer input domain")
    p.add_argument("--always", action="append", help="pin an input present")
    p.add_argument("--never-input", action="append", help="tie an input off")
    p.add_argument("--max-states", type=int, default=200000)
    p.add_argument(
        "--store", metavar="DIR",
        help="verification store root (default: $REPRO_MC_STORE)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "mc", help="persistent verification store: stats, prune, clear"
    )
    msub = p.add_subparsers(dest="mc_command", required=True)

    def _mc_store_arg(parser):
        parser.add_argument(
            "--store", metavar="DIR",
            help="store root (default: $REPRO_MC_STORE)",
        )
        parser.set_defaults(fn=cmd_mc)

    mp = msub.add_parser("stats", help="store footprint on disk")
    _mc_store_arg(mp)
    mp = msub.add_parser("prune", help="evict LRU entries down to a byte cap")
    mp.add_argument("--limit", type=int, metavar="BYTES",
                    help="target size (default: the store's own cap)")
    _mc_store_arg(mp)
    mp = msub.add_parser("clear", help="drop every store entry")
    _mc_store_arg(mp)

    p = sub.add_parser(
        "prove",
        help="static flow-equivalence prover: PROVEN / REFUTED / unknown "
        "with refutation witnesses",
    )
    p.add_argument(
        "target", help="Signal file, or corpus design name[:k=v,...]"
    )
    p.add_argument(
        "--rate", action="append", metavar="NAME:SPEC",
        help="clock-rate assumption: name:period[:phase] or name:CYCLE "
        "(enables the affine inductive path)",
    )
    p.add_argument(
        "--capacity", action="append", metavar="N|SIGNAL=N",
        help="channel capacity: one bare int for every channel, or "
        "SIGNAL=N (repeatable)",
    )
    p.add_argument(
        "--backend",
        choices=("auto", "affine", "explicit", "symbolic", "compose"),
        default="auto",
        help="auto: affine induction when applicable, else model checking "
        "on the source/deployment product",
    )
    p.add_argument(
        "--fifo", choices=("direct", "boolean"), default="direct",
        help="boolean: deploy the paper's one-place boolean FIFO "
        "(all-boolean product; symbolic-backend friendly)",
    )
    p.add_argument(
        "--backpressure", action="append", metavar="COMPONENT=INPUT",
        help="mask a producer activation input with the channel's full "
        "status (repeatable)",
    )
    p.add_argument("--int-values", default="0,1", help="integer input domain")
    p.add_argument("--always", action="append", help="pin an input present")
    p.add_argument("--never-input", action="append", help="tie an input off")
    p.add_argument("--max-states", type=int, default=20000)
    p.add_argument(
        "--store", metavar="DIR",
        help="certificate store root (default: $REPRO_MC_STORE)",
    )
    p.add_argument(
        "--json", metavar="PATH",
        help="write the certificate to PATH ('-' for stdout)",
    )
    p.add_argument(
        "--replay", action="store_true",
        help="replay a refutation witness in the simulator and check the "
        "divergence instant",
    )
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser(
        "faults", help="fault-injection soak of a GALS deployment"
    )
    p.add_argument(
        "action", choices=("soak", "plan"),
        help="soak: faulted vs reference co-simulation; plan: dump the "
        "explicit fault schedule",
    )
    _fault_flags(p, design="prodcons", horizon=50.0)
    p.add_argument("--stall", type=float, default=0.0, help="P(node stall window)")
    p.add_argument("--stall-period", type=float, default=2.0)
    p.add_argument("--period", type=int, default=1, help="producer period")
    p.add_argument("--reader-period", type=int, default=1)
    p.add_argument(
        "--estimate", action="store_true",
        help="also report buffer-capacity inflation under read jitter",
    )
    p.add_argument("--hold", type=float, default=0.25, help="P(read deferred)")
    p.add_argument("-n", type=int, default=20, help="plan prefix / estimate horizon")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "recover",
        help="recovery soak: hardened faulted deployment vs reference",
    )
    p.add_argument(
        "action", choices=("soak",),
        help="soak: co-simulate with reliable channels + supervisor woven in",
    )
    _fault_flags(p, design="prodacc", horizon=40.0)
    p.add_argument(
        "--crash", action="append", metavar="NODE:START:END",
        help="crash window: node down and loses state (repeatable)",
    )
    p.add_argument(
        "--stall", action="append", metavar="NODE:START:END",
        help="stall window: node down, state intact (repeatable)",
    )
    p.add_argument(
        "--workload", choices=("steady", "burst"), default="burst",
        help="burst: finite burst + drain (clean equivalence); steady: periodic",
    )
    p.add_argument("--burst", type=int, default=10, help="burst length")
    p.add_argument("--period", type=float, default=1.0, help="consumer/drain period")
    p.add_argument("--rto", type=float, default=1.5, help="retransmit timeout")
    p.add_argument("--rto-backoff", type=float, default=1.5)
    p.add_argument("--retries", type=int, default=10, help="retry budget per frame")
    p.add_argument("--ack-latency", type=float, default=0.0)
    p.add_argument("--watchdog", type=float, default=2.5)
    p.add_argument("--checkpoint-interval", type=float, default=3.0)
    p.add_argument("--max-restarts", type=int, default=3)
    p.add_argument("--restart-spacing", type=float, default=0.0)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser(
        "serve", help="run the verification-job service (socket API)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7712,
                   help="TCP port (0 picks an ephemeral one)")
    p.add_argument("--workers", type=int, default=2)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit verification jobs to a running service"
    )
    p.add_argument(
        "jobs", nargs="*",
        help="job shorthand kind:design[:k=v,...] — e.g. "
             "lint:producer_consumer:rates=p_act@1+x_rreq@2 or "
             "soak:producer_consumer:seed=3,drop=0.2",
    )
    p.add_argument("--file", action="append",
                   help="JSON file with a job spec or a list of them")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--connect", type=int, default=7712, metavar="PORT")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="block until the jobs finish; exit 1 on failures")
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--json", metavar="PATH",
                   help="with --wait: dump result envelopes ('-' = stdout)")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("coverage", help="measure stimulus coverage")
    p.add_argument("file")
    p.add_argument("--stim", action="append", required=True)
    p.add_argument("-n", type=int, default=50)
    p.add_argument(
        "--group", action="append",
        help="comma-separated signals whose presence patterns to track",
    )
    p.set_defaults(fn=cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError, ValueError) as exc:
        # 2, not 1: a verdict (not converged, refuted, counterexample,
        # divergent, unhealthy) exits 1, a rejected input never does
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
