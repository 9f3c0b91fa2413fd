"""Command-line interface: ``python -m repro <command>``.

Every subcommand and flag is declared once, in :func:`build_parser`.
The reference, docs/cli.md, is that parser's ``--help`` text rendered
by :func:`render_reference`; a test fails when the two differ.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

import numpy as np

__all__ = ["build_parser", "main", "render_reference"]


def _add_grid(p: argparse.ArgumentParser, optional: bool = False) -> None:
    """Scheme, grid and tree parameters; ``optional`` (``analyze``)
    lets a problem spec stand without a grid or family, and
    ``--from-trace`` without either."""
    opt = {"nargs": "?", "default": None} if optional else {}
    p.add_argument("scheme", **opt,
                   help="elimination tree name or spec, e.g. greedy or "
                        "'plasma(bs=5)'" + (", or a problem spec such as "
                                            "'cholesky(t=8)'"
                                            if optional else ""))
    p.add_argument("p", type=int, **opt, help="tile rows")
    p.add_argument("q", type=int, **opt, help="tile columns")
    p.add_argument("--family", default=None if optional else "TT",
                   choices=["TT", "TS"])
    p.add_argument("--bs", type=int, default=None,
                   help="domain size (plasma-tree / hadri-tree)")
    p.add_argument("--k", type=int, default=None,
                   help="trailing Asap columns (grasap)")


def _scheme_params(args) -> dict:
    params = {}
    if args.bs is not None:
        params["bs"] = args.bs
    if args.k is not None:
        params["k"] = args.k
    return params


def _cmd_cp(args) -> int:
    from .core.paths import critical_path

    cp = critical_path(args.scheme, args.p, args.q, family=args.family,
                       **_scheme_params(args))
    print(f"{args.scheme} on {args.p} x {args.q} ({args.family}): "
          f"critical path {cp:g} units (nb^3/3 flops each)")
    return 0


def _cmd_table(args) -> int:
    from .bench.report import format_step_matrix
    from .core.paths import zero_out_steps

    tb = zero_out_steps(args.scheme, args.p, args.q, family=args.family,
                        **_scheme_params(args))
    print(format_step_matrix(
        tb.astype(int),
        title=f"{args.scheme} ({args.family}) zero-out times, "
              f"critical path {int(tb.max())}"))
    return 0


def _sweep_problem(spec: str, args) -> int:
    """Processor sweep of one problem spec: bounded makespans vs bounds."""
    from .api import plan
    from .bench.report import format_table
    from .obs.analyze import analyze_sim

    try:
        pl = plan(spec)
    except (TypeError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    try:
        procs = sorted({int(x) for x in args.processors.split(",")})
    except ValueError:
        print(f"sweep: bad --processors list {args.processors!r}",
              file=sys.stderr)
        return 2
    work = float(pl.total_weight())
    cp = pl.critical_path()
    rows = []
    for P in procs:
        rep = analyze_sim(pl.schedule(P))
        lower = rep.bounds["lower"]
        rows.append([P, rep.makespan, round(rep.bounds["alap"], 2),
                     round(lower / rep.makespan, 3)])
    print(format_table(
        ["P", "makespan", "ALAP bound", "efficiency"], rows,
        title=f"{pl.scheme} ({pl.problem}): {len(pl.graph)} tasks, "
              f"work {work:g}, critical path {cp:g}"))
    return 0


def _cmd_sweep(args) -> int:
    import json

    from .api import plan
    from .bench.report import format_table
    from .kernels.costs import total_weight
    from .planner import PLAN_METRICS, plan_cache_stats
    from .schemes.registry import available_schemes

    shape = args.shape
    if len(shape) == 1 and not shape[0].isdigit():
        return _sweep_problem(shape[0], args)
    if len(shape) != 2 or not all(s.isdigit() for s in shape):
        print("sweep: expected P Q tile-grid integers or one problem "
              "spec such as 'cholesky(t=8)'", file=sys.stderr)
        return 2
    args.p, args.q = int(shape[0]), int(shape[1])

    rows = []
    total = total_weight(args.p, args.q)
    for scheme in available_schemes():
        params = {"bs": max(1, args.p // 4)} if scheme in (
            "plasma-tree", "hadri-tree") else {}
        cp = plan(args.p, args.q, scheme, args.family,
                  **params).critical_path()
        note = f"BS={params['bs']}" if params else ""
        rows.append([scheme, int(cp), round(total / cp, 1), note])
    rows.sort(key=lambda r: r[1])
    print(format_table(
        ["scheme", "critical path", "max speedup", ""], rows,
        title=f"{args.p} x {args.q} grid, {args.family} kernels "
              f"(total work {total} units)"))
    stats = plan_cache_stats()
    print(f"\nplan cache: {stats['hits']} hits "
          f"({stats['memory.hits']} memory, {stats['disk.hits']} disk), "
          f"{stats['builds']} builds, "
          f"{stats['build_seconds']:.3f} s building, "
          f"{stats['memory.evictions']:g} evictions, "
          f"{stats['disk.errors']:g} disk errors")
    if args.metrics_json:
        snapshot = {"plan_cache": stats, "metrics": PLAN_METRICS.to_dict()}
        with open(args.metrics_json, "w") as fh:
            json.dump(snapshot, fh, indent=1)
        print(f"metrics JSON written to {args.metrics_json}")
    return 0


def _cmd_tune(args) -> int:
    from .bench.autotune import plasma_bs_sweep
    from .bench.report import format_table
    from .core.paths import critical_path

    sweep = plasma_bs_sweep(args.p, args.q, args.family)
    best = min(sweep, key=lambda b: (sweep[b], b))
    rows = [[bs, int(cp), "*" if bs == best else ""]
            for bs, cp in sorted(sweep.items())]
    print(format_table(["BS", "critical path", ""], rows,
                       title=f"PlasmaTree({args.family}) BS sweep on "
                             f"{args.p} x {args.q}"))
    g = critical_path("greedy", args.p, args.q, family=args.family)
    print(f"\nbest BS = {best} (cp {sweep[best]:g}); Greedy achieves {g:g} "
          "with no parameter")
    return 0


def _progress_setup(pl, nb: int, opts, label: str, bus=None, state=None):
    """Wire a bus + live state + renderer for one planned run.

    Returns ``(bus, state, renderer)``; an existing ``bus``/``state``
    pair is reused when given.  The ETA replays against the plan's
    memoized simulated schedule: bounded on ``workers`` lanes for the
    thread transport, unbounded (ASAP) for the inline (batched)
    transport, one lane otherwise.
    """
    from .obs import EventBus, LiveState, ProgressRenderer, kernel_totals

    procs = None if opts.mode == "batched" else _lanes(opts)
    if bus is None:
        bus = EventBus()
    if state is None:
        state = LiveState(total=len(pl.graph), nb=nb).connect(bus)
    renderer = ProgressRenderer(
        state, pl.replay(procs), clock=bus.now, totals=kernel_totals(pl),
        label=label)
    return bus, state, renderer


def _lanes(opts) -> int:
    """Worker lanes of a task- or process-mode run."""
    if opts.workers:
        return opts.workers
    return (os.cpu_count() or 1) if opts.mode == "process" else 1


def _eta_summary(renderer, state) -> str | None:
    """Post-run predicted-vs-realized line (None without an estimate)."""
    est = renderer.last_estimate
    replay = renderer.replay
    if est is None or replay is None or replay.first_predicted is None:
        return None
    realized = state.view()["last_t"]
    first = replay.first_predicted
    drift = realized / first - 1.0 if first else 0.0
    return (f"makespan {realized * 1e3:.1f} ms realized vs "
            f"{first * 1e3:.1f} ms first-predicted "
            f"({drift * +100:+.1f}% drift)")


#: the subcommands that execute a factorization, each with the
#: execution-flag defaults it overrides; every other flag defaults to
#: its ExecOptions field's default
_EXEC_COMMANDS = {"factor": {}, "profile": {"workers": 4}}


def _add_exec_flags(p: argparse.ArgumentParser, command: str) -> None:
    """One flag per ExecOptions field with CLI metadata (its help,
    choices and type), defaulting as :data:`_EXEC_COMMANDS` says; the
    help ends with that default (a ``None`` one as the field's
    ``unset`` text)."""
    from .runtime.options import ExecOptions

    overrides = _EXEC_COMMANDS[command]
    for f in fields(ExecOptions):
        if f.metadata:
            meta = dict(f.metadata)
            unset = meta.pop("unset", None)
            default = overrides.get(f.name, f.default)
            meta["help"] += (f"; default: "
                             f"{unset if default is None else default}")
            p.add_argument("--" + f.name.replace("_", "-"),
                           default=default, **meta)


def _kernels(opts, dtype) -> str:
    """``mode/backend`` as the run resolves them, for the summaries."""
    from .runtime.options import resolve_backend

    bk = resolve_backend(opts.backend, opts.mode, dtype)
    return f"{opts.mode}/{bk.name}"


def _cmd_factor(args) -> int:
    from .analysis.accuracy import assess
    from .core.serialize import save_factorization
    from .core.tiled_qr import tiled_qr

    if args.random:
        m, n = (int(x) for x in args.random.lower().split("x"))
        a = np.random.default_rng(args.seed).standard_normal((m, n))
        src = f"random {m} x {n} (seed {args.seed})"
    elif args.input:
        a = np.load(args.input)
        src = args.input
    else:
        print("factor: need --random MxN or --input FILE", file=sys.stderr)
        return 2
    params = {"bs": args.bs} if args.bs is not None else {}
    opts = args.options
    bus = renderer = state = None
    if args.progress:
        from .api import plan as build_plan

        p_t, q_t = -(-a.shape[0] // args.nb), -(-a.shape[1] // args.nb)
        pl = build_plan(p_t, q_t, args.scheme, args.family, **params)
        bus, state, renderer = _progress_setup(
            pl, args.nb, opts,
            label=f"{args.scheme} {p_t}x{q_t} nb={args.nb}")
        renderer.start()
    try:
        f = tiled_qr(a, nb=args.nb, ib=args.ib, scheme=args.scheme,
                     family=args.family, bus=bus,
                     **vars(opts), **params)
    finally:
        if renderer is not None:
            renderer.stop()
    if renderer is not None:
        line = _eta_summary(renderer, state)
        if line:
            print(f"  {line}")
    rep = assess(f, a)
    print(f"factored {src} with {args.scheme} ({args.family}, "
          f"{_kernels(opts, a.dtype)}, nb={args.nb})")
    print(f"  backward error   {rep.backward_error:.3e}")
    print(f"  orthogonality    {rep.orthogonality:.3e}")
    print(f"  eps multiple     {rep.eps_multiple:.1f}  "
          f"({'stable' if rep.is_stable() else 'UNSTABLE'})")
    if args.save:
        save_factorization(f, args.save)
        print(f"  saved to {args.save}")
    return 0


def _cmd_predict(args) -> int:
    from .analysis.model import PerformanceModel, predicted_gflops
    from .bench.kernel_timing import measure_gamma_seq, time_kernels
    from .bench.report import format_series

    rates = time_kernels(args.nb, ib=32, backend="lapack", strategy="warm")
    gamma = measure_gamma_seq(rates)
    model = PerformanceModel(gamma_seq=gamma, processors=args.cores)
    qs = [q for q in (1, 2, 4, 5, 8, 10, 20, 30, 40) if q <= args.p]
    series = {s: [predicted_gflops(s, args.p, q, model) for q in qs]
              for s in ("greedy", "fibonacci", "flat-tree")}
    print(f"gamma_seq = {gamma:.3f} GFLOP/s at nb={args.nb}")
    print(format_series("q", qs, series,
                        title=f"predicted GFLOP/s, p={args.p}, "
                              f"{args.cores} cores"))
    return 0


def _cmd_recommend(args) -> int:
    from .analysis.model import PerformanceModel
    from .bench.report import format_table
    from .core.auto import select_scheme

    model = None
    if args.cores is not None:
        gamma = args.gamma
        if gamma is None:
            from .bench.kernel_timing import measure_gamma_seq, time_kernels
            rates = time_kernels(args.nb, ib=32, backend="lapack",
                                 strategy="warm")
            gamma = measure_gamma_seq(rates)
            print(f"measured gamma_seq = {gamma:.3f} GFLOP/s at nb={args.nb}")
        model = PerformanceModel(gamma_seq=gamma, processors=args.cores)
    choice = select_scheme(args.p, args.q, model=model, family=args.family)
    rows = []
    for name, params, cp, gflops in choice.ranking:
        rows.append([name + (f"(BS={params['bs']})" if params else ""),
                     int(cp), "-" if gflops is None else round(gflops, 2)])
    print(format_table(["scheme", "critical path", "pred GFLOP/s"], rows,
                       title=f"recommendation for {args.p} x {args.q} "
                             f"({args.family} kernels)"))
    extra = f" with {choice.params}" if choice.params else ""
    print(f"\nuse: scheme={choice.scheme!r}{extra}")
    return 0


def _cmd_coarse(args) -> int:
    from .bench.report import format_step_matrix
    from .coarse import coarse_fibonacci, coarse_greedy, coarse_sameh_kuck

    factories = {"sameh-kuck": coarse_sameh_kuck,
                 "fibonacci": coarse_fibonacci,
                 "greedy": coarse_greedy}
    try:
        sched = factories[args.algorithm](args.p, args.q)
    except KeyError:
        print(f"coarse: unknown algorithm {args.algorithm!r} "
              f"(choose from {sorted(factories)})", file=sys.stderr)
        return 2
    print(format_step_matrix(
        sched.steps,
        title=f"coarse-grain {sched.name}: critical path "
              f"{sched.critical_path}"))
    return 0


def _cmd_optimal(args) -> int:
    from .analysis.optimality import exhaustive_optimal_cp
    from .core.paths import critical_path

    try:
        opt = exhaustive_optimal_cp(args.p, args.q, band=args.band,
                                    max_leaves=args.max_leaves)
    except ValueError as exc:
        print(f"optimal: {exc}", file=sys.stderr)
        return 2
    shape = (f"banded (band={args.band}) " if args.band is not None else "")
    print(f"optimal critical path of the {shape}{args.p} x {args.q} grid: "
          f"{opt:g}")
    for scheme in ("greedy", "fibonacci", "flat-tree", "binary-tree"):
        cp = critical_path(scheme, args.p, args.q)
        flag = "  <- optimal" if cp == opt and args.band is None else ""
        print(f"  {scheme:12s} {cp:g}{flag}")
    if args.q >= 2:
        print(f"  (Theorem 1(3) lower bound 22q-30 = {22 * args.q - 30})")
    return 0


def _cmd_trace(args) -> int:
    from .api import simulate
    from .sim.trace import (render_gantt, trace_to_chrome, trace_to_csv,
                            trace_to_json)

    res = simulate(args.scheme, args.p, args.q, processors=args.workers,
                   priority=args.priority, family=args.family,
                   **_scheme_params(args))
    if args.format == "gantt":
        print(render_gantt(res, width=args.width))
    elif args.format == "csv":
        print(trace_to_csv(res), end="")
    elif args.format == "chrome":
        print(trace_to_chrome(res))
    else:
        print(trace_to_json(res))
    return 0


def _cmd_analyze(args) -> int:
    import json

    from .obs.analyze import analyze_sim, analyze_trace_file, render_report

    if args.from_trace:
        if args.scheme is not None:
            print("analyze: give either a scheme/grid or --from-trace, "
                  "not both", file=sys.stderr)
            return 2
        try:
            reports = analyze_trace_file(args.from_trace)
        except OSError as exc:
            print(f"analyze: cannot read {args.from_trace}: {exc}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"analyze: bad trace {args.from_trace}: {exc}",
                  file=sys.stderr)
            return 2
        if not reports:
            print(f"analyze: no trace events in {args.from_trace}",
                  file=sys.stderr)
            return 1
        if args.format == "json":
            # one document: the report of a single process, else an
            # array of every process's report
            docs = [r.to_dict() for r in reports]
            print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=1,
                             sort_keys=True))
        else:
            print("\n\n".join(render_report(r, args.format)
                              for r in reports))
        return 0
    if args.scheme is None:
        print("analyze: need SCHEME P Q, a problem spec such as "
              "'cholesky(t=8)', or --from-trace FILE", file=sys.stderr)
        return 2

    from .api import simulate

    try:
        res = simulate(args.scheme, args.p, args.q, processors=args.workers,
                       priority=args.priority, family=args.family,
                       **_scheme_params(args))
    except (TypeError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    report = analyze_sim(res)
    print(render_report(report, args.format))
    return 0


def _cmd_profile(args) -> int:
    from .api import plan
    from .kernels.costs import Kernel
    from .obs.analyze import overhead_report, render_overhead_report
    from .obs.chrome_trace import write_chrome_trace
    from .obs.metrics import MetricsRegistry
    from .obs.tracer import DistributedTracer, Tracer
    from .planner import PLAN_METRICS, plan_cache_stats
    from .runtime.executor import execute_graph
    from .tiles.layout import TiledMatrix

    nb = args.nb
    m, n = args.p * nb, args.q * nb
    a = np.random.default_rng(args.seed).standard_normal((m, n))
    tiled = TiledMatrix(a, nb)
    pl = plan(args.p, args.q, args.scheme, args.family,
              **_scheme_params(args))
    label = f"{args.scheme} {args.p}x{args.q} nb={nb}"

    # the process backend merges worker-side spans onto the parent
    # timeline (clock-aligned); the other modes record plain spans
    opts = args.options
    tracer = DistributedTracer() if opts.mode == "process" else Tracer()
    stream_on = bool(args.progress or args.events or args.prometheus)
    bus = state = renderer = sampler = None
    metrics = MetricsRegistry()
    if stream_on:
        from .obs import EventBus, LiveState, Sampler

        # --events wants every event of the run in the ring at the
        # end; 4x tasks covers every group's start/done/frontier events
        ntasks = len(pl.graph)
        bus = EventBus(capacity=max(4096, 4 * ntasks))
        state = LiveState(total=ntasks, nb=nb).connect(bus)
        sampler = Sampler(metrics, state).start()
        if args.progress:
            _, _, renderer = _progress_setup(pl, nb, opts, label=label,
                                             bus=bus, state=state)
            renderer.start()
    try:
        execute_graph(pl, tiled, opts, ib=min(args.ib, nb), tracer=tracer,
                      metrics=metrics, bus=bus)
    finally:
        if sampler is not None:
            sampler.stop()
        if renderer is not None:
            renderer.stop()
    if renderer is not None:
        line = _eta_summary(renderer, state)
        if line:
            print(line)
        v = state.view()
        print(f"retired {v['done']}/{v['total']} tasks; "
              f"dashboard events: {bus.published} published, "
              f"{bus.dropped} dropped by the ring")

    sim = None
    if not args.no_sim:
        # Simulate the same DAG with the *measured* per-task kernel
        # times as weights — each kernel's group seconds over its
        # retired tasks — so the simulated lanes share the measured
        # time axis.
        weights = {}
        for k in Kernel:
            secs = metrics.get(f"kernel.seconds.{k.value}")
            done = metrics.get(f"tasks.retired.{k.value}")
            weights[k] = (secs.sum / done.value if secs is not None
                          and done is not None and done.value else 0.0)
        sim = pl.rescaled(weights).schedule(_lanes(opts))

    print(f"profiled {args.scheme} ({args.family}, "
          f"{_kernels(opts, a.dtype)}) on a {m} x {n} matrix, nb={nb}, "
          f"workers={opts.workers}")
    print(f"  tasks            {sum(s.count for s in tracer.spans)}")
    print(f"  makespan         {tracer.makespan() * 1e3:.2f} ms")
    print(f"  worker busy      {tracer.busy_fraction() * 100:.1f} %")
    if sim is not None:
        print(f"  simulated        {sim.makespan * 1e3:.2f} ms on "
              f"{sim.processors} workers (measured-weight schedule)")
    stats = plan_cache_stats()
    print(f"  plan             {'cache hit' if stats['hits'] else 'built'} "
          f"({stats['build_seconds'] * 1e3:.2f} ms building, "
          f"{stats['hits']} cache hits this process)")
    print()
    print(metrics.render(title="execution metrics"))
    print()
    print(PLAN_METRICS.render(title="plan metrics"))
    # six phases per group from a DistributedTracer; queued + computing
    # (the two-phase view) from the plain spans of the other modes
    overhead = None
    if not args.no_analyze or args.overhead_json:
        overhead = overhead_report(
            tracer, graph=pl,
            label=f"{label} ({opts.mode}, workers={opts.workers})")
    if not args.no_analyze:
        from .obs.analyze import (analyze_sim, analyze_tracer,
                                  overlay_diff, render_overlay,
                                  render_report)

        measured = analyze_tracer(tracer)
        print()
        print(render_report(measured, "text"))
        if sim is not None:
            print()
            print(render_overlay(overlay_diff(measured, analyze_sim(sim))))
        print()
        print(render_overhead_report(overhead))
    if args.out:
        write_chrome_trace(args.out, tracer=tracer, sim=sim,
                           sim_time_scale=1e6,
                           problem=getattr(pl, "problem", "qr"))
        print(f"\nChrome trace written to {args.out} "
              "(open in Perfetto / chrome://tracing)")
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            fh.write(metrics.to_json())
        print(f"metrics JSON written to {args.metrics_json}")
    if args.overhead_json:
        import json

        with open(args.overhead_json, "w") as fh:
            json.dump(overhead.to_dict(), fh, indent=1, sort_keys=True)
        print(f"overhead report JSON written to {args.overhead_json}")
    if args.events:
        from .obs.export import write_events_jsonl

        path = write_events_jsonl(args.events, bus.snapshot())
        note = (f"; ring dropped the oldest {bus.dropped}"
                if bus.dropped else "")
        print(f"event log ({bus.published} events{note}) written to {path}")
    if args.prometheus:
        from .obs.export import write_prometheus

        write_prometheus(args.prometheus, metrics)
        print(f"Prometheus metrics written to {args.prometheus}")
    return 0


#: ``repro --help``'s closing lines (tests/test_cli.py parses each one)
_EXAMPLES = """\
examples:
  python -m repro cp greedy 40 10
  python -m repro sweep 'cholesky(t=8)' --processors 1,2,4,8
  python -m repro analyze 'lu(p=8,q=8)' --workers 4
  python -m repro analyze greedy 30 10 --workers 16 --format markdown
  python -m repro trace greedy 15 6 --workers 4 --format chrome
  python -m repro factor --random 400x200 --nb 50 --progress
  python -m repro profile greedy 15 6 --workers 8 --out trace.json
  python -m repro profile greedy 20 10 --nb 48 --progress
  python -m repro profile greedy 16 16 --mode process \\
      --overhead-json overhead.json
  python -m repro profile greedy 15 6 --events events.jsonl.gz
  python -m repro analyze --from-trace events.jsonl.gz
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tiled QR factorization algorithms (Bouwmeester et al., "
                    "SC'11):\nanalysis and execution tools.",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("cp", help="critical path of a scheme")
    _add_grid(p)
    p.set_defaults(fn=_cmd_cp)

    p = sub.add_parser("table", help="zero-out time table")
    _add_grid(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser(
        "sweep",
        help="compare all schemes on a grid, or sweep one problem spec "
             "over processor counts")
    p.add_argument("shape", nargs="+",
                   help="P Q tile-grid integers (scheme comparison) or "
                        "one problem spec such as 'cholesky(t=8)' "
                        "(processor sweep)")
    p.add_argument("--family", default="TT", choices=["TT", "TS"])
    p.add_argument("--processors", default="1,2,4,8,16",
                   help="comma-separated processor counts for the "
                        "problem-spec form")
    p.add_argument("--metrics-json",
                   help="write plan-cache stats + plan metrics JSON here")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("tune", help="PlasmaTree BS exhaustive search")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--family", default="TT", choices=["TT", "TS"])
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("factor", help="factor a matrix and report accuracy")
    p.add_argument("--input", help=".npy file to factor")
    p.add_argument("--random", help="generate a random MxN matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nb", type=int, default=64)
    p.add_argument("--ib", type=int, default=32)
    p.add_argument("--scheme", default="greedy")
    p.add_argument("--family", default="TT", choices=["TT", "TS"])
    _add_exec_flags(p, "factor")
    p.add_argument("--bs", type=int, default=None)
    p.add_argument("--save", help="save the factorization to this .npz")
    p.add_argument("--progress", action="store_true",
                   help="live progress (kernel bars + ETA on a TTY, "
                        "periodic lines otherwise)")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("predict", help="measure kernels, predict GFLOP/s")
    p.add_argument("--nb", type=int, default=64)
    p.add_argument("--cores", type=int, default=48)
    p.add_argument("--p", type=int, default=40)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("recommend", help="pick the best tree for a grid")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--family", default="TT", choices=["TT", "TS"])
    p.add_argument("--cores", type=int, default=None,
                   help="rank by predicted GFLOP/s on this many cores")
    p.add_argument("--gamma", type=float, default=None,
                   help="sequential GFLOP/s (measured if omitted)")
    p.add_argument("--nb", type=int, default=64,
                   help="tile size for the measurement")
    p.set_defaults(fn=_cmd_recommend)

    p = sub.add_parser("coarse", help="coarse-grain step table (Table 2)")
    p.add_argument("algorithm", help="sameh-kuck | fibonacci | greedy")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(fn=_cmd_coarse)

    p = sub.add_parser("optimal",
                       help="exhaustive optimal critical path (small grids)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--band", type=int, default=None,
                   help="banded matrix (the Theorem 1(3) instrument)")
    p.add_argument("--max-leaves", type=int, default=2_000_000)
    p.set_defaults(fn=_cmd_optimal)

    p = sub.add_parser("trace", help="bounded-P schedule trace")
    _add_grid(p)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--priority", default="critical-path")
    p.add_argument("--format", default="gantt",
                   choices=["gantt", "csv", "json", "chrome"])
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "analyze",
        help="schedule analytics of a simulated schedule or a recorded "
             "trace: makespan against the lower bounds (critical path, "
             "work / P, ALAP, 22q - 30), utilization, kernel shares, "
             "critical path, slack")
    _add_grid(p, optional=True)
    p.add_argument("--workers", type=int, default=None,
                   help="processor count (omit for the unbounded ASAP "
                        "schedule)")
    p.add_argument("--priority", default="critical-path")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "markdown"])
    p.add_argument("--from-trace", metavar="FILE",
                   help="analyze an exported Chrome trace or JSONL "
                        "event log (.gz ok) instead of simulating")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "profile",
        help="execute one factorization observed: metrics, schedule "
             "report, per-phase overhead attribution, Chrome trace, "
             "live dashboard")
    _add_grid(p)
    p.add_argument("--nb", type=int, default=64, help="tile size")
    p.add_argument("--ib", type=int, default=32, help="inner blocking")
    _add_exec_flags(p, "profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write Chrome trace-event JSON here")
    p.add_argument("--metrics-json", help="write the metrics snapshot here")
    p.add_argument("--overhead-json", metavar="FILE",
                   help="write the overhead report (per-phase time of "
                        "every task: six phases in process mode, queued "
                        "+ computing otherwise) as JSON here")
    p.add_argument("--no-sim", action="store_true",
                   help="skip the simulated-schedule overlay lanes")
    p.add_argument("--no-analyze", action="store_true",
                   help="skip the schedule report, the measured-vs-"
                        "simulated diff and the overhead report")
    p.add_argument("--progress", action="store_true",
                   help="live dashboard while the factorization runs "
                        "(per-kernel bars, per-worker row, ETA against "
                        "the simulated schedule), then the tasks retired "
                        "and the events published and dropped")
    p.add_argument("--events", metavar="FILE",
                   help="write the event-bus capture as JSONL here "
                        "(.gz = gzipped; readable by analyze "
                        "--from-trace)")
    p.add_argument("--prometheus", metavar="FILE",
                   help="write the metrics registry in Prometheus text "
                        "exposition format here (includes the sampler "
                        "time series)")
    p.set_defaults(fn=_cmd_profile)
    return parser


def render_reference() -> str:
    """docs/cli.md: the ``--help`` text of the parser and of each
    subcommand, as ``COLUMNS=80`` prints it whatever ``$COLUMNS`` says.

    Regenerate the file after editing :func:`build_parser`::

        PYTHONPATH=src python -c "from repro.cli import render_reference; \\
            print(render_reference(), end='')" > docs/cli.md
    """
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    out = ["# CLI reference", "",
           "`python -m repro <command>`; the `repro-qr` console script runs",
           "the same parser.  This file is `repro.cli.render_reference()`:",
           "the `--help` text of the parser and of each subcommand at 80",
           "columns.  Do not edit it by hand: after changing the parser,",
           "regenerate it with", "",
           "```bash",
           "PYTHONPATH=src python -c \"from repro.cli import "
           "render_reference; \\",
           "    print(render_reference(), end='')\" > docs/cli.md",
           "```", "",
           "`tests/test_cli.py` fails while the file differs from the "
           "render.", ""]
    for p in (parser, *sub.choices.values()):
        # argparse wraps at $COLUMNS - 2; pin the 80-column width
        p.formatter_class = functools.partial(p.formatter_class, width=78)
        out += [f"## `{p.prog}`", "", "```text",
                p.format_help().rstrip("\n"), "```", ""]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _EXEC_COMMANDS:
        from .runtime.options import ExecOptions

        args.options = ExecOptions(**{
            f.name: getattr(args, f.name)
            for f in fields(ExecOptions) if f.metadata})
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
