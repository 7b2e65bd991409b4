"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table1 [--limit N] [--csv out.csv]
    python -m repro.experiments figure7 --limit 12000 --jobs 4
    python -m repro.experiments all --limit 10000

Simulations fan out over ``--jobs`` worker processes and completed
points land in a content-addressed on-disk cache, so a warm re-run of
``all`` skips simulation entirely (see docs/runner.md).  ``--jobs 1
--no-cache`` is exactly the classic serial path.

Long sweeps are crash-safe: ``--journal PATH`` writes a durable
write-ahead log of sweep progress, SIGINT/SIGTERM stop the sweep
gracefully (journal flushed, partial ``status: interrupted`` manifest
written, exit 130; a second signal hard-kills), and ``--resume PATH``
picks the sweep back up, re-executing only what never finished.  See
docs/runner.md, "Crash safety, resume, and chaos testing".
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import traceback

from ..analysis.export import write_csv
from ..errors import SweepInterruptedError
from ..runner import (ResultCache, SweepJournal, SweepRunner,
                      default_cache_dir, set_default_runner)
from .figure1 import format_figure1, run_figure1
from .figure3 import format_figure3, run_figure3
from .figure7 import format_figure7, run_figure7
from .figure8 import format_figure8, run_figure8
from .resilience import DROP_PROBS, format_resilience, run_resilience
from .scaling import format_scaling, run_scaling
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2
from .table3 import format_table3, run_table3
from .traced import format_traced, run_traced

#: name -> (runner(limit, engine), formatter, exportable-rows?).
#: ``engine`` is the ``--engine`` functional-front-end override; the
#: analytic/trace experiments that never build a DataScalar system
#: (figure1, table2, resilience, traced-run) simply ignore it.
EXPERIMENTS = {
    "scaling": (lambda limit, engine: run_scaling(limit=limit,
                                                  engine=engine),
                format_scaling, True),
    "figure1": (lambda limit, engine: run_figure1(), format_figure1,
                False),
    "figure3": (lambda limit, engine: run_figure3(limit=limit,
                                                  engine=engine),
                format_figure3, False),
    "table1": (lambda limit, engine: run_table1(limit=limit,
                                                engine=engine),
               format_table1, True),
    "table2": (lambda limit, engine: run_table2(limit=limit),
               format_table2, True),
    "table3": (lambda limit, engine: run_table3(limit=limit,
                                                engine=engine),
               format_table3, True),
    "figure7": (lambda limit, engine: run_figure7(limit=limit,
                                                  engine=engine),
                format_figure7, True),
    "figure8": (lambda limit, engine: run_figure8(limit=limit,
                                                  engine=engine),
                format_figure8, False),
    "resilience": (lambda limit, engine: run_resilience(limit=limit or 2500),
                   format_resilience, True),
    "traced-run": (lambda limit, engine: run_traced(limit=limit or 2500),
                   format_traced, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list"],
                        help="which experiment to run")
    parser.add_argument("--limit", type=int, default=None,
                        help="dynamic-instruction cap per run "
                             "(default: run kernels to completion)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the sweep runner "
                             "(default: all CPUs; 1 = classic serial "
                             "in-process execution)")
    parser.add_argument("--engine", default=None,
                        choices=("interpreter", "codegen"),
                        help="functional front end for the simulated "
                             "points (default: each config's own choice, "
                             "normally auto = codegen with interpreter "
                             "fallback); rides on SweepPoint.knobs so "
                             "both engines cache as distinct results")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result cache "
                             "(every point re-simulates)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")
    parser.add_argument("--csv", default=None,
                        help="also write result rows to this CSV file "
                             "(row-producing experiments only)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="run under cProfile and dump pstats data "
                             "to PATH (inspect with python -m pstats)")
    parser.add_argument("--fault-seed", type=int, default=11,
                        metavar="SEED",
                        help="fault-injection RNG seed for the resilience "
                             "experiment (same seed => identical fault "
                             "schedule and result)")
    parser.add_argument("--drop-prob", type=float, default=None,
                        metavar="P",
                        help="run the resilience experiment at this single "
                             "per-receiver drop probability instead of the "
                             "default sweep")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="traced-run only: write the event stream to "
                             "PATH — Chrome trace_event JSON (open in "
                             "Perfetto), or JSONL when PATH ends in .jsonl")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="traced-run only: write the metrics report "
                             "to PATH as text")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help="write a run manifest (JSON: environment, "
                             "code version, per-point wall/CPU/phase "
                             "breakdown, cache state, metrics snapshot) "
                             "after the sweep; gate it with "
                             "python -m repro.obs.baseline")
    parser.add_argument("--sweep-trace-out", default=None, metavar="PATH",
                        help="write every executed point's phase spans as "
                             "one Chrome trace_event JSON with a track per "
                             "worker (open in Perfetto/chrome://tracing)")
    parser.add_argument("--progress", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="live sweep progress line on stderr "
                             "(default: auto — on only when stderr is "
                             "a TTY)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-execute a failed sweep point up to N "
                             "times before the sweep reports it "
                             "(default: 0 — fail on first error)")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="fail the sweep if no point completes for "
                             "SECONDS (parallel sweeps: guards against "
                             "hung simulations; default: wait forever)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="write a durable sweep journal (fsync'd "
                             "JSONL write-ahead log) at PATH; an "
                             "existing journal there is rotated aside "
                             "first — use --resume to continue one")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume an interrupted sweep from its "
                             "journal at PATH: points the journal marks "
                             "done are replayed from the result cache, "
                             "only the remainder re-executes (requires "
                             "the cache; incompatible with --no-cache "
                             "and --journal)")
    return parser


def run_one(name: str, limit, csv_path=None, fault_seed: int = 11,
            drop_prob=None, trace_out=None, metrics_out=None,
            engine=None) -> str:
    runner, formatter, exportable = EXPERIMENTS[name]
    if name == "resilience":
        probs = DROP_PROBS if drop_prob is None else (0.0, drop_prob)
        result = run_resilience(limit=limit or 2500, seeds=(fault_seed,),
                                drop_probs=probs)
    elif name == "traced-run":
        result = run_traced(limit=limit or 2500, trace_out=trace_out,
                            metrics_out=metrics_out)
    else:
        result = runner(limit, engine)
    if csv_path:
        if not exportable:
            raise SystemExit(f"{name} does not produce exportable rows")
        write_csv(csv_path, result)
    return formatter(result)


def _build_runner(args) -> SweepRunner:
    if args.resume and args.journal:
        raise SystemExit("--resume already appends to the journal at its "
                         "PATH; drop --journal")
    if args.resume and args.no_cache:
        raise SystemExit("--resume replays finished points from the result "
                         "cache; drop --no-cache")
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    journal = None
    if args.resume:
        journal = SweepJournal.resume(args.resume)
        state = journal.state
        print(f"[journal] resuming {args.resume}: {len(state.done)} done, "
              f"{len(state.outstanding())} in flight at interruption, "
              f"{len(state.failed)} failed, "
              f"{len(state.quarantined)} quarantined",
              file=sys.stderr)
    elif args.journal:
        journal = SweepJournal.create(args.journal)
        if journal.rotated:
            print(f"[journal] rotated existing {args.journal} aside",
                  file=sys.stderr)
    telemetry = bool(args.report_out or args.sweep_trace_out)
    return SweepRunner(jobs=args.jobs, cache=cache,
                       progress=args.progress, telemetry=telemetry,
                       timeout=args.point_timeout, retries=args.retries,
                       journal=journal)


def _install_signal_handlers(runner) -> "dict[int, object]":
    """First SIGINT/SIGTERM cancels the sweep gracefully (journal and
    cache keep everything already finished); a second one hard-kills.
    Returns the handlers that were replaced, for restoration."""
    state = {"signals": 0}

    def handler(signum, frame):
        state["signals"] += 1
        if state["signals"] >= 2:
            os._exit(128 + signum)
        runner.request_cancel()
        print(f"\n[sweep] {signal.Signals(signum).name} received — "
              f"stopping at the next scheduler round; completed points "
              f"are journaled (signal again to hard-kill)",
              file=sys.stderr)

    previous: "dict[int, object]" = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except ValueError:
            pass  # not the main thread (embedded callers): no handlers
    return previous


def _restore_signal_handlers(previous: "dict[int, object]") -> None:
    for signum, old in previous.items():
        try:
            signal.signal(signum, old)
        except ValueError:
            pass


def _write_reports(args, sweep_runner, status: str = "complete") -> None:
    """``--report-out`` / ``--sweep-trace-out`` output, after the sweep."""
    if args.report_out:
        from ..runner.manifest import RunManifest

        manifest = RunManifest.from_runner(sweep_runner, status=status)
        manifest.write(args.report_out)
        print(f"{manifest.summary()} -> {args.report_out}",
              file=sys.stderr)
    if args.sweep_trace_out:
        from ..obs.export import write_spans_chrome_trace
        from ..runner.telemetry import worker_tracks

        tracks = worker_tracks(sweep_runner.point_telemetry)
        write_spans_chrome_trace(args.sweep_trace_out, tracks)
        events = sum(len(records) for _, records in tracks)
        print(f"[sweep-trace] {len(tracks)} worker track(s), "
              f"{events} span(s) -> {args.sweep_trace_out}",
              file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    run_all = args.experiment == "all"
    names = sorted(EXPERIMENTS) if run_all else [args.experiment]
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    sweep_runner = _build_runner(args)
    previous = set_default_runner(sweep_runner)
    saved_signals = _install_signal_handlers(sweep_runner)
    failures: "list[tuple[str, BaseException]]" = []
    interrupted = False
    try:
        for name in names:
            try:
                print(run_one(name, args.limit,
                              args.csv if len(names) == 1 else None,
                              fault_seed=args.fault_seed,
                              drop_prob=args.drop_prob,
                              trace_out=args.trace_out,
                              metrics_out=args.metrics_out,
                              engine=args.engine))
                print()
            except SweepInterruptedError as exc:
                # Graceful cancellation: everything completed so far is
                # journaled and cached; report, then exit 130 below.
                interrupted = True
                print(f"[interrupted] {name}: {exc}", file=sys.stderr)
                break
            except Exception as exc:
                # Under `all`, one broken experiment must not take the
                # rest of the batch down with it.
                if not run_all:
                    raise
                failures.append((name, exc))
                traceback.print_exc()
                print(f"[failed] {name}: {exc}", file=sys.stderr)
                print()
    finally:
        _restore_signal_handlers(saved_signals)
        set_default_runner(previous)
        if sweep_runner.journal is not None:
            sweep_runner.journal.close()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile} "
                  f"(inspect with: python -m pstats {args.profile})",
                  file=sys.stderr)
    print(sweep_runner.summary())
    _write_reports(args, sweep_runner,
                   status="interrupted" if interrupted else "complete")
    if interrupted:
        journal_path = args.resume or args.journal
        if journal_path:
            print(f"[sweep] resume with: python -m repro.experiments "
                  f"{args.experiment} --resume {journal_path}",
                  file=sys.stderr)
        return 130
    if failures:
        failed = ", ".join(name for name, _ in failures)
        print(f"[failed] {len(failures)} of {len(names)} experiments: "
              f"{failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
