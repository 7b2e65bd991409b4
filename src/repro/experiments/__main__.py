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

SIGINT or SIGTERM stops a sweep: workers are torn down, a partial
``status: interrupted`` manifest is written (with ``--report-out``),
and the exit status is 130.  Every point that completed is already in
the cache, so rerunning the same command executes only the rest.  See
docs/runner.md, "Failures and interruption".
"""

from __future__ import annotations

import argparse
import signal
import sys
import traceback

from ..analysis.export import write_csv
from ..runner import (ResultCache, SweepRunner, default_cache_dir,
                      set_default_runner)
from .figure1 import format_figure1, run_figure1
from .figure3 import format_figure3, run_figure3
from .figure7 import format_figure7, run_figure7
from .figure8 import format_figure8, run_figure8
from .scaling import format_scaling, run_scaling
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2
from .table3 import format_table3, run_table3
from .traced import format_traced, run_traced

#: name -> (runner(limit), formatter, exportable-rows?).
EXPERIMENTS = {
    "scaling": (lambda limit: run_scaling(limit=limit), format_scaling,
                True),
    "figure1": (lambda limit: run_figure1(), format_figure1, False),
    "figure3": (lambda limit: run_figure3(limit=limit), format_figure3,
                False),
    "table1": (lambda limit: run_table1(limit=limit), format_table1, True),
    "table2": (lambda limit: run_table2(limit=limit), format_table2, True),
    "table3": (lambda limit: run_table3(limit=limit), format_table3, True),
    "figure7": (lambda limit: run_figure7(limit=limit), format_figure7,
                True),
    "figure8": (lambda limit: run_figure8(limit=limit), format_figure8,
                False),
    "traced-run": (lambda limit: run_traced(limit=limit or 2500),
                   format_traced, False),
}


def _positive(kind):
    """An argparse ``type`` accepting only values of ``kind`` above 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list"],
                        help="which experiment to run")
    parser.add_argument("--limit", type=_positive(int), default=None,
                        help="dynamic-instruction cap per run "
                             "(default: run kernels to completion)")
    parser.add_argument("--jobs", type=_positive(int), default=None,
                        metavar="N",
                        help="worker processes for the sweep runner "
                             "(default: all CPUs; 1 = classic serial "
                             "in-process execution)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result cache "
                             "(every point re-simulates)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")
    parser.add_argument("--csv", default=None,
                        help="also write result rows to this CSV file "
                             "(one row-producing experiment only)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="run under cProfile and dump pstats data "
                             "to PATH (inspect with python -m pstats)")
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
                             "after the sweep")
    parser.add_argument("--sweep-trace-out", default=None, metavar="PATH",
                        help="write every executed point's phase spans as "
                             "one Chrome trace_event JSON with a track per "
                             "worker (open in Perfetto/chrome://tracing)")
    parser.add_argument("--progress", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="live sweep progress line on stderr "
                             "(default: auto — on only when stderr is "
                             "a TTY)")
    parser.add_argument("--point-timeout", type=_positive(float),
                        default=None, metavar="SECONDS",
                        help="fail the sweep if no point completes for "
                             "SECONDS (parallel sweeps: guards against "
                             "hung simulations; default: wait forever)")
    return parser


def run_one(name: str, limit, csv_path=None, trace_out=None,
            metrics_out=None) -> str:
    runner, formatter, exportable = EXPERIMENTS[name]
    if csv_path and not exportable:
        raise SystemExit(f"{name} does not produce exportable rows")
    if name == "traced-run":
        result = run_traced(limit=limit or 2500, trace_out=trace_out,
                            metrics_out=metrics_out)
    else:
        result = runner(limit)
    if csv_path:
        write_csv(csv_path, result)
    return formatter(result)


def _build_runner(args) -> SweepRunner:
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    telemetry = bool(args.report_out or args.sweep_trace_out)
    return SweepRunner(jobs=args.jobs, cache=cache,
                       progress=args.progress, telemetry=telemetry,
                       timeout=args.point_timeout)


def _handle_sigterm(handler):
    """Install ``handler`` for SIGTERM; returns the one it replaced.
    Off the main thread (embedded callers) signals cannot be handled,
    so nothing changes."""
    try:
        return signal.signal(signal.SIGTERM, handler)
    except ValueError:
        return None


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    run_all = args.experiment == "all"
    if args.csv and (run_all or not EXPERIMENTS[args.experiment][2]):
        parser.error(f"--csv needs one row-producing experiment; "
                     f"{args.experiment} is not one")
    names = sorted(EXPERIMENTS) if run_all else [args.experiment]
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    sweep_runner = _build_runner(args)
    previous = set_default_runner(sweep_runner)
    # SIGTERM stops a sweep exactly like Ctrl-C: a KeyboardInterrupt
    # that unwinds through the engine (pool torn down).
    saved_sigterm = _handle_sigterm(signal.default_int_handler)
    failures: "list[tuple[str, BaseException]]" = []
    interrupted = False
    try:
        for name in names:
            try:
                print(run_one(name, args.limit, args.csv,
                              trace_out=args.trace_out,
                              metrics_out=args.metrics_out))
                print()
            except KeyboardInterrupt:
                # Everything completed so far is cached; report, then
                # exit 130 below.
                interrupted = True
                print(f"[interrupted] {name}: rerun the same command "
                      f"to execute only the points not yet cached",
                      file=sys.stderr)
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
        if saved_sigterm is not None:
            _handle_sigterm(saved_sigterm)
        set_default_runner(previous)
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
