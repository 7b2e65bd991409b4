"""Host-speed benchmark of the DataScalar simulator.

One run (what each measurement is made of)::

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

either (``--trace 0``) sets up in three fresh processes (``setup_s``)
and once more in this one, repeats the workload's ops round-robin for T
seconds, and reports the end-to-end metrics; or (``--trace 1``) sets up
and runs the op list under cProfile (plus untraced passes for the
overhead) and reports the per-layer metrics.  Every op's output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

A full record (every workload, N fresh-process runs each, interleaved
round-robin, then one traced run per workload)::

    python3 benchmarks/perf/run.py [--runs N] [--seed S] [--workload W] [--out PATH]

and a comparison of two records::

    python3 benchmarks/perf/run.py compare BASE.json NEW.json

See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import multiprocessing
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import CpuProbes, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "results" / "latest.json"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Ceiling on one child run of the record (its own cap is 180 s).
CHILD_TIMEOUT = 300
#: Seconds to wait for a sweep op's pool workers to be reaped.
REAP_TIMEOUT = 30
#: The record-level metric for failed ops; always 0 on a correct run,
#: so it lives in the record and the ``failed`` field, not in the
#: metric list of ``BENCHMARK.json``.
OPS_FAILED = {"unit": "fraction", "better": "lower", "bound": 0.0}

RECORD_SCHEMA = "datascalar-perf/1"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------
def reap_children() -> None:
    """Wait until every process this one started has ended, so their
    CPU time and peak RSS are accounted (a sweep's pool workers are
    torn down without being joined)."""
    deadline = time.monotonic() + REAP_TIMEOUT
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("sweep workers did not exit")
        time.sleep(0.01)


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user \
        + times.children_system


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its
    set-up for ``workload``, at nominal host speed."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    words = line.split()
    if words[:1] != ["ready"] or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {code})")
    factor, spent = float(words[1]), float(words[2])
    return max(0.0, seconds - spent) * factor


class Run:
    """One run of one workload: its set-up ops, checked as they run."""

    def __init__(self, ops_module, workload: str, seed: int, op_list,
                 expected: dict):
        self.ops = ops_module
        self.workload = workload
        self.seed = seed
        self.op_list = op_list
        self.expected = expected
        self.attempted = 0
        self.failures: "list[str]" = []

    def execute(self, op, jobs: int, profile=None):
        """Run and check ``op``; its outcome and CPU seconds, or
        ``None`` if it failed."""
        key = f"{self.workload}/{op.name}"
        self.attempted += 1
        cpu = cpu_seconds()
        try:
            outcome = self.ops.execute(op, jobs, profile)
        except Exception as exc:  # a failed op is counted, not fatal
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            reap_children()
        cpu = cpu_seconds() - cpu
        error = self.ops.check(key, op, outcome, self.seed, self.expected)
        if error is not None:
            self.failures.append(error)
            return None
        return outcome, cpu

    def timed(self, seconds: float) -> dict:
        """Repeat the ops round-robin for ``seconds`` (at least one full
        pass; no op starts that its previous run says would overrun).
        Metrics are per pass: each op's median over its repetitions,
        in seconds at nominal host speed."""
        jobs = os.cpu_count() or 1
        walls: "dict[str, list[float]]" = {op.name: [] for op in self.op_list}
        cpus: "dict[str, list[float]]" = {op.name: [] for op in self.op_list}
        instructions = {}
        took: "dict[str, float]" = {}
        deadline = time.perf_counter() + seconds
        for index in itertools.count():
            op = self.op_list[index % len(self.op_list)]
            start = time.perf_counter()
            if index >= len(self.op_list) \
                    and start + took[op.name] > deadline:
                break
            # A sweep op's work runs in its pool's worker processes.
            with (CpuProbes() if op.config is None else SpeedProbe()) \
                    as probe:
                done = self.execute(op, jobs)
            took[op.name] = time.perf_counter() - start
            if done is None:
                continue
            outcome, cpu = done
            walls[op.name].append(probe.normalize(outcome.wall))
            cpus[op.name].append(probe.normalize(cpu))
            instructions[op.name] = outcome.instructions
        wall = sum(statistics.median(v) for v in walls.values() if v)
        return {
            "wall_s": wall,
            "cpu_s": sum(statistics.median(v) for v in cpus.values() if v),
            "sim_kips": sum(instructions.values()) / wall / 1000
            if wall else 0.0,
            "peak_rss_mb": max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            / 1024,
        }

    def traced(self, setup_profile) -> dict:
        """Per-layer metrics from one cProfile pass.  Layer self-times
        also cover set-up (``setup_profile``); call counts cover the
        pass alone.  One untraced pass in the traced pass's
        configuration (sweep ops in-process) gives the overhead, and for
        the sweep one pass at full fan-out its parallel efficiency."""
        from layers import LAYERS, Attribution

        efficiency = 0.0
        if self.workload == "sweep":
            jobs = os.cpu_count() or 1
            busy = elapsed = 0.0
            for op in self.op_list:
                done = self.execute(op, jobs)
                if done is not None:
                    registry = done[0].runner.registry
                    busy += sum(registry.histogram(
                        "runner.point_seconds").values)
                    elapsed += jobs * registry.gauge(
                        "runner.wall_seconds").value
            efficiency = busy / elapsed if elapsed else 0.0
        reference = sum(done[0].wall for done in (
            self.execute(op, 1) for op in self.op_list) if done)
        profile = cProfile.Profile()
        outcomes = [done[0] for done in (
            self.execute(op, 1, profile) for op in self.op_list) if done]
        traced_wall = sum(outcome.wall for outcome in outcomes)

        package = SRC / "repro"
        counts = Attribution(pstats.Stats(profile).stats, package).counts()
        both = pstats.Stats(profile).add(setup_profile)
        seconds = Attribution(both.stats, package).self_seconds()
        total = sum(seconds.values())
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = seconds[layer]
            metrics[f"{layer}.share"] = seconds[layer] / total
        metrics.update(counts)
        node_cycles = sum(outcome.node_cycles for outcome in outcomes)
        node_instructions = sum(outcome.node_instructions
                                for outcome in outcomes)
        metrics["cpu.tick_ratio"] = counts["cpu.ticks"] / node_cycles \
            if node_cycles else 0.0
        metrics["cpu.requeues_per_instr"] = (
            counts["cpu.requeues"] / node_instructions
            if node_instructions else 0.0)
        metrics["runner.points_executed"] = sum(
            outcome.runner.registry.counter("runner.points.executed").value
            for outcome in outcomes if outcome.runner is not None)
        metrics["runner.parallel_efficiency"] = efficiency
        metrics["trace.overhead"] = traced_wall / reference \
            if reference else 0.0
        return metrics


def single_run(args) -> int:
    spec = load_spec()
    names = spec["per_layer" if args.trace else "end_to_end"]
    import ops

    if args.trace:
        profile = cProfile.Profile()
        op_list = profile.runcall(ops.setup, args.workload, args.seed)
    else:
        setups = [probe_setup(args.workload, args.seed)
                  for _ in range(SETUP_SAMPLES)]
        op_list = ops.setup(args.workload, args.seed)
    run = Run(ops, args.workload, args.seed, op_list, ops.load_expected())
    if args.trace:
        metrics = run.traced(profile)
    else:
        metrics = run.timed(args.seconds)
        metrics["setup_s"] = statistics.median(setups)
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {}
    for entry in names:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload} {entry['name']} = {value:.6g} "
              f"{entry['unit']}")
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": result}))
    return 1 if run.failures else 0


def setup_probe(args) -> int:
    """Set up once and report the host speed it ran at (the parent
    times this process from its start to the ``ready`` line)."""
    import ops

    with SpeedProbe() as probe:
        ops.setup(args.workload, args.seed)
    print(f"ready {probe.factor!r} {probe.spent!r}", flush=True)
    return 0


# ----------------------------------------------------------------------
# The record: N runs of every workload, then one traced run each.
# ----------------------------------------------------------------------
def child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(entry: dict, values: "list[float]") -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": entry["unit"], "better": entry["better"],
            "bound": entry["bound"], "n": len(values), "values": values,
            "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(median) if median else 0.0}


def make_record(args) -> int:
    spec = load_spec()
    workloads = [args.workload] if args.workload else [
        entry["name"] for entry in spec["workloads"]]
    runs: "dict[str, list[dict]]" = {name: [] for name in workloads}
    for index in range(args.runs):
        for workload in workloads:
            print(f"[perf] run {index + 1}/{args.runs} {workload}",
                  file=sys.stderr, flush=True)
            runs[workload].append(
                child_run(workload, args.seed, args.seconds, 0))
    traced = {}
    for workload in workloads:
        print(f"[perf] traced run {workload}", file=sys.stderr, flush=True)
        traced[workload] = child_run(workload, args.seed, args.seconds, 1)

    record = {
        "schema": RECORD_SCHEMA,
        "stamp": {"cpus": os.cpu_count() or 1,
                  "python": platform.python_version(),
                  "git_sha": git_sha(), "runs": args.runs,
                  "seed": args.seed, "seconds": args.seconds},
        "workloads": {},
    }
    any_failed = False
    for workload in workloads:
        results = runs[workload] + [traced[workload]]
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        any_failed = any_failed or failed > 0
        end_to_end = {}
        for entry in spec["end_to_end"]:
            values = [result["metrics"][entry["name"]]["value"]
                      for result in runs[workload]
                      if entry["name"] in result["metrics"]]
            if values:
                end_to_end[entry["name"]] = summarize(entry, values)
        end_to_end["ops_failed_frac"] = summarize(
            OPS_FAILED, [result["failed"] / result["attempted"]
                         for result in runs[workload]])
        record["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced[workload]["metrics"],
        }
    print(format_record(record))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"[perf] record written to {out}", file=sys.stderr)
    return 1 if any_failed else 0


def format_record(record: dict) -> str:
    lines = []
    for workload, data in record["workloads"].items():
        lines.append(f"{workload}: {data['attempted']} ops attempted, "
                     f"{data['failed']} failed")
        for name, entry in data["end_to_end"].items():
            lines.append(f"  {name:<16} median {entry['median']:.6g} "
                         f"{entry['unit']}  IQR {entry['q1']:.6g}.."
                         f"{entry['q3']:.6g}  (n={entry['n']})")
        for name, entry in data["per_layer"].items():
            lines.append(f"  {name:<34} {entry['value']:.6g} "
                         f"{entry['unit']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Host-speed benchmark of the DataScalar simulator.")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault seed of the faulty workload")
    parser.add_argument("--seconds", type=int,
                        help="measured seconds per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="make one run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload in a record")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write the record")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def write_expected() -> int:
    """Re-record ``expected.json`` (after a change that is meant to
    alter simulated results)."""
    import ops

    entries = {}
    for workload in ops.WORKLOADS:
        entries.update(ops.expected_entries(workload, os.cpu_count() or 1))
        reap_children()
    ops.EXPECTED_PATH.write_text(json.dumps(
        {"seed": ops.DEFAULT_SEED, "ops": entries}, indent=1,
        sort_keys=True) + "\n")
    return 0


def import_package() -> bool:
    """Put the checkout's ``src`` first on ``sys.path`` and import the
    package from it; False (with a message) if that is impossible."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'repro'}; run from a "
              f"full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"run.py: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["expect"]:
        return write_expected() if import_package() else 2
    args = parse_args(argv)
    if not import_package():
        return 2
    import ops

    if args.workload is not None and args.workload not in ops.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; known: "
              f"{', '.join(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.setup_probe:
        return setup_probe(args)
    if args.trace is not None:
        if args.workload is None:
            print("run.py: --trace needs --workload", file=sys.stderr)
            return 2
        return single_run(args)
    return make_record(args)


if __name__ == "__main__":
    sys.exit(main())
