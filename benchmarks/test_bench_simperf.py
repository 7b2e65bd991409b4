"""Benchmark: simulator wall-clock speed (scheduler + front-end paths).

Times :meth:`DataScalarSystem.run` on a memory-bound four-node
configuration — ``compress`` over the slow-bus Figure 8 sweep point
(16 processor cycles per bus cycle) — on three rungs of the optimization
ladder:

* **dense**: the pre-optimization scheduler (one interpreter per node,
  ``fast_forward=False``);
* **interpreter**: shared trace fan-out + idle-cycle fast-forward, the
  classic interpreter front end (``engine="interpreter"``);
* **codegen**: the same scheduler fed by the program-specialized
  generated stepper (``engine="codegen"``, :mod:`repro.isa.codegen`).

All three must produce bit-identical results.  The full-system speedup
lives mostly in the scheduler (the functional front end is a few percent
of a timing run — Amdahl caps what codegen can add there), so the
front-end win is measured where it actually accrues: a micro-benchmark
of the two engines generating the same dynamic stream, at both the
``trace`` grain (what the timing models consume) and the ``run`` grain
(pure functional execution, as in trace-level studies).

``BENCH_simperf.json`` at the repo root records the measured numbers;
regenerate it on a quiet machine with ``REPRO_WRITE_BENCH=1``.
"""

import dataclasses
import json
import os
import pathlib
import time
from collections import deque

from conftest import QUICK_TIMING_LIMIT, full_run, run_once

from repro.core import DataScalarSystem
from repro.experiments.config import datascalar_config, timing_bus_config
from repro.isa.codegen import CompiledExecution
from repro.isa.interpreter import Interpreter
from repro.workloads import build_program

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_simperf.json"
WORKLOAD = "compress"
NUM_NODES = 4
#: Figure 8's slowest bus clock: the wait-dominated regime where the
#: dense scheduler burns most of its time ticking idle pipelines.
CYCLES_PER_BUS_CYCLE = 16
#: Minimum full-system speedup of the optimized scheduler (codegen
#: front end, the default) over the dense one.  Measured ~2.3-2.5x
#: with the specialized timing loop (see BENCH_simperf.json); asserted
#: with headroom for machine variance.  ``REPRO_MIN_SPEEDUP``
#: overrides the floor (CI's bench smoke raises it).
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_SPEEDUP", "1.5"))
#: Minimum front-end speedup of the generated stepper over the
#: interpreter at the ``run`` grain (measured ~3.6x) and the ``trace``
#: grain (measured ~2.1x).  Overridable for noisy machines.
MIN_RUN_SPEEDUP = float(os.environ.get("REPRO_MIN_RUN_SPEEDUP", "2.0"))
MIN_TRACE_SPEEDUP = float(os.environ.get("REPRO_MIN_TRACE_SPEEDUP", "1.3"))
#: Micro-benchmark repetitions (best-of, to shed scheduler noise).
FRONTEND_REPS = 5


class _DenseSystem(DataScalarSystem):
    """The pre-optimization scheduler (see tests/test_fastforward_equivalence)."""

    def _make_trace(self, program, node_id, limit):
        return Interpreter(program).trace(limit=limit)


def _key(result):
    return (result.cycles, result.instructions, result.bus_transactions,
            result.bus_payload_bytes)


def _best_of(fn, reps=FRONTEND_REPS):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _frontend_series(program, limit):
    """Best-of times for both engines at both grains, plus parity."""
    drain = deque(maxlen=0)  # cheapest way to exhaust a generator
    # Warm once: program build and codegen compile are memoized per
    # process; steady-state generation speed is what sweeps see.
    drain.extend(CompiledExecution(program).trace(limit=limit))
    interp_trace = _best_of(
        lambda: drain.extend(Interpreter(program).trace(limit=limit)))
    codegen_trace = _best_of(
        lambda: drain.extend(CompiledExecution(program).trace(limit=limit)))
    interp_run = _best_of(lambda: Interpreter(program).run(limit=limit))
    codegen_run = _best_of(
        lambda: CompiledExecution(program).run(limit=limit))
    assert (CompiledExecution(program).run(limit=limit)
            == Interpreter(program).run(limit=limit))
    return {
        "trace": {
            "interpreter_seconds": round(interp_trace, 4),
            "codegen_seconds": round(codegen_trace, 4),
            "speedup": round(interp_trace / codegen_trace, 3),
        },
        "run": {
            "interpreter_seconds": round(interp_run, 4),
            "codegen_seconds": round(codegen_run, 4),
            "speedup": round(interp_run / codegen_run, 3),
        },
    }


def test_simperf_speedup(benchmark):
    limit = None if full_run() else QUICK_TIMING_LIMIT
    program = build_program(WORKLOAD)
    config = datascalar_config(
        num_nodes=NUM_NODES,
        bus=timing_bus_config(cycles_per_bus_cycle=CYCLES_PER_BUS_CYCLE))
    program_dense = build_program(WORKLOAD)

    start = time.perf_counter()
    dense = _DenseSystem(
        dataclasses.replace(config, fast_forward=False)).run(
            program_dense, limit=limit)
    dense_seconds = time.perf_counter() - start

    start = time.perf_counter()
    interp = DataScalarSystem(
        dataclasses.replace(config, engine="interpreter")).run(
            program, limit=limit)
    interpreter_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = run_once(benchmark, DataScalarSystem(
        dataclasses.replace(config, engine="codegen")).run,
        program, limit=limit)
    fast_seconds = time.perf_counter() - start

    assert _key(fast) == _key(dense)
    assert _key(fast) == _key(interp)
    speedup = dense_seconds / fast_seconds
    frontend = _frontend_series(program, limit)
    record = {
        "workload": WORKLOAD,
        "num_nodes": NUM_NODES,
        "interconnect": "bus",
        "cycles_per_bus_cycle": CYCLES_PER_BUS_CYCLE,
        "limit": limit,
        "cpus": os.cpu_count() or 1,
        "cycles": fast.cycles,
        "instructions": fast.instructions,
        "dense_seconds": round(dense_seconds, 4),
        "interpreter_seconds": round(interpreter_seconds, 4),
        "optimized_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 3),
        "engine_speedup": round(interpreter_seconds / fast_seconds, 3),
        "frontend": frontend,
    }
    print()
    print(json.dumps(record, indent=2))
    if os.environ.get("REPRO_WRITE_BENCH", "") == "1":
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")
        return
    if limit == QUICK_TIMING_LIMIT and BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        # The committed baseline documents the acceptance measurement;
        # cycle counts are deterministic and must match it exactly.
        assert baseline["cycles"] == fast.cycles
        assert baseline["instructions"] == fast.instructions
        assert baseline["speedup"] >= 2.0
        assert baseline["frontend"]["run"]["speedup"] >= 3.0
    assert speedup >= MIN_SPEEDUP, (
        f"optimized scheduler only {speedup:.2f}x faster than dense "
        f"({fast_seconds:.3f}s vs {dense_seconds:.3f}s)")
    assert frontend["run"]["speedup"] >= MIN_RUN_SPEEDUP, (
        f"generated stepper only {frontend['run']['speedup']:.2f}x faster "
        f"than the interpreter at the run grain")
    assert frontend["trace"]["speedup"] >= MIN_TRACE_SPEEDUP, (
        f"generated stepper only {frontend['trace']['speedup']:.2f}x "
        f"faster than the interpreter at the trace grain")
