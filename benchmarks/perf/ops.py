"""The benchmark's five workloads, each a fixed list of operations.

An op is one call through the package's public surface:
``DataScalarSystem.run`` on a built program, or one experiment driver
(``run_figure7``/``run_table1``/``run_table2``) on a fresh
``SweepRunner`` with a cold ``ResultCache``.  Every op's output is
checked against ``expected.json``: its committed instruction count
always, and the sha256 of its ``result_fingerprint`` whenever the
output does not depend on the seed.

The caller puts the checkout's ``src`` on ``sys.path`` before importing
this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import DataScalarSystem
from repro.experiments import run_figure7, run_table1, run_table2
from repro.experiments.config import datascalar_config, timing_bus_config
from repro.params import FaultConfig
from repro.runner import ResultCache, SweepRunner, result_fingerprint
from repro.workloads import build_program

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space for the sweep ops' result caches (inside the checkout).
WORK_DIR = HERE / ".work"

#: The seed ``expected.json``'s digests were recorded at.  Only the
#: ``faulty`` workload reads the seed; every other op is deterministic.
DEFAULT_SEED = 0
#: Instruction cap of the warm-up runs that set-up makes: enough to
#: build every program and compile its generated front end.
WARMUP_LIMIT = 200
#: Figure 7's instruction cap in the ``sweep`` workload.
SWEEP_FIGURE7_LIMIT = 16_000

#: ``faulty``'s fault mix (the seed comes from ``--seed``).
FAULT_PROBS = {"drop_prob": 0.02, "receiver_drop_prob": 0.02,
               "corrupt_prob": 0.01, "jitter_prob": 0.05}

SWEEP_DRIVERS = {"figure7": run_figure7, "table1": run_table1,
                 "table2": run_table2}


@dataclass(frozen=True)
class Op:
    """One operation: a DataScalar run (``config`` set) or a sweep
    driver (``config`` None, ``name`` a key of :data:`SWEEP_DRIVERS`)."""

    name: str
    kernel: "str | None" = None
    config: object = None
    limit: "int | None" = None
    #: The output depends on the fault seed, so its digest is pinned
    #: only at :data:`DEFAULT_SEED`.
    seeded: bool = False


@dataclass
class Outcome:
    """What one execution of an op produced, and what it cost."""

    value: object
    wall: float
    #: Committed instructions over the op's timing simulations.
    instructions: int
    #: Σ nodes × cycles over the op's timing simulations.
    node_cycles: int
    #: Σ nodes × committed instructions over the same simulations.
    node_instructions: int
    #: Faults injected (``faulty`` ops only).
    injected: "int | None" = None
    #: The op's runner (sweep ops only), for its ``runner.*`` registry.
    runner: "SweepRunner | None" = None


def _ds(num_nodes: int, cycles_per_bus_cycle: int = 4, **overrides):
    config = datascalar_config(
        num_nodes,
        bus=timing_bus_config(cycles_per_bus_cycle=cycles_per_bus_cycle))
    return dataclasses.replace(config, **overrides) if overrides else config


def workload_ops(workload: str, seed: int = DEFAULT_SEED,
                 limit: "int | None" = None) -> "list[Op]":
    """The op list of ``workload``; ``limit`` caps every op's dynamic
    instructions (the tests' tiny runs), ``None`` runs full kernels."""
    if workload == "membound":
        config = _ds(4, 16)
        return [Op(kernel, kernel, config, limit)
                for kernel in ("compress", "wave5", "mgrid", "turb3d", "go")]
    if workload == "compute":
        config = _ds(2, 1)
        return [Op(kernel, kernel, config, limit)
                for kernel in ("mgrid", "turb3d", "compress", "wave5", "go")]
    if workload == "issue-churn":
        return [Op(f"applu/bus{cycles}", "applu", _ds(4, cycles), limit)
                for cycles in (4, 16)]
    if workload == "faulty":
        faults = FaultConfig(seed=seed, **FAULT_PROBS)
        return [Op(f"{kernel}/{medium}", kernel,
                   _ds(4, interconnect=medium, faults=faults), limit,
                   seeded=True)
                for medium in ("bus", "ring")
                for kernel in ("compress", "wave5", "mgrid")]
    if workload == "sweep":
        return [Op("figure7", limit=SWEEP_FIGURE7_LIMIT
                   if limit is None else limit),
                Op("table1", limit=limit), Op("table2", limit=limit)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("membound", "compute", "issue-churn", "faulty", "sweep")


def execute(op: Op, jobs: int, profile=None) -> Outcome:
    """Run ``op`` once; ``jobs`` sizes a sweep op's process pool, and
    ``profile`` (a ``cProfile.Profile``) is enabled around the op only.

    A sweep op's cache directory is made before and removed after the
    timed region."""
    if op.config is not None:
        program = build_program(op.kernel)
        system = DataScalarSystem(op.config)
        start = time.perf_counter()
        result = _call(profile, system.run, program, limit=op.limit)
        wall = time.perf_counter() - start
        faults = result.extra.get("faults")
        nodes = op.config.num_nodes
        return Outcome(result, wall, result.instructions,
                       nodes * result.cycles, nodes * result.instructions,
                       faults["injected"]["injected"] if faults else None)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as cache_dir:
        runner = SweepRunner(jobs=jobs, cache=ResultCache(cache_dir))
        start = time.perf_counter()
        rows = _call(profile, SWEEP_DRIVERS[op.name], runner=runner,
                     limit=op.limit)
        wall = time.perf_counter() - start
    instructions = node_cycles = node_instructions = 0
    if op.name == "figure7":
        for row in rows:
            ds2, ds4 = row.datascalar2_result, row.datascalar4_result
            instructions += ds2.instructions + ds4.instructions
            # The perfect and traditional points run one pipeline over
            # the same dynamic stream; IPC gives back their cycles.
            node_cycles += 2 * ds2.cycles + 4 * ds4.cycles + sum(
                round(ds2.instructions / ipc) for ipc in (
                    row.perfect_ipc, row.traditional_half_ipc,
                    row.traditional_quarter_ipc))
            node_instructions += 9 * ds2.instructions
    return Outcome(rows, wall, instructions, node_cycles, node_instructions,
                   runner=runner)


def _call(profile, fn, *args, **kwargs):
    if profile is None:
        return fn(*args, **kwargs)
    return profile.runcall(fn, *args, **kwargs)


def setup(workload: str, seed: int = DEFAULT_SEED,
          limit: "int | None" = None) -> "list[Op]":
    """Everything before the first op: program builds, generated-code
    compilation and first-call costs, paid by one tiny run of each op."""
    ops = workload_ops(workload, seed, limit)
    for op in ops:
        execute(dataclasses.replace(op, limit=WARMUP_LIMIT), jobs=1)
    return ops


def digest(value: object) -> str:
    """sha256 of an op output's canonical fingerprint."""
    text = json.dumps(result_fingerprint(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())["ops"]


def expected_entries(workload: str, jobs: int) -> dict:
    """``expected.json`` entries for ``workload`` at the default seed.
    A seeded op's instruction count is its clean run's, and its faulty
    run must commit the same count."""
    entries = {}
    for op in setup(workload):
        outcome = execute(op, jobs)
        if op.seeded:
            clean = dataclasses.replace(
                op, config=dataclasses.replace(op.config, faults=None))
            if execute(clean, jobs).instructions != outcome.instructions:
                raise RuntimeError(f"{workload}/{op.name}: faults changed "
                                   f"the committed instruction count")
        entries[f"{workload}/{op.name}"] = {
            "instructions": outcome.instructions,
            "digest": digest(outcome.value)}
    return entries


def check(key: str, op: Op, outcome: Outcome, seed: int,
          expected: dict) -> "str | None":
    """Why ``outcome`` is wrong, or ``None`` if it is right."""
    entry = expected.get(key)
    if entry is None:
        return f"{key}: no expected entry"
    if outcome.instructions != entry["instructions"]:
        return (f"{key}: committed {outcome.instructions} instructions, "
                f"expected {entry['instructions']}")
    if op.seeded:
        if not outcome.injected:
            return f"{key}: no faults injected"
        if seed != DEFAULT_SEED:
            return None
    if digest(outcome.value) != entry["digest"]:
        return f"{key}: result digest differs from expected.json"
    return None
