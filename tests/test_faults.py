"""Unreliable-broadcast resilience: fault injection and ESP recovery.

The hard invariants under test (ISSUE 3):

* faults *disabled* — config absent or a zero-probability
  ``FaultConfig`` — is bit-identical to the perfect transport, with
  fast-forward on and off;
* faults *enabled* either completes with the identical architectural
  results (committed work) plus visible recovery accounting, or raises a
  typed :class:`~repro.errors.ReproError` subclass — never silently
  wrong, never hung;
* the same seed reproduces the identical fault schedule and result.
"""

import dataclasses

import pytest

from repro.core import DataScalarSystem
from repro.errors import (
    ConfigError,
    FaultError,
    ProtocolError,
    RecoveryExhaustedError,
    SimulationError,
)
from repro.experiments.config import datascalar_config
from repro.faults import FaultPlan, FaultyMedium
from repro.params import FaultConfig
from repro.workloads import build_program

LIMIT = 2_500


def _config(num_nodes=4, interconnect="bus", faults=None,
            fast_forward=True):
    return dataclasses.replace(
        datascalar_config(num_nodes, faults=faults),
        interconnect=interconnect, fast_forward=fast_forward)


def _run(config, workload="compress"):
    return DataScalarSystem(config).run(build_program(workload),
                                        limit=LIMIT)


def _snapshot(result):
    """Every externally-visible number (timing included)."""
    nodes = []
    for node in result.nodes:
        stats = node.pipeline
        fields = dataclasses.asdict(node)
        fields["pipeline"] = {slot: getattr(stats, slot)
                              for slot in stats.__slots__}
        nodes.append(fields)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "bus_transactions": result.bus_transactions,
        "bus_payload_bytes": result.bus_payload_bytes,
        "bus_utilization": result.bus_utilization,
        "nodes": nodes,
    }


def _architecture(result):
    """The timing-independent committed work a faulty run must match."""
    return (result.instructions,
            tuple((n.pipeline.committed, n.pipeline.loads,
                   n.pipeline.stores, n.dropped_stores)
                  for n in result.nodes))


# ----------------------------------------------------------------------
# Faults disabled => bit-identical.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast_forward", [True, False])
@pytest.mark.parametrize("interconnect", ["bus", "ring"])
def test_zero_probability_wrapper_is_bit_identical(interconnect,
                                                   fast_forward):
    """A wrapped-but-quiet fault layer may not change one number."""
    plain = _run(_config(interconnect=interconnect,
                         fast_forward=fast_forward))
    quiet = FaultConfig(seed=3)
    wrapped = _run(_config(interconnect=interconnect, faults=quiet,
                           fast_forward=fast_forward))
    assert _snapshot(wrapped) == _snapshot(plain)
    faults = wrapped.extra["faults"]
    assert faults["seed"] == 3
    assert faults["injected"]["injected"] == 0
    assert faults["recovery"]["recovered"] == 0


# ----------------------------------------------------------------------
# Faults enabled => identical architectural results, visible recovery.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_recovery_preserves_architectural_results(seed):
    baseline = _run(_config())
    faults = FaultConfig(seed=seed, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    faulty = _run(_config(faults=faults))
    assert _architecture(faulty) == _architecture(baseline)
    snap = faulty.extra["faults"]
    injected = snap["injected"]["injected"]
    assert injected > 0
    assert snap["recovery"]["recovered"] == injected
    latency = snap["recovery"]["latency"]
    assert latency["count"] == injected
    assert latency["max"] >= latency["p95"] >= latency["p50"] > 0


def test_recovery_on_ring_medium():
    baseline = _run(_config(interconnect="ring"))
    faulty = _run(_config(
        interconnect="ring",
        faults=FaultConfig(seed=5, receiver_drop_prob=2e-2)))
    assert _architecture(faulty) == _architecture(baseline)
    assert faulty.extra["faults"]["recovery"]["recovered"] > 0


def test_recovery_traffic_raises_reported_utilization():
    """Recovery is accounted, not hidden: the recovery channel's share
    shows up in bus utilization."""
    baseline = _run(_config())
    faulty = _run(_config(
        faults=FaultConfig(seed=2, receiver_drop_prob=5e-2)))
    assert faulty.extra["faults"]["recovery"]["recovered"] > 0
    assert faulty.bus_utilization > baseline.bus_utilization


def test_jitter_and_stalls_alone_cause_no_recovery_traffic():
    """Delay-only faults are absorbed by the BSHR wait path: nothing is
    injected as a loss, so the recovery slow path stays cold."""
    baseline = _run(_config())
    faulty = _run(_config(faults=FaultConfig(
        seed=9, jitter_prob=0.2, max_jitter=8, stall_prob=0.05)))
    assert _architecture(faulty) == _architecture(baseline)
    snap = faulty.extra["faults"]
    assert snap["injected"]["jitter_events"] > 0
    assert snap["injected"]["injected"] == 0
    assert snap["recovery"]["requests"] == 0


# ----------------------------------------------------------------------
# Determinism: the seed is the schedule.
# ----------------------------------------------------------------------
def test_same_seed_reproduces_identical_run():
    config = _config(faults=FaultConfig(seed=13, receiver_drop_prob=2e-2,
                                        corrupt_prob=1e-2))
    first, second = _run(config), _run(config)
    assert _snapshot(first) == _snapshot(second)
    assert first.extra["faults"] == second.extra["faults"]


def test_different_seeds_differ():
    def snap(seed):
        return _run(_config(faults=FaultConfig(
            seed=seed, receiver_drop_prob=5e-2))).extra["faults"]
    assert snap(1) != snap(2)


@pytest.mark.parametrize("interconnect", ["bus", "ring"])
def test_fault_schedule_survives_fast_forward(interconnect):
    """Idle-skipped cycles have no interconnect activity, so the seeded
    draw order — and therefore the whole faulty run — is identical with
    fast-forward on and off."""
    faults = FaultConfig(seed=21, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=1e-2)
    fast = _run(_config(interconnect=interconnect, faults=faults))
    dense = _run(_config(interconnect=interconnect, faults=faults,
                         fast_forward=False))
    assert _snapshot(fast) == _snapshot(dense)
    assert fast.extra["faults"] == dense.extra["faults"]


def test_fault_plan_is_deterministic_per_seed():
    config = FaultConfig(seed=77, receiver_drop_prob=0.3, corrupt_prob=0.2,
                         jitter_prob=0.3, stall_prob=0.1)

    def schedule():
        plan = FaultPlan(config, num_nodes=4)
        return [plan.for_broadcast(src % 4) for src in range(200)]

    assert schedule() == schedule()
    other = FaultPlan(dataclasses.replace(config, seed=78), num_nodes=4)
    assert [other.for_broadcast(s % 4) for s in range(200)] != schedule()


# ----------------------------------------------------------------------
# Typed failures, never hangs.
# ----------------------------------------------------------------------
def test_exhausted_retries_raise_typed_error():
    faults = FaultConfig(seed=1, receiver_drop_prob=1.0, max_retries=2)
    with pytest.raises(RecoveryExhaustedError) as excinfo:
        _run(_config(num_nodes=2, faults=faults))
    assert isinstance(excinfo.value, FaultError)
    assert isinstance(excinfo.value, SimulationError)
    assert "2 retransmit attempts" in str(excinfo.value)


def test_silently_broken_medium_trips_wait_deadline():
    """A medium that loses deliveries *without* telling the fault layer
    violates the delivery contract.  The armed fault layer neither masks
    the loss nor claims it: the starved node trips the pipeline's
    no-commit deadline, a plain typed SimulationError rather than a
    FaultError, and fast-forward reaches it without ticking the stall."""

    class _LossyWrapper:
        def __init__(self, inner):
            self._inner = inner

        def broadcast(self, now, src, line, payload_bytes):
            arrivals = list(self._inner.broadcast(now, src, line,
                                                  payload_bytes))
            victim = (src + 1) % len(arrivals)
            arrivals[victim] = None  # silently never delivered
            return arrivals

        def __getattr__(self, name):
            return getattr(self._inner, name)

    class _BrokenSystem(DataScalarSystem):
        def _make_medium(self):
            return _LossyWrapper(super()._make_medium())

    config = _config(num_nodes=4, faults=FaultConfig(seed=1))
    with pytest.raises(SimulationError) as excinfo:
        _BrokenSystem(config).run(build_program("compress"), limit=LIMIT)
    assert not isinstance(excinfo.value, FaultError)
    assert str(excinfo.value).startswith(
        "no commit for 1000000 cycles at cycle 1000025; ")


def test_fault_config_validation():
    with pytest.raises(ConfigError):
        FaultConfig(drop_prob=1.5)
    with pytest.raises(ConfigError):
        FaultConfig(max_retries=0)
    with pytest.raises(ConfigError):
        FaultConfig(backoff_factor=0)


# ----------------------------------------------------------------------
# Accounting integrity.
# ----------------------------------------------------------------------
def test_validate_final_state_catches_leaked_delivery():
    config = _config(num_nodes=2, faults=FaultConfig(seed=1))
    system = DataScalarSystem(config)
    medium = system._make_medium()
    assert isinstance(medium, FaultyMedium)
    medium.broadcast(0, 0, 0x1000, 32)
    medium.validate_final_state()  # delivered everywhere: fine
    medium._delivered[0][1] -= 1   # simulate a lost-without-recovery leak
    with pytest.raises(ProtocolError):
        medium.validate_final_state()
