"""Resilience sweep tests — also the CI fault-matrix entry point.

The CI workflow runs this file across a matrix of seeds and media
(``FAULT_SEED`` × ``FAULT_MEDIUM`` environment variables) so any
nondeterminism or medium-specific breakage in the fault path is caught
on every change.  Unset, the defaults exercise seed 11 on the bus.
"""

import os

import pytest

from repro.experiments import (
    DROP_PROBS,
    fault_config_for,
    format_resilience,
    run_resilience,
)

SEED = int(os.environ.get("FAULT_SEED", "11"))
MEDIUM = os.environ.get("FAULT_MEDIUM", "bus")
LIMIT = 1_500


@pytest.fixture(scope="module")
def sweep():
    return run_resilience(limit=LIMIT, num_nodes=4, seeds=(SEED,),
                          drop_probs=(0.0, 1e-3, 1e-2),
                          interconnect=MEDIUM)


def test_sweep_shape(sweep):
    assert [p.drop_prob for p in sweep] == [0.0, 1e-3, 1e-2]
    assert all(p.interconnect == MEDIUM for p in sweep)
    assert sweep[0].seed == 0 and sweep[0].slowdown == 1.0
    assert all(p.seed == SEED for p in sweep[1:])


def test_architecture_identical_at_every_point(sweep):
    """Graceful degradation: committed work never changes, only timing
    and recovery traffic."""
    assert all(p.identical_architecture for p in sweep)


def test_faults_are_injected_and_recovered(sweep):
    faulty = [p for p in sweep if p.drop_prob > 0]
    assert sum(p.injected for p in faulty) > 0
    assert all(p.recovered == p.injected for p in faulty)
    # Slowdown is usually >= 1 but not guaranteed: shifted arrival times
    # can perturb oldest-ready-first issue scheduling
    # non-monotonically, so only bound it.
    assert all(0.5 < p.slowdown < 10.0 for p in faulty)


def test_sweep_is_reproducible(sweep):
    again = run_resilience(limit=LIMIT, num_nodes=4, seeds=(SEED,),
                           drop_probs=(0.0, 1e-3, 1e-2),
                           interconnect=MEDIUM)
    assert again == sweep


def test_format_resilience_renders(sweep):
    text = format_resilience(sweep)
    assert "Resilience" in text
    assert "slowdown" in text
    assert "NO" not in text.splitlines()[0]  # arch-ok column header fine


def test_default_sweep_constants():
    assert DROP_PROBS[0] == 0.0
    assert list(DROP_PROBS) == sorted(DROP_PROBS)
    config = fault_config_for(1e-3, seed=SEED)
    assert config.seed == SEED
    assert config.receiver_drop_prob == pytest.approx(1e-3)
    assert config.injects_anything
