"""Tests for the branch-predictor substrate."""

import pytest

from repro.cpu import (
    BimodalPredictor,
    GSharePredictor,
    StaticTakenPredictor,
)
from repro.errors import ConfigError


def test_static_taken_predictor():
    predictor = StaticTakenPredictor()
    assert predictor.predict(0x400000) is True
    predictor.train(0x400000, False)
    assert predictor.predict(0x400000) is True


def test_bimodal_learns_a_biased_branch():
    predictor = BimodalPredictor(entries=64)
    pc = 0x400100
    for _ in range(4):
        predictor.train(pc, False)
    assert predictor.predict(pc) is False
    for _ in range(4):
        predictor.train(pc, True)
    assert predictor.predict(pc) is True


def test_bimodal_counters_saturate():
    predictor = BimodalPredictor(entries=64)
    pc = 0x400100
    for _ in range(100):
        predictor.train(pc, True)
    predictor.train(pc, False)  # one blip must not flip a saturated entry
    assert predictor.predict(pc) is True


def test_gshare_distinguishes_history_patterns():
    """An alternating branch is near-perfect for gshare, hopeless for
    bimodal."""
    gshare = GSharePredictor(entries=256, history_bits=4)
    pc = 0x400200
    correct = 0
    taken = True
    for i in range(200):
        if gshare.predict(pc) == taken:
            correct += 1
        gshare.train(pc, taken)
        taken = not taken
    assert correct / 200 > 0.9


@pytest.mark.parametrize("cls,kwargs", [
    (BimodalPredictor, {"entries": 100}),
    (GSharePredictor, {"entries": 100}),
    (GSharePredictor, {"entries": 64, "history_bits": 0}),
])
def test_predictor_validation(cls, kwargs):
    with pytest.raises(ConfigError):
        cls(**kwargs)

