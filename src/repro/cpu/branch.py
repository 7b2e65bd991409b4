"""Branch predictors: the substrate of the perfect-prediction assumption.

The paper assumes perfect branch prediction ("modern branch predictors
are already quite accurate ... we have no way of knowing what prediction
techniques will be prevalent in future processors") and notes the
correspondence protocol does not yet support speculative broadcasts.
This module supplies the substrate that assumption replaces: static,
bimodal, and gshare predictors, selected by
``CPUConfig.branch_predictor``.
"""

from __future__ import annotations

from ..errors import ConfigError


class BranchPredictor:
    """Interface: predict, then train with the actual outcome."""

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def train(self, pc: int, taken: bool) -> None:
        raise NotImplementedError


class StaticTakenPredictor(BranchPredictor):
    """Always predicts taken (backward-branch-dominated loop codes)."""

    def predict(self, pc: int) -> bool:
        return True

    def train(self, pc: int, taken: bool) -> None:
        pass


class BimodalPredictor(BranchPredictor):
    """Classic table of 2-bit saturating counters indexed by PC."""

    def __init__(self, entries: int = 2048):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("entries must be a positive power of two")
        self.entries = entries
        self._counters = [2] * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def train(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        else:
            if counter > 0:
                self._counters[index] = counter - 1


class GSharePredictor(BranchPredictor):
    """Global-history predictor: PC xor history indexes the counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 10):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("entries must be a positive power of two")
        if history_bits < 1:
            raise ConfigError("history_bits must be >= 1")
        self.entries = entries
        self.history_bits = history_bits
        self._counters = [2] * entries
        self._history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def train(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        else:
            if counter > 0:
                self._counters[index] = counter - 1
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & mask

