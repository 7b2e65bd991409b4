"""Unit tests for traffic accounting, statistics, and the cost model."""

import pytest

from repro.analysis import (
    CostModel,
    TrafficReport,
    arithmetic_mean,
    format_percent,
    format_table,
    geometric_mean,
    harmonic_mean,
    measure_esp_traffic,
    speedup,
)
from repro.analysis.stats import RunningMean
from repro.errors import ConfigError
from repro.isa import ProgramBuilder
from repro.params import CacheConfig


# ----------------------------------------------------------------------
# TrafficReport arithmetic.
# ----------------------------------------------------------------------
def test_traffic_report_conventional_vs_esp_bytes():
    report = TrafficReport(misses=100, writebacks=50, accesses=1000,
                           line_size=32, tag_bytes=8)
    assert report.conventional_bytes == 100 * 8 + 100 * 40 + 50 * 40
    assert report.esp_bytes == 100 * 40
    assert 0 < report.bytes_eliminated < 1


def test_transaction_elimination_is_at_least_half():
    """No requests are sent, so at least half the transactions vanish."""
    for writebacks in (0, 10, 100):
        report = TrafficReport(misses=100, writebacks=writebacks,
                               accesses=1000, line_size=32)
        assert report.transactions_eliminated >= 0.5


def test_more_writebacks_means_more_elimination():
    low = TrafficReport(misses=100, writebacks=10, accesses=0, line_size=32)
    high = TrafficReport(misses=100, writebacks=90, accesses=0, line_size=32)
    assert high.bytes_eliminated > low.bytes_eliminated
    assert high.transactions_eliminated > low.transactions_eliminated


def test_empty_report_is_zero():
    report = TrafficReport(misses=0, writebacks=0, accesses=0, line_size=32)
    assert report.bytes_eliminated == 0.0
    assert report.transactions_eliminated == 0.0


# ----------------------------------------------------------------------
# measure_esp_traffic end to end.
# ----------------------------------------------------------------------
def _rw_program(words=4096):
    b = ProgramBuilder()
    arr = b.alloc_global("arr", words * 4)
    b.li("r1", arr)
    with b.repeat(words, "r3"):
        b.lw("r4", "r1", 0)
        b.addi("r4", "r4", 1)
        b.sw("r4", "r1", 0)
        b.addi("r1", "r1", 4)
    b.halt()
    return b.build()


def test_measure_esp_traffic_counts_misses_and_writebacks():
    cache = CacheConfig(size_bytes=1024, assoc=2, line_size=32,
                        write_allocate=True)
    report = measure_esp_traffic(_rw_program(), cache_config=cache)
    # Streaming read+write over 16KB with a 1KB cache: every line misses
    # once and is evicted dirty.
    assert report.misses >= 4096 * 4 // 32
    assert report.writebacks > 0
    assert 0.4 < report.transactions_eliminated <= 0.75
    assert 0.2 < report.bytes_eliminated < 0.6


def test_measure_esp_traffic_respects_limit():
    small = measure_esp_traffic(_rw_program(), limit=100)
    full = measure_esp_traffic(_rw_program())
    assert small.accesses < full.accesses


# ----------------------------------------------------------------------
# Statistics helpers.
# ----------------------------------------------------------------------
def test_means():
    assert arithmetic_mean([1, 2, 3]) == 2.0
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert harmonic_mean([1, 1]) == pytest.approx(1.0)
    assert arithmetic_mean([]) == 0.0
    assert geometric_mean([]) == 0.0
    assert harmonic_mean([]) == 0.0


def test_geometric_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_running_mean():
    running = RunningMean()
    for value in (1.0, 3.0, 5.0):
        running.add(value)
    assert running.mean == 3.0
    assert running.minimum == 1.0
    assert running.maximum == 5.0
    assert RunningMean().mean == 0.0


def test_speedup():
    assert speedup(200, 100) == 2.0
    with pytest.raises(ValueError):
        speedup(100, 0)


# ----------------------------------------------------------------------
# Cost model.
# ----------------------------------------------------------------------
def test_costup_grows_sublinearly_when_memory_dominates():
    model = CostModel(processor_cost=1.0, memory_cost=10.0,
                      overhead_cost=0.0)
    assert model.costup(1) == 1.0
    assert model.costup(4) < 4.0
    assert model.costup(2) < model.costup(4)


def test_cost_effectiveness_criterion():
    model = CostModel(processor_cost=1.0, memory_cost=10.0)
    costup = model.costup(2)
    assert model.is_cost_effective(2, speedup=costup + 0.1)
    assert not model.is_cost_effective(2, speedup=costup - 0.1)
    assert model.breakeven_speedup(2) == costup


def test_replication_raises_cost():
    none = CostModel(memory_cost=10.0, replicated_fraction=0.0)
    some = CostModel(memory_cost=10.0, replicated_fraction=0.5)
    assert some.system_cost(4) > none.system_cost(4)


def test_cost_model_validation():
    with pytest.raises(ConfigError):
        CostModel(processor_cost=-1)
    with pytest.raises(ConfigError):
        CostModel(replicated_fraction=1.5)
    with pytest.raises(ConfigError):
        CostModel().system_cost(0)
    with pytest.raises(ConfigError):
        CostModel().is_cost_effective(2, speedup=0)


# ----------------------------------------------------------------------
# Report formatting.
# ----------------------------------------------------------------------
def test_format_table_alignment_and_title():
    text = format_table(["name", "ipc"], [["go", 1.25], ["compress", 2.0]],
                        title="Figure 7")
    lines = text.splitlines()
    assert lines[0] == "Figure 7"
    assert "name" in lines[1] and "ipc" in lines[1]
    assert len(lines) == 5


def test_format_percent():
    assert format_percent(0.375) == "38%"
    assert format_percent(0.375, digits=1) == "37.5%"


# ----------------------------------------------------------------------
# Percentiles and distributions (recovery-latency reporting).
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    from repro.analysis import percentile
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 0) == 10
    assert percentile(values, 50) == 30
    assert percentile(values, 95) == 50
    assert percentile(values, 100) == 50
    assert percentile([], 50) == 0.0


def test_distribution_summary():
    from repro.analysis import Distribution
    dist = Distribution()
    assert dist.summary() == {"count": 0, "mean": 0.0, "p50": 0.0,
                              "p95": 0.0, "max": 0.0}
    for value in (4, 8, 100):
        dist.add(value)
    summary = dist.summary()
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(112 / 3)
    assert summary["p50"] == 8
    assert summary["max"] == 100


def test_format_fault_summary():
    from repro.analysis import format_fault_summary
    faults = {
        "seed": 11,
        "injected": {"broadcast_drops": 1, "receiver_drops": 2,
                     "corruptions": 3, "jitter_events": 4,
                     "jitter_cycles": 9, "stalls": 5, "injected": 6},
        "recovery": {"timeouts": 3, "nacks": 3, "requests": 7,
                     "retransmits": 7, "recovered": 6,
                     "retry_high_water": 2,
                     "payload_bytes": 192, "busy_cycles": 300,
                     "latency": {"count": 6, "mean": 40.0, "p50": 36,
                                 "p95": 100, "max": 120}},
    }
    text = format_fault_summary(faults)
    assert "seed 11" in text
    assert "recovered" in text
    assert "36/100/120" in text
