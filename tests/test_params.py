"""Validation tests for every configuration dataclass."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.params import (
    BSHRConfig,
    BusConfig,
    CacheConfig,
    CPUConfig,
    MemoryConfig,
    NodeConfig,
    SystemConfig,
    TraditionalConfig,
)


# ----------------------------------------------------------------------
# CPUConfig.
# ----------------------------------------------------------------------
def test_cpu_defaults_match_paper():
    cpu = CPUConfig()
    assert cpu.issue_width == 8
    assert cpu.ruu_entries == 256
    assert cpu.lsq_entries == cpu.ruu_entries // 2


@pytest.mark.parametrize("kwargs", [
    {"fetch_width": 0},
    {"issue_width": -1},
    {"commit_width": 0},
    {"ruu_entries": 0},
    {"lsq_entries": 0},
    {"ruu_entries": 8, "lsq_entries": 16},
])
def test_cpu_validation(kwargs):
    with pytest.raises(ConfigError):
        CPUConfig(**kwargs)


def test_cpu_missing_fu_latency_rejected_by_pool():
    from repro.cpu import FUPool
    cpu = dataclasses.replace(CPUConfig(), fu_latencies={"IALU": 1})
    with pytest.raises(ConfigError):
        FUPool(cpu)


# ----------------------------------------------------------------------
# CacheConfig.
# ----------------------------------------------------------------------
def test_cache_num_sets():
    cache = CacheConfig(size_bytes=1024, assoc=2, line_size=32)
    assert cache.num_sets == 16


@pytest.mark.parametrize("kwargs", [
    {"line_size": 24},
    {"assoc": 3},
    {"size_bytes": 999},
    {"size_bytes": 96, "assoc": 1, "line_size": 32},  # 3 sets: not pow2
    {"hit_latency": 0},
])
def test_cache_validation(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


# ----------------------------------------------------------------------
# MemoryConfig / BusConfig / BSHRConfig.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"onchip_latency": 0},
    {"offchip_latency": 0},
    {"num_banks": 0},
    {"page_size": 1000},
])
def test_memory_validation(kwargs):
    with pytest.raises(ConfigError):
        MemoryConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"width_bytes": 3},
    {"cycles_per_bus_cycle": 0},
    {"interface_latency": -1},
    {"arbitration_bus_cycles": -1},
    {"tag_bytes": -1},
])
def test_bus_validation(kwargs):
    with pytest.raises(ConfigError):
        BusConfig(**kwargs)


def test_bshr_validation():
    with pytest.raises(ConfigError):
        BSHRConfig(access_latency=-1)


# ----------------------------------------------------------------------
# NodeConfig / SystemConfig / TraditionalConfig.
# ----------------------------------------------------------------------
def test_node_validation():
    with pytest.raises(ConfigError):
        NodeConfig(broadcast_queue_latency=-1)


@pytest.mark.parametrize("kwargs", [
    {"num_nodes": 0},
    {"distribution_block_pages": 0},
    {"max_cycles": 0},
    {"interconnect": "pigeon"},
])
def test_system_validation(kwargs):
    with pytest.raises(ConfigError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"onchip_fraction_denom": 0},
    {"distribution_block_pages": 0},
    {"max_cycles": 0},
])
def test_traditional_validation(kwargs):
    with pytest.raises(ConfigError):
        TraditionalConfig(**kwargs)


def test_configs_are_frozen():
    cpu = CPUConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cpu.issue_width = 4


def test_bus_transfer_cycles_monotone_in_payload():
    bus = BusConfig()
    previous = 0
    for payload in (0, 8, 16, 64, 256):
        cycles = bus.transfer_cycles(payload)
        assert cycles >= previous
        previous = cycles


# ----------------------------------------------------------------------
# The option surface.
# ----------------------------------------------------------------------
def test_option_surface():
    """Every field of every config dataclass, by name and in order, so
    that adding or removing an option is a visible edit here."""
    import repro.params as params

    surface = {
        name: tuple(f.name for f in dataclasses.fields(cls))
        for name, cls in vars(params).items()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == params.__name__
    }
    assert surface == {
        "CPUConfig": ("fetch_width", "issue_width", "commit_width",
                      "ruu_entries", "lsq_entries", "fu_latencies",
                      "fu_counts"),
        "CacheConfig": ("size_bytes", "assoc", "line_size", "hit_latency",
                        "write_allocate"),
        "MemoryConfig": ("onchip_latency", "offchip_latency", "num_banks",
                         "page_size"),
        "BusConfig": ("width_bytes", "cycles_per_bus_cycle",
                      "interface_latency", "arbitration_bus_cycles",
                      "tag_bytes"),
        "BSHRConfig": ("access_latency",),
        "FaultConfig": ("seed", "drop_prob", "receiver_drop_prob",
                        "corrupt_prob", "jitter_prob", "max_jitter",
                        "stall_prob", "stall_cycles", "bshr_timeout",
                        "retry_backoff", "backoff_factor", "max_retries"),
        "NodeConfig": ("cpu", "icache", "dcache", "memory", "bshr",
                       "broadcast_queue_latency"),
        "SystemConfig": ("num_nodes", "node", "bus",
                         "distribution_block_pages", "max_cycles",
                         "fast_forward", "interconnect", "faults"),
        "TraditionalConfig": ("node", "bus", "onchip_fraction_denom",
                              "distribution_block_pages", "max_cycles"),
    }


def test_public_surface():
    """Every public name of the packages that hold the machine, its
    memory system, its media, its fault layer, its instrumentation, its
    analyses and its experiments, so that adding or removing one is a
    visible edit here."""
    import repro.analysis
    import repro.core
    import repro.experiments
    import repro.faults
    import repro.interconnect
    import repro.memory
    import repro.obs

    packages = (repro.analysis, repro.core, repro.experiments,
                repro.faults, repro.interconnect, repro.memory, repro.obs)
    assert all(hasattr(package, name)
               for package in packages for name in package.__all__)
    assert {package.__name__: set(package.__all__)
            for package in packages} == {
        "repro.analysis": {
            "CostModel", "rows_to_csv", "write_csv", "format_ipc",
            "format_percent", "format_table", "TABLE1_CACHE",
            "TrafficReport", "measure_esp_traffic"},
        "repro.core": {
            "BSHRFile", "BSHRStats", "Broadcaster", "BroadcastStats",
            "CorrespondenceStats", "CorrespondenceTracker",
            "DatathreadAnalyzer", "DatathreadReport", "analyze_stream",
            "DCUB", "DCUBEntry", "ESPResult", "MassiveMemoryMachine",
            "DataScalarNode", "ReplicationPlan", "plan_replication",
            "select_hot_pages", "DataScalarResult", "DataScalarSystem",
            "NodeResult"},
        "repro.experiments": {
            "datascalar_config", "timing_bus_config", "timing_cpu_config",
            "timing_node_config", "traditional_config",
            "Figure1Result", "format_figure1", "run_figure1",
            "Figure3Result", "datascalar_crossings", "format_figure3",
            "run_figure3", "traditional_crossings",
            "Figure7Row", "format_figure7", "run_figure7",
            "FIGURE8_BENCHMARKS", "PARAMETERS", "Figure8Panel",
            "Figure8Point", "format_figure8", "run_figure8",
            "NODE_COUNTS", "ScalingPoint", "format_scaling", "run_scaling",
            "Table1Row", "format_table1", "run_table1",
            "Table2Row", "format_table2", "run_table2",
            "Table3Row", "format_table3", "row_from_result", "run_table3"},
        "repro.faults": {
            "BroadcastFault", "FaultConfig", "FaultPlan", "FaultStats",
            "FaultyMedium", "RecoveryStats"},
        "repro.interconnect": {
            "Bus", "Ring", "LatencyQueue", "BroadcastMedium",
            "make_medium"},
        "repro.memory": {
            "AccessResult", "BankedMemory", "Cache", "CacheStats",
            "GLOBAL_BASE", "HEAP_BASE", "INSTRUCTION_BYTES", "LayoutSpec",
            "LayoutSummary", "PTE", "PageProfile", "PageTable",
            "STACK_BASE", "STACK_TOP", "Segment", "TEXT_BASE",
            "build_page_table", "canonical_outcomes", "choose_block_size",
            "profile_program", "segment_of", "traditional_page_table"},
        "repro.obs": {
            "Counter", "EventKind", "EventTracer", "Gauge", "Histogram",
            "MetricsRegistry", "Series", "SpanRecord", "SpanRecorder",
            "TraceEvent", "Tracer", "format_metrics", "from_jsonl",
            "recording", "registry_from_result", "span",
            "spans_to_chrome_trace", "to_chrome_trace", "to_jsonl",
            "write_chrome_trace", "write_jsonl",
            "write_spans_chrome_trace"},
    }
