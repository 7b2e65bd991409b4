"""Checkpoint/restore, intra-run sharding, and the cache plumbing
underneath warm starts.

Bit-identity of restore-and-continue against straight-through runs is
pinned per-row in ``test_fastforward_equivalence.py``; this file covers
the machinery around it: snapshot serialization, the
:class:`~repro.runner.ShardedRun` cold/warm protocol and its
stale-cache defense, ``REPRO_CACHE_MAX_BYTES`` LRU pruning, and the
ProgressLine ETA fix for cached/replayed points.
"""

import os
import pickle
import time

import pytest

from repro.core import DataScalarSystem
from repro.errors import RunnerError
from repro.experiments.config import datascalar_config
from repro.runner import ResultCache, ShardedRun, SweepPoint, SweepRunner
from repro.runner.digest import checkpoint_digest, result_fingerprint
from repro.runner.telemetry import ProgressLine
from repro.workloads import build_program

LIMIT = 2_000


def _config(num_nodes=2):
    return datascalar_config(num_nodes=num_nodes)


def _checkpoints(config, limit=LIMIT, every=700):
    program = build_program("compress")
    saved = []
    DataScalarSystem(config).run(program, limit=limit,
                                 checkpoint_every=every,
                                 checkpoint_sink=saved.append)
    return saved


# ----------------------------------------------------------------------
# Snapshot object.
# ----------------------------------------------------------------------
def test_checkpoint_pickles_and_summary_is_stable():
    config = _config()
    saved = _checkpoints(config)
    assert [ckpt.meta["boundary"] for ckpt in saved] == [700, 1400]
    for ckpt in saved:
        blob = pickle.dumps(ckpt)
        clone = pickle.loads(blob)
        assert clone.kind == "datascalar"
        assert clone.cycle == ckpt.cycle
        assert clone.committed == ckpt.committed
        # The deterministic summary is the stitcher's verification key:
        # it must survive serialization exactly.
        assert clone.summary() == ckpt.summary()
        assert clone.describe()["kind"] == "datascalar"


def test_version_mismatch_refuses_restore():
    from repro.checkpoint import materialize
    from repro.errors import SimulationError

    ckpt = _checkpoints(_config())[0]
    ckpt.version = "incompatible"
    with pytest.raises(SimulationError, match="format"):
        materialize(ckpt)


def test_stop_after_emits_final_checkpoint_and_returns_none():
    config = _config()
    program = build_program("compress")
    saved = []
    out = DataScalarSystem(config).run(program, limit=LIMIT,
                                       checkpoint_every=600,
                                       checkpoint_sink=saved.append,
                                       stop_after=600)
    assert out is None
    assert saved and saved[-1].committed >= 600


# ----------------------------------------------------------------------
# ShardedRun: cold populates, warm resumes in parallel, both identical.
# ----------------------------------------------------------------------
def test_sharded_cold_then_warm_bit_identical(tmp_path):
    config = _config()
    program = build_program("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)

    cache = ResultCache(tmp_path)
    sharded = ShardedRun(3, cache=cache, jobs=2)
    cold = sharded.run("compress", limit=LIMIT, config=config)
    assert not sharded.last_warm
    assert sharded.last_boundaries == [667, 1334]
    counters = sharded.registry
    assert counters.counter("runner.checkpoint.saves").value == 2
    assert counters.counter("runner.checkpoint.misses").value == 2
    assert result_fingerprint(cold) == result_fingerprint(straight)

    warm = sharded.run("compress", limit=LIMIT, config=config)
    assert sharded.last_warm
    assert counters.counter("runner.checkpoint.hits").value == 2
    assert result_fingerprint(warm) == result_fingerprint(straight)


def test_sharded_single_shard_never_touches_cache(tmp_path):
    config = _config()
    cache = ResultCache(tmp_path)
    sharded = ShardedRun(1, cache=cache, jobs=1)
    result = sharded.run("compress", limit=LIMIT, config=config)
    assert not sharded.last_warm
    assert sharded.last_boundaries == []
    assert cache.stores == 0
    program = build_program("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)
    assert result_fingerprint(result) == result_fingerprint(straight)


def test_sharded_detects_stale_cache_entry(tmp_path):
    """A checkpoint stored under the wrong boundary's digest (stale or
    foreign entry) must fail the stitch verification loudly instead of
    silently producing a wrong figure."""
    config = _config()
    cache = ResultCache(tmp_path)
    sharded = ShardedRun(3, cache=cache, jobs=1)
    sharded.run("compress", limit=LIMIT, config=config)  # cold populate

    base = SweepPoint.make("datascalar", "compress", limit=LIMIT,
                           config=config)
    b1, b2 = sharded.last_boundaries
    d1 = checkpoint_digest(base, b1, cache.code_version)
    d2 = checkpoint_digest(base, b2, cache.code_version)
    hit, early = cache.load(base, digest=d1)
    assert hit
    # Poison: boundary-b2's slot now serves boundary-b1's state.
    assert cache.store(base, early, digest=d2)

    with pytest.raises(RunnerError, match="stale or foreign"):
        sharded.run("compress", limit=LIMIT, config=config)


# ----------------------------------------------------------------------
# Satellite: REPRO_CACHE_MAX_BYTES LRU pruning.
# ----------------------------------------------------------------------
def _point(tag):
    return SweepPoint.make("esp-schedule", None,
                           broadcast_latency=tag + 1)


def test_cache_lru_pruning_evicts_oldest(tmp_path):
    cache = ResultCache(tmp_path, code_version="t", max_bytes=1)
    # max_bytes=1: every store prunes everything but the newest entry.
    for tag in range(3):
        assert cache.store(_point(tag), {"payload": "x" * 64})
        time.sleep(0.01)  # distinct mtimes for deterministic LRU order
    assert cache.evictions == 2
    hit, _ = cache.load(_point(2))
    assert hit  # the just-stored entry is never evicted
    hit, _ = cache.load(_point(0))
    assert not hit


def test_cache_env_budget_and_hit_touch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "100000")
    cache = ResultCache(tmp_path, code_version="t")
    assert cache.max_bytes == 100_000
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
    assert ResultCache(tmp_path, code_version="t").max_bytes is None

    # A load refreshes mtime, so hot entries survive pruning (LRU, not
    # FIFO): store A then B, touch A via load, then set a budget that
    # forces exactly one eviction — B (now least-recently-used) goes,
    # A stays.
    cache = ResultCache(tmp_path, code_version="t")
    assert cache.store(_point(0), {"payload": "a" * 64})
    time.sleep(0.01)
    assert cache.store(_point(1), {"payload": "b" * 64})
    time.sleep(0.01)
    assert cache.load(_point(0))[0]  # touch A
    time.sleep(0.01)
    sizes = [path.stat().st_size for path in tmp_path.glob("*/*.pkl")]
    cache.max_bytes = sum(sizes)  # room for two entries, not three
    assert cache.store(_point(2), {"payload": "c" * 64})
    assert cache.load(_point(0))[0]
    assert not cache.load(_point(1))[0]


def test_runner_surfaces_eviction_counter(tmp_path):
    cache = ResultCache(tmp_path, code_version="t", max_bytes=1)
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run([_point(tag) for tag in range(3)])
    assert cache.evictions >= 2
    counter = runner.registry.counter("runner.cache.evictions")
    assert counter.value == cache.evictions


# ----------------------------------------------------------------------
# Satellite: ProgressLine ETA must ignore cached/replayed completions.
# ----------------------------------------------------------------------
def test_progress_eta_excludes_cached_points():
    line = ProgressLine(total=10, enabled=False)
    line._start -= 10.0  # pretend 10s have elapsed

    # Position arithmetic (the old fallback): 6 done of which 5 cached
    # looks like 1 executed / 4 remaining -> eta 40s.
    fallback = line.render(6, 5, 0)
    assert "eta 0:40" in fallback

    # True work-unit counts: 1 digest executed, 1 digest remaining
    # (the other 3 remaining positions are dedup copies) -> eta 10s.
    informed = line.render(6, 5, 0, executed=1, remaining=1)
    assert "eta 0:10" in informed

    # Everything so far came from cache/journal: no rate estimate at
    # all rather than an absurdly optimistic one.
    replayed = line.render(6, 6, 0, executed=0, remaining=4)
    assert "eta" not in replayed


def test_progress_eta_serial_sweep_uses_digest_counts(tmp_path, capsys):
    """End to end: a sweep with duplicate points passes unique-digest
    executed/remaining counts through update()."""
    seen = []

    class Spy(ProgressLine):
        def update(self, done, cached, running, slowest=None,
                   executed=None, remaining=None):
            seen.append((done, cached, executed, remaining))

    import repro.runner.engine as engine_mod
    original = engine_mod.ProgressLine
    engine_mod.ProgressLine = Spy
    try:
        runner = SweepRunner(jobs=1,
                             cache=ResultCache(tmp_path, code_version="t"))
        runner.run([_point(0), _point(0), _point(1)])
    finally:
        engine_mod.ProgressLine = original
    # Two unique digests executed; the dedup duplicate never counts as
    # an executed sample.
    assert seen[-1] == (3, 0, 2, 0)
    assert (2, 0, 1, 1) in seen


def test_sharded_warm_bit_identical_under_faults(tmp_path):
    """Sharding composes with seeded fault injection: the shards carry
    the fault layer's RNG, pending retransmits, and recovery ledger
    through the checkpoints."""
    import dataclasses

    from repro.params import FaultConfig
    from repro.workloads import build_program as _build

    faults = FaultConfig(seed=17, receiver_drop_prob=1e-2,
                         corrupt_prob=5e-3, jitter_prob=2e-2,
                         stall_prob=5e-3)
    config = dataclasses.replace(datascalar_config(num_nodes=4),
                                 faults=faults)
    program = _build("compress")
    straight = DataScalarSystem(config).run(program, limit=LIMIT)
    assert straight.extra["faults"]["recovery"]["recovered"] > 0

    sharded = ShardedRun(3, cache=ResultCache(tmp_path), jobs=2)
    cold = sharded.run("compress", limit=LIMIT, config=config)
    warm = sharded.run("compress", limit=LIMIT, config=config)
    assert sharded.last_warm
    assert result_fingerprint(cold) == result_fingerprint(straight)
    assert result_fingerprint(warm) == result_fingerprint(straight)
    assert warm.extra["faults"] == straight.extra["faults"]


# ----------------------------------------------------------------------
# Warm-up: functional fast-forward before timing starts.
# ----------------------------------------------------------------------
def _warmup_systems():
    from repro.baseline.perfect import PerfectSystem
    from repro.baseline.traditional import TraditionalSystem
    from repro.experiments.config import traditional_config

    return {
        "datascalar": (lambda: DataScalarSystem(_config()),
                       lambda result: result.instructions),
        "traditional": (lambda: TraditionalSystem(traditional_config(2)),
                        lambda result: result.instructions),
        "perfect": (PerfectSystem, lambda stats: stats.committed),
    }


@pytest.mark.parametrize("kind", sorted(_warmup_systems()))
def test_warmup_commits_only_the_timed_region(kind):
    make, committed = _warmup_systems()[kind]
    program = build_program("compress")
    result = make().run(program, limit=LIMIT, warmup=300)
    assert committed(result) == LIMIT - 300


@pytest.mark.parametrize("kind", sorted(_warmup_systems()))
def test_warmup_with_resume_from_is_refused(kind):
    from repro.errors import SimulationError

    make, _ = _warmup_systems()[kind]
    program = build_program("compress")
    saved = []
    make().run(program, limit=LIMIT, checkpoint_every=700,
               checkpoint_sink=saved.append)
    with pytest.raises(SimulationError, match="warmup"):
        make().run(program, limit=LIMIT, resume_from=saved[0], warmup=300)
