"""The content-addressed result cache: hits, invalidation, recovery."""

from __future__ import annotations

import dataclasses
import errno

import repro.runner.cache as cache_module
from repro.experiments.config import datascalar_config
from repro.runner import ResultCache, SweepPoint, SweepRunner, \
    default_cache_dir, result_fingerprint

LIMIT = 1500


def _point(**overrides):
    keywords = dict(config=datascalar_config(2), limit=LIMIT)
    keywords.update(overrides)
    return SweepPoint.make("datascalar", "compress", **keywords)


def test_default_cache_dir_honors_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().endswith("repro-sweeps")


def test_miss_then_hit_accounting(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    point = _point()
    hit, value = cache.load(point)
    assert (hit, value) == (False, None)
    assert (cache.hits, cache.misses) == (0, 1)
    runner = SweepRunner(jobs=1, cache=cache)
    first = runner.run([point])[0]
    assert cache.stores == 1
    hit, value = cache.load(point)
    assert hit
    assert result_fingerprint(value) == result_fingerprint(first)
    assert cache.hits == 1


def test_warm_run_skips_execution(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    SweepRunner(jobs=1, cache=cache).run([_point()])
    warm = SweepRunner(jobs=1, cache=cache)
    warm.run([_point()])
    registry = warm.registry
    assert registry.counter("runner.cache.hit").value == 1
    assert registry.counter("runner.points.executed").value == 0


def test_config_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run([_point()])
    runner.run([_point(config=datascalar_config(4))])
    assert cache.hits == 0
    assert cache.stores == 2


def test_code_version_bump_invalidates(tmp_path):
    old = ResultCache(tmp_path, code_version="v1")
    SweepRunner(jobs=1, cache=old).run([_point()])
    new = ResultCache(tmp_path, code_version="v2")
    hit, _ = new.load(_point())
    assert not hit
    # The old version's entry is untouched and still serveable.
    hit, _ = old.load(_point())
    assert hit


def test_corrupted_entry_recovers_by_recompute(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    point = _point()
    baseline = SweepRunner(jobs=1, cache=cache).run([point])[0]
    path = cache._path(cache.digest_for(point))
    path.write_bytes(b"not a pickle")
    runner = SweepRunner(jobs=1, cache=cache)
    recomputed = runner.run([point])[0]
    assert cache.corrupt == 1
    assert result_fingerprint(recomputed) == result_fingerprint(baseline)
    # The recompute re-stored a good entry; the next load hits.
    hit, _ = cache.load(point)
    assert hit


def test_truncated_pickle_recovers(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    point = _point()
    SweepRunner(jobs=1, cache=cache).run([point])
    path = cache._path(cache.digest_for(point))
    path.write_bytes(path.read_bytes()[:20])
    hit, value = cache.load(point)
    assert (hit, value) == (False, None)
    assert cache.corrupt == 1
    assert not path.exists()  # the bad entry was deleted


def test_misfiled_entry_is_rejected(tmp_path):
    cache = ResultCache(tmp_path, code_version="v")
    point, other = _point(), _point(limit=LIMIT + 1)
    SweepRunner(jobs=1, cache=cache).run([point])
    good = cache._path(cache.digest_for(point))
    misfiled = cache._path(cache.digest_for(other))
    misfiled.parent.mkdir(parents=True, exist_ok=True)
    misfiled.write_bytes(good.read_bytes())
    hit, _ = cache.load(other)
    assert not hit
    assert cache.corrupt == 1


def test_cache_is_shareable_across_runners(tmp_path):
    code = "v"
    first = ResultCache(tmp_path, code_version=code)
    result = SweepRunner(jobs=1, cache=first).run([_point()])[0]
    second = ResultCache(tmp_path, code_version=code)
    cached = SweepRunner(jobs=1, cache=second).run([_point()])[0]
    assert result_fingerprint(cached) == result_fingerprint(result)
    assert second.hits == 1 and second.stores == 0


def test_cache_oserror_degrades_cache_not_results(tmp_path, monkeypatch):
    """A store that fails with ``OSError`` turns stores off for the rest
    of the run; every point still returns its bit-identical result."""
    points = [_point(), _point(limit=LIMIT + 1)]
    baseline = SweepRunner(jobs=1).run(points)

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cache_module.os, "replace", disk_full)
    cache = ResultCache(tmp_path, code_version="v")
    runner = SweepRunner(jobs=1, cache=cache)
    results = runner.run(points)
    for a, b in zip(baseline, results):
        assert result_fingerprint(a) == result_fingerprint(b)
    assert cache.store_disabled
    assert cache.store_errors == 1
    assert runner.registry.counter("runner.cache.store_errors").value == 1
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]
