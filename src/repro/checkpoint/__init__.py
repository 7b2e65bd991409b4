"""Empty subpackage; it holds no code.

``benchmarks/perf/layers.py`` still lists this subpackage as a profiling
layer, and ``benchmarks/perf/test_perf_harness.py`` requires every layer
to own a source file.  Delete this package in the same change that drops
the layer from ``layers.py``, the ``per_layer`` list of
``BENCHMARK.json`` and ``benchmarks/perf/README.md``.
"""
