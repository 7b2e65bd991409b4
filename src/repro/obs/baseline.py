"""Perf-regression gate: compare a run manifest against baselines.

``python -m repro.obs.baseline manifest.json --against BENCH_sweep.json
--against BENCH_simperf.json`` extracts comparable perf indicators from
a sweep's :class:`~repro.runner.manifest.RunManifest` JSON and from
each baseline file, and exits non-zero when the fresh run is slower
than a baseline by more than a multiplicative *tolerance* — the typed,
scriptable version of the ad-hoc ``REPRO_MIN_SPEEDUP`` bench smokes.

Three baseline shapes are understood:

* another **run manifest** (``schema: repro-run-manifest/1``) — the
  tightest comparison: per-point wall seconds matched by label, plus
  total executed wall;
* **BENCH_sweep.json** (``serial_seconds``/``points``/``limit``) — the
  sweep throughput benchmark, normalized to seconds per simulated
  instruction;
* **BENCH_simperf.json** (``optimized_seconds``/``limit``) — the
  single-run benchmark, normalized the same way.

Normalizing to seconds per simulated instruction makes runs at
different ``--limit`` comparable; it cannot make different *machines*
comparable, which is why the default tolerance is generous (2x) and CI
uses a documented, wider one (see ``docs/observability.md``).  The
gate exists to catch asymptotic blowups and order-of-magnitude
regressions deterministically — for fine-grained gating, compare two
manifests produced on the same machine.

Exit codes: 0 all checks pass; 1 at least one regression; 2 nothing
comparable (a vacuous pass must not look like a pass) or bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

__all__ = ["Check", "compare", "main", "manifest_rate"]

MANIFEST_SCHEMA = "repro-run-manifest/1"

#: Default multiplicative slowdown tolerance (measured <= baseline * t).
DEFAULT_TOLERANCE = 2.0

class Check:
    """One baseline comparison: measured vs. allowed."""

    __slots__ = ("name", "baseline", "measured", "tolerance", "detail")

    def __init__(
        self,
        name: str,
        baseline: float,
        measured: float,
        tolerance: float,
        detail: str = "",
    ) -> None:
        self.name = name
        self.baseline = baseline
        self.measured = measured
        self.tolerance = tolerance
        self.detail = detail

    @property
    def ratio(self) -> float:
        if self.baseline <= 0:
            return float("inf") if self.measured > 0 else 1.0
        return self.measured / self.baseline

    @property
    def ok(self) -> bool:
        return self.ratio <= self.tolerance

    def describe(self) -> str:
        verdict = "OK  " if self.ok else "FAIL"
        line = (
            f"[baseline] {verdict} {self.name}: measured={self.measured:.6g} "
            f"baseline={self.baseline:.6g} ratio={self.ratio:.2f}x "
            f"tolerance={self.tolerance:.2f}x"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _executed_points(manifest: dict[str, Any]) -> list[dict[str, Any]]:
    return [
        point
        for point in manifest.get("points", [])
        if not point.get("cached")
        and not point.get("deduped")
        and float(point.get("wall_seconds", 0.0)) > 0
    ]


def manifest_rate(manifest: dict[str, Any]) -> float:
    """Median seconds per simulated instruction over executed points.

    Points without a ``limit`` (analytic experiments that simulate
    nothing) are excluded — they contribute no instructions.
    """
    rates = [
        float(point["wall_seconds"]) / float(point["limit"])
        for point in _executed_points(manifest)
        if point.get("limit")
    ]
    return _median(rates)


def _require_manifest(document: dict[str, Any], source: str) -> None:
    schema = document.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"{source}: expected a run manifest with schema "
            f"{MANIFEST_SCHEMA!r}, got {schema!r}"
        )


def _compare_to_manifest(
    manifest: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
    source: str,
) -> list[Check]:
    checks: list[Check] = []
    rate = manifest_rate(manifest)
    base_rate = manifest_rate(baseline)
    if rate > 0 and base_rate > 0:
        checks.append(
            Check(
                "seconds_per_instruction",
                base_rate,
                rate,
                tolerance,
                f"median over executed points vs {source}",
            )
        )
    mine = {
        point["label"]: float(point["wall_seconds"])
        for point in _executed_points(manifest)
    }
    theirs = {
        point["label"]: float(point["wall_seconds"])
        for point in _executed_points(baseline)
    }
    shared = sorted(set(mine) & set(theirs))
    if shared:
        ratios = [mine[label] / theirs[label] for label in shared if theirs[label] > 0]
        if ratios:
            checks.append(
                Check(
                    "per_point_wall_ratio",
                    1.0,
                    _median(ratios),
                    tolerance,
                    f"median over {len(ratios)} shared labels vs {source}",
                )
            )
    wall = sum(mine.values())
    base_wall = sum(theirs.values())
    if wall > 0 and base_wall > 0:
        checks.append(
            Check(
                "executed_wall_seconds",
                base_wall,
                wall,
                tolerance,
                f"sum over executed points vs {source}",
            )
        )
    return checks


def _compare_to_bench(
    manifest: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
    source: str,
) -> list[Check]:
    rate = manifest_rate(manifest)
    if rate <= 0:
        return []
    checks: list[Check] = []
    limit = float(baseline.get("limit") or 0)
    if limit > 0 and baseline.get("serial_seconds") and baseline.get("points"):
        base_rate = (
            float(baseline["serial_seconds"]) / float(baseline["points"]) / limit
        )
        checks.append(
            Check(
                "seconds_per_instruction",
                base_rate,
                rate,
                tolerance,
                f"vs {source} serial_seconds/points/limit",
            )
        )
    elif limit > 0 and baseline.get("optimized_seconds"):
        base_rate = float(baseline["optimized_seconds"]) / limit
        checks.append(
            Check(
                "seconds_per_instruction",
                base_rate,
                rate,
                tolerance,
                f"vs {source} optimized_seconds/limit",
            )
        )
    return checks


def compare(
    manifest: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    source: str = "baseline",
) -> list[Check]:
    """Every comparable indicator between ``manifest`` and ``baseline``.

    Returns an empty list when the two documents share no comparable
    indicator (the caller decides whether that is fatal — the CLI
    treats a run with *zero* checks overall as exit code 2).
    """
    _require_manifest(manifest, "manifest")
    if baseline.get("schema") == MANIFEST_SCHEMA:
        return _compare_to_manifest(manifest, baseline, tolerance, source)
    return _compare_to_bench(manifest, baseline, tolerance, source)


def _load(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return document


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.baseline",
        description="Gate a sweep manifest against perf baselines.",
    )
    parser.add_argument(
        "manifest",
        help="run manifest JSON written by --report-out",
    )
    parser.add_argument(
        "--against",
        action="append",
        default=[],
        metavar="PATH",
        help="baseline file: another manifest, BENCH_sweep.json, or "
        "BENCH_simperf.json (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="X",
        help="allowed multiplicative slowdown vs each baseline "
        f"(default {DEFAULT_TOLERANCE})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.against:
        print("[baseline] no --against baseline given", file=sys.stderr)
        return 2
    if args.tolerance <= 0:
        print("[baseline] --tolerance must be positive", file=sys.stderr)
        return 2
    try:
        manifest = _load(args.manifest)
        checks: list[Check] = []
        for path in args.against:
            found = compare(
                manifest,
                _load(path),
                tolerance=args.tolerance,
                source=path,
            )
            if not found:
                print(
                    f"[baseline] note: nothing comparable in {path}",
                    file=sys.stderr,
                )
            checks.extend(found)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"[baseline] error: {exc}", file=sys.stderr)
        return 2
    if not checks:
        print(
            "[baseline] no comparable indicators found — refusing to "
            "report a vacuous pass",
            file=sys.stderr,
        )
        return 2
    for check in checks:
        print(check.describe())
    failed = [check for check in checks if not check.ok]
    if failed:
        print(
            f"[baseline] REGRESSION: {len(failed)} of {len(checks)} "
            f"checks exceeded tolerance",
            file=sys.stderr,
        )
        return 1
    print(f"[baseline] all {len(checks)} checks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
