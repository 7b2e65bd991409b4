"""Golden digests of every experiment that ``all`` runs.

Each experiment runs at a small limit on a serial, uncached runner; the
sha256 of its result's ``result_fingerprint`` (sorted-key compact JSON,
as ``benchmarks/perf`` digests an op) must match the digest recorded
here.  A refactor that is meant to leave ``all`` bit-identical passes
this unchanged; a change that alters a result on purpose re-records the
digests at its parent and says so.
"""

import hashlib
import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.resilience import DROP_PROBS, run_resilience
from repro.experiments.traced import run_traced
from repro.runner import SweepRunner, result_fingerprint, using_runner

LIMIT = 1_500

GOLDEN = {
    "figure1":
        "37d1e3852f688103ca72e0de599b5cab1e1336dbaaacf379fbe69dc0fbb3fce1",
    "figure3":
        "62d3738cd52c6d65dbdd81dda618dffbbd1ddd92dcac13b8816247c1e1aa1e52",
    "figure7":
        "c77d5c218e1d4d8bdc989d24aadbc053e0b574a31c1dc235ece6cac7ab810207",
    "figure8":
        "93e3fefaa81d72c3a95429942d27248f3c00cd17cff16a9d59892f786a574894",
    "resilience":
        "36a52048a71874250f78ae73786d4da1ec9a9ad4c41a3245bf54ffd4565f2e48",
    "scaling":
        "913549f32bb1f226445c5af06729d0fd9691dbd3d404795507a3bd4910197edb",
    "table1":
        "c8b5091dceb4c297dce1553c741d0134c5edfe2ad61e95bfb8c85d787ff4cfeb",
    "table2":
        "44694e3eaef794203e3f309f75dc79578ebedf325f412d7230c94c69ed6e0392",
    "table3":
        "a2c36e64ab58a553904dc45a5b732bd54c0e2872bcef1fc6fe6db442124260ad",
    "traced-run":
        "cbb381742966d8eb6041ca8a23899ff4a7a59478dc5dc47e7d698285b508ffd3",
}


def _run(name):
    """The result ``python -m repro.experiments NAME`` formats, with
    the CLI's defaults (fault seed 11, the default drop sweep)."""
    if name == "resilience":
        return run_resilience(limit=LIMIT, seeds=(11,),
                              drop_probs=DROP_PROBS)
    if name == "traced-run":
        return run_traced(limit=LIMIT)
    return EXPERIMENTS[name][0](LIMIT)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_matches_golden_digest(name):
    with using_runner(SweepRunner(jobs=1, cache=None)):
        result = _run(name)
    text = json.dumps(result_fingerprint(result), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
