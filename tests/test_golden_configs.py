"""Golden digests of the configurations that ``all`` never runs.

``test_experiments_golden.py`` pins every experiment of ``all`` and the
issue-stage digests in ``test_timing_fastpath.py`` pin wide cores at 2
and 4 nodes; neither reaches a 1-node machine, conservative
disambiguation at 4 nodes, a window small enough to wrap the RUU ring
on every few instructions, result communication, the interpreter front
end under a fan-out, or the hybrid system's private phases.  Each case
here runs ``DataScalarSystem.run`` (or ``HybridSystem.run``) at
:data:`LIMIT` and compares the sha256 of its ``result_fingerprint``
with a digest recorded before the dependence wiring moved into
:func:`repro.isa.annotate`.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import DataScalarSystem, HybridSystem, ParallelPhase, \
    SerialPhase
from repro.experiments.config import datascalar_config
from repro.runner import result_fingerprint
from repro.workloads import build_program

LIMIT = 20_000

KERNELS = ("compress", "applu", "go", "wave5")


def _config(name):
    """The machine of case ``name`` (figure 7's node, default bus)."""
    if name == "1node":
        return datascalar_config(1)
    if name == "conservative":
        config = datascalar_config(4)
        return _with_cpu(config, oracle_disambiguation=False)
    if name == "gshare":
        return _with_cpu(datascalar_config(2), branch_predictor="gshare")
    if name == "tiny-window":
        return _with_cpu(datascalar_config(2), ruu_entries=12,
                         lsq_entries=6, issue_width=2,
                         branch_predictor="bimodal")
    if name == "resultcomm":
        return dataclasses.replace(datascalar_config(4),
                                   result_communication=True)
    assert name == "interpreter"
    return dataclasses.replace(datascalar_config(3), engine="interpreter")


def _with_cpu(config, **changes):
    node = config.node
    cpu = dataclasses.replace(node.cpu, **changes)
    return dataclasses.replace(
        config, node=dataclasses.replace(node, cpu=cpu))


def _digest(result):
    text = json.dumps(result_fingerprint(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    ("compress", "1node"):
        "643d3ab3fae68b1969d9ecdb12d350fadfbaba4cc484ad4ccf1f38fa6fd13472",
    ("compress", "conservative"):
        "7deba08adefd97446c1cdef5d3d6419d298282526c82198d8c2216560bdba1cb",
    ("compress", "gshare"):
        "ced41fc32f7c929521ae73a4b4728b5928f92fb93f806271857596ba9c29742b",
    ("compress", "tiny-window"):
        "1663c5c16069b98ec4c6c94e2edd1c94b2a63b9f5650d4061e06f14f98acb615",
    ("compress", "resultcomm"):
        "9581e5ee596be6a37f3cd5de62cd43af0d0e807e10d695e3036b7f1296748f31",
    ("compress", "interpreter"):
        "77dfce805ca60eacd4b7ea59364ffa5ac065ce7c81e7974c489d19456e4c9d27",
    ("applu", "1node"):
        "d0d59f7cefe2e66614ff146e10c1fe205eccba8fa7af0fb5339fe79afabac391",
    ("applu", "conservative"):
        "ad1c46c8647c7fc812a4a62b41a5afa106025c56a5bd5188711adfbe05ab245e",
    ("applu", "gshare"):
        "6bbadcb049de25450b3e8715681992b94625c6fec729af1f53e41ca5b0e2358d",
    ("applu", "tiny-window"):
        "093edcc47705dce8092bd82b9f99418873a4cb77b952f8cf0296e32e59280f04",
    ("applu", "resultcomm"):
        "9017274694b2eb63caabcad70a9d5cc79c09fb0702ded40fea685ade60568132",
    ("applu", "interpreter"):
        "31bad27e3b66aa02ea1766dc7cf10b8b0953e6a01c021295c6387dfa0f5ba7b0",
    ("go", "1node"):
        "cc612e0b2d7527956a7df506403082348cfe1ebcfe7c3c7d8f90f0ae2dc2a48b",
    ("go", "conservative"):
        "64b9e9824ab7e154c7425aaee38071566264ad6ed502c9b73c7518a4c9ebea8b",
    ("go", "gshare"):
        "dc6478dd8e55e70fa78c06769333b800d4fe85ba0e4c35c8eba1160d60adeb58",
    ("go", "tiny-window"):
        "14705343418961573359ce3130f51e0364eebeb2826a33e4eb64af31ab15ac1e",
    ("go", "resultcomm"):
        "eecb87d195f9cf94327318b96866c4fcfee1ef94f108a1fde1db646e842a621e",
    ("go", "interpreter"):
        "95222dd316cd447aa8abea527c52b7b70fc23c66b8544b00dfadd9269d663954",
    ("wave5", "1node"):
        "e17533bfccf7aec3896cde3c33719621a0c6063bf836c10c648a94b73e92938f",
    ("wave5", "conservative"):
        "43cc62684d20d6385ef1f36560f5edd252df60bea5fc01c9f5d9158c9f962f76",
    ("wave5", "gshare"):
        "0b0ce22941da3d2e886ad2322d9f1b81979a3ed9a01dd898f31e6b1231efc7be",
    ("wave5", "tiny-window"):
        "98a4e1cab706834f7099492f0a485733ed271942797d38e66975f30dea5d7355",
    ("wave5", "resultcomm"):
        "a1b0f7f1abac7df13143bdfbd5027e1af550def87af001ed6a3b043f85c79e38",
    ("wave5", "interpreter"):
        "880ea3f2433fbc1e65c6741d6b35f7a90225bcb73159f1ea4cf2f6a25e37b6e1",
}

HYBRID_GOLDEN = (
    "8df9c0ca1b4eb09e6c33d074dd2f73f764e9cf2b47829c08cad449cc8840def7")


@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=lambda key: "{}-{}".format(*key))
def test_config_matches_golden_digest(key):
    kernel, name = key
    result = DataScalarSystem(_config(name)).run(build_program(kernel),
                                                 limit=LIMIT)
    assert _digest(result) == GOLDEN[key]


def test_hybrid_matches_golden_digest():
    """A serial phase on the shared stream, then a parallel phase whose
    two private pipelines each own an unshared stream."""
    result = HybridSystem(datascalar_config(2)).run(
        [SerialPhase(build_program("compress")),
         ParallelPhase([build_program("applu"), build_program("go")])],
        limit=LIMIT)
    assert _digest(result) == HYBRID_GOLDEN
