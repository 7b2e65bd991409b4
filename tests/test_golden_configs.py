"""Golden digests of the configurations that ``all`` never runs.

``test_experiments_golden.py`` pins every experiment of ``all`` and the
issue-stage digests in ``test_timing_fastpath.py`` pin wide cores at 2
and 4 nodes; neither reaches a 1-node machine, a window small enough
to wrap the RUU ring on every few instructions, or a 3-node fan-out.
Each case here runs ``DataScalarSystem.run`` at :data:`LIMIT` and
compares the sha256 of its ``result_fingerprint`` with a digest
recorded before the dependence wiring moved into
:func:`repro.isa.annotate`.  The ``1node`` digests were re-recorded
when a node with no peers stopped reading memory for a reparative
broadcast it never sends, and the ``tiny-window`` digests when branch
prediction stopped being configurable (recorded with the perfect
predictor on the code that still had the option).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import DataScalarSystem
from repro.experiments.config import datascalar_config
from repro.runner import result_fingerprint
from repro.workloads import build_program

LIMIT = 20_000

KERNELS = ("compress", "applu", "go", "wave5")


def _config(name):
    """The machine of case ``name`` (figure 7's node, default bus)."""
    if name == "1node":
        return datascalar_config(1)
    if name == "tiny-window":
        return _with_cpu(datascalar_config(2), ruu_entries=12,
                         lsq_entries=6, issue_width=2)
    assert name == "3node"
    return datascalar_config(3)


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
        "49467226c44731cdee40980be1b9f56efd418363dad376eecb21faf1a1481712",
    ("compress", "tiny-window"):
        "bb9a3ec3b26b79078a3f4766fd44956fcb1145e2557859f41391fd3da8c22d4e",
    ("compress", "3node"):
        "77dfce805ca60eacd4b7ea59364ffa5ac065ce7c81e7974c489d19456e4c9d27",
    ("applu", "1node"):
        "5f1d4e8ea2b553f91947baa5afa5ce9c06332455e07f89218976f57cc0b2cc94",
    ("applu", "tiny-window"):
        "8673e9b97ac3913512827d5ad49a319f975b0b71a67f20bcd15e45a49dbafe8d",
    ("applu", "3node"):
        "31bad27e3b66aa02ea1766dc7cf10b8b0953e6a01c021295c6387dfa0f5ba7b0",
    ("go", "1node"):
        "cc612e0b2d7527956a7df506403082348cfe1ebcfe7c3c7d8f90f0ae2dc2a48b",
    ("go", "tiny-window"):
        "9b22ac891c812a6562af22cd4f60d92e5378cfc90c7994494704ba2134eafb94",
    ("go", "3node"):
        "95222dd316cd447aa8abea527c52b7b70fc23c66b8544b00dfadd9269d663954",
    ("wave5", "1node"):
        "3383901a06a6bd64c134b2068336b6bf82b819a30190e154726af30598a569dd",
    ("wave5", "tiny-window"):
        "87ac80ca43fc43e93be8d0d6e42ba246d1bd80648bcaba47634c3c49ab234bbc",
    ("wave5", "3node"):
        "880ea3f2433fbc1e65c6741d6b35f7a90225bcb73159f1ea4cf2f6a25e37b6e1",
}


@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=lambda key: "{}-{}".format(*key))
def test_config_matches_golden_digest(key):
    kernel, name = key
    result = DataScalarSystem(_config(name)).run(build_program(kernel),
                                                 limit=LIMIT)
    assert _digest(result) == GOLDEN[key]
