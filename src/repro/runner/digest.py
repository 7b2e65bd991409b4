"""Content addressing for sweep points.

A point's digest is a SHA-256 over (a) the canonical JSON form of the
point — every configuration dataclass serialized field by field with
sorted keys, so semantically identical configs always hash identically
regardless of construction order — and (b) a *code-version stamp*, a
hash of every ``repro`` source file.  Any edit to the simulator
invalidates every cached result, which is exactly the conservative
behavior a simulation cache needs: a cache hit asserts "this exact
code, run on this exact configuration, produced this result".

``REPRO_CODE_VERSION`` overrides the computed stamp (useful for
pinning a cache across cosmetic edits, and for tests that exercise
invalidation).

The *generated-code template version*
(:data:`repro.isa.codegen.CODEGEN_VERSION`) is folded into every point
digest unconditionally.  The computed code-version stamp already hashes
the emitter's source like any other ``repro`` file, but a pinned
``REPRO_CODE_VERSION`` would bypass that — the explicit stamp means
codegen template changes invalidate cached results even under a pinned
code version.  The front end itself is not a point input: a timing
run's stream comes from generated code or the interpreter by the
program alone (:func:`repro.isa.codegen.make_trace_source`), the
trace-level studies always interpret, and both front ends are
bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from functools import lru_cache

from .point import SweepPoint


def canonicalize(value: object) -> object:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Dataclasses become ``{"__type__": qualified-name, ...fields}``;
    dict keys are stringified and sorted by :func:`json.dumps`; sets
    are sorted; tuples and lists are equivalent.  Unknown object types
    raise ``TypeError`` — a point that cannot be canonicalized cannot
    be content-addressed, and silently hashing ``repr`` would let two
    different configurations collide.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: canonicalize(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        qualname = f"{type(value).__module__}.{type(value).__qualname__}"
        return {"__type__": qualname, "fields": fields}
    if isinstance(value, dict):
        return {str(key): canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(canonicalize(item) for item in value)}
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for a sweep digest"
    )


def result_fingerprint(value: object) -> object:
    """Canonical, comparable form of a sweep *result*.

    Like :func:`canonicalize`, but also walks ``__slots__`` stat objects
    (e.g. :class:`repro.cpu.pipeline.PipelineStats`, which defines
    neither ``__eq__`` nor dataclass fields) and plain attribute-bag
    objects, so two results can be compared for bit-identity regardless
    of which process produced them.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__qualname__,
            **{field.name: result_fingerprint(getattr(value, field.name))
               for field in dataclasses.fields(value)},
        }
    if isinstance(value, dict):
        return {str(key): result_fingerprint(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [result_fingerprint(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(result_fingerprint(item)
                                  for item in value)}
    slots = [name for klass in type(value).__mro__
             for name in getattr(klass, "__slots__", ())]
    if slots:
        return {
            "__type__": type(value).__qualname__,
            **{name: result_fingerprint(getattr(value, name))
               for name in slots},
        }
    if hasattr(value, "__dict__"):
        return {
            "__type__": type(value).__qualname__,
            **{name: result_fingerprint(item)
               for name, item in sorted(vars(value).items())},
        }
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} for comparison"
    )


def point_payload(point: SweepPoint) -> dict:
    """The digest-relevant content of a point (label excluded)."""
    return {
        "kind": point.kind,
        "workload": point.workload,
        "scale": point.scale,
        "limit": point.limit,
        "config": canonicalize(point.config),
        "knobs": [[name, canonicalize(value)]
                  for name, value in point.knobs],
    }


def point_digest(point: SweepPoint, code_version: str = "") -> str:
    """Stable hex digest of a point under one code version (plus the
    generated-code template stamp — see the module docstring)."""
    from ..isa.codegen import CODEGEN_VERSION

    payload = {"code": code_version, "codegen": CODEGEN_VERSION,
               "point": point_payload(point)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def _computed_code_version() -> str:
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_version() -> str:
    """The cache's code-version stamp: a hash of every ``repro``
    source file, or the ``REPRO_CODE_VERSION`` environment override."""
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    return _computed_code_version()
