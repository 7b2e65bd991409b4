"""Content-addressed on-disk result cache.

Layout: one pickle per completed point at
``<root>/<digest[:2]>/<digest>.pkl``, where the digest is
:func:`repro.runner.digest.point_digest` over the point, the cache's
code-version stamp, and the generated-code template stamp
(:data:`repro.isa.codegen.CODEGEN_VERSION` — so results from different
codegen templates key disjoint entries even under a pinned
``REPRO_CODE_VERSION``).  Entries carry their own digest so a truncated,
corrupted, or misfiled pickle is detected on load, deleted, and
silently recomputed — the cache can only ever cost a recompute, never
serve a wrong result.

Writes are atomic (temp file + ``os.replace``), so concurrent sweep
workers and concurrent sweeps sharing one cache directory never
observe half-written entries.

Stores are best-effort: an ``OSError`` (disk full, permission,
read-only filesystem) disables further stores for the rest of this
cache's lifetime — one warning line on stderr, a ``store_errors``
count the engine surfaces as ``runner.cache.store_errors`` — instead
of failing the sweep point whose *simulation already succeeded*.
Loads keep working; a degraded cache can only miss, never lie.

Because every completed point is stored before the sweep moves on, the
cache is also the resume: rerunning an interrupted sweep serves the
finished points from here and executes only the rest.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import sys

from .digest import code_version as current_code_version
from .digest import point_digest
from .point import SweepPoint


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-sweeps``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return str(pathlib.Path.home() / ".cache" / "repro-sweeps")


class ResultCache:
    """Digest-keyed store of completed sweep-point results."""

    def __init__(self, root: "str | os.PathLike",
                 code_version: "str | None" = None):
        self.root = pathlib.Path(root)
        #: Stamp mixed into every digest; a different stamp (new code)
        #: addresses a disjoint keyspace, so stale entries can never be
        #: served — they are simply never looked up again.
        self.code_version = (code_version if code_version is not None
                             else current_code_version())
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        #: ``OSError``-failed stores; the first one disables the rest.
        self.store_errors = 0
        self.store_disabled = False

    def digest_for(self, point: SweepPoint) -> str:
        return point_digest(point, self.code_version)

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def load(self, point: SweepPoint,
             digest: "str | None" = None) -> "tuple[bool, object]":
        """``(True, result)`` on a hit; ``(False, None)`` on a miss.

        A corrupted entry (unpicklable, truncated, or digest-mismatched)
        counts as a miss, is deleted, and will be recomputed and
        re-stored by the engine.
        """
        digest = digest or self.digest_for(point)
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
            if not isinstance(entry, dict) or entry.get("digest") != digest:
                raise ValueError("cache entry digest mismatch")
            result = entry["result"]
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.hits += 1
        return True, result

    def store(self, point: SweepPoint, result: object,
              digest: "str | None" = None) -> bool:
        """Persist one completed point atomically; ``True`` on success.

        An ``OSError`` anywhere in the write path (disk full, quota,
        permissions) degrades the cache to store-off for the rest of
        this run instead of crashing a point whose simulation already
        succeeded: ``store_errors`` counts the failure, one warning
        line lands on stderr, and every later :meth:`store` is a cheap
        no-op returning ``False``.  Loads are unaffected.
        """
        digest = digest or self.digest_for(point)
        if self.store_disabled:
            return False
        path = self._path(digest)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            entry = {
                "digest": digest,
                "kind": point.kind,
                "workload": point.workload,
                "label": point.label,
                "result": result,
            }
            with open(tmp, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            self._note_store_error(exc)
            return False
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        self.stores += 1
        return True

    def _note_store_error(self, exc: OSError) -> None:
        self.store_errors += 1
        if not self.store_disabled:
            self.store_disabled = True
            print(f"[cache] store failed ({exc}); result caching "
                  f"disabled for the rest of this run — completed "
                  f"points still return normally", file=sys.stderr)
