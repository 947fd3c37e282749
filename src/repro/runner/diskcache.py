"""Persistent on-disk store for serialized simulation results.

One JSON file per run, named by the :meth:`RunSpec.digest` content hash.
Because the digest covers the full configuration, the cache-format
version, and a fingerprint of the simulator source, entries never need
explicit invalidation — a changed simulator simply stops matching its
old entries (``clear()`` reclaims the space).

Location: ``$REPRO_CACHE_DIR``, defaulting to ``~/.cache/repro-runs``.
Set ``REPRO_CACHE=0`` to disable persistence entirely.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-runs"


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1") != "0"


class DiskCache:
    """A digest-keyed directory of JSON result payloads."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls) -> "DiskCache | None":
        """The default cache, or None when ``REPRO_CACHE=0``."""
        return cls() if cache_enabled() else None

    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def load(self, digest: str) -> dict | None:
        """Return the stored payload, or None (corrupt files are dropped)."""
        path = self.path(digest)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError):
            # A partial write from a crashed run; discard and recompute.
            self.discard(digest)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def discard(self, digest: str) -> None:
        """Drop one entry (a no-op when it is already gone)."""
        try:
            self.path(digest).unlink()
        except OSError:
            pass

    def store(self, digest: str, payload: dict) -> None:
        """Atomically persist a payload (write to temp file, then rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, separators=(",", ":"))
            os.replace(tmp_name, self.path(digest))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size(self) -> int:
        """Number of cached entries on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
