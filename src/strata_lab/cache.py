"""Content-addressed on-disk cache of computed results.

`cached(kind, params, compute)` stores the JSON value of compute() under
a hash of (package version, kind, params), so version bumps invalidate
old files automatically; a header echo inside each file is checked on
load and mismatches fall back to recomputation.  Writes go through a
temp file and an atomic rename.  The CLI stores certified Betti numbers
only, keyed by (n, k, seed): they are the results that cost eliminations,
while strata are recomputed faster than a cache file is read.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable

from . import __version__

ENV_VAR = "STRATA_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "strata-lab"


def _load(path: Path, header: dict):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    # strata files of the former layout have the same header but no "value"
    if not isinstance(obj, dict) or obj.get("header") != header or "value" not in obj:
        return None
    return obj


def _store(path: Path, header: dict, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "value": value}, fh,
                      separators=(",", ":"), sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cached(kind: str, params: dict, compute: Callable[[], object],
           cache_dir: Path | None = None):
    """compute(), or the value a previous call with the same kind and
    params stored.  The value must survive a JSON round trip unchanged."""
    header = {"version": __version__, "kind": kind, **params}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode()).hexdigest()[:16]
    name = "-".join([kind, *(f"{key}{val}" for key, val in params.items()), digest])
    path = (cache_dir or default_cache_dir()) / f"{name}.json"
    obj = _load(path, header)
    if obj is not None:
        return obj["value"]
    value = compute()
    _store(path, header, value)
    return value
