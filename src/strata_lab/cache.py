"""Content-addressed on-disk cache of computed results.

`cached(kind, params, compute, cache_dir, accept)` stores the JSON value
of compute() in cache_dir under a hash of (package version, kind,
params).  Each file echoes its header and carries the sha256 of its
value's canonical JSON; a file whose header differs, whose hash is
missing or does not match, or whose value `accept` refuses is recomputed
and rewritten.  Writes go through a temp file and an atomic rename; a
failed write is named on stderr and the value returned all the same.
The CLI stores certified Betti numbers only, keyed by (n, k, seed), the
results that cost eliminations, and accepts an entry only if it is the
int b_k of Keel's recursion.  The `version` header has stayed 0.1.0 since
the first release, so that check, not the version, invalidates a stale
Betti entry, and a value edited along with its hash is never returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
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


def _load(path: Path, header: dict, accept: Callable[[object], bool]):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(obj, dict) or obj.get("header") != header or "value" not in obj:
        return None
    if obj.get("sha256") != _digest(obj["value"]) or not accept(obj["value"]):
        return None
    return obj


def _digest(value) -> str:
    """sha256 of the canonical JSON of a cached value."""
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _store(path: Path, header: dict, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "value": value, "sha256": _digest(value)}, fh,
                      separators=(",", ":"), sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cached(kind: str, params: dict, compute: Callable[[], object], cache_dir: Path,
           accept: Callable[[object], bool] = lambda value: True):
    """compute(), or the value a previous call with the same kind and
    params stored in cache_dir, if accept(value) holds; else it is
    recomputed and rewritten.  The value must survive a JSON round trip
    unchanged."""
    header = {"version": __version__, "kind": kind, **params}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode()).hexdigest()[:16]
    name = "-".join([kind, *(f"{key}{val}" for key, val in params.items()), digest])
    path = cache_dir / f"{name}.json"
    obj = _load(path, header, accept)
    if obj is not None:
        return obj["value"]
    value = compute()
    try:
        _store(path, header, value)
    except OSError as exc:
        sys.stderr.write(f"cache: cannot write {path}: {exc.strerror or exc}\n")
    return value
