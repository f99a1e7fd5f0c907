"""Persistent result cache: a directory of JSON documents keyed by the
pattern's canonical digest, one strongest record per (pattern, n).

Strength order: exact beats lowerBound, larger lowerBound beats smaller;
put never downgrades, and concurrent puts are serialized by a per-key
lock file. Witnesses re-verify on every get (dimensions, weight, and
pattern-freeness); any mismatch raises CacheError with a rebuild hint.

Files are compact JSON with sorted keys; indented files from earlier
versions still load, and the first put that changes one rewrites it.

A store parses each exact file content once: every read takes the file's
bytes, and when they equal the bytes it last parsed or wrote for that key
it reuses those records, handing out fresh copies. A put that writes keeps
the bytes and a private copy of the records it wrote. A file changed from
outside (another store or process) has other bytes and is parsed again; a
malformed file is never kept, so it raises on every call. This pays in a
process that reads one key file repeatedly (`extremal_table`, a long-lived
store); a one-shot `ex --cache-dir` reads each file once and gains nothing.

The directory prefix is computed once; each key's file, lock and temp paths
are plain strings equal to the `Path` joins (`directory / name`), so
messages name the same paths. A record handed out is rebuilt with the
`ExtremalRecord` constructor, its JSON-shaped provenance (dicts, lists,
tuples) copied by a small recursive copier; the immutable witness matrix is
shared.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
from pathlib import Path
from typing import Optional, Union

from .errors import CacheError, PatexError
from .matrix import ZeroOneMatrix, canonical_key, find_embedding
from .search import ExtremalRecord


def _stronger(a: ExtremalRecord, b: ExtremalRecord) -> ExtremalRecord:
    """The stronger of two records for the same (pattern, n)."""
    if a.status == "exact" and b.status == "exact":
        if a.value != b.value:
            raise CacheError(
                f"two exact records disagree ({a.value} vs {b.value}); "
                "delete the cache entry and recompute"
            )
        return a
    if a.status == "exact":
        return a
    if b.status == "exact":
        return b
    return a if a.value >= b.value else b


def _copy_json(value):
    """A deep copy of JSON-shaped data: dicts, lists and tuples are rebuilt,
    anything else (str, int, float, bool, None) is shared."""
    if isinstance(value, dict):
        return {k: _copy_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_json(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_copy_json(v) for v in value)
    return value


def _fresh(rec: ExtremalRecord) -> ExtremalRecord:
    """A copy of a stored record that the caller may change freely."""
    return ExtremalRecord(
        rec.pattern_key, rec.n, rec.value, rec.status, rec.witness, _copy_json(rec.provenance)
    )


class CacheStore:
    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise CacheError(f"cannot use cache directory {self.directory}: {exc.strerror or exc}") from None
        # What `directory / name` puts before name: "" for ".", "/" for "/".
        self._prefix = str(self.directory / "_")[:-1]
        # key -> (bytes of the key's file, the records parsed from them)
        self._parsed: dict[str, tuple[bytes, list[ExtremalRecord]]] = {}

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}.json"

    def _read(self, key: str) -> tuple[str, list[ExtremalRecord]]:
        """The key's file and its records (none when the file does not
        exist), parsed once per file content. A malformed file raises
        CacheError. The records are shared with the store: copy before
        handing one out."""
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                data = f.read()
            parsed = self._parsed.get(key)
            if parsed is not None and parsed[0] == data:
                return path, parsed[1]
            doc = json.loads(data)
        except FileNotFoundError:
            return path, []
        except (OSError, ValueError) as exc:
            raise CacheError(
                f"unreadable cache file {path}: {exc}; delete it to rebuild"
            ) from exc
        records = doc.get("records", []) if isinstance(doc, dict) else None
        if not isinstance(records, list):
            raise CacheError(f"malformed cache file {path}; delete it to rebuild")
        if doc.get("patternKey") != key:
            raise CacheError(f"cache file {path} holds a different pattern; delete it to rebuild")
        try:
            records = [ExtremalRecord.from_json_dict(raw) for raw in records]
        except PatexError as exc:
            raise CacheError(
                f"corrupt record under key {key}: {exc}; delete {path} to rebuild"
            ) from exc
        self._parsed[key] = (data, records)
        return path, records

    def get(self, pattern: ZeroOneMatrix, n: int) -> Optional[ExtremalRecord]:
        key = canonical_key(pattern)
        best: Optional[ExtremalRecord] = None
        for rec in self._read(key)[1]:
            if rec.n != n:
                continue
            self._verify(pattern, rec, key)
            best = rec if best is None else _stronger(best, rec)
        return None if best is None else _fresh(best)

    def put(self, pattern: ZeroOneMatrix, record: ExtremalRecord) -> ExtremalRecord:
        """Merge a record in, never downgrading; returns the stored record.
        The read-merge-write holds an exclusive lock on the key's lock file,
        so concurrent writers (threads or processes) never lose records."""
        key = canonical_key(pattern)
        self._verify(pattern, record, key)
        lock_path = f"{self._prefix}{key}.lock"
        try:
            lock = os.open(lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
        except OSError as exc:
            raise CacheError(f"cannot open cache lock {lock_path}: {exc}") from exc
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            return self._merge(pattern, record, key)
        finally:
            os.close(lock)

    def _merge(self, pattern: ZeroOneMatrix, record: ExtremalRecord, key: str) -> ExtremalRecord:
        """Stores the stronger of record and the stored one for its n; the
        file is rewritten only when that is not the stored record."""
        path, records = self._read(key)
        stored = next((rec for rec in records if rec.n == record.n), None)
        merged = record if stored is None else _stronger(stored, record)
        if merged is stored:
            return _fresh(stored)
        records = [rec for rec in records if rec.n != record.n] + [_fresh(merged)]
        records.sort(key=lambda r: (r.n, r.status, r.value))
        doc = {
            "patternKey": key,
            "pattern": pattern.to_json_dict(),
            "records": [r.to_json_dict() for r in records],
        }
        # The lock admits one writer per key at a time; the pid keeps this
        # temp file apart from another process's even if that one skips it.
        tmp = f"{self._prefix}{key}.{os.getpid()}.tmp"
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
        try:
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            # Best effort: tmp may never have been made, or be a directory.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise CacheError(f"cannot write cache file {path}: {exc}") from exc
        self._parsed[key] = (data, records)
        return merged

    def _verify(self, pattern: ZeroOneMatrix, rec: ExtremalRecord, key: str) -> None:
        problems = []
        if rec.pattern_key != key:
            problems.append("pattern key mismatch")
        if rec.witness.rows != rec.n or rec.witness.cols != rec.n:
            problems.append(f"witness is {rec.witness.rows}x{rec.witness.cols}, expected {rec.n}x{rec.n}")
        if rec.witness.weight != rec.value:
            problems.append(f"witness weight {rec.witness.weight} != value {rec.value}")
        if pattern.weight > 0 and find_embedding(rec.witness, pattern) is not None:
            problems.append("witness contains the pattern")
        if rec.status not in ("exact", "lowerBound"):
            problems.append(f"unknown status {rec.status!r}")
        if problems:
            raise CacheError(
                "invalid cache record for n="
                f"{rec.n}: {'; '.join(problems)}; delete {self._path(key)} to rebuild"
            )
