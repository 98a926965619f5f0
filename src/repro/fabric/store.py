"""Content-addressed, self-healing result store shared by the fabric.

One entry per simulation: the sha256 content hash of a canonical
:class:`~repro.scenario.config.ScenarioConfig` (see
:func:`~repro.scenario.executor.config_cache_key`) names a
:class:`~repro.stats.metrics.MetricsSummary` stored as the JSON of
:meth:`~repro.stats.metrics.MetricsSummary.to_dict` under
``<root>/sweep/<k[:2]>/<k>.json``; the file's first line is the sha256
hex digest of that JSON (the payload), the rest is the payload. A
broker, its workers, and every local
:class:`~repro.scenario.executor.SweepExecutor` pointed at the same
directory share results transparently.

The store is designed for **many concurrent writers that can die at any
instruction**:

* Publishes are atomic: a *uniquely named* tmp file (pid + per-process
  token + counter, so writers on hosts sharing a filesystem never
  collide) is fsync'd, then ``os.replace``\\ d over the final name.
  Readers observe the old entry or the new one, never a torn one.
* Reads are validated and self-healing: an entry whose payload does not
  match its hash line, is not JSON, or fails ``MetricsSummary.from_dict``
  (torn write, a flipped digit on disk, schema skew, an entry from
  before the hash line) is a miss **and is unlinked**, so the next
  writer republishes a good copy. The hash is checked before the JSON
  is parsed, so damage that still parses is caught too. Reading an
  entry never executes anything it contains.
* Crashed writers leave only ``*.tmp`` litter; :meth:`sweep_tmp_litter`
  reaps stale tmp files without ever touching live entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import secrets
from pathlib import Path
from typing import List, Optional, Union

from ..stats.metrics import MetricsSummary

__all__ = ["ResultStore"]

#: Per-process entropy so tmp names never collide across hosts that
#: happen to share a pid (e.g. containers on one NFS volume).
_PROCESS_TOKEN = secrets.token_hex(4)

_TMP_SEQ = itertools.count()


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: The shape of a config key (a sha256 hex digest).
_KEY = re.compile(r"[0-9a-f]{64}")


def _valid_key(key) -> bool:
    """Whether *key* is shaped like a config key: 64 lowercase hex digits.

    Keys arrive from fabric peers nobody vouches for; only this shape
    may name a file, so no key can climb out of the store root.
    """
    return isinstance(key, str) and _KEY.fullmatch(key) is not None


class ResultStore:
    """Hashed JSON summaries under ``<root>/sweep/<k[:2]>/<k>.json``.

    Only a config key (64 lowercase hex digits, as
    :func:`~repro.scenario.executor.config_cache_key` makes) names an
    entry: any other key is a miss on read, refused on write, and never
    touches the filesystem.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root) / "sweep"

    def _path(self, key: str, suffix: str = ".json") -> Path:
        return self.root / key[:2] / (key + suffix)

    # ---------------------------------------------------------------- reads

    def get(self, key: str, heal: bool = True) -> Optional[MetricsSummary]:
        """The summary stored under *key*, or ``None`` on miss.

        *Any* failure to load — a payload that does not match its hash
        line first of all — is a miss; with ``heal`` (the default) a
        present-but-unreadable entry is also unlinked so it gets
        recomputed exactly once instead of shadowing the key forever.
        """
        if not _valid_key(key):
            return None
        path = self._path(key)
        try:
            digest, _, payload = path.read_bytes().partition(b"\n")
            if hashlib.sha256(payload).hexdigest().encode() != digest:
                raise ValueError("entry does not match its content hash")
            return MetricsSummary.from_dict(json.loads(payload))
        except FileNotFoundError:
            return None
        except Exception:
            # A hash mismatch, torn JSON, schema mismatch, nesting deep
            # enough to raise RecursionError, disk damage: a cache must
            # never turn any of them into a crash, so every failure is
            # a miss.
            if heal:
                with contextlib.suppress(OSError):
                    path.unlink()
            return None

    def __contains__(self, key: str) -> bool:
        return _valid_key(key) and self._path(key).exists()

    # --------------------------------------------------------------- writes

    def put(self, key: str, summary: MetricsSummary) -> bool:
        """Atomically publish *summary* under *key*; True on success.

        Failures (including a summary JSON cannot encode) are swallowed:
        a cache write must never sink the computation it is caching.
        """
        if not _valid_key(key):
            return False
        try:
            text = json.dumps(summary.to_dict(), separators=(",", ":"))
        except (AttributeError, TypeError, ValueError):
            return False
        digest = hashlib.sha256(text.encode()).hexdigest()
        return self._publish(self._path(key), f"{digest}\n{text}")

    def put_trace(self, key: str, text: str) -> bool:
        """Atomically publish a flight-trace JSONL document beside *key*
        (a trace is telemetry, never worth sinking the result for)."""
        if not _valid_key(key):
            return False
        return self._publish(self._path(key, ".trace.jsonl"), text)

    def _publish(self, path: Path, text: str) -> bool:
        """Write → fsync → rename via a unique tmp name: a writer killed
        at any point leaves the old entry or the new one, plus at worst
        one tmp file for :meth:`sweep_tmp_litter`."""
        tmp = path.parent / (
            f"{path.name}.{os.getpid()}.{_PROCESS_TOKEN}.{next(_TMP_SEQ)}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
            return True
        except Exception:
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False

    # --------------------------------------------------------------- traces

    def get_trace(self, key: str) -> Optional[str]:
        """The flight-trace JSONL text for *key*, or ``None`` on miss."""
        if not _valid_key(key):
            return None
        try:
            return self._path(key, ".trace.jsonl").read_text()
        except OSError:
            return None

    # ------------------------------------------------------------- hygiene

    def sweep_tmp_litter(self, max_age_s: float = 3600.0) -> List[Path]:
        """Remove tmp files older than *max_age_s*; returns what it reaped.

        Young tmp files are left alone — they may belong to a live
        writer that simply has not renamed yet.
        """
        import time

        reaped: List[Path] = []
        now = time.time()
        try:
            candidates = list(self.root.rglob("*.tmp"))
        except OSError:
            return reaped
        for tmp in candidates:
            try:
                if now - tmp.stat().st_mtime >= max_age_s:
                    tmp.unlink()
                    reaped.append(tmp)
            except OSError:
                continue
        return reaped
