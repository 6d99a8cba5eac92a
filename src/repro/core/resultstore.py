"""On-disk result cache keyed by spec fingerprint.

One JSON file per experiment, named by the spec's content hash (see
:func:`repro.core.runner.spec_fingerprint`). Because the fingerprint
is salted with :data:`repro.core.runner.CACHE_SCHEMA_VERSION`, bumping
the schema version orphans old entries instead of mis-reading them;
each file also records the version it was written under as a second
safeguard.

Concurrency model — the store is safe for any number of writers:

* entries are content-addressed (the fingerprint names the file) and
  every publish is a tmp-file + ``os.replace``, so a reader observes
  either the old entry, the new entry, or nothing — never a torn
  write. A crash mid-write leaves only a hidden ``.tmp-*`` file, which
  reads as a miss and is swept by :meth:`ResultStore.reap_tmp`;
* entries carry a checksum over the summary payload, verified on read
  — a corrupted entry (bit rot, partial overwrite by an unrelated
  tool) is deleted-as-miss instead of poisoning a campaign. Entries
  written before checksums are still accepted, so the cache schema
  version did not change;
* :meth:`ResultStore.acquire_lease` provides cross-process
  single-flight: the first process to create ``<fingerprint>.lock``
  (``O_EXCL``, recording ``pid hostname``) simulates, everyone else
  polls the cache for its publish. Leases are advisory: a stale one
  (same-host holder pid dead, or older than :data:`LEASE_STALE_S`) is
  broken, so losing a lease race at worst duplicates work — and a
  duplicate publish is an atomic replace carrying the same result
  (outcomes are pure functions of their specs; only the recorded
  ``elapsed_s`` differs). It can never corrupt an entry.
"""

from __future__ import annotations

import json
import os
import socket
import time
from hashlib import sha256
from pathlib import Path
from typing import Optional, Union

from repro.core import runner as _runner
from repro.core.experiment import ExperimentSpec
from repro.core.runner import ResultSummary

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: A lease older than this is presumed orphaned even if its pid check
#: is inconclusive (e.g. pid recycled); no simulation runs this long.
LEASE_STALE_S = 3600.0

#: Orphaned ``.tmp-*`` publish files older than this are reaped.
TMP_STALE_S = 3600.0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def _summary_checksum(summary_dict: dict) -> str:
    """Hex digest over the canonical summary payload."""
    canonical = json.dumps(summary_dict, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


class Lease:
    """Exclusive right to simulate one fingerprint, held via a lock file.

    Always release (the scheduler does so in a ``finally``); an
    unreleased lease from a crashed process is broken by the next
    acquirer once its pid is dead or it exceeds :data:`LEASE_STALE_S`.
    ``path`` is None for a lease the store could not back with a lock
    file (see :meth:`ResultStore.acquire_lease`): it excludes no one,
    and releasing it does nothing.
    """

    def __init__(self, path: Optional[Path]):
        self.path = path
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        if self.path is None:
            return
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ResultStore:
    """Fingerprint-addressed cache of :class:`ResultSummary` entries."""

    def __init__(self, cache_dir: Union[str, Path, None] = None):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()

    def _path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.json"

    def _lease_path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.lock"

    def get(self, fingerprint: str) -> Optional[ResultSummary]:
        """The cached summary, or None on miss/corruption/stale schema.

        A corrupted or truncated entry (torn write, disk rot, checksum
        mismatch) is a cache miss, and the bad file is deleted on the
        spot so the next ``put`` rewrites it cleanly instead of the
        corruption surviving forever. Entries from an older schema
        version are left alone — they are valid files that simply no
        longer match any fingerprint the current code computes.
        """
        path = self._path(fingerprint)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            self._discard(path)
            return None
        if data.get("schema_version") != _runner.CACHE_SCHEMA_VERSION:
            return None
        try:
            summary_dict = data["summary"]
            recorded = data.get("checksum")
            if recorded is not None and recorded != _summary_checksum(
                summary_dict
            ):
                # Payload no longer matches what the writer hashed:
                # partial overwrite or bit rot. Miss, and rewrite later.
                self._discard(path)
                return None
            return ResultSummary.from_dict(summary_dict)
        except (KeyError, TypeError, AttributeError):
            self._discard(path)
            return None

    #: Alias: ``load`` reads an entry with the same miss-and-discard
    #: semantics as :meth:`get`.
    load = get

    @staticmethod
    def _discard(path: Path) -> None:
        """Remove a corrupted entry; losing a race to do so is fine."""
        try:
            path.unlink()
        except OSError:
            pass

    def put(
        self, fingerprint: str, spec: ExperimentSpec, summary: ResultSummary
    ) -> None:
        """Write one entry atomically (tmp file + rename)."""
        import tempfile

        from repro.core.export import spec_to_dict

        self.cache_dir.mkdir(parents=True, exist_ok=True)
        summary_dict = summary.to_dict()
        payload = {
            "fingerprint": fingerprint,
            "schema_version": _runner.CACHE_SCHEMA_VERSION,
            "spec": spec_to_dict(spec),
            "summary": summary_dict,
            "checksum": _summary_checksum(summary_dict),
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self._path(fingerprint))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Cross-process single-flight

    def acquire_lease(self, fingerprint: str) -> Optional[Lease]:
        """Try to claim exclusive simulation rights for a fingerprint.

        Returns a :class:`Lease` on success, None when another live
        process already holds one (the caller should poll :meth:`get`
        for that process's publish). A stale lease is broken and
        re-contended once: same-host leases are stale when the holder
        pid is dead, and any lease is stale past :data:`LEASE_STALE_S`
        (foreign-host pids are never probed — pid namespaces don't
        span hosts).

        Where lock files cannot be created at all (a read-only or
        permission-restricted directory, a filesystem without
        ``O_EXCL``), the returned lease is unbacked and the caller
        simply runs the unit without single-flight.
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(fingerprint)
        lease = self._try_create_lease(path)
        if lease is not None:
            return lease
        if self._lease_stale(path):
            self._discard(path)
            return self._try_create_lease(path)
        return None

    @staticmethod
    def _try_create_lease(path: Path) -> Optional[Lease]:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        except OSError:
            # Only an existing file means "held". Any other failure
            # means no lock can exist here: run without one.
            return Lease(None)
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{os.getpid()} {socket.gethostname()}")
        return Lease(path)

    @staticmethod
    def _lease_stale(path: Path) -> bool:
        try:
            age = time.time() - path.stat().st_mtime
            holder = path.read_text().split()
        except OSError:
            # Vanished between our failed create and now: the holder
            # released. Worth re-contending.
            return True
        if age > LEASE_STALE_S:
            return True
        pid_text = holder[0] if holder else ""
        holder_host = holder[1] if len(holder) > 1 else None
        if holder_host is not None and holder_host != socket.gethostname():
            # A lease written on another host (a cache dir shared over
            # a network mount): its pid namespace is invisible here,
            # so only the age bound can break it.
            return False
        if pid_text.isdigit():
            try:
                os.kill(int(pid_text), 0)
            except ProcessLookupError:
                return True
            except (PermissionError, OSError):
                pass
        return False

    def reap_tmp(self, max_age_s: float = TMP_STALE_S) -> int:
        """Sweep orphaned ``.tmp-*`` publish files; returns count removed.

        A crash between ``mkstemp`` and ``os.replace`` leaves a hidden
        tmp file that no read path ever sees; this reclaims the disk.
        Fresh tmp files (another process mid-publish) are left alone.
        """
        removed = 0
        if not self.cache_dir.is_dir():
            return 0
        now = time.time()
        for path in self.cache_dir.glob(".tmp-*"):
            try:
                if now - path.stat().st_mtime >= max_age_s:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(
            1
            for p in self.cache_dir.glob("*.json")
            if not p.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also removes leftover lease files — clearing a cache while a
        campaign holds leases is an operator action, not a race we
        defend against.
        """
        removed = 0
        if not self.cache_dir.is_dir():
            return 0
        for path in self.cache_dir.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.cache_dir.glob("*.lock"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed
