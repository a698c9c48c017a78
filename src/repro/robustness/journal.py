"""Checkpoint/resume journal for suite sweeps.

One JSON file records the outcome of every (benchmark, thread-count)
cell of a sweep.  The batch runner writes the journal after *each* cell
(atomically: temp file + ``os.replace``), so a crashed or aborted sweep
can resume exactly where it stopped, and a sweep with failures can be
re-run with ``--resume`` to retry only the failed cells.

Format (``version`` 1)::

    {
      "version": 1,
      "cells": {
        "cholesky:16": {
          "status": "ok",                  # or "failed"
          "attempts": 1,
          "total_cycles": 123456,          # ok cells
          "truncated": false,
          "error": "...",                  # failed cells
          "error_type": "DeadlockError",
          "snapshot": {...}                # engine post-mortem, if any
        },
        ...
      }
    }
"""

from __future__ import annotations

import json
import logging
import os
import tempfile

from repro._version import repro_version
from repro.errors import ConfigError

logger = logging.getLogger(__name__)

JOURNAL_VERSION = 1

STATUS_OK = "ok"
STATUS_FAILED = "failed"


def cell_key(name: str, n_threads: int) -> str:
    return f"{name}:{n_threads}"


class SweepJournal:
    """Persistent per-cell sweep state."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.cells: dict[str, dict] = {}
        # Journal writes must stay in the process that opened it: the
        # parallel sweep driver ships a journal-less runner to its
        # workers and appends records in the parent as results come
        # back, so two finishing cells can never interleave a write.
        self._owner_pid = os.getpid()
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        """Read the journal at ``path``; a file that is not one raises
        :class:`ConfigError` naming it."""
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not JSON
            raise ConfigError(f"cannot read journal {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(
            data.get("cells", {}), dict
        ):
            raise ConfigError(
                f"{path} is not a sweep journal (a JSON object whose "
                f"'cells' is a table)"
            )
        if data.get("version") != JOURNAL_VERSION:
            raise ConfigError(
                f"unsupported journal version {data.get('version')!r} in "
                f"{path} (this build reads version {JOURNAL_VERSION})"
            )
        self.cells = dict(data.get("cells", {}))
        logger.info("loaded journal %s with %d cells", path, len(self.cells))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def status(self, name: str, n_threads: int) -> str | None:
        entry = self.cells.get(cell_key(name, n_threads))
        return entry["status"] if entry else None

    def entry(self, name: str, n_threads: int) -> dict | None:
        return self.cells.get(cell_key(name, n_threads))

    def completed(self, name: str, n_threads: int) -> bool:
        """True when the cell already succeeded (resume skips it)."""
        return self.status(name, n_threads) == STATUS_OK

    @property
    def failed_keys(self) -> list[str]:
        return sorted(
            key for key, entry in self.cells.items()
            if entry["status"] == STATUS_FAILED
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def record_ok(
        self,
        name: str,
        n_threads: int,
        attempts: int,
        total_cycles: int,
        truncated: bool = False,
        metrics: dict[str, int] | None = None,
    ) -> None:
        entry = {
            "status": STATUS_OK,
            "attempts": attempts,
            "total_cycles": total_cycles,
            "truncated": truncated,
        }
        # written only when metrics collection is on, so a sweep with
        # observability disabled journals byte-identically to pre-metrics
        # versions; the dict arrives in deterministic insertion order
        if metrics is not None:
            entry["metrics"] = metrics
        self.cells[cell_key(name, n_threads)] = entry
        self.save()

    def record_failure(
        self,
        name: str,
        n_threads: int,
        attempts: int,
        error: str,
        error_type: str,
        snapshot: dict | None = None,
    ) -> None:
        self.cells[cell_key(name, n_threads)] = {
            "status": STATUS_FAILED,
            "attempts": attempts,
            "error": error,
            "error_type": error_type,
            "snapshot": snapshot,
        }
        self.save()

    def save(self) -> None:
        """Atomic write so a crash mid-save never corrupts the journal."""
        if os.getpid() != self._owner_pid:
            raise RuntimeError(
                "journal writes must go through the owning (parent) "
                f"process (owner pid {self._owner_pid}, "
                f"caller pid {os.getpid()})"
            )
        if self.path is None:
            return
        # The package version is provenance metadata only: readers key
        # off ``version`` (the journal schema) and ignore unknown keys,
        # and serial and parallel sweeps stamp it identically, so the
        # byte-for-byte journal differential is unaffected.
        payload = {
            "version": JOURNAL_VERSION,
            "repro_version": repro_version(),
            "cells": self.cells,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=".journal-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
