"""Durable filesystem work queue: cells as files, renames as commits.

One sweep cell is one JSON file that lives in exactly one state
directory at a time::

    <queue-dir>/
      queue.json      # manifest: cells (canonical order), policy, TTLs
      tmp/            # staging for every transition (same filesystem)
      pending/        # claimable cells (may carry a not_before backoff)
      leased/         # cells owned by a worker under a TTL lease
      done/           # terminal: the finished cell's outcome record
      failed/         # terminal: deterministic in-simulation failure
      quarantined/    # terminal: poison cells (N expired leases)
      workers/        # per-worker liveness heartbeats (advisory)
      chaos/          # one-shot markers for the fault-injection hooks

No external services, no locks, no fcntl: every state transition is an
atomic ``os.rename`` out of the old state followed by an ``os.link``
into the new one, both on the same filesystem.

* **Claims are single-winner.**  Two workers racing to claim the same
  cell both try ``rename(pending/X, tmp/<unique>)``; POSIX guarantees
  exactly one rename sees the source file — the loser gets
  ``FileNotFoundError`` and moves on.
* **A benchmark's cells stay together.**  A claim passes over a cell
  whose single-threaded reference group (same spec, scale and machine)
  already has a leased cell, unless nothing else is claimable: the
  worker that measured the group's ``Ts`` runs its next cell from its
  warm memo instead of a second worker measuring ``Ts`` again.
* **Entries never clobber.**  Transitions *into* a state use
  ``os.link`` (fails with ``EEXIST``) instead of rename (which silently
  replaces): a duplicate pending file cannot overwrite a live lease,
  and the first completion of a double-claimed cell wins — safe because
  cells are deterministic, so a second completion is byte-identical
  anyway.
* **Fencing tokens.**  Each claim increments the cell's ``lease_seq``;
  renewals and completions move the lease file out, verify the token,
  and put it back if it belongs to someone else — a worker that lost
  its lease to the reclaimer can never renew or complete over the new
  owner.
* **Everything is rebuildable.**  The manifest holds the full
  serialized :class:`~repro.parallel.CellSpec` of every cell, so a
  corrupt or vanished state file is reconstructed from the manifest by
  the reclaimer instead of stranding the cell.

Durability: record writes go to ``tmp/`` and are fsynced before they
are linked into a state directory, and the state directory is fsynced
after every link/rename — a machine crash leaves each cell either in
its old state or its new one, never in neither (and a cell caught
mid-transition is repaired from the manifest).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.checkpoint import read_header
from repro.config import RunConfig
from repro.errors import CheckpointError, ConfigError
from repro.parallel.cells import CellSpec
from repro.workloads.spec import BenchmarkSpec

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 2
MANIFEST_NAME = "queue.json"

#: cell states == directory names (terminal: done/failed/quarantined)
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"
STATES = (PENDING, LEASED, DONE, FAILED, QUARANTINED)
TERMINAL_STATES = frozenset({DONE, FAILED, QUARANTINED})


def _fname(key: str) -> str:
    # keys are "<benchmark>:<threads>"; ":" is legal on POSIX but not
    # everywhere, and "@" never appears in suite names
    return key.replace(":", "@") + ".json"


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def cell_to_dict(cell: CellSpec) -> dict:
    return {
        "key": cell.key,
        "spec": asdict(cell.spec),
        "n_threads": cell.n_threads,
        "scale": cell.scale,
        "fault": cell.fault,
        "fault_seed": cell.fault_seed,
        "machine_json": cell.machine_json,
    }


def cell_from_dict(doc: dict) -> CellSpec:
    spec_doc = dict(doc["spec"])
    # JSON has no tuples; BenchmarkSpec is frozen/hashable and needs one
    spec_doc["expected_top"] = tuple(spec_doc.get("expected_top", ()))
    return CellSpec(
        spec=BenchmarkSpec(**spec_doc),
        n_threads=doc["n_threads"],
        scale=doc["scale"],
        fault=doc["fault"],
        fault_seed=doc["fault_seed"],
        machine_json=doc["machine_json"],
    )


@dataclass
class Lease:
    """A worker's claim on one cell (valid until ``deadline``)."""

    key: str
    cell: CellSpec
    worker: str
    token: int
    deadline: float
    #: lease expiries the cell had suffered *before* this claim
    expiries: int = 0


@dataclass
class ReclaimEvent:
    """One reclaimer action: an expired (or corrupt) lease returned to
    pending — or quarantined once it crossed the poison threshold."""

    key: str
    worker: str
    expiries: int
    quarantined: bool = False
    delay_s: float = 0.0
    corrupt: bool = False


@dataclass
class QueueCounts:
    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0
    quarantined: int = 0
    missing: int = 0

    @property
    def terminal(self) -> int:
        return self.done + self.failed + self.quarantined


class QueueStore:
    """One durable work queue rooted at a directory (see module doc)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._manifest_path = self.root / MANIFEST_NAME
        if not self._manifest_path.exists():
            raise ConfigError(
                f"no queue manifest at {self._manifest_path}; create the "
                "queue with QueueStore.create (or repro sweep "
                "--queue-dir)"
            )
        with open(self._manifest_path) as handle:
            manifest = json.load(handle)
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise ConfigError(
                f"unsupported queue manifest version {version!r} "
                f"in {self._manifest_path} (this build reads version "
                f"{MANIFEST_VERSION}); run the sweep on a fresh --queue-dir"
            )
        self.cells: dict[str, CellSpec] = {}
        self.order: list[str] = []
        #: key -> its single-threaded reference group (the ReferenceMemo
        #: key: spec, scale and machine; the watchdog limits are the
        #: manifest's), numbered in manifest order
        self._group: dict[str, int] = {}
        groups: dict[tuple, int] = {}
        for doc in manifest["cells"]:
            cell = cell_from_dict(doc)
            self.cells[cell.key] = cell
            self.order.append(cell.key)
            self._group[cell.key] = groups.setdefault(
                (cell.spec, cell.scale, cell.machine_json), len(groups)
            )
        self.policy = RunConfig(**manifest["policy"])
        self.lease_ttl_s: float = manifest["lease_ttl_s"]
        self.poison_after: int = manifest["poison_after"]
        self.collect_metrics: bool = manifest.get("collect_metrics", False)
        # absent in pre-span manifests: attaching a new driver to an
        # old queue keeps span collection off
        self.collect_spans: bool = manifest.get("collect_spans", False)
        self._tmp_counter = itertools.count()
        #: reclaimer memory: last expiry count per key (survives corrupt
        #: state files, not process restarts — the manifest does that)
        self._expiry_memory: dict[str, int] = {}
        #: orphan detector: when each key was first seen in *no* state
        #: dir (by this process)
        self._missing_since: dict[str, float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        cells: list[CellSpec],
        policy: RunConfig,
        *,
        lease_ttl_s: float = 30.0,
        poison_after: int = 3,
        collect_metrics: bool = False,
        collect_spans: bool = False,
    ) -> "QueueStore":
        """Initialise a queue directory and enqueue every cell.

        Cells a resumed sweep should skip (already ok in the journal)
        must be filtered out *before* creation: the manifest is the
        queue's whole world, and workers exit once every manifest cell
        is terminal.
        """
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            raise ConfigError(
                f"queue already exists at {manifest_path}; pass --resume "
                "to attach to it or choose a fresh --queue-dir"
            )
        if not math.isfinite(lease_ttl_s) or lease_ttl_s <= 0:
            raise ConfigError(
                f"lease_ttl_s: lease TTL must be a finite number of "
                f"seconds > 0, got {lease_ttl_s}",
                field="lease_ttl_s",
            )
        if poison_after < 1:
            raise ConfigError("poison_after must be >= 1 lease expiries")
        seen: set[str] = set()
        for cell in cells:
            if cell.key in seen:
                raise ConfigError(f"duplicate cell key {cell.key!r}")
            seen.add(cell.key)
        root.mkdir(parents=True, exist_ok=True)
        for sub in STATES + ("tmp", "workers", "chaos"):
            (root / sub).mkdir(exist_ok=True)
        manifest = {
            "version": MANIFEST_VERSION,
            "cells": [cell_to_dict(cell) for cell in cells],
            "policy": asdict(policy),
            "lease_ttl_s": lease_ttl_s,
            "poison_after": poison_after,
            "collect_metrics": collect_metrics,
            "collect_spans": collect_spans,
        }
        tmp = root / "tmp" / "manifest.tmp"
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, manifest_path)
        _fsync_dir(root)
        store = cls(root)
        for cell in cells:
            store._put(PENDING, cell.key, {
                "key": cell.key,
                "expiries": 0,
                "lease_seq": 0,
                "not_before": 0.0,
            })
        return store

    # ------------------------------------------------------------------
    # atomic primitives
    # ------------------------------------------------------------------

    def _tmp_path(self, label: str) -> Path:
        return self.root / "tmp" / (
            f"{label}-{os.getpid()}-{next(self._tmp_counter)}.json"
        )

    def _take(self, state: str, key: str) -> tuple[dict | None, Path] | None:
        """Atomically move a cell file out of ``state`` into tmp/.

        Returns ``(record, tmp_path)`` — record is None when the file
        content is corrupt — or None when someone else moved the file
        first (the single-winner race lost cleanly).  The caller owns
        the tmp file and must consume it via :meth:`_put` /
        :meth:`_discard` (or :meth:`_restore` to undo).
        """
        src = self.root / state / _fname(key)
        tmp = self._tmp_path(f"take-{state}")
        try:
            os.rename(src, tmp)
        except FileNotFoundError:
            return None
        try:
            with open(tmp) as handle:
                record = json.load(handle)
        except (json.JSONDecodeError, OSError):
            record = None
        return record, tmp

    def _put(
        self, state: str, key: str, record: dict, consume: Path | None = None
    ) -> bool:
        """Durably link a fresh record into ``state`` (no clobber).

        Returns False — and drops the record — when the slot is already
        occupied (a duplicate from a corrupt double-claim; the resident
        entry is authoritative).  ``consume`` is a tmp file from
        :meth:`_take` to clean up once the new state is durable.
        """
        tmp = self._tmp_path(f"put-{state}")
        with open(tmp, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        dst = self.root / state / _fname(key)
        try:
            os.link(tmp, dst)
            linked = True
        except FileExistsError:
            linked = False
        finally:
            os.unlink(tmp)
        if linked:
            _fsync_dir(self.root / state)
        if consume is not None:
            self._discard(consume)
        if not linked:
            logger.warning(
                "queue: dropped duplicate %s record for %s "
                "(resident entry wins)", state, key,
            )
        return linked

    @staticmethod
    def _discard(tmp: Path) -> None:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass

    def restore_staged(self, pid: int) -> None:
        """Undo the transitions process ``pid`` died in the middle of.

        A cell it had moved out of a state into tmp/ and linked nowhere
        else goes back to that state: a lease it was renewing or
        completing is a lease again, which the reclaimer then expires
        like the dead worker's other leases instead of leaving the cell
        to orphan repair a TTL later.  Its other tmp/ files are dropped.
        """
        states = self.states()
        for path in (self.root / "tmp").iterdir():
            # named <label>-<pid>-<n>.json by _tmp_path
            label, _, owner = path.stem.rpartition("-")[0].rpartition("-")
            if owner != str(pid):
                continue
            state = label.removeprefix("take-")
            if state != label and state in STATES:
                try:
                    with open(path) as handle:
                        record = json.load(handle)
                except (json.JSONDecodeError, OSError):
                    record = None
                key = record.get("key") if isinstance(record, dict) else None
                if key in states and states[key] is None:
                    self._put(state, key, record, consume=path)
                    states[key] = state
                    logger.warning(
                        "queue: put %s back into %s (its process %d died "
                        "mid-transition)", key, state, pid,
                    )
            self._discard(path)

    # ------------------------------------------------------------------
    # the lease protocol
    # ------------------------------------------------------------------

    def _keys_in(self, state: str) -> set[str]:
        return {
            name.removesuffix(".json").replace("@", ":")
            for name in os.listdir(self.root / state)
        }

    def claim(self, worker: str, now: float | None = None) -> Lease | None:
        """Claim a claimable pending cell, or None.

        Single-winner under any number of concurrent claimers; cells
        whose ``not_before`` backoff lies in the future are skipped.
        Cells are tried in manifest order, except that a cell whose
        reference group already has a cell leased or being claimed
        comes after every other pending cell (see module doc): a
        one-benchmark sweep still keeps every worker busy.
        """
        now = time.time() if now is None else now
        pending = self._keys_in(PENDING)
        # a cell in no state directory is mid-transition, most likely
        # being claimed: its group counts as busy like a leased one
        busy = {
            self._group[key] for key, state in self.states().items()
            if state == LEASED or state is None
        }
        keys = [key for key in self.order if key in pending]
        first_pass = len(keys)
        for index, key in enumerate(keys):
            group = self._group[key]
            if index < first_pass and group in busy:
                keys.append(key)  # retried after every other pending cell
                continue
            taken = self._take(PENDING, key)
            if taken is None:
                # lost the claim race: the winner now holds the group
                busy.add(group)
                continue
            record, tmp = taken
            if record is None:
                # corrupt pending file: rebuild from the manifest
                record = {
                    "key": key,
                    "expiries": self._expiry_memory.get(key, 0),
                    "lease_seq": self._expiry_memory.get(key, 0),
                    "not_before": 0.0,
                }
            if record.get("not_before", 0.0) > now:
                self._put(PENDING, key, record, consume=tmp)
                continue
            token = record.get("lease_seq", 0) + 1
            expiries = record.get("expiries", 0)
            leased = dict(record)
            leased.update(
                lease_seq=token,
                worker=worker,
                token=token,
                deadline=now + self.lease_ttl_s,
                acquired_at=now,
            )
            if not self._put(LEASED, key, leased, consume=tmp):
                continue  # duplicate pending of a live lease: dropped
            return Lease(
                key=key,
                cell=self.cells[key],
                worker=worker,
                token=token,
                deadline=leased["deadline"],
                expiries=expiries,
            )
        return None

    def _take_owned(self, lease: Lease) -> tuple[dict, Path] | None:
        """Move the lease file out iff ``lease`` still owns it."""
        taken = self._take(LEASED, lease.key)
        if taken is None:
            return None
        record, tmp = taken
        if record is None:
            # our own lease file went corrupt on disk: rebuild it from
            # the lease we hold (we are provably the owner — nobody
            # else's token could have been written without taking the
            # file, which we just did)
            record = {
                "key": lease.key,
                "expiries": lease.expiries,
                "lease_seq": lease.token,
                "worker": lease.worker,
                "token": lease.token,
                "deadline": lease.deadline,
            }
            return record, tmp
        if (
            record.get("token") != lease.token
            or record.get("worker") != lease.worker
        ):
            # someone else's lease now — put it back untouched
            self._put(LEASED, lease.key, record, consume=tmp)
            return None
        return record, tmp

    def renew(self, lease: Lease, now: float | None = None) -> bool:
        """Extend the lease TTL; False when the lease was lost."""
        now = time.time() if now is None else now
        owned = self._take_owned(lease)
        if owned is None:
            return False
        record, tmp = owned
        record["deadline"] = now + self.lease_ttl_s
        self._put(LEASED, lease.key, record, consume=tmp)
        lease.deadline = record["deadline"]
        return True

    def release(
        self, lease: Lease, delay_s: float = 0.0, now: float | None = None
    ) -> bool:
        """Return a leased cell to pending (graceful drain: no expiry
        penalty, optional backoff)."""
        now = time.time() if now is None else now
        owned = self._take_owned(lease)
        if owned is None:
            return False
        record, tmp = owned
        pending = {
            "key": lease.key,
            "expiries": record.get("expiries", 0),
            "reclaims": record.get("reclaims", []),
            "lease_seq": record.get("lease_seq", lease.token),
            "not_before": now + delay_s,
        }
        return self._put(PENDING, lease.key, pending, consume=tmp)

    def complete(self, lease: Lease, result: dict) -> bool:
        """Commit a terminal result for a leased cell.

        ``result`` is a finished cell's record
        (:func:`~repro.parallel.transport.outcome_to_dict` plus extras
        such as the resume cycle) whose ``status`` is "ok" or "failed".
        The terminal record also keeps the cell's lease-expiry history.
        Returns False when the lease was lost or another worker already
        completed the cell (first completer wins; duplicates are
        byte-identical by determinism).
        """
        status = result.get("status")
        if status not in ("ok", "failed"):
            raise ValueError(f"result status must be ok/failed: {status!r}")
        owned = self._take_owned(lease)
        if owned is None:
            return False
        record, tmp = owned
        terminal = {
            "key": lease.key,
            "expiries": record.get("expiries", 0),
            "reclaims": record.get("reclaims", []),
            **result,
        }
        state = DONE if status == "ok" else FAILED
        return self._put(state, lease.key, terminal, consume=tmp)

    # ------------------------------------------------------------------
    # the reclaimer
    # ------------------------------------------------------------------

    def reclaim_expired(
        self, now: float | None = None, worker: str | None = None
    ) -> list[ReclaimEvent]:
        """Return expired (or corrupt) leases to the queue.

        ``worker`` names a worker known to be dead (the sweep driver
        reaped its process): its leases expire now, whatever their
        deadline, so its cells need not wait out the TTL.

        Requeued cells get an exponential-backoff-with-jitter
        ``not_before`` (the run config's deterministic
        :meth:`~repro.config.RunConfig.backoff_delay`, keyed on the
        cell and its expiry count); a cell that expires
        ``poison_after`` leases is quarantined with a checkpoint
        post-mortem instead of circulating forever.  Also repairs
        orphans: a cell present in *no* state directory (crash exactly
        between two renames, or a corrupt file deleted by hand) is
        re-enqueued from the manifest once it has been missing for a
        whole lease TTL.

        Each expiry is also appended to the cell's ``reclaims`` history
        (worker and backoff), which every later record of the cell
        carries: the sweep driver reports expiries from that history,
        whichever process reclaimed them.
        """
        now = time.time() if now is None else now

        def is_expired(record: dict) -> bool:
            return record.get("deadline", 0.0) <= now or (
                worker is not None and record.get("worker") == worker
            )

        events: list[ReclaimEvent] = []
        leased = self._keys_in(LEASED)
        for key in self.order:
            if key not in leased:
                continue
            path = self.root / LEASED / _fname(key)
            corrupt = False
            try:
                with open(path) as handle:
                    record = json.load(handle)
                expired = is_expired(record)
            except FileNotFoundError:
                continue
            except (json.JSONDecodeError, OSError):
                corrupt, expired = True, True
            if not expired:
                continue
            taken = self._take(LEASED, key)
            if taken is None:
                continue  # completed or renewed under us
            record, tmp = taken
            if record is None:
                corrupt = True
                record = {
                    "key": key,
                    "expiries": self._expiry_memory.get(key, 0),
                    "lease_seq": self._expiry_memory.get(key, 0) + 1,
                }
            elif not is_expired(record):
                # renewed between our scan and our take: put it back
                self._put(LEASED, key, record, consume=tmp)
                continue
            expiries = record.get("expiries", 0) + 1
            self._expiry_memory[key] = expiries
            worker = record.get("worker", "unknown")
            reclaims = record.get("reclaims", [])
            if expiries >= self.poison_after:
                self._put(QUARANTINED, key, {
                    "key": key,
                    "status": QUARANTINED,
                    "expiries": expiries,
                    "reclaims": reclaims + [{"worker": worker}],
                    "last_worker": worker,
                    "postmortem": self._postmortem(key),
                }, consume=tmp)
                events.append(ReclaimEvent(
                    key, worker, expiries, quarantined=True, corrupt=corrupt,
                ))
                logger.warning(
                    "queue: quarantined poison cell %s after %d lease "
                    "expiries (last worker %s)", key, expiries, worker,
                )
            else:
                delay = self.policy.backoff_delay(expiries + 1, key)
                self._put(PENDING, key, {
                    "key": key,
                    "expiries": expiries,
                    "reclaims": reclaims + [
                        {"worker": worker, "delay_s": delay}
                    ],
                    "lease_seq": record.get("lease_seq", expiries),
                    "not_before": now + delay,
                }, consume=tmp)
                events.append(ReclaimEvent(
                    key, worker, expiries, delay_s=delay, corrupt=corrupt,
                ))
                logger.warning(
                    "queue: lease on %s (worker %s) %s; requeued with "
                    "%.2fs backoff (expiry %d/%d)",
                    key, worker,
                    "corrupt" if corrupt else "expired",
                    delay, expiries, self.poison_after,
                )
        events.extend(self._repair_orphans(now))
        return events

    def _repair_orphans(self, now: float) -> list[ReclaimEvent]:
        states = self.states()
        # a cell mid-transition (renamed out, not yet linked in) can stay
        # absent across scans when its worker is descheduled; only a
        # cell missing for a whole lease TTL is stranded, so a crashed
        # transition is repaired as fast as an expired lease
        self._missing_since = {
            key: self._missing_since.get(key, now)
            for key in self.order if states[key] is None
        }
        events = []
        for key, since in list(self._missing_since.items()):
            if now - since < self.lease_ttl_s:
                continue
            del self._missing_since[key]
            expiries = self._expiry_memory.get(key, 0)
            if self._put(PENDING, key, {
                "key": key,
                "expiries": expiries,
                "lease_seq": expiries,
                "not_before": now,
            }):
                events.append(ReclaimEvent(
                    key, "unknown", expiries, corrupt=True,
                ))
                logger.warning(
                    "queue: rebuilt orphaned cell %s from the manifest",
                    key,
                )
        return events

    def _postmortem(self, key: str) -> dict | None:
        """Checkpoint header of the poisoned cell's last partial run —
        the closest thing to an engine snapshot a vanished worker
        leaves behind."""
        if self.policy.checkpoint_dir is None:
            return None
        name, _, n_txt = key.rpartition(":")
        path = Path(self.policy.checkpoint_dir) / f"{name}_n{n_txt}.ckpt"
        if not path.exists():
            return None
        try:
            header = read_header(path)
        except (CheckpointError, OSError):
            return None
        return {
            "checkpoint": str(path),
            "cycle": header.get("cycle"),
            "reason": header.get("reason"),
            "descriptor": header.get("descriptor"),
        }

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def state_of(self, key: str) -> str | None:
        for state in STATES:
            if (self.root / state / _fname(key)).exists():
                return state
        return None

    def states(self) -> dict[str, str | None]:
        present: dict[str, str | None] = dict.fromkeys(self.order)
        for state in STATES:
            for path in (self.root / state).iterdir():
                key = path.name.removesuffix(".json").replace("@", ":")
                if key in present:
                    present[key] = state
        return present

    def counts(self) -> QueueCounts:
        counts = QueueCounts()
        for state in self.states().values():
            if state is None:
                counts.missing += 1
            else:
                setattr(counts, state, getattr(counts, state) + 1)
        return counts

    def all_terminal(self) -> bool:
        return all(
            state in TERMINAL_STATES for state in self.states().values()
        )

    def read(self, state: str, key: str) -> dict | None:
        """A cell's record in ``state`` (None when it is not there, or
        not readable as a record)."""
        try:
            with open(self.root / state / _fname(key)) as handle:
                return json.load(handle)
        except (json.JSONDecodeError, OSError):
            return None

    def result(self, key: str) -> dict | None:
        """The terminal record of a cell (done/failed/quarantined)."""
        for state in (DONE, FAILED, QUARANTINED):
            record = self.read(state, key)
            if record is not None:
                return record
        return None

    # ------------------------------------------------------------------
    # worker heartbeats (advisory telemetry, never load-bearing)
    # ------------------------------------------------------------------

    def write_worker_heartbeat(self, worker: str, doc: dict) -> None:
        path = self.root / "workers" / f"{worker}.json"
        tmp = self._tmp_path("hb")
        with open(tmp, "w") as handle:
            json.dump(doc, handle, indent=1)
        os.replace(tmp, path)
        # append-only history alongside the latest-value file: one JSON
        # line per beat, consumed by `repro report`'s worker-utilization
        # timeline and validated by tools/validate_trace.py.  Advisory
        # like the heartbeat itself — an unwritable history never fails
        # the worker.
        try:
            with open(
                self.root / "workers" / f"{worker}.jsonl", "a"
            ) as handle:
                handle.write(json.dumps(doc, separators=(",", ":")) + "\n")
        except OSError:
            logger.warning(
                "queue: could not append heartbeat history for %s", worker
            )

    def worker_heartbeats(self) -> dict[str, dict]:
        """Latest heartbeat doc per worker (corrupt files skipped)."""
        beats: dict[str, dict] = {}
        workers_dir = self.root / "workers"
        try:
            paths = sorted(workers_dir.glob("*.json"))
        except OSError:
            return beats
        for path in paths:
            try:
                with open(path) as handle:
                    doc = json.load(handle)
            except (json.JSONDecodeError, OSError):
                continue
            beats[path.stem] = doc
        return beats

    def worker_heartbeat_history(self) -> dict[str, list[dict]]:
        """Every recorded heartbeat per worker, in write order (torn
        trailing lines dropped)."""
        history: dict[str, list[dict]] = {}
        for path in sorted((self.root / "workers").glob("*.jsonl")):
            docs: list[dict] = []
            try:
                with open(path) as handle:
                    lines = handle.readlines()
            except OSError:
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    docs.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
            history[path.stem] = docs
        return history

    # ------------------------------------------------------------------
    # chaos hooks (one-shot markers so an injected fault fires once)
    # ------------------------------------------------------------------

    def chaos_armed(self, label: str, key: str) -> bool:
        """True exactly once per (label, key): the first caller arms the
        marker, later callers see it and decline — so a killed worker's
        respawn does not die again on the same cell."""
        marker = self.root / "chaos" / f"{label}-{_fname(key)}"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True
