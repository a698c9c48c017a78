"""Versioned on-disk checkpoint format.

A checkpoint file is two lines of compact JSON:

* line 1 — the *header*: schema version, package version, the cell
  descriptor (machine/benchmark/run parameters that must match on
  resume) plus its hash, the cycle count at save time, and the reason
  the save fired (``"interval"``, ``"max_cycles"``, ``"livelock"``,
  ``"deadlock"`` or ``"fault"``);
* line 2 — the *payload*: the full ``Simulation.state_dict()`` tree.

The header line is small and self-contained, so tools (``repro
inspect``, the batch runner's resume probe) can classify a checkpoint
without parsing the multi-megabyte payload.  Loading refuses — with
:class:`~repro.errors.CheckpointError` — when the schema version is
unknown or when the saved ``config_hash`` does not match the
descriptor of the experiment trying to resume: silently continuing a
run under a different machine config or workload would produce stacks
that belong to no experiment at all.

Writes are atomic (temp file + ``os.replace``) so a crash mid-save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro._version import repro_version
from repro.errors import CheckpointError

#: bump when the header or payload layout changes incompatibly
SCHEMA_VERSION = 1

#: header fields every reader indexes, with the types they must have
_HEADER_FIELDS: dict[str, tuple[type, ...]] = {
    "config_hash": (str,),
    "cycle": (int,),
    "reason": (str,),
    "repro_version": (str,),
    "descriptor": (dict,),
}

#: descriptor fields every reader indexes (``fault`` and the watchdog
#: limits are optional: readers ``.get()`` them)
_DESCRIPTOR_FIELDS: dict[str, tuple[type, ...]] = {
    "benchmark": (str,),
    "n_threads": (int,),
    "scale": (int, float),
    "machine": (dict,),
}


def config_hash(descriptor: dict[str, Any]) -> str:
    """16-hex-char digest of a cell descriptor's canonical JSON form.

    Canonicalization (sorted keys, no whitespace) makes the hash
    independent of dict insertion order, so the same experiment always
    hashes identically across processes and sessions.
    """
    canonical = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def save_checkpoint(
    path: str | Path,
    state: dict[str, Any],
    descriptor: dict[str, Any],
    *,
    cycle: int,
    reason: str,
) -> dict[str, Any]:
    """Atomically write a checkpoint file; returns the header written."""
    path = Path(path)
    header = {
        "schema_version": SCHEMA_VERSION,
        "repro_version": repro_version(),
        "config_hash": config_hash(descriptor),
        "cycle": cycle,
        "reason": reason,
        "descriptor": descriptor,
    }
    body = (
        json.dumps(header, separators=(",", ":"))
        + "\n"
        + json.dumps(state, separators=(",", ":"))
        + "\n"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(body, encoding="utf-8")
    os.replace(tmp, path)
    return header


def read_header(path: str | Path) -> dict[str, Any]:
    """Parse and validate only the header line of a checkpoint file."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(first)
    except ValueError as exc:
        raise CheckpointError(
            f"corrupt checkpoint header in {path}: {exc}"
        ) from exc
    if not isinstance(header, dict) or "schema_version" not in header:
        raise CheckpointError(f"{path} is not a repro checkpoint file")
    if header["schema_version"] != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version "
            f"{header['schema_version']}, this build reads "
            f"{SCHEMA_VERSION}"
        )
    _check_fields(path, header, _HEADER_FIELDS, "")
    _check_fields(
        path, header["descriptor"], _DESCRIPTOR_FIELDS, "descriptor."
    )
    return header


def _check_fields(
    path: Path,
    doc: dict[str, Any],
    fields: dict[str, tuple[type, ...]],
    prefix: str,
) -> None:
    """Raise :class:`CheckpointError` naming the first field of
    ``fields`` that ``doc`` lacks or holds with the wrong type."""
    for key, types in fields.items():
        name = prefix + key
        if key not in doc:
            raise CheckpointError(
                f"checkpoint {path} header has no {name!r}"
            )
        value = doc[key]
        # bool is an int subclass, but never a valid field value
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(t.__name__ for t in types)
            raise CheckpointError(
                f"checkpoint {path} header field {name!r} is "
                f"{type(value).__name__}, expected {expected}"
            )


def load_checkpoint(
    path: str | Path,
    expected_descriptor: dict[str, Any] | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Load ``(header, state)`` from a checkpoint file.

    With ``expected_descriptor`` the saved ``config_hash`` is checked
    against the descriptor of the experiment about to resume; a
    mismatch refuses the load rather than resuming the wrong run.
    """
    path = Path(path)
    header = read_header(path)
    if expected_descriptor is not None:
        expected_hash = config_hash(expected_descriptor)
        if header.get("config_hash") != expected_hash:
            raise CheckpointError(
                f"checkpoint {path} was saved under a different experiment "
                f"config (saved hash {header.get('config_hash')}, this "
                f"experiment hashes to {expected_hash}); refusing to resume"
            )
    try:
        with path.open("r", encoding="utf-8") as fh:
            fh.readline()
            payload = fh.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not payload.strip():
        raise CheckpointError(f"checkpoint {path} has no state payload")
    try:
        state = json.loads(payload)
    except ValueError as exc:
        raise CheckpointError(
            f"corrupt checkpoint payload in {path}: {exc}"
        ) from exc
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint {path} payload is not a state tree"
        )
    return header, state
