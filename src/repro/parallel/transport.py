"""Canonical plain-data form of a finished cell's outcome.

A :class:`~repro.experiments.runner.CellOutcome` whose result is a
:class:`~repro.experiments.runner.CellResult` — a
:class:`SpeedupStack` plus an :class:`AccountingReport` holding
per-thread and per-core dataclasses — travels from a queue worker to
the sweep driver as the JSON body of the cell's terminal queue record:
the worker serializes it with :func:`outcome_to_dict`, the driver
decodes it with :func:`outcome_from_dict` at merge time.

Canonical means *deterministic by construction*: every dict is built in
dataclass field order (or, for harvested metrics, in the harvester's
insertion order, which the journal must preserve byte-for-byte), and
encoding never reorders keys.  JSON round-trips Python floats exactly
(shortest-repr), so a decoded outcome compares ``==`` to the in-process
original — the property the differential suite leans on.
"""

from __future__ import annotations

from dataclasses import fields

from repro.accounting.report import (
    AccountingReport,
    CoreRawCounters,
    ThreadComponents,
)
from repro.core.stack import SpeedupStack
from repro.experiments.runner import CELL_OK, CellOutcome, CellResult

#: the result fields of a failed cell's record, which has no result
_NO_RESULT = {
    "stack": None,
    "report": None,
    "total_cycles": 0,
    "truncated": False,
    "mt_instrs": 0,
    "mt_spin_instrs": 0,
    "st_instrs": 0,
}


def _dataclass_to_dict(value) -> dict:
    """Field-order dict of a flat (non-nested) dataclass instance."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def stack_to_dict(stack: SpeedupStack) -> dict:
    return _dataclass_to_dict(stack)


def stack_from_dict(doc: dict) -> SpeedupStack:
    return SpeedupStack(**doc)


def report_to_dict(report: AccountingReport) -> dict:
    return {
        "n_threads": report.n_threads,
        "tp_cycles": report.tp_cycles,
        "threads": [_dataclass_to_dict(t) for t in report.threads],
        "cores": [_dataclass_to_dict(c) for c in report.cores],
        "truncated": report.truncated,
    }


def report_from_dict(doc: dict) -> AccountingReport:
    return AccountingReport(
        n_threads=doc["n_threads"],
        tp_cycles=doc["tp_cycles"],
        threads=[ThreadComponents(**t) for t in doc["threads"]],
        cores=[CoreRawCounters(**c) for c in doc["cores"]],
        truncated=doc["truncated"],
    )


def outcome_to_dict(outcome: CellOutcome) -> dict:
    """A finished (ok or failed) outcome as its queue record."""
    result = outcome.result
    payload = _NO_RESULT if result is None else {
        **_dataclass_to_dict(result),
        "stack": stack_to_dict(result.stack),
        "report": report_to_dict(result.report),
    }
    doc = {
        "name": outcome.name,
        "n_threads": outcome.n_threads,
        "status": outcome.status,
        "attempts": outcome.attempts,
        **payload,
        "error": outcome.error,
        "error_type": outcome.error_type,
        "snapshot": outcome.snapshot,
    }
    # absent (not null) when collection is off: presence mirrors whether
    # the journal will carry a metrics key for this cell
    if outcome.metrics is not None:
        doc["metrics"] = outcome.metrics
    return doc


def outcome_from_dict(doc: dict) -> CellOutcome:
    """The outcome a queue record holds (extra keys — the queue's own
    bookkeeping, ``spans``, ``resumed_from_cycle`` — are ignored)."""
    result = None
    if doc["status"] == CELL_OK:
        result = CellResult(
            stack=stack_from_dict(doc["stack"]),
            report=report_from_dict(doc["report"]),
            total_cycles=doc["total_cycles"],
            truncated=doc["truncated"],
            mt_instrs=doc["mt_instrs"],
            mt_spin_instrs=doc["mt_spin_instrs"],
            st_instrs=doc["st_instrs"],
        )
    return CellOutcome(
        name=doc["name"],
        n_threads=doc["n_threads"],
        status=doc["status"],
        attempts=doc["attempts"],
        result=result,
        error=doc["error"],
        error_type=doc["error_type"],
        snapshot=doc["snapshot"],
        metrics=doc.get("metrics"),
    )
