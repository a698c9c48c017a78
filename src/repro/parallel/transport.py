"""Canonical plain-data form of a finished-cell record.

A :class:`~repro.parallel.cells.CellResult` — a :class:`SpeedupStack`
plus an :class:`AccountingReport` holding per-thread and per-core
dataclasses — travels from a queue worker to the sweep driver as the
JSON body of the cell's terminal queue record: the worker serializes
derived plain data, the driver decodes it at merge time.

Canonical means *deterministic by construction*: every dict is built in
dataclass field order (or, for harvested metrics, in the harvester's
insertion order, which the journal must preserve byte-for-byte), and
encoding never reorders keys.  JSON round-trips Python floats exactly
(shortest-repr), so a decoded stack compares ``==`` to the in-process
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
from repro.parallel.cells import CellResult

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


def result_to_dict(result: CellResult) -> dict:
    doc = {
        "name": result.name,
        "n_threads": result.n_threads,
        "status": result.status,
        "attempts": result.attempts,
        "stack": (
            stack_to_dict(result.stack) if result.stack is not None else None
        ),
        "report": (
            report_to_dict(result.report)
            if result.report is not None else None
        ),
        "total_cycles": result.total_cycles,
        "truncated": result.truncated,
        "mt_instrs": result.mt_instrs,
        "mt_spin_instrs": result.mt_spin_instrs,
        "st_instrs": result.st_instrs,
        "error": result.error,
        "error_type": result.error_type,
        "snapshot": result.snapshot,
    }
    # absent (not null) when collection is off: presence mirrors whether
    # the journal will carry a metrics key for this cell
    if result.metrics is not None:
        doc["metrics"] = result.metrics
    # spans likewise absent when collection is off — and, unlike
    # metrics, never journaled (wall-clock is nondeterministic)
    if result.spans is not None:
        doc["spans"] = result.spans
    return doc


def result_from_dict(doc: dict) -> CellResult:
    return CellResult(
        name=doc["name"],
        n_threads=doc["n_threads"],
        status=doc["status"],
        attempts=doc["attempts"],
        stack=(
            stack_from_dict(doc["stack"])
            if doc["stack"] is not None else None
        ),
        report=(
            report_from_dict(doc["report"])
            if doc["report"] is not None else None
        ),
        total_cycles=doc["total_cycles"],
        truncated=doc["truncated"],
        mt_instrs=doc["mt_instrs"],
        mt_spin_instrs=doc["mt_spin_instrs"],
        st_instrs=doc["st_instrs"],
        error=doc["error"],
        error_type=doc["error_type"],
        snapshot=doc["snapshot"],
        metrics=doc.get("metrics"),
        spans=doc.get("spans"),
    )
