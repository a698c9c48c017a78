"""Hierarchical wall-clock spans for self-profiling the harness.

A :class:`SpanRecorder` collects *spans* — named intervals with a parent
link — around the harness's own phase boundaries (trace decode,
ST-reference run, engine advance, accounting harvest, journal write,
queue claim/run/merge, lease renewal).  Spans measure
the runner, not the simulated machine: timestamps come from
``time.perf_counter_ns`` and are therefore wall-clock and
nondeterministic.  For that reason spans are **never** written into
sweep journals; they travel on queue records exactly like metrics and
are merged parent-side.

Design rules (mirroring the PR-3 observability contract):

* Zero overhead when disabled: every producer holds an optional
  recorder (default ``None``) and guards with ``if spans is not None``.
* Rows are plain dicts with a fixed key order so serialized span
  documents are stable for tooling:
  ``{"id", "parent", "name", "cat", "t0_us", "dur_us", "origin"}``
  plus a trailing ``"args"`` key only when non-empty.
* Timestamps are integer microseconds relative to a **per-process
  epoch** captured at module import, so all spans recorded inside one
  process share a timeline.  Epochs differ across processes; exporters
  give each origin its own lane instead of pretending clocks align.
* Thread safe: parent linkage uses a per-thread span stack, so a
  lease-renewer thread's spans never adopt the main thread's parents.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "SpanRecorder",
    "maybe_span",
    "span_roots",
    "validate_span_rows",
]

# Captured once per process: every recorder in this process measures
# t0 relative to this instant, so spans from different recorders (e.g.
# one per queue cell) interleave correctly on a shared per-origin lane.
_PROCESS_EPOCH_NS = time.perf_counter_ns()

# Sentinel distinguishing "no parent given, use the thread's stack"
# from an explicit ``parent=None`` (force a root span).
_STACK = object()


class SpanRecorder:
    """Collects hierarchical spans with integer-microsecond timing."""

    def __init__(
        self,
        origin: str = "main",
        clock: Callable[[], int] = time.perf_counter_ns,
        epoch_ns: int | None = None,
    ) -> None:
        self.origin = origin
        self._clock = clock
        self._epoch_ns = _PROCESS_EPOCH_NS if epoch_ns is None else epoch_ns
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._rows: list[dict[str, Any]] = []
        self._by_id: dict[int, dict[str, Any]] = {}

    # -- recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _now_us(self) -> int:
        return (self._clock() - self._epoch_ns) // 1000

    def now_us(self) -> int:
        """Current time on this recorder's timeline (for
        :meth:`record`-style retroactive spans)."""
        return self._now_us()

    def start(
        self,
        name: str,
        cat: str = "runner",
        parent: Any = _STACK,
        **args: Any,
    ) -> int:
        """Open a span and return its id.

        ``parent`` defaults to the innermost open span *on this
        thread*; pass ``parent=None`` to force a root span or an
        explicit span id to attach elsewhere (e.g. from another
        thread).
        """
        stack = self._stack()
        if parent is _STACK:
            parent_id = stack[-1] if stack else None
        else:
            parent_id = parent
        t0 = self._now_us()
        row: dict[str, Any] = {
            "id": 0,
            "parent": parent_id,
            "name": name,
            "cat": cat,
            "t0_us": t0,
            "dur_us": None,
        }
        if args:
            row["args"] = dict(args)
        with self._lock:
            row["id"] = span_id = self._next_id
            self._next_id += 1
            self._rows.append(row)
            self._by_id[span_id] = row
        stack.append(span_id)
        return span_id

    def finish(self, span_id: int) -> None:
        """Close a span (idempotent; tolerates out-of-order closes)."""
        row = self._by_id.get(span_id)
        if row is None:
            return
        if row["dur_us"] is None:
            row["dur_us"] = max(0, self._now_us() - row["t0_us"])
        stack = self._stack()
        if span_id in stack:
            while stack and stack[-1] != span_id:
                stack.pop()
            if stack:
                stack.pop()

    @contextmanager
    def span(
        self, name: str, cat: str = "runner", parent: Any = _STACK, **args: Any
    ) -> Iterator[int]:
        span_id = self.start(name, cat, parent=parent, **args)
        try:
            yield span_id
        finally:
            self.finish(span_id)

    def record(
        self,
        name: str,
        cat: str,
        t0_us: int,
        dur_us: int,
        parent: int | None = None,
        **args: Any,
    ) -> int:
        """Append an already-measured span (retroactive recording)."""
        row: dict[str, Any] = {
            "id": 0,
            "parent": parent,
            "name": name,
            "cat": cat,
            "t0_us": int(t0_us),
            "dur_us": max(0, int(dur_us)),
            "origin": self.origin,
        }
        if args:
            row["args"] = dict(args)
        with self._lock:
            row["id"] = span_id = self._next_id
            self._next_id += 1
            self._rows.append(row)
            self._by_id[span_id] = row
        return span_id

    # -- export / merge -----------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serializable rows in start order (fixed key order).

        Still-open spans export with their duration measured up to
        now, so a crash report never loses the enclosing span.
        """
        now = self._now_us()
        out: list[dict[str, Any]] = []
        with self._lock:
            rows = list(self._rows)
        for row in rows:
            dur = row["dur_us"]
            if dur is None:
                dur = max(0, now - row["t0_us"])
            exported: dict[str, Any] = {
                "id": row["id"],
                "parent": row["parent"],
                "name": row["name"],
                "cat": row["cat"],
                "t0_us": row["t0_us"],
                "dur_us": dur,
                "origin": row.get("origin", self.origin),
            }
            if row.get("args"):
                exported["args"] = dict(row["args"])
            out.append(exported)
        return out

    def subtree(self, span_id: int) -> list[dict[str, Any]]:
        """Export one span and its descendants, re-rooted.

        The subtree root's ``parent`` becomes ``None`` so the rows are
        self-contained — what a caller attaches to a single cell's
        queue record so its spans travel independently of the rest of
        the recorder.
        """
        keep = {span_id}
        rows = []
        for row in self.to_dicts():
            if row["id"] == span_id:
                row = dict(row)
                row["parent"] = None
                rows.append(row)
            elif row["parent"] in keep:
                keep.add(row["id"])
                rows.append(row)
        return rows

    def absorb(
        self, rows: list[dict[str, Any]], parent: int | None = None
    ) -> list[int]:
        """Merge externally-recorded rows into this recorder.

        Ids are remapped into this recorder's id space; internal parent
        links are preserved, and root rows (parent absent from the
        batch) are attached under ``parent``.  Timestamps and origins
        are kept verbatim — a worker's epoch differs from ours, so the
        origin field is what keeps lanes honest downstream.
        """
        mapping: dict[int, int] = {}
        new_ids: list[int] = []
        with self._lock:
            for row in rows:
                new_id = self._next_id
                self._next_id += 1
                mapping[row["id"]] = new_id
                old_parent = row.get("parent")
                new_parent = mapping.get(old_parent, parent) if old_parent is not None else parent
                absorbed: dict[str, Any] = {
                    "id": new_id,
                    "parent": new_parent,
                    "name": row["name"],
                    "cat": row.get("cat", "runner"),
                    "t0_us": int(row["t0_us"]),
                    "dur_us": int(row["dur_us"]) if row.get("dur_us") is not None else 0,
                    "origin": row.get("origin", "remote"),
                }
                if row.get("args"):
                    absorbed["args"] = dict(row["args"])
                self._rows.append(absorbed)
                self._by_id[new_id] = absorbed
                new_ids.append(new_id)
        return new_ids


@contextmanager
def maybe_span(
    recorder: SpanRecorder | None,
    name: str,
    cat: str = "runner",
    **args: Any,
) -> Iterator[int | None]:
    """Context manager that is a no-op when ``recorder`` is None."""
    if recorder is None:
        yield None
        return
    with recorder.span(name, cat, **args) as span_id:
        yield span_id


def span_roots(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rows whose parent is None or missing from the batch."""
    ids = {row["id"] for row in rows}
    return [row for row in rows if row.get("parent") not in ids]


def validate_span_rows(rows: list[dict[str, Any]]) -> list[str]:
    """Schema + monotonicity checks for a span document.

    Returns a list of problems (empty == valid):

    * every row has the required keys with the right types;
    * ids are unique; parents reference previously seen ids (or None);
    * timestamps are monotonic along same-origin ancestry: a child
      never starts before its parent, and no span has a negative start
      or duration.  (Global per-origin order is *not* required — a
      merged document absorbs worker batches in completion order, and
      cross-origin timestamps use different process epochs.)
    """
    problems: list[str] = []
    by_id: dict[int, dict[str, Any]] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"row {i}: not an object")
            continue
        for key, types in (
            ("id", int),
            ("name", str),
            ("cat", str),
            ("t0_us", int),
            ("dur_us", int),
            ("origin", str),
        ):
            if not isinstance(row.get(key), types) or isinstance(row.get(key), bool):
                problems.append(f"row {i}: bad {key!r}: {row.get(key)!r}")
        if not isinstance(row.get("id"), int):
            continue
        span_id = row["id"]
        if span_id in by_id:
            problems.append(f"row {i}: duplicate id {span_id}")
        by_id[span_id] = row
        t0 = row.get("t0_us")
        dur = row.get("dur_us")
        if isinstance(t0, int) and t0 < 0:
            problems.append(f"row {i}: negative t0_us")
        if isinstance(dur, int) and dur < 0:
            problems.append(f"row {i}: negative dur_us")
        parent = row.get("parent")
        if parent is None:
            continue
        if not isinstance(parent, int) or parent not in by_id:
            problems.append(
                f"row {i}: parent {parent!r} not a previously seen id"
            )
            continue
        parent_row = by_id[parent]
        if (
            parent_row.get("origin") == row.get("origin")
            and isinstance(t0, int)
            and isinstance(parent_row.get("t0_us"), int)
            and t0 < parent_row["t0_us"]
        ):
            problems.append(
                f"row {i}: t0_us {t0} precedes its parent's"
                f" ({parent_row['t0_us']}) within origin"
                f" {row.get('origin')!r}"
            )
    return problems
