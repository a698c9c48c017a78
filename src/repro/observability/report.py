"""Self-contained HTML sweep health report (``repro report``).

Takes either a sweep journal JSON or a queue directory and renders one
HTML file with everything a post-mortem needs in one place:

* headline counts — ok / failed / retried / quarantined /
  crash-resumed cells, plus spill recoveries when the source knows;
* a per-cell wall-clock histogram (queue sources measure wall time
  from each cell's ``queue.run`` span);
* a span waterfall for the slowest cells, when the sweep ran with
  spans enabled;
* a worker utilization strip built from the heartbeat JSONL history,
  with idle gaps visible as blanks;
* the speedup stacks themselves — the paper's artifact, rendered from
  the full stack each queue cell's finished-cell record carries.

All charts are monospace text built with the same
:func:`repro.core.rendering._bar` blocks the CLI renders stacks with,
wrapped in ``<pre>`` — no JavaScript, no external assets, so the file
opens anywhere and attaches to CI runs as-is.  A journal source lacks
wall-clock, spans and heartbeats (journals are byte-deterministic by
design); those sections degrade to a note instead of failing.
"""

from __future__ import annotations

import html
import json
import os
from pathlib import Path

from repro.core.components import STACK_ORDER
from repro.core.rendering import _bar
from repro.observability.spans import span_roots

#: character width of every bar chart in the report
BAR_WIDTH = 50

#: how many of the slowest cells get a span waterfall
WATERFALL_CELLS = 5

_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 75em;
       color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: .2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #bbb; }
pre { background: #f6f6f6; border: 1px solid #ddd; padding: 1em;
      overflow-x: auto; line-height: 1.25; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: .25em .75em;
         text-align: right; }
th { background: #eee; }
td.key, th.key { text-align: left; }
.bad { color: #a00; font-weight: bold; }
.note { color: #666; font-style: italic; }
"""


# ----------------------------------------------------------------------
# data loading
# ----------------------------------------------------------------------


def load_report_data(source: str | Path) -> dict:
    """Collect report inputs from a journal file or a queue directory."""
    source = Path(source)
    if source.is_dir():
        return _load_queue(source)
    return _load_journal(source)


def _load_journal(path: Path) -> dict:
    with open(path) as handle:
        doc = json.load(handle)
    cells = []
    for key in sorted(doc.get("cells", {})):
        entry = doc["cells"][key]
        cells.append({
            "key": key,
            "status": entry.get("status"),
            "attempts": entry.get("attempts", 0),
            "error_type": entry.get("error_type"),
            "wall_s": None,
            "spans": None,
            "actual_speedup": None,
            "estimated_speedup": None,
            "stack_segments": None,
            "resumed_from_cycle": None,
        })
    return {
        "source": str(path),
        "kind": "journal",
        "cells": cells,
        "heartbeats": {},
    }


def _load_queue(queue_dir: Path) -> dict:
    from repro.parallel.transport import stack_from_dict
    from repro.queue.store import QueueStore

    store = QueueStore(queue_dir)
    cells = []
    states = store.states()
    for key in store.order:
        record = store.result(key) or {}
        spans = record.get("spans")
        stack = (
            stack_from_dict(record["stack"]) if record.get("stack") else None
        )
        cells.append({
            "key": key,
            "status": record.get("status", states.get(key, "pending")),
            "attempts": record.get(
                "attempts", record.get("expiries", 0)
            ),
            "error_type": record.get("error_type"),
            "wall_s": _queue_run_wall_s(spans),
            "spans": spans,
            "actual_speedup": stack.actual_speedup if stack else None,
            "estimated_speedup": stack.estimated_speedup if stack else None,
            "stack_segments": _segments(stack) if stack else None,
            "resumed_from_cycle": record.get("resumed_from_cycle"),
        })
    return {
        "source": str(queue_dir),
        "kind": "queue",
        "cells": cells,
        "heartbeats": store.worker_heartbeat_history(),
    }


def _segments(stack) -> dict[str, float]:
    """A stack's component breakdown, labelled, in stack order."""
    segments = stack.segments()
    return {comp.label: segments[comp] for comp in STACK_ORDER}


def _queue_run_wall_s(spans) -> float | None:
    """A queue cell's wall clock: the duration of its ``queue.run``
    span (the whole claim-to-complete run on the worker)."""
    for row in spans or ():
        if row.get("name") == "queue.run":
            return row["dur_us"] / 1e6
    return None


# ----------------------------------------------------------------------
# text charts
# ----------------------------------------------------------------------


def _histogram_pre(values: list[float]) -> str:
    """Wall-clock histogram over ~8 equal-width buckets."""
    lo, hi = min(values), max(values)
    n_buckets = min(8, max(1, len(values)))
    width = (hi - lo) / n_buckets or 1e-9
    counts = [0] * n_buckets
    for value in values:
        index = min(n_buckets - 1, int((value - lo) / width))
        counts[index] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        left, right = lo + i * width, lo + (i + 1) * width
        bar = _bar(count, peak, BAR_WIDTH)
        lines.append(
            f"{left:8.2f}s – {right:8.2f}s  {count:4d}  {bar}"
        )
    return "\n".join(lines)


def _waterfall_pre(cell: dict) -> str:
    """One cell's span tree as an indented text waterfall.

    Bars are positioned against the cell's own root span, so worker
    epochs never need to align with anything else.
    """
    rows = cell["spans"] or []
    roots = span_roots(rows)
    if not roots:
        return "(no spans)"
    t0 = min(row["t0_us"] for row in roots)
    total = max(
        (row["t0_us"] + row["dur_us"] for row in rows), default=t0
    ) - t0
    total = max(total, 1)
    children: dict[object, list[dict]] = {}
    ids = {row["id"] for row in rows}
    for row in rows:
        parent = row.get("parent")
        children.setdefault(
            parent if parent in ids else None, []
        ).append(row)
    lines = []

    def emit(row: dict, depth: int) -> None:
        label = ("  " * depth + row["name"])[:28]
        offset = round((row["t0_us"] - t0) / total * BAR_WIDTH)
        bar = _bar(row["dur_us"], total, BAR_WIDTH) or "▏"
        lines.append(
            f"{label:<28s} {row['dur_us'] / 1000:9.2f}ms "
            f"{' ' * offset}{bar}"
        )
        for child in children.get(row["id"], ()):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda row: row["t0_us"]):
        emit(root, 0)
    return "\n".join(lines)


def _worker_strip_pre(heartbeats: dict[str, list[dict]]) -> str:
    """One character strip per worker over the sweep's wall-clock span.

    ``█`` = heartbeat holding a cell, ``░`` = idle heartbeat, space =
    no heartbeat landed in that bucket (an idle gap, a stall, or death).
    """
    stamps = [
        (doc.get("timestamp"), doc.get("current_cell"), worker)
        for worker, docs in heartbeats.items()
        for doc in docs
        if isinstance(doc.get("timestamp"), (int, float))
    ]
    if not stamps:
        return "(no heartbeat history)"
    t_lo = min(ts for ts, _, _ in stamps)
    t_hi = max(ts for ts, _, _ in stamps)
    span = max(t_hi - t_lo, 1e-9)
    lines = [f"{'worker':<12s} {span:6.1f}s of history, one row each"]
    for worker in sorted(heartbeats):
        cols = [" "] * BAR_WIDTH
        busy = 0
        total = 0
        for doc in heartbeats[worker]:
            ts = doc.get("timestamp")
            if not isinstance(ts, (int, float)):
                continue
            col = min(BAR_WIDTH - 1, int((ts - t_lo) / span * BAR_WIDTH))
            working = doc.get("current_cell") is not None
            total += 1
            busy += 1 if working else 0
            if working:
                cols[col] = "█"
            elif cols[col] == " ":
                cols[col] = "░"
        pct = 100.0 * busy / total if total else 0.0
        lines.append(f"{worker:<12s} [{''.join(cols)}] {pct:3.0f}% busy")
    return "\n".join(lines)


def _stack_pre(cell: dict) -> str:
    """One cell's speedup stack as labelled bars (Figure 2 style)."""
    segments = cell["stack_segments"] or {}
    try:
        scale = float(cell["key"].rsplit(":", 1)[1])
    except (IndexError, ValueError):
        scale = max((abs(v) for v in segments.values()), default=1.0)
    lines = []
    actual = cell.get("actual_speedup")
    estimated = cell.get("estimated_speedup")
    if actual is not None and estimated is not None:
        lines.append(
            f"  actual {actual:6.2f}   estimated {estimated:6.2f}"
        )
    for label, value in segments.items():
        if abs(value) < 0.005:
            continue
        bar = _bar(max(value, 0.0), scale, BAR_WIDTH)
        lines.append(f"  {label:<30s} {value:7.2f}  {bar}")
    return "\n".join(lines) or "  (no component breakdown recorded)"


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


def _section(title: str, body: str) -> str:
    return f"<h2>{html.escape(title)}</h2>\n{body}\n"


def _pre(text: str) -> str:
    return f"<pre>{html.escape(text)}</pre>"


def _note(text: str) -> str:
    return f"<p class=\"note\">{html.escape(text)}</p>"


def render_report_html(data: dict) -> str:
    cells = data["cells"]
    counts = {
        "cells": len(cells),
        "ok": sum(1 for c in cells if c["status"] == "ok"),
        "failed": sum(
            1 for c in cells
            if c["status"] not in ("ok", "quarantined", "pending")
        ),
        "quarantined": sum(
            1 for c in cells if c["status"] == "quarantined"
        ),
        "retried": sum(1 for c in cells if (c["attempts"] or 0) > 1),
        "crash-resumed": sum(
            1 for c in cells if c["resumed_from_cycle"] is not None
        ),
    }
    parts = [
        "<!doctype html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>sweep health: {html.escape(data['source'])}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Sweep health report</h1>",
        f"<p>source: <code>{html.escape(data['source'])}</code> "
        f"({data['kind']})</p>",
    ]

    # headline counts
    rows = "".join(
        f"<tr><td class=\"key\">{html.escape(key)}</td>"
        f"<td{' class=' + chr(34) + 'bad' + chr(34) if key in ('failed', 'quarantined') and value else ''}>"
        f"{value}</td></tr>"
        for key, value in counts.items()
    )
    parts.append(_section("Health", f"<table>{rows}</table>"))

    # wall-clock histogram
    walls = [c["wall_s"] for c in cells if c["wall_s"] is not None]
    if walls:
        parts.append(_section(
            "Per-cell wall clock", _pre(_histogram_pre(walls))
        ))
    else:
        parts.append(_section(
            "Per-cell wall clock",
            _note("no wall-clock data — run the sweep with spans "
                  "enabled (--emit-spans) on the queue backend"),
        ))

    # span waterfalls of the slowest cells
    with_spans = [c for c in cells if c["spans"]]
    if with_spans:
        slowest = sorted(
            with_spans, key=lambda c: -(c["wall_s"] or 0)
        )[:WATERFALL_CELLS]
        body = "".join(
            f"<h3><code>{html.escape(c['key'])}</code>"
            + (f" — crash-resumed from cycle {c['resumed_from_cycle']}"
               if c["resumed_from_cycle"] is not None else "")
            + f"</h3>{_pre(_waterfall_pre(c))}"
            for c in slowest
        )
        parts.append(_section(
            f"Span waterfall ({len(slowest)} slowest cells)", body
        ))
    else:
        parts.append(_section(
            "Span waterfall",
            _note("no spans recorded — enable with --emit-spans"),
        ))

    # worker utilization
    if data["heartbeats"]:
        parts.append(_section(
            "Worker utilization",
            _pre(_worker_strip_pre(data["heartbeats"])),
        ))
    else:
        parts.append(_section(
            "Worker utilization",
            _note("no worker heartbeat history in this source"),
        ))

    # speedup stacks
    with_stacks = [c for c in cells if c["stack_segments"]]
    if with_stacks:
        body = "".join(
            f"<h3><code>{html.escape(c['key'])}</code></h3>"
            f"{_pre(_stack_pre(c))}"
            for c in with_stacks
        )
        parts.append(_section("Speedup stacks", body))
    else:
        parts.append(_section(
            "Speedup stacks",
            _note("no component breakdowns in this source (journals "
                  "record outcomes only; queue records carry them)"),
        ))

    parts.append(_section("Cells", _cell_table(cells)))

    parts.append("</body></html>")
    return "\n".join(parts)


def _cell_table(cells: list[dict]) -> str:
    header = (
        "<tr><th class=\"key\">cell</th><th>status</th><th>attempts</th>"
        "<th>wall s</th><th>speedup</th><th>resumed from</th></tr>"
    )
    rows = []
    for cell in cells:
        status = str(cell["status"])
        status_td = (
            f"<td class=\"bad\">{html.escape(status)}</td>"
            if status not in ("ok", "pending") else
            f"<td>{html.escape(status)}</td>"
        )
        wall = (
            "" if cell["wall_s"] is None else f"{cell['wall_s']:.2f}"
        )
        speedup = (
            "" if cell["actual_speedup"] is None
            else f"{cell['actual_speedup']:.2f}"
        )
        resumed = (
            "" if cell["resumed_from_cycle"] is None
            else str(cell["resumed_from_cycle"])
        )
        rows.append(
            "<tr>"
            f"<td class=\"key\"><code>{html.escape(cell['key'])}</code>"
            f"</td>{status_td}<td>{cell['attempts']}</td>"
            f"<td>{wall}</td><td>{speedup}</td><td>{resumed}</td></tr>"
        )
    return f"<table>{header}{''.join(rows)}</table>"


def write_report(source: str | Path, out: str | Path) -> dict:
    """Render ``source`` (journal or queue dir) to ``out``; returns the
    loaded data for the caller's summary line."""
    data = load_report_data(source)
    document = render_report_html(data)
    out = Path(out)
    tmp = out.with_suffix(out.suffix + f".tmp.{os.getpid()}")
    tmp.write_text(document)
    os.replace(tmp, out)
    return data
