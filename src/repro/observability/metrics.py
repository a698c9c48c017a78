"""Metrics registry: counters, gauges and histograms for sweep runs.

Two kinds of metrics flow through the registry:

* **Deterministic simulation metrics** (``sim.*``) — LLC hits/misses,
  ROB-block stall cycles, spin-loop detections, ground-truth spin/yield
  cycles, instruction counts.  These are *harvested from counters the
  simulator already maintains* after a cell finishes
  (:func:`harvest_cell_metrics`), so collecting them adds nothing to
  the simulated hot path.  They are bit-identical between a serial
  sweep and any ``--jobs N`` sweep (the differential tests assert it),
  and are the part serialized into the sweep journal per cell.
* **Runtime metrics** (``runtime.*``) — per-cell wall time, retries,
  worker crashes.  Host-dependent by nature; they live in the registry
  (and the ``--emit-metrics`` document / heartbeat) but never in the
  journal, which must stay byte-deterministic.

Aggregation across worker processes follows the parent-only collection
path of :mod:`repro.parallel`: each worker harvests its cell's flat
``sim.*`` dict from the live chip into the cell's ``CellOutcome``,
which its queue record carries, and the parent merges into its
registry in sweep order.  All merge operations (counter
sum, gauge max, histogram bucket sum) are commutative, so the aggregate
is independent of completion order.
"""

from __future__ import annotations

import json
from bisect import bisect_left

#: Canonical metric registry: every metric the harness emits, keyed by
#: base name (labels stripped), with its kind and label set.  This is
#: the single source of truth for metric naming — the table in
#: ``docs/observability.md`` renders it, and
#: ``tests/observability/test_counter_registry.py`` greps the source
#: tree to fail on any emission not listed here (and on any listed
#: name nothing emits).  Naming rules: ``runtime.*`` for host-dependent
#: harness telemetry (never journaled), ``sim.*`` for deterministic
#: simulator counters (journaled per cell); snake_case; counters named
#: for the counted noun (``cells_ok``, not ``ok_cells``).
METRIC_REGISTRY: dict[str, dict] = {
    # -- runtime.* (host-dependent; registry/heartbeat only) -----------
    "runtime.cells_ok": {
        "kind": "counter", "labels": (),
        "help": "cells that reached a terminal ok state",
    },
    "runtime.cells_failed": {
        "kind": "counter", "labels": (),
        "help": "cells that reached a terminal failed state",
    },
    "runtime.retries": {
        "kind": "counter", "labels": (),
        "help": "in-cell retry attempts (on_error=retry), from each "
                "finished cell's attempts",
    },
    "runtime.cell_wall_s": {
        "kind": "histogram", "labels": (),
        "help": "wall-clock seconds per cell attempt (serial runner only)",
    },
    "runtime.worker_crashes": {
        "kind": "counter", "labels": (),
        "help": "worker processes that died mid-sweep",
    },
    "runtime.lease_expiries": {
        "kind": "counter", "labels": (),
        "help": "queue leases reclaimed from silent workers",
    },
    "runtime.requeues": {
        "kind": "counter", "labels": (),
        "help": "cells put back in the queue after a lease expiry",
    },
    "runtime.quarantined": {
        "kind": "counter", "labels": (),
        "help": "poison cells quarantined after repeated expiries",
    },
    # -- sim.* (deterministic; journaled per cell) ---------------------
    "sim.l1_hits": {"kind": "counter", "labels": ("core",),
                    "help": "L1 hits"},
    "sim.l1_misses": {"kind": "counter", "labels": ("core",),
                      "help": "L1 misses"},
    "sim.llc_hits": {"kind": "counter", "labels": ("core",),
                     "help": "LLC hits"},
    "sim.llc_misses": {"kind": "counter", "labels": ("core",),
                       "help": "LLC misses"},
    "sim.llc_load_misses": {"kind": "counter", "labels": ("core",),
                            "help": "LLC load misses"},
    "sim.c2c_transfers": {"kind": "counter", "labels": ("core",),
                          "help": "cache-to-cache transfers"},
    "sim.dram_accesses": {"kind": "counter", "labels": ("core",),
                          "help": "DRAM accesses"},
    "sim.rob_block_stall_cycles": {
        "kind": "counter", "labels": ("core",),
        "help": "cycles the ROB head was blocked on an LLC load miss",
    },
    "sim.stall_cycles": {"kind": "counter", "labels": ("core",),
                         "help": "total stall cycles"},
    "sim.busy_cycles": {"kind": "counter", "labels": ("core",),
                        "help": "cycles the core retired work"},
    "sim.coherency_misses": {"kind": "counter", "labels": ("core",),
                             "help": "invalidation-caused misses"},
    "sim.spin_loop_detections": {
        "kind": "counter", "labels": ("core",),
        "help": "hardware spin-detector episodes",
    },
    "sim.sampled_inter_thread_misses": {
        "kind": "counter", "labels": ("core",),
        "help": "sampled negative-interference misses",
    },
    "sim.sampled_inter_thread_hits": {
        "kind": "counter", "labels": ("core",),
        "help": "sampled positive-interference hits",
    },
    "sim.memory_interference_stall": {
        "kind": "counter", "labels": ("core",),
        "help": "stall cycles attributed to other cores' interference",
    },
    "sim.spin_cycles": {"kind": "counter", "labels": ("thread",),
                        "help": "ground-truth spin cycles"},
    "sim.yield_cycles": {"kind": "counter", "labels": ("thread",),
                         "help": "ground-truth yield cycles"},
    "sim.sync_cycles": {"kind": "counter", "labels": ("thread",),
                        "help": "ground-truth synchronization cycles"},
    "sim.spin_instrs": {"kind": "counter", "labels": ("thread",),
                        "help": "instructions retired while spinning"},
    "sim.yields": {"kind": "counter", "labels": ("thread",),
                   "help": "scheduler yields"},
    "sim.lock_acquires": {"kind": "counter", "labels": ("thread",),
                          "help": "lock acquisitions"},
    "sim.barrier_waits": {"kind": "counter", "labels": ("thread",),
                          "help": "barrier arrivals"},
    "sim.total_cycles": {"kind": "counter", "labels": (),
                         "help": "simulated cycles of the accounted run"},
    "sim.instructions": {"kind": "counter", "labels": (),
                         "help": "instructions retired"},
    "sim.spin_instructions": {"kind": "counter", "labels": (),
                              "help": "spin instructions retired"},
    "sim.truncated_runs": {"kind": "counter", "labels": (),
                           "help": "1 when the run hit a watchdog"},
    "sim.cells": {"kind": "counter", "labels": (),
                  "help": "cells aggregated into this registry"},
}


def metric_key(name: str, **labels) -> str:
    """Canonical metric key: ``name{k=v,...}`` with sorted label keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += n


class Gauge:
    """Last-known value of a quantity; merges by maximum so that
    cross-process aggregation is order-independent."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


#: default histogram bucket upper bounds: powers of two, covering
#: microsecond-to-minute wall times and cycle counts alike
DEFAULT_BUCKETS = tuple(2.0 ** e for e in range(-10, 21))


class Histogram:
    """Fixed-bucket histogram (cumulative-free, one count per bucket
    plus overflow), with total sum and count for mean computation."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count


class MetricsRegistry:
    """Name-addressed store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- access-or-create ----------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, **labels)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, **labels)
        gauge = self.gauges.get(key)
        if gauge is None:
            gauge = self.gauges[key] = Gauge()
        return gauge

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        key = metric_key(name, **labels)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(bounds)
        return histogram

    # -- bulk updates ---------------------------------------------------

    def absorb(self, flat: dict[str, int]) -> None:
        """Add a flat ``{key: int}`` dict (a harvested cell) into the
        counters."""
        counters = self.counters
        for key, value in flat.items():
            counter = counters.get(key)
            if counter is None:
                counter = counters[key] = Counter()
            counter.value += value

    def merge(self, doc: dict) -> None:
        """Merge a :meth:`to_dict` document from another registry:
        counters sum, gauges max, histograms bucket-sum."""
        self.absorb(doc.get("counters", {}))
        for key, value in doc.get("gauges", {}).items():
            gauge = self.gauges.get(key)
            if gauge is None:
                gauge = self.gauges[key] = Gauge(value)
            else:
                gauge.value = max(gauge.value, value)
        for key, payload in doc.get("histograms", {}).items():
            incoming = Histogram(tuple(payload["bounds"]))
            incoming.counts = list(payload["counts"])
            incoming.total = payload["total"]
            incoming.count = payload["count"]
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = incoming
            else:
                mine.merge(incoming)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready document with deterministically sorted keys."""
        return {
            "counters": {
                key: self.counters[key].value
                for key in sorted(self.counters)
            },
            "gauges": {
                key: self.gauges[key].value for key in sorted(self.gauges)
            },
            "histograms": {
                key: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for key, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(doc)
        return registry

    def subset(self, prefix: str) -> dict[str, int]:
        """Counters whose key starts with ``prefix`` (e.g. ``"sim."``)."""
        return {
            key: counter.value
            for key, counter in sorted(self.counters.items())
            if key.startswith(prefix)
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")


# ----------------------------------------------------------------------
# harvesting: simulator counters -> flat deterministic metrics
# ----------------------------------------------------------------------


def harvest_sim_metrics(sim_result, report=None) -> dict[str, int]:
    """Flatten one finished run's counters into ``sim.*`` metrics.

    Reads only counters the engine, chip and accountant already
    maintain — harvesting is a post-run walk, never an in-run hook.
    The dict is built in a fixed order so its JSON serialization (and
    therefore the sweep journal) is byte-deterministic.
    """
    flat: dict[str, int] = {}
    for core_id, stats in enumerate(sim_result.chip.stats):
        flat[metric_key("sim.l1_hits", core=core_id)] = stats.l1_hits
        flat[metric_key("sim.l1_misses", core=core_id)] = stats.l1_misses
        flat[metric_key("sim.llc_hits", core=core_id)] = stats.llc_hits
        flat[metric_key("sim.llc_misses", core=core_id)] = stats.llc_misses
        flat[metric_key("sim.llc_load_misses", core=core_id)] = (
            stats.llc_load_misses
        )
        flat[metric_key("sim.c2c_transfers", core=core_id)] = (
            stats.c2c_transfers
        )
        flat[metric_key("sim.dram_accesses", core=core_id)] = (
            stats.dram_accesses
        )
        flat[metric_key("sim.rob_block_stall_cycles", core=core_id)] = (
            stats.llc_load_miss_stall
        )
        flat[metric_key("sim.stall_cycles", core=core_id)] = (
            stats.stall_cycles
        )
        flat[metric_key("sim.busy_cycles", core=core_id)] = stats.busy_cycles
        flat[metric_key("sim.coherency_misses", core=core_id)] = (
            stats.coherency_misses
        )
    for thread in sim_result.threads:
        tid = thread.tid
        flat[metric_key("sim.spin_cycles", thread=tid)] = (
            thread.gt_spin_cycles
        )
        flat[metric_key("sim.yield_cycles", thread=tid)] = (
            thread.gt_yield_cycles
        )
        flat[metric_key("sim.sync_cycles", thread=tid)] = (
            thread.gt_sync_cycles
        )
        flat[metric_key("sim.spin_instrs", thread=tid)] = thread.spin_instrs
        flat[metric_key("sim.yields", thread=tid)] = thread.n_yields
        flat[metric_key("sim.lock_acquires", thread=tid)] = (
            thread.n_lock_acquires
        )
        flat[metric_key("sim.barrier_waits", thread=tid)] = (
            thread.n_barrier_waits
        )
    if report is not None:
        for raw in report.cores:
            core_id = raw.core_id
            flat[metric_key("sim.spin_loop_detections", core=core_id)] = (
                raw.n_spin_episodes
            )
            flat[
                metric_key("sim.sampled_inter_thread_misses", core=core_id)
            ] = raw.sampled_inter_thread_misses
            flat[
                metric_key("sim.sampled_inter_thread_hits", core=core_id)
            ] = raw.sampled_inter_thread_hits
            flat[
                metric_key("sim.memory_interference_stall", core=core_id)
            ] = raw.memory_interference_stall
    flat["sim.total_cycles"] = sim_result.total_cycles
    flat["sim.instructions"] = sim_result.total_instrs
    flat["sim.spin_instructions"] = sim_result.total_spin_instrs
    flat["sim.truncated_runs"] = 1 if sim_result.truncated else 0
    return flat


def harvest_cell_metrics(experiment_result) -> dict[str, int]:
    """``sim.*`` metrics of one finished experiment cell (the accounted
    multi-threaded run; the memoized reference run is excluded so that
    cells sharing one ``Ts`` measurement aggregate identically in any
    execution order)."""
    flat = harvest_sim_metrics(
        experiment_result.mt_result, experiment_result.report
    )
    flat["sim.cells"] = 1
    return flat
