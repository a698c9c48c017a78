"""Machine, workload and run configuration for the CMP simulator.

The machine defaults mirror the methodology section of the paper
(Section 5): a chip-multiprocessor of four-wide superscalar out-of-order
cores with private L1 caches (32KB I / 64KB D), a shared 2MB last-level
L2 cache, a shared memory bus and a memory subsystem with 8 banks.

All sizes are in bytes and all times in core cycles.  Configurations are
plain frozen dataclasses so experiment sweeps can use
:func:`dataclasses.replace` to derive variants (e.g. the Figure 9 LLC-size
sweep) without mutating shared state.

Every string-valued policy field (``CacheConfig.replacement``,
``AccountingConfig.spin_detector``, ``DramConfig.page_policy``) is
validated against the component registry (:mod:`repro.components`) at
construction time, so an unknown name fails immediately with the list
of registered choices — and a policy registered by third-party code
becomes a valid config value without any edit here.
``SchedConfig.policy`` names the engine's one core-pick order and is
checked the same way against :data:`SCHED_POLICIES`.

:class:`ExperimentConfig` bundles machine + workload + run options into
one serializable object (``to_dict``/``from_dict``, TOML/JSON
:func:`load_config`/:func:`dump_config`) that travels end-to-end:
CLI ``--config`` → scenarios/runner → parallel workers (as its dict
form, which pickles trivially).
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any

from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB

#: valid ``RunConfig.on_error`` / ``--on-error`` policies
ON_ERROR_MODES = ("abort", "skip", "retry")


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _component_choice(kind: str, name: str, config_field: str) -> None:
    """Validate ``name`` against the component registry.

    The import is deferred so ``repro.config`` and ``repro.components``
    can be imported in either order (the components package registers
    the built-ins on import and touches neither config nor sim).
    """
    from repro.components.registry import validate_choice

    validate_choice(kind, name, config_field)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``hit_latency`` is the load-to-use latency of a hit in this level;
    ``hidden_latency`` is the number of those cycles an out-of-order core
    is assumed to hide (Section 4.5 argues a balanced out-of-order core
    hides L1 misses, i.e. LLC hits, very well).
    """

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 2
    hidden_latency: int = 2
    #: victim selection, resolved via the ``"replacement"`` component
    #: registry; built-ins: "lru", "fifo", "random" (seeded, deterministic)
    replacement: str = "lru"

    def __post_init__(self) -> None:
        _component_choice("replacement", self.replacement, "replacement")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ConfigError(
                f"size_bytes: cache size {self.size_bytes} not divisible "
                f"by assoc*line ({self.assoc}*{self.line_bytes})",
                field="size_bytes",
            )
        if not _is_power_of_two(self.line_bytes):
            raise ConfigError(
                f"line_bytes: line size must be a power of two: "
                f"{self.line_bytes}",
                field="line_bytes",
            )
        if not _is_power_of_two(self.n_sets):
            raise ConfigError(
                f"size_bytes: number of sets must be a power of two: "
                f"{self.n_sets}",
                field="size_bytes",
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class DramConfig:
    """Open-page DRAM with a shared bus and independently busy banks.

    Timing parameters follow conventional DDR-style nomenclature expressed
    in core cycles: ``t_cas`` is the column access on a page (row-buffer)
    hit, ``t_rcd`` the row activate, and ``t_rp`` the precharge (write-back
    of the currently open page).  A page conflict therefore costs
    ``t_rp + t_rcd + t_cas`` while a page hit costs only ``t_cas``.
    """

    n_banks: int = 8
    page_bytes: int = 4 * KB
    bus_cycles: int = 16
    t_cas: int = 40
    t_rcd: int = 60
    t_rp: int = 60
    #: row-buffer management, resolved via the ``"page_policy"``
    #: component registry; built-ins: "open" (the paper's setup),
    #: "closed" (auto-precharge)
    page_policy: str = "open"

    def __post_init__(self) -> None:
        _component_choice("page_policy", self.page_policy, "page_policy")
        if not _is_power_of_two(self.n_banks):
            raise ConfigError(
                f"n_banks: bank count must be a power of two: {self.n_banks}",
                field="n_banks",
            )
        if not _is_power_of_two(self.page_bytes):
            raise ConfigError(
                f"page_bytes: page size must be a power of two: "
                f"{self.page_bytes}",
                field="page_bytes",
            )

    @property
    def page_hit_cycles(self) -> int:
        return self.t_cas

    @property
    def page_conflict_cycles(self) -> int:
        return self.t_rp + self.t_rcd + self.t_cas

    @property
    def page_empty_cycles(self) -> int:
        """Cost when the bank has no page open at all (activate + access)."""
        return self.t_rcd + self.t_cas

    @property
    def conflict_extra_cycles(self) -> int:
        """Extra cycles of a page conflict over a page hit."""
        return self.page_conflict_cycles - self.page_hit_cycles


@dataclass(frozen=True)
class CoreConfig:
    """Interval-model parameters of one out-of-order core."""

    dispatch_width: int = 4
    rob_size: int = 128
    coherence_write_latency: int = 8

    def __post_init__(self) -> None:
        if self.dispatch_width < 1:
            raise ConfigError(
                "dispatch_width: must be >= 1", field="dispatch_width"
            )

    @property
    def rob_drain_cycles(self) -> int:
        """Cycles of useful dispatch available while a miss drains the ROB."""
        return self.rob_size // self.dispatch_width


@dataclass(frozen=True)
class SyncConfig:
    """Spin-then-yield synchronization library behaviour.

    A contended acquire spins for ``spin_threshold`` loop iterations and
    then asks the OS to deschedule the thread (Section 4.4); each spin
    iteration executes a real load of the synchronization variable plus
    ``spin_iter_instrs`` loop-overhead instructions so the spin-detection
    hardware observes a genuine instruction stream.
    """

    spin_threshold: int = 48
    spin_iter_instrs: int = 4


#: the values ``sched.policy`` accepts
SCHED_POLICIES = ("earliest",)


@dataclass(frozen=True)
class SchedConfig:
    """Operating-system scheduler model plus the engine's core-pick policy."""

    timeslice_cycles: int = 100_000
    context_switch_cycles: int = 400
    wakeup_latency_cycles: int = 600
    #: Extra per-scheduling-event overhead added per core in the machine,
    #: modelling the Linux scheduler being less efficient at high core
    #: counts (observed for ferret in Figure 7 of the paper).
    overhead_per_core_cycles: int = 4
    #: engine core-pick order; the one policy is "earliest" (smallest
    #: local clock first, ties by core id), which the engine's causality
    #: argument needs
    policy: str = "earliest"

    def __post_init__(self) -> None:
        if self.policy not in SCHED_POLICIES:
            raise ConfigError(
                f"policy: unknown scheduler {self.policy!r}; choices: "
                f"{', '.join(SCHED_POLICIES)}",
                field="policy",
                choices=SCHED_POLICIES,
            )


@dataclass(frozen=True)
class AccountingConfig:
    """Parameters of the cycle-accounting hardware (Section 4).

    ``atd_sample_period`` selects one in every N LLC sets for ATD
    monitoring ("to reduce the hardware cost of the ATDs, only a few sets
    are monitored in the LLC").  ``spin_table_entries`` sizes the Tian
    et al. load-watch table ("assuming a spinning loop contains at most 8
    loads, 8 entries are needed").
    """

    atd_sample_period: int = 8
    spin_table_entries: int = 8
    spin_value_threshold: int = 2
    #: spin-detection scheme, resolved via the ``"spin_detector"``
    #: component registry; built-ins: "tian" (load-value), "li"
    #: (backward-branch)
    spin_detector: str = "tian"
    account_coherency: bool = False
    #: also run a full-tag (unsampled) shadow ATD per core, purely for
    #: verification: the report then carries oracle inter-thread counts
    #: against which the sampled extrapolation can be judged in-run
    atd_shadow_oracle: bool = False

    def __post_init__(self) -> None:
        _component_choice("spin_detector", self.spin_detector, "spin_detector")
        if self.atd_sample_period < 1:
            raise ConfigError(
                "atd_sample_period: must be >= 1", field="atd_sample_period"
            )
        if self.spin_table_entries < 1:
            raise ConfigError(
                "spin_table_entries: must be >= 1", field="spin_table_entries"
            )
        if self.spin_value_threshold < 2:
            raise ConfigError(
                "spin_value_threshold: must be >= 2 (a spin loop repeats "
                "a value)",
                field="spin_value_threshold",
            )


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of the simulated CMP plus its accounting HW."""

    n_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * KB, assoc=4)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * KB, assoc=4)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * MB, assoc=16, hit_latency=30, hidden_latency=30
        )
    )
    dram: DramConfig = field(default_factory=DramConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    sched: SchedConfig = field(default_factory=SchedConfig)
    accounting: AccountingConfig = field(default_factory=AccountingConfig)
    #: static per-core LLC way quotas (cache partitioning, the paper's
    #: Section 7.1 remedy for negative LLC interference); None = fully
    #: shared ways
    llc_quotas: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.llc_quotas is not None:
            object.__setattr__(self, "llc_quotas", tuple(self.llc_quotas))
        if self.n_cores < 1:
            raise ConfigError(
                "n_cores: need at least one core", field="n_cores"
            )
        if self.l1d.line_bytes != self.llc.line_bytes:
            raise ConfigError(
                "llc.line_bytes: L1D and LLC line sizes must match (one "
                "line address indexes both levels)",
                field="llc.line_bytes",
            )
        if self.llc_quotas is not None:
            if len(self.llc_quotas) != self.n_cores:
                raise ConfigError(
                    "llc_quotas: need one LLC way quota per core",
                    field="llc_quotas",
                )
            if sum(self.llc_quotas) > self.llc.assoc:
                raise ConfigError(
                    "llc_quotas: LLC way quotas exceed associativity",
                    field="llc_quotas",
                )

    def with_cores(self, n_cores: int) -> "MachineConfig":
        """Derive a config with a different core count."""
        return replace(self, n_cores=n_cores)

    def with_llc_size(self, size_bytes: int) -> "MachineConfig":
        """Derive a config with a different LLC capacity (Figure 9 sweep)."""
        return replace(self, llc=replace(self.llc, size_bytes=size_bytes))

    def with_llc_quotas(self, quotas: tuple[int, ...]) -> "MachineConfig":
        """Derive a config with statically partitioned LLC ways."""
        return replace(self, llc_quotas=quotas)


DEFAULT_MACHINE = MachineConfig()


# ----------------------------------------------------------------------
# experiment-level configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadConfig:
    """What to simulate: benchmarks, thread counts, and problem scale."""

    #: benchmark names from the synthetic suite; None = the full suite
    benchmarks: tuple[str, ...] | None = None
    thread_counts: tuple[int, ...] = (16,)
    #: problem-size scale factor applied to every benchmark
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.benchmarks is not None:
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "thread_counts", tuple(self.thread_counts))
        if not self.thread_counts:
            raise ConfigError(
                "thread_counts: must not be empty", field="thread_counts"
            )
        if any(n < 1 for n in self.thread_counts):
            raise ConfigError(
                f"thread_counts: must be >= 1: {self.thread_counts}",
                field="thread_counts",
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(
                f"scale: must be a finite number > 0: {self.scale}",
                field="scale",
            )


@dataclass(frozen=True)
class RunConfig:
    """How to execute a sweep: error policy, retries, watchdogs,
    checkpoints and parallelism.

    ``on_error``:

    * ``"abort"`` — re-raise as :class:`~repro.errors.ExperimentError`
      (the first failure kills the sweep);
    * ``"skip"``  — record the failure and move on (default);
    * ``"retry"`` — re-run the cell up to ``max_retries`` extra times
      with exponential backoff (:meth:`backoff_delay`), then record the
      failure and move on.

    ``max_cycles`` / ``livelock_window`` arm the engine watchdog for
    every run of the sweep; watchdog hits *truncate* (flagged partial
    results) rather than fail.

    ``checkpoint_dir`` arms per-cell engine checkpoints: each cell's
    multi-threaded run saves its state to
    ``<dir>/<benchmark>_n<threads>.ckpt`` every ``checkpoint_every``
    simulated cycles (plus on watchdog fires and engine faults), and a
    cell that finds its checkpoint on disk resumes from it instead of
    starting over when the resume rule allows: the same cell, under
    limits no tighter than the checkpoint's (see
    ``docs/checkpointing.md``).  Resumed cells produce byte-identical
    results to uninterrupted ones, so crash recovery never changes a
    sweep's numbers.
    """

    on_error: str = "skip"
    max_retries: int = 2
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    #: cap on any single retry delay (the geometric growth is otherwise
    #: unbounded); None = uncapped
    backoff_max_s: float | None = 60.0
    #: full jitter: each retry delay is drawn uniformly from
    #: [0, capped delay], seeded per (cell, attempt) — decorrelates
    #: concurrent workers without sacrificing determinism
    backoff_jitter: bool = True
    #: engine watchdog limits; None = unarmed
    max_cycles: int | None = None
    livelock_window: int | None = None
    #: sweep worker processes (1 = serial, in-process)
    jobs: int = 1
    #: simulated cycles between periodic engine checkpoints; None = no
    #: periodic saves (watchdog/fault saves still fire when a
    #: ``checkpoint_dir`` is set)
    checkpoint_every: int | None = None
    #: directory for per-cell checkpoint files; None disables
    #: checkpointing entirely
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ConfigError(
                f"on_error: unknown mode {self.on_error!r}; "
                f"valid modes: {', '.join(ON_ERROR_MODES)}",
                field="on_error",
                choices=ON_ERROR_MODES,
            )
        for name, minimum in _RUN_FIELD_MINIMUMS:
            value = getattr(self, name)
            if value is not None and value < minimum:
                raise ConfigError(f"{name}: must be >= {minimum}", field=name)

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Seconds to sleep before ``attempt`` (the second attempt is
        ``attempt=2``) of the cell identified by ``key``.

        The delay grows geometrically from ``backoff_s`` by
        ``backoff_factor`` per attempt, capped at ``backoff_max_s``.
        With ``backoff_jitter`` it is drawn uniformly from
        ``[0, capped]``, from an RNG seeded with ``(key, attempt)``: a
        retried cell backs off identically in a serial sweep, a
        ``--jobs N`` worker and a queue worker, which keeps the
        differential suites and event streams stable while still
        decorrelating *different* cells retrying at once.
        """
        if attempt <= 1 or self.backoff_s <= 0:
            return 0.0
        delay = self.backoff_s * self.backoff_factor ** (attempt - 2)
        if self.backoff_max_s is not None:
            delay = min(delay, self.backoff_max_s)
        if self.backoff_jitter:
            seed = zlib.crc32(f"{key}:{attempt}".encode())
            delay = random.Random(seed).uniform(0.0, delay)
        return delay


#: the smallest valid value of each numeric run field (None = unset)
_RUN_FIELD_MINIMUMS = (
    ("max_retries", 0),
    ("backoff_s", 0),
    ("backoff_factor", 1),
    ("backoff_max_s", 0),
    ("max_cycles", 1),
    ("livelock_window", 1),
    ("jobs", 1),
    ("checkpoint_every", 1),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, end to end: the machine, the workload, the run.

    Frozen and hashable like every other config, and — unlike the nested
    sections — round-trippable through plain dicts (``to_dict`` /
    ``from_dict``) and config files (:func:`load_config` /
    :func:`dump_config`), so a single object describes an experiment in
    the CLI, in the batch runner, and across process boundaries in
    parallel sweeps.
    """

    machine: MachineConfig = field(default_factory=MachineConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (nested dicts/lists/scalars, ``None`` omitted)."""
        return _to_plain(self)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ExperimentConfig":
        """Rebuild from :meth:`to_dict` output (or a parsed config file).

        Unknown keys and invalid values raise :class:`ConfigError`
        naming the full field path (e.g. ``machine.llc.replacement``)
        and, for registry-backed fields, the registered choices.
        """
        return _from_plain(cls, doc, path="")


#: nested dataclass-valued fields, per section type (needed because
#: ``from __future__ import annotations`` turns field types into strings)
_NESTED_TYPES: dict[type, dict[str, type]] = {
    MachineConfig: {
        "core": CoreConfig,
        "l1i": CacheConfig,
        "l1d": CacheConfig,
        "llc": CacheConfig,
        "dram": DramConfig,
        "sync": SyncConfig,
        "sched": SchedConfig,
        "accounting": AccountingConfig,
    },
    ExperimentConfig: {
        "machine": MachineConfig,
        "workload": WorkloadConfig,
        "run": RunConfig,
    },
}


def machine_to_dict(machine: MachineConfig) -> dict[str, Any]:
    """Plain-data form of a machine (the ``machine`` table of a config
    file); the shape :func:`machine_from_dict` accepts."""
    return _to_plain(machine)


def machine_from_dict(doc: dict[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its dict form, with the
    same field-path error reporting as :meth:`ExperimentConfig.from_dict`."""
    return _from_plain(MachineConfig, doc, path="machine")


def _to_plain(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _to_plain(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def _from_plain(cls: Any, doc: Any, path: str) -> Any:
    where = path or cls.__name__
    if not isinstance(doc, dict):
        raise ConfigError(
            f"{where}: expected a table/object, got {type(doc).__name__}",
            field=where,
        )
    field_map = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(field_map))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(field_map))}",
            field=where,
            choices=tuple(sorted(field_map)),
        )
    nested = _NESTED_TYPES.get(cls, {})
    kwargs: dict[str, Any] = {}
    for name, value in doc.items():
        sub_path = f"{path}.{name}" if path else name
        if name in nested:
            if isinstance(value, dict):
                # a partial table keeps the rest of this field's default
                # (the l1i, l1d and llc defaults differ from each other)
                value = {**_to_plain(getattr(cls(), name)), **value}
            kwargs[name] = _from_plain(nested[name], value, sub_path)
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        bad = f"{path}.{exc.field}" if path and exc.field else (exc.field or where)
        raise ConfigError(
            f"{where}: {exc}", field=bad, choices=exc.choices
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}", field=where) from exc


# ----------------------------------------------------------------------
# config files: TOML (read via stdlib tomllib) and JSON
# ----------------------------------------------------------------------


def load_config(path: str | Path) -> ExperimentConfig:
    """Load an :class:`ExperimentConfig` from a ``.toml`` or ``.json`` file.

    Any validation failure is reported as :class:`ConfigError` with the
    offending field path and — for registry-backed policy fields — the
    registered choices.
    """
    path = Path(path)
    try:
        if path.suffix.lower() == ".toml":
            import tomllib

            with path.open("rb") as fh:
                doc = tomllib.load(fh)
        else:
            with path.open("r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # tomllib.TOMLDecodeError, json.JSONDecodeError
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def dump_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write a config file; format chosen by suffix (TOML or JSON)."""
    path = Path(path)
    doc = config.to_dict()
    if path.suffix.lower() == ".toml":
        path.write_text(dumps_toml(doc), encoding="utf-8")
    else:
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise ConfigError(f"cannot serialize {type(value).__name__} to TOML")


def dumps_toml(doc: dict[str, Any], _prefix: str = "") -> str:
    """Minimal TOML emitter for the nested dict-of-scalars config schema.

    The stdlib can parse TOML (:mod:`tomllib`) but not write it; this
    covers exactly the shapes :meth:`ExperimentConfig.to_dict` produces
    (nested tables of scalars and scalar lists).
    """
    lines: list[str] = []
    tables: list[tuple[str, dict]] = []
    for key, value in doc.items():
        if isinstance(value, dict):
            tables.append((key, value))
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    out = "\n".join(lines)
    for key, value in tables:
        name = f"{_prefix}{key}"
        body = dumps_toml(value, _prefix=f"{name}.")
        out += f"\n\n[{name}]\n{body}" if body else f"\n\n[{name}]"
    return out.strip() + ("\n" if not _prefix else "")
