"""Machine, workload and run configuration for the CMP simulator.

The machine defaults mirror the methodology section of the paper
(Section 5): a chip-multiprocessor of four-wide superscalar out-of-order
cores with private L1 caches (32KB I / 64KB D), a shared 2MB last-level
L2 cache, a shared memory bus and a memory subsystem with 8 banks.

All sizes are in bytes and all times in core cycles.  Configurations are
plain frozen dataclasses so experiment sweeps can use
:func:`dataclasses.replace` to derive variants (e.g. the Figure 9 LLC-size
sweep) without mutating shared state.

Each field declares its bounds once, in the ``metadata`` of its
:func:`dataclasses.field`, and every section checks them when it is
built (:func:`_check_fields`).  A string-valued policy field
(``CacheConfig.replacement``, ``DramConfig.page_policy``,
``AccountingConfig.spin_detector``) takes its choices from the
component registry (:mod:`repro.components`), so a policy registered
by third-party code becomes a valid config value without any edit here.

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

#: the values ``sched.policy`` accepts
SCHED_POLICIES = ("earliest",)

#: annotation -> (accepted types, refused types, how an error names it)
_SCALARS: dict[str, tuple[Any, Any, str]] = {
    "int": (int, bool, "an integer"),
    "float": ((int, float), bool, "a finite number"),
    "bool": (bool, (), "true or false"),
    "str": (str, (), "a string"),
}


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _section_class(annotation: Any) -> Any:
    """The config dataclass a field's annotation string names, or None."""
    cls = globals().get(annotation)
    return cls if is_dataclass(cls) else None


class _Section:
    """Base of every config section: building one first checks its
    fields against their declarations (:func:`_check_fields`)."""

    def __post_init__(self) -> None:
        _check_fields(self)


def _check_fields(section: Any) -> None:
    """Check every field of a config section against its declaration.

    The annotation string gives the type: an ``int`` refuses ``bool``
    and ``float``; a ``float`` takes an ``int`` and must be finite;
    ``None`` passes only where the annotation allows it; a
    ``tuple[X, ...]`` takes a list too, is stored as a tuple and is
    checked entry by entry; any other name is a nested section's class.
    The field's ``metadata`` gives the bounds: ``"min"`` (the smallest
    value), ``"above"`` (a value to exceed), ``"pow2"`` (a power of
    two), ``"choices"`` (a tuple, or a component-registry kind) and
    ``"nonempty"`` (for a tuple).  The first bad field raises a
    :class:`ConfigError` naming it; ``_from_plain`` adds the path.
    """
    for f in fields(section):
        value = getattr(section, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if not kind.startswith("tuple["):
            _check_value(f.name, kind, f.metadata, value)
            continue
        if not isinstance(value, (tuple, list)):
            raise ConfigError(
                f"{f.name}: expected a list, got {_shown(value)}",
                field=f.name,
            )
        value = tuple(value)
        object.__setattr__(section, f.name, value)
        if not value and f.metadata.get("nonempty"):
            raise ConfigError(f"{f.name}: must not be empty", field=f.name)
        entry_kind = kind.removeprefix("tuple[").removesuffix(", ...]")
        for entry in value:
            _check_value(f.name, entry_kind, f.metadata, entry)


def _shown(value: Any) -> str:
    return f"{type(value).__name__} {value!r}"


def _check_value(name: str, kind: str, bounds: Any, value: Any) -> None:
    """Raise the :class:`ConfigError` for a value of field ``name`` that
    is not a ``kind`` or lies outside ``bounds``."""
    accepted, refused, expected = _SCALARS.get(kind) or (
        _section_class(kind), (), f"a {kind} table"
    )
    choices = bounds.get("choices")
    if isinstance(choices, str):  # a component-registry kind
        # deferred so repro.config and repro.components import in
        # either order (the package registers the built-ins on import)
        from repro.components.registry import available

        choices = available(choices)
    if not isinstance(value, accepted) or isinstance(value, refused) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        problem = f"expected {expected}, got {_shown(value)}"
    elif "min" in bounds and value < bounds["min"]:
        problem = f"must be >= {bounds['min']}, got {value!r}"
    elif "above" in bounds and not value > bounds["above"]:
        problem = f"must be > {bounds['above']}, got {value!r}"
    elif bounds.get("pow2") and not _is_power_of_two(value):
        problem = f"must be a power of two, got {value!r}"
    elif choices is not None and value not in choices:
        problem = f"unknown {name} {value!r}; choices: {', '.join(choices)}"
    else:
        return
    raise ConfigError(f"{name}: {problem}", field=name, choices=choices or ())


@dataclass(frozen=True)
class CacheConfig(_Section):
    """Geometry and timing of one cache level.

    ``hit_latency`` is the load-to-use latency of a hit in this level;
    ``hidden_latency`` is the number of those cycles an out-of-order core
    is assumed to hide (Section 4.5 argues a balanced out-of-order core
    hides L1 misses, i.e. LLC hits, very well).
    """

    size_bytes: int = field(metadata={"min": 1})
    assoc: int = field(metadata={"min": 1})
    line_bytes: int = field(default=64, metadata={"pow2": True})
    hit_latency: int = field(default=2, metadata={"min": 0})
    hidden_latency: int = field(default=2, metadata={"min": 0})
    #: victim selection, resolved via the ``"replacement"`` component
    #: registry; built-ins: "lru", "fifo", "random" (seeded, deterministic)
    replacement: str = field(default="lru", metadata={"choices": "replacement"})

    def __post_init__(self) -> None:
        super().__post_init__()
        set_bytes = self.assoc * self.line_bytes
        if self.size_bytes % set_bytes or not _is_power_of_two(self.n_sets):
            raise ConfigError(
                f"size_bytes: cache size {self.size_bytes} is not assoc*line "
                f"({self.assoc}*{self.line_bytes}) times a power of two",
                field="size_bytes",
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class DramConfig(_Section):
    """Open-page DRAM with a shared bus and independently busy banks.

    Timing parameters follow conventional DDR-style nomenclature expressed
    in core cycles: ``t_cas`` is the column access on a page (row-buffer)
    hit, ``t_rcd`` the row activate, and ``t_rp`` the precharge (write-back
    of the currently open page).  A page conflict therefore costs
    ``t_rp + t_rcd + t_cas`` while a page hit costs only ``t_cas``.
    """

    n_banks: int = field(default=8, metadata={"pow2": True})
    page_bytes: int = field(default=4 * KB, metadata={"pow2": True})
    bus_cycles: int = field(default=16, metadata={"min": 0})
    t_cas: int = field(default=40, metadata={"min": 0})
    t_rcd: int = field(default=60, metadata={"min": 0})
    t_rp: int = field(default=60, metadata={"min": 0})
    #: row-buffer management, resolved via the ``"page_policy"``
    #: component registry; built-ins: "open" (the paper's setup),
    #: "closed" (auto-precharge)
    page_policy: str = field(default="open", metadata={"choices": "page_policy"})

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
class CoreConfig(_Section):
    """Interval-model parameters of one out-of-order core."""

    dispatch_width: int = field(default=4, metadata={"min": 1})
    rob_size: int = field(default=128, metadata={"min": 1})
    #: checked and hashed but read by nothing in the simulator; kept so
    #: existing config files and checkpoint config hashes stay valid
    coherence_write_latency: int = field(default=8, metadata={"min": 0})

    @property
    def rob_drain_cycles(self) -> int:
        """Cycles of useful dispatch available while a miss drains the ROB."""
        return self.rob_size // self.dispatch_width


@dataclass(frozen=True)
class SyncConfig(_Section):
    """Spin-then-yield synchronization library behaviour.

    A contended acquire spins for ``spin_threshold`` loop iterations and
    then asks the OS to deschedule the thread (Section 4.4); each spin
    iteration executes a real load of the synchronization variable plus
    ``spin_iter_instrs`` loop-overhead instructions so the spin-detection
    hardware observes a genuine instruction stream.
    """

    spin_threshold: int = field(default=48, metadata={"min": 0})
    spin_iter_instrs: int = field(default=4, metadata={"min": 0})


@dataclass(frozen=True)
class SchedConfig(_Section):
    """Operating-system scheduler model plus the engine's core-pick policy."""

    timeslice_cycles: int = field(default=100_000, metadata={"min": 0})
    context_switch_cycles: int = field(default=400, metadata={"min": 0})
    wakeup_latency_cycles: int = field(default=600, metadata={"min": 0})
    #: Extra per-scheduling-event overhead added per core in the machine,
    #: modelling the Linux scheduler being less efficient at high core
    #: counts (observed for ferret in Figure 7 of the paper).
    overhead_per_core_cycles: int = field(default=4, metadata={"min": 0})
    #: engine core-pick order; the one policy is "earliest" (smallest
    #: local clock first, ties by core id), which the engine's causality
    #: argument needs
    policy: str = field(default="earliest", metadata={"choices": SCHED_POLICIES})


@dataclass(frozen=True)
class AccountingConfig(_Section):
    """Parameters of the cycle-accounting hardware (Section 4).

    ``atd_sample_period`` selects one in every N LLC sets for ATD
    monitoring ("to reduce the hardware cost of the ATDs, only a few sets
    are monitored in the LLC").  ``spin_table_entries`` sizes the Tian
    et al. load-watch table ("assuming a spinning loop contains at most 8
    loads, 8 entries are needed").  A spin loop must repeat a value
    before the Tian detector can see it, hence ``spin_value_threshold``
    of at least 2.
    """

    atd_sample_period: int = field(default=8, metadata={"min": 1})
    spin_table_entries: int = field(default=8, metadata={"min": 1})
    spin_value_threshold: int = field(default=2, metadata={"min": 2})
    #: spin-detection scheme, resolved via the ``"spin_detector"``
    #: component registry; built-ins: "tian" (load-value), "li"
    #: (backward-branch)
    spin_detector: str = field(default="tian", metadata={"choices": "spin_detector"})
    account_coherency: bool = False
    #: also run a full-tag (unsampled) shadow ATD per core, purely for
    #: verification: the report then carries oracle inter-thread counts
    #: against which the sampled extrapolation can be judged in-run
    atd_shadow_oracle: bool = False


@dataclass(frozen=True)
class MachineConfig(_Section):
    """Complete description of the simulated CMP plus its accounting HW.

    ``l1i`` is checked and hashed but read by nothing in the simulator
    (it models no instruction fetch); it stays so that existing config
    files and checkpoint config hashes stay valid.
    """

    n_cores: int = field(default=16, metadata={"min": 1})
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
    llc_quotas: tuple[int, ...] | None = field(default=None, metadata={"min": 1})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.l1d.line_bytes != self.llc.line_bytes:
            raise ConfigError(
                "llc.line_bytes: L1D and LLC line sizes must match (one "
                "line address indexes both levels)",
                field="llc.line_bytes",
            )
        quotas = self.llc_quotas
        if quotas is not None and (
            len(quotas) != self.n_cores or sum(quotas) > self.llc.assoc
        ):
            raise ConfigError(
                f"llc_quotas: need one LLC way quota per core "
                f"({self.n_cores}), summing to at most the LLC's "
                f"{self.llc.assoc} ways",
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
class WorkloadConfig(_Section):
    """What to simulate: benchmarks, thread counts, and problem scale."""

    #: benchmark names from the synthetic suite; None = the full suite
    benchmarks: tuple[str, ...] | None = None
    thread_counts: tuple[int, ...] = field(
        default=(16,), metadata={"min": 1, "nonempty": True}
    )
    #: problem-size scale factor applied to every benchmark
    scale: float = field(default=1.0, metadata={"above": 0})


@dataclass(frozen=True)
class RunConfig(_Section):
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

    on_error: str = field(default="skip", metadata={"choices": ON_ERROR_MODES})
    max_retries: int = field(default=2, metadata={"min": 0})
    backoff_s: float = field(default=0.0, metadata={"min": 0})
    backoff_factor: float = field(default=2.0, metadata={"min": 1})
    #: cap on any single retry delay (the geometric growth is otherwise
    #: unbounded); None = uncapped
    backoff_max_s: float | None = field(default=60.0, metadata={"min": 0})
    #: full jitter: each retry delay is drawn uniformly from
    #: [0, capped delay], seeded per (cell, attempt) — decorrelates
    #: concurrent workers without sacrificing determinism
    backoff_jitter: bool = True
    #: engine watchdog limits; None = unarmed
    max_cycles: int | None = field(default=None, metadata={"min": 1})
    livelock_window: int | None = field(default=None, metadata={"min": 1})
    #: sweep worker processes (1 = serial, in-process)
    jobs: int = field(default=1, metadata={"min": 1})
    #: simulated cycles between periodic engine checkpoints; None = no
    #: periodic saves (watchdog/fault saves still fire when a
    #: ``checkpoint_dir`` is set)
    checkpoint_every: int | None = field(default=None, metadata={"min": 1})
    #: directory for per-cell checkpoint files; None disables
    #: checkpointing entirely
    checkpoint_dir: str | None = None

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


@dataclass(frozen=True)
class ExperimentConfig(_Section):
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
        and, for fields with choices, the valid choices.
        """
        return _from_plain(cls, doc, path="")


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
        # a None is left out where it is the default, and kept where it
        # is not (``backoff_max_s``), so that from_dict restores it
        return {
            f.name: _to_plain(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) is not None or f.default is not None
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
    kwargs: dict[str, Any] = {}
    for name, value in doc.items():
        section = _section_class(field_map[name].type)
        if section is not None and isinstance(value, dict):
            # a partial table keeps the rest of this field's default
            # (the l1i, l1d and llc defaults differ from each other)
            value = _from_plain(
                section,
                {**_to_plain(getattr(cls(), name)), **value},
                f"{path}.{name}" if path else name,
            )
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        bad = f"{path}.{exc.field}" if path and exc.field else (exc.field or where)
        raise ConfigError(
            f"{where}: {exc}", field=bad, choices=exc.choices
        ) from exc


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
        # TOML reads no surrogate-pair escapes, and no raw DEL
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")
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
