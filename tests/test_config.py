"""Machine configuration: validation, derivation, serialization."""

from __future__ import annotations

import json
import tomllib
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import available
from repro.config import (
    KB,
    MB,
    AccountingConfig,
    CacheConfig,
    CoreConfig,
    DramConfig,
    ExperimentConfig,
    MachineConfig,
    RunConfig,
    SchedConfig,
    SyncConfig,
    WorkloadConfig,
    dump_config,
    dumps_toml,
    load_config,
    machine_from_dict,
    machine_to_dict,
)
from repro.errors import ConfigError
from repro.workloads.suite import sweep_cells


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(size_bytes=64 * KB, assoc=4)
        assert config.n_sets == 256
        assert config.n_lines == 1024

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100_000, assoc=4)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64 * KB, assoc=4, line_bytes=48)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 64 * KB, assoc=4)

    def test_frozen(self):
        config = CacheConfig(size_bytes=64 * KB, assoc=4)
        with pytest.raises(FrozenInstanceError):
            config.assoc = 8


class TestDramConfig:
    def test_derived_timings(self):
        dram = DramConfig(t_cas=40, t_rcd=60, t_rp=60)
        assert dram.page_hit_cycles == 40
        assert dram.page_empty_cycles == 100
        assert dram.page_conflict_cycles == 160
        assert dram.conflict_extra_cycles == 120

    def test_rejects_odd_bank_count(self):
        with pytest.raises(ValueError):
            DramConfig(n_banks=6)

    def test_rejects_odd_page_size(self):
        with pytest.raises(ValueError):
            DramConfig(page_bytes=5000)


class TestCoreConfig:
    def test_rob_drain(self):
        assert CoreConfig(dispatch_width=4, rob_size=128).rob_drain_cycles == 32


class TestAccountingConfig:
    def test_rejects_unknown_detector(self):
        with pytest.raises(ValueError):
            AccountingConfig(spin_detector="magic")

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            AccountingConfig(atd_sample_period=0)


class TestSchedConfig:
    def test_policy_is_the_engine_pick_order(self):
        assert SchedConfig().policy == "earliest"
        assert MachineConfig().sched.policy == "earliest"

    def test_rejects_unknown_policy_naming_field_and_choices(self):
        with pytest.raises(ConfigError) as exc:
            SchedConfig(policy="round_robin")
        assert exc.value.field == "policy"
        assert exc.value.choices == ("earliest",)
        assert "round_robin" in str(exc.value)


class TestMachineConfig:
    def test_defaults_match_paper_methodology(self):
        machine = MachineConfig()
        assert machine.n_cores == 16
        assert machine.core.dispatch_width == 4        # four-wide OoO
        assert machine.l1i.size_bytes == 32 * KB       # 32KB L1 I
        assert machine.l1d.size_bytes == 64 * KB       # 64KB L1 D
        assert machine.llc.size_bytes == 2 * MB        # 2MB shared LLC
        assert machine.dram.n_banks == 8               # 8 memory banks

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=0)

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ValueError):
            MachineConfig(
                llc=CacheConfig(size_bytes=2 * MB, assoc=16, line_bytes=128),
            )

    def test_with_cores_preserves_rest(self):
        machine = MachineConfig(n_cores=16)
        derived = machine.with_cores(4)
        assert derived.n_cores == 4
        assert derived.llc is machine.llc

    def test_with_llc_size_preserves_rest(self):
        machine = MachineConfig()
        derived = machine.with_llc_size(8 * MB)
        assert derived.llc.size_bytes == 8 * MB
        assert derived.llc.assoc == machine.llc.assoc
        assert derived.n_cores == machine.n_cores


class TestWorkloadConfig:
    def test_defaults(self):
        workload = WorkloadConfig()
        assert workload.benchmarks is None
        assert workload.thread_counts == (16,)
        assert workload.scale == 1.0

    def test_coerces_lists_to_tuples(self):
        workload = WorkloadConfig(benchmarks=["fft"], thread_counts=[2, 4])
        assert workload.benchmarks == ("fft",)
        assert workload.thread_counts == (2, 4)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            WorkloadConfig(scale=0.0)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            WorkloadConfig(thread_counts=(0,))


class TestRunConfig:
    def test_rejects_unknown_on_error(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig(on_error="explode")
        assert exc.value.choices == ("abort", "skip", "retry")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            RunConfig(jobs=0)


@pytest.mark.parametrize("build,field", [
    (lambda: CacheConfig(size_bytes=100_000, assoc=4), "size_bytes"),
    (lambda: CacheConfig(size_bytes=48 * 4 * 256, assoc=4, line_bytes=48),
     "line_bytes"),
    (lambda: CacheConfig(size_bytes=3 * 64 * KB, assoc=4), "size_bytes"),
    (lambda: DramConfig(n_banks=6), "n_banks"),
    (lambda: DramConfig(page_bytes=5000), "page_bytes"),
    (lambda: AccountingConfig(atd_sample_period=0), "atd_sample_period"),
    (lambda: AccountingConfig(spin_table_entries=0), "spin_table_entries"),
    (lambda: AccountingConfig(spin_value_threshold=1),
     "spin_value_threshold"),
    (lambda: CoreConfig(dispatch_width=0), "dispatch_width"),
    (lambda: MachineConfig(n_cores=0), "n_cores"),
    (lambda: MachineConfig(
        llc=CacheConfig(size_bytes=2 * MB, assoc=16, line_bytes=128),
    ), "llc.line_bytes"),
    (lambda: MachineConfig(n_cores=2, llc_quotas=(8,)), "llc_quotas"),
    (lambda: MachineConfig(n_cores=2, llc_quotas=(16, 16)), "llc_quotas"),
    (lambda: WorkloadConfig(thread_counts=()), "thread_counts"),
    (lambda: WorkloadConfig(thread_counts=(0,)), "thread_counts"),
    (lambda: WorkloadConfig(scale=0.0), "scale"),
    (lambda: WorkloadConfig(scale=float("nan")), "scale"),
    (lambda: WorkloadConfig(scale=float("inf")), "scale"),
    (lambda: RunConfig(max_retries=-1), "max_retries"),
    (lambda: RunConfig(backoff_s=-1), "backoff_s"),
    (lambda: RunConfig(backoff_factor=0.5), "backoff_factor"),
    (lambda: RunConfig(backoff_max_s=-1), "backoff_max_s"),
    (lambda: RunConfig(jobs=0), "jobs"),
    (lambda: RunConfig(checkpoint_every=0), "checkpoint_every"),
    (lambda: RunConfig(max_cycles=0), "max_cycles"),
    (lambda: RunConfig(livelock_window=0), "livelock_window"),
    # a RunConfig derived with dataclasses.replace, the way `repro
    # sweep` applies its flags to a config file's run section, is
    # checked again
    pytest.param(lambda: replace(RunConfig(), max_retries=-1),
                 "max_retries", id="RunPolicy-max_retries"),
    pytest.param(lambda: replace(RunConfig(), max_cycles=-1),
                 "max_cycles", id="RunPolicy-max_cycles"),
    (lambda: sweep_cells(("fft",), (2, 0)), "thread_counts"),
])
def test_range_checks_raise_config_error_naming_the_field(build, field):
    with pytest.raises(ConfigError) as exc:
        build()
    assert exc.value.field == field
    assert str(exc.value).startswith(f"{field}: ")


def test_nested_range_check_names_the_full_path():
    doc = {"machine": {"llc": {"size_bytes": 3 * MB, "assoc": 16}}}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(doc)
    assert exc.value.field == "machine.llc.size_bytes"


@pytest.mark.parametrize("table,key,value", [
    ("core", "dispatch_width", 0),
    ("accounting", "spin_table_entries", 0),
    ("accounting", "spin_value_threshold", 1),
])
def test_values_a_run_cannot_use_are_refused_when_built(table, key, value):
    """Each of these used to pass validation and then crash the run
    (a division by the dispatch width, the Tian detector's own
    checks)."""
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"machine": {table: {key: value}}})
    assert exc.value.field == f"machine.{table}.{key}"


class TestPartialTables:
    def test_a_partial_cache_table_keeps_that_caches_default(self):
        """Each cache table fills its missing keys from its own default
        on the machine: the L1D's 64 KB and 4 ways, the LLC's 16 ways
        and 30-cycle latency."""
        default = MachineConfig()
        config = ExperimentConfig.from_dict({"machine": {
            "l1d": {"hit_latency": 3},
            "llc": {"size_bytes": 4 * MB},
        }})
        assert config.machine.l1d == replace(default.l1d, hit_latency=3)
        assert config.machine.llc == replace(default.llc, size_bytes=4 * MB)
        assert config.machine.l1i == default.l1i

    def test_full_tables_and_the_default_hash_are_unchanged(self):
        from repro.checkpoint import config_hash

        default = ExperimentConfig()
        assert ExperimentConfig.from_dict(default.to_dict()) == default
        llc = {"size_bytes": 4 * MB, "assoc": 8, "line_bytes": 64,
               "hit_latency": 2, "hidden_latency": 2, "replacement": "fifo"}
        assert machine_from_dict({"llc": llc}).llc == CacheConfig(**llc)
        # the digest of the default config's plain form, as before
        # partial tables took their field's default
        assert config_hash(default.to_dict()) == "bb43411dce3cd016"


# ----------------------------------------------------------------------
# configs drawn from the field declarations
# ----------------------------------------------------------------------

def _annotation(f) -> tuple[str, bool, bool]:
    """(entry type, is a tuple, may be None) of a field's annotation."""
    kind = f.type.removesuffix(" | None")
    entry = kind.removeprefix("tuple[").removesuffix(", ...]")
    return entry, entry != kind, kind != f.type


def _entries(kind: str, bounds):
    """Values of one scalar ``kind`` inside its declared ``bounds``;
    a string ``choices`` names a component-registry kind."""
    choices = bounds.get("choices")
    if choices is not None:
        return st.sampled_from(
            available(choices) if isinstance(choices, str) else choices
        )
    if bounds.get("pow2"):
        return st.integers(0, 12).map(lambda k: 2 ** k)
    if kind == "bool":
        return st.booleans()
    if kind == "str":
        return st.text(max_size=12)
    low = bounds.get("min", bounds.get("above", 0))
    if kind == "int":
        return st.integers(low, low + 256)
    return st.floats(low, low + 100, exclude_min="above" in bounds)


def _values(f):
    """Values of field ``f``, each inside its declaration."""
    entry, is_tuple, optional = _annotation(f)
    section = SECTIONS.get(entry)
    values = sections(section) if section else _entries(entry, f.metadata)
    if is_tuple:
        values = st.lists(
            values, min_size=1 if f.metadata.get("nonempty") else 0,
            max_size=4,
        ).map(tuple)
    return st.none() | values if optional else values


def sections(cls, **drawn):
    """Config sections of type ``cls``, every field drawn from its
    declaration unless ``drawn`` gives its strategy."""
    return st.builds(cls, **{
        f.name: drawn[f.name] if f.name in drawn else _values(f)
        for f in fields(cls)
    })


def _field(cls, name: str):
    return next(f for f in fields(cls) if f.name == name)


@st.composite
def caches(draw, line_bytes: int):
    """Caches of one line size, sized assoc x line x 2^k so that the
    set count is a power of two."""
    assoc = draw(_values(_field(CacheConfig, "assoc")))
    n_sets = 2 ** draw(st.integers(0, 10))
    return draw(sections(
        CacheConfig,
        size_bytes=st.just(assoc * line_bytes * n_sets),
        assoc=st.just(assoc),
        line_bytes=st.just(line_bytes),
    ))


@st.composite
def machines(draw):
    """Machines drawn from the declarations: L1D and LLC share one line
    size, and the LLC way quotas, when drawn, sum to at most its
    associativity, so every draw builds."""
    lines = _values(_field(CacheConfig, "line_bytes"))
    line_bytes = draw(lines)
    n_cores = draw(_values(_field(MachineConfig, "n_cores")))
    llc = draw(caches(line_bytes))
    quotas = st.none()
    if n_cores <= llc.assoc:
        quotas |= st.lists(
            st.integers(1, llc.assoc // n_cores),
            min_size=n_cores, max_size=n_cores,
        ).map(tuple)
    return draw(sections(
        MachineConfig,
        n_cores=st.just(n_cores),
        l1i=lines.flatmap(caches),
        l1d=caches(line_bytes),
        llc=st.just(llc),
        llc_quotas=quotas,
    ))


#: every config section, by the name its annotations use
SECTIONS = {
    cls.__name__: cls for cls in (
        CacheConfig, DramConfig, CoreConfig, SyncConfig, SchedConfig,
        AccountingConfig, MachineConfig, WorkloadConfig, RunConfig,
    )
}

experiment_configs = sections(ExperimentConfig, machine=machines())


# ----------------------------------------------------------------------
# every declared field refuses a wrong type and an out-of-range value
# ----------------------------------------------------------------------

#: a value of the wrong type for each annotation (5 for a section)
_WRONG_TYPE = {"int": 1.5, "float": "1", "bool": "no", "str": 5}


def _declared(cls=None, path=()):
    """(path, field) of every field of every config section."""
    for f in fields(cls or ExperimentConfig):
        yield (*path, f.name), f
        if f.type in SECTIONS:
            yield from _declared(SECTIONS[f.type], (*path, f.name))


def _refused(f) -> list:
    """A value of the wrong type, then each value the declaration
    refuses: the smallest value minus one, the value to exceed, a
    non-power-of-two, an unknown choice, an empty list."""
    entry, is_tuple, _ = _annotation(f)
    bounds = f.metadata
    values = [_WRONG_TYPE.get(entry, 5)]
    if "min" in bounds:
        values.append(bounds["min"] - 1)
    if "above" in bounds:
        values.append(bounds["above"])
    if bounds.get("pow2"):
        values.append(3)
    if "choices" in bounds:
        values.append("bogus")
    if is_tuple:
        values = [[value] for value in values]
    return values + [[]] if bounds.get("nonempty") else values


FIELD_CASES = [
    (".".join(path), value) for path, f in _declared() for value in _refused(f)
]


@pytest.mark.parametrize(
    "path,value", FIELD_CASES,
    ids=[f"{path}={value!r}" for path, value in FIELD_CASES],
)
def test_every_field_refuses_a_wrong_type_and_a_value_out_of_bounds(
    path, value, tmp_path, capsys
):
    """From a dict, and from a config file under ``config validate``,
    ``stack`` and ``sweep``: a ConfigError with the full path as its
    field, and one ``error: <section>: <field>: ...`` line with exit 2.
    Config errors are raised before anything is simulated, so the
    commands run in-process."""
    from repro.cli import process_main

    *section, name = path.split(".")
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(doc)
    assert exc.value.field == path
    where = ".".join(section) or "ExperimentConfig"
    assert str(exc.value).startswith(f"{where}: {name}: ")
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    cell = ["cholesky", "-n", "2", "--scale", "0.05", "--config", str(config)]
    for argv in (
        ["config", "validate", str(config)],
        ["stack", *cell],
        ["sweep", "--benchmarks", *cell],
    ):
        assert process_main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {exc.value}\n"), argv


# ----------------------------------------------------------------------
# ExperimentConfig serialization
# ----------------------------------------------------------------------


class TestExperimentConfig:
    def test_default_machine_is_paper_default(self):
        assert ExperimentConfig().machine == MachineConfig()

    @settings(max_examples=40, deadline=None)
    @given(experiment_configs)
    def test_dict_round_trip(self, config):
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=20, deadline=None)
    @given(experiment_configs)
    def test_toml_round_trip(self, config):
        doc = config.to_dict()
        if None in doc["run"].values():
            # an uncapped backoff is a null, which TOML cannot write
            with pytest.raises(ConfigError, match="NoneType"):
                dumps_toml(doc)
            return
        parsed = tomllib.loads(dumps_toml(doc))
        assert ExperimentConfig.from_dict(parsed) == config

    @settings(max_examples=20, deadline=None)
    @given(experiment_configs)
    def test_json_round_trip(self, config):
        parsed = json.loads(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_dict(parsed) == config

    def test_machine_dict_round_trip(self):
        machine = MachineConfig(n_cores=4).with_llc_quotas((4, 4, 4, 4))
        assert machine_from_dict(machine_to_dict(machine)) == machine

    def test_unknown_section_rejected_with_path(self):
        with pytest.raises(ConfigError, match="hardware"):
            ExperimentConfig.from_dict({"hardware": {}})

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigError, match="machine.llc"):
            ExperimentConfig.from_dict(
                {"machine": {"llc": {"sets": 128}}}
            )

    def test_bad_component_name_reports_path_and_choices(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(
                {"machine": {"llc": {
                    "size_bytes": 2 * MB, "assoc": 16,
                    "replacement": "plru",
                }}}
            )
        message = str(exc.value)
        assert "machine.llc" in message
        assert exc.value.choices == ("fifo", "lru", "random")

    def test_load_toml(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text(
            "[machine]\nn_cores = 4\n\n"
            "[machine.llc]\nsize_bytes = 4194304\nassoc = 16\n"
            "hit_latency = 30\nhidden_latency = 30\n\n"
            "[workload]\nbenchmarks = [\"fft\"]\nthread_counts = [2, 4]\n"
            "scale = 0.25\n\n"
            "[run]\non_error = \"retry\"\njobs = 2\n",
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.machine.n_cores == 4
        assert config.machine.llc.size_bytes == 4 * MB
        assert config.workload.benchmarks == ("fft",)
        assert config.workload.thread_counts == (2, 4)
        assert config.run.on_error == "retry"
        assert config.run.jobs == 2

    def test_load_json(self, tmp_path):
        path = tmp_path / "exp.json"
        config = ExperimentConfig(
            workload=WorkloadConfig(thread_counts=(2,), scale=0.5)
        )
        dump_config(config, path)
        assert load_config(path) == config

    def test_dump_load_toml(self, tmp_path):
        path = tmp_path / "exp.toml"
        config = ExperimentConfig(
            machine=MachineConfig(n_cores=8),
            run=RunConfig(on_error="abort", max_cycles=10**6),
        )
        dump_config(config, path)
        assert load_config(path) == config

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.toml")

    def test_load_malformed_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[machine\nn_cores = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
