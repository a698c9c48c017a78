"""Machine configuration: validation, derivation, serialization."""

from __future__ import annotations

import json
import tomllib
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# ExperimentConfig serialization
# ----------------------------------------------------------------------

experiment_configs = st.builds(
    ExperimentConfig,
    machine=st.builds(
        MachineConfig,
        n_cores=st.sampled_from([1, 2, 4, 8, 16]),
        llc=st.builds(
            CacheConfig,
            size_bytes=st.sampled_from([1 * MB, 2 * MB, 4 * MB]),
            assoc=st.sampled_from([8, 16]),
            hit_latency=st.integers(min_value=10, max_value=40),
            replacement=st.sampled_from(["lru", "fifo", "random"]),
        ),
        accounting=st.builds(
            AccountingConfig,
            spin_detector=st.sampled_from(["tian", "li"]),
            atd_sample_period=st.sampled_from([1, 32, 64]),
        ),
    ),
    workload=st.builds(
        WorkloadConfig,
        benchmarks=st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(["fft", "lu", "cholesky"]),
                min_size=1, max_size=3, unique=True,
            ).map(tuple),
        ),
        thread_counts=st.lists(
            st.sampled_from([1, 2, 4, 8, 16]),
            min_size=1, max_size=4, unique=True,
        ).map(tuple),
        scale=st.sampled_from([0.05, 0.25, 1.0]),
    ),
    run=st.builds(
        RunConfig,
        on_error=st.sampled_from(["abort", "skip", "retry"]),
        max_retries=st.integers(min_value=0, max_value=4),
        jobs=st.integers(min_value=1, max_value=8),
        max_cycles=st.one_of(st.none(), st.sampled_from([10**6, 10**8])),
    ),
)


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
        parsed = tomllib.loads(dumps_toml(config.to_dict()))
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
