"""Session↔checkpoint ergonomics: field-naming mismatches, clean resume."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigError
from repro.session import Session


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


@pytest.fixture()
def saved(tmp_path):
    session = Session.from_config("cholesky", 4, scale=0.05).step(2_000)
    path = tmp_path / "mid.ckpt"
    session.save(path)
    return session, path


def test_resume_is_byte_identical(saved):
    session, path = saved
    resumed = Session.from_checkpoint(path)
    session.run()
    resumed.run()
    assert canon(resumed.snapshot()) == canon(session.snapshot())
    assert resumed.stack() == session.stack()


def test_mismatch_raises_config_error_naming_fields(saved):
    _, path = saved
    base = ExperimentConfig()
    experiment = dataclasses.replace(
        base,
        machine=dataclasses.replace(
            base.machine,
            llc=dataclasses.replace(
                base.machine.llc,
                size_bytes=base.machine.llc.size_bytes * 2,
            ),
        ),
        workload=dataclasses.replace(base.workload, scale=0.05),
    )
    with pytest.raises(ConfigError) as exc:
        Session.from_checkpoint(path, experiment=experiment)
    err = exc.value
    # names the mismatched leaf, not just the opaque hash
    assert "machine.llc.size_bytes" in str(err)
    assert err.field == "machine.llc.size_bytes"
    assert "checkpoint" in str(err) and "config" in str(err)


def test_scale_mismatch_named(saved):
    _, path = saved
    base = ExperimentConfig()
    experiment = dataclasses.replace(
        base, workload=dataclasses.replace(base.workload, scale=0.25),
    )
    with pytest.raises(ConfigError, match="scale"):
        Session.from_checkpoint(path, experiment=experiment)


def test_matching_experiment_resumes(saved):
    session, path = saved
    base = ExperimentConfig()
    experiment = dataclasses.replace(
        base, workload=dataclasses.replace(base.workload, scale=0.05),
    )
    resumed = Session.from_checkpoint(path, experiment=experiment)
    session.run()
    resumed.run()
    assert canon(resumed.snapshot()) == canon(session.snapshot())


def test_experiment_limits_override_saved(tmp_path):
    """A config with explicit watchdog limits continues a checkpointed
    run under the *new* budget (the raised-budget workflow)."""
    session = Session.from_config(
        "cholesky", 4, scale=0.05, max_cycles=3_000,
    ).step(1_000)
    path = tmp_path / "budget.ckpt"
    session.save(path)

    base = ExperimentConfig()
    experiment = dataclasses.replace(
        base,
        workload=dataclasses.replace(base.workload, scale=0.05),
        run=dataclasses.replace(base.run, max_cycles=3_000),
    )
    raised = dataclasses.replace(
        experiment,
        run=dataclasses.replace(experiment.run, max_cycles=50_000_000),
    )
    # limits are run parameters, not identity: no mismatch, new budget
    resumed = Session.from_checkpoint(path, experiment=raised)
    assert resumed.kernel.max_cycles == 50_000_000
    resumed_default = Session.from_checkpoint(path, experiment=experiment)
    assert resumed_default.kernel.max_cycles == 3_000
