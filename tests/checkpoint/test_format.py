"""On-disk checkpoint format: layout, hashing, and load refusals."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import (
    SCHEMA_VERSION,
    config_hash,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.errors import CheckpointError

DESC = {"benchmark": "tiny", "n_threads": 2, "scale": 0.5, "machine": {}}
STATE = {"threads": [{"tid": 0}], "cores": [{"now": 7}]}


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        header = save_checkpoint(
            path, STATE, DESC, cycle=42, reason="interval"
        )
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["cycle"] == 42
        assert header["reason"] == "interval"
        assert header["config_hash"] == config_hash(DESC)
        loaded_header, state = load_checkpoint(
            path, expected_descriptor=DESC
        )
        assert loaded_header == header
        assert state == STATE

    def test_two_line_layout(self, tmp_path):
        """Header must be parseable without touching the payload line."""
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["descriptor"] == DESC
        assert json.loads(lines[1]) == STATE

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        assert read_header(path)["cycle"] == 1

    def test_overwrite_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        save_checkpoint(path, STATE, DESC, cycle=2, reason="max_cycles")
        assert read_header(path)["cycle"] == 2
        assert list(tmp_path.iterdir()) == [path]

    def test_version_stamped(self, tmp_path):
        from repro._version import repro_version

        path = tmp_path / "a.ckpt"
        header = save_checkpoint(path, STATE, DESC, cycle=1, reason="fault")
        assert header["repro_version"] == repro_version()


class TestConfigHash:
    def test_key_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_nested_descriptors(self):
        one = {"machine": {"cores": 4, "llc": 2}, "fault": None}
        two = {"fault": None, "machine": {"llc": 2, "cores": 4}}
        assert config_hash(one) == config_hash(two)


class TestRefusals:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_header(tmp_path / "nope.ckpt")

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_text("this is not a checkpoint\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            read_header(path)

    def test_json_but_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"version": 1, "cells": {}}\n')
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_header(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "future.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        header, payload = path.read_text().splitlines()
        doc = json.loads(header)
        doc["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc) + "\n" + payload + "\n")
        with pytest.raises(CheckpointError, match="schema version"):
            read_header(path)

    @pytest.mark.parametrize("field", [
        "config_hash", "cycle", "reason", "repro_version", "descriptor",
        "descriptor.benchmark", "descriptor.n_threads", "descriptor.scale",
        "descriptor.machine",
    ])
    @pytest.mark.parametrize("fault", ["missing", "mistyped"])
    def test_malformed_header_field(self, tmp_path, field, fault):
        """Every header field a reader indexes is checked up front: a
        missing or mistyped one is a CheckpointError naming it, never a
        KeyError from deep inside ``repro inspect`` or a resume."""
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        header, payload = path.read_text().splitlines()
        doc = json.loads(header)
        *parents, key = field.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        if fault == "missing":
            del target[key]
        else:
            # a list is no valid type for any field; True is the bool
            # that would pass a bare isinstance(value, int) check
            target[key] = True if key in ("cycle", "n_threads") else []
        path.write_text(json.dumps(doc) + "\n" + payload + "\n")
        with pytest.raises(CheckpointError, match=repr(field)):
            read_header(path)
        with pytest.raises(CheckpointError, match=repr(field)):
            load_checkpoint(path)

    def test_config_hash_mismatch(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        other = dict(DESC, n_threads=4)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            load_checkpoint(path, expected_descriptor=other)
        # the error names both hashes so the operator can diff configs
        with pytest.raises(CheckpointError, match=config_hash(other)):
            load_checkpoint(path, expected_descriptor=other)

    def test_missing_payload(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")
        with pytest.raises(CheckpointError, match="no state payload"):
            load_checkpoint(path)

    def test_corrupt_payload(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n{broken\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint payload"):
            load_checkpoint(path)

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, STATE, DESC, cycle=1, reason="interval")
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n[1, 2, 3]\n")
        with pytest.raises(CheckpointError, match="not a state tree"):
            load_checkpoint(path)
