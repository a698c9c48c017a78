"""The command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError

SCALE = ["--scale", "0.05"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("list", "stack", "curve", "tree", "regions",
                        "timeline", "cpi", "cost", "run-trace", "trace",
                        "sweep"):
            assert command in text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cholesky" in out
        assert "ferret_small" in out
        assert out.count("\n") == 29  # header + 28 benchmarks

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "952 B/core" in out
        assert "217 B/core" in out

    def test_stack(self, capsys):
        assert main(["stack", "dedup_small", "-n", "4"] + SCALE) == 0
        out = capsys.readouterr().out
        assert "speedup stack: dedup_small" in out
        assert "largest bottleneck" in out or "no significant" in out

    def test_stack_with_llc_override(self, capsys):
        assert main(
            ["stack", "blackscholes_small", "-n", "2", "--llc-mb", "4"]
            + SCALE
        ) == 0
        assert "speedup stack" in capsys.readouterr().out

    def test_timeline(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(
            ["timeline", "lud", "-n", "4", "--width", "30",
             "--out", str(out_file)] + SCALE
        ) == 0
        out = capsys.readouterr().out
        assert "core  0" in out
        assert "utilization" in out
        data = json.loads(out_file.read_text())
        assert data["traceEvents"]

    def test_regions(self, capsys):
        assert main(["regions", "lud", "-n", "4"] + SCALE) == 0
        out = capsys.readouterr().out
        assert "region stacks: lud" in out
        assert "imbalance" in out

    def test_regions_without_barriers(self, capsys):
        # blackscholes has only the final barrier; use a no-barrier spec
        # via run-trace instead: regions on blackscholes still has the
        # final convergence barrier, so pick the error path with a
        # custom trace-based check below; here just assert it runs.
        assert main(["regions", "blackscholes_small", "-n", "2"] + SCALE) == 0

    def test_cpi(self, capsys):
        assert main(["cpi", "dedup_small", "-n", "4"] + SCALE) == 0
        assert "eff.CPI" in capsys.readouterr().out

    def test_curve(self, capsys):
        assert main(["curve", "blackscholes_small"] + SCALE) == 0
        out = capsys.readouterr().out
        assert "16 threads" in out

    def test_run_trace(self, capsys, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("T0 C 100\nT1 C 100\nT0 BAR 0\nT1 BAR 0\n")
        assert main(["run-trace", str(path), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "2 threads on 2 cores" in out
        assert "core  0" in out

    def test_unknown_benchmark_raises(self):
        with pytest.raises(ConfigError):
            main(["stack", "nope", "-n", "2"] + SCALE)

    def test_run_trace_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("T0 C 100\nT0 FROB 1\n")
        assert main(["run-trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err

    def test_run_trace_max_cycles_truncates(self, capsys, tmp_path):
        path = tmp_path / "long.trace"
        path.write_text("".join("T0 C 1000\n" for __ in range(100)))
        assert main(["run-trace", str(path), "--max-cycles", "5000"]) == 0
        assert "TRUNCATED at max-cycles" in capsys.readouterr().out


class TestSweep:
    def test_injected_fault_then_resume(self, capsys, tmp_path):
        """End-to-end acceptance flow: a sweep with a deadlock injected
        into one cell finishes the others, reports the failure (exit 1),
        and a --resume re-runs only the failed cell."""
        journal = tmp_path / "sweep.json"
        base = ["sweep", "--benchmarks", "cholesky,blackscholes_small",
                "-n", "2", "--scale", "0.05", "--journal", str(journal)]
        assert main(base + ["--inject", "deadlock@cholesky:2"]) == 1
        out = capsys.readouterr().out
        assert "FAILED  cholesky:2" in out
        assert "ok      blackscholes_small:2" in out
        assert "1 failed" in out
        assert "DeadlockError" in out
        assert journal.exists()

        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "ok      cholesky:2" in out
        assert "resumed blackscholes_small:2" in out

    def test_bad_inject_spec_rejected(self):
        with pytest.raises(ConfigError):
            main(["sweep", "--benchmarks", "cholesky",
                  "--inject", "deadlock-cholesky-2"])

    def test_unknown_benchmark_listed_up_front(self):
        with pytest.raises(ConfigError):
            main(["sweep", "--benchmarks", "choleski", "-n", "2"])


def _python_m_repro(argv, cwd=None) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a child process, output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def test_jobs_sweep_workers_take_the_lease_flags(tmp_path):
    """``--jobs N`` runs a private queue whose workers attach with the
    ``--lease-ttl`` and ``--poison-after`` given, not the defaults."""
    proc = _python_m_repro([
        "-v", "sweep", "--benchmarks", "fft", "-n", "2", *SCALE,
        "--jobs", "2", "--lease-ttl", "7", "--poison-after", "5",
    ], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "TTL 7.0s, poison after 5" in proc.stderr
    assert "TTL 30.0s" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sweep", "--benchmarks", "nosuch"],
    ["stack", "nosuch"],
    ["sweep", "--benchmarks", "cholesky", "--inject", "garbage"],
])
def test_config_error_exits_2_with_one_line(argv):
    """``python -m repro`` turns a ConfigError into one ``error:`` line
    and exit code 2, never a traceback."""
    proc = _python_m_repro(argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    *(
        [command, "fft", "-n", "0"]
        for command in ("stack", "trace", "timeline", "cpi", "regions",
                        "sync", "session")
    ),
    ["sweep", "--benchmarks", "fft", "-n", "0"],
    ["bench", "--benchmarks", "fft", "-n", "0"],
    ["stack", "fft", "-n", "2", "--llc-mb", "3"],
    ["stack", "fft", "--llc-mb", "0"],
    ["stack", "fft", "--scale", "0"],
    ["stack", "fft", "--scale", "-1"],
    ["stack", "fft", "--scale", "nan"],
    ["stack", "fft", "--scale", "inf"],
    ["sweep", "--benchmarks", "fft", "--scale", "0"],
    ["sweep", "--benchmarks", "fft", "-n", "abc"],
    ["sweep", "--benchmarks", "fft", "-n", "2", "--jobs", "0"],
    *(
        ["sweep", "--benchmarks", "fft", "-n", "2", "--jobs", "2",
         flag, value]
        for flag, value in (("--lease-ttl", "nan"), ("--lease-ttl", "inf"),
                            ("--lease-ttl", "0"), ("--poison-after", "0"))
    ),
    ["worker", "q", "--poll", "nan"],
    ["run-trace", "missing.trace"],
    *(
        ["bench", "--benchmarks", "fft", "-n", "2", *SCALE, *flags]
        for flags in (["--repeats", "0"], ["--jobs-list", "x"],
                      ["--jobs-list", "0"], ["--max-cycles", "-1"])
    ),
    *(
        ["sweep", "--benchmarks", "fft", "-n", "2", *SCALE, flag, value]
        for flag, value in (("--retries", "-1"), ("--backoff", "-1"),
                            ("--backoff-max", "-1"),
                            ("--checkpoint-every", "0"),
                            ("--max-cycles", "-1"),
                            ("--livelock-window", "0"))
    ),
    ["stack", "fft", "-n", "2", *SCALE, "--checkpoint", "x.ckpt",
     "--checkpoint-every", "0"],
    ["trace", "fft", "-n", "2", *SCALE, "--max-cycles", "-1"],
    ["session", "fft", "-n", "2", *SCALE, "--max-cycles", "-1",
     "--run", "run; stack"],
    ["session", "fft", "-n", "2", *SCALE, "--livelock-window", "0",
     "--run", "run; stack"],
    ["config", "validate", "negative_max_cycles.toml"],
    ["stack", "fft", "-n", "2", *SCALE,
     "--config", "negative_max_cycles.toml"],
    ["timeline", "fft", "-n", "2", *SCALE, "--width", "0"],
], ids=" ".join)
def test_bad_numbers_exit_2_without_traceback(argv, tmp_path):
    """A bad count, size or path is one error message and exit 2:
    no traceback, and no simulation run on a value the config layer
    would reject."""
    (tmp_path / "negative_max_cycles.toml").write_text(
        "[run]\nmax_cycles = -1\n"
    )
    proc = _python_m_repro(argv, cwd=tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("setting", [
    "core]\ndispatch_width = 0",
    "accounting]\nspin_table_entries = 0",
    "accounting]\nspin_value_threshold = 1",
], ids=["dispatch_width", "spin_table_entries", "spin_value_threshold"])
@pytest.mark.parametrize("command", [
    ["config", "validate", "bad.toml"],
    ["stack", "cholesky", "-n", "2", *SCALE, "--config", "bad.toml"],
    ["sweep", "--benchmarks", "cholesky", "-n", "2", *SCALE,
     "--config", "bad.toml"],
], ids=["validate", "stack", "sweep"])
def test_config_values_a_run_cannot_use_exit_2(setting, command, tmp_path):
    """A value the simulator cannot run with fails where the config is
    built: one ``error:`` line naming the table and the field, exit 2,
    no traceback."""
    (tmp_path / "bad.toml").write_text(f"[machine.{setting}\n")
    proc = _python_m_repro(command, cwd=tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    table, key = setting.split("\n")[0].rstrip("]"), setting.split()[1]
    assert proc.stderr.startswith(f"error: machine.{table}: {key}: ")
    assert proc.stderr.count("\n") == 1


def test_abort_ends_the_same_way_on_every_path(tmp_path):
    """``--on-error abort`` on a deterministic failure: the serial
    sweep, ``--jobs 2`` and ``--queue-dir`` each journal the cells
    before the failing one, print one ``error:`` line and exit 1 — no
    traceback, and no worker turns the failure into a poison cell."""
    argv = [
        "sweep", "--benchmarks", "blackscholes_small,cholesky", "-n", "2",
        *SCALE, "--on-error", "abort", "--inject", "deadlock@cholesky:2",
        "--lease-ttl", "1", "--poison-after", "2",
    ]
    journals = {}
    for name, flags in (
        ("serial", []),
        ("jobs", ["--jobs", "2"]),
        ("queue-dir", ["--jobs", "2", "--queue-dir", "q"]),
    ):
        proc = _python_m_repro(
            [*argv, "--journal", f"{name}.json", *flags], cwd=tmp_path
        )
        assert proc.returncode == 1, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name
        assert "PoisonCellError" not in proc.stderr, name
        errors = [
            line for line in proc.stderr.splitlines()
            if line.startswith("error: ")
        ]
        assert errors == [
            "error: experiment cholesky:2 failed: no runnable core; "
            "blocked threads: [0, 1]"
        ], name
        journals[name] = (tmp_path / f"{name}.json").read_bytes()
    cells = json.loads(journals["serial"])["cells"]
    assert list(cells) == ["blackscholes_small:2"]
    assert journals["jobs"] == journals["queue-dir"] == journals["serial"]


class TestTrace:
    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        from repro.observability import validate_trace_events

        out_path = tmp_path / "trace.json"
        assert main(["trace", "cholesky", "-n", "2", "--scale", "0.1",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "cholesky:2" in out and str(out_path) in out
        doc = json.loads(out_path.read_text())
        assert validate_trace_events(doc) == []
        assert doc["otherData"]["benchmark"] == "cholesky"

    def test_trace_max_cycles_reports_truncation(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "cholesky", "-n", "2", "--scale", "0.1",
                     "--max-cycles", "2000",
                     "--out", str(out_path)]) == 0
        assert "TRUNCATED" in capsys.readouterr().out


class TestSweepTelemetry:
    BASE = ["sweep", "--benchmarks", "blackscholes_small", "-n", "2"] + SCALE

    def test_emit_metrics_writes_registry(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(self.BASE + ["--emit-metrics", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["counters"]["sim.cells"] == 1
        assert doc["counters"]["runtime.cells_ok"] == 1
        assert f"metrics written to {path}" in capsys.readouterr().out

    def test_retries_counted_serial_and_parallel(self, capsys, tmp_path):
        """``runtime.retries`` comes from each finished cell's attempts,
        so a ``--jobs 2`` sweep, whose workers keep no registry, counts
        the retries of an always-failing cell as the serial one does;
        its driver derives the ``CellRetry`` events the heartbeat counts
        from the same attempts."""
        retried = ["sweep", "--benchmarks", "cholesky", "-n", "2",
                   "--on-error", "retry", "--retries", "2",
                   "--inject", "deadlock@cholesky:2"] + SCALE
        counters, heartbeats = [], []
        for jobs in ("1", "2"):
            path = tmp_path / f"metrics-{jobs}.json"
            heartbeat = tmp_path / f"heartbeat-{jobs}.json"
            assert main(retried + ["--jobs", jobs,
                                   "--emit-metrics", str(path),
                                   "--heartbeat", str(heartbeat)]) == 1
            counters.append(json.loads(path.read_text())["counters"])
            heartbeats.append(json.loads(heartbeat.read_text()))
        capsys.readouterr()
        assert [c.get("runtime.retries") for c in counters] == [2, 2]
        assert [h["retries"] for h in heartbeats] == [2, 2]

    def test_progress_renders_to_stderr(self, capsys):
        assert main(self.BASE + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "sweep 1/1 ok=1" in err
        assert "finished" in err

    def test_heartbeat_without_progress_keeps_stderr_quiet(
        self, capsys, tmp_path
    ):
        path = tmp_path / "heartbeat.json"
        assert main(self.BASE + ["--heartbeat", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["done"] == doc["total"] == 1
        assert "sweep 1/1" not in capsys.readouterr().err


class TestLogging:
    def test_repeated_invocations_do_not_stack_handlers(self):
        import logging

        root = logging.getLogger()
        main(["-v", "list"])
        first = len(root.handlers)
        main(["-v", "list"])
        main(["list"])
        assert len(root.handlers) == first

    def test_log_json_emits_one_object_per_record(self, capsys):
        assert main(["--log-json", "-v", "sweep", "--benchmarks",
                     "blackscholes_small", "-n", "2"] + SCALE) == 0
        err_lines = [
            line for line in capsys.readouterr().err.splitlines() if line
        ]
        assert err_lines
        for line in err_lines:
            record = json.loads(line)
            assert {"ts", "level", "logger", "message"} <= set(record)

    def test_verbosity_level_updates_on_reinvocation(self, capsys):
        import logging

        main(["-v", "list"])
        assert logging.getLogger().level == logging.INFO
        main(["list"])
        assert logging.getLogger().level == logging.WARNING

    def test_main_removes_its_handler_on_return(self, capsys):
        """The handler writes to the stderr of its invocation; left
        installed, a later warning in the process would write to a
        stream the caller has closed."""
        import logging

        root = logging.getLogger()
        before = list(root.handlers)
        assert main(["list"]) == 0
        assert root.handlers == before
        with pytest.raises(ConfigError):
            main(["stack", "nosuch"])
        assert root.handlers == before


class TestConfigCommands:
    @staticmethod
    def write_config(tmp_path, **overrides):
        """A tiny, fast experiment config as a TOML file."""
        lines = [
            "[machine]",
            "n_cores = 4",
            "",
            "[workload]",
            'benchmarks = ["blackscholes_small"]',
            "thread_counts = [2]",
            "scale = 0.05",
            "",
            "[run]",
            'on_error = "abort"',
        ]
        for key, value in overrides.items():
            lines.append(f"{key} = {value}")
        path = tmp_path / "exp.toml"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_show_defaults_as_toml(self, capsys):
        import tomllib

        assert main(["config", "show"]) == 0
        doc = tomllib.loads(capsys.readouterr().out)
        assert doc["machine"]["n_cores"] == 16
        assert doc["machine"]["llc"]["replacement"] == "lru"
        assert doc["run"]["on_error"] == "skip"

    def test_show_json(self, capsys):
        assert main(["config", "show", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["machine"]["accounting"]["spin_detector"] == "tian"

    def test_show_resolves_file(self, capsys, tmp_path):
        import tomllib

        path = self.write_config(tmp_path)
        assert main(["config", "show", str(path)]) == 0
        doc = tomllib.loads(capsys.readouterr().out)
        assert doc["machine"]["n_cores"] == 4
        # Defaults are merged in, not just the file echoed back.
        assert doc["machine"]["llc"]["size_bytes"] == 2 * 1024 * 1024

    def test_validate_good_config(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["config", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{path}: OK" in out
        assert "machine: 4 cores" in out
        assert "registered replacement: fifo, lru, random" in out
        assert "registered spin_detector: li, tian" in out

    def test_validate_partial_cache_table(self, capsys, tmp_path):
        path = tmp_path / "l1d.toml"
        path.write_text("[machine.l1d]\nhit_latency = 3\n", encoding="utf-8")
        assert main(["config", "validate", str(path)]) == 0
        assert f"{path}: OK" in capsys.readouterr().out

    def test_validate_bad_component_lists_choices(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            "[machine.llc]\nsize_bytes = 2097152\nassoc = 16\n"
            'replacement = "plru"\n',
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as exc:
            main(["config", "validate", str(path)])
        assert exc.value.choices == ("fifo", "lru", "random")

    def test_validate_unknown_benchmark(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            '[workload]\nbenchmarks = ["choleski"]\n', encoding="utf-8"
        )
        with pytest.raises(ConfigError):
            main(["config", "validate", str(path)])

    def test_stack_with_config(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["stack", "blackscholes_small",
                     "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "speedup stack: blackscholes_small" in out

    def test_sweep_with_config(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok      blackscholes_small:2" in out

    def test_flags_override_config(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["sweep", "--config", str(path),
                     "--benchmarks", "cholesky", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "cholesky:2" in out
        assert "blackscholes_small" not in out
