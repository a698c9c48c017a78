"""The metric registry is the single source of truth for counter names.

Every metric the harness emits must be declared in
``METRIC_REGISTRY`` (name, kind, label set), every declared metric
must actually be emitted somewhere in ``src/``, and the canonical
table in ``docs/observability.md`` must list them all.  This is the
guard against the classic observability rot: counters renamed in code
but not in dashboards, or documented metrics that no longer exist.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.experiments.runner import BatchRunner
from repro.observability.metrics import (
    METRIC_REGISTRY,
    MetricsRegistry,
    harvest_cell_metrics,
)
from repro.workloads.suite import by_name

SRC = Path(__file__).resolve().parents[2] / "src"
DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

# every way a metric name reaches the registry or a flat payload:
#   metrics.counter("runtime.x") / .gauge( / .histogram(
#   metric_key("sim.x", core=...)
#   flat["sim.x"] = ...
_EMISSION = re.compile(
    r"""(?:\.(?:counter|gauge|histogram)\(\s*|metric_key\(\s*|flat\[)
        "((?:runtime|sim)\.[a-z0-9_]+)"
    """,
    re.VERBOSE | re.DOTALL,
)


def emitted_names() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path.name == "metrics.py":
            # the registry module itself: only its harvest code emits,
            # and its METRIC_REGISTRY literal would make the scan
            # circular — handled by the harvest runtime check below
            text = path.read_text()
            body = text[text.index("def metric_key"):]
            names.update(_EMISSION.findall(body))
        else:
            names.update(_EMISSION.findall(path.read_text()))
    return names


class TestSourceMatchesRegistry:
    def test_every_emitted_metric_is_registered(self):
        unregistered = emitted_names() - set(METRIC_REGISTRY)
        assert not unregistered, (
            f"metrics emitted in src/ but missing from METRIC_REGISTRY: "
            f"{sorted(unregistered)}"
        )

    def test_every_registered_metric_is_emitted(self):
        orphaned = set(METRIC_REGISTRY) - emitted_names()
        assert not orphaned, (
            f"METRIC_REGISTRY entries no code emits: {sorted(orphaned)}"
        )

    def test_registry_entries_are_well_formed(self):
        for name, entry in METRIC_REGISTRY.items():
            assert re.fullmatch(r"(runtime|sim)\.[a-z0-9_]+", name), name
            assert entry["kind"] in ("counter", "gauge", "histogram"), name
            assert isinstance(entry["labels"], tuple), name
            assert entry["help"], f"{name}: empty help text"


class TestDocsTable:
    def test_docs_list_every_registered_metric(self):
        text = DOCS.read_text()
        missing = [
            name for name in METRIC_REGISTRY if f"`{name}`" not in text
        ]
        assert not missing, (
            f"docs/observability.md table is missing: {missing}"
        )


class TestRuntimeKeys:
    @pytest.fixture(scope="class")
    def harvested(self):
        metrics = MetricsRegistry()
        runner = BatchRunner(
            policy=RunConfig(), scale=0.05, metrics=metrics,
        )
        runner.run_sweep([(by_name("fft"), 2)])
        return metrics

    def test_every_runtime_key_parses_to_a_registered_name(self, harvested):
        key_re = re.compile(r"^([a-z0-9_.]+)(?:\{(.*)\})?$")
        stores = {
            "counter": harvested.counters,
            "gauge": harvested.gauges,
            "histogram": harvested.histograms,
        }
        for kind, store in stores.items():
            for key in store:
                match = key_re.match(key)
                assert match, f"unparseable metric key {key!r}"
                name, labels_txt = match.groups()
                entry = METRIC_REGISTRY.get(name)
                assert entry is not None, f"unregistered metric {name!r}"
                assert entry["kind"] == kind, (
                    f"{name}: registered as {entry['kind']}, "
                    f"emitted as {kind}"
                )
                labels = (
                    tuple(sorted(
                        part.split("=", 1)[0]
                        for part in labels_txt.split(",")
                    )) if labels_txt else ()
                )
                assert labels == tuple(sorted(entry["labels"])), (
                    f"{name}: labels {labels} != registered "
                    f"{entry['labels']}"
                )

    def test_harvest_covers_all_sim_metrics(self, harvested):
        # the flat per-cell payload exercises every sim.* registry entry
        outcome = BatchRunner(
            policy=RunConfig(), scale=0.05
        ).run_cell(by_name("fft"), 2)
        flat = harvest_cell_metrics(outcome.result)
        flat_names = {key.split("{", 1)[0] for key in flat}
        sim_names = {n for n in METRIC_REGISTRY if n.startswith("sim.")}
        assert sim_names <= flat_names | {"sim.cells"}, (
            sorted(sim_names - flat_names)
        )
