"""The 28-benchmark suite: completeness and metadata consistency."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workloads.suite import (
    FIG5_BENCHMARKS,
    FIG8_BENCHMARKS,
    SUITE,
    by_name,
)


class TestSuiteShape:
    def test_28_benchmarks(self):
        assert len(SUITE) == 28

    def test_names_unique(self):
        names = [spec.full_name for spec in SUITE]
        assert len(set(names)) == 28

    def test_suites_match_paper(self):
        suites = {spec.suite for spec in SUITE}
        assert suites == {"splash2", "parsec", "rodinia"}

    def test_counts_per_suite(self):
        by_suite = {}
        for spec in SUITE:
            by_suite[spec.suite] = by_suite.get(spec.suite, 0) + 1
        # Figure 6 has 28 rows: 7 SPLASH-2, 16 PARSEC (input classes
        # counted separately), 5 Rodinia.
        assert by_suite["splash2"] == 7
        assert by_suite["rodinia"] == 5
        assert by_suite["parsec"] == 16


class TestTargets:
    def test_every_spec_has_target(self):
        for spec in SUITE:
            assert spec.target_speedup_16 is not None
            assert 1.0 < spec.target_speedup_16 <= 16.0

    def test_expected_class_consistent_with_target(self):
        for spec in SUITE:
            target = spec.target_speedup_16
            if target >= 10:
                assert spec.expected_class == "good", spec.full_name
            elif target < 5:
                assert spec.expected_class == "poor", spec.full_name
            else:
                assert spec.expected_class == "moderate", spec.full_name

    def test_paper_headline_speedups(self):
        assert by_name("blackscholes_medium").target_speedup_16 == 15.94
        assert by_name("cholesky").target_speedup_16 == 5.02
        assert by_name("ferret_small").target_speedup_16 == 2.94
        assert by_name("radix").target_speedup_16 == 11.60

    def test_yielding_dominates_most_benchmarks(self):
        """Figure 6: yielding is the largest component for 23 of 28."""
        dominant_yield = sum(
            1 for spec in SUITE
            if spec.expected_top and spec.expected_top[0] == "yielding"
        )
        assert dominant_yield >= 20

    def test_cholesky_is_the_spinning_benchmark(self):
        assert by_name("cholesky").expected_top[0] == "spinning"


class TestLookup:
    def test_by_name(self):
        assert by_name("cholesky").name == "cholesky"
        assert by_name("facesim_medium").input_class == "medium"

    def test_unknown_raises(self):
        with pytest.raises(ConfigError) as err:
            by_name("nonexistent")
        assert err.value.field == "benchmark"
        assert "cholesky" in err.value.choices


class TestFigureLists:
    def test_fig5_benchmarks_exist(self):
        for name in FIG5_BENCHMARKS:
            by_name(name)
        assert "cholesky" in FIG5_BENCHMARKS

    def test_fig8_benchmarks_exist_and_share(self):
        for name in FIG8_BENCHMARKS:
            spec = by_name(name)
            assert spec.shared_ws_kb > 0, f"{name} needs shared data"
            assert spec.shared_fraction > 0

    def test_fig8_has_seven_benchmarks(self):
        assert len(FIG8_BENCHMARKS) == 7


class TestWeakScalingStory:
    def test_swaptions_input_classes(self):
        """Scaling improves with input size (weak-scaling narrative)."""
        small = by_name("swaptions_small")
        medium = by_name("swaptions_medium")
        assert medium.total_kinstrs > small.total_kinstrs
        assert medium.target_speedup_16 > small.target_speedup_16

    def test_swaptions_small_overhead_from_paper(self):
        """Section 6 reports ~26% extra instructions for swaptions_small."""
        assert by_name("swaptions_small").par_overhead == pytest.approx(0.26)

    def test_fluidanimate_overhead_from_paper(self):
        assert by_name("fluidanimate_medium").par_overhead == pytest.approx(0.18)
