"""Byte pins of the text the timeline and region commands print.

``repro timeline`` draws its ASCII chart from the run intervals an
event-bus recorder collects, and ``repro regions`` builds its stacks
from the barrier events on the same bus.  The fixtures were written by
the earlier engine-hook recorders; the bus-driven ones must print the
same bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("argv, fixture", [
    (["timeline", "lud", "-n", "4", "--scale", "0.1"],
     "timeline_lud_n4.txt"),
    (["timeline", "fft", "-n", "16", "--scale", "0.1"],
     "timeline_fft_n16.txt"),
    (["regions", "lud", "-n", "4"], "regions_lud_n4.txt"),
], ids=["timeline-lud-4", "timeline-fft-16", "regions-lud-4"])
def test_output_is_pinned(argv, fixture, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (FIXTURES / fixture).read_text()
