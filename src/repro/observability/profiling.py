"""Deterministic self-profiler for the simulation hot path.

``sys.setprofile``-based and stdlib-only: every Python call/return
event charges the elapsed time since the previous event to the
*current* call stack as self time, which is exactly the attribution a
collapsed-stack ("flamegraph") file wants.  Being event-driven rather
than signal-driven makes the captured call tree deterministic — the
set of stacks depends only on the code executed, not on sampling luck
— so CI can assert structural facts about the profile (e.g. "the
engine inner loop is present and dominant").

Opt-in only: profiling multiplies Python-level call overhead several
times over, so nothing in the harness enables it implicitly.  Use
``repro bench --profile`` or wrap code in :class:`DeterministicProfiler`
by hand.

C-function events (``c_call``/``c_return``) are deliberately ignored:
their time accrues to the calling Python frame's self time, which
keeps the profile compact and matches what ``perf``-style collapsed
stacks of pure-Python code usually show.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

__all__ = ["DeterministicProfiler", "ENGINE_PREFIX"]

# Functions whose qualified name starts with this prefix count as "the
# engine inner loop" for the BENCH profile section.
ENGINE_PREFIX = "repro.sim.engine."


def _frame_key(frame: Any) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{module}.{qualname}"


class DeterministicProfiler:
    """Collects self-time per collapsed call stack.

    Usage::

        profiler = DeterministicProfiler()
        with profiler:
            run_hot_code()
        open("profile.collapsed", "w").write("\\n".join(profiler.collapsed()))

    Only profiles the thread it is started on (``sys.setprofile``
    semantics).  Nesting profilers is not supported.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._keys: list[str] = []
        self._last_ns = 0
        self._active = False
        # collapsed stack tuple -> accumulated self time (ns)
        self.stacks: dict[tuple[str, ...], int] = {}
        # function key -> number of calls observed
        self.calls: dict[str, int] = {}

    # -- capture ------------------------------------------------------

    def _profile(self, frame: Any, event: str, arg: Any) -> None:
        now = self._clock()
        keys = self._keys
        if keys:
            path = tuple(keys)
            self.stacks[path] = self.stacks.get(path, 0) + (now - self._last_ns)
        if event == "call":
            key = _frame_key(frame)
            keys.append(key)
            self.calls[key] = self.calls.get(key, 0) + 1
        elif event == "return":
            # Frames entered before start() unwind past our shadow
            # stack; never pop below empty.
            if keys:
                keys.pop()
        # Exclude our own bookkeeping from the attributed time.
        self._last_ns = self._clock()

    def start(self) -> None:
        if self._active:
            raise RuntimeError("profiler already active")
        self._active = True
        self._keys.clear()
        self._last_ns = self._clock()
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)
        if not self._active:
            return
        self._active = False
        now = self._clock()
        if self._keys:
            path = tuple(self._keys)
            self.stacks[path] = self.stacks.get(path, 0) + (now - self._last_ns)
            self._keys.clear()

    def __enter__(self) -> "DeterministicProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- reporting ----------------------------------------------------

    def total_us(self) -> int:
        return sum(self.stacks.values()) // 1000

    def collapsed(self) -> list[str]:
        """Flamegraph collapsed-stack lines: ``a;b;c <microseconds>``.

        Sorted lexically by path so the file is deterministic for a
        deterministic run; zero-microsecond stacks are dropped.
        """
        lines = []
        for path in sorted(self.stacks):
            us = self.stacks[path] // 1000
            if us > 0:
                lines.append(f"{';'.join(path)} {us}")
        return lines

    def self_us_by_function(self) -> dict[str, int]:
        """Self time per function (leaf of each collapsed stack)."""
        out: dict[str, int] = {}
        for path, ns in self.stacks.items():
            leaf = path[-1]
            out[leaf] = out.get(leaf, 0) + ns // 1000
        return out

    def top_functions(self, n: int = 15) -> list[dict[str, Any]]:
        total = max(1, self.total_us())
        per_func = self.self_us_by_function()
        ranked = sorted(per_func.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        return [
            {
                "function": func,
                "self_us": us,
                "self_pct": round(100.0 * us / total, 2),
                "calls": self.calls.get(func, 0),
            }
            for func, us in ranked
        ]

    def pct_in_prefix(self, prefix: str = ENGINE_PREFIX) -> float:
        """Percent of total self time in functions under ``prefix``."""
        total = sum(self.stacks.values())
        if total <= 0:
            return 0.0
        inside = sum(
            ns for path, ns in self.stacks.items() if path[-1].startswith(prefix)
        )
        return round(100.0 * inside / total, 2)

    def profile_section(self, top_n: int = 15) -> dict[str, Any]:
        """The ``profile`` section for ``BENCH_sweep.json``."""
        return {
            "profiler": "deterministic (sys.setprofile)",
            "total_self_us": self.total_us(),
            "distinct_stacks": len(self.stacks),
            "engine_inner_loop_pct": self.pct_in_prefix(ENGINE_PREFIX),
            "engine_prefix": ENGINE_PREFIX,
            "top_functions": self.top_functions(top_n),
        }
