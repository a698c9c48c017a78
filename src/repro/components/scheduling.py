"""Engine core-pick schedulers (extracted from ``sim.engine``).

The scheduler decides which core the conservative discrete-event loop
steps next.  It is consulted once per pick, returns the chosen core,
the time at which that core can act, and the *horizon* — the earliest
instant any other core could act — up to which the engine's
instruction-block fast-forward runs any op, and past which it runs
only ops on the core's own state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.components.registry import register

if TYPE_CHECKING:
    from repro.config import SchedConfig
    from repro.sim.engine import _CoreRuntime

_INFINITY = float("inf")


@register("scheduler", "earliest")
class EarliestCoreScheduler:
    """Smallest-local-clock-first selection (the reference policy).

    This is the only order for which the engine's causality argument
    holds unconditionally — shared state is touched at step start
    times, and steps execute in global start-time order, with ties
    broken deterministically by core id (the iteration order).
    """

    def __init__(self, config: "SchedConfig") -> None:
        pass

    def pick(
        self, cores: Sequence["_CoreRuntime"]
    ) -> tuple["_CoreRuntime | None", float, float]:
        best: "_CoreRuntime | None" = None
        best_time = _INFINITY
        second_time = _INFINITY
        for core in cores:
            if core.current is not None:
                avail: float = core.now
            elif core.queue:
                earliest = min(t.ready_time for t in core.queue)
                avail = earliest if earliest > core.now else core.now
            else:
                continue
            if avail < best_time:
                second_time = best_time
                best_time = avail
                best = core
            elif avail < second_time:
                second_time = avail
        return best, best_time, second_time
