"""Drill into one benchmark with the full toolbox.

The whole-program speedup stack answers *what* limits scaling; this
example shows the follow-up workflow on a barrier-phased benchmark:

1. the whole-program stack and automated optimization advice;
2. per-region stacks (the paper's Section 4.6 refinement) that expose
   the barrier imbalance the whole-program stack folds into yielding;
3. the scheduling timeline, where the phase structure and the idle
   tails before each barrier are directly visible;
4. per-core CPI stacks — the complementary single-core view.

    python examples/region_analysis.py [benchmark] [n_threads]
"""

import sys

from repro import (
    EventBus,
    MachineConfig,
    Simulation,
    TimelineRecorder,
    advice,
    build_program,
    by_name,
    cpi_stacks,
    render_cpi_stacks,
    render_stack,
    render_stack_series,
    run_experiment,
    run_region_experiment,
)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "lud"
    n_threads = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    spec = by_name(benchmark)
    machine = MachineConfig(n_cores=n_threads)

    print(f"=== 1. whole-program stack: {spec.full_name} ===")
    result = run_experiment(
        spec.full_name, machine,
        build_program(spec, n_threads), build_program(spec, 1),
    )
    print(render_stack(result.stack))
    print()
    print(advice(result.stack))
    print()

    print("=== 2. per-region stacks (between consecutive barriers) ===")
    regions = run_region_experiment(
        machine, build_program(spec, n_threads), name=spec.full_name
    )
    shown = regions.stacks[: min(6, len(regions.stacks))]
    if shown:
        print(render_stack_series(shown))
        worst = max(shown, key=lambda s: s.imbalance)
        print()
        print(f"worst barrier: {worst.name} loses {worst.imbalance:.2f} "
              "speedup units to arrival imbalance — that is the paper's "
              "'imbalance before each barrier quantifies barrier overhead'.")
    else:
        print("(no barriers in this benchmark)")
    print()

    print("=== 3. scheduling timeline ===")
    bus = EventBus()
    timeline = TimelineRecorder().attach(bus)
    Simulation(machine, build_program(spec, n_threads), bus=bus).run()
    print(timeline.render_timeline(width=72))
    print()

    print("=== 4. per-core CPI stacks ===")
    print(render_cpi_stacks(cpi_stacks(regions.sim_result)))


if __name__ == "__main__":
    main()
