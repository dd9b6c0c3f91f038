"""Solve a hand-built instance, then watch the solver refuse honestly.

Run: python3 demos/solve_walkthrough.py
"""

from probe_chroma import build_graph, solve_3col, validate_probe_instance
from probe_chroma.graphs import cycle_graph


def main():
    # A pentagon whose chords are hidden: probes form a C5, the two
    # nonprobes sit on it.  Any fill inside {1, 3} keeps the graph P5-free.
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    inst = validate_probe_instance(g, probes={0, 2, 4}, nonprobes={1, 3})
    v = solve_3col(inst)
    print("pentagon with hidden chords:")
    print("  status   ", v.status)
    print("  colouring", v.colouring)
    print("  2-SAT rounds per odd-probe component",
          v.stats.component_two_sat_calls)
    print()

    # An all-probe C7 cannot be completed to a P5-free graph: there are no
    # nonprobe pairs to fill.  The solver names the obstruction.
    inst = validate_probe_instance(cycle_graph(7), probes=range(7),
                                   nonprobes=())
    v = solve_3col(inst)
    print("all-probe 7-cycle:")
    print("  status    ", v.status)
    print("  diagnostic", v.diagnostic)
    print()

    # The same input with the brute-force fallback still gets an answer.
    v = solve_3col(inst, oracle_fallback=True)
    print("all-probe 7-cycle with fallback:")
    print("  status   ", v.status)
    print("  colouring", v.colouring)


if __name__ == "__main__":
    main()
