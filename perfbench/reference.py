"""Reference checks that share no code with the solver.

Everything here works on plain ``(n, edges)`` pairs built by the benchmark,
so a defect in the program's graph layer cannot hide a wrong verdict.
"""

from __future__ import annotations

import itertools


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_certificate(n, edges, colouring):
    """None when ``colouring`` is a proper 3-colouring of the graph, else a
    one-line reason."""
    if colouring is None or len(colouring) != n:
        return f"colouring has {None if colouring is None else len(colouring)} entries, expected {n}"
    for v, c in enumerate(colouring):
        if c not in (1, 2, 3):
            return f"vertex {v} has colour {c!r}, expected 1..3"
    for u, v in edges:
        if colouring[u] == colouring[v]:
            return f"edge ({u}, {v}) is monochromatic"
    return None


def three_colouring(n, edges):
    """A proper 3-colouring as a tuple, or None: exhaustive backtracking.

    The next vertex is always the uncoloured one with the most distinct
    colours on its neighbours (ties by degree, then id); colours are opened
    in first-use order, which removes the colour-permutation symmetry.
    """
    adj = [sorted(s) for s in adjacency(n, edges)]
    colours = [0] * n

    def pick():
        best, best_key = -1, None
        for v in range(n):
            if colours[v]:
                continue
            key = (len({colours[w] for w in adj[v]} - {0}), len(adj[v]), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def rec(used):
        v = pick()
        if v < 0:
            return True
        blocked = {colours[w] for w in adj[v]}
        for c in range(1, min(3, used + 1) + 1):
            if c in blocked:
                continue
            colours[v] = c
            if rec(max(used, c)):
                return True
        colours[v] = 0
        return False

    return tuple(colours) if rec(0) else None


def has_induced_p5(n, edges):
    """Exhaustive test over every 5-vertex subset for an induced path."""
    adj = adjacency(n, edges)
    for five in itertools.combinations(range(n), 5):
        inside = set(five)
        degs = sorted(len(adj[v] & inside) for v in five)
        if degs != [1, 1, 2, 2, 2]:
            continue
        # degrees 1,1,2,2,2 fit a path or a triangle plus a disjoint edge;
        # only the path is connected
        seen, stack = {five[0]}, [five[0]]
        while stack:
            for w in adj[stack.pop()] & inside:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == 5:
            return True
    return False


def probe_odd_hole(n, edges, probes):
    """Vertex set of an induced odd cycle of length >= 7 made only of probes,
    found as a component of the probe-induced subgraph that is a cycle;
    None when no such component exists."""
    adj = adjacency(n, edges)
    seen = set()
    for s in sorted(probes):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in adj[stack.pop()] & probes:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if all(len(adj[v] & comp) == 2 for v in comp) and len(comp) % 2 and len(comp) >= 7:
            return frozenset(comp)
    return None
