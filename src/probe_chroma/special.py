"""Auxiliary solvers: the probe (P3+sP1)-free 3-colouring algorithm and the
(s+1)P2-freeness checker."""

from __future__ import annotations

import itertools

from .errors import PromiseViolation
from .graphs import (
    Graph,
    ProbeInstance,
    find_induced_subgraph,
    find_k4,
    matching_graph,
    pattern_graph,
    two_colour_components,
)
from .propagation import FREE, paint, seen_masks
from .solver import (
    SolveStats,
    Verdict,
    _proper_assignments,
    _try_extend,
    colour_components,
    component_copy,
    run_solver,
)

_P3 = pattern_graph("p3")


def is_multi_p2_free(g: Graph, s: int) -> bool:
    """True iff g has no induced (s+1)P2.  The pattern search caps the
    pattern order, so s > 4 raises :class:`CapabilityError`."""
    return find_induced_subgraph(g, matching_graph(s + 1)) is None


# ----------------------------------------------------- probe (P3+sP1)-free

def solve_3col_p3sp1(inst: ProbeInstance, s: int, *,
                     oracle_fallback: bool = False) -> Verdict:
    """3-colour a partitioned probe (P3+sP1)-free instance.

    Low-degree nonprobes are deleted up front and re-coloured greedily at
    the end; each component of the rest, found in the input's ids by one
    pass and copied at most once, goes through the P3-free split or the
    bounded D-plus-S branching.  Nonprobes are pairwise non-adjacent, so one
    pass finds every nonprobe of degree below 3, and all neighbours of a
    deleted one stay in the solved rest.  Raises ValueError when s < 0.
    """
    if s < 0:
        raise ValueError(f"isolated-probe count s must be >= 0, got {s}")
    stats = SolveStats()
    g = inst.graph

    def colour():
        deleted = [v for v in sorted(inst.nonprobes) if g.degree(v) < 3]
        gone = frozenset(deleted)
        # g's components without the deleted nonprobes, by least member
        parts = two_colour_components(
            g, [v for v in range(g.n) if v not in gone])[1]
        colours = colour_components(
            g, inst.probes, [(tuple(sorted(part)), ()) for part in parts],
            [0] * g.n, stats,
            lambda host, comp, host_probes, st: _p3sp1_component(
                *component_copy(host, comp, host_probes), s, st),
            oracle_fallback)
        if colours is None:
            return None
        masks = seen_masks(g, colours)
        for v in deleted:
            colours[v] = FREE[masks[v]][0]
        return colours

    return run_solver(g, stats, colour)


def _p3sp1_component(g, probes, s, stats):
    """One component, low-degree nonprobes already gone."""
    if find_k4(g) is not None:
        return None
    nprob = frozenset(range(g.n)) - frozenset(probes)
    emb = find_induced_subgraph(g, _P3, within=probes)
    if emb is None:
        return _case_p3free(g, probes, nprob, s, stats)
    pverts = sorted(probes)
    if len(pverts) <= 4 * s + 1:  # small probe side: branch on all of it
        return _first_extension(g, pverts, stats)
    return _case_branching(g, list(emb.image), pverts, nprob, s, stats)


def _case_p3free(g, probes, nprob, s, stats):
    """G[P] is P3-free, so the probe side is a disjoint union of cliques,
    each of at most three vertices because g has no K4; the nonprobes join
    them into one component."""
    if not nprob:
        return tuple(i + 1 for i in range(g.n)) if g.n <= 3 else None
    u = min(nprob)
    non_nb = sorted(v for v in probes if v not in g.adj[u])
    # deg u >= 3 (lower-degree nonprobes were deleted) and all of N(u) are
    # probes.  If N(u) lay in one clique, u and three of it would be a K4;
    # so u has neighbours a, b in different cliques, and a-u-b is an induced
    # P3.  The cliques of a and b hold at most 4 non-neighbours of u, so past
    # 3(s+2) the rest meet s+1 other cliques, and one from each of s of them
    # completes an induced P3+sP1 whose only nonprobe is u: no fill removes
    # it.
    if len(non_nb) > 3 * (s + 2):
        raise PromiseViolation(
            "too-many-probe-non-neighbours", [u] + non_nb[:20],
            f"a nonprobe misses more than {3 * (s + 2)} probes of a P3-free "
            f"probe side, so an induced P3+{s}P1 holds it as its only nonprobe",
        )
    for size in range(len(non_nb) + 1):
        for sel in itertools.combinations(non_nb, size):
            if any(g.has_edge(a, b) for a, b in itertools.combinations(sel, 2)):
                continue
            stats.branches += 1
            sset = set(sel)
            removed = sset | {
                x for x in nprob if not any(w in sset for w in g.adj[x])
            }
            colours, _, odd = two_colour_components(
                g, [v for v in range(g.n) if v not in removed])
            if not odd:
                return colours
    return None


def _first_extension(g, verts, stats):
    """Branch over the proper colourings of ``verts``; the first one that
    2-SAT completes to all of g, as a colour list, or None."""
    blank = [0] * g.n
    for assignment in _proper_assignments(g, verts, blank):
        stats.branches += 1
        colours, masks = [0] * g.n, [0] * g.n
        paint(g, colours, masks, assignment.items())
        if _try_extend(g, colours, masks, (), stats) is not None:
            return colours
    return None


def _case_branching(g, q, pverts, nprob, s, stats):
    """P3 core ``q`` plus independent set D, then bounded probe subsets S;
    ``pverts`` lists the probes in ascending order."""
    closed_q = set(q) | {w for v in q for w in g.adj[v]}
    rest = [v for v in pverts if v not in closed_q]
    i_mis = []
    taken = set()
    for v in rest:
        if not any(w in taken for w in g.adj[v]):
            i_mis.append(v)
            taken.add(v)
    if len(i_mis) >= s:
        raise PromiseViolation(
            "induced-pattern-among-probes", q + i_mis[:s],
            f"an induced P3 plus {s} isolated probes exists on the probe "
            "side; no fill between nonprobes can remove it",
        )
    d = sorted(set(q) | set(i_mis))
    dset = set(d)
    undominated = [
        v for v in sorted(nprob) if not any(w in dset for w in g.adj[v])
    ]
    useful = sorted({w for v in undominated for w in g.adj[v]} - dset)
    for size in range(min(len(useful), 3 * s) + 1):
        for sel in itertools.combinations(useful, size):
            ds = d + list(sel)
            ds_set = set(ds)
            if any(
                not any(w in ds_set for w in g.adj[v]) for v in undominated
            ):
                continue
            out = _first_extension(g, ds, stats)
            if out is not None:
                return out
    return None
