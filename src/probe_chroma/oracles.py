"""Reference decision procedures for small instances.

These are deliberately simple exponential searches; the solvers are tested
against them, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, IndependenceError
from .graphs import Graph, build_graph, find_induced_subgraph

COLOUR_ORACLE_CAP = 30
PROBE_ORACLE_CAP = 14


def oracle_k_colourable(g: Graph, k: int, *, order_cap: int = COLOUR_ORACLE_CAP):
    """Proper k-colouring as a 1-based tuple, or None.

    Backtracking over vertices in degree-descending order with forward
    checking; colour classes are introduced in first-use order, which prunes
    the colour-permutation symmetry.
    """
    if g.n > order_cap:
        raise CapabilityError(f"colouring oracle capped at {order_cap} vertices, got {g.n}")
    if k < 1:
        return None if g.n else ()
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colours = [0] * g.n
    return tuple(colours) if _colour_from(g, k, order, colours, 0, 0) else None


def _colour_from(g, k, order, colours, i, hi):
    """Colour ``order[i:]`` in place above the largest used colour ``hi``."""
    if i == len(order):
        return True
    v = order[i]
    used = {colours[w] for w in g.adj[v] if colours[w]}
    for c in range(1, min(k, hi + 1) + 1):
        if c in used:
            continue
        colours[v] = c
        ok = True
        for w in g.adj[v]:
            if colours[w] == 0:
                seen = {colours[x] for x in g.adj[w] if colours[x]}
                if len(seen) == k:
                    ok = False
                    break
        if ok and _colour_from(g, k, order, colours, i + 1, max(hi, c)):
            return True
        colours[v] = 0
    return False


@dataclass(frozen=True)
class CompletionCertificate:
    """Fill edges between nonprobes whose addition removes every induced
    copy of the pattern."""

    graph: Graph
    pattern: Graph
    nonprobes: frozenset
    fill_edges: tuple

    def filled_graph(self) -> Graph:
        return build_graph(self.graph.n, self.graph.edges + self.fill_edges)

    def verify(self) -> bool:
        g, np = self.graph, self.nonprobes
        for u, v in g.edges:
            if u in np and v in np:
                return False
        for u, v in self.fill_edges:
            if not (u < v and u in np and v in np) or g.has_edge(u, v):
                return False
        return find_induced_subgraph(self.filled_graph(), self.pattern) is None


def oracle_is_probe_hfree(g: Graph, pattern: Graph, nonprobes=None, *,
                          order_cap: int = PROBE_ORACLE_CAP):
    """Certificate that g is a (partitioned) probe pattern-free graph, else None.

    With ``nonprobes`` fixed, a conflict-driven search picks fill edges
    inside induced pattern copies until none remain.  Without it, only
    maximal independent sets need to be tried: enlarging the nonprobe side
    keeps any witness fill usable.
    """
    if g.n > order_cap:
        raise CapabilityError(f"probe oracle capped at {order_cap} vertices, got {g.n}")
    if nonprobes is not None:
        nset = frozenset(nonprobes)
        for u, v in g.edges:
            if u in nset and v in nset:
                raise IndependenceError((u, v))
        fill = _fill_search(g, pattern, nset, frozenset(), frozenset())
        if fill is None:
            return None
        return CompletionCertificate(g, pattern, nset, tuple(sorted(fill)))
    for nset in _maximal_independent_sets(g):
        fill = _fill_search(g, pattern, nset, frozenset(), frozenset())
        if fill is not None:
            return CompletionCertificate(g, pattern, nset, tuple(sorted(fill)))
    return None


def _fill_search(g, pattern, nonprobes, chosen, banned):
    """Grow ``chosen`` until the filled graph is pattern-free.

    Every induced copy must be broken by filling one of its non-edge pairs;
    branches ban the pairs already tried so the same fill set is never
    explored twice.
    """
    host = build_graph(g.n, g.edges + tuple(chosen))
    emb = find_induced_subgraph(host, pattern)
    if emb is None:
        return chosen
    img = emb.image
    cands = set()
    for a in range(pattern.n):
        for b in range(a + 1, pattern.n):
            if not pattern.has_edge(a, b):
                u, v = sorted((img[a], img[b]))
                if u in nonprobes and v in nonprobes and (u, v) not in banned:
                    cands.add((u, v))
    grow = set(banned)
    for f in sorted(cands):
        res = _fill_search(g, pattern, nonprobes, chosen | {f}, frozenset(grow))
        if res is not None:
            return res
        grow.add(f)
    return None


def _maximal_independent_sets(g: Graph):
    """All maximal independent sets, ascending as sorted tuples."""
    n = g.n
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    out = []
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if mask >> v & 1:
                if nbr[v] & mask:
                    ok = False
                    break
            elif not nbr[v] & mask:
                ok = False
                break
        if ok:
            out.append(frozenset(v for v in range(n) if mask >> v & 1))
    return sorted(out, key=sorted)
