"""Dense-id undirected graphs and the structural subroutines built on them.

Vertices are the integers ``0..n-1``.  Graphs are immutable: build them with
:func:`build_graph` or one of the small constructors, and derive new graphs
with :func:`induced_subgraph`, :func:`disjoint_union` or :func:`join`.

Per-vertex tuples are built from lists, not generators: ``tuple(genexpr)``
resizes a tuple of guessed length, so each one, once freed, adds to CPython's
per-size tuple free list (up to 2000 a size), which only a full garbage
collection empties.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    CapabilityError,
    GraphConstructionError,
    IndependenceError,
    PartitionError,
)

PATTERN_ORDER_CAP = 10


class Graph:
    """Immutable simple graph with sorted adjacency.

    ``edges`` is a tuple of ``(u, v)`` pairs with ``u < v``, sorted
    lexicographically.  ``adj[v]`` is a frozenset of neighbours.  The
    searches use adjacency rows as plain ``int`` bitsets from
    :meth:`bitrows`, each built on its first read: bit ``w`` of row ``v`` is
    set when ``vw`` is an edge.
    """

    __slots__ = ("n", "edges", "adj", "_rows")

    def __init__(self, n: int, edges: tuple, adj: tuple):
        self.n = n
        self.edges = edges
        self.adj = adj
        self._rows = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def bitrows(self) -> dict:
        if self._rows is None:
            self._rows = _Rows(self.adj)
        return self._rows

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class _Rows(dict):
    """Bit rows by vertex, each built and kept on its first read."""

    __slots__ = ("adj",)

    def __init__(self, adj):
        self.adj = adj

    def __missing__(self, v):
        row = self[v] = sum(1 << w for w in self.adj[v])
        return row


def build_graph(n: int, edges) -> Graph:
    """Validate and normalise an edge list into a :class:`Graph`.

    Duplicate edges collapse; self-loops and out-of-range ids raise
    :class:`GraphConstructionError`.  An edge given as a ``(u, v)`` tuple
    with ``u < v`` is kept as is rather than copied, so a caller that holds
    its edge list does not pay for a second set of pairs.
    """
    if n < 0:
        raise GraphConstructionError(f"negative vertex count {n}")
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge {e!r} leaves the id range 0..{n - 1}")
        if u == v:
            raise GraphConstructionError(f"self-loop at vertex {u}")
        if u > v:
            e = (v, u)
        elif type(e) is not tuple:
            e = (u, v)
        seen.add(e)
    sorted_edges = tuple(sorted(seen))
    nbr = [set() for _ in range(n)]
    for u, v in sorted_edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return Graph(n, sorted_edges, tuple([frozenset(s) for s in nbr]))


# ---------------------------------------------------------------- constructors

def path_graph(t: int) -> Graph:
    return build_graph(t, [(i, i + 1) for i in range(t - 1)])


def cycle_graph(t: int) -> Graph:
    if t < 3:
        raise GraphConstructionError("cycles need at least 3 vertices")
    return build_graph(t, [(i, (i + 1) % t) for i in range(t)])


def complete_graph(t: int) -> Graph:
    return build_graph(t, [(i, j) for i in range(t) for j in range(i + 1, t)])


def complete_multipartite_graph(sizes) -> Graph:
    sizes = list(sizes)
    n = sum(sizes)
    bounds = []
    acc = 0
    for s in sizes:
        bounds.append((acc, acc + s))
        acc += s
    edges = []
    for a, (lo1, hi1) in enumerate(bounds):
        for lo2, hi2 in bounds[a + 1:]:
            edges.extend((u, v) for u in range(lo1, hi1) for v in range(lo2, hi2))
    return build_graph(n, edges)


def matching_graph(k: int) -> Graph:
    """k disjoint edges (the pattern kP2)."""
    return build_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def disjoint_union(graphs) -> Graph:
    offset = 0
    edges = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return build_graph(offset, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    edges = list(g1.edges)
    off = g1.n
    edges.extend((u + off, v + off) for u, v in g2.edges)
    edges.extend((u, v + off) for u in range(g1.n) for v in range(g2.n))
    return build_graph(g1.n + g2.n, edges)


_PATTERN_TERM = re.compile(r"^(\d*)([pc])(\d+)$")


def pattern_graph(name: str) -> Graph:
    """Parse a pattern name such as ``p5``, ``c7``, ``2p2`` or ``p3+2p1``.

    Terms joined with ``+`` denote a disjoint union; a leading multiplier
    repeats the term.
    """
    parts = []
    for term in name.lower().split("+"):
        m = _PATTERN_TERM.match(term.strip())
        if not m:
            raise GraphConstructionError(f"unrecognised pattern term {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        order = int(m.group(3))
        base = path_graph(order) if m.group(2) == "p" else cycle_graph(order)
        parts.extend([base] * count)
    return disjoint_union(parts)


def induced_subgraph(g: Graph, vertices) -> tuple:
    """Induced subgraph on ``vertices`` plus the new-to-old id mapping; ids
    of a valid graph need no :func:`build_graph` checks, and ascending rows
    list the edges sorted.  A row is read as the intersection of two
    frozensets, which walks the smaller one, so a small copy of dense
    vertices costs its own size rather than their host degree."""
    keep = sorted(set(vertices))
    kset = frozenset(keep)
    index = {old: new for new, old in enumerate(keep)}
    adj = [frozenset([index[w] for w in kset & g.adj[u]]) for u in keep]
    edges = [(u, w) for u, row in enumerate(adj) for w in sorted(row) if u < w]
    return Graph(len(keep), tuple(edges), tuple(adj)), tuple(keep)


# ------------------------------------------------------------------- instances

@dataclass(frozen=True)
class ProbeInstance:
    """Graph with a probe/nonprobe vertex partition; nonprobes independent."""

    graph: Graph
    probes: frozenset
    nonprobes: frozenset
    meta: dict | None = field(default=None, compare=False)


def validate_probe_instance(g: Graph, probes, nonprobes, meta=None) -> ProbeInstance:
    """Check the partition contract and wrap it into a :class:`ProbeInstance`."""
    p, q = frozenset(probes), frozenset(nonprobes)
    universe = frozenset(range(g.n))
    if p | q != universe or p & q:
        raise PartitionError("probes and nonprobes must partition the vertex set")
    for u, v in g.edges:
        if u in q and v in q:
            raise IndependenceError((u, v))
    return ProbeInstance(g, p, q, meta)


@dataclass(frozen=True)
class InducedEmbedding:
    """Injective vertex map witnessing an induced copy of ``pattern`` in ``host``."""

    pattern: Graph
    host: Graph
    image: tuple

    def __post_init__(self):
        img = self.image
        if len(img) != self.pattern.n or len(set(img)) != len(img):
            raise ValueError("image must map the pattern vertices injectively")
        for a in range(self.pattern.n):
            for b in range(a + 1, self.pattern.n):
                if self.pattern.has_edge(a, b) != self.host.has_edge(img[a], img[b]):
                    raise ValueError(
                        f"pair ({a},{b}) breaks induced adjacency under the map"
                    )


# ------------------------------------------------------------------ traversals

def twin_classes(g: Graph, s: int) -> dict:
    """The component of vertex ``s``, grouped into classes of false twins
    (equal neighbour sets).

    Returns a dict from each class's neighbour set to the list of its
    members, classes in breadth-first order from ``s``.  Only the first
    member found of a class is expanded: its twins have exactly its
    neighbours.  So each vertex costs one dict lookup, and each class one
    set difference of its neighbour set.
    """
    adj = g.adj
    classes = {adj[s]: [s]}
    seen = {s}
    queue = [s]
    for v in queue:  # grows while scanned: one vertex per class
        new = adj[v] - seen
        if new:
            seen |= new
            for w in new:
                members = classes.get(adj[w])
                if members is None:
                    classes[adj[w]] = [w]
                    queue.append(w)
                else:
                    members.append(w)
    return classes


def two_colour_components(g: Graph, vertices) -> tuple:
    """2-colour every component of g[vertices] in one breadth-first pass.

    Returns ``(colours, parts, odd)``.  ``colours`` is a list over g's
    vertices: 3 outside ``vertices``, and 1 or 2 inside, with colour 1 on
    each component's least member; on a bipartite component that is its
    proper 2-colouring.  ``parts`` lists the components by least member,
    each as a list of its members in breadth-first order from the least;
    ``odd`` lists, in the same order, the parts that hold an odd cycle.
    """
    adj = g.adj
    colours = [3] * g.n
    order = sorted(vertices)
    for v in order:
        colours[v] = 0
    parts, odd = [], []
    for s in order:
        if colours[s]:
            continue
        colours[s] = 1
        part = [s]
        is_odd = False
        for v in part:  # grows while scanned: breadth-first order
            cv = colours[v]
            for w in adj[v]:
                cw = colours[w]
                if not cw:
                    colours[w] = 3 - cv
                    part.append(w)
                elif cw == cv:
                    is_odd = True
        parts.append(part)
        if is_odd:
            odd.append(part)
    return colours, parts, odd


def shortest_odd_cycle(g: Graph):
    """A shortest odd cycle, or None if bipartite.

    Breadth-first layering from every vertex; the output is chordless because
    a chord would split the cycle into a strictly shorter odd one.  It starts
    at its least vertex, and its second vertex is below its last.  Which of
    several equally short cycles comes back depends only on the order of the
    ids, since neighbours are visited in ascending order: a relabelling of g
    that keeps the order of its ids yields the same one, relabelled.
    """
    best_len = None
    best = None
    nbrs = [sorted(row) for row in g.adj]
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        limit = None if best_len is None else (best_len - 1) // 2
        while queue:
            v = queue.popleft()
            if limit is not None and dist[v] >= limit:
                continue
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        for u, v in g.edges:
            if u in dist and v in dist and dist[u] == dist[v]:
                length = dist[u] + dist[v] + 1
                if best_len is None or length < best_len:
                    walk = _meet_walk(parent, u, v)
                    if walk is not None:
                        best_len = length
                        best = walk
                        if best_len == 3:
                            return _canonical_cycle(best)
    return _canonical_cycle(best) if best is not None else None


def _meet_walk(parent, u, v):
    pu, pv = [u], [v]
    while parent[pu[-1]] != -1:
        pu.append(parent[pu[-1]])
    while parent[pv[-1]] != -1:
        pv.append(parent[pv[-1]])
    cycle = list(reversed(pu)) + pv[:-1]
    if len(set(cycle)) != len(cycle):
        return None  # walk revisits a vertex; a shorter odd cycle exists elsewhere
    return cycle


def _canonical_cycle(cycle):
    k = len(cycle)
    start = cycle.index(min(cycle))
    rot = cycle[start:] + cycle[:start]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + list(reversed(rot[1:]))
    return tuple(rot)


def iter_bits(row: int):
    """Set bit positions of an ``int`` bitset, in ascending order."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def find_k4(g: Graph, *, within=None):
    """Some 4-clique as an ascending tuple, or None; with a vertex set
    ``within``, one with at least three vertices in ``within``, whose rows
    alone are read, or None if none has.  The third vertex w is sought
    above v only, which loses no clique: at the least edge uv of one, any w
    lies above v, or a lesser edge would have hit first."""
    if g.n < 4:
        return None
    rows = g.bitrows()
    mask = (1 << g.n) - 1 if within is None else sum(1 << v for v in set(within))
    for u in iter_bits(mask):
        for v in iter_bits(rows[u] & mask & (-1 << (u + 1))):
            common = rows[u] & rows[v]
            for w in iter_bits(common & mask & (-1 << (v + 1))):
                hit = common & rows[w]
                if hit:
                    x = (hit & -hit).bit_length() - 1
                    return tuple(sorted((u, v, w, x)))
    return None


def find_induced_subgraph(host: Graph, pattern: Graph, *, within=None):
    """First induced copy of ``pattern`` in ``host`` in lexicographic image
    order, or None.

    With a vertex set ``within`` the copy is sought in ``host[within]``, in
    host ids and without building that subgraph.  Backtracking over pattern
    vertices in id order with bitset forward checking; the pattern order is
    capped at ``PATTERN_ORDER_CAP``, and the search has no other bound.
    """
    p = pattern.n
    if p > PATTERN_ORDER_CAP:
        raise CapabilityError(f"pattern order {p} exceeds the cap {PATTERN_ORDER_CAP}")
    if p == 0:
        return InducedEmbedding(pattern, host, ())
    if within is None:
        mask = (1 << host.n) - 1
    else:
        mask = sum(1 << v for v in set(within))
    if p > mask.bit_count():
        return None
    image = [0] * p
    if _embed_from(host.bitrows(), pattern, image, [mask] * p):
        return InducedEmbedding(pattern, host, tuple(image))
    return None


def _embed_from(rows, pattern, image, cands):
    """Place pattern vertices d = p - len(cands) to p - 1 into ``image``,
    vertex j on a host vertex of ``cands[j - d]``; True once all are placed."""
    p = pattern.n
    d = p - len(cands)
    for x in iter_bits(cands[0]):
        image[d] = x
        if d + 1 == p:
            return True
        nxt = []
        for j, cand in enumerate(cands[1:], d + 1):
            if pattern.has_edge(d, j):
                row = cand & rows[x]
            else:
                row = cand & ~(rows[x] | 1 << x)
            if not row:
                break
            nxt.append(row)
        else:
            if _embed_from(rows, pattern, image, nxt):
                return True
    return False
