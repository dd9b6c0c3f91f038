"""3-colouring solver for partitioned probe P5-free graphs.

The solver is a promise algorithm: verdicts are trustworthy on genuine probe
P5-free inputs.  Every structural claim the algorithm leans on that a solve
can fail is checked at run time; a failed check aborts the solve with a
``not_probe_p5_free`` verdict naming the claim and the witnessing vertices,
rather than guessing.  A claim that earlier steps already guarantee carries
its reason in a comment instead.  Returned colourings are verified proper
unconditionally.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, itemgetter, or_

from .errors import ListSizeError, PromiseViolation
from .graphs import (
    Graph,
    ProbeInstance,
    _canonical_cycle,
    cycle_graph,
    find_induced_subgraph,
    find_k4,
    induced_subgraph,
    iter_bits,
    pattern_graph,
    shortest_odd_cycle,
    twin_classes,
    two_colour_components,
)
from .listcol import EqualityConstraint, extend_by_2list
from .oracles import oracle_k_colourable
from .propagation import FREE, paint, propagate

COLOURABLE = "colourable"
NOT_COLOURABLE = "not_colourable"
NOT_PROBE_P5_FREE = "not_probe_p5_free"

_P5 = pattern_graph("p5")


@dataclass
class SolveStats:
    """Counters of one solve.  ``component_two_sat_calls`` holds the 2-SAT
    rounds of each component that reaches the odd probe path, in order."""
    branches: int = 0
    two_sat_calls: int = 0
    time_ms: float = 0.0
    component_two_sat_calls: list = field(default_factory=list)

    def start_component(self):
        self.component_two_sat_calls.append(0)

    def add_two_sat(self):
        self.two_sat_calls += 1
        if self.component_two_sat_calls:
            self.component_two_sat_calls[-1] += 1

    def as_dict(self):
        return {
            "branches": self.branches,
            "two_sat_calls": self.two_sat_calls,
            "time_ms": self.time_ms,
        }


@dataclass(frozen=True)
class Verdict:
    status: str
    colouring: tuple | None
    diagnostic: dict | None
    stats: SolveStats


def verify_colouring(g: Graph, colouring):
    """None when proper with colours in 1..3; otherwise the violation:
    ("range", vertex) or ("edge", (u, v))."""
    for v, c in enumerate(colouring):
        if not 1 <= c <= 3:
            return ("range", v)
    for u, v in g.edges:
        if colouring[u] == colouring[v]:
            return ("edge", (u, v))
    return None


def certify(g: Graph, colours, what: str):
    """Raise ``certificate-invalid`` unless ``colours`` properly 3-colours g."""
    bad = verify_colouring(g, colours)
    if bad is not None:
        wit = [bad[1]] if bad[0] == "range" else list(bad[1])
        raise PromiseViolation("certificate-invalid", wit,
                               f"{what} colouring is not proper")


# -------------------------------------------------------------------- top level

def colour_components(g: Graph, probes, comps, colours, stats: SolveStats,
                      colour_component, oracle_fallback: bool):
    """Colour the connected components ``comps`` of g into ``colours``.

    Each component comes as a pair ``(kernel, twins)``: ``kernel`` is an
    ascending tuple of its vertices whose colouring decides it, and
    ``twins`` holds pairs ``(i, members)``, each listing vertices that take
    the colour of ``kernel[i]``; every other vertex of the component is in
    ``kernel``.  ``colour_component(g, kernel, probes, stats)`` returns the
    kernel's colouring aligned with ``kernel``, or None when it has no
    3-colouring.  It copies the kernel where it needs one, through
    :func:`component_copy`, whose ids are positions in ``kernel``; its
    refusals name those positions and come back here with g's ids.  With
    ``oracle_fallback`` a refused kernel is re-solved by brute force
    instead.  Returns ``colours``, or None at the first component without a
    3-colouring.
    """
    for kernel, twins in comps:
        stats.start_component()
        try:
            res = colour_component(g, kernel, probes, stats)
        except PromiseViolation as pv:
            if not oracle_fallback:
                raise pv.translated(kernel)
            res = oracle_k_colourable(component_copy(g, kernel, probes)[0], 3)
        if res is None:
            return None
        for v, c in zip(kernel, res):
            colours[v] = c
        for i, members in twins:
            c = res[i]
            for v in members:
                colours[v] = c
    return colours


def component_copy(g: Graph, comp, probes):
    """The copy G[comp] and its probe set; g itself when ``comp`` spans g.

    The copy's ids are positions in the ascending ``comp``, so the
    colourings and refusals of a kernel's copy are what
    :func:`colour_components` expects.
    """
    if len(comp) == g.n:
        return g, probes
    sub, _ = induced_subgraph(g, comp)
    return sub, frozenset(i for i, v in enumerate(comp) if v in probes)


def run_solver(g: Graph, stats: SolveStats, colour) -> Verdict:
    """Time ``colour()``, certify its colouring of g and wrap the verdict.

    ``colour()`` returns a colouring of g or None when g has no 3-colouring;
    a :class:`PromiseViolation` it raises becomes a ``not_probe_p5_free``
    verdict carrying the diagnostic.
    """
    t0 = time.perf_counter()
    cert, diagnostic = None, None
    try:
        colours = colour()
        if colours is None:
            status = NOT_COLOURABLE
        else:
            certify(g, colours, "assembled")
            status, cert = COLOURABLE, tuple(colours)
    except PromiseViolation as pv:
        status, diagnostic = NOT_PROBE_P5_FREE, pv.diagnostic()
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return Verdict(status, cert, diagnostic, stats)


def solve_3col(inst: ProbeInstance, *, oracle_fallback: bool = False) -> Verdict:
    """Decide 3-colourability of a partitioned probe P5-free instance.

    Bipartite probe components take their 2-colourings and nonprobes colour
    3; each component with an odd probe component is then found by one
    search that groups it into classes of false twins, and goes, by least
    member, through the probe component algorithm on its twin kernel, whose
    colours its classes take.  That is enough: a component whose graph is
    P5-free is probe P5-free under any independent nonprobe set.

    Returns one of three verdicts.  A failed structural claim becomes a
    ``not_probe_p5_free`` verdict whose diagnostic names the claim and
    witnessing vertices of ``inst``.  Among the claims:
    ``two-odd-probe-components`` when a component holds two odd probe
    components or more, no K4, and an induced P5 that no fill edge can
    break.  Such a component with a K4 has no 3-colouring; with neither,
    it has none under the promise.

    The only exception that escapes is :class:`CapabilityError`, from the
    brute-force cap of ``oracle_k_colourable`` when ``oracle_fallback``
    re-solves a refused component whose twin kernel has more than 30
    vertices.
    """
    stats = SolveStats()
    g, probes = inst.graph, inst.probes

    def colour():
        # the bipartite parts are not read: keep no reference to their list
        colours, odd_parts = itemgetter(0, 2)(two_colour_components(g, probes))
        comps, odd = [], {}  # neighbour set -> the odd parts of its component
        for part in odd_parts:
            # a vertex of an odd part has neighbours, and equal nonempty
            # neighbour sets lie in one component
            parts = odd.get(g.adj[part[0]])
            if parts is None:
                classes = twin_classes(g, part[0])
                parts = []
                odd.update(dict.fromkeys(classes, parts))
                comps.append(_twin_kernel(classes.values(), probes))
            parts.append(part)
        comps.sort()  # by least member
        return colour_components(
            g, probes, ((kernel, twins) for _, kernel, twins in comps),
            colours, stats,
            lambda host, kernel, host_probes, st: _probe_component_core(
                host, kernel, host_probes, odd[g.adj[kernel[0]]], st),
            oracle_fallback)

    return run_solver(g, stats, colour)


def _twin_kernel(classes, probes) -> tuple:
    """``(least, kernel, twins)`` of one component given as its classes of
    false twins: its least vertex, the ascending tuple of one representative
    per class (the class's least probe, else its least member), and for
    each class of two or more, the pair of its representative's position in
    the kernel and its members.

    False twins are never adjacent, so a colouring of the kernel lifts to
    the component, each twin taking its representative's colour; the
    kernel is induced, so it keeps the promise, and it has no twins left.
    Probes represent first, so that the kernel keeps every odd probe cycle.
    Every component found waits for its visit with what this returns, so a
    class of one keeps no list of its own: many small components would
    otherwise keep a container per vertex alive for the cyclic garbage
    collector to count and scan.
    """
    least, reps, twins = None, [], []
    for members in classes:
        if len(members) == 1:
            rep = low = members[0]
        else:
            low = min(members)
            rep = low if low in probes else min(
                probes.intersection(members), default=low)
            twins.append((rep, members))
        reps.append(rep)
        if least is None or low < least:
            least = low
    reps.sort()
    return least, tuple(reps), tuple(
        [(bisect_left(reps, rep), members) for rep, members in twins])


def _proper_assignments(g, verts, cols):
    """Proper 3-colourings of ``verts`` consistent with the colour list
    ``cols``.

    Vertices coloured in ``cols`` stay fixed; nothing is yielded when two of
    them clash.  The free vertices are coloured by backtracking in the order
    of ``verts``, each trying 1, 2, 3, so the free-vertex assignment dicts
    come out lexicographically over (position in ``verts``, colour).
    """
    fixed = [v for v in verts if cols[v]]
    if any(cols[v] == cols[w] for v in fixed for w in fixed if w in g.adj[v]):
        return
    free = [v for v in verts if not cols[v]]
    blocked = [{cols[w] for w in g.adj[v]} for v in free]
    yield from _colour_in_order(g, free, blocked, {})


def _colour_in_order(g, free, blocked, assign):
    """Extend ``assign`` to the next vertex of ``free`` in every colour off its
    ``blocked`` set and its assigned neighbours; yield each full copy."""
    i = len(assign)
    if i == len(free):
        yield dict(assign)
        return
    v = free[i]
    taken = blocked[i].union(c for u, c in assign.items() if u in g.adj[v])
    for c in (1, 2, 3):
        if c not in taken:
            assign[v] = c
            yield from _colour_in_order(g, free, blocked, assign)
            del assign[v]


# proper colourings of C3 and C5 on a blank base, by position along the
# cycle, in the order _proper_assignments yields them
_CYCLE_COLOURINGS = {
    k: tuple(_colour_in_order(cycle_graph(k), range(k), [frozenset()] * k, {}))
    for k in (3, 5)
}


def _try_extend(g, colours, masks, equalities, stats, skip=frozenset()):
    """One 2-SAT round over g with ``skip`` set aside: ``colours`` completed
    in place, or None."""
    stats.add_two_sat()
    try:
        return extend_by_2list(g, colours, masks, equalities, skip)
    except ListSizeError as e:
        raise PromiseViolation(
            "open-list-too-long", [e.vertex],
            "a vertex kept 3 admissible colours after propagation; "
            "it has no coloured neighbour",
        ) from e


# ------------------------------------------------------------- probe component

def _probe_component_core(g, kernel, probes, odd, stats):
    """One component's twin ``kernel`` with its odd probe parts ``odd``.

    A K4 answers that it has no 3-colouring.  Two odd parts or more answer
    the same under the promise, the one exit whose answer rests on it; the
    component is refused instead when it shows an induced P5 that no fill
    edge can break, which proves the promise broken.  One odd part K goes on
    to the reference cycle.
    """
    sub, sub_probes = component_copy(g, kernel, probes)
    parts = []  # each odd part's vertices in the kernel copy
    for part in odd:
        pset = frozenset(part)
        parts.append(tuple([j for j, v in enumerate(kernel) if v in pset]))
    # nonprobes are independent, so a K4 has three probes or more; they form
    # a triangle, so they lie in an odd part
    if find_k4(sub, within=[j for p in parts for j in p]) is not None:
        return None
    if len(parts) >= 2:
        path = _fixed_p5(sub, sub_probes)
        if path is not None:
            raise PromiseViolation(
                "two-odd-probe-components", path,
                f"{len(parts)} non-bipartite probe components lie in one "
                "component with an induced P5 of at most one nonprobe, "
                "which no fill edge can break",
            )
        return None
    return _kernel_core(sub, sub_probes, parts[0], stats)


def _fixed_p5(g, probes):
    """An induced P5 of g with at most one nonprobe, in path order, or None.

    Fill edges join two nonprobes, so none is a chord of it: g breaks the
    promise.  An induced P5 holds no two false twins, so a twin kernel has
    one whenever its component has, with no more nonprobes.
    """
    for x in [None, *sorted(frozenset(range(g.n)) - probes)]:
        hit = find_induced_subgraph(
            g, _P5, within=probes if x is None else probes | {x})
        if hit is not None:
            return hit.image
    return None


def _kernel_core(g, probes, kverts, stats):
    """The core on a twin-free, K4-free component g with odd probe
    component K.

    Each branch colours the reference cycle from the table into a blank
    colour list and its seen-colour masks (``paint``), and hands those two
    lists, its whole state, to propagation and on, which settle them in
    place.
    """
    cycle = pick_reference_cycle(g, kverts)
    # rows omit their own bit, so the cycle's rows meet in the vertices complete to it
    rows = g.bitrows()
    if reduce(and_, [rows[v] for v in cycle]):
        return None
    n = g.n
    if len(cycle) == 3:
        outside_k = frozenset(range(n)).difference(kverts)
    # the cycle is induced and listed in cycle order, so its proper
    # colourings on a blank list are C3's or C5's by position, in the
    # order _proper_assignments(g, cycle, [0] * n) would yield them
    for colouring in _CYCLE_COLOURINGS[len(cycle)]:
        stats.branches += 1
        colours, masks = [0] * n, [0] * n
        paint(g, colours, masks, zip(cycle, colouring.values()))
        if len(cycle) == 5:
            out = _propagate_and_extend(g, colours, masks, stats)
        elif propagate(g, colours, masks, outside_k) is None:
            # propagated through the probe component only
            out = _run_case2(g, probes, kverts, colours, masks, stats)
        else:
            continue
        if out is not None:
            return out
    return None


def _propagate_and_extend(g, colours, masks, stats, skip=frozenset(),
                          equalities=()):
    """Propagate ``colours`` and their ``masks`` over g, then one 2-SAT
    round, both in place and with ``skip`` set aside; the completed
    ``colours``, or None when either step fails."""
    if propagate(g, colours, masks, skip) is not None:
        return None
    return _try_extend(g, colours, masks, equalities, stats, skip)


def pick_reference_cycle(g: Graph, kverts) -> tuple:
    """Reference cycle of the non-bipartite probe component ``kverts`` of g.

    Preference order: an induced C5; else the least triangle dominating the
    component; else the least triangle; else, when the odd girth is 5, the
    shortest odd cycle, which is an induced C5 (a chord would close a
    triangle).  Each is searched in g under the vertex mask of ``kverts``.

    The C5 comes from one bitset step per induced P3 a-b-c of K, taken in
    lexicographic order.  With D = N(c) - N[a, b] and E = N(a) - N[b, c]
    inside K, and d = min D, the first prefix at which d sees some e of E
    gives the cycle a-b-c-d-e, e least.  In a P5-free K every d of D sees
    every e of E, for else e-a-b-c-d is an induced P5.  So under the
    promise, where G[K] is P5-free, this is the lexicographically least
    induced C5, and on any K the scan takes one step per prefix.  A K that
    breaks the promise may hide its C5s from the scan; the odd-girth
    fallback still finds one when K has no triangle.

    The solver passes a twin-free kernel; on a K with false twins the C5
    and triangle scans give the same answer, because putting a smaller
    false twin in place of a vertex keeps a prefix's D and E, a C5 induced
    and a triangle dominating, and lowers it.  A non-bipartite component
    with none of these (odd girth 7 or more) cannot be probe P5-free; its
    witness is the shortest odd cycle of the copy G[K], which
    :func:`shortest_odd_cycle` picks by the relative order of K's ids
    alone, whatever g's other ids.  A bipartite ``kverts`` raises
    ValueError.
    """
    rows = g.bitrows()
    kmask = sum(1 << v for v in set(kverts))
    for a in iter_bits(kmask):
        na = rows[a] & kmask
        for b in iter_bits(na):
            rb = rows[b]
            dmask = kmask & ~(na | rb | 1 << a | 1 << b)  # K - N[a, b]
            emask = na & ~(rb | 1 << b)  # N(a) - N[b], inside K
            for c in iter_bits(rb & kmask & ~(na | 1 << a)):
                rc = rows[c]
                dset = rc & dmask
                eset = emask & ~rc
                if dset and eset:
                    d = (dset & -dset).bit_length() - 1
                    hit = eset & rows[d]
                    if hit:
                        e = (hit & -hit).bit_length() - 1
                        return _canonical_cycle([a, b, c, d, e])
    first_tri = None
    for u in iter_bits(kmask):
        ku = rows[u] & kmask
        for v in iter_bits(ku & (-1 << (u + 1))):
            for w in iter_bits(ku & rows[v] & (-1 << (v + 1))):
                tri = (u, v, w)
                if first_tri is None:
                    first_tri = tri
                cover = rows[u] | rows[v] | rows[w] | 1 << u | 1 << v | 1 << w
                if cover & kmask == kmask:
                    return tri
    if first_tri is not None:
        return first_tri
    gk, kmap = induced_subgraph(g, kverts)
    cyc = shortest_odd_cycle(gk)
    if cyc is None:
        raise ValueError("reference cycle requires a non-bipartite graph")
    if len(cyc) == 5:  # kmap ascends, so the cycle stays canonical
        return tuple([kmap[v] for v in cyc])
    raise PromiseViolation(
        "long-induced-odd-cycle", [kmap[v] for v in cyc],
        f"shortest odd cycle has length {len(cyc)}; only 3 or 5 can occur",
    )


# ----------------------------------------------------------------- case |C| = 3

@dataclass(frozen=True)
class CaseDecomposition:
    """Per-branch snapshot of the component around the coloured triangle.

    ``m_u`` is a colour-indexed triple (index i-1 for colour i);
    ``j_components`` pairs each J component with its 2-colouring;
    ``removed_lr`` lists (vertex, colour) pairs taken out by the single-class
    neighbourhood rule.
    """

    k_r: frozenset
    m_u: tuple
    m_r: frozenset
    l_r: frozenset
    j_vertices: frozenset
    j_components: tuple
    removed_lr: tuple


def make_case_decomposition(g: Graph, probes, k_vertices, colours,
                            masks) -> CaseDecomposition:
    """Classify every vertex by its coloured-neighbour profile under the
    colour list ``colours`` (psi), read off its seen-colour ``masks``; the
    probe components outside K are 2-coloured only when J is nonempty.
    """
    K = frozenset(k_vertices)
    k_u = [set(), set(), set()]
    k_r = set()
    for v in K:
        if colours[v]:
            continue
        # psi is propagation's conflict-free fixpoint inside K, so an open
        # K vertex sees at most one colour
        mask = masks[v]
        if mask:
            k_u[mask.bit_length() - 1].add(v)
        else:
            k_r.add(v)
    iverts = frozenset(probes) - K
    m_c, m_r, l_r = set(), set(), set()
    m_u = [set(), set(), set()]
    for v in range(g.n):
        if v in probes:
            continue
        mask = masks[v]
        if not g.adj[v] & iverts:
            if not mask:
                l_r.add(v)
        elif mask & mask - 1:  # two colours or more
            m_c.add(v)
        elif mask:
            m_u[mask.bit_length() - 1].add(v)
        else:
            m_r.add(v)
    j = frozenset(v for v in iverts if not g.adj[v] & m_c)
    j_comps = []
    # with J empty, no probe component outside K can mix J and non-J
    # vertices, so it needs no pass
    if j:
        two, parts, _ = two_colour_components(g, iverts)
        for part in parts:
            inside = sum(1 for v in part if v in j)
            if 0 < inside < len(part):
                raise PromiseViolation(
                    "j-not-component-closed", sorted(part),
                    "a probe component outside K mixes vertices with and "
                    "without M_c neighbours",
                )
            if inside:
                part.sort()
                j_comps.append((tuple(part), tuple([two[v] for v in part])))
    removed = []
    # the component is connected, so every vertex of L_r has a neighbour
    for v in sorted(l_r):
        for i in (1, 2, 3):
            if g.adj[v] <= k_u[i - 1]:
                removed.append((v, i))
                break
    return CaseDecomposition(
        frozenset(k_r), tuple(frozenset(s) for s in m_u), frozenset(m_r),
        frozenset(l_r), j, tuple(j_comps), tuple(removed),
    )


def find_dominating_pair(g: Graph, k_vertices, targets):
    """Smallest, then lexicographically least D of at most two K-vertices
    with all targets inside N[D]; None when no such D exists."""
    tset = frozenset(targets)
    if not tset:
        return ()
    rows = g.bitrows()
    trow = sum(1 << t for t in tset)
    kv = sorted(k_vertices)
    closed = {v: rows[v] | 1 << v for v in kv}
    for v in kv:
        if not trow & ~closed[v]:
            return (v,)
    for a, u in enumerate(kv):
        for v in kv[a + 1:]:
            if not trow & ~(closed[u] | closed[v]):
                return (u, v)
    return None


def _run_case2(g, probes, kverts, colours, masks, stats):
    """|C| = 3: decompose, dominate the colour-starved rest, branch.

    ``colours`` and ``masks`` are psi, propagation's fixpoint inside K; each
    dominating-pair or v* attempt paints its assignment on its own copy.
    """
    decomp = make_case_decomposition(g, probes, kverts, colours, masks)
    removed_set = frozenset(v for v, _ in decomp.removed_lr)
    targets = decomp.k_r | (decomp.l_r - removed_set)
    pair = find_dominating_pair(g, kverts, targets)
    if pair is None:
        raise PromiseViolation(
            "dominating-pair-missing", sorted(targets)[:20],
            "no two K-vertices dominate the vertices without coloured "
            "neighbours",
        )
    skip = decomp.m_r | removed_set
    mu_nonempty = [i for i in (1, 2, 3) if decomp.m_u[i - 1]]
    vstar, equalities = None, []
    if decomp.j_vertices and len(mu_nonempty) >= 2:
        vstar = min(v for i in mu_nonempty for v in decomp.m_u[i - 1])
    elif decomp.j_vertices and mu_nonempty:
        # drop J: the kept attachments of each J component agree on the
        # colours off the M_u class, and finalize_extension colours J
        skip |= decomp.j_vertices
        palette = tuple(c for c in (1, 2, 3) if c != mu_nonempty[0])
        for comp, _ in decomp.j_components:
            if len(comp) < 2:
                continue
            nbrs = sorted(set().union(*(g.adj[v] for v in comp)) - set(comp))
            kept = tuple(x for x in nbrs if x not in skip)
            if len(kept) >= 2:
                equalities.append(EqualityConstraint(kept, palette))
    equalities = tuple(equalities)
    for d_assign in _proper_assignments(g, pair, colours):
        stats.branches += 1
        seeded, seeded_masks = colours[:], masks[:]
        paint(g, seeded, seeded_masks, d_assign.items())
        if vstar is None:
            out = _case2_attempt(g, decomp, seeded, seeded_masks, skip,
                                 equalities, stats)
        else:
            out = None
            for v_assign in _proper_assignments(g, (vstar,), seeded):
                stats.branches += 1
                attempt, attempt_masks = seeded[:], seeded_masks[:]
                paint(g, attempt, attempt_masks, v_assign.items())
                out = _case2_attempt(g, decomp, attempt, attempt_masks, skip,
                                     equalities, stats)
                if out is not None:
                    break
        if out is not None:
            return out
    return None


def _case2_attempt(g, decomp, colours, masks, skip, equalities, stats):
    """One propagation + 2-SAT round on ``colours`` and ``masks``, in place,
    with the deferred vertices ``skip`` set aside and the J couplings
    ``equalities``."""
    if _propagate_and_extend(g, colours, masks, stats, skip,
                             equalities) is None:
        return None
    return finalize_extension(g, decomp, colours)


def finalize_extension(g: Graph, decomp: CaseDecomposition,
                       colours: list) -> list:
    """Colour the removed vertices back into the colour list ``colours``
    in forced order, in place, and return it.

    J components first (their attachments are coloured), then the removed
    L_r vertices (their K_u^i neighbours now avoid colour i), then M_r
    (all neighbours lie in the coloured I side).
    """
    for comp, two in decomp.j_components:
        if all(colours[v] for v in comp):
            continue
        if len(comp) == 1:
            # an uncoloured J vertex exists only when J is dropped, which
            # needs exactly one M_u class
            colours[comp[0]] = next(i for i in (1, 2, 3) if decomp.m_u[i - 1])
            continue
        # deferred M_r attachments are colourless here; they pick a free
        # colour after the component, so only M_u neighbours constrain it
        outside = set().union(*(g.adj[v] for v in comp)) - set(comp)
        nbrs = sorted(outside - decomp.m_r)
        ncols = {colours[w] for w in nbrs}
        if len(ncols) != 1 or 0 in ncols:
            raise PromiseViolation(
                "attachment-colours-differ", nbrs[:20],
                "the neighbours of a probe component outside K do not "
                "share one colour",
            )
        shared = ncols.pop()
        palette = [c for c in (1, 2, 3) if c != shared]
        # K is the only odd probe component, so ``two`` is a 2-colouring
        for v, c in zip(comp, two):
            colours[v] = palette[c - 1]
    # K is never skipped, so every K_u^i neighbour keeps off colour i
    for v, i in decomp.removed_lr:
        colours[v] = i
    # nonprobes are independent, so colouring one M_r vertex leaves the
    # others' masks alone; bit c-1 for colour c, as in seen_masks
    for v in sorted(decomp.m_r):
        free = FREE[reduce(or_, [1 << colours[w] >> 1 for w in g.adj[v]], 0)]
        if not free:
            raise PromiseViolation(
                "no-free-colour", [v],
                "a deferred nonprobe sees all three colours",
            )
        colours[v] = free[0]
    return colours
