"""Brute-force reference oracles, independent of the package internals,
and adapters that call the solver's branch-state functions on a partial
colouring given as a tuple, colour 0 for uncoloured."""

from __future__ import annotations

import itertools
import random

from collections import deque

from probe_chroma import listcol, propagation, solver
from probe_chroma.errors import ListSizeError
from probe_chroma.graphs import (
    Graph,
    _canonical_cycle,
    build_graph,
    induced_subgraph,
    iter_bits,
    shortest_odd_cycle,
)
from probe_chroma.propagation import FREE, Conflict, seen_masks

# most 2-SAT rounds one component can take: max(30, 6 x 9 x 3).  A C5 has 30
# proper colourings and each takes one round; a triangle has 6, each dominating
# pair up to 9 (at most 2 free vertices) and each forks into at most 3
# attempts at the M_u witness v*
COMPONENT_TWO_SAT_BUDGET = 162


def random_graph(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def brute_colourings(g: Graph, k: int):
    """Every proper k-colouring, as tuples."""
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges):
            yield assign


def brute_extensions(g: Graph, partial, k: int):
    """Every proper total k-colouring agreeing with partial (0 = blank)."""
    free = [v for v in range(g.n) if partial[v] == 0]
    for choice in itertools.product(range(1, k + 1), repeat=len(free)):
        assign = list(partial)
        for v, c in zip(free, choice):
            assign[v] = c
        if all(assign[u] != assign[v] for u, v in g.edges):
            yield tuple(assign)


def brute_proper_assignments(g: Graph, verts, base):
    """Product-and-filter reference for :func:`proper_assignments`:
    every tuple in {1,2,3}^free, kept when the free vertices avoid their
    coloured neighbours and no edge inside ``verts`` is monochromatic."""
    verts = tuple(verts)
    fixed = {v: base[v] for v in verts if base[v]}
    free = [v for v in verts if v not in fixed]
    nbr_cols = {v: {base[w] for w in g.adj[v] if base[w]} for v in free}
    for choice in itertools.product((1, 2, 3), repeat=len(free)):
        assign = dict(fixed)
        assign.update(zip(free, choice))
        if any(assign[v] in nbr_cols[v] for v in free):
            continue
        if any(assign[u] == assign[w] and g.has_edge(u, w)
               for u, w in itertools.combinations(verts, 2)):
            continue
        yield {v: assign[v] for v in free}


def is_proper_on(g: Graph, partial) -> bool:
    """True when no edge of g joins two vertices of one colour in
    ``partial``; uncoloured (0) vertices never clash."""
    return not any(partial[u] and partial[u] == partial[v] for u, v in g.edges)


def split_partition(g: Graph):
    """(clique, independent) vertex tuples if g is a split graph, else None.

    Degree-sequence test (sum over the top q degrees equals q(q-1) plus the
    rest), then an explicit check of both sides.
    """
    n = g.n
    if n == 0:
        return (), ()
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    q = 0
    for i in range(n):
        if degs[i] >= i:
            q = i + 1
    if sum(degs[:q]) != q * (q - 1) + sum(degs[q:]):
        return None
    clique, indep = order[:q], order[q:]
    if any(not g.has_edge(a, b) for a, b in itertools.combinations(clique, 2)):
        return None
    if any(g.has_edge(a, b) for a, b in itertools.combinations(indep, 2)):
        return None
    return tuple(sorted(clique)), tuple(sorted(indep))


def brute_extendable(g: Graph, partial, k: int) -> bool:
    return next(iter(brute_extensions(g, partial, k)), None) is not None


def exhaustive_induced(host: Graph, pattern: Graph) -> bool:
    """Induced-subgraph containment by raw subset-and-bijection scan."""
    if pattern.n > host.n:
        return False
    for subset in itertools.combinations(range(host.n), pattern.n):
        for perm in itertools.permutations(subset):
            ok = True
            for i, j in itertools.combinations(range(pattern.n), 2):
                if pattern.has_edge(i, j) != host.has_edge(perm[i], perm[j]):
                    ok = False
                    break
            if ok:
                return True
    return False


def brute_two_sat(num_vars, clauses):
    """Truth-table satisfiability for DIMACS-style clause lists."""
    if any(len(cl) == 0 for cl in clauses):
        return None
    for bits in itertools.product((False, True), repeat=num_vars):
        def lit(l):
            val = bits[abs(l) - 1]
            return val if l > 0 else not val
        if all(any(lit(l) for l in cl) for cl in clauses):
            return bits
    return None


def full_list_formula(g: Graph, partial, equalities=(), skip=frozenset()):
    """The 2-SAT encoding with variables for every listed vertex:
    (num_vars, clauses, var_of, lists, unsat), clauses in the order of
    per-vertex clauses by id, edges in ``g.edges`` order, then the equality
    chains.  The reference for ``listcol.build_list_formula``, which gives
    variables to tied vertices only."""
    lists = compute_lists(g, partial, skip)
    var_of = {}
    for v in sorted(lists):
        for c in lists[v]:
            var_of[(v, c)] = len(var_of)
    clauses = []
    unsat = False
    for v in sorted(lists):
        row = [var_of[(v, c)] + 1 for c in lists[v]]
        if not row:
            unsat = True
        else:
            clauses.append((row[0], row[-1]))
    for u, v in g.edges:
        if u in lists and v in lists:
            for c in lists[u]:
                if (v, c) in var_of:
                    clauses.append((-(var_of[(u, c)] + 1), -(var_of[(v, c)] + 1)))

    def lit(v, c):  # True, False or a DIMACS literal
        if partial[v]:
            return partial[v] == c
        return var_of[(v, c)] + 1 if (v, c) in var_of else False

    for eq in equalities:
        verts = sorted(eq.vertices)
        for a, b in zip(verts, verts[1:]):
            for c in eq.colours:
                la, lb = lit(a, c), lit(b, c)
                if isinstance(la, bool) and isinstance(lb, bool):
                    unsat |= la != lb
                    continue
                if isinstance(la, bool):
                    la, lb = lb, la
                if isinstance(lb, bool):
                    clauses.append((la, la) if lb else (-la, -la))
                else:
                    clauses += [(-la, lb), (la, -lb)]
    return len(var_of), clauses, var_of, lists, unsat


def full_extension(g: Graph, partial, equalities=(), skip=frozenset()):
    """``extend_by_2list`` over :func:`full_list_formula`: every listed
    vertex takes the first colour of its list whose variable is true."""
    num_vars, clauses, var_of, lists, unsat = full_list_formula(
        g, partial, equalities, skip)
    if unsat:
        return None
    assignment = listcol.solve_two_sat(num_vars, clauses)
    if assignment is None:
        return None
    return with_colours(partial, {
        v: next(c for c in row if assignment[var_of[(v, c)]])
        for v, row in lists.items()})


def with_colours(partial, assignment) -> tuple:
    """``partial`` with the colours of the dict ``assignment`` painted on."""
    colours = list(partial)
    for v, c in assignment.items():
        colours[v] = c
    return tuple(colours)


# The solver's branch state is a colour list and its seen-colour masks.  The
# helpers below call the functions that take that state on a partial
# colouring tuple instead, and hand their result back in the same form.

def branch_state(g: Graph, partial):
    """The colour list of ``partial`` and its seen-colour masks."""
    colours = list(partial)
    return colours, seen_masks(g, colours)


def propagate(g: Graph, start, skip=frozenset()):
    """``propagation.propagate`` from ``start``: the Conflict, or the
    fixpoint as a tuple."""
    colours, masks = branch_state(g, start)
    conflict = propagation.propagate(g, colours, masks, skip)
    if conflict is not None:
        return conflict
    return tuple(colours)


def compute_lists(g: Graph, partial, skip=frozenset()):
    """``listcol.compute_lists`` of ``partial``."""
    return listcol.compute_lists(g, *branch_state(g, partial), skip)


def formula(g: Graph, partial, equalities=(), skip=frozenset()):
    """``listcol.build_list_formula`` over the lists of ``partial``."""
    return listcol.build_list_formula(
        g, partial, compute_lists(g, partial, skip), equalities)


def extend_by_2list(g: Graph, partial, equalities=(), skip=frozenset()):
    """``listcol.extend_by_2list`` from ``partial``: the completion as a
    tuple, or None."""
    colours, masks = branch_state(g, partial)
    if listcol.extend_by_2list(g, colours, masks, equalities, skip) is None:
        return None
    return tuple(colours)


def make_case_decomposition(g: Graph, probes, k_vertices, psi):
    """``solver.make_case_decomposition`` under the partial colouring psi."""
    return solver.make_case_decomposition(
        g, probes, k_vertices, *branch_state(g, psi))


def finalize_extension(g: Graph, decomp, partial) -> tuple:
    """``solver.finalize_extension`` of ``partial``, as a tuple."""
    return tuple(solver.finalize_extension(g, decomp, list(partial)))


def proper_assignments(g: Graph, verts, base):
    """``solver._proper_assignments`` consistent with ``base``."""
    return solver._proper_assignments(g, verts, list(base))


def reference_propagate(g: Graph, start, skip=frozenset()):
    """Reference for ``propagation.propagate`` in its earlier form, which
    took a partial colouring, built the seen-colour masks afresh and
    returned a new one or the Conflict."""
    colours = list(start)
    masks = seen_masks(g, colours, skip)
    queue = deque(v for v in range(g.n) if not colours[v]
                  and len(FREE[masks[v]]) == 1 and v not in skip)
    while queue:
        v = queue.popleft()
        free = FREE[masks[v]]
        if not free:
            continue
        colours[v] = free[0]
        bit = 1 << (free[0] - 1)
        for w in g.adj[v]:
            mask = masks[w]
            if not mask & bit:
                masks[w] = mask = mask | bit
                if len(FREE[mask]) == 1 and not colours[w] and w not in skip:
                    queue.append(w)
    for v in range(g.n):
        if not FREE[masks[v]] and v not in skip:
            return Conflict(v)
    return tuple(colours)


def reference_extend_by_2list(g: Graph, partial, equalities=(),
                              skip=frozenset()):
    """Reference for ``listcol.extend_by_2list`` in its earlier form, which
    took a partial colouring, read its lists off freshly built seen-colour
    masks and returned a new one or None.  The formula is built and solved
    by ``listcol`` itself."""
    masks = seen_masks(g, partial, skip)
    lists = {}
    for v, c in enumerate(partial):
        if c or v in skip:
            continue
        if len(FREE[masks[v]]) > 2:
            raise ListSizeError(v, len(FREE[masks[v]]))
        lists[v] = FREE[masks[v]]
    if not equalities and not listcol._shared_colours(g, lists):
        if not all(lists.values()):
            return None
        return with_colours(partial, {v: row[0] for v, row in lists.items()})
    f = listcol.build_list_formula(g, partial, lists, equalities)
    if f.unsat:
        return None
    assignment = listcol.solve_two_sat(f.num_vars, f.clauses)
    if assignment is None:
        return None
    updates = {}
    for v, row in lists.items():
        if (v, row[0]) in f.var_of:
            updates[v] = next(c for c in row if assignment[f.var_of[(v, c)]])
        else:
            updates[v] = row[0]
    return with_colours(partial, updates)


def _seen_colours(g: Graph, colours, v):
    return {colours[w] for w in g.adj[v] if colours[w]}


def set_propagate(g: Graph, start, skip=frozenset()):
    """Set-based reference for :func:`propagate`: every open live
    vertex is rescanned whenever a neighbour gets a colour."""
    colours = list(start)
    if any(colours[v] for v in skip):
        raise ValueError("skipped vertices must be uncoloured")
    live = [v for v in range(g.n) if v not in skip]
    queue = deque(v for v in live if colours[v] == 0)
    queued = [colours[v] == 0 for v in range(g.n)]
    while queue:
        v = queue.popleft()
        queued[v] = False
        seen = _seen_colours(g, colours, v)
        if len(seen) == 2:
            colours[v] = next(c for c in (1, 2, 3) if c not in seen)
            for w in g.adj[v]:
                if colours[w] == 0 and not queued[w]:
                    queued[w] = True
                    queue.append(w)
    for v in live:
        if len(_seen_colours(g, colours, v)) == 3:
            return Conflict(v)
    return tuple(colours)


def set_lists(g: Graph, partial, skip=frozenset()):
    """Set-based reference for :func:`compute_lists`, without its
    list-size check: every open vertex outside ``skip`` and its list."""
    lists = {}
    for v in range(g.n):
        if partial[v] or v in skip:
            continue
        seen = _seen_colours(g, partial, v)
        lists[v] = tuple(c for c in (1, 2, 3) if c not in seen)
    return lists


def whole_k4(g: Graph):
    """Reference for the K4 test on twin representatives: the scan over
    every edge of g; some 4-clique as an ascending tuple, or None."""
    rows = g.bitrows()
    for u, v in g.edges:
        common = rows[u] & rows[v]
        for w in iter_bits(common):
            hit = common & rows[w]
            if hit:
                x = (hit & -hit).bit_length() - 1
                return tuple(sorted((u, v, w, x)))
    return None


def whole_k_reference_cycle(g: Graph, kverts) -> tuple:
    """Reference for ``solver.pick_reference_cycle`` over all of ``kverts``:
    the C5 scan on plain neighbour sets, one step per induced P3 a-b-c of
    K in lexicographic order, then the triangle scan and the odd-girth
    fallback."""
    from probe_chroma.errors import PromiseViolation

    kset = set(kverts)
    nbr = {v: g.adj[v] & kset for v in kset}
    for a in sorted(kset):
        for b in sorted(nbr[a]):
            for c in sorted(nbr[b] - nbr[a] - {a}):
                ds = nbr[c] - nbr[a] - nbr[b] - {a, b}
                es = nbr[a] - nbr[b] - nbr[c] - {b, c}
                if ds and es:
                    d = min(ds)
                    if es & nbr[d]:
                        return _canonical_cycle([a, b, c, d, min(es & nbr[d])])
    rows = g.bitrows()
    kmask = sum(1 << v for v in set(kverts))
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
    if len(cyc) == 5:
        return tuple(kmap[v] for v in cyc)
    raise PromiseViolation(
        "long-induced-odd-cycle", [kmap[v] for v in cyc],
        f"shortest odd cycle has length {len(cyc)}; only 3 or 5 can occur",
    )


def twin_representatives(g: Graph, vertices, probes) -> tuple:
    """Reference for the solver's twin kernel: group the ascending
    ``vertices`` into classes of false twins (equal neighbour sets in g),
    one vertex at a time.

    Returns ``(index, reps)``: ``index[i]`` is the class of ``vertices[i]``,
    classes numbered in order of their least member, and ``reps[c]`` is the
    representative of class c: its least member in ``probes``, or its least
    member when it holds no probe.
    """
    cls = {}
    index, reps = [], []
    for v in vertices:
        c = cls.get(g.adj[v])
        if c is None:
            c = cls[g.adj[v]] = len(reps)
            reps.append(v)
        elif v in probes and reps[c] not in probes:
            reps[c] = v
        index.append(c)
    return index, reps


def twin_draw(rng):
    """A random graph (n 5-12) in which 1-3 vertices are blown up into 2-4
    non-adjacent copies, with a random independent nonprobe set: some of
    the drawn vertices, plus 0-3 added nonprobes joined to each probe at
    random, so that copies can differ on their nonprobe neighbours.
    Vertex ids are shuffled; returns the graph and its nonprobe set."""
    n = rng.randint(5, 12)
    base = random_graph(n, rng.uniform(0.2, 0.7), rng)
    blown = set(rng.sample(range(n), rng.randint(1, 3)))
    ids, size = [], 0
    for v in range(n):
        k = rng.randint(2, 4) if v in blown else 1
        ids.append(range(size, size + k))
        size += k
    blowup = build_graph(size, [(a, b) for u, v in base.edges
                                for a in ids[u] for b in ids[v]])
    nonprobes = set()
    for v in rng.sample(range(size), size):
        if rng.random() < 0.3 and not blowup.adj[v] & nonprobes:
            nonprobes.add(v)
    probes = [v for v in range(size) if v not in nonprobes]
    edges = list(blowup.edges)
    extra = rng.randint(0, 3)
    for x in range(size, size + extra):
        edges += [(v, x) for v in probes if rng.random() < 0.3]
        nonprobes.add(x)
    perm = shuffled_permutation(size + extra, rng)
    g = build_graph(size + extra, [(perm[a], perm[b]) for a, b in edges])
    return g, frozenset(perm[v] for v in nonprobes)


def exact_cover_exists(universe, collection) -> bool:
    target = frozenset(universe)

    def rec(covered, idx):
        if covered == target:
            return True
        if idx == len(collection):
            return False
        s = frozenset(collection[idx])
        if not s & covered and rec(covered | s, idx + 1):
            return True
        return rec(covered, idx + 1)

    return rec(frozenset(), 0)


def odd_girth_brute(g: Graph):
    """Length of the shortest odd cycle; None when bipartite.  Shortest
    odd cycles are chordless, so scanning induced cycles is enough."""
    for size in range(3, g.n + 1, 2):
        for subset in itertools.combinations(range(g.n), size):
            degs = [sum(1 for w in subset if g.has_edge(v, w)) for v in subset]
            if any(d != 2 for d in degs):
                continue
            if _subset_connected(g, subset):
                return size
    return None


def _subset_connected(g, subset):
    pool = set(subset)
    seen = {subset[0]}
    stack = [subset[0]]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w in pool and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(pool)


def independent_sets(g: Graph):
    """All independent vertex subsets, the empty set included."""
    out = []
    for r in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v)
                   for u, v in itertools.combinations(subset, 2)):
                out.append(frozenset(subset))
    return out


_ATLAS_CACHE = None


def atlas_connected():
    """Connected graphs on at most 7 vertices, one per isomorphism class."""
    global _ATLAS_CACHE
    if _ATLAS_CACHE is None:
        import networkx as nx
        out = []
        for ng in nx.graph_atlas_g():
            if ng.number_of_nodes() == 0 or not nx.is_connected(ng):
                continue
            order = sorted(ng.nodes())
            idx = {u: i for i, u in enumerate(order)}
            out.append(build_graph(
                len(order), [(idx[u], idx[v]) for u, v in ng.edges()]))
        _ATLAS_CACHE = tuple(out)
    return _ATLAS_CACHE


def permute_instance(inst, perm):
    """Relabel an instance by perm (a sequence: new id of vertex v)."""
    from probe_chroma.graphs import validate_probe_instance
    g = inst.graph
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    probes = frozenset(perm[v] for v in inst.probes)
    nonprobes = frozenset(perm[v] for v in inst.nonprobes)
    return validate_probe_instance(build_graph(g.n, edges), probes, nonprobes)


def shuffled_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(g: Graph, partial, perm):
    """g and a partial colouring of it, relabelled by perm (a sequence: new
    id of vertex v)."""
    colours = [0] * g.n
    for v, c in enumerate(partial):
        colours[perm[v]] = c
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return build_graph(g.n, edges), tuple(colours)


def relabel_back(partial, perm):
    """A partial colouring of the graph relabelled by perm, in the old ids."""
    return tuple([partial[p] for p in perm])


def skip_cases(count, seed):
    """Random graphs with a proper partial 3-colouring and a skip set among
    the uncoloured vertices, drawn from a fixed seed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.uniform(0.15, 0.7), rng)
        colours = [0] * n
        for v in rng.sample(range(n), rng.randint(0, n)):
            free = {1, 2, 3} - {colours[w] for w in g.adj[v]}
            if free:
                colours[v] = rng.choice(sorted(free))
        skip = frozenset(
            v for v in range(n) if not colours[v] and rng.random() < 0.4)
        yield g, tuple(colours), skip


def without(g: Graph, partial, skip):
    """The copy of g without ``skip``, ``partial`` restricted to it and the
    new-to-old id map."""
    sub, back = induced_subgraph(g, [v for v in range(g.n) if v not in skip])
    rest = tuple([partial[v] for v in back])
    return sub, rest, back


def map_back(n, partial, back):
    """A partial colouring of the copy as one of the n-vertex original;
    vertices outside the copy stay uncoloured.  None passes through."""
    if partial is None:
        return None
    colours = [0] * n
    for new, old in enumerate(back):
        colours[old] = partial[new]
    return tuple(colours)
