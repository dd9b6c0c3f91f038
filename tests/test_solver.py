import collections
import gc
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
from probe_chroma.errors import PromiseViolation
from probe_chroma.generators import (
    gen_p5free_host,
    gen_precolext_reduction,
    gen_probe_instance,
)
from probe_chroma.graphs import (
    InducedEmbedding,
    _canonical_cycle,
    build_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    disjoint_union,
    find_induced_subgraph,
    find_k4,
    induced_subgraph,
    path_graph,
    pattern_graph,
    two_colour_components,
    validate_probe_instance,
)
from probe_chroma.oracles import oracle_is_probe_hfree, oracle_k_colourable
from probe_chroma.solver import (
    COLOURABLE,
    NOT_COLOURABLE,
    NOT_PROBE_P5_FREE,
    CaseDecomposition,
    _CYCLE_COLOURINGS,
    find_dominating_pair,
    pick_reference_cycle,
    solve_3col,
    verify_colouring,
)
from probe_chroma.special import solve_3col_p3sp1

triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])


def all_probe(g):
    return validate_probe_instance(g, frozenset(range(g.n)), frozenset())


def assert_colourable(inst, verdict):
    assert verdict.status == COLOURABLE
    assert verify_colouring(inst.graph, verdict.colouring) is None


class TestVerifyColouring:
    def test_proper_cycle(self):
        assert verify_colouring(cycle_graph(5), (1, 2, 1, 2, 3)) is None

    def test_clashing_edge(self):
        out = verify_colouring(cycle_graph(5), (1, 2, 1, 2, 1))
        assert out == ("edge", (0, 4))

    def test_colour_out_of_range(self):
        assert verify_colouring(cycle_graph(5), (1, 2, 1, 2, 4)) == ("range", 4)

    def test_in_range_values_outside_the_colour_set(self):
        # 2.5 and True lie in 1..3, so only the edge scan can reject them
        assert verify_colouring(path_graph(3), (1, 2.5, 1)) is None
        assert verify_colouring(path_graph(3), (True, 2, 1)) is None
        assert verify_colouring(path_graph(3), (True, 1, 2)) == ("edge", (0, 1))


class TestSolveExamples:
    def test_even_path_probe_partition(self):
        g = path_graph(8)
        inst = validate_probe_instance(
            g, frozenset(range(0, 8, 2)), frozenset(range(1, 8, 2))
        )
        assert_colourable(inst, solve_3col(inst))

    def test_clique_of_probes(self):
        v = solve_3col(all_probe(complete_graph(4)))
        assert v.status == NOT_COLOURABLE
        assert v.colouring is None

    def test_precolouring_gadget(self):
        inst = gen_precolext_reduction(
            cycle_graph(6), (tuple(range(0, 6, 2)), tuple(range(1, 6, 2))), 0, 2, 4
        )
        assert_colourable(inst, solve_3col(inst))

    def test_long_odd_cycle_breaks_the_promise(self):
        v = solve_3col(all_probe(cycle_graph(7)))
        assert v.status == NOT_PROBE_P5_FREE
        assert v.colouring is None
        assert v.diagnostic["claim"] == "long-induced-odd-cycle"
        assert sorted(v.diagnostic["witnesses"]) == list(range(7))

    def test_oracle_fallback_rescues_odd_cycle(self):
        v = solve_3col(all_probe(cycle_graph(7)), oracle_fallback=True)
        assert v.status == COLOURABLE
        assert verify_colouring(cycle_graph(7), v.colouring) is None

    TWO_ODD = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 6), (3, 6)]

    def test_two_nonbipartite_probe_components(self):
        # two probe triangles through nonprobe 6, which sees one vertex of
        # each: 3-colourable, and 1-0-6-3-4 is an induced P5 whose only
        # nonprobe no fill edge touches.  With no K4 the solver refuses,
        # naming that P5 in path order
        g = build_graph(7, self.TWO_ODD)
        inst = validate_probe_instance(g, frozenset(range(6)), frozenset({6}))
        assert oracle_k_colourable(g, 3) is not None
        assert oracle_is_probe_hfree(g, pattern_graph("p5"), {6}) is None
        v = solve_3col(inst)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic["claim"] == "two-odd-probe-components"
        assert v.diagnostic["witnesses"] == [1, 0, 6, 3, 4]
        assert_colourable(inst, solve_3col(inst, oracle_fallback=True))

    def test_two_odd_witnesses_are_input_ids_through_the_kernel(self):
        # probe 7 doubles 1 and nonprobe 8 doubles 6, then ids are shuffled
        edges = self.TWO_ODD + [(0, 7), (2, 7), (0, 8), (3, 8)]
        perm = helpers.shuffled_permutation(9, random.Random(4))
        g = build_graph(9, [(perm[u], perm[v]) for u, v in edges])
        inst = _probe_side(g, {perm[6], perm[8]})
        v = solve_3col(inst)
        assert v.diagnostic["claim"] == "two-odd-probe-components"
        path = v.diagnostic["witnesses"]
        assert set(path).isdisjoint({max(perm[1], perm[7]),
                                     max(perm[6], perm[8])})
        assert inst.nonprobes.intersection(path) == {min(perm[6], perm[8])}
        assert len(path) == 5
        for i, a in enumerate(path):  # an induced path, in path order
            for j in range(i + 1, 5):
                assert (path[j] in g.adj[a]) == (j == i + 1)

    def test_two_odd_parts_in_an_odd_wheel_keeping_the_promise(self):
        # probe C5 0-4 and probe triangle 5-7 with nonprobe 8 complete to
        # the C5 and adjacent to 5: an induced path holds at most two of 8's
        # neighbours, so the graph is P5-free even with no fill edge.  The
        # wheel on 0-4 and 8 has no 3-colouring, and there is no K4
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 8) for i in range(5)]
        edges += [(5, 6), (6, 7), (5, 7), (5, 8)]
        g = build_graph(9, edges)
        inst = validate_probe_instance(g, frozenset(range(8)), frozenset({8}))
        assert find_induced_subgraph(g, pattern_graph("p5")) is None
        assert find_k4(g) is None
        assert oracle_k_colourable(g, 3) is None
        assert solve_3col(inst).status == NOT_COLOURABLE

    def test_bipartite_probe_side_colours_directly(self):
        g = cycle_graph(8)
        inst = validate_probe_instance(
            g, frozenset(range(0, 8, 2)), frozenset(range(1, 8, 2))
        )
        v = solve_3col(inst)
        assert_colourable(inst, v)

    def test_vertex_complete_to_reference_cycle(self):
        # wheel over C5: the hub sees every cycle colour
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
        inst = all_probe(build_graph(6, edges))
        assert solve_3col(inst).status == NOT_COLOURABLE

    def test_stats_populated(self):
        inst = gen_probe_instance(12, 0.5, 1)
        v = solve_3col(inst)
        assert v.stats.time_ms > 0
        d = v.stats.as_dict()
        assert set(d) == {"branches", "two_sat_calls", "time_ms"}


def c5_blowup(part):
    """Five independent parts of ``part`` vertices, joined cyclically."""
    edges = [
        (i * part + a, (i + 1) % 5 * part + b)
        for i in range(5) for a in range(part) for b in range(part)
    ]
    return build_graph(5 * part, edges)


class TestP5FreeSolver:
    """Plain P5-free graphs, all vertices probes: the empty fill keeps the
    promise, so the probe component algorithm decides them."""

    def test_five_cycle(self):
        v = solve_3col(all_probe(cycle_graph(5)))
        assert v.status == COLOURABLE
        assert verify_colouring(cycle_graph(5), v.colouring) is None

    def test_clique(self):
        assert solve_3col(all_probe(complete_graph(4))).status == NOT_COLOURABLE

    def test_split_graph(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4)])
        v = solve_3col(all_probe(g))
        assert v.status == COLOURABLE
        assert verify_colouring(g, v.colouring) is None

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_oracle_on_p5_free_graphs(self, seed):
        g = gen_p5free_host(11, 0.35 + 0.05 * (seed % 7), seed)
        for comp in two_colour_components(g, range(g.n))[1]:
            sub, _ = induced_subgraph(g, comp)
            v = solve_3col(all_probe(sub))
            want = oracle_k_colourable(sub, 3)
            assert (v.status == COLOURABLE) == (want is not None)
            if v.status == COLOURABLE:
                assert verify_colouring(sub, v.colouring) is None

    def test_large_c5_blowup(self):
        g = c5_blowup(80)
        assert (g.n, g.m) == (400, 32_000)
        v = solve_3col(all_probe(g))
        assert v.status == COLOURABLE
        assert verify_colouring(g, v.colouring) is None

    def test_p4_blowup_with_hub(self):
        # parts A-B-C-D of 100, complete between consecutive parts, and a
        # hub complete to A and B: C5-free, so the C5 scan walks every
        # induced P3 of K unless it runs on one vertex per twin class
        a = 100
        edges = [(i * a + x, (i + 1) * a + y)
                 for i in range(3) for x in range(a) for y in range(a)]
        edges += [(v, 4 * a) for v in range(2 * a)]
        g = build_graph(4 * a + 1, edges)
        assert (g.n, g.m) == (401, 30_200)
        inst = all_probe(g)
        assert_colourable(inst, solve_3col(inst))

    def test_complete_tripartite(self):
        # the K4 test over every edge takes 67,500 x 150 common-neighbour
        # steps; over the three twin classes, 3 x 150
        g = complete_multipartite_graph([150] * 3)
        inst = all_probe(g)
        assert_colourable(inst, solve_3col(inst))


class TestReferenceCycle:
    def test_five_cycle_is_its_own_reference(self):
        g = cycle_graph(5)
        assert pick_reference_cycle(g, range(g.n)) == (0, 1, 2, 3, 4)

    def test_induced_c5_beats_triangle(self):
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (1, 5)]
        g = build_graph(6, edges)
        assert pick_reference_cycle(g, range(g.n)) == (0, 1, 2, 3, 4)

    def test_dominating_triangle(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert pick_reference_cycle(g, range(g.n)) == (0, 1, 2)

    def test_non_dominating_triangle_still_picked(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
        assert pick_reference_cycle(g, range(g.n)) == (0, 1, 2)

    def test_dominating_triangle_preferred_over_lex_least(self):
        # (0,1,2) misses vertex 5; (1,2,4) reaches everything
        edges = [(0, 1), (1, 2), (0, 2), (1, 4), (2, 4), (4, 5), (1, 3)]
        g = build_graph(6, edges)
        assert pick_reference_cycle(g, range(g.n)) == (1, 2, 4)

    def test_bipartite_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(ValueError):
            pick_reference_cycle(g, range(g.n))

    def test_long_odd_girth_breaks_promise(self):
        g = cycle_graph(9)
        with pytest.raises(PromiseViolation) as e:
            pick_reference_cycle(g, range(g.n))
        assert e.value.claim == "long-induced-odd-cycle"
        assert len(e.value.witnesses) == 9

    def test_c5_hidden_from_the_scan_comes_from_the_odd_girth(self):
        # triangle-free and not P5-free: at each of the 36 prefixes with D
        # and E nonempty, min D misses E, so the scan finds no C5; the
        # shortest odd cycle 5-8-9-7-10 is one
        edges = [(0, 1), (0, 3), (0, 8), (1, 9), (2, 3), (2, 4), (2, 10),
                 (3, 5), (4, 5), (5, 8), (5, 10), (6, 7), (7, 9), (7, 10),
                 (8, 9)]
        g = build_graph(11, edges)
        cycle = pick_reference_cycle(g, range(g.n))
        InducedEmbedding(pattern_graph("c5"), g, cycle)  # raises unless induced
        inst = all_probe(g)
        assert_colourable(inst, solve_3col(inst))

    def test_triangle_through_a_vertex_outside_k_is_ignored(self):
        # (0,1,2) dominates g, but vertex 0 lies outside K
        edges = [(0, 1), (0, 2), (0, 5), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
        g = build_graph(6, edges)
        assert pick_reference_cycle(g, range(g.n)) == (0, 1, 2)
        assert pick_reference_cycle(g, (1, 2, 3, 4, 5)) == (2, 3, 4)

    def test_domination_is_measured_inside_k(self):
        # (1,2,4) dominates K = 0..5 but misses vertex 6; no triangle
        # dominates g, so over all of g the least triangle wins
        edges = [(0, 1), (1, 2), (0, 2), (1, 4), (2, 4), (4, 5), (1, 3), (0, 6)]
        g = build_graph(7, edges)
        assert pick_reference_cycle(g, range(6)) == (1, 2, 4)
        assert pick_reference_cycle(g, range(g.n)) == (0, 1, 2)

    @staticmethod
    def outcome(g, kverts, back):
        """The reference cycle, or the refusal, with ids mapped by back."""
        try:
            return tuple(back[v] for v in pick_reference_cycle(g, kverts))
        except ValueError:
            return "bipartite"
        except PromiseViolation as pv:
            return pv.claim, tuple(back[v] for v in pv.witnesses)

    def test_mask_matches_search_of_the_copy(self):
        rng = random.Random(3)
        seen = collections.Counter()
        for _ in range(600):
            n = rng.randint(3, 12)
            if rng.random() < 0.3:  # plant a long odd cycle inside K
                k = rng.choice([c for c in (7, 9, 11) if c <= n] or [3])
                order = rng.sample(range(n), n)
                edges = {tuple(sorted((order[i], order[(i + 1) % k])))
                         for i in range(k)}
                edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.04}
                g = build_graph(n, edges)
                kverts = sorted(order[:k] + [v for v in order[k:]
                                             if rng.random() < 0.5])
            else:
                g = helpers.random_graph(n, rng.uniform(0.1, 0.6), rng)
                kverts = [v for v in range(n) if rng.random() < 0.75]
            sub, back = induced_subgraph(g, kverts)
            got = self.outcome(g, kverts, range(n))
            assert got == self.outcome(sub, range(sub.n), back)
            if got[0] == "long-induced-odd-cycle":
                assert len(got[1]) >= 7
            elif isinstance(got[0], int):  # the branches read from the table
                assert list(helpers.proper_assignments(
                    g, got, (0,) * n)) == [
                        dict(zip(got, c.values()))
                        for c in _CYCLE_COLOURINGS[len(got)]]
            seen[got if isinstance(got, str) else
                 got[0] if isinstance(got[0], str) else len(got)] += 1
        assert set(seen) == {3, 5, "bipartite", "long-induced-odd-cycle"}


def crown_with_triangle(k):
    """K_{k,k} minus a perfect matching, plus a vertex on its edge 0-(k+1):
    all probes, 3-colourable, and full of induced P5s."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i != j]
    return build_graph(2 * k + 1, edges + [(2 * k, 0), (2 * k, k + 1)])


def layers_with_triangle(k, depth=5):
    """``depth`` independent layers of k vertices, each joined to the next
    by K_{k,k} minus a perfect matching, plus a vertex on the edge
    0-(k+1)."""
    edges = [(i * k + x, (i + 1) * k + y) for i in range(depth - 1)
             for x in range(k) for y in range(k) if x != y]
    n = depth * k
    return build_graph(n + 1, edges + [(n, 0), (n, k + 1)])


class TestC5Scan:
    """The reference cycle's C5 scan, one step per induced P3 of K, against
    the full backtracking search: the same least C5 when G[K] is P5-free,
    and on any K either the same one or an induced P5 inside K that let the
    scan pass it by."""

    C5, P5 = pattern_graph("c5"), pattern_graph("p5")

    @staticmethod
    def p5free_draw(rng, seed):
        """A P5-free graph with shuffled ids: for one seed in three a
        ``gen_p5free_host`` on 5-40 vertices, else five of them on 1-8
        vertices each put in place of the vertices of a C5.  P5 has no
        nontrivial module, so the substitution keeps the graph P5-free."""
        if seed % 3 == 0:
            g = gen_p5free_host(rng.randint(5, 40), rng.uniform(0.2, 0.8), seed)
        else:
            parts = [gen_p5free_host(rng.randint(1, 8), rng.uniform(0.2, 0.8),
                                     (seed, i)) for i in range(5)]
            starts = [sum(p.n for p in parts[:i]) for i in range(6)]
            edges = [(starts[i] + a, starts[(i + 1) % 5] + b) for i in range(5)
                     for a in range(parts[i].n)
                     for b in range(parts[(i + 1) % 5].n)]
            g = build_graph(starts[5], list(disjoint_union(parts).edges) + edges)
        perm = rng.sample(range(g.n), g.n)
        return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])

    def scan_and_search(self, g, kverts):
        """(the least induced C5 of G[kverts] by full search, or None;
        pick_reference_cycle's cycle, "bipartite" or refusal claim)."""
        emb = find_induced_subgraph(g, self.C5, within=kverts)
        want = None if emb is None else _canonical_cycle(list(emb.image))
        try:
            got = pick_reference_cycle(g, kverts)
        except ValueError:
            got = "bipartite"
        except PromiseViolation as pv:
            got = pv.claim
        return want, got

    def test_least_c5_on_p5_free_graphs(self):
        rng = random.Random(19)
        seen = collections.Counter()
        for seed in range(3000):
            g = self.p5free_draw(rng, seed)
            kverts = [v for v in range(g.n) if rng.random() < 0.8]
            want, got = self.scan_and_search(g, kverts)
            if want is not None:
                assert got == want
            else:
                assert got == "bipartite" or len(got) == 3
            seen["c5" if want else got if isinstance(got, str) else 3] += 1
        assert seen["c5"] >= 1000 and seen[3] >= 500 and seen["bipartite"] >= 100

    def test_same_c5_or_an_induced_p5_on_random_graphs(self):
        rng = random.Random(23)
        seen = collections.Counter()
        for _ in range(2000):
            n = rng.randint(5, 14)
            g = helpers.random_graph(n, rng.uniform(0.15, 0.6), rng)
            kverts = [v for v in range(n) if rng.random() < 0.8]
            want, got = self.scan_and_search(g, kverts)
            if want is None:  # no C5 to find
                assert isinstance(got, str) or len(got) == 3
            elif got != want:
                assert find_induced_subgraph(g, self.P5, within=kverts)
                seen["passed by"] += 1
            seen["c5"] += want is not None
        assert seen["c5"] >= 300 and seen["passed by"] >= 1

    @pytest.mark.parametrize("make,k", [(crown_with_triangle, 5),
                                        (crown_with_triangle, 40),
                                        (layers_with_triangle, 3),
                                        (layers_with_triangle, 10)])
    def test_dense_promise_breakers_get_a_certified_verdict(self, make, k):
        # the full C5 search tries every d of every P3 on these; the scan
        # one.  Both are 3-colourable, so a verdict is a certified
        # colouring or a refusal with its witnesses
        g = make(k)
        assert find_induced_subgraph(g, self.P5) is not None
        v = solve_3col(all_probe(g))
        if v.status == NOT_PROBE_P5_FREE:
            assert v.diagnostic["witnesses"]
        else:
            assert_colourable(all_probe(g), v)


def _refusal_or(pick, *args):
    try:
        return pick(*args)
    except PromiseViolation as pv:
        return pv.claim, tuple(pv.witnesses)


class TestTwinScreens:
    """The K4 test and the reference cycle run on the component's twin
    kernel, one representative per false-twin class (its least probe, else
    its least member), and agree, mapped back to the component's ids, with
    the whole-K screens they replace (kept in helpers) on graphs with
    planted twins."""

    @staticmethod
    def draws():
        rng = random.Random(12)
        for _ in range(2400):
            yield helpers.twin_draw(rng)
        for seed in range(600):
            g = gen_p5free_host(rng.randint(5, 14), rng.uniform(0.3, 0.7), seed)
            nonprobes = set()
            for v in rng.sample(range(g.n), g.n):
                if rng.random() < 0.3 and not g.adj[v] & nonprobes:
                    nonprobes.add(v)
            yield g, nonprobes

    @staticmethod
    def odd_component(g, nonprobes):
        """The component of g around its only odd probe component K, as a
        copy, with K and the probes in the copy's ids; None unless exactly
        one is odd."""
        _, _, odd = two_colour_components(
            g, [v for v in range(g.n) if v not in nonprobes])
        if len(odd) != 1:
            return None
        comp = next(c for c in two_colour_components(g, range(g.n))[1]
                    if odd[0][0] in c)
        sub, back = induced_subgraph(g, comp)
        probes = frozenset(i for i, v in enumerate(back) if v not in nonprobes)
        return sub, tuple(sorted(back.index(v) for v in odd[0])), probes

    def test_match_the_whole_k_screens(self):
        seen = collections.Counter()
        for g, nonprobes in self.draws():
            found = self.odd_component(g, nonprobes)
            if found is None:
                continue
            sub, kverts, probes = found
            reps = helpers.twin_representatives(sub, range(sub.n), probes)[1]
            kernel, back = induced_subgraph(sub, sorted(reps))
            kk = tuple(i for i, v in enumerate(back) if v in kverts)
            k4 = find_k4(kernel, within=kk) is not None
            assert k4 == (helpers.whole_k4(sub) is not None)
            want = _refusal_or(helpers.whole_k_reference_cycle, sub, kverts)
            got = _refusal_or(pick_reference_cycle, kernel, kk)
            got = ((got[0], tuple(back[v] for v in got[1]))
                   if isinstance(got[0], str) else tuple(back[v] for v in got))
            assert got == want
            seen["draws"] += 1
            seen["twins"] += len(kk) < len(kverts)
            seen["k4"] += k4
            seen[want[0] if isinstance(want[0], str) else len(want)] += 1
        assert seen["draws"] >= 2000 and seen["twins"] >= 1000
        assert 500 <= seen["k4"] <= seen["draws"] - 500
        assert seen[3] >= 500 and seen[5] >= 300
        assert seen["long-induced-odd-cycle"] >= 1


class TestTwinKernel:
    """Each component with an odd probe component is solved on its twin
    kernel: one representative per class of false twins, the class's least
    probe or else its least member.  Every other twin of the component takes
    its representative's colour."""

    @staticmethod
    def visited(g, probes):
        """The vertices of the components that hold an odd probe component."""
        comp_of = {v: c for c in two_colour_components(g, range(g.n))[1]
                   for v in c}
        out = set()
        for part in two_colour_components(g, probes)[2]:
            out.update(comp_of[part[0]])
        return out

    def test_same_status_as_the_kernel_instance(self):
        seen = collections.Counter()
        for g, nonprobes in TestTwinScreens.draws():
            probes = frozenset(range(g.n)) - frozenset(nonprobes)
            inst = validate_probe_instance(g, probes, frozenset(nonprobes))
            index, reps = helpers.twin_representatives(g, range(g.n), probes)
            rep = [reps[c] for c in index]
            sub, back = induced_subgraph(g, sorted(reps))
            sub_probes = frozenset(i for i, v in enumerate(back) if v in probes)
            v = solve_3col(inst)
            w = solve_3col(validate_probe_instance(
                sub, sub_probes, frozenset(range(sub.n)) - sub_probes))
            assert v.status == w.status
            seen[v.status] += 1
            if v.status != COLOURABLE:
                continue
            twins = [u for u in self.visited(g, probes) if rep[u] != u]
            assert all(v.colouring[u] == v.colouring[rep[u]] for u in twins)
            seen["lifted"] += bool(twins)
            seen["nonprobe-lifted"] += any(u not in probes for u in twins)
        assert seen[COLOURABLE] >= 1200 and seen[NOT_COLOURABLE] >= 1200
        assert seen[NOT_PROBE_P5_FREE] >= 30
        assert seen["lifted"] >= 500 and seen["nonprobe-lifted"] >= 300

    def test_nonprobe_twin_of_a_probe_is_not_its_representative(self):
        # the diamond on 0..3 without edge 0-1: probe triangle 1-2-3 and
        # nonprobe 0 with N(0) = N(1) = {2, 3}.  Were 0 to represent 1, the
        # kernel's probe side would be the bare edge 2-3
        g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        inst = _probe_side(g, {0})
        v = solve_3col(inst)
        assert_colourable(inst, v)
        assert v.colouring[0] == v.colouring[1]

    def test_lift_when_the_kernel_order_is_not_the_class_order(self):
        # nonprobe 0 and probe 5 are false twins, N(0) = N(5) = {2, 3}; their
        # class is numbered first, but its representative 5 comes last in
        # the ascending kernel 1..5.  K is the probe triangle 2-3-4, and
        # probe 1 sees 2 and 4, so 1 and 5 take different colours in every
        # 3-colouring: a lift that read the kernel in class order would
        # hand 0 the colour of 1
        g = build_graph(6, [(0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4),
                            (2, 5), (3, 4), (3, 5)])
        inst = _probe_side(g, {0})
        assert oracle_is_probe_hfree(g, pattern_graph("p5"), {0}) is not None
        index, reps = helpers.twin_representatives(g, range(g.n), inst.probes)
        assert index == [0, 1, 2, 3, 4, 0] and reps == [5, 1, 2, 3, 4]
        v = solve_3col(inst)
        assert_colourable(inst, v)
        assert all(v.colouring[u] == v.colouring[reps[c]]
                   for u, c in enumerate(index))
        assert v.colouring[1] != v.colouring[5]
        sub, back = induced_subgraph(g, reps)
        assert back == (1, 2, 3, 4, 5)
        assert solve_3col(all_probe(sub)).status == v.status

    def test_kernel_refusal_names_input_ids(self):
        # a probe path through a nonprobe, and an all-probe C7 whose parts
        # 0 and 3 are doubled: nine vertices, a kernel of seven, refused
        # inside the kernel core for its shortest odd cycle
        parts = [(0, 1), (2,), (3,), (4, 5), (6,), (7,), (8,)]
        c7 = build_graph(9, [(a, b) for i in range(7) for a in parts[i]
                             for b in parts[(i + 1) % 7]])
        g = disjoint_union([path_graph(3), c7])
        perm = helpers.shuffled_permutation(g.n, random.Random(5))
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        v = solve_3col(_probe_side(h, {perm[1]}))
        assert v.diagnostic["claim"] == "long-induced-odd-cycle"
        wit = v.diagnostic["witnesses"]
        assert sorted(wit) == sorted(
            min(perm[3 + u] for u in part) for part in parts)
        # consecutive witnesses adjacent, no chord: an induced C7 of h
        assert all(h.has_edge(wit[i], wit[j]) == ((j - i) % 7 in (1, 6))
                   for i in range(7) for j in range(i + 1, 7))


class TestDominatingPair:
    def test_star_centre(self):
        g = build_graph(6, [(0, v) for v in range(1, 6)])
        assert find_dominating_pair(g, range(6), range(1, 6)) == (0,)

    def test_short_path_pair(self):
        g = path_graph(4)
        # (0, 2) covers both endpoints and precedes (1, 2) lexicographically
        assert find_dominating_pair(g, range(4), {0, 3}) == (0, 2)

    def test_long_path_impossible(self):
        g = path_graph(7)
        assert find_dominating_pair(g, range(7), {0, 3, 6}) is None

    def test_no_targets(self):
        assert find_dominating_pair(path_graph(3), range(3), ()) == ()

    def test_restricted_candidate_set(self):
        g = path_graph(4)
        assert find_dominating_pair(g, {1, 2}, {0, 3}) == (1, 2)


class TestCaseDecomposition:
    def fixture(self):
        # probe triangle 0-1-2 coloured (1,2,3), probe 3 pending on colour 1,
        # probe 6 pending on 3 only, nonprobe 4 watching two coloured
        # triangle corners, nonprobe 5 hanging on probe 3 alone
        g = build_graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 4),
                            (3, 5), (3, 6)])
        probes = frozenset({0, 1, 2, 3, 6})
        psi = (1, 2, 3, 0, 0, 0, 0)
        return g, helpers.make_case_decomposition(g, probes, probes, psi)

    def test_k_classes(self):
        _, d = self.fixture()
        # 6 sees no colour; 3 sees only colour 1, so 5 is removed with it
        assert d.k_r == frozenset({6})
        assert d.removed_lr == ((5, 1),)

    def test_nonprobe_with_two_coloured_neighbours(self):
        _, d = self.fixture()
        # 4 sees two colours and no I vertex: in none of the kept sets
        assert d.l_r == frozenset({5})
        assert d.m_r == frozenset()
        assert d.m_u == (frozenset(), frozenset(), frozenset())
        assert d.j_vertices == frozenset() and d.j_components == ()

    def test_i_side_splits_m_from_l(self):
        # probes: triangle 0-1-2 and far edge 3-4; nonprobes 5 (on I) and 6
        g = build_graph(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (0, 5), (0, 6)]
        )
        psi = (1, 2, 3, 0, 0, 0, 0)
        d = helpers.make_case_decomposition(
            g, frozenset(range(5)), frozenset({0, 1, 2}), psi
        )
        assert d.m_u == (frozenset({5}), frozenset(), frozenset())
        assert d.m_r == frozenset() and d.l_r == frozenset()
        assert d.j_vertices == frozenset({3, 4})
        assert d.j_components == (((3, 4), (1, 2)),)

    def test_j_mixing_violates_promise(self):
        # I-component {4, 5}: 4 touches the M_c vertex 6, 5 does not
        g = build_graph(
            7, [(0, 1), (1, 2), (0, 2), (4, 5), (4, 6), (0, 6), (1, 6), (3, 6)]
        )
        psi = (1, 2, 3, 0, 0, 0, 0)
        with pytest.raises(PromiseViolation) as e:
            helpers.make_case_decomposition(
                g, frozenset(range(6)), frozenset({0, 1, 2}), psi
            )
        assert e.value.claim == "j-not-component-closed"

    def test_single_class_lr_removal(self):
        # 4 and 5 are K_u[1] probes; nonprobe 6 sees only them, so it is
        # removed with recorded colour 1
        g = build_graph(
            7, [(0, 1), (1, 2), (0, 2), (0, 4), (0, 5), (4, 6), (5, 6), (3, 0)]
        )
        psi = (1, 2, 3, 0, 0, 0, 0)
        d = helpers.make_case_decomposition(
            g, frozenset(range(6)), frozenset(range(6)), psi
        )
        assert d.k_r == frozenset()
        assert d.l_r == frozenset({6})
        assert d.removed_lr == ((6, 1),)


class TestFinalize:
    def dummy(self, **overrides):
        empty3 = (frozenset(), frozenset(), frozenset())
        base = dict(
            k_r=frozenset(), m_u=empty3, m_r=frozenset(), l_r=frozenset(),
            j_vertices=frozenset(), j_components=(), removed_lr=(),
        )
        base.update(overrides)
        return CaseDecomposition(**base)

    def test_deferred_nonprobe_takes_remaining_colour(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        d = self.dummy(m_r=frozenset({0}))
        out = helpers.finalize_extension(g, d, (0, 1, 2))
        assert out == (3, 1, 2)

    def test_removed_vertex_replays_recorded_colour(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        d = self.dummy(l_r=frozenset({0}), removed_lr=((0, 1),))
        out = helpers.finalize_extension(g, d, (0, 2, 2))
        assert out == (1, 2, 2)

    def test_saturated_nonprobe_breaks_promise(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        d = self.dummy(m_r=frozenset({0}))
        with pytest.raises(PromiseViolation) as e:
            helpers.finalize_extension(g, d, (0, 1, 2, 3))
        assert e.value.claim == "no-free-colour"

    def test_isolated_j_takes_single_class_colour(self):
        g = build_graph(2, [(0, 1)])
        d = self.dummy(
            j_vertices=frozenset({1}), j_components=(((1,), (1,)),),
            m_u=(frozenset(), frozenset({9}), frozenset()),
        )
        out = helpers.finalize_extension(g, d, (1, 0))
        assert out == (1, 2)

    def test_even_j_component_gets_bipartition_palette(self):
        # J path 1-2 attached to vertex 0 of colour 3; its 2-colouring
        # (1, 2) maps onto the palette (1, 2) left beside colour 3
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        d = self.dummy(j_vertices=frozenset({1, 2}),
                       j_components=(((1, 2), (1, 2)),))
        out = helpers.finalize_extension(g, d, (3, 0, 0))
        assert out == (3, 1, 2)


class TestCaseTwoEndToEnd:
    def test_probe_triangle_with_pending_edge(self):
        # K = triangle, I = probe edge, single M_u class, J = I
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (5, 3), (5, 0), (6, 0)]
        g = build_graph(7, edges)
        inst = validate_probe_instance(g, frozenset(range(5)), frozenset({5, 6}))
        v = solve_3col(inst)
        assert_colourable(inst, v)

    def test_deferred_nonprobe_attached_to_j_component(self):
        # probe edge 5-6 hangs on nonprobe 3 (one cycle neighbour) and on
        # nonprobe 2, which has no coloured neighbour at all; 2 must wait
        # for its free colour instead of vetoing the component
        edges = [(0, 1), (0, 4), (1, 4), (2, 6), (3, 4), (3, 5), (3, 6),
                 (5, 6)]
        g = build_graph(7, edges)
        inst = validate_probe_instance(
            g, frozenset({0, 1, 4, 5, 6}), frozenset({2, 3}))
        v = solve_3col(inst)
        assert_colourable(inst, v)

    def test_two_mu_classes_fork_on_witness(self):
        # nonprobes 4 and 5 watch different triangle corners through probe 3
        edges = [(0, 1), (1, 2), (0, 2), (4, 3), (4, 0), (5, 3), (5, 1)]
        g = build_graph(6, edges)
        inst = validate_probe_instance(g, frozenset(range(4)), frozenset({4, 5}))
        assert oracle_is_probe_hfree(g, pattern_graph("p5"), {4, 5}) is not None
        assert_colourable(inst, solve_3col(inst))

    def test_unfillable_instance_reports_violation(self):
        # the only possible fill (5, 6) cannot break the path 2-0-5-3-4
        edges = [
            (0, 1), (1, 2), (0, 2), (3, 4),
            (5, 3), (5, 0), (6, 4), (6, 1),
        ]
        g = build_graph(7, edges)
        assert oracle_is_probe_hfree(g, pattern_graph("p5"), {5, 6}) is None
        inst = validate_probe_instance(g, frozenset(range(5)), frozenset({5, 6}))
        v = solve_3col(inst)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic["claim"] == "open-list-too-long"

    @pytest.mark.parametrize("seed", range(40))
    def test_split_pure_matches_oracle(self, seed):
        n = 8 + seed % 7
        inst = gen_probe_instance(n, 0.3 + 0.05 * (seed % 9), seed, family="split-pure")
        v = solve_3col(inst)
        want = oracle_k_colourable(inst.graph, 3)
        assert (v.status == COLOURABLE) == (want is not None)
        if v.status == COLOURABLE:
            assert verify_colouring(inst.graph, v.colouring) is None


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("family", [None, "pentagon", "union", "trianglefree"])
    def test_generated_instances(self, seed, family):
        n = 8 + (seed * 3 + (hash(family) % 5)) % 10
        inst = gen_probe_instance(n, 0.45, (family, seed), family=family)
        v = solve_3col(inst)
        assert v.status in (COLOURABLE, NOT_COLOURABLE)
        want = oracle_k_colourable(inst.graph, 3)
        assert (v.status == COLOURABLE) == (want is not None)
        if v.colouring is not None:
            assert verify_colouring(inst.graph, v.colouring) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_relabelling_keeps_the_status(self, seed):
        inst = gen_probe_instance(10 + seed % 5, 0.5, ("perm", seed))
        rng = random.Random(seed)
        perm = helpers.shuffled_permutation(inst.graph.n, rng)
        other = helpers.permute_instance(inst, perm)
        assert solve_3col(inst).status == solve_3col(other).status


class TestBudgets:
    @pytest.mark.parametrize("family", ["pentagon", "split-pure", "union"])
    def test_component_two_sat_stays_within_budget(self, family):
        inst = gen_probe_instance(40, 0.5, 17, family=family)
        v = solve_3col(inst)
        assert v.status == COLOURABLE
        assert all(
            c <= helpers.COMPONENT_TWO_SAT_BUDGET
            for c in v.stats.component_two_sat_calls
        )


def _run_python(args):
    """Run a fresh interpreter on this checkout's package; return stdout."""
    import probe_chroma

    src = str(Path(probe_chroma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestNoNumpy:
    def test_every_module_works_without_numpy(self):
        code = (
            "import importlib, pkgutil, sys\n"
            "sys.modules['numpy'] = None\n"
            "import probe_chroma\n"
            "names = sorted(m.name for m in pkgutil.iter_modules(probe_chroma.__path__))\n"
            "for name in names:\n"
            "    importlib.import_module('probe_chroma.' + name)\n"
            "from probe_chroma.graphs import cycle_graph, validate_probe_instance\n"
            "from probe_chroma.solver import solve_3col\n"
            "inst = validate_probe_instance(cycle_graph(5), range(5), ())\n"
            "print(' '.join(names))\n"
            "print(solve_3col(inst).status)\n"
        )
        names, status = _run_python(["-c", code]).splitlines()
        assert {"cli", "graphs", "solver"} <= set(names.split())
        assert status == COLOURABLE


class TestScaling:
    @staticmethod
    def disjoint_edges(k):
        g = build_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
        return validate_probe_instance(
            g, frozenset(range(0, 2 * k, 2)), frozenset(range(1, 2 * k, 2))
        )

    @staticmethod
    def solve_s(inst):
        t0 = time.perf_counter()
        v = solve_3col(inst)
        assert v.status == COLOURABLE
        return time.perf_counter() - t0

    def test_many_components_scale_linearly(self):
        # the per-component loop must not rescan the whole edge list; runs
        # alternate so that a slow spell of the host hits both sizes
        small_inst, large_inst = self.disjoint_edges(500), self.disjoint_edges(4000)
        small, large = [], []
        for _ in range(3):
            small.append(self.solve_s(small_inst))
            large.append(self.solve_s(large_inst))
        assert statistics.median(large) / statistics.median(small) < 12


class TestNoWorkingCopies:
    """One 2-colouring pass over the probe side writes the solve's colouring
    list: every component whose probe side is bipartite keeps what the pass
    wrote, with no twin grouping and no copy.  Only a component with an odd
    probe component is found, by one search from that odd part that groups
    it into classes of false twins, and visited.  Its twin kernel is copied
    on its way to the reference cycle, unless the kernel is the whole
    input."""

    @staticmethod
    def count_copies(monkeypatch, inst):
        from probe_chroma import solver

        calls = {"induced_subgraph": 0, "_case2_attempt": 0,
                 "pick_reference_cycle": 0, "make_case_decomposition": 0,
                 "two_colour_components": 0, "twin_classes": 0,
                 "_twin_kernel": 0}
        seen = collections.defaultdict(list)  # name -> (args, result) per call

        def counted(name):
            real = getattr(solver, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = real(*args, **kwargs)
                # the pass's colour list is finished in place: keep a copy
                seen[name].append((args, out if name != "two_colour_components"
                                   else (list(out[0]), out[2])))
                return out
            monkeypatch.setattr(solver, name, wrapper)

        for name in calls:
            counted(name)
        assert not hasattr(solver, "connected_components")
        v = solve_3col(inst)
        assert_colourable(inst, v)
        # the one probe-side pass, over the whole input; beyond it only a
        # |C| = 3 decomposition with J nonempty 2-colours the probe
        # components outside K
        (args, (written, odd)), *rest = seen["two_colour_components"]
        assert args == (inst.graph, inst.probes)
        assert len(rest) == sum(
            1 for _, decomp in seen["make_case_decomposition"]
            if decomp.j_vertices)
        # one class search and one kernel per component with an odd part,
        # none elsewhere; each search starts at an odd part and groups its
        # whole component by neighbour set
        searched = []
        for (_, start), classes in seen["twin_classes"]:
            assert any(p[0] == start for p in odd)
            members = sorted(u for group in classes.values() for u in group)
            assert all(inst.graph.adj[u] == adj
                       for adj, group in classes.items() for u in group)
            searched.append(tuple(members))
        comps = two_colour_components(inst.graph, range(inst.graph.n))[1]
        comp_of = {u: tuple(sorted(c)) for c in comps for u in c}
        assert sorted(searched) == sorted({comp_of[p[0]] for p in odd})
        assert len(v.stats.component_two_sat_calls) == calls["twin_classes"]
        assert calls["_twin_kernel"] == calls["twin_classes"]
        # every vertex outside them keeps the colour the pass wrote
        visited = set().union(*searched)
        assert all(v.colouring[u] == written[u]
                   for u in range(inst.graph.n) if u not in visited)
        return calls, len(comps)

    def test_large_path_split(self, monkeypatch):
        # one component with a bipartite probe side: coloured in place
        inst = gen_probe_instance(2000, 0.4, 7, family="path-split")
        calls, comps = self.count_copies(monkeypatch, inst)
        assert comps == 1
        assert calls["induced_subgraph"] == 0

    def test_case_three_with_j_component(self, monkeypatch):
        calls, comps = self.count_copies(monkeypatch, _j_component_instance())
        assert calls["_case2_attempt"] >= 1
        # J is nonempty: its decomposition 2-colours the probes outside K
        assert calls["two_colour_components"] == 2
        assert comps == 1
        assert calls["induced_subgraph"] == 0

    def test_one_copy_per_component_with_an_odd_probe_side(self, monkeypatch):
        calls, comps = self.count_copies(monkeypatch, _mixed_components_instance())
        assert comps == 5
        assert calls["twin_classes"] == 3
        assert calls["pick_reference_cycle"] == 3
        assert calls["induced_subgraph"] == calls["pick_reference_cycle"]

    def test_many_components_with_bipartite_probe_sides(self, monkeypatch):
        # isolated probes and nonprobes, bare edges, probe P4s, triangles
        # through a nonprobe and all-probe C6s, 42 pieces interleaved
        tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        pieces = [(path_graph(1), ()), (path_graph(1), (0,)),
                  (path_graph(2), (1,)), (path_graph(4), ()), (tri, (2,)),
                  (cycle_graph(6), ())] * 7
        g = disjoint_union([piece for piece, _ in pieces])
        nonprobes, offset = set(), 0
        for piece, local in pieces:
            nonprobes.update(offset + v for v in local)
            offset += piece.n
        perm = helpers.shuffled_permutation(g.n, random.Random(3))
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        inst = _probe_side(h, {perm[v] for v in nonprobes})
        calls, comps = self.count_copies(monkeypatch, inst)
        assert comps == 42
        assert calls["twin_classes"] == 0
        assert calls["induced_subgraph"] == 0
        assert calls["pick_reference_cycle"] == 0
        assert solve_3col(inst).stats.component_two_sat_calls == []


class TestLayerCalls:
    """Every propagation and 2-SAT round a solve runs is a call of
    ``propagation.propagate`` or ``listcol.extend_by_2list``, the names the
    benchmark's per-layer spans wrap.  The counts are pinned, so a private
    core that bypassed either name would fail here instead of zeroing the
    per-layer metrics."""

    CASES = {
        "j-component": (lambda: _j_component_instance(), 2, 1),
        "many-pieces": (lambda: _many_piece_instance(), 38, 26),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rounds_go_through_the_traced_names(self, case, monkeypatch):
        from probe_chroma import listcol, propagation

        build, propagations, rounds = self.CASES[case]
        calls = collections.Counter()
        for module, name in ((propagation, "propagate"),
                             (listcol, "extend_by_2list")):
            real = getattr(module, name)

            def wrapper(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            # bind it wherever the solver modules imported the name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.partition(".")[0] == "probe_chroma":
                    for attr, value in list(vars(mod).items()):
                        if value is real:
                            monkeypatch.setattr(mod, attr, wrapper)
        inst = build()
        v = solve_3col(inst)
        assert_colourable(inst, v)
        assert calls["propagate"] == propagations
        assert calls["extend_by_2list"] == v.stats.two_sat_calls == rounds


class TestRowsRead:
    """A solve builds bit rows only for the vertices its searches read.  On
    one large component with few false-twin classes, the searches read the
    rows of the small twin kernel, a copy, and build at most a handful of
    the input's."""

    @pytest.mark.parametrize("family", ["pentagon", "split-pure"])
    def test_a_handful_of_rows(self, family):
        inst = gen_probe_instance(2000, 0.4, 7, family=family)
        assert len(two_colour_components(
            inst.graph, range(inst.graph.n))[1]) == 1
        assert_colourable(inst, solve_3col(inst))
        assert len(inst.graph.bitrows()) <= 10


class TestRefusalsInLaterComponents:
    """A refusal raised in a component that is not the first names the
    input's vertex ids, exactly as when every component was copied."""

    def test_long_odd_cycle(self):
        # components (0, 1, 5, 6): a probe path; (2, 3, 4, 7, 8, 9, 10): C7
        edges = [(0, 6), (1, 5), (2, 7), (2, 8), (3, 9), (3, 10), (4, 7),
                 (4, 10), (5, 6), (8, 9)]
        inst = _probe_side(build_graph(11, edges), {0, 5})
        v = solve_3col(inst)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic == {
            "claim": "long-induced-odd-cycle",
            "witnesses": [2, 7, 4, 10, 3, 9, 8],
            "detail": "shortest odd cycle has length 7; only 3 or 5 can occur",
        }


class TestProperAssignments:
    @staticmethod
    def random_case(rng):
        n = rng.randint(1, 9)
        g = helpers.random_graph(n, rng.uniform(0.1, 0.7), rng)
        colours = [0] * n
        for v in rng.sample(range(n), rng.randint(0, n)):
            if rng.random() < 0.2:  # may clash with a coloured neighbour
                colours[v] = rng.randint(1, 3)
                continue
            free = {1, 2, 3} - {colours[w] for w in g.adj[v]}
            if free:
                colours[v] = rng.choice(sorted(free))
        verts = rng.sample(range(n), rng.randint(0, min(n, 6)))
        return g, tuple(colours), tuple(verts)

    def test_matches_product_and_filter(self):
        rng = random.Random(2024)
        mixed = nonempty = 0
        for _ in range(600):
            g, base, verts = self.random_case(rng)
            got = list(helpers.proper_assignments(g, verts, base))
            assert got == list(helpers.brute_proper_assignments(g, verts, base))
            fixed = sum(1 for v in verts if base[v])
            mixed += 0 < fixed < len(verts)
            nonempty += bool(got)
        assert mixed >= 100 and nonempty >= 200

    def test_clashing_fixed_vertices_yield_nothing(self):
        g = path_graph(3)
        base = (2, 2, 0)
        assert list(helpers.proper_assignments(g, (0, 1, 2), base)) == []
        assert list(helpers.proper_assignments(g, (2, 1, 0), base)) == []

    def test_order_follows_the_given_vertices(self):
        base = (0,) * 3
        out = list(helpers.proper_assignments(triangle, (2, 0, 1), base))
        assert out[0] == {2: 1, 0: 2, 1: 3}
        assert out[1] == {2: 1, 0: 3, 1: 2}
        assert len(out) == 6

    @pytest.mark.parametrize("k, count", [(3, 6), (5, 30)])
    def test_cycle_table_is_the_blank_cycle_in_order(self, k, count):
        want = list(helpers.proper_assignments(
            cycle_graph(k), range(k), (0,) * k))
        assert list(_CYCLE_COLOURINGS[k]) == want
        assert len(want) == count


class TestK4TestPlacement:
    """The K4 test runs once on each component with an odd probe component,
    over its odd parts: nonprobes are independent, so a K4 holds a probe
    triangle."""

    @staticmethod
    def count_k4_calls(monkeypatch, inst):
        from probe_chroma import solver

        calls = []
        real = solver.find_k4

        def counted(g, *args, **kwargs):
            calls.append(g)
            return real(g, *args, **kwargs)
        monkeypatch.setattr(solver, "find_k4", counted)
        return solve_3col(inst), len(calls)

    def test_large_path_split(self, monkeypatch):
        inst = gen_probe_instance(2000, 0.4, 7, family="path-split")
        v, calls = self.count_k4_calls(monkeypatch, inst)
        assert_colourable(inst, v)
        assert calls == 0

    def test_bipartite_probe_pieces(self, monkeypatch):
        # a triangle through a nonprobe, the wheel over C4 with a nonprobe
        # hub, and an all-probe C6: triangles, but no odd probe component
        tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        wheel = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]
                            + [(i, 4) for i in range(4)])
        g = disjoint_union([tri, wheel, cycle_graph(6)])
        inst = validate_probe_instance(
            g, frozenset(range(g.n)) - {2, 7}, frozenset({2, 7}))
        v, calls = self.count_k4_calls(monkeypatch, inst)
        assert_colourable(inst, v)
        assert calls == 0

    def test_one_odd_probe_component(self, monkeypatch):
        # K4 of probes plus a pendant nonprobe: one odd probe component
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (3, 4)])
        inst = validate_probe_instance(g, frozenset(range(4)), frozenset({4}))
        v, calls = self.count_k4_calls(monkeypatch, inst)
        assert v.status == NOT_COLOURABLE
        assert calls == 1

    def test_k4_beside_a_second_odd_probe_component(self, monkeypatch):
        # probe K4 on 0..3 and probe triangle 4-5-6, joined by nonprobe 7
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(4, 5), (5, 6), (4, 6), (0, 7), (4, 7)]
        inst = validate_probe_instance(
            build_graph(8, edges), frozenset(range(7)), frozenset({7}))
        v, calls = self.count_k4_calls(monkeypatch, inst)
        assert v.status == NOT_COLOURABLE
        assert calls == 1


class TestComponentOrder:
    """Components are visited by least member, so the verdict comes from the
    first component, in that order, that has no 3-colouring or is refused,
    even where the order of the odd probe components differs."""

    # (graph, its one nonprobe) of a component with no 3-colouring: two
    # probe triangles through a nonprobe complete to the first, and a probe
    # K4 with a pendant nonprobe
    NO = {
        "two-odd": (build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                    (3, 5), (0, 6), (1, 6), (2, 6),
                                    (3, 6)]), 6),
        "k4": (build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                               (2, 3), (3, 4)]), 4),
    }
    # an all-probe C7 with a pendant nonprobe: refused
    C7 = (build_graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7)]), 7)

    @staticmethod
    def place(first, second, nonprobe_leads):
        """The two pieces on consecutive ids, ``first`` before ``second``;
        with ``nonprobe_leads`` only first's nonprobe comes before second,
        so first holds the least member but second the least odd part."""
        (g1, x1), (g2, x2) = first, second
        seq = [(1, v) for v in range(g2.n)]
        if nonprobe_leads:
            seq = [(0, x1)] + seq + [(0, v) for v in range(g1.n) if v != x1]
        else:
            seq = [(0, v) for v in range(g1.n)] + seq
        ids = {key: i for i, key in enumerate(seq)}
        edges = [(ids[k, u], ids[k, v])
                 for k, g in enumerate((g1, g2)) for u, v in g.edges]
        inst = _probe_side(build_graph(len(seq), edges), {ids[0, x1], ids[1, x2]})
        return inst, {i for (k, _), i in ids.items() if k == 0}

    @pytest.mark.parametrize("no", sorted(NO))
    def test_no_piece_keeps_the_promise_without_a_colouring(self, no):
        g, nonprobe = self.NO[no]
        assert oracle_k_colourable(g, 3) is None
        assert oracle_is_probe_hfree(g, pattern_graph("p5"), {nonprobe})

    @pytest.mark.parametrize("nonprobe_leads", [False, True])
    @pytest.mark.parametrize("no", sorted(NO))
    def test_no_colouring_first(self, no, nonprobe_leads):
        inst, _ = self.place(self.NO[no], self.C7, nonprobe_leads)
        assert solve_3col(inst).status == NOT_COLOURABLE

    @pytest.mark.parametrize("nonprobe_leads", [False, True])
    @pytest.mark.parametrize("no", sorted(NO))
    def test_refusal_first(self, no, nonprobe_leads):
        inst, c7 = self.place(self.C7, self.NO[no], nonprobe_leads)
        v = solve_3col(inst)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic["claim"] == "long-induced-odd-cycle"
        assert set(v.diagnostic["witnesses"]) == c7 - inst.nonprobes


def _j_component_instance():
    edges = [(0, 1), (0, 4), (1, 4), (2, 6), (3, 4), (3, 5), (3, 6), (5, 6)]
    return validate_probe_instance(
        build_graph(7, edges), frozenset({0, 1, 4, 5, 6}), frozenset({2, 3}))


def _mixed_components_instance():
    """Five interleaved components: an all-probe C5, the J fixture of
    :func:`_j_component_instance` and a probe triangle with a pendant reach
    the reference cycle; a P4 and a triangle through a nonprobe have
    bipartite probe sides."""
    edges = [(0, 7), (0, 14), (1, 5), (1, 15), (1, 17), (2, 3), (2, 15),
             (2, 22), (3, 22), (4, 10), (4, 12), (6, 12), (7, 14), (8, 11),
             (8, 16), (8, 19), (9, 13), (9, 20), (11, 16), (13, 21), (15, 17),
             (18, 20), (18, 21)]
    return _probe_side(build_graph(23, edges), {0, 4, 5, 6, 15})


def _many_piece_instance():
    """60 generator instances of 3-12 vertices from five families, each kept
    when it is 3-colourable, in one input with interleaved ids: 26 pieces
    reach the reference cycle, 14 at a C5 and 12 at a triangle."""
    families = (None, "path-split", "pentagon", "split-pure", "trianglefree")
    rng = random.Random(5)
    pieces = []
    for i in range(60):
        inst = gen_probe_instance(3 + i % 10, rng.uniform(0.15, 0.7),
                                  ("spy", i), family=families[i % 5])
        if oracle_k_colourable(inst.graph, 3) is not None:
            pieces.append(inst)
    g = disjoint_union([p.graph for p in pieces])
    nonprobes, offset = set(), 0
    for p in pieces:
        nonprobes.update(offset + v for v in p.nonprobes)
        offset += p.graph.n
    perm = helpers.shuffled_permutation(g.n, rng)
    h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return _probe_side(h, {perm[v] for v in nonprobes})


def _unfillable_instance():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (5, 3), (5, 0), (6, 4), (6, 1)]
    return validate_probe_instance(
        build_graph(7, edges), frozenset(range(5)), frozenset({5, 6}))


def _probe_side(g, nonprobes):
    nset = frozenset(nonprobes)
    return validate_probe_instance(g, frozenset(range(g.n)) - nset, nset)


class TestNoCyclicGarbage:
    """A solve frees what it allocates by reference counting alone; a
    reference cycle would keep graphs and bitrows alive until the cyclic
    collector runs."""

    CASES = {
        "c5": (lambda: solve_3col(all_probe(cycle_graph(5))), COLOURABLE),
        "c3-j": (lambda: solve_3col(_j_component_instance()), COLOURABLE),
        "refusal-c7": (lambda: solve_3col(all_probe(cycle_graph(7))),
                       NOT_PROBE_P5_FREE),
        "refusal-open-list": (lambda: solve_3col(_unfillable_instance()),
                              NOT_PROBE_P5_FREE),
        "p3sp1-small-p": (lambda: solve_3col_p3sp1(
            _probe_side(path_graph(4), ()), 1), COLOURABLE),
        "p3sp1-branching": (lambda: solve_3col_p3sp1(_probe_side(build_graph(
            7, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (6, 3), (6, 0),
                (6, 5)]), {6}), 1), COLOURABLE),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solve_leaves_no_cyclic_garbage(self, case):
        solve, status = self.CASES[case]
        gc.collect()
        gc.disable()
        try:
            verdict = solve()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert verdict.status == status
