import collections
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import helpers
from probe_chroma.errors import (
    CapabilityError,
    GraphConstructionError,
    IndependenceError,
    PartitionError,
)
from probe_chroma.graphs import (
    Graph,
    InducedEmbedding,
    build_graph,
    complete_graph,
    cycle_graph,
    find_induced_subgraph,
    find_k4,
    induced_subgraph,
    iter_bits,
    matching_graph,
    path_graph,
    pattern_graph,
    shortest_odd_cycle,
    twin_classes,
    two_colour_components,
    validate_probe_instance,
)

graphs_st = st.integers(2, 8).flatmap(
    lambda n: st.builds(
        lambda seed, p: helpers.random_graph(n, p, random.Random(seed)),
        st.integers(0, 10**6), st.floats(0.1, 0.9),
    )
)


class TestBuildGraph:
    def test_deduplicates_edges(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 1)])
        assert g.m == 2

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphConstructionError):
            build_graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            build_graph(2, [(0, 5)])

    def test_adjacency_symmetric(self):
        g = build_graph(4, [(2, 0), (1, 3)])
        assert 0 in g.adj[2] and 2 in g.adj[0]
        assert g.has_edge(3, 1)

    def test_normalised_edge_tuples_are_kept(self):
        kept, flipped = (0, 2), (3, 1)
        g = build_graph(4, [kept, flipped, [1, 2]])
        assert g.edges == ((0, 2), (1, 2), (1, 3))
        assert g.edges[0] is kept
        assert all(type(e) is tuple for e in g.edges)

    def test_equality_and_hash(self):
        a = build_graph(3, [(0, 1)])
        b = build_graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != build_graph(3, [(0, 2)])


class TestValidateProbeInstance:
    def test_valid_path_partition(self):
        g = path_graph(4)
        inst = validate_probe_instance(g, frozenset({0, 2}), frozenset({1, 3}))
        assert inst.probes == frozenset({0, 2})

    def test_edge_inside_nonprobes(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(IndependenceError) as e:
            validate_probe_instance(g, frozenset({0, 2}), frozenset({1, 3}))
        assert e.value.edge == (1, 3)

    def test_partition_must_cover(self):
        g = path_graph(4)
        with pytest.raises(PartitionError):
            validate_probe_instance(g, frozenset({0}), frozenset({0, 1, 2, 3}))
        with pytest.raises(PartitionError):
            validate_probe_instance(g, frozenset({0}), frozenset({1}))


class TestTwinClasses:
    def test_pentagon_blowup(self):
        # parts {0, 5}, {1}, {2, 6, 7}, {3}, {4} of a C5
        part = [0, 1, 2, 3, 4, 0, 2, 2]
        g = build_graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                            if (part[u] - part[v]) % 5 in (1, 4)])
        classes = twin_classes(g, 3)
        found = [sorted(m) for m in classes.values()]
        assert found[0] == [3]
        assert sorted(found) == [[0, 5], [1], [2, 6, 7], [3], [4]]
        assert all(g.adj[v] == adj for adj, m in classes.items() for v in m)

    def test_isolated_vertex(self):
        assert twin_classes(build_graph(3, [(0, 1)]), 2) == {frozenset(): [2]}

    def test_matches_component_and_grouping(self):
        rng = random.Random(29)
        twins = 0
        for _ in range(1500):
            g, _ = helpers.twin_draw(rng)
            parts = two_colour_components(g, range(g.n))[1]
            for s in rng.sample(range(g.n), 3):
                comp = sorted(next(p for p in parts if s in p))
                classes = twin_classes(g, s)
                members = [v for m in classes.values() for v in m]
                assert sorted(members) == comp
                assert next(iter(classes.values()))[0] == s
                grouped = collections.defaultdict(list)
                for v in comp:
                    grouped[g.adj[v]].append(v)
                assert {adj: sorted(m) for adj, m in classes.items()} == grouped
                twins += len(classes) < len(comp)
        assert twins >= 1000


class TestTwoColourComponents:
    def test_subset_of_a_path(self):
        # vertex 2 left out splits the path; the triangle 4-5-6 is odd
        g = build_graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
        colours, parts, odd = two_colour_components(g, [6, 5, 4, 3, 1, 0])
        assert colours[:4] == [1, 2, 3, 1] and colours[4] == 1
        assert [sorted(p) for p in parts] == [[0, 1], [3], [4, 5, 6]]
        assert odd == [parts[2]]

    def test_empty_subset(self):
        assert two_colour_components(cycle_graph(5), ()) == ([3] * 5, [], [])

    def test_agrees_with_copy_and_bipartition(self):
        rng = random.Random(5)
        odd_seen = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            g = helpers.random_graph(n, rng.uniform(0.1, 0.6), rng)
            subset = [v for v in range(n) if rng.random() < 0.7]
            sub, back = induced_subgraph(g, subset)
            colours, parts, odd = two_colour_components(g, subset)
            assert len(colours) == n
            assert all(colours[v] == 3 for v in range(n) if v not in subset)
            # one part per component of the copy, by least member, each
            # listed in breadth-first order from its least member
            ref = nx.Graph(sub.edges)
            ref.add_nodes_from(range(sub.n))
            comps = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
            assert [tuple(sorted(p)) for p in parts] == [
                tuple(back[v] for v in comp) for comp in comps]
            assert all(p[0] == min(p) for p in parts)
            want_odd = []
            for part, comp in zip(parts, comps):
                assert colours[part[0]] == 1
                # the first proper 2-colouring puts colour 1 on the least
                # member, as the pass does on a bipartite part
                h = induced_subgraph(sub, comp)[0]
                cols = next(helpers.brute_colourings(h, 2), None)
                if cols is None:
                    want_odd.append(part)
                else:
                    assert [colours[back[v]] for v in comp] == list(cols)
            assert odd == want_odd
            odd_seen += len(odd)
        assert odd_seen > 0


class TestShortestOddCycle:
    def test_triangle_with_pendant(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert shortest_odd_cycle(g) == (0, 1, 2)

    def test_seven_cycle(self):
        cyc = shortest_odd_cycle(cycle_graph(7))
        assert len(cyc) == 7

    def test_bipartite_none(self):
        assert shortest_odd_cycle(path_graph(6)) is None
        assert shortest_odd_cycle(cycle_graph(8)) is None

    @given(graphs_st)
    def test_length_matches_brute_and_chordless(self, g):
        cyc = shortest_odd_cycle(g)
        want = helpers.odd_girth_brute(g)
        if want is None:
            assert cyc is None
            return
        assert len(cyc) == want
        k = len(cyc)
        for i in range(k):
            assert g.has_edge(cyc[i], cyc[(i + 1) % k])
        for i, j in itertools.combinations(range(k), 2):
            if (j - i) % k not in (1, k - 1):
                assert not g.has_edge(cyc[i], cyc[j])


class TestFindInduced:
    def test_identity_embedding(self):
        p5 = pattern_graph("p5")
        emb = find_induced_subgraph(p5, p5)
        assert emb.image == (0, 1, 2, 3, 4)

    def test_c5_is_p5_free(self):
        assert find_induced_subgraph(cycle_graph(5), pattern_graph("p5")) is None

    def test_c7_has_consecutive_p5(self):
        emb = find_induced_subgraph(cycle_graph(7), pattern_graph("p5"))
        assert sorted(emb.image) == [0, 1, 2, 3, 4]

    def test_pattern_cap(self):
        with pytest.raises(CapabilityError):
            find_induced_subgraph(complete_graph(12), path_graph(11))

    def test_embedding_validates(self):
        with pytest.raises(ValueError):
            InducedEmbedding(path_graph(2), path_graph(3), (0, 2))

    def test_within_matches_search_of_the_copy(self):
        rng = random.Random(8)
        hits = 0
        for _ in range(400):
            n = rng.randint(1, 12)
            g = helpers.random_graph(n, rng.uniform(0.1, 0.7), rng)
            subset = [v for v in range(n) if rng.random() < 0.75]
            sub, back = induced_subgraph(g, subset)
            for name in ("c5", "p3", "p5"):
                pat = pattern_graph(name)
                emb = find_induced_subgraph(g, pat, within=subset)
                want = find_induced_subgraph(sub, pat)
                if want is None:
                    assert emb is None
                    continue
                hits += 1
                assert emb.host is g
                assert emb.image == tuple(back[v] for v in want.image)
        assert hits > 100

    def test_within_ignores_vertices_outside(self):
        # the only induced P3 of the path 0-1-2 runs through vertex 1
        assert find_induced_subgraph(path_graph(3), path_graph(3),
                                     within=(0, 2)) is None
        emb = find_induced_subgraph(cycle_graph(6), path_graph(3),
                                    within=range(2, 6))
        assert emb.image == (2, 3, 4)

    @given(graphs_st, st.sampled_from(["p4", "p5", "c5", "2p2", "p3+1p1"]))
    def test_matches_exhaustive_scan(self, g, name):
        pat = pattern_graph(name)
        emb = find_induced_subgraph(g, pat)
        assert (emb is not None) == helpers.exhaustive_induced(g, pat)
        if emb is not None:
            for i, j in itertools.combinations(range(pat.n), 2):
                assert pat.has_edge(i, j) == g.has_edge(emb.image[i], emb.image[j])


class TestBitrows:
    def test_rows_are_int_bitsets(self):
        rows = path_graph(4).bitrows()
        assert [rows[v] for v in range(4)] == [0b10, 0b101, 0b1010, 0b100]

    @given(graphs_st, st.data())
    def test_every_row_read_is_the_neighbour_bitset(self, g, data):
        rows = g.bitrows()
        for v in data.draw(st.lists(st.integers(0, g.n - 1))):
            assert rows[v] == sum(1 << w for w in g.adj[v])

    def test_holds_exactly_the_rows_read(self):
        g = cycle_graph(6)
        rows = g.bitrows()
        assert len(rows) == 0
        assert [rows[4], rows[1], rows[4]] == [0b101000, 0b101, 0b101000]
        assert g.bitrows() is rows
        assert dict(rows) == {4: 0b101000, 1: 0b101}

    def test_iter_bits_ascending(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(1 << 200 | 1 << 64)) == [64, 200]


class TestFindK4:
    def test_k4_itself(self):
        assert find_k4(complete_graph(4)) == (0, 1, 2, 3)

    def test_c5_none(self):
        assert find_k4(cycle_graph(5)) is None

    def test_k5_some_quad(self):
        quad = find_k4(complete_graph(5))
        assert quad is not None and len(set(quad)) == 4

    @given(graphs_st)
    def test_within_matches_brute(self, g):
        cliques = [
            sub for sub in itertools.combinations(range(g.n), 4)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
        ]
        for bits in range(1 << g.n):
            within = {v for v in range(g.n) if bits >> v & 1}
            quad = find_k4(g, within=within)
            brute = any(len(within.intersection(sub)) >= 3 for sub in cliques)
            assert (quad is not None) == brute
            if quad is not None:
                assert quad in cliques and len(within.intersection(quad)) >= 3

    @given(graphs_st)
    def test_without_within_matches_the_edge_scan(self, g):
        assert find_k4(g) == helpers.whole_k4(g)

    @given(graphs_st)
    def test_matches_brute(self, g):
        quad = find_k4(g)
        brute = any(
            all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
            for sub in itertools.combinations(range(g.n), 4)
        ) if g.n >= 4 else False
        assert (quad is not None) == brute
        if quad is not None:
            assert all(
                g.has_edge(a, b) for a, b in itertools.combinations(quad, 2)
            )


class TestPatternNames:
    def test_paths_cycles(self):
        assert pattern_graph("p5") == path_graph(5)
        assert pattern_graph("c5") == cycle_graph(5)
        assert pattern_graph("p6").n == 6

    def test_matchings(self):
        assert pattern_graph("2p2") == matching_graph(2)
        assert pattern_graph("3p2").m == 3

    def test_path_plus_isolated(self):
        g = pattern_graph("p3+1p1")
        assert g.n == 4 and g.m == 2
        g = pattern_graph("p2+2p1")
        assert g.n == 4 and g.m == 1

    def test_bad_name(self):
        with pytest.raises(ValueError):
            pattern_graph("q7")


class TestInducedSubgraph:
    def test_mapping(self):
        g = cycle_graph(5)
        sub, back = induced_subgraph(g, [0, 1, 3])
        assert back == (0, 1, 3)
        assert sub.m == 1 and sub.has_edge(0, 1)

    @given(graphs_st)
    def test_preserves_adjacency(self, g):
        keep = [v for v in range(g.n) if v % 2 == 0]
        sub, back = induced_subgraph(g, keep)
        for i, j in itertools.combinations(range(sub.n), 2):
            assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])

    def test_same_graph_as_build_graph_on_the_kept_edges(self):
        # the copy skips build_graph; it must still come out normalised
        rng = random.Random(17)
        for k in range(300):
            n = rng.randint(0, 14)
            g = helpers.random_graph(n, rng.uniform(0.1, 0.9), rng)
            keep = ([] if k % 3 == 0 else list(range(n)) if k % 3 == 1
                    else rng.sample(range(n), rng.randint(0, n)))
            sub, back = induced_subgraph(g, keep)
            assert back == tuple(sorted(keep))
            index = {old: new for new, old in enumerate(back)}
            want = build_graph(len(back), [(index[u], index[v]) for u, v in g.edges
                                           if u in index and v in index])
            assert sub.n == want.n
            assert sub.edges == want.edges
            assert sub.adj == want.adj


class TestSplitPartition:
    def test_cycles_are_not_split(self):
        assert helpers.split_partition(cycle_graph(4)) is None
        assert helpers.split_partition(cycle_graph(5)) is None

    def test_split_graph(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
        out = helpers.split_partition(g)
        assert out is not None
        clique, indep = out
        assert all(
            g.has_edge(a, b) for a, b in itertools.combinations(clique, 2)
        )
        assert all(
            not g.has_edge(a, b) for a, b in itertools.combinations(indep, 2)
        )

    @given(graphs_st)
    def test_matches_brute_force(self, g):
        def brute_is_split():
            for r in range(g.n + 1):
                for cl in itertools.combinations(range(g.n), r):
                    cs = set(cl)
                    if not all(
                        g.has_edge(a, b)
                        for a, b in itertools.combinations(cl, 2)
                    ):
                        continue
                    rest = [v for v in range(g.n) if v not in cs]
                    if all(
                        not g.has_edge(a, b)
                        for a, b in itertools.combinations(rest, 2)
                    ):
                        return True
            return False

        assert (helpers.split_partition(g) is not None) == brute_is_split()
